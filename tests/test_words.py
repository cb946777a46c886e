"""Word automaton: stepping, enumeration, counting, serialization."""

import copy
import dataclasses
import pickle
import random
import tracemalloc

import pytest

import tdspace.words
from tdspace import (
    BudgetExceededError,
    DerivationCollisionError,
    DupChoice,
    IndexOutOfRangeError,
    ParseError,
    ValidationError,
    WordEvolution,
    choice_count,
    choices_for,
    distinct_words,
    enumerate_word_evolutions,
    format_evolution,
    parse_evolution,
    td_step,
    word_count_recursion,
    word_count_row,
    word_count_total,
    word_to_text,
)
from tdspace.words import FIRST_WORD, WORD_COUNT_MAX_N

#: ``word_count_total(n)`` for n = 1..11, frozen from the O(4^n) recursion.
WORD_TOTALS = {
    1: 1,
    2: 3,
    3: 22,
    4: 377,
    5: 15315,
    6: 1539281,
    7: 404159937,
    8: 292844271366,
    9: 614842963688234,
    10: 3894850463895877919,
    11: 76893607589061562737682,
}


def test_td_step_worked_examples():
    assert td_step((1,), (1, 1), 2) == (1, 2, 1)
    assert td_step((1,), (1, 0), 2) == (2, 1)
    assert td_step((1,), (2, 1), 2) == (1, 2)
    # duplicating an inner subword keeps both flanks
    assert td_step((1, 2, 1), (2, 3), 4) == (1, 2, 1, 4, 2, 1)


def test_td_step_length_identity():
    rng = random.Random(4)
    word = (1,)
    for sym in range(2, 12):
        options = list(choices_for(word))
        a, b = options[rng.randrange(len(options))]
        new = td_step(word, (a, b), sym)
        assert len(new) == len(word) + (b - a + 1) + 1
        assert new.count(sym) == 1
        word = new


def _reference_step(word, choice, symbol):
    """The definition of a TD, ``W(1:a-1) + W(a:b) + n + W(a:b) + W(b+1:m)``."""
    a, b = choice
    return word[: a - 1] + word[a - 1 : b] + (symbol,) + word[a - 1 : b] + word[b:]


def _reference_level(n):
    """The words after ``n`` TDs, by a level sweep through ``_reference_step``."""
    level = {FIRST_WORD}
    for depth in range(2, n + 1):
        level = {_reference_step(w, c, depth) for w in level for c in choices_for(w)}
    return level


def test_td_step_matches_the_definition(random_evolution):
    """``W(1:b) + n + W(a:m)`` is the five-slice definition on every choice."""
    words = set().union(*map(_reference_level, range(1, 5)))
    words |= {random_evolution(n, seed).terminal_word for n in range(1, 13) for seed in range(4)}
    for word in words:
        symbol = max(word) + 1
        for c in choices_for(word):
            assert td_step(word, c, symbol) == _reference_step(word, c, symbol)


def test_every_sweep_reaches_the_reference_level():
    for n in range(1, 6):
        level = _reference_level(n)
        assert distinct_words(n) == level
        assert {ev.terminal_word for ev in enumerate_word_evolutions(n)} == level


def test_sweeps_make_no_checked_step(monkeypatch):
    """Neither sweep goes through ``td_step``: each starts at the root."""
    calls = []

    def counted(*args):
        calls.append(args)
        return td_step(*args)

    monkeypatch.setattr(tdspace.words, "td_step", counted)
    assert len(distinct_words(4)) == WORD_TOTALS[4]
    assert len(list(enumerate_word_evolutions(4))) == WORD_TOTALS[4]
    assert calls == []


@pytest.mark.parametrize("choice", [(0, 0), (1, 2), (3, 1), (2, 0), (-1, -1)])
def test_td_step_rejects_out_of_range(choice):
    with pytest.raises(IndexOutOfRangeError):
        td_step((1,), choice, 2)


def test_choice_count_matches_enumeration():
    for word in [(1,), (1, 2, 1), (3, 1, 2, 1), (1, 2, 1, 4, 2, 1)]:
        options = list(choices_for(word))
        assert len(options) == choice_count(len(word))
        assert len(set(options)) == len(options)
    assert choice_count(1) == 3
    assert choice_count(3) == 10


def test_choices_are_shared_below_the_table_bound():
    """Every word shorter than 64 symbols, so every word of up to 6 TDs,
    gets the same choice objects on every call."""
    for m in range(64):
        first, again = list(choices_for((1,) * m)), list(choices_for((2,) * m))
        assert all(x is y for x, y in zip(first, again, strict=True)), m


def test_choices_equal_fresh_ones_on_both_sides_of_the_table_bound():
    for m in range(71):
        fresh = [DupChoice(a, b) for a in range(1, m + 2) for b in range(a - 1, m + 1)]
        options = list(choices_for((1,) * m))
        assert options == fresh and all(type(c) is DupChoice for c in options), m


def test_evolution_has_slots_and_stays_a_frozen_value():
    ev = WordEvolution(steps=((1, 1), (1, 0), (2, 3)))
    assert not hasattr(ev, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        ev.steps = ()
    assert hash(ev) == hash(WordEvolution(steps=ev.steps))
    for twin in (pickle.loads(pickle.dumps(ev)), copy.deepcopy(ev), copy.copy(ev)):
        assert twin == ev and hash(twin) == hash(ev) and twin.words == ev.words
    derived = next(iter(enumerate_word_evolutions(4)))
    assert pickle.loads(pickle.dumps(derived)) == copy.deepcopy(derived) == derived


def test_derivations_hold_at_most_400_bytes_each():
    """The 15,315 derivations of five TDs share their choices and carry no
    instance dict; with a fresh choice per step and a dict they held 454."""
    list(choices_for((1,) * 31))  # the table rows that n = 5 reads
    tracemalloc.start()
    try:
        evolutions = list(enumerate_word_evolutions(5))
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(evolutions) == WORD_TOTALS[5]
    assert held / len(evolutions) <= 400, held / len(evolutions)


def test_evolution_replays_words():
    ev = WordEvolution(steps=((1, 1), (1, 0), (2, 3)))
    assert ev.n == 4
    assert [word_to_text(w) for w in ev.words] == ["1", "121", "3121", "3124121"]
    assert ev.terminal_word == (3, 1, 2, 4, 1, 2, 1)
    assert str(ev) == "1 -> 121 -> 3121 -> 3124121"


def test_evolution_rejects_invalid_step():
    with pytest.raises(ValidationError):
        WordEvolution(steps=((5, 5),))
    with pytest.raises(ValidationError):
        WordEvolution(steps=((1, 1), (9, 9)))


def test_replay_stops_before_a_word_past_the_budget():
    """A word of n TDs has at most 2**n - 1 symbols, so every word of
    WORD_COUNT_MAX_N TDs replays, and a longer one is refused before it
    is built: doubling the word at each step reaches 2**k - 1 symbols at
    k TDs, and 30 such steps would need 2**31 - 1."""
    doubling = tuple((1, 2**k - 1) for k in range(1, 31))
    message = "^a word of 2097151 symbols exceeds the budget of 1048575$"
    with pytest.raises(BudgetExceededError, match=message):
        WordEvolution(steps=doubling)
    longest = WordEvolution(steps=doubling[: WORD_COUNT_MAX_N - 1])
    assert (longest.n, len(longest.terminal_word)) == (WORD_COUNT_MAX_N, 2**WORD_COUNT_MAX_N - 1)
    # the first word of 2**WORD_COUNT_MAX_N symbols is the first refused
    assert len(td_step(longest.terminal_word[1:], (1, 0), 2)) == 2**WORD_COUNT_MAX_N - 1
    with pytest.raises(BudgetExceededError, match="a word of 1048576 symbols"):
        td_step(longest.terminal_word, (1, 0), 2)


def test_evolution_checks_given_words():
    """Words passed in are replayed from the steps, never trusted."""
    ev = WordEvolution(steps=((1, 1), (1, 0), (2, 3)))
    assert WordEvolution(steps=ev.steps, words=ev.words) == ev
    with pytest.raises(ValidationError, match="do not follow the steps"):
        WordEvolution(steps=ev.steps, words=ev.words[:-1] + ((3, 1, 2, 4, 2, 1, 1),))
    # the second step leaves its word, whatever words come with it
    with pytest.raises(ValidationError, match="invalid step 2"):
        WordEvolution(steps=((1, 0), (3, 3)), words=((1,), (2, 1), (1,)))


def test_level_sizes_and_word_bijection():
    """Each derivation reaches its own word, so levels count both."""
    for n in range(1, 5):
        evolutions = list(enumerate_word_evolutions(n))
        words = {ev.terminal_word for ev in evolutions}
        assert len(evolutions) == WORD_TOTALS[n]
        assert len(words) == WORD_TOTALS[n]


def test_words_have_distinct_neighbours_and_no_zero_up_to_5():
    """Padded with the roots' 0 at each end, every word of every level
    n <= 5 has distinct neighbours and a 0 only at its ends: only TD 1's
    empty word puts a breakpoint on a segment whose two ends tie."""
    checked = 0
    for n in range(1, 6):
        for word in distinct_words(n):
            padded = (0, *word, 0)
            assert 0 not in word and all(x != y for x, y in zip(padded, padded[1:])), word
            checked += 1
    assert checked == 15718


def test_a_collision_of_derivations_raises(monkeypatch):
    """One derivation too many per word is a collision, never deduped."""
    choices = tdspace.words.choice_count
    monkeypatch.setattr(tdspace.words, "choice_count", lambda length: choices(length) + 1)
    with pytest.raises(DerivationCollisionError, match="4 derivations produced only 3 distinct"):
        distinct_words(3)


def test_enumeration_budget():
    with pytest.raises(BudgetExceededError):
        list(enumerate_word_evolutions(7))
    with pytest.raises(BudgetExceededError):
        distinct_words(6, max_n=5)
    with pytest.raises(ValidationError):
        list(enumerate_word_evolutions(0))
    with pytest.raises(ValidationError, match="need n >= 1, got 0"):
        distinct_words(0)


def test_enumeration_raises_at_the_call():
    with pytest.raises(BudgetExceededError, match="enumeration of 7 TDs exceeds the budget of 6"):
        enumerate_word_evolutions(7)
    with pytest.raises(ValidationError, match="need n >= 1, got 0"):
        enumerate_word_evolutions(0)


def test_word_count_recursion_against_enumeration():
    for n in range(1, 5):
        counts = {}
        for w in distinct_words(n):
            counts[len(w)] = counts.get(len(w), 0) + 1
        assert word_count_row(n) == counts


def test_word_count_row_frozen_n3():
    assert word_count_row(3) == {3: 6, 4: 8, 5: 5, 6: 2, 7: 1}
    assert word_count_recursion(5, 3) == 5


def test_word_count_totals():
    for n, total in WORD_TOTALS.items():
        assert word_count_total(n) == total


def _reference_recursion(m, n, memo):
    """The former O(4^n) recursion, one sum of predecessors per length."""
    if m < 0 or n < 0:
        return 0
    if n == 0:
        return 1 if m == 0 else 0
    if (m, n) not in memo:
        memo[m, n] = sum(
            (2 * k - m + 2) * _reference_recursion(k, n - 1, memo)
            for k in range((m - 1) // 2 if m > 0 else 0, m)
            if 2 * k - m + 2 > 0
        )
    return memo[m, n]


def test_word_counts_match_the_reference():
    memo = {}
    for n in range(9):
        reference = {m: _reference_recursion(m, n, memo) for m in range(-1, 2**n + 1)}
        assert {m: word_count_recursion(m, n) for m in reference} == reference
        if n:
            assert word_count_row(n) == {m: c for m, c in reference.items() if c}
    assert word_count_recursion(0, -1) == 0
    assert word_count_recursion(3, 40) == 0


def test_word_total_counts_choices_on_the_level_below():
    """Each word of length m at level n - 1 has choice_count(m) successors."""
    for n in range(2, 17):
        below = word_count_row(n - 1)
        assert word_count_total(n) == sum(choice_count(m) * c for m, c in below.items())


def test_word_count_budget(monkeypatch):
    assert WORD_COUNT_MAX_N == 20
    with pytest.raises(BudgetExceededError):
        word_count_row(WORD_COUNT_MAX_N + 1)
    with pytest.raises(BudgetExceededError):
        word_count_total(30)
    with pytest.raises(ValidationError):
        word_count_row(0)
    # past n = 20, a length whose levels fit the budget is still counted
    assert word_count_recursion(25, 21) == 4666132326325193944704000
    # at a budget of 6, the levels of (15, 10) hold 2**5 + 6 * 16 = 128 = 2**7
    # entries, exactly the budget; those of (15, 11) hold 144
    on_the_budget = word_count_row(10)[15]
    with monkeypatch.context() as patch:
        patch.setattr(tdspace.words, "WORD_COUNT_MAX_N", 6)
        assert word_count_recursion(15, 10) == on_the_budget == 12391892296

    def no_work(*args):
        raise AssertionError("the row was built")

    # every refusal and every empty length comes before any work
    monkeypatch.setattr(tdspace.words, "_count_level", no_work)
    with pytest.raises(BudgetExceededError):
        word_count_total(WORD_COUNT_MAX_N + 1)
    with pytest.raises(ValidationError):
        word_count_total(0)
    with pytest.raises(BudgetExceededError):
        word_count_recursion(2**21 - 5, 22)
    assert word_count_recursion(10**6 - 1, 10**6) == 0
    assert word_count_recursion(2**22, 22) == 0
    assert word_count_recursion(3, 40) == 0
    monkeypatch.setattr(tdspace.words, "WORD_COUNT_MAX_N", 6)
    with pytest.raises(BudgetExceededError):
        word_count_recursion(15, 11)


def test_length_five_words_at_level_three():
    words = sorted(word_to_text(w) for w in distinct_words(3) if len(w) == 5)
    assert words == ["12131", "12312", "12321", "13121", "21321"]


def test_word_text_roundtrip():
    assert word_to_text((1, 2, 1)) == "121"
    assert word_to_text(tuple(range(1, 12))) == "1,2,3,4,5,6,7,8,9,10,11"


def test_evolution_json_roundtrip():
    ev = WordEvolution(steps=((1, 1), (1, 0), (2, 3)))
    assert parse_evolution(format_evolution(ev)) == ev
    assert format_evolution(ev) == '{"steps":[[1,1],[1,0],[2,3]]}'


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[1, 2]",
        '{"steps": "nope"}',
        '{"steps": [[1]]}',
        '{"steps": [[1, true]]}',
        '{"stepz": []}',
    ],
)
def test_parse_evolution_rejects_malformed(text):
    with pytest.raises((ParseError, ValidationError)):
        parse_evolution(text)


def test_random_replays_are_deterministic():
    rng = random.Random(99)
    for _ in range(25):
        steps = []
        word = (1,)
        for sym in range(2, 2 + rng.randrange(1, 5)):
            options = list(choices_for(word))
            steps.append(options[rng.randrange(len(options))])
            word = td_step(word, steps[-1], sym)
        ev = WordEvolution(steps=tuple(steps))
        assert ev.terminal_word == word
        assert ev == WordEvolution(steps=tuple(steps))
