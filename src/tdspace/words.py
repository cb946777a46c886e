"""Duplication-word automaton: stepping, enumeration and exact counting.

A word records the somatic connections of a rearranged genome in genome
order.  One tandem duplication (TD) turns the word ``W`` into

    W(1:a-1) + W(a:b) + n + W(a:b) + W(b+1:end)  =  W(1:b) + n + W(a:end)

where ``(a, b)`` selects the (possibly empty, when ``b == a - 1``) subword
of duplicated connections, and ``n`` is the new connection's number.
Indexing is 1-based and inclusive throughout, matching the usual
subword notation.  The process starts from the one-letter word ``1``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import accumulate
from operator import mul
from typing import Callable, Iterator, NamedTuple, Sequence

from .errors import (
    BudgetExceededError,
    DerivationCollisionError,
    IndexOutOfRangeError,
    ParseError,
    ValidationError,
    _check_depth,
    _check_whole,
)

#: A word is a tuple of connection numbers, e.g. ``(3, 1, 2, 1)``.
Word = tuple[int, ...]

FIRST_WORD: Word = (1,)

DEFAULT_MAX_N = 6

#: Deepest word count by default; n = 20 takes 1.1–1.4 s and 163 MB (2 vCPUs).
WORD_COUNT_MAX_N = 20


class DupChoice(NamedTuple):
    """Duplication bounds ``(a, b)``, 1-based inclusive; ``b == a - 1`` is empty."""

    a: int
    b: int


def td_step(word: Sequence[int], choice: DupChoice | tuple[int, int], symbol: int) -> Word:
    """Apply one tandem duplication to ``word``.

    ``choice`` gives the duplicated subword bounds; ``symbol`` is the new
    connection number inserted between the two copies.  Raises
    :class:`IndexOutOfRangeError` when the bounds leave the word (valid:
    ``1 <= a <= len + 1`` and ``a - 1 <= b <= len``), and
    :class:`BudgetExceededError` before it builds a word of
    ``2**WORD_COUNT_MAX_N`` symbols or more, which no word of as many TDs reaches.  The
    result is built as ``W(1:b) + symbol + W(a:end)``, which equals the
    four-part definition.  This is the checked entry point, used by the
    replay of :class:`WordEvolution`.  :func:`_derive`, the byte walk
    :func:`_distinct_words` and the simulator's leaves skip the checks:
    their choices come from :func:`choices_for`, the fiber rule or the
    simulator's own choices, so they are valid by construction.
    """
    a, b = choice
    w = tuple(word)
    m = len(w)
    if not (1 <= a <= m + 1):
        raise IndexOutOfRangeError(f"start index a={a} outside 1..{m + 1} for word of length {m}")
    if not (a - 1 <= b <= m):
        raise IndexOutOfRangeError(f"end index b={b} outside {a - 1}..{m} for a={a}")
    if m + b - a + 2 >= 2**WORD_COUNT_MAX_N:
        raise BudgetExceededError(f"a word of {m + b - a + 2} symbols exceeds the budget "
                                  f"of {2**WORD_COUNT_MAX_N - 1}")
    return _step(w, choice, symbol)


def _step(word: Word, choice: tuple[int, int], symbol: int) -> Word:
    """:func:`td_step` without its checks: ``choice`` must be valid on ``word``."""
    a, b = choice
    return word[:b] + (symbol,) + word[a - 1 :]


def choices_for(word: Sequence[int]) -> Iterator[DupChoice]:
    """All valid duplication choices on ``word``, in lexicographic (a, b) order."""
    m = len(word)
    for a in range(1, m + 2):
        for b in range(a - 1, m + 1):
            yield DupChoice(a, b)


def choice_count(length: int) -> int:
    """Number of duplication choices on a word of the given length."""
    return (length + 1) * (length + 2) // 2


@dataclass(frozen=True)
class WordEvolution:
    """A full derivation: the choice sequence and every intermediate word.

    ``steps[k]`` produces word ``k + 2`` (the first word is always ``1``,
    created by the initial TD which admits no choice).  The steps are
    replayed, and ``words``, when given, must equal the replay.
    """

    steps: tuple[DupChoice, ...]
    words: tuple[Word, ...] = ()

    def __post_init__(self):
        steps = tuple(DupChoice(*s) for s in self.steps)
        object.__setattr__(self, "steps", steps)
        words = [FIRST_WORD]
        try:
            for i, step in enumerate(steps):
                words.append(td_step(words[-1], step, i + 2))
        except IndexOutOfRangeError as exc:
            raise ValidationError(f"invalid step {i + 1} {tuple(step)}: {exc}") from exc
        if self.words and tuple(map(tuple, self.words)) != tuple(words):
            raise ValidationError("the given words do not follow the steps")
        object.__setattr__(self, "words", tuple(words))

    @property
    def n(self) -> int:
        """Number of tandem duplications."""
        return len(self.steps) + 1

    @property
    def terminal_word(self) -> Word:
        return self.words[-1]

    def __str__(self) -> str:
        return " -> ".join(word_to_text(w) for w in self.words)


def _evolution_unchecked(steps: tuple[DupChoice, ...], words: tuple[Word, ...]) -> WordEvolution:
    ev = object.__new__(WordEvolution)
    object.__setattr__(ev, "steps", steps)
    object.__setattr__(ev, "words", words)
    return ev


def _derive(
    steps: tuple, words: tuple, n: int, choices: Callable, fold: Callable | None = None, state=None
) -> Iterator:
    """Yield every derivation of ``n`` TDs that extends ``steps``/``words``.

    Every caller enters at the root, ``steps = ()`` and ``words =
    (FIRST_WORD,)``; the walk recurses below it.  On word ``depth``
    (1-based, the last of ``words`` so far) it takes the steps
    ``choices(depth, word)`` in the order given, each with every
    derivation below it before the next.  The choices come from
    :func:`choices_for` or the fiber rule, so each is valid on its word
    and is stepped by the unchecked :func:`_step`, as ``W(1:b) + n +
    W(a:end)``.  A ``fold`` carries ``state`` down the walk, as
    ``fold(state, choice, word)`` per step, and the walk then yields
    ``(evolution, state)``.
    """
    if len(words) == n:
        ev = _evolution_unchecked(steps, words)
        yield ev if fold is None else (ev, state)
        return
    depth, word = len(words), words[-1]
    for c in choices(depth, word):
        child = (steps + (c,), words + (_step(word, c, depth + 1),), n, choices)
        yield from _derive(*child) if fold is None else _derive(*child, fold, fold(state, c, word))


def enumerate_word_evolutions(n: int, *, max_n: int = DEFAULT_MAX_N) -> Iterator[WordEvolution]:
    """Every derivation with ``n`` TDs, in lexicographic step order.

    ``n < 1`` raises :class:`ValidationError` and ``n > max_n``
    :class:`BudgetExceededError` (the level sizes grow faster than
    exponentially), both at the call, before the walk starts.
    """
    _check_depth("enumeration of", n, max_n)
    return _derive((), (FIRST_WORD,), n, lambda _depth, word: choices_for(word))


def distinct_words(n: int, max_n: int = DEFAULT_MAX_N) -> set[Word]:
    """The set of words reachable by exactly ``n`` TDs: the tuple view of
    the byte walk :func:`_distinct_words`, with all of its checks."""
    return set(map(tuple, _distinct_words(n, max_n)))


def _distinct_words(n: int, max_n: int) -> set[bytes]:
    """The words of ``n`` TDs as byte strings, one byte per symbol.

    Walks level by level over word *sets* and cross-checks, at every level,
    that the number of derivations matches the number of distinct words
    (each word is supposed to arise from exactly one derivation).  A
    mismatch raises :class:`DerivationCollisionError` rather than deduping
    silently.

    Each word's ``m + 1`` heads ``W(1:b) + depth`` are built once, so a
    child ``W(1:b) + depth + W(a:end)``, ``b >= a - 1``, is one unchecked
    concatenation.  Bytes concatenate and hash about twice as fast as
    tuples; a symbol, a TD number ``<= n``, fits a byte at any depth reached.
    """
    _check_depth("word sweep for", n, max_n)
    level = {bytes(FIRST_WORD)}
    for depth in range(2, n + 1):
        expected = sum(choice_count(len(w)) for w in level)
        nxt: set[bytes] = set()
        add, symbol = nxt.add, bytes((depth,))
        for w in level:
            heads = [w[:b] + symbol for b in range(len(w) + 1)]
            for start in range(len(w) + 1):
                tail = w[start:]
                for head in heads[start:]:
                    add(head + tail)
        if len(nxt) != expected:
            raise DerivationCollisionError(
                f"{expected} derivations produced only {len(nxt)} distinct words at {depth} TDs"
            )
        level = nxt
    return level


def _count_level(n: int, max_len: int) -> list[int]:
    """``w(m, n)`` for ``m = 0 .. min(max_len, 2**n - 1)``, level by level.

    The coefficient ``2k - m + 2`` is linear in ``k``, so with prefix sums
    ``S0`` of ``w(k, n-1)`` and ``S1`` of ``k * w(k, n-1)`` each entry is
    ``2 * (S1[hi] - S1[lo]) - (m - 2) * (S0[hi] - S0[lo])`` over
    ``lo = m // 2``, ``hi = min(m, len(previous row))``; the coefficient
    counts the choices whose child ``W(1:b) + n + W(a:end)`` of a
    length-``k`` word has length ``m = k + b - a + 2``.  Each level is
    built in two runs split at ``m = len(previous row)``: below it
    ``hi = m``, and from it on the sums at ``hi`` are constants.  Lengths
    past ``max_len`` are never needed below it, since a predecessor is
    shorter.  Nothing is checked or cached: the row and
    :func:`word_count_recursion` check ``n`` and the budget first.
    """
    row = [1]
    for level in range(1, n + 1):
        s0 = list(accumulate(row, initial=0))
        s1 = list(accumulate(map(mul, range(len(row)), row), initial=0))
        top, size = len(row), min(2**level, max_len + 1)
        t0, t1 = s0[top], s1[top]
        row = [2 * (s1[m] - s1[m // 2]) - (m - 2) * (s0[m] - s0[m // 2]) for m in range(top)]
        row += [2 * (t1 - s1[m // 2]) - (m - 2) * (t0 - s0[m // 2]) for m in range(top, size)]
    return row


def word_count_recursion(m: int, n: int) -> int:
    """Number of distinct words of length ``m`` after ``n`` TDs, by recursion.

    A word of length ``m`` arises from a length-``k`` predecessor in
    ``2k - m + 2`` ways (the duplicated subword has length ``m - k - 1``),
    so ``w(m, n) = sum_k (2k - m + 2) * w(k, n-1)`` over
    ``k = m // 2 .. m - 1``, anchored at ``w(0, 0) = 1``.  Costs
    ``O(n * min(m, 2**n))``.  A word after ``n`` TDs has length ``n`` to
    ``2**n - 1``, so other lengths give 0 at once.  Before any work, a
    non-``int`` argument raises :class:`ValidationError`, and a query whose
    levels hold more entries than ``word_count_row(WORD_COUNT_MAX_N)`` builds
    raises :class:`BudgetExceededError`.
    """
    _check_whole("symbols", m)
    _check_whole("TDs", n)
    if m < n or m.bit_length() > n:
        return 0
    # level k holds min(2**k, m + 1) entries, all 2**k up to level ``full``;
    # the levels of the row at WORD_COUNT_MAX_N hold 2**(WORD_COUNT_MAX_N + 1) - 1
    full = min(n, (m + 1).bit_length() - 1)
    if 2 ** (full + 1) + (n - full) * (m + 1) > 2 ** (WORD_COUNT_MAX_N + 1):
        raise BudgetExceededError(
            f"word count of length {m} after {n} TDs exceeds the budget of {WORD_COUNT_MAX_N}"
        )
    return _count_level(n, m)[m]


def _row(n: int) -> list[int]:
    """``w(m, n)`` for every length ``m < 2**n``, after the checks of the row."""
    _check_depth("word count of", n, WORD_COUNT_MAX_N)
    return _count_level(n, 2**n - 1)


def word_count_row(n: int) -> dict[int, int]:
    """Nonzero word counts by length for ``n`` TDs (keys ``n .. 2**n - 1``).

    One level-by-level pass, ``O(n * 2**n)``; past ``WORD_COUNT_MAX_N`` it
    raises :class:`BudgetExceededError` before any work (rows double per level).
    """
    return {m: c for m, c in enumerate(_row(n)) if c}


def word_count_total(n: int) -> int:
    """Total number of distinct words (equivalently derivations) after ``n`` TDs."""
    return sum(_row(n))


def word_to_text(word: Sequence[int]) -> str:
    """Render a word: digit string while all symbols are single-digit."""
    if word and max(word) > 9:
        return ",".join(str(x) for x in word)
    return "".join(str(x) for x in word)


def parse_evolution(text: str) -> WordEvolution:
    """Parse the canonical JSON form ``{"steps": [[a, b], ...]}``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", position=exc.pos) from exc
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict) or "steps" not in doc:
        raise ValidationError("expected an object with a 'steps' field")
    steps = doc["steps"]
    if not isinstance(steps, list):
        raise ValidationError("'steps' must be a list of [a, b] pairs")
    parsed = []
    for i, entry in enumerate(steps):
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in entry)
        ):
            raise ValidationError(f"step {i} is not an [a, b] integer pair: {entry!r}")
        parsed.append(DupChoice(*entry))
    return WordEvolution(steps=tuple(parsed))


def format_evolution(ev: WordEvolution) -> str:
    """Canonical JSON form; ``parse_evolution`` round-trips it."""
    return json.dumps({"steps": [[c.a, c.b] for c in ev.steps]}, separators=(",", ":"))
