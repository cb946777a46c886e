"""Genome-state simulation: choices, records, and the distinct-object table."""

import pytest

from tdspace import (
    BudgetExceededError,
    TdChoice,
    apply_td,
    enumerate_choices,
    enumerate_process,
    initial_state,
    tabulate,
    word_of,
)

TABLE = {
    1: (1, 1, 1, 1),
    2: (3, 7, 8, 11),
    3: (22, 225, 288, 627),
}


def row_tuple(row):
    return (row.words, row.cnvs, row.td_graphs, row.evolutions)


def after_first_td():
    return apply_td(initial_state(), TdChoice(0, 0, None))


def test_initial_state_has_one_choice():
    state = initial_state()
    assert state.n == 0
    assert enumerate_choices(state) == [TdChoice(0, 0, None)]


def test_choice_fanout_after_first_td():
    state = after_first_td()
    choices = enumerate_choices(state)
    assert len(choices) == 11
    assert all(c.g1 <= c.g2 for c in choices)
    # an order flag appears exactly when both cuts land in distinct
    # copies of the same reference interval
    flagged = [c for c in choices if c.order_flag is not None]
    refs = state.genome
    for c in flagged:
        assert c.g1 != c.g2 and refs[c.g1] == refs[c.g2]
    assert len(flagged) == 2 * sum(
        1
        for i in range(len(refs))
        for j in range(i + 1, len(refs))
        if refs[i] == refs[j]
    )


def test_second_td_worked_example():
    """Cut start in the first copy, end in the second, reference-reversed."""
    state = apply_td(after_first_td(), TdChoice(1, 2, False))
    assert word_of(state) == (1, 2, 1)
    assert state.steps == ((1, 1),)
    final_cnv = cnv_of(state)
    assert final_cnv == (1, 3, 2, 3, 1)


def test_second_td_forward_flag_changes_profile():
    state = apply_td(after_first_td(), TdChoice(1, 2, True))
    assert cnv_of(state) == (1, 3, 4, 3, 1)
    assert word_of(state) == (1, 2, 1)


def cnv_of(state):
    counts = {rid: 0 for rid in state.ref}
    for rid in state.genome:
        counts[rid] += 1
    return tuple(counts[rid] for rid in state.ref)


def test_word_readoff_matches_derived_steps():
    """The junction word and the replayed step word agree everywhere."""
    from tdspace import WordEvolution

    def walk(state, depth):
        replayed = WordEvolution(steps=state.steps).terminal_word if state.n else (1,)
        assert word_of(state) == replayed or state.n == 0
        if depth == 0:
            return
        for choice in enumerate_choices(state):
            walk(apply_td(state, choice), depth - 1)

    walk(after_first_td(), 2)


@pytest.mark.parametrize("n", sorted(TABLE))
def test_table_rows(n):
    row = tabulate(n)
    assert row_tuple(row) == TABLE[n]
    assert row.paths == row.evolutions  # records never collide


def test_workers_do_not_change_the_row():
    assert tabulate(3, workers=3) == tabulate(3)


def test_depth_budget():
    with pytest.raises(BudgetExceededError):
        tabulate(5)
    with pytest.raises(BudgetExceededError):
        list(enumerate_process(5))


def test_memory_budget():
    with pytest.raises(BudgetExceededError):
        tabulate(3, max_mem_bytes=10_000)
    assert row_tuple(tabulate(3, max_mem_bytes=50_000_000)) == TABLE[3]


def test_records_expose_every_step():
    for rec in enumerate_process(2):
        assert len(rec.genomes) == 2  # after TD1, after TD2
        assert len(rec.graphs) == 2
        assert rec.word_evolution.n == 2
