"""Genome-state simulation: choices, records, and the distinct-object table."""

import ast
import gc
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import threading
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import pytest

import tdspace.errors
import tdspace.simulator
from tdspace import (
    BudgetExceededError,
    Connection,
    GenomeState,
    TdChoice,
    TdGraph,
    ValidationError,
    WordEvolution,
    apply_td,
    closed_form,
    enumerate_choices,
    enumerate_process,
    initial_state,
    tabulate,
    total_evolutions_via_words,
    word_of,
)
from tdspace.beta import _hook_count
from tdspace.errors import Deadline
from tdspace.simulator import (
    DEEP_MAX_N, _ROOT, _choices, _children, _collect, _families, _replay, _split, _table_row,
    _take, _walk,
)
from tdspace.structure import (
    A_SIDE, B_SIDE, ROOT_A, ROOT_B, BreakpointId, build_2d_tree, hasse_diagram,
)
from tdspace.words import FIRST_WORD, td_step

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


def test_apply_td_checks_the_choice():
    bad_choices = (TdChoice(1, 2, None), TdChoice(0, 0, False), TdChoice(2, 1, None))
    for bad in (*bad_choices, TdChoice(0, 4, None)):
        with pytest.raises(ValidationError):
            apply_td(after_first_td(), bad)


@pytest.mark.parametrize(
    "state",
    [
        GenomeState((5,), (), ()),  # an interval past 2n
        GenomeState((300,), (), ()),  # and past a byte
        GenomeState((-1,), (), ()),
        GenomeState((0, 1, 1, 2), ((2, 0),), ()),  # a position past 2n - 1
        GenomeState((0, 1, 1, 2), ((1, -1),), ()),
        GenomeState((0, 1, 1, 2), ((1,),), ()),  # not a pair
    ],
)
def test_apply_td_checks_the_state(state):
    with pytest.raises(ValidationError):
        apply_td(state, TdChoice(0, 0, None))


def test_apply_td_checks_the_depth_budget():
    state = initial_state()
    for _ in range(DEEP_MAX_N):
        state = apply_td(state, TdChoice(0, len(state.genome) - 1, None))
    with pytest.raises(BudgetExceededError):
        apply_td(state, TdChoice(0, 0, None))


def cnv_of(state):
    return tuple(map(state.genome.count, range(2 * state.n + 1)))


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


@pytest.mark.parametrize("workers", [0, -2])
def test_a_worker_count_below_one_is_refused(workers):
    with pytest.raises(ValidationError, match=f"need workers >= 1, got {workers}"):
        tabulate(2, workers=workers)


def test_depth_budget():
    """The sweeps check their budgets, and the walk only the byte bound of
    its encoding, so a walk below a prefix still reaches n = 5."""
    with pytest.raises(BudgetExceededError, match="simulating 5 TDs exceeds the budget of 4"):
        tabulate(5)
    with pytest.raises(BudgetExceededError, match="simulating 5 TDs exceeds the budget of 4"):
        next(enumerate_process(5))
    with pytest.raises(ValidationError, match="need n >= 1, got 0"):
        tabulate(0)
    with pytest.raises(ValidationError, match="need n >= 1, got 0"):
        list(enumerate_process(0))
    prefix = reference_prefix(lambda state: enumerate_choices(state)[0], 3)
    assert {len(positions) // 2 for *_, positions in _walk(5, prefix)} == {5}
    with pytest.raises(BudgetExceededError, match="simulating 6 TDs exceeds the budget of 5"):
        next(_walk(6, ()))


def test_memory_budget():
    with pytest.raises(BudgetExceededError):
        tabulate(3, max_mem_bytes=10_000)
    assert row_tuple(tabulate(3, max_mem_bytes=50_000_000)) == TABLE[3]


def test_memory_budget_is_measured_in_every_worker_count():
    # the n=3 dedup holds 31,210 bytes
    for workers in (1, 3):
        with pytest.raises(BudgetExceededError):
            tabulate(3, workers=workers, max_mem_bytes=30_000)
        assert tabulate(3, workers=workers, max_mem_bytes=35_000) == tabulate(3)


def test_the_n4_dedup_fits_in_ten_million_bytes():
    """The layouts packed by derivation hold the n = 4 dedup to about
    5.3 MB; the packed record keys they replaced measured 7.2 MB, and a
    set of short record keys 24.3 MB."""
    assert tabulate(4, max_mem_bytes=10**7) == tabulate(4)


@pytest.mark.parametrize("bad", [0, -5])
def test_memory_budget_out_of_range_is_refused_before_any_work(monkeypatch, bad):
    def no_sweep(*args):
        raise AssertionError("swept")

    monkeypatch.setattr(tdspace.simulator, "_families", no_sweep)
    with pytest.raises(ValidationError, match=f"need max_mem_bytes >= 1, got {bad}$"):
        tabulate(3, max_mem_bytes=bad)


def smallest_passing_budget(n):
    """The bytes a 1-worker ``tabulate(n)`` holds, read off its failure."""
    with pytest.raises(BudgetExceededError) as exceeded:
        tabulate(n, max_mem_bytes=1)
    return int(re.search(r"hold (\d+) bytes", str(exceeded.value)).group(1))


@pytest.mark.parametrize("workers", [1, 2, 3, 11])
def test_memory_budget_does_not_depend_on_the_worker_count(workers):
    """The merge of the partitions grows each set entry by entry, as the
    walk does, so every set's table, and the budget's verdict, depends
    only on what the sets hold."""
    budget = smallest_passing_budget(3)
    assert tabulate(3, workers=workers, max_mem_bytes=budget) == tabulate(3)
    with pytest.raises(BudgetExceededError, match=f"hold {budget} bytes"):
        tabulate(3, workers=workers, max_mem_bytes=budget - 1)


def test_memory_budget_agrees_with_tracemalloc():
    """The bytes the budget compares at n = 3 are within 5% of the sets'
    live size under tracemalloc: the set entries, the derivation keys and
    their packed layouts, and the tables.  A deep size of tuple
    entries, which counted the objects they share once per entry, read
    2.1 times it.  A first sweep fills the class-step table, which is not
    in the sets."""
    _collect(3, (), None, Deadline(None))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sets, _entry_bytes, _paths = _collect(3, (), None, Deadline(None))
        gc.collect()
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    with pytest.raises(BudgetExceededError) as exceeded:
        _collect(3, (), 1, Deadline(None))
    held = int(re.search(r"hold (\d+) bytes", str(exceeded.value)).group(1))
    words, _cnvs, graphs, evolutions = TABLE[3]
    assert tuple(map(len, sets[:2])) == (words, graphs)
    assert sum(map(len, sets[2].values())) == 6 * evolutions
    assert abs(held - live) <= 0.05 * live, (held, live)


def repeating(families):
    """A stand-in for ``_families`` that passes each family through
    ``families(family)``."""
    real = tdspace.simulator._families

    def patched(n, prefix):
        for family in real(n, prefix):
            yield from families(family)

    return patched


@pytest.mark.parametrize(
    "families, extra",
    [
        (lambda family: [family + family[:1]], lambda family: 1),
        (lambda family: [family, family], len),
    ],
    ids=["a family repeats a leaf", "a family comes twice"],
)
def test_the_packed_layouts_dedup_a_repeated_path(monkeypatch, families, extra):
    """A leaf that comes again, in its own family or in a second copy of
    it, counts once in ``evolutions`` and again in ``paths``.  Its layout
    is held again until the row is counted, 6 more bytes at n = 3."""
    budget = smallest_passing_budget(3)
    repeats = sum(extra(family) for family in _families(3, ()))
    monkeypatch.setattr(tdspace.simulator, "_families", repeating(families))
    row = tabulate(3)
    assert (row_tuple(row), row.paths) == (TABLE[3], 627 + repeats)
    assert smallest_passing_budget(3) == budget + 6 * repeats


def test_merging_a_derivation_that_is_held_joins_its_layouts():
    """The merge of a partition's layouts appends those of a derivation
    both hold, and counts the growth of its packed string; the row counts
    a layout held twice once."""
    sets = set(), set(), {b"P": b"\x01\x02\x03\x04"}
    added = _take(sets, ((), (), {b"P": b"\x03\x04\x05\x06", b"Q": b"\x00\x01"}), 10**9)
    assert sets[2] == {b"P": b"\x01\x02\x03\x04\x03\x04\x05\x06", b"Q": b"\x00\x01"}
    assert added == 4 + sys.getsizeof(b"Q") + sys.getsizeof(b"\x00\x01")
    assert _table_row(1, sets, 4).evolutions == 4


def test_partitions_that_share_a_derivation_merge_to_the_one_worker_layouts():
    """At n = 2 every partition is one second TD, so partitions of one
    word step share a derivation, and merging their layouts in order
    joins them into the dict that one worker builds."""
    whole, _bytes, _paths = _collect(2, (), None, Deadline(None))
    parts = [
        _collect(2, (choice,), None, Deadline(None))[0]
        for choice in enumerate_choices(after_first_td())
    ]
    assert sum(len(part[2]) for part in parts) > len(whole[2])
    merged = parts[0]
    for part in parts[1:]:
        _take(merged, part, None)
    assert merged == whole
    assert _table_row(2, merged, 11).evolutions == 11


class CountingClock:
    """Stands in for the ``time`` module of the deadline: each read of the
    clock advances it by one second."""

    def __init__(self):
        self.reads = 0

    def monotonic(self):
        self.reads += 1
        return float(self.reads)


def test_the_deadline_is_read_every_4096_paths(monkeypatch):
    clock = CountingClock()
    monkeypatch.setattr(tdspace.errors, "time", clock)
    assert row_tuple(tabulate(4, deadline=Deadline(10**6))) == (377, 27839, 37572, 154869)
    checks = clock.reads - 1  # the first read set the expiry
    assert checks >= 154869 // 4096


def test_a_deadline_that_expires_mid_walk_stops_it(monkeypatch):
    clock = CountingClock()
    monkeypatch.setattr(tdspace.errors, "time", clock)
    deadline = Deadline(10)  # expires at the eleventh check
    with pytest.raises(BudgetExceededError, match="time limit"):
        tabulate(4, deadline=deadline)
    assert clock.reads == 12 < 154869 // 4096


def test_records_expose_every_step():
    for rec in enumerate_process(2):
        assert len(rec.genomes) == 2  # after TD1, after TD2
        assert len(rec.graphs) == 2
        assert rec.word_evolution.n == 2


#: sha256 of the sorted ``canonical_key()``s of ``enumerate_process(3)``,
#: each followed by a newline
N3_KEY_DIGEST = "748c3d6f66c532b5bf6b7e5a16ba55c39e3755b861b66f630a5b789b0de86540"


def test_record_keys_are_pinned():
    keys = sorted(rec.canonical_key() for rec in enumerate_process(3))
    assert len(keys) == 627
    digest = hashlib.sha256(b"".join(k + b"\n" for k in keys)).hexdigest()
    assert digest == N3_KEY_DIGEST
    assert replay_pins(3)[:4] == (627, 627, 627, N3_KEY_DIGEST)


# A dict-based TD step, independent of the simulator's renumbering one:
# intervals carry ids that never change, ``bounds`` holds each live
# interval's two breakpoints, ``splits`` each split id's pieces and ``ref``
# the live ids in reference order.  It is the referee for the states,
# records and leaves of the walk.


@dataclass(frozen=True)
class ReferenceState:
    ref: tuple
    ref_bps: tuple
    bounds: dict
    genome: tuple
    splits: dict
    conns: tuple
    steps: tuple
    next_id: int

    @property
    def n(self):
        return len(self.conns)

    @property
    def somatic_before(self):
        counts = [0]
        for left, right in zip(self.genome, self.genome[1:]):
            counts.append(counts[-1] + (self.bounds[left][1] is not self.bounds[right][0]))
        return tuple(counts)


def reference_initial_state():
    return ReferenceState(
        ref=(0,),
        ref_bps=(),
        bounds={0: (None, None)},
        genome=(0,),
        splits={},
        conns=(),
        steps=(),
        next_id=1,
    )


def reference_apply_td(state, choice):
    g1, g2, order_flag = choice
    r1, r2 = state.genome[g1], state.genome[g2]
    td = state.n + 1
    bp_a = BreakpointId(td, A_SIDE)
    bp_b = BreakpointId(td, B_SIDE)
    bounds = dict(state.bounds)
    splits = dict(state.splits)
    nid = state.next_id

    refine = {}
    left, right = bounds[r1]
    if g1 == g2 or (r1 == r2 and order_flag is True):
        pieces = (nid, nid + 1, nid + 2)
        nid += 3
        bounds[pieces[0]] = (left, bp_a)
        bounds[pieces[1]] = (bp_a, bp_b)
        bounds[pieces[2]] = (bp_b, right)
        refine[r1] = pieces
        start_piece, end_piece = 1, 1
    elif r1 == r2:  # end breakpoint first on the reference
        pieces = (nid, nid + 1, nid + 2)
        nid += 3
        bounds[pieces[0]] = (left, bp_b)
        bounds[pieces[1]] = (bp_b, bp_a)
        bounds[pieces[2]] = (bp_a, right)
        refine[r1] = pieces
        start_piece, end_piece = 2, 0
    else:
        pieces1 = (nid, nid + 1)
        nid += 2
        bounds[pieces1[0]] = (left, bp_a)
        bounds[pieces1[1]] = (bp_a, right)
        refine[r1] = pieces1
        left2, right2 = bounds[r2]
        pieces2 = (nid, nid + 1)
        nid += 2
        bounds[pieces2[0]] = (left2, bp_b)
        bounds[pieces2[1]] = (bp_b, right2)
        refine[r2] = pieces2
        start_piece, end_piece = 1, 0

    for old, pieces in refine.items():
        del bounds[old]
        splits[old] = pieces

    new_ref = []
    for rid in state.ref:
        new_ref.extend(refine.get(rid, (rid,)))
    new_bps = [bounds[rid][1] for rid in new_ref[:-1]]

    expanded = []
    start_idx = end_idx = -1
    for i, rid in enumerate(state.genome):
        hit = refine.get(rid)
        if hit is None:
            expanded.append(rid)
        else:
            offset = len(expanded)
            if i == g1:
                start_idx = offset + start_piece
            if i == g2:
                end_idx = offset + end_piece
            expanded.extend(hit)

    somatic = state.somatic_before
    a, b = somatic[g1] + 1, somatic[g2]
    new_genome = (
        tuple(expanded[: end_idx + 1])
        + tuple(expanded[start_idx : end_idx + 1])
        + tuple(expanded[end_idx + 1 :])
    )
    return ReferenceState(
        ref=tuple(new_ref),
        ref_bps=tuple(new_bps),
        bounds=bounds,
        genome=new_genome,
        splits=splits,
        conns=state.conns + ((bp_b, bp_a),),
        steps=state.steps + ((a, b),) if td > 1 else state.steps,
        next_id=nid,
    )


def reference_word_of(state):
    out = []
    for j in range(len(state.genome) - 1):
        lb = state.bounds[state.genome[j]][1]
        rb = state.bounds[state.genome[j + 1]][0]
        if lb is rb:
            continue
        assert lb.side == B_SIDE and rb.side == A_SIDE and lb.td == rb.td
        out.append(lb.td)
    return tuple(out)


def assert_same_state(state, reference):
    """``state`` is ``reference`` with each id replaced by its index."""
    index = {rid: i for i, rid in enumerate(reference.ref)}
    assert state.genome == tuple(index[rid] for rid in reference.genome)
    bp_pos = {bp: i for i, bp in enumerate(reference.ref_bps)}
    assert repr(state.positions) == repr(tuple((bp_pos[e], bp_pos[s]) for e, s in reference.conns))
    assert repr(state.steps) == repr(reference.steps)  # ints, not bools
    assert state.word == word_of(state) == reference_word_of(reference)
    assert enumerate_choices(state) == enumerate_choices(reference)


def check_states_against_reference(max_n):
    """Walk every state with at most ``max_n`` TDs next to the reference;
    returns the number of states compared."""
    compared = 0
    stack = [(initial_state(), reference_initial_state())]
    while stack:
        state, reference = stack.pop()
        assert_same_state(state, reference)
        compared += 1
        if state.n < max_n:
            for choice in enumerate_choices(state):
                stack.append((apply_td(state, choice), reference_apply_td(reference, choice)))
    return compared


def test_states_match_the_reference_step():
    assert check_states_against_reference(3) == 1 + 1 + 11 + 627


def test_word_of_rejects_a_junction_that_no_td_made():
    state = after_first_td()
    bad = GenomeState(state.genome[::-1], state.positions, state.steps)
    with pytest.raises(ValidationError):
        word_of(bad)


def reference_record(states):
    """A record rebuilt from its whole path of states, by re-expanding
    every genome recursively through the final state's interval splits."""
    final = states[-1]
    ref_index = {rid: i for i, rid in enumerate(final.ref)}
    bp_pos = {bp: i for i, bp in enumerate(final.ref_bps)}

    def expand(rid):
        pieces = final.splits.get(rid)
        if pieces is None:
            return (ref_index[rid],)
        return tuple(x for p in pieces for x in expand(p))

    genomes, graphs, conns = [], [], []
    for s in states:
        flat = tuple(x for rid in s.genome for x in expand(rid))
        genomes.append(flat)
        cnv = [0] * len(final.ref)
        for x in flat:
            cnv[x] += 1
        end_bp, start_bp = s.conns[-1]
        f, t = bp_pos[end_bp], bp_pos[start_bp]
        conns.append(Connection(f, t, "reversed" if t < f else "forward"))
        graphs.append(TdGraph(cnv=tuple(cnv), connections=tuple(conns)))
    return tuple(genomes), tuple(graphs), WordEvolution(steps=final.steps)


def reference_records(n):
    out = []

    def walk(states):
        if len(states) == n:
            out.append(reference_record(states))
            return
        for choice in enumerate_choices(states[-1]):
            walk(states + [reference_apply_td(states[-1], choice)])

    walk([reference_apply_td(reference_initial_state(), TdChoice(0, 0, None))])
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_records_match_the_recursive_expansion(n):
    records = list(enumerate_process(n))
    expected = reference_records(n)
    assert len(records) == len(expected)
    for rec, (genomes, graphs, ev) in zip(records, expected):
        assert rec.genomes == genomes
        assert rec.graphs == graphs
        assert rec.word_evolution == ev


def test_prefixes_partition_the_walk():
    sharded = [
        leaf
        for choice in enumerate_choices(after_first_td())
        for leaf in _walk(3, (choice,))
    ]
    assert sharded == list(_walk(3, ()))


def test_prefixes_partition_the_walk_at_the_leaf():
    # n = 2: each prefix fixes the leaf's own choice
    sharded = [
        leaf
        for choice in enumerate_choices(after_first_td())
        for leaf in _walk(2, (choice,))
    ]
    assert sharded == list(_walk(2, ()))


def test_a_prefix_choice_at_the_leaf_is_checked():
    with pytest.raises(ValidationError):
        list(_walk(2, (TdChoice(0, 0, True),)))
    with pytest.raises(ValidationError):
        list(_walk(2, (TdChoice(0, 4, None),)))
    two = enumerate_choices(after_first_td())[:2]
    with pytest.raises(ValidationError, match="prefix of 2 choices too long for n=2"):
        list(_walk(2, two))


def test_a_prefix_choice_at_an_inner_node_is_checked():
    for bad in (TdChoice(0, 0, True), TdChoice(1, 2, None), TdChoice(0, 4, None)):
        with pytest.raises(ValidationError):
            list(_walk(3, (bad,)))


@pytest.mark.parametrize("n", [1, 2])
def test_workers_do_not_change_the_shallow_rows(n):
    # at n = 2 each worker's prefix already reaches the leaf
    assert tabulate(n, workers=2) == tabulate(n)


# Reference leaves, built independently of the one-step walk: a full
# successor state from ``reference_apply_td``, its id key re-indexed through
# the state's reference intervals, and the copy numbers and connection
# positions read off the state.


def reference_extend_key(parent, choice, child, key):
    r1, r2 = parent.genome[choice.g1], parent.genome[choice.g2]
    key = key.replace(bytes((r1,)), bytes(child.splits[r1]))
    if r2 != r1:
        key = key.replace(bytes((r2,)), bytes(child.splits[r2]))
    return key + bytes(child.genome) + b"\xff"


def reference_index_key(state, key):
    table = bytearray(range(256))
    for i, rid in enumerate(state.ref):
        table[rid] = i
    return key.translate(table)


def reference_leaves(n, prefix=()):
    """Every leaf of ``n`` TDs in choice order, as the walk yields it;
    ``prefix`` fixes the choices from the second TD on."""
    out = []
    fixed = (TdChoice(0, 0, None), *(TdChoice(*c) for c in prefix))

    def walk(state, key, word):
        choices = fixed[state.n : state.n + 1] or enumerate_choices(state)
        for choice in choices:
            child = reference_apply_td(state, choice)
            child_key = reference_extend_key(state, choice, child, key)
            child_word = td_step(word, child.steps[-1], child.n) if child.n > 1 else FIRST_WORD
            if child.n < n:
                walk(child, child_key, child_word)
                continue
            cnv = tuple(map(child.genome.count, child.ref))
            bp_pos = {bp: i for i, bp in enumerate(child.ref_bps)}
            positions = tuple((bp_pos[e], bp_pos[s]) for e, s in child.conns)
            key_at_leaf = reference_index_key(child, child_key)
            graph = (cnv, tuple(sorted(positions)))
            out.append((key_at_leaf, child_word, child.steps, graph, positions))

    walk(reference_initial_state(), b"", ())
    return out


def as_pairs(flat):
    """Flat bytes ``x, y, x, y, ...`` as ``(x, y)`` pairs."""
    return tuple(zip(flat[::2], flat[1::2]))


def as_flat(pairs):
    """``(x, y)`` pairs as flat bytes ``x, y, x, y, ...``."""
    return bytes(i for pair in pairs for i in pair)


def record_key(steps, positions):
    """A path's :meth:`TdEvolutionRecord.canonical_key`, rebuilt from its
    steps and positions by :func:`_replay`."""
    return b"".join(genome + b"\xff" for genome in _replay(steps, positions))


def as_old_leaf(leaf):
    """A leaf of the walk in the tuple form the reference and the pinned
    digest use: the record key, word and copy numbers as tuples of ints,
    the steps as ``(a, b)`` pairs, the graph key as ``(copy numbers,
    sorted (end, start) positions)`` and the positions as ``(end, start)``
    pairs in TD order."""
    _genome, word, steps, graph, positions = leaf
    cnv = graph[: len(positions) + 1]
    return (
        record_key(steps, positions), tuple(word), as_pairs(steps),
        (tuple(cnv), as_pairs(graph[len(cnv) :])), as_pairs(positions),
    )


def old_leaves(n, prefix=()):
    return list(map(as_old_leaf, _walk(n, prefix)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_leaf_step_matches_apply_td(n):
    leaves = old_leaves(n)
    assert len(leaves) == (1, 11, 627)[n - 1]
    assert leaves == reference_leaves(n)
    # the walk's own genome is the replay's last
    for genome, _word, steps, _graph, positions in _walk(n, ()):
        assert genome == _replay(steps, positions)[-1]


def reference_prefix(choose, length):
    """``length`` choices from the second TD on, each ``choose(state)`` of
    its reference state."""
    state = reference_apply_td(reference_initial_state(), TdChoice(0, 0, None))
    prefix = []
    for _ in range(length):
        choice = choose(state)
        prefix.append(choice)
        state = reference_apply_td(state, choice)
    return tuple(prefix)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_deep_leaves_match_the_reference_under_seeded_prefixes(seed):
    rng = random.Random(seed)
    prefix = reference_prefix(lambda state: rng.choice(enumerate_choices(state)), 3)
    leaves = old_leaves(5, prefix)
    assert leaves and leaves == reference_leaves(5, prefix)


def test_deep_leaves_match_the_reference_at_the_largest_copy_numbers():
    # Each TD of the prefix duplicates the whole genome, and so does the
    # last leaf's: the middle piece of the first TD's interval doubles its
    # count at each of the five TDs.
    prefix = reference_prefix(lambda state: TdChoice(0, len(state.genome) - 1, None), 3)
    leaves = old_leaves(5, prefix)
    assert leaves == reference_leaves(5, prefix)
    cnvs = [cnv for _key, _word, _steps, (cnv, _conns), _positions in leaves]
    assert {len(cnv) for cnv in cnvs} == {11}
    assert max(map(max, cnvs)) == 2**5


def reference_split(genome, positions, r1, r2, reverse):
    """The class step in arithmetic, with ``(end, start)`` position pairs:
    the referee of the table-driven :func:`_split`."""
    ids = bytearray(range(2 * len(positions) + 1))
    fresh = len(ids)
    for r in sorted({r1, r2}, reverse=True):
        host, piece = bytes((r,)), bytes(range(fresh, fresh + 2 + (r1 == r2)))
        ids[r : r + 1] = piece
        genome = genome.replace(host, piece)
        fresh += len(piece)
    table = bytes.maketrans(ids, bytes(range(len(ids))))
    if r1 != r2:
        new = (r2 + (r2 > r1), r1 + (r1 > r2))
    else:
        new = (r1, r1 + 1) if reverse else (r1 + 1, r1)
    moved = (*((e + (e >= r1) + (e >= r2), s + (s >= r1) + (s >= r2)) for e, s in positions), new)
    return genome.translate(table), moved, as_flat(sorted(moved))


def walk_parents(n, prefix=()):
    """Every parent of a leaf or of a parent of the ``n``-TD walk whose
    choices from the second TD on start with ``prefix``."""
    fixed = (TdChoice(0, 0, None), *prefix)
    out = []

    def visit(node):
        out.append(node)
        depth = len(node[-1]) // 2
        if depth < n - 1:
            for child in _children(node, fixed[depth : depth + 1] or _choices(node[0])):
                visit(child)

    visit(_ROOT)
    return out


def assert_splits_match_the_reference(parents):
    splits = 0
    for genome, _word, _steps, _graph, positions in parents:
        pairs = as_pairs(positions)
        classes = {(genome[g1], genome[g2], flag is False) for g1, g2, flag in _choices(genome)}
        for cls in sorted(classes):
            child_genome, moved, graph = reference_split(genome, pairs, *cls)
            assert _split(genome, positions, *cls) == (child_genome, as_flat(moved), graph)
            splits += 1
    return splits


def test_class_steps_match_the_arithmetic_step_up_to_n4():
    parents = walk_parents(4)
    assert len(parents) == 1 + 1 + 11 + 627
    assert assert_splits_match_the_reference(parents) > 26000


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_class_steps_match_the_arithmetic_step_under_seeded_prefixes(seed):
    # Two fixed choices leave every child of the third TD's node a parent
    # of n = 5 leaves.
    rng = random.Random(seed)
    prefix = reference_prefix(lambda state: rng.choice(enumerate_choices(state)), 2)
    parents = walk_parents(5, prefix)
    assert max(len(node[-1]) for node in parents) == 2 * (DEEP_MAX_N - 1)
    assert_splits_match_the_reference(parents)


def test_the_class_step_table_is_filled_on_first_use():
    """Nothing is built at import, and the memoized class steps stay within
    one entry per parent depth under the budget and class."""
    probe = """
import tdspace
from tdspace import simulator as s
assert not s._class_step.cache_info().currsize, s._class_step.cache_info()
s.tabulate(4)
state, prefix = s.apply_td(s.initial_state(), s.TdChoice(0, 0, None)), []
for _ in range(3):
    prefix.append(s.TdChoice(0, len(state.genome) - 1, None))
    state = s.apply_td(state, prefix[-1])
assert any(True for _ in s._walk(5, prefix))
print(s._class_step.cache_info().currsize)
"""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, env=env, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    entries = int(done.stdout)
    assert 0 < entries <= sum((2 * d + 1) * (2 * d + 2) for d in range(DEEP_MAX_N)) == 190


def test_byte_bounds_hold_up_to_the_depth_cap():
    # A TD copies each genome segment at most once, so after n TDs every
    # copy number is at most 2^n: the leaf's byte-weighted prefix sums
    # never carry from one interval into the next.
    assert 2**DEEP_MAX_N < 256
    # Interval indices stay below 2n + 1 and fresh ids below 2n + 4, and
    # the record key's 0xff separator lies past them.
    assert 2 * DEEP_MAX_N + 4 < 0xFF


#: sha256 of the sorted record keys of every n=4 path, each followed by a
#: newline; each path's steps and positions replay to its ``canonical_key()``
N4_KEY_DIGEST = "409748c579552838179bb406e895310ac04070ccdd9b98349e0f3e42460b2510"

#: sha256 of ``repr(as_old_leaf(leaf))`` of every n=4 leaf of the walk, in
#: walk order, each followed by a newline: the order, keys, words, steps,
#: graph keys and connection positions, and the types of the tuple form
N4_LEAF_DIGEST = "cba37b336e6ddbb61947869f156a1da0d2e25e132704d32e6eb9a1b5a6ff389b"


def replay_pins(n):
    """One pass over every leaf of ``n`` TDs: the paths, the distinct
    ``(steps, positions)`` pairs, the distinct record keys they replay to,
    the sha256 of the sorted record keys, and that of the leaf stream in
    the form of :func:`as_old_leaf`.  At n = 4 the pass takes about 4 s,
    so CI checks it against :data:`N4_KEY_DIGEST` and
    :data:`N4_LEAF_DIGEST`, and :func:`test_record_keys_are_pinned` at
    n = 3."""
    leaf_digest, keys, pairs = hashlib.sha256(), [], set()
    for leaf in _walk(n, ()):
        old = as_old_leaf(leaf)
        leaf_digest.update(repr(old).encode() + b"\n")
        keys.append(old[0])
        pairs.add((leaf[2], leaf[4]))
    key_digest = hashlib.sha256(b"".join(k + b"\n" for k in sorted(keys))).hexdigest()
    return len(keys), len(pairs), len(set(keys)), key_digest, leaf_digest.hexdigest()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_leaf_keys_decode_to_the_record_keys(n):
    """Each leaf's key, its steps and positions, replays to its record's
    ``canonical_key()``, and distinct leaf keys to distinct record keys,
    one to one."""
    pairs = [(steps, positions) for _genome, _word, steps, _graph, positions in _walk(n, ())]
    keys = [rec.canonical_key() for rec in enumerate_process(n)]
    assert keys == [record_key(*pair) for pair in pairs]
    assert len(set(pairs)) == len(set(keys)) == len(set(zip(pairs, keys))) == len(keys)


def test_the_replay_shares_no_code_with_the_walk():
    """The replay rebuilds the records by the backward rule, so it calls
    none of the walk's steps."""
    with open(tdspace.simulator.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    (replay,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_replay"]
    calls = [n.func for n in ast.walk(replay) if isinstance(n, ast.Call)]
    called = {f.id for f in calls if isinstance(f, ast.Name)}
    assert called and not called & {"_children", "_split", "_class_step"}


def test_a_class_step_whose_pieces_are_not_consecutive_fails_the_table_and_the_reference(
    monkeypatch,
):
    """A host copy read as first, last, middle piece joins pieces that the
    reference never joins: the leaves' graph keys leave the reference's,
    and the n = 2 row counts 10 profiles and 10 graphs, not 7 and 8."""
    class_step = tdspace.simulator._class_step

    def shuffled(*class_key):
        pieces, *tables = class_step(*class_key)
        return (tuple((host, piece[:1] + piece[2:] + piece[1:2]) for host, piece in pieces), *tables)

    reference = [bytes(cnv) + as_flat(conns) for *_, (cnv, conns), _ in reference_leaves(2)]
    assert [leaf[3] for leaf in _walk(2, ())] == reference
    monkeypatch.setattr(tdspace.simulator, "_class_step", shuffled)
    assert [leaf[3] for leaf in _walk(2, ())] != reference
    assert row_tuple(tabulate(2)) == (3, 10, 10, 11) != TABLE[2]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_copy_numbers_counted_off_the_graph_keys_match_a_collected_set(n):
    """The profiles counted off the graph keys are as many as those counted
    off each leaf's genome."""
    genomes = (genome for genome, *_ in _walk(n, ()))
    direct = len({tuple(map(genome.count, range(2 * n + 1))) for genome in genomes})
    for workers, budget in ((1, None), (2, None), (1, 10**9), (2, 10**9)):
        assert tabulate(n, workers=workers, max_mem_bytes=budget).cnvs == direct


def test_memory_budget_measures_what_the_old_leaves_measured():
    """The sets hold the reference leaves' words and graph keys as flat
    byte strings, and the dict each derivation's steps with its leaves'
    positions, each held once, and the budget counts each entry's, key's
    and packed string's ``sys.getsizeof`` once."""
    sets, entry_bytes, paths = _collect(3, (), 10**9, Deadline(None))
    flat = [
        (bytes(word), bytes(cnv) + as_flat(conns), as_flat(steps), as_flat(positions))
        for _key, word, steps, (cnv, conns), positions in reference_leaves(3)
    ]
    assert paths == len(flat) == 627
    words, graphs, _steps, _positions = map(set, zip(*flat))
    assert sets[:2] == (words, graphs)
    layouts = defaultdict(set)
    for *_, steps, positions in flat:
        layouts[steps].add(positions)
    held = {
        steps: [packed[i : i + 6] for i in range(0, len(packed), 6)]
        for steps, packed in sets[2].items()
    }
    assert {steps: set(group) for steps, group in held.items()} == layouts
    assert sum(map(len, held.values())) == 627
    assert (len(words), len(graphs), len(layouts)) == (22, 288, 22)
    sizes = sum(map(sys.getsizeof, [*sets[0], *sets[1], *sets[2], *sets[2].values()]))
    assert entry_bytes == sizes


def layout_order(positions, end=B_SIDE, start=A_SIDE):
    """A path's breakpoints in reference order: ``0a``, then TD ``k``'s
    ``end`` node at its end position and its ``start`` node at its start
    position, sorted by position, then ``0b``."""
    placed = {}
    for k, (e, s) in enumerate(as_pairs(positions), 1):
        placed[e], placed[s] = BreakpointId(k, end), BreakpointId(k, start)
    return [ROOT_A, *(placed[j] for j in sorted(placed)), ROOT_B]


def forward_mismatches(n, **sides):
    """Every path of ``n`` TDs whose layout (:func:`layout_order`) is not a
    linear extension of its own derivation's order diagram, as the
    derivation's ``{"steps": ...}`` literal and the layout."""
    diagrams = {}
    for _genome, _word, steps, _graph, positions in _walk(n, ()):
        if steps not in diagrams:
            ev = WordEvolution(steps=as_pairs(steps))
            diagrams[steps] = hasse_diagram(build_2d_tree(ev)).edges
        order = layout_order(positions, **sides)
        index = {v: i for i, v in enumerate(order)}
        if any(index[u] > index[v] for u, v in diagrams[steps]):
            yield json.dumps({"steps": as_pairs(steps)}), " ".join(map(str, order))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_layout_is_a_linear_extension_of_its_derivation(n):
    """Each path's breakpoints, in the order of their final positions, are
    a linear extension of the order diagram of the path's own derivation;
    with the sides of each TD swapped, no path's are."""
    assert list(forward_mismatches(n)) == []
    swapped = list(forward_mismatches(n, end=A_SIDE, start=B_SIDE))
    assert len(swapped) == closed_form(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_each_derivation_holds_its_hook_count_of_layouts(n):
    """The distinct layouts held under each derivation are as many as its
    order diagram's linear extensions, counted by ``_hook_count``, and
    they sum to the closed form."""
    (_words, _graphs, layouts), _bytes, _paths = _collect(n, (), None, Deadline(None))
    width = 2 * n
    assert len(layouts) == (1, 3, 22, 377)[n - 1]
    total = 0
    for steps, packed in layouts.items():
        count = len({packed[i : i + width] for i in range(0, len(packed), width)})
        assert count == _hook_count(WordEvolution(steps=as_pairs(steps))), as_pairs(steps)
        total += count
    assert total == closed_form(n)


class RecordingExecutor:
    """Stands in for ProcessPoolExecutor: maps in process and records the
    pool size it was asked for."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_pools_are_capped_at_the_partitions(monkeypatch):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(RecordingExecutor, "sizes", [])
    assert tabulate(3, workers=500) == tabulate(3)
    assert RecordingExecutor.sizes == [11]
    assert tabulate(3, workers=4) == tabulate(3)
    assert RecordingExecutor.sizes == [11, 4]
    assert tabulate(3, workers=2) == tabulate(3)
    assert RecordingExecutor.sizes == [11, 4, 2]
    # one worker sweeps in this process, and the word sum always does
    assert row_tuple(tabulate(3, workers=1)) == TABLE[3]
    assert total_evolutions_via_words(4) == 154869
    assert RecordingExecutor.sizes == [11, 4, 2]


def test_a_caller_with_other_threads_sweeps_in_process(monkeypatch):
    """Forking a process that runs threads may deadlock the child, so while
    another thread runs, ``tabulate`` builds no pool and returns the
    one-worker row."""
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(RecordingExecutor, "sizes", [])
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        row = tabulate(3, workers=2)
    finally:
        release.set()
        waiter.join()
    assert RecordingExecutor.sizes == []
    assert row == tabulate(3)


def test_the_simulator_shares_no_code_with_the_double_tree_model():
    """The simulator cross-checks the double-tree route, so of this
    package it may import only the errors and the word step."""
    with open(tdspace.simulator.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            package.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            package.update(name for name in names if name.split(".")[0] == "tdspace")
    assert package == {"errors", "words"}


def test_the_subtree_walk_and_the_rewrite_read_parents_through_one_reader():
    """The beta module reads no parent attribute of a tree: its walk and
    rewrite take each node's parents from ``structure._edges``, which
    refuses malformed parental data in the validator's words."""
    with open(tdspace.beta.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    names = {"a_parent", "b_parent"}
    assert not [n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr in names]
