"""Direct simulation of the tandem-duplication process on a genome.

A state names each reference interval by its index, left to right, and
position ``j`` is the breakpoint between intervals ``j`` and ``j + 1``.
The genome is a tuple of interval indices, and ``positions`` holds the
positions of each TD's end and start breakpoints.  A junction of the
genome follows the reference exactly when it joins interval ``i`` to
``i + 1``; every other junction is somatic and joins the end of one TD
to its start.  A TD choice picks the two genome segments that receive
the new start/end breakpoints; when the two cuts fall in distinct copies
of the same reference interval their relative reference order is a free
extra choice.  Enumerating all choice sequences and deduplicating the
resulting evolutions reproduces the evolution counts obtained from words
and linear extensions — by a completely different route, which shares
no code with the double-tree model.

A path is fixed by its derivation, the word steps of its TDs, and its
layout, the final positions of its breakpoints: :func:`_replay`
rebuilds every genome of the path, at the final reference resolution,
from those two alone.  So a derivation's evolutions are its distinct
layouts, as the paper counts a word's evolutions by the linear
extensions of its order diagram.

The walk has one node type, :data:`_Node`, which :func:`_children`
yields: the current genome, word, steps, graph key and positions.  The
choices at a node fall into a few classes: the host intervals, plus the
order of the two breakpoints when both cuts share a host.  What a class
renumbers depends only on the parent's depth and the class, so
:func:`_class_step` is memoized, and :func:`_split` applies it once per
class of each node.  :func:`_families` yields the children of each leaf
parent as one list, and :func:`tabulate` dedups each such family into
sets of words and graph keys and a dict from each derivation's steps to
its leaves' positions, packed in one byte string.  A copy-number profile
is the head of its graph key, so the profiles are counted off the graph
keys at the end.  Each entry, key and packed string is one flat byte
string, so ``sys.getsizeof`` gives its whole size.  :func:`apply_td` is
the step for one choice, and both consumers, :func:`tabulate` and
:func:`enumerate_process`, read the leaves of one walk.

The depth rules are split by what they guard: the byte bound of the
encoding, ``DEEP_MAX_N``, is checked in :func:`apply_td` and
:func:`_families`, and each sweep's budget in :func:`tabulate` and
:func:`enumerate_process`.
"""

from __future__ import annotations

import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import accumulate, chain
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import BudgetExceededError, Deadline, ValidationError, _check_depth, _check_positive
from .words import Word, WordEvolution, _step

DEFAULT_MAX_N = 4
DEEP_MAX_N = 5

#: paths between two checks of the deadline and the memory budget
_CHECK_EVERY = 4096


class TdChoice(NamedTuple):
    """Where the next TD cuts: genome segment indices for the start and
    end breakpoints (``g1 <= g2``), plus ``order_flag`` — only meaningful
    when the two segments are distinct copies of the same reference
    interval, in which case ``True`` places the start breakpoint first on
    the reference and ``False`` the end breakpoint first."""

    g1: int
    g2: int
    order_flag: bool | None


class Connection(NamedTuple):
    """A somatic connection at final resolution: boundary positions."""

    from_pos: int
    to_pos: int
    direction: str


@dataclass(frozen=True)
class GenomeState:
    """Immutable snapshot of the rearranged genome after some TDs."""

    genome: tuple[int, ...]  # reference interval indices in genome order
    positions: tuple[tuple[int, int], ...]  # (end, start) breakpoint positions per TD
    steps: tuple[tuple[int, int], ...]  # derived word-level (a, b) per TD after the first

    @property
    def n(self) -> int:
        return len(self.positions)

    @cached_property
    def word(self) -> Word:
        """The terminal word, read off the genome by :func:`word_of` on first use."""
        return word_of(self)


def initial_state() -> GenomeState:
    return GenomeState(genome=(0,), positions=(), steps=())


def _choices(genome: Sequence[int]) -> Iterator[tuple[int, int, bool | None]]:
    """The fields of every TD choice ``genome`` offers, in deterministic order."""
    for g1, r1 in enumerate(genome):
        yield g1, g1, None
        for g2 in range(g1 + 1, len(genome)):
            if genome[g2] == r1:
                yield g1, g2, True
                yield g1, g2, False
            else:
                yield g1, g2, None


def enumerate_choices(state: GenomeState) -> list[TdChoice]:
    """All TD choices available from a state, in deterministic order."""
    return [TdChoice(*c) for c in _choices(state.genome)]


def _hosts(genome: Sequence[int], choice: TdChoice) -> tuple[int, int]:
    """The intervals that hold the two cuts of ``choice``; raises
    :class:`ValidationError` for a choice ``genome`` does not offer."""
    g1, g2, order_flag = choice
    if not (0 <= g1 <= g2 < len(genome)):
        raise ValidationError(f"segment indices {g1},{g2} outside genome of {len(genome)}")
    r1, r2 = genome[g1], genome[g2]
    if (g1 != g2 and r1 == r2) != (order_flag is not None):
        raise ValidationError(
            f"order_flag={order_flag} inconsistent with segments {g1},{g2}"
        )
    return r1, r2


def apply_td(state: GenomeState, choice: TdChoice) -> GenomeState:
    """Apply one tandem duplication and return the successor state.

    Raises :class:`ValidationError` for a state whose genome names an
    interval outside ``0..2n`` or whose positions are not pairs in
    ``0..2n-1``, and :class:`BudgetExceededError` past the depth budget.
    """
    n = state.n
    _check_depth("simulating", n + 1, DEEP_MAX_N)
    if not all(0 <= r <= 2 * n for r in state.genome):
        raise ValidationError(f"genome {state.genome} names an interval outside 0..{2 * n}")
    flat = [j for pair in state.positions for j in pair]
    if len(flat) != 2 * n or not all(0 <= j < 2 * n for j in flat):
        raise ValidationError(f"positions {state.positions} are not pairs in 0..{2 * n - 1}")
    _hosts(state.genome, choice)
    node = (bytes(state.genome), bytes(state.word), b"", b"", bytes(flat))
    genome, _word, step, _graph, positions = next(_children(node, (choice,)))
    return GenomeState(tuple(genome), _pairs(positions), state.steps + _pairs(step))


def word_of(state: GenomeState) -> Word:
    """Read the somatic connections off the genome, left to right: the
    junction of intervals ``left`` and ``right`` is TD ``k`` exactly when
    TD ``k``'s (end, start) positions are ``(left, right - 1)``."""
    tds = {pair: k for k, pair in enumerate(state.positions, 1)}
    out = []
    for left, right in zip(state.genome, state.genome[1:]):
        if right == left + 1:
            continue
        td = tds.get((left, right - 1))
        if td is None:
            raise ValidationError(
                f"junction of intervals {left}|{right} is neither reference nor somatic"
            )
        out.append(td)
    return tuple(out)


@dataclass(frozen=True)
class TdGraph:
    """Copy numbers plus somatic connections at a fixed reference resolution."""

    cnv: tuple[int, ...]
    connections: tuple[Connection, ...]


@dataclass(frozen=True)
class TdEvolutionRecord:
    """One simulated evolution: the genome after every TD, re-expressed at
    the final (2n+1)-interval resolution, with the per-step graphs and the
    derived word evolution.

    The genome sequences are the identity.  Copy numbers, connection
    positions and the word all read off them, and coarser identities
    genuinely collide: a TD inside the first copy of a duplicated region
    and one inside the second copy produce identical graph sequences but
    different genomes.
    """

    genomes: tuple[tuple[int, ...], ...]
    graphs: tuple[TdGraph, ...]
    word_evolution: WordEvolution

    def canonical_key(self) -> bytes:
        """Exact byte form of the record identity.

        Interval indices are at most ``2n``, so for every supported
        budget each fits in a byte below ``0xff``, which separates the
        steps.
        """
        return b"".join(bytes(g) + b"\xff" for g in self.genomes)


_IDENTITY = bytes(range(256))
#: ``256**i`` for every interval index under the depth budget
_WEIGHTS = tuple(256**i for i in range(2 * DEEP_MAX_N + 1))

#: a node of the walk: genome, word, steps ``a, b, a, b, ...`` of TDs
#: 2..n, graph key (copy numbers then sorted positions), and positions in
#: TD order ``end, start, end, start, ...``, each one flat byte string
_Node = tuple[bytes, bytes, bytes, bytes, bytes]
#: the node before the first TD: its genome is interval 0
_ROOT: _Node = (b"\x00", b"", b"", b"", b"")


def _pairs(flat: bytes) -> tuple[tuple[int, int], ...]:
    """Flat bytes ``x, y, x, y, ...`` as ``(x, y)`` pairs."""
    return tuple(zip(flat[::2], flat[1::2]))


@cache
def _class_step(depth: int, r1: int, r2: int, reverse: bool) -> tuple:
    """The tables of one class at one parent depth: ``(host, pieces)``
    byte pairs to replace, the ``maketrans`` table from those pieces and
    the old indices to the child's, the table moving each old position
    ``j`` to ``j + (j >= r1) + (j >= r2)``, the new TD's ``(end, start)``
    pair, and the slices of the child's positions, one per pair.

    Memoized and filled on first use, so importing builds nothing; under the depth budget there
    are at most 190 entries, one per depth ``d < DEEP_MAX_N`` and ordered
    host pair plus one per reversed host."""
    ids = bytearray(_IDENTITY[: 2 * depth + 1])
    fresh = len(ids)
    pieces = []
    # Later host first, so the earlier host's index still holds.
    for r in sorted({r1, r2}, reverse=True):
        host, piece = _IDENTITY[r : r + 1], _IDENTITY[fresh : fresh + 2 + (r1 == r2)]
        ids[r : r + 1] = piece
        pieces.append((host, piece))
        fresh += len(piece)
    if r1 != r2:
        new = (r2 + (r2 > r1), r1 + (r1 > r2))
    else:
        new = (r1, r1 + 1) if reverse else (r1 + 1, r1)
    shift = bytes(j + (j >= r1) + (j >= r2) for j in range(2 * depth)) + _IDENTITY[2 * depth :]
    pairs = tuple(slice(i, i + 2) for i in range(0, 2 * depth + 2, 2))
    return tuple(pieces), bytes.maketrans(ids, _IDENTITY[: len(ids)]), shift, bytes(new), pairs


def _split(genome: bytes, positions: bytes, r1: int, r2: int, reverse: bool) -> tuple:
    """The step shared by every child whose cuts land in intervals ``r1``
    and ``r2`` (end breakpoint first on the reference when ``reverse``)
    of a parent with ``genome`` and flat ``positions``.

    Returns ``genome`` renumbered to the child's intervals, the child's
    flat positions in TD order, and its sorted positions as one byte
    string of ``(end, start)`` pairs, by the tables of
    :func:`_class_step`.  Indices stay below ``2n + 1`` and the fresh
    ids below ``2n + 4``, so under the depth budget each fits in a byte.
    """
    pieces, table, shift, new, pairs = _class_step(len(positions) // 2, r1, r2, reverse)
    for host, piece in pieces:
        genome = genome.replace(host, piece)
    moved = positions.translate(shift) + new
    return genome.translate(table), moved, b"".join(sorted(map(moved.__getitem__, pairs)))


def _children(node: _Node, choices: Iterable[tuple]) -> Iterator[_Node]:
    """The child of ``node`` for each of ``choices``, in order.

    The choices are ``(g1, g2, order_flag)`` triples and are not checked:
    they come from :func:`_choices` or have been checked by the caller.
    Each class of choices takes one :func:`_split`, a table lookup and a
    few ``bytes`` calls, and each child shares its class's flat positions
    and sorted positions.

    A child's copy numbers come from prefix sums of ``256**i`` over its
    class's renumbered genome: the sum over a slice holds the count of
    interval ``i`` in byte ``i``.  A TD copies each genome segment at
    most once, so after ``n`` TDs every count is at most ``2^n``; under
    the depth budget each fits in a byte and never carries into the next.
    """
    genome, word, parent_steps, _graph, positions = node
    word, td = tuple(word), len(positions) // 2 + 1
    width = 2 * td + 1
    junctions = zip(genome, genome[1:])
    somatic = list(accumulate((right != left + 1 for left, right in junctions), initial=0))
    # before[r][g]: copies of interval r left of genome position g, for hosts
    before: list = [None] * (2 * td - 1)
    classes: dict[tuple[int, int, bool], tuple] = {}
    # one word step per distinct (a, b): the child's steps and word
    stepped: dict[tuple[int, int], tuple] = {}
    for g1, g2, flag in choices:
        r1, r2, reverse = genome[g1], genome[g2], flag is False
        cls = classes.get((r1, r2, reverse))
        if cls is None:
            for r in (r1, r2):
                if before[r] is None:
                    before[r] = list(accumulate(map(r.__eq__, genome), initial=0))
            expanded, child_positions, graph_conns = _split(genome, positions, r1, r2, reverse)
            weights = list(accumulate(map(_WEIGHTS.__getitem__, expanded), initial=0))
            offsets = (1, 0) if r1 != r2 else (2, 0) if reverse else (1, 1)
            cls = classes[r1, r2, reverse] = (
                expanded, child_positions, graph_conns, before[r1], before[r2], *offsets, weights,
            )
        expanded, child_positions, graph_conns, lo, hi, s_off, e_off, weights = cls
        # The cuts in the renumbered genome: each earlier copy of a host has
        # grown by one piece per cut it holds (a host of both cuts is both
        # ``lo`` and ``hi``), and the cut lies after the piece that ends in
        # the new breakpoint.
        start = g1 + lo[g1] + hi[g1] + s_off
        end = g2 + lo[g2] + hi[g2] + e_off
        # Word-level duplication bounds: connections strictly before each cut.
        # Both cuts lie past the first piece of their host copy, and splitting
        # an interval adds only reference junctions, so these are the somatic
        # junctions left of g1 (plus one) and left of g2 in the parent.  The
        # first TD steps the empty word to ``(1,)`` and records no step.
        step = (somatic[g1] + 1, somatic[g2])
        after = stepped.get(step)
        if after is None:
            steps = parent_steps + bytes(step) if td > 1 else b""
            after = stepped[step] = steps, bytes(_step(word, step, td))
        steps, child_word = after
        cnv = (weights[end + 1] + weights[-1] - weights[start]).to_bytes(width, "little")
        child = expanded[: end + 1] + expanded[start:]
        yield child, child_word, steps, cnv + graph_conns, child_positions


def _families(n: int, prefix: Sequence[TdChoice]) -> Iterator[list[_Node]]:
    """Every choice path of ``n`` TDs, in choice order, as the list of the
    children of each leaf parent (a family of siblings), each a node of
    :func:`_children`.  ``prefix`` fixes the leading choices (from the
    second TD on; the first admits a single choice), which is how
    :func:`tabulate` partitions the sweep.  Only the byte bound of the
    encoding is checked here; the sweeps check their own budgets."""
    _check_depth("simulating", n, DEEP_MAX_N)
    if len(prefix) >= n:
        raise ValidationError(f"prefix of {len(prefix)} choices too long for n={n}")
    fixed = tuple(TdChoice(*c) for c in (TdChoice(0, 0, None), *prefix))
    yield from _families_below(n, _ROOT, fixed)


def _families_below(n: int, node: _Node, fixed: tuple[TdChoice, ...]) -> Iterable[list[_Node]]:
    """The families of :func:`_families` below ``node``; ``fixed`` names its first choices."""
    genome = node[0]
    for choice in fixed[:1]:
        _hosts(genome, choice)
    children = _children(node, fixed[:1] or _choices(genome))
    if len(node[-1]) == 2 * (n - 1):
        return (list(children),)
    return chain.from_iterable(_families_below(n, child, fixed[1:]) for child in children)


def _walk(n: int, prefix: Sequence[TdChoice]) -> Iterator[_Node]:
    """The leaves of :func:`_families`, one at a time, in choice order."""
    return chain.from_iterable(_families(n, prefix))


def _replay(steps: bytes, positions: bytes) -> list[bytes]:
    """The genome after each TD of a path, at final resolution, rebuilt
    from the path's steps and positions alone.

    The word segments of a genome are its runs between somatic junctions,
    counted from 0, and a segment holds each interval at most once.  TD
    ``k`` with word step ``(a, b)`` (TD 1: ``(1, 0)``) and positions
    ``(e, s)`` starts in segment ``a - 1`` at the copy ``g1`` of interval
    ``s + 1``, ends in segment ``b`` at the copy ``g2`` of interval ``e``,
    and duplicates ``G[g1 : g2 + 1]``.  The segments' first indices follow
    the word step: segments ``0..b`` stay, and segment ``a - 1`` from
    ``g1`` on and the segments after it move behind the copy.
    """
    genome, starts, genomes = _IDENTITY[: len(positions) + 1], [0], []
    for k in range(0, len(positions), 2):
        a, b = steps[k - 2 : k] if k else (1, 0)
        e, s = positions[k : k + 2]
        g1, g2 = genome.index(s + 1, starts[a - 1]), genome.index(e, starts[b])
        genome = genome[: g2 + 1] + genome[g1:]
        starts = starts[: b + 1] + [x + g2 + 1 - g1 for x in (g1, *starts[a:])]
        genomes.append(genome)
    return genomes


def _record(steps: bytes, positions: bytes) -> TdEvolutionRecord:
    genomes = _replay(steps, positions)
    width = len(positions) + 1
    conns = tuple(Connection(f, t, "reversed" if t < f else "forward") for f, t in _pairs(positions))
    graphs = tuple(
        TdGraph(cnv=tuple(map(genome.count, range(width))), connections=conns[: k + 1])
        for k, genome in enumerate(genomes)
    )
    return TdEvolutionRecord(
        genomes=tuple(map(tuple, genomes)),
        graphs=graphs,
        word_evolution=WordEvolution(steps=_pairs(steps)),
    )


def enumerate_process(n: int) -> Iterator[TdEvolutionRecord]:
    """Enumerate every choice path of ``n`` TDs and yield its record."""
    _check_depth("simulating", n, DEFAULT_MAX_N)
    for _genome, _word, steps, _graph, positions in _walk(n, ()):
        yield _record(steps, positions)


@dataclass
class TableRow:
    """Distinct-object counts after ``n`` TDs (one row of the summary table)."""

    n: int
    words: int
    cnvs: int
    td_graphs: int
    evolutions: int
    paths: int = 0  # raw choice paths; equals evolutions when records never collide


_Held = tuple[set, set, dict]  # words, graph keys, packed layouts by derivation steps


def _check_budget(sets: _Held, entry_bytes: int, max_mem_bytes: int | None) -> None:
    """Raise :class:`BudgetExceededError` when ``entry_bytes`` plus the
    tables exceed ``max_mem_bytes`` (``None``: no budget)."""
    if max_mem_bytes is None:
        return
    held = entry_bytes + sum(map(sys.getsizeof, sets))
    if held > max_mem_bytes:
        raise BudgetExceededError(
            f"dedup sets hold {held} bytes, over the memory budget of {max_mem_bytes} bytes"
        )


def _take(sets: _Held, columns: tuple, max_mem_bytes: int | None) -> int:
    """Add words and graph keys to their sets, and append each
    derivation's packed layouts to those held for it.  A derivation's
    layouts arrive across many families, so they are joined, not unioned,
    and :func:`_table_row` counts the distinct ones once at the end.
    Under a budget, return the bytes of new entries, derivation keys and
    packed growth; entries go in one at a time (a set would presize its
    table), so neither a table nor the verdict depends on the batching or
    the worker count."""
    *flat, layouts = sets
    added = 0
    for held, column in zip(flat, columns):
        if max_mem_bytes is None:
            held.update(column)
        else:
            new = set(column).difference(held)
            held.update(iter(new))
            added += sum(map(sys.getsizeof, new))
    for steps, packed in columns[2].items():
        old = layouts.get(steps)
        if old is None:
            added += sys.getsizeof(steps)
        else:
            packed = old + packed
            added -= sys.getsizeof(old)
        layouts[steps] = packed
        added += sys.getsizeof(packed)
    return 0 if max_mem_bytes is None else added


def _collect(
    n: int,
    prefix: Sequence[TdChoice],
    max_mem_bytes: int | None,
    deadline: Deadline,
) -> tuple[_Held, int, int]:
    """The sets of words and graph keys below ``prefix``, the dict from
    each derivation's steps to its leaves' positions, packed in one byte
    string, their entries' bytes and the path count.  Each family of
    siblings packs its positions by derivation and enters through one
    :func:`_take`; under a budget, each flat byte string's
    ``sys.getsizeof`` is counted when it enters or grows.  The deadline
    and the budget are checked whenever the path count crosses a multiple
    of :data:`_CHECK_EVERY`."""
    sets: _Held = set(), set(), {}
    entry_bytes = paths = 0
    deadline.check()
    for family in _families(n, prefix):
        paths += len(family)
        layouts = defaultdict(list)
        for _genome, _word, steps, _graph, positions in family:
            layouts[steps].append(positions)
        packed = {steps: b"".join(group) for steps, group in layouts.items()}
        _genomes, words, _steps, graphs, _positions = zip(*family)
        entry_bytes += _take(sets, (words, graphs, packed), max_mem_bytes)
        if paths % _CHECK_EVERY < len(family):  # the family passed a multiple
            deadline.check()
            _check_budget(sets, entry_bytes, max_mem_bytes)
    _check_budget(sets, entry_bytes, max_mem_bytes)
    return sets, entry_bytes, paths


def _table_row(n: int, sets: _Held, paths: int) -> TableRow:
    """The row of :func:`_collect`'s sets.  A path's steps and positions
    fix its record (:func:`_replay`), so the evolutions are the distinct
    ``2n``-byte layouts held under each derivation.  A copy-number
    profile is the first ``2n + 1`` bytes of its graph key.  The profile
    set's table is a fresh block, so the layouts are counted and cleared,
    and the graph keys moved to a list and their set's table freed,
    before the profiles are counted from that list."""
    words, graphs, layouts = sets
    evolutions = sum(
        len({packed[i : i + 2 * n] for i in range(0, len(packed), 2 * n)})
        for packed in layouts.values()
    )
    layouts.clear()
    held = list(graphs)
    graphs.clear()
    cnvs = len({graph[: 2 * n + 1] for graph in held})
    return TableRow(n, len(words), cnvs, len(held), evolutions, paths)


def tabulate(
    n: int,
    workers: int = 1,
    deep: bool = False,
    max_mem_bytes: int | None = None,
    deadline: Deadline | None = None,
) -> TableRow:
    """Count distinct words, copy-number profiles, graphs and evolutions.

    The dedup holds sets of words and graph keys and each derivation's
    layouts; the profiles and the distinct layouts are counted at the
    end, by :func:`_table_row`.  One worker sweeps in this process, and so does
    any worker count while other threads run, since forking a process
    that runs threads may deadlock the child.  More partition the sweep
    by the first TD choice after the forced one, on a pool of one
    process per partition at most, and the first partition's sets take
    in the rest, in order, through :func:`_take`, so the budget's
    verdict, like the results, is the same for any worker count.
    ``max_mem_bytes`` caps the dedup's measured size and
    ``deadline`` the time; both are checked every 4096 paths in every
    worker and after each merge, and raise :class:`BudgetExceededError`.
    A depth, worker count or ``max_mem_bytes`` out of range, or not an
    ``int``, raises before any work.
    """
    _check_positive("workers", "workers", workers)
    if max_mem_bytes is not None:
        _check_positive("bytes", "max_mem_bytes", max_mem_bytes)
    _check_depth("simulating", n, DEEP_MAX_N if deep else DEFAULT_MAX_N)
    deadline = deadline if deadline is not None else Deadline(None)
    if workers < 2 or n < 2 or threading.active_count() > 1:
        sets, _entry_bytes, paths = _collect(n, (), max_mem_bytes, deadline)
        return _table_row(n, sets, paths)
    first = apply_td(initial_state(), TdChoice(0, 0, None))
    parts = [(n, (c,), max_mem_bytes, deadline) for c in enumerate_choices(first)]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(workers, len(parts))) as pool:
        results = pool.map(_collect, *zip(*parts))
        sets, entry_bytes, paths = next(results)
        for part, _part_bytes, part_paths in results:
            entry_bytes += _take(sets, part, max_mem_bytes)
            paths += part_paths
            deadline.check()
            _check_budget(sets, entry_bytes, max_mem_bytes)
    return _table_row(n, sets, paths)
