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
resulting records (every intermediate genome, re-expressed at the final
reference resolution) reproduces the evolution counts obtained from
words and linear extensions — by a completely different route, which
shares no code with the double-tree model.

The walk has one node type, :data:`_Node`, which :func:`_children`
yields.  An inner node's key holds the genomes so far, each followed by
``0xff``, so its genome is its last segment.  A leaf's key ends instead
in its last TD's cut ``(start, end)``, two indices into the genome
before it that fix the leaf's own genome; :func:`_children` shows why
the cut is unique, and :func:`_record_key` decodes the key to the
record's :meth:`TdEvolutionRecord.canonical_key`.  The genome before a
leaf of ``n`` TDs holds at most ``2^(n - 1)`` copies of each of
``2n + 1`` intervals, under the depth budget fewer than ``0xff`` in
all, so each cut index fits a byte.

The choices at a node fall into a few classes: the host intervals, plus
the order of the two breakpoints when both cuts share a host.  What a
class renumbers depends only on the parent's depth and the class, so
:func:`_class_step` is memoized, and :func:`_split` applies it once per
class of each node.  :func:`_families` yields the children of each leaf
parent as one list, and :func:`tabulate` dedups each such family into
sets of words and graph keys and a dict from each record-key prefix to
the sorted distinct cuts below it, packed in one byte string.  A
copy-number profile is the head of its graph key, so the profiles are
counted off the graph keys at the end.  Each entry, prefix and packed
string is one flat byte string, so ``sys.getsizeof`` gives its whole
size.  :func:`apply_td` is the step for one choice, and both consumers,
:func:`tabulate` and :func:`enumerate_process`, read the leaves of one
walk.

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

from .errors import (
    BudgetExceededError, Deadline, DerivationCollisionError, ValidationError, _check_depth,
    _check_positive,
)
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
    node = (bytes(state.genome) + b"\xff", bytes(state.word), state.steps, b"", bytes(flat))
    key, _word, steps, _graph, positions = next(_children(node, (choice,)))
    return GenomeState(tuple(_genome(key)), _pairs(positions), steps)


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
#: each byte value as a one-byte string: two concatenations cost less than
#: one ``bytes((start, end))``
_BYTES = tuple(_IDENTITY[i : i + 1] for i in range(256))
#: ``256**i`` for every interval index under the depth budget
_WEIGHTS = tuple(256**i for i in range(2 * DEEP_MAX_N + 1))

#: connection positions ``(end, start)`` or word steps ``(a, b)``
_Pairs = tuple[tuple[int, int], ...]
#: a node of the walk: record key, word, steps, graph key (copy numbers
#: then sorted positions), positions in TD order as one flat byte string
#: ``end, start, end, start, ...`` (a leaf's key split as ``(prefix, cut)``)
_Node = tuple[bytes, bytes, _Pairs, bytes, bytes]
#: the node before the first TD; its key is empty and its genome interval 0
_ROOT: _Node = (b"", b"", (), b"", b"")


def _pairs(positions: bytes) -> _Pairs:
    """Flat positions ``end, start, end, start, ...`` as ``(end, start)`` pairs."""
    return tuple(zip(positions[::2], positions[1::2]))


def _genome(key: bytes) -> bytes:
    """The last genome of a node's key (interval 0 for the root's empty key)."""
    return key[:-1].rsplit(b"\xff", 1)[-1] or b"\x00"


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


def _split(
    key: bytes, genome: bytes, positions: bytes, r1: int, r2: int, reverse: bool
) -> tuple:
    """The step shared by every child whose cuts land in intervals ``r1``
    and ``r2`` (end breakpoint first on the reference when ``reverse``)
    of a parent with ``key``, ``genome`` and flat ``positions``.

    Returns ``key`` and ``genome`` renumbered to the child's intervals,
    the child's flat positions in TD order, and its sorted positions as
    one byte string of ``(end, start)`` pairs, by the tables of
    :func:`_class_step`.  Indices stay below ``2n + 1`` and the fresh
    ids below ``2n + 4``, so under the depth budget each fits in a byte
    and never reaches the ``0xff`` separator.
    """
    pieces, table, shift, new, pairs = _class_step(len(positions) // 2, r1, r2, reverse)
    for host, piece in pieces:
        key, genome = key.replace(host, piece), genome.replace(host, piece)
    moved = positions.translate(shift) + new
    return (
        key.translate(table), genome.translate(table), moved,
        b"".join(sorted(map(moved.__getitem__, pairs))),
    )


def _children(node: _Node, choices: Iterable[tuple], leaf: bool = False) -> Iterator[_Node]:
    """The child of ``node`` for each of ``choices``, in order; ``leaf``
    children get the short record key of :func:`_record_key` as the pair
    ``(prefix, cut)``, the prefix one object per class.

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

    A leaf's key ends in its cut ``(start, end)`` instead of its genome
    ``expanded[:end + 1] + expanded[start:]``.  The class step turns every
    copy of a split host into its consecutive pieces.  The piece
    ``expanded[end]`` ends at the new end breakpoint, so it is never its
    host's last piece, and in ``expanded`` it is always followed by the
    next one, which starts at that breakpoint, never by
    ``expanded[start]``, which starts at the start breakpoint.  So the
    seam ``(expanded[end], expanded[start])`` is the one junction of the
    leaf's genome that ``expanded`` lacks, and the genome names its cut.
    One search per class checks this and raises
    :class:`DerivationCollisionError` if it ever fails.
    """
    key, word, parent_steps, _graph, positions = node
    genome = _genome(key)
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
            prefix, expanded, child_positions, graph_conns = _split(
                key, genome, positions, r1, r2, reverse
            )
            weights = list(accumulate(map(_WEIGHTS.__getitem__, expanded), initial=0))
            if leaf:  # the seam joins the piece ending at the end breakpoint to the start's
                seam = bytes((child_positions[-2], child_positions[-1] + 1))
                if seam in expanded:
                    raise DerivationCollisionError(
                        f"seam {seam[0]}|{seam[1]} of TD {td} already joins its parent genome,"
                        " so a record key's cut is not unique"
                    )
            offsets = (1, 0) if r1 != r2 else (2, 0) if reverse else (1, 1)
            # The genome keeps its separator, so a child's tail slice ends the key.
            cls = classes[r1, r2, reverse] = (
                prefix, expanded + b"\xff", child_positions, graph_conns,
                before[r1], before[r2], *offsets, weights,
            )
        prefix, expanded, child_positions, graph_conns, lo, hi, s_off, e_off, weights = cls
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
            steps = parent_steps + (step,) if td > 1 else ()
            after = stepped[step] = steps, bytes(_step(word, step, td))
        steps, child_word = after
        cnv = (weights[end + 1] + weights[-1] - weights[start]).to_bytes(width, "little")
        if leaf:
            child_key = prefix, _BYTES[start] + _BYTES[end]
        else:
            child_key = prefix + expanded[: end + 1] + expanded[start:]
        yield child_key, child_word, steps, cnv + graph_conns, child_positions


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
    genome = _genome(node[0])
    for choice in fixed[:1]:
        _hosts(genome, choice)
    leaf_parent = len(node[-1]) == 2 * (n - 1)
    children = _children(node, fixed[:1] or _choices(genome), leaf_parent)
    if leaf_parent:
        return (list(children),)
    return chain.from_iterable(_families_below(n, child, fixed[1:]) for child in children)


def _walk(n: int, prefix: Sequence[TdChoice]) -> Iterator[_Node]:
    """The leaves of :func:`_families`, one at a time, in choice order,
    each key joined back into one byte string."""
    for family in _families(n, prefix):
        for (head, cut), word, steps, graph, positions in family:
            yield head + cut, word, steps, graph, positions


def _record_key(key: bytes) -> bytes:
    """A leaf's :meth:`TdEvolutionRecord.canonical_key` from its key
    ``P + bytes((start, end))``, cut in ``P``'s last genome (in the
    reference ``0, 1, 2`` when ``P`` is empty, after one TD)."""
    parent, (start, end) = key[:-2], key[-2:]
    expanded = _genome(parent) if parent else _IDENTITY[:3]
    return parent + expanded[: end + 1] + expanded[start:] + b"\xff"


def _record(key: bytes, steps: _Pairs, positions: bytes) -> TdEvolutionRecord:
    genomes = _record_key(key)[:-1].split(b"\xff")
    width = len(positions) + 1
    conns = tuple(Connection(f, t, "reversed" if t < f else "forward") for f, t in _pairs(positions))
    graphs = tuple(
        TdGraph(cnv=tuple(map(genome.count, range(width))), connections=conns[: k + 1])
        for k, genome in enumerate(genomes)
    )
    return TdEvolutionRecord(
        genomes=tuple(map(tuple, genomes)),
        graphs=graphs,
        word_evolution=WordEvolution(steps=steps),
    )


def enumerate_process(n: int) -> Iterator[TdEvolutionRecord]:
    """Enumerate every choice path of ``n`` TDs and yield its record."""
    _check_depth("simulating", n, DEFAULT_MAX_N)
    for key, _word, steps, _graph, positions in _walk(n, ()):
        yield _record(key, steps, positions)


@dataclass
class TableRow:
    """Distinct-object counts after ``n`` TDs (one row of the summary table)."""

    n: int
    words: int
    cnvs: int
    td_graphs: int
    evolutions: int
    paths: int = 0  # raw choice paths; equals evolutions when records never collide


_Held = tuple[set, set, dict]  # words, graph keys, packed cuts by record-key prefix


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
    """Add words and graph keys to their sets, and each prefix's packed
    cuts to the record keys, unioned with any held.  Under a budget,
    return the bytes of new entries, prefixes and packed growth; entries
    go in one at a time (a set would presize its table), so neither a
    table nor the verdict depends on the batching or the worker count."""
    *flat, keys = sets
    added = 0
    for held, column in zip(flat, columns):
        if max_mem_bytes is None:
            held.update(column)
        else:
            new = set(column).difference(held)
            held.update(iter(new))
            added += sum(map(sys.getsizeof, new))
    for head, packed in columns[2].items():
        old = keys.get(head)
        if old is None:
            added += sys.getsizeof(head)
        else:
            cuts = {p[i : i + 2] for p in (old, packed) for i in range(0, len(p), 2)}
            packed = b"".join(sorted(cuts))
            added -= sys.getsizeof(old)
        keys[head] = packed
        added += sys.getsizeof(packed)
    return 0 if max_mem_bytes is None else added


def _collect(
    n: int,
    prefix: Sequence[TdChoice],
    max_mem_bytes: int | None,
    deadline: Deadline,
) -> tuple[_Held, int, int]:
    """The sets of words and graph keys below ``prefix``, the dict from
    each short record key's prefix to its leaves' cuts (see
    :func:`_children`), their entries' bytes and the path count.  Each
    family of siblings packs its cuts by prefix and enters through one
    :func:`_take`; under a budget, each flat byte string's
    ``sys.getsizeof`` is counted when it enters or grows.  The deadline
    and the budget are checked whenever the path count crosses a multiple
    of :data:`_CHECK_EVERY`."""
    sets: _Held = set(), set(), {}
    entry_bytes = paths = 0
    deadline.check()
    for family in _families(n, prefix):
        paths += len(family)
        keys, words, _steps, graphs, _positions = zip(*family)
        pairs = set(keys)  # one set of all pairs dedups faster than one per prefix
        cuts = defaultdict(list)
        # choice order keeps each prefix's cuts nearly sorted: walk it unless a pair repeats
        for head, cut in keys if len(pairs) == len(keys) else pairs:
            cuts[head].append(cut)
        packed = {head: b"".join(sorted(group)) for head, group in cuts.items()}
        entry_bytes += _take(sets, (words, graphs, packed), max_mem_bytes)
        if paths % _CHECK_EVERY < len(family):  # the family passed a multiple
            deadline.check()
            _check_budget(sets, entry_bytes, max_mem_bytes)
    _check_budget(sets, entry_bytes, max_mem_bytes)
    return sets, entry_bytes, paths


def _table_row(n: int, sets: _Held, paths: int) -> TableRow:
    """The row of :func:`_collect`'s sets; a record key splits into its
    prefix and cut one to one, so the evolutions are the cuts held.  A
    copy-number profile is the first ``2n + 1`` bytes of its graph key, so
    the profiles go into a set of their own once the record keys have been
    counted and cleared: the smaller set reuses their memory."""
    words, graphs, keys = sets
    evolutions = sum(map(len, keys.values())) // 2
    keys.clear()
    cnvs = len({graph[: 2 * n + 1] for graph in graphs})
    return TableRow(n, len(words), cnvs, len(graphs), evolutions, paths)


def tabulate(
    n: int,
    workers: int = 1,
    deep: bool = False,
    max_mem_bytes: int | None = None,
    deadline: Deadline | None = None,
) -> TableRow:
    """Count distinct words, copy-number profiles, graphs and evolutions.

    The dedup holds sets of words and graph keys and the record keys'
    cuts by prefix; the profiles are counted off the graph keys at the end,
    by :func:`_table_row`.  One worker sweeps in this process, and so does
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
