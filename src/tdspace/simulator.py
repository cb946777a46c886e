"""Direct simulation of the tandem-duplication process on a genome.

States track reference intervals (split further as breakpoints land),
the genome as a sequence of interval copies, and the somatic connection
each TD created.  A TD choice picks the two genome segments that receive
the new start/end breakpoints; when the two cuts fall in distinct copies
of the same reference interval their relative reference order is a free
extra choice.  Enumerating all choice sequences and deduplicating the
resulting records (every intermediate genome, re-expressed at the final
reference resolution) reproduces the evolution counts obtained from
words and linear extensions — by a completely different route.

The record key is carried down the walk instead of being rebuilt at
each leaf.  A node holds the bytes of its genomes so far, each written in
the node's own reference intervals and followed by ``0xff``.  A child
splits at most two intervals, so it replaces each split interval by its
two or three pieces with one ``bytes.replace`` and appends its own
genome; the parent's prefix is never re-expanded.  The carried bytes
name intervals by id, which never changes; at depth ``n`` one
``bytes.translate`` turns ids into reference indices, and the result is
exactly :meth:`TdEvolutionRecord.canonical_key`.

The last TD of a path builds no state.  From a node at depth ``n - 1``,
:func:`_leaves` reads each leaf's record key, word, steps, copy numbers
and connection positions straight off the node.  The node's choices fall
into a few classes: the host intervals, plus the order of the two
breakpoints when both cuts share a host.  Once per class it splits the
hosts, puts the pieces into the key and the genome, translates both to
reference indices, and works out the width and the connection
positions.  Each choice then costs two ``bytes.count`` calls per host
for its cut offsets, two slices of the expanded genome and its copy
numbers.  :func:`apply_td` builds the inner nodes, and both consumers,
:func:`tabulate` and :func:`enumerate_process`, read the leaves of this
one walk.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence

from .errors import BudgetExceededError, Deadline, ValidationError
from .structure import A_SIDE, B_SIDE, BreakpointId
from .words import FIRST_WORD, Word, WordEvolution, td_step

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

    ref: tuple[int, ...]  # reference interval ids, left to right
    ref_bps: tuple[BreakpointId, ...]  # boundaries between consecutive intervals
    bounds: dict[int, tuple[BreakpointId | None, BreakpointId | None]]
    genome: tuple[int, ...]  # interval ids in genome order
    splits: dict[int, tuple[int, ...]]  # interval refinements so far
    conns: tuple[tuple[BreakpointId, BreakpointId], ...]  # (end bp, start bp) per TD
    steps: tuple[tuple[int, int], ...]  # derived word-level (a, b) per TD after the first
    next_id: int

    @property
    def n(self) -> int:
        return len(self.conns)

    @cached_property
    def _somatic_before(self) -> tuple[int, ...]:
        """Running count of somatic junctions: entry ``k`` counts those
        left of genome position ``k``.  Computed once per state, on first
        use; every TD applied to the state reads its ``(a, b)`` here."""
        bounds = self.bounds
        counts = [0]
        for left, right in zip(self.genome, self.genome[1:]):
            counts.append(counts[-1] + (bounds[left][1] is not bounds[right][0]))
        return tuple(counts)


def initial_state() -> GenomeState:
    return GenomeState(
        ref=(0,),
        ref_bps=(),
        bounds={0: (None, None)},
        genome=(0,),
        splits={},
        conns=(),
        steps=(),
        next_id=1,
    )


def enumerate_choices(state: GenomeState) -> list[TdChoice]:
    """All TD choices available from a state, in deterministic order."""
    out = []
    genome = state.genome
    for g1 in range(len(genome)):
        for g2 in range(g1, len(genome)):
            if g1 != g2 and genome[g1] == genome[g2]:
                out.append(TdChoice(g1, g2, True))
                out.append(TdChoice(g1, g2, False))
            else:
                out.append(TdChoice(g1, g2, None))
    return out


def _hosts(genome: tuple[int, ...], choice: TdChoice) -> tuple[int, int]:
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
    """Apply one tandem duplication and return the successor state."""
    g1, g2, order_flag = choice
    r1, r2 = _hosts(state.genome, choice)

    td = state.n + 1
    bp_a = BreakpointId(td, A_SIDE)
    bp_b = BreakpointId(td, B_SIDE)
    bounds = dict(state.bounds)
    splits = dict(state.splits)
    nid = state.next_id

    # Refine the host interval(s).  ``refine`` maps an old interval id to
    # its pieces; ``start_piece``/``end_piece`` locate the cuts inside the
    # refined copies at g1/g2.
    refine: dict[int, tuple[int, ...]] = {}
    left, right = bounds[r1]
    if g1 == g2 or (r1 == r2 and order_flag is True):
        pieces = (nid, nid + 1, nid + 2)
        nid += 3
        bounds[pieces[0]] = (left, bp_a)
        bounds[pieces[1]] = (bp_a, bp_b)
        bounds[pieces[2]] = (bp_b, right)
        refine[r1] = pieces
        start_piece, end_piece = 1, 1
    elif r1 == r2:  # order_flag is False: end breakpoint first on the reference
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

    new_ref: list[int] = []
    for rid in state.ref:
        hit = refine.get(rid)
        if hit is None:
            new_ref.append(rid)
        else:
            new_ref.extend(hit)
    new_bps = [bounds[rid][1] for rid in new_ref[:-1]]

    expanded: list[int] = []
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

    # Word-level duplication bounds: connections strictly before each cut.
    # Both cuts lie past the first piece of their host copy, and splitting
    # an interval adds only reference junctions, so these are the somatic
    # junctions left of g1 (plus one) and left of g2 in the old genome.
    somatic = state._somatic_before
    a, b = somatic[g1] + 1, somatic[g2]

    new_genome = (
        tuple(expanded[: end_idx + 1])
        + tuple(expanded[start_idx : end_idx + 1])
        + tuple(expanded[end_idx + 1 :])
    )

    return GenomeState(
        ref=tuple(new_ref),
        ref_bps=tuple(new_bps),
        bounds=bounds,
        genome=new_genome,
        splits=splits,
        conns=state.conns + ((bp_b, bp_a),),
        steps=state.steps + ((a, b),) if td > 1 else state.steps,
        next_id=nid,
    )


def word_of(state: GenomeState) -> Word:
    """Read the somatic connections off the genome, left to right."""
    out = []
    bounds = state.bounds
    genome = state.genome
    for j in range(len(genome) - 1):
        lb = bounds[genome[j]][1]
        rb = bounds[genome[j + 1]][0]
        if lb is rb:
            continue
        if lb is None or rb is None or lb.side != B_SIDE or rb.side != A_SIDE or lb.td != rb.td:
            raise ValidationError(f"junction {lb}|{rb} is neither reference nor somatic")
        out.append(lb.td)
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

        Interval indices are at most ``2n`` and genome lengths at most
        ``2^(n+1) - 1``, so for every supported budget each value fits in
        a byte; ``0xff`` separates the steps.
        """
        flat: list[int] = []
        for g in self.genomes:
            flat.extend(g)
            flat.append(0xFF)
        return bytes(flat)


def _direction(from_pos: int, to_pos: int) -> str:
    return "reversed" if to_pos < from_pos else "forward"


_IDENTITY = bytes(range(256))


def _extend_key(parent: GenomeState, choice: TdChoice, child: GenomeState, key: bytes) -> bytes:
    """``key`` (the genomes up to ``parent``, as interval ids) at
    ``child``'s resolution, followed by ``child``'s genome and ``0xff``.

    Ids stay below ``4n + 1``, so under the depth budget each one fits in
    a byte and never reaches the ``0xff`` separator.
    """
    r1, r2 = parent.genome[choice.g1], parent.genome[choice.g2]
    key = key.replace(bytes((r1,)), bytes(child.splits[r1]))
    if r2 != r1:
        key = key.replace(bytes((r2,)), bytes(child.splits[r2]))
    return key + bytes(child.genome) + b"\xff"


def _descend(
    state: GenomeState, key: bytes, word: Word, choice: TdChoice
) -> tuple[GenomeState, bytes, Word]:
    """Apply ``choice`` to a node of the walk: the child state, its id key
    and its terminal word."""
    child = apply_td(state, choice)
    word = td_step(word, child.steps[-1], child.n) if child.n > 1 else FIRST_WORD
    return child, _extend_key(state, choice, child, key), word


#: connection positions ``(end, start)`` or word steps ``(a, b)``
_Pairs = tuple[tuple[int, int], ...]
#: record key, terminal word, steps, graph key ``(cnv, sorted positions)``,
#: positions in TD order
_Leaf = tuple[bytes, Word, _Pairs, tuple[tuple[int, ...], _Pairs], _Pairs]


def _leaf_class(
    parent: GenomeState,
    key: bytes,
    genome: bytes,
    conns: tuple[tuple[BreakpointId, BreakpointId], ...],
    r1: int,
    r2: int,
    reverse: bool,
) -> tuple[bytes, bytes, _Pairs, _Pairs, int]:
    """What every leaf below ``parent`` whose cuts land in ``r1`` and ``r2``
    (end breakpoint first on the reference when ``reverse``) shares: the
    key and the genome at leaf resolution, both as reference indices, the
    connection positions in TD order and sorted, and the width.  ``conns``
    are the leaf's connections; the last one is the new TD's."""
    bp_b, bp_a = conns[-1]
    nid = parent.next_id
    if r1 != r2:
        pieces = {r1: (nid, nid + 1), r2: (nid + 2, nid + 3)}
        inner = {r1: [bp_a], r2: [bp_b]}
    else:
        pieces = {r1: (nid, nid + 1, nid + 2)}
        inner = {r1: [bp_b, bp_a] if reverse else [bp_a, bp_b]}
    ref, bps = list(parent.ref), list(parent.ref_bps)
    # Later host first, so the earlier host's index still holds.
    for p in sorted(map(parent.ref.index, pieces), reverse=True):
        rid = ref[p]
        ref[p : p + 1] = pieces[rid]
        bps[p:p] = inner[rid]
        key = key.replace(bytes((rid,)), bytes(pieces[rid]))
        genome = genome.replace(bytes((rid,)), bytes(pieces[rid]))
    table = bytes.maketrans(bytes(ref), _IDENTITY[: len(ref)])
    positions = tuple((bps.index(e), bps.index(s)) for e, s in conns)
    key, genome = key.translate(table), genome.translate(table)
    return key, genome, positions, tuple(sorted(positions)), len(ref)


def _leaves(
    parent: GenomeState, key: bytes, word: Word, choices: Sequence[TdChoice]
) -> Iterator[_Leaf]:
    """The leaf one TD below ``parent`` for each of ``choices``, in order:
    its record key, terminal word, steps, graph key ``(cnv, sorted
    connection positions)`` and connection positions in TD order.

    No successor state is built.  The choices are not checked: they come
    from :func:`enumerate_choices` or have been checked by the caller.
    """
    genome = parent.genome
    gbytes = bytes(genome)
    somatic = parent._somatic_before
    td = parent.n + 1
    conns = parent.conns + ((BreakpointId(td, B_SIDE), BreakpointId(td, A_SIDE)),)
    classes: dict[tuple[int, int, bool], tuple] = {}
    for g1, g2, flag in choices:
        r1, r2, reverse = genome[g1], genome[g2], flag is False
        cls = classes.get((r1, r2, reverse))
        if cls is None:
            cls = _leaf_class(parent, key, gbytes, conns, r1, r2, reverse)
            classes[r1, r2, reverse] = cls
        prefix, expanded, positions, graph_conns, width = cls
        # The cuts in the expanded genome, as in apply_td: each earlier copy
        # of a host has grown by its extra pieces, and the cut lies after
        # the piece that ends in the new breakpoint.
        if r1 != r2:
            start = g1 + gbytes.count(r1, 0, g1) + gbytes.count(r2, 0, g1) + 1
            end = g2 + gbytes.count(r1, 0, g2) + gbytes.count(r2, 0, g2)
        elif reverse:
            start = g1 + 2 * gbytes.count(r1, 0, g1) + 2
            end = g2 + 2 * gbytes.count(r1, 0, g2)
        else:
            start = g1 + 2 * gbytes.count(r1, 0, g1) + 1
            end = g2 + 2 * gbytes.count(r1, 0, g2) + 1
        last = expanded[: end + 1] + expanded[start:]
        if td > 1:
            step = (somatic[g1] + 1, somatic[g2])
            leaf_word, steps = td_step(word, step, td), parent.steps + (step,)
        else:
            leaf_word, steps = FIRST_WORD, parent.steps
        cnv = tuple(map(last.count, range(width)))
        yield prefix + last + b"\xff", leaf_word, steps, (cnv, graph_conns), positions


def _walk(
    n: int,
    prefix: Sequence[TdChoice],
    deep: bool,
) -> Iterator[_Leaf]:
    """Every choice path of ``n`` TDs, in choice order, as a leaf of
    :func:`_leaves`."""
    limit = DEEP_MAX_N if deep else DEFAULT_MAX_N
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    if n > limit:
        raise BudgetExceededError(f"simulating {n} TDs exceeds the budget of {limit}")
    if len(prefix) >= n:
        raise ValidationError(f"prefix of {len(prefix)} choices too long for n={n}")

    def parents(state: GenomeState, key: bytes, word: Word, fixed: tuple[TdChoice, ...]):
        """The nodes at depth ``n - 1``, each with the choices to take below it."""
        if state.n < n - 1:
            for c in fixed[:1] or enumerate_choices(state):
                yield from parents(*_descend(state, key, word, c), fixed[1:])
        elif fixed:
            _hosts(state.genome, fixed[0])
            yield state, key, word, fixed
        else:
            yield state, key, word, enumerate_choices(state)

    fixed = tuple(TdChoice(*c) for c in (TdChoice(0, 0, None), *prefix))
    for parent in parents(initial_state(), b"", (), fixed):
        yield from _leaves(*parent)


def _record(key: bytes, steps: _Pairs, positions: _Pairs) -> TdEvolutionRecord:
    genomes = key[:-1].split(b"\xff")
    width = 2 * len(positions) + 1
    conns = tuple(Connection(f, t, _direction(f, t)) for f, t in positions)
    graphs = tuple(
        TdGraph(cnv=tuple(map(genome.count, range(width))), connections=conns[: k + 1])
        for k, genome in enumerate(genomes)
    )
    return TdEvolutionRecord(
        genomes=tuple(map(tuple, genomes)),
        graphs=graphs,
        word_evolution=WordEvolution(steps=steps),
    )


def enumerate_process(
    n: int,
    prefix: Sequence[TdChoice] = (),
    deep: bool = False,
) -> Iterator[TdEvolutionRecord]:
    """Enumerate every choice path of ``n`` TDs and yield its record.

    ``prefix`` fixes the leading choices (from the second TD on; the
    first TD admits a single choice) so sweeps can be partitioned.
    """
    for key, _word, steps, _graph, positions in _walk(n, prefix, deep):
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


def _deep_size(obj: object) -> int:
    size = sys.getsizeof(obj)
    if isinstance(obj, tuple):
        size += sum(map(_deep_size, obj))
    return size


class _DedupSets:
    """Words, copy-number profiles, graph keys and record keys seen so far.

    With a memory budget, each entry's deep ``sys.getsizeof`` is counted
    once, when it first enters its set; :meth:`check` adds the sets' own
    tables and compares the total with the budget.
    """

    def __init__(self, max_mem_bytes: int | None):
        self.sets: tuple[set, set, set, set] = (set(), set(), set(), set())
        self.max_mem_bytes = max_mem_bytes
        self.entry_bytes = 0

    def add_measured(self, *entries: object) -> None:
        for held, entry in zip(self.sets, entries):
            before = len(held)
            held.add(entry)
            if len(held) != before:
                self.entry_bytes += _deep_size(entry)

    def merge(self, parts: Sequence[frozenset]) -> None:
        for held, part in zip(self.sets, parts):
            if self.max_mem_bytes is None:
                held |= part
            else:
                new = part - held
                held |= new
                self.entry_bytes += sum(map(_deep_size, new))

    def check(self) -> None:
        if self.max_mem_bytes is None:
            return
        held = self.entry_bytes + sum(map(sys.getsizeof, self.sets))
        if held > self.max_mem_bytes:
            raise BudgetExceededError(
                f"dedup sets hold {held} bytes, over the memory budget of "
                f"{self.max_mem_bytes} bytes"
            )


def _collect(
    n: int,
    prefix: Sequence[TdChoice],
    deep: bool,
    max_mem_bytes: int | None,
    deadline: Deadline,
) -> tuple[_DedupSets, int]:
    dedup = _DedupSets(max_mem_bytes)
    words, cnvs, graphs, records = dedup.sets
    paths = 0
    deadline.check()
    for key, word, _steps, graph, _positions in _walk(n, prefix, deep):
        paths += 1
        if max_mem_bytes is None:
            words.add(word)
            cnvs.add(graph[0])
            graphs.add(graph)
            records.add(key)
        else:
            dedup.add_measured(word, graph[0], graph, key)
        if paths % _CHECK_EVERY == 0:
            deadline.check()
            dedup.check()
    dedup.check()
    return dedup, paths


def _collect_worker(args) -> tuple[tuple[frozenset, ...], int]:
    dedup, paths = _collect(*args)
    return tuple(map(frozenset, dedup.sets)), paths


def tabulate(
    n: int,
    workers: int = 1,
    deep: bool = False,
    max_mem_bytes: int | None = None,
    deadline: Deadline | None = None,
) -> TableRow:
    """Count distinct words, copy-number profiles, graphs and evolutions.

    With ``workers > 1`` the sweep is partitioned by the first TD choice
    after the forced one, with at most one process per partition; results
    are identical for any worker count.
    ``max_mem_bytes`` caps the measured size of the dedup sets and
    ``deadline`` the wall-clock time; both are checked every 4096 paths,
    in every worker, and raise :class:`BudgetExceededError`.
    """
    deadline = deadline if deadline is not None else Deadline(None)
    if workers <= 1 or n == 1:
        dedup, paths = _collect(n, (), deep, max_mem_bytes, deadline)
    else:
        first = apply_td(initial_state(), TdChoice(0, 0, None))
        parts = [(n, (c,), deep, max_mem_bytes, deadline) for c in enumerate_choices(first)]
        from concurrent.futures import ProcessPoolExecutor

        dedup = _DedupSets(max_mem_bytes)
        paths = 0
        with ProcessPoolExecutor(max_workers=min(workers, len(parts))) as pool:
            for sets, p in pool.map(_collect_worker, parts):
                dedup.merge(sets)
                paths += p
                deadline.check()
                dedup.check()
    words, cnvs, graphs, records = dedup.sets
    return TableRow(
        n=n,
        words=len(words),
        cnvs=len(cnvs),
        td_graphs=len(graphs),
        evolutions=len(records),
        paths=paths,
    )
