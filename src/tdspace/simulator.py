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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from .errors import BudgetExceededError, ValidationError
from .structure import A_SIDE, B_SIDE, BreakpointId
from .words import Word, WordEvolution

DEFAULT_MAX_N = 4
DEEP_MAX_N = 5

#: rough per-element accounting for the dedup-memory budget
_BYTES_PER_ENTRY = 120


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


def _is_somatic(
    bounds: dict[int, tuple[BreakpointId | None, BreakpointId | None]],
    left_id: int,
    right_id: int,
) -> bool:
    return bounds[left_id][1] is not bounds[right_id][0]


def apply_td(state: GenomeState, choice: TdChoice) -> GenomeState:
    """Apply one tandem duplication and return the successor state."""
    g1, g2, order_flag = choice
    genome = state.genome
    if not (0 <= g1 <= g2 < len(genome)):
        raise ValidationError(f"segment indices {g1},{g2} outside genome of {len(genome)}")
    r1, r2 = genome[g1], genome[g2]
    flagged = g1 != g2 and r1 == r2
    if flagged != (order_flag is not None):
        raise ValidationError(
            f"order_flag={order_flag} inconsistent with segments {g1},{g2}"
        )

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
    a = 1
    for j in range(start_idx - 1):
        if _is_somatic(bounds, expanded[j], expanded[j + 1]):
            a += 1
    b = a - 1
    for j in range(max(start_idx - 1, 0), end_idx):
        if _is_somatic(bounds, expanded[j], expanded[j + 1]):
            b += 1

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


def _record_from_path(states: Sequence[GenomeState]) -> TdEvolutionRecord:
    final = states[-1]
    ref_index = {rid: i for i, rid in enumerate(final.ref)}
    bp_pos = {bp: i for i, bp in enumerate(final.ref_bps)}
    expansion: dict[int, tuple[int, ...]] = {}

    def expand(rid: int) -> tuple[int, ...]:
        got = expansion.get(rid)
        if got is None:
            pieces = final.splits.get(rid)
            if pieces is None:
                got = (ref_index[rid],)
            else:
                got = tuple(x for p in pieces for x in expand(p))
            expansion[rid] = got
        return got

    width = len(final.ref)
    conns: list[Connection] = []
    graphs: list[TdGraph] = []
    genomes: list[tuple[int, ...]] = []
    for s in states:
        flat = tuple(x for rid in s.genome for x in expand(rid))
        genomes.append(flat)
        cnv = [0] * width
        for x in flat:
            cnv[x] += 1
        end_bp, start_bp = s.conns[-1]
        f, t = bp_pos[end_bp], bp_pos[start_bp]
        conns.append(Connection(f, t, _direction(f, t)))
        graphs.append(TdGraph(cnv=tuple(cnv), connections=tuple(conns)))

    ev = WordEvolution(steps=final.steps)
    return TdEvolutionRecord(genomes=tuple(genomes), graphs=tuple(graphs), word_evolution=ev)


def enumerate_process(
    n: int,
    prefix: Sequence[TdChoice] = (),
    deep: bool = False,
) -> Iterator[TdEvolutionRecord]:
    """Enumerate every choice path of ``n`` TDs and yield its record.

    ``prefix`` fixes the leading choices (from the second TD on; the
    first TD admits a single choice) so sweeps can be partitioned.
    """
    limit = DEEP_MAX_N if deep else DEFAULT_MAX_N
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    if n > limit:
        raise BudgetExceededError(f"simulating {n} TDs exceeds the budget of {limit}")
    first = apply_td(initial_state(), TdChoice(0, 0, None))
    states = [first]
    for c in prefix:
        states.append(apply_td(states[-1], TdChoice(*c)))
    if len(states) > n:
        raise ValidationError(f"prefix of {len(prefix)} choices too long for n={n}")

    def walk() -> Iterator[TdEvolutionRecord]:
        if len(states) == n:
            yield _record_from_path(states)
            return
        cur = states[-1]
        for c in enumerate_choices(cur):
            states.append(apply_td(cur, c))
            yield from walk()
            states.pop()

    yield from walk()


@dataclass
class TableRow:
    """Distinct-object counts after ``n`` TDs (one row of the summary table)."""

    n: int
    words: int
    cnvs: int
    td_graphs: int
    evolutions: int
    paths: int = 0  # raw choice paths; equals evolutions when records never collide


def _graph_key(graph: TdGraph) -> tuple:
    return (graph.cnv, tuple(sorted((c.from_pos, c.to_pos) for c in graph.connections)))


def _collect(
    n: int,
    prefix: Sequence[TdChoice],
    deep: bool,
    max_mem_bytes: int | None,
) -> tuple[set, set, set, set, int]:
    words: set[Word] = set()
    cnvs: set[tuple[int, ...]] = set()
    graphs: set[tuple] = set()
    records: set[bytes] = set()
    paths = 0
    check_every = 4096
    for rec in enumerate_process(n, prefix=prefix, deep=deep):
        paths += 1
        final = rec.graphs[-1]
        words.add(rec.word_evolution.terminal_word)
        cnvs.add(final.cnv)
        graphs.add(_graph_key(final))
        records.add(rec.canonical_key())
        if max_mem_bytes is not None and paths % check_every == 0:
            _check_mem(words, cnvs, graphs, records, max_mem_bytes)
    if max_mem_bytes is not None:
        _check_mem(words, cnvs, graphs, records, max_mem_bytes)
    return words, cnvs, graphs, records, paths


def _check_mem(words, cnvs, graphs, records, max_mem_bytes: int) -> None:
    held = len(words) + len(cnvs) + len(graphs) + len(records)
    if held * _BYTES_PER_ENTRY > max_mem_bytes:
        raise BudgetExceededError(
            f"dedup sets exceed the memory budget of {max_mem_bytes} bytes"
        )


def _collect_worker(args) -> tuple[frozenset, frozenset, frozenset, frozenset, int]:
    n, prefix, deep, max_mem = args
    words, cnvs, graphs, records, paths = _collect(n, prefix, deep, max_mem)
    return frozenset(words), frozenset(cnvs), frozenset(graphs), frozenset(records), paths


def tabulate(
    n: int,
    workers: int = 1,
    deep: bool = False,
    max_mem_bytes: int | None = None,
) -> TableRow:
    """Count distinct words, copy-number profiles, graphs and evolutions.

    With ``workers > 1`` the sweep is partitioned by the first TD choice
    after the forced one; results are identical for any worker count.
    """
    if workers <= 1 or n == 1:
        words, cnvs, graphs, records, paths = _collect(n, (), deep, max_mem_bytes)
    else:
        first = apply_td(initial_state(), TdChoice(0, 0, None))
        parts = [(n, (c,), deep, max_mem_bytes) for c in enumerate_choices(first)]
        from concurrent.futures import ProcessPoolExecutor

        words, cnvs, graphs, records = set(), set(), set(), set()
        paths = 0
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for w, c, g, r, p in pool.map(_collect_worker, parts):
                words |= w
                cnvs |= c
                graphs |= g
                records |= r
                paths += p
                if max_mem_bytes is not None:
                    _check_mem(words, cnvs, graphs, records, max_mem_bytes)
    return TableRow(
        n=n,
        words=len(words),
        cnvs=len(cnvs),
        td_graphs=len(graphs),
        evolutions=len(records),
        paths=paths,
    )
