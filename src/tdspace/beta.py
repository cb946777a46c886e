"""Deletion calculus on word evolutions and the two-tree kernel identity.

Deleting the first TD from an evolution (drop every copy of symbol 1,
shift the rest down) always leaves a valid shorter evolution, and the
longer evolution is recoverable from two pieces of data: the shorter
evolution plus the set of connections whose symbols ever sat next to a
1 — the *one-nodeset*.  Rewriting the shorter evolution's breakpoint
tree by that nodeset reproduces the longer evolution's major graph
without ever replaying it, which turns the count of all evolutions into
a recurrence and, from there, a closed product formula.

The rewrite is one edge reselection, :func:`induced_tree`, on any
double tree (:class:`~tdspace.structure.BetaTree`; every breakpoint
tree is one).  Its load-bearing step is a kernel identity: summed over
admissible node subsets whose rewritten graph hangs a fixed number of
nodes under the first root, the extension products all equal the count
of the root-contracted rewrite of the empty subset.  That identity is
checked here directly: :func:`kernel_profile` walks every admissible
subset once, adding each node under its rewritten parent to subtree
sizes packed in one integer, and values each subset by the hook-length
form of its extension product (factorials over the induced subtree
sizes, with one correction per surviving fence).
:func:`enumerate_beta_subtrees` lists the subsets of that same walk.
The right-hand side still comes from the dict-based forest count, so
the two sides are computed independently.
"""

from __future__ import annotations

import random
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, combinations_with_replacement, compress
from math import comb, factorial, prod
from typing import Callable, Iterable, Iterator

from .errors import (
    BudgetExceededError,
    Deadline,
    NotInducedError,
    ValidationError,
    _check_depth,
    _check_positive,
    _check_whole,
)
from .extensions import ExtensionCount, _forest_count
from .structure import (
    A_SIDE,
    B_SIDE,
    ROOT_A,
    ROOT_B,
    BetaTree,
    BreakpointId,
    MajorGraph,
    _ONE_A,
    _ONE_B,
    _edges,
    _fences,
    _ids,
    _topological,
    validate_beta_tree,
)
from .words import (
    DEFAULT_MAX_N,
    FIRST_WORD,
    DupChoice,
    Word,
    WordEvolution,
    _derive,
    choices_for,
)

SUBTREE_NODE_BUDGET = 20
FENCE_RATE = 0.35

#: A one-nodeset or beta-subtree is just a set of breakpoint nodes.
NodeSet = frozenset[BreakpointId]


# ---------------------------------------------------------------------------
# Deletion and induction on word evolutions


def _strip_first_symbol(word: Word) -> Word:
    return tuple(c - 1 for c in word if c != 1)


def _kept(word: Word) -> list[int]:
    """Entry ``p`` counts the symbols other than 1 among the first ``p``."""
    return list(accumulate((c != 1 for c in word), initial=0))


def delete_first_td(ev: WordEvolution) -> WordEvolution:
    """Remove TD 1 from an evolution and renumber the rest down by one.

    Stripping every 1 from word ``d`` of ``ev`` (and lowering the other
    symbols) gives word ``d - 1`` of the result, so the step ``(a, b)``
    on word ``d >= 2`` becomes ``(kept[a - 1] + 1, kept[b])``, where
    ``kept`` holds the prefix counts of the non-1 symbols of that word:
    the duplicated subword keeps exactly its non-1 symbols.  This is the
    rule :func:`induced_evolutions` inverts.  The result is replayed and
    compared with the stripped words as a consistency check.
    """
    if ev.n < 2:
        raise ValidationError("need at least two TDs to delete the first one")
    kept = map(_kept, ev.words[1:])
    steps = tuple(DupChoice(k[a - 1] + 1, k[b]) for (a, b), k in zip(ev.steps[1:], kept))
    out = WordEvolution(steps=steps)
    if out.words != tuple(map(_strip_first_symbol, ev.words[1:])):
        raise ValidationError("deletion surgery produced an inconsistent evolution")
    return out


def induced_evolutions(ev: WordEvolution, max_n: int = DEFAULT_MAX_N) -> list[WordEvolution]:
    """All one-TD-longer evolutions whose first-TD deletion gives ``ev``.

    The fiber is built step by step with the derivation walk of
    :mod:`tdspace.words`, inverting the rule of :func:`delete_first_td`
    instead of trying every choice.  Let ``(a', b')`` be the step of
    ``ev`` that makes its word ``d`` (TD 1 counts as ``(1, 0)`` on the
    empty word).  On the longer evolution's word ``d``, step ``(a, b)``
    strips back to that word exactly when the prefix of length
    ``a - 1`` holds ``a' - 1`` non-1 symbols, the prefix of length ``b``
    holds ``b'``, and ``b >= a - 1``.  Taking ``a`` and then ``b`` in
    ascending order gives the members in lexicographic step order; the
    fibers of :func:`delete_first_td` partition the next level, so every
    longer evolution shows up for exactly one ``ev``.
    """
    target_n = ev.n + 1
    _check_depth("inducing", target_n, max_n)
    base_steps = (DupChoice(1, 0),) + ev.steps

    def fiber_steps(depth: int, word: Word) -> Iterator[DupChoice]:
        a_base, b_base = base_steps[depth - 1]
        kept = _kept(word)
        ends = [p for p, k in enumerate(kept) if k == b_base]
        for start, k in enumerate(kept):
            if k == a_base - 1:
                yield from (DupChoice(start + 1, b) for b in ends if b >= start)

    return list(_derive((), (FIRST_WORD,), target_n, fiber_steps))


def one_nodeset_of(ev: WordEvolution, induced: WordEvolution) -> NodeSet:
    """The breakpoints of ``ev``'s tree that TD 1 of ``induced`` touches.

    Labels follow the longer evolution: node 1 stands for the roots of
    ``ev``'s tree and node ``m`` for its TD ``m - 1``.  Both breakpoints
    of 1 are always members; scanning every word of ``induced``, a
    symbol ``m`` directly after a 1 contributes ``m_b`` and one directly
    before a 1 contributes ``m_a``.
    """
    if ev.n + 1 != induced.n or tuple(map(_strip_first_symbol, induced.words[1:])) != ev.words:
        raise NotInducedError("the second evolution does not reduce to the first")
    pairs: set[tuple[int, int]] = set()  # neighbouring symbols, in word order
    for word in induced.words[1:]:
        pairs.update(zip(word, word[1:]))
    ida, idb = _ids(A_SIDE, induced.n), _ids(B_SIDE, induced.n)
    members = {ida[x] for x, y in pairs if y == 1 != x}
    members.update(idb[y] for x, y in pairs if x == 1 != y)
    return frozenset(members | {_ONE_A, _ONE_B})


def _shift(bp: BreakpointId, by: int) -> BreakpointId:
    """Move a label ``by`` TDs; the roots and TD 1 trade places, sides swapped."""
    td = bp.td + by
    if bp.td == 0 or td == 0:
        return BreakpointId(td, B_SIDE if bp.side == A_SIDE else A_SIDE)
    return BreakpointId(td, bp.side)


def induced_major_graph(tree: BetaTree, nodeset: Iterable[BreakpointId]) -> MajorGraph:
    """Rewrite a breakpoint tree's major graph for one inserted first TD.

    ``nodeset`` uses the shifted labels of :func:`one_nodeset_of`.  All
    TD numbers move up by one and the old roots become the new TD 1 with
    sides swapped and a fence between them.  Every other node re-selects
    one parental edge by :func:`induced_tree` on the nodeset shifted back
    down: members take their same-type parent, non-members with both
    parents in the set take the opposite-type parent, and the rest keep
    their major edge.  An old fence survives unless both of its
    breakpoints are members.
    """
    members = frozenset(nodeset)
    if not members >= {_ONE_A, _ONE_B}:
        raise ValidationError("a one-nodeset always contains both breakpoints of 1")
    top = tree.nodes[-1].td + 1  # the sorted nodes end on the highest TD
    if any(bp.td < 1 or bp.td > top for bp in members):
        raise ValidationError(f"nodeset labels outside 1..{top}")

    graph = induced_tree(tree, (_shift(bp, -1) for bp in members))
    parent = {_ONE_A: ROOT_B, _ONE_B: ROOT_A}
    parent.update((_shift(v, 1), _shift(p, 1)) for v, p in graph.parent.items())
    fences = {(_ONE_A, _ONE_B)} | {(_shift(x, 1), _shift(y, 1)) for x, y in graph.fences}
    return MajorGraph(parent=parent, fences=frozenset(fences))


# ---------------------------------------------------------------------------
# Beta trees, subtrees and the induced rewrite


#: lane widths of the walk's packed sizes, in bytes, with their array codes
_LANE_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _lane_width(total: int) -> int:
    """Bytes per node in the walk's packed sizes: the fewest that hold ``total``."""
    return next(w for w in _LANE_CODES if total < 256**w)


def _subtree_walk(tree: BetaTree, budget: int) -> tuple:
    """The one include/exclude walk over the admissible subtrees of ``tree``.

    Returns ``(rows, ids, fences, chosen, acc, run)``: :func:`_edges`'
    rows; the nodes, the two roots first and then in an order that puts
    both parents before every node; :func:`_fences`' fences as pairs of
    positions in ``ids``; per position, whether the node is in the
    subtree at hand; the packed sizes ``acc``; and ``run(visit)``, which
    calls ``visit()`` once at each admissible subtree, excluding each
    node before including it.  A node can only join once both parents
    have, so a node whose parents are not both chosen has one branch,
    out under its major parent, and one loop passes over a run of such
    nodes without a call per node.  ``run``
    frees its walk, ``visit`` included, when it returns or raises, not
    at the next cyclic collection, and raises
    :class:`BudgetExceededError` where the calls would pass the
    interpreter's recursion limit.  A ``budget`` below 1 or not an
    ``int`` raises :class:`ValidationError` before any work.

    A fence whose shared parents are both chosen forces at least one of
    its two nodes in.  As :func:`_fences` passes only fences whose nodes
    share both parents, it can prune only at its later node and only
    where that node's parents are both chosen, so leaving that node out
    needs only its ``partner``, the fence's earlier node (else the root
    0a, always in), to be in.

    The walk carries the subtree sizes of the :func:`induced_tree`
    rewrite packed in one integer, one lane of ``w`` bytes per position:
    ``w`` is 1 below 256 nodes and the fewest bytes that hold the node
    count beyond.  As it hangs node ``v`` under its induced parent, it
    sets ``up[v]``, the sum of the lanes of ``v`` and its ancestors, to
    ``up[parent] + lane[v]``, and ``acc[v]`` to ``acc[v - 1] + up[v]``.
    So at each subtree lane ``u`` of ``acc[-1]`` counts the nodes with
    ``u`` on their chain, the size of ``u``'s induced subtree.  A size is
    at most the node count, which fits its lane, so no lane carries into
    the next.
    """
    _check_positive("nodes", "budget", budget)
    total = 2 + len(tree.major_side)
    if total > budget:
        raise BudgetExceededError(f"{total} nodes exceed the subtree budget of {budget}")
    rows = _edges(tree)
    nodes = (ROOT_A, ROOT_B, *(v for v, _, _, _ in rows))
    position = dict(zip(nodes, range(total)))
    succ: list[list[int]] = [[] for _ in nodes]
    for i, (_, a, b, _) in enumerate(rows, start=2):
        succ[position[a]].append(i)
        succ[position[b]].append(i)
    order = _topological(succ)
    if len(order) < total:
        raise ValidationError("parental edges contain a cycle")
    ids = [nodes[i] for i in order]  # the roots come first: nothing points at them
    index = dict(zip(ids, range(total)))
    # per node: its two parents; its induced parent when in the subtree, when
    # out under two chosen parents and otherwise; and its fence partner
    pa, pb, same, flip, major, partner = ([0, 0] for _ in range(6))
    for v, a, b, m in (rows[i - 2] for i in order[2:]):
        a, b = index[a], index[b]
        pa.append(a)
        pb.append(b)
        same.append(a if v.side == A_SIDE else b)
        flip.append(b if v.side == A_SIDE else a)
        major.append(index[m])
        partner.append(0)
    fences = [(index[x], index[y]) for x, y in _fences(tree)]
    for i, j in fences:
        partner[max(i, j)] = min(i, j)

    chosen = [True, True] + [False] * (total - 2)
    lane = [1 << (8 * _lane_width(total) * v) for v in range(total)]
    up = lane[:2] + [0] * (total - 2)  # per node: its lane plus its ancestors'
    acc = [lane[0], lane[0] + lane[1]] + [0] * (total - 2)  # running sums of ``up``
    last = total - 1

    def run(visit: Callable[[], None]) -> None:
        def walk(v: int) -> None:
            while not (chosen[pa[v]] and chosen[pb[v]]):
                up[v] = up[major[v]] + lane[v]
                acc[v] = acc[v - 1] + up[v]
                if v == last:
                    visit()
                    return
                v += 1
            if chosen[partner[v]]:
                up[v] = up[flip[v]] + lane[v]
                acc[v] = acc[v - 1] + up[v]
                if v == last:
                    visit()
                else:
                    walk(v + 1)
            chosen[v] = True
            up[v] = up[same[v]] + lane[v]
            acc[v] = acc[v - 1] + up[v]
            if v == last:
                visit()
            else:
                walk(v + 1)
            chosen[v] = False

        try:
            if total == 2:
                visit()
            else:
                walk(2)
        except RecursionError:  # a call per node whose parents are both chosen
            raise BudgetExceededError(f"{total} nodes nest too deep for the subtree walk") from None
        finally:
            del walk  # the walk names itself: free it now, not at the next collection

    return rows, ids, fences, chosen, acc, run


def enumerate_beta_subtrees(tree: BetaTree, budget: int = SUBTREE_NODE_BUDGET) -> list[NodeSet]:
    """Every admissible node subset, in the order of the walk :func:`kernel_profile` shares."""
    _, ids, _, chosen, _, run = _subtree_walk(tree, budget)
    results: list[NodeSet] = []
    run(lambda: results.append(frozenset(compress(ids, chosen))))
    return results


def induced_tree(tree: BetaTree, tau: Iterable[BreakpointId]) -> MajorGraph:
    """Edge reselection for a node subset, without the first-TD dressing.

    The rules behind :func:`induced_major_graph` — members take same-type
    parents, non-members under two chosen parents flip to the opposite
    type, everyone else keeps the major edge, and a fence survives
    unless both its nodes are chosen — but labels stay put and no root
    fence is added.  (``tau`` here only needs the closure part of
    admissibility; the fence rule is what keeps the *counts* of
    admissible subtrees well-formed.)
    """
    chosen = frozenset(tau)
    if not chosen >= {ROOT_A, ROOT_B}:
        raise ValidationError("both roots belong to every beta subtree")
    rows, fences = _edges(tree), _fences(tree)
    stray = chosen - {ROOT_A, ROOT_B, *tree.major_side}
    if stray:
        raise ValidationError(f"{min(stray)} is not a node of the tree")
    parent, kept = _reselect(rows, fences, chosen)
    return MajorGraph(parent=parent, fences=frozenset(kept))


def _reselect(rows: list[tuple], fences: list[tuple], chosen: frozenset) -> tuple[dict, list]:
    """:func:`induced_tree`'s rewrite of :func:`_edges`' rows and :func:`_fences`'
    pairs: each node's parent, in row order, and the surviving fences."""
    parent = {}
    for v, pa, pb, major in rows:
        both = pa in chosen and pb in chosen
        if v in chosen:
            if not both:
                raise ValidationError(f"{v} is in the subtree but a parent is not")
            parent[v] = pa if v.side == A_SIDE else pb
        elif both:
            parent[v] = pb if v.side == A_SIDE else pa
        else:
            parent[v] = major
    return parent, [f for f in fences if not chosen.issuperset(f)]


# ---------------------------------------------------------------------------
# The kernel identity


def root_component_size(graph: MajorGraph) -> int:
    """Number of nodes whose parent chain ends at ``ROOT_A``, root included."""
    members = {ROOT_A}
    for _ in graph.parent:  # after pass k, every node at most k levels down is in
        members.update(v for v, p in graph.parent.items() if p in members)
    return len(members)


def two_tree_count(graph: MajorGraph) -> ExtensionCount:
    """Extension product of a two-root forest, with no interleaving of
    the two root components (their relative order is accounted for
    elsewhere — this is the count the kernel identity sums)."""
    return _forest_count(graph.nodes, dict(graph.parent), sorted(graph.fences))


def contracted_count(graph: MajorGraph) -> ExtensionCount:
    """Extension product after fusing the two roots into one."""
    parent = {v: (ROOT_A if p.td == 0 else p) for v, p in graph.parent.items()}
    nodes = tuple(v for v in graph.nodes if v != ROOT_B)
    return _forest_count(nodes, parent, sorted(graph.fences))


@dataclass(frozen=True)
class KernelCheck:
    """One instance of the kernel identity at a fixed first-root size."""

    r: int
    lhs: int
    rhs: int

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


def kernel_profile(tree: BetaTree, budget: int = SUBTREE_NODE_BUDGET) -> tuple[KernelCheck, ...]:
    """Kernel sums for every feasible first-root size, in one subtree walk.

    The walk is the one behind :func:`enumerate_beta_subtrees`; it adds
    each node to the packed sizes under its :func:`induced_tree` parent
    as it decides the node, so no subtree is ever materialised.  At each
    admissible subtree one decode of the packed integer gives the
    induced subtree sizes ``s``, and the :func:`two_tree_count` of the
    rewrite is the hook-length value
    ``(s_A - 1)! (s_B - 1)! / ∏ s_v`` over the non-root nodes, times
    ``(C - 1) / C`` with ``C = C(s_x + s_y, s_x)`` for each surviving
    fence; it is added to the sum for ``r = s_A``.  ``rhs`` is the
    :func:`contracted_count` of the empty subset's rewrite of the walk's
    own rows, valued by the dict-based :func:`_forest_count`, so the two
    sides of each identity are computed by different code.  It runs
    before the walk and raises :class:`MalformedGraphError` for a fence
    whose nodes differ in major side under shared parents other than the
    two roots, the one fence a leaf could find bridging no siblings.
    """
    rows, ids, fences, chosen, acc, run = _subtree_walk(tree, budget)
    total = len(ids)
    pairs = [(ids[x], ids[y]) for x, y in fences]
    empty, kept = _reselect(rows, pairs, frozenset((ROOT_A, ROOT_B)))
    rhs = contracted_count(MajorGraph(parent=empty, fences=frozenset(kept))).value
    facts = [factorial(k) for k in range(total)]
    sums = [0] * total
    width = _lane_width(total)
    nbytes, code, swap = width * total, _LANE_CODES[width], sys.byteorder == "big"
    last = total - 1

    def leaf() -> None:
        size = acc[last].to_bytes(nbytes, "little")  # lane u: u's induced subtree size
        if width > 1:
            size = array(code, size)
            if swap:
                size.byteswap()
        num = facts[size[0] - 1] * facts[size[1] - 1]
        den = prod(size[2:])
        for x, y in fences:
            if chosen[x] and chosen[y]:
                continue
            c = comb(size[x] + size[y], size[x])
            num *= c - 1
            den *= c
        sums[size[0]] += num // den

    run(leaf)
    return tuple(KernelCheck(r=r, lhs=sums[r], rhs=rhs) for r in range(1, total))


# ---------------------------------------------------------------------------
# Random beta trees (coverage generator for the kernel property test)


def random_beta_tree(seed: int, size: int, fence_rate: float = FENCE_RATE) -> BetaTree:
    """Grow a valid beta tree of ``size`` nodes in linear time, fixed by its seed.

    Valid parent pairs are anchored: besides the root pair, each node
    whose major chain carries an opposite-type node defines exactly one
    pair — itself as major and that nearest ancestor as minor.  Each
    round picks an anchor, kept in hanging order, which is sorted order,
    and hangs a single node or a fenced pair under it.  No uniformity is
    claimed over the space of trees — diversity is the point.  Python
    seeds an int by its absolute value; a ``bool`` or any other ``seed``, a
    ``size`` not a whole number of at least 2, or a ``fence_rate`` outside
    [0, 1] raises :class:`ValidationError`.
    """
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValidationError(f"a seed is a whole number, got {seed!r}")
    _check_whole("nodes", size)
    if size < 2:
        raise ValidationError(f"a beta tree has at least its two roots, got size {size}")
    if not 0 <= fence_rate <= 1:  # NaN fails too
        raise ValidationError(f"need 0 <= fence_rate <= 1, got {fence_rate}")
    rng = random.Random(seed)
    a_parent: dict[BreakpointId, BreakpointId] = {}
    b_parent: dict[BreakpointId, BreakpointId] = {}
    major_side: dict[BreakpointId, str] = {}
    # each node's nearest opposite-type node up its major chain
    recent: dict[BreakpointId, BreakpointId | None] = {ROOT_A: None, ROOT_B: None}
    fences: set[tuple[BreakpointId, BreakpointId]] = set()
    ids = {side: _ids(side, size) for side in (A_SIDE, B_SIDE)}
    anchors: list[BreakpointId] = []  # hung in id order, so always sorted
    next_id = 1

    while (count := len(major_side) + 2) < size:  # the roots are not in major_side
        pick = rng.randrange(len(anchors) + 1)
        if pick == len(anchors):
            pa, pb, side = ROOT_A, ROOT_B, rng.choice((A_SIDE, B_SIDE))
        else:
            q = anchors[pick]
            side = q.side
            pa, pb = (q, recent[q]) if side == A_SIDE else (recent[q], q)

        if size - count >= 2 and rng.random() < fence_rate:
            pair = (ids[A_SIDE][next_id], ids[B_SIDE][next_id])
            fences.add(pair)
        else:
            pair = (ids[rng.choice((A_SIDE, B_SIDE))][next_id],)
        major = pa if side == A_SIDE else pb
        for z in pair:
            a_parent[z], b_parent[z], major_side[z] = pa, pb, side
            recent[z] = major if major.side != z.side else recent[major]
            if recent[z] is not None:
                anchors.append(z)
        next_id += 1

    return BetaTree(a_parent, b_parent, major_side, frozenset(fences))


# ---------------------------------------------------------------------------
# Totals


def _induction_factor(n: int) -> int:
    """Number of ways one extra first TD lands in an n-TD evolution."""
    return 4 ** (n + 1) - (2 * (n + 1) + 1)


def closed_form(n: int) -> int:
    """Exact number of evolutions with ``n`` TDs: ∏ (4^k − (2k+1))."""
    _check_whole("TDs", n)
    if n < 0:
        raise ValidationError(f"need n >= 0, got {n}")
    return prod(map(_induction_factor, range(n)))


# A derivation's hook-length state is ``(parent, fenced)``: each node's major
# parent as a position, ``k_a`` at ``2k`` and ``k_b`` at ``2k + 1``, after the
# roots' unused entries; and its fenced TDs.
def _segment_parent(word: Word, j: int, own: int = 0) -> int:
    """Major parent of a node on the segment after ``c_j``, ``c_0 = c_{m+1} = 0``
    (:func:`build_2d_tree`): the end of the node's own side, a (``own = 0``) or
    b (``own = 1``), if that end's TD is the larger, else the other end."""
    left = word[j - 1] if j else 0
    right = word[j] if j < len(word) else 0
    return 2 * left if left + own > right else 2 * right + 1


def _hook_step(state: tuple, choice: tuple[int, int], word: Word) -> tuple:
    """The state after ``choice``: ``k_a`` hangs on the segment after
    ``c_{a-1}``, ``k_b`` on the one after ``c_b``, fenced when ``b = a - 1``."""
    parent, fenced = state
    a, b = choice
    parent += (_segment_parent(word, a - 1), _segment_parent(word, b, 1))
    return parent, fenced + (len(parent) // 2 - 1,) if b == a - 1 else fenced


_FIRST_STATE = _hook_step(((0, 0), ()), (1, 0), ())  # TD 1: (1, 0) on the empty word


def _hook_sizes(parent: tuple) -> list[int]:
    """Subtree size of each position of a major forest."""
    size = [1] * len(parent)
    for v in range(len(parent) - 1, 1, -1):  # every parent sits before its child
        size[parent[v]] += size[v]
    return size


def _hook_value(size: list[int], fenced: tuple) -> int:
    """The extension count of a state from its subtree sizes ``s``:
    ``s_1a! s_1b! / ∏ s_v`` over the non-root nodes, times ``(C - 1) / C``,
    ``C = C(s_ka + s_kb, s_ka)``, per fenced TD k, but ``C - 1`` for TD 1,
    whose two trees merge under no parent."""
    num, den = factorial(size[2]) * factorial(size[3]), prod(size[2:])
    for k in fenced:
        x, y = size[2 * k], size[2 * k + 1]
        c = comb(x + y, x)
        num *= c - 1
        den *= c
    return num * comb(size[2] + size[3], size[2]) // den


def _hook_count(ev: WordEvolution) -> int:
    """``count_extensions_formula(major_graph(build_2d_tree(ev))).value`` in integers."""
    state = _FIRST_STATE
    for choice, word in zip(ev.steps, ev.words):
        state = _hook_step(state, choice, word)
    parent, fenced = state
    return _hook_value(_hook_sizes(parent), fenced)


def total_evolutions_via_words(
    n: int, *, deadline: Deadline | None = None, max_n: int = DEFAULT_MAX_N
) -> int:
    """Evolution total summed word by word: Σ extensions of each tree.

    This is the enumeration route the closed form is checked against, run
    in this process.  ``deadline``, checked once per last-level parent,
    and ``n > max_n`` raise :class:`BudgetExceededError`.

    The ``n``-TD derivations are valued in groups per parent of the last
    level: its step ``(a, b)`` hangs the new a and b on segments
    ``a - 1 <= b``, and the leaves swapped give the same sizes.  With
    ``cnt[x]`` segments under ``x``, the unfenced steps take
    ``cnt[x] cnt[y]`` (``C(cnt[x], 2)`` for ``x = y``) times a value
    ``V(x, y)``, the ``cnt[x]`` fenced ones ``V(x, x) / 2`` each: half of
    ``Σ cnt[x] cnt[y] V(x, y)`` over ordered pairs.  A group's sizes are
    the parent's plus one along the ancestor chains of x and y.  One TD
    has no parent level: its one derivation counts 1.
    """
    _check_depth("enumeration of", n, max_n)
    deadline = deadline if deadline is not None else Deadline(None)
    if n == 1:
        return 1
    every = lambda _depth, word: choices_for(word)  # noqa: E731
    twice = 0
    for ev, (parent, fenced) in _derive((), (FIRST_WORD,), n - 1, every, _hook_step, _FIRST_STATE):
        deadline.check()
        word = ev.words[-1]
        cnt = Counter(_segment_parent(word, j) for j in range(len(word) + 1))
        sizes = _hook_sizes(parent) + [1, 1]
        up = [(), ()]  # each position's non-root ancestors, itself first
        for v in range(2, len(parent)):
            up.append((v, *up[parent[v]]))
        for x, y in combinations_with_replacement(cnt, 2):
            size = sizes.copy()
            for v in up[x] + up[y]:
                size[v] += 1
            twice += cnt[x] * cnt[y] * (1 + (x != y)) * _hook_value(size, fenced)
    return twice // 2
