"""Counting linear extensions of breakpoint order diagrams.

Two independent routes are provided.  The closed-form route multiplies
one combinatorial factor per major-graph site: a node with descending
branches of sizes ``x1..xK`` contributes the multinomial
``(x1+..+xK)! / (x1! .. xK!)``, and a fence bridging branches of sizes
``y1, y2`` contributes ``C(y1+y2, y1) - 1`` (interleavings minus the one
order the fence forbids) after which the two branches merge.  The
brute-force route runs dynamic programming over down-sets of the order
diagram and exists to referee the formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial
from typing import Sequence

from .errors import BudgetExceededError, CycleDetectedError, MalformedGraphError, _check_positive
from .structure import BreakpointId, HasseDiagram, MajorGraph, _successors

BRUTEFORCE_NODE_BUDGET = 26


def multinomial(parts: Sequence[int]) -> int:
    """Exact multinomial coefficient over branch sizes."""
    total = sum(parts)
    value = factorial(total)
    for p in parts:
        value //= factorial(p)
    return value


@dataclass
class ExtensionCount:
    """Result of the closed-form count: the value and its factor trace.

    ``factor_trace`` lists the non-trivial sites only, fences first, as
    ``(site, factor)`` pairs whose product equals ``value``.
    """

    value: int
    factor_trace: tuple[tuple[str, int], ...]

    def trace_text(self) -> str:
        if not self.factor_trace:
            return f"1 = {self.value}"
        product = " * ".join(str(f) for _, f in self.factor_trace)
        return f"{product} = {self.value}"


def _forest_count(
    nodes: Sequence[BreakpointId],
    parent: dict[BreakpointId, BreakpointId],
    fences: Sequence[tuple[BreakpointId, BreakpointId]],
) -> ExtensionCount:
    """Product of combinatorial factors over a rooted forest with fences.

    ``parent`` must map every non-root node to another node of the
    forest; fences must bridge two nodes sharing a parent, or two roots.
    Subtree sizes come from one reverse pass over a parents-first order.
    """
    children: dict[BreakpointId, list[BreakpointId]] = {v: [] for v in nodes}
    order = []  # parents first: the roots, then the children of each node read
    for v in nodes:
        p = parent.get(v)
        if p is None:
            order.append(v)
        elif p in children:
            children[p].append(v)
        else:
            raise MalformedGraphError(f"parent of {v} is outside the graph")
    for v in order:
        order.extend(children[v])
    if len(order) != len(nodes):
        raise MalformedGraphError("parent edges do not form a forest")
    size = dict.fromkeys(nodes, 1)
    for v in reversed(order):
        p = parent.get(v)
        if p is not None:
            size[p] += size[v]

    in_fence: set[BreakpointId] = set()
    merged: dict[BreakpointId, list[tuple[BreakpointId, BreakpointId]]] = {}
    trace: list[tuple[str, int]] = []
    value = 1
    for x, y in sorted(fences):
        if x in in_fence or y in in_fence:
            raise MalformedGraphError(f"node in two fences near {x}|{y}")
        in_fence.update((x, y))
        px, py = parent.get(x), parent.get(y)
        if px is None and py is None:
            anchor = None  # bridges two forest roots; no multinomial above
        elif px == py and px is not None:
            anchor = px
        else:
            raise MalformedGraphError(f"fence {x}|{y} does not bridge siblings or roots")
        factor = comb(size[x] + size[y], size[x]) - 1
        if x.td == y.td:
            site = f"fence({x.td})"
        else:
            site = f"fence({x}|{y})"
        if factor != 1:
            trace.append((site, factor))
        value *= factor
        if anchor is not None:
            merged.setdefault(anchor, []).append((x, y))

    node_trace: list[tuple[str, int]] = []
    for v in sorted(nodes):
        if not children[v]:
            continue
        branches = {c: size[c] for c in children[v]}
        for x, y in merged.get(v, ()):
            branches[x] = branches.pop(x) + branches.pop(y)
        factor = multinomial(list(branches.values()))
        if factor != 1:
            node_trace.append((f"node({v})", factor))
        value *= factor

    return ExtensionCount(value=value, factor_trace=tuple(trace + node_trace))


def count_extensions_formula(graph: MajorGraph) -> ExtensionCount:
    """Closed-form extension count of a major graph (roots stripped).

    The two root nodes and their edges are removed; the remaining forest
    (its two components bridged by the first fence) supplies the factors.
    """
    inner = [v for v in graph.nodes if v.td != 0]
    parent = {v: p for v, p in graph.parent.items() if v.td != 0 and p.td != 0}
    fences = [f for f in graph.fences if f[0].td != 0 and f[1].td != 0]
    return _forest_count(inner, parent, fences)


def count_extensions_bruteforce(
    diagram: HasseDiagram, budget: int = BRUTEFORCE_NODE_BUDGET
) -> int:
    """Linear-extension count by dynamic programming over down-sets.

    Down-sets grow one element at a time, level by level from the empty
    set, each carrying its number of orderings and the mask of elements
    it can take next.  Placing ``e`` removes it from that mask and adds
    each successor of ``e`` whose predecessors are then all placed, so a
    step only visits addable elements.  Exponential in the width of the
    order in general, hence the node budget, a whole number of at least 1
    (else :class:`ValidationError`, before any work);
    :class:`CycleDetectedError` where a cycle leaves a level empty.
    """
    _check_positive("nodes", "budget", budget)
    nodes = diagram.nodes
    if len(nodes) > budget:
        raise BudgetExceededError(
            f"{len(nodes)} nodes exceed the brute-force budget of {budget}"
        )
    succ = _successors(diagram)
    pred_mask = [0] * len(nodes)
    for i, heads in enumerate(succ):
        for j in heads:
            pred_mask[j] |= 1 << i

    minimal = sum(1 << i for i, mask in enumerate(pred_mask) if not mask)
    level = {0: [1, minimal]}  # down-set -> [orderings, addable mask]
    for _ in nodes:
        grown_level: dict[int, list[int]] = {}
        for placed, (count, addable) in level.items():
            rest = addable
            while rest:
                bit = rest & -rest
                rest ^= bit
                grown = placed | bit
                entry = grown_level.get(grown)
                if entry is not None:
                    entry[0] += count
                    continue
                reach = addable ^ bit
                for j in succ[bit.bit_length() - 1]:
                    if pred_mask[j] & grown == pred_mask[j]:
                        reach |= 1 << j
                grown_level[grown] = [count, reach]
        if not grown_level:
            raise CycleDetectedError("order diagram contains a directed cycle")
        level = grown_level
    return sum(count for count, _ in level.values())  # of the full set alone
