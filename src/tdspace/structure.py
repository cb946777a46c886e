"""Double trees: beta trees, breakpoint trees of TD evolutions, validation.

A *double tree* hangs every node below two typed roots ``0a`` and ``0b``
by two parental edges, a type-a edge and a type-b edge, one of which is
*major* and the other *minor*; *fences* tie opposite-type nodes that
share both parents.  :class:`BetaTree` is the one double-tree type: the
breakpoint tree of a word evolution, built by :func:`build_2d_tree`, is
a beta tree whose nodes are the breakpoint pairs of TDs ``1..n``.

Every tandem duplication ``n`` leaves two breakpoints on the reference
genome: ``n_a`` (duplication start) and ``n_b`` (duplication end).  Each
breakpoint lands inside one genome segment ``[u_a, v_b]`` bounded by the
connections written next to it in the word, and inherits two parental
edges: a type-a edge from ``u_a`` and a type-b edge from ``v_b``.  The
edge from the parent with the larger TD number is *major*, the other
*minor*, and a tie (TD 1, step ``(1, 0)`` on the initial segment
``[0_a, 0_b]``) goes to the parent of the other type; a TD whose two
breakpoints share a segment ties them with a *fence*.

The resulting double tree orders the breakpoints along the reference:
keeping type-a edges, reversing type-b edges and directing fences
``n_a -> n_b`` yields an acyclic diagram whose linear extensions are
exactly the admissible reference layouts.

Two private readers, :func:`_edges` for the parents and :func:`_fences` for
the fences, give the validators' ``parental-edges`` and ``fences`` verdicts;
every other reader reads through them and raises their :class:`ValidationError`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .errors import CycleDetectedError, MalformedGraphError, ValidationError
from .words import WordEvolution

A_SIDE = "a"
B_SIDE = "b"


class BreakpointId(NamedTuple):
    """A breakpoint: which TD laid it down and which end it is."""

    td: int
    side: str

    def __str__(self) -> str:
        return f"{self.td}{self.side}"


#: Interned ids of the first TDs on each side: the hot paths index this
#: table instead of building (and fully comparing) a fresh id per use.
_INTERNED = {side: tuple(BreakpointId(k, side) for k in range(64)) for side in (A_SIDE, B_SIDE)}


def _ids(side: str, n: int) -> tuple[BreakpointId, ...]:
    """The ids of TDs ``0..n`` on one side, built fresh past the table."""
    table = _INTERNED[side]
    return table[: n + 1] + tuple(BreakpointId(k, side) for k in range(len(table), n + 1))


(ROOT_A, _ONE_A), (ROOT_B, _ONE_B) = _INTERNED[A_SIDE][:2], _INTERNED[B_SIDE][:2]


def parse_breakpoint(text: str) -> BreakpointId:
    text = text.strip()
    # ASCII only: ``isdigit`` also passes digits such as "³" that ``int`` refuses
    if text[-1:] not in (A_SIDE, B_SIDE) or not (text.isascii() and text[:-1].isdigit()):
        raise ValidationError(f"bad breakpoint id {text!r}")
    return BreakpointId(int(text[:-1]), text[-1])


@dataclass
class BetaTree:
    """A double tree: two typed roots, two parental edges per node with a
    major designation, and fences between opposite-type nodes that share
    both parents.

    Unlike breakpoint trees of evolutions, nodes need not come in a/b
    pairs and the node count can be odd.  ``BreakpointId`` doubles as
    the node handle; its ``td`` field is just an id here.

    Validity requires the minor parent of each node to be the *nearest*
    opposite-type node above the major parent, exactly as in breakpoint
    trees.  Merely requiring the two parents to be comparable is not
    enough: a five-node chain with one minor edge skipping past a nearer
    ancestor already breaks the subtree counting identity.

    Readers take the parents from :func:`_edges` and the fences from
    :func:`_fences`, so a malformed node or fence raises
    :class:`ValidationError` in the validator's words.
    """

    a_parent: dict[BreakpointId, BreakpointId]
    b_parent: dict[BreakpointId, BreakpointId]
    major_side: dict[BreakpointId, str]
    fences: frozenset[tuple[BreakpointId, BreakpointId]]

    @property
    def nodes(self) -> tuple[BreakpointId, ...]:
        return (ROOT_A, ROOT_B) + tuple(sorted(self.major_side))


def build_2d_tree(ev: WordEvolution) -> BetaTree:
    """Construct the breakpoint double tree of a word evolution.

    Step ``(a, b)`` on a word ``c_1 .. c_m`` (``c_0 = c_{m+1} = 0``; TD 1 is
    ``(1, 0)`` on the empty word) hangs ``k_a`` on ``[(c_{a-1})_a, (c_a)_b]``
    and ``k_b`` on ``[(c_b)_a, (c_{b+1})_b]``, each major on the end of its
    own type only if that end's TD is the larger.  It adds exactly two
    segments, ``[(c_b)_a, k_b]`` and ``[k_a, (c_a)_b]``, and no segment ever
    leaves; those are ``[a_parent(k_b), k_b]`` and ``[k_a, b_parent(k_a)]``,
    so the parents record every segment but the initial ``[0_a, 0_b]``.
    """
    ida, idb = _ids(A_SIDE, ev.n), _ids(B_SIDE, ev.n)
    a_parent, b_parent, major_side, fences = {}, {}, {}, []
    for k, ((a, b), word) in enumerate(zip(((1, 0), *ev.steps), ((), *ev.words)), start=1):
        c, ka, kb = (0, *word, 0), ida[k], idb[k]
        a_parent[ka], b_parent[ka] = ida[c[a - 1]], idb[c[a]]
        a_parent[kb], b_parent[kb] = ida[c[b]], idb[c[b + 1]]
        major_side[ka] = A_SIDE if c[a - 1] > c[a] else B_SIDE
        major_side[kb] = B_SIDE if c[b + 1] > c[b] else A_SIDE
        if b == a - 1:
            fences.append((ka, kb))
    return BetaTree(a_parent, b_parent, major_side, frozenset(fences))


def _edges(tree: BetaTree) -> list[tuple[BreakpointId, BreakpointId, BreakpointId, BreakpointId]]:
    """The rows ``(node, a_parent, b_parent, major_parent)``, sorted by node;
    :class:`ValidationError` for the first node that is a root, lacks parental
    data, has a major side other than a or b, or has mistyped or outside parents."""
    nodes, a_parent, b_parent = tree.major_side, tree.a_parent, tree.b_parent
    rows, keys = [], {*nodes, *a_parent, *b_parent}
    if ROOT_A in keys or ROOT_B in keys:
        raise ValidationError(f"root {min(keys & {ROOT_A, ROOT_B})} has parental data")
    for v in sorted(keys):
        pa, pb = a_parent.get(v), b_parent.get(v)
        if pa is None or pb is None or v not in nodes:
            raise ValidationError(f"{v} missing parental data")
        side = nodes[v]
        if side not in (A_SIDE, B_SIDE):
            raise ValidationError(f"{v} has major side {side!r}")
        if pa.side != A_SIDE or pb.side != B_SIDE:
            raise ValidationError(f"{v} has mistyped parents {pa}, {pb}")
        if (pa not in nodes and pa != ROOT_A) or (pb not in nodes and pb != ROOT_B):
            raise ValidationError(f"{v} has parents outside the tree")
        rows.append((v, pa, pb, pa if side == A_SIDE else pb))
    return rows


def _fences(tree: BetaTree) -> list[tuple[BreakpointId, BreakpointId]]:
    """Every fence, the root pair included, normalised and sorted;
    :class:`ValidationError` for the first bad one in stored sorted order.
    The parents are read as given, so call :func:`_edges` first."""
    fenced: set[BreakpointId] = set()
    pairs = []
    for fence in sorted(tree.fences):
        if len(fence) != 2:
            raise ValidationError(f"fence {'|'.join(map(str, fence))} is not a pair of nodes")
        x, y = fence
        if x in fenced or y in fenced:
            raise ValidationError(f"{x} or {y} sits in two fences")
        fenced.update(fence)
        if {x.side, y.side} != {A_SIDE, B_SIDE}:
            raise ValidationError(f"fence {x}|{y} joins same-type nodes")
        if {x, y} != {ROOT_A, ROOT_B}:
            if x not in tree.major_side or y not in tree.major_side:
                raise ValidationError(f"fence {x}|{y} references missing nodes")
            if tree.a_parent[x] != tree.a_parent[y] or tree.b_parent[x] != tree.b_parent[y]:
                raise ValidationError(f"fence {x}|{y} does not share both parents")
        pairs.append((x, y) if x < y else (y, x))
    return sorted(pairs)


@dataclass
class HasseDiagram:
    """Directed acyclic diagram of the reference order of breakpoints."""

    nodes: tuple[BreakpointId, ...]
    edges: frozenset[tuple[BreakpointId, BreakpointId]]


def _order_diagram(rows: list[tuple], fences: Iterable) -> HasseDiagram:
    """:func:`hasse_diagram` from :func:`_edges`' rows and :func:`_fences`'
    fences, without its acyclicity check."""
    edges = [(pa, v) for v, pa, _, _ in rows] + [(v, pb) for v, _, pb, _ in rows]
    edges += ((x, y) if x.side == A_SIDE else (y, x) for x, y in fences)
    nodes = (ROOT_A, ROOT_B, *(v for v, _, _, _ in rows))
    return HasseDiagram(nodes=nodes, edges=frozenset(edges))


def _successors(diagram: HasseDiagram) -> list[list[int]]:
    """The successors of each node, named by their positions in
    ``diagram.nodes``; :class:`MalformedGraphError` for a node listed
    twice or an edge off them."""
    index = {v: i for i, v in enumerate(diagram.nodes)}
    if len(index) < len(diagram.nodes):
        raise MalformedGraphError("a node is listed twice among the diagram's nodes")
    succ: list[list[int]] = [[] for _ in diagram.nodes]
    try:
        for u, v in diagram.edges:
            succ[index[u]].append(index[v])
    except KeyError as exc:
        raise MalformedGraphError(f"edge at {exc.args[0]}, outside the diagram's nodes") from None
    return succ


def _topological(succ: list[list[int]]) -> list[int]:
    """The nodes in a topological order; short of some when there is a cycle."""
    indeg = [0] * len(succ)
    for targets in succ:
        for j in targets:
            indeg[j] += 1
    order = [i for i, d in enumerate(indeg) if not d]
    for i in order:  # grows while nodes lose their last predecessor
        for j in succ[i]:
            indeg[j] -= 1
            if not indeg[j]:
                order.append(j)
    return order


def hasse_diagram(tree: BetaTree) -> HasseDiagram:
    """Order diagram: type-a edges kept, type-b edges reversed, fences a -> b.

    Raises :class:`ValidationError` where the validators' parental-edges
    or fences check fails and :class:`CycleDetectedError` for a cycle.
    """
    diagram = _order_diagram(_edges(tree), _fences(tree))
    if len(_topological(_successors(diagram))) < len(diagram.nodes):
        raise CycleDetectedError("order diagram contains a directed cycle")
    return diagram


@dataclass
class MajorGraph:
    """Major parental edges plus fences; the input to the counting formula.

    ``parent`` maps each non-root node to its single major parent;
    ``nodes`` lists the two roots and then its keys sorted, so comparing
    the tuples compares the node sets.  Fences are unordered pairs stored
    as sorted tuples.
    """

    parent: dict[BreakpointId, BreakpointId]
    fences: frozenset[tuple[BreakpointId, BreakpointId]]

    @property
    def nodes(self) -> tuple[BreakpointId, ...]:
        return (ROOT_A, ROOT_B) + tuple(sorted(self.parent))


def major_graph(tree: BetaTree) -> MajorGraph:
    """Restrict a double tree to its major edges and fences."""
    parent = {v: major for v, _, _, major in _edges(tree)}
    return MajorGraph(parent=parent, fences=frozenset(_fences(tree)))


# ---------------------------------------------------------------------------
# Structural validation


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: str = ""


@dataclass
class StructureReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def add(self, name: str, passed: bool, details: str = "") -> None:
        self.checks.append(CheckResult(name, passed, details))


def _check_double_tree(tree: BetaTree, report: StructureReport) -> tuple | None:
    """Add the double-tree axiom checks to ``report``.

    Returns ``(rows, fences)``, :func:`_edges`' rows and :func:`_fences`'
    fences, or None when parental-edges, rooted-majors or fences fails.
    """
    try:
        rows = _edges(tree)
    except ValidationError as exc:
        report.add("parental-edges", False, str(exc))
        return None
    report.add("parental-edges", True, "")

    ids = (ROOT_A, ROOT_B, *(v for v, _, _, _ in rows))
    index = dict(zip(ids, range(len(ids))))
    major = [-1, -1, *(index[m] for _, _, _, m in rows)]
    # A topological order of the major edges leaves out exactly the nodes
    # on a loop or below one, whose major chains reach no root.
    succ: list[list[int]] = [[] for _ in ids]
    for i in range(2, len(ids)):
        succ[major[i]].append(i)
    order = _topological(succ)
    if len(order) < len(ids):
        stray = ids[min(set(range(len(ids))).difference(order))]
        report.add("rooted-majors", False, f"major chain from {stray} does not reach a root")
        return None
    report.add("rooted-majors", True, "")
    # per position, the first opposite-type node on the major chain (None if none)
    recent: list[BreakpointId | None] = [None] * len(ids)
    for k in order[2:]:  # the roots come first, then each node after its major parent
        p = major[k]
        recent[k] = ids[p] if ids[p].side != ids[k].side else recent[p]

    # The minor parent is the nearest opposite-type node above the major
    # parent; nodes hung on the two roots are fixed by convention.
    ok, details = True, ""
    for (v, pa, pb, m), p in zip(rows, major[2:]):
        minor = pb if m == pa else pa
        if (pa, pb) != (ROOT_A, ROOT_B) and minor != recent[p]:
            ok, details = False, f"{v}: minor parent {minor}, expected {recent[p]}"
            break
    report.add("minor-recency", ok, details)

    try:
        fences = _fences(tree)
    except ValidationError as exc:
        report.add("fences", False, str(exc))
        return None
    report.add("fences", True, "")
    return rows, fences


def validate_beta_tree(tree: BetaTree) -> StructureReport:
    """Check the double-tree axioms; returns a named pass/fail report.

    Checks cover: parental-edge completeness and typing, major chains
    that reach a root, the recency rule for minor parents, and fences
    that join opposite-type nodes sharing both parents.
    """
    report = StructureReport()
    _check_double_tree(tree, report)
    return report


def validate_structure(tree: BetaTree) -> StructureReport:
    """The double-tree axioms plus the invariants of breakpoint trees.

    Checks, in report order: the four of :func:`validate_beta_tree`
    (a failure of any but minor-recency ends the report),
    first-td-convention (1a and 1b are fenced) and segment-connectivity:
    each breakpoint hangs on a segment bounded by connections of earlier
    TDs (see :func:`build_2d_tree`), so both parents of a node come from
    earlier TDs, and a node on the two roots is major on the root of the
    other side.  By rooted-majors and minor-recency every parent is a
    major ancestor, so this rule agrees with walking each segment's major
    chain.  Six invariants need no check, as they fail only with one
    above:

    - TD 1's parents and major sides: the fenced 1a and 1b share both
      parents, which segment-connectivity puts on the roots.
    - The order diagram is acyclic.  Insert the nodes parents first, each
      a-node just after its a-parent and each b-node just before its
      b-parent: minor-recency puts every node's a-parent left of its
      b-parent, so every edge and fence runs left to right.
    - Chain order (a-nodes ascend, b-nodes descend along a major chain)
      pairs each node k with the nearest node of its type above it: the
      major parent if it has k's type, else the first opposite-type node
      above the major parent, which is k's minor parent by minor-recency,
      or None (no pair) for a node on both roots.  So each pair is an
      edge of k's, which only a cycle breaks.
    - Sources and sinks: every non-root node has an edge in, from its
      a-parent, and one out, to its b-parent; as parents are typed and
      fences run from a to b, 0a has no edge in and 0b none out.  Where
      first-td-convention and segment-connectivity pass, 1a hangs on 0a
      and 1b on 0b, so the one source is 0a and the one sink 0b.
    - A segment's minor edge: where nodes of the upper end hi's type sit
      between the ends on hi's major chain, the lower end is the first
      opposite-type node above hi's major parent, hi's minor parent by
      minor-recency (a node on both roots has no opposite-type node
      above it).
    - One major side per fence off the roots: with x major on the shared
      parent pa and y on pb, minor-recency puts each first above the
      other, which only a major loop allows.
    """
    report = StructureReport()
    checked = _check_double_tree(tree, report)
    if checked is None:
        return report
    rows, fences = checked

    ok = (_ONE_A, _ONE_B) in fences
    report.add("first-td-convention", ok, "" if ok else "TD 1 breaks the root convention")

    ok, details = True, ""
    for v, pa, pb, m in rows:
        if not pa.td < v.td > pb.td:
            ok, details = False, f"{v} hangs on {pa}..{pb}, not on earlier TDs"
            break
        if (pa, pb) == (ROOT_A, ROOT_B) and m.side == v.side:
            ok, details = False, f"{v} hangs on both roots but is major on {m}"
            break
    report.add("segment-connectivity", ok, details)
    return report


# ---------------------------------------------------------------------------
# Serialization

_NODE_STYLE = {
    A_SIDE: 'shape=box, color=red',
    B_SIDE: 'shape=ellipse, color=blue',
}
_FENCE_STYLE = "style=bold, color=black, dir=none"


def _to_dot(name: str, nodes: Iterable, edges: Iterable, fences: Iterable = ()) -> str:
    """One Graphviz digraph: styled nodes, then ``(tail, head, attributes)``
    edges in the order given, then the sorted fences."""
    lines = [f"digraph {name} {{"]
    lines += (f'  "{v}" [{_NODE_STYLE[v.side]}];' for v in sorted(nodes))
    lines += (f'  "{u}" -> "{v}"{f" [{attrs}]" if attrs else ""};' for u, v, attrs in edges)
    lines += (f'  "{x}" -> "{y}" [{_FENCE_STYLE}];' for x, y in sorted(fences))
    lines.append("}")
    return "\n".join(lines)


def tree_to_dot(tree: BetaTree) -> str:
    """Graphviz form of any double tree (breakpoint or beta tree):
    boxes/red for a, ellipses/blue for b, solid major edges, dashed
    minor edges, bold black fences."""
    edges = []
    for v, pa, pb, major in _edges(tree):
        for p, color in ((pa, "red"), (pb, "blue")):
            style = "solid" if p == major else "dashed"
            edges.append((p, v, f"style={style}, color={color}"))
    return _to_dot("td_tree", tree.nodes, edges, _fences(tree))


def hasse_to_dot(diagram: HasseDiagram) -> str:
    return _to_dot("order_diagram", diagram.nodes, ((u, v, "") for u, v in sorted(diagram.edges)))


def major_to_dot(graph: MajorGraph) -> str:
    edges = ((graph.parent[v], v, "style=solid") for v in sorted(graph.parent))
    return _to_dot("major_graph", graph.nodes, edges, graph.fences)


def tree_to_json(tree: BetaTree) -> str:
    """JSON form of any double tree; ``"n"`` is the TD of its last node."""
    doc = {
        "n": tree.nodes[-1].td,
        "nodes": [str(v) for v in tree.nodes],
        "parents": {
            str(v): {"a": str(pa), "b": str(pb), "major": major.side}
            for v, pa, pb, major in _edges(tree)
        },
        "fences": [x.td for x, _ in _fences(tree)],
    }
    return json.dumps(doc, indent=2)


def major_to_json(graph: MajorGraph) -> str:
    doc = {
        "nodes": [str(v) for v in sorted(graph.nodes)],
        "edges": [[str(p), str(c)] for p, c in sorted((p, c) for c, p in graph.parent.items())],
        "fences": [[str(x), str(y)] for x, y in sorted(graph.fences)],
    }
    return json.dumps(doc, indent=2)


def hasse_to_json(diagram: HasseDiagram) -> str:
    doc = {
        "nodes": [str(v) for v in sorted(diagram.nodes)],
        "edges": [[str(u), str(v)] for u, v in sorted(diagram.edges)],
    }
    return json.dumps(doc, indent=2)
