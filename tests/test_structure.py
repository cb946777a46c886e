"""Breakpoint trees, order diagrams, major graphs and their validators."""

import ast
import hashlib
import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

import tdspace
from tdspace import (
    A_SIDE,
    B_SIDE,
    ROOT_A,
    ROOT_B,
    BetaTree,
    BreakpointId,
    CycleDetectedError,
    ValidationError,
    WordEvolution,
    build_2d_tree,
    count_extensions_formula,
    enumerate_word_evolutions,
    hasse_diagram,
    hasse_to_dot,
    hasse_to_json,
    major_graph,
    major_to_dot,
    major_to_json,
    parse_breakpoint,
    random_beta_tree,
    tree_to_dot,
    tree_to_json,
    validate_beta_tree,
    validate_structure,
)
from tdspace.structure import (
    StructureReport,
    _edges,
    _order_diagram,
    _successors,
    _topological,
)


def bp(text):
    return parse_breakpoint(text)


def test_breakpoint_parsing_and_rendering():
    assert bp("3a") == BreakpointId(3, A_SIDE)
    assert str(BreakpointId(12, B_SIDE)) == "12b"
    assert bp("12b") == BreakpointId(12, B_SIDE)
    assert bp(" 3a ") == BreakpointId(3, A_SIDE)
    assert ROOT_A == BreakpointId(0, A_SIDE)


@pytest.mark.parametrize("text", ["", "a", "3", "b3", "3c", "3 a", "+3a", "\u00b3a", "\u0663a"])
def test_malformed_breakpoint_ids_raise_validation_error(text):
    """Superscript and non-ASCII decimal digits pass ``str.isdigit``;
    they are refused like every other malformed id."""
    with pytest.raises(ValidationError, match="^bad breakpoint id "):
        parse_breakpoint(text)


def word_segments(word):
    """Genome segments of a word: ``s_i = [(c_i)_a, (c_{i+1})_b]`` with 0 flanks."""
    bounded = (0,) + tuple(word) + (0,)
    return [
        (BreakpointId(bounded[i], A_SIDE), BreakpointId(bounded[i + 1], B_SIDE))
        for i in range(len(bounded) - 1)
    ]


def derived_segments(tree):
    """The segments read off the parents: each node with its opposite-type
    parent, and the initial interval."""
    segments = {(ROOT_A, ROOT_B)}
    for v in tree.major_side:
        segments.add((v, tree.b_parent[v]) if v.side == A_SIDE else (tree.a_parent[v], v))
    return segments


def fenced(tree, tds):
    """A copy of ``tree`` whose fences join the breakpoint pairs of ``tds``."""
    pairs = ((BreakpointId(k, A_SIDE), BreakpointId(k, B_SIDE)) for k in tds)
    return replace(tree, fences=frozenset(pairs))


def major_parent(tree, v):
    return tree.a_parent[v] if tree.major_side[v] == A_SIDE else tree.b_parent[v]


def minor_parent(tree, v):
    return tree.b_parent[v] if tree.major_side[v] == A_SIDE else tree.a_parent[v]


def order_diagram(tree):
    """The order diagram of any tree whose parental edges pass, cyclic or not."""
    return _order_diagram(_edges(tree), tree.fences)


def test_word_segments_of_single_connection():
    # reading "1" leaves its two flank segments
    segs = [(str(x), str(y)) for x, y in word_segments((1,))]
    assert segs == [("0a", "1b"), ("1a", "0b")]


def test_first_td_tree():
    tree = build_2d_tree(WordEvolution(steps=()))
    assert json.loads(tree_to_json(tree))["n"] == 1
    assert tree.a_parent[bp("1a")] == ROOT_A
    assert tree.b_parent[bp("1a")] == ROOT_B
    assert tree.major_side[bp("1a")] == B_SIDE
    assert tree.major_side[bp("1b")] == A_SIDE
    assert tree.fences == frozenset({(bp("1a"), bp("1b"))})


def test_tree_of_121(ev_121):
    tree = build_2d_tree(ev_121)
    parents = {
        str(v): (str(tree.a_parent[v]), str(tree.b_parent[v]), tree.major_side[v])
        for v in tree.nodes
        if v.td > 0
    }
    assert parents == {
        "1a": ("0a", "0b", "b"),
        "1b": ("0a", "0b", "a"),
        "2a": ("0a", "1b", "b"),
        "2b": ("1a", "0b", "a"),
    }
    assert tree.fences == frozenset({(bp("1a"), bp("1b"))})


def test_major_graph_of_121(ev_121):
    graph = major_graph(build_2d_tree(ev_121))
    edges = {str(v): str(p) for v, p in graph.parent.items()}
    assert edges == {"1a": "0b", "1b": "0a", "2a": "1b", "2b": "1a"}
    assert {(str(x), str(y)) for x, y in graph.fences} == {("1a", "1b")}


def test_hasse_diagram_shape(ev_121, ev_540):
    small = hasse_diagram(build_2d_tree(ev_121))
    assert (len(small.nodes), len(small.edges)) == (6, 9)
    big = hasse_diagram(build_2d_tree(ev_540))
    assert (len(big.nodes), len(big.edges)) == (10, 18)


def _up_sets(diagram):
    """Bit masks of the nodes strictly above each node (bit ``i`` is
    ``diagram.nodes[i]``), in one topological pass; None on a cycle."""
    succ = _successors(diagram)
    order = _topological(succ)
    if len(order) < len(succ):
        return None
    above = [0] * len(succ)
    for i in reversed(order):
        for j in succ[i]:
            above[i] |= above[j] | 1 << j
    return above


def reachability(diagram):
    """Transitive closure: node -> set of nodes strictly above it."""
    above = _up_sets(diagram)
    if above is None:
        raise CycleDetectedError("order diagram contains a directed cycle")
    nodes = diagram.nodes
    return {v: {w for j, w in enumerate(nodes) if mask >> j & 1} for v, mask in zip(nodes, above)}


def test_hasse_unique_source_and_sink():
    """0a reaches everything; everything reaches 0b."""
    for n in range(1, 4):
        for ev in enumerate_word_evolutions(n):
            diagram = hasse_diagram(build_2d_tree(ev))
            reach = reachability(diagram)
            everything = set(diagram.nodes)
            assert reach[ROOT_A] | {ROOT_A} == everything
            assert all(ROOT_B in reach[v] for v in everything - {ROOT_B})


def test_hasse_diagram_orients_replaced_fences():
    """A tree copied with other fenced TDs, each fence stored either way
    round, orients every fence a -> b where the fence check passes, and
    raises that check's error where it fails."""
    outcomes = {True: 0, False: 0}
    for n in range(1, 4):
        for ev in enumerate_word_evolutions(n):
            tree = build_2d_tree(ev)
            kept = {(p, v) for v, p in tree.a_parent.items()} | set(tree.b_parent.items())
            for tds in (range(1, n + 1), {1}):
                fences = fenced(tree, tds).fences
                for spelled in (fences, {(y, x) for x, y in fences}):
                    refenced = replace(tree, fences=frozenset(spelled))
                    details = reference_fence_failure(refenced)
                    outcomes[not details] += 1
                    if not details:
                        assert hasse_diagram(refenced).edges == kept | fences, str(ev)
                        continue
                    with pytest.raises(ValidationError) as exc:
                        hasse_diagram(refenced)
                    assert str(exc.value) == details, str(ev)
    assert min(outcomes.values()) > 0, outcomes


def test_hasse_diagram_orients_a_fence_whose_b_node_sorts_first():
    """The fence 1b|2a of a beta tree sorts b-node first, either way it is
    stored; the order diagram still runs it from 2a to 1b."""
    b1, a2 = bp("1b"), bp("2a")
    for fence in ((b1, a2), (a2, b1)):
        tree = BetaTree(
            a_parent={b1: ROOT_A, a2: ROOT_A},
            b_parent={b1: ROOT_B, a2: ROOT_B},
            major_side={b1: A_SIDE, a2: B_SIDE},
            fences=frozenset({fence}),
        )
        assert validate_beta_tree(tree).ok
        edges = hasse_diagram(tree).edges
        assert (a2, b1) in edges and (b1, a2) not in edges


def test_validators_pass_exhaustively():
    for n in range(1, 5):
        for ev in enumerate_word_evolutions(n):
            report = validate_structure(build_2d_tree(ev))
            assert report.ok, (str(ev), report.failures())


def corrupt(tree, **changes):
    clean = replace(
        tree,
        a_parent=dict(tree.a_parent),
        b_parent=dict(tree.b_parent),
        major_side=dict(tree.major_side),
    )
    for field, value in changes.items():
        getattr(clean, field).update(value)
    return clean


def test_negative_control_mistyped_parent(ev_540):
    tree = build_2d_tree(ev_540)
    broken = corrupt(tree, a_parent={bp("3a"): bp("2b")})
    report = validate_structure(broken)
    assert not report.ok
    assert "parental-edges" in {c.name for c in report.failures()}


def test_negative_control_skipped_minor(ev_540):
    tree = build_2d_tree(ev_540)
    # 4a's minor parent is 1b, the first b-type node above its major 3a;
    # rewiring the minor to 0b must trip the recency check
    assert minor_parent(tree, bp("4a")) == bp("1b")
    broken = corrupt(tree, b_parent={bp("4a"): ROOT_B})
    report = validate_structure(broken)
    assert not report.ok
    assert "minor-recency" in {c.name for c in report.failures()}


def test_negative_control_major_cycle(ev_540):
    tree = build_2d_tree(ev_540)
    broken = corrupt(
        tree,
        a_parent={bp("1a"): bp("4a")},
        major_side={bp("1a"): A_SIDE},
    )
    assert not validate_structure(broken).ok


def test_a_fence_outside_the_tree_ends_the_report(ev_540):
    """A fenced TD with no nodes in the tree fails the fence check, and the
    report stops there, as it does for any fence that fails the check."""
    tree = build_2d_tree(ev_540)
    for tds, details in (
        ({1, 9}, "fence 9a|9b references missing nodes"),
        ({1, 2, 9}, "fence 2a|2b does not share both parents"),
        ({1, 2}, "fence 2a|2b does not share both parents"),
    ):
        broken = fenced(tree, tds)
        report = validate_structure(broken)
        assert report == reference_validate_structure(broken)
        assert [c.details for c in report.failures()] == [details]
        assert report.checks[-1].name == "fences"


def test_first_td_convention_needs_the_first_fence(ev_540):
    """TD 1's fence may be stored either way round, but not left out."""
    tree = build_2d_tree(ev_540)
    unfenced = replace(tree, fences=frozenset())
    report = validate_structure(unfenced)
    assert report == reference_validate_structure(unfenced)
    assert [(c.name, c.details) for c in report.failures()] == [
        ("first-td-convention", "TD 1 breaks the root convention")
    ]
    flipped = replace(tree, fences=frozenset((y, x) for x, y in tree.fences))
    assert validate_structure(flipped).ok


@pytest.mark.parametrize(
    "fence, details",
    [
        (("1a", "2b"), "1a or 2b sits in two fences"),
        (("2b", "3b"), "fence 2b|3b joins same-type nodes"),
    ],
)
def test_fence_checks_on_a_beta_tree(worked_beta_tree, fence, details):
    """Two fence rules that no breakpoint tree can break, as its fences
    always join the two breakpoints of one TD."""
    broken = replace(worked_beta_tree, fences=worked_beta_tree.fences | {tuple(map(bp, fence))})
    report = validate_beta_tree(broken)
    assert report == reference_validate_beta_tree(broken)
    assert [(c.name, c.details) for c in report.failures()] == [("fences", details)]


def test_fenced_tds_are_always_reversed():
    for n in range(1, 4):
        for ev in enumerate_word_evolutions(n):
            tree = build_2d_tree(ev)
            above = reachability(hasse_diagram(tree))
            for ka, kb in tree.fences:
                assert kb in above[ka]


def test_dot_exports(ev_540):
    tree = build_2d_tree(ev_540)
    dot = tree_to_dot(tree)
    assert dot.startswith("digraph") and dot.rstrip().endswith("}")
    assert '"4b"' in dot
    assert "digraph" in major_to_dot(major_graph(tree))
    assert "digraph" in hasse_to_dot(hasse_diagram(tree))


def test_json_exports(ev_121):
    tree = build_2d_tree(ev_121)
    doc = json.loads(tree_to_json(tree))
    assert doc["n"] == 2
    assert doc["parents"]["2b"]["a"] == "1a"
    graph_doc = json.loads(major_to_json(major_graph(tree)))
    assert graph_doc["fences"] == [["1a", "1b"]]
    hasse_doc = json.loads(hasse_to_json(hasse_diagram(tree)))
    assert len(hasse_doc["edges"]) == 9


#: sha256 over the exports and the factor trace of every evolution with n <= 5
EXPORT_DIGEST = "2066821b1ee08d7d0e0d5ce5acbbb945a7150f435ac82098174728ab45f60b7b"


def test_exports_and_factor_traces_up_to_5_are_pinned():
    """``tree_to_json``, ``tree_to_dot``, ``major_to_json``, ``hasse_to_json``
    and the formula's factor trace of all 15,718 evolutions with n <= 5,
    each text closed by a NUL, hash to one digest; each tree's ``"n"`` is
    the TD count of its evolution."""
    digest, count = hashlib.sha256(), 0
    for n in range(1, 6):
        for ev in enumerate_word_evolutions(n):
            tree = build_2d_tree(ev)
            graph = major_graph(tree)
            tree_json = tree_to_json(tree)
            assert json.loads(tree_json)["n"] == ev.n, str(ev)
            trace = count_extensions_formula(graph).factor_trace
            for text in (
                tree_json,
                tree_to_dot(tree),
                major_to_json(graph),
                hasse_to_json(hasse_diagram(tree)),
                repr(trace),
            ):
                digest.update(text.encode() + b"\0")
            count += 1
    assert count == 15718
    assert digest.hexdigest() == EXPORT_DIGEST


# ---------------------------------------------------------------------------
# The replay-based tree builder and the walk-per-check validator, kept as
# references for the incremental builder and the index-based validator


def reference_build_2d_tree(ev):
    """Replay every word and hang each breakpoint on its host segment;
    returns the tree and every segment the replay met."""
    a_parent, b_parent, major_side = {}, {}, {}
    one_a, one_b = BreakpointId(1, A_SIDE), BreakpointId(1, B_SIDE)
    fences = {(one_a, one_b)}
    segments = {(ROOT_A, ROOT_B)}
    a_parent[one_a] = ROOT_A
    b_parent[one_a] = ROOT_B
    major_side[one_a] = B_SIDE
    a_parent[one_b] = ROOT_A
    b_parent[one_b] = ROOT_B
    major_side[one_b] = A_SIDE

    def attach(node, seg):
        left, right = seg
        if left.td == right.td:
            raise ValidationError(f"segment {left}..{right} has equal endpoint TDs")
        a_parent[node] = left
        b_parent[node] = right
        major_side[node] = A_SIDE if left.td > right.td else B_SIDE

    for i, (a, b) in enumerate(ev.steps):
        td = i + 2
        segs = word_segments(ev.words[i])
        segments.update(segs)
        attach(BreakpointId(td, A_SIDE), segs[a - 1])
        attach(BreakpointId(td, B_SIDE), segs[b])
        if b == a - 1:
            fences.add((BreakpointId(td, A_SIDE), BreakpointId(td, B_SIDE)))
    segments.update(word_segments(ev.words[-1]))
    return BetaTree(a_parent, b_parent, major_side, frozenset(fences)), frozenset(segments)


def reference_reachability(diagram):
    """Set-based closure over a sorted-frontier topological order."""
    succ = {v: [] for v in diagram.nodes}
    for u, v in diagram.edges:
        succ[u].append(v)
    indeg = {v: 0 for v in succ}
    for targets in succ.values():
        for w in targets:
            indeg[w] += 1
    frontier = sorted(v for v, d in indeg.items() if d == 0)
    order = []
    while frontier:
        v = frontier.pop()
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                frontier.append(w)
    if len(order) != len(succ):
        raise CycleDetectedError("order diagram contains a directed cycle")
    above = {v: set() for v in diagram.nodes}
    for v in reversed(order):
        for w in succ[v]:
            above[v].add(w)
            above[v] |= above[w]
    return above


def reference_major_ancestors(tree, node):
    seen = {node}
    while node in tree.major_side:
        node = major_parent(tree, node)
        if node in seen:
            return
        seen.add(node)
        yield node


def reference_check_double_tree(tree, report):
    nodes = set(tree.major_side)
    ok, details = True, ""
    for v in sorted(nodes | tree.a_parent.keys() | tree.b_parent.keys()):
        pa, pb = tree.a_parent.get(v), tree.b_parent.get(v)
        if pa is None or pb is None or v not in nodes:
            ok, details = False, f"{v} missing parental data"
            break
        if tree.major_side[v] not in (A_SIDE, B_SIDE):
            ok, details = False, f"{v} has major side {tree.major_side[v]!r}"
            break
        if pa.side != A_SIDE or pb.side != B_SIDE:
            ok, details = False, f"{v} has mistyped parents {pa}, {pb}"
            break
        if (pa not in nodes and pa != ROOT_A) or (pb not in nodes and pb != ROOT_B):
            ok, details = False, f"{v} has parents outside the tree"
            break
    report.add("parental-edges", ok, details)
    if not ok:
        return False

    ok, details = True, ""
    for v in sorted(nodes):
        if not any(anc.td == 0 for anc in reference_major_ancestors(tree, v)):
            ok, details = False, f"major chain from {v} does not reach a root"
            break
    report.add("rooted-majors", ok, details)
    if not ok:
        return False

    ok, details = True, ""
    for v in sorted(nodes):
        if (tree.a_parent[v], tree.b_parent[v]) == (ROOT_A, ROOT_B):
            continue
        major = major_parent(tree, v)
        expected = next(
            (a for a in reference_major_ancestors(tree, major) if a.side != major.side), None
        )
        if minor_parent(tree, v) != expected:
            ok = False
            details = f"{v}: minor parent {minor_parent(tree, v)}, expected {expected}"
            break
    report.add("minor-recency", ok, details)

    details = reference_fence_failure(tree)
    report.add("fences", not details, details)
    return not details


def reference_fence_failure(tree):
    """The details of the first fence, in stored sorted order, that the
    fence check refuses, or ""; the parents must pass parental-edges."""
    fenced = set()
    for fence in sorted(tree.fences):
        if len(fence) != 2:
            return f"fence {'|'.join(map(str, fence))} is not a pair of nodes"
        x, y = fence
        if x in fenced or y in fenced:
            return f"{x} or {y} sits in two fences"
        fenced.update((x, y))
        if {x.side, y.side} != {A_SIDE, B_SIDE}:
            return f"fence {x}|{y} joins same-type nodes"
        if {x, y} == {ROOT_A, ROOT_B}:
            continue
        if x not in tree.major_side or y not in tree.major_side:
            return f"fence {x}|{y} references missing nodes"
        if tree.a_parent[x] != tree.a_parent[y] or tree.b_parent[x] != tree.b_parent[y]:
            return f"fence {x}|{y} does not share both parents"
    return ""


def reference_validate_beta_tree(tree):
    report = StructureReport()
    reference_check_double_tree(tree, report)
    return report


def reference_validate_structure(tree):
    report = StructureReport()
    if not reference_check_double_tree(tree, report):
        return report

    one_a, one_b = BreakpointId(1, A_SIDE), BreakpointId(1, B_SIDE)
    ok = not tree.fences.isdisjoint({(one_a, one_b), (one_b, one_a)})
    report.add("first-td-convention", ok, "" if ok else "TD 1 breaks the root convention")

    details = reference_segment_failure(tree)
    report.add("segment-connectivity", not details, details)
    return report


def reference_segment_failure(tree):
    """The details of the least node with a parent from its own TD or a
    later one, or on both roots and major on its own side's root; or ""."""
    for v in sorted(tree.major_side):
        pa, pb = tree.a_parent[v], tree.b_parent[v]
        if max(pa.td, pb.td) >= v.td:
            return f"{v} hangs on {pa}..{pb}, not on earlier TDs"
        if (pa, pb) == (ROOT_A, ROOT_B) and tree.major_side[v] == v.side:
            return f"{v} hangs on both roots but is major on {major_parent(tree, v)}"
    return ""


# Checks the validators omit because they cannot fail alone (the
# docstring of ``validate_structure`` gives the reasons; the property test
# below checks them).  The order-diagram check ran once the double-tree
# checks passed; the chain-order and source/sink checks ran once it passed
# too, and ``above`` is the diagram's :func:`reachability`.  The minor-edge
# and fence major-side checks need only major chains that reach a root.
# The segment walk is the old form of segment-connectivity, a referee for
# its rule.  The old first-TD convention also asked for TD 1's parents and
# major sides, which segment-connectivity fixes once 1a and 1b are fenced.


def old_first_td_convention(tree):
    """1a major on 0b, 1b major on 0a, 1a's a-parent 0a, 1b's b-parent
    0b, and the two fenced; the details of a failure, or ""."""
    one_a, one_b = BreakpointId(1, A_SIDE), BreakpointId(1, B_SIDE)
    ok = (
        tree.major_side.get(one_a) == B_SIDE
        and tree.major_side.get(one_b) == A_SIDE
        and tree.a_parent.get(one_a) == ROOT_A
        and tree.b_parent.get(one_b) == ROOT_B
        and not tree.fences.isdisjoint({(one_a, one_b), (one_b, one_a)})
    )
    return "" if ok else "TD 1 breaks the root convention"


def old_order_diagram(tree):
    """The details of a cycle in the order diagram, or ""."""
    try:
        reference_reachability(order_diagram(tree))
    except CycleDetectedError as exc:
        return str(exc)
    return ""


def old_segment_walk(tree):
    """Each segment's lower end must sit on the major chain of its upper
    end, with only nodes of the upper end's type between them and TD
    numbers falling all the way up; the details of the least segment
    that breaks this, or ""."""
    for left, right in sorted(derived_segments(tree) - {(ROOT_A, ROOT_B)}):
        lo, hi = (left, right) if left.td < right.td else (right, left)
        walk = [hi]
        for anc in reference_major_ancestors(tree, hi):
            walk.append(anc)
            if anc == lo:
                break
        else:
            return f"segment {left}..{right}: no major chain {lo} to {hi}"
        if any(v.side != hi.side for v in walk[1:-1]):
            return f"segment {left}..{right}: mixed-type chain"
        if any(x.td <= y.td for x, y in zip(walk, walk[1:])):
            return f"segment {left}..{right}: chain not ascending"
    return ""


def old_chain_order(tree, above):
    """Along each maximal major chain, a-nodes ascend and b-nodes descend;
    the details of the first contradiction of the order diagram, or ""."""
    children = {v: [] for v in tree.nodes}
    for v in tree.major_side:
        children[major_parent(tree, v)].append(v)
    for leaf in [v for v in tree.nodes if not children[v]]:
        chain = [leaf] + list(reference_major_ancestors(tree, leaf))
        chain.reverse()
        a_nodes = [v for v in chain if v.side == A_SIDE]
        b_nodes = [v for v in chain if v.side == B_SIDE]
        predicted = a_nodes + b_nodes[::-1]
        for u, v in zip(predicted, predicted[1:]):
            if u in above[v]:
                return f"chain to {leaf}: {v} < {u} contradicts predicted order"
    return ""


def old_sources_and_sinks(tree, above):
    """The order diagram's sources must be [0a] and its sinks [0b]; the
    details of a failure, or ""."""
    diagram = order_diagram(tree)
    targets = {v for _, v in diagram.edges}
    sources = [v for v in diagram.nodes if v not in targets]
    sinks = [v for v in diagram.nodes if not above[v]]
    ok = sources == [ROOT_A] and sinks == [ROOT_B]
    return "" if ok else f"sources={sources} sinks={sinks}"


def old_minor_edge(tree):
    """Where nodes of one type sit between a segment's ends on a major
    chain, the minor edge joins the ends too; the details of the least
    segment that breaks this, or ""."""
    for left, right in sorted(derived_segments(tree) - {(ROOT_A, ROOT_B)}):
        lo, hi = (left, right) if left.td < right.td else (right, left)
        walk = [hi, *reference_major_ancestors(tree, hi)]
        internal = walk[1 : walk.index(lo)] if lo in walk else []
        if internal and all(v.side == hi.side for v in internal) and minor_parent(tree, hi) != lo:
            return f"segment {left}..{right}: minor edge missing"
    return ""


def old_fence_major_sides(tree):
    """Fenced nodes off the two roots share their major side; the details
    of the least fence that breaks this, or ""."""
    for x, y in sorted(tree.fences):
        if not {x, y} <= tree.major_side.keys():
            continue
        shared = (tree.a_parent[x], tree.b_parent[x])
        if shared == (tree.a_parent[y], tree.b_parent[y]) != (ROOT_A, ROOT_B):
            if tree.major_side[x] != tree.major_side[y]:
                return f"fence {x}|{y} mixes major sides"
    return ""


def test_builder_matches_reference():
    """Every tree with n <= 4 and every fifth at n = 5, field by field."""
    evs = [ev for n in range(1, 5) for ev in enumerate_word_evolutions(n)]
    evs += list(enumerate_word_evolutions(5))[::5]
    assert len(evs) == 403 + 3063
    for ev in evs:
        assert build_2d_tree(ev) == reference_build_2d_tree(ev)[0], str(ev)


def test_segments_derived_from_parents_match_the_replay(random_evolution):
    """Every tree with n <= 5, seeded trees with n = 6..12 and the 300-TD
    chain: the parents record every segment the replay meets."""
    evs = [ev for n in range(1, 6) for ev in enumerate_word_evolutions(n)]
    evs += [random_evolution(n, 50 * n + k) for n in range(6, 13) for k in range(30)]
    evs.append(WordEvolution(steps=((1, 0),) * 299))
    for ev in evs:
        assert derived_segments(build_2d_tree(ev)) == reference_build_2d_tree(ev)[1], str(ev)


def test_reachability_matches_reference():
    for n in range(1, 5):
        for ev in enumerate_word_evolutions(n):
            diagram = hasse_diagram(build_2d_tree(ev))
            assert reachability(diagram) == reference_reachability(diagram)


def scrambled(tree, rng):
    """One or two seeded corruptions: a parent rewired to a node of the
    right type (loops included), or a major side flipped."""
    tree = corrupt(tree)
    for _ in range(rng.choice((1, 2))):
        v = rng.choice(sorted(tree.major_side))
        kind = rng.randrange(3)
        if kind == 2:
            tree.major_side[v] = A_SIDE if tree.major_side[v] == B_SIDE else B_SIDE
        else:
            side, parents = ((A_SIDE, tree.a_parent), (B_SIDE, tree.b_parent))[kind]
            parents[v] = rng.choice([u for u in tree.nodes if u.side == side])
    return tree


def corruption_pools(random_evolution):
    """Every tree with n <= 4, every tree with n = 5, and seeded trees
    with n = 6..12."""
    return [
        [build_2d_tree(ev) for n in range(1, 5) for ev in enumerate_word_evolutions(n)],
        [build_2d_tree(ev) for ev in enumerate_word_evolutions(5)],
        [build_2d_tree(random_evolution(n, 50 * n + k)) for n in range(6, 13) for k in range(30)],
    ]


def seeded_corruptions(pools):
    """1000 seeded corruptions of each pool, one list per pool."""
    rng = random.Random(8)
    return [[scrambled(rng.choice(pool), rng) for _ in range(1000)] for pool in pools]


def test_validators_match_reference_on_seeded_corruptions(random_evolution):
    """1000 corruptions of each pool of :func:`corruption_pools`."""
    for corruptions in seeded_corruptions(corruption_pools(random_evolution)):
        failed, cyclic = set(), 0
        for tree in corruptions:
            report = validate_structure(tree)
            assert report == reference_validate_structure(tree), tree
            assert validate_beta_tree(tree) == reference_validate_beta_tree(tree), tree
            failed.update(c.name for c in report.failures())
            cyclic += report.checks[0].passed and bool(old_order_diagram(tree))
        # major loops, segment failures and order-diagram cycles are among
        # the corruptions
        assert {"rooted-majors", "segment-connectivity"} <= failed
        assert cyclic


def test_dropped_checks_fail_only_with_a_kept_one(random_evolution):
    """Wherever the old order-diagram or chain-order check fails,
    minor-recency fails too; wherever the old source/sink test fails, the
    old first-TD convention does; and wherever that fails but 1a and 1b
    are fenced, segment-connectivity fails: on every tree of the three
    pools, on their seeded corruptions and on the empty tree, which has
    no edge at all.
    Wherever minor-recency passes, the old segment walk fails exactly
    where the segment rule does.  Wherever the old minor-edge or fence
    major-side test fails, minor-recency fails too.  The checks that the
    beta validator shares also run on seeded beta trees at fence rates 0,
    0.35 and 1, each also scrambled."""
    pools = corruption_pools(random_evolution)
    empty = BetaTree(a_parent={}, b_parent={}, major_side={}, fences=frozenset())
    corruptions = [tree for part in seeded_corruptions(pools) for tree in part]
    rng = random.Random(11)
    betas = [
        beta
        for rate in (0, 0.35, 1)
        for seed in range(300)
        for tree in [random_beta_tree(seed, 4 + seed % 13, rate)]
        for beta in (tree, scrambled(tree, rng))
    ]
    # each tree with whether it is a breakpoint tree or one of its corruptions
    trees = [(tree, True) for tree in (*pools[0], *pools[1], *pools[2], *corruptions, empty)]
    trees += [(tree, False) for tree in betas]
    failures = {name: [] for name in ("cycle", "walk", "chain", "sink", "first", "edge", "sides")}
    for tree, breakpoint_tree in trees:
        validate = validate_structure if breakpoint_tree else validate_beta_tree
        passed = {c.name: c.passed for c in validate(tree).checks}
        if not passed.get("rooted-majors"):
            continue  # where no major chain is sure to end
        for name, old_check in (("edge", old_minor_edge), ("sides", old_fence_major_sides)):
            if old_check(tree):
                assert not passed["minor-recency"], tree
                failures[name].append((tree, breakpoint_tree))
        if breakpoint_tree and passed["minor-recency"]:
            walk = old_segment_walk(tree)
            assert bool(walk) == bool(reference_segment_failure(tree)), tree
            failures["walk"] += [(tree, True)] if walk else []
        if not passed.get("fences"):
            continue  # where the old order-diagram check did not run
        if breakpoint_tree and old_first_td_convention(tree) and passed["first-td-convention"]:
            assert not passed["segment-connectivity"], tree
            failures["first"].append((tree, True))
        if old_order_diagram(tree):
            assert not passed["minor-recency"], tree
            failures["cycle"].append((tree, breakpoint_tree))
            continue
        if not breakpoint_tree:
            continue  # where the old chain checks did not run
        above = reachability(order_diagram(tree))
        if old_chain_order(tree, above):
            assert not passed["minor-recency"], tree
            failures["chain"].append((tree, True))
        if old_sources_and_sinks(tree, above):
            assert old_first_td_convention(tree), tree
            failures["sink"].append((tree, True))
    assert all(failures[name] for name in ("walk", "chain", "first", "edge", "sides"))
    assert any(tree is empty for tree, _ in failures["sink"])
    assert not all(kind for _, kind in failures["edge"] + failures["sides"])
    assert {kind for _, kind in failures["cycle"]} == {True, False}


def test_segment_connectivity_fails_alone():
    """A parent from a later TD, and a node on both roots that is major
    on the root of its own side: segment-connectivity is the one check
    that fails, and the old segment walk refuses the tree too."""
    a2 = bp("2a")
    for steps, changes, details in (
        (((1, 1), (1, 0)), {"b_parent": {a2: bp("3b")}}, "2a hangs on 0a..3b, not on earlier TDs"),
        (
            ((1, 1),),
            {"a_parent": {a2: ROOT_A}, "b_parent": {a2: ROOT_B}, "major_side": {a2: A_SIDE}},
            "2a hangs on both roots but is major on 0a",
        ),
    ):
        broken = corrupt(build_2d_tree(WordEvolution(steps=steps)), **changes)
        report = validate_structure(broken)
        assert report == reference_validate_structure(broken)
        assert [(c.name, c.details) for c in report.failures()] == [
            ("segment-connectivity", details)
        ]
        assert old_segment_walk(broken)


def test_clean_report_lists_its_checks_in_order(ev_540):
    report = validate_structure(build_2d_tree(ev_540))
    assert report.ok
    assert [c.name for c in report.checks] == [
        "parental-edges",
        "rooted-majors",
        "minor-recency",
        "fences",
        "first-td-convention",
        "segment-connectivity",
    ]


def test_a_major_side_other_than_a_or_b_fails_parental_edges(ev_540):
    broken = corrupt(build_2d_tree(ev_540), major_side={bp("2a"): "x"})
    for validate, reference in (
        (validate_structure, reference_validate_structure),
        (validate_beta_tree, reference_validate_beta_tree),
    ):
        report = validate(broken)
        assert report == reference(broken)
        assert [(c.name, c.details) for c in report.failures()] == [
            ("parental-edges", "2a has major side 'x'")
        ]


def test_hasse_diagram_refuses_a_parent_outside_the_tree(ev_540):
    broken = corrupt(build_2d_tree(ev_540), a_parent={bp("2a"): bp("9a")})
    with pytest.raises(ValidationError, match="^2a has parents outside the tree$"):
        hasse_diagram(broken)


def test_major_graph_refuses_a_missing_major_parent(ev_540):
    broken = corrupt(build_2d_tree(ev_540))
    del broken.b_parent[bp("2a")]
    assert broken.major_side[bp("2a")] == B_SIDE
    message = "2a missing parental data"
    assert validate_structure(broken).failures()[0].details == message
    with pytest.raises(ValidationError, match=f"^{message}$"):
        major_graph(broken)


def test_validator_matches_reference_on_every_clean_tree_up_to_5():
    """Both references open with the same four double-tree checks, so the
    beta-tree report must be the head of the full one."""
    for n in range(1, 6):
        for ev in enumerate_word_evolutions(n):
            tree = build_2d_tree(ev)
            report = validate_structure(tree)
            assert report.ok and report == reference_validate_structure(tree), str(ev)
            assert validate_beta_tree(tree).checks == report.checks[:4], str(ev)


def test_long_evolution_past_the_interned_ids():
    """300 empty duplications: ids past the interned table, chains 300 deep."""
    ev = WordEvolution(steps=((1, 0),) * 299)
    tree = build_2d_tree(ev)
    assert BreakpointId(300, B_SIDE) in tree.major_side
    assert json.loads(tree_to_json(tree))["n"] == 300
    assert tree == reference_build_2d_tree(ev)[0]
    report = validate_structure(tree)
    assert report.ok and report == reference_validate_structure(tree)
    assert hasse_diagram(tree) == order_diagram(tree)


def test_hasse_diagram_refuses_exactly_the_cyclic_corruptions():
    """Among corruptions that pass the fence check, the order diagram is
    refused exactly where it has a cycle; where the fence check fails, it
    is refused first, with that check's error."""
    rng = random.Random(10)
    trees = [build_2d_tree(ev) for n in range(1, 5) for ev in enumerate_word_evolutions(n)]
    cyclic = fenced_off = 0
    for _ in range(500):
        tree = scrambled(rng.choice(trees), rng)
        details = reference_fence_failure(tree)
        if details:
            fenced_off += 1
            with pytest.raises(ValidationError) as exc:
                hasse_diagram(tree)
            assert str(exc.value) == details
            continue
        try:
            reference_reachability(order_diagram(tree))
        except CycleDetectedError:
            cyclic += 1
            with pytest.raises(CycleDetectedError):
                hasse_diagram(tree)
        else:
            assert hasse_diagram(tree) == order_diagram(tree)
    assert cyclic and fenced_off


def test_beta_validator_matches_reference_on_random_trees():
    rng = random.Random(9)
    for seed in range(200):
        tree = random_beta_tree(seed, 4 + seed % 13)
        assert validate_beta_tree(tree) == reference_validate_beta_tree(tree), seed
        broken = scrambled(tree, rng)
        assert validate_beta_tree(broken) == reference_validate_beta_tree(broken), seed


def _fence_reads(node, scope):
    """The scope of each read of ``fences`` below ``node`` off anything but
    a major graph, which the package always names ``graph``; ``scope`` is
    the dotted path of the enclosing classes and functions."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        elif (
            isinstance(child, ast.Attribute)
            and child.attr == "fences"
            and isinstance(child.ctx, ast.Load)
            and not (isinstance(child.value, ast.Name) and child.value.id == "graph")
        ):
            yield scope
        yield from _fence_reads(child, inner)


def test_only_the_fence_reader_reads_stored_fences():
    """In the package, a tree's stored fences are read by ``_fences`` only,
    which refuses a bad fence in the validators' words; every other
    reader takes its fences from it."""
    reads = set()
    for path in sorted(Path(tdspace.__file__).parent.glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))
        reads.update(_fence_reads(module, path.stem))
    assert reads == {"structure._fences"}
