"""Breakpoint trees, order diagrams, major graphs and their validators."""

import json
from dataclasses import replace

from tdspace import (
    A_SIDE,
    B_SIDE,
    ROOT_A,
    ROOT_B,
    BreakpointId,
    WordEvolution,
    build_2d_tree,
    enumerate_word_evolutions,
    hasse_diagram,
    hasse_to_dot,
    hasse_to_json,
    major_graph,
    major_to_dot,
    major_to_json,
    parse_breakpoint,
    reachability,
    tree_to_dot,
    tree_to_json,
    validate_structure,
    word_segments,
)


def bp(text):
    return parse_breakpoint(text)


def test_breakpoint_parsing_and_rendering():
    assert bp("3a") == BreakpointId(3, A_SIDE)
    assert str(BreakpointId(12, B_SIDE)) == "12b"
    assert bp("12b") == BreakpointId(12, B_SIDE)
    assert ROOT_A == BreakpointId(0, A_SIDE)


def test_word_segments_of_single_connection():
    # reading "1" leaves its two flank segments
    segs = [(str(x), str(y)) for x, y in word_segments((1,))]
    assert segs == [("0a", "1b"), ("1a", "0b")]


def test_first_td_tree():
    tree = build_2d_tree(WordEvolution(steps=()))
    assert tree.n == 1
    assert tree.a_parent[bp("1a")] == ROOT_A
    assert tree.b_parent[bp("1a")] == ROOT_B
    assert tree.major_side[bp("1a")] == B_SIDE
    assert tree.major_side[bp("1b")] == A_SIDE
    assert tree.fence_tds == frozenset({1})


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
    assert tree.fence_tds == frozenset({1})


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


def test_hasse_unique_source_and_sink():
    """0a reaches everything; everything reaches 0b."""
    for n in range(1, 4):
        for ev in enumerate_word_evolutions(n):
            diagram = hasse_diagram(build_2d_tree(ev))
            reach = reachability(diagram)
            everything = set(diagram.nodes)
            assert reach[ROOT_A] | {ROOT_A} == everything
            assert all(ROOT_B in reach[v] for v in everything - {ROOT_B})


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
    assert tree.minor_parent(bp("4a")) == bp("1b")
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


def test_fenced_tds_are_always_reversed():
    for n in range(1, 4):
        for ev in enumerate_word_evolutions(n):
            tree = build_2d_tree(ev)
            above = reachability(hasse_diagram(tree))
            for k in tree.fence_tds:
                ka, kb = BreakpointId(k, A_SIDE), BreakpointId(k, B_SIDE)
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
