"""Extension counting: closed form, factor traces, and the DP oracle."""

import random
import re

import pytest

from tdspace import (
    B_SIDE,
    BreakpointId,
    BudgetExceededError,
    CycleDetectedError,
    HasseDiagram,
    MajorGraph,
    MalformedGraphError,
    ValidationError,
    WordEvolution,
    build_2d_tree,
    count_extensions_bruteforce,
    count_extensions_formula,
    enumerate_word_evolutions,
    hasse_diagram,
    major_graph,
    multinomial,
    parse_breakpoint,
    word_to_text,
)
from tdspace.extensions import BRUTEFORCE_NODE_BUDGET


def count_of(ev: WordEvolution):
    return count_extensions_formula(major_graph(build_2d_tree(ev)))


def test_multinomial():
    assert multinomial([3, 2]) == 10
    assert multinomial([1, 1, 1]) == 6
    assert multinomial([4]) == 1
    assert multinomial([]) == 1


def test_worked_example_540(ev_540):
    result = count_of(ev_540)
    assert result.value == 540
    assert result.factor_trace == (
        ("fence(1)", 27),
        ("fence(3)", 2),
        ("node(1b)", 10),
    )
    assert result.trace_text() == "27 * 2 * 10 = 540"


def test_first_evolution_has_single_extension():
    result = count_of(WordEvolution(steps=()))
    assert result.value == 1
    assert result.factor_trace == ()
    assert result.trace_text() == "1 = 1"


def test_level_two_counts():
    by_word = {
        word_to_text(ev.terminal_word): count_of(ev).value
        for ev in enumerate_word_evolutions(2)
    }
    assert by_word == {"121": 5, "12": 3, "21": 3}
    assert sum(by_word.values()) == 11


def test_formula_matches_oracle_small_levels():
    for n in range(1, 4):
        for ev in enumerate_word_evolutions(n):
            tree = build_2d_tree(ev)
            formula = count_extensions_formula(major_graph(tree)).value
            oracle = count_extensions_bruteforce(hasse_diagram(tree))
            assert formula == oracle, str(ev)


def test_formula_matches_oracle_sampled_level_four():
    rng = random.Random(7)
    level = list(enumerate_word_evolutions(4))
    for ev in rng.sample(level, 40):
        tree = build_2d_tree(ev)
        assert count_extensions_formula(major_graph(tree)).value == (
            count_extensions_bruteforce(hasse_diagram(tree))
        )


def test_bruteforce_budget(ev_540):
    diagram = hasse_diagram(build_2d_tree(ev_540))
    with pytest.raises(BudgetExceededError):
        count_extensions_bruteforce(diagram, budget=3)


@pytest.mark.parametrize("budget", [0, -1])
def test_bruteforce_budget_below_one_is_refused_before_any_work(ev_540, budget):
    """Even a diagram that the budget would otherwise pass, or one with a
    cycle, is refused for its budget first."""
    diagram = hasse_diagram(build_2d_tree(ev_540))
    a, b = diagram.nodes[2:4]
    cyclic = HasseDiagram(nodes=diagram.nodes, edges=diagram.edges | {(a, b), (b, a)})
    for d in (diagram, cyclic):
        with pytest.raises(ValidationError, match=f"^need budget >= 1, got {budget}$"):
            count_extensions_bruteforce(d, budget=budget)


def reference_count_extensions_bruteforce(diagram, budget=BRUTEFORCE_NODE_BUDGET):
    """The memoised recursion: peel each maximal element off a down-set."""
    nodes = sorted(diagram.nodes)
    if len(nodes) > budget:
        raise BudgetExceededError(
            f"{len(nodes)} nodes exceed the brute-force budget of {budget}"
        )
    index = {v: i for i, v in enumerate(nodes)}
    succ_mask = [0] * len(nodes)
    for u, v in diagram.edges:
        succ_mask[index[u]] |= 1 << index[v]
    memo = {0: 1}

    def count(placed):
        cached = memo.get(placed)
        if cached is not None:
            return cached
        total = 0
        rest = placed
        while rest:
            bit = rest & -rest
            rest ^= bit
            if succ_mask[bit.bit_length() - 1] & placed == 0:
                total += count(placed ^ bit)
        memo[placed] = total
        return total

    return count((1 << len(nodes)) - 1)


def test_oracle_matches_reference_on_every_diagram_up_to_4():
    for n in range(1, 5):
        for ev in enumerate_word_evolutions(n):
            diagram = hasse_diagram(build_2d_tree(ev))
            assert count_extensions_bruteforce(diagram) == (
                reference_count_extensions_bruteforce(diagram)
            ), str(ev)


@pytest.mark.parametrize("n", range(5, 11))
def test_oracle_matches_reference_on_seeded_evolutions(n, random_evolution):
    for seed in (300 * n, 300 * n + 1):
        diagram = hasse_diagram(build_2d_tree(random_evolution(n, seed)))
        assert count_extensions_bruteforce(diagram) == (
            reference_count_extensions_bruteforce(diagram)
        ), seed


def test_oracle_refuses_a_cycle(ev_540):
    """A cycle leaves some level of down-sets empty; the reference, which
    tries every permutation, finds no extension either."""
    diagram = hasse_diagram(build_2d_tree(ev_540))
    top, bottom = diagram.nodes[:2]
    looped = HasseDiagram(nodes=diagram.nodes, edges=diagram.edges | {(bottom, top)})
    with pytest.raises(CycleDetectedError, match="^order diagram contains a directed cycle$"):
        count_extensions_bruteforce(looped)
    assert reference_count_extensions_bruteforce(looped) == 0


def test_oracle_refuses_a_cycle_through_every_node():
    """With no minimal element the first level is already empty."""
    one, two, three = map(parse_breakpoint, ("1a", "2a", "3a"))
    edges = frozenset({(one, two), (two, three), (three, one)})
    ring = HasseDiagram(nodes=(one, two, three), edges=edges)
    with pytest.raises(CycleDetectedError, match="^order diagram contains a directed cycle$"):
        count_extensions_bruteforce(ring)


def test_oracle_refuses_a_node_listed_twice():
    one, two = parse_breakpoint("1a"), parse_breakpoint("2a")
    doubled = HasseDiagram(nodes=(one, two, one), edges=frozenset())
    with pytest.raises(MalformedGraphError, match="^a node is listed twice among the diagram's nodes$"):
        count_extensions_bruteforce(doubled)


def test_oracle_refuses_an_edge_off_the_diagram(ev_540):
    diagram = hasse_diagram(build_2d_tree(ev_540))
    outside = BreakpointId(9, B_SIDE)
    stray = HasseDiagram(nodes=diagram.nodes, edges=diagram.edges | {(diagram.nodes[0], outside)})
    with pytest.raises(MalformedGraphError, match="^edge at 9b, outside the diagram's nodes$"):
        count_extensions_bruteforce(stray)


@pytest.mark.parametrize(
    "parent, fences, message",
    [
        ({"1a": "9a", "1b": "0a", "2b": "0a"}, [], "parent of 1a is outside the graph"),
        ({"1a": "1b", "1b": "1a", "2b": "0a"}, [], "parent edges do not form a forest"),
        (
            {"1a": "0a", "1b": "0a", "2b": "0a"},
            [("1a", "1b"), ("1a", "2b")],
            "node in two fences near 1a|2b",
        ),
    ],
)
def test_formula_refuses_a_malformed_forest(parent, fences, message):
    bp = parse_breakpoint
    graph = MajorGraph(
        parent={bp(v): bp(p) for v, p in parent.items()},
        fences=frozenset((bp(x), bp(y)) for x, y in fences),
    )
    with pytest.raises(MalformedGraphError, match=f"^{re.escape(message)}$"):
        count_extensions_formula(graph)
