"""Deletion calculus, two-tree rewrites, the kernel identity, totals."""

import random
import time

import pytest

from tdspace import (
    ROOT_A,
    ROOT_B,
    BetaTree,
    BreakpointId,
    BudgetExceededError,
    NotInducedError,
    ValidationError,
    WordEvolution,
    beta_from_td_tree,
    build_2d_tree,
    closed_form,
    contracted_count,
    count_extensions_formula,
    delete_first_td,
    enumerate_beta_subtrees,
    enumerate_word_evolutions,
    induced_evolutions,
    induced_major_graph,
    induced_tree,
    kernel_profile,
    major_graph,
    one_nodeset_of,
    parse_breakpoint,
    random_beta_tree,
    root_component_size,
    total_evolutions_via_words,
    tree_to_dot,
    two_tree_count,
    validate_beta_subtree,
    validate_beta_tree,
)
from tdspace.errors import Deadline

FIRST = WordEvolution(steps=())
EV_PRIME = WordEvolution(steps=((2, 1), (1, 2), (1, 1), (4, 5)))


def bp(text):
    return parse_breakpoint(text)


# ---------------------------------------------------------------------------
# deletion and fibers


def test_delete_first_td_worked_pair(ev_540):
    assert delete_first_td(EV_PRIME) == ev_540


def test_delete_requires_two_tds():
    with pytest.raises(ValidationError):
        delete_first_td(FIRST)


def test_fiber_of_the_first_word():
    fiber = sorted(tuple(e.steps) for e in induced_evolutions(FIRST))
    assert fiber == [((1, 0),), ((1, 1),), ((2, 1),)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fibers_partition_the_next_level(n):
    level = {tuple(ev.steps): ev for ev in enumerate_word_evolutions(n + 1)}
    seen = set()
    for base in enumerate_word_evolutions(n):
        for e2 in induced_evolutions(base):
            key = tuple(e2.steps)
            assert key in level
            assert key not in seen
            assert delete_first_td(e2) == base
            seen.add(key)
    assert seen == set(level)


def test_one_nodeset_worked_pair(ev_540):
    nodeset = one_nodeset_of(ev_540, EV_PRIME)
    assert {str(v) for v in nodeset} == {"1a", "1b", "2b", "3a", "4a", "4b"}


def test_one_nodeset_rejects_non_members(ev_540):
    stranger = WordEvolution(steps=((1, 1), (1, 1), (1, 1), (1, 1)))
    with pytest.raises(NotInducedError):
        one_nodeset_of(ev_540, stranger)


# ---------------------------------------------------------------------------
# the induced rewrite, two routes


def test_induced_major_graph_worked_pair(ev_540):
    tree = build_2d_tree(ev_540)
    graph = induced_major_graph(tree, one_nodeset_of(ev_540, EV_PRIME))
    assert {str(v): str(p) for v, p in graph.parent.items()} == {
        "1a": "0b",
        "1b": "0a",
        "2a": "1a",
        "2b": "1a",
        "3a": "1b",
        "3b": "2a",
        "4a": "1b",
        "4b": "2b",
        "5a": "2b",
        "5b": "3a",
    }
    assert {(str(x), str(y)) for x, y in graph.fences} == {("1a", "1b"), ("2a", "2b")}
    assert graph == major_graph(build_2d_tree(EV_PRIME))


@pytest.mark.parametrize("n", [1, 2])
def test_two_routes_agree_exhaustively(n):
    for base in enumerate_word_evolutions(n):
        tree = build_2d_tree(base)
        for e2 in induced_evolutions(base):
            rewritten = induced_major_graph(tree, one_nodeset_of(base, e2))
            assert rewritten == major_graph(build_2d_tree(e2)), (str(base), str(e2))


def test_nodesets_are_valid_subtrees():
    """Shifted down one TD, every one-nodeset obeys the subtree rules."""
    for base in enumerate_word_evolutions(2):
        beta = beta_from_td_tree(build_2d_tree(base))
        for e2 in induced_evolutions(base):
            tau = {
                BreakpointId(v.td - 1, v.side)
                for v in one_nodeset_of(base, e2)
            }
            validate_beta_subtree(beta, tau)


# ---------------------------------------------------------------------------
# beta trees and subtrees


def test_beta_view_of_breakpoint_trees_validates():
    for n in range(1, 4):
        for ev in enumerate_word_evolutions(n):
            tree = build_2d_tree(ev)
            beta = beta_from_td_tree(tree)
            assert validate_beta_tree(beta).ok
            assert {x.td for x, _ in beta.fences} == set(tree.fence_tds)


def test_subtrees_of_the_first_tree():
    beta = beta_from_td_tree(build_2d_tree(FIRST))
    taus = {frozenset(str(v) for v in tau) for tau in enumerate_beta_subtrees(beta)}
    roots = {"0a", "0b"}
    assert taus == {
        frozenset(roots | {"1a"}),
        frozenset(roots | {"1b"}),
        frozenset(roots | {"1a", "1b"}),
    }
    # the bare roots starve the fence of daughters
    with pytest.raises(ValidationError):
        validate_beta_subtree(beta, (ROOT_A, ROOT_B))


def test_subtree_rules_on_worked_tree(worked_beta_tree):
    assert len(enumerate_beta_subtrees(worked_beta_tree)) == 14
    validate_beta_subtree(worked_beta_tree, {ROOT_A, ROOT_B, bp("1a"), bp("2a")})
    with pytest.raises(ValidationError):  # parent missing
        validate_beta_subtree(worked_beta_tree, {ROOT_A, ROOT_B, bp("2a")})
    with pytest.raises(ValidationError):  # fence daughters all absent
        validate_beta_subtree(worked_beta_tree, (ROOT_A, ROOT_B))


def test_subtree_budget(worked_beta_tree):
    from tdspace import BudgetExceededError

    with pytest.raises(BudgetExceededError):
        enumerate_beta_subtrees(worked_beta_tree, budget=3)


# ---------------------------------------------------------------------------
# kernel identity


def test_kernel_on_worked_tree(worked_beta_tree):
    profile = kernel_profile(worked_beta_tree)
    assert [(c.r, c.lhs, c.rhs) for c in profile] == [(r, 18, 18) for r in range(1, 7)]


def test_kernel_contributions_at_r5(worked_beta_tree):
    """Two subtrees land five nodes under the first root: 6 + 12 = 18."""
    contributions = {}
    for tau in enumerate_beta_subtrees(worked_beta_tree):
        graph = induced_tree(worked_beta_tree, tau)
        r = root_component_size(graph)
        if r == 5:
            labels = frozenset(str(v) for v in tau)
            contributions[labels] = two_tree_count(graph).value
    assert contributions == {
        frozenset({"0a", "0b", "1a"}): 6,
        frozenset({"0a", "0b", "1a", "2a", "1b"}): 12,
    }


def test_kernel_on_first_tree():
    beta = beta_from_td_tree(build_2d_tree(FIRST))
    for check in kernel_profile(beta):
        assert (check.lhs, check.rhs) == (1, 1)


def test_kernel_on_evolution_trees():
    for n in range(1, 4):
        for ev in enumerate_word_evolutions(n):
            beta = beta_from_td_tree(build_2d_tree(ev))
            assert all(c.equal for c in kernel_profile(beta)), str(ev)


def test_contracted_count_of_empty_subtree(worked_beta_tree):
    graph = induced_tree(worked_beta_tree, (ROOT_A, ROOT_B))
    assert contracted_count(graph).value == 18


def test_skewed_minor_tree_is_rejected(skewed_minor_tree):
    report = validate_beta_tree(skewed_minor_tree)
    assert not report.ok
    assert [c.name for c in report.failures()] == ["minor-recency"]


def test_skewed_minor_tree_breaks_the_kernel(skewed_minor_tree):
    """The identity really needs the recency axiom, not just comparability."""
    profile = kernel_profile(skewed_minor_tree)
    assert not all(c.equal for c in profile)
    repaired = BetaTree(
        a_parent={**skewed_minor_tree.a_parent, bp("5b"): bp("3a")},
        b_parent=dict(skewed_minor_tree.b_parent),
        major_side=dict(skewed_minor_tree.major_side),
        fences=skewed_minor_tree.fences,
    )
    assert validate_beta_tree(repaired).ok
    assert all(c.equal for c in kernel_profile(repaired))


# ---------------------------------------------------------------------------
# random trees


def test_random_tree_reproducible():
    assert random_beta_tree(139, 9) == random_beta_tree(139, 9)
    assert random_beta_tree(139, 9) != random_beta_tree(140, 9)


def test_random_tree_sizes_and_validity():
    for seed in range(60):
        size = 4 + seed % 9
        tree = random_beta_tree(seed, size)
        assert len(tree.major_side) + 2 == size
        assert validate_beta_tree(tree).ok, seed


def test_random_tree_kernel_sweep():
    for seed in range(60, 120):
        tree = random_beta_tree(seed, 4 + seed % 9)
        assert all(c.equal for c in kernel_profile(tree)), seed


def test_random_tree_fence_rate_extremes():
    assert random_beta_tree(5, 11, fence_rate=0.0).fences == frozenset()
    fenced = random_beta_tree(5, 12, fence_rate=1.0)
    assert len(fenced.fences) == 5
    with pytest.raises(ValidationError):
        random_beta_tree(0, 1)


# ---------------------------------------------------------------------------
# totals


def test_closed_form_values():
    values = [closed_form(n) for n in range(7)]
    assert values == [1, 1, 11, 627, 154869, 156882297, 640550418651]
    with pytest.raises(ValidationError):
        closed_form(-1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_totals_match_closed_form(n):
    assert total_evolutions_via_words(n) == closed_form(n)


def test_totals_worker_partition_is_exact():
    assert total_evolutions_via_words(4, workers=2) == closed_form(4)


@pytest.mark.parametrize("workers", [1, 2])
def test_totals_stop_at_the_deadline(workers):
    start = time.monotonic()
    with pytest.raises(BudgetExceededError, match="time limit"):
        total_evolutions_via_words(5, workers=workers, deadline=Deadline(0.05))
    assert time.monotonic() - start < 1
    assert total_evolutions_via_words(3, workers=workers, deadline=Deadline(None)) == 627


def test_fiber_sums_follow_the_recurrence():
    for n in (1, 2):
        factor = 4 ** (n + 1) - (2 * (n + 1) + 1)
        for base in enumerate_word_evolutions(n):
            base_count = count_extensions_formula(major_graph(build_2d_tree(base))).value
            fiber_sum = sum(
                count_extensions_formula(major_graph(build_2d_tree(e2))).value
                for e2 in induced_evolutions(base)
            )
            assert fiber_sum == base_count * factor


# ---------------------------------------------------------------------------
# serialization


def test_beta_dot(worked_beta_tree):
    dot = tree_to_dot(worked_beta_tree)
    assert dot.startswith("digraph")
    assert '"2a"' in dot


# ---------------------------------------------------------------------------
# seeded end-to-end property


def test_random_fiber_members_roundtrip():
    rng = random.Random(11)
    level = list(enumerate_word_evolutions(4))
    for e2 in rng.sample(level, 30):
        base = delete_first_td(e2)
        fiber_keys = {tuple(e.steps) for e in induced_evolutions(base)}
        assert tuple(e2.steps) in fiber_keys
        nodeset = one_nodeset_of(base, e2)
        assert bp("1a") in nodeset and bp("1b") in nodeset
