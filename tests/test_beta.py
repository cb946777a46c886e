"""Deletion calculus, two-tree rewrites, the kernel identity, totals."""

import gc
import hashlib
import random
import re
import sys
import time
from collections import Counter
from dataclasses import replace

import pytest

import tdspace.beta as beta_module
from tdspace import (
    A_SIDE,
    B_SIDE,
    ROOT_A,
    ROOT_B,
    BetaTree,
    BreakpointId,
    BudgetExceededError,
    KernelCheck,
    MalformedGraphError,
    NotInducedError,
    ValidationError,
    WordEvolution,
    build_2d_tree,
    closed_form,
    contracted_count,
    count_extensions_bruteforce,
    count_extensions_formula,
    delete_first_td,
    enumerate_beta_subtrees,
    enumerate_word_evolutions,
    hasse_diagram,
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
    tree_to_json,
    two_tree_count,
    validate_beta_tree,
    validate_structure,
)
from tdspace.beta import (
    FENCE_RATE,
    SUBTREE_NODE_BUDGET,
    _FIRST_STATE,
    _hook_count,
    _hook_step,
)
from tdspace.errors import Deadline
from tdspace.structure import _topological
from tdspace.words import (
    DEFAULT_MAX_N,
    FIRST_WORD,
    _derive,
    _evolution_unchecked,
    choices_for,
    td_step,
)

FIRST = WordEvolution(steps=())
EV_PRIME = WordEvolution(steps=((2, 1), (1, 2), (1, 1), (4, 5)))


def bp(text):
    return parse_breakpoint(text)


def validate_beta_subtree(tree, tau):
    """Raise unless ``tau`` satisfies the subtree closure and fence rules."""
    chosen = frozenset(tau)
    if not chosen >= {ROOT_A, ROOT_B}:
        raise ValidationError("both roots belong to every beta subtree")
    for v in chosen:
        if v.td == 0:
            continue
        if v not in tree.major_side:
            raise ValidationError(f"{v} is not a node of the tree")
        if tree.a_parent[v] not in chosen or tree.b_parent[v] not in chosen:
            raise ValidationError(f"{v} is in the subtree but a parent is not")
    for x, y in tree.fences:
        if {x, y} == {ROOT_A, ROOT_B}:
            continue
        if (
            tree.a_parent[x] in chosen
            and tree.b_parent[x] in chosen
            and x not in chosen
            and y not in chosen
        ):
            raise ValidationError(f"fence {x}|{y} has both parents chosen but no member")


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


def reference_delete_first_td(ev):
    """The symbol search: strip every word, then find each step from where
    its new symbol lands and how much the word grew."""
    if ev.n < 2:
        raise ValidationError("need at least two TDs to delete the first one")
    shifted = [tuple(c - 1 for c in w if c != 1) for w in ev.words[1:]]
    steps = []
    for j in range(1, len(shifted)):
        before, after = shifted[j - 1], shifted[j]
        p = after.index(j + 1) + 1
        dup_len = len(after) - len(before) - 1
        steps.append((p - dup_len, p - 1))
    out = WordEvolution(steps=tuple(steps))
    assert out.words == tuple(shifted)
    return out


def test_deletion_rule_matches_reference():
    evolutions = [ev for n in range(2, 5) for ev in enumerate_word_evolutions(n)]
    assert len(evolutions) == 3 + 22 + 377
    for ev in evolutions:
        assert delete_first_td(ev) == reference_delete_first_td(ev), str(ev)


def test_deletion_keeps_the_consistency_check():
    """An evolution whose words do not follow its steps fails the replay."""
    last = (1, 4, 1, 2, 3, 5, 3, 2, 1, 2)  # the true last word with one pair swapped
    # the public constructor refuses such words; only the internal one takes them
    forged = _evolution_unchecked(EV_PRIME.steps, EV_PRIME.words[:-1] + (last,))
    with pytest.raises(ValidationError, match="inconsistent evolution"):
        delete_first_td(forged)


def reference_induced_evolutions(ev, max_n=DEFAULT_MAX_N):
    """The filter-based fiber search: try every choice at every depth and
    keep those whose new word strips back to the base word."""
    target_n = ev.n + 1
    if target_n > max_n:
        raise BudgetExceededError(f"inducing {target_n} TDs exceeds the budget of {max_n}")
    results, steps, words = [], [], [(1,)]

    def walk(depth):
        if depth == target_n:
            results.append(_evolution_unchecked(tuple(steps), tuple(words)))
            return
        current = words[-1]
        for choice in choices_for(current):
            grown = td_step(current, choice, depth + 1)
            if tuple(c - 1 for c in grown if c != 1) == ev.words[depth - 1]:
                steps.append(choice)
                words.append(grown)
                walk(depth + 1)
                words.pop()
                steps.pop()

    walk(1)
    return results


def test_fibers_match_reference():
    """Same members in the same order over every base with n <= 3 and
    every fourth base at n = 4."""
    bases = [ev for n in range(1, 4) for ev in enumerate_word_evolutions(n)]
    bases += list(enumerate_word_evolutions(4))[::4]
    for base in bases:
        assert induced_evolutions(base) == reference_induced_evolutions(base), str(base)


def test_fiber_keeps_the_budget_error(ev_540):
    errors = []
    for search in (induced_evolutions, reference_induced_evolutions):
        with pytest.raises(BudgetExceededError) as exc:
            search(ev_540, max_n=4)
        errors.append(str(exc.value))
    assert errors == ["inducing 5 TDs exceeds the budget of 4"] * 2


def test_one_nodeset_worked_pair(ev_540):
    nodeset = one_nodeset_of(ev_540, EV_PRIME)
    assert {str(v) for v in nodeset} == {"1a", "1b", "2b", "3a", "4a", "4b"}


def test_one_nodeset_rejects_non_members(ev_540):
    stranger = WordEvolution(steps=((1, 1), (1, 1), (1, 1), (1, 1)))
    with pytest.raises(NotInducedError):
        one_nodeset_of(ev_540, stranger)


def test_one_nodeset_rejects_exactly_the_non_members():
    """Rejection by stripped words agrees with full deletion on every
    pair of an n = 3 base and an n = 4 evolution, and on lengths."""
    level = list(enumerate_word_evolutions(4))
    reduced = {ev.steps: delete_first_td(ev).words for ev in level}
    accepted = 0
    for base in enumerate_word_evolutions(3):
        for ev in level:
            if reduced[ev.steps] == base.words:
                one_nodeset_of(base, ev)
                accepted += 1
                continue
            with pytest.raises(NotInducedError, match="does not reduce to the first"):
                one_nodeset_of(base, ev)
        with pytest.raises(NotInducedError, match="does not reduce to the first"):
            one_nodeset_of(base, base)
    assert accepted == 377


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
        beta = build_2d_tree(base)
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
            assert validate_beta_tree(tree).ok
            assert all(x.td == y.td for x, y in tree.fences)


def test_subtrees_of_the_first_tree():
    beta = build_2d_tree(FIRST)
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


def brute_force_subtrees(tree):
    """Every node subset with the roots, kept when it is closed under both
    parents and keeps the fence rule."""
    nodes = sorted(tree.major_side)
    found = set()
    for mask in range(1 << len(nodes)):
        tau = {ROOT_A, ROOT_B} | {v for i, v in enumerate(nodes) if mask >> i & 1}
        try:
            validate_beta_subtree(tree, tau)
        except ValidationError:
            continue
        found.add(frozenset(tau))
    return found


def test_subtrees_match_brute_force():
    trees = [build_2d_tree(ev) for n in range(1, 4) for ev in enumerate_word_evolutions(n)]
    trees += [random_beta_tree(seed, 4 + seed % 7, (0, 0.35, 1)[seed % 3]) for seed in range(150)]
    for tree in trees:
        listed = enumerate_beta_subtrees(tree)
        assert len(set(listed)) == len(listed)
        assert set(listed) == brute_force_subtrees(tree), tree


def reference_subtrees(tree, budget=SUBTREE_NODE_BUDGET):
    """The dict-and-set walk: include/exclude every node in closure order
    on sets of ids, and test every fence only at the leaf."""
    if len(tree.nodes) > budget:
        raise BudgetExceededError(
            f"{len(tree.nodes)} nodes exceed the subtree budget of {budget}"
        )
    nodes = tree.nodes
    index = dict(zip(nodes, range(len(nodes))))
    succ = [[] for _ in nodes]
    for i in range(2, len(nodes)):
        for p in (tree.a_parent[nodes[i]], tree.b_parent[nodes[i]]):
            succ[index.get(p, i)].append(i)
    order = _topological(succ)
    if len(order) < len(nodes):
        raise ValidationError("parental edges contain a cycle")
    order = [nodes[i] for i in order[2:]]
    fences = [f for f in tree.fences if {f[0], f[1]} != {ROOT_A, ROOT_B}]
    results = []
    chosen = {ROOT_A, ROOT_B}

    def admissible():
        return all(
            not (
                tree.a_parent[x] in chosen
                and tree.b_parent[x] in chosen
                and x not in chosen
                and y not in chosen
            )
            for x, y in fences
        )

    def walk(i):
        if i == len(order):
            if admissible():
                results.append(frozenset(chosen))
            return
        v = order[i]
        walk(i + 1)
        if tree.a_parent[v] in chosen and tree.b_parent[v] in chosen:
            chosen.add(v)
            walk(i + 1)
            chosen.remove(v)

    walk(0)
    return results


def test_subtree_lists_are_pinned():
    """The ordered subtree lists of every evolution tree with n <= 4 and
    600 seeded trees of 4..14 nodes: equal to the reference walk's, and
    pinned by a sha256 taken before the walk was shared with
    ``kernel_profile``."""
    trees = [build_2d_tree(ev) for n in range(1, 5) for ev in enumerate_word_evolutions(n)]
    trees += [
        random_beta_tree(seed, 4 + seed % 11, rate)
        for rate in (0, 0.35, 1)
        for seed in range(200)
    ]
    digest, count = hashlib.sha256(), 0
    for tree in trees:
        listed = enumerate_beta_subtrees(tree)
        assert listed == reference_subtrees(tree), tree
        for tau in listed:
            digest.update(repr(sorted(map(str, tau))).encode())
        digest.update(b";")
        count += len(listed)
    assert count == 80042
    assert digest.hexdigest() == (
        "7f1034d867d40dc65aed2282c331ebcf05a34491d8113335ab7cfaa0faf68848"
    )


def test_broken_parental_edges_raise_one_error(worked_beta_tree):
    """A cycle, on a minor or a major edge, stops both readers of the
    subtree walk with one error; so do a parent outside the tree and a
    node missing a parent, in the words of the validator, and the last
    stops :func:`induced_tree` too."""

    def rewired(a_parent=None, b_parent=None, major_side=None):
        t = worked_beta_tree
        return BetaTree(
            a_parent={**t.a_parent, **(a_parent or {})},
            b_parent={**t.b_parent, **(b_parent or {})},
            major_side={**t.major_side, **(major_side or {})},
            fences=t.fences,
        )

    minor_cycle = rewired(b_parent={bp("1b"): bp("2b")})
    minor_outside = rewired(b_parent={bp("2a"): bp("9b")})
    major_cycle = rewired(a_parent={bp("1a"): bp("2a")}, major_side={bp("1a"): A_SIDE})
    major_outside = rewired(a_parent={bp("2a"): bp("9a")})
    for tree in (minor_cycle, major_cycle):
        with pytest.raises(ValidationError, match="^parental edges contain a cycle$"):
            enumerate_beta_subtrees(tree)
        with pytest.raises(ValidationError, match="^parental edges contain a cycle$"):
            kernel_profile(tree)
    message = "2a has parents outside the tree"
    for tree in (minor_outside, major_outside):
        assert validate_beta_tree(tree).failures()[0].details == message
        for walk in (enumerate_beta_subtrees, kernel_profile):
            with pytest.raises(ValidationError, match=f"^{message}$"):
                walk(tree)

    # a node without one of its parents, through the walks and the rewrite
    message = "2a missing parental data"
    for side in ("a_parent", "b_parent"):
        t = worked_beta_tree
        parents = {k: v for k, v in getattr(t, side).items() if k != bp("2a")}
        orphan = BetaTree(**{**vars(t), side: parents})
        assert validate_beta_tree(orphan).failures()[0].details == message
        for walk in (
            enumerate_beta_subtrees,
            kernel_profile,
            lambda tree: induced_tree(tree, (ROOT_A, ROOT_B)),
            lambda tree: induced_tree(tree, (ROOT_A, ROOT_B, bp("2a"))),
        ):
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                walk(orphan)


def copied(tree):
    """``tree`` with its three dicts copied, ready to break."""
    return replace(
        tree,
        a_parent=dict(tree.a_parent),
        b_parent=dict(tree.b_parent),
        major_side=dict(tree.major_side),
    )


#: One defect each, at node 2a.
PARENTAL_DEFECTS = {
    "missing a-parent": lambda t: t.a_parent.pop(bp("2a")),
    "missing b-parent": lambda t: t.b_parent.pop(bp("2a")),
    "major side x": lambda t: t.major_side.update({bp("2a"): "x"}),
    "mistyped parent": lambda t: t.a_parent.update({bp("2a"): bp("2b")}),
    "parent outside": lambda t: t.a_parent.update({bp("2a"): bp("9a")}),
}

PARENTAL_READERS = {
    "major_graph": major_graph,
    "hasse_diagram": hasse_diagram,
    "tree_to_dot": tree_to_dot,
    "tree_to_json": tree_to_json,
    "kernel_profile": kernel_profile,
    "enumerate_beta_subtrees": enumerate_beta_subtrees,
    "induced_tree": lambda tree: induced_tree(tree, (ROOT_A, ROOT_B)),
}


@pytest.mark.parametrize("defect", sorted(PARENTAL_DEFECTS))
@pytest.mark.parametrize("reader", sorted(PARENTAL_READERS))
def test_every_reader_refuses_bad_parents_in_the_validators_words(
    reader, defect, ev_540, worked_beta_tree
):
    """On the 540 tree (2a major on b) and the worked beta tree (2a major
    on a), each reader raises the validator's first failure."""
    for tree in (build_2d_tree(ev_540), worked_beta_tree):
        broken = copied(tree)
        PARENTAL_DEFECTS[defect](broken)
        message = validate_beta_tree(broken).failures()[0].details
        assert message.startswith("2a ")
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            PARENTAL_READERS[reader](broken)


#: A fence that is not a pair, in place of the root fence 1a|1b.
NON_PAIR_FENCES = {"one node": ("1a",), "three nodes": ("1a", "1b", "1a")}


@pytest.mark.parametrize("spelling", sorted(NON_PAIR_FENCES))
@pytest.mark.parametrize("reader", sorted(PARENTAL_READERS))
def test_every_reader_refuses_a_fence_that_is_not_a_pair(
    reader, spelling, ev_540, worked_beta_tree
):
    """Each reader once unpacked such a fence itself and raised a bare
    ``ValueError``; now each raises the fence check's error."""
    fence = tuple(map(bp, NON_PAIR_FENCES[spelling]))
    message = f"fence {'|'.join(NON_PAIR_FENCES[spelling])} is not a pair of nodes"
    for tree in (build_2d_tree(ev_540), worked_beta_tree):
        broken = replace(tree, fences=tree.fences - {(bp("1a"), bp("1b"))} | {fence})
        failures = validate_beta_tree(broken).failures()
        assert [(c.name, c.details) for c in failures] == [("fences", message)]
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            PARENTAL_READERS[reader](broken)


#: Each root keyed as a node: alone, and beside the 540 tree's nodes.
ROOTS_AS_NODES = {
    "0a alone": (lambda _tree: BetaTree(
        {ROOT_A: ROOT_A}, {ROOT_A: ROOT_B}, {ROOT_A: A_SIDE}, frozenset()
    ), "0a"),
    "0b in the 540 tree": (lambda tree: replace(
        tree,
        a_parent={**tree.a_parent, ROOT_B: ROOT_A},
        b_parent={**tree.b_parent, ROOT_B: ROOT_B},
        major_side={**tree.major_side, ROOT_B: B_SIDE},
    ), "0b"),
}


@pytest.mark.parametrize("case", sorted(ROOTS_AS_NODES))
@pytest.mark.parametrize("reader", sorted(PARENTAL_READERS))
def test_every_reader_refuses_a_root_given_parents(reader, case, ev_540):
    """A root keyed as a node once passed parental-edges: ``major_graph``
    hung 0a on itself, ``tree_to_json`` listed 0a twice and
    ``hasse_diagram`` raised ``MalformedGraphError``."""
    make, root = ROOTS_AS_NODES[case]
    broken = make(build_2d_tree(ev_540))
    message = f"root {root} has parental data"
    failures = validate_beta_tree(broken).failures()
    assert [(c.name, c.details) for c in failures] == [("parental-edges", message)]
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        PARENTAL_READERS[reader](broken)


def test_both_routes_refuse_a_fence_off_shared_parents(ev_540):
    """With TD 2 of the 540 tree fenced, though its breakpoints sit on
    different segments, the oracle once counted 705 and the formula raised
    ``MalformedGraphError``; both now raise the fence check's error."""
    tree = build_2d_tree(ev_540)
    broken = replace(tree, fences=tree.fences | {(bp("2a"), bp("2b"))})
    message = "fence 2a|2b does not share both parents"
    assert validate_structure(broken).failures()[-1].details == message
    for count in (
        lambda t: count_extensions_bruteforce(hasse_diagram(t)),
        lambda t: count_extensions_formula(major_graph(t)).value,
    ):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            count(broken)


def test_the_oracle_counts_no_tree_missing_a_parent(ev_540):
    """The order diagram once dropped a missing parent's edge without a
    word, and the oracle counted 700 without 1a's a-parent and 1,660
    without 1b's b-parent; both count routes now refuse such trees."""
    for side, node in (("a_parent", "1a"), ("b_parent", "1b")):
        broken = copied(build_2d_tree(ev_540))
        getattr(broken, side).pop(bp(node))
        for count in (
            lambda t: count_extensions_bruteforce(hasse_diagram(t)),
            lambda t: count_extensions_formula(major_graph(t)).value,
        ):
            with pytest.raises(ValidationError, match=f"^{node} missing parental data$"):
                count(broken)


@pytest.mark.parametrize(
    "tau, message",
    [
        ((ROOT_A, "2b"), "both roots belong to every beta subtree"),
        ((ROOT_A, ROOT_B, "2b"), "2b is in the subtree but a parent is not"),
        ((ROOT_A, ROOT_B, "9a"), "9a is not a node of the tree"),
    ],
)
def test_induced_tree_refuses_a_subset_that_is_no_subtree(worked_beta_tree, tau, message):
    tau = [bp(v) if isinstance(v, str) else v for v in tau]
    with pytest.raises(ValidationError, match=f"^{message}$"):
        induced_tree(worked_beta_tree, tau)


@pytest.mark.parametrize(
    "nodeset, message",
    [
        (("1a", "2b"), "a one-nodeset always contains both breakpoints of 1"),
        (("1a", "1b", "6a"), "nodeset labels outside 1..5"),
    ],
)
def test_induced_major_graph_refuses_a_malformed_nodeset(ev_540, nodeset, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        induced_major_graph(build_2d_tree(ev_540), map(bp, nodeset))


def test_subtree_budget(worked_beta_tree):
    from tdspace import BudgetExceededError

    with pytest.raises(BudgetExceededError):
        enumerate_beta_subtrees(worked_beta_tree, budget=3)


@pytest.mark.parametrize(
    "budget, message",
    [
        (None, "need a whole number of nodes, got None"),
        (0, "need budget >= 1, got 0"),
        (-1, "need budget >= 1, got -1"),
    ],
)
@pytest.mark.parametrize("sweep", [enumerate_beta_subtrees, kernel_profile])
def test_subtree_budget_out_of_range_is_refused_before_any_work(sweep, budget, message):
    """Checked before the tree is read: a tree with a parental cycle
    would fail later, with another message.  ``tests/test_api.py`` tries
    the other values that are not whole numbers."""
    a1, b1 = bp("1a"), bp("1b")
    cyclic = BetaTree(
        a_parent={a1: ROOT_A, b1: a1},
        b_parent={a1: b1, b1: ROOT_B},
        major_side={a1: A_SIDE, b1: B_SIDE},
        fences=frozenset(),
    )
    with pytest.raises(ValidationError, match="^parental edges contain a cycle$"):
        sweep(cyclic)
    for tree in (cyclic, random_beta_tree(1, 6)):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            sweep(tree, budget)


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
    beta = build_2d_tree(FIRST)
    for check in kernel_profile(beta):
        assert (check.lhs, check.rhs) == (1, 1)


def test_kernel_on_evolution_trees():
    for n in range(1, 4):
        for ev in enumerate_word_evolutions(n):
            beta = build_2d_tree(ev)
            assert all(c.equal for c in kernel_profile(beta)), str(ev)


def reference_kernel_profile(tree, budget=SUBTREE_NODE_BUDGET):
    """The kernel sums one materialised subtree at a time: enumerate by
    the reference walk, rewrite, measure root A's component and count
    the rewrite."""
    rhs = contracted_count(induced_tree(tree, (ROOT_A, ROOT_B))).value
    sums = {}
    for tau in reference_subtrees(tree, budget=budget):
        graph = induced_tree(tree, tau)
        r = root_component_size(graph)
        sums[r] = sums.get(r, 0) + two_tree_count(graph).value
    return tuple(KernelCheck(r=r, lhs=sums.get(r, 0), rhs=rhs) for r in range(1, len(tree.nodes)))


def test_kernel_walk_matches_reference_on_evolution_trees():
    trees = [build_2d_tree(ev) for n in range(1, 5) for ev in enumerate_word_evolutions(n)]
    assert len(trees) == 403
    for tree in trees:
        assert kernel_profile(tree) == reference_kernel_profile(tree), tree


def test_kernel_walk_matches_reference_on_fixtures(worked_beta_tree, skewed_minor_tree):
    for tree in (worked_beta_tree, skewed_minor_tree):
        assert kernel_profile(tree) == reference_kernel_profile(tree)


def test_kernel_walk_matches_reference_on_random_trees():
    for seed in range(1000, 1100):
        tree = random_beta_tree(seed, 4 + seed % 9)
        assert kernel_profile(tree) == reference_kernel_profile(tree), seed
    # 13..16 nodes, the top of the kernel-sweep benchmark's range
    for rate in (0, 1):
        for size in range(13, 17):
            for seed in range(5):
                tree = random_beta_tree(seed, size, rate)
                assert kernel_profile(tree) == reference_kernel_profile(tree), (rate, size, seed)


def test_kernel_walk_keeps_the_budget_error(worked_beta_tree):
    errors = []
    for profile in (kernel_profile, reference_kernel_profile):
        with pytest.raises(BudgetExceededError) as exc:
            profile(worked_beta_tree, budget=5)
        errors.append(str(exc.value))
    assert errors == ["7 nodes exceed the subtree budget of 5"] * 2


def test_kernel_profile_reads_its_tree_once(monkeypatch, worked_beta_tree):
    """The walk reads the rows and fences, and the ``rhs`` is valued on
    the same rows: one :func:`_edges` and one :func:`_fences` per call."""
    calls = Counter()

    def counted(name, read):
        def wrapper(tree):
            calls[name] += 1
            return read(tree)

        monkeypatch.setattr(beta_module, name, wrapper)

    counted("_edges", beta_module._edges)
    counted("_fences", beta_module._fences)
    for tree in (worked_beta_tree, random_beta_tree(3, 12), random_beta_tree(4, 2)):
        calls.clear()
        kernel_profile(tree)
        assert calls == {"_edges": 1, "_fences": 1}, tree


def test_kernel_walk_keeps_the_malformed_fence_error():
    """The fence 2a|2b passes the fence check, as both nodes hang on
    (1a, 1b), but 2a is major on 1a and 2b on 1b, which only minor-recency
    refuses; once 1a or 1b is out, the two hang from different parents."""
    a1, b1, a2, b2 = map(bp, ("1a", "1b", "2a", "2b"))
    corrupt = BetaTree(
        a_parent={a1: ROOT_A, b1: ROOT_A, a2: a1, b2: a1},
        b_parent={a1: ROOT_B, b1: ROOT_B, a2: b1, b2: b1},
        major_side={a1: B_SIDE, b1: A_SIDE, a2: A_SIDE, b2: B_SIDE},
        fences=frozenset({(a1, b1), (a2, b2)}),
    )
    assert [c.name for c in validate_beta_tree(corrupt).failures()] == ["minor-recency"]
    errors = []
    for profile in (kernel_profile, reference_kernel_profile):
        with pytest.raises(MalformedGraphError) as exc:
            profile(corrupt)
        errors.append(str(exc.value))
    assert errors == ["fence 2a|2b does not bridge siblings or roots"] * 2


def major_flipped(tree, rng):
    """``tree`` with the major sides of one or two seeded nodes flipped."""
    major_side = dict(tree.major_side)
    for v in rng.sample(sorted(major_side), min(len(major_side), rng.choice((1, 2)))):
        major_side[v] = A_SIDE if major_side[v] == B_SIDE else B_SIDE
    return replace(tree, major_side=major_side)


def test_the_kernel_walk_meets_no_fence_the_rhs_lets_through():
    """On seeded random trees at fence rates 0.35 and 1 with flipped major
    sides: wherever some subtree's rewrite has a fence that bridges no
    siblings, or ``kernel_profile`` raises, the ``rhs`` count raises the
    same :class:`MalformedGraphError` first."""
    raised = 0
    for rate in (0.35, 1):
        for seed in range(150):
            tree = major_flipped(random_beta_tree(seed, 4 + seed % 13, rate), random.Random(seed))
            if has_parental_cycle(tree):
                continue
            try:
                contracted_count(induced_tree(tree, (ROOT_A, ROOT_B)))
            except MalformedGraphError as exc:
                rhs_error = str(exc)
            else:
                rhs_error = None
            for tau in enumerate_beta_subtrees(tree):
                try:
                    two_tree_count(induced_tree(tree, tau))
                except MalformedGraphError:
                    assert rhs_error, (rate, seed)
                    break
            try:
                kernel_profile(tree)
            except MalformedGraphError as exc:
                assert str(exc) == rhs_error, (rate, seed)
                raised += 1
            else:
                assert rhs_error is None, (rate, seed)
    assert raised >= 50, raised


def test_kernel_walk_on_the_roots_only_tree():
    """Two roots and nothing to decide: one subtree, one identity."""
    for seed in range(5):
        tree = random_beta_tree(seed, 2)
        assert enumerate_beta_subtrees(tree) == [frozenset({ROOT_A, ROOT_B})]
        assert kernel_profile(tree) == (KernelCheck(r=1, lhs=1, rhs=1),)
        assert reference_kernel_profile(tree) == kernel_profile(tree)


def chain_tree(length):
    """1a on (0a, 0b), major on b, and each later ka on ((k-1)a, 0b), major on a."""
    chain = [ROOT_A, *(BreakpointId(k, A_SIDE) for k in range(1, length + 1))]
    return BetaTree(
        a_parent=dict(zip(chain[1:], chain)),
        b_parent=dict.fromkeys(chain[1:], ROOT_B),
        major_side={v: B_SIDE if v.td == 1 else A_SIDE for v in chain[1:]},
        fences=frozenset(),
    )


def test_kernel_walk_on_three_node_trees():
    """One node under the roots: out first, then in.  A chain of 300 such
    nodes has a subtree per prefix, and its sizes pass 255, the most a
    byte-wide lane of the walk's packed sizes holds."""
    for seed in range(5):
        for rate in (0, 1):
            tree = random_beta_tree(seed, 3, rate)
            (v,) = tree.major_side
            assert enumerate_beta_subtrees(tree) == [
                frozenset({ROOT_A, ROOT_B}),
                frozenset({ROOT_A, ROOT_B, v}),
            ]
            assert kernel_profile(tree) == reference_kernel_profile(tree)
    chain = chain_tree(300)
    assert validate_beta_tree(chain).ok
    profile = kernel_profile(chain, budget=400)
    assert len(profile) == 301 and all(c.equal for c in profile)
    nodes = sorted(chain.major_side)
    assert enumerate_beta_subtrees(chain, budget=400) == [
        frozenset({ROOT_A, ROOT_B, *nodes[:k]}) for k in range(301)
    ]


@pytest.mark.parametrize("sweep", [kernel_profile, enumerate_beta_subtrees])
def test_a_chain_deeper_than_the_recursion_limit_is_a_budget_error(sweep):
    """The walk calls itself once per node whose parents are both chosen,
    so a chain past the interpreter's recursion limit that the node
    budget admits raises a budget error naming its node count, not a
    bare ``RecursionError``, and leaves no cyclic garbage behind."""
    length = sys.getrecursionlimit() + 200
    chain = chain_tree(length)
    gc.disable()
    try:
        gc.collect()
        with pytest.raises(BudgetExceededError, match=f"^{length + 2} nodes nest too deep"):
            sweep(chain, budget=2 * length)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_fence_off_shared_parents_is_refused_however_it_is_spelled():
    """The fence 1a|2b joins nodes with different b-parents (0b and 1b).
    The walk once read the rule from the parents of whichever node the
    fence stored first, and listed 4 subtrees for (1a, 2b) but 5 for
    (2b, 1a); now both spellings fail the fence check, in its words."""
    a1, b1, b2 = bp("1a"), bp("1b"), bp("2b")
    for fence in ((a1, b2), (b2, a1)):
        tree = BetaTree(
            a_parent={a1: ROOT_A, b1: ROOT_A, b2: ROOT_A},
            b_parent={a1: ROOT_B, b1: ROOT_B, b2: b1},
            major_side={a1: B_SIDE, b1: A_SIDE, b2: A_SIDE},
            fences=frozenset({fence}),
        )
        (failure,) = (c for c in validate_beta_tree(tree).checks if c.name == "fences")
        assert failure.details == f"fence {fence[0]}|{fence[1]} does not share both parents"
        for walk in (enumerate_beta_subtrees, kernel_profile):
            with pytest.raises(ValidationError) as exc:
                walk(tree)
            assert str(exc.value) == failure.details


#: One fence defect each, added to the worked tree's root fence 1a|1b.
FENCE_DEFECTS = {
    "node in two fences": ("1a", "2b"),
    "same-type fence": ("2b", "3b"),
    "node outside the tree": ("9a", "9b"),
    "parents not shared": ("2a", "2b"),
}

FENCE_READERS = {
    "enumerate_beta_subtrees": enumerate_beta_subtrees,
    "kernel_profile": kernel_profile,
    "induced_tree": lambda tree: induced_tree(tree, (ROOT_A, ROOT_B)),
}


@pytest.mark.parametrize("defect", sorted(FENCE_DEFECTS))
@pytest.mark.parametrize("reader", sorted(FENCE_READERS))
def test_every_fence_reader_refuses_a_bad_fence_in_the_validators_words(
    reader, defect, worked_beta_tree
):
    fence = tuple(map(bp, FENCE_DEFECTS[defect]))
    broken = replace(worked_beta_tree, fences=worked_beta_tree.fences | {fence})
    (failure,) = validate_beta_tree(broken).failures()
    assert failure.name == "fences"
    with pytest.raises(ValidationError) as exc:
        FENCE_READERS[reader](broken)
    assert str(exc.value) == failure.details


def has_parental_cycle(tree):
    """Whether some node is its own ancestor by a- and b-parents."""
    nodes = tree.nodes
    index = {v: i for i, v in enumerate(nodes)}
    succ = [[] for _ in nodes]
    for v in tree.major_side:
        for p in (tree.a_parent[v], tree.b_parent[v]):
            succ[index[p]].append(index[v])
    return len(_topological(succ)) < len(nodes)


def fence_rewired(tree, rng):
    """``tree`` with its fences reversed, dropped or joined by random
    pairs (a node outside the tree among them), and at times one parent
    moved to another node of its type."""
    nodes = [*tree.nodes, bp("9a"), bp("9b")]
    fences = set(tree.fences)
    a_parent, b_parent = dict(tree.a_parent), dict(tree.b_parent)
    for _ in range(rng.randrange(1, 4)):
        move = rng.randrange(4)
        if move == 0 and fences:
            x, y = fence = rng.choice(sorted(fences))
            fences.symmetric_difference_update({fence, (y, x)})
        elif move == 1 and fences:
            fences.remove(rng.choice(sorted(fences)))
        elif move == 2:
            fences.add((rng.choice(nodes), rng.choice(nodes)))
        elif tree.major_side:
            v = rng.choice(sorted(tree.major_side))
            parents = rng.choice((a_parent, b_parent))
            parents[v] = rng.choice([u for u in tree.nodes if u.side == parents[v].side])
    return BetaTree(a_parent, b_parent, dict(tree.major_side), frozenset(fences))


def test_walk_raises_exactly_when_the_fence_check_fails():
    """On seeded fence rewirings of random trees that pass parental-edges
    and have no parental cycle, the walks and the rewrite raise the fence
    check's error exactly where it fails."""
    outcomes = {True: 0, False: 0}
    for rate in (0.35, 1):
        for seed in range(300):
            rng = random.Random(seed)
            tree = fence_rewired(random_beta_tree(seed, 3 + seed % 9, rate), rng)
            report = validate_beta_tree(tree)
            if not report.checks[0].passed or has_parental_cycle(tree):
                continue
            (fences,) = (c for c in report.checks if c.name == "fences")
            outcomes[fences.passed] += 1
            for reader in FENCE_READERS.values():
                try:
                    reader(tree)
                except ValidationError as exc:
                    assert not fences.passed and str(exc) == fences.details, (rate, seed)
                except MalformedGraphError:  # a fence of a tree that fails minor-recency
                    assert fences.passed and reader is kernel_profile, (rate, seed)
                else:
                    assert fences.passed, (rate, seed)
    assert min(outcomes.values()) >= 100, outcomes


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


def test_random_trees_are_pinned():
    """sha256 of 3,000 generated trees: the seeded sweeps, the kernel-sweep
    benchmark and ``tdspace beta`` all rely on each seed's tree."""
    digest = hashlib.sha256()
    for rate in (0, 0.35, 1):
        for seed in range(1000):
            t = random_beta_tree(seed, 4 + seed % 13, rate)
            fields = (t.a_parent.items(), t.b_parent.items(), t.major_side.items(), t.fences)
            digest.update(repr(tuple(map(sorted, fields))).encode())
    assert digest.hexdigest() == (
        "be3a9d817fbbeb070f737ee082f92d58fc42bef7a4947a61a24994b6c9fc9cb9"
    )


def test_random_trees_past_the_digest_are_pinned():
    """sha256 of 4,800 trees at the sizes and rates the digest above leaves
    out: the smallest sizes, 17–24, and 65, past the interned-id table."""
    digest = hashlib.sha256()
    for rate in (0, 0.35, 0.7, 1):
        for size in (2, 3, *range(17, 25), 65):
            for seed in range(100):
                t = random_beta_tree(seed, size, rate)
                fields = (t.a_parent.items(), t.b_parent.items(), t.major_side.items(), t.fences)
                digest.update(repr(tuple(map(sorted, fields))).encode())
    assert digest.hexdigest() == (
        "9ddf695558cd319699d6c4c9d7463430addfa8142d37b1d6bd7a328c4c666222"
    )


def test_random_tree_sizes_and_validity():
    """Sizes 4–12 at the default rate, and 2,000-node trees at three rates."""
    cases = [(seed, 4 + seed % 9, FENCE_RATE) for seed in range(60)]
    for seed, size, rate in cases + [(0, 2000, 0.35), (1, 2000, 0), (2, 2000, 1)]:
        tree = random_beta_tree(seed, size, rate)
        assert len(tree.major_side) + 2 == size
        assert validate_beta_tree(tree).ok, (seed, size, rate)


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


@pytest.mark.parametrize(
    "seed, size, rate, shown",
    [
        (1, 5.5, 0.35, "5.5"),
        (1, 5, 2.0, "2.0"),
        (1, 5, -1, "-1"),
        (1, 5, float("nan"), "nan"),
        (None, 5, 0.35, "None"),
        (1.5, 5, 0.35, "1.5"),
        (True, 5, 0.35, "True"),
    ],
)
def test_random_tree_refuses_bad_inputs(seed, size, rate, shown):
    """A fractional size once built a tree anyway, a rate outside [0, 1]
    acted as 0 or 1, a ``None`` seed drew a new tree on every call, and a
    ``True`` seed quietly grew the tree of seed 1."""
    with pytest.raises(ValidationError, match=f"got {shown}$"):
        random_beta_tree(seed, size, rate)


def test_random_tree_seeds_a_negative_int_by_its_absolute_value():
    assert random_beta_tree(-7, 9) == random_beta_tree(7, 9)
    assert validate_beta_tree(random_beta_tree(-7, 9)).ok


# ---------------------------------------------------------------------------
# totals


def test_closed_form_values():
    values = [closed_form(n) for n in range(7)]
    assert values == [1, 1, 11, 627, 154869, 156882297, 640550418651]
    with pytest.raises(ValidationError):
        closed_form(-1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_totals_match_closed_form(n):
    assert total_evolutions_via_words(n) == closed_form(n)


def test_totals_keep_the_depth_budget():
    with pytest.raises(BudgetExceededError, match="budget of 6"):
        total_evolutions_via_words(7)
    with pytest.raises(BudgetExceededError, match="budget of 4"):
        total_evolutions_via_words(5, max_n=4)
    with pytest.raises(ValidationError, match="need n >= 1, got 0"):
        total_evolutions_via_words(0)


def test_totals_stop_at_the_deadline():
    start = time.monotonic()
    with pytest.raises(BudgetExceededError, match="time limit"):
        total_evolutions_via_words(6, deadline=Deadline(0.05))
    assert time.monotonic() - start < 1
    assert total_evolutions_via_words(3, deadline=Deadline(None)) == 627


def test_totals_take_their_budgets_by_keyword_only():
    """A second positional argument is a TypeError, never read as a budget."""
    with pytest.raises(TypeError):
        total_evolutions_via_words(6, 2)
    with pytest.raises(TypeError):
        enumerate_word_evolutions(5, ((1, 1),))


def _sum_partition(n, deadline):
    """The per-leaf reference of the word sum: every derivation's tree,
    major graph and formula, with the deadline checked before each."""
    total = 0
    for ev in enumerate_word_evolutions(n):
        deadline.check()
        total += count_extensions_formula(major_graph(build_2d_tree(ev))).value
    return total


def position(node):
    """A node's place in the hook-length state: ``k_a`` at 2k, ``k_b`` at 2k + 1."""
    return 2 * node.td + (node.side == B_SIDE)


def test_the_hook_count_is_the_formula_up_to_5():
    checked = 0
    for n in range(1, 6):
        for ev in enumerate_word_evolutions(n):
            checked += 1
            assert _hook_count(ev) == count_extensions_formula(major_graph(build_2d_tree(ev))).value
    assert checked == 15718


def test_kernel_sums_are_the_derivation_count_up_to_4():
    """On a breakpoint tree both sides of every kernel entry equal the
    tree's extension count: the contracted right-hand side already counts
    the ways 1a and 1b interleave."""
    checked = 0
    for n in range(1, 5):
        for ev in enumerate_word_evolutions(n):
            tree = build_2d_tree(ev)
            value = count_extensions_formula(major_graph(tree)).value
            profile = kernel_profile(tree)
            assert profile and all(c.lhs == c.rhs == value for c in profile), str(ev)
            checked += 1
    assert checked == 403


def test_the_walk_carries_each_derivations_major_forest():
    """The state the walk folds down to each derivation holds its tree's
    major parents by position and its fenced TDs.  TD 1 is step (1, 0)
    on the empty word from the bare roots: 1a under 0b, 1b under 0a, fenced."""
    assert _FIRST_STATE == ((0, 0, 1, 0), (1,))
    every = lambda _depth, word: choices_for(word)  # noqa: E731
    for n in range(1, 6):
        walked = list(_derive((), (FIRST_WORD,), n, every, _hook_step, _FIRST_STATE))
        assert [ev for ev, _ in walked] == list(enumerate_word_evolutions(n))
        for ev, (parent, fenced) in walked:
            graph = major_graph(build_2d_tree(ev))
            assert {v: parent[position(v)] for v in graph.parent} == {
                v: position(p) for v, p in graph.parent.items()
            }
            assert fenced == tuple(x.td for x, _ in sorted(graph.fences) if x.td > 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_grouped_sums_match_the_per_leaf_reference(n):
    none = Deadline(None)
    assert total_evolutions_via_words(n, deadline=none) == _sum_partition(n, none)


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


@pytest.mark.parametrize("n", range(5, 13))
def test_seeded_evolutions_past_the_exhaustive_range(n, random_evolution):
    """Structure, formula against oracle and the rewrite route on two
    seeded evolutions per n; the kernel identity while the tree fits
    the subtree budget (n <= 9), and the fiber round trip for n <= 10."""
    for seed in (100 * n, 100 * n + 1):
        ev = random_evolution(n, seed)
        assert ev.n == n
        tree = build_2d_tree(ev)
        assert validate_structure(tree).ok, seed
        formula = count_extensions_formula(major_graph(tree)).value
        assert formula == count_extensions_bruteforce(hasse_diagram(tree)), seed
        base = delete_first_td(ev)
        rewritten = induced_major_graph(build_2d_tree(base), one_nodeset_of(base, ev))
        assert rewritten == major_graph(tree), seed
        if len(tree.nodes) <= SUBTREE_NODE_BUDGET:
            assert all(c.equal for c in kernel_profile(tree)), seed
        if n <= 10:
            assert ev in induced_evolutions(base, max_n=n), seed


def test_random_fiber_members_roundtrip():
    rng = random.Random(11)
    level = list(enumerate_word_evolutions(4))
    for e2 in rng.sample(level, 30):
        base = delete_first_td(e2)
        fiber_keys = {tuple(e.steps) for e in induced_evolutions(base)}
        assert tuple(e2.steps) in fiber_keys
        nodeset = one_nodeset_of(base, e2)
        assert bp("1a") in nodeset and bp("1b") in nodeset
