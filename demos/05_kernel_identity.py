# coding: utf-8

# # The kernel identity on two-rooted pair trees
#
# Counting arguments about induced evolutions boil down to a striking
# invariant.  Cut a pair tree along any admissible "subtree" (a set of
# nodes closed under both parent maps), contract what lies above the
# cut, and count the linear extensions of what remains.  Group the cuts
# by how many nodes end up attached to the first root: *every group sums
# to the same number* — the extension count of the fully contracted
# tree.  This demo builds the structure by hand, verifies the identity,
# and shows exactly which axiom it hinges on.

from tdspace import (
    A_SIDE,
    B_SIDE,
    ROOT_A,
    ROOT_B,
    BetaTree,
    build_2d_tree,
    contracted_count,
    enumerate_beta_subtrees,
    enumerate_word_evolutions,
    induced_tree,
    kernel_profile,
    parse_breakpoint,
    random_beta_tree,
    root_component_size,
    two_tree_count,
    validate_beta_tree,
)


def bp(text):
    return parse_breakpoint(text)


# ## A small tree, cut fourteen ways
#
# Six nodes: 1a/1b fenced under the roots, 2a hanging on [1a, root],
# and 2b, 3b stacked on [root, 1b].

tree = BetaTree(
    a_parent={
        bp("1a"): ROOT_A,
        bp("1b"): ROOT_A,
        bp("2a"): bp("1a"),
        bp("2b"): ROOT_A,
        bp("3b"): ROOT_A,
    },
    b_parent={
        bp("1a"): ROOT_B,
        bp("1b"): ROOT_B,
        bp("2a"): ROOT_B,
        bp("2b"): bp("1b"),
        bp("3b"): bp("1b"),
    },
    major_side={
        bp("1a"): B_SIDE,
        bp("1b"): A_SIDE,
        bp("2a"): A_SIDE,
        bp("2b"): B_SIDE,
        bp("3b"): B_SIDE,
    },
    fences=frozenset({(bp("1a"), bp("1b"))}),
)
assert validate_beta_tree(tree).ok

taus = enumerate_beta_subtrees(tree)
print(f"  admissible subtrees: {len(taus)}")

# Every cut yields a contracted graph; sort them by first-root component
# size and sum the extension counts within each size class:

by_size = {}
for tau in taus:
    graph = induced_tree(tree, tau)
    r = root_component_size(graph)
    by_size.setdefault(r, []).append(two_tree_count(graph).value)

target = contracted_count(induced_tree(tree, (ROOT_A, ROOT_B))).value
print(f"  fully contracted count: {target}")
for r in sorted(by_size):
    parts = " + ".join(str(c) for c in sorted(by_size[r]))
    print(f"  r={r}: {parts} = {sum(by_size[r])}")
    assert sum(by_size[r]) == target

# kernel_profile wraps that whole sweep:

assert all(c.equal for c in kernel_profile(tree))

# ## It holds on every tree that comes from an evolution

for n in range(1, 4):
    for ev in enumerate_word_evolutions(n):
        beta = build_2d_tree(ev)
        assert all(c.equal for c in kernel_profile(beta)), str(ev)
print("  identity verified on all derivation trees up to three TDs")

# ## ...and on random trees, because validity demands recency
#
# The identity is *not* a consequence of the two parents merely being
# comparable.  The generator therefore anchors every non-root pair: the
# minor parent must be the nearest opposite-type node above the major.

for seed in range(25):
    t = random_beta_tree(seed, size=4 + seed % 9)
    assert validate_beta_tree(t).ok
    assert all(c.equal for c in kernel_profile(t)), seed
print("  identity verified on 25 seeded random trees")

# ## The counterexample that forced the axiom
#
# Take a four-node major chain 1a < 2b < 3a < 4b and hang 5b below 4b —
# but declare its minor parent to be 1a, skipping past the nearer
# a-type ancestor 3a.  Both parents are comparable, yet:

skewed = BetaTree(
    a_parent={
        bp("1a"): ROOT_A,
        bp("2b"): bp("1a"),
        bp("3a"): bp("1a"),
        bp("4b"): bp("3a"),
        bp("5b"): bp("1a"),
    },
    b_parent={
        bp("1a"): ROOT_B,
        bp("2b"): ROOT_B,
        bp("3a"): bp("2b"),
        bp("4b"): bp("2b"),
        bp("5b"): bp("4b"),
    },
    major_side={
        bp("1a"): B_SIDE,
        bp("2b"): A_SIDE,
        bp("3a"): B_SIDE,
        bp("4b"): A_SIDE,
        bp("5b"): B_SIDE,
    },
    fences=frozenset(),
)

report = validate_beta_tree(skewed)
print(f"  validator verdict: {[c.name for c in report.failures()]}")

broken = [c for c in kernel_profile(skewed) if not c.equal]
for c in broken:
    print(f"  kernel breaks at r={c.r}: lhs={c.lhs} rhs={c.rhs}")

# Re-parenting 5b's minor edge onto 3a — the nearest opposite-type
# ancestor — restores both validity and the identity:

repaired = BetaTree(
    a_parent={**skewed.a_parent, bp("5b"): bp("3a")},
    b_parent=dict(skewed.b_parent),
    major_side=dict(skewed.major_side),
    fences=skewed.fences,
)
assert validate_beta_tree(repaired).ok
assert all(c.equal for c in kernel_profile(repaired))
print("  repaired tree: valid, identity holds at every r")
