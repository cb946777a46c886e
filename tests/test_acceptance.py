"""Acceptance gate: one test (and one pass/fail line) per shipped claim.

Each test prints a single summary line; run with ``-v`` to get the
pass/fail verdict per criterion and ``-s`` to see the summaries inline.
Budgets are wall-clock upper bounds and hold with wide margins on a
desktop machine.
"""

import time

from tdspace import (
    build_2d_tree,
    closed_form,
    count_extensions_bruteforce,
    count_extensions_formula,
    distinct_words,
    enumerate_word_evolutions,
    hasse_diagram,
    induced_evolutions,
    induced_major_graph,
    kernel_profile,
    major_graph,
    one_nodeset_of,
    random_beta_tree,
    tabulate,
    total_evolutions_via_words,
    validate_beta_tree,
    validate_structure,
    word_count_total,
)

WORD_TOTALS = [1, 3, 22, 377, 15315, 1539281]
TABLE_ROWS = {
    1: (1, 1, 1, 1),
    2: (3, 7, 8, 11),
    3: (22, 225, 288, 627),
    4: (377, 27839, 37572, 154869),
}
EVOLUTION_TOTALS = [1, 11, 627, 154869, 156882297]


def test_criterion_1_word_totals():
    start = time.monotonic()
    recursion = [word_count_total(n) for n in range(1, 7)]
    recursion_time = time.monotonic() - start
    assert recursion == WORD_TOTALS
    assert recursion_time < 1.0

    start = time.monotonic()
    enumerated = [len(distinct_words(n)) for n in range(1, 6)]
    enumeration_time = time.monotonic() - start
    assert enumerated == WORD_TOTALS[:5]
    assert enumeration_time < 30.0
    print(
        f"PASS criterion 1: word totals {recursion} "
        f"(recursion {recursion_time:.2f}s, enumeration {enumeration_time:.1f}s)"
    )


def test_criterion_2_simulator_table():
    start = time.monotonic()
    rows = {}
    for n in sorted(TABLE_ROWS):
        row = tabulate(n)
        rows[n] = (row.words, row.cnvs, row.td_graphs, row.evolutions)
        assert row.paths == row.evolutions, f"record collision at n={n}"
    elapsed = time.monotonic() - start
    assert rows == TABLE_ROWS
    assert elapsed < 120.0
    print(f"PASS criterion 2: simulator rows n<=4 exact in {elapsed:.1f}s")


def test_criterion_3_worked_count_with_trace(ev_540):
    start = time.monotonic()
    tree = build_2d_tree(ev_540)
    result = count_extensions_formula(major_graph(tree))
    oracle = count_extensions_bruteforce(hasse_diagram(tree))
    elapsed = time.monotonic() - start
    assert result.value == 540
    assert sorted(f for _, f in result.factor_trace) == [2, 10, 27]
    assert oracle == 540
    assert elapsed < 1.0
    print(f"PASS criterion 3: 540 = {result.trace_text()} (oracle agrees, {elapsed:.3f}s)")


def test_criterion_4_formula_equals_oracle_everywhere():
    mismatches = 0
    trees = 0
    for n in range(1, 5):
        for ev in enumerate_word_evolutions(n):
            trees += 1
            tree = build_2d_tree(ev)
            formula = count_extensions_formula(major_graph(tree)).value
            if formula != count_extensions_bruteforce(hasse_diagram(tree)):
                mismatches += 1
    assert mismatches == 0
    print(f"PASS criterion 4: formula == oracle on all {trees} derivations (n<=4)")


def test_criterion_5_closed_form_and_totals():
    start = time.monotonic()
    for n in range(1, 6):
        assert total_evolutions_via_words(n) == EVOLUTION_TOTALS[n - 1]
        assert closed_form(n) == EVOLUTION_TOTALS[n - 1]
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    assert closed_form(6) == 640_550_418_651
    print(
        f"PASS criterion 5: per-word totals == closed form for n<=5 "
        f"({elapsed:.1f}s); closed_form(6) = 640550418651"
    )


def test_criterion_6_fiber_sums():
    violations = 0
    fibers = 0
    for n in range(1, 4):
        factor = 4 ** (n + 1) - (2 * (n + 1) + 1)
        for base in enumerate_word_evolutions(n):
            fibers += 1
            base_count = count_extensions_formula(major_graph(build_2d_tree(base))).value
            fiber_sum = sum(
                count_extensions_formula(major_graph(build_2d_tree(e2))).value
                for e2 in induced_evolutions(base)
            )
            if fiber_sum != base_count * factor:
                violations += 1
    assert violations == 0
    print(f"PASS criterion 6: one-step recurrence holds on all {fibers} fibers (n<=4)")


def test_criterion_7_kernel_identity(worked_beta_tree):
    profile = kernel_profile(worked_beta_tree)
    assert all(c.lhs == c.rhs == 18 for c in profile)
    assert profile[4].r == 5  # the headline instance

    evolution_failures = 0
    trees = 0
    for n in range(1, 5):
        for ev in enumerate_word_evolutions(n):
            trees += 1
            beta = build_2d_tree(ev)
            if not all(c.equal for c in kernel_profile(beta)):
                evolution_failures += 1
    assert evolution_failures == 0

    random_failures = 0
    sweeps = 220
    for i in range(sweeps):
        tree = random_beta_tree(1000 + i, 4 + i % 9)
        if not validate_beta_tree(tree).ok:
            random_failures += 1
            continue
        if not all(c.equal for c in kernel_profile(tree)):
            random_failures += 1
    assert random_failures == 0
    print(
        f"PASS criterion 7: kernel identity on the worked tree (r=5: 18=18), "
        f"{trees} derivation trees, {sweeps} random trees"
    )


def test_criterion_8_structure_suite(ev_540):
    failures = 0
    trees = 0
    for n in range(1, 5):
        for ev in enumerate_word_evolutions(n):
            trees += 1
            if not validate_structure(build_2d_tree(ev)).ok:
                failures += 1
    assert failures == 0

    # negative controls: corrupted trees must be flagged
    from dataclasses import replace

    from tdspace import A_SIDE, ROOT_B, parse_breakpoint

    tree = build_2d_tree(ev_540)
    corrupted = [
        replace(tree, b_parent={**tree.b_parent, parse_breakpoint("4a"): ROOT_B}),
        replace(tree, major_side={**tree.major_side, parse_breakpoint("1a"): A_SIDE}),
        replace(tree, fences=tree.fences | {(parse_breakpoint("2a"), parse_breakpoint("2b"))}),
    ]
    flagged = sum(1 for bad in corrupted if not validate_structure(bad).ok)
    assert flagged == len(corrupted)
    print(
        f"PASS criterion 8: structural validators clean on {trees} trees; "
        f"{flagged}/{len(corrupted)} corrupted controls flagged"
    )


def test_criterion_9_two_route_equality():
    mismatches = 0
    pairs = 0
    for n in range(1, 4):
        for base in enumerate_word_evolutions(n):
            tree = build_2d_tree(base)
            for e2 in induced_evolutions(base):
                pairs += 1
                rewritten = induced_major_graph(tree, one_nodeset_of(base, e2))
                if rewritten != major_graph(build_2d_tree(e2)):
                    mismatches += 1
    assert mismatches == 0
    print(f"PASS criterion 9: rewrite route == direct route on all {pairs} induced pairs")
