"""The public API: its size is a design measure, so every change to it
shows up here."""

import dataclasses
import gc
import inspect

import pytest

import tdspace
from tdspace.beta import _subtree_walk
from tdspace.simulator import _walk

PUBLIC_NAMES = [
    "A_SIDE", "B_SIDE", "BetaTree", "BreakpointId", "BudgetExceededError", "Connection",
    "CycleDetectedError", "DerivationCollisionError", "DupChoice", "ExtensionCount",
    "FIRST_WORD", "GenomeState", "HasseDiagram", "IndexOutOfRangeError", "KernelCheck",
    "MajorGraph", "MalformedGraphError", "NotInducedError", "ParseError", "ROOT_A", "ROOT_B",
    "StructureReport", "TableRow", "TdChoice", "TdEvolutionRecord", "TdGraph", "TdSpaceError",
    "ValidationError", "Word", "WordEvolution", "apply_td", "build_2d_tree",
    "choice_count", "choices_for", "closed_form", "contracted_count",
    "count_extensions_bruteforce", "count_extensions_formula", "delete_first_td",
    "distinct_words", "enumerate_beta_subtrees", "enumerate_choices", "enumerate_process",
    "enumerate_word_evolutions", "format_evolution", "hasse_diagram", "hasse_to_dot",
    "hasse_to_json", "induced_evolutions", "induced_major_graph", "induced_tree",
    "initial_state", "kernel_profile", "major_graph", "major_to_dot", "major_to_json",
    "multinomial", "one_nodeset_of", "parse_breakpoint", "parse_evolution",
    "random_beta_tree", "root_component_size", "tabulate", "td_step",
    "total_evolutions_via_words", "tree_to_dot", "tree_to_json", "two_tree_count",
    "validate_beta_tree", "validate_structure", "word_count_recursion", "word_count_row",
    "word_count_total", "word_of", "word_to_text",
]


def test_public_names_are_pinned():
    names = sorted(
        name
        for name, value in vars(tdspace).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert len(names) == 75
    assert names == PUBLIC_NAMES


#: the fields of every exported dataclass and NamedTuple, in order
RECORD_FIELDS = {
    "BetaTree": ("a_parent", "b_parent", "major_side", "fences"),
    "BreakpointId": ("td", "side"),
    "Connection": ("from_pos", "to_pos", "direction"),
    "DupChoice": ("a", "b"),
    "ExtensionCount": ("value", "factor_trace"),
    "GenomeState": ("genome", "positions", "steps"),
    "HasseDiagram": ("nodes", "edges"),
    "KernelCheck": ("r", "lhs", "rhs"),
    "MajorGraph": ("parent", "fences"),
    "StructureReport": ("checks",),
    "TableRow": ("n", "words", "cnvs", "td_graphs", "evolutions", "paths"),
    "TdChoice": ("g1", "g2", "order_flag"),
    "TdEvolutionRecord": ("genomes", "graphs", "word_evolution"),
    "TdGraph": ("cnv", "connections"),
    "WordEvolution": ("steps", "words"),
}


def test_record_fields_are_pinned():
    fields = {}
    for name in PUBLIC_NAMES:
        value = getattr(tdspace, name)
        if dataclasses.is_dataclass(value):
            fields[name] = tuple(field.name for field in dataclasses.fields(value))
        elif inspect.isclass(value) and issubclass(value, tuple) and hasattr(value, "_fields"):
            fields[name] = value._fields
    assert fields == RECORD_FIELDS


#: every public sweep that takes a depth, as a call that runs it to the end
SWEEPS = {
    "enumerate_word_evolutions": lambda n: list(tdspace.enumerate_word_evolutions(n)),
    "distinct_words": tdspace.distinct_words,
    "word_count_row": tdspace.word_count_row,
    "word_count_total": tdspace.word_count_total,
    "total_evolutions_via_words": tdspace.total_evolutions_via_words,
    "tabulate": tdspace.tabulate,
    "enumerate_process": lambda n: list(tdspace.enumerate_process(n)),
}


@pytest.mark.parametrize("n", [2.5, 2.0, True, "3"])
@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_every_sweep_refuses_a_depth_that_is_not_a_whole_number(sweep, n):
    with pytest.raises(tdspace.ValidationError, match=f"need a whole number of TDs, got {n!r}"):
        SWEEPS[sweep](n)


#: a 3-node beta tree (two subtrees) and the 540 evolution's order diagram
EV_540 = tdspace.WordEvolution(steps=((1, 1), (1, 0), (2, 3)))
TREE = tdspace.random_beta_tree(1, 3)
DIAGRAM = tdspace.hasse_diagram(tdspace.build_2d_tree(EV_540))

#: every other count argument of the API: (unit, a call on it, a whole
#: number it takes, the answer to that)
COUNTS = {
    "count_extensions_bruteforce-budget": (
        "nodes", lambda v: tdspace.count_extensions_bruteforce(DIAGRAM, v), 10, 540,
    ),
    "enumerate_beta_subtrees-budget": (
        "nodes", lambda v: len(tdspace.enumerate_beta_subtrees(TREE, v)), 3, 2,
    ),
    "kernel_profile-budget": ("nodes", lambda v: len(tdspace.kernel_profile(TREE, v)), 3, 2),
    "closed_form": ("TDs", tdspace.closed_form, 0, 1),
    "tabulate-workers": ("workers", lambda v: tdspace.tabulate(1, workers=v).evolutions, 2, 1),
    "tabulate-max_mem_bytes": (
        "bytes", lambda v: tdspace.tabulate(1, max_mem_bytes=v).evolutions, 10**6, 1,
    ),
    "word_count_recursion-m": ("symbols", lambda v: tdspace.word_count_recursion(v, -1), 0, 0),
    "word_count_recursion-n": ("TDs", lambda v: tdspace.word_count_recursion(3, v), 40, 0),
}


@pytest.mark.parametrize("value", [2.5, 2.0, True, "3"])
@pytest.mark.parametrize("count", sorted(COUNTS))
def test_every_count_refuses_what_is_not_a_whole_number(count, value):
    unit, call, whole, answer = COUNTS[count]
    assert call(whole) == answer
    message = f"need a whole number of {unit}, got {value!r}"
    with pytest.raises(tdspace.ValidationError, match=message):
        call(value)


#: a 12-node beta tree with 114 subtrees
SWEPT_TREE = tdspace.random_beta_tree(5, 12)


def _stopped(visit_count: int):
    """A subtree walk whose ``visit`` raises at its ``visit_count``-th subtree."""
    seen = []

    def visit():
        seen.append(None)
        if len(seen) == visit_count:
            raise RuntimeError("stop")

    run = _subtree_walk(SWEPT_TREE, tdspace.beta.SUBTREE_NODE_BUDGET)[-1]
    with pytest.raises(RuntimeError):
        run(visit)


def _malformed_kernel():
    """``kernel_profile`` raising in its ``rhs``: the fence 2a|2b shares
    its parents, but 2a is major on 1a and 2b on 1b."""
    a1, b1, a2, b2 = (tdspace.parse_breakpoint(s) for s in ("1a", "1b", "2a", "2b"))
    a, b = tdspace.A_SIDE, tdspace.B_SIDE
    corrupt = tdspace.BetaTree(
        a_parent={a1: tdspace.ROOT_A, b1: tdspace.ROOT_A, a2: a1, b2: a1},
        b_parent={a1: tdspace.ROOT_B, b1: tdspace.ROOT_B, a2: b1, b2: b1},
        major_side={a1: b, b1: a, a2: a, b2: b},
        fences=frozenset({(a1, b1), (a2, b2)}),
    )
    with pytest.raises(tdspace.MalformedGraphError):
        tdspace.kernel_profile(corrupt)

#: every sweep of the library, run to its end, stopped early or raising
SWEPT = {
    "enumerate_beta_subtrees": lambda: tdspace.enumerate_beta_subtrees(SWEPT_TREE),
    "kernel_profile": lambda: tdspace.kernel_profile(SWEPT_TREE),
    "kernel_profile-raising": _malformed_kernel,
    "subtree-walk-raising": lambda: _stopped(50),
    "tabulate": lambda: tdspace.tabulate(3),
    "enumerate_process": lambda: list(tdspace.enumerate_process(3)),
    "simulator-walk": lambda: list(_walk(3, ())),
    "simulator-walk-stopped": lambda: next(_walk(3, ())),
    "validate_beta_tree": lambda: tdspace.validate_beta_tree(SWEPT_TREE),
    "validate_structure": lambda: tdspace.validate_structure(tdspace.build_2d_tree(EV_540)),
    "hasse_diagram": lambda: tdspace.hasse_diagram(SWEPT_TREE),
    "count_extensions_bruteforce": lambda: tdspace.count_extensions_bruteforce(DIAGRAM),
    "induced_evolutions": lambda: tdspace.induced_evolutions(EV_540),
    "total_evolutions_via_words": lambda: tdspace.total_evolutions_via_words(4),
}


@pytest.mark.parametrize("sweep", sorted(SWEPT))
def test_no_library_sweep_leaves_cyclic_garbage(sweep):
    """What a sweep builds is freed with its last reference, so a caller
    that runs many sweeps holds one at a time: the cyclic collector,
    off during the sweep, finds nothing after it.  The first run fills
    any first-use cache."""
    SWEPT[sweep]()
    gc.disable()
    try:
        gc.collect()
        SWEPT[sweep]()
        assert gc.collect() == 0
    finally:
        gc.enable()
