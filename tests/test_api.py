"""The public API: its size is a design measure, so every change to it
shows up here."""

import dataclasses
import inspect

import pytest

import tdspace

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


#: every other count argument of the API: (unit, a call on it, a whole
#: number it takes, the answer to that)
COUNTS = {
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
