"""Exact enumeration and counting of tandem-duplication evolutions.

The package models a genome rearrangement process in which every event
duplicates a contiguous stretch in place.  Five coordinated views of
the process are provided, each checking the others:

* :mod:`tdspace.words` — the duplication-word automaton: derivations,
  per-length counts (exact recursion) and full enumeration;
* :mod:`tdspace.structure` — the double-tree model: beta trees and the
  breakpoint trees built from a derivation (a breakpoint tree is a beta
  tree), order diagrams, major graphs and one shared validator core;
* :mod:`tdspace.extensions` — closed-form extension counting with
  factor traces, plus a linear-extension oracle;
* :mod:`tdspace.simulator` — direct genome-state simulation that
  reproduces the same distinct-object counts by brute force;
* :mod:`tdspace.beta` — the deletion calculus on evolutions, rewrites
  of double trees by node subsets, the subtree kernel identity and the
  closed product formula for the number of evolutions.

``python -m tdspace.cli`` (installed as ``tdspace``) exposes tables,
verification sweeps and DOT/JSON exports.
"""

from .beta import (
    BetaTree,
    KernelCheck,
    closed_form,
    contracted_count,
    delete_first_td,
    enumerate_beta_subtrees,
    induced_evolutions,
    induced_major_graph,
    induced_tree,
    kernel_profile,
    one_nodeset_of,
    random_beta_tree,
    root_component_size,
    total_evolutions_via_words,
    two_tree_count,
    validate_beta_tree,
)
from .errors import (
    BudgetExceededError,
    CycleDetectedError,
    DerivationCollisionError,
    IndexOutOfRangeError,
    MalformedGraphError,
    NotInducedError,
    ParseError,
    TdSpaceError,
    ValidationError,
)
from .extensions import (
    ExtensionCount,
    count_extensions_bruteforce,
    count_extensions_formula,
    multinomial,
)
from .simulator import (
    Connection,
    GenomeState,
    TableRow,
    TdChoice,
    TdEvolutionRecord,
    TdGraph,
    apply_td,
    enumerate_choices,
    enumerate_process,
    initial_state,
    tabulate,
    word_of,
)
from .structure import (
    A_SIDE,
    B_SIDE,
    ROOT_A,
    ROOT_B,
    BreakpointId,
    HasseDiagram,
    MajorGraph,
    StructureReport,
    build_2d_tree,
    hasse_diagram,
    hasse_to_dot,
    hasse_to_json,
    major_graph,
    major_to_dot,
    major_to_json,
    parse_breakpoint,
    tree_to_dot,
    tree_to_json,
    validate_structure,
)
from .words import (
    FIRST_WORD,
    DupChoice,
    Word,
    WordEvolution,
    choice_count,
    choices_for,
    distinct_words,
    enumerate_word_evolutions,
    format_evolution,
    parse_evolution,
    td_step,
    word_count_recursion,
    word_count_row,
    word_count_total,
    word_to_text,
)

__version__ = "0.1.0"
