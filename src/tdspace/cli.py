"""Command-line surface: tables, counts, verification sweeps, exports.

Every subcommand is a thin, reproducible wrapper over the library; all
randomized runs take an explicit ``--seed`` and any ``--workers`` value
yields identical results.  Exit codes are part of the interface:

* 0 — requested work done, all requested checks passed;
* 2 — a budget was exceeded (depth, node count, memory, time);
* 3 — a verification or oracle cross-check failed;
* 1 — anything else (bad input, malformed files).

The environment variable ``TD_MAX_MEM`` (bytes) caps the measured size
of the deduplication sets held by the simulator commands.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields
from typing import Callable, NoReturn, Sequence

from .beta import (
    SUBTREE_NODE_BUDGET,
    BetaTree,
    _induction_factor,
    closed_form,
    induced_evolutions,
    kernel_profile,
    one_nodeset_of,
    random_beta_tree,
    total_evolutions_via_words,
    validate_beta_tree,
)
from .errors import BudgetExceededError, Deadline, ParseError, TdSpaceError, ValidationError
from .extensions import (
    BRUTEFORCE_NODE_BUDGET,
    count_extensions_bruteforce,
    count_extensions_formula,
)
from .simulator import tabulate
from .structure import (
    A_SIDE,
    B_SIDE,
    ROOT_A,
    ROOT_B,
    BreakpointId,
    build_2d_tree,
    hasse_diagram,
    hasse_to_dot,
    hasse_to_json,
    major_graph,
    major_to_dot,
    major_to_json,
    tree_to_dot,
    tree_to_json,
    validate_structure,
)
from .words import (
    DEFAULT_MAX_N,
    WordEvolution,
    distinct_words,
    enumerate_word_evolutions,
    format_evolution,
    parse_evolution,
    word_count_row,
    word_to_text,
)

ENUMERATION_MAX_N = 5  # past this, distinct-word enumeration needs --deep

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BUDGET = 2
EXIT_MISMATCH = 3


@dataclass
class RunConfig:
    """Validated knobs of one invocation, shared across subcommands.

    Defaults live in the argument parser; a field a subcommand has no
    option for stays ``None`` (``False`` for ``deep``).
    """

    command: str
    fmt: str
    n: int | None = None
    workers: int | None = None
    output: str | None = None
    seed: int | None = None
    trees: int | None = None
    size: int | None = None
    fence_rate: float | None = None
    node_budget: int | None = None
    time_limit: float | None = None
    max_mem_bytes: int | None = None
    deep: bool = False

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise ValidationError(f"need workers >= 1, got {self.workers}")
        if self.n is not None and self.n < 1:
            raise ValidationError(f"need n >= 1, got {self.n}")
        if self.trees is not None and self.trees < 1:
            raise ValidationError(f"need trees >= 1, got {self.trees}")
        # the random sweeps grow trees of 4..size nodes
        if self.size is not None and self.size < 4:
            raise ValidationError(f"need size >= 4, got {self.size}")
        if self.node_budget is not None and self.node_budget < 1:
            raise ValidationError(f"need a positive node budget, got {self.node_budget}")
        if self.time_limit is not None and self.time_limit <= 0:
            raise ValidationError(f"need a positive time limit, got {self.time_limit}")
        if self.max_mem_bytes is not None and self.max_mem_bytes <= 0:
            raise ValidationError(f"TD_MAX_MEM must be positive, got {self.max_mem_bytes}")

    def require_seed(self) -> int:
        if self.seed is None:
            raise ValidationError(f"{self.command} is randomized; pass an explicit --seed")
        return self.seed


def _mem_budget_from_env() -> int | None:
    raw = os.environ.get("TD_MAX_MEM")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise ValidationError(f"TD_MAX_MEM must be an integer byte count, got {raw!r}") from exc


def _emit(text: str, output: str | None) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise TdSpaceError(f"cannot write {output!r}: {exc}") from exc


def _load_evolution(source: str) -> WordEvolution:
    """Evolution from inline JSON, a file path, or ``-`` for stdin."""
    text = source.strip()
    if text == "-":
        text = sys.stdin.read()
    elif not text.startswith("{"):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read evolution file {source!r}: {exc}") from exc
    return parse_evolution(text)


def _csv_lines(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(x) for x in row))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# words


def cmd_words(cfg: RunConfig, recursion: bool, enumerate_: bool) -> int:
    n = cfg.n
    routes: dict[str, dict[int, int]] = {}
    if recursion or not enumerate_:
        routes["recursion"] = word_count_row(n)
    if enumerate_:
        budget = max(n, ENUMERATION_MAX_N) if cfg.deep else ENUMERATION_MAX_N
        counts: dict[int, int] = {}
        for w in distinct_words(n, max_n=budget):
            counts[len(w)] = counts.get(len(w), 0) + 1
        routes["enumeration"] = counts
    totals = {route: sum(row.values()) for route, row in routes.items()}
    agree = len(set(totals.values())) == 1 and all(
        row == next(iter(routes.values())) for row in routes.values()
    )

    if cfg.fmt == "json":
        doc = {
            "command": "words",
            "n": n,
            "routes": {
                route: {"counts": {str(m): c for m, c in sorted(row.items())}, "total": totals[route]}
                for route, row in routes.items()
            },
            "agree": agree,
        }
        _emit(json.dumps(doc, indent=2), cfg.output)
    elif cfg.fmt == "csv":
        rows = [
            (n, route, m, c)
            for route, row in routes.items()
            for m, c in sorted(row.items())
        ]
        _emit(_csv_lines(("n", "route", "length", "count"), rows), cfg.output)
    else:
        lines = []
        for route, row in routes.items():
            lines.append(f"words after {n} TDs ({route})")
            for m, c in sorted(row.items()):
                lines.append(f"  length {m:2d}: {c}")
            lines.append(f"  total {totals[route]}")
        if len(routes) > 1:
            lines.append("routes agree" if agree else "ROUTES DISAGREE")
        _emit("\n".join(lines), cfg.output)

    if not agree:
        print("word-count routes disagree", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


# ---------------------------------------------------------------------------
# count


def cmd_count(cfg: RunConfig, source: str, oracle: bool) -> int:
    ev = _load_evolution(source)
    tree = build_2d_tree(ev)
    result = count_extensions_formula(major_graph(tree))
    oracle_value = None
    if oracle:
        oracle_value = count_extensions_bruteforce(hasse_diagram(tree), budget=cfg.node_budget)

    if cfg.fmt == "json":
        doc = {
            "command": "count",
            "steps": [[c.a, c.b] for c in ev.steps],
            "value": result.value,
            "factors": [{"site": site, "factor": f} for site, f in result.factor_trace],
            "oracle": oracle_value,
        }
        _emit(json.dumps(doc, indent=2), cfg.output)
    else:
        lines = [f"evolution {ev}"]
        for site, factor in result.factor_trace:
            lines.append(f"site={site} factor={factor}")
        lines.append(result.trace_text())
        if oracle_value is not None:
            verdict = "agrees" if oracle_value == result.value else "DISAGREES"
            lines.append(f"oracle {oracle_value} {verdict}")
        _emit("\n".join(lines), cfg.output)

    if oracle_value is not None and oracle_value != result.value:
        print("oracle disagrees with the closed-form count", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


# ---------------------------------------------------------------------------
# table


def cmd_table(cfg: RunConfig) -> int:
    row = tabulate(cfg.n, workers=cfg.workers, deep=cfg.deep, max_mem_bytes=cfg.max_mem_bytes)
    if cfg.fmt == "json":
        doc = {
            "command": "table",
            "n": row.n,
            "words": row.words,
            "cnvs": row.cnvs,
            "td_graphs": row.td_graphs,
            "evolutions": row.evolutions,
            "paths": row.paths,
        }
        _emit(json.dumps(doc, indent=2), cfg.output)
    elif cfg.fmt == "csv":
        _emit(
            _csv_lines(
                ("n", "words", "cnvs", "td_graphs", "evolutions", "paths"),
                [(row.n, row.words, row.cnvs, row.td_graphs, row.evolutions, row.paths)],
            ),
            cfg.output,
        )
    else:
        _emit(
            "\n".join(
                [
                    "n      words      cnvs  td_graphs  evolutions       paths",
                    f"{row.n}  {row.words:9d}  {row.cnvs:8d}  {row.td_graphs:9d}  "
                    f"{row.evolutions:10d}  {row.paths:10d}",
                ]
            ),
            cfg.output,
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


Check = tuple[str, bool, str]


def _suite_structure(cfg: RunConfig, deadline: Deadline) -> list[Check]:
    n_max = cfg.n if cfg.n is not None else 4
    bad_valid: list[str] = []
    bad_count: list[str] = []
    trees = 0
    for n in range(1, n_max + 1):
        for ev in enumerate_word_evolutions(n, max_n=n_max):
            deadline.check()
            trees += 1
            tree = build_2d_tree(ev)
            report = validate_structure(tree)
            if not report.ok:
                bad_valid.append(str(ev))
                continue
            formula = count_extensions_formula(major_graph(tree)).value
            brute = count_extensions_bruteforce(hasse_diagram(tree), budget=cfg.node_budget)
            if formula != brute:
                bad_count.append(f"{ev}: formula {formula} vs oracle {brute}")
    checks = [
        ("trees-validate", not bad_valid, f"{trees} trees" if not bad_valid else bad_valid[0]),
        (
            "formula-vs-oracle",
            not bad_count,
            f"{trees} trees" if not bad_count else bad_count[0],
        ),
    ]
    return checks


def _worked_kernel_tree() -> BetaTree:
    """The five-node fenced example used as the kernel smoke test."""
    a1, b1 = BreakpointId(1, A_SIDE), BreakpointId(1, B_SIDE)
    a2, b2, b3 = BreakpointId(2, A_SIDE), BreakpointId(2, B_SIDE), BreakpointId(3, B_SIDE)
    return BetaTree(
        a_parent={a1: ROOT_A, b1: ROOT_A, a2: a1, b2: ROOT_A, b3: ROOT_A},
        b_parent={a1: ROOT_B, b1: ROOT_B, a2: ROOT_B, b2: b1, b3: b1},
        major_side={a1: B_SIDE, b1: A_SIDE, a2: A_SIDE, b2: B_SIDE, b3: B_SIDE},
        fences=frozenset({(a1, b1)}),
    )


def _suite_kernel(cfg: RunConfig, deadline: Deadline) -> list[Check]:
    checks: list[Check] = []

    worked = kernel_profile(_worked_kernel_tree(), budget=cfg.node_budget)
    ok = all(c.equal for c in worked)
    checks.append(
        ("worked-example", ok, f"all r give {worked[0].rhs}" if ok else "kernel broken")
    )

    n_max = cfg.n if cfg.n is not None else 4
    bad: list[str] = []
    trees = 0
    for n in range(1, n_max + 1):
        for ev in enumerate_word_evolutions(n, max_n=n_max):
            deadline.check()
            trees += 1
            tree = build_2d_tree(ev)
            if not all(c.equal for c in kernel_profile(tree, budget=cfg.node_budget)):
                bad.append(str(ev))
    checks.append(
        ("evolution-trees", not bad, f"{trees} trees" if not bad else bad[0])
    )

    identities, failures = _random_sweep(cfg, deadline)
    bad_random = list(dict.fromkeys(f["seed"] for f in failures))
    checks.append(
        (
            "random-trees",
            not bad_random,
            f"{cfg.trees} trees, {identities} identities"
            if not bad_random
            else f"seeds {bad_random[:5]}",
        )
    )
    return checks


def _random_sweep(cfg: RunConfig, deadline: Deadline) -> tuple[int, list[dict[str, object]]]:
    """Validate and kernel-check ``cfg.trees`` seeded random beta trees.

    Tree ``i`` has seed ``seed + i`` and ``4 + i % (size - 3)`` nodes.
    Returns the number of identities checked and one failure record per
    invalid tree or unequal identity, in sweep order.
    """
    seed = cfg.require_seed()
    failures: list[dict[str, object]] = []
    identities = 0
    for i in range(cfg.trees):
        deadline.check()
        size = 4 + i % (cfg.size - 3)
        tree = random_beta_tree(seed + i, size, fence_rate=cfg.fence_rate)
        report = validate_beta_tree(tree)
        if not report.ok:
            failures.append({"seed": seed + i, "reason": report.failures()[0].name})
            continue
        profile = kernel_profile(tree, budget=cfg.node_budget)
        identities += len(profile)
        for check in profile:
            if not check.equal:
                failures.append(
                    {"seed": seed + i, "r": check.r, "lhs": check.lhs, "rhs": check.rhs}
                )
    return identities, failures


def _suite_induction(cfg: RunConfig, deadline: Deadline) -> list[Check]:
    n_max = cfg.n if cfg.n is not None else 4
    checks: list[Check] = []
    for n in range(1, n_max):
        bases = 0
        fiber_total = 0
        bad: list[str] = []
        for ev in enumerate_word_evolutions(n, max_n=n_max):
            deadline.check()
            bases += 1
            fiber = induced_evolutions(ev, max_n=n_max)
            fiber_total += len(fiber)
            base_count = count_extensions_formula(major_graph(build_2d_tree(ev))).value
            fiber_sum = sum(
                count_extensions_formula(major_graph(build_2d_tree(e2))).value
                for e2 in fiber
            )
            if fiber_sum != base_count * _induction_factor(n):
                bad.append(str(ev))
        level_size = sum(1 for _ in enumerate_word_evolutions(n + 1, max_n=n_max))
        if fiber_total != level_size:
            bad.append(f"fibers cover {fiber_total} of {level_size} evolutions")
        checks.append(
            (
                f"fibers-base-{n}",
                not bad,
                f"{bases} bases, {fiber_total} induced" if not bad else bad[0],
            )
        )
    return checks


def _suite_grand_total(cfg: RunConfig, deadline: Deadline) -> list[Check]:
    n = cfg.n if cfg.n is not None else 4
    if cfg.deep:
        print(f"grand total sweep for n={n}; this can take minutes", file=sys.stderr)
    deadline.check()
    row = tabulate(
        n,
        workers=cfg.workers,
        deep=cfg.deep,
        max_mem_bytes=cfg.max_mem_bytes,
        deadline=deadline,
    )
    deadline.check()
    sigma = total_evolutions_via_words(n, workers=cfg.workers)
    deadline.check()
    expected = closed_form(n)
    return [
        (
            "simulator-vs-formula",
            row.evolutions == sigma,
            f"{row.evolutions} vs {sigma}",
        ),
        ("formula-vs-closed-form", sigma == expected, f"{sigma} vs {expected}"),
    ]


_SUITES: dict[str, Callable[[RunConfig, Deadline], list[Check]]] = {
    "structure": _suite_structure,
    "kernel": _suite_kernel,
    "induction": _suite_induction,
    "grand-total": _suite_grand_total,
}


def cmd_verify(cfg: RunConfig, suite: str) -> int:
    deadline = Deadline(cfg.time_limit)
    checks = _SUITES[suite](cfg, deadline)
    passed = all(ok for _, ok, _ in checks)

    if cfg.fmt == "json":
        doc = {
            "command": "verify",
            "suite": suite,
            "checks": [
                {"name": name, "passed": ok, "details": details}
                for name, ok, details in checks
            ],
            "passed": passed,
        }
        _emit(json.dumps(doc, indent=2), cfg.output)
    else:
        lines = [f"suite={suite}"]
        for name, ok, details in checks:
            status = "pass" if ok else "FAIL"
            lines.append(f"{status} {name} ({details})" if details else f"{status} {name}")
        lines.append("suite passed" if passed else "suite FAILED")
        _emit("\n".join(lines), cfg.output)
    return EXIT_OK if passed else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# export


def cmd_export(cfg: RunConfig, source: str, what: str) -> int:
    ev = _load_evolution(source)
    tree = build_2d_tree(ev)
    if what == "tree":
        doc = tree_to_dot(tree) if cfg.fmt == "dot" else tree_to_json(tree)
    elif what == "hasse":
        diagram = hasse_diagram(tree)
        doc = hasse_to_dot(diagram) if cfg.fmt == "dot" else hasse_to_json(diagram)
    else:
        graph = major_graph(tree)
        doc = major_to_dot(graph) if cfg.fmt == "dot" else major_to_json(graph)
    _emit(doc, cfg.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# induce


def cmd_induce(cfg: RunConfig, source: str) -> int:
    ev = _load_evolution(source)
    budget = max(ev.n + 1, DEFAULT_MAX_N) if cfg.deep else DEFAULT_MAX_N
    fiber = induced_evolutions(ev, max_n=budget)
    entries = []
    fiber_sum = 0
    for e2 in fiber:
        nodeset = sorted(one_nodeset_of(ev, e2))
        value = count_extensions_formula(major_graph(build_2d_tree(e2))).value
        fiber_sum += value
        entries.append((e2, nodeset, value))
    base_count = count_extensions_formula(major_graph(build_2d_tree(ev))).value
    predicted = base_count * _induction_factor(ev.n)

    if cfg.fmt == "json":
        doc = {
            "command": "induce",
            "base": [[c.a, c.b] for c in ev.steps],
            "fiber": [
                {
                    "steps": [[c.a, c.b] for c in e2.steps],
                    "word": word_to_text(e2.terminal_word),
                    "nodeset": [str(v) for v in nodeset],
                    "count": value,
                }
                for e2, nodeset, value in entries
            ],
            "fiber_sum": fiber_sum,
            "predicted": predicted,
        }
        _emit(json.dumps(doc, indent=2), cfg.output)
    elif cfg.fmt == "csv":
        rows = [
            (
                format_evolution(e2).replace(",", ";"),
                word_to_text(e2.terminal_word),
                " ".join(str(v) for v in nodeset),
                value,
            )
            for e2, nodeset, value in entries
        ]
        _emit(_csv_lines(("steps", "word", "nodeset", "count"), rows), cfg.output)
    else:
        lines = [f"base {ev} (count {base_count})", f"fiber size {len(fiber)}"]
        for e2, nodeset, value in entries:
            labels = ",".join(str(v) for v in nodeset)
            lines.append(
                f"  {format_evolution(e2)}  word {word_to_text(e2.terminal_word)}"
                f"  nodeset {labels}  count {value}"
            )
        verdict = "matches" if fiber_sum == predicted else "MISMATCH"
        lines.append(
            f"fiber sum {fiber_sum} = {base_count} * {_induction_factor(ev.n)} [{verdict}]"
        )
        _emit("\n".join(lines), cfg.output)

    if fiber_sum != predicted:
        print("fiber sum disagrees with the one-step recurrence", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


# ---------------------------------------------------------------------------
# beta


def cmd_beta(cfg: RunConfig) -> int:
    seed = cfg.require_seed()
    identities, failures = _random_sweep(cfg, Deadline(cfg.time_limit))

    if cfg.fmt == "json":
        doc = {
            "command": "beta",
            "seed": seed,
            "trees": cfg.trees,
            "max_size": cfg.size,
            "identities": identities,
            "failures": failures,
        }
        _emit(json.dumps(doc, indent=2), cfg.output)
    else:
        lines = [f"seed={seed} trees={cfg.trees} max-size={cfg.size}"]
        passed = cfg.trees - len({f["seed"] for f in failures})
        lines.append(
            f"kernel identity: {passed}/{cfg.trees} trees pass ({identities} identities)"
        )
        for f in failures[:10]:
            lines.append(f"  FAIL {f}")
        _emit("\n".join(lines), cfg.output)
    return EXIT_MISMATCH if failures else EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


class _Parser(argparse.ArgumentParser):
    """argparse exits usage errors with code 2, which here means "budget"."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tdspace",
        description="Exact enumeration and counting of tandem-duplication evolutions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, formats: Sequence[str]) -> None:
        p.add_argument("--format", choices=formats, default=formats[0], dest="fmt")
        p.add_argument("-o", "--output", default=None, help="write to a file instead of stdout")

    p = sub.add_parser("words", help="word counts per length, by recursion and/or enumeration")
    p.add_argument("-n", type=int, default=6, help="number of TDs (default 6)")
    p.add_argument("--recursion", action="store_true", help="use the exact recursion (default)")
    p.add_argument("--enumerate", action="store_true", dest="enumerate_",
                   help="enumerate distinct words (n <= 5 is fast)")
    p.add_argument("--deep", action="store_true", help="lift the enumeration depth budget")
    common(p, ("text", "csv", "json"))

    p = sub.add_parser("count", help="extension count of one evolution, with factor trace")
    p.add_argument("evolution", help='file path, "-" for stdin, or inline {"steps": [[a,b], ...]}')
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the linear-extension oracle")
    p.add_argument("--node-budget", type=int, default=BRUTEFORCE_NODE_BUDGET, dest="node_budget")
    common(p, ("text", "json"))

    p = sub.add_parser("table", help="distinct words/CNVs/graphs/evolutions after n TDs")
    p.add_argument("-n", type=int, default=4)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--deep", action="store_true", help="allow n=5 (long; consider TD_MAX_MEM)")
    common(p, ("text", "csv", "json"))

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=sorted(_SUITES), required=True)
    p.add_argument("-n", type=int, default=None, help="depth bound (suite-specific default)")
    p.add_argument("--seed", type=int, default=None, help="seed for the random portions")
    p.add_argument("--trees", type=int, default=200, help="random trees in the kernel suite")
    p.add_argument("--size", type=int, default=12, help="max random-tree size")
    p.add_argument("--fence-rate", type=float, default=0.35, dest="fence_rate")
    p.add_argument("--node-budget", type=int, default=SUBTREE_NODE_BUDGET, dest="node_budget")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--time-limit", type=float, default=None, dest="time_limit",
                   help="seconds; exceeded sweeps exit with code 2")
    p.add_argument("--deep", action="store_true")
    common(p, ("text", "json"))

    p = sub.add_parser("export", help="evolution structures as DOT or JSON")
    p.add_argument("evolution")
    p.add_argument("--what", choices=("tree", "hasse", "major"), default="tree")
    common(p, ("dot", "json"))

    p = sub.add_parser("induce", help="list the one-step fiber over an evolution")
    p.add_argument("evolution")
    p.add_argument("--deep", action="store_true", help="lift the default depth budget")
    common(p, ("text", "csv", "json"))

    p = sub.add_parser("beta", help="kernel-identity sweep over random two-trees")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trees", type=int, default=200)
    p.add_argument("--size", type=int, default=12)
    p.add_argument("--fence-rate", type=float, default=0.35, dest="fence_rate")
    p.add_argument("--node-budget", type=int, default=SUBTREE_NODE_BUDGET, dest="node_budget")
    common(p, ("text", "json"))

    return parser


def _config_from(args: argparse.Namespace) -> RunConfig:
    options = {f.name for f in fields(RunConfig)} & vars(args).keys()
    return RunConfig(
        max_mem_bytes=_mem_budget_from_env(),
        **{name: getattr(args, name) for name in options},
    )


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from(args)
        if args.command == "words":
            return cmd_words(cfg, args.recursion, args.enumerate_)
        if args.command == "count":
            return cmd_count(cfg, args.evolution, args.oracle)
        if args.command == "table":
            return cmd_table(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, args.suite)
        if args.command == "export":
            return cmd_export(cfg, args.evolution, args.what)
        if args.command == "induce":
            return cmd_induce(cfg, args.evolution)
        return cmd_beta(cfg)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except TdSpaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
