"""Command-line surface: tables, counts, verification sweeps, exports.

Every subcommand is a thin, reproducible wrapper over the library that
returns one :class:`Result`; ``main`` renders the chosen format of it.
All randomized runs take an explicit ``--seed`` and any ``--workers``
value yields identical results.  Exit codes are part of the interface:

* 0 — requested work done, all requested checks passed;
* 2 — a budget was exceeded (depth, node count, memory, time);
* 3 — a verification or oracle cross-check failed;
* 1 — anything else (bad input, malformed files).

The environment variable ``TD_MAX_MEM`` (bytes) caps the measured size
of the deduplication sets held by the simulator commands.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NoReturn, Sequence

from .beta import (
    FENCE_RATE,
    SUBTREE_NODE_BUDGET,
    BetaTree,
    _hook_count,
    _induction_factor,
    closed_form,
    induced_evolutions,
    kernel_profile,
    one_nodeset_of,
    random_beta_tree,
    total_evolutions_via_words,
    validate_beta_tree,
)
from .errors import (
    BudgetExceededError, Deadline, DerivationCollisionError, ParseError, TdSpaceError,
    ValidationError, _check_depth,
)
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
    CheckResult,
    StructureReport,
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
    WORD_COUNT_MAX_N,
    WordEvolution,
    _distinct_words,
    enumerate_word_evolutions,
    format_evolution,
    parse_evolution,
    word_count_row,
    word_count_total,
    word_to_text,
)

ENUMERATION_MAX_N = 5  # past this, distinct-word enumeration needs --deep

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BUDGET = 2
EXIT_MISMATCH = 3


def _mem_budget_from_env() -> int | None:
    raw = os.environ.get("TD_MAX_MEM")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise ValidationError(f"TD_MAX_MEM must be an integer byte count, got {raw!r}") from exc


def _depth_cap(cfg: argparse.Namespace, need: int, cap: int) -> int:
    """The enumeration depth budget: ``cap``, lifted to ``need`` by ``--deep``."""
    return max(need, cap) if cfg.deep else cap


def _validate(cfg: argparse.Namespace) -> None:
    """Check the options of one invocation and add ``max_mem_bytes`` to them.

    The parser is the only source of options and defaults; one that a
    subcommand does not offer is absent from its namespace.
    """
    cfg.max_mem_bytes = _mem_budget_from_env()
    options = vars(cfg)
    # the random sweeps grow trees of 4..size nodes
    for name, least in (("workers", 1), ("n", 1), ("trees", 1), ("size", 4)):
        value = options.get(name)
        if value is not None and value < least:
            raise ValidationError(f"need {name} >= {least}, got {value}")
    if options.get("suite") == "induction" and cfg.n < 2:  # no fiber level below n = 2
        raise ValidationError(f"need n >= 2 for the induction suite, got {cfg.n}")
    rate = options.get("fence_rate")
    if rate is not None and not 0 <= rate <= 1:
        raise ValidationError(f"need 0 <= fence_rate <= 1, got {rate}")
    if options.get("node_budget") is not None and cfg.node_budget < 1:
        raise ValidationError(f"need a positive node budget, got {cfg.node_budget}")
    if options.get("time_limit") is not None and not cfg.time_limit > 0:
        raise ValidationError(f"need a positive time limit, got {cfg.time_limit}")
    if cfg.max_mem_bytes is not None and cfg.max_mem_bytes <= 0:
        raise ValidationError(f"TD_MAX_MEM must be positive, got {cfg.max_mem_bytes}")
    if options.get("suite") == "kernel" and cfg.seed is None:
        raise ValidationError(f"{cfg.command} is randomized; pass an explicit --seed")


#: pieces of output gathered before one write
_BATCH = 4096


def _emit(pieces: Iterable[str], output: str | None) -> bool:
    """Write ``pieces`` as they come, in batches, then a newline unless
    the output already ends with one; False when stdout's reader left."""

    def write(fh) -> None:
        rest, last = iter(pieces), ""
        for batch in iter(lambda: tuple(itertools.islice(rest, _BATCH)), ()):
            chunk = "".join(batch)
            fh.write(chunk)
            last = chunk or last
        if not last.endswith("\n"):
            fh.write("\n")

    if output is None:
        try:
            write(sys.stdout)
            sys.stdout.flush()
        except BrokenPipeError:
            if sys.stdout is not sys.__stdout__:
                raise  # a stream that a caller put in place is the caller's
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the exit flush
            return False
        return True
    try:
        with open(output, "w", encoding="utf-8") as fh:
            write(fh)
    except OSError as exc:
        raise TdSpaceError(f"cannot write {output!r}: {exc}") from exc
    return True


def _load_evolution(source: str) -> WordEvolution:
    """Evolution from inline JSON, a file path, or ``-`` for stdin."""
    text = source.strip()
    if text == "-":
        text = sys.stdin.read()
    elif not text.startswith("{"):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read evolution file {source!r}: {exc}") from exc
    return parse_evolution(text)


@dataclass
class Result:
    """What one subcommand produced, in every format it offers.

    ``json`` returns the JSON document (an export's JSON text as is) and
    is called only for ``--format json``; ``text`` is the lines of the
    text or DOT form and ``csv`` the header and rows where the command
    offers CSV.  ``words``, whose rows grow as 2^n, and ``induce``
    generate their lines and rows as they are written, and ``export``
    builds its DOT text only as it is written.  A failed cross-check
    exits 3 and prints ``error``, if any, on stderr after the output.
    """

    json: Callable[[], object]
    text: Iterable[str]
    csv: tuple[Iterable[str], Iterable[Iterable[object]]] | None = None
    passed: bool = True
    error: str = ""


def _joined(lines: Iterable[str]) -> Iterator[str]:
    """The pieces of ``"\\n".join(lines)``, one line at a time."""
    sep = ""
    for line in lines:
        yield sep + line
        sep = "\n"


def _render(result: Result, fmt: str) -> Iterable[str]:
    if fmt == "json":
        doc = result.json()
        return [doc] if isinstance(doc, str) else json.JSONEncoder(indent=2).iterencode(doc)
    if fmt == "csv":
        header, rows = result.csv
        return _joined(",".join(map(str, row)) for row in itertools.chain((header,), rows))
    return _joined(result.text)


# ---------------------------------------------------------------------------
# words


def cmd_words(cfg: argparse.Namespace) -> Result:
    n = cfg.n
    _check_depth("word count of", n, WORD_COUNT_MAX_N)  # also caps --enumerate --deep alone
    cap = _depth_cap(cfg, n, ENUMERATION_MAX_N)
    if cfg.enumerate_:  # before the recursion row is built
        _check_depth("word sweep for", n, cap)
    routes: dict[str, dict[int, int]] = {}
    if cfg.recursion or not cfg.enumerate_:
        routes["recursion"] = word_count_row(n)
    if cfg.enumerate_:
        counts = Counter(map(len, _distinct_words(n, cap)))
        routes["enumeration"] = dict(sorted(counts.items()))
    agree = all(row == next(iter(routes.values())) for row in routes.values())
    totals = {route: sum(row.values()) for route, row in routes.items()}

    # A row at n = 20 has about a million lengths: text and CSV are lazy.
    def text() -> Iterator[str]:
        for route, row in routes.items():
            yield f"words after {n} TDs ({route})"
            yield from (f"  length {m:2d}: {count}" for m, count in row.items())
            yield f"  total {totals[route]}"
        if len(routes) > 1:
            yield "routes agree" if agree else "ROUTES DISAGREE"

    def doc() -> dict[str, object]:
        return {
            "command": "words",
            "n": n,
            "routes": {
                route: {"counts": {str(m): c for m, c in row.items()}, "total": totals[route]}
                for route, row in routes.items()
            },
            "agree": agree,
        }

    rows = ((n, route, m, c) for route, row in routes.items() for m, c in row.items())
    return Result(json=doc, text=text(), csv=(("n", "route", "length", "count"), rows),
                  passed=agree, error="word-count routes disagree")


# ---------------------------------------------------------------------------
# count


def cmd_count(cfg: argparse.Namespace) -> Result:
    ev = _load_evolution(cfg.evolution)
    tree = build_2d_tree(ev)
    result = count_extensions_formula(major_graph(tree))
    oracle_value = None
    if cfg.oracle:
        oracle_value = count_extensions_bruteforce(hasse_diagram(tree), budget=cfg.node_budget)

    text = [f"evolution {ev}"]
    text += (f"site={site} factor={factor}" for site, factor in result.factor_trace)
    text.append(result.trace_text())
    if oracle_value is not None:
        verdict = "agrees" if oracle_value == result.value else "DISAGREES"
        text.append(f"oracle {oracle_value} {verdict}")
    return Result(
        json=lambda: {
            "command": "count",
            "steps": [[c.a, c.b] for c in ev.steps],
            "value": result.value,
            "factors": [{"site": site, "factor": f} for site, f in result.factor_trace],
            "oracle": oracle_value,
        },
        text=text,
        passed=oracle_value in (None, result.value),
        error="oracle disagrees with the closed-form count",
    )


# ---------------------------------------------------------------------------
# table


def cmd_table(cfg: argparse.Namespace) -> Result:
    row = tabulate(cfg.n, workers=cfg.workers, deep=cfg.deep, max_mem_bytes=cfg.max_mem_bytes)
    fields = vars(row)  # TableRow's fields, in order
    return Result(
        json=lambda: {"command": "table", **fields},
        text=[
            "n      words      cnvs  td_graphs  evolutions       paths",
            f"{row.n}  {row.words:9d}  {row.cnvs:8d}  {row.td_graphs:9d}  "
            f"{row.evolutions:10d}  {row.paths:10d}",
        ],
        csv=(fields, [fields.values()]),
    )


# ---------------------------------------------------------------------------
# verify


def _evolutions(n_max: int) -> Iterator[WordEvolution]:
    """Every evolution of 1..n_max TDs."""
    for n in range(1, n_max + 1):
        yield from enumerate_word_evolutions(n, max_n=n_max)


def _sweep(units: Iterable, deadline: Deadline, check: Callable[..., tuple[str, str] | None],
           names: Sequence[str], summary: Callable[[int], str]) -> list[CheckResult]:
    """The checks ``names`` over ``units``, checking ``deadline`` before each unit.

    ``check(unit)`` returns ``(name, detail)`` when the check ``name``
    fails on the unit, else None.  Each check keeps the detail of its
    first failure, or passes with ``summary`` of the number of units.
    """
    first: dict[str, str] = {}
    count = 0
    for unit in units:
        deadline.check()
        count += 1
        failed = check(unit)
        if failed is not None:
            first.setdefault(*failed)
    return [CheckResult(name, name not in first, first.get(name, summary(count))) for name in names]


def _suite_structure(cfg: argparse.Namespace, deadline: Deadline) -> list[CheckResult]:
    def check(ev: WordEvolution) -> tuple[str, str] | None:
        tree = build_2d_tree(ev)
        if not validate_structure(tree).ok:
            return "trees-validate", format_evolution(ev)  # not formula-checked
        formula = count_extensions_formula(major_graph(tree)).value
        oracle = count_extensions_bruteforce(hasse_diagram(tree), budget=cfg.node_budget)
        if formula == oracle:
            return None
        return "formula-vs-oracle", f"{format_evolution(ev)}: formula {formula} vs oracle {oracle}"

    names = ("trees-validate", "formula-vs-oracle")
    return _sweep(_evolutions(cfg.n), deadline, check, names, "{} trees".format)


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


def _suite_kernel(cfg: argparse.Namespace, deadline: Deadline) -> list[CheckResult]:
    worked = kernel_profile(_worked_kernel_tree(), budget=cfg.node_budget)
    equal = all(c.equal for c in worked)
    checks = [CheckResult("worked-example", equal,
                          f"all r give {worked[0].rhs}" if equal else "kernel broken")]

    def check(ev: WordEvolution) -> tuple[str, str] | None:
        profile = kernel_profile(build_2d_tree(ev), budget=cfg.node_budget)
        return None if all(c.equal for c in profile) else ("evolution-trees", format_evolution(ev))

    checks += _sweep(_evolutions(cfg.n), deadline, check, ("evolution-trees",), "{} trees".format)
    identities, failures = _random_sweep(cfg, deadline)
    seeds = list(dict.fromkeys(f["seed"] for f in failures))
    detail = f"seeds {seeds[:5]}" if seeds else f"{cfg.trees} trees, {identities} identities"
    checks.append(CheckResult("random-trees", not seeds, detail))
    return checks


def _random_sweep(
    cfg: argparse.Namespace, deadline: Deadline
) -> tuple[int, list[dict[str, object]]]:
    """Validate and kernel-check ``cfg.trees`` seeded random beta trees.

    Tree ``i`` has seed ``seed + i`` and ``4 + i % (size - 3)`` nodes.
    Returns the number of identities checked and one failure record per
    invalid tree or unequal identity, in sweep order.
    """
    seed = cfg.seed
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


def _fiber(ev: WordEvolution, max_n: int) -> tuple[list[tuple[WordEvolution, int]], int, int]:
    """The one-step fiber over ``ev`` with each member's extension count,
    then ``ev``'s own count and the fiber sum the recurrence predicts."""
    members = [(e2, _hook_count(e2)) for e2 in induced_evolutions(ev, max_n=max_n)]
    base_count = _hook_count(ev)
    return members, base_count, base_count * _induction_factor(ev.n)


def _suite_induction(cfg: argparse.Namespace, deadline: Deadline) -> list[CheckResult]:
    induced: Counter[int] = Counter()  # per level: the fiber members so far

    def check(ev: WordEvolution) -> tuple[str, str] | None:
        members, _, predicted = _fiber(ev, cfg.n)
        induced[ev.n] += len(members)
        if sum(value for _, value in members) != predicted:
            return f"fibers-base-{ev.n}", format_evolution(ev)
        return None

    checks: list[CheckResult] = []
    for n in range(1, cfg.n):
        name = f"fibers-base-{n}"
        (level,) = _sweep(enumerate_word_evolutions(n, max_n=cfg.n), deadline, check, [name],
                          lambda bases: f"{bases} bases, {induced[n]} induced")
        total = word_count_total(n + 1)
        if level.passed and induced[n] != total:  # a failing base shows first
            level = CheckResult(name, False, f"fibers cover {induced[n]} of {total} evolutions")
        checks.append(level)
    return checks


def _suite_grand_total(cfg: argparse.Namespace, deadline: Deadline) -> list[CheckResult]:
    if cfg.deep:
        print(f"grand total sweep for n={cfg.n}; this can take minutes", file=sys.stderr)
    deadline.check()
    row = tabulate(
        cfg.n,
        workers=cfg.workers,
        deep=cfg.deep,
        max_mem_bytes=cfg.max_mem_bytes,
        deadline=deadline,
    )
    deadline.check()
    sigma = total_evolutions_via_words(cfg.n, deadline=deadline)
    deadline.check()
    expected = closed_form(cfg.n)
    return [
        CheckResult("simulator-vs-formula", row.evolutions == sigma, f"{row.evolutions} vs {sigma}"),
        CheckResult("formula-vs-closed-form", sigma == expected, f"{sigma} vs {expected}"),
    ]


_SUITES: dict[str, Callable[[argparse.Namespace, Deadline], list[CheckResult]]] = {
    "structure": _suite_structure,
    "kernel": _suite_kernel,
    "induction": _suite_induction,
    "grand-total": _suite_grand_total,
}


def cmd_verify(cfg: argparse.Namespace) -> Result:
    # every suite but the simulator's enumerates evolutions of up to n TDs
    if cfg.suite != "grand-total":
        _check_depth("enumeration of", cfg.n, _depth_cap(cfg, cfg.n, DEFAULT_MAX_N))
    report = StructureReport(_SUITES[cfg.suite](cfg, Deadline(cfg.time_limit)))
    text = [f"suite={cfg.suite}"]
    for c in report.checks:
        status = "pass" if c.passed else "FAIL"
        text.append(f"{status} {c.name} ({c.details})" if c.details else f"{status} {c.name}")
    text.append("suite passed" if report.ok else "suite FAILED")
    return Result(
        json=lambda: {
            "command": "verify",
            "suite": cfg.suite,
            "checks": list(map(vars, report.checks)),
            "passed": report.ok,
        },
        text=text,
        passed=report.ok,
    )


# ---------------------------------------------------------------------------
# export


def cmd_export(cfg: argparse.Namespace) -> Result:
    tree = build_2d_tree(_load_evolution(cfg.evolution))
    if cfg.what == "tree":
        subject, to_dot, to_json = tree, tree_to_dot, tree_to_json
    elif cfg.what == "hasse":
        subject, to_dot, to_json = hasse_diagram(tree), hasse_to_dot, hasse_to_json
    else:
        subject, to_dot, to_json = major_graph(tree), major_to_dot, major_to_json
    return Result(json=lambda: to_json(subject), text=map(to_dot, [subject]))


# ---------------------------------------------------------------------------
# induce


def cmd_induce(cfg: argparse.Namespace) -> Result:
    ev = _load_evolution(cfg.evolution)
    members, base_count, predicted = _fiber(ev, _depth_cap(cfg, ev.n + 1, DEFAULT_MAX_N))
    # each member's JSON entry, which its text line and CSV row read too
    fiber = [
        (e2, dict(steps=[[c.a, c.b] for c in e2.steps], word=word_to_text(e2.terminal_word),
                  nodeset=[str(v) for v in sorted(one_nodeset_of(ev, e2))], count=value))
        for e2, value in members
    ]
    fiber_sum = sum(value for _, value in members)

    def text() -> Iterator[str]:
        yield f"base {ev} (count {base_count})"
        yield f"fiber size {len(fiber)}"
        for e2, m in fiber:
            word, nodeset, value = m["word"], ",".join(m["nodeset"]), m["count"]
            yield f"  {format_evolution(e2)}  word {word}  nodeset {nodeset}  count {value}"
        verdict = "matches" if fiber_sum == predicted else "MISMATCH"
        yield f"fiber sum {fiber_sum} = {base_count} * {_induction_factor(ev.n)} [{verdict}]"

    rows = (
        (format_evolution(e2).replace(",", ";"), m["word"], " ".join(m["nodeset"]), m["count"])
        for e2, m in fiber
    )
    return Result(
        json=lambda: {
            "command": "induce",
            "base": [[c.a, c.b] for c in ev.steps],
            "fiber": [m for _, m in fiber],
            "fiber_sum": fiber_sum,
            "predicted": predicted,
        },
        text=text(),
        csv=(("steps", "word", "nodeset", "count"), rows),
        passed=fiber_sum == predicted,
        error="fiber sum disagrees with the one-step recurrence",
    )


# ---------------------------------------------------------------------------
# beta


def cmd_beta(cfg: argparse.Namespace) -> Result:
    identities, failures = _random_sweep(cfg, Deadline(None))
    passing = cfg.trees - len({f["seed"] for f in failures})
    text = [
        f"seed={cfg.seed} trees={cfg.trees} max-size={cfg.size}",
        f"kernel identity: {passing}/{cfg.trees} trees pass ({identities} identities)",
    ]
    text += (f"  FAIL {f}" for f in failures[:10])
    return Result(
        json=lambda: {
            "command": "beta",
            "seed": cfg.seed,
            "trees": cfg.trees,
            "max_size": cfg.size,
            "identities": identities,
            "failures": failures,
        },
        text=text,
        passed=not failures,
    )


# ---------------------------------------------------------------------------
# argument wiring


class _Parser(argparse.ArgumentParser):
    """argparse exits usage errors with code 2, which here means "budget"."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


#: the subcommands, in the order the help lists them
_COMMANDS = ("words", "count", "table", "verify", "export", "induce", "beta")


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone if it is one:
    an invocation parses one, and building all seven takes 1-2 ms."""
    parser = _Parser(
        prog="tdspace",
        description="Exact enumeration and counting of tandem-duplication evolutions.",
    )
    names = (command,) if command in _COMMANDS else _COMMANDS
    # usage lines name all seven; the full parser's errors say "argument command"
    metavar = "{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    def common(p: argparse.ArgumentParser, run: Callable, formats: Sequence[str]) -> None:
        p.add_argument("--format", choices=formats, default=formats[0], dest="fmt")
        p.add_argument("-o", "--output", default=None, help="write to a file instead of stdout")
        p.set_defaults(run=run)

    def sweep(p: argparse.ArgumentParser, required: bool) -> None:
        """The random-tree options of ``verify`` and ``beta``; ``required`` is for ``--seed``."""
        p.add_argument("--seed", type=int, required=required, help="seed for the random portions")
        p.add_argument("--trees", type=int, default=200, help="random trees in the kernel sweep")
        p.add_argument("--size", type=int, default=12, help="max random-tree size")
        p.add_argument("--fence-rate", type=float, default=FENCE_RATE, dest="fence_rate")
        p.add_argument("--node-budget", type=int, default=SUBTREE_NODE_BUDGET, dest="node_budget")

    if "words" in names:
        p = sub.add_parser("words", help="word counts per length, by recursion and/or enumeration")
        p.add_argument("-n", type=int, default=6, help="number of TDs (default %(default)s)")
        p.add_argument("--recursion", action="store_true", help="use the exact recursion (default)")
        p.add_argument("--enumerate", action="store_true", dest="enumerate_",
                       help="enumerate distinct words (n <= 5 is fast)")
        p.add_argument("--deep", action="store_true", help="lift the enumeration depth budget")
        common(p, cmd_words, ("text", "csv", "json"))

    if "count" in names:
        p = sub.add_parser("count", help="extension count of one evolution, with factor trace")
        p.add_argument("evolution",
                       help='file path, "-" for stdin, or inline {"steps": [[a,b], ...]}')
        p.add_argument("--oracle", action="store_true",
                       help="cross-check against the linear-extension oracle")
        p.add_argument("--node-budget", type=int, default=BRUTEFORCE_NODE_BUDGET,
                       dest="node_budget")
        common(p, cmd_count, ("text", "json"))

    if "table" in names:
        p = sub.add_parser("table", help="distinct words/CNVs/graphs/evolutions after n TDs")
        p.add_argument("-n", type=int, default=4)
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--deep", action="store_true", help="allow n=5 (long; consider TD_MAX_MEM)")
        common(p, cmd_table, ("text", "csv", "json"))

    if "verify" in names:
        p = sub.add_parser("verify", help="run a verification suite")
        p.add_argument("--suite", choices=sorted(_SUITES), required=True)
        p.add_argument("-n", type=int, default=4, help="depth bound (default %(default)s)")
        sweep(p, required=False)
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--time-limit", type=float, default=None, dest="time_limit",
                       help="seconds; exceeded sweeps exit with code 2")
        p.add_argument("--deep", action="store_true")
        common(p, cmd_verify, ("text", "json"))

    if "export" in names:
        p = sub.add_parser("export", help="evolution structures as DOT or JSON")
        p.add_argument("evolution")
        p.add_argument("--what", choices=("tree", "hasse", "major"), default="tree")
        common(p, cmd_export, ("dot", "json"))

    if "induce" in names:
        p = sub.add_parser("induce", help="list the one-step fiber over an evolution")
        p.add_argument("evolution")
        p.add_argument("--deep", action="store_true", help="lift the default depth budget")
        common(p, cmd_induce, ("text", "csv", "json"))

    if "beta" in names:
        p = sub.add_parser("beta", help="kernel-identity sweep over random two-trees")
        sweep(p, required=True)
        common(p, cmd_beta, ("text", "json"))

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    cfg = _build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        _validate(cfg)
        result = cfg.run(cfg)
        if not _emit(_render(result, cfg.fmt), cfg.output):
            return EXIT_ERROR
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except TdSpaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a collision of derivations is a failed cross-check
        return EXIT_MISMATCH if isinstance(exc, DerivationCollisionError) else EXIT_ERROR
    if not result.passed and result.error:
        print(result.error, file=sys.stderr)
    return EXIT_OK if result.passed else EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
