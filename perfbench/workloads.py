"""The four benchmark workloads.

Each drives the public tdspace API from outside as a closed loop: one
caller, each unit of work starting after the previous one ends.  A
workload object holds its generated inputs (``__init__`` is the set-up
that ``setup_s`` times), runs one full pass of its sweep with
``run_pass`` and checks every exact number it produces; a failed check
or an exception counts as one failed operation and the sweep goes on.

The tracer argument is a ``tracer.NullTracer`` in timed runs and a
``tracer.Tracer`` in the traced run; ``hot_patches`` lists the module
attributes the traced run aggregates, and ``probes`` runs the extra
traced-only measurements (only ``simulate-n4`` has any).
"""

from __future__ import annotations

import gc
import importlib
import io
import random
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

from speed import scale
from tracer import Tracer

GOLDENS = Path(__file__).resolve().parent / "goldens"

#: ``word_count_total(n)`` for n = 1..11, frozen from the recursion at the
#: commit that introduced this benchmark.
WORD_TOTALS = [
    1,
    3,
    22,
    377,
    15315,
    1539281,
    404159937,
    292844271366,
    614842963688234,
    3894850463895877919,
    76893607589061562737682,
]


class Mismatch(Exception):
    """An exact number or output differs from its expected value."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


@dataclass
class Pass:
    """One pass over a workload: its timings and its checked operations."""

    units: int = 0
    latencies: list = field(default_factory=list)  # (start, seconds) per unit
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    clock: Callable[[], float] = perf_counter
    wall: float = 0.0
    cpu: float = 0.0
    scale: float = 1.0  # reference-speed factor of this pass (speed.scale)

    def unit_done(self, start: float) -> None:
        self.latencies.append((start, self.clock() - start))

    @contextmanager
    def op(self, what: str, subject=""):
        """One checked operation: any exception inside marks it failed."""
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # every program failure is counted, the sweep goes on
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{what} {subject}: {exc!r}")


class Workload:
    name = ""
    unit = ""  # what units_per_s counts

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.words = importlib.import_module("tdspace.words")
        self.structure = importlib.import_module("tdspace.structure")
        self.extensions = importlib.import_module("tdspace.extensions")
        self.simulator = importlib.import_module("tdspace.simulator")
        self.beta = importlib.import_module("tdspace.beta")

    def run_pass(self, tr, p: Pass) -> None:
        raise NotImplementedError

    def hot_patches(self, tr) -> list:
        return []

    def finish(self, passes: list) -> None:
        """Work after the timed passes (not timed), e.g. counting units."""

    def probes(self, tr, speed, untraced: Pass, traced: Pass) -> dict:
        return {}

    probe_tracer = None  # set by probes that trace on their own


# ---------------------------------------------------------------------------


class SimulateN4(Workload):
    name = "simulate-n4"
    unit = "simulator path; latency percentiles are per whole table command"
    ROW = (377, 27839, 37572, 154869)
    row = None  # the last table row, kept for the traced probes

    def run_pass(self, tr, p: Pass) -> None:
        sim = self.simulator
        with p.op("tabulate(4)"):
            start = p.clock()
            row = tr.call("simulator.tabulate", sim.tabulate, 4, workers=1)
            p.unit_done(start)
            self.row = row
            got = (row.words, row.cnvs, row.td_graphs, row.evolutions)
            expect(got == self.ROW, f"table row {got} != {self.ROW}")
            expected = self.beta.closed_form(4)
            expect(
                row.paths == row.evolutions == expected,
                f"paths {row.paths}, evolutions {row.evolutions}, closed form {expected}",
            )
            p.units += row.paths

    def hot_patches(self, tr) -> list:
        return [(self.simulator, "apply_td", "simulator.apply_td", None)]

    def _replay_walk(self, n: int) -> int:
        """The walk of ``enumerate_process`` without building records."""
        sim = self.simulator
        leaves = 0

        def walk(state, depth: int) -> None:
            nonlocal leaves
            if depth == n:
                leaves += 1
                return
            for choice in sim.enumerate_choices(state):
                walk(sim.apply_td(state, choice), depth + 1)

        walk(sim.apply_td(sim.initial_state(), sim.TdChoice(0, 0, None)), 1)
        return leaves

    def probes(self, tr, speed, untraced: Pass, traced: Pass) -> dict:
        """Split ``tabulate`` into walk, record and dedup by subtraction.

        record = drained ``enumerate_process`` - replayed walk, and
        dedup = ``tabulate`` - drained ``enumerate_process``.  The probes
        carry the same ``apply_td`` wrapper as the traced ``tabulate`` so
        that its cost cancels.  Also times ``tabulate(4, workers=2)``.
        All times are in reference seconds.
        """
        if self.row is None:  # tabulate failed; the failure is already counted
            return {}
        sim = self.simulator
        paths = self.ROW[3]
        probe = self.probe_tracer = Tracer(speed.clock)
        with probe.patch(sim, "apply_td", "simulator.apply_td"):
            with traced.op("enumerate_process(4)"), speed.sampling() as samples:
                with probe.span("simulator.enumerate_process"):
                    drained = sum(1 for _ in sim.enumerate_process(4))
                expect(drained == paths, f"enumerate_process yielded {drained} records")
            enumerate_s = probe.duration("simulator.enumerate_process") * scale(samples)
            with traced.op("replayed walk"), speed.sampling() as samples:
                with probe.span("simulator.walk"):
                    leaves = self._replay_walk(4)
                expect(leaves == paths, f"replayed walk reached {leaves} leaves")
            walk_s = probe.duration("simulator.walk") * scale(samples)
        tabulate_s = tr.duration("simulator.tabulate") * traced.scale
        stages = {
            "simulator.walk.s": walk_s,
            "simulator.record.s": enumerate_s - walk_s,
            "simulator.dedup.s": tabulate_s - enumerate_s,
        }
        # Calibrating during the fan-out would share a core with a worker,
        # so the speed is sampled only just before and after it.
        with traced.op("tabulate(4, workers=2)"), speed.sampling(interval=0) as samples:
            start = speed.clock()
            row2 = sim.tabulate(4, workers=2)
            sharded_s = (speed.clock() - start) * scale(samples)
            expect(row2 == self.row, f"2-worker row {row2} != {self.row}")
        row = self.row
        return {
            **stages,
            "simulator.distinct_ratio": row.evolutions / row.paths,
            "simulator.shard_speedup": untraced.wall * untraced.scale / sharded_s,
            "trace.coverage": sum(max(v, 0.0) for v in stages.values()) / tabulate_s,
        }


# ---------------------------------------------------------------------------


class DerivationsN5(Workload):
    name = "derivations-n5"
    unit = "derivation"
    DERIVATIONS = 15315
    BASES = 377

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = random.Random(seed)
        self.order = rng.sample(range(self.DERIVATIONS), self.DERIVATIONS)
        self.base_order = rng.sample(range(self.BASES), self.BASES)

    def _count(self, tr, ev) -> int:
        s, e = self.structure, self.extensions
        tree = tr.call("structure.build_2d_tree", s.build_2d_tree, ev)
        graph = tr.call("structure.major_graph", s.major_graph, tree)
        return tr.call("extensions.formula", e.count_extensions_formula, graph).value

    def run_pass(self, tr, p: Pass) -> None:
        w, s, e, b = self.words, self.structure, self.extensions, self.beta
        evs = tr.call("words.enumerate", list, w.enumerate_word_evolutions(5))
        bases = tr.call("words.enumerate", list, w.enumerate_word_evolutions(4))
        with p.op("level sizes"):
            expect(len(evs) == self.DERIVATIONS, f"{len(evs)} derivations at n=5")
            expect(len(bases) == self.BASES, f"{len(bases)} derivations at n=4")

        counts: dict = {}
        for i in self.order:
            ev = evs[i]
            with p.op("derivation", ev.steps):
                start = p.clock()
                with tr.span("bench.derivation"):
                    tree = tr.call("structure.build_2d_tree", s.build_2d_tree, ev)
                    report = tr.call("structure.validate_structure", s.validate_structure, tree)
                    graph = tr.call("structure.major_graph", s.major_graph, tree)
                    value = tr.call("extensions.formula", e.count_extensions_formula, graph).value
                    hasse = tr.call("structure.hasse_diagram", s.hasse_diagram, tree)
                    oracle = tr.call("extensions.oracle", e.count_extensions_bruteforce, hasse)
                p.unit_done(start)
                p.units += 1
                expect(report.ok, f"validate_structure failed: {report.failures()[:1]}")
                expect(value == oracle, f"formula {value} != oracle {oracle}")
                counts[ev.steps] = value
        with p.op("sum over n=5"):
            total, expected = sum(counts.values()), b.closed_form(5)
            expect(total == expected, f"sum {total} != closed form {expected}")

        factor = b.closed_form(5) // b.closed_form(4)
        covered: list = []
        for j in self.base_order:
            base = bases[j]
            with p.op("fiber over", base.steps):
                with tr.span("bench.fiber"):
                    fiber = tr.call("beta.induced_evolutions", b.induced_evolutions, base)
                    for member in fiber:
                        tr.call("beta.one_nodeset_of", b.one_nodeset_of, base, member)
                    base_count = self._count(tr, base)
                tr.count("beta.fiber_members", len(fiber))
                members = [m.steps for m in fiber]
                covered.extend(members)
                fiber_sum = sum(counts[m] for m in members)
                expect(
                    fiber_sum == base_count * factor,
                    f"fiber sum {fiber_sum} != {base_count} * {factor}",
                )
        with p.op("fiber partition"):
            expect(len(covered) == len(set(covered)), "a derivation lies in two fibers")
            expect(set(covered) == set(counts), f"fibers cover {len(set(covered))} derivations")


# ---------------------------------------------------------------------------


class KernelSweep(Workload):
    name = "kernel-sweep"
    unit = "beta subtree enumerated; latency percentiles are per tree"
    TREES = 1000
    MAX_SIZE = 16

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        span = self.MAX_SIZE - 3
        self.trees = [
            self.beta.random_beta_tree(seed + i, 4 + i % span) for i in range(self.TREES)
        ]

    def run_pass(self, tr, p: Pass) -> None:
        b = self.beta
        for i, tree in enumerate(self.trees):
            with p.op("tree seed", self.seed + i):
                start = p.clock()
                with tr.span("bench.tree"):
                    report = tr.call("beta.validate_beta_tree", b.validate_beta_tree, tree)
                    expect(report.ok, f"validate_beta_tree failed: {report.failures()[:1]}")
                    profile = tr.call("beta.kernel_profile", b.kernel_profile, tree)
                p.unit_done(start)
                expect(len(profile) == len(tree.nodes) - 1, f"{len(profile)} kernel sizes")
                bad = [c for c in profile if not c.equal]
                expect(not bad, f"kernel identity fails: {bad[:1]}")

    def hot_patches(self, tr) -> list:
        b = self.beta
        return [
            (b, "enumerate_beta_subtrees", "beta.enumerate_beta_subtrees",
             lambda result: tr.count("beta.subtrees", len(result))),
            (b, "induced_tree", "beta.induced_tree", None),
            (b, "two_tree_count", "beta.two_tree_count", None),
        ]

    def finish(self, passes: list) -> None:
        subtrees = sum(len(self.beta.enumerate_beta_subtrees(t)) for t in self.trees)
        for p in passes:
            p.units = subtrees


# ---------------------------------------------------------------------------

EVOLUTION_540 = '{"steps":[[1,1],[1,0],[2,3]]}'

#: (golden file, argv); each golden is the command's stdout at the commit
#: that introduced this benchmark.
COMMANDS = [
    ("words-n11.json", ["words", "-n", "11", "--format", "json"]),
    ("words-n5.csv", ["words", "-n", "5", "--enumerate", "--recursion", "--format", "csv"]),
    ("count.json", ["count", EVOLUTION_540, "--oracle", "--format", "json"]),
    ("induce.json", ["induce", EVOLUTION_540, "--format", "json"]),
    ("export-hasse.dot", ["export", EVOLUTION_540, "--what", "hasse"]),
]


class WordsCli(Workload):
    name = "words-cli"
    unit = "CLI command; latency percentiles are per session of the five commands"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.cli = importlib.import_module("tdspace.cli")
        commands = [(name, argv, (GOLDENS / name).read_bytes()) for name, argv in COMMANDS]
        self.commands = random.Random(seed).sample(commands, len(commands))

    def _start_cold(self) -> None:
        """Each CLI invocation is a fresh process, so every command starts
        with an empty word cache and no garbage left by the one before."""
        cache_info = getattr(self.words.word_count_recursion, "cache_info", None)
        if cache_info is not None:
            self.words.word_count_recursion.cache_clear()
            held = cache_info().currsize
            expect(held == 0, f"word cache holds {held} entries before the command")
        gc.collect()

    def run_pass(self, tr, p: Pass) -> None:
        # Commands take from 1 ms to seconds, so a median over commands is
        # just the latency of whichever sits in the middle; the latency
        # sample is the whole session instead.
        session = p.clock()
        for name, argv, golden in self.commands:
            with p.op("tdspace", " ".join(argv)):
                self._start_cold()
                out = io.StringIO()
                with redirect_stdout(out):
                    code = tr.call("cli.main", self.cli.main, argv)
                p.units += 1
                expect(code == 0, f"exit code {code}")
                expect(out.getvalue().encode("utf-8") == golden, f"stdout differs from {name}")
            if name == "words-n11.json":
                with p.op("word totals n <= 11"):
                    totals = [
                        tr.call("words.count_total", self.words.word_count_total, n)
                        for n in range(1, 12)
                    ]
                    expect(totals == WORD_TOTALS, f"word totals {totals}")
        p.unit_done(session)

    def hot_patches(self, tr) -> list:
        c = self.cli
        names = {
            "parse_evolution": "words.parse_evolution",
            "word_count_row": "words.count_row",
            "distinct_words": "words.distinct",
            "build_2d_tree": "structure.build_2d_tree",
            "major_graph": "structure.major_graph",
            "hasse_diagram": "structure.hasse_diagram",
            "hasse_to_dot": "structure.hasse_to_dot",
            "count_extensions_formula": "extensions.formula",
            "count_extensions_bruteforce": "extensions.oracle",
            "induced_evolutions": "beta.induced_evolutions",
            "one_nodeset_of": "beta.one_nodeset_of",
        }
        return [(c, attr, name, None) for attr, name in names.items()]


WORKLOADS = {w.name: w for w in (SimulateN4, DerivationsN5, KernelSweep, WordsCli)}
