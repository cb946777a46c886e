"""Benchmark for tdspace: four exact-count workloads, timed end to end and traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: simulate-n4, derivations-n5, kernel-sweep, words-cli (see
perfbench/README.md).  The package is imported from ``src/`` of the same
checkout; without it the run exits 2 and prints no result.

``--trace 0`` repeats full passes of the workload until ``--seconds`` have
passed (at least one pass) and reports the end-to-end metrics named in
BENCHMARK.json.  ``--trace 1`` runs one untraced and one traced pass and
reports the per-layer metrics; it writes the spans to perfbench/.out/.
Either way the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a human summary
goes to stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from contextlib import ExitStack
from pathlib import Path
from time import perf_counter, process_time

from speed import SpeedProbe, local_scaler, scale
from tracer import LAYERS, NullTracer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"

#: Set-up (import plus input generation) is repeated for at least this long and
#: at least SETUP_REPEATS times; the median is reported.
SETUP_SECONDS = 1.0
SETUP_REPEATS = 5
#: Traced self times of the layers must cover at least this share of the traced pass.
COVERAGE_FLOOR = 0.9

#: per-layer metric -> span or aggregate name whose self time it reports
SELF_TIME_METRICS = {
    "words.enumerate.s": "words.enumerate",
    "words.count_row.s": "words.count_row",
    "words.distinct.s": "words.distinct",
    "structure.build_2d_tree.s": "structure.build_2d_tree",
    "structure.validate_structure.s": "structure.validate_structure",
    "structure.major_graph.s": "structure.major_graph",
    "structure.hasse_diagram.s": "structure.hasse_diagram",
    "extensions.formula.s": "extensions.formula",
    "extensions.oracle.s": "extensions.oracle",
    "beta.two_tree_count.s": "beta.two_tree_count",
    "beta.enumerate_beta_subtrees.s": "beta.enumerate_beta_subtrees",
    "beta.induced_tree.s": "beta.induced_tree",
    "beta.kernel_profile.s": "beta.kernel_profile",
    "beta.validate_beta_tree.s": "beta.validate_beta_tree",
    "beta.induced_evolutions.s": "beta.induced_evolutions",
    "beta.one_nodeset_of.s": "beta.one_nodeset_of",
    "cli.render.s": "cli.main",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_workloads():
    """Import the package from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "tdspace" / "__init__.py").is_file():
        raise ImportError(f"no tdspace package under {SRC}")
    sys.path.insert(0, str(SRC))
    import tdspace

    if Path(tdspace.__file__).resolve().parent != SRC / "tdspace":
        raise ImportError(f"tdspace imported from {tdspace.__file__}, not from {SRC}")
    import workloads

    return workloads


def set_up(cls, seed, speed):
    """Median over repeats of import plus input generation, in reference
    seconds; returns the last workload."""
    times = []
    with speed.sampling() as samples:
        while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
            for name in [m for m in sys.modules if m == "tdspace" or m.startswith("tdspace.")]:
                del sys.modules[name]
            start = speed.clock()
            workload = cls(seed)
            times.append(speed.clock() - start)
    factor = scale(samples)
    return workload, [t * factor for t in times]


def measure(workloads, workload, tr, speed):
    """One pass; wall and CPU time exclude the speed probe's own time."""
    p = workloads.Pass(clock=speed.clock)
    gc.collect()
    with speed.sampling() as samples:
        cpu, wall = process_time() - speed.spent, speed.clock()
        with tr.span("bench.pass"):
            workload.run_pass(tr, p)
        p.wall = speed.clock() - wall
        p.cpu = process_time() - speed.spent - cpu
    p.scale = scale(samples)
    local = local_scaler(samples)
    p.latencies = [seconds * local(start, seconds) for start, seconds in p.latencies]
    return p


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def timed_run(workloads, workload, speed, seconds):
    tr = NullTracer()
    passes = []
    deadline = perf_counter() + seconds
    while True:
        passes.append(measure(workloads, workload, tr, speed))
        if perf_counter() >= deadline:
            break
    workload.finish(passes)
    latencies = sorted(x for p in passes for x in p.latencies)
    metrics = {
        "wall_s": statistics.median(p.wall * p.scale for p in passes),
        "cpu_s": statistics.median(p.cpu * p.scale for p in passes),
        "units_per_s": statistics.median(p.units / (p.wall * p.scale) for p in passes),
        "unit_p50_ms": statistics.median(latencies) * 1e3,
        "unit_p99_ms": percentile(latencies, 99) * 1e3,
    }
    summary = {
        "passes": len(passes),
        "raw_wall_s": [p.wall for p in passes],
        "raw_cpu_s": [p.cpu for p in passes],
        "speed_scale": [p.scale for p in passes],
        "latency_samples": len(latencies),
        "units_per_pass": passes[0].units,
    }
    return passes, metrics, summary


def traced_run(workloads, workload, speed, key):
    untraced = measure(workloads, workload, NullTracer(), speed)
    tr = Tracer(speed.clock)
    with ExitStack() as stack:
        for module, attr, name, on_result in workload.hot_patches(tr):
            stack.enter_context(tr.patch(module, attr, name, on_result))
        traced = measure(workloads, workload, tr, speed)
    extra = workload.probes(tr, speed, untraced, traced)

    selfs = {name: t * traced.scale for name, t in tr.self_times().items()}
    layer_selfs = {layer: t * traced.scale for layer, t in tr.layer_self_times().items()}
    metrics = {metric: selfs.get(name, 0.0) for metric, name in SELF_TIME_METRICS.items()}
    metrics.update({f"{layer}.self_s": layer_selfs[layer] for layer in LAYERS})
    metrics.update(
        {
            "simulator.walk.s": 0.0,
            "simulator.record.s": 0.0,
            "simulator.dedup.s": 0.0,
            "simulator.distinct_ratio": 0.0,
            "simulator.shard_speedup": 0.0,
            "simulator.apply_td.calls": tr.agg_calls.get("simulator.apply_td", 0),
            "beta.subtrees": tr.counters.get("beta.subtrees", 0),
            "beta.fiber_members": tr.counters.get("beta.fiber_members", 0),
            "trace.overhead_s": traced.wall * traced.scale - untraced.wall * untraced.scale,
            "trace.coverage": sum(layer_selfs.values()) / (traced.wall * traced.scale),
        }
    )
    metrics.update(extra)
    summary = {
        "raw_wall_s": [untraced.wall, traced.wall],
        "speed_scale": [untraced.scale, traced.scale],
        "spans": len(tr.spans),
        "coverage_floor": COVERAGE_FLOOR,
    }
    if metrics["trace.coverage"] < COVERAGE_FLOOR:
        print(
            f"warning: layer self times cover {metrics['trace.coverage']:.3f} of the traced "
            f"pass, below {COVERAGE_FLOOR}",
            file=sys.stderr,
        )
    OUT.mkdir(exist_ok=True)
    tr.dump(OUT / f"{key}.spans.json", {"workload": workload.name, "seed": workload.seed})
    if workload.probe_tracer is not None:
        workload.probe_tracer.dump(OUT / f"{key}.probe-spans.json", {"workload": workload.name})
    return [untraced, traced], metrics, summary


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        workloads = import_workloads()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    speed = SpeedProbe()
    workload, setup_times = set_up(cls, args.seed, speed)
    key = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        passes, metrics, summary = traced_run(workloads, workload, speed, key)
        wanted = spec["per_layer"]
    else:
        passes, metrics, summary = timed_run(workloads, workload, speed, args.seconds)
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wanted = spec["end_to_end"]

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    summary.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "unit": workload.unit,
            "setup_repeats": len(setup_times),
            "failed_ratio": failed / attempted,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "errors": [e for p in passes for e in p.errors][:5],
        }
    )
    print(json.dumps(summary), file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
