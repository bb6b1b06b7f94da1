"""Benchmark of the rooted graph-rewriting engine and its BST program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the engine is imported from its
`src/` directory.  One workload per process.  The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
run measures untraced for half the time and traced for the other half,
and the metrics are the per-layer ones (see perfbench/README.md).
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
WORKLOAD_NAMES = ("chain-descent", "random-mixed", "faithful-stale-roots",
                  "check-battery")
SETUP_REPS = 7


def ref_loop_ms() -> float:
    """A fixed pure-Python loop; its time tracks the machine, not the code."""
    t0 = perf_counter_ns()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return (perf_counter_ns() - t0) / 1e6


def percentile(values, pct):
    """Nearest-rank percentile of the sorted list `values`."""
    idx = max(0, -(-len(values) * pct // 100) - 1)
    return values[int(idx)]


def set_up(wl_cls, seed):
    """Set the workload up SETUP_REPS times; returns the last instance and
    the median set-up time in seconds."""
    times = []
    for _ in range(SETUP_REPS):
        wl = wl_cls()
        t0 = perf_counter()
        wl.setup(seed)
        times.append(perf_counter() - t0)
    return wl, statistics.median(times)


def measure(wl, seconds, tally, min_samples=0):
    """Whole rounds until `seconds` have passed and at least `min_samples`
    per-op times are in."""
    end = perf_counter() + seconds
    wl.round(tally)
    # Every round repeats the same work, so the engine's peak memory is
    # reached in the first; later rounds only add per-op samples, whose
    # number depends on the machine's speed.
    tally.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    while perf_counter() < end or len(tally.samples) < min_samples:
        wl.round(tally)


def end_to_end(wl, tally, setup_s):
    samples = sorted(tally.samples)
    ops = tally.completed
    probes = tally.anchors + tally.extensions
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops / (tally.timed_ns / 1e9), "1/s"),
        "op_p50_us": (statistics.median(samples) / 1e3, "us"),
        "op_tail_us": (percentile(samples, wl.tail_pct) / 1e3, "us"),
        "ns_per_app": (tally.engine_ns / tally.applications, "ns"),
        "peak_rss_mb": (tally.peak_rss_kb / 1024, "MB"),
        "apps_per_op": (tally.applications / ops, "count"),
        "probes_per_op": (probes / ops, "count"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "rootedgp" / "__init__.py").is_file():
        print(f"perfbench: no engine sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Tally

    ref_ms = [ref_loop_ms() for _ in range(3)]
    wl, setup_s = set_up(WORKLOADS[args.workload], args.seed)
    wl.prepare()
    # The benchmark's own set-up objects (program, inputs, reference) are
    # moved out of the collector's reach; what the engine allocates while
    # it runs is still collected as usual, inside the timed sections.
    gc.collect()
    gc.freeze()

    plain = Tally()
    if args.trace:
        measure(wl, args.seconds / 2, plain)
    else:
        # Enough samples that ten lie beyond the reported tail percentile.
        measure(wl, args.seconds, plain, wl.min_samples)
    tallies = [plain]
    if args.trace:
        from tracing import Tracer, layer_metrics
        tracer = Tracer()
        tracer.install()
        traced_wl = WORKLOADS[args.workload]()
        traced_wl.setup(args.seed)
        traced_wl.prepare()
        gc.collect()
        gc.freeze()
        traced = Tally()
        measure(traced_wl, args.seconds / 2, traced)
        tracer.uninstall()
        tallies.append(traced)
    ref_ms += [ref_loop_ms() for _ in range(3)]

    problems = [p for t in tallies for p in t.problems]
    for p in problems[:20]:
        print(f"perfbench: {args.workload}: {p}", file=sys.stderr)
    ref = statistics.median(ref_ms)
    print(f"machine.ref_loop_ms {ref:.3f} (before {min(ref_ms[:3]):.3f}, "
          f"after {min(ref_ms[3:]):.3f})")
    if args.trace:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        metrics = layer_metrics(tracer, traced)
        metrics["machine.ref_loop_ms"] = (ref, "ms")
        overhead = (traced.completed / traced.timed_ns) / (plain.completed / plain.timed_ns)
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
    else:
        metrics = end_to_end(wl, plain, setup_s)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
