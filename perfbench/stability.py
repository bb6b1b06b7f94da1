"""Stability check: two sets of runs of the same code, compared against the
bounds in BENCHMARK.json.

    python3 perfbench/stability.py

Each set runs every workload in BENCHMARK.json once per seed 1..10 for
its `run_seconds`, one run at a time.  For every workload and end-to-end
metric it prints each set's median and quartile spread ((q3 - q1) /
median, from statistics.quantiles(n=4)) and how far the second set's
median moved from the first's in the metric's worse direction.  It passes
when every run is correct, every spread stays within the metric's bound,
no median worsens by more than the bound, the share of failed ops is the
same in every run, and the exact counters (EXACT) give each seed the same
value in both sets.  Results go to perfbench/out/stability.json.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
SEEDS = range(1, 11)
EXACT = ("apps_per_op", "probes_per_op")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    *_, ref_line, result = proc.stdout.strip().splitlines()
    out = json.loads(result)
    out["ref_loop_ms"] = float(ref_line.split()[1])
    return out


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    results = {}          # workload -> [set] -> [run result, one per seed]
    for s in range(SETS):
        for wl in (w["name"] for w in spec["workloads"]):
            for seed in SEEDS:
                r = run_once(wl, seed, spec["run_seconds"])
                results.setdefault(wl, [[] for _ in range(SETS)])[s].append(r)
                print(f"set {s + 1} {wl} seed {seed}: correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']}", flush=True)

    ok = True
    report = {}
    for wl, sets in results.items():
        fail_share = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        correct = all(r["correct"] for runs in sets for r in runs)
        ok &= correct and len(fail_share) == 1
        ref_ms = [statistics.median(r["ref_loop_ms"] for r in runs) for runs in sets]
        print(f"\n{wl}: correct={correct} failed shares={sorted(fail_share)} "
              "machine.ref_loop_ms medians " + " ".join(f"{m:.2f}" for m in ref_ms))
        report[wl] = {"correct": correct, "failed_share": sorted(fail_share),
                      "ref_loop_ms": ref_ms}
        for name, m in bounds.items():
            vals = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            meds = [statistics.median(v) for v in vals]
            spreads = [spread(v) for v in vals]
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (meds[-1] - meds[0]) / meds[0]
            good = worse <= m["bound"] and max(spreads) <= m["bound"]
            if name in EXACT:
                # Per seed, not just per median: the counters must not
                # depend on timing or on the process's hash seed.
                good &= all(len(set(per_seed)) == 1 for per_seed in zip(*vals))
            ok &= good
            print(f"  {name:14s} " + "  ".join(
                f"med {md:.6g} spread {sp:.3f}" for md, sp in zip(meds, spreads))
                + f"  worse {worse:+.3f}  bound {m['bound']}"
                + ("" if good else "  FAIL"))
            report[wl][name] = {"medians": meds, "spreads": spreads,
                                "worse": worse, "values": vals}
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "stability.json").write_text(json.dumps(report, indent=1))
    print("\nstability:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
