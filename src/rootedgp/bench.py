"""Benchmark harness: degenerate per-op timings, balanced triple-op
timings, exact rule-application counters, and a CSV scaling report.

Counters are the primary signal (deterministic, machine-independent);
wall-clock means over repeated runs are the secondary one.  Per measured
operation the prefix tree is built once and every repetition runs on a
fresh copy, so a deletion is never contaminated by re-insertion.  Prefix
trees are constructed directly as host graphs; building them through the
program itself would cost a quadratic number of rule applications and
tests confirm the construction matches what the program produces.
Measured operations do run through the program, using a variant whose
Main omits the green-node setup since the prefix graph already has one.
"""
from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

from .bst import program
from .hostgraph import HostGraph
from .interp import Call, Program, Seq, Status, run
from .rules import MatchStats
from .text import Op, append_instructions

CSV_HEADER = "shape,n,op,reps,mean_ns,stddev_ns,rule_apps,anchors_tried"

DEGENERATE_OPS = ("insert", "search", "delete")


@dataclass
class BenchRow:
    shape: str          # "degenerate" or "balanced"
    n: int              # tree size in nodes
    op: str             # "insert" | "search" | "delete" | "triple"
    reps: int
    mean_ns: int
    stddev_ns: int
    rule_apps: int
    anchors_tried: int

    def csv(self) -> str:
        return (f"{self.shape},{self.n},{self.op},{self.reps},"
                f"{self.mean_ns},{self.stddev_ns},{self.rule_apps},{self.anchors_tried}")


def gen_degenerate(n: int) -> list:
    """Prefix inserting keys 1..n ascending: a right-spine chain."""
    if n < 1:
        raise ValueError("need n >= 1")
    return [Op("i", k) for k in range(1, n + 1)]


def gen_balanced(h: int) -> list:
    """Prefix inserting the 2^h - 1 keys of a perfect tree level by level."""
    if h < 1:
        raise ValueError("need h >= 1")
    ops = []
    queue = [(1, 2 ** h - 1)]
    while queue:
        lo, hi = queue.pop(0)
        if lo > hi:
            continue
        mid = (lo + hi) // 2
        ops.append(Op("i", mid))
        queue.append((lo, mid - 1))
        queue.append((mid + 1, hi))
    return ops


def build_degenerate_graph(n: int) -> HostGraph:
    """The graph the program would leave after gen_degenerate(n): a green
    node pointing at a grey right-spine chain keyed 1..n."""
    g = HostGraph()
    green = g.add_node((), "green")
    prev = green
    for k in range(1, n + 1):
        nid = g.add_node((k,), "grey")
        g.add_edge(prev, nid)
        prev = nid
    return g


def build_balanced_graph(h: int) -> HostGraph:
    """Perfect grey tree of height h keyed 1..2^h-1, hanging off a green
    node; nodes and edges created in level order, left before right."""
    g = HostGraph()
    green = g.add_node((), "green")
    queue = [(green, 1, 2 ** h - 1)]
    while queue:
        parent, lo, hi = queue.pop(0)
        if lo > hi:
            continue
        mid = (lo + hi) // 2
        nid = g.add_node((mid,), "grey")
        g.add_edge(parent, nid)
        queue.append((nid, lo, mid - 1))
        queue.append((nid, mid + 1, hi))
    return g


def measured_ops(shape: str, size: int, op: str) -> list:
    """The instruction script for one measured repetition.

    Degenerate trees hold keys 1..n, so insert targets n+1 and search and
    delete target n, the deepest node.  Balanced trees hold 1..2^h-1 and
    the triple inserts key 0 below the leftmost deepest leaf, searches
    it, and deletes it again.
    """
    if shape == "degenerate":
        n = size
        if op == "insert":
            return [Op("i", n + 1)]
        if op == "search":
            return [Op("s", n)]
        if op == "delete":
            return [Op("d", n)]
        raise ValueError(f"unknown degenerate op {op!r}")
    if shape == "balanced":
        if op != "triple":
            raise ValueError(f"unknown balanced op {op!r}")
        return [Op("i", 0), Op("s", 0), Op("d", 0)]
    raise ValueError(f"unknown shape {shape!r}")


_measure_programs: dict = {}


def measurement_program(variant: str = "sanitized") -> Program:
    """The program minus its green-node setup, for graphs that already
    carry a green node and a tree."""
    prog = _measure_programs.get(variant)
    if prog is None:
        base = program(variant)
        main = base.procs["Main"]
        assert isinstance(main, Seq) and main.parts[0] == Call("make_root")
        parts = main.parts[1:]
        new_main = parts[0] if len(parts) == 1 else Seq(parts)
        prog = Program(dict(base.rules), {**base.procs, "Main": new_main})
        prog.warnings = []
        _measure_programs[variant] = prog
    return prog


def run_measured(base: HostGraph, ops, variant: str = "sanitized"):
    """Clone the base graph, append the instruction list, run the
    measurement program.  Returns (status, stats, elapsed_ns); only the
    run itself is timed."""
    g = append_instructions(base.clone(), ops)
    prog = measurement_program(variant)
    stats = MatchStats()
    t0 = time.perf_counter_ns()
    status = run(prog, g, stats=stats)
    elapsed = time.perf_counter_ns() - t0
    return status, stats, elapsed


def _base_graph(shape: str, size: int) -> HostGraph:
    if shape == "degenerate":
        return build_degenerate_graph(size)
    return build_balanced_graph(size)


def measure(shape: str, sizes, reps: int = 300,
            variant: str = "sanitized") -> list:
    """Benchmark rows for each size and operation.

    For the degenerate shape `sizes` are node counts; for the balanced
    shape they are tree heights (a height h reports n = 2^h - 1).
    Counters must agree across repetitions; that determinism is asserted.
    """
    if reps < 1:
        raise ValueError("need reps >= 1")
    rows = []
    ops_per_shape = DEGENERATE_OPS if shape == "degenerate" else ("triple",)
    # A program's first run compiles its control together with the
    # appliers, probes and loop functions the control calls; run it once
    # on a throwaway graph, so no timed run pays for compiling.
    run(measurement_program(variant), HostGraph())
    for size in sizes:
        base = _base_graph(shape, size)
        n = size if shape == "degenerate" else 2 ** size - 1
        for op in ops_per_shape:
            script = measured_ops(shape, size, op)
            samples = []
            first_stats = None
            for _ in range(reps):
                status, stats, elapsed = run_measured(base, script, variant)
                if status is not Status.SUCCESS:
                    raise RuntimeError(f"measured run failed: {shape} {size} {op}")
                samples.append(elapsed)
                if first_stats is None:
                    first_stats = stats
                elif (stats.applications != first_stats.applications
                      or stats.anchors_tried != first_stats.anchors_tried):
                    raise RuntimeError(
                        f"nondeterministic counters: {shape} {size} {op}")
            mean = statistics.fmean(samples)
            stddev = statistics.stdev(samples) if len(samples) > 1 else 0.0
            rows.append(BenchRow(
                shape=shape, n=n, op=op, reps=reps,
                mean_ns=int(mean), stddev_ns=int(stddev),
                rule_apps=first_stats.applications,
                anchors_tried=first_stats.anchors_tried,
            ))
    return rows


def rows_csv(rows) -> str:
    return "\n".join([CSV_HEADER] + [r.csv() for r in rows]) + "\n"


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


@dataclass
class ScalingReport:
    rows: list
    checks: list

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def csv(self) -> str:
        return rows_csv(self.rows)

    def lines(self) -> list:
        out = []
        for c in self.checks:
            out.append(f"check {c.name}: {'PASS' if c.ok else 'FAIL'} ({c.detail})")
        return out


def _rsquared(xs, ys) -> float:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    if sxx == 0:
        return 0.0
    b = sxy / sxx
    a = my - b * mx
    ss_res = sum((y - (a + b * x)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - my) ** 2 for y in ys)
    if ss_tot == 0:
        return 1.0
    return 1.0 - ss_res / ss_tot


def scaling_report(rows) -> ScalingReport:
    """Doubling ratios and shape checks over measured rows.

    Degenerate: per op, every consecutive rule_apps ratio must sit in
    2.0 +/- 0.05 and the geometric-mean time doubling ratio in
    [1.5, 3.0]; the linear-fit R^2 of rule_apps against n is reported.
    Balanced: triple rule_apps may grow by at most 8 per height increment
    and the largest/smallest time ratio must stay at most 4 when the rows
    span at least three height increments.
    """
    checks = []
    groups: dict = {}
    for r in rows:
        groups.setdefault((r.shape, r.op), []).append(r)
    if not groups:
        raise ValueError("no rows")
    for (shape, op), grp in sorted(groups.items()):
        grp.sort(key=lambda r: r.n)
        if len(grp) < 4:
            raise ValueError(f"need at least 4 sizes for {shape}/{op}, got {len(grp)}")
        ns = [r.n for r in grp]
        if shape == "degenerate":
            for a, b in zip(ns, ns[1:]):
                if b != 2 * a:
                    raise ValueError(
                        f"degenerate sizes must double: {a} then {b}")
            ratios = [b.rule_apps / a.rule_apps for a, b in zip(grp, grp[1:])]
            ok = all(abs(x - 2.0) <= 0.05 for x in ratios)
            checks.append(Check(
                f"{shape}/{op} rule_apps doubling",
                ok, "ratios " + ", ".join(f"{x:.4f}" for x in ratios)))
            tratios = [b.mean_ns / a.mean_ns for a, b in zip(grp, grp[1:])]
            geo = 1.0
            for x in tratios:
                geo *= x
            geo **= 1.0 / len(tratios)
            checks.append(Check(
                f"{shape}/{op} time doubling",
                1.5 <= geo <= 3.0, f"geometric mean {geo:.3f}"))
            r2 = _rsquared(ns, [r.rule_apps for r in grp])
            checks.append(Check(
                f"{shape}/{op} rule_apps linear fit",
                r2 >= 0.99, f"R^2 {r2:.6f}"))
        else:
            incs = [b.rule_apps - a.rule_apps for a, b in zip(grp, grp[1:])]
            checks.append(Check(
                f"{shape}/{op} rule_apps growth",
                all(0 <= d <= 8 for d in incs),
                "increments " + ", ".join(str(d) for d in incs)))
            span = len(grp) - 1
            ratio = grp[-1].mean_ns / grp[0].mean_ns
            checks.append(Check(
                f"{shape}/{op} time growth",
                span < 3 or ratio <= 4.0,
                f"t({grp[-1].n})/t({grp[0].n}) = {ratio:.3f}"))
    return ScalingReport(rows, checks)
