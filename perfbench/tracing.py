"""Per-layer tracing from outside the program.

`Tracer.install` replaces public functions and `HostGraph` methods with
timing wrappers: the names `interp` imports from `rules`, the label
functions `rules` calls, the scope, mutation and root-registry methods of
`HostGraph`, and the `text`, `bst` and `oracle` entry points the
benchmark calls.  Each call becomes a span (id, parent id, name, start,
end); spans are aggregated per (name, parent name) as they close, the
first `span_cap` are kept in memory, and `write` saves them when the run
ends.  `uninstall` restores every original.  Only traced runs import this
module.
"""
from __future__ import annotations

import gc
import json
from time import perf_counter_ns

from rootedgp import bst, interp, oracle, rules, text
from rootedgp.hostgraph import HostGraph

SCOPE_METHODS = ("begin_scope", "commit_scope", "rollback_scope")
MUTATION_METHODS = ("add_node", "delete_node", "add_edge", "delete_edge",
                    "set_label", "set_edge_label", "set_mark", "set_root")


class Tracer:
    def __init__(self, span_cap: int = 50_000):
        self.calls = {}          # (name, parent name) -> [calls, total ns, self ns]
        self.spans = []
        self.span_cap = span_cap
        self.registry_sizes = 0  # summed lengths of roots_by_recency results
        self.gc_collections = 0
        self.gc_ns = 0
        self._stack = [(0, None, [0])]   # (span id, name, child ns) per open span
        self._next_id = 1
        self._undo = []
        self._gc_t0 = 0

    def _wrap(self, name, fn, on_result=None):
        stack = self._stack
        spans = self.spans
        calls = self.calls
        cap = self.span_cap

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            child = [0]
            stack.append((sid, name, child))
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                parent_id, parent_name, parent_child = stack[-1]
                dur = t1 - t0
                parent_child[0] += dur
                rec = calls.get((name, parent_name))
                if rec is None:
                    rec = calls[(name, parent_name)] = [0, 0, 0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - child[0]
                if len(spans) < cap:
                    spans.append((sid, parent_id, name, t0, t1))
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _patch(self, owner, attr, name, on_result=None):
        orig = getattr(owner, attr)
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, self._wrap(name, orig, on_result))

    def _count_registry(self, roots):
        self.registry_sizes += len(roots)

    def _on_gc(self, phase, info):
        # Only collections inside a traced call are the program's; the
        # benchmark's own gc.collect() after set-up runs outside every span.
        if len(self._stack) == 1:
            return
        if phase == "start":
            self._gc_t0 = perf_counter_ns()
        else:
            self.gc_collections += 1
            self.gc_ns += perf_counter_ns() - self._gc_t0

    def install(self) -> None:
        self._patch(interp, "run", "interp.run")
        self._patch(interp, "find_match", "rules.find_match")
        self._patch(interp, "apply_match", "rules.apply_match")
        for fn in ("unify_into", "eval_cond", "eval_pattern"):
            self._patch(rules, fn, f"labels.{fn}")
        for meth in SCOPE_METHODS + MUTATION_METHODS:
            self._patch(HostGraph, meth, f"hostgraph.{meth}")
        self._patch(HostGraph, "roots_by_recency", "hostgraph.roots_by_recency",
                    self._count_registry)
        for mod, fn in ((text, "parse_program"), (text, "build_instruction_graph"),
                        (bst, "extract_tree"), (oracle, "o_apply"),
                        (oracle, "gen_workload")):
            self._patch(mod, fn, f"{mod.__name__.split('.')[-1]}.{fn}")
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def total(self, name, parent=...):
        """(calls, total ns, self ns) of `name`, under `parent` if given."""
        out = [0, 0, 0]
        for (n, p), rec in self.calls.items():
            if n == name and (parent is ... or p == parent):
                for i in range(3):
                    out[i] += rec[i]
        return out

    def write(self, path) -> None:
        """Spans as JSON lines, then one line of per-edge aggregates."""
        with open(path, "w", encoding="utf-8") as f:
            for sid, parent, name, t0, t1 in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                    "start_ns": t0, "end_ns": t1}) + "\n")
            f.write(json.dumps({"aggregate": [
                {"name": n, "parent": p, "calls": c, "total_ns": t, "self_ns": s}
                for (n, p), (c, t, s) in sorted(self.calls.items(), key=str)
            ]}) + "\n")


def layer_metrics(tr: Tracer, tally) -> dict:
    """The per-layer figures of one traced section, by metric name."""

    def per(num, den):
        return num / den if den else 0.0

    ops = tally.completed
    apps = tally.applications
    run_calls, run_ns, run_self = tr.total("interp.run")
    fm_calls, fm_ns, fm_self = tr.total("rules.find_match")
    am_calls, am_ns, _ = tr.total("rules.apply_match")
    rr_calls, rr_ns, _ = tr.total("hostgraph.roots_by_recency")
    uni_calls, uni_ns, _ = tr.total("labels.unify_into")
    ec_calls, ec_ns, _ = tr.total("labels.eval_cond")
    mutations = sum(tr.total(f"hostgraph.{m}", "rules.apply_match")[0]
                    for m in MUTATION_METHODS)
    scope_ns = sum(tr.total(f"hostgraph.{m}", "interp.run")[1]
                   for m in SCOPE_METHODS)
    rollbacks = tr.total("hostgraph.rollback_scope", "interp.run")[0]

    def ms_per_call(name):
        calls, ns, _ = tr.total(name)
        return per(ns, calls) / 1e6

    return {
        "rules.find_match.ns_per_call": (per(fm_ns, fm_calls), "ns"),
        "rules.find_match.self_share": (per(fm_self, run_ns), "ratio"),
        "rules.find_match.hit_ratio": (per(tally.matches, fm_calls), "ratio"),
        "rules.anchors_per_call": (per(tally.anchors, fm_calls), "count"),
        "rules.extensions_per_call": (per(tally.extensions, fm_calls), "count"),
        "rules.apply_match.ns_per_call": (per(am_ns, am_calls), "ns"),
        "hostgraph.mutations_per_app": (per(mutations, apps), "count"),
        "hostgraph.roots_by_recency.ns_per_call": (per(rr_ns, rr_calls), "ns"),
        "hostgraph.root_registry_mean": (per(tr.registry_sizes, rr_calls), "count"),
        "hostgraph.scope.ns_per_op": (per(scope_ns, ops), "ns"),
        "hostgraph.rollbacks_per_op": (per(rollbacks, ops), "count"),
        "interp.self_ns_per_op": (per(run_self, ops), "ns"),
        "labels.unify_into.calls_per_app": (per(uni_calls, apps), "count"),
        "labels.unify_into.ns_per_call": (per(uni_ns, uni_calls), "ns"),
        "labels.eval_cond.ns_per_call": (per(ec_ns, ec_calls), "ns"),
        "text.parse_program_ms": (ms_per_call("text.parse_program"), "ms"),
        "text.build_instruction_graph_ms": (ms_per_call("text.build_instruction_graph"), "ms"),
        "bst.extract_tree_ms": (ms_per_call("bst.extract_tree"), "ms"),
        "oracle.o_apply_ms": (ms_per_call("oracle.o_apply"), "ms"),
        "oracle.gen_workload_ms": (ms_per_call("oracle.gen_workload"), "ms"),
        "py.gc.collections_per_op": (per(tr.gc_collections, ops), "count"),
        "py.gc.ms_per_op": (per(tr.gc_ns, ops) / 1e6, "ms"),
    }
