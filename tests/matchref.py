"""Test support: brute-force reference matcher and random generators.

The reference matcher enumerates every injective node map outright and
checks rootedness, marks, label unification, the rule condition, and the
dangling condition, with no search plan and no pruning.  It is the
independent oracle the engine's matcher is compared against on small
graphs.
"""
from __future__ import annotations

import itertools
import random

from rootedgp.hostgraph import HostGraph
from rootedgp.labels import CmpC, DegT, IntT, LabelPattern, VarT, eval_cond, unify_label
from rootedgp.rules import PatternEdge, PatternGraph, PatternNode, Rule, validate_rule


def root_anchored(rule) -> bool:
    """True iff the rule's search plan anchors every lhs component on a
    root, so matching never scans for a start node.  An empty lhs has no
    plan and counts as not anchored."""
    return bool(rule.plan) and all(
        s[2] == ("roots",) for s in rule.plan if s[0] == "anchor")


def _node_ok(pn, rec) -> bool:
    if rec.rooted != pn.rooted:
        return False
    if pn.mark == "any":
        return rec.mark != "none"
    return rec.mark == pn.mark


def _edge_mark_ok(pmark, hmark) -> bool:
    if pmark == "any":
        return hmark != "none"
    return hmark == pmark


def brute_force_exists(rule: Rule, g: HostGraph) -> bool:
    """Is there any valid match of rule in g?  Exhaustive enumeration."""
    pids = sorted(rule.lhs.nodes)
    host_ids = g.node_ids()
    deleted = set(rule.lhs.nodes) - set(rule.interface)
    for combo in itertools.permutations(host_ids, len(pids)):
        nmap = dict(zip(pids, combo))
        if not all(_node_ok(rule.lhs.nodes[p], g.nodes[nmap[p]]) for p in pids):
            continue
        per_edge = []
        for pe in rule.lhs.edges:
            cands = [
                eid for eid in g.out_adj[nmap[pe.src]]
                if g.edges[eid].tgt == nmap[pe.tgt]
                and _edge_mark_ok(pe.mark, g.edges[eid].mark)
            ]
            per_edge.append(cands)
        for emap in itertools.product(*per_edge):
            if len(set(emap)) != len(emap):
                continue
            assignment: dict = {}
            good = True
            for p in pids:
                assignment = unify_label(
                    rule.lhs.nodes[p].label, g.nodes[nmap[p]].label, assignment)
                if assignment is None:
                    good = False
                    break
            if good:
                for pe, eid in zip(rule.lhs.edges, emap):
                    assignment = unify_label(pe.label, g.edges[eid].label, assignment)
                    if assignment is None:
                        good = False
                        break
            if not good:
                continue
            if rule.cond is not None:
                def deg(fn, pid):
                    return g.outdeg(nmap[pid]) if fn == "outdeg" else g.indeg(nmap[pid])
                if not eval_cond(rule.cond, assignment, deg):
                    continue
            used = set(emap)
            dangling = False
            for p in deleted:
                h = nmap[p]
                for eid in g.in_adj[h]:
                    if eid not in used:
                        dangling = True
                        break
                if not dangling:
                    for eid in g.out_adj[h]:
                        if eid not in used:
                            dangling = True
                            break
                if dangling:
                    break
            if dangling:
                continue
            return True
    return False


def check_match_valid(rule: Rule, g: HostGraph, m) -> None:
    """Assert a match returned by the engine satisfies every requirement."""
    assert set(m.nodes) == set(rule.lhs.nodes)
    assert len(set(m.nodes.values())) == len(m.nodes), "nodes not injective"
    assert len(set(m.edges.values())) == len(m.edges), "edges not injective"
    for pid, nid in m.nodes.items():
        pn = rule.lhs.nodes[pid]
        rec = g.nodes[nid]
        assert _node_ok(pn, rec), f"node {pid} incompatible"
        got = unify_label(pn.label, rec.label, m.assignment)
        assert got is not None and got == m.assignment
    assert set(m.edges) == set(range(len(rule.lhs.edges)))
    for eidx, eid in m.edges.items():
        pe = rule.lhs.edges[eidx]
        rec = g.edges[eid]
        assert rec.src == m.nodes[pe.src] and rec.tgt == m.nodes[pe.tgt]
        assert _edge_mark_ok(pe.mark, rec.mark)
        got = unify_label(pe.label, rec.label, m.assignment)
        assert got is not None and got == m.assignment
    if rule.cond is not None:
        def deg(fn, pid):
            return g.outdeg(m.nodes[pid]) if fn == "outdeg" else g.indeg(m.nodes[pid])
        assert eval_cond(rule.cond, m.assignment, deg)
    used = set(m.edges.values())
    for pid in set(rule.lhs.nodes) - set(rule.interface):
        h = m.nodes[pid]
        for eid in g.in_adj[h] + g.out_adj[h]:
            assert eid in used, f"dangling edge {eid} at deleted node {pid}"


_NODE_LABELS = [(), (0,), (1,), (2,), (3,), ("a",), ("b",), (1, "a"), (0, 1)]
_EDGE_LABELS = [(), (0,), ("a",)]
_NODE_MARKS = ["none", "none", "none", "grey", "green", "red", "blue"]
_EDGE_MARKS = ["none", "none", "none", "dashed", "red", "green", "blue"]


def random_host(rng: random.Random, max_nodes: int = 6, max_edges: int = 7) -> HostGraph:
    g = HostGraph()
    n = rng.randint(0, max_nodes)
    ids = [
        g.add_node(rng.choice(_NODE_LABELS), rng.choice(_NODE_MARKS),
                   rng.random() < 0.35)
        for _ in range(n)
    ]
    if ids:
        for _ in range(rng.randint(0, max_edges)):
            g.add_edge(rng.choice(ids), rng.choice(ids),
                       rng.choice(_EDGE_LABELS), rng.choice(_EDGE_MARKS))
    return g


def _random_pattern(rng: random.Random, kinds: dict, allow_list: bool) -> LabelPattern:
    items = []
    used_list = False
    for _ in range(rng.randint(0, 2)):
        if rng.random() < 0.5:
            items.append(("c", rng.choice([0, 1, 2, 3, "a", "b"])))
        else:
            pool = [(n, k) for n, k in kinds.items()
                    if k != "list" or (allow_list and not used_list)]
            name, kind = rng.choice(pool)
            if kind == "list":
                used_list = True
            items.append(("v", name, kind))
    return LabelPattern(items)


def random_rule(rng: random.Random) -> Rule:
    kinds = {"vi": "int", "va": "atom", "vc": "char", "vl": "list", "vj": "int"}
    n = rng.randint(0, 3)
    pids = list(range(1, n + 1))
    lhs = PatternGraph()
    for pid in pids:
        lhs.nodes[pid] = PatternNode(
            pid,
            _random_pattern(rng, kinds, allow_list=True),
            rng.choice(_NODE_MARKS + ["any"]),
            rng.random() < 0.4,
        )
    if pids:
        for _ in range(rng.randint(0, 3)):
            lhs.edges.append(PatternEdge(
                rng.choice(pids), rng.choice(pids),
                _random_pattern(rng, kinds, allow_list=True),
                rng.choice(_EDGE_MARKS + ["any"]),
            ))
    interface = {p for p in pids if rng.random() < 0.6}
    # A copied wildcard mark is only legal on preserved nodes.
    for pid in pids:
        if lhs.nodes[pid].mark == "any":
            interface.add(pid)
    rhs = PatternGraph()
    for pid in interface:
        ln = lhs.nodes[pid]
        rhs.nodes[pid] = PatternNode(pid, ln.label, ln.mark, ln.rooted)
    cond = None
    if rng.random() < 0.4:
        lhs_vars = set()
        for pn in lhs.nodes.values():
            lhs_vars.update(pn.label.variables())
        for pe in lhs.edges:
            lhs_vars.update(pe.label.variables())
        int_vars = [v for v in sorted(lhs_vars) if kinds[v] in ("int", "atom")]
        choices = []
        if int_vars:
            choices.append(VarT(rng.choice(int_vars)))
        if pids:
            choices.append(DegT(rng.choice(["outdeg", "indeg"]), rng.choice(pids)))
        if choices:
            cond = CmpC(rng.choice(["=", "!=", "<", "<=", ">", ">="]),
                        rng.choice(choices), IntT(rng.randint(0, 3)))
    rule = Rule("fuzz", list(kinds.items()), lhs, rhs, frozenset(interface), cond)
    validate_rule(rule)
    return rule
