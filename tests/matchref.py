"""Test support: brute-force reference matcher, reference rewrite and
random generators.

The reference matcher enumerates every injective node map outright and
checks rootedness, marks, label unification, the rule condition, and the
dangling condition, with no search plan and no pruning.  It is the
independent oracle the engine's matcher is compared against on small
graphs.  The reference rewrite applies a match through the public
HostGraph mutators only, so the engine's compiled rewrite can be compared
against it entry by entry in the journal.  The reference interpreter
walks a program's command tree, scoping every loop iteration and every
condition, as the compiled control of interp.run must behave.
"""
from __future__ import annotations

import itertools
import random

from rootedgp.errors import DivergenceError
from rootedgp.hostgraph import EDGE_MARKS, NODE_MARKS, HostGraph
from rootedgp.interp import (
    DEFAULT_MAX_ITERS, Break, Call, Fail, If, Loop, RuleSet, Seq, Skip, Status, Try,
)
from rootedgp.labels import (
    CmpC, DegT, IntT, LabelPattern, VarT, eval_cond, eval_pattern, unify_label,
)
from rootedgp.rules import (
    MatchStats, PatternEdge, PatternGraph, PatternNode, Rule, apply_rule, validate_rule,
)


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


def random_host(rng: random.Random, max_nodes: int = 6, max_edges: int = 7,
                node_labels=_NODE_LABELS, edge_labels=_EDGE_LABELS,
                node_marks=_NODE_MARKS, rooted_p: float = 0.35) -> HostGraph:
    g = HostGraph()
    n = rng.randint(0, max_nodes)
    ids = [
        g.add_node(rng.choice(node_labels), rng.choice(node_marks),
                   rng.random() < rooted_p)
        for _ in range(n)
    ]
    if ids:
        for _ in range(rng.randint(0, max_edges)):
            g.add_edge(rng.choice(ids), rng.choice(ids),
                       rng.choice(edge_labels), rng.choice(_EDGE_MARKS))
    return g


_ATOMS = [0, 1, 2, 3, "a", "b"]
_KINDS = {"vi": "int", "va": "atom", "vc": "char", "vl": "list", "vj": "int"}


def _random_pattern(rng: random.Random, kinds: dict, atoms: list,
                    allow_list: bool) -> LabelPattern:
    items = []
    used_list = False
    for _ in range(rng.randint(0, 2)):
        if rng.random() < 0.5:
            items.append(("c", rng.choice(atoms)))
        else:
            pool = [(n, k) for n, k in kinds.items()
                    if k != "list" or (allow_list and not used_list)]
            name, kind = rng.choice(pool)
            if kind == "list":
                used_list = True
            items.append(("v", name, kind))
    return LabelPattern(items)


def _lhs_vars(lhs: PatternGraph) -> list:
    names = set()
    for pn in lhs.nodes.values():
        names.update(pn.label.variables())
    for pe in lhs.edges:
        names.update(pe.label.variables())
    return sorted(names)


def _rhs_pattern(rng: random.Random, names: list, kinds: dict,
                 atoms: list) -> LabelPattern:
    """A label built from lhs variables and constants."""
    items = []
    used_list = False
    for _ in range(rng.randint(0, 3)):
        pool = [n for n in names if kinds[n] != "list" or not used_list]
        if pool and rng.random() < 0.6:
            name = rng.choice(pool)
            used_list = used_list or kinds[name] == "list"
            items.append(("v", name, kinds[name]))
        else:
            items.append(("c", rng.choice(atoms)))
    return LabelPattern(items)


def _change_rhs(rng: random.Random, lhs: PatternGraph, rhs: PatternGraph,
                kinds: dict, atoms: list) -> None:
    """Relabel, remark (to and from `any`, roots too) and reroot interface
    nodes, then add created nodes and rhs edges."""
    names = _lhs_vars(lhs)
    for pid in sorted(rhs.nodes):
        rn = rhs.nodes[pid]
        if rng.random() < 0.5:
            rn.label = _rhs_pattern(rng, names, kinds, atoms)
        if rng.random() < 0.5:
            rn.mark = rng.choice(NODE_MARKS + ("any",))
        if rng.random() < 0.4:
            rn.rooted = not rn.rooted
    first = max(lhs.nodes, default=0) + 1
    for pid in range(first, first + rng.randint(0, 2)):
        rhs.nodes[pid] = PatternNode(pid, _rhs_pattern(rng, names, kinds, atoms),
                                     rng.choice(NODE_MARKS), rng.random() < 0.4)
    if rhs.nodes:
        ends = sorted(rhs.nodes)
        for _ in range(rng.randint(0, 3)):
            rhs.edges.append(PatternEdge(
                rng.choice(ends), rng.choice(ends),
                _rhs_pattern(rng, names, kinds, atoms), rng.choice(EDGE_MARKS)))


def random_rule(rng: random.Random, kinds: dict = _KINDS, atoms: list = _ATOMS,
                node_marks=_NODE_MARKS + ["any"], rooted_p: float = 0.4,
                rhs_changes: bool = False) -> Rule:
    """A small random rule.  By default the rhs copies the interface nodes
    and has no edges; `rhs_changes` also changes, creates and links them
    (after every draw the default makes, so a seed draws the same lhs)."""
    n = rng.randint(0, 3)
    pids = list(range(1, n + 1))
    lhs = PatternGraph()
    for pid in pids:
        lhs.nodes[pid] = PatternNode(
            pid,
            _random_pattern(rng, kinds, atoms, allow_list=True),
            rng.choice(node_marks),
            rng.random() < rooted_p,
        )
    if pids:
        for _ in range(rng.randint(0, 3)):
            lhs.edges.append(PatternEdge(
                rng.choice(pids), rng.choice(pids),
                _random_pattern(rng, kinds, atoms, allow_list=True),
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
        int_vars = [v for v in _lhs_vars(lhs) if kinds[v] in ("int", "atom")]
        choices = []
        if int_vars:
            choices.append(VarT(rng.choice(int_vars)))
        if pids:
            choices.append(DegT(rng.choice(["outdeg", "indeg"]), rng.choice(pids)))
        if choices:
            cond = CmpC(rng.choice(["=", "!=", "<", "<=", ">", ">="]),
                        rng.choice(choices), IntT(rng.randint(0, 3)))
    if rhs_changes:
        _change_rhs(rng, lhs, rhs, kinds, atoms)
    rule = Rule("fuzz", list(kinds.items()), lhs, rhs, frozenset(interface), cond)
    validate_rule(rule)
    return rule


_VALUES = {
    "int": [0, 1, 2, 3],
    "char": ["a", "b", "'", "\\"],
    "string": ["", "a", 'q"\'', "n\nl"],
    "atom": [0, 1, 3, "a", "b\\s"],
}


def plant_lhs(rng: random.Random, rule: Rule, g: HostGraph) -> None:
    """Add to `g` an image of the rule's lhs: nodes and edges with its
    rootedness and marks (a random concrete one for `any`) and its labels
    under one random assignment, so the rule often matches; the condition
    and the dangling condition still decide."""
    a = {}
    for name, kind in rule.vars:
        if kind == "list":
            a[name] = tuple(rng.choice(_VALUES["atom"]) for _ in range(rng.randint(0, 2)))
        else:
            a[name] = rng.choice(_VALUES[kind])
    image = {}
    for pid, pn in sorted(rule.lhs.nodes.items()):
        mark = rng.choice(NODE_MARKS[1:]) if pn.mark == "any" else pn.mark
        image[pid] = g.add_node(eval_pattern(pn.label, a), mark, pn.rooted)
    for pe in rule.lhs.edges:
        mark = rng.choice(EDGE_MARKS[1:]) if pe.mark == "any" else pe.mark
        g.add_edge(image[pe.src], image[pe.tgt], eval_pattern(pe.label, a), mark)


def reference_apply(rule: Rule, m, g: HostGraph) -> None:
    """Apply match `m` through the public HostGraph mutators, in the order
    apply_match documents: delete the matched edges (in match order), then
    the non-interface lhs nodes; relabel, remark and reroot each interface
    node; create the non-interface rhs nodes, then the rhs edges."""
    a = m.assignment
    for eid in m.edges.values():
        g.delete_edge(eid)
    for pid in sorted(set(rule.lhs.nodes) - rule.interface):
        g.delete_node(m.nodes[pid])
    image = {}
    for pid in sorted(rule.interface):
        rn = rule.rhs.nodes[pid]
        h = image[pid] = m.nodes[pid]
        label = eval_pattern(rn.label, a)
        if label != g.nodes[h].label:
            g.set_label(h, label)
        if rn.mark != "any" and rn.mark != g.nodes[h].mark:
            g.set_mark(h, rn.mark)
        g.set_root(h, rn.rooted)
    for pid in sorted(set(rule.rhs.nodes) - rule.interface):
        rn = rule.rhs.nodes[pid]
        image[pid] = g.add_node(eval_pattern(rn.label, a), rn.mark, rn.rooted)
    for pe in rule.rhs.edges:
        g.add_edge(image[pe.src], image[pe.tgt], eval_pattern(pe.label, a), pe.mark)


def reference_run(program, g: HostGraph, max_iters: int = DEFAULT_MAX_ITERS,
                  stats=None, on_apply=None) -> Status:
    """Execute Main over `g` by walking the command tree, with a scope
    around every loop iteration and every try or if condition; the
    reference the compiled control of interp.run is compared against."""
    if stats is None:
        stats = MatchStats()
    rules = program.rules
    procs = program.procs
    iters = 0
    SUCCESS, FAILURE, BRK = Status.SUCCESS, Status.FAILURE, Status.BREAK

    def apply(rule) -> bool:
        if not apply_rule(rule, g, stats):
            return False
        if on_apply is not None:
            on_apply(rule.name)
        return True

    def exec_(cmd) -> Status:
        nonlocal iters
        kind = type(cmd)
        if kind is Call:
            # A rule call is a one-rule rule set.
            rule = rules.get(cmd.name)
            if rule is None:
                return exec_(procs[cmd.name])
            return SUCCESS if apply(rule) else FAILURE
        if kind is RuleSet:
            for name in cmd.names:
                if apply(rules[name]):
                    return SUCCESS
            return FAILURE
        if kind is Seq:
            for part in cmd.parts:
                st = exec_(part)
                if st is not SUCCESS:
                    return st
            return SUCCESS
        if kind is Loop:
            body = cmd.body
            while True:
                iters += 1
                if iters > max_iters:
                    raise DivergenceError(
                        f"loop iteration budget exhausted ({max_iters})"
                    )
                token = g.begin_scope()
                st = exec_(body)
                if st is SUCCESS:
                    g.commit_scope(token)
                    continue
                if st is FAILURE:
                    g.rollback_scope(token)
                else:
                    g.commit_scope(token)
                return SUCCESS
        if kind is Try:
            token = g.begin_scope()
            st = exec_(cmd.cond)
            if st is SUCCESS:
                g.commit_scope(token)
                return exec_(cmd.then_part)
            if st is FAILURE:
                g.rollback_scope(token)
                return exec_(cmd.else_part)
            raise AssertionError("break escaped a try condition")
        if kind is If:
            token = g.begin_scope()
            st = exec_(cmd.cond)
            g.rollback_scope(token)
            if st is SUCCESS:
                return exec_(cmd.then_part)
            if st is FAILURE:
                return exec_(cmd.else_part)
            raise AssertionError("break escaped an if condition")
        if kind is Break:
            return BRK
        if kind is Fail:
            return FAILURE
        if kind is Skip:
            return SUCCESS
        raise TypeError(f"not a command: {cmd!r}")

    depth = len(g._frames)
    try:
        status = exec_(procs["Main"])
    except DivergenceError:
        # Commit the scopes the run opened, as interp.run does.
        while len(g._frames) > depth:
            g.commit_scope(len(g._frames) - 1)
        raise
    finally:
        del exec_  # exec_'s closure refers to itself and holds g; leave no cycle
    if status is Status.BREAK:
        raise AssertionError("break escaped Main")
    return status
