"""Test support: brute-force reference matcher, reference rewrite, label
unification and random generators.

The reference matcher enumerates every injective node map outright and
checks rootedness, marks, label unification, the rule condition, and the
dangling condition, with no search plan and no pruning.  It is the
independent oracle the engine's matcher is compared against on small
graphs.  The reference search walks a rule's search plan interpretively,
reading candidates from the same sources in the same order as the
compiled search but pruning nothing, so it gives the first match and the
exact counters any correct compiled search must report.  The reference rewrite applies a match through the public
HostGraph mutators only, so the engine's compiled rewrite can be compared
against it entry by entry in the journal.  The reference interpreter
walks a program's command tree, scoping every loop iteration and every
condition, as the compiled control of interp.run must behave.
"""
from __future__ import annotations

import itertools
import random
from typing import Optional

from rootedgp.errors import DivergenceError
from rootedgp.hostgraph import EDGE_MARKS, NODE_MARKS, HostGraph
from rootedgp.interp import (
    DEFAULT_MAX_ITERS, Break, Call, Fail, If, Loop, RuleSet, Seq, Skip, Status, Try,
)
from rootedgp.labels import (
    AndC, CmpC, DegT, IntT, LabelPattern, VarT, eval_cond, eval_pattern, unify_into,
)
from rootedgp.rules import (
    BUDGET_EXHAUSTED, Match, MatchStats, PatternEdge, PatternGraph, PatternNode, Rule,
    apply_rule, validate_rule,
)


def const_pattern(label) -> LabelPattern:
    """The pattern matching exactly `label`."""
    return LabelPattern(tuple(("c", a) for a in label))


def unify_label(pattern: LabelPattern, label, partial: Optional[dict] = None) -> Optional[dict]:
    """Match `pattern` against `label`, extending a copy of `partial`.

    Returns the extended assignment, or None if no consistent extension
    exists.  With at most one list slot the solution is unique, so the
    first (and only) answer is returned.
    """
    assignment = dict(partial) if partial else {}
    trail: list = []
    if unify_into(pattern, label, assignment, trail):
        return assignment
    return None


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


def reference_search(rule: Rule, g: HostGraph) -> tuple:
    """The first match of `rule` in `g` and the search's counters,
    (match or None, anchors tried, extension steps), by walking the plan.

    A rooted anchor with a concrete mark reads that mark's root registry,
    most recently rooted first; any other rooted anchor all roots in that
    order, a marked anchor the mark's nodes and an unmarked one all nodes,
    in ascending id; an extension or close reads the adjacency list of its
    known end.  Every candidate read counts once, the first anchor's as an
    anchor tried and every other one as an extension step, and is tested
    in full; the condition and the dangling condition are tested only
    once every step has bound its node or edge."""
    plan, lhs = rule.plan, rule.lhs
    counts = [0, 0]            # anchors tried, extension steps
    nmap, emap = {}, {}

    def bind(pid, h, a):
        pn, rec = lhs.nodes[pid], g.nodes[h]
        if not _node_ok(pn, rec) or h in nmap.values():
            return None
        return unify_label(pn.label, rec.label, a)

    def complete(a) -> bool:
        if rule.cond is not None:
            def deg(fn, pid):
                return g.outdeg(nmap[pid]) if fn == "outdeg" else g.indeg(nmap[pid])
            if not eval_cond(rule.cond, a, deg):
                return False
        used = set(emap.values())
        return all(eid in used
                   for pid in set(lhs.nodes) - rule.interface
                   for eid in g.in_adj[nmap[pid]] + g.out_adj[nmap[pid]])

    def walk(i, a):
        if i == len(plan):
            return a if complete(a) else None
        s = plan[i]
        if s[0] == "anchor":
            pid, source = s[1], s[2]
            mark = lhs.nodes[pid].mark
            if source == ("roots",):
                cands = (list(reversed(g._roots[mark])) if mark != "any"
                         else g.roots_by_recency())
            elif source[0] == "mark":
                cands = g.nodes_with_mark(source[1])
            else:
                cands = g.node_ids()
            for h in cands:
                counts[i > 0] += 1
                b = bind(pid, h, a)
                if b is None:
                    continue
                nmap[pid] = h
                b = walk(i + 1, b)
                if b is not None:
                    return b
                del nmap[pid]
            return None
        eidx = s[1]
        pe = lhs.edges[eidx]
        if s[0] == "extend":
            known, new, use_out = s[2:]
            cands = (g.out_adj if use_out else g.in_adj)[nmap[known]]
        else:
            cands = g.out_adj[nmap[pe.src]]
        for eid in cands:
            counts[1] += 1
            rec = g.edges[eid]
            if eid in emap.values() or not _edge_mark_ok(pe.mark, rec.mark):
                continue
            b = unify_label(pe.label, rec.label, a)
            if b is None:
                continue
            if s[0] == "extend":
                h = rec.tgt if use_out else rec.src
                b = bind(new, h, b)
                if b is None:
                    continue
                nmap[new] = h
            elif rec.tgt != nmap[pe.tgt]:
                continue
            emap[eidx] = eid
            b = walk(i + 1, b)
            if b is not None:
                return b
            del emap[eidx]
            if s[0] == "extend":
                del nmap[new]
        return None

    a = walk(0, {})
    m = None if a is None else Match(dict(nmap), dict(emap), a)
    return m, counts[0], counts[1]


def reference_loop(members: list, g: HostGraph, stats: MatchStats, tr, it: int,
                   max_iters: int) -> int:
    """The loop `{members}!` run with reference_search and reference_apply:
    each iteration counts against the budget, then the members are searched
    in turn and the first that matches is applied; returns the iterations
    counted so far, as the loop function of rules.fused_loop does."""
    while True:
        it += 1
        if it > max_iters:
            raise DivergenceError(BUDGET_EXHAUSTED.format(max_iters))
        for rule in members:
            m, na, nx = reference_search(rule, g)
            stats.anchors_tried += na
            stats.extension_steps += nx
            stats.max_anchors_per_call = max(stats.max_anchors_per_call, na)
            stats.max_extensions_per_call = max(stats.max_extensions_per_call, nx)
            if m is not None:
                reference_apply(rule, m, g)
                stats.matches_found += 1
                stats.applications += 1
                stats.by_rule[rule.name] = stats.by_rule.get(rule.name, 0) + 1
                if tr is not None:
                    tr(rule.name)
                break
        else:
            return it


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


_SEARCH_KINDS = {"x": "int", "y": "int", "a": "atom", "l": "list"}
_SEARCH_ATOMS = [0, 1, 2, "a"]
_SEARCH_LABELS = [(), (0,), (1,), (2,), ("a",), (0, 1), (1, "a"), (2, 2), (0, 1, 2)]
_ROOT_MARKS = ["none", "grey", "grey", "red", "blue"]


def random_search_rule(rng: random.Random) -> Rule:
    """A random rule of two or three lhs components, the later ones mostly
    single rooted nodes with a concrete mark, with a condition of two or
    three `and` conjuncts over variables and degrees; its rhs relabels,
    remarks, reroots, creates, deletes and links."""
    kinds, atoms = _SEARCH_KINDS, _SEARCH_ATOMS
    lhs = PatternGraph()

    def node(rooted: bool, mark: str) -> int:
        pid = len(lhs.nodes) + 1
        lhs.nodes[pid] = PatternNode(
            pid, _random_pattern(rng, kinds, atoms, allow_list=True), mark, rooted)
        return pid

    for c in range(rng.randint(2, 3)):
        comp = [node(c == 0 or rng.random() < 0.85,
                     rng.choice(_ROOT_MARKS + ["any"] if c == 0 else _ROOT_MARKS))]
        for _ in range(rng.choice([0, 1, 2] if c == 0 else [0, 0, 0, 1])):
            new = node(rng.random() < 0.2, rng.choice(_NODE_MARKS))
            old = rng.choice(comp)
            src, tgt = (old, new) if rng.random() < 0.7 else (new, old)
            lhs.edges.append(PatternEdge(src, tgt, _random_pattern(
                rng, kinds, atoms, allow_list=False), rng.choice(_EDGE_MARKS)))
            comp.append(new)
        if rng.random() < 0.15:
            end = rng.choice(comp)
            lhs.edges.append(PatternEdge(end, end, LabelPattern([]), "none"))
    names = [v for v in _lhs_vars(lhs) if kinds[v] != "list"]
    pids = sorted(lhs.nodes)
    conjuncts = []
    for _ in range(rng.randint(2, 3)):
        terms = [IntT(rng.randint(0, 2)), DegT(rng.choice(["outdeg", "indeg"]),
                                               rng.choice(pids))]
        terms += [VarT(v) for v in names] * 2
        conjuncts.append(CmpC(rng.choice(["=", "!=", "!=", "<", "<=", "<=", ">", ">=", ">="]),
                              rng.choice(terms), rng.choice(terms)))
    cond = conjuncts[0]
    for c in conjuncts[1:]:
        cond = AndC(cond, c)
    interface = {p for p in pids if rng.random() < 0.7 or lhs.nodes[p].mark == "any"}
    rhs = PatternGraph()
    for pid in interface:
        ln = lhs.nodes[pid]
        rhs.nodes[pid] = PatternNode(pid, ln.label, ln.mark, ln.rooted)
    if rng.random() < 0.8:
        _change_rhs(rng, lhs, rhs, kinds, atoms)
    rule = Rule("search", list(kinds.items()), lhs, rhs, frozenset(interface), cond)
    validate_rule(rule)
    return rule


def random_rooted_host(rng: random.Random) -> HostGraph:
    """A host with 0 to 60 roots of each mark, unmarked ones included, most
    of them isolated, rooted in an order that interleaves the marks, a few
    unrooted nodes, and edges among a few nodes, self-loops among them."""
    specs = []
    for mark in NODE_MARKS:
        n = rng.randint(0, 60) if rng.random() < 0.3 else rng.randint(0, 6)
        specs += [(mark, True)] * n
    specs += [(rng.choice(NODE_MARKS), False) for _ in range(rng.randint(0, 10))]
    rng.shuffle(specs)
    g = HostGraph()
    ids = [g.add_node(rng.choice(_SEARCH_LABELS), mark, rooted) for mark, rooted in specs]
    if ids:
        linked = rng.sample(ids, min(len(ids), rng.randint(1, 12)))
        for _ in range(rng.randint(0, 16)):
            src = rng.choice(linked)
            tgt = src if rng.random() < 0.15 else rng.choice(linked)
            g.add_edge(src, tgt, rng.choice([(), (), (0,), (1,)]), rng.choice(_EDGE_MARKS))
    return g


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
    node; create the non-interface rhs nodes, then the rhs edges.

    An lhs edge paired with an rhs edge stays as it is: each lhs edge, in
    declaration order, pairs with the first unpaired rhs edge with the same
    source and target, both in the interface, label pattern and mark."""
    a = m.assignment
    kept = {}
    for k, le in enumerate(rule.lhs.edges):
        for i, pe in enumerate(rule.rhs.edges):
            if (i not in kept and le.src in rule.interface and le.tgt in rule.interface
                    and (le.src, le.tgt, le.label, le.mark)
                    == (pe.src, pe.tgt, pe.label, pe.mark)):
                kept[i] = k
                break
    for k, eid in m.edges.items():
        if k not in kept.values():
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
    for i, pe in enumerate(rule.rhs.edges):
        if i not in kept:
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
