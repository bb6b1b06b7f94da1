"""Rule representation, rooted injective matching, and rule application.

Matching is deterministic.  Each rule gets a fixed search plan at load
time: the left-hand side is split into connected components, every
component gets an anchor node, and the rest of the component is reached
depth-first along its edges in declaration order.  Anchor candidates come
from the smallest available registry: the root registry for rooted
anchors (most recently rooted first, which keeps the active traversal
root ahead of any stale roots), the per-mark node index for marked
anchors, and a full ascending-id scan only as a last resort.  Extension
candidates are enumerated from the adjacency of already-matched nodes
only, so matching a rule whose pattern hangs off roots or rare marks
costs O(degree), independent of host size.

A match must be injective on nodes and edges, preserve rootedness in both
directions, satisfy mark compatibility (the `any` wildcard accepts the
four concrete marks but not unmarked), unify all labels under one
assignment, satisfy the rule condition, and satisfy the dangling
condition: a node slated for deletion may have no incident host edges
beyond those matched by the rule.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import ValidationError
from .hostgraph import EDGE_MARKS, NODE_MARKS, HostGraph
from .labels import (
    LabelPattern, cond_refs, eval_cond, eval_pattern, undo_trail, unify_into,
)

# Anchor preference for unrooted components: rarer marks first.
_MARK_PRIORITY = {"green": 0, "red": 1, "blue": 2, "grey": 3}


@dataclass
class PatternNode:
    pid: int
    label: LabelPattern
    mark: str = "none"        # concrete mark, "none", or "any"
    rooted: bool = False


@dataclass
class PatternEdge:
    src: int
    tgt: int
    label: LabelPattern
    mark: str = "none"


@dataclass
class PatternGraph:
    nodes: dict = field(default_factory=dict)   # pid -> PatternNode
    edges: list = field(default_factory=list)   # declaration order


@dataclass
class Rule:
    name: str
    vars: list                 # [(name, kind)] in declaration order
    lhs: PatternGraph
    rhs: PatternGraph
    interface: frozenset
    cond: object = None
    # Filled in by validate_rule:
    plan: list = field(default_factory=list, compare=False, repr=False)
    deleted_pids: list = field(default_factory=list, compare=False, repr=False)
    created_pids: list = field(default_factory=list, compare=False, repr=False)
    iface_ops: list = field(default_factory=list, compare=False, repr=False)


@dataclass
class Match:
    nodes: dict        # pid -> host node id (injective)
    edges: dict        # lhs edge index -> host edge id (injective)
    assignment: dict   # variable name -> atom or atom tuple


class MatchStats:
    """Per-run matching counters; monotone while a run is in flight."""

    __slots__ = (
        "anchors_tried", "extension_steps", "matches_found", "applications",
        "by_rule", "max_anchors_per_call", "max_extensions_per_call",
    )

    def __init__(self):
        self.anchors_tried = 0
        self.extension_steps = 0
        self.matches_found = 0
        self.applications = 0
        self.by_rule: dict = {}
        self.max_anchors_per_call = 0
        self.max_extensions_per_call = 0

    def copy(self) -> "MatchStats":
        s = MatchStats()
        s.anchors_tried = self.anchors_tried
        s.extension_steps = self.extension_steps
        s.matches_found = self.matches_found
        s.applications = self.applications
        s.by_rule = dict(self.by_rule)
        s.max_anchors_per_call = self.max_anchors_per_call
        s.max_extensions_per_call = self.max_extensions_per_call
        return s

    def minus(self, other: "MatchStats") -> "MatchStats":
        """Counter deltas since `other`; the max fields stay absolute."""
        s = MatchStats()
        s.anchors_tried = self.anchors_tried - other.anchors_tried
        s.extension_steps = self.extension_steps - other.extension_steps
        s.matches_found = self.matches_found - other.matches_found
        s.applications = self.applications - other.applications
        s.by_rule = {
            name: n - other.by_rule.get(name, 0)
            for name, n in self.by_rule.items()
            if n != other.by_rule.get(name, 0)
        }
        s.max_anchors_per_call = self.max_anchors_per_call
        s.max_extensions_per_call = self.max_extensions_per_call
        return s

    def __repr__(self):
        return (
            f"MatchStats(anchors={self.anchors_tried}, ext={self.extension_steps}, "
            f"found={self.matches_found}, apps={self.applications})"
        )


def _components(lhs: PatternGraph) -> list:
    """Connected components of the lhs under undirected adjacency."""
    neigh = {pid: set() for pid in lhs.nodes}
    for pe in lhs.edges:
        neigh[pe.src].add(pe.tgt)
        neigh[pe.tgt].add(pe.src)
    seen = set()
    comps = []
    for pid in sorted(lhs.nodes):
        if pid in seen:
            continue
        comp = set()
        stack = [pid]
        while stack:
            p = stack.pop()
            if p in comp:
                continue
            comp.add(p)
            stack.extend(neigh[p] - comp)
        seen |= comp
        comps.append(comp)
    return comps


def _anchor_for(comp: set, lhs: PatternGraph):
    """Pick the anchor node and its candidate source for one component."""
    rooted = sorted(p for p in comp if lhs.nodes[p].rooted)
    if rooted:
        return rooted[0], ("roots",)
    marked = sorted(
        (p for p in comp if lhs.nodes[p].mark in _MARK_PRIORITY),
        key=lambda p: (_MARK_PRIORITY[lhs.nodes[p].mark], p),
    )
    if marked:
        pid = marked[0]
        return pid, ("mark", lhs.nodes[pid].mark)
    return min(comp), ("scan",)


def _build_plan(rule: Rule) -> list:
    """Anchor/extend/close steps covering every lhs node and edge."""
    lhs = rule.lhs
    plan = []
    planned_edges = set()
    visited = set()

    def visit(pid):
        visited.add(pid)
        for idx, pe in enumerate(lhs.edges):
            if idx in planned_edges:
                continue
            if pe.src in visited and pe.tgt in visited:
                planned_edges.add(idx)
                plan.append(("close", idx))
        for idx, pe in enumerate(lhs.edges):
            if idx in planned_edges:
                continue
            if pe.src == pid and pe.tgt not in visited:
                planned_edges.add(idx)
                plan.append(("extend", idx, pid, pe.tgt, True))
                visit(pe.tgt)
            elif pe.tgt == pid and pe.src not in visited:
                planned_edges.add(idx)
                plan.append(("extend", idx, pid, pe.src, False))
                visit(pe.src)

    comps = _components(lhs)
    anchored = [(_anchor_for(comp, lhs)) for comp in comps]
    for (pid, source), _comp in sorted(zip(anchored, comps), key=lambda t: t[0][0]):
        plan.append(("anchor", pid, source))
        visit(pid)
    return plan


def validate_rule(rule: Rule) -> list:
    """Check structural invariants, precompute the search plan and the
    application recipe.  Returns warnings; raises ValidationError on errors.
    """
    errors = []
    warnings = []
    kinds = dict(rule.vars)
    if len(kinds) != len(rule.vars):
        errors.append(f"rule {rule.name}: duplicate variable declaration")

    declared = set(kinds)
    lhs_vars: set = set()
    for side_name, side in (("lhs", rule.lhs), ("rhs", rule.rhs)):
        for pid, pn in side.nodes.items():
            if pn.pid != pid:
                errors.append(f"rule {rule.name}: inconsistent pid map on {side_name}")
            for v in pn.label.variables():
                if v not in declared:
                    errors.append(f"rule {rule.name}: undeclared variable {v!r}")
                elif side_name == "lhs":
                    lhs_vars.add(v)
            if side_name == "lhs":
                if pn.mark not in NODE_MARKS and pn.mark != "any":
                    errors.append(f"rule {rule.name}: bad node mark {pn.mark!r}")
        for pe in side.edges:
            if pe.src not in side.nodes or pe.tgt not in side.nodes:
                errors.append(f"rule {rule.name}: edge endpoint missing on {side_name}")
            if pe.mark not in EDGE_MARKS and pe.mark != "any":
                errors.append(f"rule {rule.name}: bad edge mark {pe.mark!r}")
            for v in pe.label.variables():
                if v not in declared:
                    errors.append(f"rule {rule.name}: undeclared variable {v!r}")
                elif side_name == "lhs":
                    lhs_vars.add(v)

    for pid in rule.interface:
        if pid not in rule.lhs.nodes or pid not in rule.rhs.nodes:
            errors.append(f"rule {rule.name}: interface pid {pid} not on both sides")

    rhs_vars = set()
    for pn in rule.rhs.nodes.values():
        rhs_vars.update(pn.label.variables())
    for pe in rule.rhs.edges:
        rhs_vars.update(pe.label.variables())
    for v in sorted(rhs_vars - lhs_vars):
        if v in declared:
            errors.append(f"rule {rule.name}: variable {v!r} used on rhs only")

    for pid, pn in rule.rhs.nodes.items():
        if pid not in rule.interface and pn.mark == "any":
            errors.append(f"rule {rule.name}: created node {pid} has wildcard mark")
    for pe in rule.rhs.edges:
        if pe.mark == "any":
            errors.append(f"rule {rule.name}: rhs edge has wildcard mark")

    if rule.cond is not None:
        cond_vars, cond_pids = cond_refs(rule.cond)
        for v in sorted(cond_vars):
            if v not in lhs_vars:
                errors.append(f"rule {rule.name}: condition uses unbound variable {v!r}")
        for pid in sorted(cond_pids):
            if pid not in rule.lhs.nodes:
                errors.append(f"rule {rule.name}: condition queries unknown node {pid}")

    if errors:
        raise ValidationError("; ".join(errors))

    if rule.lhs.nodes and not any(pn.rooted for pn in rule.lhs.nodes.values()):
        warnings.append(f"rule {rule.name}: no rooted node in left-hand side")

    rule.plan = _build_plan(rule)
    rule.deleted_pids = sorted(set(rule.lhs.nodes) - rule.interface)
    rule.created_pids = sorted(set(rule.rhs.nodes) - rule.interface)
    rule.iface_ops = []
    for pid in sorted(rule.interface):
        ln = rule.lhs.nodes[pid]
        rn = rule.rhs.nodes[pid]
        same_label = ln.label == rn.label
        rule.iface_ops.append((pid, rn, same_label))
    return warnings


def find_match(rule: Rule, g: HostGraph, stats: MatchStats) -> Optional[Match]:
    """First match of `rule` in `g` under the fixed search order, or None."""
    lhs = rule.lhs
    if not lhs.nodes:
        if rule.cond is not None and not eval_cond(rule.cond, {}, None):
            return None
        stats.matches_found += 1
        return Match({}, {}, {})

    plan = rule.plan
    nsteps = len(plan)
    nodes = g.nodes
    edges = g.edges
    nmap: dict = {}
    emap: dict = {}
    used_nodes: set = set()
    used_edges: set = set()
    assignment: dict = {}
    anchors_tried = 0
    extensions = 0

    def bind_node(pn, nid, trail) -> bool:
        rec = nodes[nid]
        if rec.rooted != pn.rooted:
            return False
        pm = pn.mark
        if pm == "any":
            if rec.mark == "none":
                return False
        elif rec.mark != pm:
            return False
        if nid in used_nodes:
            return False
        if not unify_into(pn.label, rec.label, assignment, trail):
            return False
        nmap[pn.pid] = nid
        used_nodes.add(nid)
        return True

    def unbind_node(pid, nid):
        del nmap[pid]
        used_nodes.discard(nid)

    def edge_compatible(pe, rec, trail) -> bool:
        pm = pe.mark
        if pm == "any":
            if rec.mark == "none":
                return False
        elif rec.mark != pm:
            return False
        return unify_into(pe.label, rec.label, assignment, trail)

    def finish() -> Optional[Match]:
        if rule.cond is not None:
            def degrees(fn, pid):
                return g.outdeg(nmap[pid]) if fn == "outdeg" else g.indeg(nmap[pid])
            if not eval_cond(rule.cond, assignment, degrees):
                return None
        for pid in rule.deleted_pids:
            h = nmap[pid]
            for eid in g.in_adj[h]:
                if eid not in used_edges:
                    return None
            for eid in g.out_adj[h]:
                if eid not in used_edges:
                    return None
        stats.matches_found += 1
        return Match(dict(nmap), dict(emap), dict(assignment))

    def step(i) -> Optional[Match]:
        nonlocal anchors_tried, extensions
        if i == nsteps:
            return finish()
        s = plan[i]
        kind = s[0]
        if kind == "anchor":
            _, pid, source = s
            if source[0] == "roots":
                candidates = g.roots_by_recency()
            elif source[0] == "mark":
                candidates = g.nodes_with_mark(source[1])
            else:
                candidates = g.node_ids()
            pn = lhs.nodes[pid]
            first = i == 0
            for nid in candidates:
                if first:
                    anchors_tried += 1
                else:
                    extensions += 1
                trail: list = []
                if bind_node(pn, nid, trail):
                    m = step(i + 1)
                    if m is not None:
                        return m
                    unbind_node(pid, nid)
                undo_trail(assignment, trail)
            return None
        if kind == "extend":
            _, eidx, known_pid, new_pid, use_out = s
            pe = lhs.edges[eidx]
            h = nmap[known_pid]
            pn = lhs.nodes[new_pid]
            adj = g.out_adj[h] if use_out else g.in_adj[h]
            for eid in list(adj):
                extensions += 1
                if eid in used_edges:
                    continue
                rec = edges[eid]
                trail: list = []
                if edge_compatible(pe, rec, trail):
                    other = rec.tgt if use_out else rec.src
                    if bind_node(pn, other, trail):
                        emap[eidx] = eid
                        used_edges.add(eid)
                        m = step(i + 1)
                        if m is not None:
                            return m
                        del emap[eidx]
                        used_edges.discard(eid)
                        unbind_node(new_pid, other)
                undo_trail(assignment, trail)
            return None
        # close: both endpoints already matched
        _, eidx = s
        pe = lhs.edges[eidx]
        src_h = nmap[pe.src]
        tgt_h = nmap[pe.tgt]
        for eid in list(g.out_adj[src_h]):
            extensions += 1
            if eid in used_edges:
                continue
            rec = edges[eid]
            if rec.tgt != tgt_h:
                continue
            trail: list = []
            if edge_compatible(pe, rec, trail):
                emap[eidx] = eid
                used_edges.add(eid)
                m = step(i + 1)
                if m is not None:
                    return m
                del emap[eidx]
                used_edges.discard(eid)
            undo_trail(assignment, trail)
        return None

    result = step(0)
    del step  # step's closure refers to itself; leave no cycle behind
    stats.anchors_tried += anchors_tried
    stats.extension_steps += extensions
    if anchors_tried > stats.max_anchors_per_call:
        stats.max_anchors_per_call = anchors_tried
    if extensions > stats.max_extensions_per_call:
        stats.max_extensions_per_call = extensions
    return result


def apply_match(rule: Rule, m: Match, g: HostGraph, stats: MatchStats) -> None:
    """Rewrite `g` in place.  Call immediately after a successful find_match.

    All matched lhs edges are deleted and all rhs edges are created fresh;
    non-interface lhs nodes are deleted (the dangling condition guarantees
    this is safe), interface nodes are relabeled, remarked, and rerooted
    per the rhs, and non-interface rhs nodes are created.  Every mutation
    goes through the journal, so the application rolls back cleanly.
    """
    a = m.assignment
    for eid in m.edges.values():
        g.delete_edge(eid)
    for pid in rule.deleted_pids:
        g.delete_node(m.nodes[pid])
    imgs = dict(m.nodes)
    for pid, rn, same_label in rule.iface_ops:
        nid = imgs[pid]
        rec = g.nodes[nid]
        if not same_label:
            new_label = eval_pattern(rn.label, a)
            if new_label != rec.label:
                g.set_label(nid, new_label)
        if rn.mark != "any" and rn.mark != rec.mark:
            g.set_mark(nid, rn.mark)
        if rn.rooted != rec.rooted:
            g.set_root(nid, rn.rooted)
    for pid in rule.created_pids:
        rn = rule.rhs.nodes[pid]
        imgs[pid] = g.add_node(eval_pattern(rn.label, a), rn.mark, rn.rooted)
    for pe in rule.rhs.edges:
        g.add_edge(imgs[pe.src], imgs[pe.tgt], eval_pattern(pe.label, a), pe.mark)
    stats.applications += 1
    stats.by_rule[rule.name] = stats.by_rule.get(rule.name, 0) + 1
