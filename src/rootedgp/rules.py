"""Rule representation, rooted injective matching, and rule application.

Matching is deterministic.  Each rule gets a fixed search plan at load
time: the left-hand side is split into connected components, every
component gets an anchor node, and the rest of the component is reached
depth-first along its edges in declaration order.  Anchor candidates come
from the smallest available registry: a rooted anchor reads the root
registry of its mark, so it never probes a root its mark test would reject
(a wildcard-marked rooted anchor reads all roots and tests their marks);
either way roots come most recently rooted first, which keeps the active
traversal root ahead of any stale roots.  Unrooted marked anchors read
the per-mark node index, and a full ascending-id scan is the last resort.
Extension candidates are enumerated from the adjacency of already-matched
nodes only, so matching a rule whose pattern hangs off roots or rare
marks costs O(degree), independent of host size.

The plan is not interpreted.  It is compiled, with compile() and exec(),
into straight-line Python, as GP 2's compiler emits one C function per
rule.  The plan becomes one nested loop per step that tests rootedness,
marks, constant atoms, variable kinds, repeated variables, injectivity,
the condition and the dangling condition as comparisons on local
variables.  The rewrite is one block of code that deletes, relabels,
remarks, reroots and creates directly in the host graph's stores, builds
the rhs labels in place, and journals exactly what the HostGraph mutators
would, as entries of the kinds in hostgraph.UNDO.  Each rule has one
compiled rewrite, its fused application (fused_applier, applied by
apply_rule): the loop nest, with the rewrite at the first match, reading
the matched nodes, edges and variables from the loop's locals; the
interpreter's compiled control calls it directly.
The rule's only other function, its probe (rule_prober), is the loop nest
returning the match as a Match, counted as an application, without the
rewrite: the control tests `if` conditions with it, and find_match runs
it for inspection.  apply_match is a checked wrapper over the fused
application for a caller that inspected the match first.  Both functions
are compiled on first use; validate_rule drops both.

An edge on both sides of a rule (_Codegen.kept) stays in place: the
rewrite neither deletes nor creates it, so it keeps its id, its record and
its place in both adjacency lists, and nothing is journalled for it; GP 2
defines a rule's result only up to isomorphism.  So the BST descent, which
moves a root along a tree edge, touches no edge.

The rewrite does no work the search has done.  The search keeps each
matched edge's record, each bound node's record and each adjacency list
it tested (adjacency first, below) in a local, and the rewrite reads
them there rather than from the stores.

A loop over a rule or a rule set (`r!`, `{r1, ..., rk}!`) is compiled
into one more function, its loop function (fused_loop): one `while` that
runs the members' loop nests in turn, leaves a nest at its first match
with `break` (for/else) and rewrites from the nest's locals.  The host's
stores, root registries and journal are read once per loop, not once per
attempt, and the registries again after a rewrite that refiles them; the
counters accumulate in locals and are settled in a `finally`.  So an
iteration of the BST descent costs no call, no prologue and no counter
flush.

The compiled searches reject candidates early in three ways, none of
which changes the match found or any MatchStats counter, per-call maxima
included:

- Adjacency first: when the next plan step loops over a node's out- or
  in-adjacency, a node whose list is empty is rejected before its label,
  marks and injectivity are tested; the next loop would count nothing.
- Early conjuncts: when the last plan step anchors a single-node
  component, the top-level `and` conjuncts of the condition that need
  nothing from it are tested just before it; a failing one adds the
  anchor's candidate count to the extension steps at once, as probing
  each candidate would.
- Hoisted anchors: in a loop function, a later anchor over a root
  registry whose component is its node alone is unified once per call
  into a list of (registry positions since the previous entry, node,
  bound atoms).  Each attempt loops over that list, counting each entry's
  positions and, when the list runs out, the positions after its last
  entry; a variable bound before is compared with the entry's atom and
  injectivity is tested per attempt.  A list is rebuilt after a member's
  rewrite that can root, unroot, remark, relabel, create or delete a
  node filed in its registry, as decided from the rule (_changes_roots).

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

from .errors import DivergenceError, ValidationError, _clip
from .hostgraph import EDGE_MARKS, NODE_MARKS, EdgeRec, HostGraph, NodeRec
from .labels import (
    MAX_COND_DEPTH, AndC, ArithT, CmpC, DegT, IntT, LabelPattern, NotC, OrC,
    VarT, cond_refs, operands, strip_nots, summands,
)
# Not called here (compiled rules do this work inline); perfbench/tracing.py
# wraps these three names in this module's namespace.
from .labels import eval_cond, eval_pattern, unify_into  # noqa: F401

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
    # Compiled from the above on first use; validate_rule resets them.
    applier: object = field(default=None, compare=False, repr=False)
    prober: object = field(default=None, compare=False, repr=False)


@dataclass
class Match:
    nodes: dict        # pid -> host node id (injective)
    edges: dict        # lhs edge index -> host edge id (injective)
    assignment: dict   # variable name -> atom or atom tuple


# The search's counters, and the largest of its first two per call.
_COUNTS = ("anchors_tried", "extension_steps", "matches_found")
_MAXIMA = ("max_anchors_per_call", "max_extensions_per_call")


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
        for name in self.__slots__:
            setattr(s, name, getattr(self, name))
        s.by_rule = dict(self.by_rule)
        return s

    def minus(self, other: "MatchStats") -> "MatchStats":
        """Counter deltas since `other`; the max fields stay absolute."""
        s = self.copy()
        for name in _COUNTS + ("applications",):
            setattr(s, name, getattr(self, name) - getattr(other, name))
        s.by_rule = {name: n - other.by_rule.get(name, 0)
                     for name, n in self.by_rule.items()
                     if n != other.by_rule.get(name, 0)}
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
    """Check structural invariants and precompute the search plan.
    Returns warnings; raises ValidationError on errors.
    """
    errors = []
    warnings = []
    kinds = dict(rule.vars)
    if len(kinds) != len(rule.vars):
        errors.append("duplicate variable declaration")

    declared = set(kinds)
    lhs_vars, rhs_vars = set(), set()
    for side_name, side in (("lhs", rule.lhs), ("rhs", rule.rhs)):
        for pid, pn in side.nodes.items():
            if pn.pid != pid:
                errors.append(f"inconsistent pid map on {side_name}")
            for v in pn.label.variables():
                if v not in declared:
                    errors.append(f"undeclared variable {_clip(repr(v))}")
                else:
                    (lhs_vars if side_name == "lhs" else rhs_vars).add(v)
            if pn.mark not in NODE_MARKS and pn.mark != "any":
                errors.append(f"bad node mark {_clip(repr(pn.mark))}")
        for pe in side.edges:
            if pe.src not in side.nodes or pe.tgt not in side.nodes:
                errors.append(f"edge endpoint missing on {side_name}")
            if pe.mark not in EDGE_MARKS and pe.mark != "any":
                errors.append(f"bad edge mark {_clip(repr(pe.mark))}")
            for v in pe.label.variables():
                if v not in declared:
                    errors.append(f"undeclared variable {_clip(repr(v))}")
                else:
                    (lhs_vars if side_name == "lhs" else rhs_vars).add(v)

    for pid in rule.interface:
        if pid not in rule.lhs.nodes or pid not in rule.rhs.nodes:
            errors.append(f"interface pid {_clip(str(pid))} not on both sides")

    for v in sorted(rhs_vars - lhs_vars):
        errors.append(f"variable {_clip(repr(v))} used on rhs only")

    for pid, pn in rule.rhs.nodes.items():
        if pid not in rule.interface and pn.mark == "any":
            errors.append(f"created node {_clip(str(pid))} has wildcard mark")
    for pe in rule.rhs.edges:
        if pe.mark == "any":
            errors.append("rhs edge has wildcard mark")

    if rule.cond is not None:
        cond_vars, cond_pids, depth = cond_refs(rule.cond)
        for v in sorted(cond_vars):
            if v not in lhs_vars:
                errors.append(f"condition uses unbound variable {_clip(repr(v))}")
        for pid in sorted(cond_pids):
            if pid not in rule.lhs.nodes:
                errors.append(f"condition queries unknown node {_clip(str(pid))}")
        if depth > MAX_COND_DEPTH:
            errors.append(f"condition nests and/or/not {depth} deep (at most {MAX_COND_DEPTH})")

    if errors:
        name = _clip(rule.name)
        raise ValidationError("; ".join(f"rule {name}: {e}" for e in errors))

    if rule.lhs.nodes and not any(pn.rooted for pn in rule.lhs.nodes.values()):
        warnings.append(f"rule {_clip(rule.name)}: no rooted node in left-hand side")

    rule.plan = _build_plan(rule)
    rule.applier = rule.prober = None
    return warnings


# Python allows 20 statically nested blocks in one function, so generated
# code (here one loop per plan step, in interp one per program loop) opens
# at most this many loops in one function and continues in a helper.
_MAX_LOOPS = 16

# Python allows 100 levels of indentation; a loop function inlines a
# member only while its search nest stays below this depth.
_MAX_INDENT = 90

BUDGET_EXHAUSTED = "loop iteration budget exhausted ({})"

_STORES = ("nodes = g.nodes", "edges = g.edges",
           "out_adj = g.out_adj", "in_adj = g.in_adj")

# After one attempt of an inlined member: add its counts to the loop's
# totals and keep the largest per attempt.
_SETTLE_ATTEMPT = ("NA += na", "NX += nx",
                   "if na > MA: MA = na", "if nx > MX: MX = nx")

# Add a search's anchor and extension counts ({0}, {1}) to `stats`, and
# the largest per call ({2}, {3}) to its maxima.
_SETTLE = ("stats.anchors_tried += {0}", "stats.extension_steps += {1}",
           "if {2} > stats.max_anchors_per_call:",
           "    stats.max_anchors_per_call = {2}",
           "if {3} > stats.max_extensions_per_call:",
           "    stats.max_extensions_per_call = {3}")

_PY_CMP = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}

_KIND_FAILS = {          # test on local {0} that rejects an atom of the kind
    "int": "type({0}) is not int",
    "char": "type({0}) is not str or len({0}) != 1",
    "string": "type({0}) is not str",
    "atom": None,
}


def _refiles_roots(rule: Rule) -> bool:
    """Does the rewrite remark a root, which refiles the root registries?"""
    lhs, rhs = rule.lhs.nodes, rule.rhs.nodes
    return any(lhs[p].rooted and rhs[p].mark not in ("any", lhs[p].mark)
               for p in rule.interface)


def _changes_roots(rule: Rule, mark: str) -> bool:
    """Can the rewrite add, drop, reorder or relabel a root filed under
    `mark`: root, unroot, remark, relabel, create or delete one?"""
    if _refiles_roots(rule):
        return True
    lhs, rhs = rule.lhs.nodes, rule.rhs.nodes
    for pid, rn in rhs.items():
        if pid not in rule.interface and rn.rooted and rn.mark == mark:
            return True
    for pid, ln in lhs.items():
        filed = ln.rooted and ln.mark in (mark, "any")
        if pid not in rule.interface:
            if filed:
                return True
            continue
        rn = rhs[pid]
        new_mark = ln.mark if rn.mark == "any" else rn.mark
        changed = (rn.label != ln.label or new_mark != ln.mark
                   or rn.rooted != ln.rooted)
        if changed and (filed or rn.rooted and new_mark in (mark, "any")):
            return True
    return False


def _schedule(rule: Rule) -> tuple:
    """The top-level `and` conjuncts of the condition, left to right, split
    into those tested early, before the plan's last step, and the rest.

    A conjunct goes early when the last step is the anchor of a single-node
    component and the conjunct refers to no variable or node that anchor
    binds: failing, it then rejects every candidate of that anchor, which
    the search skips and counts at once."""
    conjuncts = operands(rule.cond, AndC) if rule.cond is not None else []
    plan = rule.plan
    if len(plan) < 2 or plan[-1][0] != "anchor":
        return [], conjuncts
    # The last anchor's node has no edges, so the steps before it bind
    # every other node and edge, and their variables.
    last = plan[-1][1]
    bound = set()
    for pid, pn in rule.lhs.nodes.items():
        if pid != last:
            bound.update(pn.label.variables())
    for pe in rule.lhs.edges:
        bound.update(pe.label.variables())
    early, late = [], []
    for c in conjuncts:
        names, pids, _ = cond_refs(c)
        (early if last not in pids and names <= bound else late).append(c)
    return early, late


def _may_share(a: PatternNode, b: PatternNode) -> bool:
    """Can one host node pass the root and mark tests of both patterns?"""
    if a.rooted != b.rooted:
        return False
    if a.mark == b.mark:
        return True
    if "any" in (a.mark, b.mark):
        return "none" not in (a.mark, b.mark)
    return False


class _Codegen:
    """Source of one rule's probe or fused application, or of one loop
    function over a rule set.

    Rule data enters the source only as integers and as the repr() of exact
    int, str and bool constants (atoms, marks, the rule name).  Variable
    names and any other constant are passed in the namespace under indexed
    names; variables, host nodes and host edges live in indexed locals.

    A search nest tests each candidate with the cheapest rejections first
    (see the module docstring): bind_node tests an adjacency list the next
    step loops over before the node's label, test_early tests the early
    conjuncts before the last anchor, and inline_member reads a loop
    function's hoisted lists through hoisted_anchor.  Each keeps the
    counter contract: a candidate a step reads counts once, whether it is
    probed, skipped in a hoisted list or rejected with all its siblings.

    The search names what it reads after the host node or edge it read it
    for: node n<k> has its record in r<k> and its tested list in o<k> or
    i<k>, and edge e<k> its record in q<k>; body() rewrites from these.
    """

    def __init__(self):
        self.ns = {"Match": Match, "NodeRec": NodeRec, "EdgeRec": EdgeRec}
        self.funcs = []        # finished function sources
        self.lines = []
        self.depth = 1         # indentation of the next line
        self.nsources = 0      # candidate sources read so far
        self.registries = {}   # root registry source -> local, in a loop
        self.hoists = {}       # (source, unifying lines) -> hoisted list index
        self.fail = None       # the statement that rejects a candidate

    def use(self, rule: Rule) -> None:
        """Start emitting `rule`'s search."""
        self.rule = rule
        # lhs nodes outside the interface, which the rewrite deletes
        self.deleted = sorted(set(rule.lhs.nodes) - rule.interface)
        self.vars = {}         # variable name -> (local, kind of its binding slot)
        self.nodes = {}        # pid -> (local, pattern node)
        self.edges = []        # (lhs edge index, local, pattern edge)
        self.recs = {}         # pid -> local holding its host node's record
        self.adjs = {}         # (store, pid) -> local holding that list
        self.early, self.late = _schedule(rule)

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def emit_lines(self, lines: list) -> None:
        for line in lines:
            self.emit(line)

    def lit(self, value) -> str:
        if type(value) in (int, str, bool):
            return repr(value)
        return self.ref(value)

    def ref(self, value) -> str:
        name = f"K{len(self.ns)}"
        self.ns[name] = value
        return name

    def compiled(self, name: str, filename: str):
        """Compile the finished functions and return the one called `name`."""
        source = "\n\n".join(self.funcs) + "\n"
        exec(compile(source, filename, "exec"), self.ns)
        return self.ns[name]

    # -- search ---------------------------------------------------------------

    def search(self, rule: Rule, name: str) -> None:
        """The plan's loop nest as function `name`: "apply" rewrites the
        graph at the first match and returns whether there was one, and
        "probe" returns the first match, counted as an application, or
        False, without rewriting."""
        self.use(rule)
        self.name = name
        self.stack = []        # per open function: its caller's lines
        self.sources = {}      # anchor source -> local holding its candidates
        self.open_function(name, "g, stats")
        self.emit_lines(_STORES)
        self.read_sources(self.anchor_sources())
        if rule.plan:
            self.emit("na = 0")
            self.emit("nx = 0")
        for i, s in enumerate(rule.plan):
            if self.loops == _MAX_LOOPS:
                self.continue_in_helper()
            self.step(i, s)
        self.finish()
        while self.stack:
            self.close_function()

    def step(self, i: int, s: tuple) -> None:
        self.i = i
        if s[0] == "anchor":
            self.anchor(i, s[1], s[2])
        elif s[0] == "extend":
            self.extend(*s[1:])
        else:
            self.close(s[1])
        self.test_early()

    def test_early(self) -> None:
        """Before the plan's last step, test the conjuncts scheduled early;
        one that fails skips every candidate of the last anchor and counts
        them, as testing it at each of them would."""
        plan = self.rule.plan
        if not self.early or self.i != len(plan) - 2:
            return
        pid, source = plan[-1][1:]
        cands = self.sources[self.anchor_source(pid, source)]
        self.emit(f"if not {self.conjunction(self.early)}:")
        self.emit(f"    nx += len({cands})")
        self.emit(f"    {self.fail}")

    def anchor_sources(self) -> list:
        """The anchor sources of the rule's plan, in plan order."""
        sources = []
        for s in self.rule.plan:
            if s[0] == "anchor":
                source = self.anchor_source(s[1], s[2])
                if source not in sources:
                    sources.append(source)
        return sources

    def read_sources(self, sources: list) -> None:
        """Read each source not read yet into a local of its own."""
        for source in sources:
            if source in self.sources:
                continue
            local = self.sources[source] = f"c{self.nsources}"
            self.nsources += 1
            if source == ("roots",):
                call = "g.roots_by_recency()"
            elif source[0] == "roots":
                call = f"g._roots[{self.lit(source[1])}]"
            elif source[0] == "mark":
                call = f"g.nodes_with_mark({self.lit(source[1])})"
            else:
                call = "g.node_ids()"
            self.emit(f"{local} = {call}")

    # -- loop function --------------------------------------------------------

    def loop_function(self, members: list) -> None:
        """The loop `{members}!` as one function, `loop(g, stats, tr, it,
        max_iters) -> it`: each iteration counts against the budget, then
        runs the members' search nests in turn until one matches, and
        applies that member, or ends the loop if none matches.

        The stores, the root registries and the journal are read once per
        loop, and the registries again after a rewrite that refiles them;
        the hoisted lists are built once per loop, and each again after a
        rewrite that can make it stale.  Counters accumulate in locals and are settled when the function
        is left, however it is left.  A member whose plan is empty, needs
        a helper function or would nest too deep is called through its
        fused applier instead."""
        self.name = "loop"
        self.ns.update(DivergenceError=DivergenceError)
        self.lines = ["def loop(g, stats, tr, it, max_iters):"]
        self.depth = 1
        inline = []
        depth = 3              # of the first member's code, in the while
        for rule in members:
            n = len(rule.plan)
            inline.append(0 < n <= _MAX_LOOPS and depth + n < _MAX_INDENT)
            depth += inline[-1]    # the next member goes in an else clause
        inlined = [rule for rule, i in zip(members, inline) if i]
        counts = {}            # rule name -> local counting its applications
        self.sources = {}
        if inlined:
            self.emit_lines(_STORES)
            for rule in inlined:
                self.use(rule)
                self.read_sources([s for s in self.anchor_sources()
                                   if s[0] == "roots" and s != ("roots",)])
                counts.setdefault(rule.name, f"k{len(counts)}")
                for i, s in enumerate(rule.plan):
                    if self.hoistable(i, s):
                        self.hoist(s[1])
            self.registries = dict(self.sources)
            self.emit_lines(self.rebuilt())
            self.emit("j = g._frames[-1][0]")
            self.emit("NA = NX = MA = MX = 0")
            self.emit(" = ".join(counts.values()) + " = 0")
        self.emit("try:")
        self.depth += 1
        self.emit("while True:")
        self.depth += 1
        self.emit("it += 1")
        self.emit("if it > max_iters:")
        self.emit(f"    raise DivergenceError({self.lit(BUDGET_EXHAUSTED)}.format(max_iters))")
        hits = []              # per inlined member: (depth, lines on a match)
        for rule, i in zip(members, inline):
            if i:
                depth = self.depth
                hits.append((depth, self.inline_member(rule, counts[rule.name])))
            else:
                self.called_member(rule)
        self.emit("break")
        for depth, lines in reversed(hits):
            self.depth = depth
            self.emit_lines(lines)
        self.depth = 1
        self.emit("finally:")
        self.depth += 1
        self.emit_lines(self.settle(counts) if inlined else ["pass"])
        self.depth = 1
        self.emit("return it")
        self.funcs.append("\n".join(self.lines))

    def settle(self, counts: dict) -> list:
        """Lines adding a loop function's counters to `stats`."""
        lines = [line.format("NA", "NX", "MA", "MX") for line in _SETTLE]
        lines += [f"n = {' + '.join(counts.values())}",
                  "if n:",
                  "    stats.matches_found += n",
                  "    stats.applications += n",
                  "    by_rule = stats.by_rule"]
        for name, k in counts.items():
            name = self.lit(name)
            lines += [f"    if {k}:",
                      f"        by_rule[{name}] = by_rule.get({name}, 0) + {k}"]
        return lines

    def inline_member(self, rule: Rule, count: str) -> list:
        """Emit one attempt of `rule`: its search nest, with hoistable
        anchors read from their hoisted lists, which breaks out at the
        first match, then an else clause that holds the attempts of the
        later members; return the lines that apply the match, which go
        after that clause."""
        self.use(rule)
        self.emit("na = 0")
        self.emit("nx = 0")
        self.read_sources(self.anchor_sources())
        top = self.depth
        self.loops = 0
        tails = {}             # depth of a hoisted anchor's loop -> its tail
        for i, s in enumerate(rule.plan):
            if self.hoistable(i, s):
                depth = self.depth
                tails[depth] = self.hoisted_anchor(i, s[1])
            else:
                self.step(i, s)
        self.finish()
        # Propagate the break of the innermost loop out of the nest; a
        # hoisted anchor's list that runs out counts the registry's tail.
        while self.depth > top + 1:
            self.depth -= 1
            self.emit("else:")
            if self.depth in tails:
                self.emit(f"    nx += {tails[self.depth]}")
            self.emit("    continue")
            self.emit("break")
        self.depth = top
        self.emit("else:")
        self.depth += 1
        self.emit_lines(_SETTLE_ATTEMPT)
        lines = self.lines
        self.lines = []
        self.depth = 0
        self.emit_lines(_SETTLE_ATTEMPT)
        self.emit_lines(self.body())
        self.emit(f"{count} += 1")
        self.applied(rule)
        hit = self.lines
        self.lines = lines
        self.depth = top + 1
        return hit

    def hoistable(self, i: int, s: tuple) -> bool:
        """Is step `i` of a loop function's member a non-first anchor over
        a root registry whose component is its node alone?  Such an
        anchor unifies the same roots on every attempt, so the loop
        function unifies them once into a hoisted list."""
        if i == 0 or s[0] != "anchor":
            return False
        source = self.anchor_source(s[1], s[2])
        return (source[0] == "roots" and source != ("roots",)
                and all(s[1] not in (pe.src, pe.tgt) for pe in self.rule.lhs.edges))

    def hoist(self, pid) -> tuple:
        """Register the hoisted list of the anchor of `pid`; return its index
        and the (name, slot kind) of the variables its entries bind.

        Function hoist<k>(nodes, reg) unifies the roots of registry `reg`,
        most recently rooted first, with the node's label, binding every
        variable afresh.  It returns the list of (registry positions since
        the previous entry, node, bound atoms) of the roots that pass, and
        the positions after the last entry.  Anchors whose unification
        reads the same registry in the same way share one list."""
        source = self.anchor_source(pid, ("roots",))
        outer = self.lines, self.depth, self.vars, self.fail
        self.lines, self.depth, self.vars, self.fail = [], 2, {}, "continue"
        self.emit("d += 1")
        self.emit("lab = nodes[n].label")
        self.unify(self.rule.lhs.nodes[pid].label)
        atoms = "".join(f", {local}" for local, _ in self.vars.values())
        self.emit(f"h.append((d, n{atoms}))")
        self.emit("d = 0")
        body = self.lines
        bound = [(name, kind) for name, (_, kind) in self.vars.items()]
        self.lines, self.depth, self.vars, self.fail = outer
        key = (source, tuple(body))
        if key not in self.hoists:
            k = self.hoists[key] = len(self.hoists)
            self.funcs.append("\n".join([f"def hoist{k}(nodes, reg):", "    h = []",
                                         "    d = 0", "    for n in reversed(reg):",
                                         *body, "    return h, d"]))
        return self.hoists[key], bound

    def rebuilt(self, rule: Optional[Rule] = None) -> list:
        """Lines building every hoisted list, or each that a rewrite by
        `rule` can make stale."""
        return [f"H{k}, T{k} = hoist{k}(nodes, {self.registries[source]})"
                for (source, _), k in self.hoists.items()
                if rule is None or _changes_roots(rule, source[1])]

    def hoisted_anchor(self, i: int, pid) -> str:
        """Emit the anchor of `pid` as a loop over its hoisted list, which
        counts each entry's registry positions; return the local holding
        the list's tail.  A variable bound before is compared with the
        entry's atom, and injectivity is tested here, per attempt."""
        self.i = i
        pn = self.rule.lhs.nodes[pid]
        k, bound = self.hoist(pid)
        local = f"n{len(self.nodes)}"
        targets, joins = [], []
        for name, kind in bound:
            if name in self.vars:
                w = f"w{len(joins)}"
                joins.append((w, self.vars[name][0], kind))
                targets.append(w)
            else:
                targets.append(self.new_var(name, kind))
        atoms = "".join(f", {t}" for t in targets)
        self.emit(f"for d, {local}{atoms} in H{k}:")
        self.depth += 1
        self.loops += 1
        self.fail = "continue"
        self.emit("nx += d")
        self.test_unused(local, [other for other, opn in self.nodes.values()
                                 if _may_share(opn, pn)])
        for w, v, kind in joins:
            same = f"{w} != {v}" if kind == "list" else \
                f"{w} != {v} or type({w}) is not type({v})"
            self.emit(f"if {same}: continue")
        self.nodes[pid] = (local, pn)
        self.test_early()
        return f"T{k}"

    def called_member(self, rule: Rule) -> None:
        """Emit one attempt of `rule` through its fused applier."""
        self.emit(f"if {self.ref(fused_applier(rule))}(g, stats):")
        self.depth += 1
        self.applied(rule)
        self.depth -= 1

    def applied(self, rule: Rule) -> None:
        """After `rule` applied: refresh the registries if the rewrite can
        have refiled them, report the application, and iterate."""
        if _refiles_roots(rule):
            for source, local in self.registries.items():
                self.emit(f"{local} = g._roots[{self.lit(source[1])}]")
        self.emit_lines(self.rebuilt(rule))
        self.emit(f"if tr is not None: tr({self.lit(rule.name)})")
        self.emit("continue")

    def open_function(self, name: str, params: str) -> None:
        """Open the search's function, or a helper continuing it."""
        self.stack.append(self.lines)
        self.lines = [f"def {name}({params}):"]
        self.depth = 1
        self.loops = 0
        self.fail = "return False"
        if len(self.stack) > 1:
            self.fail = "return None, nx"
            self.emit("nx = 0")

    def close_function(self) -> None:
        self.depth = 1
        self.return_("False" if len(self.stack) == 1 else "None")
        self.funcs.append("\n".join(self.lines))
        self.lines = self.stack.pop()

    def return_(self, result: str) -> None:
        """Leave the current function with `result`, settling the counters."""
        if len(self.stack) > 1:
            self.emit(f"return {result}, nx")
            return
        if self.rule.plan:
            self.emit_lines(line.format("na", "nx", "na", "nx") for line in _SETTLE)
        self.emit(f"return {result}")

    def continue_in_helper(self) -> None:
        live = ["g", "stats", "nodes", "edges", "out_adj", "in_adj"]
        live += self.sources.values()
        live += [local for local, _ in self.nodes.values()]
        live += [local for _, local, _ in self.edges]
        live += [_edge_rec(local) for _, local, _ in self.edges]
        live += self.recs.values()
        live += self.adjs.values()
        live += [local for local, _ in self.vars.values()]
        name = f"{self.name}_cont{len(self.stack)}"
        args = ", ".join(live)
        self.emit(f"m, k = {name}({args})")
        self.emit("nx += k")
        self.emit("if m is not None:")
        self.depth += 1
        self.return_("m")
        self.open_function(name, args)

    def loop(self, var: str, iterable: str, counter: str) -> None:
        self.emit(f"for {var} in {iterable}:")
        self.depth += 1
        self.loops += 1
        self.fail = "continue"
        self.emit(f"{counter} += 1")

    def anchor_source(self, pid, source: tuple) -> tuple:
        """Where an anchor's candidates come from: a rooted anchor with a
        concrete mark reads the root registry of that mark."""
        mark = self.rule.lhs.nodes[pid].mark
        if source == ("roots",) and mark != "any":
            return ("roots", mark)
        return source

    def anchor(self, i: int, pid, source: tuple) -> None:
        source = self.anchor_source(pid, source)
        local = f"n{len(self.nodes)}"
        cands = self.sources[source]
        if source[0] == "roots" and source != ("roots",):
            # A registry is a dict, least recently rooted first; every loop
            # gets its own iterator, as anchors of one mark may nest.
            cands = f"reversed({cands})"
        self.loop(local, cands, "na" if i == 0 else "nx")
        # A root registry holds only roots, and a mark index or a mark's
        # root registry only nodes with that mark.
        self.bind_node(pid, local, test_root=source[0] != "roots",
                       test_mark=source in (("roots",), ("scan",)))

    def edge(self, eidx: int, known, use_out: bool) -> tuple:
        """Open the loop binding lhs edge `eidx` to an edge at `known`'s host
        node; return the pattern edge and the host edge's and record's locals."""
        pe = self.rule.lhs.edges[eidx]
        e = f"e{len(self.edges)}"
        q = _edge_rec(e)
        self.loop(e, self.adj("out_adj" if use_out else "in_adj", known), "nx")
        # A bound edge with another pattern node at this end has another
        # host node there, so it is another edge.
        self.test_unused(e, [local for _, local, other in self.edges
                             if (other.src if use_out else other.tgt) == known])
        self.emit(f"{q} = edges[{e}]")
        return pe, e, q

    def extend(self, eidx: int, known, new, use_out: bool) -> None:
        pe, e, q = self.edge(eidx, known, use_out)
        self.test_edge(pe, q)
        local = f"n{len(self.nodes)}"
        self.emit(f"{local} = {q}.{'tgt' if use_out else 'src'}")
        self.bind_node(new, local, test_root=True, test_mark=True)
        self.edges.append((eidx, e, pe))

    def close(self, eidx: int) -> None:
        pe, e, q = self.edge(eidx, self.rule.lhs.edges[eidx].src, True)
        self.emit(f"if {q}.tgt != {self.nodes[pe.tgt][0]}: {self.fail}")
        self.test_edge(pe, q)
        self.edges.append((eidx, e, pe))

    def adj(self, store: str, pid) -> str:
        """The list `store` of the host node bound to `pid`: the local the
        search read it into, or a read of the store."""
        return self.adjs.get((store, pid)) or f"{store}[{self.nodes[pid][0]}]"

    def test_unused(self, local: str, bound: list) -> None:
        if bound:
            self.emit(f"if {local} in ({', '.join(bound)},): {self.fail}")

    def test_mark(self, mark, rec: str) -> None:
        if mark == "any":
            self.emit(f"if {rec}.mark == 'none': {self.fail}")
        else:
            self.emit(f"if {rec}.mark != {self.lit(mark)}: {self.fail}")

    def test_edge(self, pe: PatternEdge, rec: str) -> None:
        self.test_mark(pe.mark, rec)
        self.emit(f"lab = {rec}.label")
        self.unify(pe.label)

    def bind_node(self, pid, local: str, test_root: bool, test_mark: bool) -> None:
        """Test the host node `local` against pattern node `pid`, keeping
        its record, and the list the next step loops over, in locals named
        after it (r<k>, o<k> or i<k> for n<k>) for the later steps and the
        rewrite.  The list goes into its local only once the node has
        passed, so a rejected node costs no more than the test."""
        pn = self.rule.lhs.nodes[pid]
        k = local[1:]
        adj = self.next_adjacency(pid)
        if adj:
            # The next step loops over this list: when it is empty, that
            # loop counts nothing and matches nothing.
            self.emit(f"if not {adj}[{local}]: {self.fail}")
        rec = self.recs[pid] = f"r{k}"
        self.emit(f"{rec} = nodes[{local}]")
        if test_root:
            self.emit(f"if {rec}.rooted != {self.lit(pn.rooted)}: {self.fail}")
        if test_mark:
            self.test_mark(pn.mark, rec)
        # The host node passed pn's root and mark tests; a node bound to a
        # pattern node that no host node passes together with pn is another.
        self.test_unused(local, [other for other, opn in self.nodes.values()
                                 if _may_share(opn, pn)])
        self.emit(f"lab = {rec}.label")
        self.unify(pn.label)
        if adj:
            lst = self.adjs[adj, pid] = f"{adj[0]}{k}"
            self.emit(f"{lst} = {adj}[{local}]")
        self.nodes[pid] = (local, pn)

    def next_adjacency(self, pid) -> Optional[str]:
        """The store whose list at node `pid` the next plan step loops
        over, when it loops over one of that node's lists."""
        plan = self.rule.plan
        if self.i + 1 == len(plan):
            return None
        s = plan[self.i + 1]
        if s[0] == "extend" and s[2] == pid:
            return "out_adj" if s[4] else "in_adj"
        if s[0] == "close" and self.rule.lhs.edges[s[1]].src == pid:
            return "out_adj"
        return None

    def unify(self, pattern: LabelPattern) -> None:
        """Test `lab` against the pattern, binding new variables in order:
        prefix, suffix from the end, then the list slot."""
        items = pattern.items
        n = len(items)
        la = pattern.list_at
        if la is None:
            self.emit(f"if {'lab' if n == 0 else f'len(lab) != {n}'}: {self.fail}")
            for i, item in enumerate(items):
                self.scalar(item, f"lab[{i}]")
            return
        suffix = n - la - 1
        if n > 1:
            self.emit(f"if len(lab) < {n - 1}: {self.fail}")
        for i in range(la):
            self.scalar(items[i], f"lab[{i}]")
        for j in range(suffix):
            self.scalar(items[n - 1 - j], f"lab[{-1 - j}]")
        mid = f"lab[{la}:{-suffix}]" if suffix else f"lab[{la}:]" if la else "lab"
        name = items[la][1]
        if name in self.vars:
            self.emit(f"if {mid} != {self.vars[name][0]}: {self.fail}")
        else:
            local = self.new_var(name, "list")
            self.emit(f"{local} = {mid}")

    def scalar(self, item: tuple, atom: str) -> None:
        if item[0] == "c":
            c = self.lit(item[1])
            t = type(item[1]).__name__ if type(item[1]) in (int, str) else f"type({c})"
            self.emit(f"a = {atom}")
            self.emit(f"if a != {c} or type(a) is not {t}: {self.fail}")
            return
        _, name, kind = item
        if kind not in _KIND_FAILS:
            raise ValueError(f"not a scalar kind: {kind}")
        fails = _KIND_FAILS[kind]
        if name not in self.vars:
            local = self.new_var(name, kind)
            self.emit(f"{local} = {atom}")
            if fails:
                self.emit(f"if {fails.format(local)}: {self.fail}")
            return
        local = self.vars[name][0]
        self.emit(f"a = {atom}")
        same = f"a != {local} or type(a) is not type({local})"
        test = f"{fails.format('a')} or {same}" if fails else same
        self.emit(f"if {test}: {self.fail}")

    def new_var(self, name: str, kind: str) -> str:
        local = f"v{len(self.vars)}"
        self.vars[name] = (local, kind)
        return local

    def finish(self) -> None:
        rule = self.rule
        if self.late:
            self.emit(f"if not {self.conjunction(self.late)}: {self.fail}")
        # Matched edges are distinct, so a deleted node has no unmatched
        # incident edge iff its degrees equal its matched edge counts.
        for pid in self.deleted:
            n_in = sum(1 for pe in rule.lhs.edges if pe.tgt == pid)
            n_out = sum(1 for pe in rule.lhs.edges if pe.src == pid)
            self.emit(f"if len({self.adj('in_adj', pid)}) != {n_in} or "
                      f"len({self.adj('out_adj', pid)}) != {n_out}: {self.fail}")
        if self.name == "loop":
            self.emit("break")
            return
        self.emit("stats.matches_found += 1")
        if self.name == "apply":
            body = self.body()
            if self.journaled:
                body.insert(0, "j = g._frames[-1][0]")
            self.emit_lines(body)
        self.emit("stats.applications += 1")
        self.emit("by_rule = stats.by_rule")
        name = self.lit(rule.name)
        self.emit(f"by_rule[{name}] = by_rule.get({name}, 0) + 1")
        if self.name == "apply":
            self.return_("True")
            return
        nmap = ", ".join(f"{self.lit(pid)}: {local}"
                         for pid, (local, _) in self.nodes.items())
        emap = ", ".join(f"{eidx}: {local}" for eidx, local, _ in self.edges)
        amap = ", ".join(f"{self.ref(name)}: {local}"
                         for name, (local, _) in self.vars.items())
        self.emit(f"m = Match({{{nmap}}}, {{{emap}}}, {{{amap}}})")
        self.return_("m")

    def conjunction(self, conds: list) -> str:
        """One test of all the conditions `conds`."""
        parts = [self.cond(c) for c in conds]
        return parts[0] if len(parts) == 1 else f"({' and '.join(parts)})"

    def cond(self, c) -> str:
        k = type(c)
        if k is CmpC:
            guards = []
            for name in cond_refs(c)[0]:
                local, kind = self.vars[name]
                if kind == "atom":
                    guards.append(f"type({local}) is int")
                elif kind != "int":
                    return "False"    # a non-int binding fails the comparison
            test = f"{self.term(c.left)} {_PY_CMP[c.op]} {self.term(c.right)}"
            return "(" + " and ".join(sorted(guards) + [test]) + ")"
        if k is AndC or k is OrC:
            # One flat expression for a chain of any length.
            op = " and " if k is AndC else " or "
            return f"({op.join(self.cond(x) for x in operands(c, k))})"
        if k is NotC:
            inner, negated = strip_nots(c)
            return f"(not {self.cond(inner)})" if negated else self.cond(inner)
        raise TypeError(f"not a condition: {c!r}")

    def term(self, t) -> str:
        k = type(t)
        if k is IntT:
            return self.lit(t.value)
        if k is VarT:
            return self.vars[t.name][0]
        if k is ArithT:
            # Python's compiler recurses once per binary operator.
            parts = [self.term(s) if plus else
                     self.lit(-s.value) if type(s) is IntT else f"-{self.term(s)}"
                     for plus, s in summands(t)]
            return f"sum(({', '.join(parts)},))"
        if k is DegT:
            return f"len({self.adj('out_adj' if t.fn == 'outdeg' else 'in_adj', t.pid)})"
        raise TypeError(f"not a term: {t!r}")

    # -- rewrite --------------------------------------------------------------

    def body(self) -> list:
        """The rewrite as lines indented relative to their block, reading
        the host nodes, edges and variables from the search's locals: it
        deletes the matched edges kept leaves unpaired, then the lhs nodes
        outside the interface, relabels, remarks and reroots the interface
        nodes, then creates the other rhs nodes and the unpaired rhs edges.
        It updates the stores directly and journals into `j` exactly what
        the HostGraph mutators would.  Roots and marks the lhs fixes are not
        tested again; a remarked root goes through set_mark, which refiles
        the root registries.

        It reads no record or list the search kept in a local: a matched
        edge's record, a bound node's record and the list adjacency-first
        tested.  A list it reads twice otherwise goes into a local at the
        first read.
        """
        rule = self.rule
        lhs, rhs = rule.lhs, rule.rhs
        outer = self.lines, self.depth
        self.lines = []
        self.depth = 0
        self.journaled = False
        self.refiled = False
        imgs = {pid: self.nodes[pid][0] for pid in sorted(rule.interface)}
        for pid in sorted(set(rhs.nodes) - rule.interface):
            imgs[pid] = f"h{len(imgs)}"
        # Each host adjacency list the rewrite touches: how often, and the
        # local holding it, if any.
        self.lists = {(store, self.nodes[pid][0]): local
                      for (store, pid), local in self.adjs.items()}
        kept = self.kept()
        deleted = [(e, pe) for k, e, pe in self.edges if k not in kept.values()]
        created = [pe for i, pe in enumerate(rhs.edges) if i not in kept]
        self.uses = {}
        ends = [(self.nodes[pe.src][0], self.nodes[pe.tgt][0]) for _, pe in deleted]
        ends += [(imgs[pe.src], imgs[pe.tgt]) for pe in created]
        for src, tgt in ends:
            for key in (("out_adj", src), ("in_adj", tgt)):
                self.uses[key] = self.uses.get(key, 0) + 1
        for e, pe in deleted:
            src, tgt = self.nodes[pe.src][0], self.nodes[pe.tgt][0]
            q = _edge_rec(e)
            self.emit(f"del edges[{e}]")
            self.record("-e", e, src, tgt, f"{q}.label", self.known_mark(pe.mark, q))
            self.emit(f"{self.adj_list('out_adj', src)}.remove({e})")
            self.emit(f"{self.adj_list('in_adj', tgt)}.remove({e})")
        for pid in self.deleted:
            pn = lhs.nodes[pid]
            h = self.nodes[pid][0]
            rec = self.node_rec(pid, pop=True)
            mark = self.known_mark(pn.mark, rec)
            self.record("-n", h, f"{rec}.label", mark, self.lit(pn.rooted), f"{rec}.root_seq")
            self.emit(f"del out_adj[{h}]")
            self.emit(f"del in_adj[{h}]")
            if pn.rooted:
                self.emit(f"del {self.registry(pn.mark, rec)}[{h}]")
            if pn.mark != "none":
                self.emit(f"g._by_mark[{mark}].discard({h})")
        for pid in sorted(rule.interface):
            self.update_node(pid, lhs.nodes[pid], rhs.nodes[pid])
        for pid in sorted(set(rhs.nodes) - rule.interface):
            rn = rhs.nodes[pid]
            h = imgs[pid]
            mark = self.lit(rn.mark)
            self.emit(f"{h} = g._next_node")
            self.emit(f"g._next_node = {h} + 1")
            if rn.rooted:
                self.next_root_seq()
            self.emit(f"nodes[{h}] = NodeRec({self.build(rn.label)}, {mark}, "
                      f"{self.lit(rn.rooted)}, {'s' if rn.rooted else 0})")
            self.emit(f"{self.adj_list('out_adj', h, new=True)} = []")
            self.emit(f"{self.adj_list('in_adj', h, new=True)} = []")
            if rn.rooted:
                self.emit(f"{self.registry(rn.mark, None)}[{h}] = None")
            if rn.mark != "none":
                self.emit(f"g._by_mark[{mark}].add({h})")
            self.record("+n", h)
        # A new edge id is the largest, so appending keeps adjacency sorted.
        for pe in created:
            src, tgt = imgs[pe.src], imgs[pe.tgt]
            self.emit("x = g._next_edge")
            self.emit("g._next_edge = x + 1")
            self.emit(f"edges[x] = EdgeRec({src}, {tgt}, {self.build(pe.label)}, "
                      f"{self.lit(pe.mark)})")
            self.emit(f"{self.adj_list('out_adj', src)}.append(x)")
            self.emit(f"{self.adj_list('in_adj', tgt)}.append(x)")
            self.record("+e", "x")
        body = self.lines
        self.lines, self.depth = outer
        return body

    def kept(self) -> dict:
        """rhs edge index -> index of the lhs edge it keeps.  Each lhs edge,
        in declaration order, pairs with the first unpaired rhs edge with
        its source, target, label pattern and mark, both ends interface
        nodes; an lhs edge marked `any` never pairs."""
        iface = self.rule.interface
        kept = {}
        for k, le in enumerate(self.rule.lhs.edges):
            if le.src not in iface or le.tgt not in iface:
                continue
            for i, pe in enumerate(self.rule.rhs.edges):
                if i not in kept and (pe.src, pe.tgt, pe.label, pe.mark) == (
                        le.src, le.tgt, le.label, le.mark):
                    kept[i] = k
                    break
        return kept

    def adj_list(self, store: str, h: str, new: bool = False) -> str:
        """The rewrite's expression for list `store[h]`: the local holding
        it, or a read of the store, kept in a local (o<h> or i<h>) at the
        first read when the rewrite reads it again.  `new` stores a new
        node's list."""
        key = (store, h)
        local = self.lists.get(key)
        if local is not None:
            return local
        if self.uses.get(key, 0) + new < 2:
            return f"{store}[{h}]"
        local = self.lists[key] = f"{store[0]}{h}"
        if new:
            return f"{local} = {store}[{h}]"
        self.emit(f"{local} = {store}[{h}]")
        return local

    def node_rec(self, pid, pop: bool = False) -> str:
        """The local holding the record of the host node bound to `pid`,
        reading it (into `r`) unless the search kept it; `pop` also deletes
        it from the node store."""
        h = self.nodes[pid][0]
        rec = self.recs.get(pid)
        if rec is None:
            self.emit(f"r = nodes.pop({h})" if pop else f"r = nodes[{h}]")
            return "r"
        if pop:
            self.emit(f"del nodes[{h}]")
        return rec

    def update_node(self, pid, ln: PatternNode, rn: PatternNode) -> None:
        """Relabel, remark and reroot one interface node, in that order."""
        relabel = rn.label != ln.label
        remark = rn.mark not in ("any", ln.mark)
        reroot = rn.rooted != ln.rooted
        if not (relabel or remark or reroot):
            return
        h = self.nodes[pid][0]
        r = self.node_rec(pid)
        if relabel:
            self.emit(f"lab = {self.build(rn.label)}")
            self.emit(f"if lab != {r}.label:")
            self.depth += 1
            self.record("lb", h, f"{r}.label")
            self.emit(f"{r}.label = lab")
            self.depth -= 1
        mark = ln.mark
        if remark:
            new = self.lit(rn.mark)
            if ln.mark == "any":
                self.emit(f"if {r}.mark != {new}:")
                self.depth += 1
            if ln.rooted:
                self.emit(f"g.set_mark({h}, {new})")
                self.refiled = True
            else:
                old = self.known_mark(ln.mark, r)
                self.record("mk", h, old)
                if ln.mark != "none":
                    self.emit(f"g._by_mark[{old}].discard({h})")
                self.emit(f"{r}.mark = {new}")
                if rn.mark != "none":
                    self.emit(f"g._by_mark[{new}].add({h})")
            if ln.mark == "any":
                self.depth -= 1
            mark = rn.mark
        if reroot:
            registry = self.registry(mark, r)
            if rn.rooted:
                self.record("rt", h, "False", f"{r}.root_seq")
                self.next_root_seq()
                self.emit(f"{r}.rooted = True")
                self.emit(f"{r}.root_seq = s")
                self.emit(f"{registry}[{h}] = None")
            else:
                self.record("rt", h, "True", f"{r}.root_seq")
                self.emit(f"{r}.rooted = False")
                self.emit(f"{r}.root_seq = 0")
                self.emit(f"del {registry}[{h}]")

    def registry(self, mark: str, rec: Optional[str]) -> str:
        """The root registry of the lhs or rhs mark `mark` of record `rec`:
        a loop function's local for it until the rewrite refiles."""
        local = self.registries.get(("roots", mark))
        if local is not None and not self.refiled:
            return local
        return f"g._roots[{self.known_mark(mark, rec)}]"

    def known_mark(self, mark: str, rec: Optional[str]) -> str:
        """The mark of record `rec`: a literal unless the lhs left it open."""
        return f"{rec}.mark" if mark == "any" else self.lit(mark)

    def record(self, kind: str, *fields: str) -> None:
        """Journal an entry of `kind` (a key of hostgraph.UNDO) whose fields
        are the expressions `fields`, in the order its undo takes them."""
        self.emit(f"j.append(({', '.join((self.lit(kind),) + fields)}))")
        self.journaled = True

    def next_root_seq(self) -> None:
        self.emit("s = g._root_seq + 1")
        self.emit("g._root_seq = s")

    def build(self, pattern: LabelPattern) -> str:
        """Tuple display instantiating the pattern; list variables splice."""
        parts = []
        for item in pattern.items:
            if item[0] == "c":
                parts.append(self.lit(item[1]))
                continue
            local = self.vars[item[1]][0]
            parts.append(f"*{local}" if item[2] == "list" else local)
        if len(parts) == 1:
            return f"({parts[0]},)"
        return f"({', '.join(parts)})"


def _edge_rec(e: str) -> str:
    """The local holding the record of the host edge in local `e`."""
    return "q" + e[1:]


def _compile(rule: Rule, name: str):
    """Compile the rule's "apply" or "probe" function and return it."""
    gen = _Codegen()
    gen.search(rule, name)
    return gen.compiled(name, f"<rule {rule.name!r}>")


def find_match(rule: Rule, g: HostGraph, stats: MatchStats) -> Optional[Match]:
    """First match of `rule` in `g` under the fixed search order, or None,
    as the rule's probe finds it; `stats` counts only the search."""
    probed = MatchStats()
    m = rule_prober(rule)(g, probed)
    for name in _COUNTS:
        setattr(stats, name, getattr(stats, name) + getattr(probed, name))
    for name in _MAXIMA:
        setattr(stats, name, max(getattr(stats, name), getattr(probed, name)))
    return m or None


def apply_match(rule: Rule, m: Match, g: HostGraph, stats: MatchStats) -> None:
    """Rewrite `g` at `m`, the match find_match returned on `g`, unchanged
    since; any other match raises ValueError and changes nothing.  Matching
    is deterministic, so the fused application rewrites at `m` too; only
    the application is counted, as find_match counted the search.
    """
    if m is None or find_match(rule, g, MatchStats()) != m:
        raise ValueError(f"rule {rule.name}: not the first match on this graph")
    fused_applier(rule)(g, MatchStats())
    stats.applications += 1
    stats.by_rule[rule.name] = stats.by_rule.get(rule.name, 0) + 1


def fused_applier(rule: Rule):
    """The rule's fused application, `apply(g, stats) -> bool`, compiled
    on first use."""
    if rule.applier is None:
        rule.applier = _compile(rule, "apply")
    return rule.applier


def rule_prober(rule: Rule):
    """The rule's probe, `probe(g, stats) -> Match or False`, compiled on
    first use: its search, counted as the fused application counts it,
    without the rewrite.  It finds the match the fused application would
    rewrite at, so it tells whether the rule applies, as applying it
    inside a scope that is then rolled back would."""
    if rule.prober is None:
        rule.prober = _compile(rule, "probe")
    return rule.prober


def apply_rule(rule: Rule, g: HostGraph, stats: MatchStats) -> bool:
    """Apply `rule` at its first match, as find_match and apply_match
    would in turn; False, with `g` unchanged, if it has no match."""
    return fused_applier(rule)(g, stats)


def fused_loop(members: list):
    """The loop over the rule set `members` (one rule for a looped rule
    call) as one compiled function, `loop(g, stats, tr, it, max_iters) ->
    it`.  It counts and applies as many iterations as a loop calling the
    members' fused appliers in turn would, in the same order, calling
    `tr(name)` after each application when `tr` is not None, and leaves
    every counter of `stats` as those calls would, also when the budget
    `max_iters` of total iterations runs out (DivergenceError).  `it` is
    the number of iterations counted so far and is returned updated.
    `tr` may not open or close scopes, and sees the loop's counters
    settled only when it ends."""
    gen = _Codegen()
    gen.loop_function(members)
    return gen.compiled("loop", f"<loop {', '.join(r.name for r in members)}>")
