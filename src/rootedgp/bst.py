"""The embedded binary-search-tree graph program: loading, execution,
tree readback, output validation, and the differential harness.

Two program variants ship as text assets.  `faithful` keeps the classic
rule set exactly as drawn: matched and deleted grey nodes stay rooted
afterwards, and a duplicate insert breaks out of the whole instruction
list.  Those stale roots poison later operations under root-preserving
matching, so `sanitized` (the default) makes three minimal amendments:

  1. an `unroot` rule swept at the end of Search and Delete, clearing
     leftover traversal roots;
  2. Insert treats a duplicate key as a skip instead of a break, then
     sweeps `unroot`;
  3. Delete verifies via `match` that the dead-end node really holds the
     requested key before the case analysis, so deleting an absent key
     is a no-op.

Everything else, including all traversal and swap rules, is shared
verbatim; tests machine-check that the variants differ by exactly this
delta.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from typing import Optional

from .errors import MalformedTreeError
from .hostgraph import HostGraph
from .interp import DEFAULT_MAX_ITERS, Program, Status, run
from .oracle import gen_workload, o_apply
from .rules import MatchStats
from .text import build_instruction_graph, format_opscript, parse_program

VARIANTS = ("faithful", "sanitized")
GO_RULES = ("go_right1", "go_left1", "go_left2", "go_right2")
SWAP_RULES = ("swap1", "swap2", "swap3", "swap4", "swap5", "swap6")

_programs: dict = {}


def asset_text(name: str) -> str:
    return resources.files(__package__).joinpath("assets", name).read_text("utf-8")


def program(variant: str = "sanitized") -> Program:
    """The parsed, validated program for a variant.  Cached; treat as
    immutable."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    prog = _programs.get(variant)
    if prog is None:
        prog = parse_program(asset_text(f"bst_{variant}.gp2"))
        _programs[variant] = prog
    return prog


def go_apps(stats: MatchStats) -> int:
    """Applications of the four traversal rules."""
    return sum(stats.by_rule.get(r, 0) for r in GO_RULES)


@dataclass
class BstRunResult:
    status: Status
    graph: HostGraph
    tree: object                   # nested (key, left, right) tuples or None
    tree_error: Optional[str]
    search_hits: list              # (op index, key, target node id)
    garbage_count: int
    stats: MatchStats
    per_op_stats: list             # MatchStats delta per instruction
    trace: Optional[list] = None


def run_bst(ops, variant: str = "sanitized", max_iters: int = DEFAULT_MAX_ITERS,
            trace: bool = False) -> BstRunResult:
    """Build the instruction list, run the program, and read results back.

    Instruction nodes get ids 0..len(ops)-1.  Per-op stat deltas are cut
    at each next_op application; the setup (green-node creation) is folded
    into the first op's delta.
    """
    g = build_instruction_graph(ops)
    prog = program(variant)
    stats = MatchStats()
    tr: Optional[list] = [] if trace else None

    snapshots = [stats.copy()]

    def hook(name):
        if name == "next_op":
            snapshots.append(stats.copy())
        if tr is not None:
            tr.append(name)

    status = run(prog, g, max_iters=max_iters, stats=stats, on_apply=hook)
    snapshots.append(stats.copy())
    per_op = [
        snapshots[i + 1].minus(snapshots[i])
        for i in range(min(len(ops), len(snapshots) - 1))
    ]

    tree = None
    tree_error = None
    try:
        tree = extract_tree(g)
    except MalformedTreeError as e:
        tree_error = str(e)

    return BstRunResult(
        status=status,
        graph=g,
        tree=tree,
        tree_error=tree_error,
        search_hits=_search_hits(g, ops),
        garbage_count=len(garbage_nodes(g)),
        stats=stats,
        per_op_stats=per_op,
        trace=tr,
    )


# -- graph readback -----------------------------------------------------------


def green_nodes(g: HostGraph) -> list:
    return g.nodes_with_mark("green")


def instruction_nodes(g: HostGraph) -> list:
    """Unmarked nodes labeled ("i"|"s"|"d", int)."""
    out = []
    for nid in g.node_ids():
        rec = g.nodes[nid]
        if rec.mark != "none":
            continue
        lab = rec.label
        if len(lab) == 2 and lab[0] in ("i", "s", "d") and type(lab[1]) is int:
            out.append(nid)
    return out


def reachable_from_green(g: HostGraph) -> set:
    seen = set()
    stack = list(green_nodes(g))
    while stack:
        nid = stack.pop()
        if nid in seen:
            continue
        seen.add(nid)
        for eid in g.out_adj[nid]:
            stack.append(g.edges[eid].tgt)
    return seen


def garbage_nodes(g: HostGraph) -> list:
    """Non-instruction nodes not reachable from the green node."""
    reach = reachable_from_green(g)
    instrs = set(instruction_nodes(g))
    return [
        nid for nid in g.node_ids()
        if nid not in reach and nid not in instrs
    ]


def _search_hits(g: HostGraph, ops) -> list:
    """(op index, key, target node id) for each dashed edge out of a
    search instruction that is still in the graph."""
    hits = []
    for idx, op in enumerate(ops):
        if op.kind != "s" or idx not in g.nodes:
            continue
        for eid in g.out_adj[idx]:
            rec = g.edges[eid]
            if rec.mark == "dashed":
                hits.append((idx, op.key, rec.tgt))
    return hits


def _grey_children(g: HostGraph, nid: int) -> list:
    out = []
    for eid in g.out_adj[nid]:
        rec = g.edges[eid]
        if rec.mark == "none" and g.nodes[rec.tgt].mark == "grey":
            out.append(rec.tgt)
    return out


def extract_tree(g: HostGraph):
    """Read the tree hanging off the green node as nested tuples.

    Among a node's grey children the smaller-keyed one is the left child.
    Dashed and red edges and non-grey nodes are ignored.  Structural
    violations raise MalformedTreeError.
    """
    greens = green_nodes(g)
    if len(greens) != 1:
        raise MalformedTreeError(f"expected one green node, found {len(greens)}")
    tops = _grey_children(g, greens[0])
    if len(tops) > 1:
        raise MalformedTreeError("green node has more than one grey child")
    if not tops:
        return None

    def key_of(nid):
        lab = g.nodes[nid].label
        if len(lab) != 1 or type(lab[0]) is not int:
            raise MalformedTreeError(f"node {nid} has non-key label {lab!r}")
        return lab[0]

    # Pre-order, left before right, with an explicit stack: chains may be
    # deeper than the interpreter's recursion limit.  A (node id, key)
    # entry is pushed under the node's children and pops once both are
    # built; `path` holds the ids from the top down to the current node.
    path = set()
    built = []
    stack = [(tops[0], None)]
    while stack:
        nid, k = stack.pop()
        if nid is None:
            built.append(None)
            continue
        if k is not None:
            right = built.pop()
            left = built.pop()
            built.append((k, left, right))
            path.discard(nid)
            continue
        if nid in path:
            raise MalformedTreeError(f"cycle through node {nid}")
        k = key_of(nid)
        kids = _grey_children(g, nid)
        if len(kids) > 2:
            raise MalformedTreeError(f"node {nid} has {len(kids)} grey children")
        lo = hi = None
        if len(kids) == 2:
            ka, kb = key_of(kids[0]), key_of(kids[1])
            if ka == kb or ka == k or kb == k:
                raise MalformedTreeError(f"duplicate key under node {nid}")
            if (ka < k) == (kb < k):
                raise MalformedTreeError(
                    f"node {nid} has two children on the same side")
            lo, hi = (kids[0], kids[1]) if ka < kb else (kids[1], kids[0])
        elif len(kids) == 1:
            ck = key_of(kids[0])
            if ck == k:
                raise MalformedTreeError(f"child key equals parent at node {nid}")
            if ck < k:
                lo = kids[0]
            else:
                hi = kids[0]
        path.add(nid)
        stack += ((nid, k), (hi, None), (lo, None))
    return built[0]


def tree_inorder(t) -> list:
    out = []
    stack = [(t, False)]
    while stack:
        node, emitted = stack.pop()
        if node is None:
            continue
        if emitted:
            out.append(node[0])
        else:
            stack.append((node[2], False))
            stack.append((node, True))
            stack.append((node[1], False))
    return out


def format_tree(t) -> str:
    """Nested parentheses: `(5 (2 (1) (4)) (7 () (8)))`; `()` is empty."""
    out = []
    stack = [t]       # subtrees still to write, and literal closing text
    while stack:
        t = stack.pop()
        if t is None:
            out.append("()")
        elif type(t) is str:
            out.append(t)
        elif t[1] is None and t[2] is None:
            out.append(f"({t[0]})")
        else:
            out.append(f"({t[0]} ")
            stack += (")", t[2], " ", t[1])
    return "".join(out)


# -- output validation ---------------------------------------------------------


@dataclass
class OutputReport:
    violations: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    garbage: list = field(default_factory=list)
    tree: object = None

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_output(g: HostGraph, ops) -> OutputReport:
    """Check the final graph against the program's output contract:
    instruction list intact with the tail rooted, one green node, a
    well-formed key-ordered tree, dashed edges only out of search
    instructions.  Garbage nodes are reported, not flagged."""
    rep = OutputReport()

    greens = green_nodes(g)
    if len(greens) != 1:
        rep.violations.append(f"expected exactly one green node, found {len(greens)}")

    instrs = instruction_nodes(g)
    if not ops:
        rep.notes.append("empty op script: no instruction list expected")
        if instrs:
            rep.violations.append("instruction nodes present for an empty script")
    else:
        expected = list(range(len(ops)))
        if instrs != expected:
            rep.violations.append(
                f"instruction list damaged: found nodes {instrs}, expected {expected}")
        else:
            for idx, op in enumerate(ops):
                if g.nodes[idx].label != (op.kind, op.key):
                    rep.violations.append(f"instruction {idx} was relabeled")
            for idx in range(len(ops) - 1):
                chained = any(
                    g.edges[eid].tgt == idx + 1 and g.edges[eid].mark == "none"
                    for eid in g.out_adj[idx]
                )
                if not chained:
                    rep.violations.append(f"chain edge {idx}->{idx + 1} missing")
            tail = len(ops) - 1
            if not g.nodes[tail].rooted:
                rep.violations.append("tail instruction is not rooted")
            for idx in range(len(ops) - 1):
                if idx in g.nodes and g.nodes[idx].rooted:
                    rep.violations.append(f"non-tail instruction {idx} is rooted")

    instr_set = set(instrs)
    for nid in g.node_ids():
        if g.nodes[nid].rooted and nid not in instr_set:
            rep.violations.append(f"stale root on non-instruction node {nid}")

    try:
        rep.tree = extract_tree(g)
        keys = tree_inorder(rep.tree)
        for a, b in zip(keys, keys[1:]):
            if a >= b:
                rep.violations.append(f"tree order violated: {a} before {b}")
                break
    except MalformedTreeError as e:
        rep.violations.append(f"malformed tree: {e}")

    for eid in g.edge_ids():
        rec = g.edges[eid]
        if rec.mark == "dashed":
            src = g.nodes.get(rec.src)
            if src is None or src.mark != "none" or not (
                len(src.label) == 2 and src.label[0] == "s"
            ):
                rep.violations.append(f"dashed edge e{eid} not from a search node")

    rep.garbage = garbage_nodes(g)
    if rep.garbage:
        rep.notes.append(f"{len(rep.garbage)} garbage node(s): {rep.garbage}")
    return rep


# -- differential harness ---------------------------------------------------------


@dataclass
class Mismatch:
    ops: list
    reason: str
    minimized: list


def diff_against_oracle(ops, variant: str = "sanitized",
                        prog: Optional[Program] = None) -> Optional[str]:
    """Run the engine and the reference tree on the same script; describe
    the first disagreement, or return None if they agree.

    Agreement means: identical final trees, and a dashed search edge for
    op k exactly when the oracle says the key was present at op k."""
    g = build_instruction_graph(ops)
    stats = MatchStats()
    status = run(prog or program(variant), g, stats=stats)
    if status is not Status.SUCCESS:
        return f"engine status {status.value}"
    try:
        engine_tree = extract_tree(g)
    except MalformedTreeError as e:
        return f"malformed tree: {e}"
    oracle_tree, outcomes = o_apply(ops)
    if engine_tree != oracle_tree:
        return (
            f"tree mismatch: engine {format_tree(engine_tree)}, "
            f"oracle {format_tree(oracle_tree)}"
        )
    hit_ops = {idx for idx, _, _ in _search_hits(g, ops)}
    for idx, op in enumerate(ops):
        if op.kind != "s":
            continue
        if outcomes[idx] != (idx in hit_ops):
            want = "hit" if outcomes[idx] else "miss"
            got = "hit" if idx in hit_ops else "miss"
            return f"search op {idx} (key {op.key}): oracle {want}, engine {got}"
    return None


def minimize_ops(ops, variant: str, prog: Optional[Program] = None) -> list:
    """Greedy one-op-at-a-time shrink preserving the mismatch."""
    current = list(ops)
    shrunk = True
    while shrunk:
        shrunk = False
        for i in range(len(current)):
            candidate = current[:i] + current[i + 1:]
            if candidate and diff_against_oracle(candidate, variant, prog):
                current = candidate
                shrunk = True
                break
    return current


def run_check(seeds, size: int, constraints: str,
              variant: str) -> Optional[Mismatch]:
    """Differential check over seeded workloads; first mismatch wins."""
    for seed in seeds:
        ops = gen_workload(seed, size, constraints)
        reason = diff_against_oracle(ops, variant)
        if reason is not None:
            return Mismatch(ops, f"seed {seed}: {reason}",
                            minimize_ops(ops, variant))
    return None


def variant_delta() -> dict:
    """Machine-checked difference between the two shipped variants."""
    f = program("faithful")
    s = program("sanitized")
    return {
        "rules_added": sorted(set(s.rules) - set(f.rules)),
        "rules_removed": sorted(set(f.rules) - set(s.rules)),
        "rules_changed": sorted(
            n for n in set(f.rules) & set(s.rules) if f.rules[n] != s.rules[n]
        ),
        "procs_changed": sorted(
            n for n in set(f.procs) & set(s.procs) if f.procs[n] != s.procs[n]
        ),
        "procs_added": sorted(set(s.procs) - set(f.procs)),
        "procs_removed": sorted(set(f.procs) - set(s.procs)),
    }


def counterexample_text(mm: Mismatch) -> str:
    return (
        f"{mm.reason}\n"
        f"counterexample ({len(mm.minimized)} ops):\n"
        f"{format_opscript(mm.minimized)}"
    )
