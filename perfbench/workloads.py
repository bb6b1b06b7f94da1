"""The four benchmark workloads, their inputs and their correctness checks.

Each workload has a set-up (parse the BST program from its text, build the
inputs; timed several times for `setup_s`), a reference computed apart
from the engine, and a `round`: a fixed batch of operations that is timed
and then checked.  A run repeats whole rounds until its time is up, so the
share of failed operations is the same in every run.

The engine is reached only through the public names of its modules, called
as `module.name(...)`, so that `tracing.Tracer` can time those calls from
outside without any program module being edited.
"""
from __future__ import annotations

import random
from time import perf_counter_ns

from rootedgp import bench, bst, interp, oracle, text
from rootedgp.interp import Program, Seq, Status
from rootedgp.rules import MatchStats
from rootedgp.text import Op

# Every op must apply at least as many rules as its key's search path has
# nodes, and at most this many more (measured: 1..8 on all four workloads).
HEIGHT_SLACK = 10


class Tally:
    """What one measured section did: per-op times, counters, failures."""

    def __init__(self):
        self.samples = []        # per-op engine time, ns
        self.timed_ns = 0        # time in the timed sections
        self.engine_ns = 0       # time inside interp.run
        self.attempted = 0
        self.failed = 0
        self.applications = 0
        self.anchors = 0
        self.extensions = 0
        self.matches = 0
        self.peak_rss_kb = 0     # after the first round
        self.problems = []

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def add_stats(self, st: MatchStats) -> None:
        self.applications += st.applications
        self.anchors += st.anchors_tried
        self.extensions += st.extension_steps
        self.matches += st.matches_found


def load_program(variant: str) -> Program:
    """Parse and validate a shipped variant from its text (no warm cache)."""
    return text.parse_program(bst.asset_text(f"bst_{variant}.gp2"))


def engine_run(prog: Program, g, tally: Tally):
    """Run `prog` on `g`, cutting per-op times and rule applications at
    each `next_op` application.  Returns (status, ops started, per-op
    applications)."""
    st = MatchStats()
    cuts = []
    apps = [0]

    def on_apply(name):
        if name == "next_op":
            cuts.append(perf_counter_ns())
            apps.append(st.applications)

    t0 = perf_counter_ns()
    status = interp.run(prog, g, stats=st, on_apply=on_apply)
    t1 = perf_counter_ns()
    cuts.append(t1)
    apps.append(st.applications)
    prev = t0
    for t in cuts:
        tally.samples.append(t - prev)
        prev = t
    tally.engine_ns += t1 - t0
    tally.add_stats(st)
    return status, len(cuts), [b - a for a, b in zip(apps, apps[1:])]


class _PathTree:
    """Counts the nodes each op visits in the reference tree, including
    the walk down to the in-order predecessor of a two-child delete.
    Same rules as oracle.OracleTree; nodes are [key, left, right]."""

    def __init__(self):
        self.top = None
        self.size = 0

    def apply(self, op: Op) -> int:
        parent, node, side, visited = None, self.top, 0, 0
        while node is not None:
            visited += 1
            if node[0] == op.key:
                break
            parent, side = node, (1 if op.key < node[0] else 2)
            node = node[side]
        if op.kind == "i" and node is None:
            self.size += 1
            if parent is None:
                self.top = [op.key, None, None]
            else:
                parent[side] = [op.key, None, None]
        elif op.kind == "d" and node is not None:
            self.size -= 1
            if node[1] is not None and node[2] is not None:
                parent, side, repl = node, 1, node[1]
                visited += 1
                while repl[2] is not None:
                    parent, side, repl = repl, 2, repl[2]
                    visited += 1
                node[0] = repl[0]
                node = repl
            child = node[1] if node[1] is not None else node[2]
            if parent is None:
                self.top = child
            else:
                parent[side] = child
        return visited


def reference(ops):
    """Per op: (oracle outcome, search-path length, tree size before the
    op); and the oracle's final tree."""
    tree, outcomes = oracle.o_apply(ops)
    paths = _PathTree()
    per_op = []
    for op, outcome in zip(ops, outcomes):
        size = paths.size
        per_op.append((outcome, paths.apply(op), size))
    return per_op, tree


def check_heights(ops, paths, op_apps, problems) -> None:
    """The paper's O(height) property, op by op."""
    for idx, (apps, path) in enumerate(zip(op_apps, paths)):
        if not path <= apps <= path + HEIGHT_SLACK:
            problems.append(f"op {idx} {ops[idx]}: {apps} applications "
                            f"for a search path of {path}")


def search_hit(g, nid) -> bool:
    return any(g.edges[eid].mark == "dashed" for eid in g.out_adj[nid])


def check_no_grey_roots(g, problems) -> None:
    stale = [nid for nid in g.roots() if g.nodes[nid].mark == "grey"]
    if stale:
        problems.append(f"stale roots on grey nodes {stale[:5]}")


def check_script(g, tree, ops, ref, ref_tree, status, started, op_apps,
                 tally, sanitized: bool) -> None:
    """Compare one script's run and read-back tree with the reference and
    count its failed ops: the op at which the run broke off early and
    every op after it."""
    problems = tally.problems
    n = len(ops)
    stop = started - 1
    done = n
    tally.attempted += n
    if status is not Status.SUCCESS:
        problems.append(f"engine status {status.value}")
    if stop < n - 1:
        done = stop
        # The empty-tree fault: Search and Delete `break` out of the whole
        # instruction list on an empty tree.  Anything else is a new fault.
        if not (ops[stop].kind in "sd" and ref[stop][2] == 0):
            problems.append(f"run stopped at op {stop} {ops[stop]}")
        tally.failed += n - stop
        ref_tree = oracle.o_apply(ops[:stop])[0]
    if tree != ref_tree:
        problems.append("final tree differs from the reference tree")
    for idx in range(done):
        if ops[idx].kind == "s" and search_hit(g, idx) != ref[idx][0]:
            problems.append(f"search op {idx} {ops[idx]}: engine and oracle disagree")
    check_heights(ops, [r[1] for r in ref], op_apps, problems)
    if sanitized:
        check_no_grey_roots(g, problems)


class Workload:
    name = ""
    tail_pct = 99          # the tail percentile this workload reports
    min_samples = 1000     # enough for >= 10 samples beyond tail_pct

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed: the reference the rounds are checked against."""

    def round(self, tally: Tally) -> None:
        raise NotImplementedError


class ChainDescent(Workload):
    """Single ops on fresh clones of the n-key right-spine chain: insert
    n+1, search n, delete n, in an order drawn from the seed each round."""

    name = "chain-descent"
    tail_pct = 95
    min_samples = 200
    N = 1000

    def setup(self, seed: int) -> None:
        prog = load_program("sanitized")
        main = prog.procs["Main"]
        # The chain already has its green node, so Main skips make_root.
        self.prog = Program(prog.rules, {**prog.procs, "Main": Seq(main.parts[1:])})
        self.base = bench.build_degenerate_graph(self.N)
        self.rng = random.Random(seed)

    def prepare(self) -> None:
        keys = walk_chain(self.base)
        if keys != list(range(1, self.N + 1)):
            raise RuntimeError("degenerate chain is not keyed 1..n")

    def round(self, tally: Tally) -> None:
        n = self.N
        ops = [Op("i", n + 1), Op("s", n), Op("d", n)]
        self.rng.shuffle(ops)
        for op in ops:
            g = self.base.clone()
            nid = g.add_node((op.kind, op.key), "none", rooted=True)
            t0 = perf_counter_ns()
            status, _, op_apps = engine_run(self.prog, g, tally)
            tally.timed_ns += perf_counter_ns() - t0
            tally.attempted += 1
            problems = tally.problems
            if status is not Status.SUCCESS:
                problems.append(f"{op}: engine status {status.value}")
            last = {"i": n + 1, "s": n, "d": n - 1}[op.kind]
            if walk_chain(g) != list(range(1, last + 1)):
                problems.append(f"{op}: chain is not keyed 1..{last}")
            if op.kind == "s" and not search_hit(g, nid):
                problems.append(f"{op}: search missed the deepest key")
            # Each op walks the whole chain: its search path has n nodes.
            check_heights([op], [n], op_apps, problems)
            check_no_grey_roots(g, problems)


def walk_chain(g) -> list:
    """Keys along the grey right spine below the green node, read
    iteratively (bst.extract_tree recurses once per level)."""
    green = g.nodes_with_mark("green")
    if len(green) != 1:
        raise RuntimeError(f"expected one green node, found {len(green)}")
    keys = []
    nid = green[0]
    while True:
        kids = [g.edges[eid].tgt for eid in g.out_adj[nid]
                if g.edges[eid].mark == "none"
                and g.nodes[g.edges[eid].tgt].mark == "grey"]
        if not kids:
            return keys
        if len(kids) > 1:
            raise RuntimeError(f"node {nid} has {len(kids)} grey children")
        nid = kids[0]
        keys.append(g.nodes[nid].label[0])


class ScriptBatch(Workload):
    """A fixed batch of generated scripts per round, each run as one
    interp.run on its own instruction graph and checked against the
    reference tree.  One script's tree shape moves apps_per_op by about 9 %
    from seed to seed, so a batch of several scripts is what keeps a run's
    figures close to those of the next seed."""

    variant = "sanitized"
    constraints = "sanitized-safe"
    count = 1
    size = 0
    key_hi = 10_000
    # True: building the instruction graph, reading the tree back and the
    # oracle are timed with each script, as `rootedgp check` pays them.
    # False: the graph comes from set-up and the checks are untimed.
    per_script_costs = False

    def script_seeds(self, seed: int):
        return [seed * 100 + j for j in range(self.count)]

    def setup(self, seed: int) -> None:
        self.prog = load_program(self.variant)
        self.scripts = [oracle.gen_workload(s, self.size, self.constraints,
                                            key_lo=0, key_hi=self.key_hi)
                        for s in self.script_seeds(seed)]
        if not self.per_script_costs:
            self.graphs = [text.build_instruction_graph(ops)
                           for ops in self.scripts]
        self.rng = random.Random(seed)

    def prepare(self) -> None:
        self.refs = [reference(ops) for ops in self.scripts]

    def round(self, tally: Tally) -> None:
        order = list(range(len(self.scripts)))
        self.rng.shuffle(order)
        for i in order:
            ops = self.scripts[i]
            ref, ref_tree = self.refs[i]
            if self.per_script_costs:
                t0 = perf_counter_ns()
                g = text.build_instruction_graph(ops)
                status, started, op_apps = engine_run(self.prog, g, tally)
                tree = bst.extract_tree(g)
                ref_tree = oracle.o_apply(ops)[0]
                tally.timed_ns += perf_counter_ns() - t0
            else:
                g = self.graphs[i].clone()
                t0 = perf_counter_ns()
                status, started, op_apps = engine_run(self.prog, g, tally)
                tally.timed_ns += perf_counter_ns() - t0
                tree = bst.extract_tree(g)
            check_script(g, tree, ops, ref, ref_tree, status, started, op_apps,
                         tally, self.variant == "sanitized")


class RandomMixed(ScriptBatch):
    """Growing random trees over a wide key range: duplicate inserts, hits
    and misses, two-child deletes with swaps."""

    name = "random-mixed"
    count = 4
    size = 1500
    key_hi = 1_000_000


class FaithfulStaleRoots(ScriptBatch):
    """Every delete leaves a rooted grey node behind under the faithful
    variant, so the root registry grows past a hundred and each rooted
    anchor step sorts and scans it."""

    name = "faithful-stale-roots"
    variant = "faithful"
    constraints = "faithful-safe"
    count = 4
    size = 400


class CheckBattery(ScriptBatch):
    """300 short unrestricted scripts over keys 0..20: duplicates, deletes
    of absent keys, trees that empty.  The script set is fixed, so the ops
    the empty-tree fault drops are the same in every run; the seed only
    shuffles the order the scripts run in each round."""

    name = "check-battery"
    constraints = "unrestricted"
    count = 300
    size = 40
    key_hi = 20
    per_script_costs = True

    def script_seeds(self, seed: int):
        return range(self.count)


WORKLOADS = {w.name: w for w in (ChainDescent, RandomMixed,
                                 FaithfulStaleRoots, CheckBattery)}
