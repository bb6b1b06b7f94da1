import pytest

from rootedgp import bst
from rootedgp.bench import build_degenerate_graph, gen_degenerate
from rootedgp.errors import MalformedTreeError
from rootedgp.bst import (
    SWAP_RULES, asset_text, diff_against_oracle, extract_tree, format_tree,
    garbage_nodes, go_apps, minimize_ops, program, run_bst, validate_output,
    variant_delta,
)
from rootedgp.hostgraph import HostGraph
from rootedgp.interp import Status
from rootedgp.oracle import gen_workload, o_apply
from rootedgp.text import Op, parse_opscript, parse_program

from matchref import root_anchored

SIX = [Op("i", k) for k in [5, 2, 7, 1, 4, 8]]
SIX_TREE = (5, (2, (1, None, None), (4, None, None)), (7, None, (8, None, None)))


class TestProgramAssets:
    def test_faithful_inventory(self):
        p = program("faithful")
        # 16 named rules plus the six swap cases, and 7 procedures.
        assert len(p.rules) == 22
        assert len(p.procs) == 7
        assert set(SWAP_RULES) <= set(p.rules)
        assert set(p.procs) == {"Main", "Insert", "Search", "Delete",
                                "Case1", "Case2", "Case3"}

    def test_sanitized_adds_only_unroot(self):
        p = program("sanitized")
        assert len(p.rules) == 23
        delta = variant_delta()
        assert delta == {
            "rules_added": ["unroot"],
            "rules_removed": [],
            "rules_changed": [],
            "procs_changed": ["Delete", "Insert", "Search"],
            "procs_added": [],
            "procs_removed": [],
        }

    def test_fast_rules(self):
        # Everything anchors on a root except make_root (empty pattern)
        # and the two rules that anchor on the unique green node instead.
        p = program("faithful")
        slow = {name for name, r in p.rules.items() if not root_anchored(r)}
        assert slow == {"make_root", "root", "add_root"}

    def test_only_root_is_warned_anchorless(self):
        for variant in ("faithful", "sanitized"):
            assert program(variant).warnings == [
                "rule root: no rooted node in left-hand side"]

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            program("fancy")


class TestRunBst:
    def test_six_key_build(self):
        r = run_bst(SIX)
        assert r.status is Status.SUCCESS
        assert r.tree == SIX_TREE
        assert r.garbage_count == 0

    def test_search_creates_dashed_edge(self):
        r = run_bst([Op("i", 5), Op("s", 5)])
        assert len(r.search_hits) == 1
        idx, key, target = r.search_hits[0]
        assert (idx, key) == (1, 5)
        assert r.graph.nodes[target].label == (5,)

    def test_search_miss_creates_no_edge(self):
        r = run_bst([Op("i", 5), Op("s", 6)])
        assert r.search_hits == []

    def test_delete_top_with_two_children(self):
        r = run_bst(SIX + [Op("d", 5)])
        expect, _ = o_apply(SIX + [Op("d", 5)])
        assert r.tree == expect
        assert r.tree[0] == 4  # predecessor replaces the top
        assert r.garbage_count == 1

    def test_empty_ops_yield_green_only(self):
        r = run_bst([])
        assert r.status is Status.SUCCESS
        assert r.tree is None
        assert len(r.graph.nodes) == 1
        assert r.graph.nodes_with_mark("green") == [0]

    def test_duplicate_insert_is_skip_in_sanitized(self):
        r = run_bst([Op("i", 5), Op("i", 5), Op("i", 3)])
        assert r.tree == (5, (3, None, None), None)
        # the duplicate check runs under `if`, so no dashed edge survives
        assert all(rec.mark != "dashed" for rec in r.graph.edges.values())

    def test_duplicate_insert_breaks_faithful_run(self):
        # the stock Insert breaks out of the whole instruction list
        r = run_bst([Op("i", 5), Op("i", 5), Op("i", 3)], variant="faithful")
        assert r.tree == (5, None, None)

    def test_delete_absent_key_is_noop_in_sanitized(self):
        ops = SIX + [Op("d", 6), Op("i", 6)]
        r = run_bst(ops)
        assert r.tree == o_apply(ops)[0]
        assert r.garbage_count == 0

    def test_tail_rooted_after_run(self):
        r = run_bst(SIX)
        tail = len(SIX) - 1
        assert r.graph.nodes[tail].rooted
        assert [n for n in range(len(SIX)) if r.graph.nodes[n].rooted] == [tail]

    def test_root_census_between_ops(self):
        # immediately after each instruction hand-off the only root is the
        # new current instruction node
        from rootedgp.interp import run as irun
        from rootedgp.rules import MatchStats
        from rootedgp.text import build_instruction_graph

        ops = SIX + [Op("s", 4), Op("d", 2), Op("i", 3)]
        g = build_instruction_graph(ops)
        seen = []

        def hook(name):
            if name == "next_op":
                seen.append(g.roots())

        irun(program("sanitized"), g, stats=MatchStats(), on_apply=hook)
        assert len(seen) == len(ops) - 1
        for i, roots in enumerate(seen):
            assert roots == [i + 1], f"after op {i}: roots {roots}"

    def test_per_op_stats_cover_all_ops(self):
        ops = SIX + [Op("s", 8), Op("d", 5)]
        r = run_bst(ops)
        assert len(r.per_op_stats) == len(ops)
        assert sum(d.applications for d in r.per_op_stats) == r.stats.applications
        assert go_apps(r.per_op_stats[0]) == 0   # first insert hits add_root
        assert r.per_op_stats[5].by_rule.get("add_leaf") == 1

    def test_trace_collects_applied_rules(self):
        r = run_bst([Op("i", 5)], trace=True)
        assert r.trace[:3] == ["make_root", "insert", "add_root"]

    def test_six_key_tree_degrees(self):
        r = run_bst(SIX)
        g = r.graph
        by_key = {g.nodes[n].label[0]: n for n in g.nodes_with_mark("grey")}
        assert g.outdeg(by_key[5]) == 2
        assert g.outdeg(by_key[8]) == 0
        assert g.indeg(by_key[5]) == 1  # only the green node points at the top

    def test_six_key_print_is_deterministic(self):
        from rootedgp.text import print_host
        r1 = run_bst(SIX)
        r2 = run_bst(SIX)
        text = print_host(r1.graph)
        assert text == print_host(r2.graph)
        assert text.count("#grey") == 6
        # five tree edges + one green edge + five chain edges, all unmarked
        assert text.count("#dashed") == 0
        assert len(r1.graph.edges) == 11


class TestSwapCoverage:
    # minimal fixtures, one per swap case, keyed by how far down the
    # largest key of the left subtree sits
    FIXTURES = {
        "swap1": [10, 2, 15, 5, 9, 7],
        "swap2": [10, 2, 15, 5, 8],
        "swap3": [10, 4, 15, 8, 6],
        "swap4": [5, 3, 7, 4],
        "swap5": [5, 3, 7, 2],
        "swap6": [5, 3, 7],
    }

    @pytest.mark.parametrize("swap", sorted(FIXTURES))
    def test_fixture_fires_exactly_its_swap(self, swap):
        keys = self.FIXTURES[swap]
        ops = [Op("i", k) for k in keys] + [Op("d", keys[0])]
        r = run_bst(ops, trace=True)
        fired = [t for t in r.trace if t.startswith("swap")]
        assert fired == [swap]
        assert r.tree == o_apply(ops)[0]


class TestExtractTree:
    def test_green_only_graph_is_empty_tree(self):
        g = HostGraph()
        g.add_node((), "green")
        assert extract_tree(g) is None

    def test_two_tops_rejected(self):
        g = HostGraph()
        green = g.add_node((), "green")
        for k in (5, 3):
            g.add_edge(green, g.add_node((k,), "grey"))
        with pytest.raises(MalformedTreeError, match="more than one"):
            extract_tree(g)

    def test_three_children_rejected(self):
        g = HostGraph()
        green = g.add_node((), "green")
        top = g.add_node((5,), "grey")
        g.add_edge(green, top)
        for k in (1, 2, 3):
            g.add_edge(top, g.add_node((k,), "grey"))
        with pytest.raises(MalformedTreeError, match="children"):
            extract_tree(g)

    def test_two_children_same_side_rejected(self):
        g = HostGraph()
        green = g.add_node((), "green")
        top = g.add_node((5,), "grey")
        g.add_edge(green, top)
        for k in (1, 2):
            g.add_edge(top, g.add_node((k,), "grey"))
        with pytest.raises(MalformedTreeError, match="same side"):
            extract_tree(g)

    def test_child_key_equal_parent_rejected(self):
        g = HostGraph()
        green = g.add_node((), "green")
        top = g.add_node((5,), "grey")
        g.add_edge(green, top)
        g.add_edge(top, g.add_node((5,), "grey"))
        with pytest.raises(MalformedTreeError, match="equals parent"):
            extract_tree(g)

    def test_chain_deeper_than_recursion_limit(self):
        t = extract_tree(build_degenerate_graph(10_000))
        keys = []
        while t is not None:
            assert t[1] is None
            keys.append(t[0])
            t = t[2]
        assert keys == list(range(1, 10_001))

    def test_format_chain_deeper_than_recursion_limit(self):
        text = format_tree(extract_tree(build_degenerate_graph(10_000)))
        assert text.startswith("(1 () (2 () (3 () ")
        assert text.endswith("(9999 () (10000))" + ")" * 9998)

    def test_deep_chain_agrees_with_oracle(self):
        # Nested tuples this deep cannot be compared with ==, which
        # recurses; their printed forms are compared instead.
        oracle_tree, _ = o_apply(gen_degenerate(3000))
        engine_tree = extract_tree(build_degenerate_graph(3000))
        assert format_tree(oracle_tree) == format_tree(engine_tree)

    def test_first_error_in_preorder_left_before_right(self):
        # both subtrees are malformed; the left one is reported
        g = HostGraph()
        green = g.add_node((), "green")
        top = g.add_node((5,), "grey")
        g.add_edge(green, top)
        left = g.add_node((2,), "grey")
        right = g.add_node((8,), "grey")
        g.add_edge(top, right)
        g.add_edge(top, left)
        g.add_edge(left, g.add_node(("x",), "grey"))
        g.add_edge(right, g.add_node(("y",), "grey"))
        with pytest.raises(MalformedTreeError, match="node 4 has non-key label"):
            extract_tree(g)

    def test_cycle_rejected(self):
        g = HostGraph()
        green = g.add_node((), "green")
        a = g.add_node((5,), "grey")
        b = g.add_node((7,), "grey")
        g.add_edge(green, a)
        g.add_edge(a, b)
        g.add_edge(b, a)
        with pytest.raises(MalformedTreeError, match="cycle through node 1"):
            extract_tree(g)

    def test_ignores_dashed_and_red_and_nongrey(self):
        r = run_bst(SIX + [Op("s", 4)])
        assert r.tree == SIX_TREE

    def test_format(self):
        assert format_tree(SIX_TREE) == "(5 (2 (1) (4)) (7 () (8)))"
        assert format_tree(None) == "()"
        assert format_tree((5, None, None)) == "(5)"


class TestValidateOutput:
    def test_clean_sanitized_run(self):
        ops = SIX + [Op("s", 4), Op("d", 2), Op("i", 3), Op("d", 9)]
        r = run_bst(ops)
        rep = validate_output(r.graph, ops)
        assert rep.violations == []

    def test_faithful_stale_root_anomaly_reported(self):
        # a search leaves the found node rooted, which blocks re-rooting
        # on the next insert; the validator must flag the damage
        ops = [Op("i", 5), Op("s", 5), Op("i", 3)]
        r = run_bst(ops, variant="faithful")
        rep = validate_output(r.graph, ops)
        assert any("stale root" in v for v in rep.violations)
        assert any("malformed tree" in v or "more than one" in v
                   for v in rep.violations)

    def test_empty_ops_notes_absent_list(self):
        r = run_bst([])
        rep = validate_output(r.graph, [])
        assert rep.violations == []
        assert any("empty op script" in n for n in rep.notes)

    def test_garbage_census_counts_dashed_survivors(self):
        # two searches then a delete: the garbage node keeps both dashed
        # in-edges; recompute its indegree by brute scan
        ops = [Op("i", 5), Op("i", 3), Op("s", 3), Op("s", 3), Op("d", 3)]
        r = run_bst(ops)
        garbage = garbage_nodes(r.graph)
        assert len(garbage) == 1
        gid = garbage[0]
        assert r.graph.indeg(gid) == 2
        by_scan = sum(1 for rec in r.graph.edges.values() if rec.tgt == gid)
        assert by_scan == 2
        assert all(r.graph.edges[eid].mark == "dashed"
                   for eid in r.graph.in_adj[gid])


class TestDifferential:
    def test_short_sanitized_battery(self):
        for seed in range(60):
            ops = gen_workload(seed, 50, "sanitized-safe")
            assert diff_against_oracle(ops) is None, f"seed {seed}"

    def test_dense_key_battery(self):
        # Small key ranges: duplicates, absent deletes, and trees that
        # empty, with searches and deletes on the empty tree.
        for key_hi in (20, 5):
            for seed in range(300):
                ops = gen_workload(seed, 40, "unrestricted", key_lo=0, key_hi=key_hi)
                assert diff_against_oracle(ops) is None, f"key_hi {key_hi}, seed {seed}"

    def test_sanitized_anchor_bound_holds_throughout(self):
        # at most three roots ever exist in a sanitized run (instruction,
        # traversal node, red tracker), so no matching call tries more
        for seed in range(20):
            ops = gen_workload(seed, 80, "sanitized-safe")
            r = run_bst(ops)
            assert r.stats.max_anchors_per_call <= 3, f"seed {seed}"

    def test_short_faithful_battery(self):
        for seed in range(40):
            ops = gen_workload(seed, 30, "faithful-safe")
            assert diff_against_oracle(ops, "faithful") is None, f"seed {seed}"

    def test_harness_detects_injected_fault(self, monkeypatch):
        # loosen go_left1's guard so traversal walks past an exact hit;
        # the differential harness must notice and shrink a counterexample
        from rootedgp.bst import asset_text
        text = asset_text("bst_sanitized.gp2").replace(
            "where m < n and x < n", "where m <= n and x <= n")
        monkeypatch.setitem(bst._programs, "sanitized", parse_program(text))
        tripped = None
        for seed in range(10):
            ops = gen_workload(seed, 30, "sanitized-safe")
            if diff_against_oracle(ops) is not None:
                tripped = ops
                break
        assert tripped is not None, "fault never reached; widen the battery"
        minimized = minimize_ops(tripped, "sanitized")
        assert 0 < len(minimized) <= len(tripped)
        assert diff_against_oracle(minimized) is not None

    def test_deep_trees_compare_without_recursion(self, monkeypatch):
        # Equal 5000-deep chains, built apart so no comparison can stop at
        # a shared subtree; == on nested tuples would recurse 5000 levels.
        def chain(n):
            t = None
            for key in range(n, 0, -1):
                t = (key, None, t)
            return t

        monkeypatch.setattr(bst, "run", lambda prog, g, stats: Status.SUCCESS)
        monkeypatch.setattr(bst, "extract_tree", lambda g: chain(5000))
        monkeypatch.setattr(bst, "o_apply", lambda ops: (chain(5000), []))
        assert diff_against_oracle([]) is None


def _counters(stats):
    return {
        "anchors_tried": stats.anchors_tried,
        "extension_steps": stats.extension_steps,
        "matches_found": stats.matches_found,
        "applications": stats.applications,
        "by_rule": stats.by_rule,
        "max_anchors_per_call": stats.max_anchors_per_call,
        "max_extensions_per_call": stats.max_extensions_per_call,
    }


class TestDeleteCost:
    def test_delete_extensions_do_not_grow_with_prior_searches(self):
        # Each search hit adds a dashed edge into the found node.  The tree
        # edges keep their place in its in-adjacency, ahead of the dashed
        # ones, so delete_leaf finds the parent edge first.
        steps = set()
        for m in (0, 10, 100, 1000):
            ops = [Op("i", 5), Op("i", 3), Op("i", 8)] + [Op("s", 3)] * m + [Op("d", 3)]
            r = run_bst(ops)
            assert r.status is Status.SUCCESS
            assert format_tree(r.tree) == "(5 () (8))"
            steps.add(r.per_op_stats[-1].extension_steps)
        assert steps == {9}


class TestCounterGolden:
    """Every matching counter of two fixed runs, pinned: the search order
    and the places the counters are incremented are part of the engine's
    contract."""

    def test_fig1_sanitized(self):
        ops = parse_opscript(asset_text("fig1.ops"))
        r = run_bst(ops, "sanitized")
        assert r.status is Status.SUCCESS
        assert _counters(r.stats) == {
            "anchors_tried": 44,
            "extension_steps": 45,
            "matches_found": 26,
            "applications": 26,
            "by_rule": {
                "add_leaf": 5, "add_root": 1, "go_left1": 2, "go_right1": 1,
                "insert": 6, "make_root": 1, "next_op": 5, "root": 5,
            },
            "max_anchors_per_call": 1,
            "max_extensions_per_call": 4,
        }

    def test_faithful_safe_workload(self):
        # Under the faithful variant every delete leaves a stale root, so
        # this run also pins the root-recency order of anchor candidates.
        ops = gen_workload(7, 200, "faithful-safe")
        r = run_bst(ops, "faithful")
        assert r.status is Status.SUCCESS
        assert _counters(r.stats) == {
            "anchors_tried": 36230,
            "extension_steps": 9750,
            "matches_found": 1723,
            "applications": 1723,
            "by_rule": {
                "add_leaf": 141, "add_root": 1, "delete": 58,
                "delete_leaf": 28, "delete_midl": 30, "go_left1": 375,
                "go_left2": 20, "go_right1": 452, "go_right2": 37,
                "insert": 142, "make_root": 1, "next_op": 199, "root": 199,
                "save_node": 20, "swap2": 5, "swap3": 5, "swap4": 2,
                "swap5": 3, "swap6": 5,
            },
            "max_anchors_per_call": 59,
            "max_extensions_per_call": 59,
        }

    @pytest.mark.parametrize("seed", range(3))
    def test_faithful_probes_per_op_grow_linearly(self, seed):
        # Every faithful delete leaves a stale grey root.  A rooted anchor
        # that enumerated every root would pay roots x roots per failed
        # traversal attempt, so probes per op would grow with the script
        # length squared (3.2-4.2x from 200 to 400 ops when it did).
        per_op = []
        for n in (200, 400):
            r = run_bst(gen_workload(seed, n, "faithful-safe"), "faithful")
            assert r.status is Status.SUCCESS
            per_op.append((r.stats.anchors_tried + r.stats.extension_steps) / n)
        assert per_op[1] <= 2.5 * per_op[0]
