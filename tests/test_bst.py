import pytest

from rootedgp.bench import build_degenerate_graph, gen_degenerate
from rootedgp.errors import MalformedTreeError
from rootedgp.bst import (
    SWAP_RULES, diff_against_oracle, extract_tree, format_tree,
    garbage_nodes, go_apps, minimize_ops, program, run_bst, validate_output,
    variant_delta,
)
from rootedgp.hostgraph import HostGraph
from rootedgp.interp import Status
from rootedgp.oracle import gen_workload, o_apply
from rootedgp.text import Op, parse_program

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

    def test_harness_detects_injected_fault(self):
        # loosen go_left1's guard so traversal walks past an exact hit;
        # the differential harness must notice and shrink a counterexample
        from rootedgp.bst import asset_text
        text = asset_text("bst_sanitized.gp2").replace(
            "where m < n and x < n", "where m <= n and x <= n")
        broken = parse_program(text)
        tripped = None
        for seed in range(10):
            ops = gen_workload(seed, 30, "sanitized-safe")
            if diff_against_oracle(ops, prog=broken) is not None:
                tripped = ops
                break
        assert tripped is not None, "fault never reached; widen the battery"
        minimized = minimize_ops(tripped, "sanitized", broken)
        assert 0 < len(minimized) <= len(tripped)
        assert diff_against_oracle(minimized, prog=broken) is not None
