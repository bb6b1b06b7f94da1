import pytest

from rootedgp import bench, interp, rules
from rootedgp.bench import (
    BenchRow, CSV_HEADER, build_balanced_graph, build_degenerate_graph,
    gen_balanced, gen_degenerate, measure, measured_ops, measurement_program,
    rows_csv, run_measured, scaling_report,
)
from rootedgp.bst import extract_tree, go_apps, run_bst, tree_inorder
from rootedgp.interp import Status, validate_program
from rootedgp.rules import validate_rule
from rootedgp.text import Op


class TestPrefixes:
    def test_degenerate_keys_ascending(self):
        assert gen_degenerate(3) == [Op("i", 1), Op("i", 2), Op("i", 3)]
        assert gen_degenerate(1) == [Op("i", 1)]

    def test_degenerate_tree_is_right_spine(self):
        r = run_bst(gen_degenerate(12))
        t = r.tree
        depth = 0
        while t is not None:
            assert t[1] is None  # every left subtree empty
            t = t[2]
            depth += 1
        assert depth == 12

    def test_balanced_level_order(self):
        assert gen_balanced(2) == [Op("i", 2), Op("i", 1), Op("i", 3)]
        assert gen_balanced(1) == [Op("i", 1)]

    def test_balanced_is_perfect(self):
        ops = gen_balanced(3)
        assert len(ops) == 7
        t = run_bst(ops).tree

        def depths(node, d):
            if node is None:
                return []
            if node[1] is None and node[2] is None:
                return [d]
            assert node[1] is not None and node[2] is not None
            return depths(node[1], d + 1) + depths(node[2], d + 1)

        assert set(depths(t, 1)) == {3}

    @pytest.mark.parametrize("n", [1, 2, 9, 25])
    def test_direct_degenerate_builder_matches_program(self, n):
        direct = build_degenerate_graph(n)
        via_program = run_bst(gen_degenerate(n)).graph
        assert extract_tree(direct) == extract_tree(via_program)
        assert len(direct.nodes_with_mark("green")) == 1
        assert len(direct.nodes_with_mark("grey")) == n

    @pytest.mark.parametrize("h", [1, 2, 3, 4])
    def test_direct_balanced_builder_matches_program(self, h):
        direct = build_balanced_graph(h)
        via_program = run_bst(gen_balanced(h)).graph
        assert extract_tree(direct) == extract_tree(via_program)
        assert tree_inorder(extract_tree(direct)) == list(range(1, 2 ** h))

    def test_size_validation(self):
        with pytest.raises(ValueError):
            gen_degenerate(0)
        with pytest.raises(ValueError):
            gen_balanced(0)


class TestMeasuredCounters:
    # A chain of n nodes has n-1 edges, so a full descent applies the
    # traversal rules exactly n-1 times; the recognizer, root, and the
    # final add_leaf / match / delete_leaf / unroot account for the rest.
    @pytest.mark.parametrize("n", [5, 17, 64])
    def test_degenerate_insert_counters(self, n):
        base = build_degenerate_graph(n)
        status, stats, _ = run_measured(base, measured_ops("degenerate", n, "insert"))
        assert status is Status.SUCCESS
        assert go_apps(stats) == n - 1
        assert stats.applications == n + 2

    @pytest.mark.parametrize("n", [5, 17, 64])
    def test_degenerate_search_counters(self, n):
        base = build_degenerate_graph(n)
        status, stats, _ = run_measured(base, measured_ops("degenerate", n, "search"))
        assert status is Status.SUCCESS
        assert go_apps(stats) == n - 1
        assert stats.applications == n + 3
        assert stats.by_rule.get("match") == 1

    @pytest.mark.parametrize("n", [5, 17, 64])
    def test_degenerate_delete_counters(self, n):
        base = build_degenerate_graph(n)
        status, stats, _ = run_measured(base, measured_ops("degenerate", n, "delete"))
        assert status is Status.SUCCESS
        assert go_apps(stats) == n - 1
        assert stats.applications == n + 4
        assert stats.by_rule.get("delete_leaf") == 1

    @pytest.mark.parametrize("h", [2, 4, 7])
    def test_balanced_deepest_leaf_search(self, h):
        # key 1 sits on the deepest level; the path to it has h-1 edges
        base = build_balanced_graph(h)
        status, stats, _ = run_measured(base, [Op("s", 1)])
        assert status is Status.SUCCESS
        assert go_apps(stats) == h - 1
        assert stats.by_rule.get("match") == 1

    @pytest.mark.parametrize("h", [2, 4, 7])
    def test_balanced_triple_counters(self, h):
        # insert key 0 below the leftmost deepest leaf, search it, delete
        # it: h+2, h+4, and h+5 applications plus two instruction moves
        base = build_balanced_graph(h)
        status, stats, _ = run_measured(base, measured_ops("balanced", h, "triple"))
        assert status is Status.SUCCESS
        assert stats.applications == 3 * h + 13
        assert go_apps(stats) == 3 * h - 1
        assert stats.by_rule.get("delete_leaf") == 1

    def test_triple_leaves_tree_intact(self):
        base = build_balanced_graph(4)
        g = base.clone()
        status, stats, _ = run_measured(base, measured_ops("balanced", 4, "triple"))
        assert extract_tree(base) == extract_tree(g)  # base untouched


class TestMeasure:
    def test_rows_and_csv(self):
        rows = measure("degenerate", [4, 8], reps=3)
        assert len(rows) == 6
        assert {r.op for r in rows} == {"insert", "search", "delete"}
        csv = rows_csv(rows)
        lines = csv.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[0] == "shape,n,op,reps,mean_ns,stddev_ns,rule_apps,anchors_tried"
        assert len(lines) == 7
        for r in rows:
            assert r.reps == 3 and r.mean_ns > 0

    def test_balanced_rows_report_node_count(self):
        rows = measure("balanced", [3, 4], reps=2)
        assert [r.n for r in rows] == [7, 15]
        assert all(r.op == "triple" for r in rows)

    def test_counters_deterministic_across_reps(self):
        # measure() raises internally if reps disagree; run it
        measure("degenerate", [10], reps=5)

    def test_bad_reps(self):
        with pytest.raises(ValueError):
            measure("degenerate", [4], reps=0)

    def test_rules_compiled_before_first_timed_run(self, monkeypatch):
        # A timed run must not pay for compiling what interp.run calls.
        prog = measurement_program()
        for rule in prog.rules.values():
            validate_rule(rule)    # drops the compiled functions
        prog.warnings = validate_program(prog)    # drops the compiled control
        assert prog.compiled is None
        compiles = []
        timed = 0
        timing = False

        def counted(owner, name):
            original = getattr(owner, name)

            def compile_counted(*args):
                compiles.append((f"{owner.__name__}.{name}", timing))
                return original(*args)
            monkeypatch.setattr(owner, name, compile_counted)

        counted(rules, "_compile")         # a rule's applier or probe
        counted(interp, "fused_loop")      # a loop function, as interp calls it
        counted(interp, "_compile")        # a program's control

        def timed_run_measured(base, ops, variant="sanitized"):
            nonlocal timed, timing
            timed += 1
            timing = True
            try:
                return run_measured(base, ops, variant)
            finally:
                timing = False

        monkeypatch.setattr(bench, "run_measured", timed_run_measured)
        measure("degenerate", [4], reps=1)
        assert timed == 3
        assert {name for name, _ in compiles} == {
            "rootedgp.rules._compile", "rootedgp.interp.fused_loop",
            "rootedgp.interp._compile"}
        assert [name for name, in_timed_run in compiles if in_timed_run] == []


def _row(shape, n, op, mean_ns, rule_apps):
    return BenchRow(shape, n, op, 300, mean_ns, 0, rule_apps, n + 9)


class TestScalingReport:
    def test_degenerate_passes_on_linear_counters(self):
        rows = [
            _row("degenerate", n, op, 25_000 * n, n + 3)
            for n in (1000, 2000, 4000, 8000)
            for op in ("insert", "search", "delete")
        ]
        rep = scaling_report(rows)
        assert rep.ok, rep.lines()
        assert rep.csv().startswith(CSV_HEADER)

    def test_degenerate_fails_on_quadratic_counters(self):
        rows = [
            _row("degenerate", n, "insert", 25 * n * n, (n * n) // 500)
            for n in (1000, 2000, 4000, 8000)
        ]
        rep = scaling_report(rows)
        assert not rep.ok

    def test_balanced_passes_on_log_counters(self):
        rows = [
            _row("balanced", 2 ** h - 1, "triple", 40_000 * h, 3 * h + 13)
            for h in (10, 11, 12, 13)
        ]
        rep = scaling_report(rows)
        assert rep.ok, rep.lines()

    def test_balanced_fails_on_linear_growth(self):
        rows = [
            _row("balanced", 2 ** h - 1, "triple", 40 * 2 ** h, 2 ** h)
            for h in (10, 11, 12, 13)
        ]
        rep = scaling_report(rows)
        assert not rep.ok

    def test_requires_four_sizes(self):
        rows = [_row("degenerate", n, "insert", n, n) for n in (1000, 2000)]
        with pytest.raises(ValueError, match="at least 4"):
            scaling_report(rows)

    def test_requires_doubling_sizes(self):
        rows = [_row("degenerate", n, "insert", n, n)
                for n in (1000, 2000, 4000, 5000)]
        with pytest.raises(ValueError, match="double"):
            scaling_report(rows)
