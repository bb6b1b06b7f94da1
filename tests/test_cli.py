from importlib import resources

import pytest

from rootedgp import bst
from rootedgp.cli import main
from rootedgp.text import parse_program

GOLDEN_RUN = (
    '[ (n0, "i":5) (n1(R), "s":5) (n2, empty #green) (n3, 5 #grey) | '
    '(e2, n0, n1, empty) (e3, n2, n3, empty) (e4, n1, n3, empty #dashed) ]'
)

GOLDEN_TREE = "(5 (2 (1) (4)) (7 () (8)))"

GOLDEN_TRACE_STATS = "\n".join([
    "make_root", "insert", "add_root", "next_op", "search", "root", "match",
    "unroot",
    GOLDEN_RUN,
    "anchors_tried 15",
    "extension_steps 6",
    "matches_found 8",
    "applications 8",
    "rule add_root 1",
    "rule insert 1",
    "rule make_root 1",
    "rule match 1",
    "rule next_op 1",
    "rule root 1",
    "rule search 1",
    "rule unroot 1",
]) + "\n"


def asset_path(name: str) -> str:
    return str(resources.files("rootedgp").joinpath("assets", name))


@pytest.fixture
def small_host(tmp_path):
    p = tmp_path / "in.host"
    p.write_text('[ (n0(R), "i":5) (n1, "s":5) | (e0, n0, n1, empty) ]')
    return str(p)


class TestRun:
    def test_golden_graph_output(self, capsys, small_host):
        code = main(["run", asset_path("bst_sanitized.gp2"), small_host])
        out = capsys.readouterr().out
        assert code == 0
        assert out == GOLDEN_RUN + "\n"

    def test_byte_identical_across_runs(self, capsys, small_host):
        main(["run", asset_path("bst_sanitized.gp2"), small_host])
        first = capsys.readouterr().out
        main(["run", asset_path("bst_sanitized.gp2"), small_host])
        assert capsys.readouterr().out == first

    def test_trace_and_stats(self, capsys, small_host):
        code = main(["run", asset_path("bst_sanitized.gp2"), small_host,
                     "--trace", "--stats"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == GOLDEN_TRACE_STATS

    def test_syntax_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.gp2"
        bad.write_text("Main = ((")
        host = tmp_path / "h.host"
        host.write_text("[ | ]")
        assert main(["run", str(bad), str(host)]) == 2
        assert "syntax error" in capsys.readouterr().err

    def test_failing_program_exits_1_with_graph(self, tmp_path, capsys):
        prog = tmp_path / "p.gp2"
        prog.write_text("Main = fail")
        host = tmp_path / "h.host"
        host.write_text("[ (n0, 1) | ]")
        assert main(["run", str(prog), str(host)]) == 1
        assert capsys.readouterr().out == "[ (n0, 1) | ]\n"

    def test_divergence_cap_from_env(self, tmp_path, capsys, monkeypatch):
        prog = tmp_path / "p.gp2"
        prog.write_text("Main = skip!")
        host = tmp_path / "h.host"
        host.write_text("[ | ]")
        monkeypatch.setenv("RG_MAX_ITERS", "50")
        assert main(["run", str(prog), str(host)]) == 1
        assert "aborted" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["run", "no-such.gp2", "also-missing.host"]) == 2


class TestBst:
    def test_tree_golden(self, capsys):
        code = main(["bst", asset_path("fig1.ops"), "--print", "tree"])
        assert code == 0
        assert capsys.readouterr().out == GOLDEN_TREE + "\n"

    def test_empty_ops_graph(self, tmp_path, capsys):
        ops = tmp_path / "empty.ops"
        ops.write_text("# nothing\n")
        code = main(["bst", str(ops)])
        assert code == 0
        assert capsys.readouterr().out == "[ (n0, empty #green) | ]\n"

    def test_malformed_ops_exits_2(self, tmp_path, capsys):
        ops = tmp_path / "bad.ops"
        ops.write_text("i 5\nx 9\n")
        assert main(["bst", str(ops)]) == 2

    def test_report_output(self, tmp_path, capsys):
        ops = tmp_path / "w.ops"
        ops.write_text("i 5\ni 3\nd 3\n")
        code = main(["bst", str(ops), "--print", "report"])
        out = capsys.readouterr().out
        assert code == 0
        assert "violations 0" in out
        assert "garbage 1" in out

    def test_zero_max_iters_aborts(self, capsys):
        assert main(["bst", asset_path("fig1.ops"), "--max-iters", "0"]) == 1
        assert "aborted:" in capsys.readouterr().err

    def test_faithful_variant_warns(self, capsys):
        main(["bst", asset_path("fig1.ops"), "--variant", "faithful",
              "--print", "tree"])
        captured = capsys.readouterr()
        assert captured.out == GOLDEN_TREE + "\n"
        assert "faithful" in captured.err


class TestCheck:
    def test_small_battery_ok(self, capsys):
        code = main(["check", "--seeds", "5", "--size", "30"])
        assert code == 0
        assert "check ok" in capsys.readouterr().out

    def test_faithful_requires_faithful_safe(self, capsys):
        code = main(["check", "--seeds", "1", "--variant", "faithful",
                     "--constraints", "sanitized-safe"])
        assert code == 2

    def test_mismatch_prints_minimized_counterexample(self, capsys, monkeypatch):
        # go_left1 with a loosened guard walks past an exact hit
        text = bst.asset_text("bst_sanitized.gp2").replace(
            "where m < n and x < n", "where m <= n and x <= n")
        monkeypatch.setitem(bst._programs, "sanitized", parse_program(text))
        code = main(["check", "--seeds", "10", "--size", "30"])
        assert code == 3
        assert capsys.readouterr().out == (
            "seed 0: tree mismatch: engine (3578 (3350) (8965)), oracle (8965)\n"
            "counterexample (2 ops):\n"
            "s 8852\n"
            "i 8965\n"
            "\n"
        )

    def test_faithful_battery_ok(self, capsys):
        code = main(["check", "--seeds", "3", "--size", "20",
                     "--variant", "faithful", "--constraints", "faithful-safe"])
        assert code == 0


class TestBench:
    def test_single_size_rejected(self, capsys):
        assert main(["bench", "--sizes", "10", "--reps", "1"]) == 2

    def test_tiny_matrix_produces_csv(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main(["bench", "--sizes", "4,8,16,32", "--reps", "2",
                     "--out", str(out)])
        assert code in (0, 3)  # timing checks may fail at toy sizes
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "shape,n,op,reps,mean_ns,stddev_ns,rule_apps,anchors_tried"
        assert len(lines) == 13
        report = capsys.readouterr().out
        assert "rule_apps doubling" in report

    def test_balanced_height_range(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main(["bench", "--shape", "balanced", "--sizes", "h=2..5",
                     "--reps", "2", "--out", str(out)])
        assert code in (0, 3)
        lines = out.read_text().strip().split("\n")
        assert [l.split(",")[1] for l in lines[1:]] == ["3", "7", "15", "31"]


class TestValidate:
    def test_stock_program_validates(self, capsys):
        code = main(["validate", asset_path("bst_sanitized.gp2")])
        out = capsys.readouterr().out
        assert code == 0
        assert "ok: 23 rules, 7 procedures" in out
        assert "warning: rule root" in out

    def test_invalid_program_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.gp2"
        bad.write_text("Main = nope")
        assert main(["validate", str(bad)]) == 3

    def test_usage_error_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2
