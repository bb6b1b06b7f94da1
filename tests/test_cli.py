from importlib import resources

import pytest

from matchref import brute_force_exists, reference_search
from rootedgp import bst
from rootedgp.cli import main
from rootedgp.interp import MAX_NESTING
from rootedgp.labels import MAX_COND_DEPTH
from rootedgp.text import MAX_QUOTE, parse_host, parse_program

GOLDEN_RUN = (
    '[ (n0, "i":5) (n1(R), "s":5) (n2, empty #green) (n3, 5 #grey) | '
    '(e0, n0, n1, empty) (e1, n2, n3, empty) (e2, n1, n3, empty #dashed) ]'
)

GOLDEN_TREE = "(5 (2 (1) (4)) (7 () (8)))"

GOLDEN_TRACE_STATS = "\n".join([
    "make_root", "insert", "add_root", "next_op", "search", "root", "match",
    "unroot",
    GOLDEN_RUN,
    "anchors_tried 12",
    "extension_steps 5",
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

    def test_traversed_edge_keeps_its_id(self, tmp_path, capsys):
        # next_op moves the root along e7 and leaves the edge in place.
        host = tmp_path / "in.host"
        host.write_text('[ (n0(R), "i":5) (n1, "i":6) | (e7, n0, n1, empty) ]')
        assert main(["run", asset_path("bst_sanitized.gp2"), str(host)]) == 0
        assert "(e7, n0, n1, empty)" in capsys.readouterr().out

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

    def test_divergence_cap_from_option(self, tmp_path, capsys):
        prog = tmp_path / "p.gp2"
        prog.write_text("Main = skip!")
        host = tmp_path / "h.host"
        host.write_text("[ | ]")
        assert main(["run", str(prog), str(host), "--max-iters", "50"]) == 1
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

    def test_empty_tree_search_does_not_end_the_list(self, tmp_path, capsys):
        # A search on an empty tree is a miss; the insert after it still runs.
        ops = tmp_path / "w.ops"
        ops.write_text("s 3\ni 7\n")
        assert main(["bst", str(ops), "--print", "tree"]) == 0
        assert capsys.readouterr().out == "(7)\n"

    @pytest.mark.parametrize("key", ["1_000", "+5", "\u0661\u0662"])
    def test_non_ascii_or_signed_key_exits_2(self, tmp_path, capsys, key):
        ops = tmp_path / "w.ops"
        ops.write_text(f"i 5\ns {key}\n", encoding="utf-8")
        assert main(["bst", str(ops)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"syntax error: 2:1: malformed key {key!r}\n"

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
        # go_left1 with a loosened guard walks past an exact hit, so the
        # delete below misses the key it should remove
        text = bst.asset_text("bst_sanitized.gp2").replace(
            "where m < n and x < n", "where m <= n and x <= n")
        monkeypatch.setitem(bst._programs, "sanitized", parse_program(text))
        code = main(["check", "--seeds", "10", "--size", "30"])
        assert code == 3
        assert capsys.readouterr().out == (
            "seed 0: tree mismatch: engine (3578 (3350) (8965)), oracle (8965)\n"
            "counterexample (3 ops):\n"
            "i 3350\n"
            "i 1031\n"
            "d 3350\n"
            "\n"
        )

    def test_faithful_battery_ok(self, capsys):
        code = main(["check", "--seeds", "3", "--size", "20",
                     "--variant", "faithful", "--constraints", "faithful-safe"])
        assert code == 0

    def test_faithful_battery_of_short_scripts_ok(self, capsys):
        # At size 3, many scripts delete every key before the final op.
        code = main(["check", "--variant", "faithful", "--constraints",
                     "faithful-safe", "--size", "3", "--seeds", "50"])
        assert code == 0
        assert "check ok" in capsys.readouterr().out

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_no_seeds_exits_2_on_one_line(self, capsys, seeds):
        assert main(["check", "--seeds", seeds]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seeds must be at least 1\n"


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

    def test_too_deep_nesting_exits_3_on_one_line(self, tmp_path, capsys):
        deep = tmp_path / "deep.gp2"
        deep.write_text("Main = " + "try " * (MAX_NESTING + 1) + "r\n"
                        "r() [ | ] => [ | ] interface = {}\n")
        assert main(["validate", str(deep)]) == 3
        err = capsys.readouterr().err
        assert err == (f"validation error: procedure 'Main' nests commands "
                       f"{MAX_NESTING + 1} deep (at most {MAX_NESTING})\n")

    def test_too_deep_parentheses_exit_2_on_one_line(self, tmp_path, capsys):
        deep = tmp_path / "deep.gp2"
        depth = MAX_NESTING + 1
        deep.write_text("Main = " + "(" * depth + "r" + ")" * depth + "\n"
                        "r() [ | ] => [ | ] interface = {}\n")
        assert main(["validate", str(deep)]) == 2
        err = capsys.readouterr().err
        assert err == (f"syntax error: 1:{7 + depth}: parentheses nest more than "
                       f"{MAX_NESTING} deep\n")

    def test_too_long_call_chain_exits_3_on_one_line(self, tmp_path, capsys):
        chain = tmp_path / "chain.gp2"
        calls = "".join(f"P{i} = P{i + 1}\n" for i in range(1, 1000))
        chain.write_text("Main = P1\n" + calls + "P1000 = r\n"
                         "r() [ | ] => [ | ] interface = {}\n")
        assert main(["validate", str(chain)]) == 3
        err = capsys.readouterr().err
        assert err == (f"validation error: procedure 'P{MAX_NESTING + 1}' is called "
                       f"through a chain of {MAX_NESTING + 1} calls "
                       f"(at most {MAX_NESTING})\n")

    def test_long_undefined_name_exits_3_on_one_short_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.gp2"
        bad.write_text("Main = " + "a" * 3000 + "\n")
        assert main(["validate", str(bad)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("validation error: undefined name 'aaaa")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert len(err) < MAX_QUOTE + 60

    def test_usage_error_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2


def _alternation(levels: int) -> str:
    """`x > 0` under `levels` alternating `and`/`or` operators."""
    cond = "x > 0"
    for i in range(levels):
        cond = f"x > 0 {'and' if i % 2 else 'or'} ({cond})"
    return cond


class TestDeepConditions:
    HOST = "[ (n0(R), 1) | ]"

    def files(self, tmp_path, cond):
        program = tmp_path / "deep.gp2"
        program.write_text("Main = r\nr(x:int) [ (1(R), x) | ] => [ (1(R), x) | ] "
                           f"interface = {{1}} where {cond}\n")
        host = tmp_path / "in.host"
        host.write_text(self.HOST)
        return program, str(host)

    @pytest.mark.parametrize("cond", [
        " + ".join(["x"] * 250) + " > 0",
        " + ".join(["x"] * 3000) + " > 0",
        " - ".join(["x"] * 3000) + " > 0",
        "not " * 201 + "x > 0",
        "not " * 798 + "x > 0",
        "not " * 799 + "x > 0",
        _alternation(MAX_COND_DEPTH),
    ], ids=["sum250", "sum3000", "difference3000", "not201", "not798", "not799",
            "alternation-at-limit"])
    def test_runs_and_agrees_with_the_reference(self, tmp_path, capsys, cond):
        program, host = self.files(tmp_path, cond)
        rule = parse_program(program.read_text()).rules["r"]
        applies = brute_force_exists(rule, parse_host(self.HOST))
        assert (reference_search(rule, parse_host(self.HOST))[0] is not None) is applies
        assert main(["validate", str(program)]) == 0
        assert main(["run", str(program), host]) == (0 if applies else 1)
        out, err = capsys.readouterr()
        assert out.endswith("[ (n0(R), 1) | ]\n")
        assert err == ""

    def test_too_deep_alternation_exits_3_on_one_line(self, tmp_path, capsys):
        program, host = self.files(tmp_path, _alternation(250))
        for command in (["validate", str(program)], ["run", str(program), host]):
            assert main(command) == 3
            err = capsys.readouterr().err
            assert err == ("validation error: rule r: condition nests and/or/not "
                           f"250 deep (at most {MAX_COND_DEPTH})\n")


LONG_INT = "9" * 5000


class TestBoundedDiagnostics:
    """A syntax error quotes a bounded part of the offending text and
    names its line and column, however long the text is."""

    @pytest.mark.parametrize("name, text, command, position", [
        ("ops", f"i {LONG_INT}\n", "bst", "1:1"),
        ("ops", "i 5\n" + "x" * 5000 + " 1\n", "bst", "2:1"),
        ("host", f"[ (n0, {LONG_INT}) | ]", "run", "1:8"),
        ("host", "[ " + "x" * 5000 + " ]", "run", "1:3"),
        ("gp2", "Main = r\nr(x:int) [ (1(R), x) | ] => [ (1(R), x) | ] "
                f"interface = {{1}} where x > {LONG_INT}\n", "validate", "2:71"),
    ], ids=["long-key", "long-op", "long-host-int", "long-host-token",
            "long-condition-int"])
    def test_exits_2_on_one_short_line(self, tmp_path, capsys, name, text,
                                       command, position):
        path = tmp_path / f"in.{name}"
        path.write_text(text)
        argv = {"bst": ["bst", str(path)],
                "run": ["run", asset_path("bst_sanitized.gp2"), str(path)],
                "validate": ["validate", str(path)]}[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert err.startswith(f"syntax error: {position}: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert len(err) < MAX_QUOTE + 60
