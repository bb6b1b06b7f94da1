import gc
import random

import pytest

from matchref import plant_lhs, random_rule, reference_run
from rootedgp.bench import build_degenerate_graph, measured_ops, run_measured
from rootedgp.errors import DivergenceError, ValidationError
from rootedgp.hostgraph import HostGraph
from rootedgp.interp import (
    BREAK, DEFAULT_MAX_ITERS, FAIL, SKIP, Call, If, Loop, Program, RuleSet, Seq,
    Status, Try, _Codegen, run, validate_program,
)
from rootedgp.rules import MatchStats, validate_rule
from rootedgp.text import parse_program, parse_rule


def prog_of(**procs):
    rules = {}
    add = parse_rule("add() [ | ] => [ (1, 1) | ] interface = {}")
    never = parse_rule("never(a:int) [ (1(R), 99:a) | ] => [ (1(R), 99:a) | ] interface = {1}")
    rules["add"] = add
    rules["never"] = never
    p = Program(rules, procs)
    p.warnings = validate_program(p)
    return p


def count_nodes(g):
    return len(g.nodes)


class TestSemantics:
    def test_try_commits_condition_effects(self):
        p = prog_of(Main=Try(Call("add"), SKIP, SKIP))
        g = HostGraph()
        assert run(p, g) is Status.SUCCESS
        assert count_nodes(g) == 1

    def test_if_discards_condition_effects(self):
        p = prog_of(Main=If(Call("add"), SKIP, SKIP))
        g = HostGraph()
        assert run(p, g) is Status.SUCCESS
        assert count_nodes(g) == 0

    def test_if_branches_on_condition_outcome(self):
        p = prog_of(Main=If(Call("never"), FAIL, Call("add")))
        g = HostGraph()
        assert run(p, g) is Status.SUCCESS
        assert count_nodes(g) == 1

    def test_try_failure_rolls_back_and_runs_else(self):
        p = prog_of(Main=Try(Seq((Call("add"), Call("never"))), FAIL, Call("add")))
        g = HostGraph()
        assert run(p, g) is Status.SUCCESS
        assert count_nodes(g) == 1  # the condition's add was rolled back

    def test_try_then_branch_failure_propagates(self):
        p = prog_of(Main=Seq((Try(Call("add"), FAIL, SKIP), Call("add"))))
        g = HostGraph()
        assert run(p, g) is Status.FAILURE
        assert count_nodes(g) == 1  # committed condition stays

    def test_loop_body_failure_is_atomic(self):
        # mutate then fail: the loop exits successfully, graph unchanged
        p = prog_of(Main=Loop(Seq((Call("add"), FAIL))))
        g = HostGraph()
        assert run(p, g) is Status.SUCCESS
        assert count_nodes(g) == 0

    def test_loop_keeps_committed_iterations(self):
        # consume applies once per node; committed iterations survive the
        # final failing one
        consume = parse_rule("consume(a:int) [ (1, a) | ] => [ | ] interface = {}")
        p = Program({"consume": consume}, {"Main": Loop(Call("consume"))})
        p.warnings = validate_program(p)
        g = HostGraph()
        g.add_node((1,))
        g.add_node((2,))
        assert run(p, g) is Status.SUCCESS
        assert count_nodes(g) == 0

    def test_break_commits_partial_iteration(self):
        p = prog_of(Main=Loop(Seq((Call("add"), BREAK, Call("add")))))
        g = HostGraph()
        assert run(p, g) is Status.SUCCESS
        assert count_nodes(g) == 1  # work before break kept, loop exited

    def test_break_escapes_to_nearest_loop_through_procs(self):
        p = prog_of(
            Main=Seq((Loop(Call("Inner")), Call("add"))),
            Inner=Seq((Call("add"), BREAK)),
        )
        g = HostGraph()
        assert run(p, g) is Status.SUCCESS
        assert count_nodes(g) == 2

    def test_rule_set_failure(self):
        p = prog_of(Main=Try(RuleSet(("never",)), FAIL, SKIP))
        g = HostGraph()
        assert run(p, g) is Status.SUCCESS

    def test_rule_set_applies_first_matching_member(self):
        # members are tried in textual order: never fails, add applies
        p = prog_of(Main=RuleSet(("never", "add")))
        g = HostGraph()
        applied = []
        assert run(p, g, on_apply=applied.append) is Status.SUCCESS
        assert applied == ["add"]
        assert count_nodes(g) == 1

    def test_rule_set_no_member_applies(self):
        p = prog_of(Main=RuleSet(("never",)))
        g = HostGraph()
        applied = []
        assert run(p, g, on_apply=applied.append) is Status.FAILURE
        assert applied == []
        assert count_nodes(g) == 0

    def test_run_leaves_no_cyclic_garbage(self):
        p = prog_of(Main=Seq((Loop(Call("Inner")), Call("add"))),
                    Inner=Seq((Call("add"), BREAK)))
        gc.collect()
        gc.disable()
        try:
            for _ in range(50):
                assert run(p, HostGraph()) is Status.SUCCESS
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_divergence_cap(self):
        p = prog_of(Main=Loop(SKIP))
        with pytest.raises(DivergenceError):
            run(p, HostGraph(), max_iters=100)

    @pytest.mark.parametrize("runner", [run, reference_run])
    def test_divergence_commits_the_scopes_it_opened(self, runner):
        # Main = (add; (add; skip)!)! diverges inside two loop scopes.
        p = prog_of(Main=Loop(Seq((Call("add"), Loop(Seq((Call("add"), SKIP)))))))
        g = HostGraph()
        before = g.state()
        token = g.begin_scope()
        with pytest.raises(DivergenceError):
            runner(p, g, max_iters=5)
        assert len(g._frames) == token + 1
        assert count_nodes(g) == 5      # as the graph stood when the budget ran out
        g.rollback_scope(token)
        assert g.state() == before


class TestValidation:
    def test_recursion_rejected(self):
        with pytest.raises(ValidationError, match="recursive"):
            prog_of(Main=Call("X"), X=Call("Main"))

    def test_undefined_name(self):
        with pytest.raises(ValidationError, match="undefined"):
            prog_of(Main=Call("nope"))

    def test_break_in_try_condition_rejected(self):
        with pytest.raises(ValidationError, match="condition"):
            prog_of(Main=Loop(Try(BREAK, SKIP, SKIP)))

    def test_break_outside_loop_rejected(self):
        with pytest.raises(ValidationError, match="outside"):
            prog_of(Main=BREAK)

    def test_break_inside_loop_inside_condition_allowed(self):
        # the inner loop catches the break before it reaches the condition
        prog_of(Main=Try(Loop(BREAK), SKIP, SKIP))

    def test_missing_main(self):
        with pytest.raises(ValidationError, match="Main"):
            prog_of(NotMain=SKIP)

    def test_rule_set_member_must_be_rule(self):
        with pytest.raises(ValidationError, match="not a rule"):
            prog_of(Main=RuleSet(("Main",)))


def test_one_armed_forms_desugar_with_skip():
    p = parse_program("""
        Main = try r; if r then r
        r()
        [ | ] => [ | ]
        interface = {}
    """)
    main = p.procs["Main"]
    assert main == Seq((Try(Call("r"), SKIP, SKIP), If(Call("r"), Call("r"), SKIP)))


class TestCompiledControl:
    def test_validate_program_drops_compiled_control(self):
        p = prog_of(Main=Call("add"))
        assert p.compiled is None
        run(p, HostGraph())
        assert p.compiled is not None
        validate_program(p)
        assert p.compiled is None

    def test_revalidated_rule_is_applied_by_fresh_code(self):
        p = prog_of(Main=Call("add"))
        g = HostGraph()
        run(p, g)
        control = p.compiled
        rule = p.rules["add"]
        rule.rhs.nodes[1].label = parse_rule(
            "add() [ | ] => [ (1, 2) | ] interface = {}").rhs.nodes[1].label
        validate_rule(rule)
        assert rule.applier is None
        run(p, g)
        assert p.compiled is control
        assert sorted(rec.label for rec in g.nodes.values()) == [(1,), (2,)]

    @pytest.mark.parametrize("op, scopes", [("insert", 2), ("search", 1), ("delete", 3)])
    def test_chain_op_opens_as_many_scopes_at_any_length(self, monkeypatch, op, scopes):
        # Only the main loop's iteration, an if condition and a try whose
        # condition is a procedure open a scope; the descent opens none.
        opened = []
        begin = HostGraph.begin_scope

        def counting_begin(g):
            opened.append(1)
            return begin(g)

        monkeypatch.setattr(HostGraph, "begin_scope", counting_begin)
        for n in (100, 1000):
            del opened[:]
            status, stats, _ = run_measured(build_degenerate_graph(n),
                                            measured_ops("degenerate", n, op))
            assert status is Status.SUCCESS and stats.applications > n
            assert len(opened) == scopes, n


def _counters(stats: MatchStats) -> tuple:
    return (stats.anchors_tried, stats.extension_steps, stats.matches_found,
            stats.applications, stats.by_rule, stats.max_anchors_per_call,
            stats.max_extensions_per_call)


def _outcome(runner, program, g, max_iters):
    """Everything a run shows, run inside a scope that is then rolled back,
    which must restore the graph exactly.  The registries are checked after
    every application and at the end."""
    before = g.state()
    token = g.begin_scope()
    stats = MatchStats()
    trace = []

    def on_apply(name):
        trace.append(name)
        g.check_registries()

    try:
        result = runner(program, g, max_iters=max_iters, stats=stats,
                        on_apply=on_apply)
    except DivergenceError as e:
        result = str(e)
    g.check_registries()
    after = g.state()
    assert len(g._frames) == token + 1    # only this scope is open
    g.rollback_scope(token)
    assert g.state() == before
    return result, trace, _counters(stats), after


def _agree(program, host, max_iters=DEFAULT_MAX_ITERS):
    """Compiled and reference runs show the same on copies of `host`."""
    want = _outcome(reference_run, program, host.clone(), max_iters)
    got = _outcome(run, program, host.clone(), max_iters)
    assert got == want
    return got


class _ProgramGen:
    """Random valid programs: every command kind, procedures calling only
    procedures declared before them, and break only where a loop catches
    it."""

    def __init__(self, rng, rules):
        self.rng = rng
        self.rules = rules
        self.procs = {}
        self.breaks = {}       # procedure -> can its break escape it?

    def command(self, in_loop: bool, depth: int):
        rng = self.rng
        kinds = ["rule", "set", "fail", "skip"]
        if in_loop:
            kinds.append("break")
        callable_ = [p for p in self.procs if in_loop or not self.breaks[p]]
        if callable_:
            kinds.append("proc")
        if depth > 0:
            kinds += ["seq", "seq", "loop", "loop", "try", "try", "if"]
        kind = rng.choice(kinds)
        if kind == "rule":
            return Call(rng.choice(self.rules))
        if kind == "set":
            return RuleSet(tuple(rng.sample(self.rules, rng.randint(1, len(self.rules)))))
        if kind == "fail":
            return FAIL
        if kind == "skip":
            return SKIP
        if kind == "break":
            return BREAK
        if kind == "proc":
            return Call(rng.choice(callable_))
        if kind == "seq":
            return Seq(tuple(self.command(in_loop, depth - 1)
                             for _ in range(rng.randint(2, 4))))
        if kind == "loop":
            return Loop(self.command(True, depth - 1))
        cls = Try if kind == "try" else If
        return cls(self.command(False, depth - 1), self.command(in_loop, depth - 1),
                   self.command(in_loop, depth - 1))

    def program(self, rules: dict) -> Program:
        for i in range(self.rng.randint(0, 3)):
            name = f"P{i}"
            breaks = self.rng.random() < 0.5
            self.procs[name] = self.command(breaks, self.rng.randint(0, 3))
            self.breaks[name] = breaks
        procs = dict(self.procs)
        procs["Main"] = self.command(False, self.rng.randint(1, 4))
        p = Program(rules, procs)
        p.warnings = validate_program(p)
        return p


def test_compiled_control_matches_reference_on_random_programs():
    statuses = set()
    for seed in range(2000):
        rng = random.Random(seed)
        rules = {}
        host = HostGraph()
        for i in range(rng.randint(1, 4)):
            rule = random_rule(rng, rhs_changes=True)
            rule.name = f"r{i}"
            rules[rule.name] = rule
            for _ in range(rng.randint(0, 2)):
                plant_lhs(rng, rule, host)
        program = _ProgramGen(rng, list(rules)).program(rules)
        result = _agree(program, host, max_iters=rng.randint(1, 50))[0]
        statuses.add(result if isinstance(result, Status) else "diverged")
    assert statuses == {Status.SUCCESS, Status.FAILURE, "diverged"}


def _consume_program(procs) -> Program:
    consume = parse_rule("consume(a:int) [ (1, a) | ] => [ | ] interface = {}")
    add = parse_rule("add() [ | ] => [ (1, 1) | ] interface = {}")
    p = Program({"consume": consume, "add": add}, procs)
    p.warnings = validate_program(p)
    return p


def _host(nodes: int) -> HostGraph:
    g = HostGraph()
    for k in range(nodes):
        g.add_node((k,))
    return g


def test_long_sequence_compiles_flat():
    parts = []
    for i in range(300):
        parts.append([Call("consume"), Try(Call("consume"), SKIP, Call("add")),
                      Loop(RuleSet(("consume",))), If(Call("add"), SKIP, FAIL),
                      Call("add")][i % 5])
    p = _consume_program({"Main": Seq(tuple(parts))})
    for max_iters in (DEFAULT_MAX_ITERS, 40):
        _agree(p, _host(30), max_iters)
    # One statement level per part: the sequence does not nest.
    widest = max(len(line) - len(line.lstrip()) for line in _Codegen(p).source.splitlines())
    assert widest <= 4 * 6


def test_deeply_nested_loops_compile():
    cmd = Loop(Call("consume"))
    for _ in range(29):
        cmd = Loop(Seq((Try(Call("add"), cmd, SKIP), Call("consume"), BREAK)))
    p = _consume_program({"Main": cmd})
    assert _agree(p, _host(3))[0] is Status.SUCCESS
    assert isinstance(_agree(p, _host(3), max_iters=20)[0], str)


def test_deep_nesting_continues_in_helpers():
    cmd = Call("consume")
    for i in range(300):
        cmd = [Try(Call("add"), cmd, SKIP), If(Call("consume"), cmd, Call("add")),
               Loop(Seq((cmd, BREAK)))][i % 3]
    p = _consume_program({"Main": cmd})
    assert _agree(p, _host(3), max_iters=1000)[0] is Status.SUCCESS
    source = _Codegen(p).source
    assert "def h1():" in source
    assert max(len(line) - len(line.lstrip()) for line in source.splitlines()) < 4 * 100


def test_procedure_chain_compiles_to_linear_source():
    procs = {f"P{i}": Seq((Call(f"P{i + 1}"), Call(f"P{i + 1}"))) for i in range(20)}
    procs["P20"] = Call("consume")
    procs["Main"] = Call("P0")
    p = _consume_program(procs)
    result, trace, _, _ = _agree(p, _host(5))
    assert result is Status.FAILURE and trace == ["consume"] * 5
    # A dozen lines per procedure; inlining would double them per level.
    assert len(_Codegen(p).source.splitlines()) <= 16 * len(procs)
