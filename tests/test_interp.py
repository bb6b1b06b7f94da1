import gc
import random
import sys

import pytest

from matchref import (
    brute_force_exists, plant_lhs, random_rule, reference_run, reference_search,
)
from rootedgp import interp, rules
from rootedgp.bench import (
    append_instructions, build_degenerate_graph, measured_ops, measurement_program,
    run_measured,
)
from rootedgp.bst import asset_text
from rootedgp.errors import DivergenceError, ValidationError
from rootedgp.hostgraph import EdgeRec, HostGraph
from rootedgp.interp import (
    BREAK, DEFAULT_MAX_ITERS, FAIL, MAX_NESTING, SKIP, Call, If, Loop, Program,
    RuleSet, Seq, Status, Try, _Codegen, run, validate_program,
)
from rootedgp.rules import MatchStats, _refiles_roots, validate_rule
from rootedgp.text import parse_program, parse_rule


def prog_of(**procs):
    rules = {}
    add = parse_rule("add() [ | ] => [ (1, 1) | ] interface = {}")
    never = parse_rule("never(a:int) [ (1(R), 99:a) | ] => [ (1(R), 99:a) | ] interface = {1}")
    bump = parse_rule("bump() [ (1, 1) | ] => [ (1, 5) | ] interface = {1}")
    rules["add"] = add
    rules["never"] = never
    rules["bump"] = bump
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
        # A called rule and a member of a looped rule set both change.
        p = prog_of(Main=Seq((Call("add"), Loop(RuleSet(("never", "bump"))))))
        g = HostGraph()
        run(p, g)
        compiled = p.compiled
        assert sorted(rec.label for rec in g.nodes.values()) == [(5,)]
        rule = p.rules["add"]
        rule.rhs.nodes[1].label = parse_rule(
            "add() [ | ] => [ (1, 2) | ] interface = {}").rhs.nodes[1].label
        validate_rule(rule)
        assert rule.applier is None
        bump = p.rules["bump"]
        fresh = parse_rule("bump() [ (1, 2) | ] => [ (1, 6) | ] interface = {1}")
        bump.lhs, bump.rhs = fresh.lhs, fresh.rhs
        validate_rule(bump)
        run(p, g)
        assert p.compiled is not compiled    # recompiled
        assert sorted(rec.label for rec in g.nodes.values()) == [(5,), (6,)]

    def test_compiles_exactly_what_the_control_calls(self, monkeypatch):
        p = parse_program(asset_text("bst_sanitized.gp2"))
        compiled = []

        def counted(owner, name, kind):
            original = getattr(owner, name)

            def compile_counted(*args):
                compiled.append(kind(*args))
                return original(*args)
            monkeypatch.setattr(owner, name, compile_counted)

        counted(rules, "_compile", lambda rule, name: (name, rule.name))
        counted(interp, "fused_loop", lambda members: ("loop",) + tuple(
            rule.name for rule in members))
        counted(interp, "_compile", lambda program: ("control",))
        run(p, HostGraph())
        appliers = {c[1] for c in compiled if c[0] == "apply"}
        # The control never calls the applier of a rule it only loops over.
        assert appliers == set(p.rules) - {"unroot", "go_right1", "go_left1",
                                           "go_right2"}
        assert len(compiled) == 19 + 2 + 3 + 1
        assert sorted(c for c in compiled if c[0] != "apply") == [
            ("control",), ("loop", "go_right1", "go_left1"), ("loop", "go_right2"),
            ("loop", "unroot"), ("probe", "go_right2"), ("probe", "match")]
        compiled.clear()
        run(p, HostGraph())
        assert compiled == []
        validate_rule(p.rules["go_left2"])
        run(p, HostGraph())
        assert sorted(compiled) == [
            ("apply", "go_left2"), ("control",), ("loop", "go_right1", "go_left1"),
            ("loop", "go_right2"), ("loop", "unroot")]

    def test_revalidated_if_condition_is_probed_by_fresh_code(self):
        p = prog_of(Main=Seq((Call("add"), If(Call("bump"), Call("add"), SKIP))))
        g = HostGraph()
        run(p, g)
        assert sorted(rec.label for rec in g.nodes.values()) == [(1,), (1,)]
        bump = p.rules["bump"]
        assert bump.prober is not None
        fresh = parse_rule("bump() [ (1, 2) | ] => [ (1, 5) | ] interface = {1}")
        bump.lhs, bump.rhs = fresh.lhs, fresh.rhs
        validate_rule(bump)
        assert bump.prober is None
        stats = MatchStats()
        run(p, g, stats=stats)
        assert sorted(rec.label for rec in g.nodes.values()) == [(1,), (1,), (1,)]
        assert stats.by_rule == {"add": 1}

    @pytest.mark.parametrize("op, scopes", [("insert", 1), ("search", 1), ("delete", 2)])
    def test_chain_op_opens_as_many_scopes_at_any_length(self, monkeypatch, op, scopes):
        # Only the main loop's iteration and a try whose condition is a
        # procedure open a scope; `if match` is probed, and the descent
        # opens none.
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

    @pytest.mark.parametrize("op, records", [("insert", 1), ("search", 1), ("delete", 0)])
    def test_chain_op_constructs_no_record_per_step(self, monkeypatch, op, records):
        # Each descent step hands the tree edge it deletes to the edge it
        # creates; only add_leaf's and match's new edges are built.
        built = []
        init = EdgeRec.__init__

        def counting_init(rec, *args):
            built.append(1)
            init(rec, *args)

        program = measurement_program("sanitized")
        for n in (100, 1000):
            g = append_instructions(build_degenerate_graph(n), measured_ops("degenerate", n, op))
            monkeypatch.setattr(EdgeRec, "__init__", counting_init)
            del built[:]
            stats = MatchStats()
            assert run(program, g, stats=stats) is Status.SUCCESS
            monkeypatch.undo()
            assert stats.applications > n
            assert len(built) == records, n
            g.check_registries()

    @pytest.mark.parametrize("op, entries", [("insert", 2002), ("search", 2001),
                                             ("delete", 2001)])
    def test_chain_op_journals_no_edge_per_step(self, op, entries):
        # A descent step leaves the tree edge it follows in place and
        # journals only its unroot and root.
        n = 1000
        g = append_instructions(build_degenerate_graph(n), measured_ops("degenerate", n, op))
        token = g.begin_scope()
        assert run(measurement_program("sanitized"), g, stats=MatchStats()) is Status.SUCCESS
        assert len(g._frames[-1][0]) == entries
        g.rollback_scope(token)
        g.check_registries()

    def test_chain_search_creates_only_its_search_edge(self):
        n = 1000
        g = append_instructions(build_degenerate_graph(n), measured_ops("degenerate", n, "search"))
        assert run(measurement_program("sanitized"), g, stats=MatchStats()) is Status.SUCCESS
        assert g._next_edge == n + 1

    @pytest.mark.parametrize("op", ["insert", "search", "delete"])
    def test_chain_op_makes_as_many_compiled_calls_at_any_length(self, op):
        # Each loop over rules runs as one call, however many iterations
        # it makes; the descent alone iterates n times.
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename.startswith(
                    ("<rule ", "<loop ", "<control>")):
                calls.append(frame.f_code.co_filename)

        counts = []
        for n in (100, 1000):
            base = build_degenerate_graph(n)
            ops = measured_ops("degenerate", n, op)
            run_measured(base, ops)       # compiles everything first
            del calls[:]
            sys.setprofile(profile)
            try:
                status, stats, _ = run_measured(base, ops)
            finally:
                sys.setprofile(None)
            assert status is Status.SUCCESS and stats.applications > n
            counts.append(len(calls))
        assert counts[0] == counts[1] and counts[0] > 0


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


def _looped_sets(cmd):
    """The rule sets of two or more members that `cmd` loops over."""
    kind = type(cmd)
    if kind is Loop and type(cmd.body) is RuleSet and len(cmd.body.names) > 1:
        yield cmd.body
    for sub in (cmd.parts if kind is Seq else (cmd.body,) if kind is Loop
                else (cmd.cond, cmd.then_part, cmd.else_part) if kind in (Try, If)
                else ()):
        yield from _looped_sets(sub)


def test_compiled_control_matches_reference_on_random_programs():
    statuses = set()
    looped = refiling = 0
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
        for body in program.procs.values():
            for members in _looped_sets(body):
                looped += 1
                refiling += any(_refiles_roots(rules[n]) for n in members.names)
    assert statuses == {Status.SUCCESS, Status.FAILURE, "diverged"}
    # Loop functions over several members, some of which remark a root.
    assert looped >= 100 and refiling >= 20


# A loop over three members: `never` does not match; `paint` remarks the
# grey root red, which refiles the root registries in mid-loop; `move`
# passes a red root on to the next grey node of a chain.
_WALK_RULES = """
never(a:int)
[ (1(R), 99:a #blue) | ]
=>
[ (1(R), 99:a #blue) | ]
interface = {1}

paint(x:int)
[ (1(R), x #grey) | ]
=>
[ (1(R), x #red) | ]
interface = {1}

move(a,b:int)
[ (1(R), a #red) (2, b #grey) | (e1, 1, 2, empty) ]
=>
[ (1, a #red) (2(R), b #grey) | (e1, 1, 2, empty) ]
interface = {1, 2}
where b > a
"""


def _walk_program() -> Program:
    return parse_program("Main = {never, move, paint}!; {never, move, paint}!" + _WALK_RULES)


def _chain(n: int) -> HostGraph:
    """A grey chain 0 -> 1 -> ... -> n-1 rooted at its head, and a stale
    red root that `move` cannot pass on."""
    g = HostGraph()
    stale = g.add_node((-1,), "red", rooted=True)
    ids = [g.add_node((k,), "grey", rooted=k == 0) for k in range(n)]
    for a, b in zip(ids, ids[1:]):
        g.add_edge(a, b)
    g.add_edge(stale, ids[0])
    return g


class TestLoopFunctions:
    def test_rule_set_member_refiles_registries_mid_loop(self):
        p = _walk_program()
        assert _refiles_roots(p.rules["paint"])
        result, trace, counters, after = _agree(p, _chain(6))
        assert result is Status.SUCCESS
        assert trace == ["paint", "move"] * 5 + ["paint"]
        assert counters[4] == {"paint": 6, "move": 5}
        nodes = after[0]
        assert [nodes[i][1:3] for i in range(1, 7)] == [("red", False)] * 5 + [("red", True)]

    @pytest.mark.parametrize("max_iters", range(1, 15))
    def test_budget_runs_out_inside_a_loop_function(self, max_iters):
        # Ends the loop after 11 applications and one failing iteration,
        # so every budget below 13 runs out inside it.
        result = _agree(_walk_program(), _chain(6), max_iters)[0]
        if max_iters < 13:
            assert result == f"loop iteration budget exhausted ({max_iters})"
        else:
            assert result is Status.SUCCESS

    def test_loop_function_counts_as_calls_would(self):
        # Every attempt's counts, the maxima per attempt included, are
        # those of calling the members' fused appliers in turn.
        g = _chain(6)
        for i in range(6, 9):
            g.add_node((i,), "grey", rooted=True)
        for max_iters in (4, DEFAULT_MAX_ITERS):
            counters = _agree(_walk_program(), g, max_iters)[2]
            assert counters[5] >= 2 and counters[6] >= 1

    def test_members_called_through_their_appliers(self):
        # `long` needs a helper function (18 plan steps) and the members
        # after the 90th would nest too deep, so the loop function calls
        # them through their fused appliers, between inlined ones.
        nodes = " ".join(f"({i}{'(R)' if i == 1 else ''}, a{i} #grey)"
                         for i in range(1, 19))
        edges = " ".join(f"(e{i}, {i}, {i + 1}, empty)" for i in range(1, 18))
        rhs = nodes.replace("(1(R),", "(1,").replace("(2,", "(2(R),")
        params = ",".join(f"a{i}" for i in range(1, 19))
        long = (f"long({params}:int)\n[ {nodes} | {edges} ]\n=>\n[ {rhs} | {edges} ]\n"
                f"interface = {{{', '.join(map(str, range(1, 19)))}}}\n")
        nevers = "".join(_WALK_RULES.split("\n\n")[0].replace("never(", f"never{i}(") + "\n\n"
                         for i in range(95))
        names = ", ".join(f"never{i}" for i in range(95))
        p = parse_program(f"Main = {{never0, long, move}}!; {{{names}, paint, move}}!\n"
                          + long + nevers + _WALK_RULES)
        g = _chain(30)
        result, trace, counters, _ = _agree(p, g)
        assert result is Status.SUCCESS
        assert trace[:14] == ["long"] * 13 + ["move"]
        assert set(trace[14:]) == {"paint", "move"}
        for max_iters in (5, 13, 20, 40):
            assert isinstance(_agree(p, g, max_iters)[0], str)


class TestNestingLimit:
    @staticmethod
    def shapes(depth: int) -> dict:
        """Commands `depth` levels deep: tries nested in conditions, in
        then parts, and loops of sequences."""
        cond = then = Call("consume")
        for _ in range(depth):
            cond = Try(cond, SKIP, Call("add"))
            then = If(Call("consume"), then, SKIP)
        loop = Call("consume") if depth % 2 == 0 else Seq((Call("consume"), SKIP))
        for _ in range(depth // 2):
            loop = Loop(Seq((loop, BREAK)))
        return {"cond": cond, "then": then, "loop": loop}

    def test_limit_compiles_and_runs(self):
        for name, cmd in self.shapes(MAX_NESTING).items():
            p = _consume_program({"Main": cmd})
            assert _agree(p, _host(3))[0] is Status.SUCCESS, name

    def test_deeper_nesting_is_rejected(self):
        for cmd in self.shapes(MAX_NESTING + 1).values():
            with pytest.raises(ValidationError, match=f"nests commands {MAX_NESTING + 1} deep"):
                _consume_program({"Main": SKIP, "P": cmd})


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


def _call_chain(length: int) -> Program:
    """Main calling P1, which calls P2, and so on: `length` calls, the
    last of which calls `consume`."""
    procs = {"Main": Call("P1")}
    for i in range(1, length):
        procs[f"P{i}"] = Call(f"P{i + 1}")
    procs[f"P{length}"] = Call("consume")
    return _consume_program(procs)


class TestCallChains:
    def test_limit_validates_and_runs(self):
        result, trace, _, _ = _agree(_call_chain(MAX_NESTING), _host(2))
        assert result is Status.SUCCESS and trace == ["consume"]

    @pytest.mark.parametrize("length", [MAX_NESTING + 1, 1000, 5000])
    def test_longer_chain_is_rejected(self, length):
        with pytest.raises(ValidationError) as e:
            _call_chain(length)
        assert str(e.value) == (f"procedure 'P{MAX_NESTING + 1}' is called through "
                                f"a chain of {MAX_NESTING + 1} calls "
                                f"(at most {MAX_NESTING})")

    def test_chain_length_counts_the_longest_path(self):
        # P is walked first straight from Main, then again at the end of a
        # chain through Q1, Q2, ... whose call of R is one too many.
        procs = {"Main": Seq((Call("P"), Call("Q1"))), "P": Call("R"),
                 "R": Call("consume")}
        for i in range(1, MAX_NESTING - 1):
            procs[f"Q{i}"] = Call(f"Q{i + 1}")
        procs[f"Q{MAX_NESTING - 1}"] = Call("P")
        with pytest.raises(ValidationError, match="procedure 'R' is called through"):
            _consume_program(procs)
        del procs[f"Q{MAX_NESTING - 1}"]
        procs[f"Q{MAX_NESTING - 2}"] = Call("P")
        assert _agree(_consume_program(procs), _host(2))[0] is Status.SUCCESS


def test_call_chain_through_nested_conditions_runs():
    # Each procedure calls the next inside three nested try conditions,
    # two of which run in helper functions: three frames per call.
    procs = {"Main": Call("P1"), f"P{MAX_NESTING}": Call("consume")}
    for i in range(1, MAX_NESTING):
        cmd = Call(f"P{i + 1}")
        for _ in range(3):
            cmd = Try(cmd, SKIP, SKIP)
        procs[f"P{i}"] = cmd
    p = _consume_program(procs)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 10 * MAX_NESTING)   # the tree walker's frames
    try:
        want = _outcome(reference_run, p, _host(2), DEFAULT_MAX_ITERS)
    finally:
        sys.setrecursionlimit(limit)
    got = _outcome(run, p, _host(2), DEFAULT_MAX_ITERS)
    assert got == want and got[:2] == (Status.SUCCESS, ["consume"])
    assert sys.getrecursionlimit() == limit


def test_long_or_chain_compiles_and_agrees_with_the_reference():
    terms = " or ".join(f"x = {k}" for k in range(3000))
    p = parse_program(f'Main = r\nr(x:int) [ (1, x) | ] => [ (1, "done") | ] '
                      f"interface = {{1}} where {terms}")
    rule = p.rules["r"]
    for label, applies in ((0, True), (2999, True), (3000, False), (-1, False)):
        g = HostGraph()
        g.add_node((label,))
        assert brute_force_exists(rule, g) is applies
        assert (reference_search(rule, g)[0] is not None) is applies
        result, trace, _, _ = _agree(p, g)
        assert result is (Status.SUCCESS if applies else Status.FAILURE)
        assert trace == ["r"] * applies


def test_procedure_chain_compiles_to_linear_source():
    procs = {f"P{i}": Seq((Call(f"P{i + 1}"), Call(f"P{i + 1}"))) for i in range(20)}
    procs["P20"] = Call("consume")
    procs["Main"] = Call("P0")
    p = _consume_program(procs)
    result, trace, _, _ = _agree(p, _host(5))
    assert result is Status.FAILURE and trace == ["consume"] * 5
    # A dozen lines per procedure; inlining would double them per level.
    assert len(_Codegen(p).source.splitlines()) <= 16 * len(procs)
