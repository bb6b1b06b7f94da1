import gc

import pytest

from rootedgp.errors import DivergenceError, ValidationError
from rootedgp.hostgraph import HostGraph
from rootedgp.interp import (
    BREAK, FAIL, SKIP, Call, If, Loop, Program, RuleSet, Seq, Status, Try,
    run, validate_program,
)
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
