import random

import pytest

from rootedgp.errors import ParseError
from rootedgp.hostgraph import HostGraph
from rootedgp.interp import MAX_NESTING, Status, run
from rootedgp.text import (
    Op, build_instruction_graph, format_opscript, parse_host, parse_opscript,
    parse_program, parse_rule, print_host,
)


class TestHostRoundTrip:
    def test_single_rooted_node(self):
        g = parse_host('[ (n0(R), "i":5) | ]')
        assert g.node_ids() == [0]
        rec = g.nodes[0]
        assert rec.label == ("i", 5) and rec.rooted and rec.mark == "none"
        assert g.roots() == [0]

    def test_roots_listed_out_of_id_order_keep_rooting_order(self):
        g = parse_host("[ (n2(R), 3) (n1, 2) (n3(R), 4) (n0(R), 1) | ]")
        g.check_registries()
        by_recency = sorted(g.roots(), key=lambda nid: -g.nodes[nid].root_seq)
        assert g.roots_by_recency() == by_recency == [3, 2, 0]

    def test_print_is_canonical_and_parses_back(self):
        g = HostGraph()
        a = g.add_node((5,), "grey", rooted=True)
        b = g.add_node((), "green")
        g.add_edge(b, a, (), "none")
        g.add_edge(a, a, (1, "x"), "dashed")
        text = print_host(g)
        assert text == (
            '[ (n0(R), 5 #grey) (n1, empty #green) | '
            '(e0, n1, n0, empty) (e1, n0, n0, 1:"x" #dashed) ]'
        )
        h = parse_host(text)
        assert print_host(h) == text
        assert h.state()[:2] == g.state()[:2]

    def test_unknown_mark(self):
        with pytest.raises(ParseError, match="unknown mark"):
            parse_host("[ (n0, 1 #purple) | ]")

    def test_dangling_edge_endpoint(self):
        with pytest.raises(ParseError, match="missing node"):
            parse_host("[ (n0, 1) | (e0, n0, n7, empty) ]")

    def test_duplicate_node_id(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_host("[ (n0, 1) (n0, 2) | ]")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse_host("[ (n0, 1)\n (n1, @) | ]")
        assert exc.value.line == 2

    def test_empty_graph(self):
        assert print_host(parse_host("[ | ]")) == "[ | ]"

    def test_negative_keys(self):
        g = parse_host("[ (n0, -5) | ]")
        assert g.nodes[0].label == (-5,)


def _random_graph(rng):
    g = HostGraph()
    labels = [(), (1,), (-3,), ("a",), ("i", 5), (2, "bc", -1)]
    for _ in range(rng.randint(0, 12)):
        g.add_node(rng.choice(labels),
                   rng.choice(["none", "red", "green", "blue", "grey"]),
                   rng.random() < 0.3)
    ids = g.node_ids()
    if ids:
        for _ in range(rng.randint(0, 16)):
            g.add_edge(rng.choice(ids), rng.choice(ids), rng.choice(labels),
                       rng.choice(["none", "red", "green", "blue", "dashed"]))
    return g


def test_fuzz_roundtrip_1000():
    rng = random.Random(1234)
    for _ in range(1000):
        g = _random_graph(rng)
        text = print_host(g)
        h = parse_host(text)
        assert print_host(h) == text
        assert h.state()[:2] == g.state()[:2]


class TestRuleParsing:
    def test_identity_empty_rule(self):
        rule = parse_rule("r() [ | ] => [ | ] interface = {}")
        assert rule.name == "r" and not rule.lhs.nodes and rule.cond is None

    def test_decl_groups_and_condition(self):
        rule = parse_rule("""
            go_right1(o:char; x,n,m:int)
            [ (1(R), n #grey) (2, m #grey) (3(R), o:x) | (e1, 1, 2, empty) ]
            => [ (1, n #grey) (2(R), m #grey) (3(R), o:x) | (e1, 1, 2, empty) ]
            interface = {1, 2, 3}
            where m > n and x > n
        """)
        assert dict(rule.vars) == {"o": "char", "x": "int", "n": "int", "m": "int"}
        assert rule.interface == frozenset({1, 2, 3})
        assert rule.cond is not None

    def test_undeclared_variable_in_label(self):
        with pytest.raises(ParseError, match="undeclared"):
            parse_rule("r() [ (1, z) | ] => [ (1, z) | ] interface = {1}")

    def test_unknown_kind(self):
        with pytest.raises(ParseError, match="kind"):
            parse_rule("r(a:float) [ | ] => [ | ] interface = {}")


class TestProgramParsing:
    def test_declarations_and_calls(self):
        p = parse_program("""
            Main = try grow then Again else skip
            Again = grow!
            grow()
            [ | ] => [ (1, 0) | ]
            interface = {}
        """)
        assert set(p.rules) == {"grow"}
        assert set(p.procs) == {"Main", "Again"}

    def test_duplicate_declaration(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_program("Main = skip\nMain = skip")

    def test_missing_equals(self):
        with pytest.raises(ParseError, match="expected"):
            parse_program("Main skip")


_NOOP = "\nr() [ | ] => [ | ] interface = {}\n"


def _nested(kind: str, depth: int) -> str:
    """Main as `depth` nested parentheses, tries or ifs around `r`."""
    if kind == "paren":
        return "Main = " + "(" * depth + "r" + ")" * depth + _NOOP
    if kind == "try":
        return "Main = " + "try " * depth + "r" + _NOOP
    return "Main = " + "if " * depth + "r" + " then r" * depth + _NOOP


class TestNestingLimit:
    @pytest.mark.parametrize("kind", ["paren", "try", "if"])
    def test_limit_parses_and_runs(self, kind):
        program = parse_program(_nested(kind, MAX_NESTING))
        assert run(program, HostGraph()) is Status.SUCCESS

    def test_deeper_parentheses_are_a_syntax_error(self):
        with pytest.raises(ParseError, match=f"1:{8 + MAX_NESTING}: parentheses nest "
                                             f"more than {MAX_NESTING} deep"):
            parse_program(_nested("paren", MAX_NESTING + 1))

    def test_deep_conditions_parse(self):
        cond = "(" * MAX_NESTING + "x = 1" + ")" * MAX_NESTING
        rule = parse_rule(f"r(x:int) [ (1(R), x) | ] => [ (1(R), x) | ] "
                          f"interface = {{1}} where {cond}")
        assert rule.cond is not None
        with pytest.raises(ParseError, match="parentheses nest"):
            parse_rule(f"r(x:int) [ (1(R), x) | ] => [ (1(R), x) | ] "
                       f"interface = {{1}} where ({cond})")

    @pytest.mark.parametrize("kind", ["try", "if"])
    def test_far_deeper_commands_are_a_syntax_error(self, kind):
        # Past MAX_NESTING, validation reports nesting; far past it the
        # parser does, before it would run out of stack.
        with pytest.raises(ParseError, match="nest more than"):
            parse_program(_nested(kind, 10 * MAX_NESTING))


class TestOpScript:
    def test_three_line_script(self):
        ops = parse_opscript("i 5\ni 2\ni 7\n")
        assert ops == [Op("i", 5), Op("i", 2), Op("i", 7)]

    def test_comments_and_blanks_ignored(self):
        ops = parse_opscript("# build\n\ni 5  # head\ns 5\n")
        assert ops == [Op("i", 5), Op("s", 5)]

    def test_bad_kind_reports_line(self):
        with pytest.raises(ParseError) as exc:
            parse_opscript("i 5\nx 9\n")
        assert exc.value.line == 2

    def test_bad_key(self):
        with pytest.raises(ParseError):
            parse_opscript("i five")

    def test_format_roundtrip(self):
        ops = [Op("i", 5), Op("s", 7), Op("d", 2)]
        assert parse_opscript(format_opscript(ops)) == ops


def _check_instruction_graph(g, ops):
    # Independent shape validator: a chain of unmarked nodes labeled from
    # the op alphabet, exactly the head rooted, nothing else present.
    assert len(g.nodes) == len(ops)
    assert len(g.edges) == max(0, len(ops) - 1)
    roots = g.roots()
    if ops:
        assert len(roots) == 1
        indegree0 = [n for n in g.node_ids() if g.indeg(n) == 0]
        assert indegree0 == roots
    order = []
    cur = roots[0] if roots else None
    while cur is not None:
        order.append(cur)
        rec = g.nodes[cur]
        assert rec.mark == "none"
        assert len(rec.label) == 2 and rec.label[0] in ("i", "s", "d")
        assert type(rec.label[1]) is int
        outs = g.out_adj[cur]
        assert len(outs) <= 1
        cur = g.edges[outs[0]].tgt if outs else None
    assert [g.nodes[n].label for n in order] == [(op.kind, op.key) for op in ops]


def test_build_instruction_graph_chain():
    ops = [Op("i", 5), Op("i", 2), Op("i", 7)]
    g = build_instruction_graph(ops)
    _check_instruction_graph(g, ops)
    assert g.roots() == [0]


def test_build_instruction_graph_empty():
    g = build_instruction_graph([])
    assert len(g.nodes) == 0 and len(g.edges) == 0


def test_build_instruction_graph_random_shapes():
    rng = random.Random(5)
    for _ in range(50):
        ops = [Op(rng.choice("isd"), rng.randint(0, 99))
               for _ in range(rng.randint(1, 40))]
        _check_instruction_graph(build_instruction_graph(ops), ops)


# The shared graph grammar's error paths, for host graphs and rule graphs
# alike.  Rule cases put the left-hand side on line 2; a case without a
# message must parse and keep its `#any`.
def _rule(lhs):
    return parse_rule(f"r(x:int)\n{lhs}\n=> [ (1(R), 0 #any) | ]\ninterface = {{1}}")


@pytest.mark.parametrize("parse, text, fragment, line, col", [
    (parse_host, "[ (n0, 1) (n0, 2) | ]", "duplicate node id n0", 1, 11),
    (_rule, "[ (1(R), x) (1, 2) | ]", "duplicate node id n1", 2, 13),
    (parse_host, "[ (n0, 1) | (e0, n0, n0, empty) (e0, n0, n0, empty) ]",
     "duplicate edge id e0", 1, 33),
    (_rule, "[ (1(R), x) | (e1, 1, 1, empty) (e1, 1, 1, empty) ]",
     "duplicate edge id e1", 2, 33),
    (parse_host, "[ (n0, 1) | (e0, n0, n7, empty) ]",
     "edge e0 references a missing node", 1, 13),
    (_rule, "[ (1(R), x) | (e1, 1, 2, empty) ]",
     "edge e1 references a missing node", 2, 15),
    (parse_host, "[ (n0, 1 #purple) | ]", "unknown mark #purple in host node", 1, 11),
    (_rule, "[ (1(R), x #purple) | ]", "unknown mark #purple in rule node", 2, 13),
    (parse_host, "[ (n0, 1) | (e0, n0, n0, empty #grey) ]",
     "unknown mark #grey in host edge", 1, 33),
    (_rule, "[ (1(R), x) | (e1, 1, 1, empty #grey) ]",
     "unknown mark #grey in rule edge", 2, 33),
    (parse_host, "[ (n0, 1 #any) | ]", "unknown mark #any in host node", 1, 11),
    (parse_host, "[ (n0, 1) | (e0, n0, n0, empty #any) ]",
     "unknown mark #any in host edge", 1, 33),
    (_rule, "[ (1(R), x #any) | ]", None, None, None),
    (_rule, "[ (1(R), x) | (e1, 1, 1, empty #any) ]", None, None, None),
    (parse_host, "[ (n0, x) | ]", "expected an integer or string atom", 1, 8),
    (_rule, "[ (1(R), z) | ]", "undeclared variable 'z'", 2, 10),
])
def test_graph_grammar_errors(parse, text, fragment, line, col):
    if fragment is None:
        lhs = parse(text).lhs
        marks = [pn.mark for pn in lhs.nodes.values()] + [pe.mark for pe in lhs.edges]
        assert "any" in marks
        return
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert fragment in str(exc.value)
    assert (exc.value.line, exc.value.col) == (line, col)
