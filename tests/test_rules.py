import gc
import random
import sys

import pytest

from rootedgp.errors import DivergenceError, ValidationError
from rootedgp.hostgraph import HostGraph
from rootedgp.labels import ArithT, CmpC, DegT, IntT, LabelPattern, OrC, VarT
from rootedgp.interp import Call, Program, Status, run
from rootedgp.rules import (
    Match, MatchStats, PatternEdge, PatternGraph, PatternNode, Rule, _Codegen,
    apply_match, apply_rule, find_match, fused_loop, validate_rule,
)
from rootedgp.text import parse_host, parse_rule

from matchref import (
    brute_force_exists, check_match_valid, plant_lhs, random_host, random_rooted_host,
    random_rule, random_search_rule, reference_apply, reference_loop,
    reference_search, root_anchored,
)

GO_RIGHT1 = """
go_right1(o:char; x,n,m:int)
[ (1(R), n #grey) (2, m #grey) (3(R), o:x) | (e1, 1, 2, empty) ]
=>
[ (1, n #grey) (2(R), m #grey) (3(R), o:x) | (e1, 1, 2, empty) ]
interface = {1, 2, 3}
where m > n and x > n
"""

GO_LEFT1 = GO_RIGHT1.replace("go_right1", "go_left1").replace(
    "where m > n and x > n", "where m < n and x < n")


def traversal_host(parent_key=5, child_key=7, instr=("s", 8)):
    g = HostGraph()
    p = g.add_node((parent_key,), "grey", rooted=True)
    c = g.add_node((child_key,), "grey")
    g.add_edge(p, c)
    g.add_node(instr, "none", rooted=True)
    return g, p, c


class TestValidate:
    def test_go_right1_is_fast(self):
        rule = parse_rule(GO_RIGHT1)
        assert root_anchored(rule)

    def test_empty_lhs_is_anchorless_and_valid(self):
        rule = parse_rule("make_root() [ | ] => [ (1, empty #green) | ] interface = {}")
        assert rule.plan == []
        assert not root_anchored(rule)  # nothing to anchor on

    def test_rhs_only_variable_rejected(self):
        with pytest.raises(ValidationError):
            parse_rule("r(a,b:int) [ (1(R), a) | ] => [ (1(R), b) | ] interface = {1}")

    def test_unrooted_rule_warned_not_rejected(self):
        from rootedgp.rules import validate_rule
        rule = parse_rule("r(a:int) [ (1, a) | ] => [ (1, a) | ] interface = {1}")
        assert validate_rule(rule) == ["rule r: no rooted node in left-hand side"]

    def test_wildcard_on_created_node_rejected(self):
        with pytest.raises(ValidationError):
            parse_rule("r() [ | ] => [ (1, empty #any) | ] interface = {}")

    def test_bad_rhs_node_mark_rejected(self):
        # The compiled rewrite files nodes under their rhs mark unchecked.
        rule = parse_rule("r(a:int) [ (1(R), a) | ] => [ (1(R), a #grey) | ] interface = {1}")
        rule.rhs.nodes[1].mark = "dashed"
        with pytest.raises(ValidationError, match="bad node mark"):
            validate_rule(rule)

    def test_interface_must_be_on_both_sides(self):
        with pytest.raises(ValidationError):
            parse_rule("r(a:int) [ (1(R), a) | ] => [ | ] interface = {1}")


class TestFindMatch:
    def test_go_right1_binds_all_four_vars(self):
        rule = parse_rule(GO_RIGHT1)
        g, p, c = traversal_host()
        stats = MatchStats()
        m = find_match(rule, g, stats)
        assert m is not None
        assert m.assignment == {"n": 5, "m": 7, "o": "s", "x": 8}
        assert m.nodes == {1: p, 2: c, 3: 2}
        check_match_valid(rule, g, m)

    def test_go_left1_no_match_when_child_larger(self):
        rule = parse_rule(GO_LEFT1)
        g, _, _ = traversal_host()
        assert find_match(rule, g, MatchStats()) is None

    def test_dangling_condition_blocks_deletion(self):
        # Deleting a node with an unmatched incident edge is not a match.
        rule = parse_rule(
            "r(a:int) [ (1(R), a) | ] => [ | ] interface = {}")
        g = HostGraph()
        v = g.add_node((1,), rooted=True)
        w = g.add_node((2,))
        g.add_edge(v, w)
        assert find_match(rule, g, MatchStats()) is None
        assert brute_force_exists(rule, g) is False
        g2 = HostGraph()
        g2.add_node((1,), rooted=True)
        assert find_match(rule, g2, MatchStats()) is not None

    def test_rootedness_is_bidirectional(self):
        rooted_rule = parse_rule(
            "r(a:int) [ (1(R), a) | ] => [ (1(R), a) | ] interface = {1}")
        unrooted_rule = parse_rule(
            "r(a:int) [ (1, a) | ] => [ (1, a) | ] interface = {1}")
        g = HostGraph()
        g.add_node((1,), rooted=True)
        assert find_match(rooted_rule, g, MatchStats()) is not None
        assert find_match(unrooted_rule, g, MatchStats()) is None
        h = HostGraph()
        h.add_node((1,))
        assert find_match(rooted_rule, h, MatchStats()) is None
        assert find_match(unrooted_rule, h, MatchStats()) is not None

    def test_wildcard_mark_excludes_unmarked(self):
        rule = parse_rule(
            "r(x:list) [ (1(R), x #any) | ] => [ (1(R), x #any) | ] interface = {1}")
        g = HostGraph()
        g.add_node((1,), "none", rooted=True)
        assert find_match(rule, g, MatchStats()) is None
        g.set_mark(0, "green")
        assert find_match(rule, g, MatchStats()) is not None

    def test_no_roots_means_zero_anchor_tries(self):
        rule = parse_rule(GO_RIGHT1)
        g = HostGraph()
        g.add_node((5,), "grey")
        stats = MatchStats()
        assert find_match(rule, g, stats) is None
        assert stats.anchors_tried == 0


class TestApply:
    def test_next_op_moves_the_root(self):
        rule = parse_rule("""
            next_op(x,y:list)
            [ (1(R), x) (2, y) | (e1, 1, 2, empty) ]
            => [ (1, x) (2(R), y) | (e1, 1, 2, empty) ]
            interface = {1, 2}
        """)
        g = HostGraph()
        a = g.add_node(("i", 5), rooted=True)
        b = g.add_node(("s", 7))
        g.add_edge(a, b)
        stats = MatchStats()
        m = find_match(rule, g, stats)
        apply_match(rule, m, g, stats)
        assert not g.nodes[a].rooted and g.nodes[b].rooted
        assert g.roots() == [b]

    def test_save_node_adds_red_tracker(self):
        rule = parse_rule("""
            save_node(x:list)
            [ (1(R), x #grey) | ]
            => [ (1(R), x #grey) (2(R), empty #red) | (e1, 2, 1, empty #red) ]
            interface = {1}
        """)
        g = HostGraph()
        v = g.add_node((5,), "grey", rooted=True)
        stats = MatchStats()
        apply_match(rule, find_match(rule, g, stats), g, stats)
        reds = g.nodes_with_mark("red")
        assert len(reds) == 1
        red = reds[0]
        assert g.nodes[red].rooted
        (eid,) = g.out_adj[red]
        assert g.edges[eid].tgt == v and g.edges[eid].mark == "red"

    def test_wildcard_rhs_preserves_host_mark(self):
        rule = parse_rule("""
            delete_leaf(x,y:list)
            [ (1, x #any) (2(R), y #grey) | (e1, 1, 2, empty) ]
            => [ (1, x #any) (2(R), y #grey) | ]
            interface = {1, 2}
            where outdeg(2) = 0
        """)
        g = HostGraph()
        parent = g.add_node((), "green")
        leaf = g.add_node((5,), "grey", rooted=True)
        g.add_edge(parent, leaf)
        stats = MatchStats()
        apply_match(rule, find_match(rule, g, stats), g, stats)
        assert g.nodes[parent].mark == "green"
        assert g.outdeg(parent) == 0
        assert g.nodes[leaf].rooted  # this rule keeps the garbage rooted

    def test_apply_then_rollback_restores_graph(self):
        rule = parse_rule(GO_RIGHT1)
        g, _, _ = traversal_host()
        snap = g.state()
        stats = MatchStats()
        t = g.begin_scope()
        apply_match(rule, find_match(rule, g, stats), g, stats)
        assert g.state() != snap
        g.rollback_scope(t)
        assert g.state() == snap

    def test_root_registry_matches_rhs_rootedness(self):
        rule = parse_rule(GO_RIGHT1)
        g, p, c = traversal_host()
        stats = MatchStats()
        apply_match(rule, find_match(rule, g, stats), g, stats)
        # root moved from parent to child; instruction untouched
        assert set(g.roots()) == {c, 2}

    def test_match_other_than_find_matchs_is_refused(self):
        rule = parse_rule(
            "r(a:int) [ (1(R), a #grey) | ] => [ (1(R), a #red) | ] interface = {1}")
        g = parse_host("[ (n0(R), 1 #grey) (n1(R), 2 #grey) | ]")
        stats = MatchStats()
        first = find_match(rule, g, stats)
        assert first == Match({1: 1}, {}, {"a": 2})    # most recently rooted
        second = Match({1: 0}, {}, {"a": 1})
        check_match_valid(rule, g, second)
        state, counters = g.state(), _counters(stats)
        for m in (second, None):
            with pytest.raises(ValueError, match="not the first match"):
                apply_match(rule, m, g, stats)
            assert g.state() == state
            assert _counters(stats) == counters
        apply_match(rule, first, g, stats)
        assert g.nodes[1].mark == "red" and g.nodes[0].mark == "grey"
        assert stats.applications == 1 and stats.by_rule == {"r": 1}


def test_find_match_leaves_no_cyclic_garbage():
    from rootedgp.bst import program, run_bst
    from rootedgp.text import Op
    rule = program("sanitized").rules["root"]
    g = run_bst([Op("i", 5), Op("i", 3)]).graph
    stats = MatchStats()
    gc.collect()
    gc.disable()
    try:
        for _ in range(200):
            assert find_match(rule, g, stats) is not None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_brute_force_equivalence_sample():
    # Fast sample here; the full battery runs in the acceptance suite.
    rng = random.Random(99)
    agree = 0
    for _ in range(400):
        rule = random_rule(rng)
        g = random_host(rng)
        engine = find_match(rule, g, MatchStats())
        brute = brute_force_exists(rule, g)
        assert (engine is not None) == brute
        if engine is not None:
            check_match_valid(rule, g, engine)
            agree += 1
    assert agree > 20  # the sample must actually exercise matches


# Variable names no Python identifier could hold, and string constants
# that need escaping; neither may reach the generated source as code.
_HOSTILE_KINDS = {"class": "int", "x y": "atom", "a'); (": "list",
                  "lambda": "char", "s\\": "string"}
_HOSTILE_ATOMS = [0, 1, 'q"\'', "b\\s", "n\nl", "a"]
_HOSTILE_NODE_LABELS = [(), (0,), (1,), ('q"\'',), ("b\\s", 1), ("n\nl",),
                        ("a",), (1, 'q"\''), (0, "n\nl", "b\\s")]
_HOSTILE_EDGE_LABELS = [(), (1,), ("n\nl",), ('q"\'',)]


def _shared_list_rule():
    # One list variable on a node and on an edge, and a condition mixing
    # outdeg, arithmetic and a list-kind variable.
    lst = ("v", "a'); (", "list")
    lhs = PatternGraph()
    lhs.nodes[1] = PatternNode(1, LabelPattern([("v", "class", "int"), lst]),
                               "none", True)
    lhs.nodes[2] = PatternNode(2, LabelPattern([lst]), "none", False)
    lhs.edges.append(PatternEdge(1, 2, LabelPattern([("c", "n\nl"), lst])))
    cond = OrC(
        CmpC("=", ArithT("+", VarT("a'); ("), IntT(1)), IntT(1)),
        CmpC(">=", ArithT("-", DegT("outdeg", 1), VarT("class")), IntT(0)))
    rhs = PatternGraph()
    for pid, pn in lhs.nodes.items():
        rhs.nodes[pid] = PatternNode(pid, pn.label, pn.mark, pn.rooted)
    rule = Rule("shared 'list'\n", list(_HOSTILE_KINDS.items()), lhs, rhs,
                frozenset({1, 2}), cond)
    validate_rule(rule)
    return rule


def _separate_roots_rule(rng):
    # Two or three rooted lhs nodes and no edges: one rooted anchor per node.
    names = ["a", "b", "c"][:rng.randint(2, 3)]
    lhs = PatternGraph()
    rhs = PatternGraph()
    for pid, name in enumerate(names, 1):
        label = LabelPattern([("v", name, "int")])
        mark = rng.choice(["grey", "none", "any"])
        lhs.nodes[pid] = PatternNode(pid, label, mark, True)
        rhs.nodes[pid] = PatternNode(pid, label, mark, True)
    x, y = rng.sample(names, 2)
    cond = CmpC(rng.choice(["<", ">", "=", "!="]), VarT(x), VarT(y))
    rule = Rule("roots", [(name, "int") for name in names], lhs, rhs,
                frozenset(lhs.nodes), cond)
    validate_rule(rule)
    return rule


class TestCompiledRules:
    def test_hostile_names_and_constants_agree_with_brute_force(self):
        rng = random.Random(4242)
        agree = 0
        for i in range(1500):
            if i % 3 == 0:
                rule = _shared_list_rule()
            else:
                rule = random_rule(rng, _HOSTILE_KINDS, _HOSTILE_ATOMS)
            g = random_host(rng, node_labels=_HOSTILE_NODE_LABELS,
                            edge_labels=_HOSTILE_EDGE_LABELS)
            m = find_match(rule, g, MatchStats())
            assert (m is not None) == brute_force_exists(rule, g)
            if m is not None:
                check_match_valid(rule, g, m)
                apply_match(rule, m, g, MatchStats())
                g.check_registries()
                agree += 1
        assert agree > 50

    def test_shared_list_rule_matches(self):
        rule = _shared_list_rule()
        g = HostGraph()
        v = g.add_node((2, "b\\s", 'q"\''), rooted=True)
        w = g.add_node(("b\\s", 'q"\''))
        g.add_edge(v, w, ("n\nl", "b\\s", 'q"\''))
        g.add_edge(v, g.add_node(()))
        m = find_match(rule, g, MatchStats())
        assert m is not None
        assert m.assignment == {"class": 2, "a'); (": ("b\\s", 'q"\'')}
        stats = MatchStats()
        t = g.begin_scope()
        apply_match(rule, m, g, stats)
        assert stats.by_rule == {rule.name: 1}
        g.rollback_scope(t)
        g.set_label(w, ("b\\s",))
        assert find_match(rule, g, MatchStats()) is None

    def test_long_plan_is_compiled(self):
        # A 30-node path rule: more plan steps than one Python function
        # may nest loops, so the matcher continues in helpers.
        n = 30
        lhs = PatternGraph()
        for pid in range(n):
            lhs.nodes[pid] = PatternNode(
                pid, LabelPattern([("v", f"k{pid}", "int")]), "none", pid == 0)
        for pid in range(n - 1):
            lhs.edges.append(PatternEdge(pid, pid + 1, LabelPattern([])))
        rhs = PatternGraph()
        rhs.nodes[0] = PatternNode(0, LabelPattern([("c", 0)]), "none", True)
        rule = Rule("path", [(f"k{pid}", "int") for pid in range(n)], lhs, rhs,
                    frozenset({0}),
                    CmpC(">", VarT(f"k{n - 1}"), VarT("k0")))
        validate_rule(rule)

        def path_host():
            g = HostGraph()
            ids = [g.add_node((k,), rooted=k == 0) for k in range(n)]
            for a, b in zip(ids, ids[1:]):
                g.add_edge(a, b)
            return g, ids

        g, ids = path_host()
        stats = MatchStats()
        m = find_match(rule, g, stats)
        assert m is not None and list(m.nodes.values()) == ids
        assert (stats.anchors_tried, stats.extension_steps) == (1, n - 1)
        apply_match(rule, m, g, stats)
        assert list(g.nodes) == [ids[0]] and not g.edges
        assert g.nodes[ids[0]].label == (0,)
        g.check_registries()
        # The fused application rewrites inside the continuation helper.
        fused, _ = path_host()
        fused_stats = MatchStats()
        assert apply_rule(rule, fused, fused_stats)
        assert fused.state() == g.state()
        assert _counters(fused_stats) == _counters(stats)
        ran, _ = path_host()
        ran_stats = MatchStats()
        assert run(Program({"path": rule}, {"Main": Call("path")}), ran,
                   stats=ran_stats) is Status.SUCCESS
        assert ran.state() == g.state()
        assert _counters(ran_stats) == _counters(stats)

    def test_same_mark_roots_in_separate_components(self):
        # Both anchors read the grey root registry; each loop needs its own
        # iterator, or the inner loop exhausts the outer one.
        rule = parse_rule(
            "r(a,b:int) [ (1(R), a #grey) (2(R), b #grey) | ] => "
            "[ (1(R), a #grey) (2(R), b #grey) | ] interface = {1, 2} "
            "where b > a")
        g = parse_host("[ (n0(R), 1 #grey) (n1(R), 2 #grey) (n2(R), 3 #grey) | ]")
        assert find_match(rule, g, MatchStats()) == Match({1: 1, 2: 2}, {},
                                                          {"a": 2, "b": 3})

    def test_all_rooted_rules_agree_with_brute_force(self):
        # Rooted anchors only, several per rule with the same or the
        # wildcard mark, on hosts where most nodes are roots.  Every other
        # rule has only separate components tied by a condition, so the
        # first root of a mark often fits no partner and a later one must.
        rng = random.Random(515)
        agree = 0
        for i in range(1500):
            if i % 2:
                rule = _separate_roots_rule(rng)
            else:
                rule = random_rule(rng, node_marks=["grey", "none", "any"],
                                   rooted_p=1.0)
            g = random_host(rng, node_labels=[(0,), (1,), (2,), (3,)],
                            node_marks=["none", "grey", "grey", "red"],
                            rooted_p=0.8)
            m = find_match(rule, g, MatchStats())
            assert (m is not None) == brute_force_exists(rule, g)
            if m is not None:
                check_match_valid(rule, g, m)
                agree += 1
        assert agree > 100

    def test_revalidation_drops_compiled_functions(self):
        rule = parse_rule(GO_RIGHT1)
        g, _, _ = traversal_host(parent_key=5, child_key=3)
        assert find_match(rule, g, MatchStats()) is None
        assert rule.prober is not None
        assert not apply_rule(rule, g, MatchStats())
        assert rule.applier is not None
        rule.cond = CmpC("<", VarT("m"), VarT("n"))
        validate_rule(rule)
        assert (rule.prober, rule.applier) == (None, None)
        assert find_match(rule, g, MatchStats()) is not None
        assert apply_rule(rule, g, MatchStats())
        assert rule.applier is not None


def _counters(stats: MatchStats) -> tuple:
    return (stats.anchors_tried, stats.extension_steps, stats.matches_found,
            stats.applications, stats.by_rule, stats.max_anchors_per_call,
            stats.max_extensions_per_call)


def _apply_split(rule, g, stats) -> bool:
    m = find_match(rule, g, stats)
    if m is None:
        return False
    apply_match(rule, m, g, stats)
    return True


def _apply_reference(rule, g, stats) -> bool:
    m = find_match(rule, g, stats)
    if m is None:
        return False
    reference_apply(rule, m, g)
    stats.applications += 1
    stats.by_rule[rule.name] = stats.by_rule.get(rule.name, 0) + 1
    return True


class TestCompiledRewrite:
    def test_agrees_with_reference_rewrite(self):
        # Random rules that relabel, remark, reroot, create and link, most
        # on hosts holding an image of their lhs, each applied three ways
        # inside an open scope: fused, find_match plus
        # apply_match, and find_match plus the reference rewrite through
        # the public mutators.  Everything observable must agree, and
        # rolling the scope back must restore the graph.
        rng = random.Random(8080)
        applied = 0
        for i in range(1800):
            if i % 4 == 0:
                rule = random_rule(rng, _HOSTILE_KINDS, _HOSTILE_ATOMS,
                                   rhs_changes=True)
                host = random_host(rng, node_labels=_HOSTILE_NODE_LABELS,
                                   edge_labels=_HOSTILE_EDGE_LABELS)
            else:
                rule = random_rule(rng, rhs_changes=True)
                host = random_host(rng)
            if i % 5:
                plant_lhs(rng, rule, host)
            outcomes = []
            for way in (apply_rule, _apply_split, _apply_reference):
                g = host.clone()
                before = g.state()
                token = g.begin_scope()
                stats = MatchStats()
                result = way(rule, g, stats)
                g.check_registries()
                outcomes.append((
                    result, g.state(), list(g._frames[-1][0]),
                    [list(reg) for reg in g._roots.values()], _counters(stats)))
                g.rollback_scope(token)
                g.check_registries()
                assert g.state() == before
            assert outcomes[0] == outcomes[1] == outcomes[2]
            # With only the base frame open nothing is journaled.
            g = host.clone()
            assert apply_rule(rule, g, MatchStats()) == outcomes[0][0]
            assert g.state() == outcomes[0][1]
            g.check_registries()
            applied += outcomes[0][0]
        assert applied > 1000


# Rules whose rhs edges take the records of deleted lhs edges: same pids
# on a node that is deleted and created again, reversed and reordered
# edges, self-loops, new labels and marks, and more rhs than lhs edges.
_REUSE_RULES = [
    "r(x:int) [ (1, x) (2, 2) | (e1, 1, 2, empty) ] => "
    "[ (1, x) (2, 2) | (e1, 1, 2, empty) ] interface = {1}",
    "r(x:int) [ (1, x) (2, 2) | (e1, 1, 2, empty) ] => "
    "[ (1, x) (2, 2) | (e1, 2, 1, empty) ] interface = {1, 2}",
    "r(x,y:int) [ (1, x) (2, y) (3, 3) | (e1, 1, 2, empty) (e2, 2, 3, y) ] => "
    "[ (1, x) (2, y) (3, 3) | (e1, 2, 3, y) (e2, 1, 2, empty) ] interface = {1, 2, 3}",
    "r(x:int; s:list) [ (1, x) | (e1, 1, 1, s) ] => "
    "[ (1, x) | (e1, 1, 1, s) (e2, 1, 1, s:x) ] interface = {1}",
    "r(x:int) [ (1, x) (2, 2) | (e1, 1, 2, empty #any) ] => "
    "[ (1, x) (2, 2) (3, 3) | (e1, 1, 3, empty #red) (e2, 3, 2, x) (e3, 2, 1, empty) ] "
    "interface = {1, 2}",
    "r(x:int) [ (1, x) (2, 2) (3, 3) | (e1, 1, 2, empty) (e2, 3, 1, x #red) ] => "
    "[ (1, x) (3, 3) | (e1, 3, 1, x #red) ] interface = {1, 3}",
]


class TestReusedEdgeRecords:
    @pytest.mark.parametrize("text", _REUSE_RULES)
    def test_agrees_with_reference_rewrite(self, text):
        rule = parse_rule(text)
        rng = random.Random(4040)
        applied = 0
        for _ in range(60):
            host = random_host(rng)
            plant_lhs(rng, rule, host)
            outcomes = []
            for way in (apply_rule, _apply_reference):
                g = host.clone()
                token = g.begin_scope()
                stats = MatchStats()
                result = way(rule, g, stats)
                g.check_registries()
                outcomes.append((result, g.state(), list(g._frames[-1][0]),
                                 [list(reg) for reg in g._roots.values()],
                                 _counters(stats)))
                g.rollback_scope(token)
                g.check_registries()
                assert g.state() == host.state()
            assert outcomes[0] == outcomes[1]
            applied += outcomes[0][0]
        assert applied >= 30


def _loop_outcome(loop, members, host, max_iters):
    """A loop over `members` run by `loop` on a copy of `host` inside a
    scope, which rolling back must undo: result, trace, counters, state."""
    g = host.clone()
    token = g.begin_scope()
    stats = MatchStats()
    trace = []
    try:
        result = loop(members, g, stats, trace.append, 0, max_iters)
    except DivergenceError as e:
        result = str(e)
    g.check_registries()
    after = g.state(), [list(reg) for reg in g._roots.values()]
    g.rollback_scope(token)
    assert g.state() == host.state()
    return result, trace, _counters(stats), after


def _compiled_loop(members, g, stats, tr, it, max_iters):
    return fused_loop(members)(g, stats, tr, it, max_iters)


class TestSearchCounters:
    """The compiled searches, which reject candidates early and read hoisted
    candidate lists, against the reference search, which does neither."""

    def test_agree_with_reference_search(self):
        hoisted = rebuilt = found = early = loop_apps = 0
        for seed in range(300):
            rng = random.Random(seed)
            rules = []
            host = random_rooted_host(rng)
            for i in range(rng.randint(1, 3)):
                rule = random_search_rule(rng)
                rule.name = f"r{i}"
                rules.append(rule)
                for _ in range(rng.choice([0, 1, 1, 2])):
                    plant_lhs(rng, rule, host)
            for rule in rules:
                m, na, nx = reference_search(rule, host)
                found += m is not None
                stats = MatchStats()
                assert find_match(rule, host, stats) == m
                assert _counters(stats) == (na, nx, int(m is not None), 0, {}, na, nx)
                g = host.clone()
                stats = MatchStats()
                assert apply_rule(rule, g, stats) == (m is not None)
                applied = {rule.name: 1} if m else {}
                assert _counters(stats) == (na, nx, len(applied), len(applied),
                                            applied, na, nx)
                want = host.clone()
                if m is not None:
                    reference_apply(rule, m, want)
                assert g.state() == want.state()
                g.check_registries()
            gen = _Codegen()
            gen.loop_function(rules)
            source = "\n".join(gen.funcs)
            hoisted += bool(gen.hoists)
            rebuilt += source.count("= hoist") > len(gen.hoists)
            early += "+= len(" in source
            max_iters = rng.choice([1, 3, 20, 200])
            outcome = _loop_outcome(_compiled_loop, rules, host, max_iters)
            assert outcome == _loop_outcome(reference_loop, rules, host, max_iters)
            loop_apps += outcome[2][3]
        assert found >= 100 and loop_apps >= 400
        # Loop functions with hoisted lists, lists rebuilt after a member's
        # rewrite, and conjuncts tested early.
        assert hoisted >= 200 and rebuilt >= 150 and early >= 150

    @staticmethod
    def traced_lines(k: int) -> tuple:
        """Lines the loop function runs when `{go_right1, go_left1}!` fails
        at once beside k isolated grey roots, and the loop's counters."""
        rules = [parse_rule(GO_RIGHT1), parse_rule(GO_LEFT1)]
        loop = fused_loop(rules)
        g, _, _ = traversal_host(parent_key=5, child_key=7, instr=("s", 5))
        for key in range(k):
            g.add_node((key,), "grey", rooted=True)
        lines = []

        def trace(frame, event, arg):
            if frame.f_code.co_filename.startswith("<loop "):
                if event == "line":
                    lines.append(frame.f_lineno)
                return trace
            return None

        stats = MatchStats()
        sys.settrace(trace)
        try:
            loop(g, stats, None, 0, 10)
        finally:
            sys.settrace(None)
        assert stats.applications == 0
        return len(lines), stats.anchors_tried, stats.extension_steps

    def test_isolated_roots_are_rejected_in_three_lines(self):
        # Each isolated root costs one probe per member; the adjacency test
        # rejects it before its label is read.
        lines50, anchors50, ext50 = self.traced_lines(50)
        lines100, anchors100, ext100 = self.traced_lines(100)
        assert (anchors50, ext50) == (102, 4)
        assert (anchors100, ext100) == (202, 4)
        assert lines100 - lines50 <= 3 * 50 * 2
