import gc
import random

import pytest

from rootedgp.errors import ValidationError
from rootedgp.hostgraph import HostGraph
from rootedgp.rules import MatchStats, apply_match, find_match
from rootedgp.text import parse_rule

from matchref import (
    brute_force_exists, check_match_valid, random_host, random_rule,
    root_anchored,
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
