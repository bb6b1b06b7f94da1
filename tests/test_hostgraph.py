import random

import pytest
from hypothesis import given, settings, strategies as st

from rootedgp.errors import GraphError
from rootedgp.hostgraph import NODE_MARKS, HostGraph


def test_add_node_defaults_do_not_root():
    g = HostGraph()
    nid = g.add_node((), "green")
    assert g.roots() == []
    assert g.nodes[nid].mark == "green"
    assert g.nodes_with_mark("green") == [nid]


def test_set_root_inverse_pair():
    g = HostGraph()
    v = g.add_node((5,), "grey")
    before = set(g.roots())
    g.set_root(v, True)
    g.set_root(v, False)
    assert set(g.roots()) == before


def test_add_then_delete_edge_restores_degree():
    g = HostGraph()
    a = g.add_node((1,))
    b = g.add_node((2,))
    before = g.outdeg(a)
    eid = g.add_edge(a, b)
    g.delete_edge(eid)
    assert g.outdeg(a) == before


def test_delete_node_with_edges_is_a_fault():
    g = HostGraph()
    a = g.add_node((1,))
    b = g.add_node((2,))
    g.add_edge(a, b)
    with pytest.raises(GraphError):
        g.delete_node(a)


def test_invalid_ids_fault():
    g = HostGraph()
    with pytest.raises(GraphError):
        g.delete_node(99)
    with pytest.raises(GraphError):
        g.outdeg(99)
    with pytest.raises(GraphError):
        g.set_mark(99, "red")


def test_rollback_rewinds_allocator():
    g = HostGraph()
    g.add_node((1,))
    t = g.begin_scope()
    nid = g.add_node((2,))
    g.rollback_scope(t)
    assert nid not in g.nodes
    assert g.add_node((3,)) == nid  # allocator rewound


def test_nested_commit_then_outer_rollback_undoes_all():
    g = HostGraph()
    a = g.add_node((1,))
    snap = g.state()
    outer = g.begin_scope()
    inner = g.begin_scope()
    b = g.add_node((2,))
    g.add_edge(a, b)
    g.set_mark(a, "red")
    g.commit_scope(inner)
    g.rollback_scope(outer)
    assert g.state() == snap


def test_empty_commit_is_noop():
    g = HostGraph()
    g.add_node((1,))
    snap = g.state()
    t = g.begin_scope()
    g.commit_scope(t)
    assert g.state() == snap


def test_base_frame_keeps_no_entries():
    # Nothing rolls the base frame back, so it keeps neither a mutation
    # made while it is alone nor the entries of a scope committed into it.
    g = HostGraph()
    a = g.add_node((1,), "red", True)
    t = g.begin_scope()
    g.set_label(a, (2,))
    g.add_edge(a, g.add_node((3,)))
    assert len(g._frames[-1][0]) == 3
    g.commit_scope(t)
    g.set_mark(a, "blue")
    assert list(g._frames[0][0]) == []


def test_non_lifo_scope_use_faults():
    g = HostGraph()
    t1 = g.begin_scope()
    g.begin_scope()
    with pytest.raises(GraphError):
        g.commit_scope(t1)
    with pytest.raises(GraphError):
        g.rollback_scope(t1)


def test_roots_ascending_order():
    g = HostGraph()
    ids = [g.add_node((k,)) for k in range(5)]
    for nid in (ids[3], ids[0], ids[4]):
        g.set_root(nid, True)
    assert g.roots() == sorted([ids[3], ids[0], ids[4]])


def test_roots_by_recency():
    g = HostGraph()
    ids = [g.add_node((k,)) for k in range(3)]
    g.set_root(ids[1], True)
    g.set_root(ids[0], True)
    g.set_root(ids[2], True)
    assert g.roots_by_recency() == [ids[2], ids[0], ids[1]]


def test_rollback_restores_unrooted_root_to_its_recency_place():
    g = HostGraph()
    a = g.add_node((1,), rooted=True)
    b = g.add_node((2,), rooted=True)
    t = g.begin_scope()
    g.set_root(a, False)
    g.rollback_scope(t)
    assert g.roots_by_recency() == [b, a]
    g.check_registries()


def test_remarked_root_is_filed_by_its_rooting_time():
    g = HostGraph()
    a = g.add_node((1,), "grey", rooted=True)
    b = g.add_node((2,), "red", rooted=True)
    t = g.begin_scope()
    g.set_mark(a, "red")
    assert list(reversed(g._roots["red"])) == [b, a]
    assert not g._roots["grey"]
    g.check_registries()
    g.rollback_scope(t)
    assert list(g._roots["grey"]) == [a]
    assert list(g._roots["red"]) == [b]
    assert g.roots_by_recency() == [b, a]
    g.check_registries()


def test_clone_is_independent():
    g = HostGraph()
    a = g.add_node((1,), "grey", rooted=True)
    b = g.add_node((2,))
    g.add_edge(a, b)
    h = g.clone()
    assert h.state() == g.state()
    h.set_label(a, (9,))
    h.delete_edge(0)
    assert g.nodes[a].label == (1,)
    assert 0 in g.edges


def _random_mutation(g, rng, created_nodes):
    kind = rng.randrange(8)
    if kind == 0 or not created_nodes:
        created_nodes.append(g.add_node((rng.randrange(10),),
                                        rng.choice(["none", "grey", "red", "green"]),
                                        rng.random() < 0.3))
        return
    nid = rng.choice(created_nodes)
    if nid not in g.nodes:
        created_nodes.append(g.add_node((rng.randrange(10),)))
        return
    if kind == 1:
        other = rng.choice(created_nodes)
        if other in g.nodes:
            g.add_edge(nid, other, (), rng.choice(["none", "dashed", "red"]))
    elif kind == 2:
        if g.edges:
            g.delete_edge(rng.choice(sorted(g.edges)))
    elif kind == 3:
        if not g.out_adj[nid] and not g.in_adj[nid]:
            g.delete_node(nid)
    elif kind == 4:
        g.set_label(nid, (rng.randrange(10), "x"))
    elif kind == 5:
        g.set_mark(nid, rng.choice(["none", "grey", "red", "blue"]))
    elif kind == 6:
        g.set_root(nid, rng.random() < 0.5)
    else:
        if g.edges:
            g.set_edge_label(rng.choice(sorted(g.edges)), (rng.randrange(5),))


def test_journal_soundness_random_sequences():
    # Random mutations with arbitrarily interleaved scopes: every rollback
    # must restore the exact state taken at scope open, registries and
    # allocator positions included.
    rng = random.Random(20240811)
    g = HostGraph()
    created = []
    open_scopes = []  # (token, snapshot)
    mutations = 0
    while mutations < 12_000:
        r = rng.random()
        if r < 0.08:
            open_scopes.append((g.begin_scope(), g.state()))
        elif r < 0.16 and open_scopes:
            token, snap = open_scopes.pop()
            if rng.random() < 0.5:
                g.rollback_scope(token)
                assert g.state() == snap
            else:
                g.commit_scope(token)
        else:
            _random_mutation(g, rng, created)
            mutations += 1
        if mutations % 500 == 0:
            g.check_registries()
    while open_scopes:
        token, snap = open_scopes.pop()
        g.rollback_scope(token)
        assert g.state() == snap
    g.check_registries()


def test_registry_coherence_small_sequences():
    rng = random.Random(7)
    for _ in range(50):
        g = HostGraph()
        created = []
        for _ in range(60):
            _random_mutation(g, rng, created)
            g.check_registries()


# One step of the journal fuzzer: (operation, two node or edge picks, a
# small value).  Picks index into the sorted live ids, so every step is
# meaningful whatever came before it.  Rooting, unrooting and scopes are
# drawn more often than the other operations: a rollback that brings an
# older root back needs all three.
_OPS = (0, 1, 2, 3, 4, 5, 6, 6, 7, 7, 8, 8, 9, 9)
_STEP = st.tuples(st.sampled_from(_OPS), st.integers(0, 63),
                  st.integers(0, 63), st.integers(0, 4))


def _by_recency(g):
    roots = [nid for nid, rec in g.nodes.items() if rec.rooted]
    return sorted(roots, key=lambda nid: -g.nodes[nid].root_seq)


def _check_recency(g):
    # Each mark's registry, read most recent first, is the recency order
    # of all roots filtered to that mark; merged, they are all roots.
    expect = _by_recency(g)
    for mark in NODE_MARKS:
        assert list(reversed(g._roots[mark])) == [
            nid for nid in expect if g.nodes[nid].mark == mark]
    assert g.roots_by_recency() == expect


@settings(max_examples=300, deadline=None)
@given(st.lists(_STEP, min_size=20, max_size=100))
def test_journal_and_registries_fuzz(steps):
    # Random mutations inside random nested scopes, each committed or
    # rolled back; the registries must stay exact, the root registry in
    # rooting order, and every rollback must restore the state at open.
    g = HostGraph()
    scopes = []  # (token, state at open)
    for op, i, j, v in steps:
        nodes = sorted(g.nodes)
        edges = sorted(g.edges)
        if op == 0 or (not nodes and op < 8):
            g.add_node((v,), NODE_MARKS[v], rooted=i % 2 == 0)
        elif op == 1:
            nid = nodes[i % len(nodes)]
            if not g.out_adj[nid] and not g.in_adj[nid]:
                g.delete_node(nid)
        elif op == 2:
            g.add_edge(nodes[i % len(nodes)], nodes[j % len(nodes)], (v,))
        elif op == 3:
            if edges:
                g.delete_edge(edges[i % len(edges)])
        elif op == 4:
            g.set_label(nodes[i % len(nodes)], (v, "x"))
        elif op == 5:
            g.set_mark(nodes[i % len(nodes)], NODE_MARKS[v])
        elif op == 6:
            g.set_root(nodes[i % len(nodes)], True)
        elif op == 7:
            g.set_root(nodes[i % len(nodes)], False)
        elif op == 8:
            scopes.append((g.begin_scope(), g.state()))
        elif scopes:
            token, snap = scopes.pop()
            if v % 2:
                g.commit_scope(token)
            else:
                g.rollback_scope(token)
                assert g.state() == snap
        g.check_registries()
        _check_recency(g)
    while scopes:
        token, snap = scopes.pop()
        g.rollback_scope(token)
        assert g.state() == snap
        g.check_registries()
        _check_recency(g)


def test_check_registries_rejects_shared_edge_records():
    g = HostGraph()
    a = g.add_node((1,))
    b = g.add_node((2,))
    e1 = g.add_edge(a, b)
    e2 = g.add_edge(b, a)
    g.check_registries()
    g.edges[e2] = g.edges[e1]
    g.edges[e2].src, g.edges[e2].tgt = a, b
    g.out_adj[b].remove(e2)
    g.out_adj[a].append(e2)
    g.in_adj[a].remove(e2)
    g.in_adj[b].append(e2)
    with pytest.raises(GraphError, match="edge records shared"):
        g.check_registries()
