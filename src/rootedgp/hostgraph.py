"""Mutable host graph with marks, root registry, degree bookkeeping, and
scoped rollback.

Every mutation appends an entry `(kind, *fields)` to the journal of the
innermost open scope.  The table UNDO defines the journal: it maps each
kind to the raw store update that reverts the change, which takes the
entry's fields and returns whether it may have filed a root out of
rooting order.

    kind  change           fields                         undo (_raw_...)
    "+n"  node added       nid                            remove_node
    "-n"  node deleted     nid, label, mark, rooted, seq  insert_node
    "+e"  edge added       eid                            remove_edge
    "-e"  edge deleted     eid, src, tgt, label, mark     insert_edge
    "lb"  node relabelled  nid, old label                 set_label
    "el"  edge relabelled  eid, old label                 set_edge_label
    "mk"  node remarked    nid, old mark                  set_mark
    "rt"  node (un)rooted  nid, old rooted, old seq       set_root

Kinds are strings, not functions, so the garbage collector can stop
tracking an entry.  Rolling a scope back runs its entries' undos in
reverse and rewinds the id allocators and the root-recency counter,
restoring the graph bit-identically: O(changes), not O(graph).  Scopes
nest strictly (LIFO); committing a scope appends its journal to the
parent's, so an enclosing rollback still undoes the committed work.  The
base frame is never rolled back; its journal, a deque of length 0, keeps
nothing.

Adjacency lists are kept in ascending edge id.  A new edge's id is always
the largest in the graph, because a rollback rewinds the edge allocator
together with removing the edges made after it, so a new edge is appended;
only an edge that a rollback restores is inserted in order.

Roots are filed by mark, as in GP 2: one registry per node mark, each
kept in rooting order, least recently rooted first, so a rooted anchor
with a concrete mark reads only the roots that can pass its mark test,
most recent first, without sorting.  A new root always has the highest
root sequence number and goes to the end of its mark's registry.  Only a
rollback, or remarking a rooted node, can file a root behind a newer one,
so remarking a root, and a rollback that restores or remarks one, rebuild
the registries in rooting order.
"""
from __future__ import annotations

from bisect import insort
from collections import deque
from heapq import merge

from .errors import GraphError
from .labels import format_label

NODE_MARKS = ("none", "red", "green", "blue", "grey")
EDGE_MARKS = ("none", "red", "green", "blue", "dashed")


class NodeRec:
    __slots__ = ("label", "mark", "rooted", "root_seq")

    def __init__(self, label, mark, rooted, root_seq=0):
        self.label = label
        self.mark = mark
        self.rooted = rooted
        self.root_seq = root_seq

    def __repr__(self):
        r = "(R)" if self.rooted else ""
        return f"<node{r} {format_label(self.label)} #{self.mark}>"


class EdgeRec:
    __slots__ = ("src", "tgt", "label", "mark")

    def __init__(self, src, tgt, label, mark):
        self.src = src
        self.tgt = tgt
        self.label = label
        self.mark = mark

    def __repr__(self):
        return f"<edge {self.src}->{self.tgt} {format_label(self.label)} #{self.mark}>"


class HostGraph:
    __slots__ = (
        "nodes", "edges", "out_adj", "in_adj",
        "_roots", "_by_mark", "_next_node", "_next_edge", "_root_seq",
        "_frames",
    )

    def __init__(self):
        self.nodes: dict = {}
        self.edges: dict = {}
        self.out_adj: dict = {}
        self.in_adj: dict = {}
        # mark -> rooted ids with that mark, least recently rooted first
        self._roots: dict = {m: {} for m in NODE_MARKS}
        self._by_mark: dict = {m: set() for m in NODE_MARKS if m != "none"}
        self._next_node = 0
        self._next_edge = 0
        self._root_seq = 0
        # (entries, next node, next edge, root seq) per open scope; the
        # base frame, never rolled back, keeps no entries.
        self._frames: list = [(deque(maxlen=0), 0, 0, 0)]

    # -- journaling --------------------------------------------------------

    def begin_scope(self) -> int:
        token = len(self._frames)
        self._frames.append(([], self._next_node, self._next_edge, self._root_seq))
        return token

    def commit_scope(self, token: int) -> None:
        if token != len(self._frames) - 1 or token < 1:
            raise GraphError(f"non-LIFO commit of scope {token}")
        entries, _, _, _ = self._frames.pop()
        self._frames[-1][0].extend(entries)

    def rollback_scope(self, token: int) -> None:
        if token != len(self._frames) - 1 or token < 1:
            raise GraphError(f"non-LIFO rollback of scope {token}")
        entries, nn, ne, rs = self._frames.pop()
        refile = False
        for e in reversed(entries):
            refile = UNDO[e[0]](self, *e[1:]) or refile
        if refile:
            self._refile_roots()
        self._next_node = nn
        self._next_edge = ne
        self._root_seq = rs

    # -- raw store updates (no journaling) ----------------------------------

    def _raw_insert_node(self, nid, label, mark, rooted, seq) -> bool:
        self.nodes[nid] = NodeRec(label, mark, rooted, seq)
        self.out_adj[nid] = []
        self.in_adj[nid] = []
        if rooted:
            self._roots[mark][nid] = None
        if mark != "none":
            self._by_mark[mark].add(nid)
        return rooted

    def _raw_remove_node(self, nid) -> None:
        rec = self.nodes.pop(nid)
        del self.out_adj[nid]
        del self.in_adj[nid]
        if rec.rooted:
            del self._roots[rec.mark][nid]
        if rec.mark != "none":
            self._by_mark[rec.mark].discard(nid)

    def _raw_insert_edge(self, eid, src, tgt, label, mark) -> None:
        self.edges[eid] = EdgeRec(src, tgt, label, mark)
        insort(self.out_adj[src], eid)
        insort(self.in_adj[tgt], eid)

    def _raw_remove_edge(self, eid) -> None:
        rec = self.edges.pop(eid)
        self.out_adj[rec.src].remove(eid)
        self.in_adj[rec.tgt].remove(eid)

    def _raw_set_label(self, nid, label) -> None:
        self.nodes[nid].label = label

    def _raw_set_edge_label(self, eid, label) -> None:
        self.edges[eid].label = label

    def _raw_set_mark(self, nid, mark) -> bool:
        rec = self.nodes[nid]
        if rec.mark == mark:
            return False
        if rec.mark != "none":
            self._by_mark[rec.mark].discard(nid)
        if rec.rooted:
            del self._roots[rec.mark][nid]
            self._roots[mark][nid] = None
        rec.mark = mark
        if mark != "none":
            self._by_mark[mark].add(nid)
        # A remarked root keeps its rooting time, so it may be older than
        # roots already filed under its new mark.
        return rec.rooted

    def _raw_set_root(self, nid, rooted, seq) -> bool:
        rec = self.nodes[nid]
        rec.rooted = rooted
        rec.root_seq = seq
        if rooted:
            self._roots[rec.mark][nid] = None
        else:
            del self._roots[rec.mark][nid]
        return rooted

    def _refile_roots(self) -> None:
        """Rebuild the per-mark root registries in rooting order, reading
        each root's mark and sequence number from the node store."""
        nodes = self.nodes
        roots = [nid for reg in self._roots.values() for nid in reg]
        roots.sort(key=lambda nid: nodes[nid].root_seq)
        self._roots = {m: {} for m in NODE_MARKS}
        for nid in roots:
            self._roots[nodes[nid].mark][nid] = None

    # -- mutations ----------------------------------------------------------

    def _node(self, nid) -> NodeRec:
        rec = self.nodes.get(nid)
        if rec is None:
            raise GraphError(f"no such node: {nid}")
        return rec

    def add_node(self, label=(), mark="none", rooted=False) -> int:
        if mark not in NODE_MARKS:
            raise GraphError(f"invalid node mark {mark!r}")
        nid = self._next_node
        self._next_node += 1
        seq = 0
        if rooted:
            self._root_seq += 1
            seq = self._root_seq
        self._raw_insert_node(nid, tuple(label), mark, rooted, seq)
        self._frames[-1][0].append(("+n", nid))
        return nid

    def delete_node(self, nid) -> None:
        rec = self._node(nid)
        if self.out_adj[nid] or self.in_adj[nid]:
            raise GraphError(f"node {nid} still has incident edges")
        self._frames[-1][0].append(("-n", nid, rec.label, rec.mark, rec.rooted, rec.root_seq))
        self._raw_remove_node(nid)

    def add_edge(self, src, tgt, label=(), mark="none") -> int:
        if src not in self.nodes or tgt not in self.nodes:
            raise GraphError(f"edge endpoint missing: {src}->{tgt}")
        if mark not in EDGE_MARKS:
            raise GraphError(f"invalid edge mark {mark!r}")
        eid = self._next_edge
        self._next_edge += 1
        self.edges[eid] = EdgeRec(src, tgt, tuple(label), mark)
        self.out_adj[src].append(eid)
        self.in_adj[tgt].append(eid)
        self._frames[-1][0].append(("+e", eid))
        return eid

    def delete_edge(self, eid) -> None:
        rec = self.edges.get(eid)
        if rec is None:
            raise GraphError(f"no such edge: {eid}")
        self._frames[-1][0].append(("-e", eid, rec.src, rec.tgt, rec.label, rec.mark))
        self._raw_remove_edge(eid)

    def set_label(self, nid, label) -> None:
        rec = self._node(nid)
        self._frames[-1][0].append(("lb", nid, rec.label))
        self._raw_set_label(nid, tuple(label))

    def set_edge_label(self, eid, label) -> None:
        rec = self.edges.get(eid)
        if rec is None:
            raise GraphError(f"no such edge: {eid}")
        self._frames[-1][0].append(("el", eid, rec.label))
        self._raw_set_edge_label(eid, tuple(label))

    def set_mark(self, nid, mark) -> None:
        rec = self._node(nid)
        if mark not in NODE_MARKS:
            raise GraphError(f"invalid node mark {mark!r}")
        self._frames[-1][0].append(("mk", nid, rec.mark))
        if self._raw_set_mark(nid, mark):
            self._refile_roots()

    def set_root(self, nid, rooted: bool) -> None:
        rec = self._node(nid)
        if rec.rooted == rooted:
            return
        self._frames[-1][0].append(("rt", nid, rec.rooted, rec.root_seq))
        seq = 0
        if rooted:
            self._root_seq += 1
            seq = self._root_seq
        self._raw_set_root(nid, rooted, seq)

    # -- queries ------------------------------------------------------------

    def roots(self) -> list:
        """Rooted node ids in ascending order."""
        return sorted(nid for reg in self._roots.values() for nid in reg)

    def roots_by_recency(self) -> list:
        """Rooted node ids, most recently rooted first."""
        nodes = self.nodes
        return list(merge(*(reversed(reg) for reg in self._roots.values()),
                          key=lambda nid: nodes[nid].root_seq, reverse=True))

    def nodes_with_mark(self, mark) -> list:
        return sorted(self._by_mark[mark])

    def outdeg(self, nid) -> int:
        try:
            return len(self.out_adj[nid])
        except KeyError:
            raise GraphError(f"no such node: {nid}") from None

    def indeg(self, nid) -> int:
        try:
            return len(self.in_adj[nid])
        except KeyError:
            raise GraphError(f"no such node: {nid}") from None

    def node_ids(self) -> list:
        return sorted(self.nodes)

    def edge_ids(self) -> list:
        return sorted(self.edges)

    # -- copying and comparison ----------------------------------------------

    def clone(self) -> "HostGraph":
        """Deep copy with a fresh journal; labels are shared (immutable)."""
        g = HostGraph()
        for nid, rec in self.nodes.items():
            g.nodes[nid] = NodeRec(rec.label, rec.mark, rec.rooted, rec.root_seq)
        for eid, rec in self.edges.items():
            g.edges[eid] = EdgeRec(rec.src, rec.tgt, rec.label, rec.mark)
        g.out_adj = {nid: list(adj) for nid, adj in self.out_adj.items()}
        g.in_adj = {nid: list(adj) for nid, adj in self.in_adj.items()}
        g._roots = {m: dict(reg) for m, reg in self._roots.items()}
        g._by_mark = {m: set(s) for m, s in self._by_mark.items()}
        g._next_node = self._next_node
        g._next_edge = self._next_edge
        g._root_seq = self._root_seq
        return g

    def state(self) -> tuple:
        """Comparable snapshot of the full graph state, registries included."""
        return (
            {nid: (rec.label, rec.mark, rec.rooted, rec.root_seq)
             for nid, rec in self.nodes.items()},
            {eid: (rec.src, rec.tgt, rec.label, rec.mark)
             for eid, rec in self.edges.items()},
            self._next_node,
            self._next_edge,
            self._root_seq,
        )

    def check_registries(self) -> None:
        """Recompute root registries, mark index, and adjacency from the
        stores; raise GraphError on any divergence, if a root registry is
        not in rooting order, or if two edges share one record (a rewrite
        hands the record of an edge it deletes to an edge it creates).
        Test support."""
        if len({id(rec) for rec in self.edges.values()}) != len(self.edges):
            raise GraphError("edge records shared")
        for mark, reg in self._roots.items():
            roots = {nid for nid, rec in self.nodes.items()
                     if rec.rooted and rec.mark == mark}
            if roots != reg.keys():
                raise GraphError(f"root registry out of sync for {mark}")
            seqs = [self.nodes[nid].root_seq for nid in reg]
            if seqs != sorted(seqs):
                raise GraphError(f"root registry out of rooting order for {mark}")
        for mark, members in self._by_mark.items():
            expect = {nid for nid, rec in self.nodes.items() if rec.mark == mark}
            if expect != members:
                raise GraphError(f"mark index out of sync for {mark}")
        out = {nid: [] for nid in self.nodes}
        inn = {nid: [] for nid in self.nodes}
        for eid in sorted(self.edges):
            rec = self.edges[eid]
            out[rec.src].append(eid)
            inn[rec.tgt].append(eid)
        if out != self.out_adj or inn != self.in_adj:
            raise GraphError("adjacency out of sync")

    def __repr__(self):
        return f"<HostGraph {len(self.nodes)} nodes, {len(self.edges)} edges>"


# Journal entry kind -> its undo; the module docstring lists the fields.
UNDO = {"+n": HostGraph._raw_remove_node, "-n": HostGraph._raw_insert_node,
        "+e": HostGraph._raw_remove_edge, "-e": HostGraph._raw_insert_edge,
        "lb": HostGraph._raw_set_label, "el": HostGraph._raw_set_edge_label,
        "mk": HostGraph._raw_set_mark, "rt": HostGraph._raw_set_root}
