"""Mutable host graph with marks, root registry, degree bookkeeping, and
scoped rollback.

Every mutation made while a scope is open is appended to that scope's
journal as an inverse operation.  Rolling a scope back replays the journal
in reverse and rewinds the id allocators and the root-recency counter, so
the graph is restored bit-identically to its state at scope open.  Scopes
nest strictly (LIFO); committing a scope merges its journal into the parent
so an enclosing rollback still undoes the committed work.  The journal
holds inverse operations rather than snapshots: rollback costs O(changes),
not O(graph).
"""
from __future__ import annotations

from bisect import insort

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
        "_rootset", "_by_mark", "_next_node", "_next_edge", "_root_seq",
        "_frames",
    )

    def __init__(self):
        self.nodes: dict = {}
        self.edges: dict = {}
        self.out_adj: dict = {}
        self.in_adj: dict = {}
        self._rootset: set = set()
        self._by_mark: dict = {m: set() for m in NODE_MARKS if m != "none"}
        self._next_node = 0
        self._next_edge = 0
        self._root_seq = 0
        # frames[0] is the base frame; it is never rolled back and its
        # entries are discarded, so we skip journaling when it is alone.
        self._frames: list = [([], 0, 0, 0)]

    # -- journaling --------------------------------------------------------

    def _record(self, entry) -> None:
        if len(self._frames) > 1:
            self._frames[-1][0].append(entry)

    def begin_scope(self) -> int:
        token = len(self._frames)
        self._frames.append(([], self._next_node, self._next_edge, self._root_seq))
        return token

    def commit_scope(self, token: int) -> None:
        if token != len(self._frames) - 1 or token < 1:
            raise GraphError(f"non-LIFO commit of scope {token}")
        entries, _, _, _ = self._frames.pop()
        if len(self._frames) > 1:
            self._frames[-1][0].extend(entries)

    def rollback_scope(self, token: int) -> None:
        if token != len(self._frames) - 1 or token < 1:
            raise GraphError(f"non-LIFO rollback of scope {token}")
        entries, nn, ne, rs = self._frames.pop()
        for entry in reversed(entries):
            op = entry[0]
            if op == "+n":
                self._raw_remove_node(entry[1])
            elif op == "-n":
                _, nid, label, mark, rooted, seq = entry
                self._raw_insert_node(nid, label, mark, rooted, seq)
            elif op == "+e":
                self._raw_remove_edge(entry[1])
            elif op == "-e":
                _, eid, src, tgt, label, mark = entry
                self._raw_insert_edge(eid, src, tgt, label, mark)
            elif op == "lb":
                self.nodes[entry[1]].label = entry[2]
            elif op == "el":
                self.edges[entry[1]].label = entry[2]
            elif op == "mk":
                self._raw_set_mark(entry[1], entry[2])
            else:  # "rt"
                self._raw_set_root(entry[1], entry[2], entry[3])
        self._next_node = nn
        self._next_edge = ne
        self._root_seq = rs

    # -- raw store updates (no journaling) ----------------------------------

    def _raw_insert_node(self, nid, label, mark, rooted, seq) -> None:
        self.nodes[nid] = NodeRec(label, mark, rooted, seq)
        self.out_adj[nid] = []
        self.in_adj[nid] = []
        if rooted:
            self._rootset.add(nid)
        if mark != "none":
            self._by_mark[mark].add(nid)

    def _raw_remove_node(self, nid) -> None:
        rec = self.nodes.pop(nid)
        del self.out_adj[nid]
        del self.in_adj[nid]
        self._rootset.discard(nid)
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

    def _raw_set_mark(self, nid, mark) -> None:
        rec = self.nodes[nid]
        if rec.mark != "none":
            self._by_mark[rec.mark].discard(nid)
        rec.mark = mark
        if mark != "none":
            self._by_mark[mark].add(nid)

    def _raw_set_root(self, nid, rooted, seq) -> None:
        rec = self.nodes[nid]
        rec.rooted = rooted
        rec.root_seq = seq
        if rooted:
            self._rootset.add(nid)
        else:
            self._rootset.discard(nid)

    # -- mutations ----------------------------------------------------------

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
        self._record(("+n", nid))
        return nid

    def delete_node(self, nid) -> None:
        rec = self.nodes.get(nid)
        if rec is None:
            raise GraphError(f"no such node: {nid}")
        if self.out_adj[nid] or self.in_adj[nid]:
            raise GraphError(f"node {nid} still has incident edges")
        self._record(("-n", nid, rec.label, rec.mark, rec.rooted, rec.root_seq))
        self._raw_remove_node(nid)

    def add_edge(self, src, tgt, label=(), mark="none") -> int:
        if src not in self.nodes or tgt not in self.nodes:
            raise GraphError(f"edge endpoint missing: {src}->{tgt}")
        if mark not in EDGE_MARKS:
            raise GraphError(f"invalid edge mark {mark!r}")
        eid = self._next_edge
        self._next_edge += 1
        self._raw_insert_edge(eid, src, tgt, tuple(label), mark)
        self._record(("+e", eid))
        return eid

    def delete_edge(self, eid) -> None:
        rec = self.edges.get(eid)
        if rec is None:
            raise GraphError(f"no such edge: {eid}")
        self._record(("-e", eid, rec.src, rec.tgt, rec.label, rec.mark))
        self._raw_remove_edge(eid)

    def set_label(self, nid, label) -> None:
        rec = self.nodes.get(nid)
        if rec is None:
            raise GraphError(f"no such node: {nid}")
        self._record(("lb", nid, rec.label))
        rec.label = tuple(label)

    def set_edge_label(self, eid, label) -> None:
        rec = self.edges.get(eid)
        if rec is None:
            raise GraphError(f"no such edge: {eid}")
        self._record(("el", eid, rec.label))
        rec.label = tuple(label)

    def set_mark(self, nid, mark) -> None:
        rec = self.nodes.get(nid)
        if rec is None:
            raise GraphError(f"no such node: {nid}")
        if mark not in NODE_MARKS:
            raise GraphError(f"invalid node mark {mark!r}")
        self._record(("mk", nid, rec.mark))
        self._raw_set_mark(nid, mark)

    def set_root(self, nid, rooted: bool) -> None:
        rec = self.nodes.get(nid)
        if rec is None:
            raise GraphError(f"no such node: {nid}")
        if rec.rooted == rooted:
            return
        self._record(("rt", nid, rec.rooted, rec.root_seq))
        seq = 0
        if rooted:
            self._root_seq += 1
            seq = self._root_seq
        self._raw_set_root(nid, rooted, seq)

    # -- queries ------------------------------------------------------------

    def roots(self) -> list:
        """Rooted node ids in ascending order."""
        return sorted(self._rootset)

    def roots_by_recency(self) -> list:
        """Rooted node ids, most recently rooted first."""
        rs = self._rootset
        if len(rs) < 2:
            return list(rs)
        nodes = self.nodes
        return sorted(rs, key=lambda nid: -nodes[nid].root_seq)

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
        g._rootset = set(self._rootset)
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
        """Recompute roots, mark index, and adjacency from the stores; raise
        GraphError on any divergence.  Test support."""
        roots = {nid for nid, rec in self.nodes.items() if rec.rooted}
        if roots != self._rootset:
            raise GraphError("root registry out of sync")
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
