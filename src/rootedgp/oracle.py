"""Reference binary search tree; ground truth for differential tests.

Keys are distinct integers.  Deletion of a two-child node replaces its
key with the maximum key of its left subtree (the in-order predecessor)
and then deletes that replacement node, which has at most a left child.
Duplicate inserts are no-ops.  Trees export as nested tuples
(key, left, right) with None for the empty tree, the same shape the
engine-side tree readback produces.
"""
from __future__ import annotations

import random
from typing import Optional

from .text import Op

CONSTRAINTS = ("sanitized-safe", "faithful-safe", "unrestricted")


class _Node:
    __slots__ = ("key", "left", "right")

    def __init__(self, key):
        self.key = key
        self.left = None
        self.right = None


class OracleTree:
    def __init__(self):
        self._top: Optional[_Node] = None
        self.size = 0

    def insert(self, key: int) -> bool:
        if self._top is None:
            self._top = _Node(key)
            self.size += 1
            return True
        node = self._top
        while True:
            if key == node.key:
                return False
            if key < node.key:
                if node.left is None:
                    node.left = _Node(key)
                    self.size += 1
                    return True
                node = node.left
            else:
                if node.right is None:
                    node.right = _Node(key)
                    self.size += 1
                    return True
                node = node.right

    def search(self, key: int) -> bool:
        node = self._top
        while node is not None:
            if key == node.key:
                return True
            node = node.left if key < node.key else node.right
        return False

    def delete(self, key: int) -> bool:
        parent = None
        node = self._top
        while node is not None and node.key != key:
            parent = node
            node = node.left if key < node.key else node.right
        if node is None:
            return False
        if node.left is not None and node.right is not None:
            # Two children: take the largest key in the left subtree,
            # then delete that node (it has no right child).
            rparent = node
            repl = node.left
            while repl.right is not None:
                rparent = repl
                repl = repl.right
            node.key = repl.key
            parent, node = rparent, repl
        child = node.left if node.left is not None else node.right
        if parent is None:
            self._top = child
        elif parent.left is node:
            parent.left = child
        else:
            parent.right = child
        self.size -= 1
        return True

    def as_tuple(self):
        # Post-order with an explicit stack: chains may be deeper than
        # the interpreter's recursion limit.
        built = []
        stack = [(self._top, False)]
        while stack:
            node, children_built = stack.pop()
            if node is None:
                built.append(None)
            elif children_built:
                right = built.pop()
                left = built.pop()
                built.append((node.key, left, right))
            else:
                stack += ((node, True), (node.right, False), (node.left, False))
        return built[0]

    def keys_inorder(self) -> list:
        out = []
        stack = []
        node = self._top
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            out.append(node.key)
            node = node.right
        return out

    def check_order(self) -> None:
        ks = self.keys_inorder()
        for a, b in zip(ks, ks[1:]):
            if a >= b:
                raise AssertionError(f"order violated: {a} before {b}")


def o_apply(ops):
    """Fold an op script; returns (tree, per-op boolean outcomes).

    The outcome of an insert is "inserted", of a search "found", of a
    delete "deleted"."""
    tree = OracleTree()
    outcomes = []
    for op in ops:
        if op.kind == "i":
            outcomes.append(tree.insert(op.key))
        elif op.kind == "s":
            outcomes.append(tree.search(op.key))
        else:
            outcomes.append(tree.delete(op.key))
    return tree.as_tuple(), outcomes


def gen_workload(seed: int, size: int, constraints: str = "sanitized-safe",
                 key_lo: int = 0, key_hi: int = 10_000) -> list:
    """Deterministic op script of the given size.

    sanitized-safe: deletes target currently present keys, and searches
    happen only while the tree is non-empty (a search on an empty tree
    legitimately ends the whole instruction list, which would desync the
    comparison against the oracle).

    faithful-safe: additionally inserts only fresh keys, deleted keys are
    never reused, and at most one search is emitted, as the last op.
    """
    if constraints not in CONSTRAINTS:
        raise ValueError(f"unknown constraints {constraints!r}")
    if size < 1:
        raise ValueError("workload size must be at least 1")
    rng = random.Random(seed)
    present: list = []
    present_set: set = set()
    retired: set = set()
    ops = []

    def fresh_key():
        for _ in range(10_000):
            k = rng.randint(key_lo, key_hi)
            if k not in present_set and k not in retired:
                return k
        raise ValueError("key space exhausted; widen the key range")

    def do_insert(k):
        if k not in present_set:
            present_set.add(k)
            present.append(k)
        ops.append(Op("i", k))

    def do_delete():
        k = present[rng.randrange(len(present))]
        present.remove(k)
        present_set.discard(k)
        retired.add(k)
        ops.append(Op("d", k))

    if constraints == "unrestricted":
        for _ in range(size):
            r = rng.random()
            if r < 0.5 or not present:
                do_insert(rng.randint(key_lo, key_hi))
            elif r < 0.75:
                ops.append(Op("s", rng.randint(key_lo, key_hi)))
            else:
                if rng.random() < 0.8:
                    do_delete()
                else:
                    ops.append(Op("d", rng.randint(key_lo, key_hi)))
        return ops

    if constraints == "sanitized-safe":
        do_insert(rng.randint(key_lo, key_hi))
        while len(ops) < size:
            r = rng.random()
            if r < 0.45 or not present:
                # Duplicate inserts are fair game in sanitized mode.
                if present and rng.random() < 0.2:
                    do_insert(present[rng.randrange(len(present))])
                else:
                    do_insert(rng.randint(key_lo, key_hi))
            elif r < 0.75:
                if rng.random() < 0.7:
                    ops.append(Op("s", present[rng.randrange(len(present))]))
                else:
                    ops.append(Op("s", fresh_key()))
            else:
                do_delete()
        _check_workload(ops, constraints)
        return ops

    # faithful-safe
    do_insert(fresh_key())
    budget = size - 1
    want_search = budget > 0 and rng.random() < 0.8
    if want_search:
        budget -= 1
    for _ in range(budget):
        if present and rng.random() < 0.35:
            do_delete()
        else:
            do_insert(fresh_key())
    if want_search:
        if present and rng.random() < 0.7:
            ops.append(Op("s", present[rng.randrange(len(present))]))
        else:
            ops.append(Op("s", fresh_key()))
    _check_workload(ops, constraints)
    return ops


def _check_workload(ops, constraints: str) -> None:
    """Machine-check the advertised constraints by replay."""
    tree = OracleTree()
    seen_insert_keys = set()
    searches = 0
    for i, op in enumerate(ops):
        if op.kind == "i":
            if constraints == "faithful-safe":
                assert op.key not in seen_insert_keys, f"op {i}: reused insert key"
            seen_insert_keys.add(op.key)
            tree.insert(op.key)
        elif op.kind == "s":
            searches += 1
            assert tree.size > 0, f"op {i}: search on empty tree"
            if constraints == "faithful-safe":
                assert i == len(ops) - 1, f"op {i}: search not last"
        else:
            assert tree.search(op.key), f"op {i}: delete of absent key"
            tree.delete(op.key)
            if constraints == "faithful-safe":
                # Never searched or re-inserted later.
                for later in ops[i + 1:]:
                    assert not (later.kind in ("i", "s") and later.key == op.key), \
                        f"op {i}: deleted key reused later"
    if constraints == "faithful-safe":
        assert searches <= 1
