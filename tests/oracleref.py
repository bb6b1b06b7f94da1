"""Test support: the workload generator as it was before its random draws
were inlined, drawing through random.Random.randint and randrange, with
two amendments made to both: a faithful-safe search due last on an
emptied tree becomes a fresh insert, and asking for a fresh key raises at
once, drawing nothing, when every key of the range has been inserted.
oracle.gen_workload must give the same script for every input, or raise
the same kind of error."""
from __future__ import annotations

import random

from rootedgp.oracle import CONSTRAINTS, _check_workload
from rootedgp.text import Op


def reference_gen_workload(seed: int, size: int, constraints: str = "sanitized-safe",
                           key_lo: int = 0, key_hi: int = 10_000) -> list:
    """Deterministic op script of the given size.

    sanitized-safe: deletes target currently present keys, and searches
    happen only while the tree is non-empty (a search on an empty tree
    legitimately ends the whole instruction list, which would desync the
    comparison against the oracle).

    faithful-safe: additionally inserts only fresh keys, deleted keys are
    never reused, and at most one search is emitted, as the last op; if
    the tree is empty by then, the last op is a fresh insert instead.
    """
    if constraints not in CONSTRAINTS:
        raise ValueError(f"unknown constraints {constraints!r}")
    if size < 1:
        raise ValueError("workload size must be at least 1")
    rng = random.Random(seed)
    span = key_hi - key_lo + 1
    present: list = []
    present_set: set = set()
    used: set = set()          # every key inserted so far, deleted or not
    ops = []

    def fresh_key():
        if len(used) == span:
            raise ValueError("key space exhausted; widen the key range")
        for _ in range(10_000):
            k = rng.randint(key_lo, key_hi)
            if k not in used:
                return k
        raise ValueError("key space exhausted; widen the key range")

    def do_insert(k):
        if k not in present_set:
            present_set.add(k)
            present.append(k)
            used.add(k)
        ops.append(Op("i", k))

    def do_delete():
        k = present[rng.randrange(len(present))]
        present.remove(k)
        present_set.discard(k)
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
        if not present:
            do_insert(fresh_key())
        elif rng.random() < 0.7:
            ops.append(Op("s", present[rng.randrange(len(present))]))
        else:
            ops.append(Op("s", fresh_key()))
    _check_workload(ops, constraints)
    return ops
