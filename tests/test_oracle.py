import random

import pytest

from oracleref import reference_gen_workload
from rootedgp import oracle
from rootedgp.oracle import CONSTRAINTS, OracleTree, gen_workload, o_apply
from rootedgp.text import Op

SIX_KEYS = [5, 2, 7, 1, 4, 8]
SIX_TREE = (5, (2, (1, None, None), (4, None, None)), (7, None, (8, None, None)))


def build(keys):
    t = OracleTree()
    for k in keys:
        t.insert(k)
    return t


class TestInsert:
    def test_six_key_example(self):
        assert build(SIX_KEYS).as_tuple() == SIX_TREE

    def test_duplicate_is_noop(self):
        t = build(SIX_KEYS)
        assert t.insert(5) is False
        assert t.as_tuple() == SIX_TREE

    def test_insert_3_lands_left_of_4(self):
        # descent 5 -> 2 -> 4 -> left slot
        t = build(SIX_KEYS)
        assert t.insert(3) is True
        assert t.as_tuple()[1][2] == (4, (3, None, None), None)
        t.check_order()


class TestSearch:
    def test_present(self):
        assert build(SIX_KEYS).search(4) is True

    def test_absent_dead_end(self):
        # descent 5 -> 7 -> no left child
        assert build(SIX_KEYS).search(6) is False

    def test_empty(self):
        assert OracleTree().search(1) is False


class TestDelete:
    def test_leaf(self):
        t = build(SIX_KEYS)
        assert t.delete(8) is True
        assert t.as_tuple()[2] == (7, None, None)

    def test_one_child_splices(self):
        t = build(SIX_KEYS)
        assert t.delete(7) is True
        assert t.as_tuple()[2] == (8, None, None)

    def test_two_children_uses_left_subtree_max(self):
        t = build(SIX_KEYS)
        assert t.delete(5) is True
        assert t.as_tuple() == (4, (2, (1, None, None), None), (7, None, (8, None, None)))

    def test_absent_unchanged(self):
        t = build(SIX_KEYS)
        assert t.delete(6) is False
        assert t.as_tuple() == SIX_TREE


class TestApply:
    def test_fold_with_outcomes(self):
        ops = [Op("i", 5), Op("i", 5), Op("s", 5), Op("s", 9), Op("d", 5), Op("d", 5)]
        tree, outcomes = o_apply(ops)
        assert tree is None
        assert outcomes == [True, False, True, False, True, False]

    def test_empty_script(self):
        assert o_apply([]) == (None, [])

    def test_order_invariant_after_every_op(self):
        rng = random.Random(3)
        t = OracleTree()
        for _ in range(500):
            r = rng.random()
            k = rng.randint(0, 50)
            if r < 0.5:
                t.insert(k)
            elif r < 0.7:
                t.search(k)
            else:
                t.delete(k)
            t.check_order()

    def test_search_agrees_with_membership(self):
        rng = random.Random(4)
        t = OracleTree()
        for _ in range(300):
            k = rng.randint(0, 40)
            if rng.random() < 0.6:
                t.insert(k)
            else:
                t.delete(k)
            keys = set(t.keys_inorder())
            for probe in range(0, 41, 7):
                assert t.search(probe) == (probe in keys)

    def test_delete_cases_all_reachable(self):
        # leaf, one-child, and two-children deletions all occur in bulk
        rng = random.Random(11)
        cases = {"leaf": 0, "one": 0, "two": 0}
        for trial in range(60):
            t = OracleTree()
            keys = rng.sample(range(100), 20)
            for k in keys:
                t.insert(k)
            victim = rng.choice(keys)
            node = t._top
            while node.key != victim:
                node = node.left if victim < node.key else node.right
            n_kids = (node.left is not None) + (node.right is not None)
            cases[{0: "leaf", 1: "one", 2: "two"}[n_kids]] += 1
            t.delete(victim)
            t.check_order()
        assert all(v > 0 for v in cases.values())


class TestGenWorkload:
    def test_deterministic_by_seed(self):
        a = gen_workload(42, 50)
        b = gen_workload(42, 50)
        assert a == b
        assert a != gen_workload(43, 50)

    def test_sanitized_safe_constraints_hold(self):
        # gen_workload machine-checks internally; re-verify key facts here
        for seed in range(20):
            ops = gen_workload(seed, 80, "sanitized-safe")
            assert len(ops) == 80
            t = OracleTree()
            for op in ops:
                if op.kind == "i":
                    t.insert(op.key)
                elif op.kind == "s":
                    assert t.size > 0
                else:
                    assert t.delete(op.key) is True

    def test_faithful_safe_constraints_hold(self):
        for seed in range(20):
            ops = gen_workload(seed, 40, "faithful-safe")
            inserts = [op.key for op in ops if op.kind == "i"]
            assert len(inserts) == len(set(inserts)), "insert keys must be fresh"
            searches = [i for i, op in enumerate(ops) if op.kind == "s"]
            assert len(searches) <= 1
            if searches:
                assert searches[0] == len(ops) - 1

    def test_unrestricted_may_delete_absent(self):
        found = False
        for seed in range(50):
            ops = gen_workload(seed, 30, "unrestricted")
            t = OracleTree()
            for op in ops:
                if op.kind == "i":
                    t.insert(op.key)
                elif op.kind == "d":
                    if not t.search(op.key):
                        found = True
                    t.delete(op.key)
        assert found

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            gen_workload(1, 0)

    def test_bad_constraints_rejected(self):
        with pytest.raises(ValueError):
            gen_workload(1, 10, "loose")

    def test_empty_key_range_rejected(self):
        with pytest.raises(ValueError, match="empty key range"):
            gen_workload(1, 10, "unrestricted", key_lo=5, key_hi=4)

    def test_same_scripts_as_the_randint_reference(self):
        # 3 constraints x 4 sizes x 6 key ranges x 100 seeds = 7200 cases,
        # with narrow ranges that exhaust the keys and one that is empty.
        # Errors must match too, the replay check's assertions included.
        ranges = [(0, 0), (0, 1), (-3, 3), (0, 20), (0, 10_000), (5, 4)]
        cases = 0
        for constraints in CONSTRAINTS:
            for size in (1, 2, 17, 60):
                for key_lo, key_hi in ranges:
                    for seed in range(100):
                        args = (seed, size, constraints, key_lo, key_hi)
                        cases += 1
                        try:
                            want = reference_gen_workload(*args)
                        except (ValueError, AssertionError) as e:
                            with pytest.raises(type(e)) as got:
                                gen_workload(*args)
                            # An empty range is worded by randrange there.
                            if key_lo <= key_hi:
                                assert str(got.value) == str(e), args
                            continue
                        assert gen_workload(*args) == want, args
        assert cases == 7200

    def test_exhausted_key_range_raises_without_drawing(self, monkeypatch):
        # Every key of 0..20 is inserted within the first 21 fresh keys;
        # asking for one more draws nothing.
        draws = []
        real = oracle.random.Random

        class Counting(real):
            def getrandbits(self, k):
                draws.append(k)
                return super().getrandbits(k)

        monkeypatch.setattr(oracle.random, "Random", Counting)
        for seed in range(20):
            del draws[:]
            with pytest.raises(ValueError, match="key space exhausted"):
                gen_workload(seed, 60, "faithful-safe", 0, 20)
            assert len(draws) < 1000, seed

    def test_faithful_safe_never_searches_an_empty_tree(self):
        # Short scripts often delete every key before the final search,
        # which must then not search the empty tree.  Only an exhausted
        # key range may raise.
        for key_lo, key_hi in ((0, 20), (0, 10_000)):
            for size in range(1, 61):
                for seed in range(200):
                    try:
                        ops = gen_workload(seed, size, "faithful-safe", key_lo, key_hi)
                    except ValueError as e:
                        assert "key space exhausted" in str(e)
                        continue
                    assert len(ops) == size
