import pytest
from hypothesis import given, settings, strategies as st

from matchref import const_pattern, unify_label
from rootedgp.errors import ValidationError
from rootedgp.labels import (
    AndC, CmpC, DegT, IntT, LabelPattern, VarT, eval_cond, eval_pattern,
    format_label,
)


def lp(*items):
    return LabelPattern(items)


class TestUnify:
    def test_const_prefix_binds_int(self):
        # pattern "i":n against "i":5
        p = lp(("c", "i"), ("v", "n", "int"))
        assert unify_label(p, ("i", 5)) == {"n": 5}

    def test_char_and_int_slots(self):
        p = lp(("v", "o", "char"), ("v", "a", "int"))
        assert unify_label(p, ("d", 7)) == {"o": "d", "a": 7}

    def test_bound_conflict_is_mismatch(self):
        p = lp(("v", "o", "char"), ("v", "a", "int"))
        assert unify_label(p, ("i", 5), {"o": "s"}) is None

    def test_agreeing_partial_extends(self):
        p = lp(("v", "o", "char"), ("v", "a", "int"))
        assert unify_label(p, ("i", 5), {"o": "i"}) == {"o": "i", "a": 5}

    def test_length_mismatch(self):
        p = lp(("c", "i"), ("v", "n", "int"))
        assert unify_label(p, ("i", 5, 6)) is None
        assert unify_label(p, ("i",)) is None

    def test_int_var_rejects_string(self):
        p = lp(("v", "n", "int"))
        assert unify_label(p, ("x",)) is None

    def test_char_var_rejects_long_string(self):
        p = lp(("v", "o", "char"))
        assert unify_label(p, ("ab",)) is None
        assert unify_label(p, ("a",)) == {"o": "a"}

    def test_string_var_accepts_any_length(self):
        p = lp(("v", "s", "string"))
        assert unify_label(p, ("hello",)) == {"s": "hello"}
        assert unify_label(p, (5,)) is None

    def test_int_and_string_atoms_never_cross(self):
        assert unify_label(lp(("c", 1)), ("1",)) is None
        assert unify_label(lp(("c", "1")), (1,)) is None

    def test_list_var_takes_middle(self):
        p = lp(("c", "i"), ("v", "x", "list"), ("c", 9))
        assert unify_label(p, ("i", 1, 2, 9)) == {"x": (1, 2)}
        assert unify_label(p, ("i", 9)) == {"x": ()}

    def test_whole_label_list_var(self):
        p = lp(("v", "x", "list"))
        assert unify_label(p, ("s", 7)) == {"x": ("s", 7)}
        assert unify_label(p, ()) == {"x": ()}

    def test_two_list_vars_rejected(self):
        with pytest.raises(ValidationError):
            lp(("v", "x", "list"), ("v", "y", "list"))

    def test_empty_pattern_matches_only_empty(self):
        p = lp()
        assert unify_label(p, ()) == {}
        assert unify_label(p, (1,)) is None


class TestEval:
    def test_single_var(self):
        assert eval_pattern(lp(("v", "a", "int")), {"a": 8}) == (8,)

    def test_const_and_var(self):
        assert eval_pattern(lp(("c", "i"), ("v", "a", "int")), {"a": 3}) == ("i", 3)

    def test_list_flattens(self):
        assert eval_pattern(lp(("v", "y", "list")), {"y": ("s", 7)}) == ("s", 7)

    def test_const_only(self):
        assert eval_pattern(const_pattern(("i", 5)), {}) == ("i", 5)


class TestCond:
    def test_conjunction_true(self):
        c = AndC(CmpC(">", VarT("m"), VarT("n")), CmpC(">", VarT("x"), VarT("n")))
        assert eval_cond(c, {"m": 7, "n": 5, "x": 8}) is True

    def test_outdeg_query(self):
        c = CmpC("=", DegT("outdeg", 2), IntT(0))
        assert eval_cond(c, {}, lambda fn, pid: {("outdeg", 2): 0}[(fn, pid)]) is True

    def test_conjunction_false(self):
        c = AndC(CmpC("<", VarT("m"), VarT("n")), CmpC("<", VarT("x"), VarT("n")))
        assert eval_cond(c, {"m": 7, "n": 5, "x": 3}) is False

    def test_non_int_binding_fails_comparison(self):
        c = CmpC(">", VarT("a"), IntT(0))
        assert eval_cond(c, {"a": "s"}) is False


# Atoms for the round-trip property; ints and short strings.
_atoms = st.one_of(st.integers(-100, 100), st.text("abcxyz", min_size=1, max_size=3))


@st.composite
def pattern_and_assignment(draw):
    items = []
    assignment = {}
    used_list = False
    for i in range(draw(st.integers(0, 4))):
        choice = draw(st.integers(0, 3))
        if choice == 0:
            items.append(("c", draw(_atoms)))
            continue
        name = f"v{i}"
        if choice == 1:
            items.append(("v", name, "int"))
            assignment[name] = draw(st.integers(-50, 50))
        elif choice == 2:
            items.append(("v", name, "atom"))
            assignment[name] = draw(_atoms)
        elif not used_list:
            used_list = True
            items.append(("v", name, "list"))
            assignment[name] = tuple(draw(st.lists(_atoms, max_size=3)))
        else:
            items.append(("v", name, "char"))
            assignment[name] = draw(st.text("pqr", min_size=1, max_size=1))
    return LabelPattern(items), assignment


@settings(max_examples=300, deadline=None)
@given(pattern_and_assignment())
def test_roundtrip_eval_then_unify(pa):
    # Evaluating a pattern and unifying it back recovers the bindings of
    # every variable occurring in the pattern.
    pattern, assignment = pa
    label = eval_pattern(pattern, assignment)
    got = unify_label(pattern, label)
    assert got is not None
    for name in pattern.variables():
        assert got[name] == assignment[name]


def test_format_label():
    assert format_label(()) == "empty"
    assert format_label(("i", 5)) == '"i":5'
    assert format_label((-3,)) == "-3"
