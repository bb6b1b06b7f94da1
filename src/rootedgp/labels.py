"""Label values, label patterns, variable binding, and rule conditions.

A label is a tuple of atoms; an atom is an int or a str.  Patterns mix
constant atoms with typed variable slots and are matched against labels
by unification.  Conditions are small boolean expression trees over
integer terms, evaluated under a variable assignment plus a degree
callback for the matched host nodes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .errors import ValidationError

VAR_KINDS = ("int", "char", "string", "atom", "list")

_MISSING = object()


def atom_fits_kind(atom, kind: str) -> bool:
    if kind == "int":
        return type(atom) is int
    if kind == "char":
        return type(atom) is str and len(atom) == 1
    if kind == "string":
        return type(atom) is str
    if kind == "atom":
        return True
    raise ValueError(f"not a scalar kind: {kind}")


class LabelPattern:
    """An ordered mix of constant atoms and variable slots.

    Items are ("c", atom) or ("v", name, kind).  At most one slot may be
    list-kind; it absorbs any remaining sub-sequence of the label.
    """

    __slots__ = ("items", "list_at")

    def __init__(self, items):
        self.items = tuple(items)
        list_positions = [
            i for i, it in enumerate(self.items) if it[0] == "v" and it[2] == "list"
        ]
        if len(list_positions) > 1:
            raise ValidationError("at most one list variable per label pattern")
        self.list_at = list_positions[0] if list_positions else None

    def variables(self) -> Iterator[str]:
        for it in self.items:
            if it[0] == "v":
                yield it[1]

    def __eq__(self, other):
        return isinstance(other, LabelPattern) and self.items == other.items

    def __hash__(self):
        return hash(self.items)

    def __repr__(self):
        return f"LabelPattern({list(self.items)!r})"


def _match_scalar(item, atom, assignment, trail) -> bool:
    if item[0] == "c":
        v = item[1]
        # 5 and "5" are different atoms; plain == suffices since the
        # atom universe has no int/str cross equalities.
        return type(v) is type(atom) and v == atom
    _, name, kind = item
    if not atom_fits_kind(atom, kind):
        return False
    bound = assignment.get(name, _MISSING)
    if bound is _MISSING:
        assignment[name] = atom
        trail.append(name)
        return True
    return type(bound) is type(atom) and bound == atom


def unify_into(pattern: LabelPattern, label, assignment: dict, trail: list) -> bool:
    """Extend `assignment` in place so the pattern matches `label` exactly.

    Newly bound names are appended to `trail` so the caller can undo a
    failed attempt.  Returns False (with a partially grown trail) on
    mismatch; callers must unwind the trail themselves.
    """
    items = pattern.items
    la = pattern.list_at
    n = len(items)
    if la is None:
        if len(label) != n:
            return False
        for item, atom in zip(items, label):
            if not _match_scalar(item, atom, assignment, trail):
                return False
        return True
    suffix = n - la - 1
    if len(label) < n - 1:
        return False
    for i in range(la):
        if not _match_scalar(items[i], label[i], assignment, trail):
            return False
    for j in range(suffix):
        if not _match_scalar(items[n - 1 - j], label[len(label) - 1 - j], assignment, trail):
            return False
    mid = tuple(label[la:len(label) - suffix])
    name = items[la][1]
    bound = assignment.get(name, _MISSING)
    if bound is _MISSING:
        assignment[name] = mid
        trail.append(name)
        return True
    return bound == mid


def eval_pattern(pattern: LabelPattern, assignment: dict):
    """Instantiate a pattern under a complete assignment, flattening lists."""
    out = []
    for it in pattern.items:
        if it[0] == "c":
            out.append(it[1])
        else:
            val = assignment[it[1]]
            if it[2] == "list":
                out.extend(val)
            else:
                out.append(val)
    return tuple(out)


# --- conditions -----------------------------------------------------------

@dataclass(frozen=True)
class IntT:
    value: int


@dataclass(frozen=True)
class VarT:
    name: str


@dataclass(frozen=True)
class ArithT:
    op: str  # "+" or "-"
    left: object
    right: object


@dataclass(frozen=True)
class DegT:
    fn: str  # "outdeg" or "indeg"
    pid: int


@dataclass(frozen=True)
class CmpC:
    op: str  # one of = != < <= > >=
    left: object
    right: object


@dataclass(frozen=True)
class AndC:
    left: object
    right: object


@dataclass(frozen=True)
class OrC:
    left: object
    right: object


@dataclass(frozen=True)
class NotC:
    inner: object


def _eval_term(t, assignment, degrees):
    k = type(t)
    if k is IntT:
        return t.value
    if k is VarT:
        v = assignment[t.name]
        return v if type(v) is int else None
    if k is ArithT:
        values = [(_eval_term(s, assignment, degrees), plus) for plus, s in summands(t)]
        if any(v is None for v, _ in values):
            return None
        return sum(v if plus else -v for v, plus in values)
    if k is DegT:
        return degrees(t.fn, t.pid)
    raise TypeError(f"not a term: {t!r}")


_CMP = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def eval_cond(cond, assignment: dict,
              degrees: Optional[Callable[[str, int], int]] = None) -> bool:
    """Evaluate a condition; a non-int binding makes its comparison false."""
    k = type(cond)
    if k is CmpC:
        a = _eval_term(cond.left, assignment, degrees)
        b = _eval_term(cond.right, assignment, degrees)
        if a is None or b is None:
            return False
        return _CMP[cond.op](a, b)
    if k is AndC:
        return all(eval_cond(c, assignment, degrees) for c in operands(cond, AndC))
    if k is OrC:
        return any(eval_cond(c, assignment, degrees) for c in operands(cond, OrC))
    if k is NotC:
        inner, negated = strip_nots(cond)
        return eval_cond(inner, assignment, degrees) != negated
    raise TypeError(f"not a condition: {cond!r}")


def summands(t) -> list:
    """(is added, operand) of each operand of the `+`/`-` chain at term `t`,
    left to right; the chain's left spine is walked without recursion."""
    found = []
    while type(t) is ArithT:
        found.append((t.op == "+", t.right))
        t = t.left
    found.append((True, t))
    return found[::-1]


def strip_nots(cond) -> tuple:
    """The condition under the chain of `not`s at `cond`, and whether the
    chain has an odd number of them."""
    negated = False
    while type(cond) is NotC:
        cond, negated = cond.inner, not negated
    return cond, negated


def operands(cond, kind) -> list:
    """The operands of the chain of `kind` (AndC or OrC) at `cond`, left to
    right; a chain of any length is walked without recursion."""
    found, stack = [], [cond]
    while stack:
        c = stack.pop()
        if type(c) is kind:
            stack += (c.right, c.left)
        else:
            found.append(c)
    return found


# Rule conditions nest `and`, `or` and `not` at most this deep; compiled,
# each level is a parenthesis, and Python allows 200 nested ones.
MAX_COND_DEPTH = 100


def cond_refs(cond) -> tuple:
    """Names of the variables a condition references, ids of the pattern
    nodes whose degree it queries, and how deep `and`, `or` and `not` nest
    in it, a chain of one of them counting one level."""
    names, pids, deepest = set(), set(), 0
    stack = [(cond, None, 0)]
    while stack:
        c, outer, depth = stack.pop()
        k = type(c)
        if k is AndC or k is OrC or k is NotC:
            depth += k is not outer
            deepest = max(deepest, depth)
        if k is VarT:
            names.add(c.name)
        elif k is DegT:
            pids.add(c.pid)
        elif k in (CmpC, AndC, OrC, ArithT):
            stack += ((c.left, k, depth), (c.right, k, depth))
        elif k is NotC:
            stack.append((c.inner, k, depth))
    return names, pids, deepest


def format_atom(atom) -> str:
    if type(atom) is int:
        return str(atom)
    return f'"{atom}"'


def format_label(label) -> str:
    if not label:
        return "empty"
    return ":".join(format_atom(a) for a in label)
