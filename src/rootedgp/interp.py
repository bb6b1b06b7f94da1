"""Execution of graph programs: sequencing, rule sets, loops, try/if,
break and fail, with transactional commit/rollback semantics.

Status algebra: a command yields SUCCESS, FAILURE, or BREAK.  `try C then
P else Q` runs C inside a scope, commits it on success and runs P, or
rolls it back on failure and runs Q.  `if C then P else Q` also scopes C
but discards its effects unconditionally; only the outcome steers the
branch.  A loop `B!` repeats its body, committing each successful
iteration; the first failing iteration is rolled back and the loop stops
with SUCCESS.  `break` escapes to the nearest enclosing loop and commits
the partial iteration.  Failure of a try's then-branch is not caught;
only the condition's failure is.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .errors import DivergenceError, ValidationError
from .hostgraph import HostGraph
from .rules import MatchStats, apply_match, find_match, validate_rule

DEFAULT_MAX_ITERS = 10_000_000


class Status(Enum):
    SUCCESS = "success"
    FAILURE = "failure"
    BREAK = "break"


class Command:
    __slots__ = ()


@dataclass(frozen=True)
class Call(Command):
    """Invocation of a rule or a procedure, resolved by name at run time."""
    name: str


@dataclass(frozen=True)
class RuleSet(Command):
    names: tuple


@dataclass(frozen=True)
class Seq(Command):
    parts: tuple


@dataclass(frozen=True)
class Loop(Command):
    body: Command


@dataclass(frozen=True)
class Try(Command):
    cond: Command
    then_part: Command
    else_part: Command


@dataclass(frozen=True)
class If(Command):
    cond: Command
    then_part: Command
    else_part: Command


@dataclass(frozen=True)
class Break(Command):
    pass


@dataclass(frozen=True)
class Fail(Command):
    pass


@dataclass(frozen=True)
class Skip(Command):
    pass


BREAK = Break()
FAIL = Fail()
SKIP = Skip()


@dataclass
class Program:
    rules: dict               # name -> Rule
    procs: dict               # name -> Command
    warnings: list = None


def validate_program(program: Program) -> list:
    """Name resolution, recursion rejection, break placement, and rule
    validation.  Returns accumulated warnings; raises ValidationError."""
    errors = []
    warnings = []

    for name, rule in program.rules.items():
        try:
            warnings.extend(validate_rule(rule))
        except ValidationError as e:
            errors.append(str(e))

    if "Main" not in program.procs:
        errors.append("no Main procedure")

    overlap = set(program.rules) & set(program.procs)
    for name in sorted(overlap):
        errors.append(f"name {name!r} declared as both rule and procedure")

    # Contexts: "loop" (break legal), "top" (break escapes Main), and
    # "cond" (break would escape a try/if condition).  A loop inside a
    # condition re-legalises break within itself.
    checked = set()

    def check(cmd, ctx, stack):
        kind = type(cmd)
        if kind is Call:
            if cmd.name in program.rules:
                return
            body = program.procs.get(cmd.name)
            if body is None:
                errors.append(f"undefined name {cmd.name!r}")
                return
            if cmd.name in stack:
                errors.append(f"recursive procedure {cmd.name!r}")
                return
            key = (cmd.name, ctx)
            if key in checked:
                return
            checked.add(key)
            check(body, ctx, stack | {cmd.name})
        elif kind is RuleSet:
            for n in cmd.names:
                if n not in program.rules:
                    errors.append(f"rule set member {n!r} is not a rule")
        elif kind is Seq:
            for p in cmd.parts:
                check(p, ctx, stack)
        elif kind is Loop:
            check(cmd.body, "loop", stack)
        elif kind in (Try, If):
            check(cmd.cond, "cond", stack)
            check(cmd.then_part, ctx, stack)
            check(cmd.else_part, ctx, stack)
        elif kind is Break:
            if ctx == "cond":
                errors.append("break inside a try/if condition")
            elif ctx == "top":
                errors.append("break outside any loop")

    if "Main" in program.procs:
        check(program.procs["Main"], "top", frozenset({"Main"}))

    if errors:
        raise ValidationError("; ".join(sorted(set(errors))))
    return warnings


def run(
    program: Program,
    g: HostGraph,
    max_iters: int = DEFAULT_MAX_ITERS,
    stats: Optional[MatchStats] = None,
    on_apply=None,
) -> Status:
    """Execute Main over `g`.  `max_iters` caps the total number of loop
    iterations across the whole run; exceeding it raises DivergenceError.

    `on_apply`, when given, is called with each applied rule name, in
    order.
    """
    if stats is None:
        stats = MatchStats()
    rules = program.rules
    procs = program.procs
    iters = 0
    SUCCESS, FAILURE, BRK = Status.SUCCESS, Status.FAILURE, Status.BREAK

    def apply(rule) -> bool:
        m = find_match(rule, g, stats)
        if m is None:
            return False
        apply_match(rule, m, g, stats)
        if on_apply is not None:
            on_apply(rule.name)
        return True

    def exec_(cmd) -> Status:
        nonlocal iters
        kind = type(cmd)
        if kind is Call:
            # A rule call is a one-rule rule set.
            rule = rules.get(cmd.name)
            if rule is None:
                return exec_(procs[cmd.name])
            return SUCCESS if apply(rule) else FAILURE
        if kind is RuleSet:
            for name in cmd.names:
                if apply(rules[name]):
                    return SUCCESS
            return FAILURE
        if kind is Seq:
            for part in cmd.parts:
                st = exec_(part)
                if st is not SUCCESS:
                    return st
            return SUCCESS
        if kind is Loop:
            body = cmd.body
            while True:
                iters += 1
                if iters > max_iters:
                    raise DivergenceError(
                        f"loop iteration budget exhausted ({max_iters})"
                    )
                token = g.begin_scope()
                st = exec_(body)
                if st is SUCCESS:
                    g.commit_scope(token)
                    continue
                if st is FAILURE:
                    g.rollback_scope(token)
                else:
                    g.commit_scope(token)
                return SUCCESS
        if kind is Try:
            token = g.begin_scope()
            st = exec_(cmd.cond)
            if st is SUCCESS:
                g.commit_scope(token)
                return exec_(cmd.then_part)
            if st is FAILURE:
                g.rollback_scope(token)
                return exec_(cmd.else_part)
            raise AssertionError("break escaped a try condition")
        if kind is If:
            token = g.begin_scope()
            st = exec_(cmd.cond)
            g.rollback_scope(token)
            if st is SUCCESS:
                return exec_(cmd.then_part)
            if st is FAILURE:
                return exec_(cmd.else_part)
            raise AssertionError("break escaped an if condition")
        if kind is Break:
            return BRK
        if kind is Fail:
            return FAILURE
        if kind is Skip:
            return SUCCESS
        raise TypeError(f"not a command: {cmd!r}")

    status = exec_(procs["Main"])
    del exec_  # exec_'s closure refers to itself and holds g; leave no cycle
    if status is Status.BREAK:
        raise AssertionError("break escaped Main")
    return status
