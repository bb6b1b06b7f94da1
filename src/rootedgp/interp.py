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

Control is not interpreted.  A program's first run compiles its command
tree, with compile() and exec(), into Python source, as GP 2's compiler
emits C for control as well as for rules: one function per procedure,
each command a run of statements that falls through on success and jumps
on failure or break, each rule call a direct call of the rule's fused
applier, and each loop over a rule or a rule set one call of its loop
function (rules.fused_loop), which makes all of that loop's iterations.
The control is compiled in one step (_compile) with exactly the rule code
it calls: appliers, probes and loop functions.  A run compiles afresh
when one of those rules was revalidated since, so a revalidated rule is
applied by its new code; validate_program drops the compiled program.
Commands nest at most MAX_NESTING deep in a procedure body, and
validate_program rejects deeper nesting.

Scopes are opened only where they change the outcome.  A loop body or a
try condition that is a rule call, a rule set, fail or skip opens none:
it changes nothing unless it succeeds, so committing its success and
rolling back its failure are both no-ops.  An if condition that is a rule
call or a rule set opens none either: it runs as the rules' probes
(rules.rule_prober), which search, count and report an application as the
appliers would but do not rewrite, so there is nothing to discard.  Other
loop bodies and try conditions may fail after changing the graph and keep
their scopes, and other if conditions keep theirs, since their effects are
discarded even when they succeed.

A procedure call and a try or if condition that runs in a helper function
each take a Python frame, so run raises the recursion limit, while the
control runs, by as many frames as its calls can nest.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .errors import DivergenceError, ValidationError, _clip
from .hostgraph import HostGraph
from .rules import (
    _MAX_LOOPS, BUDGET_EXHAUSTED, MatchStats, fused_applier, fused_loop,
    rule_prober, validate_rule,
)
# Not called here (the compiled control calls the rules' fused appliers);
# perfbench/tracing.py wraps these two names in this module's namespace.
from .rules import apply_match, find_match  # noqa: F401

DEFAULT_MAX_ITERS = 10_000_000

# Commands nest at most this deep in one procedure body: each sequence,
# loop, try and if is one level.  Compiling the control recurses through
# at most four frames per level (a try or if condition that runs in a
# helper function), so it raises the caller's recursion limit by
# _FRAMES_PER_LEVEL frames per level while it runs.
MAX_NESTING = 400
_FRAMES_PER_LEVEL = 5

# Frames a rule's applier, probe or loop function may take below the
# control's own functions, counting the helpers of a long search nest.
_RULE_FRAMES = 100


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
    # Compiled by the first run (see _compile); validate_program resets it.
    compiled: Optional[tuple] = field(default=None, compare=False, repr=False)


def _nesting(cmd: Command) -> int:
    """How many sequences, loops, tries and ifs enclose the deepest command
    of `cmd`, itself included; procedure calls are not followed."""
    deepest = 0
    stack = [(cmd, 0)]
    while stack:
        cmd, depth = stack.pop()
        kind = type(cmd)
        if kind is Seq:
            parts = cmd.parts
        elif kind is Loop:
            parts = (cmd.body,)
        elif kind is Try or kind is If:
            parts = (cmd.cond, cmd.then_part, cmd.else_part)
        else:
            continue
        deepest = max(deepest, depth + 1)
        stack.extend((part, depth + 1) for part in parts)
    return deepest


def validate_program(program: Program) -> list:
    """Name resolution, recursion rejection, break placement, nesting
    depth, and rule validation.  Returns accumulated warnings; raises
    ValidationError."""
    program.compiled = None
    errors = []
    warnings = []

    for name, body in program.procs.items():
        depth = _nesting(body)
        if depth > MAX_NESTING:
            errors.append(f"procedure {_clip(repr(name))} nests commands {depth} deep "
                          f"(at most {MAX_NESTING})")
    if errors:
        raise ValidationError("; ".join(errors))

    for name, rule in program.rules.items():
        try:
            warnings.extend(validate_rule(rule))
        except ValidationError as e:
            errors.append(str(e))

    if "Main" not in program.procs:
        errors.append("no Main procedure")

    overlap = set(program.rules) & set(program.procs)
    for name in sorted(overlap):
        errors.append(f"name {_clip(repr(name))} declared as both rule and procedure")

    # Contexts: "loop" (break legal), "top" (break escapes Main), and
    # "cond" (break would escape a try/if condition).  A loop inside a
    # condition re-legalises break within itself.  Commands are walked in
    # program order; each carries the procedures on its call chain from
    # Main, and a procedure is walked again in a context only when reached
    # through a longer chain.
    walked = {}                # (procedure, context) -> longest chain walked
    work = []
    if "Main" in program.procs:
        work.append((program.procs["Main"], "top", frozenset({"Main"})))
    while work:
        cmd, ctx, chain = work.pop()
        kind = type(cmd)
        if kind is Call:
            if cmd.name in program.rules:
                continue
            body = program.procs.get(cmd.name)
            if body is None:
                errors.append(f"undefined name {_clip(repr(cmd.name))}")
            elif cmd.name in chain:
                errors.append(f"recursive procedure {_clip(repr(cmd.name))}")
            elif len(chain) > MAX_NESTING:
                errors.append(f"procedure {_clip(repr(cmd.name))} is called through a chain "
                              f"of {len(chain)} calls (at most {MAX_NESTING})")
            elif walked.get((cmd.name, ctx), 0) < len(chain):
                walked[cmd.name, ctx] = len(chain)
                work.append((body, ctx, chain | {cmd.name}))
        elif kind is RuleSet:
            for n in cmd.names:
                if n not in program.rules:
                    errors.append(f"rule set member {_clip(repr(n))} is not a rule")
        elif kind is Seq:
            work.extend((p, ctx, chain) for p in reversed(cmd.parts))
        elif kind is Loop:
            work.append((cmd.body, "loop", chain))
        elif kind in (Try, If):
            work += ((cmd.else_part, ctx, chain), (cmd.then_part, ctx, chain),
                     (cmd.cond, "cond", chain))
        elif kind is Break:
            if ctx == "cond":
                errors.append("break inside a try/if condition")
            elif ctx == "top":
                errors.append("break outside any loop")

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
    order.  A diverging run commits the scopes it opened, so the graph is
    left as it was when the budget ran out, inside the caller's scopes.
    """
    if stats is None:
        stats = MatchStats()
    compiled, rules = program.compiled, program.rules
    # validate_rule gives a rule a new plan.
    if compiled is None or any(rules[n].plan is not p for n, p in compiled[0]):
        compiled = program.compiled = _compile(program)
    _, control, functions, frames = compiled
    depth = len(g._frames)
    # A chain of procedure calls and condition helpers may run deeper
    # than the caller's recursion limit allows.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + frames)
    try:
        status = control(g, stats, on_apply, max_iters, *functions)
    except DivergenceError:
        while len(g._frames) > depth:
            g.commit_scope(len(g._frames) - 1)
        raise
    finally:
        sys.setrecursionlimit(limit)
    if status is Status.BREAK:
        raise AssertionError("break escaped Main")
    return status


# Loops nested deeper than _MAX_LOOPS (see rules), and commands nested
# deeper than _MAX_DEPTH (Python allows 100 levels of indentation),
# continue in a helper function.
_MAX_DEPTH = 48


class _Codegen:
    """Source of one program's control.

    The source is one function, `control(g, stats, tr, max_iters, a<i>,
    ..., q0, ..., L0, ...)`, taking the fused appliers of the rules in
    `self.appliers` (a<i> of the i-th rule of `program.rules`), the probes
    of those in `self.probes`, then the loop functions in the order of
    `self.bodies`.  It defines one nested function per procedure and per
    helper, each returning a Status, and returns what Main's returns;
    `self.frames` is how many frames deep its calls can nest, rules' own
    frames included.  A command is emitted as statements that fall through
    on success and run the lines of a `fail` or a `brk` handler otherwise;
    each handler ends in a jump (`return`, or `break` out of the innermost
    loop's `while`).
    """

    def __init__(self, program: Program):
        self.rules = {name: i for i, name in enumerate(program.rules)}
        self.procs = {name: f"p{i}" for i, name in enumerate(program.procs)}
        self.appliers = {}     # rule called by the control -> its local
        self.bodies = {}       # members of a looped rule set -> its function
        self.probes = {}       # rule probed by an if condition -> its local
        self.funcs = []        # finished nested functions, as lines
        self.callees = {}      # nested function -> the functions it calls
        self.helpers = 0
        # The function being emitted; see `function`.
        self.lines, self.depth, self.loops, self.tokens = [], 0, 0, 0
        self.iterates, self.calls = False, set()
        for name, body in program.procs.items():
            self.function(self.procs[name], body)
        params = "".join(f", {a}" for a in self.appliers.values())
        params += "".join(f", {q}" for q in self.probes.values())
        params += "".join(f", {f}" for f in self.bodies.values())
        lines = [f"def control(g, stats, tr, max_iters{params}):", "    it = 0"]
        for func in self.funcs:
            lines += ["    " + line for line in func]
        lines.append(f"    return {self.procs['Main']}()")
        self.source = "\n".join(lines) + "\n"
        self.frames = 1 + self.nested(self.procs["Main"]) + _RULE_FRAMES

    def nested(self, root: str) -> int:
        """How many frames deep the calls from function `root` can nest,
        its own frame included; walked without recursion.  A call back
        into a function being walked (a recursive procedure, which
        validate_program rejects) counts nothing."""
        depth = {}             # function -> its depth; None while walked
        stack = [(root, False)]
        while stack:
            name, walked = stack.pop()
            calls = self.callees[name]
            if walked:
                depth[name] = 1 + max((depth[c] or 0 for c in calls), default=0)
            elif name not in depth:
                depth[name] = None
                stack.append((name, True))
                stack += ((c, False) for c in calls if c not in depth)
        return depth[root]

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def function(self, name: str, cmd: Command) -> None:
        """Emit `name()`, which runs `cmd` and returns its Status."""
        outer = (self.lines, self.depth, self.loops, self.tokens, self.iterates,
                 self.calls)
        self.lines = [f"def {name}():"]
        self.depth = 1
        self.loops = 0         # open loops
        self.tokens = 0        # scope tokens so far
        self.iterates = False  # has a loop, so counts iterations
        self.calls = self.callees[name] = set()
        self.command(cmd, ["return F"], ["return B"])
        self.emit("return S")
        if self.iterates:
            self.lines.insert(1, "    nonlocal it")
        self.funcs.append(self.lines)
        (self.lines, self.depth, self.loops, self.tokens, self.iterates,
         self.calls) = outer

    def call(self, cmd: Command) -> str:
        """A call that runs `cmd` in a function of its own."""
        if type(cmd) is Call and cmd.name not in self.rules:
            name = self.procs[cmd.name]
        else:
            self.helpers += 1
            name = f"h{self.helpers}"
            self.function(name, cmd)
        self.calls.add(name)
        return f"{name}()"

    def token(self) -> str:
        self.tokens += 1
        return f"t{self.tokens}"

    def members(self, cmd: Command) -> Optional[tuple]:
        """The rules of a rule call or a rule set; None for other commands."""
        if type(cmd) is Call and cmd.name in self.rules:
            return (cmd.name,)
        if type(cmd) is RuleSet:
            return cmd.names
        return None

    def test(self, cmd: Command) -> Optional[str]:
        """For a command that changes nothing unless it succeeds (a rule
        call, a rule set, fail or skip), an expression that runs it and is
        true iff it succeeds; None for other commands.

        A loop body or a try condition that is such a command opens no
        scope: committing its success changes nothing, and its failure
        has nothing to roll back."""
        kind = type(cmd)
        if kind is Fail or kind is Skip:
            return repr(kind is Skip)
        return self.first_of(cmd, self.appliers, lambda n: f"a{self.rules[n]}")

    def probe(self, cmd: Command) -> Optional[str]:
        """For a rule call or a rule set, an expression that is true iff it
        would succeed, counted and traced as running it is, changing
        nothing; None for other commands.  An if condition that is such a
        command opens no scope."""
        return self.first_of(cmd, self.probes, lambda n: f"q{len(self.probes)}")

    def first_of(self, cmd: Command, functions: dict, local) -> Optional[str]:
        """For a rule call or a rule set, an expression calling the members'
        `functions` (appliers or probes; a new member's is called `local(name)`)
        in turn until one succeeds, reporting it; None for other commands."""
        names = self.members(cmd)
        if names is None:
            return None
        for n in names:
            functions.setdefault(n, local(n))
        test = " or ".join(
            f"({functions[n]}(g, stats) and (tr is None or tr({n!r}) or True))"
            for n in names)
        return f"({test})" if len(names) > 1 else test

    def command(self, cmd: Command, fail: list, brk: list) -> None:
        kind = type(cmd)
        if kind is Seq:
            for part in cmd.parts:
                self.command(part, fail, brk)
            return
        if kind is Skip:
            return
        if kind is Fail:
            self.emit_lines(fail)
            return
        if kind is Break:
            self.emit_lines(brk)
            return
        test = self.test(cmd)
        if test is not None:
            self.emit(f"if not {test}:")
            self.depth += 1
            self.emit_lines(fail)
            self.depth -= 1
            return
        if kind not in (Call, Loop, Try, If):
            raise TypeError(f"not a command: {cmd!r}")
        if kind is Loop and self.members(cmd.body) is not None:
            # A loop over a rule set runs in a function of its own.
            names = self.members(cmd.body)
            if names not in self.bodies:
                self.bodies[names] = f"L{len(self.bodies)}"
            self.iterates = True
            self.emit(f"it = {self.bodies[names]}(g, stats, tr, it, max_iters)")
            return
        if kind is Call or self.depth >= _MAX_DEPTH or (
                kind is Loop and self.loops == _MAX_LOOPS):
            self.dispatch(self.call(cmd), fail, brk)
        elif kind is Loop:
            self.loop(cmd.body)
        else:
            self.branch(cmd, fail, brk)

    def emit_lines(self, lines: list) -> None:
        for line in lines:
            self.emit(line)

    def dispatch(self, call: str, fail: list, brk: list) -> None:
        self.emit(f"st = {call}")
        self.emit("if st is not S:")
        self.depth += 1
        self.emit("if st is F:")
        self.depth += 1
        self.emit_lines(fail)
        self.depth -= 1
        self.emit_lines(brk)
        self.depth -= 1

    def block(self, first: list, cmd: Command, fail: list, brk: list) -> None:
        """An indented block: the lines `first`, then `cmd`."""
        self.depth += 1
        n = len(self.lines)
        self.emit_lines(first)
        self.command(cmd, fail, brk)
        if len(self.lines) == n:
            self.emit("pass")
        self.depth -= 1

    def loop(self, body: Command) -> None:
        self.emit("while True:")
        self.depth += 1
        self.loops += 1
        self.iterates = True
        self.emit("it += 1")
        self.emit("if it > max_iters:")
        self.emit(f"    raise DivergenceError({BUDGET_EXHAUSTED!r}.format(max_iters))")
        if self.test(body) is not None:
            self.command(body, ["break"], ["break"])
        else:
            t = self.token()
            self.emit(f"{t} = g.begin_scope()")
            self.command(body, [f"g.rollback_scope({t})", "break"],
                         [f"g.commit_scope({t})", "break"])
            self.emit(f"g.commit_scope({t})")
        self.loops -= 1
        self.depth -= 1

    def branch(self, cmd, fail: list, brk: list) -> None:
        """A try or an if, its then and else parts in this function.  The
        condition runs in a scope, except a try condition that `test`
        can express and an if condition that `probe` can."""
        is_try = type(cmd) is Try
        probe = None if is_try else self.probe(cmd.cond)
        test = probe or self.test(cmd.cond)
        on_then = on_else = []
        if probe is None and (not is_try or test is None):
            t = self.token()
            self.emit(f"{t} = g.begin_scope()")
            self.emit(f"st = {test or self.call(cmd.cond)}")
            if is_try:
                on_then, on_else = [f"g.commit_scope({t})"], [f"g.rollback_scope({t})"]
            else:
                self.emit(f"g.rollback_scope({t})")
            if test is None:
                where = "a try" if is_try else "an if"
                self.emit("if st is B:")
                self.emit(f"    raise AssertionError('break escaped {where} condition')")
                test = "st is S"
            else:
                test = "st"
        if type(cmd.then_part) is Skip and not on_then:
            self.emit(f"if not {test}:")
            self.block(on_else, cmd.else_part, fail, brk)
            return
        self.emit(f"if {test}:")
        self.block(on_then, cmd.then_part, fail, brk)
        if on_else or type(cmd.else_part) is not Skip:
            self.emit("else:")
            self.block(on_else, cmd.else_part, fail, brk)


def _compile(program: Program) -> tuple:
    """(plans, control, the functions it takes after max_iters, frames): the
    compiled control and the rule code it calls, compiled from the rules
    and plans in `plans`; the control's calls nest at most `frames` deep."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + _FRAMES_PER_LEVEL * MAX_NESTING)
    try:
        gen = _Codegen(program)
    finally:
        sys.setrecursionlimit(limit)
    ns = {"S": Status.SUCCESS, "F": Status.FAILURE, "B": Status.BREAK,
          "DivergenceError": DivergenceError}
    exec(compile(gen.source, "<control>", "exec"), ns)
    rules = program.rules
    functions = [fused_applier(rules[name]) for name in gen.appliers]
    functions += [rule_prober(rules[name]) for name in gen.probes]
    functions += [fused_loop([rules[name] for name in names]) for names in gen.bodies]
    used = {*gen.appliers, *gen.probes, *(n for names in gen.bodies for n in names)}
    plans = tuple((name, rules[name].plan) for name in used)
    return plans, ns["control"], functions, gen.frames
