"""Parsers and serializers for host graphs, rules, programs, and op
scripts, plus the instruction-list graph builder.

Grammars are documented in docs/formats.md.  Host graphs round-trip
through parse/print with identical node and edge ids; printing is
canonical (ascending ids, labels always written, `empty` never elided).
"""
from __future__ import annotations

import re
import sys
from typing import NamedTuple, Optional

# MAX_QUOTE, the bound on what a diagnostic quotes, is exported here too.
from .errors import MAX_QUOTE, ParseError, _clip  # noqa: F401
from .hostgraph import EDGE_MARKS, NODE_MARKS, HostGraph
from .interp import (
    BREAK, FAIL, MAX_NESTING, SKIP, Call, Command, If, Loop, Program, RuleSet, Seq,
    Try, validate_program,
)
from .labels import (
    AndC, ArithT, CmpC, DegT, IntT, LabelPattern, NotC, OrC, VarT,
    VAR_KINDS, format_label,
)
from .rules import PatternEdge, PatternGraph, PatternNode, Rule, validate_rule

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<int>\d+)
      | (?P<str>"[^"\n]*")
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<punct>=>|!=|<=|>=|[()\[\]{}|,;:=!<>#+\-])
    """,
    re.VERBOSE,
)


# Commands and conditions are parsed by recursive descent, at most three
# frames per nested unit: a parenthesis, `try`, `if` or `not`.  Parentheses
# nest at most MAX_NESTING deep; units of every kind together at most
# _MAX_UNITS deep, so that `try` and `if` nested past MAX_NESTING still
# parse and validate_program reports them.  The parser raises the caller's
# recursion limit by _FRAMES_PER_UNIT frames per unit while it runs.
_MAX_UNITS = 2 * MAX_NESTING
_FRAMES_PER_UNIT = 3


def _int(digits: str, line: int, col: int) -> int:
    try:
        return int(digits)
    except ValueError:    # more digits than int() converts
        raise ParseError(f"integer too long: {_clip(digits)}", line, col) from None


class Token(NamedTuple):
    kind: str      # "int" | "str" | "ident" | "punct" | "eof"
    value: object
    line: int
    col: int


def _tokenize(text: str) -> list:
    tokens = []
    line = 1
    line_start = 0
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            col = pos - line_start + 1
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        val = m.group()
        col = pos - line_start + 1
        if kind == "ws":
            nl = val.count("\n")
            if nl:
                line += nl
                line_start = pos + val.rfind("\n") + 1
        elif kind == "int":
            tokens.append(Token("int", _int(val, line, col), line, col))
        elif kind == "str":
            tokens.append(Token("str", val[1:-1], line, col))
        else:
            tokens.append(Token(kind, val, line, col))
        pos = m.end()
    tokens.append(Token("eof", None, line, n - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        self.parens = 0        # open parentheses
        self.units = 0         # open units of every kind

    def enter(self, paren: bool) -> None:
        """Open a nested unit, a parenthesis if `paren`."""
        self.parens += paren
        self.units += 1
        if self.parens > MAX_NESTING:
            self.error(f"parentheses nest more than {MAX_NESTING} deep")
        if self.units > _MAX_UNITS:
            self.error(f"commands and conditions nest more than {_MAX_UNITS} deep")

    def leave(self, paren: bool) -> None:
        self.parens -= paren
        self.units -= 1

    def peek(self) -> Token:
        return self.toks[self.pos]

    def take(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind, value=None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (value is None or tok.value == value)

    def accept(self, kind, value=None) -> Optional[Token]:
        if self.at(kind, value):
            return self.take()
        return None

    def expect(self, kind, value=None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            got = "end of input" if tok.kind == "eof" else _clip(repr(tok.value))
            raise ParseError(f"expected {want!r}, found {got}", tok.line, tok.col)
        return self.take()

    def error(self, msg: str):
        tok = self.peek()
        raise ParseError(msg, tok.line, tok.col)

    # -- graphs ---------------------------------------------------------------
    #
    # Host graphs and rule graphs share one grammar.  A rule graph passes its
    # variable declarations as `kinds`: its labels may then hold variables
    # and its marks may be the wildcard `any`.  A host graph passes None.

    def parse_id(self, prefix: str) -> int:
        """`<prefix><k>` or a bare integer `<k>`."""
        tok = self.peek()
        if tok.kind == "int":
            self.take()
            return tok.value
        if tok.kind == "ident" and tok.value[:1] == prefix and tok.value[1:].isdigit():
            self.take()
            return _int(tok.value[1:], tok.line, tok.col)
        self.error("expected a node/edge id")

    def parse_mark(self, allowed, context) -> str:
        """An optional `#mark`; "none" when absent."""
        if not self.accept("punct", "#"):
            return "none"
        tok = self.expect("ident")
        if tok.value not in allowed:
            raise ParseError(f"unknown mark #{_clip(str(tok.value))} in {context}",
                             tok.line, tok.col)
        return tok.value

    def parse_label(self, kinds: Optional[dict]):
        """An atom tuple in a host graph, a LabelPattern in a rule graph."""
        items = []
        if not self.accept("ident", "empty"):
            items.append(self.parse_item(kinds))
            while self.accept("punct", ":"):
                items.append(self.parse_item(kinds))
        if kinds is None:
            return tuple(item[1] for item in items)
        return LabelPattern(items)

    def parse_item(self, kinds: Optional[dict]) -> tuple:
        """("c", atom), or ("v", name, kind) for a declared variable."""
        tok = self.peek()
        if tok.kind == "int" or tok.kind == "str":
            self.take()
            return ("c", tok.value)
        if self.accept("punct", "-"):
            return ("c", -self.expect("int").value)
        if kinds is None:
            self.error("expected an integer or string atom")
        if tok.kind == "ident":
            self.take()
            kind = kinds.get(tok.value)
            if kind is None:
                raise ParseError(f"undeclared variable {_clip(repr(tok.value))}",
                                 tok.line, tok.col)
            return ("v", tok.value, kind)
        self.error("expected an atom or variable")

    def parse_graph(self, kinds: Optional[dict]) -> tuple:
        """`[ node* | edge* ]` as node records {id: (rooted, label, mark)}
        in textual order and edge records [(id, src, tgt, label, mark)]."""
        side, wild = ("host", ()) if kinds is None else ("rule", ("any",))
        node_marks = tuple(m for m in NODE_MARKS if m != "none") + wild
        edge_marks = tuple(m for m in EDGE_MARKS if m != "none") + wild
        nodes = {}
        edges = []
        eids = set()
        self.expect("punct", "[")
        while self.at("punct", "("):
            tok = self.take()
            nid = self.parse_id("n")
            rooted = self.accept("punct", "(") is not None
            if rooted:
                self.expect("ident", "R")
                self.expect("punct", ")")
            self.expect("punct", ",")
            label = self.parse_label(kinds)
            mark = self.parse_mark(node_marks, f"{side} node")
            self.expect("punct", ")")
            if nid in nodes:
                raise ParseError(f"duplicate node id n{nid}", tok.line, tok.col)
            nodes[nid] = (rooted, label, mark)
        self.expect("punct", "|")
        while self.at("punct", "("):
            tok = self.take()
            eid = self.parse_id("e")
            self.expect("punct", ",")
            src = self.parse_id("n")
            self.expect("punct", ",")
            tgt = self.parse_id("n")
            self.expect("punct", ",")
            label = self.parse_label(kinds)
            mark = self.parse_mark(edge_marks, f"{side} edge")
            self.expect("punct", ")")
            if eid in eids:
                raise ParseError(f"duplicate edge id e{eid}", tok.line, tok.col)
            if src not in nodes or tgt not in nodes:
                raise ParseError(
                    f"edge e{eid} references a missing node", tok.line, tok.col)
            eids.add(eid)
            edges.append((eid, src, tgt, label, mark))
        self.expect("punct", "]")
        return nodes, edges

    def parse_host(self) -> HostGraph:
        nodes, edges = self.parse_graph(None)
        g = HostGraph()
        # Roots are rooted in ascending id order, as if at build time, so
        # inserting in that order files each root in rooting order.
        for nid in sorted(nodes):
            rooted, label, mark = nodes[nid]
            seq = 0
            if rooted:
                g._root_seq += 1
                seq = g._root_seq
            g._raw_insert_node(nid, label, mark, rooted, seq)
        for eid, src, tgt, label, mark in edges:
            g._raw_insert_edge(eid, src, tgt, label, mark)
        g._next_node = max(nodes, default=-1) + 1
        g._next_edge = max((e[0] for e in edges), default=-1) + 1
        return g

    def parse_pattern_graph(self, kinds: dict) -> PatternGraph:
        nodes, edges = self.parse_graph(kinds)
        return PatternGraph(
            {pid: PatternNode(pid, label, mark, rooted)
             for pid, (rooted, label, mark) in nodes.items()},
            [PatternEdge(src, tgt, label, mark) for _, src, tgt, label, mark in edges])

    # -- rules ---------------------------------------------------------------

    def parse_var_decls(self) -> list:
        self.expect("punct", "(")
        decls = []
        if not self.at("punct", ")"):
            while True:
                names = [self.expect("ident").value]
                while self.accept("punct", ","):
                    names.append(self.expect("ident").value)
                self.expect("punct", ":")
                tok = self.expect("ident")
                if tok.value not in VAR_KINDS:
                    raise ParseError(f"unknown variable kind {_clip(repr(tok.value))}",
                                     tok.line, tok.col)
                decls.extend((n, tok.value) for n in names)
                if not self.accept("punct", ";"):
                    break
        self.expect("punct", ")")
        return decls

    def parse_rule_after_name(self, name: str) -> Rule:
        decls = self.parse_var_decls()
        kinds = dict(decls)
        lhs = self.parse_pattern_graph(kinds)
        self.expect("punct", "=>")
        rhs = self.parse_pattern_graph(kinds)
        self.expect("ident", "interface")
        self.expect("punct", "=")
        self.expect("punct", "{")
        pids = set()
        if not self.at("punct", "}"):
            pids.add(self.parse_id("n"))
            while self.accept("punct", ","):
                pids.add(self.parse_id("n"))
        self.expect("punct", "}")
        cond = None
        if self.accept("ident", "where"):
            cond = self.parse_cond()
        return Rule(name, decls, lhs, rhs, frozenset(pids), cond)

    # -- conditions -----------------------------------------------------------

    def parse_cond(self):
        left = self.parse_cond_and()
        while self.accept("ident", "or"):
            left = OrC(left, self.parse_cond_and())
        return left

    def parse_cond_and(self):
        left = self.parse_cond_not()
        while self.accept("ident", "and"):
            left = AndC(left, self.parse_cond_not())
        return left

    def parse_cond_not(self):
        if self.at("ident", "not"):
            self.enter(False)
            self.take()
            cond = NotC(self.parse_cond_not())
            self.leave(False)
            return cond
        if self.at("punct", "("):
            self.enter(True)
            self.take()
            inner = self.parse_cond()
            self.expect("punct", ")")
            self.leave(True)
            return inner
        return self.parse_cmp()

    def parse_cmp(self):
        left = self.parse_term()
        tok = self.peek()
        if tok.kind == "punct" and tok.value in ("=", "!=", "<", "<=", ">", ">="):
            self.take()
            right = self.parse_term()
            return CmpC(tok.value, left, right)
        self.error("expected a comparison operator")

    def parse_term(self):
        left = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind == "punct" and tok.value in ("+", "-"):
                self.take()
                left = ArithT(tok.value, left, self.parse_factor())
            else:
                return left

    def parse_factor(self):
        tok = self.peek()
        if tok.kind == "int":
            self.take()
            return IntT(tok.value)
        if self.accept("punct", "-"):
            t = self.expect("int")
            return IntT(-t.value)
        if tok.kind == "ident" and tok.value in ("outdeg", "indeg"):
            self.take()
            self.expect("punct", "(")
            pid = self.parse_id("n")
            self.expect("punct", ")")
            return DegT(tok.value, pid)
        if tok.kind == "ident":
            self.take()
            return VarT(tok.value)
        self.error("expected an integer term")

    # -- commands --------------------------------------------------------------

    def parse_command(self) -> Command:
        parts = [self.parse_post()]
        while self.accept("punct", ";"):
            parts.append(self.parse_post())
        if len(parts) == 1:
            return parts[0]
        return Seq(tuple(parts))

    def parse_post(self) -> Command:
        cmd = self.parse_unit()
        while self.accept("punct", "!"):
            cmd = Loop(cmd)
        return cmd

    def parse_unit(self) -> Command:
        tok = self.peek()
        if tok.kind == "punct" and tok.value == "(":
            self.enter(True)
            self.take()
            cmd = self.parse_command()
            self.expect("punct", ")")
            self.leave(True)
            return cmd
        if tok.kind == "punct" and tok.value == "{":
            self.take()
            names = [self.expect("ident").value]
            while self.accept("punct", ","):
                names.append(self.expect("ident").value)
            self.expect("punct", "}")
            return RuleSet(tuple(names))
        if tok.kind == "ident":
            word = tok.value
            if word == "try":
                self.enter(False)
                self.take()
                cond = self.parse_post()
                then_part: Command = SKIP
                else_part: Command = SKIP
                if self.accept("ident", "then"):
                    then_part = self.parse_post()
                if self.accept("ident", "else"):
                    else_part = self.parse_post()
                self.leave(False)
                return Try(cond, then_part, else_part)
            if word == "if":
                self.enter(False)
                self.take()
                cond = self.parse_post()
                self.expect("ident", "then")
                then_part = self.parse_post()
                else_part = SKIP
                if self.accept("ident", "else"):
                    else_part = self.parse_post()
                self.leave(False)
                return If(cond, then_part, else_part)
            if word == "break":
                self.take()
                return BREAK
            if word == "fail":
                self.take()
                return FAIL
            if word == "skip":
                self.take()
                return SKIP
            self.take()
            return Call(word)
        self.error("expected a command")

    # -- programs ----------------------------------------------------------------

    def parse_program(self) -> Program:
        rules: dict = {}
        procs: dict = {}
        while not self.at("eof"):
            name_tok = self.expect("ident")
            name = name_tok.value
            if self.at("punct", "("):
                decls, decl = rules, self.parse_rule_after_name(name)
            elif self.accept("punct", "="):
                decls, decl = procs, self.parse_command()
            else:
                self.error("expected '=' (procedure) or '(' (rule)")
            if name in rules or name in procs:
                raise ParseError(f"duplicate declaration {_clip(repr(name))}",
                                 name_tok.line, name_tok.col)
            decls[name] = decl
        return Program(rules, procs)


# -- public entry points ---------------------------------------------------------


def parse_host(text: str) -> HostGraph:
    p = _Parser(text)
    g = p.parse_host()
    p.expect("eof")
    return g


def _descend(parse):
    """Run `parse()` with room on the stack for the deepest nesting."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + _FRAMES_PER_UNIT * _MAX_UNITS)
    try:
        return parse()
    finally:
        sys.setrecursionlimit(limit)


def parse_rule(text: str) -> Rule:
    """Parse and validate a single rule declaration."""
    p = _Parser(text)
    name = p.expect("ident").value
    rule = _descend(lambda: p.parse_rule_after_name(name))
    p.expect("eof")
    validate_rule(rule)
    return rule


def parse_program(text: str) -> Program:
    """Parse and validate a program; its warnings go to `warnings`."""
    program = _descend(_Parser(text).parse_program)
    program.warnings = validate_program(program)
    return program


def print_host(g: HostGraph) -> str:
    """Canonical text: ascending ids, labels always written."""
    parts = ["["]
    for nid in g.node_ids():
        rec = g.nodes[nid]
        rooted = "(R)" if rec.rooted else ""
        mark = f" #{rec.mark}" if rec.mark != "none" else ""
        parts.append(f"(n{nid}{rooted}, {format_label(rec.label)}{mark})")
    parts.append("|")
    for eid in g.edge_ids():
        rec = g.edges[eid]
        mark = f" #{rec.mark}" if rec.mark != "none" else ""
        parts.append(
            f"(e{eid}, n{rec.src}, n{rec.tgt}, {format_label(rec.label)}{mark})")
    parts.append("]")
    return " ".join(parts)


# -- op scripts --------------------------------------------------------------------


class Op(NamedTuple):
    kind: str   # "i" | "s" | "d"
    key: int


# An op key: ASCII digits with an optional minus sign.
_KEY_RE = re.compile(r"-?[0-9]+")


def parse_opscript(text: str) -> list:
    """One instruction per line: `i 5`, `s 7`, `d 2`.  Blank lines and
    `#` comments are ignored."""
    ops = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2 or fields[0] not in ("i", "s", "d"):
            raise ParseError(f"malformed op {_clip(repr(raw.strip()))}", lineno, 1)
        if not _KEY_RE.fullmatch(fields[1]):
            raise ParseError(f"malformed key {_clip(repr(fields[1]))}", lineno, 1)
        ops.append(Op(fields[0], _int(fields[1], lineno, 1)))
    return ops


def format_opscript(ops) -> str:
    return "".join(f"{op.kind} {op.key}\n" for op in ops)


def build_instruction_graph(ops) -> HostGraph:
    """Linked list of unmarked instruction nodes, head rooted.

    Node ids are 0..len(ops)-1 in op order; edge i connects op i to op
    i+1.  An empty script yields an empty graph.
    """
    return append_instructions(HostGraph(), ops)


def append_instructions(g: HostGraph, ops) -> HostGraph:
    """Append the instruction list of `ops` to `g` and return `g`: one
    unmarked node per op labelled (kind, key), in op order, each linked to
    the next, and only the head rooted."""
    prev = None
    for i, op in enumerate(ops):
        nid = g.add_node((op.kind, op.key), "none", rooted=(i == 0))
        if prev is not None:
            g.add_edge(prev, nid)
        prev = nid
    return g
