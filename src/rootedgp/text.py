"""Parsers and serializers for host graphs, rules, programs, and op
scripts, plus the instruction-list graph builder.

Grammars are documented in docs/formats.md.  Host graphs round-trip
through parse/print with identical node and edge ids; printing is
canonical (ascending ids, labels always written, `empty` never elided).
"""
from __future__ import annotations

import re
from typing import NamedTuple, Optional

from .errors import ParseError
from .hostgraph import EDGE_MARKS, NODE_MARKS, HostGraph
from .interp import (
    BREAK, FAIL, SKIP, Call, Command, If, Loop, Program, RuleSet, Seq, Try,
    validate_program,
)
from .labels import (
    AndC, ArithT, CmpC, DegT, IntT, LabelPattern, NotC, OrC, VarT,
    VAR_KINDS, format_label,
)
from .rules import PatternEdge, PatternGraph, PatternNode, Rule

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<int>\d+)
      | (?P<str>"[^"\n]*")
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<punct>=>|!=|<=|>=|[()\[\]{}|,;:=!<>#+\-])
    """,
    re.VERBOSE,
)


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
            tokens.append(Token("int", int(val), line, col))
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

    def peek(self, ahead=0) -> Token:
        i = min(self.pos + ahead, len(self.toks) - 1)
        return self.toks[i]

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
            got = "end of input" if tok.kind == "eof" else repr(tok.value)
            raise ParseError(f"expected {want!r}, found {got}", tok.line, tok.col)
        return self.take()

    def error(self, msg: str):
        tok = self.peek()
        raise ParseError(msg, tok.line, tok.col)

    # -- shared pieces ------------------------------------------------------

    def parse_id(self, prefixes=("n", "e")) -> int:
        tok = self.peek()
        if tok.kind == "int":
            self.take()
            return tok.value
        if tok.kind == "ident":
            m = re.fullmatch(rf"[{''.join(prefixes)}](\d+)", tok.value)
            if m:
                self.take()
                return int(m.group(1))
        self.error("expected a node/edge id")

    def parse_mark(self, allowed, context) -> str:
        self.expect("punct", "#")
        tok = self.expect("ident")
        if tok.value not in allowed:
            raise ParseError(f"unknown mark #{tok.value} in {context}", tok.line, tok.col)
        return tok.value

    def parse_host_label(self) -> tuple:
        if self.at("ident", "empty"):
            self.take()
            return ()
        atoms = [self.parse_host_atom()]
        while self.accept("punct", ":"):
            atoms.append(self.parse_host_atom())
        return tuple(atoms)

    def parse_host_atom(self):
        tok = self.peek()
        if tok.kind == "int":
            self.take()
            return tok.value
        if tok.kind == "str":
            self.take()
            return tok.value
        if self.accept("punct", "-"):
            t = self.expect("int")
            return -t.value
        self.error("expected an integer or string atom")

    def parse_pattern_label(self, kinds: dict) -> LabelPattern:
        if self.at("ident", "empty"):
            self.take()
            return LabelPattern(())
        items = [self.parse_pattern_atom(kinds)]
        while self.accept("punct", ":"):
            items.append(self.parse_pattern_atom(kinds))
        return LabelPattern(items)

    def parse_pattern_atom(self, kinds: dict):
        tok = self.peek()
        if tok.kind == "int":
            self.take()
            return ("c", tok.value)
        if tok.kind == "str":
            self.take()
            return ("c", tok.value)
        if self.accept("punct", "-"):
            t = self.expect("int")
            return ("c", -t.value)
        if tok.kind == "ident":
            self.take()
            kind = kinds.get(tok.value)
            if kind is None:
                raise ParseError(f"undeclared variable {tok.value!r}", tok.line, tok.col)
            return ("v", tok.value, kind)
        self.error("expected an atom or variable")

    # -- host graphs --------------------------------------------------------

    def parse_host(self) -> HostGraph:
        g = HostGraph()
        seen_edges = {}
        self.expect("punct", "[")
        while self.at("punct", "("):
            tok = self.take()
            nid = self.parse_id(prefixes=("n",))
            rooted = False
            if self.accept("punct", "("):
                self.expect("ident", "R")
                self.expect("punct", ")")
                rooted = True
            self.expect("punct", ",")
            label = self.parse_host_label()
            mark = "none"
            if self.at("punct", "#"):
                mark = self.parse_mark(
                    [m for m in NODE_MARKS if m != "none"], "host node")
            self.expect("punct", ")")
            if nid in g.nodes:
                raise ParseError(f"duplicate node id n{nid}", tok.line, tok.col)
            g._raw_insert_node(nid, label, mark, rooted, 0)
        self.expect("punct", "|")
        while self.at("punct", "("):
            tok = self.take()
            eid = self.parse_id(prefixes=("e",))
            self.expect("punct", ",")
            src = self.parse_id(prefixes=("n",))
            self.expect("punct", ",")
            tgt = self.parse_id(prefixes=("n",))
            self.expect("punct", ",")
            label = self.parse_host_label()
            mark = "none"
            if self.at("punct", "#"):
                mark = self.parse_mark(
                    [m for m in EDGE_MARKS if m != "none"], "host edge")
            self.expect("punct", ")")
            if eid in seen_edges:
                raise ParseError(f"duplicate edge id e{eid}", tok.line, tok.col)
            if src not in g.nodes or tgt not in g.nodes:
                raise ParseError(
                    f"edge e{eid} references a missing node", tok.line, tok.col)
            seen_edges[eid] = True
            g._raw_insert_edge(eid, src, tgt, label, mark)
        self.expect("punct", "]")
        g._next_node = max(g.nodes, default=-1) + 1
        g._next_edge = max(seen_edges, default=-1) + 1
        # Rooting order for recency: ascending id, as if rooted at build time.
        # The registries must list roots in that order, not in textual order.
        for nid in sorted(g.nodes):
            if g.nodes[nid].rooted:
                g._root_seq += 1
                g.nodes[nid].root_seq = g._root_seq
        g._refile_roots()
        return g

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
                    raise ParseError(f"unknown variable kind {tok.value!r}",
                                     tok.line, tok.col)
                decls.extend((n, tok.value) for n in names)
                if not self.accept("punct", ";"):
                    break
        self.expect("punct", ")")
        return decls

    def parse_pattern_graph(self, kinds: dict) -> PatternGraph:
        pg = PatternGraph()
        self.expect("punct", "[")
        while self.at("punct", "("):
            tok = self.take()
            pid = self.parse_id(prefixes=("n",))
            rooted = False
            if self.accept("punct", "("):
                self.expect("ident", "R")
                self.expect("punct", ")")
                rooted = True
            self.expect("punct", ",")
            label = self.parse_pattern_label(kinds)
            mark = "none"
            if self.at("punct", "#"):
                mark = self.parse_mark(
                    [m for m in NODE_MARKS if m != "none"] + ["any"], "rule node")
            self.expect("punct", ")")
            if pid in pg.nodes:
                raise ParseError(f"duplicate node id {pid}", tok.line, tok.col)
            pg.nodes[pid] = PatternNode(pid, label, mark, rooted)
        self.expect("punct", "|")
        seen = set()
        while self.at("punct", "("):
            tok = self.take()
            eid = self.parse_id(prefixes=("e",))
            self.expect("punct", ",")
            src = self.parse_id(prefixes=("n",))
            self.expect("punct", ",")
            tgt = self.parse_id(prefixes=("n",))
            self.expect("punct", ",")
            label = self.parse_pattern_label(kinds)
            mark = "none"
            if self.at("punct", "#"):
                mark = self.parse_mark(
                    [m for m in EDGE_MARKS if m != "none"] + ["any"], "rule edge")
            self.expect("punct", ")")
            if eid in seen:
                raise ParseError(f"duplicate edge id {eid}", tok.line, tok.col)
            seen.add(eid)
            if src not in pg.nodes or tgt not in pg.nodes:
                raise ParseError(
                    f"edge {eid} references a missing node", tok.line, tok.col)
            pg.edges.append(PatternEdge(src, tgt, label, mark))
        self.expect("punct", "]")
        return pg

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
            pids.add(self.parse_id(prefixes=("n",)))
            while self.accept("punct", ","):
                pids.add(self.parse_id(prefixes=("n",)))
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
        if self.accept("ident", "not"):
            return NotC(self.parse_cond_not())
        if self.at("punct", "("):
            self.take()
            inner = self.parse_cond()
            self.expect("punct", ")")
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
            pid = self.parse_id(prefixes=("n",))
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
            self.take()
            cmd = self.parse_command()
            self.expect("punct", ")")
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
                self.take()
                cond = self.parse_post()
                then_part: Command = SKIP
                else_part: Command = SKIP
                if self.accept("ident", "then"):
                    then_part = self.parse_post()
                if self.accept("ident", "else"):
                    else_part = self.parse_post()
                return Try(cond, then_part, else_part)
            if word == "if":
                self.take()
                cond = self.parse_post()
                self.expect("ident", "then")
                then_part = self.parse_post()
                else_part = SKIP
                if self.accept("ident", "else"):
                    else_part = self.parse_post()
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
                rule = self.parse_rule_after_name(name)
                if name in rules or name in procs:
                    raise ParseError(f"duplicate declaration {name!r}",
                                     name_tok.line, name_tok.col)
                rules[name] = rule
            elif self.accept("punct", "="):
                cmd = self.parse_command()
                if name in rules or name in procs:
                    raise ParseError(f"duplicate declaration {name!r}",
                                     name_tok.line, name_tok.col)
                procs[name] = cmd
            else:
                self.error("expected '=' (procedure) or '(' (rule)")
        return Program(rules, procs)


# -- public entry points ---------------------------------------------------------


def parse_host(text: str) -> HostGraph:
    p = _Parser(text)
    g = p.parse_host()
    p.expect("eof")
    return g


def parse_rule(text: str) -> Rule:
    """Parse and validate a single rule declaration."""
    from .rules import validate_rule
    p = _Parser(text)
    name = p.expect("ident").value
    rule = p.parse_rule_after_name(name)
    p.expect("eof")
    validate_rule(rule)
    return rule


def parse_program(text: str, validate: bool = True) -> Program:
    p = _Parser(text)
    program = p.parse_program()
    if validate:
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
            raise ParseError(f"malformed op {raw.strip()!r}", lineno, 1)
        try:
            key = int(fields[1])
        except ValueError:
            raise ParseError(f"malformed key {fields[1]!r}", lineno, 1) from None
        ops.append(Op(fields[0], key))
    return ops


def format_opscript(ops) -> str:
    return "".join(f"{op.kind} {op.key}\n" for op in ops)


def build_instruction_graph(ops) -> HostGraph:
    """Linked list of unmarked instruction nodes, head rooted.

    Node ids are 0..len(ops)-1 in op order; edge i connects op i to op
    i+1.  An empty script yields an empty graph.
    """
    g = HostGraph()
    prev = None
    for i, op in enumerate(ops):
        nid = g.add_node((op.kind, op.key), "none", rooted=(i == 0))
        if prev is not None:
            g.add_edge(prev, nid)
        prev = nid
    return g
