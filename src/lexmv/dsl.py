"""A small declarative language for groups, elements and algebras.

    group   := "Z" | "Q" | "O" | "Aff" | "lex" "(" group "," group ")"
    elem    := rat | "(" elem "," elem ")" | call "(" rat { "," rat } ")"
    algebra := "gamma" "(" group "," elem ")" | "chain" "(" int ")"
             | "prod" "(" algebra "," algebra ")"
    rat     := int [ "/" int ]

A call's keyword and arity are those of a literal rule in gr.KINDS, as
aff(slope,shift) for Aff; like the group names, they are read from KINDS
on every parse.  Parsing builds an AST whose nodes carry (line, column)
spans; semantic construction turns group nodes into specs, element nodes
into values by their spec's literal rule (GroupOps.literal), and algebra
nodes into interval algebras or finite tables.  The printer emits
canonical text, stable under reparse.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional

from . import groups as gr
from .algebra import PmvAlgebra
from .finite import make_chain, make_product
from .groups import GroupSpec, UnitalGroup


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class SemanticError(ParseError):
    pass


# ---------------------------------------------------------------------------
# Tokens


class Token(NamedTuple):
    kind: str  # "name" | "int" | "punct" | "end"
    text: str
    line: int
    col: int


# One alternative per token kind.  Tokens are ASCII; whitespace is any
# Unicode space, and a newline starts a line.  Any other character ends
# in the catch-all "bad".
_TOKEN = re.compile(
    r"(?P<name>[A-Za-z]+)|(?P<int>-?[0-9]+)|(?P<punct>[(),/])|(?P<space>\s)|(?P<bad>.)")


def tokenize(text: str) -> list:
    toks = []
    line, start = 1, 0  # start: the index where the current line begins
    for m in _TOKEN.finditer(text):
        kind, tok, col = m.lastgroup, m.group(), m.start() - start + 1
        if kind == "space":
            if tok == "\n":
                line, start = line + 1, m.end()
        elif kind == "bad":
            raise ParseError(f"unexpected character {tok!r}", line, col)
        else:
            toks.append(Token(kind, tok, line, col))
    toks.append(Token("end", "", line, len(text) - start + 1))
    return toks


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Node:
    span: tuple = field(default=(1, 1), compare=False)


@dataclass(frozen=True)
class GroupNode(Node):
    kind: str = ""
    left: Optional["GroupNode"] = None
    right: Optional["GroupNode"] = None


@dataclass(frozen=True)
class RatNode(Node):
    value: Fraction = Fraction(0)


@dataclass(frozen=True)
class PairNode(Node):
    left: Node = None
    right: Node = None


@dataclass(frozen=True)
class CallNode(Node):
    name: str = ""
    args: tuple = ()  # Fractions


@dataclass(frozen=True)
class GammaNode(Node):
    group: GroupNode = None
    unit: Node = None


@dataclass(frozen=True)
class ChainNode(Node):
    n: int = 1


@dataclass(frozen=True)
class ProdNode(Node):
    left: Node = None
    right: Node = None


# ---------------------------------------------------------------------------
# Parser


MAX_NESTING = 100  # open parentheses; the parser recurses once per level


class _Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.pos = 0
        self.open = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def take(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        if t.text == "(":
            self.open += 1
            if self.open > MAX_NESTING:
                raise ParseError(f"nesting deeper than {MAX_NESTING} levels", t.line, t.col)
        elif t.text == ")":
            self.open -= 1
        return t

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text if text is not None else kind
            got = t.text if t.text else "end of input"
            raise ParseError(f"expected {want!r}, got {got!r}", t.line, t.col)
        return self.take()

    def args(self, *rules) -> list:
        """'(' then the rules separated by ',' then ')': the rules' nodes."""
        self.expect("punct", "(")
        out = []
        for i, rule in enumerate(rules):
            if i:
                self.expect("punct", ",")
            out.append(rule())
        self.expect("punct", ")")
        return out

    def group(self) -> GroupNode:
        t = self.expect("name")
        span = (t.line, t.col)
        if t.text in gr.KINDS:
            return GroupNode(span, t.text)
        if t.text == "lex":
            return GroupNode(span, "lex", *self.args(self.group, self.group))
        raise ParseError(f"unknown group {t.text!r}", t.line, t.col)

    def _int(self) -> int:
        t = self.expect("int")
        try:
            return int(t.text)
        except ValueError as exc:  # more digits than int() converts
            raise ParseError(str(exc), t.line, t.col) from None

    def rat(self) -> RatNode:
        t = self.peek()
        num = self._int()
        nxt = self.peek()
        if nxt.kind == "punct" and nxt.text == "/":
            self.take()
            den = self._int()
            if den == 0:
                raise ParseError("zero denominator", t.line, t.col)
            return RatNode((t.line, t.col), Fraction(num, den))
        return RatNode((t.line, t.col), Fraction(num))

    def elem(self) -> Node:
        t = self.peek()
        span = (t.line, t.col)
        if t.kind == "int":
            return self.rat()
        if t.kind == "punct" and t.text == "(":
            return PairNode(span, *self.args(self.elem, self.elem))
        forms = [ops.literal[0] for ops in gr.KINDS.values()]
        calls = dict(f for f in forms if isinstance(f, tuple))  # keyword -> arity
        if t.kind == "name" and t.text in calls:
            self.take()
            args = self.args(*[self.rat] * calls[t.text])
            return CallNode(span, t.text, tuple(a.value for a in args))
        raise ParseError(f"expected an element, got {t.text!r}", t.line, t.col)

    def algebra(self) -> Node:
        t = self.expect("name")
        span = (t.line, t.col)
        if t.text == "gamma":
            return GammaNode(span, *self.args(self.group, self.elem))
        if t.text == "chain":
            (n,) = self.args(self._int)
            if n < 1:
                raise SemanticError("chain needs n >= 1", *span)
            return ChainNode(span, n)
        if t.text == "prod":
            return ProdNode(span, *self.args(self.algebra, self.algebra))
        raise ParseError(f"unknown algebra {t.text!r}", t.line, t.col)


def _parse(text: str, rule) -> Node:
    """Run one _Parser rule over the whole of text."""
    p = _Parser(text)
    node = rule(p)
    t = p.peek()
    if t.kind != "end":
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    return node


def parse(text: str) -> Node:
    return _parse(text, _Parser.algebra)


def parse_group(text: str) -> GroupNode:
    return _parse(text, _Parser.group)


def parse_elem(text: str) -> Node:
    return _parse(text, _Parser.elem)


# ---------------------------------------------------------------------------
# Printer


def print_ast(node: Node) -> str:
    if isinstance(node, GroupNode):
        if node.kind == "lex":
            return f"lex({print_ast(node.left)},{print_ast(node.right)})"
        return node.kind
    if isinstance(node, RatNode):
        return str(node.value)
    if isinstance(node, PairNode):
        return f"({print_ast(node.left)},{print_ast(node.right)})"
    if isinstance(node, CallNode):
        return f"{node.name}({','.join(map(str, node.args))})"
    if isinstance(node, GammaNode):
        return f"gamma({print_ast(node.group)},{print_ast(node.unit)})"
    if isinstance(node, ChainNode):
        return f"chain({node.n})"
    if isinstance(node, ProdNode):
        return f"prod({print_ast(node.left)},{print_ast(node.right)})"
    raise TypeError(f"not an AST node: {node!r}")


# ---------------------------------------------------------------------------
# Semantic construction


def build_group(node: GroupNode) -> GroupSpec:
    if node.kind == "lex":
        left = build_group(node.left)
        right = build_group(node.right)
        try:
            return gr.lex(left, right)
        except ValueError as exc:
            raise SemanticError(str(exc), *node.span) from None
    return GroupSpec(node.kind)


def build_elem(spec: GroupSpec, node: Node):
    """The value of a literal node in spec, by spec.ops.literal's rule."""
    form, make, error = spec.ops.literal
    if form == "pair" and isinstance(node, PairNode):
        parts = (build_elem(spec.left, node.left), build_elem(spec.right, node.right))
    elif form == "num" and isinstance(node, RatNode):
        parts = (node.value,)
    elif isinstance(node, CallNode) and (node.name, len(node.args)) == form:
        parts = node.args
    else:
        raise SemanticError(error, *node.span)
    try:
        return make(*parts)
    except (gr.ShapeError, ValueError) as exc:
        raise SemanticError(str(exc), *node.span) from None


def build_algebra(node: Node):
    """A GammaNode becomes a PmvAlgebra; chain/prod become FiniteMv tables."""
    if isinstance(node, GammaNode):
        spec = build_group(node.group)
        unit = build_elem(spec, node.unit)
        try:
            return PmvAlgebra(UnitalGroup(spec, unit))
        except (gr.ShapeError, ValueError) as exc:
            raise SemanticError(str(exc), *node.span) from None
    if isinstance(node, (ChainNode, ProdNode)):
        return finite(node)[1]()
    raise TypeError(f"not an algebra node: {node!r}")


def finite(node: Node) -> tuple:
    """(size, build) for the table an algebra node describes: its element
    count, and a build() that makes it; no table exists before the call.
    chain(n) has n+1 elements and prod multiplies.  A gamma is built once,
    and is chain(n) when its group's rule GroupOps.chain says so, as for
    Gamma(Z, n) and Gamma(lex(O,Z),(0,n)).  Any other node raises the
    error its build would, in source order, or "is not a finite algebra"
    at its span."""
    if isinstance(node, ProdNode):
        (m, left), (n, right) = finite(node.left), finite(node.right)
        return m * n, lambda: make_product(left(), right())
    if isinstance(node, ChainNode):
        n = node.n
    else:
        alg = build_algebra(node)
        n = alg.ops.chain(alg.unit)
        if n is None:
            raise SemanticError(f"{alg} is not a finite algebra", *node.span)
    return n + 1, lambda: make_chain(n)
