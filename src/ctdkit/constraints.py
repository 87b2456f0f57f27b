"""Constraint expression language: lexer, parser, typechecker, compiler.

Grammar (keywords case-insensitive, identifiers and value labels
case-sensitive):

    expr  := iff
    iff   := impl ("<->" impl)*            # left-associative
    impl  := or ("->" impl)?               # right-associative
    or    := and (OR and)*
    and   := unary (AND unary)*
    unary := NOT unary | "(" expr ")" | atom
    atom  := ident "=" value
           | ident "!=" value
           | ident IN "{" value ("," value)* "}"
           | TRUE | FALSE

Precedence, tightest first: NOT, AND, OR, "->", "<->".  A bare word is
``[A-Za-z0-9_][A-Za-z0-9_.\\-]*``; value labels containing spaces or other
characters must be double-quoted ("2-5 working days").  In value position
any bare word is taken verbatim, so ``WriteAction=true`` works even though
TRUE is a keyword elsewhere.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING, Union

from .errors import ConstraintSyntaxError, LexicalError

if TYPE_CHECKING:
    from .bdd import BDD, Function
    from .model import Encoding, Model


# ----------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class Equals:
    attr: str
    value: str


@dataclass(frozen=True)
class NotEquals:
    attr: str
    value: str


@dataclass(frozen=True)
class In:
    attr: str
    values: tuple[str, ...]


@dataclass(frozen=True)
class Not:
    child: "Expr"


@dataclass(frozen=True)
class And:
    children: tuple["Expr", ...]


@dataclass(frozen=True)
class Or:
    children: tuple["Expr", ...]


@dataclass(frozen=True)
class Implies:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Iff:
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class BoolLit:
    value: bool


Expr = Union[Equals, NotEquals, In, Not, And, Or, Implies, Iff, BoolLit]

KEYWORDS = {"AND", "OR", "NOT", "IN", "TRUE", "FALSE"}


def _children(e: Expr) -> tuple:
    """Operands of a node, left to right; none for an atom."""
    kind = type(e)
    if kind is Equals or kind is NotEquals or kind is In or kind is BoolLit:
        return ()
    if kind is And or kind is Or:
        return e.children
    if kind is Implies or kind is Iff:
        return (e.lhs, e.rhs)
    if kind is Not:
        return (e.child,)
    raise TypeError(f"not an expression node: {e!r}")


def _references(e: Expr):
    """The attribute references of an expression, left to right."""
    stack = [e]
    while stack:
        e = stack.pop()
        children = _children(e)
        if children:
            stack.extend(reversed(children))
        elif not isinstance(e, BoolLit):
            yield e


def _fold(e: Expr, combine):
    """The root's value, where a node's value is combine(node, its operands,
    their values), computed operands first."""
    nodes, stack = [], [e]
    while stack:  # parents first, last operand first
        e = stack.pop()
        children = _children(e)
        nodes.append((e, children))
        stack.extend(children)
    values = []
    for e, children in reversed(nodes):  # operands first, left to right
        cut = len(values) - len(children)
        values[cut:] = [combine(e, children, values[cut:])]
    return values[0]


# ----------------------------------------------------------------------
# lexer

@dataclass(frozen=True)
class Token:
    kind: str  # WORD STRING EQ NEQ ARROW DARROW LPAREN RPAREN LBRACE RBRACE COMMA END
    text: str
    position: int


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<darrow><->)
  | (?P<arrow>->)
  | (?P<neq>!=)
  | (?P<eq>=)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<lbrace>\{)
  | (?P<rbrace>\})
  | (?P<comma>,)
  | (?P<string>"[^"]*")
  | (?P<word>[A-Za-z0-9_][A-Za-z0-9_.\-]*)
    """,
    re.VERBOSE,
)

_KIND = {
    "darrow": "DARROW", "arrow": "ARROW", "neq": "NEQ", "eq": "EQ",
    "lparen": "LPAREN", "rparen": "RPAREN", "lbrace": "LBRACE",
    "rbrace": "RBRACE", "comma": "COMMA", "string": "STRING", "word": "WORD",
}


def tokenize(source: str) -> list[Token]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise LexicalError(
                f"unexpected character {source[pos]!r} at position {pos}", pos)
        group = m.lastgroup
        if group != "ws":
            text = m.group()
            if group == "string":
                text = text[1:-1]
            tokens.append(Token(_KIND[group], text, pos))
        pos = m.end()
    tokens.append(Token("END", "", len(source)))
    return tokens


# ----------------------------------------------------------------------
# parser

# binding strength, loosest first, for the parser and the printer; atoms bind at 5
_PRECEDENCE = {Iff: 0, Implies: 1, Or: 2, And: 3, Not: 4}
# the operand that holds a node of its parent's level without parentheses:
# "<->" is left-associative and "->" right-associative; AND and OR have none,
# since a run of either is one node
_SAME_LEVEL_OPERAND = {Not: 0, Iff: 0, Implies: 1}
_INFIX = {Iff: "<->", Implies: "->", Or: "OR", And: "AND"}
_INFIX_NODE = {"DARROW": Iff, "ARROW": Implies, "OR": Or, "AND": And}  # by token


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    @property
    def tok(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected: str):
        tok = self.tok
        shown = "end of input" if tok.kind == "END" else repr(tok.text)
        raise ConstraintSyntaxError(
            f"expected {expected}, found {shown} at position {tok.position}",
            tok.position)

    def keyword(self) -> str | None:
        """Keyword name if the current token is a bare keyword word."""
        if self.tok.kind == "WORD" and self.tok.text.upper() in KEYWORDS:
            return self.tok.text.upper()
        return None

    def expr(self) -> Expr:
        """Operator-precedence parse (shunting-yard) over a stack of operands
        and one of the operators not yet applied, as [node class, operand
        count]; an open parenthesis is [None, 0].  Nothing recurses."""
        operands, pending, depth = [], [], 0

        def apply(threshold: int) -> None:
            # the pending operators binding at least threshold, back to "("
            while pending and _PRECEDENCE.get(pending[-1][0], -1) >= threshold:
                node, n = pending.pop()
                operands[-n:] = [node(tuple(operands[-n:])) if node in (And, Or)
                                 else node(*operands[-n:])]

        while True:
            while self.keyword() == "NOT" or self.tok.kind == "LPAREN":
                paren = self.advance().kind == "LPAREN"
                pending.append([None, 0] if paren else [Not, 1])
                depth += paren
            operands.append(self.atom())
            while depth and self.tok.kind == "RPAREN":
                apply(0)
                pending.pop()
                depth -= 1
                self.advance()
            node = _INFIX_NODE.get(self.keyword() or self.tok.kind)
            if node is None:
                if depth:
                    self.fail("')'")
                apply(0)
                return operands[0]
            level = _PRECEDENCE[node]
            apply(level if _SAME_LEVEL_OPERAND.get(node) == 0 else level + 1)
            if node in (And, Or) and pending and pending[-1][0] is node:
                pending[-1][1] += 1
            else:
                pending.append([node, 2])
            self.advance()

    def atom(self) -> Expr:
        kw = self.keyword()
        if kw in ("TRUE", "FALSE"):
            self.advance()
            return BoolLit(kw == "TRUE")
        if self.tok.kind != "WORD" or kw is not None:
            self.fail("attribute name, TRUE/FALSE, NOT or '('")
        attr = self.advance().text
        if self.tok.kind == "EQ":
            self.advance()
            return Equals(attr, self.value())
        if self.tok.kind == "NEQ":
            self.advance()
            return NotEquals(attr, self.value())
        if self.keyword() == "IN":
            self.advance()
            if self.tok.kind != "LBRACE":
                self.fail("'{'")
            self.advance()
            values = [self.value()]
            while self.tok.kind == "COMMA":
                self.advance()
                values.append(self.value())
            if self.tok.kind != "RBRACE":
                self.fail("'}' or ','")
            self.advance()
            return In(attr, tuple(values))
        self.fail("'=', '!=' or IN after attribute name")

    def value(self) -> str:
        if self.tok.kind in ("WORD", "STRING"):
            return self.advance().text
        self.fail("value label")


def parse(source: str) -> Expr:
    """Parse one constraint expression, nested to any depth; raises
    LexicalError/ConstraintSyntaxError."""
    parser = _Parser(tokenize(source))
    node = parser.expr()
    if parser.tok.kind != "END":
        parser.fail("end of input")
    return node


# ----------------------------------------------------------------------
# printer (inverse of parse up to whitespace)

_BARE_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.\-]*\Z")


def _quote(label: str) -> str:
    return label if _BARE_RE.match(label) else f'"{label}"'


def format_expr(e: Expr) -> str:
    """Render an AST back to source; parse(format_expr(e)) == e."""
    def combine(e, children, texts):
        if isinstance(e, Equals):
            return f"{e.attr} = {_quote(e.value)}"
        if isinstance(e, NotEquals):
            return f"{e.attr} != {_quote(e.value)}"
        if isinstance(e, In):
            return f"{e.attr} IN {{{', '.join(map(_quote, e.values))}}}"
        if isinstance(e, BoolLit):
            return "TRUE" if e.value else "FALSE"
        level = _PRECEDENCE[type(e)] + 1
        same = _SAME_LEVEL_OPERAND.get(type(e))
        texts = [f"({text})" if _PRECEDENCE.get(type(child), 5) < level - (i == same)
                 else text for i, (child, text) in enumerate(zip(children, texts))]
        if isinstance(e, Not):
            return f"NOT {texts[0]}"
        return f" {_INFIX[type(e)]} ".join(texts)

    return _fold(e, combine)


# ----------------------------------------------------------------------
# typecheck and compile

def typecheck(e: Expr, model: "Model") -> Expr:
    """Resolve every attribute/value reference, leftmost first; returns the AST."""
    for ref in _references(e):
        for value in (ref.values if isinstance(ref, In) else (ref.value,)):
            model.resolve(ref.attr, value)
    return e


def attributes_of(e: Expr) -> set[str]:
    """Names of the attributes an expression mentions, whether or not it
    depends on them."""
    return {ref.attr for ref in _references(e)}


def compile_expr(e: Expr, model: "Model", encoding: "Encoding",
                 manager: "BDD") -> "Function":
    """Compile a typechecked AST to a function over the encoding's variables."""
    def combine(e, children, fns):
        if isinstance(e, (Equals, NotEquals, In)):
            labels = e.values if isinstance(e, In) else (e.value,)
            codes = [model.resolve(e.attr, value)[1] for value in labels]
            fn = encoding.value_set(manager, model.attribute_index(e.attr), codes)
            return ~fn if isinstance(e, NotEquals) else fn  # true on unused codes too
        if isinstance(e, BoolLit):
            return manager.const(e.value)
        if isinstance(e, Not):
            return ~fns[0]
        if isinstance(e, Implies):
            return fns[0].implies(fns[1])
        if isinstance(e, Iff):
            return fns[0].iff(fns[1])
        if isinstance(e, And):
            return reduce(operator.and_, fns, manager.true)
        return reduce(operator.or_, fns, manager.false)

    return _fold(e, combine)
