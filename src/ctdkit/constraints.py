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

import re
from dataclasses import dataclass
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
        return self.iff()

    def iff(self) -> Expr:
        node = self.impl()
        while self.tok.kind == "DARROW":
            self.advance()
            node = Iff(node, self.impl())
        return node

    def impl(self) -> Expr:
        node = self.or_()
        if self.tok.kind == "ARROW":
            self.advance()
            node = Implies(node, self.impl())
        return node

    def or_(self) -> Expr:
        children = [self.and_()]
        while self.keyword() == "OR":
            self.advance()
            children.append(self.and_())
        return children[0] if len(children) == 1 else Or(tuple(children))

    def and_(self) -> Expr:
        children = [self.unary()]
        while self.keyword() == "AND":
            self.advance()
            children.append(self.unary())
        return children[0] if len(children) == 1 else And(tuple(children))

    def unary(self) -> Expr:
        if self.keyword() == "NOT":
            self.advance()
            return Not(self.unary())
        if self.tok.kind == "LPAREN":
            self.advance()
            node = self.expr()
            if self.tok.kind != "RPAREN":
                self.fail("')'")
            self.advance()
            return node
        return self.atom()

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
    """Parse one constraint expression; raises LexicalError/ConstraintSyntaxError.

    The parser recurses once per nesting level, so an expression nested
    past the interpreter's recursion limit is a syntax error at the token
    where the limit was reached."""
    parser = _Parser(tokenize(source))
    try:
        node = parser.expr()
    except RecursionError:
        position = parser.tok.position
        raise ConstraintSyntaxError(
            f"expression nested too deeply at position {position}", position) from None
    if parser.tok.kind != "END":
        parser.fail("end of input")
    return node


# ----------------------------------------------------------------------
# printer (inverse of parse up to whitespace)

_BARE_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.\-]*\Z")

_PRECEDENCE = {Iff: 0, Implies: 1, Or: 2, And: 3, Not: 4}


def _prec(e: Expr) -> int:
    return _PRECEDENCE.get(type(e), 5)


def _quote(label: str) -> str:
    return label if _BARE_RE.match(label) else f'"{label}"'


def format_expr(e: Expr) -> str:
    """Render an AST back to source; parse(format_expr(e)) == e."""
    return _fmt(e, 0)


def _fmt(e: Expr, min_prec: int) -> str:
    if isinstance(e, Equals):
        text = f"{e.attr} = {_quote(e.value)}"
    elif isinstance(e, NotEquals):
        text = f"{e.attr} != {_quote(e.value)}"
    elif isinstance(e, In):
        inner = ", ".join(_quote(v) for v in e.values)
        text = f"{e.attr} IN {{{inner}}}"
    elif isinstance(e, BoolLit):
        text = "TRUE" if e.value else "FALSE"
    elif isinstance(e, Not):
        text = f"NOT {_fmt(e.child, 4)}"
    elif isinstance(e, And):
        text = " AND ".join(_fmt(c, 4) for c in e.children)
    elif isinstance(e, Or):
        text = " OR ".join(_fmt(c, 3) for c in e.children)
    elif isinstance(e, Implies):
        text = f"{_fmt(e.lhs, 2)} -> {_fmt(e.rhs, 1)}"
    elif isinstance(e, Iff):
        text = f"{_fmt(e.lhs, 0)} <-> {_fmt(e.rhs, 1)}"
    else:
        raise TypeError(f"not an expression node: {e!r}")
    if _prec(e) < min_prec:
        return f"({text})"
    return text


# ----------------------------------------------------------------------
# typecheck and compile

def typecheck(e: Expr, model: "Model") -> Expr:
    """Resolve every attribute/value reference; returns the checked AST."""
    if isinstance(e, (Equals, NotEquals, In)):
        for value in (e.values if isinstance(e, In) else (e.value,)):
            model.resolve(e.attr, value)
    elif isinstance(e, Not):
        typecheck(e.child, model)
    elif isinstance(e, (And, Or)):
        for child in e.children:
            typecheck(child, model)
    elif isinstance(e, (Implies, Iff)):
        typecheck(e.lhs, model)
        typecheck(e.rhs, model)
    elif not isinstance(e, BoolLit):
        raise TypeError(f"not an expression node: {e!r}")
    return e


def attributes_of(e: Expr) -> set[str]:
    """Names of the attributes an expression mentions, whether or not it
    depends on them."""
    if isinstance(e, (Equals, NotEquals, In)):
        return {e.attr}
    if isinstance(e, Not):
        return attributes_of(e.child)
    if isinstance(e, (And, Or)):
        return set().union(*map(attributes_of, e.children))
    if isinstance(e, (Implies, Iff)):
        return attributes_of(e.lhs) | attributes_of(e.rhs)
    return set()


def compile_expr(e: Expr, model: "Model", encoding: "Encoding",
                 manager: "BDD") -> "Function":
    """Compile a typechecked AST to a function over the encoding's variables."""
    if isinstance(e, (Equals, NotEquals, In)):
        labels = e.values if isinstance(e, In) else (e.value,)
        codes = [model.resolve(e.attr, value)[1] for value in labels]
        fn = encoding.value_set(manager, model.attribute_index(e.attr), codes)
        return ~fn if isinstance(e, NotEquals) else fn  # true on unused codes too
    if isinstance(e, Not):
        return ~compile_expr(e.child, model, encoding, manager)
    if isinstance(e, And):
        result = manager.true
        for child in e.children:
            result = result & compile_expr(child, model, encoding, manager)
        return result
    if isinstance(e, Or):
        result = manager.false
        for child in e.children:
            result = result | compile_expr(child, model, encoding, manager)
        return result
    if isinstance(e, Implies):
        return compile_expr(e.lhs, model, encoding, manager).implies(
            compile_expr(e.rhs, model, encoding, manager))
    if isinstance(e, Iff):
        return compile_expr(e.lhs, model, encoding, manager).iff(
            compile_expr(e.rhs, model, encoding, manager))
    if isinstance(e, BoolLit):
        return manager.const(e.value)
    raise TypeError(f"not an expression node: {e!r}")
