"""Constraint expression language: lexer, parser, typechecker, compiler.

The lexer turns a constraint into (kind, text, position) tuples, one per
token, and classifies each keyword there, once; the parser compares kinds
only (see `tokenize`).

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

_WORD = r"[A-Za-z0-9_][A-Za-z0-9_.\-]*"  # a bare word, for the lexer and the printer

# one match per token, leading whitespace skipped: a symbol, a quoted
# string, a bare word or any other character.  Only trailing whitespace is
# left out of every match, so finditer skips nothing else.
_TOKEN_RE = re.compile(rf'\s*(?:(<->|->|!=|[=(){{}},])|"([^"]*)"|({_WORD})|(\S))')


def tokenize(source: str) -> list[tuple[str, str, int]]:
    """The tokens of a constraint, each a (kind, text, position) tuple,
    ending with ("END", "", len(source)).  A symbol's kind is its text, a
    bare word's is its upper-cased keyword or WORD, and a quoted string's
    is STRING, with the quotes dropped from its text and the opening quote
    as its position.  Keywords are classified here, once."""
    tokens = []
    for m in _TOKEN_RE.finditer(source):
        symbol, string, word, other = m.groups()
        if symbol:
            tokens.append((symbol, symbol, m.start(1)))
        elif word:
            kind = word.upper()
            tokens.append((kind if kind in KEYWORDS else "WORD", word, m.start(3)))
        elif other:
            pos = m.start(4)
            raise LexicalError(f"unexpected character {other!r} at position {pos}", pos)
        else:
            tokens.append(("STRING", string, m.start(2) - 1))
    tokens.append(("END", "", len(source)))
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
_INFIX_NODE = {kind: node for node, kind in _INFIX.items()}  # by token kind
_LABEL_KINDS = {"WORD", "STRING", *KEYWORDS}  # in value position, keywords too


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = iter(tokens)
        self.kind, self.text, self.position = next(self.tokens)

    def advance(self) -> str:
        """The current token's text; moves on to the next token."""
        text = self.text
        self.kind, self.text, self.position = next(self.tokens)
        return text

    def fail(self, expected: str):
        shown = "end of input" if self.kind == "END" else repr(self.text)
        raise ConstraintSyntaxError(
            f"expected {expected}, found {shown} at position {self.position}",
            self.position)

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
            while self.kind == "NOT" or self.kind == "(":
                paren = self.kind == "("
                pending.append([None, 0] if paren else [Not, 1])
                depth += paren
                self.advance()
            operands.append(self.atom())
            while depth and self.kind == ")":
                apply(0)
                pending.pop()
                depth -= 1
                self.advance()
            node = _INFIX_NODE.get(self.kind)
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
        kind = self.kind
        if kind == "TRUE" or kind == "FALSE":
            self.advance()
            return BoolLit(kind == "TRUE")
        if kind != "WORD":
            self.fail("attribute name, TRUE/FALSE, NOT or '('")
        attr = self.advance()
        if self.kind == "=":
            self.advance()
            return Equals(attr, self.value())
        if self.kind == "!=":
            self.advance()
            return NotEquals(attr, self.value())
        if self.kind == "IN":
            self.advance()
            if self.kind != "{":
                self.fail("'{'")
            self.advance()
            values = [self.value()]
            while self.kind == ",":
                self.advance()
                values.append(self.value())
            if self.kind != "}":
                self.fail("'}' or ','")
            self.advance()
            return In(attr, tuple(values))
        self.fail("'=', '!=' or IN after attribute name")

    def value(self) -> str:
        if self.kind in _LABEL_KINDS:
            return self.advance()
        self.fail("value label")


def parse(source: str) -> Expr:
    """Parse one constraint expression, nested to any depth; raises
    LexicalError/ConstraintSyntaxError."""
    parser = _Parser(tokenize(source))
    node = parser.expr()
    if parser.kind != "END":
        parser.fail("end of input")
    return node


# ----------------------------------------------------------------------
# printer (inverse of parse up to whitespace)

_BARE_RE = re.compile(_WORD)


def _quote(label: str) -> str:
    return label if _BARE_RE.fullmatch(label) else f'"{label}"'


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
            fn = encoding.value_set(manager, model.index(e.attr), codes)
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
