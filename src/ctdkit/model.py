"""Test-space models: attributes, values, constraints, and their encoding.

A `Model` is the user-facing artifact: an ordered list of attributes with
ordered value domains (optionally carrying integer subdomain ranges),
constraint expression strings, and optional explicit requirement tuples
(directives).  `build_encoding` maps each attribute to a block of Boolean
variables (log encoding, most-significant bit first).  The blocks keep
declaration order when every constraint's attributes form a contiguous run
of it; otherwise they follow a breadth-first numbering of the constraint
graph, if that lowers the constraints' summed span (`_block_order`).
Everything a user sees stays in declaration order.  `ModelSpace` binds a
model to a BDD manager holding its legal space,

    validity AND constraint_1 AND ... AND constraint_k

where validity holds each block to a code below its domain size (a
value's code is its index), so tuple counts over it equal counts of legal
tests.  Every attribute predicate (validity, `=`, `!=`, `IN`, a `project`
binding) is `Encoding.value_set`, one truth table over its block
(`BDD.table`).  The space is kept only as one factor per constraint
component, built bottom-up: of the validity blocks with unused codes and
the constraints in it, the function whose root variable is deepest is
conjoined first.  Counting, projection, enumeration and judging imported
rows all read the factors; their AND is never built (a conjunctively
partitioned relation, Burch, Clarke & Long 1991).  Each per-component
question has one method: `split` gives a function's viable values of one
attribute with their cofactors, `bind` cofactors the factors that
bindings touch, and `marginals` projects each piece (`pieces`) from its
own component's factor, so no method ANDs two factors.

Model document (JSON):

    {
      "attributes": [
        {"name": "Cache", "values": ["on", "off"]},
        {"name": "Writes", "values": [{"label": "small", "range": [1, 10]}]}
      ],
      "constraints": ["Cache = off -> Writes != small"],
      "directives": [[{"attr": "Cache", "value": "on"}, ...], ...]
    }

Ranges are half-open integer intervals [lo, hi); both bounds are required.
Unknown fields anywhere are rejected.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

from . import constraints
from .bdd import BDD, Function
from .errors import (
    ConstraintError,
    CtdError,
    InfeasibleModelError,
    ModelFormatError,
    UnknownAttributeError,
    UnknownValueError,
)


@dataclass(frozen=True)
class Value:
    """One element of an attribute's domain, optionally a subdomain range."""
    label: str
    range: tuple[int, int] | None = None


@dataclass(frozen=True)
class Attribute:
    name: str
    values: tuple[Value, ...]

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(v.label for v in self.values)

    def index_of(self, label: str) -> int | None:
        return self._label_index.get(label)

    @cached_property
    def _label_index(self) -> dict[str, int]:
        # the first of duplicated labels wins; validation reports the rest
        index: dict[str, int] = {}
        for i, v in enumerate(self.values):
            index.setdefault(v.label, i)
        return index

    @property
    def size(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class Model:
    attributes: tuple[Attribute, ...]
    constraints: tuple[str, ...] = ()
    directives: tuple[tuple[tuple[str, str], ...], ...] = ()

    @cached_property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    def index(self, name: str) -> int:
        """The index of a declared attribute; raises UnknownAttributeError."""
        i = self._name_index.get(name)
        if i is None:
            raise UnknownAttributeError(name)
        return i

    @cached_property
    def _name_index(self) -> dict[str, int]:
        # the first of duplicated names wins; validation reports the rest
        index: dict[str, int] = {}
        for i, a in enumerate(self.attributes):
            index.setdefault(a.name, i)
        return index

    @cached_property
    def _bindings(self) -> frozenset[tuple[str, str]]:
        """Every (attribute, label) pair that `resolve` accepts."""
        return frozenset((name, label) for name, ai in self._name_index.items()
                         for label in self.attributes[ai]._label_index)

    def resolve(self, attr: str, label: str) -> tuple[int, int]:
        """The indices of an attribute and of one of its values."""
        ai = self.index(attr)
        vi = self.attributes[ai].index_of(label)
        if vi is None:
            raise UnknownValueError(attr, label)
        return ai, vi

    def attribute(self, name: str) -> Attribute:
        return self.attributes[self.index(name)]

    def cartesian_count(self) -> int:
        """Size of the full Cartesian product, ignoring constraints."""
        n = 1
        for a in self.attributes:
            n *= a.size
        return n

    def check_assignment(self, assignment: dict[str, str]) -> None:
        """Typecheck a full test: UnknownAttributeError or UnknownValueError
        at its first bad binding, then CtdError at an unbound attribute."""
        # the common case in one C-level subset test; anything else goes
        # through the loops for its error
        if (assignment.items() <= self._bindings
                and len(assignment) == len(self.attributes)):
            return
        for name, label in assignment.items():
            self.resolve(name, label)
        for a in self.attributes:
            if a.name not in assignment:
                raise CtdError(f"assignment does not bind attribute {a.name!r}")


# ----------------------------------------------------------------------
# loading

def parse_model(document: dict) -> Model:
    """Build a Model from a parsed JSON document; rejects unknown fields."""
    if not isinstance(document, dict):
        raise ModelFormatError("model document must be a JSON object")
    unknown = set(document) - {"attributes", "constraints", "directives"}
    if unknown:
        raise ModelFormatError(f"unknown model fields: {sorted(unknown)}")
    raw_attrs = document.get("attributes")
    if not isinstance(raw_attrs, list):
        raise ModelFormatError("'attributes' must be a list")
    attributes = tuple(_parse_attribute(a) for a in raw_attrs)

    raw_constraints = document.get("constraints", [])
    if not isinstance(raw_constraints, list) or any(
            not isinstance(c, str) for c in raw_constraints):
        raise ModelFormatError("'constraints' must be a list of strings")

    raw_directives = document.get("directives", [])
    if not isinstance(raw_directives, list):
        raise ModelFormatError("'directives' must be a list")
    directives = tuple(_parse_directive(d) for d in raw_directives)

    return Model(attributes, tuple(raw_constraints), directives)


def _parse_attribute(raw) -> Attribute:
    if not isinstance(raw, dict):
        raise ModelFormatError("each attribute must be an object")
    unknown = set(raw) - {"name", "values"}
    if unknown:
        raise ModelFormatError(f"unknown attribute fields: {sorted(unknown)}")
    name = raw.get("name")
    if not isinstance(name, str) or not name.strip():
        raise ModelFormatError("attribute 'name' must be a non-empty string")
    values = raw.get("values")
    if not isinstance(values, list):
        raise ModelFormatError(f"attribute {name!r}: 'values' must be a list")
    return Attribute(name.strip(), tuple(_parse_value(name, v) for v in values))


def _parse_value(attr_name: str, raw) -> Value:
    if isinstance(raw, str):
        raw = {"label": raw}  # a bare string is a rangeless label
    if not isinstance(raw, dict):
        raise ModelFormatError(
            f"attribute {attr_name!r}: each value must be a string or object")
    unknown = set(raw) - {"label", "range"}
    if unknown:
        raise ModelFormatError(f"unknown value fields: {sorted(unknown)}")
    label = raw.get("label")
    if not isinstance(label, str) or not label.strip():
        raise ModelFormatError(
            f"attribute {attr_name!r}: value label must be a non-empty string")
    rng = raw.get("range")
    if rng is None:
        return Value(label.strip())
    if (not isinstance(rng, list) or len(rng) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in rng)):
        raise ModelFormatError(
            f"value {label!r}: 'range' must be a two-integer [lo, hi) interval; "
            "unbounded subdomains need an explicit upper bound")
    lo, hi = rng
    if lo >= hi:
        raise ModelFormatError(f"value {label!r}: empty range [{lo}, {hi})")
    return Value(label.strip(), (lo, hi))


def _parse_directive(raw) -> tuple[tuple[str, str], ...]:
    if not isinstance(raw, list) or not raw:
        raise ModelFormatError("each directive must be a non-empty list of bindings")
    bindings = []
    for b in raw:
        if not isinstance(b, dict) or set(b) != {"attr", "value"}:
            raise ModelFormatError(
                "each directive binding must be an object {attr, value}")
        if not isinstance(b["attr"], str) or not isinstance(b["value"], str):
            raise ModelFormatError("directive 'attr' and 'value' must be strings")
        bindings.append((b["attr"].strip(), b["value"].strip()))
    return tuple(bindings)


def load_model(path) -> Model:
    """Load a model document from a JSON file.  A file that `json` cannot
    read (not UTF-8, invalid, nested past the recursion limit, or holding
    an integer longer than `int()` reads), or with an object that repeats a
    key (`json` would keep the last silently), raises ModelFormatError
    naming it."""
    def unique_keys(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [key for key, _ in pairs]
            repeated = next(key for i, key in enumerate(keys) if key in keys[:i])
            raise ModelFormatError(f"{path}: key {repeated!r} repeats in one object")
        return obj

    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            document = json.load(fh, object_pairs_hook=unique_keys)
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"{path}: not UTF-8 text: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"{path}: invalid JSON: {exc}") from exc
        except ValueError as exc:  # an integer past the digit limit
            # its message ends in advice to raise the limit: drop that
            reason = str(exc).partition(";")[0]
            raise ModelFormatError(f"{path}: unreadable number: {reason}") from exc
        except RecursionError:
            raise ModelFormatError(f"{path}: JSON nested too deeply") from None
    return parse_model(document)


# ----------------------------------------------------------------------
# encoding

@dataclass(frozen=True)
class Encoding:
    """Attribute blocks of Boolean variables, log-encoded, MSB first.

    `blocks` is indexed by attribute; each block is an ascending run of
    variables, and the blocks follow one another in the order
    `build_encoding` picks."""
    blocks: tuple[tuple[int, ...], ...]
    var_count: int

    def value_bits(self, attr_index: int, value_index: int) -> tuple[int, ...]:
        """Big-endian bit pattern of the value index, one bit per block var."""
        width = len(self.blocks[attr_index])
        return tuple((value_index >> (width - 1 - i)) & 1 for i in range(width))

    def value_set(self, manager: BDD, attr_index: int, value_indices) -> Function:
        """Function true exactly when the block holds the code of one of
        these values; a value's code is its index."""
        block, chosen = self.blocks[attr_index], set(value_indices)
        return manager.table(block, [code in chosen for code in range(1 << len(block))])


def build_encoding(model: Model, asts: list[constraints.Expr]) -> Encoding:
    """Assign disjoint variable blocks in the order `_block_order` picks from
    `asts` (the model's typechecked constraints) alone; deterministic."""
    index = model.index
    links = [sorted({index(name) for name in constraints.attributes_of(ast)})
             for ast in asts]
    blocks: list[tuple[int, ...]] = [()] * len(model.attributes)
    next_var = 0
    for ai in _block_order(len(model.attributes), links):
        width = (model.attributes[ai].size - 1).bit_length()
        blocks[ai] = tuple(range(next_var, next_var + width))
        next_var += width
    return Encoding(tuple(blocks), next_var)


def _block_order(n: int, links: list[list[int]]) -> list[int]:
    """The order of n attributes' blocks, given each constraint's attribute
    indices in ascending order.

    BDD size depends on the variable order (Bryant 1986).  Each factor
    skips the variables of other components, so what the order decides is
    the order inside one component: a zigzag of twenty three-valued
    attributes, `Ai = v0 <-> Ai+10 = v1` and `Ai+10 = v2 <-> Ai+1 = v1`,
    builds 314 nodes in the order picked here and 107,017 in declaration
    order.  Declaration order is kept when every constraint's
    attributes form a contiguous run of it.  Otherwise the attributes are
    numbered breadth-first over the graph that links two attributes named
    by one constraint (Cuthill & McKee 1969): each component from its first
    declared attribute, neighbours in declaration order.  That order is
    kept only if it lowers the constraints' summed span, the distance
    between each one's first and last attribute in the order."""
    if all(run[-1] - run[0] == len(run) - 1 for run in links if run):
        return list(range(n))
    neighbours: list[set[int]] = [set() for _ in range(n)]
    for run in links:
        for ai in run:
            neighbours[ai].update(run)
    order: list[int] = []
    position = [-1] * n
    for start in range(n):
        if position[start] >= 0:
            continue
        position[start] = len(order)
        order.append(start)
        k = len(order) - 1
        while k < len(order):
            for ai in sorted(neighbours[order[k]]):
                if position[ai] < 0:
                    position[ai] = len(order)
                    order.append(ai)
            k += 1
    span = sum(max(position[ai] for ai in run) - min(position[ai] for ai in run)
               for run in links if run)
    if span < sum(run[-1] - run[0] for run in links if run):
        return order
    return list(range(n))


# ----------------------------------------------------------------------
# validation

@dataclass
class ValidationReport:
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def format(self) -> str:
        lines = [f"error: {e}" for e in self.errors]
        lines += [f"warning: {w}" for w in self.warnings]
        lines.append("OK" if self.ok else f"{len(self.errors)} error(s)")
        return "\n".join(lines)


def validate_model(model: Model) -> ValidationReport:
    """Check structure, constraints, and feasibility; never raises.

    A constraint that removes no legal test draws an "eliminates nothing"
    warning.  The check runs on the model's one `ModelSpace` and costs a
    linear number of conjunctions and intersection tests
    (`ModelSpace.redundant_constraints`).  A directive that no legal test
    holds, which coverage never counts, draws a "can never be covered"
    warning.  Only this function computes warnings; the command line's
    other commands build the space once and skip them.
    """
    report, space = _checked_space(model)
    if space is not None:
        for i in space.redundant_constraints():
            report.warnings.append(
                f"constraint {i + 1} eliminates nothing: "
                f"{model.constraints[i]!r}")
        for j, directive in enumerate(model.directives):
            if any(fn.is_false for fn in space.bind(directive).values()):
                report.warnings.append(
                    f"directive {j + 1} can never be covered: no legal test "
                    f"holds {', '.join(f'{a}={v}' for a, v in directive)}")
    return report


def _checked_space(model: Model
                   ) -> tuple[ValidationReport, ModelSpace | None]:
    """Validation errors of a model, and its legal space when there are none.

    Structure, constraint parse and typecheck, and directive errors are all
    collected; an empty legal space, or one too large to compile within the
    interpreter's recursion limit, is reported as an error instead of
    raised.  The space is built once, and it parses the constraints itself,
    so they are parsed again only to list the errors of a model it rejects.
    No warnings are computed.
    """
    report = ValidationReport()
    seen = set()
    for a in model.attributes:
        if a.name in seen:
            report.errors.append(f"duplicate attribute name {a.name!r}")
        seen.add(a.name)
        if a.size == 0:
            report.errors.append(f"attribute {a.name!r} has an empty domain")
        labels = set()
        for v in a.values:
            if v.label in labels:
                report.errors.append(
                    f"attribute {a.name!r} has duplicate value {v.label!r}")
            elif "\x1f" in v.label:  # row_hash's separator: two rows could hash alike
                report.errors.append(f"attribute {a.name!r} value {v.label!r} "
                                     "contains U+001F")
            labels.add(v.label)
    if not model.attributes:
        report.errors.append("model declares no attributes")

    directive_errors = []
    for j, directive in enumerate(model.directives):
        names = [attr for attr, _ in directive]
        if len(set(names)) != len(names):
            directive_errors.append(f"directive {j + 1}: repeated attribute")
        for attr, value in directive:
            try:
                model.resolve(attr, value)
            except UnknownAttributeError:
                directive_errors.append(
                    f"directive {j + 1}: unknown attribute {attr!r}")
            except UnknownValueError:
                directive_errors.append(
                    f"directive {j + 1}: unknown value {value!r} for {attr!r}")

    if not report.errors and not directive_errors:
        try:
            return report, ModelSpace(model)
        except InfeasibleModelError:
            report.errors.append(
                "constraints leave no legal test (the legal space is empty)")
            return report, None
        except RecursionError:
            report.errors.append("model is too large to compile within the "
                                 "interpreter's recursion limit")
            return report, None
        except ConstraintError:
            pass  # listed below, with every other constraint that fails
    for i, source in enumerate(model.constraints):
        try:
            constraints.typecheck(constraints.parse(source), model)
        except ConstraintError as exc:
            report.errors.append(f"constraint {i + 1}: {exc}")
    report.errors += directive_errors
    return report, None


# ----------------------------------------------------------------------
# the bound symbolic space

class ModelSpace:
    """A model bound to one BDD manager with its legal space built as one
    factor per constraint component.

    `component_of` maps each attribute name to its component, keyed by its
    least attribute index: attributes are linked when one constraint's BDD
    depends on both (`(A = a AND B = b) OR (A = a AND B != b)` is `A = a`;
    B stays apart).  `factors` maps each component to the AND of the
    conjuncts (validity's blocks and the constraints) in it: disjoint
    supports, each satisfiable, and the legal space is their AND, which
    no method builds.

    Immutable once constructed; confine it (and any Function derived from
    it) to a single thread of control per the engine's contract.
    """

    def __init__(self, model: Model):
        self.model = model
        asts = [constraints.typecheck(constraints.parse(source), model)
                for source in model.constraints]
        self.encoding = build_encoding(model, asts)
        self.manager = BDD(var_count := self.encoding.var_count)
        # validity's blocks: each block with unused codes holds a code
        # below its domain size
        blocks = [
            self.encoding.value_set(self.manager, ai, range(attr.size))
            for ai, attr in enumerate(model.attributes)
            if attr.size < 1 << len(self.encoding.blocks[ai])]
        self.constraint_fns = [
            constraints.compile_expr(ast, model, self.encoding, self.manager)
            for ast in asts]
        owner = [0] * var_count  # variable -> its attribute
        for ai, block in enumerate(self.encoding.blocks):
            for var in block:
                owner[var] = ai
        # union-find over the constraints' supports, each attribute linked
        # towards the least attribute of its component
        component = list(range(len(model.attributes)))

        def find(ai: int) -> int:
            while component[ai] != ai:
                component[ai] = ai = component[component[ai]]  # path halving
            return ai

        for fn in self.constraint_fns:
            roots = {find(owner[var]) for var in fn.support()}
            for root in roots:
                component[root] = min(roots)
        component = [find(ai) for ai in range(len(component))]
        self.component_of = {name: component[ai]
                             for name, ai in model._name_index.items()}
        # Conjoin each component's conjuncts bottom-up: the one whose root
        # variable is deepest goes first, ties in list order (blocks first).
        # Each step's root is then at or above its factor's, so the step
        # rebuilds only the band of variables above it.  A conjunct lies in
        # the component of its root variable, a constant in none.
        conjuncts = [(None, fn) for fn in blocks] + list(enumerate(self.constraint_fns))
        factors = self.factors = dict.fromkeys(component, self.manager.true)
        self._schedule = []  # (constraint index, conjunct, component, factor before it)
        for i, fn in sorted(conjuncts, key=lambda conjunct: -conjunct[1].root_var):
            if fn.root_var < var_count:
                c = component[owner[fn.root_var]]
                self._schedule.append((i, fn, c, factors[c]))
                fn = factors[c] = fn & factors[c]
            if fn.is_false:
                raise InfeasibleModelError("constraints leave no legal test")

    def count(self, factors: dict[int, Function] | None = None) -> int:
        """The number of legal tests (`factors` by default, or a `project`ed
        copy of them), without building their AND.

        Each factor counts assignments of all `var_count` variables, its own
        support's satisfying ones times every choice of the others.  The
        supports are disjoint, so the product of k factors' counts is the
        AND's count times 2 ** (var_count * (k - 1)): the shift is exact."""
        fns = list((self.factors if factors is None else factors).values())
        return (math.prod(fn.count() for fn in fns)
                >> self.encoding.var_count * (len(fns) - 1))

    def redundant_constraints(self) -> list[int]:
        """Indices of the constraints whose removal leaves the legal space
        unchanged, in declaration order.

        The other factors are satisfiable and independent of constraint f's
        component, so only that component's conjuncts are read, in the order
        `__init__` conjoined them.  With r the root variable of f, let below
        be the product of those before f (kept from `__init__`) and above
        that of those after it: f eliminates nothing iff `above` does not
        intersect `~f & below`.  Neither f nor below mentions a variable
        before r, so one pass from the last conjunct builds each above's
        projection onto r and later variables, quantifying each variable
        away as it moves past it, and each test stops at the first common
        satisfying path without building the conjunction.  A constant
        constraint, true since `__init__` raises on false, eliminates nothing.
        """
        redundant = [i for i, fn in enumerate(self.constraint_fns)
                     if fn.root_var == self.encoding.var_count]
        above = dict.fromkeys(self.factors, self.manager.true)
        for i, fn, c, below in reversed(self._schedule):
            projected = above[c].exists(range(fn.root_var))
            if i is not None and not projected.intersects(~fn & below):
                redundant.append(i)
            above[c] = fn & projected
        return sorted(redundant)

    def cofactor(self, fn: Function, bindings) -> Function:
        """fn with the bound attributes' blocks fixed to the values' codes.

        False exactly when fn has no test holding those values, without
        building the conjunction: two values of one attribute clash on a
        bit of its block, and no test holds both.
        """
        cube: dict[int, int] = {}
        for attr, label in bindings:
            ai, vi = self.model.resolve(attr, label)
            for var, bit in self._value_cubes[ai][vi].items():
                if cube.setdefault(var, bit) != bit:
                    self.manager._check_same_manager(fn)
                    return self.manager.false
        return self.manager.cofactor(fn, cube)

    def split(self, fn: Function, attr: str) -> list[tuple[str, Function]]:
        """fn split over one attribute: each value that leaves it non-false,
        with fn cofactored on that value, in value order.

        One cube cofactor per value, through the engine's kernel: the cubes
        are in range by construction, so only fn's manager is checked, once.
        Where the block is at the top of fn, each cube is followed along
        edges and builds no node; below the top, only the values' cofactors
        are built.
        """
        ai = self.model.index(attr)
        manager, root = self.manager, fn.root
        manager._check_same_manager(fn)
        block = self.encoding.blocks[ai]
        last = block[-1] if block else -1  # an empty cube fixes nothing
        pairs = [(label, Function(manager, manager._cofactor(root, cube, last, {})))
                 for label, cube in zip(self.model.attributes[ai].labels,
                                        self._value_cubes[ai])]
        return [(label, cofactor) for label, cofactor in pairs if not cofactor.is_false]

    def bind(self, bindings) -> dict[int, Function]:
        """A copy of `factors` with the factor of each component that
        `bindings` touch cofactored on them (`cofactor`); a factor ignores
        the bindings outside its component.  A factor is false exactly when
        no legal test holds the bindings in its component."""
        factors = dict(self.factors)
        for c in {self.component_of[attr] for attr, _ in bindings}:
            factors[c] = self.cofactor(factors[c], bindings)
        return factors

    @cached_property
    def _value_cubes(self) -> list[list[dict[int, int]]]:
        """Per attribute, one `{var: bit}` cube per value, fixing its block
        to the value's code."""
        blocks, bits = self.encoding.blocks, self.encoding.value_bits
        return [[dict(zip(blocks[ai], bits(ai, vi))) for vi in range(attr.size)]
                for ai, attr in enumerate(self.model.attributes)]

    def pieces(self, attrs) -> list[tuple[str, ...]]:
        """The attributes of `attrs` in each component (`component_of`),
        one tuple per component in the order of its least attribute, each
        in the order `attrs` lists them.  A subset's projection of the legal
        space is the AND of those of its pieces, and each piece is projected
        from its own component's factor (`marginals`)."""
        key = self.component_of.__getitem__
        return [tuple(piece) for _, piece in itertools.groupby(sorted(attrs, key=key), key)]

    def marginals(self, pieces) -> list[Function]:
        """The legal space projected onto the blocks of each piece (every
        other variable quantified away), in order.

        Each piece lies in one component, as `pieces` yields them.  The
        legal space is the AND of `factors`, with disjoint supports, each
        satisfiable, so a piece's projection is that of its own component's
        factor (early quantification, Burch, Clarke & Long 1991).  The
        pieces of one component go through one engine call, so they share
        what they quantify alike."""
        pieces = list(pieces)
        blocks, index = self.encoding.blocks, self.model.index
        groups: dict[int, list[int]] = {}  # component -> piece indices
        for i, piece in enumerate(pieces):
            groups.setdefault(self.component_of[piece[0]], []).append(i)
        projected: list[Function] = [self.manager.true] * len(pieces)
        for c, members in groups.items():
            kept = [[v for a in pieces[i] for v in blocks[index(a)]] for i in members]
            for i, projection in zip(members, self.manager.projections(
                    self.factors[c], kept)):
                projected[i] = projection
        return projected

    def project(self, partial: dict[str, str]) -> dict[int, Function]:
        """The legal tests holding the fixed attribute values: a copy of
        `factors` with each fixed value's set ANDed into its own
        component's factor alone.  A value no legal test holds leaves that
        factor false."""
        factors = dict(self.factors)
        for attr, label in partial.items():
            ai, vi = self.model.resolve(attr, label)
            c = self.component_of[attr]
            factors[c] = factors[c] & self.encoding.value_set(self.manager, ai, [vi])
        return factors

    @cached_property
    def _chars(self) -> dict[str, dict[str, str]]:
        """Per attribute name, each label's one-character code: chr(index)."""
        return {a.name: {label: chr(vi) for label, vi in a._label_index.items()}
                for a in self.model.attributes}

    def row_sets(self, rows, attrs=None) -> dict[str, list[int]]:
        """Per attribute of `attrs` (every attribute by default), per value
        index, the bitset of the `rows` that hold that value: bit i for
        rows[i].  Each row maps those attributes to one of their labels.

        An attribute's column is read once, into one character per row
        (last row first), and each value's set is that string translated to
        `1` at the value's character and `0` at every other, read as a
        binary number: no per-row big-int OR, and any domain size."""
        sets = {}
        for name in self.model.attribute_names if attrs is None else attrs:
            column = "".join(map(self._chars[name].__getitem__,
                                 map(operator.itemgetter(name), reversed(rows))))
            marks = ["0"] * self.model.attribute(name).size
            sets[name] = []
            for vi in range(len(marks)):
                marks[vi] = "1"
                sets[name].append(int(column.translate(marks) or "0", 2))
                marks[vi] = "0"
        return sets

    def select(self, fns, row_sets, count: int) -> int:
        """The rows of `count` that every function of `fns` accepts, as a
        bitset (bit i for row i), given their `row_sets` for every attribute
        they depend on.  A variable's column holds the rows whose value's
        code sets its bit.  The columns are built once, and each engine pass
        (`BDD.select`) starts from the rows the functions before it accepted."""
        columns = {}
        for name, sets in row_sets.items():
            for cube, rows in zip(self._value_cubes[self.model.index(name)], sets):
                for var, bit in cube.items():
                    columns[var] = columns.get(var, 0) | (rows if bit else 0)
        accepted = (1 << count) - 1
        for fn in fns:
            accepted = self.manager.select(fn, columns, accepted)
        return accepted

    def assignments(self, factors: dict[int, Function] | None = None,
                    limit: int | None = None) -> Iterator[dict[str, str]]:
        """The full assignments the factors admit (`factors` by default, or
        a copy from `project`), in lexicographic declaration order, at most
        `limit` of them; none when a factor is false.

        A depth-first walk over an explicit stack that, like a greedy row,
        keeps one function per component.  Each depth splits only its
        attribute's component function over the values (`split`) and enters
        only the non-false branches, whatever the block order: the supports
        are disjoint, so each extends to a full assignment.  A function
        reached again at the same depth is split once per walk."""
        names = self.model.attribute_names
        component = [self.component_of[name] for name in names]
        fns = self.factors if factors is None else factors
        if any(fn.is_false for fn in fns.values()):
            return
        todo = [((), fns)]  # (labels, one function per component)
        splits: dict[tuple[int, int], list] = {}  # (root, depth) -> (label, cofactor)s
        emitted = 0
        while todo and (limit is None or emitted < limit):
            labels, fns = todo.pop()
            depth = len(labels)
            if depth == len(names):
                yield dict(zip(names, labels))
                emitted += 1
                continue
            c = component[depth]
            key = (fns[c].root, depth)
            if key not in splits:
                splits[key] = self.split(fns[c], names[depth])
            todo += reversed([(labels + (label,), {**fns, c: cofactor})
                              for label, cofactor in splits[key]])
