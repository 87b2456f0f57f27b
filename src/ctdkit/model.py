"""Test-space models: attributes, values, constraints, and their encoding.

A `Model` is the user-facing artifact: an ordered list of attributes with
ordered value domains (optionally carrying integer subdomain ranges),
constraint expression strings, and optional explicit requirement tuples
(directives).  `build_encoding` maps each attribute to a block of Boolean
variables (log encoding, most-significant bit first, declaration order),
and `ModelSpace` binds a model to a BDD manager holding its legal space:

    legal = validity AND constraint_1 AND ... AND constraint_k

where validity excludes the bit patterns that decode to no value.  Tuple
counts over the legal space therefore equal counts of legal tests.  The
product is built bottom-up: validity is split into one condition per
attribute block, and of these and the constraints, the function whose
root variable is deepest is conjoined first.

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
from dataclasses import dataclass, field
from functools import cached_property, reduce
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

    def attribute_index(self, name: str) -> int | None:
        return self._name_index.get(name)

    @cached_property
    def _name_index(self) -> dict[str, int]:
        # the first of duplicated names wins; validation reports the rest
        index: dict[str, int] = {}
        for i, a in enumerate(self.attributes):
            index.setdefault(a.name, i)
        return index

    def resolve(self, attr: str, label: str) -> tuple[int, int]:
        """The indices of an attribute and of one of its values."""
        ai = self.attribute_index(attr)
        if ai is None:
            raise UnknownAttributeError(attr)
        vi = self.attributes[ai].index_of(label)
        if vi is None:
            raise UnknownValueError(attr, label)
        return ai, vi

    def attribute(self, name: str) -> Attribute:
        i = self.attribute_index(name)
        if i is None:
            raise UnknownAttributeError(name)
        return self.attributes[i]

    def cartesian_count(self) -> int:
        """Size of the full Cartesian product, ignoring constraints."""
        n = 1
        for a in self.attributes:
            n *= a.size
        return n

    def check_assignment(self, assignment: dict[str, str], full: bool = False) -> None:
        """Typecheck a (partial) assignment of value labels to attributes."""
        for name, label in assignment.items():
            self.resolve(name, label)
        if full:
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
        return Value(raw.strip())
    if not isinstance(raw, dict):
        raise ModelFormatError(
            f"attribute {attr_name!r}: each value must be a string or object")
    unknown = set(raw) - {"label", "range"}
    if unknown:
        raise ModelFormatError(f"unknown value fields: {sorted(unknown)}")
    label = raw.get("label")
    if not isinstance(label, str) or not label.strip():
        raise ModelFormatError(f"attribute {attr_name!r}: value 'label' must be a string")
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
        bindings.append((b["attr"], b["value"]))
    return tuple(bindings)


def load_model(path) -> Model:
    """Load a model document from a JSON file."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            document = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"{path}: invalid JSON: {exc}") from exc
    return parse_model(document)


# ----------------------------------------------------------------------
# encoding

@dataclass(frozen=True)
class Encoding:
    """Attribute blocks of Boolean variables, log-encoded, MSB first."""
    blocks: tuple[tuple[int, ...], ...]
    var_count: int

    def value_bits(self, attr_index: int, value_index: int) -> tuple[int, ...]:
        """Big-endian bit pattern of the value index, one bit per block var."""
        width = len(self.blocks[attr_index])
        return tuple((value_index >> (width - 1 - i)) & 1 for i in range(width))

    def value_eq(self, manager: BDD, attr_index: int, value_index: int) -> Function:
        """Function true exactly when the block holds this value's code."""
        # last bit first, so each step adds one node above the last
        fn = manager.true
        block = self.blocks[attr_index]
        bits = self.value_bits(attr_index, value_index)
        for var, bit in zip(reversed(block), reversed(bits)):
            v = manager.var(var)
            fn = (v if bit else ~v) & fn
        return fn

    def decode(self, bits) -> tuple[int, ...]:
        """Value indices for one bit vector (codes assumed valid)."""
        out = []
        for block in self.blocks:
            code = 0
            for var in block:
                code = (code << 1) | bits[var]
            out.append(code)
        return tuple(out)


def build_encoding(model: Model) -> Encoding:
    """Assign disjoint variable blocks in declaration order; deterministic."""
    blocks = []
    next_var = 0
    for attr in model.attributes:
        width = (attr.size - 1).bit_length()
        blocks.append(tuple(range(next_var, next_var + width)))
        next_var += width
    return Encoding(tuple(blocks), next_var)


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
    (`ModelSpace.redundant_constraints`).
    Only this function computes warnings; the command line's other
    commands build the space once and skip them.
    """
    report, space = _checked_space(model)
    if space is not None:
        for i in space.redundant_constraints():
            report.warnings.append(
                f"constraint {i + 1} eliminates nothing: "
                f"{model.constraints[i]!r}")
    return report


def _checked_space(model: Model
                   ) -> tuple[ValidationReport, ModelSpace | None]:
    """Validation errors of a model, and its legal space when there are none.

    Structure, constraint parse and typecheck, and directive errors are all
    collected; an empty legal space is reported as an error instead of
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
            labels.add(v.label)
    if not model.attributes:
        report.errors.append("model declares no attributes")

    directive_errors = []
    for j, directive in enumerate(model.directives):
        names = [attr for attr, _ in directive]
        if len(set(names)) != len(names):
            directive_errors.append(f"directive {j + 1}: repeated attribute")
        for attr, value in directive:
            ai = model.attribute_index(attr)
            if ai is None:
                directive_errors.append(
                    f"directive {j + 1}: unknown attribute {attr!r}")
            elif model.attributes[ai].index_of(value) is None:
                directive_errors.append(
                    f"directive {j + 1}: unknown value {value!r} for {attr!r}")

    if not report.errors and not directive_errors:
        try:
            return report, ModelSpace(model)
        except InfeasibleModelError:
            report.errors.append(
                "constraints leave no legal test (the legal space is empty)")
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


def _validity_blocks(model: Model, encoding: Encoding, manager: BDD
                     ) -> list[Function]:
    """One condition per attribute whose block has codes that decode to no
    value, in declaration order: the block holds one of its values' codes."""
    blocks = []
    for ai, attr in enumerate(model.attributes):
        if attr.size == (1 << len(encoding.blocks[ai])):
            continue  # every code decodes to a value
        any_value = manager.false
        for vi in range(attr.size):
            any_value = any_value | encoding.value_eq(manager, ai, vi)
        blocks.append(any_value)
    return blocks


# ----------------------------------------------------------------------
# the bound symbolic space

class ModelSpace:
    """A model bound to one BDD manager with its legal space built.

    Immutable once constructed; confine it (and any Function derived from
    it) to a single thread of control per the engine's contract.
    """

    def __init__(self, model: Model):
        self.model = model
        self.encoding = build_encoding(model)
        self.manager = BDD(self.encoding.var_count)
        true = self.manager.true
        blocks = _validity_blocks(model, self.encoding, self.manager)
        validity = true
        for block in reversed(blocks):
            validity = block & validity
        self.validity = validity
        self.constraint_fns = []
        for source in model.constraints:
            ast = constraints.typecheck(constraints.parse(source), model)
            self.constraint_fns.append(
                constraints.compile_expr(ast, model, self.encoding, self.manager))
        # Conjoin validity's blocks and the constraints bottom-up: the one
        # whose root variable is deepest goes first, ties in list order
        # (blocks first).  Each step's root is then at or above the running
        # product's, so the step rebuilds only the band of variables above
        # it.  _below[k] is the product of the first k scheduled conjuncts.
        conjuncts = self._conjuncts = blocks + self.constraint_fns
        self._schedule = sorted(range(len(conjuncts)),
                                key=lambda i: -conjuncts[i].root_var)
        below = self._below = [true]
        for i in self._schedule:
            below.append(conjuncts[i] & below[-1])
        legal = below[-1]
        if legal.is_false:
            raise InfeasibleModelError("constraints leave no legal test")
        self.legal = legal
        # (attr, label) -> its block code as ((var, bit), ...), filled on use
        self._codes: dict[tuple[str, str], tuple[tuple[int, int], ...]] = {}

    def redundant_constraints(self) -> list[int]:
        """Indices of the constraints whose removal leaves `legal` unchanged,
        in declaration order.

        Take the conjuncts (validity's blocks and the constraints) in the
        order `__init__` conjoined them.  For constraint f with root
        variable r, let below be the product of those scheduled before it
        (kept from `__init__`) and above that of those scheduled after it.
        f eliminates nothing iff no test legal without it breaks it: iff
        `above` does not intersect `~f & below`.  Neither f nor below
        mentions a variable before r, so `above` may be replaced by its
        projection onto r and later variables.  One pass from the last
        scheduled conjunct builds these projections, quantifying each
        variable away as the pass moves past it, so none spans the whole
        order; each test walks the two diagrams together and stops at the
        first common satisfying path, without building their conjunction.
        """
        offset = len(self._conjuncts) - len(self.constraint_fns)
        redundant = []
        above = self.manager.true
        for k in reversed(range(len(self._schedule))):
            i = self._schedule[k]
            fn = self._conjuncts[i]
            above = above.exists(range(fn.root_var))
            if i >= offset and not above.intersects(~fn & self._below[k]):
                redundant.append(i - offset)
            above = fn & above
        return sorted(redundant)

    @property
    def illegal(self) -> Function:
        """Valid-but-excluded combinations."""
        return self.validity & ~self.legal

    def _attr_index(self, attr: str) -> int:
        ai = self.model.attribute_index(attr)
        if ai is None:
            raise UnknownAttributeError(attr)
        return ai

    def binding_bits(self, bindings) -> dict[int, int]:
        """Variable -> bit for the block codes of (attr, value) bindings."""
        bits: dict[int, int] = {}
        for attr, label in bindings:
            code = self._codes.get((attr, label))
            if code is None:
                ai, vi = self.model.resolve(attr, label)
                code = self._codes[attr, label] = tuple(zip(
                    self.encoding.blocks[ai], self.encoding.value_bits(ai, vi)))
            bits.update(code)
        return bits

    def cofactor(self, fn: Function, bindings) -> Function:
        """fn with the bound attributes' blocks fixed to the values' codes.

        False exactly when fn has no test holding those values, without
        building the conjunction.
        """
        return self.manager.cofactor(fn, self.binding_bits(bindings))

    def value_cofactors(self, fn: Function, attr: str) -> list[Function]:
        """fn cofactored on each value of one attribute, in value order.

        One engine call splits fn over the attribute's block; a value's
        index is its code, so its cofactor is the one for that bit pattern.
        """
        ai = self._attr_index(attr)
        cofactors = self.manager.cofactors(fn, self.encoding.blocks[ai])
        return cofactors[:self.model.attributes[ai].size]

    @cached_property
    def _components(self) -> list[int]:
        """Per attribute index, the least index of its component: attributes
        are linked when one constraint's BDD depends on both.  Not syntax:
        `(A = a AND B = b) OR (A = a AND B != b)` is `A = a`; B stays apart."""
        owner = [ai for ai, block in enumerate(self.encoding.blocks) for _ in block]
        component = list(range(len(self.model.attributes)))
        for fn in self.constraint_fns:
            merged = {component[owner[v]] for v in fn.support()}
            component = [min(merged) if c in merged else c for c in component]
        return component

    def pieces(self, attrs) -> list[tuple[str, ...]]:
        """The attributes of `attrs` in each component (see `_components`),
        one tuple per component in the order of its least attribute, each
        in the order `attrs` lists them.  `legal` is the product of one
        factor per component (support, not syntax, keeps pieces small), so
        a subset's projection is the AND of those of its pieces."""
        key, names = self._components.__getitem__, self.model.attribute_names
        return [tuple(names[ai] for ai in piece) for _, piece in itertools.groupby(
                    sorted(map(self._attr_index, attrs), key=key), key)]

    def marginals(self, subsets) -> list[Function]:
        """The legal space projected onto the blocks of each attribute
        subset (every other variable quantified away), in order: the AND
        of the projections of its `pieces`.  One engine call projects every
        distinct piece, so they share what they quantify alike.  `coverage`
        passes pieces, so it gets each piece's projection alone."""
        blocks, index = self.encoding.blocks, self.model.attribute_index
        split = [self.pieces(attrs) for attrs in subsets]
        distinct = list(dict.fromkeys(itertools.chain.from_iterable(split)))
        projected = dict(zip(distinct, self.manager.projections(
            self.legal, [[v for a in p for v in blocks[index(a)]] for p in distinct])))
        return [reduce(Function.__and__, map(projected.__getitem__, pieces),
                       self.manager.true) for pieces in split]

    def project(self, partial: dict[str, str]) -> Function:
        """Legal combinations consistent with the fixed attribute values."""
        fixed = self.manager.true
        for attr, label in partial.items():
            ai, vi = self.model.resolve(attr, label)
            fixed = fixed & self.encoding.value_eq(self.manager, ai, vi)
        return self.legal & fixed

    def tuple_count(self, fn: Function | None = None) -> int:
        """Number of value tuples a function admits (legal space by default)."""
        return (fn if fn is not None else self.legal).count()

    def assignment_bits(self, test: dict[str, str]) -> dict[int, int]:
        """Variable -> bit for a full assignment, typechecked first."""
        self.model.check_assignment(test, full=True)
        return self.binding_bits(test.items())

    def contains(self, test: dict[str, str]) -> bool:
        """True when a full assignment satisfies the legal space."""
        return self.legal.evaluate(self.assignment_bits(test))

    def decode_bits(self, bits) -> dict[str, str]:
        indices = self.encoding.decode(bits)
        return {a.name: a.values[vi].label
                for a, vi in zip(self.model.attributes, indices)}

    def assignments(self, fn: Function | None = None,
                    limit: int | None = None) -> Iterator[dict[str, str]]:
        """Decode satisfying bit vectors to assignments, lexicographically."""
        space = fn if fn is not None else self.legal
        for i, bits in enumerate(space.satisfying()):
            if limit is not None and i >= limit:
                return
            yield self.decode_bits(bits)
