"""Turning abstract plans into concrete executable inputs.

Values carrying an integer range [lo, hi) stand for subdomains; a concrete
plan replaces each by an integer drawn uniformly from the range.  Draws
come from one seeded stream, row-major (rows in order, attributes in
declaration order), so the same seed always reproduces the same plan.
Rangeless values pass through unchanged.

Attributes deliberately left out of the model can still be given concrete
random values per test via `randomize_free`, from a second stream seeded
with the seed the plan records, so that seed alone reproduces every column.

Each draw consumes its stream exactly as `random.Random(seed).randrange(lo,
hi)` does (`getrandbits` of the width's bit length, redrawn while not below
the width), so outputs are stable across Python 3.10-3.13;
`test_draws_consume_the_stream_as_randrange` in tests/test_instantiate.py
pins this against a reference that calls `randrange`.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from .errors import CtdError
from .model import Model


@dataclass(frozen=True)
class FreeAttribute:
    """A randomized column that is not part of the model."""
    name: str
    lo: int
    hi: int

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name.strip():
            raise CtdError("free attribute name must be a non-empty string")
        if not all(isinstance(x, int) and not isinstance(x, bool)
                   for x in (self.lo, self.hi)):
            raise CtdError(f"free attribute {self.name!r}: bounds must be "
                           f"integers, got {self.lo!r} and {self.hi!r}")
        if self.lo >= self.hi:
            raise CtdError(f"free attribute {self.name!r}: empty range "
                           f"[{self.lo}, {self.hi})")


@dataclass
class ConcretePlan:
    columns: list[str]
    rows: list[dict[str, str]]
    seed: int

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "columns": self.columns,
            "tests": [[row[c] for c in self.columns] for row in self.rows],
            "seed": self.seed,
        }


def _span(lo: int, hi: int) -> tuple[int, int, int]:
    """What `_draw` needs of the range [lo, hi): lo, its width and the
    width's bit length."""
    width = hi - lo
    return lo, width, width.bit_length()


def _draw(getrandbits, span) -> str:
    """A uniform draw from a `_span`, as `randrange` draws it."""
    lo, width, k = span
    r = getrandbits(k)
    while r >= width:
        r = getrandbits(k)
    return str(lo + r)


def instantiate(model: Model, tests, seed: int) -> ConcretePlan:
    """Replace every subdomain value by a seeded uniform draw from its range."""
    getrandbits = random.Random(seed).getrandbits
    spans = []  # per attribute, its name and label -> None or a `_span`
    for attr in model.attributes:
        by_label = {}
        for label in attr.labels:
            bounds = attr.values[attr.index_of(label)].range
            by_label[label] = None if bounds is None else _span(*bounds)
        spans.append((attr.name, by_label))
    rows = []
    for test in tests:
        model.check_assignment(test)
        row = {}
        for name, by_label in spans:
            label = test[name]
            span = by_label[label]
            row[name] = label if span is None else _draw(getrandbits, span)
        rows.append(row)
    return ConcretePlan([a.name for a in model.attributes], rows, seed)


def randomize_free(model: Model, plan: ConcretePlan, free) -> ConcretePlan:
    """Append random columns for attributes kept out of the model, drawn
    row-major from a fresh stream seeded with `plan.seed`."""
    names = [fa.name for fa in free]
    for fa in free:
        if fa.name in model.attribute_names:
            raise CtdError(
                f"free attribute {fa.name!r} collides with a model attribute")
        if names.count(fa.name) > 1:
            raise CtdError(f"free attribute {fa.name!r} is given twice")
    getrandbits = random.Random(plan.seed).getrandbits
    spans = [(fa.name, _span(fa.lo, fa.hi)) for fa in free]
    rows = []
    for row in plan.rows:
        extended = dict(row)
        for name, span in spans:
            extended[name] = _draw(getrandbits, span)
        rows.append(extended)
    return ConcretePlan(list(plan.columns) + names, rows, plan.seed)


def abstract_candidates(model: Model, attr_name: str, concrete: str) -> list[str]:
    """Value labels a concrete cell can stand for.

    An integer written as `instantiate` writes it (ASCII digits, with an
    optional minus sign) maps to every subdomain whose range contains it
    (overlapping subdomains report all matches); any other cell maps to the
    label itself when it belongs to the domain.
    """
    attr = model.attribute(attr_name)
    number = int(concrete) if re.fullmatch("-?[0-9]+", concrete) else None
    matches = []
    for value in attr.values:
        if value.range is not None:
            if number is not None and value.range[0] <= number < value.range[1]:
                matches.append(value.label)
        elif value.label == concrete:
            matches.append(value.label)
    return matches


def recover_abstract(model: Model, plan: ConcretePlan) -> list[dict[str, str]]:
    """Map a concrete plan back to abstract value labels.

    Raises when a cell matches no subdomain or (because subdomains overlap)
    more than one.
    """
    out = []
    for i, row in enumerate(plan.rows):
        abstract = {}
        for attr in model.attributes:
            candidates = abstract_candidates(model, attr.name, row[attr.name])
            if len(candidates) != 1:
                detail = "no subdomain" if not candidates else \
                    f"overlapping subdomains {candidates}"
                raise CtdError(
                    f"row {i + 1}, attribute {attr.name!r}: value "
                    f"{row[attr.name]!r} maps to {detail}")
            abstract[attr.name] = candidates[0]
        out.append(abstract)
    return out
