"""Interaction coverage requirements and coverage measurement.

A requirement is one value tuple over a t-subset of attributes, held as
its bindings `((attr, label), ...)` in declaration order; a test covers it
when it assigns exactly those values.  Requirement order is
deterministic: attribute subsets in lexicographic declaration order, value
tuples in value-index order, then any explicit model directives
(deduplicated).  Feasibility is decided once per distinct attribute subset,
on the legal space projected onto the subset's blocks: the AND of the
projections of its pieces, its attributes in each component that the
constraints link (`ModelSpace.marginals`).  `_projections` counts them.
When a count is the product of the subset's domain sizes, its requirements
are all feasible unevaluated; otherwise each is evaluated on the projection.
The counts also give `feasible_count` (sum) and `generator.lower_bound` (max).

`filter_feasible` returns the one `RequirementSet` of a (space, t): the
requirements in order, each feasible or not, `uncovered`, which keeps the
requirements of a list that no given test covers, and `candidate_keys`,
which lists what a test may cover.  At a width where every attribute subset
has a feasible requirement (t always does), that is the combinations of
the test's bindings in declaration order, hashed in C against the set of
residual requirements; at any other width (directives), one lookup per
subset.  Plan generation, coverage analysis and cycle augmentation each
build the set once per call and pass on the residual, the feasible
requirements still uncovered: `uncovered` and `generator.grow_tests` each
take a residual and return the one their tests leave.  Coverage credit is
granted only by tests inside the legal space; imported tests that violate
it are listed in the report and ignored.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from operator import add, itemgetter

from .errors import CtdError
from .model import Model, ModelSpace


class RequirementSet:
    """Ordered, deduplicated requirements, each feasible or not, with the
    routine that finds the ones tests leave uncovered.  Built by
    `filter_feasible`, which passes the attribute subsets that hold a
    feasible requirement."""

    def __init__(self, requirements, feasible, attributes, subsets):
        self._requirements = tuple(requirements)
        self._feasible = tuple(feasible)
        self._attributes = tuple(attributes)
        widths = Counter(map(len, subsets))
        self._dense = [w for w in widths
                       if widths[w] == math.comb(len(self._attributes), w)]
        self._sparse = [s for s in subsets if len(s) not in self._dense]

    def __len__(self) -> int:
        return len(self._requirements)

    def __iter__(self):
        return iter(self._requirements)

    def feasible(self) -> list[tuple[tuple[str, str], ...]]:
        """The feasible requirements, in requirement order."""
        return list(self._feasible)

    def candidate_keys(self, before, binding=None, after=()):
        """The requirements that a test holding `before` (bindings in
        declaration order) may cover, feasible or not.  Given a `binding`
        that goes between `before` and `after`, only those that hold it,
        their other bindings drawn from both sides."""
        if binding is None:
            keys = [itertools.combinations(before, w) for w in self._dense]
            sparse = self._sparse
        else:
            keys = [map(add, itertools.combinations(before, w - 1 - j),
                        itertools.repeat((binding,) + tail))
                    for w in self._dense for j in range(min(w, len(after) + 1))
                    for tail in itertools.combinations(after, j)]
            sparse = [s for s in self._sparse if binding[0] in s]
        if sparse:
            value = dict([*before, binding, *after] if binding else before).get
            keys.append(tuple((a, value(a)) for a in s) for s in sparse)
        return itertools.chain.from_iterable(keys)

    def uncovered(self, pending, tests) -> list:
        """The requirements of `pending` that no test in `tests` covers, in
        `pending`'s order.  A test may bind its attributes in any key order,
        and earns nothing for the ones it leaves out."""
        left = set(pending)
        for test in tests:
            left.difference_update(self.candidate_keys(
                [(a, test[a]) for a in self._attributes if a in test]))
        return [r for r in pending if r in left]


def normalize_bindings(model: Model, bindings) -> tuple[tuple[str, str], ...]:
    """Typecheck bindings and order them by attribute declaration."""
    resolved: dict[int, tuple[str, str]] = {}
    for attr, value in bindings:
        ai, _ = model.resolve(attr, value)
        if ai in resolved:
            raise CtdError(f"requirement repeats attribute {attr!r}")
        resolved[ai] = (attr, value)
    if not resolved:
        raise CtdError("requirement has no bindings")
    return tuple(resolved[ai] for ai in sorted(resolved))


def generate_requirements(model: Model, t: int) -> list[tuple[tuple[str, str], ...]]:
    """All value tuples over every t-subset of attributes, plus directives,
    in order and without repeats."""
    return list(itertools.chain.from_iterable(
        map(tuple, map(zip, itertools.repeat([model.attributes[i].name for i in subset]),
                       itertools.product(*(model.attributes[i].labels for i in subset))))
        for subset in _t_subsets(model, t))) + _directives(model, t)


def _directives(model: Model, t: int) -> list[tuple[tuple[str, str], ...]]:
    """The model's directives, normalized, in order and without repeats,
    less those t wide: each of those is one of the t-way value tuples."""
    directives = (normalize_bindings(model, d) for d in model.directives)
    return list(dict.fromkeys(b for b in directives if len(b) != t))


def _t_subsets(model: Model, t: int):
    """Every t-subset of attribute indices, in lexicographic order."""
    k = len(model.attributes)
    if not 1 <= t <= k:
        raise CtdError(f"interaction level t={t} out of range 1..{k}")
    return itertools.combinations(range(k), t)


def filter_feasible(reqs, space: ModelSpace) -> RequirementSet:
    """The requirements of `reqs` (in order and without repeats, as
    `generate_requirements` lists them), each feasible iff some legal test
    holds its values: decided per attribute subset, on its projection of
    the legal space, and one by one only where that excludes a value tuple."""
    reqs = tuple(reqs)
    known = {(a.name, v) for a in space.model.attributes for v in a.labels}
    unknown = itertools.filterfalse(known.__contains__,
                                    itertools.chain.from_iterable(reqs))
    space.binding_bits(unknown)  # raises UnknownAttributeError or UnknownValueError
    groups: dict[tuple[str, ...], list] = {}  # subset -> its requirements
    for attrs, run in itertools.groupby(reqs, lambda r: tuple(map(itemgetter(0), r))):
        groups.setdefault(attrs, []).extend(run)
    infeasible = set()
    subsets = []  # those holding a feasible requirement
    for (attrs, group), (fn, count) in zip(groups.items(), _projections(space, groups)):
        if count < math.prod(space.model.attribute(a).size for a in attrs):
            out = [b for b in group if not fn.evaluate(space.binding_bits(b))]
            infeasible.update(out)
            if len(out) == len(group):
                continue  # a group of directives may be infeasible throughout
        subsets.append(attrs)
    feasible = [r for r in reqs if r not in infeasible]
    return RequirementSet(reqs, feasible, space.model.attribute_names, subsets)


def _projections(space: ModelSpace, subsets):
    """Each attribute subset's projection of the legal space and the value
    tuples it holds, counted on its blocks; `subsets` is read twice."""
    blocks, var_count = space.encoding.blocks, space.encoding.var_count
    index = space.model.attribute_index
    for attrs, fn in zip(subsets, space.marginals(subsets)):
        yield fn, fn.count() >> (var_count - sum(len(blocks[index(a)]) for a in attrs))


def _subset_counts(space: ModelSpace, t: int) -> list[int]:
    """The feasible value tuples of each t-subset of attributes, in order."""
    names = space.model.attribute_names
    subsets = [[names[i] for i in subset] for subset in _t_subsets(space.model, t)]
    return [count for _, count in _projections(space, subsets)]


def feasible_count(space: ModelSpace, t: int) -> int:
    """How many requirements `filter_feasible` would mark feasible, without
    building the t-way ones: the sum of `_subset_counts`.  Directives that
    are not t-tuples are checked one by one."""
    total = sum(_subset_counts(space, t))
    return total + len(filter_feasible(_directives(space.model, t), space).feasible())


def coverage_percent(covered: int, total: int) -> float:
    """Share of `total` requirements covered, in percent; 100 when there
    are none."""
    if total == 0:
        return 100.0
    return 100.0 * covered / total


@dataclass
class CoverageReport:
    total_feasible: int
    covered: int
    missing: list[tuple[tuple[str, str], ...]] = field(default_factory=list)
    illegal_tests: list[int] = field(default_factory=list)  # 0-based test indices

    @property
    def percent(self) -> float:
        return coverage_percent(self.covered, self.total_feasible)

    @property
    def complete(self) -> bool:
        return self.covered == self.total_feasible

    def to_json(self, max_missing: int | None = None) -> dict:
        missing = self.missing if max_missing is None else self.missing[:max_missing]
        return {
            "schema_version": 1,
            "total_feasible": self.total_feasible,
            "covered": self.covered,
            "percent": round(self.percent, 4),
            "missing": [list(r) for r in missing],
            "missing_truncated": max_missing is not None
                and len(self.missing) > max_missing,
            "illegal_tests": self.illegal_tests,
        }

    def format(self, max_missing: int | None = 20) -> str:
        lines = [
            f"covered {self.covered} of {self.total_feasible} "
            f"feasible requirements ({self.percent:.2f}%)"
        ]
        if self.illegal_tests:
            rows = ", ".join(str(i + 1) for i in self.illegal_tests)
            lines.append(f"illegal tests excluded from credit (rows): {rows}")
        shown = self.missing if max_missing is None else self.missing[:max_missing]
        for r in shown:
            lines.append("missing: " + ", ".join(f"{a}={v}" for a, v in r))
        if max_missing is not None and len(self.missing) > max_missing:
            lines.append(f"... and {len(self.missing) - max_missing} more")
        return "\n".join(lines)


def split_legal(space: ModelSpace, tests) -> tuple[list[dict[str, str]], list[int]]:
    """The tests inside the legal space, and the 0-based indices of the rest."""
    legal: list[dict[str, str]] = []
    illegal: list[int] = []
    for i, test in enumerate(tests):
        if space.contains(test):
            legal.append(test)
        else:
            illegal.append(i)
    return legal, illegal


def coverage_of(space: ModelSpace, tests, t: int) -> CoverageReport:
    """Measure a test list against the feasible requirements of the space."""
    # split first: a bad row is reported before a bad t
    legal, illegal = split_legal(space, tests)
    reqs = filter_feasible(generate_requirements(space.model, t), space)
    feasible = reqs.feasible()
    missing = reqs.uncovered(feasible, legal)
    return CoverageReport(len(feasible), len(feasible) - len(missing), missing, illegal)
