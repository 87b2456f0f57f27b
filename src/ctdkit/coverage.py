"""Interaction coverage requirements and coverage measurement.

A requirement is one value tuple over a t-subset of attributes, held as
its bindings `((attr, label), ...)` in declaration order; a test covers it
when it assigns exactly those values.  Requirement order is
deterministic: attribute subsets in lexicographic declaration order, value
tuples in value-index order, then any explicit model directives
(deduplicated).

Coverage is measured per attribute subset, without listing the
requirements.  A subset's feasible count is the count of its projection of
the legal space: the product of the counts of its pieces, its attributes in
each component that the constraints link (`ModelSpace.pieces`).  A legal
test holds only feasible value tuples, so a subset's covered count is the
number of distinct sub-rows of the legal tests.  `measure` lists value
tuples only for the subsets where the two differ, in value-index order,
less the covered ones and those a piece excludes; with no tests, that is
every feasible requirement.  A piece's excluded tuples are found once per
call, by evaluating its value tuples on its projection, and only when its
count shows it excludes one (`_feasibility`).  The counts also give
`feasible_count` (sum) and `generator.lower_bound` (max).

`filter_feasible` decides listed requirements the same way, one subset at
a time: `measure` passes it the directives that are not t wide, and tests
and demos the full list from `generate_requirements`.  A `RequirementSet`
holds the attribute subsets (`measure` returns the t-subsets and those of
the feasible directives), `candidate_keys`, which lists what a test may
cover, and `uncovered`, which keeps the requirements of a list that no
given test covers.  At a width where every attribute subset has a
feasible requirement (t always does), that is the combinations of the
test's bindings in declaration order, hashed in C against the set of
residual requirements; at any other width (directives), one lookup per
subset.  Plan generation, coverage analysis and cycle augmentation each
call `measure` once and pass on the residual, the feasible requirements
still uncovered: `generator.grow_tests` takes a residual and returns the
one its tests leave, and `run_cycles` credits each cycle's passed tests
with `uncovered`.  Coverage credit is granted only by tests inside the
legal space; imported tests that violate it are listed in the report and
ignored.
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
    """The requirements over some attribute subsets, every value tuple of
    each, feasible or not, with the routines that list those a test may
    cover and keep those of a list that no test covers."""

    def __init__(self, attributes, subsets):
        self._attributes = tuple(attributes)
        self.subsets = tuple(subsets)
        widths = Counter(map(len, self.subsets))
        self._dense = [w for w in widths
                       if widths[w] == math.comb(len(self._attributes), w)]
        self._sparse = [s for s in self.subsets if len(s) not in self._dense]

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


class RequirementList(RequirementSet):
    """Requirements listed one by one, in order and without repeats, each
    feasible or not: what `filter_feasible` returns.  Its subsets are those
    that hold a feasible requirement."""

    def __init__(self, requirements, feasible, attributes, subsets):
        super().__init__(attributes, subsets)
        self._requirements = tuple(requirements)
        self._feasible = tuple(feasible)

    def __len__(self) -> int:
        return len(self._requirements)

    def __iter__(self):
        return iter(self._requirements)

    def feasible(self) -> list[tuple[tuple[str, str], ...]]:
        """The feasible requirements, in requirement order."""
        return list(self._feasible)


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


def filter_feasible(reqs, space: ModelSpace) -> RequirementList:
    """The requirements of `reqs` (in order and without repeats, as
    `generate_requirements` lists them), each feasible iff some legal test
    holds its values: decided per attribute subset (`_feasibility`), and
    one by one only where a piece of it excludes a value tuple."""
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
    for (attrs, group), (_, excluders) in zip(groups.items(),
                                              _feasibility(space, groups)):
        if excluders:
            out = [b for b in group
                   if not _admits(excluders, tuple(map(itemgetter(1), b)))]
            infeasible.update(out)
            if len(out) == len(group):
                continue  # a group of directives may be infeasible throughout
        subsets.append(attrs)
    feasible = [r for r in reqs if r not in infeasible]
    return RequirementList(reqs, feasible, space.model.attribute_names, subsets)


def measure(space: ModelSpace, t: int, tests) -> tuple[RequirementSet, int, list]:
    """The requirement set of (space, t), how many of its requirements are
    feasible, and, in requirement order, the feasible ones that `tests`
    (full and legal, as `split_legal` keeps them) leave uncovered.

    No t-way requirement is listed but those returned.  A legal test holds
    only feasible value tuples, so a t-subset's covered tuples are the
    distinct sub-rows of the tests, and when they are as many as its
    projection holds (`_feasibility`), it leaves nothing.  Any other
    subset's tuples are listed in value-index order, less the covered ones
    and those a piece excludes.  Directives that are not t wide go through
    `filter_feasible` and `RequirementSet.uncovered`."""
    model = space.model
    names = model.attribute_names
    subsets = [tuple(names[i] for i in s) for s in _t_subsets(model, t)]
    listed = filter_feasible(_directives(model, t), space)
    columns = {a: list(map(itemgetter(a), tests)) for a in names}
    labels = {a.name: a.labels for a in model.attributes}
    total, missing = 0, []
    for attrs, (count, excluders) in zip(subsets, _feasibility(space, subsets)):
        total += count
        covered = set(zip(*map(columns.__getitem__, attrs)))
        if len(covered) == count:
            continue
        values = itertools.filterfalse(covered.__contains__, itertools.product(
            *map(labels.__getitem__, attrs)))
        if excluders:
            values = [v for v in values if _admits(excluders, v)]
        missing.extend(map(tuple, map(zip, itertools.repeat(attrs), values)))
    feasible = listed.feasible()
    missing += listed.uncovered(feasible, tests)
    reqs = RequirementSet(names, subsets + list(listed.subsets))
    return reqs, total + len(feasible), missing


def _feasibility(space: ModelSpace, subsets):
    """Per attribute subset (names in declaration order), how many of its
    value tuples some legal test holds, and the pieces (`ModelSpace.pieces`)
    that exclude one, as (getter, excluded) pairs for `_admits`.  Each
    distinct piece is projected and counted once, and its value tuples are
    evaluated once, only when its count shows it excludes one; `subsets` is
    read twice."""
    blocks, var_count = space.encoding.blocks, space.encoding.var_count
    index = space.model.attribute_index
    split = [space.pieces(attrs) for attrs in subsets]
    distinct = list(dict.fromkeys(itertools.chain.from_iterable(split)))
    decided = {}  # piece -> (count, excluded value tuples)
    for piece, fn in zip(distinct, space.marginals(distinct)):
        count = fn.count() >> (var_count - sum(len(blocks[index(a)]) for a in piece))
        labels = [space.model.attribute(a).labels for a in piece]
        excluded = set()
        if count < math.prod(map(len, labels)):
            # keyed as `itemgetter` returns them: one attribute, one label
            key = itemgetter(*range(len(piece)))
            excluded = {key(v) for v in itertools.product(*labels)
                        if not fn.evaluate(space.binding_bits(zip(piece, v)))}
        decided[piece] = count, excluded
    for attrs, pieces in zip(subsets, split):
        yield (math.prod(decided[p][0] for p in pieces),
               [(itemgetter(*map(attrs.index, p)), decided[p][1])
                for p in pieces if decided[p][1]])


def _admits(excluders, values) -> bool:
    """Whether a subset's value tuple is feasible: no piece excludes it."""
    return not any(get(values) in excluded for get, excluded in excluders)


def _subset_counts(space: ModelSpace, t: int) -> list[int]:
    """The feasible value tuples of each t-subset of attributes, in order."""
    names = space.model.attribute_names
    subsets = [[names[i] for i in subset] for subset in _t_subsets(space.model, t)]
    return [count for count, _ in _feasibility(space, subsets)]


def feasible_count(space: ModelSpace, t: int) -> int:
    """How many requirements are feasible, without listing the t-way ones:
    the sum of `_subset_counts`.  Directives that are not t-tuples are
    checked one by one."""
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
    _, total, missing = measure(space, t, legal)
    return CoverageReport(total, total - len(missing), missing, illegal)
