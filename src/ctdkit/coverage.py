"""Interaction coverage requirements and coverage measurement.

A requirement is one value tuple over a t-subset of attributes, held as
its bindings `((attr, label), ...)` in declaration order; a test covers it
when it assigns exactly those values.  Requirement order is
deterministic: attribute subsets in lexicographic declaration order, value
tuples in value-index order, then any explicit model directives
(deduplicated).

Feasibility is decided per attribute subset.  A subset's feasible count is
the count of its projection of the legal space: the product of the counts
of its pieces, its attributes in each component that the constraints link
(`ModelSpace.pieces`).  Each piece is projected from its own component's
factor, not from the whole legal space (`ModelSpace.marginals`), so the
quantifier walks no other component.  A piece's excluded tuples are found
once per call, as the rows its projection rejects in one
`ModelSpace.select` over its value tuples, and only when its count shows
it excludes one (`_feasibility`).  The counts give `feasible_count` (sum)
and `lower_bound` (max), and `filter_feasible` decides listed requirements
the same way.

Imported tests are judged a column at a time.  A `Residual` typechecks
every test, builds their row sets once (`ModelSpace.row_sets`, one bitset
of tests per attribute value), decides them all in one `select` over the
legal space's factors, each pass starting from the tests the factors
before it accepted, and keeps only the legal tests in each row set; it reads
which tests hold each value tuple from the ANDs of those row sets.

A `Residual` is the one set of feasible requirements still uncovered:
plan generation, coverage analysis and cycle augmentation each build one,
and the greedy (`generator.grow_tests`) picks its values from it and
takes out what its rows cover.  It is built per t-subset.  A legal test
holds only feasible value tuples, so a subset's covered tuples are those
whose AND of row sets is not zero, and when they are as many as its
projection holds, it leaves nothing.  A subset that no test touches
enters whole, without listing its requirements, even when a piece cuts it:
the whole subsets are written in one pass, one field mask per key, and the
tuples their pieces exclude (read from `_feasibility`'s excluded sets) are
then cleared one by one.  A subset that tests cover in part enters its
value tuples less the covered ones and those a piece excludes, and each
feasible directive that is not t wide and not covered enters on its own.
Without tests no row set is built and no t-way requirement is listed.
Coverage credit is granted only by tests inside the legal space; imported
tests that violate it are listed (`Residual.illegal`) and ignored.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter

from .bdd import Function
from .errors import CtdError
from .model import Model, ModelSpace


class Residual:
    """The feasible requirements of (space, t) that the legal ones of
    `tests` leave uncovered, in requirement order, held in the layout the
    greedy scores from.  Every test is typechecked in order, so the first
    bad one raises before a bad t; `illegal` lists the 0-based indices of
    those outside the legal space, which earn no credit.

    Each key "requirement less one binding" maps to one packed int with one
    counter field per binding (declaration order, then value index): an
    uncovered requirement sets the field of the binding its key lacks, so
    it is held once under each of its keys.  Every t-subset has keys, so
    those inside a row are the combinations of its bindings; a directive
    subset's are looked up one by one.  `_live` counts the uncovered
    requirements per binding.  Rows come in as {attribute: label} dicts.

    The subsets no test touches are entered in bulk: per t-1 attributes,
    the masks of every attribute that completes them to such a subset are
    ORed together and written once under each of their value tuples; then
    the tuples a piece excludes are cleared (`_clear`).  `_entries` holds
    one (attributes, None) per such subset, or (None, listed) for the
    requirements entered one by one (`_enter`), in requirement order.

    The greedy reads the space from it (`space`), starts each row's running
    total from the row's seed (`row_total`) and picks each value from it
    (`pick`): `_splits` keeps each split of a running function over an
    attribute (`ModelSpace.split`) for the residual's whole life, and
    `copy` shares it, as it shares every map but the two that `cover`
    changes."""

    def __init__(self, space: ModelSpace, t: int, tests=()):
        self._model = model = space.model
        tests = list(tests)
        for test in tests:
            model.check_assignment(test)
        self.space = space
        self._names = names = model.attribute_names
        self._position = {a: i for i, a in enumerate(names)}
        self._labels = labels = {a.name: a.labels for a in model.attributes}
        subsets = list(_t_subsets(model, t))
        directives = filter_feasible(_directives(model, t), space).feasible()
        self._t = t
        sparse = list(dict.fromkeys(tuple(map(itemgetter(0), r)) for r in directives))
        # per attribute, each directive subset holding it, less that attribute
        less_one = {a: [tuple(b for b in s if b != a) for s in sparse if a in s]
                    for a in names}
        self._sparse_keys = list(dict.fromkeys(
            itertools.chain.from_iterable(less_one.values())))
        # per attribute, the directive keys over it
        self._sparse_over = {a: [k for k in self._sparse_keys if a in k] for a in names}
        # one counter field per binding, wide enough that a row's running
        # total carries into no neighbour: an attribute's field is set only
        # under keys without it, one per t-1 of the other attributes and one
        # per directive subset holding it, and a row holds each key once
        self._width = (math.comb(len(names) - 1, t - 1) + len(sparse)).bit_length()
        self._ones = (1 << self._width) - 1
        self._bindings = [(a, v) for a in names for v in labels[a]]
        self._offset = {b: self._width * i for i, b in enumerate(self._bindings)}
        self._mask = {a: sum(1 << self._offset[a, v] for v in labels[a]) for a in names}
        self._index: dict[tuple, int] = {}
        self._live: Counter = Counter()
        self._splits = {}  # (root, attribute) -> its viable values; copies share it
        self._entries = []  # (attributes, None) whole, or (None, listed)
        self._count = 0  # requirements entered and not covered since
        # per attribute, per value index, the legal tests holding it; none
        # without tests
        sets = space.row_sets(tests) if tests else {}
        legal = space.select(space.factors.values(), sets, len(tests)) if tests else 0
        self.illegal = [i for i, ok in enumerate(_flags(legal, len(tests))) if not ok]
        sets = {a: [rows & legal for rows in column] for a, column in sets.items()}
        self.total = len(directives)
        whole: dict[tuple, int] = {}  # per t-1 attributes, the fields completing them
        share: Counter = Counter()  # per attribute, its whole subsets' tuples per value
        cut = []  # the whole subsets a piece cuts, with their excluders
        for attrs, (count, excluders) in zip(subsets, _feasibility(space, subsets)):
            self.total += count
            rows = _held(sets, attrs)
            covered = len(rows) - rows.count(0)
            if covered == count:
                continue
            if not covered:  # whole: its excluded tuples are cleared below
                size = math.prod(map(len, map(labels.__getitem__, attrs)))
                for rest, a in zip(itertools.combinations(attrs, t - 1), reversed(attrs)):
                    whole[rest] = whole.get(rest, 0) | self._mask[a]
                    share[a] += size // len(labels[a])
                self._entries.append((attrs, None))
                self._count += size
                if excluders:
                    cut.append((attrs, excluders))
                continue
            values = itertools.product(*map(labels.__getitem__, attrs))
            values = itertools.compress(values, map(operator.not_, rows))
            if excluders:
                values = filter(_admits(excluders), values)
            self._enter(list(map(tuple, map(zip, itertools.repeat(attrs), values))))
        index = self._index
        for rest, mask in whole.items():
            for key in _value_tuples(model, rest):
                index[key] = index.get(key, 0) | mask
        self._live.update({(a, v): n for a, n in share.items() for v in labels[a]})
        self._clear(cut)
        self._enter([r for r in directives if not sets or not functools.reduce(
            operator.and_, (sets[a][model.resolve(a, v)[1]] for a, v in r))])
        # `pick` packs a value's live count, at most `total`, below its
        # completed count
        self._shift = self.total.bit_length()

    def _clear(self, cut) -> None:
        """Take out, once each, the value tuples of subsets entered whole
        that a piece excludes: their field under each of their keys.  `cut`
        holds (attributes, excluders) pairs as `_feasibility` yields them."""
        cleared = set()
        for attrs, excluders in cut:
            pairs = [[(a, v) for v in self._labels[a]] for a in attrs]
            for at, values in excluders:
                if len(at) == 1:  # a one-attribute piece's tuples are bare labels
                    values = zip(values)
                for value in values:
                    bound = pairs.copy()  # per attribute, the bindings it may take
                    for i, v in zip(at, value):
                        bound[i] = ((attrs[i], v),)
                    cleared.update(itertools.product(*bound))
        index, offset = self._index, self._offset
        for r in cleared:
            for key, binding in zip(itertools.combinations(r, len(r) - 1), reversed(r)):
                index[key] ^= 1 << offset[binding]
        self._live.subtract(itertools.chain.from_iterable(cleared))
        self._count -= len(cleared)

    def _enter(self, listed) -> None:
        """Enter requirements one by one, in order."""
        index, offset = self._index, self._offset
        for r in listed:
            for key, binding in zip(itertools.combinations(r, len(r) - 1), reversed(r)):
                index[key] = index.get(key, 0) | 1 << offset[binding]
        self._live.update(itertools.chain.from_iterable(listed))
        self._entries.append((None, listed))
        self._count += len(listed)

    def __iter__(self):
        """The uncovered requirements, in requirement order.  Each is read
        when it is reached, so what a caller covers meanwhile is skipped."""
        get, offset = self._index.get, self._offset
        for attrs, listed in self._entries:
            if listed is not None:
                yield from (r for r in listed if get(r[:-1], 0) >> offset[r[-1]] & 1)
                continue
            last = self._mask[attrs[-1]]
            for key in _value_tuples(self._model, attrs[:-1]):
                mask = last  # the last attribute's fields under this key
                while bits := get(key, 0) & mask:
                    low = bits & -bits
                    yield key + (self._bindings[(low.bit_length() - 1) // self._width],)
                    mask &= -(low << 1)

    def __len__(self) -> int:
        return self._count

    def copy(self) -> Residual:
        other = copy.copy(self)
        other._index, other._live = dict(self._index), Counter(self._live)
        return other

    def _keys_within(self, bound):
        """Each key that binds as `bound` does (bindings in declaration
        order): every t-1 of them, and each directive key they hold."""
        keys = itertools.combinations(bound, self._t - 1)
        if not self._sparse_keys:
            return keys
        return itertools.chain(keys, _sparse_within(dict(bound), self._sparse_keys))

    def _row(self, test):
        """A test's bindings in declaration order, and their field mask."""
        row = [(a, test[a]) for a in self._names if a in test]
        return row, sum(map(self._bit.__getitem__, row))

    @functools.cached_property
    def _bit(self) -> dict:
        """Per binding, the low bit of its field; made on first use, so a
        residual that covers nothing never builds it."""
        return {b: 1 << offset for b, offset in self._offset.items()}

    @functools.cached_property
    def _after(self) -> dict:
        """Per binding, the mask of every field after its own."""
        return {b: -(2 << offset) for b, offset in self._offset.items()}

    def row_total(self, bound) -> int:
        """The running total of a row that binds as `bound` does (bindings
        in declaration order): the sum of the entries under its keys
        (`_keys_within`), the empty key among them at t=1 or with a width-1
        directive."""
        return sum(map(self._index.get, self._keys_within(bound), itertools.repeat(0)))

    def extend(self, total: int, row: dict, binding) -> int:
        """The running total of a row after `binding` joins it: `total`, that
        of `row` (`row_total`, or a previous `extend`; `row` in any order,
        without `binding`'s attribute), plus the
        entries of the keys it completes: each t-1 of the row's bindings
        that holds it, its bindings before and after it listed apart in
        declaration order so no key needs a sort, and each directive key
        over its attribute whose other attributes `row` binds."""
        get, k = self._index.get, self._t - 2  # k: the other bindings per key
        attribute = binding[0]
        if k == 0:  # t=2: the binding alone; at t=1 only the empty key
            total += get((binding,), 0)
        elif k > 0:
            names, at = self._names, self._position[attribute]
            lower = [(a, row[a]) for a in names[:at] if a in row]
            upper = [(a, row[a]) for a in names[at + 1:] if a in row]
            total += sum(map(get, [lo + (binding,) + hi for i in range(k + 1)
                                   for lo in itertools.combinations(lower, i)
                                   for hi in itertools.combinations(upper, k - i)],
                             itertools.repeat(0)))
        sparse = self._sparse_over[attribute]
        if sparse:
            value = {**row, attribute: binding[1]}
            total += sum(map(get, _sparse_within(value, sparse), itertools.repeat(0)))
        return total

    def pick(self, total: int, fn: Function, attribute, rng=None) -> tuple[str, Function]:
        """The value of `attribute` that the greedy binds next, with `fn`,
        the row's running function, cofactored on it.  Of the viable values
        (those leaving `fn` non-false), the ones that complete the most
        uncovered requirements with the row whose running total (`row_total`,
        `extend`) is `total` tie, and of those the ones the most uncovered
        requirements hold; the first in value order wins, or `rng`'s choice
        among them.  `attribute` is one the row leaves unbound.

        A value's two counts are one key, completed << `_shift` | live, so
        one `max` ranks them.  Splitting `fn` over `attribute` is made once
        per residual and its copies (`_split`)."""
        viable = self._splits.get((fn.root, attribute)) or self._split(fn, attribute)
        ones, shift, live = self._ones, self._shift, self._live
        keys = [(total >> offset & ones) << shift | live[binding]
                for offset, binding, _ in viable]
        if rng is None:
            return viable[keys.index(max(keys))][2]
        top = max(keys)
        return rng.choice([c for key, (_, _, c) in zip(keys, viable) if key == top])

    def _split(self, fn: Function, attribute):
        """`fn` split over `attribute` (`ModelSpace.split`), kept for the
        residual's whole life: its viable values in value order, each as
        (field offset, binding, (label, cofactor))."""
        offset = self._offset
        viable = self._splits[fn.root, attribute] = [
            (offset[attribute, label], (attribute, label), (label, cofactor))
            for label, cofactor in self.space.split(fn, attribute)]
        return viable

    def cover(self, test) -> dict[tuple, int]:
        """Take out what `test` holds.  A test may bind its attributes in any
        key order, and earns nothing for the ones it leaves out.  Returns
        the requirements it covered first, as {key: bits}, each once: under
        the key that lacks its last binding."""
        row, mask = self._row(test)
        index, after, done, covered = self._index, self._after, {}, 0
        get = index.get
        for key in self._keys_within(row):
            bits = get(key, 0) & mask
            if bits:
                index[key] ^= bits
                covered += bits
                # the fields after the key's last binding: requirements it begins
                last = bits & after[key[-1]] if key else bits
                if last:
                    done[key] = last
        # a requirement covered sets the field of each of its bindings once
        live, offset, ones = self._live, self._offset, self._ones
        for b in row:
            live[b] -= covered >> offset[b] & ones
        self._count -= sum(map(int.bit_count, done.values()))
        return done

    def prune(self, rows) -> list[dict[str, str]]:
        """The tests of `rows`, (test, what `cover` returned) pairs in cover
        order, less each whose first-covered requirements the tests kept
        after it all hold, walking backwards: the tests before it hold the
        rest of its requirements, so the kept tests cover exactly what all
        did, and each holds a requirement no other holds.  `held` gathers
        what the kept tests hold, as {key: bits} like `cover`'s maps."""
        kept, held = [], {}
        for test, done in reversed(rows):
            if any(bits & ~held.get(key, 0) for key, bits in done.items()):
                kept.append(test)
                row, mask = self._row(test)
                for key in self._keys_within(row):
                    held[key] = held.get(key, 0) | mask
        kept.reverse()
        return kept


def _sparse_within(value: dict, sparse):
    """Each directive key over `sparse` (attribute tuples) whose attributes
    `value` binds, with their values."""
    return (tuple((a, value[a]) for a in s) for s in sparse if all(a in value for a in s))


class RequirementList(list):
    """Requirements listed one by one, in order and without repeats, each
    feasible or not: what `filter_feasible` returns."""

    def __init__(self, requirements, feasible):
        super().__init__(requirements)
        self._feasible = tuple(feasible)

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
        _value_tuples(model, attrs) for attrs in _t_subsets(model, t))) + _directives(model, t)


def _value_tuples(model: Model, attrs):
    """Every value tuple over `attrs`, as bindings, in value-index order."""
    return itertools.product(*([(a, v) for v in model.attribute(a).labels] for a in attrs))


def _directives(model: Model, t: int) -> list[tuple[tuple[str, str], ...]]:
    """The model's directives, normalized, in order and without repeats,
    less those t wide: each of those is one of the t-way value tuples."""
    directives = (normalize_bindings(model, d) for d in model.directives)
    return list(dict.fromkeys(b for b in directives if len(b) != t))


def _t_subsets(model: Model, t: int):
    """Every t-subset of attribute names, in lexicographic declaration order."""
    k = len(model.attributes)
    if not 1 <= t <= k:
        raise CtdError(f"interaction level t={t} out of range 1..{k}")
    return itertools.combinations(model.attribute_names, t)


def filter_feasible(reqs, space: ModelSpace) -> RequirementList:
    """The requirements of `reqs` (in order and without repeats, as
    `generate_requirements` lists them), each feasible iff some legal test
    holds its values: decided per attribute subset (`_feasibility`), and
    one by one only where a piece of it excludes a value tuple."""
    reqs = tuple(reqs)
    model = space.model
    for attr, label in itertools.filterfalse(model._bindings.__contains__,
                                             itertools.chain.from_iterable(reqs)):
        model.resolve(attr, label)  # raises UnknownAttributeError or UnknownValueError
    groups: dict[tuple[str, ...], list] = {}  # subset -> its requirements
    for attrs, run in itertools.groupby(reqs, lambda r: tuple(map(itemgetter(0), r))):
        groups.setdefault(attrs, []).extend(run)
    infeasible = set()
    for group, (_, excluders) in zip(groups.values(), _feasibility(space, groups)):
        if excluders:
            admits = _admits(excluders)
            infeasible.update(b for b in group if not admits(tuple(map(itemgetter(1), b))))
    return RequirementList(reqs, [r for r in reqs if r not in infeasible])


def _feasibility(space: ModelSpace, subsets):
    """Per attribute subset (names in declaration order), how many of its
    value tuples some legal test holds, and the pieces (`ModelSpace.pieces`)
    that exclude one, as (positions in the subset, excluded value tuples)
    pairs; a one-attribute piece's excluded tuples are bare labels.  Each
    distinct piece is projected and counted once, and its value tuples are
    decided once, as the rows of one `select` on its projection, only when
    its count shows it excludes one; `subsets` is read twice."""
    blocks, var_count = space.encoding.blocks, space.encoding.var_count
    index = space.model.index
    split = [space.pieces(attrs) for attrs in subsets]
    distinct = list(dict.fromkeys(itertools.chain.from_iterable(split)))
    decided = {}  # piece -> (count, excluded value tuples)
    for piece, fn in zip(distinct, space.marginals(distinct)):
        count = fn.count() >> (var_count - sum(len(blocks[index(a)]) for a in piece))
        labels = [space.model.attribute(a).labels for a in piece]
        excluded = set()
        if count < math.prod(map(len, labels)):
            # the value tuples, as rows of one `select`
            values = list(itertools.product(*labels))
            rows = list(map(dict, map(zip, itertools.repeat(piece), values)))
            admitted = space.select([fn], space.row_sets(rows, piece), len(rows))
            # keyed as `itemgetter` returns them: one attribute, one label
            key = itemgetter(*range(len(piece)))
            excluded = set(map(key, itertools.compress(
                values, map(operator.not_, _flags(admitted, len(values))))))
        decided[piece] = count, excluded
    for attrs, pieces in zip(subsets, split):
        yield (math.prod(decided[p][0] for p in pieces),
               [(tuple(map(attrs.index, p)), decided[p][1])
                for p in pieces if decided[p][1]])


def _held(sets, attrs) -> list[int]:
    """Per value tuple of `attrs` in product order, the rows holding it:
    the AND of its values' row sets (`ModelSpace.row_sets`); none when
    `sets` is empty."""
    if not sets:
        return []
    rows = sets[attrs[0]]
    for a in attrs[1:]:
        rows = list(itertools.starmap(operator.and_, itertools.product(rows, sets[a])))
    return rows


def _admits(excluders):
    """Whether a subset's value tuple is feasible, as a predicate: no piece
    of `excluders` (as `_feasibility` yields them) excludes it."""
    getters = [(itemgetter(*at), excluded) for at, excluded in excluders]
    return lambda values: not any(get(values) in excluded for get, excluded in getters)


def _subset_counts(space: ModelSpace, t: int) -> list[int]:
    """The feasible value tuples of each t-subset of attributes, in order."""
    subsets = list(_t_subsets(space.model, t))
    return [count for count, _ in _feasibility(space, subsets)]


def feasible_count(space: ModelSpace, t: int) -> int:
    """How many requirements are feasible, without listing the t-way ones:
    the sum of `_subset_counts`.  Directives that are not t-tuples are
    checked one by one."""
    total = sum(_subset_counts(space, t))
    return total + len(filter_feasible(_directives(space.model, t), space).feasible())


def lower_bound(space: ModelSpace, t: int) -> int:
    """Plan-size floor: the largest of `_subset_counts` (the value tuples
    sharing one attribute subset each need their own test)."""
    return max(_subset_counts(space, t))


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


def _flags(rows: int, count: int):
    """Per row of `count`, in order, whether the bitset `rows` holds it."""
    return map("1".__eq__, f"{rows:0{count}b}"[::-1][:count])


def coverage_of(space: ModelSpace, tests, t: int) -> CoverageReport:
    """Measure a test list against the feasible requirements of the space."""
    residual = Residual(space, t, tests)
    missing = list(residual)
    return CoverageReport(residual.total, residual.total - len(missing), missing,
                          residual.illegal)
