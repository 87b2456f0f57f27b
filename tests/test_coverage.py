"""Requirement generation, feasibility filtering, and coverage measurement."""

import itertools
import re
import time
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from ctdkit import (
    CoverageReport,
    CtdError,
    Model,
    ModelSpace,
    UnknownAttributeError,
    UnknownValueError,
    augment_plan,
    coverage_of,
    filter_feasible,
    generate_plan,
    generate_requirements,
    load_model,
    lower_bound,
    parse_model,
    read_plan_csv,
    run_cycles,
)
from ctdkit.bdd import BDD
from ctdkit import coverage
from ctdkit.coverage import Residual, feasible_count
from ctdkit.model import Attribute, Value


def test_shopping_pair_count(shopping):
    assert len(generate_requirements(shopping, 2)) == 101


def test_shopping_triple_count_vs_brute_force(shopping):
    reqs = generate_requirements(shopping, 3)
    oracle = oracles.feasible_t_tuples(shopping, 3)
    assert len(reqs) == len(oracle) == 314
    assert set(reqs) == oracle


def test_xyz_pair_count(xyz):
    assert len(generate_requirements(xyz, 2)) == 12


def test_requirement_count_closed_form(shopping, api8x2, model1, staircase):
    for model in (shopping, api8x2, model1, staircase):
        sizes = [a.size for a in model.attributes]
        for t in (1, 2, 3):
            expected = sum(
                _product(combo)
                for combo in itertools.combinations(sizes, t))
            assert len(generate_requirements(model, t)) == expected


def _product(xs):
    n = 1
    for x in xs:
        n *= x
    return n


def test_requirement_order_is_deterministic(shopping):
    reqs = list(generate_requirements(shopping, 2))
    assert reqs[0] == (("Availability", "Available"), ("Payment", "Credit"))
    assert reqs[1] == (("Availability", "Available"), ("Payment", "Paypal"))
    assert reqs[:2] == list(generate_requirements(shopping, 2))[:2]


def test_t_out_of_range(shopping):
    with pytest.raises(CtdError):
        generate_requirements(shopping, 0)
    with pytest.raises(CtdError):
        generate_requirements(shopping, 6)


def test_directives_are_added_and_deduplicated(shopping):
    triple = (("Payment", "Credit"), ("DeliverySchedule", "One Day"),
              ("Carrier", "Fedex"))
    duplicate_pair = (("Availability", "Available"), ("Payment", "Credit"))
    m = Model(shopping.attributes, shopping.constraints,
              (triple, duplicate_pair, triple))
    reqs = list(generate_requirements(m, 2))
    assert len(reqs) == 102  # 101 pairs + the triple; the pair was already there
    assert reqs[-1] == (("Payment", "Credit"), ("Carrier", "Fedex"),
                        ("DeliverySchedule", "One Day"))


def test_directive_bindings_are_normalized_to_declaration_order(shopping):
    m = Model(shopping.attributes, (),
              ((("DeliverySchedule", "One Day"), ("Carrier", "UPS"),
                ("Payment", "Credit")),))
    reqs = list(generate_requirements(m, 2))
    assert reqs[-1] == (("Payment", "Credit"), ("Carrier", "UPS"),
                        ("DeliverySchedule", "One Day"))
    # a directive that merely repeats a base pair is absorbed
    m2 = Model(shopping.attributes, (),
               ((("DeliverySchedule", "One Day"), ("Payment", "Credit")),))
    assert len(generate_requirements(m2, 2)) == 101


def test_filter_feasible_unconstrained_is_all_feasible(shopping, shopping_space):
    reqs = filter_feasible(generate_requirements(shopping, 2), shopping_space)
    assert len(reqs.feasible()) == 101
    assert reqs.feasible() == list(reqs)


def test_filter_feasible_after_dropping_a_value(xyz_drop_a):
    space = ModelSpace(xyz_drop_a)
    reqs = filter_feasible(generate_requirements(xyz_drop_a, 2), space)
    assert len(reqs.feasible()) == 8
    infeasible = set(reqs) - set(reqs.feasible())
    assert infeasible == {
        (("X", "a"), ("Y", "c")), (("X", "a"), ("Y", "d")),
        (("X", "a"), ("Z", "e")), (("X", "a"), ("Z", "f")),
    }


def test_filter_feasible_matches_brute_force_on_code_review(code_review,
                                                            code_review_space):
    def pred(t):
        length = int(t["LenCBchain"])
        return all(not (t[f"InterestingCB{i}"] == "true" and i > length)
                   for i in range(1, 6))
    oracle = oracles.feasible_t_tuples(code_review, 2, pred)
    reqs = filter_feasible(generate_requirements(code_review, 2), code_review_space)
    assert set(reqs.feasible()) == oracle
    zero_and_interesting = (("LenCBchain", "0"), ("InterestingCB1", "true"))
    assert zero_and_interesting in list(reqs)
    assert zero_and_interesting not in reqs.feasible()


def test_filter_feasible_leaves_few_bdd_nodes():
    # one conjunction per requirement would leave ~164k nodes here, one
    # projection per attribute pair leaves ~2.3k
    space = ModelSpace(parse_model(oracles.chain_document(20, 5)))
    reqs = filter_feasible(generate_requirements(space.model, 2), space)
    assert len(reqs.feasible()) == 4740
    assert len(space.manager) < 20_000
    state = {"var_count", "_all_vars", "_nodes", "_unique"}
    assert set(vars(space.manager)) == state  # no memo outlives its call
    # the per-subset counts read the same projections: nothing is added
    nodes = len(space.manager)
    assert feasible_count(space, 2) == 4740
    assert lower_bound(space, 2) == 25
    assert len(space.manager) == nodes
    assert set(vars(space.manager)) == state


@pytest.mark.parametrize("k,v,t,kept_sets,evaluations", [
    (30, 5, 2, 15 + 30, 15 * 5 ** 2),
    # the value pairs of the 6 linked pairs, not the 6 * 10 * 4**3 triples
    # that hold one
    (12, 4, 3, 6 + 12, 6 * 4 ** 2),
])
def test_filter_feasible_projects_linked_pieces_only(monkeypatch, k, v, t,
                                                      kept_sets, evaluations):
    """The chain links only the pairs its constraints name: the subsets
    need one projection per linked pair and per attribute, and only the
    value tuples of the linked pairs are evaluated (as rows of `select`),
    once per call, by both `filter_feasible` and `Residual`."""
    model = parse_model(oracles.chain_document(k, v))
    space = ModelSpace(model)
    reqs = generate_requirements(model, t)
    kept, evaluated = [], []
    projections, select = BDD.projections, BDD.select

    def counted_projections(manager, fn, sets):
        kept.extend(sets)
        return projections(manager, fn, sets)

    def counted_select(manager, fn, columns, everything):
        evaluated.extend([fn] * everything.bit_length())  # one per row
        return select(manager, fn, columns, everything)

    monkeypatch.setattr(BDD, "projections", counted_projections)
    monkeypatch.setattr(BDD, "select", counted_select)
    expected = oracles.feasible_requirements_by_search(model, t)
    for listing in (lambda: filter_feasible(reqs, space).feasible(),
                    lambda: list(Residual(space, t))):
        kept.clear()
        evaluated.clear()
        assert listing() == expected
        assert len(kept) <= kept_sets
        assert len(evaluated) <= evaluations
    assert list(filter_feasible(reqs, space)) == reqs


@pytest.mark.parametrize("name", ["code_review", "shopping", "at_least_one",
                                  "xyz_drop_a", "staircase"])
def test_search_oracle_equals_brute_force(models_dir, name):
    model = load_model(models_dir / f"{name}.json")
    legal = oracles.legal_tuples(model, oracles.constraint_predicate(model))
    for t in range(1, min(3, len(model.attributes)) + 1):
        assert (oracles.feasible_requirements_by_search(model, t)
                == oracles.feasible_requirement_tuples(model, t, legal))


def test_filter_feasible_rejects_unknown_bindings(shopping, shopping_space):
    # the subsets' projections exclude nothing, so no requirement is evaluated
    reqs = generate_requirements(shopping, 2)
    for bad, error in (((("Payment", "Bitcoin"),), UnknownValueError),
                       ((("Currency", "EUR"),), UnknownAttributeError)):
        with pytest.raises(error):
            filter_feasible(reqs + [bad], shopping_space)


def test_filter_feasible_is_monotone_under_constraints(xyz, xyz_drop_a):
    free = filter_feasible(generate_requirements(xyz, 2), ModelSpace(xyz))
    constrained = filter_feasible(generate_requirements(xyz_drop_a, 2),
                                  ModelSpace(xyz_drop_a))
    assert set(constrained.feasible()) <= set(free.feasible())


def test_pairs_of_single_shopping_test(shopping):
    test = {
        "Availability": "Available", "Payment": "Paypal", "Carrier": "Fedex",
        "DeliverySchedule": "2-5 working days", "ExportControl": "True",
    }
    residual = Residual(ModelSpace(shopping), 2)
    feasible = list(residual)
    residual.cover(test)
    pairs = set(feasible).difference(residual)
    assert pairs == {
        (("Availability", "Available"), ("Payment", "Paypal")),
        (("Availability", "Available"), ("Carrier", "Fedex")),
        (("Availability", "Available"), ("DeliverySchedule", "2-5 working days")),
        (("Availability", "Available"), ("ExportControl", "True")),
        (("Payment", "Paypal"), ("Carrier", "Fedex")),
        (("Payment", "Paypal"), ("DeliverySchedule", "2-5 working days")),
        (("Payment", "Paypal"), ("ExportControl", "True")),
        (("Carrier", "Fedex"), ("DeliverySchedule", "2-5 working days")),
        (("Carrier", "Fedex"), ("ExportControl", "True")),
        (("DeliverySchedule", "2-5 working days"), ("ExportControl", "True")),
    }
    assert len(pairs) == 10  # C(5, 2)


def test_pairs_of_test_at_full_width_is_the_test(xyz):
    test = {"X": "a", "Y": "d", "Z": "e"}
    residual = Residual(ModelSpace(xyz), 3)
    feasible = list(residual)
    residual.cover(test)
    assert [r for r in feasible if r not in list(residual)] == [
        (("X", "a"), ("Y", "d"), ("Z", "e"))]


def test_coverage_of_rejects_partial_assignment(xyz):
    with pytest.raises(CtdError):
        coverage_of(ModelSpace(xyz), [{"X": "a"}], 2)


def test_a_bad_row_is_reported_before_a_bad_t_or_n(xyz):
    space = ModelSpace(xyz)
    good = [{"X": "a", "Y": "d", "Z": "e"}]
    rows = good + [{"X": "a", "Y": "d", "Z": "nope"}]
    with pytest.raises(UnknownValueError):
        coverage_of(space, rows, 99)
    with pytest.raises(UnknownValueError):
        augment_plan(space, 2, rows, n=0)
    # without the bad row, t and n are what raise
    with pytest.raises(CtdError, match="t=99"):
        coverage_of(space, good, 99)
    with pytest.raises(CtdError, match=r"^budget must be >= 1, got 0$"):
        augment_plan(space, 2, good, n=0)


def test_imported_rows_are_read_once(api8x2_space, models_dir, monkeypatch):
    # one `row_sets` over every attribute per call; any other call reads a
    # piece's value tuples
    _, rows = read_plan_csv(models_dir / "api8x2_plan7.csv")
    read = []
    row_sets = ModelSpace.row_sets
    monkeypatch.setattr(ModelSpace, "row_sets", lambda space, rows, attrs=None: (
        read.append(attrs is None), row_sets(space, rows, attrs))[1])
    coverage_of(api8x2_space, rows, 2)
    assert read.count(True) == 1
    augment_plan(api8x2_space, 2, rows, n=1)
    assert read.count(True) == 2


def test_seven_row_plan_covers_all_112_pairs(api8x2, api8x2_space, models_dir):
    _, rows = read_plan_csv(models_dir / "api8x2_plan7.csv")
    report = coverage_of(api8x2_space, rows, 2)
    oracle = oracles.feasible_t_tuples(api8x2, 2)
    assert report.total_feasible == len(oracle) == 112
    assert report.covered == 112
    assert report.missing == []
    assert report.percent == 100.0


def test_manual_3x3x3_plan_covers_all_27_pairs(manual3x3x3, models_dir):
    space = ModelSpace(manual3x3x3)
    _, rows = read_plan_csv(models_dir / "manual3x3x3_plan9.csv")
    report = coverage_of(space, rows, 2)
    assert (report.covered, report.total_feasible) == (27, 27)


def test_thirteen_row_plan_covers_the_code_review_model(code_review_space,
                                                        models_dir):
    _, rows = read_plan_csv(models_dir / "code_review_plan13.csv")
    report = coverage_of(code_review_space, rows, 2)
    assert report.illegal_tests == []
    assert (report.covered, report.total_feasible) == (85, 85)


def test_partial_plan_reports_missing(api8x2_space, models_dir):
    _, rows = read_plan_csv(models_dir / "api8x2_plan7.csv")
    report = coverage_of(api8x2_space, rows[:3], 2)
    assert report.covered < report.total_feasible
    assert report.missing
    assert report.covered + len(report.missing) == report.total_feasible
    # oracle cross-check on the covered count
    names = [a.name for a in api8x2_space.model.attributes]
    assert report.covered == len(oracles.covered_t_tuples(rows[:3], names, 2))


def test_empty_plan_is_zero_percent(api8x2_space):
    report = coverage_of(api8x2_space, [], 2)
    assert report.covered == 0
    assert report.percent == 0.0


def test_zero_over_zero_reports_complete():
    report = CoverageReport(total_feasible=0, covered=0)
    assert report.percent == 100.0
    assert report.covered == report.total_feasible


def test_illegal_tests_earn_no_credit(code_review_space):
    illegal = {"LenCBchain": "0", "InterestingCB1": "true",
               "InterestingCB2": "false", "InterestingCB3": "false",
               "InterestingCB4": "false", "InterestingCB5": "false"}
    report = coverage_of(code_review_space, [illegal], 2)
    assert report.illegal_tests == [0]
    assert report.covered == 0


def test_coverage_is_monotone_in_the_test_list(api8x2_space, models_dir):
    _, rows = read_plan_csv(models_dir / "api8x2_plan7.csv")
    covered = [coverage_of(api8x2_space, rows[:k], 2).covered
               for k in range(len(rows) + 1)]
    assert covered == sorted(covered)


def test_pairs_of_test_are_reported_covered(xyz):
    space = ModelSpace(xyz)
    test = {"X": "b", "Y": "c", "Z": "f"}
    reqs = [r for r in generate_requirements(xyz, 2)
            if all(test[a] == v for a, v in r)]
    report = coverage_of(space, [test], 2)
    missing = set(report.missing)
    assert all(r not in missing for r in reqs)
    assert report.covered == len(reqs)


def test_report_formats(api8x2_space, models_dir):
    _, rows = read_plan_csv(models_dir / "api8x2_plan7.csv")
    report = coverage_of(api8x2_space, rows[:2], 2)
    text = report.format(max_missing=3)
    assert "missing:" in text
    assert "more" in text
    document = report.to_json(max_missing=3)
    assert document["schema_version"] == 1
    assert len(document["missing"]) == 3
    assert document["missing_truncated"] is True


QUAD = (("Availability", "Available"), ("Payment", "Credit"),
        ("Carrier", "Fedex"), ("DeliverySchedule", "One Day"))


def test_directive_wider_than_t_is_credited(shopping):
    space = ModelSpace(Model(shopping.attributes, shopping.constraints, (QUAD,)))
    holds = dict(QUAD, ExportControl="True")
    report = coverage_of(space, [holds], 2)
    assert report.total_feasible == 102
    assert report.covered == 10 + 1  # C(5, 2) pairs and the directive
    assert QUAD not in report.missing
    # three of its four values cover the pairs, not the directive
    near = dict(holds, Carrier="UPS")
    report = coverage_of(space, [near], 2)
    assert report.covered == 10
    assert QUAD in report.missing


@st.composite
def _credit_models(draw):
    """A small constrained model with directives of any width, and t."""
    k = draw(st.integers(2, 5))
    names = [f"A{i}" for i in range(k)]
    labels = [[f"v{j}" for j in range(draw(st.integers(1, 3)))] for _ in names]
    attributes = tuple(Attribute(n, tuple(Value(v) for v in ls))
                       for n, ls in zip(names, labels))
    attr = st.integers(0, k - 1)
    constraints = tuple(
        f"{names[i]} = {draw(st.sampled_from(labels[i]))} -> "
        f"{names[j]} != {draw(st.sampled_from(labels[j]))}"
        for i, j in draw(st.lists(st.tuples(attr, attr).filter(lambda p: p[0] != p[1]),
                                  max_size=3)))
    # a value excluded outright, and a constraint linking three attributes
    constraints += tuple(f"{names[i]} != {draw(st.sampled_from(labels[i]))}"
                         for i in draw(st.lists(attr, max_size=1)))
    if k >= 3 and draw(st.booleans()):
        i, j, m = draw(st.permutations(range(k)))[:3]
        constraints += (f"{names[i]} = {labels[i][0]} AND {names[j]} = {labels[j][0]}"
                        f" -> {names[m]} != {labels[m][-1]}",)
    directives = tuple(
        tuple((names[i], draw(st.sampled_from(labels[i]))) for i in subset)
        for subset in draw(st.lists(st.sets(attr, min_size=1), max_size=4)))
    return Model(attributes, constraints, directives), draw(st.integers(1, k))


def _draw_rows(draw, model, partial):
    """Up to four rows that may be illegal and list their attributes in any
    order; with `partial`, a row may leave one attribute out."""
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        row = {a.name: draw(st.sampled_from(a.labels)) for a in model.attributes}
        order = draw(st.permutations(list(row)))
        if partial and draw(st.booleans()):
            order = order[1:]
        rows.append({n: row[n] for n in order})
    return rows


@st.composite
def _credit_cases(draw):
    """A `_credit_models` model and t, and tests that may be illegal, list
    their attributes in any order, or leave one out."""
    model, t = draw(_credit_models())
    return model, t, _draw_rows(draw, model, partial=True)


def _brute_force(model, t):
    """The model's legal tuples and, in requirement order, its feasible
    requirements."""
    legal = oracles.legal_tuples(model, oracles.constraint_predicate(model))
    return legal, oracles.feasible_requirement_tuples(model, t, legal)


def _held(requirements, tests):
    """The requirements, in order, that some test in `tests` holds."""
    return [r for r in requirements
            if any(all(test.get(a) == v for a, v in r) for test in tests)]


@settings(max_examples=200, deadline=None)
@given(_credit_cases())
def test_covered_equals_brute_force(case):
    model, t, tests = case
    legal, feasible = _brute_force(model, t)
    assume(legal)
    residual = Residual(ModelSpace(model), t)
    assert list(residual) == feasible
    covered = _held(feasible, tests)
    for test in tests:
        residual.cover(test)
    assert list(residual) == [r for r in feasible if r not in covered]


@st.composite
def _residual_cases(draw):
    """A `_credit_models` model and t with directives of width 1, t + 1 and
    every attribute added, rows to build from (full, maybe illegal), and
    tests to cover that may be illegal, list their attributes in any order,
    or leave one out."""
    model, t = draw(_credit_models())
    attributes = model.attributes

    def directive(width):
        chosen = sorted(draw(st.permutations(range(len(attributes))))[:width])
        return tuple((attributes[i].name, draw(st.sampled_from(attributes[i].labels)))
                     for i in chosen)

    added = tuple(directive(w) for w in (1, t + 1, len(attributes))
                  if w <= len(attributes))
    model = Model(attributes, model.constraints, model.directives + added)
    return (model, t, _draw_rows(draw, model, partial=False),
            _draw_rows(draw, model, partial=True))


def _check_residual(residual, left):
    assert list(residual) == left
    assert len(residual) == len(left)


@settings(max_examples=200, deadline=None)
@given(_residual_cases(), st.data())
def test_residual_equals_brute_force(case, data):
    model, t, rows, more = case
    legal, feasible = _brute_force(model, t)
    assume(legal)
    space = ModelSpace(model)
    residual = Residual(space, t, rows)
    tests = [row for row in rows if row in legal]
    assert residual.total == len(feasible)
    left = [r for r in feasible if r not in _held(feasible, tests)]
    _check_residual(residual, left)
    kept = residual.copy()
    for test in more:
        before = len(residual)
        done = residual.cover(test)
        left = [r for r in left if r not in _held(left, [test])]
        _check_residual(residual, left)
        # each requirement covered first is returned once
        assert sum(bits.bit_count() for bits in done.values()) == before - len(left)
    # the copy is independent, both ways
    _check_residual(kept, [r for r in feasible if r not in _held(feasible, tests)])
    for test in tests + more:
        kept.cover(test)
    _check_residual(residual, left)
    # a row's running total, built one binding at a time in any order,
    # picks each attribute the row leaves unbound from its viable values:
    # of those, the ones completing the most uncovered requirements with
    # the row tie, then the ones the most uncovered requirements hold, in
    # value order
    names = model.attribute_names
    row, total = {}, residual.start()  # row: its bindings in draw order
    for attr in data.draw(st.permutations(names)):
        fn = space.cofactor(space.legal, row.items())
        for other in names:
            if other in row:
                continue
            scored = []  # per viable value: ((completed, live), label)
            for label in _viable(model, legal, row, other):
                holding = [r for r in left if (other, label) in r]
                assignment = dict(row, **{other: label})
                scored.append(((len(_held(holding, [assignment])), len(holding)), label))
            top = max(key for key, _ in scored)
            rng = _Choices()
            assert residual.pick(total, fn, other, rng) == rng.seen[-1]
            assert [label for label, _ in rng.seen] == [v for key, v in scored if key == top]
            for label, cofactor in rng.seen:
                assert cofactor == space.cofactor(fn, [(other, label)])
            assert residual.pick(total, fn, other) == rng.seen[0]
        label = data.draw(st.sampled_from(_viable(model, legal, row, attr)))
        total = residual.extend(total, row, (attr, label))
        row[attr] = label


def _viable(model, legal, row, attr):
    """The labels of `attr`, in value order, that some legal test holds
    together with `row`."""
    return [label for label in model.attribute(attr).labels
            if _held([tuple(dict(row, **{attr: label}).items())], legal)]


class _Choices:
    """A tie-breaking rng that records the candidates it is offered and
    takes the last."""

    def choice(self, candidates):
        self.seen = candidates
        return candidates[-1]


def _picked(residual, space, row, attr, rng=None):
    """The label `Residual.pick` binds to `attr` next to `row`."""
    total, bound = residual.start(), {}
    for binding in row.items():
        total = residual.extend(total, bound, binding)
        bound[binding[0]] = binding[1]
    label, _ = residual.pick(total, space.cofactor(space.legal, row.items()), attr, rng)
    return label


def test_pick_ranks_completed_above_live():
    # B=b1 is held by three uncovered pairs and B=b0 by one, but only b0
    # completes one with A=a0: completed outranks live in the packed key
    model = Model(tuple(Attribute(n, tuple(Value(f"{n.lower()}{j}") for j in range(2)))
                        for n in "ABC"), (), ())
    space = ModelSpace(model)
    residual = Residual(space, 2)
    for test in ({"A": "a0", "B": "b1"}, {"B": "b0", "C": "c0"}, {"B": "b0", "C": "c1"},
                 {"A": "a1", "B": "b0"}):
        residual.cover(test)
    assert [sum(("B", b) in r for r in residual) for b in ("b0", "b1")] == [1, 3]
    assert _picked(residual, space, {"A": "a0"}, "B") == "b0"
    rng = _Choices()
    assert _picked(residual, space, {"A": "a0"}, "B", rng) == "b0"
    assert [label for label, _ in rng.seen] == ["b0"]


def test_pick_reads_the_empty_key_and_directives_at_t1():
    # at t=1 every value is completed under the key (); the directive
    # A=a1, B=b0 is held by a1 and b0 and completes only with both bound
    model = Model((Attribute("A", (Value("a0"), Value("a1"), Value("a2"))),
                   Attribute("B", (Value("b0"), Value("b1")))),
                  (), ((("A", "a1"), ("B", "b0")),))
    space = ModelSpace(model)
    residual = Residual(space, 1)
    rng = _Choices()
    assert _picked(residual, space, {}, "A", rng) == "a1"  # a1's live count is 2
    assert [label for label, _ in rng.seen] == ["a1"]
    residual.cover({"A": "a1", "B": "b1"})
    rng = _Choices()
    assert _picked(residual, space, {}, "A", rng) == "a2"
    assert [label for label, _ in rng.seen] == ["a0", "a2"]
    assert _picked(residual, space, {}, "A") == "a0"
    # b0 completes B=b0 and the directive, b1 nothing
    assert _picked(residual, space, {"A": "a1"}, "B") == "b0"


def _check_packed(model, t, feasible):
    """A `Residual` built without tests holds what a reference holds that
    enters each of `feasible` on its own through `_enter`: the same
    non-zero keys and live counts, none below zero, length and order."""
    residual = Residual(ModelSpace(model), t)
    reference = residual.copy()
    reference._index, reference._live, reference._entries, reference._count = (
        {}, Counter(), [], 0)
    for r in feasible:
        reference._enter([r])
    assert ({k: v for k, v in residual._index.items() if v}
            == {k: v for k, v in reference._index.items() if v})
    assert +residual._live == +reference._live
    assert min(residual._live.values(), default=0) >= 0
    assert len(residual) == len(reference) == len(feasible)
    assert list(residual) == list(reference) == feasible


@settings(max_examples=200, deadline=None)
@given(_credit_models())
def test_packed_layout_equals_one_by_one(case):
    model, t = case
    legal, feasible = _brute_force(model, t)
    assume(legal)
    _check_packed(model, t, feasible)


@pytest.mark.parametrize("t", [1, 2, 3])
def test_packed_layout_clears_a_dead_value(xyz_drop_a, t):
    """`X != a` makes X one piece whose excluded tuples are bare labels."""
    _check_packed(xyz_drop_a, t, _brute_force(xyz_drop_a, t)[1])


@pytest.mark.parametrize("t", [2, 3])
def test_residual_without_tests_lists_only_directives(monkeypatch, t):
    """Without tests every t-subset enters whole, even one a piece cuts:
    `_enter` gets the directives that are not t wide, never a t-way
    requirement."""
    document = oracles.chain_document(12, 4)
    document["directives"] = [[{"attr": "A1", "value": "v1"}],
                              [{"attr": f"A{i}", "value": "v0"} for i in range(4)]]
    space = ModelSpace(parse_model(document))
    entered, enter = [], Residual._enter
    monkeypatch.setattr(Residual, "_enter", lambda self, listed: (
        entered.extend(listed), enter(self, listed)))
    residual = Residual(space, t)
    assert entered == [(("A1", "v1"),), tuple((f"A{i}", "v0") for i in range(4))]
    assert list(residual) == oracles.feasible_requirements_by_search(space.model, t)
    assert len(residual) == residual.total == feasible_count(space, t)


@settings(max_examples=100, deadline=None)
@given(_credit_models(), st.data())
def test_augment_credit_equals_brute_force(case, data):
    model, t = case
    legal, feasible = _brute_force(model, t)
    assume(legal)
    passed = _draw_rows(data.draw, model, partial=False)
    n = data.draw(st.integers(1, 3))
    result = augment_plan(ModelSpace(model), t, passed, n)
    credited = [row for row in passed if row in legal]
    assert result.illegal_passed == [i for i, row in enumerate(passed)
                                     if row not in legal]
    assert result.residual_before == len(feasible) - len(_held(feasible, credited))
    covered = _held(feasible, credited + result.plan.tests)
    assert result.plan.covered == len(covered)
    assert result.residual_after == len(feasible) - len(covered)
    assert result.plan.total_feasible == len(feasible)
    assert all(test in legal for test in result.plan.tests)


@settings(max_examples=100, deadline=None)
@given(_credit_models(), st.lists(st.booleans(), min_size=1, max_size=6),
       st.integers(1, 3), st.integers(1, 4))
def test_cycle_residual_equals_brute_force(case, stream, n, max_cycles):
    model, t = case
    legal, feasible = _brute_force(model, t)
    assume(legal)
    executed = []  # (test, passed) in execution order

    def verdict(test):
        executed.append((test, stream[len(executed) % len(stream)]))
        return executed[-1][1]

    state = run_cycles(ModelSpace(model), t, n, verdict, max_cycles)
    assert state.residual == [r for r in feasible
                              if r not in _held(feasible, state.passed)]
    assert state.total_feasible == len(feasible)
    done, passed, history = 0, [], []
    for record in state.history:
        passed += [test for test, ok in executed[done:done + record.emitted] if ok]
        done += record.emitted
        assert record.covered == len(_held(feasible, passed))
        assert record.total_feasible == len(feasible)
        history.append(record.covered)
    assert history == sorted(history)
    assert passed == state.passed and done == len(executed)


@settings(max_examples=200, deadline=None)
@given(_credit_models(), st.data())
def test_measure_equals_brute_force(case, data):
    model, t = case
    legal, feasible = _brute_force(model, t)
    assume(legal)
    space = ModelSpace(model)
    rows = _draw_rows(data.draw, model, partial=False)
    rows += rows[:data.draw(st.integers(0, 2))]  # repeated rows
    residual = Residual(space, t, rows)
    assert residual.illegal == [i for i, row in enumerate(rows) if row not in legal]
    assert residual.total == len(feasible)
    covered = _held(feasible, [row for row in rows if row in legal])
    assert list(residual) == [r for r in feasible if r not in covered]
    listed = filter_feasible(generate_requirements(model, t), space).feasible()
    empty = Residual(space, t, [])
    assert (empty.total, list(empty)) == (len(feasible), feasible) == (len(listed), listed)


WIDE = 300  # values of W: codes past one byte


@st.composite
def _wide_cases(draw):
    """A model whose attribute W has 300 values, named by its constraints
    with codes on both sides of 255, next to two small attributes; t; and
    up to 100 rows that may be illegal, list their attributes in any order
    and repeat."""
    small = [f"v{j}" for j in range(draw(st.integers(1, 3)))]
    wide = st.integers(0, WIDE - 1)
    attributes = (Attribute("A0", tuple(map(Value, small))),
                  Attribute("W", tuple(Value(f"w{j}") for j in range(WIDE))),
                  Attribute("A1", tuple(map(Value, small))))
    constraints = tuple(draw(st.lists(st.one_of(
        st.builds(lambda v, j: f"A0 = {v} -> W != w{j}", st.sampled_from(small), wide),
        st.builds(lambda js, v: "W IN {" + ", ".join(f"w{j}" for j in js) + f"}} -> A1 != {v}",
                  st.sets(wide, min_size=1, max_size=4), st.sampled_from(small)),
        st.builds(lambda v, j: f"A1 = {v} -> W = w{j}", st.sampled_from(small), wide)),
        max_size=3)))
    model = Model(attributes, constraints)
    # rows drawn from a few W values, those the constraints name among them
    named = [int(w) for c in constraints for w in re.findall(r"w(\d+)", c)]
    values = st.sampled_from(sorted(set(named + draw(st.lists(wide, min_size=1, max_size=4)))))
    rows = []
    for _ in range(draw(st.integers(0, 100))):
        if rows and draw(st.integers(0, 4)) == 0:
            row = dict(draw(st.sampled_from(rows)))  # a repeated row
        else:
            row = {"A0": draw(st.sampled_from(small)), "W": f"w{draw(values)}",
                   "A1": draw(st.sampled_from(small))}
        rows.append({n: row[n] for n in draw(st.permutations(list(row)))})
    return model, draw(st.integers(1, 3)), rows


@settings(max_examples=60, deadline=None)
@given(_wide_cases())
def test_row_sets_split_and_residual_equal_brute_force(case):
    model, t, rows = case
    legal = oracles.legal_tuples(model, oracles.constraint_predicate(model))
    assume(legal)
    names = model.attribute_names
    held = {r for test in legal for r in oracles.t_tuples_of(test, names, t)}
    feasible = [r for r in oracles.requirement_tuples(model, t) if r in held]
    space = ModelSpace(model)
    sets = space.row_sets(rows)
    assert space.row_sets(rows, ["W"]) == {"W": sets["W"]}
    for a in names:
        assert sets[a] == [sum(1 << i for i, row in enumerate(rows) if row[a] == label)
                           for label in model.attribute(a).labels]
    assert space.select(space.legal, sets, len(rows)) == sum(
        1 << i for i, row in enumerate(rows) if row in legal)
    residual = Residual(space, t, rows)
    assert residual.illegal == [i for i, row in enumerate(rows) if row not in legal]
    covered = {r for test in rows if test in legal
               for r in oracles.t_tuples_of(test, names, t)}
    assert residual.total == len(feasible)
    assert list(residual) == [r for r in feasible if r not in covered]
    assert len(residual) == len(feasible) - len(covered)


def test_measure_at_t1(xyz_drop_a):
    """One attribute per subset: sub-rows are 1-tuples, and X = a, which
    the constraint excludes, is neither counted nor missing."""
    space = ModelSpace(xyz_drop_a)
    test = {"Z": "e", "X": "b", "Y": "c"}
    residual = Residual(space, 1, [test, test])
    missing = list(residual)
    assert residual.total == 5
    assert missing == [(("Y", "d"),), (("Z", "f"),)]
    assert list(Residual(space, 1, [])) == [
        (("X", "b"),), (("Y", "c"),), (("Y", "d"),), (("Z", "e"),), (("Z", "f"),)]
    report = coverage_of(space, [test, {"X": "a", "Y": "d", "Z": "f"}], 1)
    assert (report.covered, report.missing, report.illegal_tests) == (3, missing, [1])


def test_hot_paths_list_no_t_way_requirement(monkeypatch, code_review):
    """Measuring, generating and augmenting count the t-way requirements
    per attribute subset: no t-way list is generated or filtered, and only
    the directives that are not t wide go through `filter_feasible`."""
    directives = ((("LenCBchain", "0"),),
                  (("InterestingCB1", "true"), ("LenCBchain", "3")),
                  (("LenCBchain", "4"), ("InterestingCB1", "false"),
                   ("InterestingCB4", "true")))
    model = Model(code_review.attributes, code_review.constraints, directives)
    space = ModelSpace(model)
    legal, feasible = _brute_force(model, 2)
    filtered = []

    def directives_only(reqs, space):
        reqs = list(reqs)
        filtered.append(reqs)
        assert all(len(r) != 2 for r in reqs)
        return filter_feasible(reqs, space)

    def no_listing(model, t):
        raise AssertionError("every t-way requirement listed")

    monkeypatch.setattr(coverage, "filter_feasible", directives_only)
    monkeypatch.setattr(coverage, "generate_requirements", no_listing)
    plan = generate_plan(space, 2)
    report = coverage_of(space, plan.tests[:4], 2)
    result = augment_plan(space, 2, plan.tests[:4], 2)
    state = run_cycles(space, 2, 3, lambda test: True, 10)
    assert plan.total_feasible == report.total_feasible == len(feasible)
    assert plan.covered == len(feasible) and not state.residual
    assert result.residual_before == len(report.missing)
    assert filtered == [[directives[0], directives[2]]] * 4


def test_wide_directive_is_looked_up_once():
    """A 12-wide directive over 24 attributes is one lookup per test, not
    one per 12-combination of its bindings (2.7 million)."""
    names = [f"A{i}" for i in range(24)]
    wide = tuple((n, ("v1", "v2")[i % 2] if i < 6 else "v0")
                 for i, n in enumerate(names[:12]))
    model = parse_model({
        "attributes": [{"name": n, "values": ["v0", "v1", "v2"]} for n in names],
        "constraints": [f"{n} = v0" for n in names[6:]],
        "directives": [[{"attr": a, "value": v} for a, v in wide]],
    })
    space = ModelSpace(model)
    start = time.perf_counter()
    plan = generate_plan(space, 2)
    report = coverage_of(space, plan.tests, 2)
    assert time.perf_counter() - start < 1.0
    assert report.covered == report.total_feasible == plan.total_feasible
    free = itertools.product(*(["v0", "v1", "v2"] if i < 6 else ["v0"]
                               for i in range(24)))
    legal = [x for x in (dict(zip(names, combo)) for combo in free)
             if oracles.constraint_predicate(model)(x)]
    assert plan.tests == oracles.reference_greedy(model, 2, legal)
