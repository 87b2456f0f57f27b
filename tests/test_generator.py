"""Greedy plan construction: completeness, legality, size, determinism, budget."""

import json
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from ctdkit import (
    CtdError,
    Model,
    ModelSpace,
    augment_plan,
    coverage_of,
    generate_plan,
    lower_bound,
    parse_model,
)
from test_coverage import _credit_models, _held


def _check_plan(space, plan, t):
    # every test legal, none duplicated, coverage metrics honest
    seen, legal = set(), oracles.constraint_predicate(space.model)
    for test in plan.tests:
        space.model.check_assignment(test)
        assert legal(test)
        key = tuple(sorted(test.items()))
        assert key not in seen, "duplicate test emitted"
        seen.add(key)
    report = coverage_of(space, plan.tests, t)
    assert report.covered == plan.covered
    assert report.total_feasible == plan.total_feasible


def test_plan_for_8x2_model(api8x2_space):
    plan = generate_plan(api8x2_space, 2)
    assert plan.covered == plan.total_feasible == 112
    assert len(plan) <= 10
    _check_plan(api8x2_space, plan, 2)


def test_plan_for_3x3x3_model(manual3x3x3):
    space = ModelSpace(manual3x3x3)
    plan = generate_plan(space, 2)
    assert plan.covered == plan.total_feasible == 27
    assert len(plan) <= 12
    _check_plan(space, plan, 2)


def test_plan_for_9752_model(model1):
    space = ModelSpace(model1)
    plan = generate_plan(space, 2)
    assert plan.covered == plan.total_feasible == 185
    assert 63 <= len(plan) <= 80
    _check_plan(space, plan, 2)


def test_plan_for_constrained_model(code_review_space):
    plan = generate_plan(code_review_space, 2)
    assert plan.covered == plan.total_feasible == 85
    _check_plan(code_review_space, plan, 2)


def test_plan_with_directives(shopping):
    triple = (("Payment", "Credit"), ("DeliverySchedule", "One Day"),
              ("Carrier", "Fedex"))
    m = Model(shopping.attributes, shopping.constraints, (triple,))
    space = ModelSpace(m)
    plan = generate_plan(space, 2)
    assert plan.covered == plan.total_feasible == 102
    assert any(all(test[a] == v for a, v in triple) for test in plan.tests)


def test_plan_size_within_sanity_bounds(shopping_space, api8x2_space,
                                        code_review_space):
    for space in (shopping_space, api8x2_space, code_review_space):
        plan = generate_plan(space, 2)
        assert lower_bound(space, 2) <= len(plan) <= plan.total_feasible


def test_determinism(api8x2_space, code_review_space):
    for space in (api8x2_space, code_review_space):
        a = generate_plan(space, 2, seed=5)
        b = generate_plan(space, 2, seed=5)
        assert a.tests == b.tests
        r1 = generate_plan(space, 2, seed=5, randomize_ties=True)
        r2 = generate_plan(space, 2, seed=5, randomize_ties=True)
        assert r1.tests == r2.tests
        assert r1.covered == r1.total_feasible


def test_budget_is_respected(model1):
    space = ModelSpace(model1)
    plan = generate_plan(space, 2, budget=5)
    assert len(plan) == 5
    assert plan.partial
    covered = [generate_plan(space, 2, budget=b).covered for b in (1, 5, 20, 70)]
    assert covered == sorted(covered)
    full = generate_plan(space, 2)
    assert generate_plan(space, 2, budget=len(full)).covered == full.covered


def test_budget_larger_than_needed_changes_nothing(api8x2_space):
    free = generate_plan(api8x2_space, 2)
    capped = generate_plan(api8x2_space, 2, budget=100)
    assert free.tests == capped.tests
    assert not free.partial


def test_bad_budget_rejected(api8x2_space):
    with pytest.raises(CtdError):
        generate_plan(api8x2_space, 2, budget=0)


def test_t_out_of_range(api8x2_space):
    with pytest.raises(CtdError):
        generate_plan(api8x2_space, 9)


def test_t1_plan_covers_every_value(shopping_space):
    plan = generate_plan(shopping_space, 1)
    assert plan.covered == plan.total_feasible == 16  # 4+3+3+4+2 values
    assert len(plan) == lower_bound(shopping_space, 1) == 4


def test_full_strength_plan_enumerates_legal_space(xyz):
    space = ModelSpace(xyz)
    plan = generate_plan(space, 3)
    assert len(plan) == 8
    assert plan.covered == plan.total_feasible == 8


def test_t3_plan_lists_no_requirement():
    """The greedy works on one packed residual: a t=3 plan on a 12x4 chain
    (13,840 requirements) peaks well below what listing them takes."""
    space = ModelSpace(parse_model(oracles.chain_document(12, 4)))
    tracemalloc.start()
    try:
        plan = generate_plan(space, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(plan) == 191
    assert peak < 4 * 2 ** 20


def test_lower_bound_values(model1, api8x2_space, xyz_drop_a):
    assert lower_bound(ModelSpace(model1), 2) == 63  # 9 x 7 value pairs
    assert lower_bound(api8x2_space, 2) == 4
    # at t=1 the bound is the largest domain restricted to feasible values
    assert lower_bound(ModelSpace(xyz_drop_a), 1) == 2


def test_generated_coverage_matches_brute_force(api8x2, api8x2_space):
    plan = generate_plan(api8x2_space, 2)
    names = [a.name for a in api8x2.attributes]
    covered = oracles.covered_t_tuples(plan.tests, names, 2)
    assert covered == oracles.feasible_t_tuples(api8x2, 2)


@pytest.mark.parametrize("k, v, t, most", [(20, 5, 2, 3500), (12, 4, 3, 700)])
def test_candidates_add_few_nodes(k, v, t, most):
    # the greedy splits each attribute's block along edges; cofactoring every
    # candidate value bit by bit would more than double the nodes
    space = ModelSpace(parse_model(oracles.chain_document(k, v)))
    generate_plan(space, t)
    assert len(space.manager) <= most


@pytest.mark.parametrize("document, t, nodes", [
    (oracles.chain_document(20, 5), 2, 1677), (oracles.chain_document(20, 5), 3, 6591),
    ("linked8x3", 2, 301), ("linked8x3", 3, 495)])
def test_each_split_made_once(monkeypatch, models_dir, document, t, nodes):
    # one greedy call splits each (root, attribute) once, and reusing the
    # splits builds no node more or less than making them again did
    if isinstance(document, str):
        document = json.loads((models_dir / f"{document}.json").read_text())
    space = ModelSpace(parse_model(document))
    splits, value_cofactors = [], ModelSpace.value_cofactors

    def spy(self, fn, attr):
        splits.append((fn.root, attr))
        return value_cofactors(self, fn, attr)

    monkeypatch.setattr(ModelSpace, "value_cofactors", spy)
    generate_plan(space, t)
    assert splits and len(splits) == len(set(splits))
    assert len(space.manager) == nodes


@st.composite
def _greedy_cases(draw):
    """A `_credit_models` model, t of 1..3, a seed and up to three passed
    rows that may be illegal."""
    model, _ = draw(_credit_models())
    t = draw(st.integers(1, min(3, len(model.attributes))))
    passed = [{a.name: draw(st.sampled_from(a.labels)) for a in model.attributes}
              for _ in range(draw(st.integers(0, 3)))]
    return model, t, draw(st.integers(0, 3)), passed


def _each_row_needed(tests, requirements):
    """Every test holds a requirement that no other test holds."""
    return all(set(_held(requirements, tests[i:i + 1]))
               - set(_held(requirements, tests[:i] + tests[i + 1:]))
               for i in range(len(tests)))


@settings(max_examples=150, deadline=None)
@given(_greedy_cases())
def test_greedy_plans_against_brute_force(case):
    model, t, seed, passed = case
    legal = oracles.legal_tuples(model, oracles.constraint_predicate(model))
    assume(legal)
    feasible = oracles.feasible_requirement_tuples(model, t, legal)
    everything = oracles.requirement_tuples(model, t)
    space = ModelSpace(model)
    for randomize in (False, True):
        tests = generate_plan(space, t, seed=seed, randomize_ties=randomize).tests
        assert tests == oracles.reference_greedy(model, t, legal, seed=seed,
                                                 randomize_ties=randomize)
        assert all(test in legal for test in tests)
        assert _held(everything, tests) == feasible
        assert _each_row_needed(tests, feasible)
    new = augment_plan(space, t, passed, 2).plan.tests
    covered = set(_held(feasible, [p for p in passed if p in legal]))
    assert new == oracles.reference_greedy(model, t, legal, budget=2, seed=seed,
                                           already_covered=covered)
    assert len(new) <= 2 and all(test in legal for test in new)
    assert _each_row_needed(new, set(feasible) - covered)
