"""Plans and feasibility equal the brute-force reference, row for row.

The reference greedy in `oracles` runs the generator's algorithm by its
definition, over enumerated legal tuples and full scans, so any shortcut
the library takes (cofactors, projections, indexes) must reproduce it
exactly, tie-breaks and seeded random choices included.
"""

import collections
import functools
import pathlib

import pytest

import oracles
from ctdkit import (
    Model,
    ModelSpace,
    augment_plan,
    filter_feasible,
    generate_plan,
    generate_requirements,
    load_model,
    lower_bound,
    parse_model,
    run_cycles,
)
from ctdkit.coverage import feasible_count

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"
MODEL_NAMES = sorted(p.stem for p in MODELS.glob("*.json"))

# directives wider and narrower than t, one of them infeasible
CODE_REVIEW_DIRECTIVES = (
    (("InterestingCB5", "true"), ("LenCBchain", "5"), ("InterestingCB1", "false")),
    (("InterestingCB5", "true"), ("LenCBchain", "4"), ("InterestingCB2", "true")),
    (("InterestingCB3", "true"),),
)
SHOPPING_DIRECTIVES = (
    (("Payment", "Credit"), ("DeliverySchedule", "One Day"),
     ("Carrier", "Fedex"), ("Availability", "Available")),
)


VARIANTS = {
    "code_review+directives": ("code_review", CODE_REVIEW_DIRECTIVES),
    "shopping+directives": ("shopping", SHOPPING_DIRECTIVES),
}
CASE_NAMES = MODEL_NAMES + ["chain6x3"] + list(VARIANTS)


@functools.lru_cache(maxsize=None)
def _case(name):
    """(model, legal tuples) for a model file, a directive variant or a chain."""
    if name == "chain6x3":
        model = parse_model(oracles.chain_document(6, 3))
    elif name in VARIANTS:
        base_name, directives = VARIANTS[name]
        base = load_model(MODELS / f"{base_name}.json")
        model = Model(base.attributes, base.constraints, directives)
    else:
        model = load_model(MODELS / f"{name}.json")
    return model, oracles.legal_tuples(model, oracles.constraint_predicate(model))


CASES = [(name, t) for name in CASE_NAMES
         for t in range(1, min(3, len(_case(name)[0].attributes)) + 1)]


@pytest.mark.parametrize("name,t", CASES)
def test_plan_equals_reference_greedy(name, t):
    model, legal = _case(name)
    space = ModelSpace(model)
    assert generate_plan(space, t).tests == oracles.reference_greedy(model, t, legal)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name,t", CASES)
def test_randomized_plan_equals_reference_greedy(name, t, seed):
    model, legal = _case(name)
    space = ModelSpace(model)
    plan = generate_plan(space, t, tie_seed=seed)
    assert plan.tests == oracles.reference_greedy(model, t, legal, seed=seed,
                                                  randomize_ties=True)


@pytest.mark.parametrize("name,t", CASES)
def test_feasibility_equals_brute_force(name, t):
    model, legal = _case(name)
    reqs = filter_feasible(generate_requirements(model, t), ModelSpace(model))
    assert list(reqs) == oracles.requirement_tuples(model, t)
    feasible = reqs.feasible()
    assert feasible == oracles.feasible_requirement_tuples(model, t, legal)
    names = [a.name for a in model.attributes]
    t_wide = {r for r in feasible if len(r) == t}
    assert t_wide == oracles.covered_t_tuples(legal, names, t)


@pytest.mark.parametrize("name,t", CASES)
def test_feasible_count_equals_brute_force(name, t):
    model, legal = _case(name)
    expected = len(oracles.feasible_requirement_tuples(model, t, legal))
    assert feasible_count(ModelSpace(model), t) == expected


@pytest.mark.parametrize("name,t", CASES)
def test_lower_bound_equals_brute_force(name, t):
    model, legal = _case(name)
    per_subset = collections.Counter(
        tuple(a for a, _ in r)
        for r in oracles.feasible_requirement_tuples(model, t, legal)
        if len(r) == t)
    assert lower_bound(ModelSpace(model), t) == max(per_subset.values())


def _held_by(feasible, tests):
    """The requirement tuples of `feasible` that some test in `tests` holds."""
    return {r for r in feasible
            if any(all(test[a] == v for a, v in r) for test in tests)}


@pytest.mark.parametrize("name,t", CASES)
def test_augmented_plan_equals_reference_greedy(name, t):
    model, legal = _case(name)
    space = ModelSpace(model)
    passed = generate_plan(space, t).tests[:2]
    feasible = oracles.feasible_requirement_tuples(model, t, legal)
    result = augment_plan(space, t, passed, 3)
    assert result.plan.tests == oracles.reference_greedy(
        model, t, legal, budget=3, already_covered=_held_by(feasible, passed))


@pytest.mark.parametrize("verdicts", ["all-pass", "alternating"])
@pytest.mark.parametrize("name,t", CASES)
def test_every_cycle_equals_reference_greedy(name, t, verdicts):
    """The first cycles of `run_cycles`, each against the reference greedy
    given what passed before it (more cycles would only repeat the check
    at a cost that grows with the plan)."""
    model, legal = _case(name)
    feasible = oracles.feasible_requirement_tuples(model, t, legal)
    executed = []  # (test, passed) in execution order

    def verdict(test):
        passed = verdicts == "all-pass" or len(executed) % 2 == 0
        executed.append((test, passed))
        return passed

    state = run_cycles(ModelSpace(model), t, 3, verdict, max_cycles=4)
    done, passed = 0, []
    for record in state.history:
        cycle = executed[done:done + record.emitted]
        assert [test for test, _ in cycle] == oracles.reference_greedy(
            model, t, legal, budget=3, already_covered=_held_by(feasible, passed))
        passed += [test for test, ok in cycle if ok]
        done += record.emitted
    assert done == len(executed)
    assert [test for test, ok in executed if ok] == state.passed
