"""Cross-cycle augmentation: crediting, residuals, and the cycle loop."""

import math

import pytest

import oracles
from ctdkit import (
    CtdError,
    Model,
    ModelSpace,
    augment_plan,
    coverage_of,
    generate_plan,
    parse_model,
    read_plan_csv,
    run_cycles,
)
from ctdkit.coverage import Residual
from ctdkit.cycles import CycleRecord
from ctdkit.generator import grow_tests


def test_augmenting_a_complete_plan_emits_nothing(api8x2_space):
    full = generate_plan(api8x2_space, 2)
    result = augment_plan(api8x2_space, 2, full.tests, n=10)
    assert result.plan.tests == []
    assert result.residual_before == 0
    assert result.residual_after == 0


def test_augment_with_no_credit_reduces_to_generate(api8x2_space):
    full = generate_plan(api8x2_space, 2)
    result = augment_plan(api8x2_space, 2, [], n=len(full) + 5)
    assert result.plan.tests == full.tests
    assert result.residual_after == 0


def test_augment_after_three_passed_rows(api8x2, api8x2_space, models_dir):
    _, rows = read_plan_csv(models_dir / "api8x2_plan7.csv")
    passed = rows[:3]
    names = [a.name for a in api8x2.attributes]
    oracle_residual = (oracles.feasible_t_tuples(api8x2, 2)
                       - oracles.covered_t_tuples(passed, names, 2))
    result = augment_plan(api8x2_space, 2, passed, n=30)
    assert result.residual_before == len(oracle_residual)
    assert result.residual_after == 0
    union = passed + result.plan.tests
    assert coverage_of(api8x2_space, union, 2).percent == 100.0


def test_augment_credits_directive_wider_than_t(shopping):
    quad = (("Availability", "Available"), ("Payment", "Credit"),
            ("Carrier", "Fedex"), ("DeliverySchedule", "One Day"))
    space = ModelSpace(Model(shopping.attributes, shopping.constraints, (quad,)))
    holds = dict(quad, ExportControl="True")
    result = augment_plan(space, 2, [holds], n=100)
    assert result.residual_before == 102 - 11
    assert result.residual_after == 0
    assert all(not all(test[a] == v for a, v in quad)
               for test in result.plan.tests), "the directive was already credited"


def test_augment_ignores_and_reports_illegal_passed(code_review_space):
    illegal = {"LenCBchain": "0", "InterestingCB1": "true",
               "InterestingCB2": "false", "InterestingCB3": "false",
               "InterestingCB4": "false", "InterestingCB5": "false"}
    with_illegal = augment_plan(code_review_space, 2, [illegal], n=1)
    without = augment_plan(code_review_space, 2, [], n=1)
    assert with_illegal.illegal_passed == [0]
    assert with_illegal.residual_before == without.residual_before
    assert with_illegal.plan.tests == without.plan.tests


def test_augment_respects_budget(api8x2_space):
    result = augment_plan(api8x2_space, 2, [], n=2)
    assert len(result.plan.tests) == 2
    assert result.residual_after < result.residual_before


def test_augment_rejects_bad_budget(api8x2_space):
    for n in (0, -1):
        with pytest.raises(CtdError, match=rf"^budget must be >= 1, got {n}$"):
            augment_plan(api8x2_space, 2, [], n=n)


def test_cycles_all_pass_terminates_quickly(api8x2_space):
    full = generate_plan(api8x2_space, 2)
    n = 3
    state = run_cycles(api8x2_space, 2, n, lambda test: True, max_cycles=50)
    assert state.history[-1].percent == 100.0
    assert state.residual == []
    assert len(state.history) <= math.ceil(len(full) / n) + 1
    percents = [record.percent for record in state.history]
    assert all(a < b for a, b in zip(percents, percents[1:]))
    assert percents[-1] == 100.0


def test_cycles_all_fail_stays_at_zero(api8x2_space):
    state = run_cycles(api8x2_space, 2, 3, lambda test: False, max_cycles=4)
    assert len(state.history) == 4
    assert state.history[-1].percent == 0.0
    assert state.passed == []
    assert all(record.covered == 0 for record in state.history)


def test_cycles_alternating_verdicts_make_progress(api8x2_space):
    calls = [0]

    def alternate(test):
        calls[0] += 1
        return calls[0] % 2 == 1

    # drive the loop by hand to watch per-cycle progress
    passed, percents, passed_per_cycle = [], [], []
    for _ in range(200):
        result = augment_plan(api8x2_space, 2, passed, n=3)
        if not result.plan.tests:
            break
        newly = [test for test in result.plan.tests if alternate(test)]
        passed.extend(newly)
        passed_per_cycle.append(len(newly))
        percents.append(coverage_of(api8x2_space, passed, 2).percent)
        if percents[-1] == 100.0:
            break
    assert percents[-1] == 100.0
    # nondecreasing always; strictly increasing whenever a test passed
    assert all(a <= b for a, b in zip(percents, percents[1:]))
    previous = 0.0
    for percent, k in zip(percents, passed_per_cycle):
        if k:
            assert percent > previous
        previous = percent
    # the packaged loop reaches the same end state
    calls[0] = 0
    state = run_cycles(api8x2_space, 2, 3, alternate, max_cycles=200)
    assert state.history[-1].percent == 100.0


def test_cycles_split_once_and_match_fresh_residuals(monkeypatch):
    # one run splits each (root, attribute) once across all its cycles, and
    # each cycle's tests are those a residual built afresh and covered by
    # the tests passed so far gives
    space = ModelSpace(parse_model(oracles.chain_document(8, 3)))
    splits, split = [], ModelSpace.split

    def spy(self, fn, attr):
        splits.append((fn.root, attr))
        return split(self, fn, attr)

    def every_third_fails(calls):
        return lambda test: calls.append(test) or len(calls) % 3 != 0

    monkeypatch.setattr(ModelSpace, "split", spy)
    calls = []
    state = run_cycles(space, 2, 3, every_third_fails(calls), max_cycles=50)
    assert splits and len(splits) == len(set(splits))
    verdict, passed, history, emitted = every_third_fails([]), [], [], []
    while len(history) < 50:
        fresh = Residual(space, 2)
        for test in passed:
            fresh.cover(test)
        if not fresh:
            break
        tests = grow_tests(fresh.copy(), 3)
        emitted.extend(tests)
        for test in filter(verdict, tests):
            passed.append(test)
            fresh.cover(test)
        history.append(CycleRecord(len(tests), fresh.total - len(fresh), fresh.total))
    assert len(history) > 3 and len(passed) < len(emitted)
    assert calls == emitted
    assert state.passed == passed and state.history == history
    assert state.residual == []


def test_cycles_never_duplicate_credited_tests(api8x2_space):
    state = run_cycles(api8x2_space, 2, 2, lambda test: True, max_cycles=50)
    keys = [tuple(sorted(test.items())) for test in state.passed]
    assert len(keys) == len(set(keys))


def test_cycles_record_budget_and_emission(api8x2_space):
    state = run_cycles(api8x2_space, 2, 4, lambda test: True, max_cycles=50)
    assert all(1 <= record.emitted <= 4 for record in state.history)
    assert sum(record.emitted for record in state.history) == len(state.passed)


def test_cycles_rejects_bad_arguments(api8x2_space):
    with pytest.raises(CtdError):
        run_cycles(api8x2_space, 2, 3, lambda test: True, max_cycles=0)
    with pytest.raises(CtdError, match=r"^budget must be >= 1, got 0$"):
        run_cycles(api8x2_space, 2, 0, lambda test: True, max_cycles=3)
