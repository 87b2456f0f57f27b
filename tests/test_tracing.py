"""The benchmark's traced mode (`bench/tracing.py`) against the library:
the functions it wraps keep their names, and `filter_feasible` still
returns something it can measure."""

import importlib.util
import pathlib

import pytest

import oracles
import ctdkit
import ctdkit.cli  # noqa: F401  (the tracer wraps `cli.main` too)

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_every_layer_of_the_library(code_review, code_review_space):
    originals = (ctdkit.generate_plan, ctdkit.filter_feasible)
    tracer = _tracing_module().Tracer()
    tracer.install()
    try:
        space = code_review_space
        plan = ctdkit.generate_plan(space, 2)
        ctdkit.coverage_of(space, plan.tests[:3], 2)
        ctdkit.augment_plan(space, 2, plan.tests[:3], 2)
        ctdkit.run_cycles(space, 2, 3, lambda test: True, 5)
        metrics = tracer.summary(1)
    finally:
        tracer.uninstall()
    assert (ctdkit.generate_plan, ctdkit.filter_feasible) == originals
    # one requirement set per call of each of the four functions
    assert metrics["coverage.filter_calls"][0] == 4
    assert metrics["generator.grow_calls"][0] >= 3
    # each of the four built the t=2 requirements once
    assert metrics["coverage.requirements"][0] == 4 * len(
        ctdkit.generate_requirements(code_review, 2))
    legal = oracles.legal_tuples(code_review, oracles.constraint_predicate(code_review))
    feasible = oracles.feasible_requirement_tuples(code_review, 2, legal)
    assert metrics["coverage.feasible_ratio"][0] == pytest.approx(
        len(feasible) / len(oracles.requirement_tuples(code_review, 2)))
