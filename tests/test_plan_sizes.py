"""Plan sizes never grow: each full plan is at most the size the greedy
reached before its live-binding tie-break and redundant-row pass (recorded
on that code), and at least `lower_bound`.  A smaller plan is welcome; a
larger one is a regression even if it comes out faster.
"""

import pathlib

import pytest

import oracles
from ctdkit import ModelSpace, generate_plan, load_model, lower_bound, parse_model

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"

# (model, t) -> plan size before the tie-break and the pass
CEILINGS = {
    ("api8x2", 2): 9, ("api8x2", 3): 24,
    ("at_least_one", 2): 6, ("at_least_one", 3): 8,
    ("code_review", 2): 15, ("code_review", 3): 26,
    ("code_review_dispatch", 2): 21, ("code_review_dispatch", 3): 53,
    ("manual3x3x3", 2): 10, ("manual3x3x3", 3): 27,
    ("model1", 2): 64, ("model1", 3): 315,
    ("power_failure", 2): 12, ("power_failure", 3): 24,
    ("shopping", 2): 17, ("shopping", 3): 51,
    ("staircase", 2): 20, ("staircase", 3): 61,
    ("xyz", 2): 4, ("xyz", 3): 8,
    ("xyz_drop_a", 2): 4, ("xyz_drop_a", 3): 4,
    # added after the pass, at the sizes it gave then
    ("linked8x3", 2): 18, ("linked8x3", 3): 61,
    ("chain10x4", 2): 36, ("chain20x5", 2): 83, ("chain30x5", 2): 100,
    ("chain10x4", 3): 194, ("chain12x4", 3): 238,
}


def test_every_model_file_has_a_ceiling():
    names = {p.stem for p in MODELS.glob("*.json")}
    assert {(n, t) for n in names for t in (2, 3)} <= set(CEILINGS)


def _model(name):
    if name.startswith("chain"):
        k, v = map(int, name[len("chain"):].split("x"))
        return parse_model(oracles.chain_document(k, v))
    return load_model(MODELS / f"{name}.json")


@pytest.mark.parametrize("name,t", sorted(CEILINGS))
def test_plan_size_within_floor_and_ceiling(name, t):
    space = ModelSpace(_model(name))
    plan = generate_plan(space, t)
    assert plan.covered == plan.total_feasible
    assert lower_bound(space, t) <= len(plan) <= CEILINGS[name, t]
