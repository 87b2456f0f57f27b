"""Greedy construction of near-minimal covering test plans.

One test per iteration (AETG-style): seed with the first uncovered
requirement of the residual it is given (feasible requirements in
requirement order), start from
the legal space cofactored on its values, then bind the remaining
attributes one at a time in declaration order.  A candidate value is
viable iff cofactoring the running function on it leaves it non-false,
i.e. some legal test extends the partial assignment.  One engine call per
attribute gives every value's cofactor (`ModelSpace.value_cofactors`): the
attribute's block is at the top of the running function, so splitting it
follows edges and builds no nodes.  Among viable values,
the one completing the most currently-uncovered requirements wins, lowest
value index on ties (or a seeded random choice among the tied best when
randomized tie-breaking is enabled).  A candidate's score is how many of
its combinations with the bound values (`RequirementSet.candidate_keys`)
are in the set of uncovered requirement bindings.  Every emitted test is
legal by construction and covers at least one new requirement, so the
loop covers the whole residual unless a budget cuts it short; what is left
goes back to the caller.
"""

from __future__ import annotations

import random

from .coverage import (RequirementSet, _subset_counts, filter_feasible,
                       generate_requirements)
from .errors import CtdError
from .model import ModelSpace
from .plans import TestPlan


def generate_plan(space: ModelSpace, t: int, budget: int | None = None,
                  seed: int = 0, randomize_ties: bool = False) -> TestPlan:
    """Cover every feasible t-way requirement of the space, or stop at budget."""
    if budget is not None and budget < 1:
        raise CtdError(f"budget must be >= 1, got {budget}")
    reqs = filter_feasible(generate_requirements(space.model, t), space)
    feasible = reqs.feasible()
    tests, left = grow_tests(space, reqs, feasible, budget, seed, randomize_ties)
    return TestPlan(tests, len(feasible) - len(left), len(feasible), t)


def grow_tests(space: ModelSpace, reqs: RequirementSet, pending: list,
               budget: int | None, seed: int = 0, randomize_ties: bool = False
               ) -> tuple[list[dict[str, str]], list]:
    """Greedy core shared with cycle augmentation: cover the requirements
    of `pending` (feasible ones of `reqs`, in requirement order), emitting
    at most `budget` tests.  Returns the tests and the requirements of
    `pending` they leave uncovered, in order."""
    rng = random.Random(seed)
    uncovered = set(pending)
    attributes = space.model.attributes
    tests: list[dict[str, str]] = []
    first = 0
    while uncovered and (budget is None or len(tests) < budget):
        while pending[first] not in uncovered:
            first += 1
        after = list(pending[first])  # seed bindings not yet passed
        partial = dict(after)
        fn = space.cofactor(space.legal, after)
        before = []  # bindings of the attributes passed, in declaration order
        for attr in attributes:
            if after and after[0][0] == attr.name:
                before.append(after.pop(0))
                continue
            best = []  # tied (label, cofactor) candidates at best_score
            best_score = -1
            for label, candidate in zip(attr.labels,
                                        space.value_cofactors(fn, attr.name)):
                if candidate.is_false:
                    continue
                # uncovered requirements this binding completes: every other
                # binding is already in the partial assignment
                score = sum(map(uncovered.__contains__, reqs.candidate_keys(
                    before, (attr.name, label), after)))
                if score > best_score:
                    best, best_score = [(label, candidate)], score
                elif score == best_score:
                    best.append((label, candidate))
            label, fn = best[0] if not randomize_ties else rng.choice(best)
            partial[attr.name] = label
            before.append((attr.name, label))
        tests.append(partial)
        uncovered.difference_update(reqs.candidate_keys(before))
    return tests, [r for r in pending if r in uncovered]


def lower_bound(space: ModelSpace, t: int) -> int:
    """Plan-size floor: the largest count of feasible value tuples sharing
    one attribute subset (each needs its own test)."""
    return max(_subset_counts(space, t))
