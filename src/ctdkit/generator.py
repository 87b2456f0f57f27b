"""Greedy construction of near-minimal covering test plans.

One test per iteration (AETG-style): seed with the first uncovered
feasible requirement (in the deterministic requirement order), start from
the legal space cofactored on its values, then bind the remaining
attributes one at a time in declaration order.  A candidate value is
viable iff cofactoring the running function on it leaves it non-false,
i.e. some legal test extends the partial assignment.  Among viable values,
the one completing the most currently-uncovered requirements wins, lowest
value index on ties (or a seeded random choice among the tied best when
randomized tie-breaking is enabled).  Scores are counted through an
(attr, value) -> requirements index, so a candidate touches only the
requirements that mention it.  Every emitted test is legal by construction
and covers at least one new requirement, so the loop terminates at full
coverage unless a budget cuts it short.
"""

from __future__ import annotations

import random

from .coverage import (RequirementSet, _subset_counts, filter_feasible,
                       generate_requirements)
from .errors import CtdError
from .model import ModelSpace
from .plans import GENERATED, TestPlan


def generate_plan(space: ModelSpace, t: int, budget: int | None = None,
                  seed: int = 0, randomize_ties: bool = False) -> TestPlan:
    """Cover every feasible t-way requirement of the space, or stop at budget."""
    if budget is not None and budget < 1:
        raise CtdError(f"budget must be >= 1, got {budget}")
    reqs = filter_feasible(generate_requirements(space.model, t), space)
    tests = grow_tests(space, reqs, set(), budget, seed, randomize_ties)
    return TestPlan(tests, len(reqs.covered(tests)), len(reqs.feasible()), t,
                    [GENERATED] * len(tests))


def grow_tests(space: ModelSpace, reqs: RequirementSet, already_covered: set,
               budget: int | None, seed: int = 0,
               randomize_ties: bool = False) -> list[dict[str, str]]:
    """Greedy core shared with cycle augmentation: cover the feasible
    requirements of `reqs` minus `already_covered`, emitting at most
    `budget` tests."""
    rng = random.Random(seed)
    pending = [r for r in reqs.feasible() if r not in already_covered]
    live = [True] * len(pending)  # not yet covered, by position in `pending`
    remaining = len(pending)
    # (attr, label) -> (position, other attrs, their values), for each binding
    by_binding: dict[tuple[str, str], list] = {}
    for i, r in enumerate(pending):
        for j, binding in enumerate(r.bindings):
            rest = r.bindings[:j] + r.bindings[j + 1:]
            by_binding.setdefault(binding, []).append(
                (i, tuple(a for a, _ in rest), tuple(v for _, v in rest)))
    position = {r: i for i, r in enumerate(pending)}
    attributes = space.model.attributes
    tests: list[dict[str, str]] = []
    first = 0
    while remaining and (budget is None or len(tests) < budget):
        while not live[first]:
            first += 1
        seed_req = pending[first]
        partial = dict(seed_req.bindings)
        bound = partial.get
        fn = space.cofactor(space.legal, seed_req.bindings)
        for attr in attributes:
            if attr.name in partial:
                continue
            best = []  # tied (label, cofactor) candidates at best_score
            best_score = -1
            for label in attr.labels:
                candidate = space.cofactor(fn, ((attr.name, label),))
                if candidate.is_false:
                    continue
                # uncovered requirements this binding completes: every other
                # binding is already in the partial assignment
                score = 0
                for i, others, values in by_binding.get((attr.name, label), ()):
                    if live[i] and tuple(map(bound, others)) == values:
                        score += 1
                if score > best_score:
                    best, best_score = [(label, candidate)], score
                elif score == best_score:
                    best.append((label, candidate))
            label, fn = best[0] if not randomize_ties else rng.choice(best)
            partial[attr.name] = label
        tests.append(partial)
        for r in reqs.covered([partial]):
            i = position.get(r)  # None: covered before this call
            if i is not None and live[i]:
                live[i] = False
                remaining -= 1
    return tests


def lower_bound(space: ModelSpace, t: int) -> int:
    """Plan-size floor: the largest count of feasible value tuples sharing
    one attribute subset (each needs its own test)."""
    return max(_subset_counts(space, t))
