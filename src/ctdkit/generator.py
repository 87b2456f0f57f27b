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
the one completing the most currently-uncovered requirements wins.
Scores come from an index built once per call: each pending requirement
is entered under each of its keys "the requirement less one binding", as
a packed integer with one counter field per binding, the requirement
setting the field of the binding its key lacks.  At each attribute step,
one `sum` in C adds the entries of every key drawn from the bound values
(`RequirementSet.step_keys`), and a candidate's score is its field of
that total.  An emitted row clears its fields from every key inside it
(`RequirementSet.sub_keys`), which takes out exactly the requirements it
covers.  Ties go to the value held by the most uncovered requirements
(AETG's value-selection rule; a `Counter` of live bindings, decremented
as rows cover requirements), then to the lowest value index, or to a
seeded random choice among the values tied on both when randomized
tie-breaking is enabled.  Every emitted test is legal by construction and
covers at least one new requirement, so the loop covers the whole residual
unless a budget cuts it short; what is left goes back to the caller.

A last pass walks the rows backwards and drops each one whose newly
covered requirements the rows kept after it all hold: the rows before it
hold the rest of its requirements, so the plan covers exactly what it did,
and every row left holds a requirement no other row holds.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

from .coverage import RequirementSet, _subset_counts, measure
from .errors import CtdError
from .model import ModelSpace
from .plans import TestPlan


def generate_plan(space: ModelSpace, t: int, budget: int | None = None,
                  seed: int = 0, randomize_ties: bool = False) -> TestPlan:
    """Cover every feasible t-way requirement of the space, or stop at budget."""
    if budget is not None and budget < 1:
        raise CtdError(f"budget must be >= 1, got {budget}")
    reqs, total, feasible = measure(space, t, ())
    tests, left = grow_tests(space, reqs, feasible, budget, seed, randomize_ties)
    return TestPlan(tests, total - len(left), total, t)


def grow_tests(space: ModelSpace, reqs: RequirementSet, pending: list,
               budget: int | None, seed: int = 0, randomize_ties: bool = False
               ) -> tuple[list[dict[str, str]], list]:
    """Greedy core shared with cycle augmentation: cover the requirements
    of `pending` (feasible ones of `reqs`, in requirement order), emitting
    at most `budget` tests, less those the backward pass drops.  Returns
    the tests and the requirements of `pending` they leave uncovered, in
    order."""
    rng = random.Random(seed)
    uncovered = set(pending)
    live = Counter(itertools.chain.from_iterable(pending))  # uncovered, per binding
    attributes = space.model.attributes
    # one counter field per binding, wide enough that a step's total of
    # `most_step_keys` entries carries into no neighbour
    width = reqs.most_step_keys().bit_length()
    ones = (1 << width) - 1
    offset = {binding: width * i for i, binding in enumerate(
        (a.name, label) for a in attributes for label in a.labels)}
    # each pending requirement less one binding -> the field of that binding
    lacking: dict[tuple, int] = {}
    for r in pending:
        for key, binding in zip(itertools.combinations(r, len(r) - 1), reversed(r)):
            lacking[key] = lacking.get(key, 0) | 1 << offset[binding]
    rows = []  # (test, the requirements it may cover, those it covered first)
    first = 0
    while uncovered and (budget is None or len(rows) < budget):
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
            # per binding of attr, in its field: the uncovered requirements
            # it completes (every other binding is in the partial assignment)
            total = sum(map(lacking.get, reqs.step_keys(before + after, attr.name),
                            itertools.repeat(0)))
            best = []  # tied (label, cofactor) candidates at best_key
            best_key = (-1, -1)
            for label, candidate in zip(attr.labels,
                                        space.value_cofactors(fn, attr.name)):
                if candidate.is_false:
                    continue
                binding = (attr.name, label)
                # ties go to the binding more uncovered requirements hold
                key = ((total >> offset[binding]) & ones, live.get(binding, 0))
                if key > best_key:
                    best, best_key = [(label, candidate)], key
                elif key == best_key:
                    best.append((label, candidate))
            label, fn = best[0] if not randomize_ties else rng.choice(best)
            partial[attr.name] = label
            before.append((attr.name, label))
        keys = tuple(reqs.candidate_keys(before))
        done = uncovered.intersection(keys)
        uncovered -= done
        # every requirement done is in the row: at most one binding per attribute
        for binding, count in Counter(itertools.chain.from_iterable(done)).items():
            live[binding] -= count
        # a row binding's field under a key inside the row is a requirement
        # the row holds: clear them all
        keep = ~sum(1 << offset[binding] for binding in before)
        for key in reqs.sub_keys(before):
            if key in lacking:
                lacking[key] &= keep
        rows.append((partial, keys, done))
    # drop each row whose first-covered requirements the kept later rows hold
    tests, later = [], set()
    for test, keys, done in reversed(rows):
        if not done <= later:
            tests.append(test)
            later.update(keys)
    tests.reverse()
    return tests, [r for r in pending if r in uncovered]


def lower_bound(space: ModelSpace, t: int) -> int:
    """Plan-size floor: the largest count of feasible value tuples sharing
    one attribute subset (each needs its own test)."""
    return max(_subset_counts(space, t))
