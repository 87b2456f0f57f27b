"""Greedy construction of near-minimal covering test plans.

One test per iteration (AETG-style): seed with the first requirement of
the residual (`coverage.Residual`) still uncovered, start from the legal
space cofactored on its values, then bind the remaining attributes one at
a time in declaration order.  A candidate value is viable iff cofactoring
the running function on it leaves it non-false, i.e. some legal test
extends the partial assignment.  One engine call per attribute gives every
value's cofactor (`ModelSpace.value_cofactors`), and one greedy call makes
each split once: rows that reach the same running function reuse it.  When
the blocks follow declaration order, the attribute's block is at the top of
the running function, so splitting it follows edges and builds no nodes;
under a permuted block order (`model.build_encoding`) a block below the top
is cofactored, which builds nodes but binds the same values, so plans do
not depend on the order.  Among viable values, the one completing the most
uncovered requirements wins.  Each row keeps a running total, the sum of
the residual's packed entries under every key inside the row; a binding
adds only the keys it completes (`Residual.extend`), and a value's score is
its field of the total (`Residual.scores`).  Ties go to the value held by
the most uncovered requirements (AETG's value-selection rule), then to the
lowest value index, or to a seeded random choice among the values tied on
both when randomized tie-breaking is enabled.  Each emitted row takes what
it covers out of the residual (`Residual.cover`).  Every emitted test is
legal by construction and covers at least one new requirement, so the loop
covers the whole residual unless a budget cuts it short.

A last pass walks the rows backwards and drops each one whose newly
covered requirements the rows kept after it all hold: the rows before it
hold the rest of its requirements, so the plan covers exactly what it did,
and every row left holds a requirement no other row holds.
"""

from __future__ import annotations

import random

from .coverage import Residual, _subset_counts
from .errors import CtdError
from .model import ModelSpace
from .plans import TestPlan


def generate_plan(space: ModelSpace, t: int, budget: int | None = None,
                  seed: int = 0, randomize_ties: bool = False) -> TestPlan:
    """Cover every feasible t-way requirement of the space, or stop at budget."""
    if budget is not None and budget < 1:
        raise CtdError(f"budget must be >= 1, got {budget}")
    residual = Residual(space, t)
    tests = grow_tests(space, residual, budget,
                       random.Random(seed) if randomize_ties else None)
    return TestPlan(tests, residual.total - len(residual), residual.total, t)


def grow_tests(space: ModelSpace, residual: Residual, budget: int | None,
               rng: random.Random | None = None) -> list[dict[str, str]]:
    """Greedy core shared with cycle augmentation: cover the requirements
    of `residual`, emitting at most `budget` tests, less those the backward
    pass drops.  Ties on both scores go to the lowest value index, or to
    `rng`'s choice when one is given.  Returns the tests, and takes what
    they cover out of `residual`.

    Each row's scores come from its running total: the seed's bindings
    start it, and each value chosen extends it by the keys it completes.
    The engine splits each (running function, attribute) once per call;
    the splits are kept until the call returns."""
    attributes = space.model.attributes
    split = {}  # (root, attribute) -> its value cofactors, for this call
    rows = []  # (test, the requirements it covered first)
    # each row covers its seed, so the iteration reads the next uncovered one
    for first in residual:
        if budget is not None and len(rows) == budget:
            break
        after = list(first)  # seed bindings not yet passed
        partial = dict(after)
        fn = space.cofactor(space.legal, after)
        total = residual.start()
        for i, binding in enumerate(first):
            total = residual.extend(total, first[:i], binding)
        before = []  # bindings of the attributes passed, in declaration order
        for attr in attributes:
            if after and after[0][0] == attr.name:
                before.append(after.pop(0))
                continue
            if (fn.root, attr.name) not in split:
                split[fn.root, attr.name] = space.value_cofactors(fn, attr.name)
            best = []  # tied (label, cofactor) candidates at best_key
            best_key = (-1, -1)
            # ties go to the binding more uncovered requirements hold
            for label, key, candidate in zip(
                    attr.labels, residual.scores(total, attr.name),
                    split[fn.root, attr.name]):
                if candidate.is_false:
                    continue
                if key > best_key:
                    best, best_key = [(label, candidate)], key
                elif key == best_key:
                    best.append((label, candidate))
            label, fn = best[0] if rng is None else rng.choice(best)
            partial[attr.name] = label
            total = residual.extend(total, before + after, (attr.name, label))
            before.append((attr.name, label))
        rows.append((partial, residual.cover(partial)))
    # drop each row whose first-covered requirements the kept later rows hold
    tests, later = [], {}
    for test, done in reversed(rows):
        if any(bits & ~later.get(key, 0) for key, bits in done.items()):
            tests.append(test)
            residual.hold(later, test)
    tests.reverse()
    return tests


def lower_bound(space: ModelSpace, t: int) -> int:
    """Plan-size floor: the largest count of feasible value tuples sharing
    one attribute subset (each needs its own test)."""
    return max(_subset_counts(space, t))
