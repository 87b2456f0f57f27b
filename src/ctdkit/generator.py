"""Greedy construction of near-minimal covering test plans.

One test per iteration (AETG-style): seed with the first requirement of
the residual (`coverage.Residual`) still uncovered, start from the legal
space's factors with those the seed touches cofactored on its values
(`ModelSpace.bind`), then bind the remaining attributes one at a time in
declaration order.  The factors have disjoint supports and each is
satisfiable, so a candidate value is viable iff cofactoring its
component's running function on it leaves it non-false, i.e. some legal
test extends the partial assignment.  Splitting a running function over an
attribute takes one cube cofactor per value and keeps the viable values
(`ModelSpace.split`), and the residual keeps each split for its whole
life: rows that reach the same running function, and the cycles of
`cycles.run_cycles`, reuse it.  When a component's blocks follow
declaration order, the attribute's block is at the top of its function, so
each cube is followed along edges and builds no nodes; a seed or a block
below the top (`model.build_encoding` may permute the blocks) builds
cofactors of that component alone and binds the same values.  Among viable
values, the one completing the most uncovered requirements wins.  Each row
keeps a running total, the sum of the residual's packed entries under
every key inside the row: the seed's keys start it (`Residual.row_total`),
each later binding adds only the keys it completes (`Residual.extend`),
and a value's score is its field of the total.  Ties go to the value held
by the most uncovered requirements (AETG's value-selection rule), then to
the lowest value index, or, given a tie seed, to a seeded random choice
among the values tied on both; `Residual.pick` ranks a value on both
counts with one packed key.  Each emitted row takes what it covers out of
the residual (`Residual.cover`).  Every emitted test is legal by
construction and covers at least one new requirement, so the loop covers
the whole residual unless a budget cuts it short.  A last pass drops the
rows whose requirements the others hold (`Residual.prune`).
"""

from __future__ import annotations

import random

from .coverage import Residual
from .errors import CtdError
from .model import ModelSpace
from .plans import TestPlan


def generate_plan(space: ModelSpace, t: int, budget: int | None = None,
                  tie_seed: int | None = None) -> TestPlan:
    """Cover every feasible t-way requirement of the space, or stop at
    budget.  Ties on both scores go to the lowest value index, or, given a
    `tie_seed`, to a choice seeded by it."""
    residual = Residual(space, t)
    tests = grow_tests(residual, budget,
                       None if tie_seed is None else random.Random(tie_seed))
    return TestPlan(tests, residual.total - len(residual), residual.total, t)


def grow_tests(residual: Residual, budget: int | None,
               rng: random.Random | None = None) -> list[dict[str, str]]:
    """Greedy core shared with cycle augmentation: cover the requirements
    of `residual`, on its space, emitting at most `budget` tests, less those
    `Residual.prune` drops.  Ties on both scores go to the lowest value
    index, or to `rng`'s choice when one is given.  Returns the tests, and
    takes what they cover out of `residual`.

    Each row is one dict, `partial`, and its scores come from its running
    total: the seed's bindings start both (`Residual.row_total`), and each
    value chosen (`Residual.pick`) extends the total by the keys it
    completes, then joins the row.  Its running functions, `fns`, hold each
    component's factor cofactored on the row's bindings (`ModelSpace.bind`
    for the seed's).  The engine splits each (running function, attribute)
    once per `residual` and its copies."""
    if budget is not None and budget < 1:
        raise CtdError(f"budget must be >= 1, got {budget}")
    space = residual.space
    attributes, component = space.model.attributes, space.component_of
    rows = []  # (test, the requirements it covered first)
    # each row covers its seed, so the iteration reads the next uncovered one
    for first in residual:
        if budget is not None and len(rows) == budget:
            break
        fns, partial, total = space.bind(first), dict(first), residual.row_total(first)
        for attr in attributes:
            if attr.name in partial:
                continue
            c = component[attr.name]
            label, fns[c] = residual.pick(total, fns[c], attr.name, rng)
            total = residual.extend(total, partial, (attr.name, label))
            partial[attr.name] = label
        rows.append((partial, residual.cover(partial)))
    return residual.prune(rows)
