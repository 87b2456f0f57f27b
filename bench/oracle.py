"""Expected answers for the benchmark, computed without ctdkit.

Rows and requirements are plain tuples of value indices.  A t-tuple is
((attr, value), ...) sorted by attribute, the shape and order in which
ctdkit lists requirements (attribute subsets in declaration order, value
tuples in value-index order).

Chain models have a structural shortcut: their constraints touch disjoint
attribute pairs and each forbids one value pair, so every partial
assignment that avoids all forbidden pairs extends to a legal row, and a
t-tuple is infeasible exactly when it contains a forbidden pair.  Linked
models form forward chains Pi -> Pi+d with a non-empty consequent, so a
depth-first walk in value-index order meets no dead end and yields legal
rows in lexicographic order.  `self_check` confirms both shortcuts
against exhaustive enumeration of small family members.
"""

from __future__ import annotations

import itertools
import random

import inputs


# ----------------------------------------------------------------------
# constraint predicates

def chain_legal(model: inputs.ChainModel, row) -> bool:
    return not any(row[i] == a and row[j] == b for i, a, j, b in model.forbidden)


def linked_legal(model: inputs.LinkedModel, row) -> bool:
    return all(row[j] in t for i, s, j, t in model.links if row[i] in s)


# ----------------------------------------------------------------------
# t-tuples

def chain_feasible(model: inputs.ChainModel, t: int) -> set:
    """Feasible t-tuples of a chain model, from its structure alone."""
    bad = {((i, a), (j, b)) for i, a, j, b in model.forbidden}
    out = set()
    for attrs in itertools.combinations(range(model.k), t):
        for values in itertools.product(range(model.v), repeat=t):
            tup = tuple(zip(attrs, values))
            if not any(pair in bad for pair in itertools.combinations(tup, 2)):
                out.add(tup)
    return out


def tuples_of(row, t: int):
    return itertools.combinations(tuple(enumerate(row)), t)


def covered_by(rows, t: int) -> set:
    out = set()
    for row in rows:
        out.update(tuples_of(row, t))
    return out


def ordered(tuples) -> list:
    """Requirement order: attribute subset first, then value tuple."""
    return sorted(tuples, key=lambda tup: (tuple(a for a, _ in tup),
                                           tuple(x for _, x in tup)))


def lower_bound(feasible) -> int:
    """Largest number of feasible tuples sharing one attribute subset."""
    per_subset: dict = {}
    for tup in feasible:
        key = tuple(a for a, _ in tup)
        per_subset[key] = per_subset.get(key, 0) + 1
    return max(per_subset.values(), default=0)


# ----------------------------------------------------------------------
# linked-model enumeration

def linked_rows(model: inputs.LinkedModel, fixed: dict, limit: int) -> list:
    """The first `limit` legal rows matching `fixed` ({attr: value}), in
    lexicographic value-index order."""
    incoming = {j: (i, s, t) for i, s, j, t in model.links}
    out: list = []
    row = [0] * model.k

    def extend(pos: int) -> None:
        if len(out) >= limit:
            return
        if pos == model.k:
            out.append(tuple(row))
            return
        choices = [fixed[pos]] if pos in fixed else range(model.v)
        for value in choices:
            link = incoming.get(pos)
            if link is not None and row[link[0]] in link[1] and value not in link[2]:
                continue
            row[pos] = value
            extend(pos + 1)

    extend(0)
    return out


# ----------------------------------------------------------------------
# self-check

def self_check() -> list[str]:
    """Compare the shortcuts above with brute force on small members of
    both families; returns the failures found (empty when all hold)."""
    failures = []
    rng = random.Random(0)
    for trial in range(3):
        chain = inputs.chain_model(rng, 6, 3)
        legal = [r for r in itertools.product(range(3), repeat=6)
                 if chain_legal(chain, r)]
        for t in (2, 3):
            if chain_feasible(chain, t) != covered_by(legal, t):
                failures.append(f"chain 6x3 trial {trial}: feasible {t}-tuples")
        linked = inputs.linked_model(rng, 6, 3, 2)
        fixed = {0: rng.randrange(3)}
        brute = [r for r in itertools.product(range(3), repeat=6)
                 if linked_legal(linked, r) and r[0] == fixed[0]]
        if linked_rows(linked, fixed, len(brute) + 1) != brute:
            failures.append(f"linked 6x3 trial {trial}: lexicographic rows")
    return failures
