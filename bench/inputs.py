"""Seeded inputs for the benchmark workloads.

Every generator takes a `random.Random` and returns plain data;
`write_*` helpers turn that data into the model JSON, plan CSV and results
CSV files that ctdkit reads.  Nothing here imports ctdkit, so the oracle can
use the same descriptions to recompute expected answers.

Model families:

- chain k x v: the ROADMAP baseline family.  k attributes of v values; for
  every even i with i + 1 < k, one constraint `Ai = v0 -> Ai+1 != v1`
  (first value of Ai excludes the second value of Ai+1).  Each constraint
  forbids one value pair on its own attribute pair (the pairs are
  disjoint).  The seed draws the attribute names and value labels only,
  so plan sizes and timings stay those of the baseline.
- linked k x v: attributes P0..P{k-1}, values r0..r{v-1}, each carrying a
  disjoint integer range [lo, hi); for every i with i + d < k, one
  implication `Pi IN {S} -> Pi+d IN {T}`, where S holds values i and i+1
  and T the v // 2 values from i+2 on (mod v).  The seed draws the ranges.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class ChainModel:
    k: int
    v: int
    names: tuple[str, ...]
    labels: tuple[tuple[str, ...], ...]

    @property
    def forbidden(self) -> tuple[tuple[int, int, int, int], ...]:
        """(i, a, j, b): the row may not have Ai = a and Aj = b."""
        return tuple((i, 0, i + 1, 1) for i in range(0, self.k - 1, 2))

    def document(self) -> dict:
        n, ls = self.names, self.labels
        return {
            "attributes": [{"name": name, "values": list(values)}
                           for name, values in zip(n, ls)],
            "constraints": [f"{n[i]} = {ls[i][a]} -> {n[j]} != {ls[j][b]}"
                            for i, a, j, b in self.forbidden],
        }


@dataclass(frozen=True)
class LinkedModel:
    k: int
    v: int
    ranges: tuple[tuple[tuple[int, int], ...], ...]   # per attribute, per value
    links: tuple[tuple[int, frozenset, int, frozenset], ...]  # (i, S, j, T): Pi in S -> Pj in T

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f"P{i}" for i in range(self.k))

    @property
    def labels(self) -> tuple[tuple[str, ...], ...]:
        return tuple(tuple(f"r{x}" for x in range(self.v)) for _ in range(self.k))

    def document(self) -> dict:
        def members(values):
            return ", ".join(f"r{x}" for x in sorted(values))
        return {
            "attributes": [
                {"name": n, "values": [{"label": f"r{x}", "range": list(rng)}
                                       for x, rng in enumerate(attr_ranges)]}
                for n, attr_ranges in zip(self.names, self.ranges)],
            "constraints": [f"P{i} IN {{{members(s)}}} -> P{j} IN {{{members(t)}}}"
                            for i, s, j, t in self.links],
        }


def _words(rng: random.Random, n: int) -> list[str]:
    """n distinct seeded identifiers."""
    words: list[str] = []
    while len(words) < n:
        word = ("".join(rng.choice("bcdfghjklmnpqrstvwxz") for _ in range(3))
                + rng.choice("aeiou") + str(rng.randrange(10)))
        if word not in words:
            words.append(word)
    return words


def chain_model(rng: random.Random, k: int, v: int) -> ChainModel:
    return ChainModel(k, v, tuple(_words(rng, k)),
                      tuple(tuple(_words(rng, v)) for _ in range(k)))


def linked_model(rng: random.Random, k: int, v: int, distance: int) -> LinkedModel:
    ranges = []
    for _ in range(k):
        cuts = sorted(rng.sample(range(1, 1000), v - 1))
        bounds = [0] + cuts + [1000]
        ranges.append(tuple(zip(bounds, bounds[1:])))
    # the value sets rotate with i, not with the seed: which codes they hold
    # sets the BDD sizes, and so the cost that runs compare
    links = tuple((i, frozenset({i % v, (i + 1) % v}), i + distance,
                   frozenset((i + 2 + x) % v for x in range(v // 2)))
                  for i in range(k - distance))
    return LinkedModel(k, v, tuple(ranges), links)


def random_rows(rng: random.Random, k: int, v: int, n: int) -> list[tuple[int, ...]]:
    """Uniform rows of value indices; some break constraints, as imported
    plans written by hand do."""
    return [tuple(rng.randrange(v) for _ in range(k)) for _ in range(n)]


def random_verdicts(rng: random.Random, n: int) -> list[bool]:
    return [rng.random() < 0.5 for _ in range(n)]


def flaky_verdict(stream: int, row: tuple[int, ...], attempt: int) -> bool:
    """Pass/fail as a pure function of its arguments; about one call in four
    fails.  `attempt` counts earlier verdicts on the same row content, so a
    failed test that is generated again gets a fresh draw: `run_cycles`
    regenerates the same tests while the residual is unchanged, and a test
    that always failed would keep the loop from ever finishing.

    The seed takes no part: which tests fail decides how many cycles a loop
    needs, and seeded verdicts moved a loop's cost by up to 20% between
    seeds, more than the changes the benchmark must detect."""
    key = f"{stream}:{','.join(map(str, row))}:{attempt}".encode()
    return hashlib.sha256(key).digest()[0] % 4 != 0


# ----------------------------------------------------------------------
# files

def write_model(path, model) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model.document(), fh)


def write_plan(path, model, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(model.names)
        for row in rows:
            writer.writerow([model.labels[i][x] for i, x in enumerate(row)])


def write_results(path, verdicts) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["test", "verdict"])
        for i, passed in enumerate(verdicts, start=1):
            writer.writerow([i, "PASS" if passed else "FAIL"])
