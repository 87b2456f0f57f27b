"""Budget-limited planning across test cycles.

`augment_plan` and `run_cycles` each measure their (space, t) once
(`coverage.measure`) and keep the residual: the feasible requirements that
the passed tests leave uncovered.  `run_cycles` credits each cycle's passed
tests with `RequirementSet.uncovered`.  Each cycle
asks the greedy generator for at most n new tests covering the residual,
then takes from it what the tests that pass cover.  Iterating until full
coverage (or until cycles run out) yields a monotonically nondecreasing
coverage history.  Failed tests earn no credit; they may be regenerated
in a later cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .coverage import coverage_percent, measure, split_legal
from .errors import CtdError
from .generator import grow_tests
from .model import ModelSpace
from .plans import TestPlan


@dataclass
class AugmentResult:
    plan: TestPlan                       # the new tests only; coverage fields
    residual_before: int                 # reflect the union with passed tests
    residual_after: int
    illegal_passed: list[int] = field(default_factory=list)  # 0-based indices


@dataclass
class CycleRecord:
    budget: int
    emitted: int
    covered: int
    total_feasible: int

    @property
    def percent(self) -> float:
        return coverage_percent(self.covered, self.total_feasible)


@dataclass
class CycleState:
    passed: list[dict[str, str]]
    residual: list[tuple[tuple[str, str], ...]]
    history: list[CycleRecord]
    total_feasible: int

    @property
    def coverage_percent(self) -> float:
        return coverage_percent(self.total_feasible - len(self.residual),
                                self.total_feasible)


def augment_plan(space: ModelSpace, t: int, passed, n: int,
                 seed: int = 0, randomize_ties: bool = False) -> AugmentResult:
    """Generate at most n new tests covering requirements the passed tests
    leave uncovered.  Illegal passed tests are reported and earn no credit."""
    # split first: a bad row is reported before a bad n or t
    legal, illegal = split_legal(space, passed)
    if n < 1:
        raise CtdError(f"cycle budget must be >= 1, got {n}")
    reqs, total, residual = measure(space, t, legal)
    tests, left = grow_tests(space, reqs, residual, n, seed, randomize_ties)
    plan = TestPlan(tests, total - len(left), total, t)
    return AugmentResult(plan, len(residual), len(left), illegal)


def run_cycles(space: ModelSpace, t: int, n: int,
               verdict_source: Callable[[dict[str, str]], bool],
               max_cycles: int, seed: int = 0) -> CycleState:
    """Iterate augment-and-execute until 100% coverage or max_cycles.

    Every cycle uses the same `seed` and deterministic tie-breaking, so a
    cycle in which no test passes leaves the residual unchanged and the
    next cycle regenerates the identical tests.  When the tests that could
    cover some residual requirement fail every time, the loop therefore
    runs to `max_cycles` with no further progress; there is no early stop.
    Callers whose failures are transient rely on those identical retries.
    """
    if max_cycles < 1:
        raise CtdError(f"max_cycles must be >= 1, got {max_cycles}")
    if n < 1:
        raise CtdError(f"cycle budget must be >= 1, got {n}")
    reqs, total, residual = measure(space, t, ())
    passed: list[dict[str, str]] = []
    history: list[CycleRecord] = []
    for _ in range(max_cycles):
        if not residual:
            break
        tests = grow_tests(space, reqs, residual, n, seed)[0]
        newly_passed = [test for test in tests if verdict_source(test)]
        passed.extend(newly_passed)
        # every passed test is generated, hence legal: no split_legal
        residual = reqs.uncovered(residual, newly_passed)
        history.append(CycleRecord(n, len(tests), total - len(residual), total))
    return CycleState(passed, residual, history, total)
