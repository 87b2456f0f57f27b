"""Budget-limited planning across test cycles.

`augment_plan` and `run_cycles` each build one residual
(`coverage.Residual`): the feasible requirements that the passed tests
leave uncovered.  Each cycle of `run_cycles` asks the greedy generator for
at most n new tests covering a copy of the residual, then takes from the
residual what the tests that pass cover (`Residual.cover`).  Iterating
until full coverage (or until cycles run out) yields a monotonically
nondecreasing coverage history.  Failed tests earn no credit; they may be
regenerated in a later cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .coverage import Residual, coverage_percent
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


def augment_plan(space: ModelSpace, t: int, passed, n: int) -> AugmentResult:
    """Generate at most n new tests covering requirements the passed tests
    leave uncovered.  Illegal passed tests are reported and earn no credit."""
    # the residual first: a bad row is reported before a bad n or t
    residual = Residual(space, t, passed)
    if n < 1:
        raise CtdError(f"cycle budget must be >= 1, got {n}")
    before, total = len(residual), residual.total
    tests = grow_tests(space, residual, n)
    plan = TestPlan(tests, total - len(residual), total, t)
    return AugmentResult(plan, before, len(residual), residual.illegal)


def run_cycles(space: ModelSpace, t: int, n: int,
               verdict_source: Callable[[dict[str, str]], bool],
               max_cycles: int, seed: int = 0) -> CycleState:
    """Iterate augment-and-execute until 100% coverage or max_cycles.

    Ties are broken deterministically (`seed` does not change the tests),
    so a cycle in which no test passes leaves the residual unchanged and
    the next cycle regenerates the identical tests.  When the tests that could
    cover some residual requirement fail every time, the loop therefore
    runs to `max_cycles` with no further progress; there is no early stop.
    Callers whose failures are transient rely on those identical retries.
    """
    if max_cycles < 1:
        raise CtdError(f"max_cycles must be >= 1, got {max_cycles}")
    if n < 1:
        raise CtdError(f"cycle budget must be >= 1, got {n}")
    residual = Residual(space, t)
    total = residual.total
    passed: list[dict[str, str]] = []
    history: list[CycleRecord] = []
    for _ in range(max_cycles):
        if not residual:
            break
        tests = grow_tests(space, residual.copy(), n)
        newly_passed = [test for test in tests if verdict_source(test)]
        passed.extend(newly_passed)
        # every passed test is generated, hence legal
        for test in newly_passed:
            residual.cover(test)
        history.append(CycleRecord(len(tests), total - len(residual), total))
    return CycleState(passed, list(residual), history, total)
