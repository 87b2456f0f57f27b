"""Budget-limited planning across test cycles.

The feasible requirements are found once per loop.  Each cycle credits
the tests that passed so far and asks the greedy generator for at most n
new tests covering the residual requirements.  Iterating until full
coverage (or until cycles run out) yields a monotonically nondecreasing
coverage history.  Failed tests earn no credit; they may be regenerated
in a later cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .coverage import (
    CoverageIndex,
    Requirement,
    filter_feasible,
    generate_requirements,
)
from .errors import CtdError
from .generator import grow_tests
from .model import ModelSpace
from .plans import GENERATED, TestPlan


@dataclass
class AugmentResult:
    plan: TestPlan                       # the new tests only; coverage fields
    residual_before: int                 # reflect the union with credited tests
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
        if self.total_feasible == 0:
            return 100.0
        return 100.0 * self.covered / self.total_feasible


@dataclass
class CycleState:
    passed: list[dict[str, str]]
    residual: list[Requirement]
    history: list[CycleRecord]
    total_feasible: int

    @property
    def coverage_percent(self) -> float:
        if self.total_feasible == 0:
            return 100.0
        return 100.0 * (self.total_feasible - len(self.residual)) / self.total_feasible


def augment_plan(space: ModelSpace, t: int, passed, n: int,
                 seed: int = 0, randomize_ties: bool = False) -> AugmentResult:
    """Generate at most n new tests covering requirements the passed tests
    leave uncovered.  Illegal passed tests are reported and earn no credit."""
    feasible, credit = _targets(space, t, n)
    legal, illegal = [], []
    for i, test in enumerate(passed):
        space.model.check_assignment(test, full=True)
        if space.contains(test):
            legal.append(test)
        else:
            illegal.append(i)
    covered = credit.covered(legal)
    residual_before = len(feasible) - len(covered)
    tests = grow_tests(space, feasible, covered, n, seed, randomize_ties)
    covered |= credit.covered(tests)
    residual_after = len(feasible) - len(covered)
    plan = TestPlan(tests, len(covered), len(feasible), t,
                    [GENERATED] * len(tests))
    return AugmentResult(plan, residual_before, residual_after, illegal)


def _targets(space: ModelSpace, t: int, n: int
             ) -> tuple[list[Requirement], CoverageIndex]:
    """The feasible t-way requirements a budget of n tests per cycle aims
    at, and their coverage index."""
    if n < 1:
        raise CtdError(f"cycle budget must be >= 1, got {n}")
    feasible = filter_feasible(generate_requirements(space.model, t), space).feasible()
    return feasible, CoverageIndex(feasible)


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
    feasible, credit = _targets(space, t, n)
    credited: set[Requirement] = set()
    passed: list[dict[str, str]] = []
    history: list[CycleRecord] = []
    for _ in range(max_cycles):
        # every passed test is generated, hence legal, so the running
        # `credited` set is exactly what `augment_plan` would credit them
        tests = grow_tests(space, feasible, credited, n, seed)
        if not tests:
            break  # nothing left to target
        newly_passed = [test for test in tests if verdict_source(test)]
        passed.extend(newly_passed)
        credited |= credit.covered(newly_passed)
        history.append(CycleRecord(n, len(tests), len(credited), len(feasible)))
        if len(credited) == len(feasible):
            break
    residual = [r for r in feasible if r not in credited]
    return CycleState(passed, residual, history, len(feasible))
