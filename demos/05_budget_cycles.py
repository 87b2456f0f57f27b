"""Reaching full coverage three tests at a time.

A cycle holds at most n tests; whatever passed keeps its credit, and the
next cycle targets only the requirements still open.  With a flaky
verdict source the loop simply takes more cycles -- credit never goes
backwards.
"""

import pathlib
import random

from ctdkit import ModelSpace, augment_plan, load_model, run_cycles

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"

space = ModelSpace(load_model(MODELS / "api8x2.json"))

print("== everything passes ==")
state = run_cycles(space, t=2, n=3, verdict_source=lambda test: True,
                   max_cycles=20)
for i, record in enumerate(state.history, start=1):
    print(f"  cycle {i}: ran {record.emitted} tests, "
          f"coverage now {record.percent:.1f}%")

print("\n== one in four tests fails ==")
rng = random.Random(7)
state = run_cycles(space, t=2, n=3,
                   verdict_source=lambda test: rng.random() > 0.25,
                   max_cycles=30)
for i, record in enumerate(state.history, start=1):
    print(f"  cycle {i}: ran {record.emitted} tests, "
          f"coverage now {record.percent:.1f}%")
print(f"  finished at {state.history[-1].percent:.1f}% "
      f"with {len(state.passed)} credited tests")

print("\n== feeding back an existing plan ==")
first_three = state.passed[:3]
result = augment_plan(space, t=2, passed=first_three, n=30)
print(f"  3 credited tests leave {result.residual_before} pairs open; "
      f"{len(result.plan.tests)} new tests close them "
      f"(residual after: {result.residual_after})")
