"""Measuring plans you did not generate.

Imports hand-made test tables from CSV and grades them: a seven-row table
that covers every pair of the eight-parameter model, a nine-row Latin
square over 3x3x3, and the same seven-row table truncated to show what a
missing-requirement listing looks like.
"""

import pathlib

from ctdkit import ModelSpace, coverage_of, load_model, read_plan_csv

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"


def grade(model_name, plan_name, rows_slice=None):
    space = ModelSpace(load_model(MODELS / f"{model_name}.json"))
    _, rows = read_plan_csv(MODELS / f"{plan_name}.csv")
    if rows_slice is not None:
        rows = rows[:rows_slice]
    report = coverage_of(space, rows, t=2)
    print(f"{plan_name}[{len(rows)} rows] on {model_name}: "
          f"{report.covered}/{report.total_feasible} pairs "
          f"({report.percent:.2f}%)")
    return report


grade("api8x2", "api8x2_plan7")
grade("manual3x3x3", "manual3x3x3_plan9")
grade("code_review", "code_review_plan13")

print("\ntruncated to three rows, the analyzer names what is missing:")
report = grade("api8x2", "api8x2_plan7", rows_slice=3)
for req in report.missing[:8]:
    print("  missing:", ", ".join(f"{a}={v}" for a, v in req))
print(f"  ... and {len(report.missing) - 8} more")
