"""From abstract subdomains to executable inputs.

The power-failure model keeps the write-sequence length abstract (small,
medium, long -- each an integer range).  Concretization draws a number
from the chosen subdomain per test run, seeded for reproducibility, and a
column the model deliberately leaves out (the write size) is appended as
pure randomization.
"""

import pathlib

from ctdkit import (
    FreeAttribute,
    ModelSpace,
    generate_plan,
    instantiate,
    load_model,
    randomize_free,
    recover_abstract,
)

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"

model = load_model(MODELS / "power_failure.json")
plan = generate_plan(ModelSpace(model), t=2)
print(f"abstract plan: {len(plan)} tests over "
      f"{', '.join(model.attribute_names)}")

concrete = instantiate(model, plan.tests, seed=2024)
concrete = randomize_free(model, concrete, [FreeAttribute("writeSize", 1, 4096)])

header = concrete.columns
print("\n  " + " | ".join(header))
for abstract, row in zip(plan.tests, concrete.rows):
    rendered = " | ".join(str(row[c]).ljust(len(c)) for c in header)
    print(f"  {rendered}    (WriteCount was '{abstract['WriteCount']}')")

again = instantiate(model, plan.tests, seed=2024)
print("\nsame seed, same draws:", again.rows == [
    {k: row[k] for k in again.columns} for row in concrete.rows])

recovered = recover_abstract(model, instantiate(model, plan.tests, seed=2024))
print("concrete values map back to their subdomains:",
      recovered == plan.tests)
