"""Sizing a test space before writing a single test.

Loads the online-shopping model, counts the full Cartesian product and the
interaction requirements behind 2-way and 3-way coverage, then slices the
space with projections to see how many combinations any one suspicion
actually touches.
"""

import pathlib

from ctdkit import ModelSpace, feasible_count, load_model

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"

model = load_model(MODELS / "shopping.json")
space = ModelSpace(model)

print("attributes:")
for attr in model.attributes:
    print(f"  {attr.name}: {', '.join(attr.labels)}")

print(f"\nfull Cartesian product: {model.cartesian_count()} combinations")
print(f"legal combinations:     {space.count()} (no constraints here)")

for t in (2, 3):
    print(f"t={t} value interactions to cover: {feasible_count(space, t)}")

print("\nhow many combinations would expose a bug tied to...")
for label, partial in [
    ("Credit + One Day", {"Payment": "Credit", "DeliverySchedule": "One Day"}),
    ("Credit + One Day + Fedex", {"Payment": "Credit",
                                  "DeliverySchedule": "One Day",
                                  "Carrier": "Fedex"}),
    ("One Day + export control", {"DeliverySchedule": "One Day",
                                  "ExportControl": "True"}),
]:
    print(f"  {label}: {space.count(space.project(partial))}")

print("\nconstrained spaces shrink instead:")
review = ModelSpace(load_model(MODELS / "code_review.json"))
print(f"  review-chain model: {review.model.cartesian_count()} raw, "
      f"{review.count()} legal")
print("  e.g. a chain of length 0 cannot hold an interesting element:")
factors = review.project({"LenCBchain": "0", "InterestingCB1": "true"})
print(f"  matching combinations: {review.count(factors)}")
