"""Sizing a test space before writing a single test.

Loads the online-shopping model, counts the full Cartesian product and the
interaction requirements behind 2-way and 3-way coverage, then slices the
space with projections to see how many combinations any one suspicion
actually touches.
"""

import pathlib

from ctdkit import ModelSpace, filter_feasible, generate_requirements, load_model

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"

model = load_model(MODELS / "shopping.json")
space = ModelSpace(model)

print("attributes:")
for attr in model.attributes:
    print(f"  {attr.name}: {', '.join(attr.labels)}")

print(f"\nfull Cartesian product: {model.cartesian_count()} combinations")
print(f"legal combinations:     {space.legal.count()} (no constraints here)")

for t in (2, 3):
    reqs = filter_feasible(generate_requirements(model, t), space)
    print(f"t={t} value interactions to cover: {len(reqs.feasible())}")

print("\nhow many combinations would expose a bug tied to...")
for label, partial in [
    ("Credit + One Day", {"Payment": "Credit", "DeliverySchedule": "One Day"}),
    ("Credit + One Day + Fedex", {"Payment": "Credit",
                                  "DeliverySchedule": "One Day",
                                  "Carrier": "Fedex"}),
    ("One Day + export control", {"DeliverySchedule": "One Day",
                                  "ExportControl": "True"}),
]:
    print(f"  {label}: {space.project(partial).count()}")

print("\nconstrained spaces shrink instead:")
review = ModelSpace(load_model(MODELS / "code_review.json"))
print(f"  review-chain model: {review.model.cartesian_count()} raw, "
      f"{review.legal.count()} legal")
print("  e.g. a chain of length 0 cannot hold an interesting element:")
fn = review.project({"LenCBchain": "0", "InterestingCB1": "true"})
print(f"  matching combinations: {fn.count()}")
