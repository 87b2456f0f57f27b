"""Abstract-to-concrete value selection and free-attribute randomization."""

import pytest
from hypothesis import given, settings, strategies as st

import oracles

from ctdkit import (
    CtdError,
    FreeAttribute,
    Model,
    ModelSpace,
    abstract_candidates,
    generate_plan,
    instantiate,
    randomize_free,
    recover_abstract,
)
from ctdkit.model import Attribute, Value


def _abstract_rows(power_failure, count=6):
    space = ModelSpace(power_failure)
    plan = generate_plan(space, 2)
    rows = plan.tests
    while len(rows) < count:
        rows = rows + rows
    return rows[:count]


def test_ranged_values_land_in_range(power_failure):
    rows = _abstract_rows(power_failure)
    concrete = instantiate(power_failure, rows, seed=1)
    ranges = {"small": (1, 10), "medium": (10, 101), "long": (101, 1001)}
    for abstract, row in zip(rows, concrete.rows):
        lo, hi = ranges[abstract["WriteCount"]]
        assert lo <= int(row["WriteCount"]) < hi


def test_singleton_range_is_forced():
    m = Model((Attribute("A", (Value("only", (5, 6)),)),))
    concrete = instantiate(m, [{"A": "only"}] * 4, seed=9)
    assert [row["A"] for row in concrete.rows] == ["5", "5", "5", "5"]


def test_rangeless_values_pass_through(shopping):
    test = {"Availability": "Available", "Payment": "Credit", "Carrier": "Mail",
            "DeliverySchedule": "One Day", "ExportControl": "True"}
    concrete = instantiate(shopping, [test], seed=3)
    assert concrete.rows == [test]


def test_same_seed_reproduces_bit_exactly(power_failure):
    rows = _abstract_rows(power_failure)
    a = instantiate(power_failure, rows, seed=77)
    b = instantiate(power_failure, rows, seed=77)
    assert a.rows == b.rows
    assert a.to_json() == b.to_json()


def test_hundred_small_draws_in_range_and_reproducible():
    m = Model((Attribute("W", (Value("small", (1, 10)),)),))
    rows = [{"W": "small"}] * 100
    first = instantiate(m, rows, seed=123)
    again = instantiate(m, rows, seed=123)
    assert first.rows == again.rows
    assert all(1 <= int(row["W"]) < 10 for row in first.rows)


def test_concrete_plan_records_seed(power_failure):
    concrete = instantiate(power_failure, _abstract_rows(power_failure), seed=11)
    assert concrete.seed == 11
    assert concrete.to_json()["seed"] == 11
    assert concrete.to_json()["schema_version"] == 1


def test_round_trip_back_to_abstract(power_failure):
    rows = _abstract_rows(power_failure, count=12)
    concrete = instantiate(power_failure, rows, seed=5)
    assert recover_abstract(power_failure, concrete) == rows


def test_overlapping_subdomains_report_all_candidates():
    m = Model((Attribute("size", (Value("low", (0, 60)), Value("mid", (40, 100)))),))
    assert abstract_candidates(m, "size", "50") == ["low", "mid"]
    assert abstract_candidates(m, "size", "10") == ["low"]
    assert abstract_candidates(m, "size", "999") == []
    concrete = instantiate(m, [{"size": "low"}], seed=0)
    concrete.rows[0]["size"] = "50"  # force the ambiguous case
    with pytest.raises(CtdError, match="overlapping"):
        recover_abstract(m, concrete)


def test_only_plain_integers_fall_in_a_range():
    """A cell is read as an integer only in the form `instantiate` writes:
    `1_0`, `+7` and the Arabic-Indic digit seven are labels, not numbers."""
    m = Model((Attribute("N", (Value("1_0"), Value("small", (0, 20)),
                               Value("neg", (-20, -5)))),))
    assert abstract_candidates(m, "N", "1_0") == ["1_0"]
    assert abstract_candidates(m, "N", "10") == ["small"]
    assert abstract_candidates(m, "N", "+7") == []
    assert abstract_candidates(m, "N", "\u0667") == []
    assert abstract_candidates(m, "N", "7\n") == []
    assert abstract_candidates(m, "N", "-7") == ["neg"]
    assert abstract_candidates(m, "N", "-5") == []
    rows = [{"N": "1_0"}, {"N": "small"}, {"N": "neg"}]
    concrete = instantiate(m, rows, seed=3)
    assert recover_abstract(m, concrete) == rows


def test_abstract_candidates_for_plain_labels(shopping):
    assert abstract_candidates(shopping, "Payment", "Credit") == ["Credit"]
    assert abstract_candidates(shopping, "Payment", "Bitcoin") == []


def test_randomize_free_appends_column(power_failure):
    rows = _abstract_rows(power_failure)
    concrete = instantiate(power_failure, rows, seed=2)
    extended = randomize_free(power_failure, concrete,
                              [FreeAttribute("writeSize", 1, 4096)])
    assert extended.columns == concrete.columns + ["writeSize"]
    assert all(1 <= int(row["writeSize"]) < 4096 for row in extended.rows)
    # original plan untouched
    assert all("writeSize" not in row for row in concrete.rows)


def test_randomize_free_empty_list_is_identity(power_failure):
    concrete = instantiate(power_failure, _abstract_rows(power_failure), seed=2)
    same = randomize_free(power_failure, concrete, [])
    assert same.rows == concrete.rows
    assert same.columns == concrete.columns


def test_randomize_free_seeded_stream_is_frozen():
    m = Model((Attribute("A", (Value("x"),)),))
    base = instantiate(m, [{"A": "x"}] * 1000, seed=42)
    extended = randomize_free(m, base, [FreeAttribute("coin", 0, 2)])
    draws = [int(row["coin"]) for row in extended.rows]
    assert draws.count(0) == 486
    assert draws.count(1) == 514
    assert draws[:12] == [0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0]


@pytest.mark.parametrize("seed", [0, 7, 2**40])
def test_concrete_plan_reproduces_from_the_seed_it_records(power_failure, seed):
    rows = _abstract_rows(power_failure)
    free = [FreeAttribute("writeSize", 1, 4096), FreeAttribute("big", -3, 2**40)]
    plan = randomize_free(power_failure, instantiate(power_failure, rows, seed), free)
    assert plan.seed == plan.to_json()["seed"] == seed
    again = randomize_free(power_failure, instantiate(power_failure, rows, plan.seed),
                           free)
    assert again.rows == plan.rows


def test_free_attribute_collision_rejected(power_failure):
    concrete = instantiate(power_failure, _abstract_rows(power_failure), seed=2)
    with pytest.raises(CtdError, match="collides"):
        randomize_free(power_failure, concrete,
                       [FreeAttribute("Cache", 0, 2)])


def test_free_attribute_empty_range_rejected():
    with pytest.raises(CtdError, match="empty range"):
        FreeAttribute("w", 5, 5)


@pytest.mark.parametrize("lo, hi", [(0.5, 3), (True, 3), ("1", 3), (0, 3.0),
                                    (0, True), (None, 3)])
def test_free_attribute_non_integer_bounds_rejected(lo, hi):
    with pytest.raises(CtdError, match="bounds must be integers"):
        FreeAttribute("f", lo, hi)


@pytest.mark.parametrize("name", ["", "  "])
def test_free_attribute_blank_name_rejected(name):
    with pytest.raises(CtdError, match="name must be a non-empty string"):
        FreeAttribute(name, 0, 2)


def test_free_attribute_repeated_name_rejected(power_failure):
    concrete = instantiate(power_failure, _abstract_rows(power_failure), seed=2)
    with pytest.raises(CtdError, match="'x' is given twice"):
        randomize_free(power_failure, concrete,
                       [FreeAttribute("x", 1, 5), FreeAttribute("x", 10, 20)])


def test_instantiate_rejects_unknown_labels(power_failure):
    with pytest.raises(CtdError):
        instantiate(power_failure, [{"FailureType": "nope", "WriteCount": "small",
                                     "Cache": "on"}], seed=0)


# widths around the draw's edges: 1 (still consumes the stream), powers of
# two and their neighbours, and ones past 2**32 that take several words
_WIDTHS = [1, 2, 3, 9, 10, 91, 900, 2**32, 2**32 + 1, 2**41, 2**70]
_spans = st.tuples(st.integers(-2**40, 2**40),
                   st.one_of(st.sampled_from(_WIDTHS), st.integers(1, 2**80))
                   ).map(lambda s: (s[0], s[0] + s[1]))


@st.composite
def _draw_cases(draw):
    """A model of rangeless and ranged values whose first attribute repeats
    its first label (with a range of its own), rows over it, free columns
    and a seed."""
    attributes = []
    for i in range(draw(st.integers(1, 4))):
        ranges = draw(st.lists(st.one_of(st.none(), _spans), min_size=1, max_size=4))
        values = [Value(f"v{j}", r) for j, r in enumerate(ranges)]
        if i == 0:
            values.append(Value("v0", draw(_spans)))
        attributes.append(Attribute(f"A{i}", tuple(values)))
    tests = draw(st.lists(st.fixed_dictionaries(
        {a.name: st.sampled_from(a.labels) for a in attributes}), max_size=8))
    free = [(f"F{i}", lo, hi)
            for i, (lo, hi) in enumerate(draw(st.lists(_spans, max_size=3)))]
    return Model(tuple(attributes)), tests, free, draw(st.integers(0, 2**32))


@settings(max_examples=200, deadline=None)
@given(_draw_cases())
def test_draws_consume_the_stream_as_randrange(case):
    model, tests, free, seed = case
    concrete = instantiate(model, tests, seed)
    concrete = randomize_free(model, concrete, [FreeAttribute(*f) for f in free])
    assert concrete.columns == [*model.attribute_names, *(name for name, _, _ in free)]
    assert concrete.rows == oracles.concrete_rows(model, tests, free, seed)
