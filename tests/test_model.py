"""Model loading, validation, encoding, legal space, projection, enumeration."""

import functools
import json
import operator
import pathlib
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from ctdkit import (
    BDD,
    BddError,
    CtdError,
    InfeasibleModelError,
    Model,
    ModelFormatError,
    ModelSpace,
    UnknownAttributeError,
    UnknownValueError,
    build_encoding,
    constraints,
    generate_plan,
    load_model,
    parse_model,
    validate_model,
)
from ctdkit.coverage import Residual, feasible_count
from ctdkit.model import Attribute, Value


# ----------------------------------------------------------------------
# loader

def test_load_rejects_unknown_top_level_field(tmp_path):
    doc = {"attributes": [{"name": "A", "values": ["x"]}], "extra": 1}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="unknown model fields"):
        load_model(path)


def test_load_skips_a_byte_order_mark(tmp_path):
    doc = {"attributes": [{"name": " A ", "values": ["x"]}]}
    path = tmp_path / "m.json"
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps(doc).encode("utf-8"))
    assert load_model(path).attribute_names == ("A",)


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("{not json")
    with pytest.raises(ModelFormatError, match="invalid JSON"):
        load_model(path)


@pytest.mark.parametrize("text, key", [
    ('{"attributes": [{"name": "A", "values": ["a", "b"]}], '
     '"constraints": ["A = a"], "constraints": []}', "constraints"),
    ('{"attributes": [{"name": "A", "values": [{"label": "a", "label": "b"}]}]}',
     "label"),
], ids=["top-level", "nested"])
def test_load_rejects_a_repeated_key(tmp_path, text, key):
    # json keeps the last of repeated keys, which would drop the first
    # constraints list silently
    path = tmp_path / "m.json"
    path.write_text(text)
    with pytest.raises(ModelFormatError) as info:
        load_model(path)
    assert str(info.value) == f"{path}: key {key!r} repeats in one object"


@pytest.mark.parametrize("value", [
    {"label": "small", "range": [1]},
    {"label": "small", "range": [1, 2, 3]},
    {"label": "small", "range": ["1", "2"]},
    {"label": "small", "range": [1, True]},
    {"label": "small", "extra": 1},
])
def test_parse_rejects_bad_value_objects(value):
    with pytest.raises(ModelFormatError):
        parse_model({"attributes": [{"name": "A", "values": [value]}]})


@pytest.mark.parametrize("value", ["", "  ", {"label": ""}, {"label": " "},
                                   {"label": 5}, {"range": [1, 2]}])
def test_parse_rejects_empty_or_blank_labels(value):
    doc = {"attributes": [{"name": "A", "values": [value, "b"]}]}
    with pytest.raises(ModelFormatError, match="label must be a non-empty string"):
        parse_model(doc)


def test_parse_rejects_empty_range():
    doc = {"attributes": [{"name": "A",
                           "values": [{"label": "small", "range": [5, 5]}]}]}
    with pytest.raises(ModelFormatError, match="empty range"):
        parse_model(doc)


def test_parse_rejects_bad_directives():
    doc = {"attributes": [{"name": "A", "values": ["x"]}],
           "directives": [[{"attr": "A"}]]}
    with pytest.raises(ModelFormatError):
        parse_model(doc)


def test_labels_and_names_are_trimmed():
    m = parse_model({"attributes": [{"name": " A ", "values": [" x "]}],
                     "directives": [[{"attr": "A ", "value": " x"}]]})
    assert m.attributes[0].name == "A"
    assert m.attributes[0].values[0].label == "x"
    assert m.directives == ((("A", "x"),),)
    assert validate_model(m).ok


# ----------------------------------------------------------------------
# validation

def test_shopping_model_is_well_formed(shopping):
    report = validate_model(shopping)
    assert report.ok
    assert report.errors == []


def test_duplicate_attribute_name_is_an_error():
    m = parse_model({"attributes": [
        {"name": "A", "values": ["x"]},
        {"name": "A", "values": ["y"]},
    ]})
    report = validate_model(m)
    assert any("duplicate attribute" in e for e in report.errors)


def test_duplicate_value_label_is_an_error():
    m = parse_model({"attributes": [{"name": "A", "values": ["x", "x"]}]})
    report = validate_model(m)
    assert any("duplicate value" in e for e in report.errors)


def test_empty_domain_is_an_error():
    m = parse_model({"attributes": [{"name": "A", "values": []}]})
    report = validate_model(m)
    assert any("empty domain" in e for e in report.errors)


def test_contradictory_constraint_reports_infeasible():
    m = parse_model({
        "attributes": [{"name": "A", "values": ["x", "y"]}],
        "constraints": ["A=x AND NOT A=x"],
    })
    report = validate_model(m)
    assert any("no legal test" in e for e in report.errors)


def test_unparseable_constraint_is_reported():
    m = parse_model({
        "attributes": [{"name": "A", "values": ["x", "y"]}],
        "constraints": ["A=x AND"],
    })
    report = validate_model(m)
    assert any("constraint 1" in e for e in report.errors)


def test_unknown_value_in_constraint_is_reported():
    m = parse_model({
        "attributes": [{"name": "A", "values": ["x", "y"]}],
        "constraints": ["A=z"],
    })
    report = validate_model(m)
    assert any("'z'" in e for e in report.errors)


def test_vacuous_constraint_warns_but_passes():
    m = parse_model({
        "attributes": [{"name": "A", "values": ["x", "y"]}],
        "constraints": ["A=x OR A=y"],
    })
    report = validate_model(m)
    assert report.ok
    assert any("eliminates nothing" in w for w in report.warnings)


def test_unreferenced_attribute_is_not_warned(code_review):
    # LenCBchain appears in every constraint; a fresh attribute that no
    # constraint mentions is perfectly fine
    m = Model(code_review.attributes + (Attribute("Extra", (Value("v"),)),),
              code_review.constraints)
    report = validate_model(m)
    assert report.ok
    assert report.warnings == []


@pytest.mark.parametrize("document,errors", [
    ({"attributes": [{"name": "A", "values": ["x", "x"]},
                     {"name": "A", "values": ["y"]}],
      "constraints": ["A = z", "A = x", "B = x"],
      "directives": [[{"attr": "C", "value": "x"}]]},
     ["attribute 'A' has duplicate value 'x'",
      "duplicate attribute name 'A'",
      "constraint 1: unknown value 'z' for attribute 'A'",
      "constraint 3: unknown attribute 'B'",
      "directive 1: unknown attribute 'C'"]),
    ({"attributes": [{"name": "A", "values": ["x", "y"]}],
      "constraints": ["A = z", "A = x", "A ="]},
     ["constraint 1: unknown value 'z' for attribute 'A'",
      "constraint 3: expected value label, found end of input at position 3"]),
    # U+001F joins a row's values in row_hash: ("a\x1fb", "c") and
    # ("a", "b\x1fc") would hash alike
    ({"attributes": [{"name": "A", "values": ["a\x1fb", "a", "a\x1fb"]},
                     {"name": "B", "values": ["c", "b\x1fc"]}]},
     ["attribute 'A' value 'a\\x1fb' contains U+001F",
      "attribute 'A' has duplicate value 'a\\x1fb'",
      "attribute 'B' value 'b\\x1fc' contains U+001F"]),
])
def test_every_error_is_listed_in_order(document, errors):
    report = validate_model(parse_model(document))
    assert report.errors == errors
    assert report.warnings == []


def _warnings_by_brute_force(model):
    """The warnings validate_model owes a typechecked model, in order: each
    constraint that eliminates nothing, then each directive that no legal
    tuple holds."""
    legal = oracles.legal_tuples(model, oracles.constraint_predicate(model))
    if not legal:
        return []  # infeasible: an error, and no warnings
    warnings = [f"constraint {i + 1} eliminates nothing: {model.constraints[i]!r}"
                for i in oracles.redundant_constraints(model)]
    return warnings + [
        f"directive {j + 1} can never be covered: no legal test holds "
        + ", ".join(f"{a}={v}" for a, v in directive)
        for j, directive in enumerate(model.directives)
        if not any(all(x[a] == v for a, v in directive) for x in legal)]


def _random_constraint(rng, attrs, depth):
    if depth == 0 or rng.random() < 0.35:
        attr = rng.choice(attrs)
        kind = rng.randrange(4)
        if kind == 0:
            return f"{attr.name} = {rng.choice(attr.labels)}"
        if kind == 1:
            return f"{attr.name} != {rng.choice(attr.labels)}"
        if kind == 2:
            chosen = rng.sample(attr.labels, rng.randrange(1, attr.size + 1))
            return f"{attr.name} IN {{{', '.join(chosen)}}}"
        return rng.choice(("TRUE", "FALSE"))
    op = rng.choice(("AND", "OR", "->", "<->"))
    return (f"({_random_constraint(rng, attrs, depth - 1)}) {op} "
            f"({_random_constraint(rng, attrs, depth - 1)})")


def _random_model(rng):
    attrs = tuple(Attribute(f"A{i}", tuple(Value(f"v{j}")
                                           for j in range(rng.randrange(1, 5))))
                  for i in range(rng.randrange(1, 5)))
    sources = [_random_constraint(rng, attrs, rng.randrange(3))
               for _ in range(rng.randrange(5))]
    if sources and rng.random() < 0.3:
        sources.append(rng.choice(sources))  # a duplicate: both copies redundant
    return Model(attrs, tuple(sources))


@pytest.mark.parametrize("constraints,warned", [
    ((), []),
    (("A = x -> B != y",), []),
    (("A = x OR A != x",), [1]),
    (("A IN {x, y, z}",), [1]),                      # true on every valid code
    (("A = x -> B != y", "A = x -> B != y"), [1, 2]),  # each implies the other
    (("A != z", "B = y -> A = x", "A IN {x, y}", "A = x OR A != x"), [1, 3, 4]),
    (("A = x", "A = y"), []),                         # infeasible
    (("FALSE", "TRUE"), []),
])
def test_redundancy_warnings_equal_brute_force(constraints, warned):
    attrs = (Attribute("A", (Value("x"), Value("y"), Value("z"))),
             Attribute("B", (Value("x"), Value("y"))))
    model = Model(attrs, constraints)
    warnings = validate_model(model).warnings
    assert warnings == _warnings_by_brute_force(model)
    assert [int(w.split()[1]) for w in warnings] == warned


def test_redundancy_warnings_on_random_models_equal_brute_force():
    rng = random.Random(53)
    warned = infeasible = 0
    for _ in range(200):
        model = _random_model(rng)
        report = validate_model(model)
        expected = _warnings_by_brute_force(model)
        assert report.warnings == expected, model.constraints
        legal = oracles.legal_tuples(model, oracles.constraint_predicate(model))
        assert report.ok == bool(legal), model.constraints
        warned += len(expected)
        infeasible += not legal
    assert warned > 20 and infeasible > 10  # both outcomes are exercised


def test_directive_warnings_on_random_models_equal_brute_force():
    """Directives of every width, their bindings in any order, on random
    models; each one no legal test holds is warned once, in order."""
    rng = random.Random(59)
    warned = kept = 0
    for _ in range(200):
        model = _random_model(rng)
        attrs = model.attributes
        directives = tuple(
            tuple((a.name, rng.choice(a.labels)) for a in rng.sample(attrs, width))
            for width in range(1, len(attrs) + 1) for _ in range(rng.randrange(3)))
        model = Model(attrs, model.constraints, directives)
        report = validate_model(model)
        expected = _warnings_by_brute_force(model)
        assert report.warnings == expected, (model.constraints, directives)
        if report.ok:
            never = sum("can never be covered" in w for w in expected)
            warned += never
            kept += len(directives) - never
    assert warned > 20 and kept > 20  # both outcomes are exercised


def test_infeasible_directive_warns_and_is_never_counted():
    m = parse_model({
        "attributes": [{"name": n, "values": vs} for n, vs in
                       (("A", ["a", "b"]), ("B", ["x", "y"]), ("C", ["p", "q"]))],
        "constraints": ["A = a -> B = x"],
        "directives": [[{"attr": "C", "value": "q"}, {"attr": "A", "value": "a"},
                        {"attr": "B", "value": "y"}],
                       [{"attr": "A", "value": "a"}, {"attr": "B", "value": "x"},
                        {"attr": "C", "value": "q"}]]})
    report = validate_model(m)
    assert report.ok
    assert report.warnings == [
        "directive 1 can never be covered: no legal test holds C=q, A=a, B=y"]
    plan = generate_plan(ModelSpace(m), 2)
    assert plan.percent == 100.0
    assert plan.total_feasible == 11 + 1  # the pairs less A=a B=y, directive 2


def test_check_assignment_rejects_a_partial_test():
    m = Model((Attribute("A", (Value("x"),)), Attribute("B", (Value("y"),))))
    m.check_assignment({"B": "y", "A": "x"})
    with pytest.raises(CtdError) as err:
        m.check_assignment({"A": "x"})
    assert str(err.value) == "assignment does not bind attribute 'B'"
    # a bad label is reported before a missing attribute
    with pytest.raises(UnknownValueError) as err:
        m.check_assignment({"A": "z"})
    assert str(err.value) == "unknown value 'z' for attribute 'A'"
    with pytest.raises(UnknownAttributeError):
        m.check_assignment({"A": "x", "B": "y", "C": "z"})


def _abcd(constraints):
    return Model(tuple(Attribute(name, (Value("x"), Value("y"), Value("z")))
                       for name in "ABCD"), constraints)


# The legal space is built from the deepest-rooted constraint up, while
# warnings are listed in declaration order.
@pytest.mark.parametrize("constraints,warned", [
    # redundant, on the last attributes and declared first: it is conjoined
    # first, and the constraint that implies it comes after it
    (("C = x -> D != y", "C = x -> D = x", "A = x -> B = y"), [1]),
    # implied only by the two others together: "B = x -> C = x" is
    # conjoined before it and "A = x -> B = x" after it
    (("A = x -> C = x", "A = x -> B = x", "B = x -> C = x"), [1]),
    # duplicates with another constraint between them: both are warned
    (("C = x -> D != y", "A = x -> B = y", "C = x -> D != y"), [1, 3]),
    (("B != z", "A = y -> B = y", "B != z", "A = y -> B != z"), [1, 3, 4]),
])
def test_redundancy_warnings_in_declaration_order(constraints, warned):
    model = _abcd(constraints)
    warnings = validate_model(model).warnings
    assert warnings == _warnings_by_brute_force(model)
    assert [int(w.split()[1]) for w in warnings] == warned


def test_duplicated_names_and_labels_resolve_to_the_first():
    model = Model((Attribute("A", (Value("x"), Value("y"), Value("x"))),
                   Attribute("B", (Value("x"),)),
                   Attribute("A", (Value("y"),))))
    assert model.index("A") == 0
    assert model.index("B") == 1
    with pytest.raises(UnknownAttributeError):
        model.index("C")
    assert model.attributes[0].index_of("x") == 0
    assert model.attributes[0].index_of("y") == 1
    assert model.attributes[0].index_of("z") is None
    assert validate_model(model).errors == [
        "attribute 'A' has duplicate value 'x'", "duplicate attribute name 'A'"]


def test_directive_errors_are_reported(shopping):
    m = Model(shopping.attributes, (), ((("Payment", "Bitcoin"),),))
    report = validate_model(m)
    assert any("Bitcoin" in e for e in report.errors)


def test_constant_false_constraint_is_infeasible_next_to_a_free_attribute():
    # the constraint compiles to false, which lies in no component, and B's
    # factor is true
    m = parse_model({
        "attributes": [{"name": "A", "values": ["x", "y"]},
                       {"name": "B", "values": ["p", "q"]}],
        "constraints": ["A=x AND NOT A=x"],
    })
    with pytest.raises(InfeasibleModelError):
        ModelSpace(m)
    assert any("no legal test" in e for e in validate_model(m).errors)


def test_infeasible_model_space_raises():
    m = parse_model({
        "attributes": [{"name": "A", "values": ["x", "y"]}],
        "constraints": ["A=x", "A=y"],
    })
    with pytest.raises(InfeasibleModelError):
        ModelSpace(m)


# ----------------------------------------------------------------------
# counting

def test_cartesian_counts(shopping, api8x2, staircase):
    assert shopping.cartesian_count() == 288
    assert api8x2.cartesian_count() == 256
    assert staircase.cartesian_count() == 120


def test_cartesian_count_function_call_model():
    m = parse_model({"attributes": [
        {"name": "level", "values": [str(i) for i in range(10)]},
        {"name": "isBar", "values": ["true", "false"]},
        {"name": "menuSelection", "values": ["status", "list", "add", "remove"]},
    ]})
    assert m.cartesian_count() == 80


def test_cartesian_count_power_failure_intro():
    m = parse_model({"attributes": [
        {"name": "FailureType", "values": ["t1", "t2", "t3", "t4"]},
        {"name": "SeqLen", "values": ["short", "medium", "long"]},
        {"name": "Cache", "values": ["on", "off"]},
    ]})
    assert m.cartesian_count() == 24


# ----------------------------------------------------------------------
# encoding

def test_encoding_widths():
    m = Model((
        Attribute("one", tuple(Value(f"v{i}") for i in range(1))),
        Attribute("two", tuple(Value(f"v{i}") for i in range(2))),
        Attribute("five", tuple(Value(f"v{i}") for i in range(5))),
    ))
    enc = build_encoding(m, [])
    assert [len(b) for b in enc.blocks] == [0, 1, 3]
    assert enc.var_count == 4
    flat = [v for b in enc.blocks for v in b]
    assert flat == sorted(flat) == list(range(4))


def test_encoding_big_endian_value_codes():
    m = Model((Attribute("five", tuple(Value(f"v{i}") for i in range(5))),))
    enc = build_encoding(m, [])
    assert enc.value_bits(0, 0) == (0, 0, 0)
    assert enc.value_bits(0, 4) == (1, 0, 0)
    assert enc.value_bits(0, 3) == (0, 1, 1)


def test_validity_power_of_two_is_true(api8x2):
    space = ModelSpace(api8x2)
    assert oracles.conjunction(space) == space.manager.true  # no constraints


def test_validity_three_of_four_codes():
    m = Model((Attribute("tri", tuple(Value(f"v{i}") for i in range(3))),))
    assert ModelSpace(m).count() == 3


def test_validity_count_equals_cartesian(shopping):
    space = ModelSpace(shopping)  # no constraints
    assert space.count() == 288


def test_encode_decode_round_trip(code_review_space, models_dir):
    # each enumerated test's bits are its values' codes on their blocks,
    # in declaration order and in a permuted block order alike
    for space in (code_review_space, ModelSpace(load_model(models_dir / "linked8x3.json"))):
        encoding, legal = space.encoding, oracles.conjunction(space)
        for test in space.assignments():
            expected = {}
            for attr, label in test.items():
                ai, vi = space.model.resolve(attr, label)
                expected.update(zip(encoding.blocks[ai], encoding.value_bits(ai, vi)))
            assert sorted(expected) == list(range(encoding.var_count))
            assert space.manager.select(legal, expected, 1) == 1
            assert space.cofactor(legal, test.items()) == space.manager.true


# ----------------------------------------------------------------------
# legal space

def test_legal_counts(code_review, at_least_one, shopping):
    assert ModelSpace(code_review).count() == 63
    assert ModelSpace(at_least_one).count() == 15
    assert ModelSpace(shopping).count() == 288  # no constraints


def test_legal_count_matches_brute_force(code_review):
    def pred(t):
        length = int(t["LenCBchain"])
        return all(not (t[f"InterestingCB{i}"] == "true" and i > length)
                   for i in range(1, 6))
    expected = oracles.legal_tuples(code_review, pred)
    space = ModelSpace(code_review)
    assert space.count() == len(expected)
    got = list(space.assignments())
    assert sorted(map(sorted, got)) == sorted(map(sorted, (dict(t) for t in expected)))


def _validity(space):
    """Each block holds a code below its domain size: the AND, over the
    attributes, of the value set of all their values."""
    return functools.reduce(operator.and_, (
        space.encoding.value_set(space.manager, ai, range(attr.size))
        for ai, attr in enumerate(space.model.attributes)), space.manager.true)


def _declaration_order_product(space):
    legal = _validity(space)
    for fn in space.constraint_fns:
        legal = legal & fn
    return legal


@pytest.mark.parametrize("path", sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "models").glob("*.json")),
    ids=lambda p: p.stem)
def test_legal_equals_declaration_order_product_on_model_files(path):
    space = ModelSpace(load_model(path))
    assert _declaration_order_product(space).root == oracles.conjunction(space).root


def test_legal_equals_declaration_order_product_on_random_models():
    rng = random.Random(59)
    built = 0
    for _ in range(200):
        model = _random_model(rng)
        try:
            space = ModelSpace(model)
        except InfeasibleModelError:
            continue
        assert _declaration_order_product(space).root == \
            oracles.conjunction(space).root, model.constraints
        built += 1
    assert built > 100


def test_linked_space_leaves_few_bdd_nodes():
    # conjoined in declaration order, the products leave 2,611 nodes in
    # the manager; each factor built bottom-up, 466
    space = ModelSpace(parse_model(oracles.linked_document(30, 6, 6)))
    assert len(space.manager) < 15_000
    assert _declaration_order_product(space).root == oracles.conjunction(space).root


def test_long_chain_counts_and_enumerates():
    # 1,200 binary attributes with Ai = a -> Ai+1 = a: the legal rows are
    # b^j a^(1200-j), deeper than the interpreter's recursion limit
    k = 1200
    space = ModelSpace(parse_model({
        "attributes": [{"name": f"A{i}", "values": ["a", "b"]} for i in range(k)],
        "constraints": [f"A{i} = a -> A{i + 1} = a" for i in range(k - 1)],
    }))
    assert space.count() == k + 1
    rows = ["".join(row[f"A{i}"] for i in range(k))
            for row in space.assignments(limit=3)]
    assert rows == ["b" * j + "a" * (k - j) for j in range(3)]
    report = validate_model(space.model)
    assert report.ok and report.warnings == []


def test_legal_implies_validity(code_review_space):
    space, legal = code_review_space, oracles.conjunction(code_review_space)
    assert (legal & _validity(space)).root == legal.root


def test_illegal_space_complements_legal(models_dir):
    # assignments walks only codes below each domain size, so the tests it
    # leaves out are exactly those the constraints exclude
    for path in sorted(models_dir.glob("*.json")):
        model = load_model(path)
        space = ModelSpace(model)
        pred = oracles.constraint_predicate(model)
        illegal = [t for t in oracles.all_tuples(model) if not pred(t)]
        legal = list(space.assignments())
        assert [t for t in oracles.all_tuples(model) if t not in legal] == illegal, \
            path.stem
        assert model.cartesian_count() - space.count() == len(illegal)


@pytest.mark.parametrize("path", sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "models").glob("*.json")),
    ids=lambda p: p.stem)
def test_value_cofactors_equal_one_cofactor_per_value(path):
    # for legal and for the greedy's first seed cofactor, on every block
    # order the checked-in models take; each cofactor agrees with fn where
    # the block holds the value's code and does not depend on the block
    space = ModelSpace(load_model(path))
    seed = next(iter(Residual(space, min(2, len(space.model.attributes)))))
    legal = oracles.conjunction(space)
    for fn in (legal, space.cofactor(legal, seed)):
        for ai, attr in enumerate(space.model.attributes):
            split = space.split(fn, attr.name)
            cofactors = [(label, space.cofactor(fn, [(attr.name, label)]))
                         for label in attr.labels]
            assert split == [(label, c) for label, c in cofactors if not c.is_false]
            block = set(space.encoding.blocks[ai])
            for label, cofactor in split:
                code = space.encoding.value_set(space.manager, ai,
                                                [attr.index_of(label)])
                assert cofactor & code == fn & code
                assert not cofactor.support() & block
    with pytest.raises(BddError):
        space.split(BDD(space.manager.var_count).true,
                    space.model.attributes[0].name)


def test_cofactor_on_two_values_of_one_attribute_is_false(code_review_space):
    space, legal = code_review_space, oracles.conjunction(code_review_space)
    clash = [("LenCBchain", "0"), ("LenCBchain", "1")]
    assert space.cofactor(legal, clash).is_false
    assert space.cofactor(legal, clash[:1] * 2) == space.cofactor(legal, clash[:1])
    with pytest.raises(BddError):
        space.cofactor(BDD(space.manager.var_count).true, clash)


@functools.cache
def _space_and_legal_tests(path):
    model = load_model(path)
    space = ModelSpace(model)
    return space, oracles.conjunction(space), oracles.legal_tuples(
        model, oracles.constraint_predicate(model))


@pytest.mark.parametrize("path", sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "models").glob("*.json")),
    ids=lambda p: p.stem)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cofactor_is_false_exactly_when_no_legal_test_holds_the_bindings(path, data):
    # bindings drawn over at most three attributes, so that attributes
    # repeat, with the same label or a conflicting one
    space, legal, tests = _space_and_legal_tests(path)
    pool = data.draw(st.lists(st.sampled_from(space.model.attributes),
                              min_size=1, max_size=3))
    bindings = data.draw(st.lists(st.sampled_from(pool).flatmap(
        lambda a: st.tuples(st.just(a.name), st.sampled_from(a.labels))),
        min_size=1, max_size=5))
    fn = space.cofactor(legal, bindings)
    held = any(all(test[a] == v for a, v in bindings) for test in tests)
    assert fn.is_false != held
    assert fn == space.cofactor(legal, list(dict.fromkeys(bindings)))


def test_bind_cofactors_only_the_factors_the_bindings_touch(models_dir):
    # linked8x3 has four components; each t=3 requirement touches one to
    # three of them, and `bind` leaves the other factors as they are
    space = ModelSpace(load_model(models_dir / "linked8x3.json"))
    assert space.bind(()) == space.factors
    for bindings in Residual(space, 3):
        touched = {space.component_of[a] for a, _ in bindings}
        assert space.bind(bindings) == {
            c: space.cofactor(factor, bindings) if c in touched else factor
            for c, factor in space.factors.items()}


# ----------------------------------------------------------------------
# projection

def test_projection_of_at_least_one(at_least_one_space):
    factors = at_least_one_space.project({"x1": "0", "x2": "0"})
    rows = ["".join(t.values()) for t in at_least_one_space.assignments(factors)]
    assert rows == ["0001", "0010", "0011"]


def test_empty_projection_is_legal_space(at_least_one_space):
    space = at_least_one_space
    assert space.project({}) == space.factors
    assert space.project({}) is not space.factors  # a copy
    assert oracles.conjunction(space, space.project({})).root == \
        oracles.conjunction(space).root


def test_projection_on_forbidden_value_is_empty(code_review_space):
    space = code_review_space
    factors = space.project({"LenCBchain": "0", "InterestingCB1": "true"})
    assert factors[space.component_of["LenCBchain"]].is_false
    assert space.count(factors) == 0


def test_projection_implies_legal(code_review_space):
    space = code_review_space
    legal = oracles.conjunction(space)
    for partial in ({"LenCBchain": "3"}, {"InterestingCB2": "true"},
                    {"LenCBchain": "5", "InterestingCB5": "true"}):
        fn = oracles.conjunction(space, space.project(partial))
        assert (fn & legal).root == fn.root


def test_projection_counts_on_shopping(shopping_space):
    space = shopping_space
    credit_oneday = space.project(
        {"Payment": "Credit", "DeliverySchedule": "One Day"})
    assert space.count(credit_oneday) == 24
    with_fedex = space.project(
        {"Payment": "Credit", "DeliverySchedule": "One Day", "Carrier": "Fedex"})
    assert space.count(with_fedex) == 8
    oneday_export = space.project(
        {"DeliverySchedule": "One Day", "ExportControl": "True"})
    assert space.count(oneday_export) == 36


def test_projection_rejects_unknown_value(shopping_space):
    with pytest.raises(UnknownValueError):
        shopping_space.project({"Payment": "Bitcoin"})


@st.composite
def _component_cases(draw):
    """A model of 4-7 attributes dealt into three groups, each group's
    attributes chained by implications in a drawn order, with one value
    that a unary constraint excludes: its (attribute, label) comes back
    with the model."""
    k = draw(st.integers(4, 7))
    names = [f"A{i}" for i in range(k)]
    labels = [[f"v{j}" for j in range(draw(st.integers(2, 4)))] for _ in names]
    order = draw(st.permutations(range(k)))
    constraints = []
    for group in (order[0::3], order[1::3], order[2::3]):
        for i, j in zip(group, group[1:]):
            constraints.append(f"{names[i]} = {draw(st.sampled_from(labels[i]))} -> "
                               f"{names[j]} != {draw(st.sampled_from(labels[j]))}")
    dead = draw(st.integers(0, k - 1))
    dead_label = draw(st.sampled_from(labels[dead]))
    constraints.append(f"{names[dead]} != {dead_label}")
    attributes = tuple(Attribute(n, tuple(map(Value, ls)))
                       for n, ls in zip(names, labels))
    return Model(attributes, tuple(constraints)), (names[dead], dead_label)


@settings(max_examples=150, deadline=None)
@given(_component_cases(), st.data())
def test_projected_counts_and_enumeration_equal_brute_force(case, data):
    # the empty partial, one fixed attribute, fixes in two components and a
    # fixed value no legal test holds, each read from the factors alone
    model, dead = case
    try:
        space = ModelSpace(model)
    except InfeasibleModelError:
        assume(False)
    component = space.component_of
    assume(len(set(component.values())) >= 3)
    legal = oracles.legal_tuples(model, oracles.constraint_predicate(model))
    names = model.attribute_names

    def fix(name):
        return name, data.draw(st.sampled_from(model.attribute(name).labels))

    one = data.draw(st.sampled_from(names))
    other = data.draw(st.sampled_from([n for n in names if component[n] != component[one]]))
    for partial in ({}, dict([fix(one)]), dict([fix(one), fix(other)]), dict([dead])):
        factors = space.project(partial)
        assert {c for c in factors if factors[c] != space.factors[c]} <= \
            {component[a] for a in partial}
        expected = [t for t in legal if all(t[a] == v for a, v in partial.items())]
        assert space.count(factors) == len(expected)
        assert list(space.assignments(factors)) == expected
        limit = data.draw(st.integers(0, len(expected) + 1))
        assert list(space.assignments(factors, limit=limit)) == expected[:limit]
    assert expected == [] and space.count(factors) == 0  # the dead value


def test_projected_enumeration_adds_few_nodes():
    # two fixes in two of the six components, then 500 rows: each fix is
    # ANDed into its own component's factor and the walk splits one factor
    # per depth; ANDing every factor into one function first added 1,490
    # nodes
    space = ModelSpace(parse_model(oracles.linked_document(30, 6, 6)))
    before = len(space.manager)
    rows = list(space.assignments(space.project({"P0": "r1", "P1": "r2"}), limit=500))
    assert len(space.manager) - before < 100
    assert len(rows) == 500 and all(row["P0"] == "r1" and row["P1"] == "r2" for row in rows)
    assert not hasattr(ModelSpace, "legal")


@st.composite
def _marginal_cases(draw):
    """A model of 2-6 attributes with unary exclusions, pair links, a
    3-attribute constraint, one that names an attribute its BDD does not
    depend on, and unconstrained attributes; then subsets of 1-4 of its
    attributes, in any order."""
    k = draw(st.integers(2, 6))
    names = [f"A{i}" for i in range(k)]
    labels = [[f"v{j}" for j in range(draw(st.integers(1, 4)))] for _ in names]

    def bound(i, op="="):
        return f"{names[i]} {op} {draw(st.sampled_from(labels[i]))}"

    def distinct(n):
        return draw(st.permutations(range(k)))[:n]

    constraints = [bound(i, "!=") for i in draw(st.lists(st.integers(0, k - 1),
                                                         max_size=2))]
    for _ in range(draw(st.integers(0, 2))):
        i, j = distinct(2)
        constraints.append(f"{bound(i)} -> {bound(j, '!=')}")
    if k >= 3 and draw(st.booleans()):
        i, j, m = distinct(3)
        constraints.append(f"{bound(i)} AND {bound(j)} -> {bound(m, '!=')}")
    if draw(st.booleans()):
        i, j = distinct(2)  # equals `a` alone: names[j] is named, not linked
        a, b = bound(i), draw(st.sampled_from(labels[j]))
        constraints.append(f"({a} AND {names[j]} = {b}) OR ({a} AND {names[j]} != {b})")
    attributes = tuple(Attribute(n, tuple(map(Value, ls)))
                       for n, ls in zip(names, labels))
    subsets = draw(st.lists(st.lists(st.sampled_from(names), min_size=1,
                                     max_size=min(4, k), unique=True),
                            min_size=1, max_size=8))
    return Model(attributes, tuple(constraints)), subsets


def _factored(space, subset):
    """The AND of the projections of a subset's pieces: what `coverage`
    counts a subset's feasible tuples from."""
    return functools.reduce(operator.and_, space.marginals(space.pieces(subset)))


@settings(max_examples=200, deadline=None)
@given(_marginal_cases())
def test_marginals_equal_full_projections(case):
    model, subsets = case
    try:
        space = ModelSpace(model)
    except InfeasibleModelError:
        assume(False)
    blocks, index = space.encoding.blocks, model.index
    kept = [[v for n in subset for v in blocks[index(n)]] for subset in subsets]
    expected = space.manager.projections(oracles.conjunction(space), kept)
    assert [_factored(space, subset) for subset in subsets] == expected


@settings(max_examples=200, deadline=None)
@given(_marginal_cases())
def test_factors_and_to_legal(case):
    model, _ = case
    try:
        space = ModelSpace(model)
    except InfeasibleModelError:
        assume(False)
    component, factors = space.component_of, space.factors
    assert sorted(factors) == sorted(set(component.values()))
    assert oracles.conjunction(space) == _declaration_order_product(space)
    assert space.count() == len(oracles.legal_tuples(
        model, oracles.constraint_predicate(model)))
    for c, factor in factors.items():
        owners = {a.name for a, block in zip(model.attributes, space.encoding.blocks)
                  if set(block) & factor.support()}
        assert {component[a] for a in owners} <= {c}


@pytest.mark.parametrize("model", ["chain30x5", "linked8x3"])
def test_marginals_never_project_legal(monkeypatch, models_dir, model):
    """Every projection that counting and `Residual` ask for is made from
    one component's factor: its support lies in one component, and
    `legal` (which spans every component here) is never handed over."""
    if model == "chain30x5":
        space = ModelSpace(parse_model(oracles.chain_document(30, 5)))
    else:  # its blocks leave declaration order
        space = ModelSpace(load_model(models_dir / f"{model}.json"))
    owner = {v: ai for ai, block in enumerate(space.encoding.blocks) for v in block}
    projected, projections = [], BDD.projections

    def spy(manager, fn, sets):
        projected.append(fn)
        return projections(manager, fn, sets)

    monkeypatch.setattr(BDD, "projections", spy)
    for t in (2, 3):
        feasible_count(space, t)
        list(Residual(space, t))
    assert projected
    component = [space.component_of[name] for name in space.model.attribute_names]
    assert len(set(component)) > 1
    legal = oracles.conjunction(space)
    for fn in projected:
        assert fn != legal
        assert len({component[owner[v]] for v in fn.support()}) <= 1


def test_components_come_from_bdd_support():
    # the first constraint is `A = a`: it names B, but does not link it
    attrs = tuple(Attribute(n, (Value("a"), Value("b"), Value("c")))
                  for n in ("A", "B", "C", "D"))
    space = ModelSpace(Model(attrs, (
        "(A = a AND B = b) OR (A = a AND B != b)", "B = a -> C != b")))
    assert list(space.component_of.values()) == [0, 1, 1, 3]
    blocks = space.encoding.blocks
    for subset in (["A", "B"], ["B", "C"], ["A", "B", "C", "D"]):
        kept = [v for n in subset for v in blocks[space.model.index(n)]]
        assert [_factored(space, subset)] == space.manager.projections(
            oracles.conjunction(space), [kept])


def test_components_follow_variables_under_a_permuted_order(models_dir):
    # `Ai = x -> Ai+4 != y` lays the blocks out A0, A4, A1, A5, ...; each
    # attribute's component is read from the variables of its block
    space = ModelSpace(load_model(models_dir / "linked8x3.json"))
    blocks = space.encoding.blocks
    assert sorted(range(8), key=lambda ai: blocks[ai]) == [0, 4, 1, 5, 2, 6, 3, 7]
    assert list(space.component_of.values()) == [0, 1, 2, 3, 0, 1, 2, 3]
    for subset in (["A0", "A4"], ["A4", "A1"], ["A1", "A5", "A0"],
                   ["A7", "A3", "A2"], [f"A{i}" for i in range(8)]):
        kept = [v for n in subset for v in blocks[space.model.index(n)]]
        assert [_factored(space, subset)] == space.manager.projections(
            oracles.conjunction(space), [kept])


# ----------------------------------------------------------------------
# block order

def test_far_linked_model_builds_in_few_nodes():
    # twenty linked pairs, each its own component: each factor skips the
    # other components' variables, so the distance between a pair's
    # attributes costs nothing in any order
    space = ModelSpace(parse_model(oracles.iff_document(20)))
    assert len(space.manager) < 2000
    assert space.count() == 5 ** 20 == 95_367_431_640_625


def test_zigzag_component_builds_in_few_nodes():
    # one component whose neighbours lie ten apart in declaration order:
    # the order picked puts them side by side and builds 314 nodes, where
    # declaration order builds 107,017
    space = ModelSpace(parse_model(oracles.zigzag_document(10)))
    assert len(space.factors) == 1
    assert len(space.manager) < 1000
    assert space.count() == 28657


def _encoding(model):
    """The model's encoding, its constraints parsed as `ModelSpace` does."""
    return build_encoding(model, [constraints.typecheck(constraints.parse(c), model)
                                  for c in model.constraints])


@pytest.mark.parametrize("name", sorted(
    p.stem for p in (pathlib.Path(__file__).resolve().parent.parent / "models").glob("*.json")
    if p.stem != "linked8x3") + ["chain20x5"])
def test_contiguous_models_keep_declaration_order(name, models_dir):
    # the chain and every checked-in model but linked8x3, which is there to
    # take the other path, link only attributes declared next to one another
    model = (parse_model(oracles.chain_document(20, 5)) if name == "chain20x5"
             else load_model(models_dir / f"{name}.json"))
    flat = [v for b in _encoding(model).blocks for v in b]
    assert flat == list(range(len(flat)))


def test_block_order_kept_only_when_the_span_falls():
    # a cycle A0-A1-A2-A3-A0: breadth-first from A0 gives A0, A1, A3, A2,
    # whose summed span is 6, as in declaration order, which stays
    names = ["A0", "A1", "A2", "A3"]
    model = Model(tuple(Attribute(n, (Value("x"), Value("y"))) for n in names),
                  ("A0 = x -> A1 = x", "A1 = x -> A2 = x", "A2 = x -> A3 = x",
                   "A3 = x -> A0 = y"))
    assert _encoding(model).blocks == ((0,), (1,), (2,), (3,))
    # A0-A3 alone: A0, A3, A1, A2 lowers the span from 3 to 1
    model = Model(model.attributes, ("A0 = x -> A3 = x", "A1 = y"))
    assert _encoding(model).blocks == ((0,), (2,), (3,), (1,))


# ----------------------------------------------------------------------
# enumeration

def _xy_model(constraints=()):
    return Model((
        Attribute("X", (Value("1"), Value("2"), Value("3"))),
        Attribute("Y", (Value("a"), Value("b"))),
    ), tuple(constraints))


def test_enumeration_order_is_lexicographic():
    space = ModelSpace(_xy_model())
    got = [(t["X"], t["Y"]) for t in space.assignments()]
    assert got == [("1", "a"), ("1", "b"), ("2", "a"), ("2", "b"),
                   ("3", "a"), ("3", "b")]


def test_enumeration_with_constraint():
    space = ModelSpace(_xy_model(["Y != a"]))
    got = [(t["X"], t["Y"]) for t in space.assignments()]
    assert got == [("1", "b"), ("2", "b"), ("3", "b")]


def test_enumeration_over_empty_space():
    space = ModelSpace(_xy_model())
    factors, y = space.project({"Y": "a"}), space.component_of["Y"]
    factors[y] = factors[y] & space.project({"Y": "b"})[y]
    assert factors[y].is_false
    assert list(space.assignments(factors)) == []


def test_enumeration_limit(shopping_space):
    got = list(shopping_space.assignments(limit=5))
    assert len(got) == 5


@settings(max_examples=200, deadline=None)
@given(_marginal_cases(), st.data())
def test_enumeration_equals_brute_force(case, data):
    # `_marginal_cases` links attributes in any order, so some of these
    # models lay their blocks out apart from declaration order
    model, _ = case
    try:
        space = ModelSpace(model)
    except InfeasibleModelError:
        assume(False)
    expected = oracles.legal_tuples(model, oracles.constraint_predicate(model))
    assert list(space.assignments()) == expected
    limit = data.draw(st.integers(0, len(expected) + 1))
    assert list(space.assignments(limit=limit)) == expected[:limit]
    attr = model.attributes[data.draw(st.integers(0, len(model.attributes) - 1))]
    label = data.draw(st.sampled_from(attr.labels))
    assert list(space.assignments(space.project({attr.name: label}))) == [
        t for t in expected if t[attr.name] == label]


def _literal_value_set(space, ai, value_indices):
    """A value set built literal by literal: one conjunction of bit literals
    per value's code, ORed."""
    m, encoding = space.manager, space.encoding
    fn = m.false
    for vi in value_indices:
        code = m.true
        for var, bit in zip(encoding.blocks[ai], encoding.value_bits(ai, vi)):
            code = code & (m.var(var) if bit else ~m.var(var))
        fn = fn | code
    return fn


def test_value_sets_equal_literal_construction():
    # widths 0 (one value), 2 (three values, one unused code), 3 (five, three
    # unused) and 1 (two, none unused)
    sizes = {"One": 1, "Three": 3, "Five": 5, "Two": 2}
    model = Model(tuple(Attribute(name, tuple(Value(f"v{i}") for i in range(size)))
                        for name, size in sizes.items()))
    space = ModelSpace(model)
    ref = functools.partial(_literal_value_set, space)
    assert [len(b) for b in space.encoding.blocks] == [0, 2, 3, 1]

    def compiled(source):
        return constraints.compile_expr(constraints.typecheck(
            constraints.parse(source), model), model, space.encoding, space.manager)

    for ai, name in enumerate(sizes):
        for vi in range(sizes[name]):
            assert compiled(f"{name} = v{vi}") == ref(ai, [vi])
            assert compiled(f"{name} != v{vi}") == ~ref(ai, [vi])
            assert compiled(f"NOT {name} = v{vi}") == ~ref(ai, [vi])
            assert oracles.conjunction(space, space.project({name: f"v{vi}"})) \
                == oracles.conjunction(space) & ref(ai, [vi])
        picked = list(range(0, sizes[name], 2))
        labels = ", ".join(f"v{vi}" for vi in picked)
        assert compiled(f"{name} IN {{{labels}}}") == ref(ai, picked)
        assert compiled(f"{name} IN {{{labels}, v0}}") == ref(ai, picked)
    legal = oracles.conjunction(space)
    assert legal == ref(1, range(3)) & ref(2, range(5))  # no constraints
    assert oracles.conjunction(space, space.project(
        {"One": "v0", "Five": "v4", "Two": "v1"})) \
        == legal & ref(0, [0]) & ref(2, [4]) & ref(3, [1])


def test_single_value_attribute_consumes_no_bits(staircase):
    space = ModelSpace(staircase)
    assert len(space.encoding.blocks[0]) == 0
    assert space.count() == 120
    first = next(space.assignments())
    assert first["Attribute1"] == "value1"
