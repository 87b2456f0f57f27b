"""Constraint language: lexing, parsing, printing, typechecking, compiling."""

import itertools
import random

import pytest

import oracles
from ctdkit import (
    BDD,
    ConstraintSyntaxError,
    LexicalError,
    Model,
    ModelSpace,
    UnknownAttributeError,
    UnknownValueError,
    build_encoding,
    parse_model,
)
from ctdkit.constraints import (
    And,
    BoolLit,
    Equals,
    Iff,
    Implies,
    In,
    Not,
    NotEquals,
    Or,
    attributes_of,
    compile_expr,
    format_expr,
    parse,
    tokenize,
    typecheck,
)
from ctdkit.model import Attribute, Value


def test_parse_file_authority_example():
    ast = parse("((OpenFileAuthority=WO) OR (OpenFileAuthority=RW)) "
                "AND (WriteAction=true)")
    assert ast == And((
        Or((Equals("OpenFileAuthority", "WO"), Equals("OpenFileAuthority", "RW"))),
        Equals("WriteAction", "true"),
    ))


def test_parse_not():
    assert parse("NOT A=x") == Not(Equals("A", "x"))
    assert parse("not not A=x") == Not(Not(Equals("A", "x")))


def test_parse_dangling_operator_is_syntax_error():
    with pytest.raises(ConstraintSyntaxError) as err:
        parse("A=x AND")
    assert "end of input" in str(err.value)


def test_lexical_error_has_position():
    with pytest.raises(LexicalError) as err:
        parse("A = #")
    assert err.value.position == 4


def test_syntax_and_lexical_errors_are_distinct():
    with pytest.raises(ConstraintSyntaxError):
        parse("A = = x")
    with pytest.raises(LexicalError):
        parse("A ~ x")
    assert not issubclass(LexicalError, ConstraintSyntaxError)
    assert not issubclass(ConstraintSyntaxError, LexicalError)


# source: (the character the lexer rejects, its position)
_LEXICAL_ERRORS = {
    "A =\t#": ("#", 4),
    "A = x\n AND $": ("$", 11),
    "A ! x": ("!", 2),
    "A = x - B = y": ("-", 6),
    "A = x <- B = y": ("<", 6),
    'A = "x': ('"', 4),
    'A = x AND B = "y': ('"', 14),
    "A = \u00e9": ("\u00e9", 4),
    "A = x AND B = y \u2192": ("\u2192", 16),
}


@pytest.mark.parametrize("source", sorted(_LEXICAL_ERRORS))
def test_lexical_error_message_and_position(source):
    char, position = _LEXICAL_ERRORS[source]
    with pytest.raises(LexicalError) as err:
        parse(source)
    assert str(err.value) == f"unexpected character {char!r} at position {position}"
    assert err.value.position == position


def test_tokens_are_kind_text_position_tuples():
    assert tokenize('A IN {"b c", and}\u00a0') == [
        ("WORD", "A", 0), ("IN", "IN", 2), ("{", "{", 5), ("STRING", "b c", 6),
        (",", ",", 11), ("AND", "and", 13), ("}", "}", 16), ("END", "", 18)]
    assert parse("A =\tx\nAND\u00a0B = y") == And((Equals("A", "x"), Equals("B", "y")))


def test_precedence_or_binds_looser_than_and():
    ast = parse("A=x OR B=y AND C=z")
    assert ast == Or((Equals("A", "x"),
                      And((Equals("B", "y"), Equals("C", "z")))))


def test_precedence_not_tightest():
    ast = parse("NOT A=x AND B=y")
    assert ast == And((Not(Equals("A", "x")), Equals("B", "y")))


def test_implies_binds_looser_than_or_and_is_right_associative():
    ast = parse("A=x OR B=y -> C=z -> D=w")
    assert ast == Implies(
        Or((Equals("A", "x"), Equals("B", "y"))),
        Implies(Equals("C", "z"), Equals("D", "w")))


def test_iff_loosest_and_left_associative():
    ast = parse("A=x <-> B=y <-> C=z")
    assert ast == Iff(Iff(Equals("A", "x"), Equals("B", "y")), Equals("C", "z"))
    ast = parse("A=x -> B=y <-> C=z")
    assert ast == Iff(Implies(Equals("A", "x"), Equals("B", "y")), Equals("C", "z"))


def test_in_sets_and_not_equals():
    assert parse("A IN {x, y, z}") == In("A", ("x", "y", "z"))
    assert parse("A != x") == NotEquals("A", "x")


def test_keywords_case_insensitive_labels_case_sensitive():
    assert parse("a=x and b=y") == And((Equals("a", "x"), Equals("b", "y")))
    assert parse("TRUE") == BoolLit(True)
    assert parse("false") == BoolLit(False)
    # 'true' in value position is a plain label
    assert parse("WriteAction = true") == Equals("WriteAction", "true")
    assert parse("nOt A = x") == Not(Equals("A", "x"))
    assert parse("A In {x, y}") == In("A", ("x", "y"))
    assert parse("tRuE") == BoolLit(True)
    assert parse("A = x oR B = y aNd C = z") == Or((
        Equals("A", "x"), And((Equals("B", "y"), Equals("C", "z")))))
    # so is any keyword, in any case
    assert parse("A = AND") == Equals("A", "AND")
    assert parse("A != nOt") == NotEquals("A", "nOt")
    assert parse("A IN {and, Or, NOT}") == In("A", ("and", "Or", "NOT"))
    assert parse("A IN {TRUE, false, in}") == In("A", ("TRUE", "false", "in"))


def test_quoted_labels_allow_spaces():
    ast = parse('DeliverySchedule = "2-5 working days"')
    assert ast == Equals("DeliverySchedule", "2-5 working days")
    ast = parse('A IN {"with space", plain}')
    assert ast == In("A", ("with space", "plain"))


def test_parse_rejects_trailing_junk():
    with pytest.raises(ConstraintSyntaxError):
        parse("A=x B=y")
    with pytest.raises(ConstraintSyntaxError):
        parse("(A=x")
    with pytest.raises(ConstraintSyntaxError):
        parse("")


_ATOM = "attribute name, TRUE/FALSE, NOT or '('"

# source: (what the parser expected, what it found, position)
_SYNTAX_ERRORS = {
    "": (_ATOM, "end of input", 0),
    "()": (_ATOM, "')'", 1),
    "A = x)": ("end of input", "')'", 5),
    "(A = x": ("')'", "end of input", 6),
    "(A=x B=y)": ("')'", "'B'", 5),
    "((A=x) OR B=y": ("')'", "end of input", 13),
    "NOT": (_ATOM, "end of input", 3),
    "NOT )": (_ATOM, "')'", 4),
    "A = x NOT B = y": ("end of input", "'NOT'", 6),
    "A = x (B = y)": ("end of input", "'('", 6),
    'A = x "AND" B = y': ("end of input", "'AND'", 6),
    "TRUE = x": ("end of input", "'='", 5),
    "A": ("'=', '!=' or IN after attribute name", "end of input", 1),
    "A IN {}": ("value label", "'}'", 6),
    "A IN {x,}": ("value label", "'}'", 8),
    "A = x -> ": (_ATOM, "end of input", 9),
    "A=x <-> <-> B=y": (_ATOM, "'<->'", 8),
    "A = x AND OR B = y": (_ATOM, "'OR'", 10),
    "and = x": (_ATOM, "'and'", 0),
    '"A" = x': (_ATOM, "'A'", 0),
    'A = x AND "B" IN {y}': (_ATOM, "'B'", 10),
}


@pytest.mark.parametrize("source", sorted(_SYNTAX_ERRORS))
def test_syntax_error_message_and_position(source):
    expected, found, position = _SYNTAX_ERRORS[source]
    with pytest.raises(ConstraintSyntaxError) as err:
        parse(source)
    assert str(err.value) == f"expected {expected}, found {found} at position {position}"
    assert err.value.position == position


def _random_expr(rng, depth):
    attrs = ("A", "B2", "C_c")
    values = ("x", "y", "value1", "true", "No Such Product", "2-5 days")
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randrange(4)
        if kind == 0:
            return Equals(rng.choice(attrs), rng.choice(values))
        if kind == 1:
            return NotEquals(rng.choice(attrs), rng.choice(values))
        if kind == 2:
            k = rng.randrange(1, 4)
            return In(rng.choice(attrs), tuple(rng.sample(values, k)))
        return BoolLit(rng.random() < 0.5)
    op = rng.randrange(5)
    if op == 0:
        return Not(_random_expr(rng, depth - 1))
    if op == 1:
        return Implies(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if op == 2:
        return Iff(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    children = tuple(_random_expr(rng, depth - 1)
                     for _ in range(rng.randrange(2, 4)))
    return And(children) if op == 3 else Or(children)


def test_print_parse_round_trip():
    rng = random.Random(41)
    for _ in range(400):
        expr = _random_expr(rng, 4)
        assert parse(format_expr(expr)) == expr


def _parenthesised(e):
    """Source of e with every operand of every operator in parentheses."""
    if isinstance(e, Not):
        return f"NOT ({_parenthesised(e.child)})"
    if isinstance(e, (And, Or, Implies, Iff)):
        operands = e.children if isinstance(e, (And, Or)) else (e.lhs, e.rhs)
        operator = {And: "AND", Or: "OR", Implies: "->", Iff: "<->"}[type(e)]
        return f" {operator} ".join(f"({_parenthesised(x)})" for x in operands)
    return format_expr(e)


def test_fully_parenthesised_parse_round_trip():
    rng = random.Random(41)  # the ASTs of test_print_parse_round_trip
    for _ in range(400):
        expr = _random_expr(rng, 4)
        assert parse(_parenthesised(expr)) == expr


@pytest.mark.parametrize("shape", sorted(oracles.deep_documents()))
def test_walks_over_a_constraint_nested_past_the_recursion_limit(shape):
    # deep ASTs are compared as text: dataclass equality recurses
    document, _ = oracles.deep_documents()[shape]
    model = parse_model(document)
    source = document["constraints"][0]
    expr = parse(source)
    assert format_expr(expr) == ("A0 = a" if shape == "parentheses" else source)
    assert typecheck(expr, model) is expr
    assert attributes_of(expr) == ({"A0"} if shape in ("parentheses", "negations")
                                   else set(model.attribute_names))


def test_typecheck_reports_the_leftmost_bad_reference_at_any_depth():
    document, _ = oracles.deep_documents()["implies"]
    model = parse_model(document)
    terms = document["constraints"][0].split(" -> ")
    terms[1500], terms[1200] = "A3 = z", "Nope = a"
    with pytest.raises(UnknownAttributeError) as err:
        typecheck(parse(" -> ".join(terms)), model)
    assert err.value.attribute == "Nope"


def test_typecheck_resolves(shopping):
    typecheck(parse("Payment = Credit"), shopping)  # no exception


def test_typecheck_unknown_value_names_offender(shopping):
    with pytest.raises(UnknownValueError) as err:
        typecheck(parse("Payment = Bitcoin"), shopping)
    assert err.value.value == "Bitcoin"
    assert "Bitcoin" in str(err.value)


def test_typecheck_unknown_attribute_names_offender(shopping):
    with pytest.raises(UnknownAttributeError) as err:
        typecheck(parse("Paymen = Credit"), shopping)
    assert err.value.attribute == "Paymen"
    assert "Paymen" in str(err.value)


_SMALL = Model((
    Attribute("A", (Value("x"), Value("y"))),
    Attribute("B2", (Value("x"), Value("y"), Value("value1"))),
    Attribute("C_c", (Value("true"), Value("No Such Product"), Value("2-5 days"),
                      Value("x"), Value("y"))),
))


def _valid_expr(rng, depth):
    """Random expression whose references all resolve against _SMALL."""
    while True:
        expr = _random_expr(rng, depth)
        try:
            typecheck(expr, _SMALL)
            return expr
        except (UnknownAttributeError, UnknownValueError):
            continue


def test_compile_agrees_with_direct_evaluation():
    rng = random.Random(43)
    encoding = build_encoding(_SMALL, [])
    manager = BDD(encoding.var_count)
    names = [a.name for a in _SMALL.attributes]
    tuples = list(oracles.all_tuples(_SMALL))
    for _ in range(120):
        expr = _valid_expr(rng, 3)
        fn = compile_expr(expr, _SMALL, encoding, manager)
        for test in tuples:
            bits = {}
            for ai, a in enumerate(_SMALL.attributes):
                bits.update(zip(encoding.blocks[ai],
                                encoding.value_bits(ai, a.index_of(test[a.name]))))
            assert manager.select(fn, bits, 1) == oracles.eval_expr(expr, test), \
                (format_expr(expr), test)


def test_compile_is_a_homomorphism():
    rng = random.Random(47)
    encoding = build_encoding(_SMALL, [])
    manager = BDD(encoding.var_count)
    for _ in range(60):
        a = _valid_expr(rng, 2)
        b = _valid_expr(rng, 2)
        ca = compile_expr(a, _SMALL, encoding, manager)
        cb = compile_expr(b, _SMALL, encoding, manager)
        assert compile_expr(And((a, b)), _SMALL, encoding, manager).root \
            == (ca & cb).root
        assert compile_expr(Or((a, b)), _SMALL, encoding, manager).root \
            == (ca | cb).root
        assert compile_expr(Not(a), _SMALL, encoding, manager).root == (~ca).root
        assert compile_expr(Implies(a, b), _SMALL, encoding, manager).root \
            == (~ca | cb).root


def test_compile_tautology_leaves_legal_space_unchanged(at_least_one):
    space = ModelSpace(at_least_one)
    fn = compile_expr(typecheck(parse("TRUE"), at_least_one),
                      at_least_one, space.encoding, space.manager)
    assert fn == space.manager.true
    legal = oracles.conjunction(space)
    assert (legal & fn).root == legal.root


def test_compile_equals_and_notequals_conflict(shopping):
    space = ModelSpace(shopping)
    eq = compile_expr(parse("Payment = Credit"), shopping,
                      space.encoding, space.manager)
    neq = compile_expr(parse("Payment != Credit"), shopping,
                       space.encoding, space.manager)
    assert (eq & neq).is_false


def test_dispatch_restriction_excludes_pairs(code_review_dispatch):
    space = ModelSpace(code_review_dispatch)
    assert space.count(space.project({"DA": "5", "LengthOfChain": "3"})) == 0
    assert space.count(space.project({"DA": "4", "LengthOfChain": "3"})) > 0
    # brute-force cross-check of the whole legal count
    def legal(t):
        length = int(t["LengthOfChain"])
        if int(t["DA"]) > length + 1:
            return False
        return all(not (t[f"InterestingCB{i}"] == "true" and i > length)
                   for i in range(1, 6))
    assert space.count() == len(oracles.legal_tuples(code_review_dispatch, legal))
