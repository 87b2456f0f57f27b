"""Acceptance gate: one test per release criterion.

Each criterion contributes one pass/fail line to the terminal summary (see
the acceptance_report fixture).  Expected values come from independent
brute-force oracles computed here, never from the code paths under test.
"""

import math
import random

import oracles
from ctdkit import (
    BDD,
    ModelSpace,
    Residual,
    augment_plan,
    coverage_of,
    filter_feasible,
    generate_plan,
    generate_requirements,
    instantiate,
    read_plan_csv,
    run_cycles,
)
from ctdkit.model import Attribute, Model, Value


def _check(failures, condition, message):
    if not condition:
        failures.append(message)


def test_criterion_1_cartesian_and_legal_counting(shopping, api8x2, staircase,
                                                  code_review,
                                                  acceptance_report):
    failures = []
    _check(failures, shopping.cartesian_count() == 288,
           f"shopping cartesian {shopping.cartesian_count()} != 288")
    _check(failures, api8x2.cartesian_count() == 256,
           f"api cartesian {api8x2.cartesian_count()} != 256")
    _check(failures, staircase.cartesian_count() == 120,
           f"staircase cartesian {staircase.cartesian_count()} != 120")
    legal = ModelSpace(code_review).tuple_count()
    _check(failures, legal == 63, f"code-review legal {legal} != 63")
    acceptance_report("criterion 1: cartesian/legal counting", failures)


def test_criterion_2_requirement_counting(shopping, shopping_space, xyz,
                                          xyz_drop_a, acceptance_report):
    from ctdkit import filter_feasible, generate_requirements
    failures = []
    pairs = filter_feasible(generate_requirements(shopping, 2), shopping_space)
    _check(failures, len(pairs.feasible()) == 101,
           f"shopping pairs {len(pairs.feasible())} != 101")
    xyz_pairs = generate_requirements(xyz, 2)
    _check(failures, len(xyz_pairs) == 12, f"xyz pairs {len(xyz_pairs)} != 12")
    dropped = filter_feasible(generate_requirements(xyz_drop_a, 2),
                              ModelSpace(xyz_drop_a))
    _check(failures, len(dropped.feasible()) == 8,
           f"xyz feasible pairs after drop {len(dropped.feasible())} != 8")
    # triple count checked against an independent enumeration of all 288
    # full assignments (the value 314 is what that enumeration yields)
    oracle = oracles.feasible_t_tuples(shopping, 3)
    triples = filter_feasible(generate_requirements(shopping, 3), shopping_space)
    _check(failures, len(oracle) == 314, f"oracle triples {len(oracle)} != 314")
    _check(failures, len(triples.feasible()) == len(oracle),
           f"triples {len(triples.feasible())} != oracle {len(oracle)}")
    _check(failures,
           set(triples.feasible()) == oracle,
           "triple requirement sets differ")
    acceptance_report("criterion 2: requirement counting", failures)


def test_criterion_3_analyzer_fixtures(api8x2, api8x2_space, manual3x3x3,
                                       shopping, shopping_space, models_dir,
                                       acceptance_report):
    failures = []
    # 7-row two-way table against a brute-force pair enumerator
    _, rows = read_plan_csv(models_dir / "api8x2_plan7.csv")
    oracle_pairs = oracles.feasible_t_tuples(api8x2, 2)
    names = list(api8x2.attribute_names)
    covered_oracle = oracles.covered_t_tuples(rows, names, 2)
    report = coverage_of(api8x2_space, rows, 2)
    _check(failures, covered_oracle == oracle_pairs,
           "oracle says the 7-row table misses pairs")
    _check(failures, (report.covered, report.total_feasible) == (112, 112),
           f"analyzer reports {report.covered}/{report.total_feasible}")
    # 9-row manual 3x3x3 solution
    _, manual_rows = read_plan_csv(models_dir / "manual3x3x3_plan9.csv")
    manual_report = coverage_of(ModelSpace(manual3x3x3), manual_rows, 2)
    _check(failures,
           (manual_report.covered, manual_report.total_feasible) == (27, 27),
           f"manual table covers {manual_report.covered}/27")
    # the single shopping test covers exactly these ten pairs
    test = {"Availability": "Available", "Payment": "Paypal", "Carrier": "Fedex",
            "DeliverySchedule": "2-5 working days", "ExportControl": "True"}
    expected = {
        (("Availability", "Available"), ("Payment", "Paypal")),
        (("Availability", "Available"), ("Carrier", "Fedex")),
        (("Availability", "Available"), ("DeliverySchedule", "2-5 working days")),
        (("Availability", "Available"), ("ExportControl", "True")),
        (("Payment", "Paypal"), ("Carrier", "Fedex")),
        (("Payment", "Paypal"), ("DeliverySchedule", "2-5 working days")),
        (("Payment", "Paypal"), ("ExportControl", "True")),
        (("Carrier", "Fedex"), ("DeliverySchedule", "2-5 working days")),
        (("Carrier", "Fedex"), ("ExportControl", "True")),
        (("DeliverySchedule", "2-5 working days"), ("ExportControl", "True")),
    }
    pairs = Residual(shopping_space, 2)
    feasible = list(pairs)
    pairs.cover(test)
    got = set(feasible).difference(pairs)
    _check(failures, got == expected, "pairs of the single shopping test differ")
    single = coverage_of(shopping_space, [test], 2)
    _check(failures, single.covered == 10,
           f"analyzer credits {single.covered} pairs, expected 10")
    acceptance_report("criterion 3: analyzer fixtures", failures)


def test_criterion_4_generator_quality(api8x2, api8x2_space, manual3x3x3,
                                       model1, acceptance_report):
    failures = []
    plan = generate_plan(api8x2_space, 2)
    _check(failures, plan.covered == plan.total_feasible,
           "8x2 plan does not reach 100%")
    _check(failures, len(plan) <= 10, f"8x2 plan size {len(plan)} > 10")
    _check(failures,
           oracles.covered_t_tuples(plan.tests, list(api8x2.attribute_names), 2)
           == oracles.feasible_t_tuples(api8x2, 2),
           "oracle disputes the 8x2 plan's full coverage")

    space333 = ModelSpace(manual3x3x3)
    plan333 = generate_plan(space333, 2)
    _check(failures, plan333.covered == plan333.total_feasible,
           "3x3x3 plan does not reach 100%")
    _check(failures, len(plan333) <= 12, f"3x3x3 plan size {len(plan333)} > 12")

    space1 = ModelSpace(model1)
    plan1 = generate_plan(space1, 2)
    _check(failures, plan1.covered == plan1.total_feasible,
           "9/7/5/2 plan does not reach 100%")
    _check(failures, 63 <= len(plan1) <= 80,
           f"9/7/5/2 plan size {len(plan1)} outside [63, 80]")
    acceptance_report("criterion 4: generator quality", failures)


def test_criterion_5_projection_enumeration(at_least_one_space,
                                            acceptance_report):
    failures = []
    fn = at_least_one_space.project({"x1": "0", "x2": "0"})
    got = {"".join(t.values()) for t in at_least_one_space.assignments(fn)}
    _check(failures, got == {"0001", "0010", "0011"},
           f"projection yielded {sorted(got)}")
    acceptance_report("criterion 5: projection/enumeration", failures)


def _demorgan_variant(tree):
    """Semantics-preserving restructuring used to probe canonicity."""
    op = tree[0]
    if op in ("var", "const"):
        return tree
    if op == "not":
        return ("not", _demorgan_variant(tree[1]))
    if op == "and":
        return ("not", ("or", ("not", _demorgan_variant(tree[1])),
                        ("not", _demorgan_variant(tree[2]))))
    if op == "or":
        return ("not", ("and", ("not", _demorgan_variant(tree[1])),
                        ("not", _demorgan_variant(tree[2]))))
    if op == "implies":
        return ("or", ("not", _demorgan_variant(tree[1])),
                _demorgan_variant(tree[2]))
    if op == "iff":
        left, right = _demorgan_variant(tree[1]), _demorgan_variant(tree[2])
        return ("and", ("implies", left, right), ("implies", right, left))
    if op == "ite":
        cond = _demorgan_variant(tree[1])
        return ("or", ("and", cond, _demorgan_variant(tree[2])),
                ("and", ("not", cond), _demorgan_variant(tree[3])))
    raise ValueError(op)


def test_criterion_6_bdd_engine_properties(acceptance_report):
    failures = []
    n = 10
    manager = BDD(n)
    rng = random.Random(2024)
    previous = None
    for i in range(1000):
        tree = oracles.random_tree(rng, n, 5)
        fn = oracles.tree_fn(tree, manager)
        table = oracles.tree_table(tree, n)
        # (a) canonicity, easy direction: a restructured but equivalent
        # formula must land on the identical root
        variant = oracles.tree_fn(_demorgan_variant(tree), manager)
        if variant.root != fn.root:
            failures.append(f"formula {i}: equivalent variant got another root")
            break
        # (a) canonicity, both directions against the previous formula
        if previous is not None:
            prev_fn, prev_table = previous
            if (table == prev_table) != (fn.root == prev_fn.root):
                failures.append(f"formula {i}: canonicity broken vs predecessor")
                break
        previous = (fn, table)
        # (b) counting
        if fn.count() != oracles.table_count(table):
            failures.append(f"formula {i}: count mismatch")
            break
        # (c) Shannon expansion on every mentioned variable
        for v in sorted(fn.support()):
            rebuilt = manager.ite(manager.var(v), fn.restrict(v, True),
                                  fn.restrict(v, False))
            if rebuilt.root != fn.root:
                failures.append(f"formula {i}: Shannon identity failed on {v}")
                break
        # (a) the hard direction once more, via minterm reconstruction
        if i < 30:
            rebuilt = manager.false
            for bits in oracles.table_sat_rows(table, n):
                term = manager.true
                for var, bit in enumerate(bits):
                    term = term & (manager.var(var) if bit
                                   else ~manager.var(var))
                rebuilt = rebuilt | term
            if rebuilt.root != fn.root:
                failures.append(f"formula {i}: minterm rebuild got another root")
                break
    # (d) the worked conjunction example
    m2 = BDD(2)
    g = m2.var(0) & m2.var(1)
    h = m2.var(0) | m2.var(1)
    f = (g & h)
    _check(failures, f.root == g.root, "(g and h) did not reduce to g")
    var, low, high = m2._nodes[f.root]
    _check(failures,
           (var, low, high) == (0, m2.false.root, m2.var(1).root),
           "reduced diagram is not ite(first var, second var, false)")
    acceptance_report("criterion 6: bdd engine properties", failures)


def test_criterion_7_cycle_workflow(api8x2_space, acceptance_report):
    failures = []
    full = generate_plan(api8x2_space, 2)
    state = run_cycles(api8x2_space, 2, 3, lambda test: True, max_cycles=50)
    percents = [record.percent for record in state.history]
    _check(failures, state.coverage_percent == 100.0,
           f"cycles ended at {state.coverage_percent}%")
    _check(failures, all(a < b for a, b in zip(percents, percents[1:])),
           f"coverage not strictly increasing: {percents}")
    limit = math.ceil(len(full) / 3) + 1
    _check(failures, len(state.history) <= limit,
           f"took {len(state.history)} cycles, limit {limit}")
    result = augment_plan(api8x2_space, 2, full.tests, n=10)
    _check(failures, result.plan.tests == [],
           f"augmenting a complete plan emitted {len(result.plan.tests)} tests")
    acceptance_report("criterion 7: cycle workflow", failures)


def test_criterion_8_instantiation(acceptance_report):
    failures = []
    model = Model((Attribute("W", (Value("small", (1, 10)),)),))
    rows = [{"W": "small"}] * 100
    first = instantiate(model, rows, seed=99)
    again = instantiate(model, rows, seed=99)
    _check(failures, all(1 <= int(row["W"]) < 10 for row in first.rows),
           "a draw left the declared range")
    _check(failures, first.rows == again.rows,
           "same seed did not reproduce the plan")
    _check(failures, first.to_json() == again.to_json(),
           "serialized concrete plans differ")
    acceptance_report("criterion 8: instantiation", failures)
