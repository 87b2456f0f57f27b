"""Engine-level tests: canonicity, reduction, ordering, counting, enumeration."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from ctdkit import BDD, BddError

# what a manager holds between calls: its nodes, nothing memoized
MANAGER_STATE = {"var_count", "_all_vars", "_nodes", "_unique"}


def test_terminals_evaluate_constantly():
    m = BDD(3)
    for bits in ([0, 0, 0], [1, 0, 1], [1, 1, 1]):
        assert m.evaluate(m.true, bits) is True
        assert m.evaluate(m.false, bits) is False


def test_terminals_are_unique():
    m = BDD(2)
    assert m.true.root == m.const(True).root
    assert m.false.root == m.const(False).root
    assert m.true.root != m.false.root


def test_var_semantics():
    m = BDD(3)
    x0 = m.var(0)
    assert m.evaluate(x0, [1, 0, 0]) is True
    assert m.evaluate(x0, [0, 1, 1]) is False


def test_var_node_has_terminal_children():
    m = BDD(3)
    x2 = m.var(2)
    var, low, high = m._nodes[x2.root]
    assert (var, low, high) == (2, m.false.root, m.true.root)


def test_var_out_of_range():
    m = BDD(2)
    with pytest.raises(BddError):
        m.var(2)
    with pytest.raises(BddError):
        m.var(-1)


def test_ite_of_conjunction_and_disjunction_reduces():
    # (x1 and x2) and (x1 or x2) collapses to the diagram of x1 and x2,
    # which is ite(x1, x2, false)
    m = BDD(2)
    g = m.var(0) & m.var(1)
    h = m.var(0) | m.var(1)
    f = m.ite(g, h, m.false)
    assert f.root == g.root
    var, low, high = m._nodes[f.root]
    assert var == 0
    assert low == m.false.root
    assert high == m.var(1).root


def test_ite_identity():
    m = BDD(4)
    rng = random.Random(7)
    for _ in range(20):
        tree = oracles.random_tree(rng, 4, 4)
        f = oracles.tree_fn(tree, m)
        assert m.ite(f, m.true, m.false).root == f.root


def test_ite_matches_truth_table_exhaustively():
    # all f, g over 2 vars; h = not g: ite(f, g, h) == (f&g) | (~f&~g)
    n = 2
    m = BDD(n)
    mask = oracles.table_mask(n)
    fns = {}
    for table in range(mask + 1):
        fn = m.false
        for idx in range(1 << n):
            if (table >> idx) & 1:
                minterm = m.true
                for i in range(n):
                    v = m.var(i)
                    minterm = minterm & (v if (idx >> (n - 1 - i)) & 1 else ~v)
                fn = fn | minterm
        fns[table] = fn
    for ft, f in fns.items():
        for gt, g in fns.items():
            got = m.ite(f, g, ~g)
            want = (ft & gt) | ((mask ^ ft) & (mask ^ gt))
            assert got.root == fns[want].root


def test_conjunction_example_satisfying_set():
    m = BDD(4)
    x = [m.var(i) for i in range(4)]
    at_least_one = x[0] | x[1] | x[2] | x[3]
    first_two_zero = ~x[0] & ~x[1]
    both = at_least_one & first_two_zero
    assert set(m.satisfying(both)) == {(0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 1, 1)}


def test_double_negation_and_contradiction():
    m = BDD(5)
    rng = random.Random(11)
    for _ in range(25):
        f = oracles.tree_fn(oracles.random_tree(rng, 5, 4), m)
        assert (~~f).root == f.root
        assert (f & ~f).root == m.false.root
        assert (f | ~f).root == m.true.root


def test_de_morgan():
    m = BDD(5)
    rng = random.Random(13)
    for _ in range(25):
        f = oracles.tree_fn(oracles.random_tree(rng, 5, 4), m)
        g = oracles.tree_fn(oracles.random_tree(rng, 5, 4), m)
        assert (~(f & g)).root == (~f | ~g).root
        assert (~(f | g)).root == (~f & ~g).root


def test_implies_semantics():
    m = BDD(2)
    f = m.var(0).implies(m.var(1))
    assert m.evaluate(f, [1, 0]) is False
    assert m.evaluate(f, [0, 0]) is True
    assert m.evaluate(f, [1, 1]) is True


def test_restrict_shannon_worked_case():
    m = BDD(2)
    f = m.var(0) & m.var(1)
    assert m.restrict(f, 0, True).root == m.var(1).root
    assert m.restrict(f, 0, False).root == m.false.root


def test_restrict_unmentioned_variable_is_noop():
    m = BDD(4)
    f = m.var(0) & m.var(2)
    assert m.restrict(f, 1, True).root == f.root
    assert m.restrict(f, 3, False).root == f.root


def test_shannon_identity_random_suite():
    n = 6
    m = BDD(n)
    rng = random.Random(17)
    for _ in range(100):
        f = oracles.tree_fn(oracles.random_tree(rng, n, 5), m)
        for v in range(n):
            rebuilt = m.ite(m.var(v), m.restrict(f, v, True), m.restrict(f, v, False))
            assert rebuilt.root == f.root


def test_exists_basics():
    m = BDD(3)
    f = m.var(0) & m.var(1)
    assert f.exists([0]).root == m.var(1).root
    assert f.exists([]).root == f.root
    assert m.true.exists([0, 1, 2]).root == m.true.root


def test_exists_counts_vs_brute_force():
    n = 5
    m = BDD(n)
    rng = random.Random(19)
    for _ in range(60):
        tree = oracles.random_tree(rng, n, 4)
        f = oracles.tree_fn(tree, m)
        table = oracles.tree_table(tree, n)
        v = rng.randrange(n)
        quantified = f.exists([v])
        # oracle: a row satisfies exists(f, v) iff either setting of v does
        rows = set()
        for bits in oracles.table_sat_rows(table, n):
            for b in (0, 1):
                row = list(bits)
                row[v] = b
                rows.add(tuple(row))
        assert set(m.satisfying(quantified)) == rows
        assert quantified.count() >= -(-f.count() // 2)


def test_evaluate_truth_table_fixture():
    # three-variable function fixed by its eight-row table:
    # 000->1 001->0 010->0 011->1 100->0 101->0 110->1 111->1
    rows = {
        (0, 0, 0): 1, (0, 0, 1): 0, (0, 1, 0): 0, (0, 1, 1): 1,
        (1, 0, 0): 0, (1, 0, 1): 0, (1, 1, 0): 1, (1, 1, 1): 1,
    }
    m = BDD(3)
    f = m.false
    for bits, out in rows.items():
        if out:
            minterm = m.true
            for i, b in enumerate(bits):
                v = m.var(i)
                minterm = minterm & (v if b else ~v)
            f = f | minterm
    for bits, out in rows.items():
        assert m.evaluate(f, bits) is bool(out)
    # the walk short-cuts when a prefix decides the outcome
    assert m.evaluate(f, {0: 1, 1: 1}) is True
    with pytest.raises(BddError):
        m.evaluate(f, {0: 0, 1: 1})  # here the third variable is needed


def test_count_basics():
    m = BDD(3)
    assert m.true.count() == 8
    assert m.false.count() == 0
    m4 = BDD(4)
    x = [m4.var(i) for i in range(4)]
    at_least_one = x[0] | x[1] | x[2] | x[3]
    assert at_least_one.count() == 15


def test_count_and_enumeration_walk_no_support(monkeypatch):
    m = BDD(4)
    f = m.var(1) & m.var(3)
    walks = []
    real = BDD.support

    def counting(self, g):
        walks.append(g)
        return real(self, g)

    monkeypatch.setattr(BDD, "support", counting)
    assert f.count() == 4
    assert m.pick(f) == (0, 1, 0, 1)
    assert len(list(m.satisfying(f))) == 4
    assert walks == []


def test_count_random_suite_vs_exhaustive():
    rng = random.Random(23)
    for n in (2, 5, 8, 12):
        m = BDD(n)
        for _ in range(40):
            tree = oracles.random_tree(rng, n, 5)
            f = oracles.tree_fn(tree, m)
            table = oracles.tree_table(tree, n)
            assert f.count() == oracles.table_count(table)


def test_satisfying_lexicographic_and_complete():
    rng = random.Random(29)
    n = 10
    m = BDD(n)
    for _ in range(30):
        tree = oracles.random_tree(rng, n, 5)
        f = oracles.tree_fn(tree, m)
        table = oracles.tree_table(tree, n)
        got = list(m.satisfying(f))
        assert got == sorted(got)
        assert got == sorted(oracles.table_sat_rows(table, n))
        assert len(got) == f.count()


def test_satisfying_false_is_empty():
    m = BDD(3)
    assert list(m.satisfying(m.false)) == []


def test_pick():
    m = BDD(2)
    assert m.pick(m.false) is None
    assert m.pick(m.var(0) & m.var(1)) == (1, 1)
    m4 = BDD(4)
    x = [m4.var(i) for i in range(4)]
    both = (x[0] | x[1] | x[2] | x[3]) & ~x[0] & ~x[1]
    assert m4.pick(both) == (0, 0, 0, 1)


def test_canonicity_random_pairs():
    n = 8
    m = BDD(n)
    rng = random.Random(31)
    for _ in range(300):
        t1 = oracles.random_tree(rng, n, 5)
        t2 = oracles.random_tree(rng, n, 5)
        f1 = oracles.tree_fn(t1, m)
        f2 = oracles.tree_fn(t2, m)
        same_semantics = oracles.tree_table(t1, n) == oracles.tree_table(t2, n)
        assert same_semantics == (f1.root == f2.root)


_N = 6
_trees = st.recursive(
    st.one_of(st.tuples(st.just("var"), st.integers(0, _N - 1)),
              st.tuples(st.just("const"), st.booleans())),
    lambda sub: st.one_of(
        st.tuples(st.just("not"), sub),
        st.tuples(st.sampled_from(("and", "or", "implies", "iff")), sub, sub),
        st.tuples(st.just("ite"), sub, sub, sub)),
    max_leaves=10)


@settings(max_examples=150, deadline=None)
@given(st.lists(_trees, min_size=2, max_size=5))
def test_operators_agree_with_truth_tables(trees):
    # all functions share one manager, so each operator also meets the
    # others' nodes in the unique table; `table` builds the expected roots
    # from the oracle's truth tables without calling any operator
    m = BDD(_N)
    fns = [oracles.tree_fn(t, m) for t in trees]
    tables = [oracles.tree_table(t, _N) for t in trees]
    mask = oracles.table_mask(_N)

    def expected(table):
        return m.table(range(_N), [table >> i & 1 for i in range(1 << _N)]).root

    for f, tf in zip(fns, tables):
        assert (~f).root == expected(mask ^ tf)
        # every ordered pair, so each operator sees both operand orders
        for g, tg in zip(fns, tables):
            assert (f & g).root == expected(tf & tg)
            assert (f | g).root == expected(tf | tg)
            assert f.implies(g).root == expected(mask ^ tf | tg)
            assert f.iff(g).root == expected(mask ^ (tf ^ tg))
            for h, th in zip(fns, tables):
                assert m.ite(f, g, h).root == expected(tf & tg | (mask ^ tf) & th)
            nodes = len(m)
            assert f.intersects(g) == bool(tf & tg)
            assert len(m) == nodes  # intersects builds nothing


@settings(max_examples=150, deadline=None)
@given(_trees, st.lists(st.sets(st.integers(0, _N - 1)), min_size=1, max_size=8))
def test_projections_agree_with_exists_and_truth_table(tree, kept_sets):
    # all sets share one memo inside `projections`, and `exists` is its one-set case
    m = BDD(_N)
    f = oracles.tree_fn(tree, m)
    rows = oracles.table_sat_rows(oracles.tree_table(tree, _N), _N)
    projected = m.projections(f, kept_sets)
    assert len(projected) == len(kept_sets)
    for kept, p in zip(kept_sets, projected):
        kept = sorted(kept)
        assert p.root == f.exists(v for v in range(_N) if v not in kept).root
        # a row satisfies the projection iff some row of f agrees on `kept`
        seen = {tuple(row[v] for v in kept) for row in rows}
        for bits in itertools.product((0, 1), repeat=_N):
            assert m.evaluate(p, bits) == (tuple(bits[v] for v in kept) in seen)


def test_projections_check_their_variables():
    m = BDD(3)
    with pytest.raises(BddError):
        m.projections(m.var(0), [[0], [3]])
    assert m.projections(m.var(0), []) == []
    assert [p.root for p in m.projections(m.var(0), [[], [1]])] == [1, 1]
    assert m.projections(m.false, [[], [0, 1, 2]])[1].is_false


def _shifted(tree, k):
    """The tree with every variable index moved up by k."""
    if tree[0] == "var":
        return ("var", tree[1] + k)
    if tree[0] == "const":
        return tree
    return (tree[0], *(_shifted(sub, k) for sub in tree[1:]))


# a random function over 4 variables placed at offset 0..4 of an 8-variable
# manager, so cofactored variables fall above, inside and below its support
_placed_trees = st.builds(
    lambda seed, k: _shifted(oracles.random_tree(random.Random(seed), 4, 4), k),
    st.integers(0, 2**32 - 1), st.integers(0, 4))


@settings(max_examples=200, deadline=None)
@given(_placed_trees, st.dictionaries(st.integers(0, 7), st.integers(0, 1), max_size=5))
def test_cube_cofactor_equals_sequential_restricts(tree, cube):
    m = BDD(8)
    f = oracles.tree_fn(tree, m)
    support, nodes = f.support(), len(m)
    g = m.cofactor(f, cube)
    if all(v in cube for v in support if v <= max(cube, default=-1)):
        assert len(m) == nodes  # a cube over the top of f is followed along edges
    assert set(vars(m)) == MANAGER_STATE  # memos live for one call
    expected = f
    for var, bit in cube.items():
        expected = m.restrict(expected, var, bit)
    assert g.root == expected.root
    # and it agrees with the truth table on every row that matches the cube
    table = oracles.tree_table(tree, 8)
    for row in range(256):
        bits = [(row >> (7 - v)) & 1 for v in range(8)]  # variable 0 is the MSB
        if all(bits[v] == b for v, b in cube.items()):
            assert m.evaluate(g, bits) == bool(table >> row & 1)


def test_cofactor_checks_its_variables():
    m = BDD(3)
    f = m.var(0) & m.var(2)
    assert m.cofactor(f, {}).root == f.root
    assert m.cofactor(f, {0: 0}).root == m.false.root
    assert m.cofactor(f, {0: 1}).root == m.var(2).root
    with pytest.raises(BddError):
        m.cofactor(f, {3: 1})
    with pytest.raises(BddError):
        m.cofactor(f, {0: 1, -1: 0})
    with pytest.raises(BddError):
        m.cofactor(BDD(3).var(0), {0: 1})


def _literal_table(m, variables, rows):
    """`BDD.table` built literal by literal: an OR of one minterm per true row."""
    fn = m.false
    for pattern, row in enumerate(rows):
        if row:
            term = m.true
            for i, var in enumerate(variables):
                bit = pattern >> (len(variables) - 1 - i) & 1
                term = term & (m.var(var) if bit else ~m.var(var))
            fn = fn | term
    return fn


def test_table_equals_literal_construction():
    rng = random.Random(53)
    for width in range(5):
        for _ in range(20):
            m = BDD(6)
            variables = sorted(rng.sample(range(6), width))
            rows = [rng.random() < 0.5 for _ in range(1 << width)]
            got = m.table(variables, rows)
            assert got.root == _literal_table(m, variables, rows).root
            # cofactoring on each pattern's cube gives its row back
            for pattern, row in enumerate(rows):
                cube = {var: pattern >> (width - 1 - i) & 1
                        for i, var in enumerate(variables)}
                assert m.cofactor(got, cube).root == m.const(row).root
            for bits in itertools.product((0, 1), repeat=6):
                pattern = 0
                for var in variables:
                    pattern = pattern << 1 | bits[var]
                assert m.evaluate(got, bits) == rows[pattern]


def test_table_checks_its_arguments():
    m = BDD(3)
    assert m.table([], [True]) == m.true and m.table([], [0]).is_false
    with pytest.raises(BddError, match="needs 4 rows, got 3"):
        m.table([0, 1], [True] * 3)
    with pytest.raises(BddError, match="needs 1 rows, got 2"):
        m.table([], [True, False])
    for variables in ([2, 3], [-1, 0]):
        with pytest.raises(BddError, match="out of range"):
            m.table(variables, [True] * 4)
    for variables in ([1, 0], [1, 1]):
        with pytest.raises(BddError, match="must ascend"):
            m.table(variables, [True] * 4)


@settings(max_examples=200, deadline=None)
@given(_placed_trees, st.sampled_from([0, 1, 2, 63, 64, 65, 200]),
       st.integers(0, 2**32 - 1), st.booleans())
def test_select_equals_evaluate_row_by_row(tree, count, seed, sparse):
    # the function's 4 variables sit at offset 0..4 of 8, so the DAG skips
    # some; with `sparse`, only the variables it mentions get a column
    m = BDD(8)
    f = oracles.tree_fn(tree, m)
    rng = random.Random(seed)
    rows = [[rng.randrange(2) for _ in range(8)] for _ in range(count)]
    everything = (1 << count) - 1
    columns = [sum(row[var] << i for i, row in enumerate(rows)) for var in range(8)]
    if sparse:
        columns = {var: columns[var] for var in f.support()}
    nodes = len(m)
    assert m.select(f, columns, everything) == sum(
        m.evaluate(f, row) << i for i, row in enumerate(rows))
    assert m.select(m.true, {}, everything) == everything
    assert m.select(m.false, columns, everything) == 0
    assert len(m) == nodes  # builds nothing


def test_select_checks_its_arguments():
    m, other = BDD(3), BDD(3)
    f = m.var(0) & m.var(2)
    with pytest.raises(BddError, match="no column for variable 2"):
        m.select(f, {0: 1}, 1)
    with pytest.raises(BddError, match="no column for variable 2"):
        m.select(f, [1, 1], 1)
    with pytest.raises(BddError):
        m.select(other.var(0), [1, 1, 1], 1)


def test_store_invariants_after_random_operations():
    n = 7
    m = BDD(n)
    rng = random.Random(37)
    fns = [oracles.tree_fn(oracles.random_tree(rng, n, 5), m) for _ in range(50)]
    for f in fns[:10]:
        f.exists([0, 3])
        m.restrict(f, 2, True)
    seen = set()
    for root, (var, low, high) in enumerate(m._nodes):
        if root <= 1:
            continue
        assert low != high, "reduction violated"
        assert (var, low, high) not in seen, "duplicate node stored"
        seen.add((var, low, high))
        assert m._nodes[low][0] > var, "ordering violated on 0-edge"
        assert m._nodes[high][0] > var, "ordering violated on 1-edge"


def test_cross_manager_operands_rejected():
    a, b = BDD(2), BDD(2)
    with pytest.raises(BddError):
        a.var(0) & b.var(0)
    with pytest.raises(BddError):
        a.ite(a.var(0), a.var(1), b.var(1))


def test_support():
    m = BDD(5)
    f = m.var(1) & (m.var(3) | m.var(4))
    assert f.support() == {1, 3, 4}
    assert m.true.support() == set()


def test_dump_lists_reachable_nodes():
    m = BDD(2)
    f = m.var(0) & m.var(1)
    lines = m.dump(f).splitlines()
    assert "0 const 0" in lines
    assert "1 const 1" in lines
    assert any(line.startswith(f"{f.root} x0 ") for line in lines)
    ids = [int(line.split()[0]) for line in lines]
    assert ids == sorted(ids) and len(ids) == 4
    assert m.dump(m.true) == "1 const 1"
    assert m.dump(m.false) == "0 const 0"


def test_manager_keeps_only_its_nodes():
    # &, |, ~ and ite build f, implies and iff build g
    x = [("var", i) for i in range(6)]
    tree = ("or", ("or", ("and", x[0], x[3]), ("and", x[1], ("not", x[4]))),
            ("ite", x[2], x[5], x[0]))
    m = BDD(6)
    f = oracles.tree_fn(tree, m)
    g = oracles.tree_fn(("iff", ("implies", tree, x[1]), ("or", x[2], x[3])), m)
    f.exists([1, 2])
    m.projections(g, [[0], [1, 4], [2, 3, 5]])
    m.cofactor(f, {0: 1, 4: 0})
    m.cofactor(g, {1: 0, 2: 1})
    assert f.count() == oracles.table_count(oracles.tree_table(tree, 6))
    f.support()
    m.select(g, [0b01, 0b10, 0b11, 0, 0b01, 0b10], 0b11)
    assert set(vars(m)) == MANAGER_STATE
    # a count after the store grew reads the new nodes as well
    h = oracles.tree_fn(("and", tree, x[5]), m)
    assert h.count() == oracles.table_count(oracles.tree_table(("and", tree, x[5]), 6))
