"""Independent brute-force oracles used by the tests.

Nothing here but `conjunction` touches the symbolic engine: Boolean
formulas are evaluated as integer truth tables, and model-level counts come
from enumerating the full Cartesian product with plain Python predicates.
"""

import collections
import functools
import itertools
import operator
import random


# ----------------------------------------------------------------------
# Boolean formula trees evaluated as truth-table bitmasks.
# A tree is nested tuples: ('var', i), ('const', b), ('not', t),
# ('and'|'or'|'implies'|'iff', l, r), ('ite', c, t, e).

def table_mask(n):
    return (1 << (1 << n)) - 1


def var_table(i, n):
    """Truth table of variable i over n variables, assignment index =
    big-endian bit vector (variable 0 is the most significant bit)."""
    table = 0
    for idx in range(1 << n):
        if (idx >> (n - 1 - i)) & 1:
            table |= 1 << idx
    return table


def tree_table(tree, n):
    mask = table_mask(n)
    op = tree[0]
    if op == "var":
        return var_table(tree[1], n)
    if op == "const":
        return mask if tree[1] else 0
    if op == "not":
        return mask ^ tree_table(tree[1], n)
    left = tree_table(tree[1], n)
    right = tree_table(tree[2], n)
    if op == "and":
        return left & right
    if op == "or":
        return left | right
    if op == "implies":
        return (mask ^ left) | right
    if op == "iff":
        return mask ^ (left ^ right)
    if op == "ite":
        return (left & right) | ((mask ^ left) & tree_table(tree[3], n))
    raise ValueError(op)


def tree_fn(tree, manager):
    """Fold the same tree into an engine function."""
    op = tree[0]
    if op == "var":
        return manager.var(tree[1])
    if op == "const":
        return manager.const(tree[1])
    if op == "not":
        return ~tree_fn(tree[1], manager)
    left = tree_fn(tree[1], manager)
    right = tree_fn(tree[2], manager)
    if op == "and":
        return left & right
    if op == "or":
        return left | right
    if op == "implies":
        return left.implies(right)
    if op == "iff":
        return left.iff(right)
    if op == "ite":
        return (left & right) | (~left & tree_fn(tree[3], manager))
    raise ValueError(op)


def random_tree(rng: random.Random, n: int, depth: int):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.08:
            return ("const", rng.random() < 0.5)
        return ("var", rng.randrange(n))
    op = rng.choice(("and", "or", "not", "implies", "iff", "ite"))
    if op == "not":
        return ("not", random_tree(rng, n, depth - 1))
    if op == "ite":
        return ("ite", random_tree(rng, n, depth - 1),
                random_tree(rng, n, depth - 1), random_tree(rng, n, depth - 1))
    return (op, random_tree(rng, n, depth - 1), random_tree(rng, n, depth - 1))


def table_count(table):
    return bin(table).count("1")


def table_sat_rows(table, n):
    """Bit vectors (tuples) whose assignment satisfies the table."""
    return [tuple((idx >> (n - 1 - i)) & 1 for i in range(n))
            for idx in range(1 << n) if (table >> idx) & 1]


# ----------------------------------------------------------------------
# model-level brute force

def all_tuples(model):
    """Every full assignment of the model as a dict, Cartesian order."""
    names = [a.name for a in model.attributes]
    domains = [[v.label for v in a.values] for a in model.attributes]
    for combo in itertools.product(*domains):
        yield dict(zip(names, combo))


def legal_tuples(model, pred=None):
    return [t for t in all_tuples(model) if pred is None or pred(t)]


def conjunction(space, factors=None):
    """The AND of a space's factors (`ModelSpace.factors`, or a copy that
    `project` returned): the one function of the legal space that the
    library never builds, for tests to compare against."""
    factors = space.factors if factors is None else factors
    return functools.reduce(operator.and_, factors.values(), space.manager.true)


def t_tuples_of(test, names, t):
    for subset in itertools.combinations(names, t):
        yield tuple((a, test[a]) for a in subset)


def covered_t_tuples(tests, names, t):
    out = set()
    for test in tests:
        out.update(t_tuples_of(test, names, t))
    return out


def feasible_t_tuples(model, t, pred=None):
    """All t-way value tuples appearing in some legal full assignment."""
    names = [a.name for a in model.attributes]
    return covered_t_tuples(legal_tuples(model, pred), names, t)


# ----------------------------------------------------------------------
# independent evaluator for constraint ASTs

def eval_expr(expr, assignment):
    from ctdkit import constraints as c
    if isinstance(expr, c.Equals):
        return assignment[expr.attr] == expr.value
    if isinstance(expr, c.NotEquals):
        return assignment[expr.attr] != expr.value
    if isinstance(expr, c.In):
        return assignment[expr.attr] in expr.values
    if isinstance(expr, c.Not):
        return not eval_expr(expr.child, assignment)
    if isinstance(expr, c.And):
        return all(eval_expr(x, assignment) for x in expr.children)
    if isinstance(expr, c.Or):
        return any(eval_expr(x, assignment) for x in expr.children)
    if isinstance(expr, c.Implies):
        return (not eval_expr(expr.lhs, assignment)) or eval_expr(expr.rhs, assignment)
    if isinstance(expr, c.Iff):
        return eval_expr(expr.lhs, assignment) == eval_expr(expr.rhs, assignment)
    if isinstance(expr, c.BoolLit):
        return expr.value
    raise TypeError(expr)


def named_attributes(expr):
    """The attributes a constraint AST names, whether or not it depends on
    them."""
    from ctdkit import constraints as c
    if isinstance(expr, (c.Equals, c.NotEquals, c.In)):
        return {expr.attr}
    if isinstance(expr, c.Not):
        return named_attributes(expr.child)
    if isinstance(expr, (c.And, c.Or)):
        return set().union(*map(named_attributes, expr.children))
    if isinstance(expr, (c.Implies, c.Iff)):
        return named_attributes(expr.lhs) | named_attributes(expr.rhs)
    return set()


def constraint_predicate(model):
    """Plain-Python legality test for the model's constraint strings."""
    from ctdkit import constraints as c
    exprs = [c.typecheck(c.parse(source), model) for source in model.constraints]
    return lambda test: all(eval_expr(e, test) for e in exprs)


def redundant_constraints(model):
    """Indices of the constraints that eliminate nothing: the tuples that
    satisfy every other constraint are exactly the legal ones."""
    from ctdkit import constraints as c
    exprs = [c.typecheck(c.parse(source), model) for source in model.constraints]
    tuples = list(all_tuples(model))

    def legal_without(skip):
        return [x for x in tuples
                if all(eval_expr(e, x) for j, e in enumerate(exprs) if j != skip)]

    legal = legal_without(None)
    return [i for i in range(len(exprs)) if legal_without(i) == legal]


# ----------------------------------------------------------------------
# reference requirements and greedy, over brute-force legal tuples

def requirement_tuples(model, t):
    """Requirement binding tuples in the library's order: t-subsets
    lexicographically, value tuples in value-index order, then directives
    sorted into declaration order, duplicates dropped."""
    out = []
    for subset in itertools.combinations(model.attributes, t):
        for combo in itertools.product(*(a.labels for a in subset)):
            out.append(tuple((a.name, v) for a, v in zip(subset, combo)))
    position = {a.name: i for i, a in enumerate(model.attributes)}
    for directive in model.directives:
        out.append(tuple(sorted(directive, key=lambda b: position[b[0]])))
    return list(dict.fromkeys(out))


def _matches(test, bindings):
    return all(test.get(a) == v for a, v in bindings)


def feasible_requirement_tuples(model, t, legal):
    """The requirements (directives included) some legal tuple holds."""
    return [r for r in requirement_tuples(model, t)
            if any(_matches(x, r) for x in legal)]


def feasible_requirements_by_search(model, t):
    """`feasible_requirement_tuples` for models too large to list their
    legal tuples.  Each requirement is extended by a depth-first search
    that binds the requirement's attributes first and then the others in
    declaration order, and checks each constraint as soon as every
    attribute it names is bound."""
    from ctdkit import constraints as c
    exprs = [c.typecheck(c.parse(source), model) for source in model.constraints]
    named = [named_attributes(e) for e in exprs]
    labels = {a.name: a.labels for a in model.attributes}

    def extends(requirement):
        test = dict(requirement)
        order = list(test) + [a for a in labels if a not in test]
        rank = {a: i for i, a in enumerate(order)}
        checks = [[] for _ in range(len(order) + 1)]  # by rank + 1
        for e, names in zip(exprs, named):
            checks[max(map(rank.get, names), default=-1) + 1].append(e)

        def search(i):
            if not all(eval_expr(e, test) for e in checks[i]):
                return False
            if i == len(order):
                return True
            if i < len(requirement):  # bound by the requirement
                return search(i + 1)
            for label in labels[order[i]]:
                test[order[i]] = label
                if search(i + 1):
                    return True
            del test[order[i]]
            return False
        return search(0)

    return [r for r in requirement_tuples(model, t) if extends(r)]


def reference_greedy(model, t, legal, budget=None, seed=0, randomize_ties=False,
                     already_covered=()):
    """The greedy plan by definition: seed each test with the first
    uncovered feasible requirement, bind the other attributes in
    declaration order, keep a value only if some legal tuple extends the
    partial test, and score it by scanning every uncovered requirement for
    those it completes, then for those that hold it.  Then walk the tests
    backwards and drop each one whose every requirement another remaining
    test holds.  The requirement tuples in `already_covered` start
    covered."""
    rng = random.Random(seed)
    pending = [r for r in feasible_requirement_tuples(model, t, legal)
               if r not in already_covered]
    uncovered = dict.fromkeys(pending)
    tests = []
    while uncovered and (budget is None or len(tests) < budget):
        partial = dict(next(iter(uncovered)))
        consistent = [x for x in legal if _matches(x, partial.items())]
        for attr in model.attributes:
            if attr.name in partial:
                continue
            best, best_key = [], (-1, -1)
            for label in attr.labels:
                if not any(x[attr.name] == label for x in consistent):
                    continue
                bound = {**partial, attr.name: label}
                completed = sum(1 for r in uncovered
                                if any(a == attr.name for a, _ in r)
                                and all(a in bound and bound[a] == v for a, v in r))
                holding = sum(1 for r in uncovered if (attr.name, label) in r)
                key = (completed, holding)
                if key > best_key:
                    best, best_key = [label], key
                elif key == best_key:
                    best.append(label)
            label = best[0] if not randomize_ties else rng.choice(best)
            partial[attr.name] = label
            consistent = [x for x in consistent if x[attr.name] == label]
        tests.append(partial)
        for r in [r for r in uncovered if _matches(partial, r)]:
            del uncovered[r]
    for i in reversed(range(len(tests))):
        others = tests[:i] + tests[i + 1:]
        if all(any(_matches(x, r) for x in others)
               for r in pending if _matches(tests[i], r)):
            del tests[i]
    return tests


class SearchBudgetExceeded(Exception):
    """An exact search ran out of nodes before it proved an optimum."""


def exact_minimum(model, t, pred=None, node_budget=100_000):
    """A smallest list of legal tests covering every feasible t-tuple, and
    the search nodes spent proving it, by depth-first set cover.

    Each legal test is the bitmask of the feasible t-tuples it holds.  For
    k = the largest count of feasible t-tuples on one attribute subset (no
    plan is smaller), then k + 1, ..., the search looks for k tests: it
    branches on the uncovered t-tuple that the fewest tests hold, trying
    each of them, and prunes a node when the uncovered t-tuples, shared out
    at the best gain any one test still offers, need more tests than are
    left.  Raises SearchBudgetExceeded past `node_budget` nodes, so a
    search cut short never passes for a proof."""
    names = [a.name for a in model.attributes]
    legal = legal_tuples(model, pred)
    feasible = sorted(covered_t_tuples(legal, names, t))
    bit = {r: 1 << i for i, r in enumerate(feasible)}
    masks = [sum(bit[r] for r in t_tuples_of(test, names, t)) for test in legal]
    holders = {b: [i for i, m in enumerate(masks) if m & b] for b in bit.values()}
    scarcest = sorted(holders, key=lambda b: len(holders[b]))
    nodes = 0

    def search(uncovered, left):
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise SearchBudgetExceeded(f"no optimum proved in {node_budget} nodes")
        if not uncovered:
            return []
        gain = max((m & uncovered).bit_count() for m in masks)
        if -(-uncovered.bit_count() // gain) > left:
            return None
        pivot = next(b for b in scarcest if b & uncovered)
        for i in holders[pivot]:
            rest = search(uncovered & ~masks[i], left - 1)
            if rest is not None:
                return [legal[i]] + rest
        return None

    per_subset = collections.Counter(tuple(a for a, _ in r) for r in feasible)
    k = max(per_subset.values(), default=0)
    while (plan := search(sum(bit.values()), k)) is None:
        k += 1
    return plan, nodes


def chain_document(k, v):
    """Model document of the chain family: k attributes A0.. of v values
    v0.., and `Ai = v0 -> Ai+1 != v1` for every even i."""
    names = [f"A{i}" for i in range(k)]
    return {
        "attributes": [{"name": n, "values": [f"v{j}" for j in range(v)]}
                       for n in names],
        "constraints": [f"{names[i]} = v0 -> {names[i + 1]} != v1"
                        for i in range(0, k - 1, 2)],
    }


def linked_document(k, v, d):
    """Model document of the linked family: k attributes P0.. of v values
    r0.., and `Pi IN {S} -> Pi+d IN {T}` with S the values i and i+1 and T
    the v // 2 values from i+2 on (mod v).  Each component's attributes lie
    d apart in declaration order."""
    def members(values):
        return ", ".join(f"r{x}" for x in sorted(values))
    return {
        "attributes": [{"name": f"P{i}", "values": [f"r{x}" for x in range(v)]}
                       for i in range(k)],
        "constraints": [
            f"P{i} IN {{{members({i % v, (i + 1) % v})}}} -> "
            f"P{i + d} IN {{{members({(i + 2 + x) % v for x in range(v // 2)})}}}"
            for i in range(k - d)],
    }


def iff_document(h):
    """Model document of 2h three-valued attributes A0.. under
    `Ai = a <-> Ai+h = b`, whose linked pairs are far apart in declaration
    order, so the picked block order interleaves them."""
    return {"attributes": [{"name": f"A{i}", "values": ["a", "b", "c"]}
                           for i in range(2 * h)],
            "constraints": [f"A{i} = a <-> A{i + h} = b" for i in range(h)]}


def zigzag_document(h):
    """Model document of 2h three-valued attributes A0.. under
    `Ai = v0 <-> Ai+h = v1` and `Ai+h = v2 <-> Ai+1 = v1`: one component,
    a path A0, Ah, A1, Ah+1, ... whose neighbours lie h apart in
    declaration order, so the picked block order puts them side by side."""
    return {"attributes": [{"name": f"A{i}", "values": ["v0", "v1", "v2"]}
                           for i in range(2 * h)],
            "constraints": [f"A{i} = v0 <-> A{i + h} = v1" for i in range(h)]
            + [f"A{i + h} = v2 <-> A{i + 1} = v1" for i in range(h - 1)]}


def deep_documents():
    """Model documents over twelve binary attributes A0..A11 (values a, b),
    each with one constraint nested far past the interpreter's recursion
    limit, and their legal-test counts from truth tables folded in a loop."""
    n, mask = 12, table_mask(12)
    is_a = [mask ^ var_table(i, n) for i in range(n)]
    # 2,000 "<->" terms, every fifth negated: A0..A7 occur an odd number of
    # times, so the chain is a parity over them
    terms = [(i % n, i % 5 == 0) for i in range(2000)]
    truth = [is_a[attr] ^ (mask if negated else 0) for attr, negated in terms]
    iff = truth[0]
    for table in truth[1:]:
        iff = mask ^ iff ^ table
    # 2,000 "->" terms: antecedents that hold together on A0..A10, and a
    # consequent on A11, so the chain excludes exactly one test
    implied = is_a[11]
    for i in reversed(range(1999)):
        implied = (mask ^ is_a[i % 11]) | implied
    nots = is_a[0]
    for _ in range(1201):
        nots ^= mask
    sources = {
        "parentheses": ("(" * 1000 + "A0 = a" + ")" * 1000, is_a[0]),
        "negations": ("NOT " * 1201 + "A0 = a", nots),
        "iff": (" <-> ".join(f"A{attr} {'!=' if negated else '='} a"
                            for attr, negated in terms), iff),
        "implies": (" -> ".join([f"A{i % 11} = a" for i in range(1999)] + ["A11 = a"]),
                    implied),
    }
    attributes = [{"name": f"A{i}", "values": ["a", "b"]} for i in range(n)]
    return {shape: ({"attributes": attributes, "constraints": [source]}, table_count(table))
            for shape, (source, table) in sources.items()}


# ----------------------------------------------------------------------
# concrete plans drawn with randrange

def concrete_rows(model, tests, free, seed):
    """`instantiate` then `randomize_free`, by brute force: each walks the
    rows in order with its own `random.Random(seed)`, drawing a ranged cell
    (the first value of its label) or a free column (name, lo, hi) by
    `randrange(lo, hi)`."""
    rng = random.Random(seed)
    rows = []
    for test in tests:
        row = {}
        for attr in model.attributes:
            value = next(v for v in attr.values if v.label == test[attr.name])
            row[attr.name] = (value.label if value.range is None
                              else str(rng.randrange(*value.range)))
        rows.append(row)
    rng = random.Random(seed)
    for row in rows:
        for name, lo, hi in free:
            row[name] = str(rng.randrange(lo, hi))
    return rows
