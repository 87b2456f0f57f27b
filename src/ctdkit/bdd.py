"""Reduced ordered binary decision diagrams.

A `BDD` manager owns a shared DAG of nodes over a fixed number of Boolean
variables, ordered by their integer index (terminals order last).  Nodes
live in an append-only store and are hash-consed through a unique table,
so two semantically equal functions built in the same manager always have
the same rootid.  `Function` is a thin handle (manager, root) with the
usual operator overloads.

The manager keeps only its nodes.  Every kernel memoizes in a dict that
lives for one call of its public entry point, so no table outlives the
operation that filled it; hash-consing still makes equal results the same
node across calls.  Every two-operand operator goes through one kernel,
`_apply` (Bryant 1986): it takes the operator as a 4-bit truth table
(`AND`, `OR`, `IMPLIES`, `IFF`, `LESS`), recurses on the lowest-ordered
variable of its operands, and memoizes under `(op, f, g)`, with the
operands of a symmetric operator in order.  `&`, `|`, `implies`, `iff`
and negation (`IFF` with false) are one call each; there are no
complemented edges.  `ite(f, g, h)` is derived: `(f & g) | (~f & h)`.
`exists` is the one-set case of `projections`, which memoizes by node and
kept-variable mask in one dict for all its sets and hands it to the ORs it
builds.  `_intersects` decides whether `f & g` is satisfiable without
building it.  `cofactor` fixes the variables of a cube
(a `{var: bit}` dict) in one pass, walking straight down while the root
tests a bound variable; `restrict` is a one-variable cube.  `cofactors`
splits f over a block of variables into one cofactor per bit pattern,
following edges where the block is at the top of f; `table`, its dual,
builds a function over a block from one truth value per pattern.
`count`, `support`, `select` and `dump` make one bottom-up pass over f's
reachable nodes in ascending id (`_reachable`); `select` decides which of
many rows f accepts, with one bitset of rows per variable.  Those walks
and enumeration use an explicit stack, so their depth is not bounded by
the interpreter's recursion limit; `_apply`, `cofactor` and `exists`
still recurse, one frame per variable level.

A manager and its handles are confined to one thread of control at a time;
distinct managers are independent.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import BddError

# terminal root ids, shared by every manager
FALSE = 0
TRUE = 1

# two-operand truth tables for `BDD._apply`: bit 2a+b holds op(a, b)
AND = 0b1000
OR = 0b1110
IMPLIES = 0b1011
IFF = 0b1001
LESS = 0b0010  # not a, and b
_SYMMETRIC = (AND, OR, IFF)


class BDD:
    """Shared ROBDD store over variables 0 .. var_count-1."""

    def __init__(self, var_count: int):
        if var_count < 0:
            raise BddError(f"variable count must be >= 0, got {var_count}")
        self.var_count = var_count
        self._all_vars = (1 << var_count) - 1  # bit mask of every variable
        # node store: root id -> (var, low, high); ids 0/1 are the terminals,
        # kept at pseudo-level `var_count` so every edge goes strictly down
        self._nodes: list[tuple[int, int, int]] = [
            (var_count, FALSE, FALSE),
            (var_count, TRUE, TRUE),
        ]
        self._unique: dict[tuple[int, int, int], int] = {}

    # ------------------------------------------------------------------
    # construction

    @property
    def false(self) -> "Function":
        return Function(self, FALSE)

    @property
    def true(self) -> "Function":
        return Function(self, TRUE)

    def const(self, value: bool) -> "Function":
        return self.true if value else self.false

    def var(self, index: int) -> "Function":
        """Projection onto variable `index`."""
        self._check_var(index)
        return Function(self, self._node(index, FALSE, TRUE))

    def table(self, variables, rows) -> "Function":
        """The function over an ascending run of variables that is true on
        exactly the bit patterns whose row is true, one row per pattern,
        big-endian as in `cofactors` (its dual).  Built from the last variable
        up, pairing the table's halves into hash-consed nodes; no apply call."""
        variables = list(variables)
        for var in variables:
            self._check_var(var)
        if any(a >= b for a, b in zip(variables, variables[1:])):
            raise BddError(f"table variables must ascend, got {variables}")
        roots = [TRUE if row else FALSE for row in rows]
        if len(roots) != 1 << len(variables):
            raise BddError(f"table over {len(variables)} variables needs "
                           f"{1 << len(variables)} rows, got {len(roots)}")
        for var in reversed(variables):
            roots = [self._node(var, low, high)
                     for low, high in zip(roots[::2], roots[1::2])]
        return Function(self, roots[0])

    def _check_var(self, index: int) -> None:
        if not 0 <= index < self.var_count:
            raise BddError(
                f"variable index {index} out of range (manager has {self.var_count})")

    def _node(self, var: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (var, low, high)
        found = self._unique.get(key)
        if found is not None:
            return found
        root = len(self._nodes)
        self._nodes.append(key)
        self._unique[key] = root
        return root

    def _var_of(self, root: int) -> int:
        return self._nodes[root][0]

    # ------------------------------------------------------------------
    # apply

    def ite(self, f: "Function", g: "Function", h: "Function") -> "Function":
        """If f then g else h: `(f & g) | (~f & h)`, three applies sharing
        one memo."""
        self._check_same_manager(f, g, h)
        memo = {}
        return Function(self, self._apply(
            OR, self._apply(AND, f.root, g.root, memo),
            self._apply(LESS, f.root, h.root, memo), memo))

    def _apply(self, op: int, f: int, g: int, memo: dict) -> int:
        """op(f, g) for a two-operand truth table `op` (Bryant 1986): recurse
        on the lowest variable of f and g, memoized under `(op, f, g)`."""
        if f > g and op in _SYMMETRIC:
            f, g = g, f  # commuting operands share memo entries
        if f <= TRUE:
            if g <= TRUE:
                return op >> 2 * f + g & 1
            # op(f, 0) and op(f, 1): a constant, g, or ~g, which recurses
            row = op >> 2 * f & 3
            if row == 2:
                return g
            if row != 1:
                return row & 1
        elif g <= TRUE:
            column = op >> g & 1 | op >> g + 1 & 2  # op(0, g) and op(1, g)
            if column == 2:
                return f
            if column != 1:
                return column & 1
        elif f == g:
            diagonal = op & 1 | op >> 2 & 2  # op(0, 0) and op(1, 1)
            if diagonal == 2:
                return f
            if diagonal != 1:
                return diagonal & 1
        key = (op, f, g)
        found = memo.get(key)
        if found is not None:
            return found
        # terminals sit at level var_count, below every variable, so they
        # cofactor to themselves
        fv, f0, f1 = self._nodes[f]
        gv, g0, g1 = self._nodes[g]
        if fv < gv:
            g0 = g1 = g
        elif gv < fv:
            fv, f0, f1 = gv, f, f
        result = memo[key] = self._node(
            fv, self._apply(op, f0, g0, memo), self._apply(op, f1, g1, memo))
        return result

    def _intersects(self, f: int, g: int) -> bool:
        """True when f & g is satisfiable, decided without building it.

        A depth-first walk over pairs of nodes that stops at the first
        satisfying path.  A pair seen before is skipped: it is either still
        on the stack or was found disjoint.  Creates no nodes.
        """
        seen: set[tuple[int, int]] = set()
        todo = [(f, g)]
        while todo:
            f, g = todo.pop()
            if f == FALSE or g == FALSE:
                continue
            if f == TRUE or g == TRUE or f == g:
                return True  # every node other than FALSE is satisfiable
            if f > g:
                f, g = g, f
            if (f, g) in seen:
                continue
            seen.add((f, g))
            fv, f0, f1 = self._nodes[f]
            gv, g0, g1 = self._nodes[g]
            if fv < gv:
                g0 = g1 = g
            elif gv < fv:
                f0 = f1 = f
            todo.append((f1, g1))
            todo.append((f0, g0))
        return False

    def _check_same_manager(self, *fns: "Function") -> None:
        for fn in fns:
            if fn.manager is not self:
                raise BddError("operands were built by different managers")

    # ------------------------------------------------------------------
    # cofactors and quantification

    def restrict(self, f: "Function", var: int, value: bool) -> "Function":
        """Cofactor of f with `var` fixed to `value`."""
        return self.cofactor(f, {var: value})

    def cofactor(self, f: "Function", cube: dict[int, int]) -> "Function":
        """Cofactor of f with each variable of `cube` fixed to its bit."""
        self._check_same_manager(f)
        for var in cube:
            self._check_var(var)
        if not cube:
            return f
        return Function(self, self._cofactor(f.root, cube, max(cube), {}))

    def cofactors(self, f: "Function", variables) -> list["Function"]:
        """The 2**w cofactors of f over w variables, one per bit pattern,
        big-endian in the order given (the first variable is the most
        significant bit).

        The roots are split one variable at a time.  A root that tests the
        variable splits into its children and one below it stays whole, so
        a block at the top of f is split by following edges, creating no
        nodes; only a root above the variable is cofactored.
        """
        self._check_same_manager(f)
        nodes, roots = self._nodes, [f.root]
        for var in variables:
            self._check_var(var)
            cubes, memos = ({var: 0}, {var: 1}), ({}, {})
            split = []
            for root in roots:
                v, low, high = nodes[root]
                if v < var:
                    low = self._cofactor(root, cubes[0], var, memos[0])
                    high = self._cofactor(root, cubes[1], var, memos[1])
                elif v > var:
                    low = high = root
                split += (low, high)
            roots = split
        return [Function(self, root) for root in roots]

    def _cofactor(self, root: int, cube: dict, last: int, memo: dict) -> int:
        # `last` is the deepest variable of `cube`; `memo` maps a node to
        # its cofactor by this cube, for one call.  While the root tests a
        # bound variable, take the edge its bit selects.
        nodes = self._nodes
        var, low, high = nodes[root]
        while var in cube:
            root = high if cube[var] else low
            var, low, high = nodes[root]
        if var > last:
            return root  # nothing left to fix (terminals included)
        found = memo.get(root)
        if found is None:
            found = memo[root] = self._node(
                var, self._cofactor(low, cube, last, memo),
                self._cofactor(high, cube, last, memo))
        return found

    def exists(self, f: "Function", variables: Iterable[int]) -> "Function":
        """Existential quantification over `variables`: the one-set case of
        `projections`."""
        return self._project(f, [self._all_vars & ~self._mask(variables)])[0]

    def projections(self, f: "Function", kept_sets) -> list["Function"]:
        """f with every variable outside each set quantified away, one
        result per set, in order.  All sets share one memo for the call: a
        node's entry is keyed by the kept variables at or below it, so each
        set reuses what the others quantified alike below it."""
        return self._project(f, [self._mask(kept) for kept in kept_sets])

    def _project(self, f: "Function", masks: list[int]) -> list["Function"]:
        # one result per mask of kept variables, all from one memo
        self._check_same_manager(f)
        memo = {}
        return [Function(self, self._exists(f.root, mask, memo)) for mask in masks]

    def _mask(self, variables: Iterable[int]) -> int:
        mask = 0
        for v in variables:
            self._check_var(v)
            mask |= 1 << v
        return mask

    def _exists(self, root: int, kept: int, memo: dict) -> int:
        # `kept` has bit v set for each kept variable.  A node's result
        # depends only on the kept variables at or below it, the memo key;
        # the ORs built here memoize in the same dict under the apply
        # kernel's `(op, f, g)` triples, which no pair key can equal.
        node_var, low, high = self._nodes[root]
        below = kept >> node_var
        if below == self._all_vars >> node_var:
            return root  # nothing left to quantify (terminals included)
        if not below:
            return TRUE  # all variables left are quantified; any node is satisfiable
        key = (root, below)
        found = memo.get(key)
        if found is not None:
            return found
        if below & 1:
            result = self._node(node_var, self._exists(low, kept, memo),
                                self._exists(high, kept, memo))
        else:
            result = self._apply(OR, self._exists(low, kept, memo),
                                 self._exists(high, kept, memo), memo)
        memo[key] = result
        return result

    # ------------------------------------------------------------------
    # evaluation, counting, enumeration

    def evaluate(self, f: "Function", assignment) -> bool:
        """Follow edges per `assignment` until a terminal is reached.

        `assignment` maps variable index to a truthy/falsy value (a mapping
        or a sequence).  Variables skipped by the DAG need no value.
        """
        self._check_same_manager(f)
        root = f.root
        while root > TRUE:
            var, low, high = self._nodes[root]
            root = high if self._lookup(assignment, var) else low
        return root == TRUE

    def select(self, f: "Function", columns, everything: int) -> int:
        """Which of many rows f accepts, as a bitset (bit i for row i).

        `columns[var]` is the bitset of the rows that set `var` (a mapping
        or a sequence), and `everything` that of all rows.  Bottom-up over
        `_reachable`: each node accepts the rows its high child accepts
        where its variable is set and those its low child accepts
        elsewhere, one machine word per 64 rows (Bryant 1986).  Variables
        skipped by the DAG need no column.
        """
        self._check_same_manager(f)
        nodes, rows = self._nodes, {FALSE: 0, TRUE: everything}
        for root in self._reachable(f.root):
            var, low, high = nodes[root]
            try:
                on = columns[var]
            except (KeyError, IndexError):
                raise BddError(f"no column for variable {var}") from None
            rows[root] = rows[high] & on | rows[low] & ~on
        return rows[f.root]

    @staticmethod
    def _lookup(assignment, var: int) -> bool:
        try:
            return bool(assignment[var])
        except (KeyError, IndexError):
            raise BddError(f"assignment is missing a value for variable {var}") from None

    def count(self, f: "Function") -> int:
        """Number of satisfying assignments over all the manager's variables."""
        self._check_same_manager(f)
        # weight[u] counts assignments of vars var(u)..var_count-1
        nodes, weight = self._nodes, {FALSE: 0, TRUE: 1}
        for root in self._reachable(f.root):
            var, low, high = nodes[root]
            weight[root] = ((weight[low] << (nodes[low][0] - var - 1))
                            + (weight[high] << (nodes[high][0] - var - 1)))
        return weight[f.root] << self._var_of(f.root)

    def _reachable(self, root: int) -> list[int]:
        """The internal nodes reachable from root, in ascending id: children
        come first, since the store is append-only."""
        nodes, todo, reached = self._nodes, [root], set()
        while todo:
            node = todo.pop()
            if node > TRUE and node not in reached:
                reached.add(node)
                todo += nodes[node][1:]
        return sorted(reached)

    def satisfying(self, f: "Function") -> Iterator[tuple[int, ...]]:
        """Yield satisfying assignments of all the manager's variables as 0/1
        tuples, lexicographically."""
        self._check_same_manager(f)
        # depth-first over an explicit stack, 0-branch first; an entry
        # (level, bit, node) sets variable level - 1 to bit and continues
        # from node, so `bits` holds the path to the entry being expanded
        n = self.var_count
        bits = [0] * n
        todo = [(0, 0, f.root)] if f.root != FALSE else []
        while todo:
            level, bit, node = todo.pop()
            if level:
                bits[level - 1] = bit
            if level == n:
                yield tuple(bits)
                continue
            var, low, high = self._nodes[node]
            if var > level:
                low = high = node  # variable `level` is skipped: both bits
            if high != FALSE:
                todo.append((level + 1, 1, high))
            if low != FALSE:
                todo.append((level + 1, 0, low))

    def pick(self, f: "Function") -> tuple[int, ...] | None:
        """First satisfying assignment in enumeration order, or None."""
        return next(self.satisfying(f), None)

    def support(self, f: "Function") -> set[int]:
        """Variables the DAG of f actually mentions."""
        self._check_same_manager(f)
        return {self._nodes[root][0] for root in self._reachable(f.root)}

    def __len__(self) -> int:
        return len(self._nodes)

    # ------------------------------------------------------------------
    # debug export

    def dump(self, f: "Function") -> str:
        """Adjacency listing of f's DAG: one `id var low high` line per node,
        in ascending id.  A function that is not constant reaches both
        terminals."""
        self._check_same_manager(f)
        terminals = [f.root] if f.root <= TRUE else [FALSE, TRUE]
        lines = [f"{root} const {root}" for root in terminals]
        lines += ["%d x%d %d %d" % (root, *self._nodes[root])
                  for root in self._reachable(f.root)]
        return "\n".join(lines)


class Function:
    """Handle to one Boolean function inside a manager."""

    __slots__ = ("manager", "root")

    def __init__(self, manager: BDD, root: int):
        self.manager = manager
        self.root = root

    # identity of roots is semantic equality within one manager
    def __eq__(self, other) -> bool:
        return (isinstance(other, Function)
                and self.manager is other.manager
                and self.root == other.root)

    def __hash__(self) -> int:
        return hash((id(self.manager), self.root))

    def __repr__(self) -> str:
        return f"Function(root={self.root})"

    @property
    def root_var(self) -> int:
        """Variable tested at the root; the manager's var_count for a constant."""
        return self.manager._var_of(self.root)

    @property
    def is_false(self) -> bool:
        return self.root == FALSE

    @property
    def is_true(self) -> bool:
        return self.root == TRUE

    def _apply(self, op: int, other: "Function") -> "Function":
        self.manager._check_same_manager(other)
        return Function(self.manager, self.manager._apply(op, self.root, other.root, {}))

    def __invert__(self) -> "Function":
        return self._apply(IFF, self.manager.false)

    def __and__(self, other: "Function") -> "Function":
        return self._apply(AND, other)

    def __or__(self, other: "Function") -> "Function":
        return self._apply(OR, other)

    def implies(self, other: "Function") -> "Function":
        return self._apply(IMPLIES, other)

    def iff(self, other: "Function") -> "Function":
        return self._apply(IFF, other)

    def intersects(self, other: "Function") -> bool:
        """True when `self & other` is satisfiable; builds no nodes."""
        self.manager._check_same_manager(other)
        return self.manager._intersects(self.root, other.root)

    def restrict(self, var: int, value: bool) -> "Function":
        return self.manager.restrict(self, var, value)

    def exists(self, variables: Iterable[int]) -> "Function":
        return self.manager.exists(self, variables)

    def evaluate(self, assignment) -> bool:
        return self.manager.evaluate(self, assignment)

    def count(self) -> int:
        return self.manager.count(self)

    def satisfying(self) -> Iterator[tuple[int, ...]]:
        return self.manager.satisfying(self)

    def pick(self) -> tuple[int, ...] | None:
        return self.manager.pick(self)

    def support(self) -> set[int]:
        return self.manager.support(self)

    def dump(self) -> str:
        return self.manager.dump(self)
