"""Boolean functions as shared decision diagrams.

Builds a few functions over four variables, shows that equivalent
constructions land on the identical node, and walks through counting and
enumerating satisfying assignments -- the primitives every other layer of
the library stands on.
"""

from ctdkit import BDD

manager = BDD(4)
x1, x2, x3, x4 = (manager.var(i) for i in range(4))

print("== conjunction collapses ==")
g = x1 & x2
h = x1 | x2
f = g & h                      # (x1 and x2) and (x1 or x2)
print(f"(x1&x2)&(x1|x2) has root {f.root}, x1&x2 has root {g.root}")
print("identical roots -> identical functions, by construction\n")
print("diagram of f, one `id var low high` line per node:")
print(manager.dump(f))

print("\n== a constrained space ==")
at_least_one = x1 | x2 | x3 | x4
print(f"assignments with at least one 1: {at_least_one.count()} of 16")

print("\n== intersect with a requirement ==")
requirement = ~x1 & ~x2        # first two variables are 0
answer = at_least_one & requirement
print("legal assignments meeting the requirement, lexicographic:")
for bits in manager.satisfying(answer):
    print("  ", "".join(map(str, bits)))
print("first pick:", "".join(map(str, manager.pick(answer))))

print("\n== algebra sanity ==")
print("not not f == f:", (~~f).root == f.root)
print("f and not f is empty:", (f & ~f).is_false)
print("De Morgan holds:", (~(g & h)).root == (~g | ~h).root)
