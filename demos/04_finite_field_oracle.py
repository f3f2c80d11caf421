"""Checking the cell-membership predictions by brute force over F_q.

The oracle walks a whole conjugacy class of SL(n, F_q) as a matrix orbit,
one class under the diagonal torus at a time (conjugating by a diagonal
matrix moves no matrix to another cell), runs Bruhat pivot elimination on
one representative of each (6,226 for the 97,000 matrices of the SL(3, F_5)
sweep), and compares the cells actually met with the combinatorial
predictions.  Membership over a finite field always implies membership
over the algebraic closure, so the containment checks must pass on any
run; at the sizes used here the tables turn out to match the predictions
exactly.

Run:  python demos/04_finite_field_oracle.py
"""

from bruhatcells import (
    JordanClass,
    MatrixFq,
    PrimeField,
    bruhat_factor,
    cell_size_census,
    coset_product_report,
    field_classes,
    intersection_table,
    sl_order,
    validate_class,
)
from bruhatcells.permutations import Permutation

print("== Bruhat pivot elimination on one matrix ==")
f5 = PrimeField(5)
g = MatrixFq.from_rows(f5, [[2, 1, 3], [4, 0, 1], [3, 0, 0]])
b1, mono, b2, w = bruhat_factor(g)
print(f"g decomposes through the cell of {w.cycle_string()}")
print(f"monomial core: {mono}")
print(f"reconstruction exact: {b1 * mono * b2 == g}")

print()
print("== cells partition the whole group ==")
for n, q in [(2, 3), (3, 2), (3, 3)]:
    census = cell_size_census(n, q)
    sizes = {w.cycle_string(): c for w, c in census.items()}
    print(f"SL({n},F_{q}): |G| = {sl_order(n, q)} = {' + '.join(map(str, sorted(sizes.values())))}")

print()
print("== empirical intersection tables ==")
for c, q in [
    (JordanClass(2, [("u", (2,))], {"u": 1}), 5),
    (JordanClass(3, [("u", (2, 1))], {"u": 1}), 5),
    (JordanClass(3, [("a", (1,)), ("b", (1,)), ("c", (1,))], {"a": 1, "b": 2, "c": 3}), 5),
]:
    t = intersection_table(c, q)
    print(f"SL({c.n_plus_1},F_{q}) {c.describe()}: orbit {t.orbit_size}")
    print(f"  cells met:          {[w.cycle_string() for w in t.sorted_cells()]}")
    print(f"  opposite cells met: {[w.cycle_string() for w in t.sorted_opposite()]}")
    print(f"  Bruhat maximum:     {t.bruhat_max.cycle_string()}")

print()
print("== full validation of every SL(3, F_5) class with split eigenvalues ==")
classes = field_classes(3, 5)
for c in classes:
    rep = validate_class(c, 5)
    status = "pass" if rep.passed else "FAIL"
    print(f"  {c.describe():<24} {status} ({len(rep.results)} checks)")

print()
print("== the triple-product identity B w B^- B = cells at or above w ==")
rep = coset_product_report(Permutation.parse("(1 2)", 3), 2)
print(rep.to_text())
