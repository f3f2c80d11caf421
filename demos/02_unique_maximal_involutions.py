"""Conjugacy classes with a unique longest member, and the subsets of the
Dynkin diagram that classify them.

For each Weyl group the involutions m that are the unique maximal-length
element of their conjugacy class correspond one-to-one to subsets J of the
simple roots satisfying two diagram conditions; the correspondence is
J -> w0 * w0J.  This demo computes both sides exhaustively and also shows
the twisted-class corollary: w0*m is always the unique shortest element of
its twisted class.

Run:  python demos/02_unique_maximal_involutions.py
"""

from bruhatcells import (
    build_root_system,
    catalog_subsets,
    classifying_subsets,
    conjugacy_class,
    delta0_permutation,
    twisted_class,
    unique_max_involutions,
    verify_unique_max_classification,
    weyl_to_permutation,
)

for name in ["A3", "B3", "D4", "G2", "F4"]:
    rs = build_root_system(name)
    M = unique_max_involutions(rs)
    print(f"== {name}:  {len(M)} unique-maximal involutions ==")
    for m in sorted(M.members, key=lambda w: (w.length, w.rows)):
        J = M.fixed_simples[m]
        label = (
            weyl_to_permutation(m).cycle_string()
            if name.startswith("A")
            else f"length-{m.length} involution"
        )
        size = len(conjugacy_class(m))
        jtxt = str(sorted(J)) if J else "{}"
        print(f"  J = {jtxt:<16}  m = {label:<22} class size {size}")
    assert classifying_subsets(rs) == catalog_subsets(name)
    print(f"  property enumeration matches stored catalog: yes")
    print()

print("== full cross-check reports ==")
for name in ["A4", "B4", "D5", "F4"]:
    rep = verify_unique_max_classification(name)
    print(f"{name}: {'pass' if rep.passed else 'FAIL'} ({len(rep.results)} checks)")

print()
print("== the twisted-class corollary in A3 ==")
rs = build_root_system("A3")
delta = delta0_permutation(rs)
for m in sorted(unique_max_involutions(rs).members, key=lambda w: (w.length, w.rows)):
    u = rs.w0 * m
    tc = twisted_class(u, delta)
    uniq = "unique" if tc.is_unique_min else "NOT unique"
    print(
        f"m = {weyl_to_permutation(m).cycle_string():<12} twisted class of w0*m has "
        f"{len(tc)} elements; its minimum is {uniq} (length {tc.min_length[0].length})"
    )
