"""A tour of the Weyl group layer: roots, lengths, Bruhat order, and the
-w0 diagram symmetry.

Run:  python demos/01_weyl_groups.py
"""

from bruhatcells import (
    build_root_system,
    bruhat_leq,
    delta0_permutation,
    element_to_word_str,
    enumerate_weyl_group,
    longest_element,
    reduced_word,
    simple_reflection,
)

print("== root systems ==")
for name in ["A3", "B3", "G2", "F4", "E6"]:
    rs = build_root_system(name)
    print(
        f"{name}: {len(rs.roots)} roots, |W| = {rs.cartan_type.weyl_order}, "
        f"longest element has length {len(rs.positive_roots)}"
    )

rs = build_root_system("B3")
print()
print("== elements of W(B3) as products of simple reflections ==")
s1, s2, s3 = (simple_reflection(rs, i) for i in (1, 2, 3))
w = s1 * s2 * s3 * s2
print(f"w = s1 s2 s3 s2 has length {w.length}, reduced word {reduced_word(w)}")
print(f"w acts on the highest root: {w(rs.positive_roots[-1])}")

print()
print("== longest elements of parabolic subgroups ==")
for J in [set(), {1}, {2, 3}, {1, 2, 3}]:
    w0j = longest_element(rs, J)
    print(f"J = {sorted(J) or '{}'}: w0J = {element_to_word_str(w0j)} (length {w0j.length})")

print()
print("== Bruhat order ==")
w0 = rs.w0
below_counts = {}
group = tuple(enumerate_weyl_group(rs))
for u in group:
    below = sum(1 for v in group if bruhat_leq(u, v))
    below_counts.setdefault(u.length, []).append(below)
print("elements above each element, grouped by length:")
for ell in sorted(below_counts):
    vals = below_counts[ell]
    print(f"  length {ell}: {len(vals)} elements, above-counts {sorted(set(vals))}")
print(f"only the longest element has exactly one element above it: {below_counts[w0.length] == [1]}")

print()
print("== the symmetry alpha -> -w0(alpha) on simple roots ==")
for name in ["A4", "B4", "D5", "D6", "E6"]:
    print(f"{name}: {delta0_permutation(build_root_system(name))}")
