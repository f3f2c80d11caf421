"""Conjugacy classes and twisted conjugacy classes in Weyl groups.

The central objects are the elements that are the unique maximal-length
member of their conjugacy class.  They are classified by subsets J of the
simple roots satisfying two conditions ("Property (1)" and "Property (2)"
below); the subset J corresponds to the involution w0 * w0J.  This module
materializes classes by orbit search, computes those sets, carries the
per-family catalog of classifying subsets, and bundles the exhaustive
verification suites that check the classification and its corollaries.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from operator import attrgetter

from .coxeter import (
    CartanType,
    ENUMERATION_LIMIT,
    RootSystem,
    WeylElement,
    _coerce_type,
    bruhat_leq,
    build_root_system,
    coxeter_elements,
    delta0_permutation,
    element_to_word_str,
    longest_element,
)
from .errors import GuardError
from .permutations import weyl_to_permutation
from .report import Report

__all__ = [
    "ConjugacyClass",
    "MaximalSet",
    "enumerate_weyl_group",
    "conjugacy_class",
    "twisted_class",
    "conjugacy_classes",
    "involution_classes",
    "unique_max_involutions",
    "max_length_involutions",
    "ascent_step",
    "ascent_reachable",
    "strong_conj_step",
    "strongly_conjugate",
    "property_one",
    "property_two",
    "subsets_with_property_one",
    "classifying_subsets",
    "subset_involution",
    "fixed_simple_roots",
    "catalog_subsets",
    "is_diagram_automorphism",
    "verify_unique_max_classification",
    "verify_subset_conjugacy",
    "verify_twisted_minimum",
    "verify_coxeter_bound",
    "verify_ascent_classes",
    "STRONG_CONJ_LIMIT",
]

STRONG_CONJ_LIMIT = 10**4
# Peak bytes that enumerate_weyl_group holds per element: a fixed part (the
# element object, the seen-set slot, list slots) plus the bytes of perm, one
# per root.  tracemalloc peaks per element, taken when each frontier was
# also sorted by rows keys: 264.2 over all of W(D6) (60 roots), 221.5 over
# all of W(E6) (72) and 424.9 over the first 235,088 elements of W(E7)
# (126).  The line below passes through the D6 and E7 points and lies above
# the E6 one.  Without the sort the peaks are lower (256.6 for D6, 218.1 for
# E6), so the line is an upper bound.
ENUMERATION_BYTES_PER_ELEMENT = 118
ENUMERATION_BYTES_PER_ROOT = 2.44


def _physical_mb() -> float | None:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20
    except (AttributeError, ValueError, OSError):
        return None


def _order_guard(t: CartanType, allow_large: bool, limit: int = ENUMERATION_LIMIT):
    """Refuse Weyl groups with more than limit elements unless allow_large."""
    order = t.weyl_order
    if order > limit and not allow_large:
        raise GuardError(
            f"|W({t})| = {order} exceeds {limit}; "
            "functions that take allow_large lift this limit with allow_large=True"
        )


def _guard(
    rs: RootSystem,
    allow_large: bool,
    limit: int = ENUMERATION_LIMIT,
    enumerates: bool = False,
):
    """The order guard; then refuse an enumeration of the whole group that
    cannot fit in physical memory in any case."""
    order = rs.cartan_type.weyl_order
    _order_guard(rs.cartan_type, allow_large, limit)
    if enumerates:
        per_element = (
            ENUMERATION_BYTES_PER_ELEMENT + ENUMERATION_BYTES_PER_ROOT * len(rs.roots)
        )
        need = order * per_element / 2**20
        have = _physical_mb()
        if have is not None and need > have:
            raise GuardError(
                f"enumerating the {order} elements of W({rs.cartan_type}) "
                f"needs about {need:,.0f} MB, more than the {have:,.0f} MB "
                "of physical memory; refused even with allow_large"
            )


def enumerate_weyl_group(rs: RootSystem, allow_large: bool = False):
    """All Weyl group elements, in breadth-first order by length (cached)."""
    cached = rs._memo.get("all_elements")
    if cached is None:
        _guard(rs, allow_large, enumerates=True)
        frontier = [rs.identity]
        seen = {rs.identity.perm}
        out = [rs.identity]
        ell = 0
        while frontier:
            nxt = []
            for w in frontier:
                for i in range(rs.rank):
                    if not rs._has_right_descent(w, i):
                        v = rs._mul_gen_right(w, i, ell + 1)
                        if v.perm not in seen:
                            seen.add(v.perm)
                            nxt.append(v)
            out.extend(nxt)
            frontier = nxt
            ell += 1
        cached = rs._memo["all_elements"] = tuple(out)
    return cached


@dataclass(frozen=True)
class ConjugacyClass:
    """A conjugacy class, materialized; extremal-length sublists are sorted.

    With a diagram automorphism delta it is the delta-twisted class, the
    orbit under u |-> delta(s) * u * s over the simple reflections s.
    """

    representative: WeylElement
    elements: frozenset[WeylElement]
    max_length: tuple[WeylElement, ...]
    min_length: tuple[WeylElement, ...]
    delta: tuple[int, ...] | None = None

    @property
    def is_unique_max(self) -> bool:
        return len(self.max_length) == 1

    @property
    def is_unique_min(self) -> bool:
        return len(self.min_length) == 1

    def __len__(self):
        return len(self.elements)


_rows = attrgetter("rows")


def _orbit(rs: RootSystem, seed: WeylElement, delta=None) -> set:
    """Closure of seed.perm under p |-> s_delta(i) * p * s_i (delta 1-based,
    the identity when None)."""
    conj = rs._conj
    steps = [(i if delta is None else delta[i] - 1, i) for i in range(rs.rank)]
    seen = {seed.perm}
    frontier = [seed.perm]
    while frontier:
        nxt = []
        for p in frontier:
            for j, i in steps:
                q = conj(p, j, i)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def _materialize(rs: RootSystem, perms):
    """The elements of an orbit and its minimal and maximal strata.

    Lengths come first, so the sort key ``rows`` is built only for the two
    extremal strata; each stratum is sorted by (length, rows) as before.
    """
    length = rs._length
    elements = [WeylElement(rs, p, length(p)) for p in perms]
    lo = min(w._length for w in elements)
    hi = max(w._length for w in elements)
    mins = tuple(sorted((w for w in elements if w._length == lo), key=_rows))
    maxs = tuple(sorted((w for w in elements if w._length == hi), key=_rows))
    return frozenset(elements), maxs, mins


def conjugacy_class(w: WeylElement, allow_large: bool = False) -> ConjugacyClass:
    """Orbit of w under conjugation, grown by the simple-reflection generators."""
    _guard(w.rs, allow_large)
    return ConjugacyClass(w, *_materialize(w.rs, _orbit(w.rs, w)))


def is_diagram_automorphism(rs: RootSystem, delta) -> bool:
    """True when delta (1-based index images) preserves the Cartan integers."""
    delta = tuple(delta)
    if sorted(delta) != list(range(1, rs.rank + 1)):
        return False
    c = rs.cartan
    n = rs.rank
    return all(
        c[delta[i] - 1][delta[j] - 1] == c[i][j] for i in range(n) for j in range(n)
    )


def twisted_class(w: WeylElement, delta, allow_large: bool = False) -> ConjugacyClass:
    """Orbit of w under u |-> delta(s) * u * s over the simple reflections s."""
    rs = w.rs
    delta = tuple(delta)
    if not is_diagram_automorphism(rs, delta):
        raise ValueError(f"{delta} is not a diagram automorphism of {rs.cartan_type}")
    _guard(rs, allow_large)
    return ConjugacyClass(w, *_materialize(rs, _orbit(rs, w, delta)), delta)


def _classes(rs: RootSystem, seeds) -> tuple[ConjugacyClass, ...]:
    """The conjugacy classes of the seeds; a seed inside a class already
    found is skipped.  Each class is represented by its element with the
    smallest matrix ``rows``, and the classes are sorted by that
    representative."""
    seen = set()
    classes = []
    for seed in seeds:
        if seed.perm in seen:
            continue
        found = _orbit(rs, seed)
        seen.update(found)
        elements, maxs, mins = _materialize(rs, found)
        classes.append(ConjugacyClass(min(elements, key=_rows), elements, maxs, mins))
    classes.sort(key=lambda c: c.representative.rows)
    return tuple(classes)


def _subsets(n: int):
    """All subsets of 1..n, as frozensets, in binary order."""
    for mask in range(1 << n):
        yield frozenset(i + 1 for i in range(n) if mask >> i & 1)


def conjugacy_classes(rs: RootSystem, allow_large: bool = False):
    """All conjugacy classes of the Weyl group."""
    cached = rs._memo.get("conj_classes")
    if cached is None:
        seeds = enumerate_weyl_group(rs, allow_large)
        cached = rs._memo["conj_classes"] = _classes(rs, seeds)
    return cached


def involution_classes(rs: RootSystem, allow_large: bool = False):
    """Conjugacy classes consisting of involutions (identity class included).

    Every involution is conjugate to the longest element w0J of some
    parabolic subgroup W_J (Richardson, Bull. Austral. Math. Soc. 26, 1982),
    so the classes are those of the 2^rank seeds w0J, J a subset of the
    simple roots, and the group itself is never enumerated.
    """
    cached = rs._memo.get("inv_classes")
    if cached is None:
        _guard(rs, allow_large)
        seeds = (longest_element(rs, J) for J in _subsets(rs.rank))
        cached = rs._memo["inv_classes"] = _classes(rs, seeds)
    return cached


@dataclass(frozen=True)
class MaximalSet:
    """Involutions of maximal length in their class, with their fixed subsets."""

    cartan_type: CartanType
    members: frozenset[WeylElement]
    fixed_simples: dict  # member -> frozenset of fixed simple-root indices

    def __len__(self):
        return len(self.members)


def _maximal_set(rs: RootSystem, unique: bool, allow_large: bool) -> MaximalSet:
    """The maximal-length elements of the involution classes, of those
    classes with a unique one when unique is set (memoised)."""
    key = ("maximal_set", unique)
    cached = rs._memo.get(key)
    if cached is None:
        fixed = {}
        for c in involution_classes(rs, allow_large):
            if unique and not c.is_unique_max:
                continue
            for m in c.max_length:
                fixed[m] = fixed_simple_roots(m)
        cached = rs._memo[key] = MaximalSet(rs.cartan_type, frozenset(fixed), fixed)
    return cached


def unique_max_involutions(rs: RootSystem, allow_large: bool = False) -> MaximalSet:
    """Elements that are the unique maximal-length member of their class.

    Scanning the involution classes is exact: a class containing a unique
    longest element is inverse-closed, forcing that element to be an
    involution.
    """
    return _maximal_set(rs, True, allow_large)


def max_length_involutions(rs: RootSystem, allow_large: bool = False) -> MaximalSet:
    """Involutions of maximal (not necessarily unique) length in their class."""
    return _maximal_set(rs, False, allow_large)


def ascent_step(w: WeylElement, i: int) -> WeylElement | None:
    """s_i * w * s_i when that does not decrease length, else None."""
    rs = w.rs
    if not 1 <= i <= rs.rank:
        raise ValueError(f"simple root index {i} out of range 1..{rs.rank}")
    v = WeylElement(rs, rs._conj(w.perm, i - 1, i - 1))
    return v if v.length >= w.length else None


def ascent_reachable(w: WeylElement, target: WeylElement) -> bool:
    """Whether some chain of non-decreasing conjugation steps leads w to target."""
    if w.rs is not target.rs:
        raise ValueError("elements belong to different root systems")
    seen = {w.perm}
    frontier = [w]
    while frontier:
        nxt = []
        for u in frontier:
            if u.perm == target.perm:
                return True
            for i in range(1, u.rs.rank + 1):
                v = ascent_step(u, i)
                if v is not None and v.perm not in seen:
                    seen.add(v.perm)
                    nxt.append(v)
        frontier = nxt
    return target.perm in seen


def strong_conj_step(w: WeylElement, w2: WeylElement, x: WeylElement) -> bool:
    """One length-preserving conjugation w2 = x*w*x^-1 where one of the two
    products x*w or w*x^-1 is length-additive with x."""
    if w.length != w2.length:
        return False
    xinv = x.inv()
    xw = x * w
    if (xw * xinv) != w2:
        return False
    lw2, lx = w2.length, x.length
    return lw2 == xw.length + lx or lw2 == lx + (w * xinv).length


def strongly_conjugate(w: WeylElement, w2: WeylElement) -> bool:
    """Reflexive-transitive closure of strong conjugation steps (small groups).

    The search stays inside w's class: the conjugators taking one member to
    another form a coset of the centralizer (``_conjugator_cosets``).  It
    refuses Weyl groups with more than STRONG_CONJ_LIMIT elements.
    """
    rs = w.rs
    if rs is not w2.rs:
        raise ValueError("elements belong to different root systems")
    _guard(rs, False, STRONG_CONJ_LIMIT)
    if w.length != w2.length:
        return False
    return w2.perm in _strong_component(rs, w.perm, w2.perm)


def _conjugator_cosets(rs: RootSystem, u0):
    """A transversal of u0's class and the centralizer C_W(u0), as perms.

    The class is grown by simple conjugations, and ``t[v]`` is a perm with
    t[v] * u0 * t[v]^-1 = v, set by t[s v s] = s * t[v].  The Schreier
    generators t[s v s]^-1 * s * t[v] generate the centralizer; one not yet
    in the subgroup is added, and the subgroup is closed again under right
    multiplication by its generators, until it has |W| / |class| elements.
    The conjugators taking u to v are then exactly t[v] * C * t[u]^-1.
    """
    mul, conj, inverse = rs._mul, rs._conj, rs._inverse
    simple = [s.perm for s in rs.simple_reflections]
    identity = rs.identity.perm
    t = {u0: identity}
    frontier = [u0]
    while frontier:
        nxt = []
        for v in frontier:
            for i, s in enumerate(simple):
                w = conj(v, i, i)
                if w not in t:
                    t[w] = mul(s, t[v])
                    nxt.append(w)
        frontier = nxt
    order = rs.cartan_type.weyl_order // len(t)
    centralizer = [identity]
    members = {identity}
    generators = []
    for v, tv in t.items():
        if len(centralizer) == order:
            break
        for i, s in enumerate(simple):
            g = mul(inverse(t[conj(v, i, i)]), mul(s, tv))
            if g in members:
                continue
            generators.append(g)
            todo = [mul(c, g) for c in centralizer]
            while todo:
                c = todo.pop()
                if c not in members:
                    members.add(c)
                    centralizer.append(c)
                    todo.extend(mul(c, h) for h in generators)
    return t, centralizer


def _strongly_linked(rs: RootSystem, t, centralizer, u, v) -> bool:
    """Whether some x in t[v] * C * t[u]^-1, the conjugators taking u to v,
    is a strong conjugation step: l(u) = l(x*u) + l(x) or l(u) = l(x) +
    l(u*x^-1).  Here l(u*x^-1) = l(x*u^-1), and with y = t[v] * c the three
    products are y times t[u]^-1, t[u]^-1 * u and t[u]^-1 * u^-1."""
    mul, length, inverse = rs._mul, rs._length, rs._inverse
    lu = length(u)
    tu_inv = inverse(t[u])
    right_u = mul(tu_inv, u)
    right_u_inv = mul(tu_inv, inverse(u))
    tv = t[v]
    for c in centralizer:
        y = mul(tv, c)
        lx = length(mul(y, tu_inv))
        if lu == length(mul(y, right_u)) + lx or lu == lx + length(
            mul(y, right_u_inv)
        ):
            return True
    return False


def _strong_component(rs: RootSystem, u0, goal=None) -> set:
    """The perms that strong-conjugation chains link to u0, by a search over
    the members of u0's class with u0's length; it stops once goal is found.

    The relation is symmetric: when x is a strong step from u to v, x^-1 is
    one from v to u, with the two length conditions swapped.  So each pair
    is tested at most once.
    """
    t, centralizer = _conjugator_cosets(rs, u0)
    lu = rs._length(u0)
    unseen = [v for v in t if v != u0 and rs._length(v) == lu]
    reached = {u0}
    todo = [u0]
    while todo and unseen and goal not in reached:
        u = todo.pop()
        rest = []
        for v in unseen:
            if _strongly_linked(rs, t, centralizer, u, v):
                reached.add(v)
                todo.append(v)
            else:
                rest.append(v)
        unseen = rest
    return reached


def property_one(rs: RootSystem, J) -> bool:
    """J is stable under the -w0 diagram symmetry and w0 agrees with the
    parabolic longest element on J."""
    J = frozenset(J)
    dp = delta0_permutation(rs)
    if {dp[i - 1] for i in J} != J:
        return False
    w0 = rs.w0
    w0J = longest_element(rs, J)
    return all(
        w0(rs.simple_roots[i - 1]) == w0J(rs.simple_roots[i - 1]) for i in J
    )


def property_two(rs: RootSystem, J) -> bool:
    """No isolated root of J admits a -w0-fixed neighbor of the same length
    that is orthogonal to the rest of J.

    A root of J is isolated when it pairs to zero with every other root of J.
    """
    J = frozenset(J)
    simple = rs.simple_roots
    dp = delta0_permutation(rs)

    def pairing(a, b):
        return rs.pair(simple[a - 1], simple[b - 1])

    for i in J:
        if any(pairing(i, j) != 0 for j in J if j != i):
            continue  # not isolated
        for b in range(1, rs.rank + 1):
            if b == i:
                continue
            if pairing(b, b) != pairing(i, i) or pairing(b, i) == 0:
                continue
            if any(pairing(b, j) != 0 for j in J if j != i):
                continue
            if dp[b - 1] == b:
                return False
    return True


def subsets_with_property_one(rs: RootSystem) -> frozenset[frozenset[int]]:
    """All subsets of the simple roots with Property (1)."""
    return _filtered_subsets(rs, require_two=False)


def classifying_subsets(rs: RootSystem) -> frozenset[frozenset[int]]:
    """All subsets with both properties; these classify the unique-maximal
    involutions via J |-> w0 * w0J."""
    return _filtered_subsets(rs, require_two=True)


def _filtered_subsets(rs, require_two):
    key = ("subsets", require_two)
    cached = rs._memo.get(key)
    if cached is None:
        n = rs.rank
        if n > 8:
            raise GuardError(f"rank {n} > 8: 2^rank subsets")
        cached = rs._memo[key] = frozenset(
            J
            for J in _subsets(n)
            if property_one(rs, J) and (not require_two or property_two(rs, J))
        )
    return cached


def subset_involution(rs: RootSystem, J) -> WeylElement:
    """The element w0 * w0J attached to a subset of simple roots."""
    return rs.w0 * longest_element(rs, J)


def fixed_simple_roots(m: WeylElement) -> frozenset[int]:
    """Indices of the simple roots fixed by an involution."""
    if not m.is_involution():
        raise ValueError("fixed_simple_roots expects an involution")
    rs = m.rs
    return frozenset(
        i + 1 for i, a in enumerate(rs.simple_roots) if m(a) == a
    )


def catalog_subsets(t) -> frozenset[frozenset[int]]:
    """The per-family catalog of classifying subsets, stored as data.

    Includes the two trivial subsets (empty and full).  The parametric
    rules below reproduce the known classification; the verification suite
    checks them against the property-based enumeration.
    """
    t = t if isinstance(t, CartanType) else CartanType.from_string(t)
    n = t.rank
    full = frozenset(range(1, n + 1))
    out = {frozenset(), full}
    fam = t.family
    if fam == "A":
        for l in range(1, (n + 1) // 2):
            out.add(frozenset(range(l + 1, n - l + 1)))
    elif fam in ("B", "C"):
        for l in range(2, n + 1):
            out.add(frozenset(range(l, n + 1)))
        for l in range(1, (n - 2) // 2 + 1):
            out.add(frozenset(range(1, 2 * l, 2)) | frozenset(range(2 * l + 1, n + 1)))
        out.add(frozenset(range(1, n + 1, 2)))  # all odd indices
    elif fam == "D":
        m = n // 2
        for l in range(2, m + 1):
            out.add(frozenset(range(2 * l - 1, n + 1)))
        for l in range(1, m):
            out.add(frozenset(range(1, 2 * l, 2)) | frozenset(range(2 * l + 1, n + 1)))
        if n % 2 == 0:
            out.add(frozenset(range(1, n, 2)))                     # odds up to n-1
            out.add(frozenset(range(1, n - 2, 2)) | {n})           # odds up to n-3, plus n
        else:
            out.add(frozenset(range(1, n - 1, 2)))                 # odds up to n-2
    elif fam == "E":
        catalog = {
            6: [{1, 3, 4, 5, 6}, {3, 4, 5}],
            7: [{2, 3, 4, 5, 6, 7}, {2, 3, 4, 5, 7}, {2, 3, 4, 5}, {2, 5, 7}],
            8: [{1, 2, 3, 4, 5, 6, 7}, {2, 3, 4, 5, 6, 7}, {2, 3, 4, 5}],
        }[n]
        out.update(frozenset(J) for J in catalog)
    elif fam == "F":
        out.update([frozenset({1, 2, 3}), frozenset({2, 3, 4}), frozenset({2, 3})])
    elif fam == "G":
        out.update([frozenset({1}), frozenset({2})])
    return frozenset(out)


def _fmt(w: WeylElement) -> str:
    """Cycle notation in type A, a space-separated reduced word otherwise."""
    if w.rs.cartan_type.family == "A":
        return weyl_to_permutation(w).cycle_string()
    return element_to_word_str(w)


def _suite_system(t, allow_large: bool, limit: int = ENUMERATION_LIMIT) -> RootSystem:
    """The root system of t for a verification suite, built only once the
    order guard admits t: building it is the costly part of a refusal (A60
    takes seconds)."""
    t = _coerce_type(t)
    _order_guard(t, allow_large, limit)
    return build_root_system(t)


def _fmt_subset(J) -> str:
    return "{" + " ".join(map(str, sorted(J))) + "}"


def verify_unique_max_classification(t, allow_large: bool = False) -> Report:
    """Check that the unique-maximal involutions, the property-based subset
    enumeration, and the stored catalog all produce the same set."""
    rs = _suite_system(t, allow_large)
    rep = Report(f"unique-max classification {rs.cartan_type}")
    computed = unique_max_involutions(rs, allow_large=allow_large).members
    from_props = frozenset(
        subset_involution(rs, J) for J in classifying_subsets(rs)
    )
    from_catalog = frozenset(
        subset_involution(rs, J) for J in catalog_subsets(rs.cartan_type)
    )
    subject = str(rs.cartan_type)
    diff = computed ^ from_props
    rep.add(
        subject,
        "computed-set-equals-property-enumeration",
        "EXACT",
        not diff,
        None if not diff else _fmt(next(iter(diff))),
    )
    diff = from_props ^ from_catalog
    rep.add(
        subject,
        "property-enumeration-equals-catalog",
        "EXACT",
        not diff,
        None if not diff else _fmt(next(iter(diff))),
    )
    rep.add(subject, "member-count", "EXACT", len(computed) == len(from_catalog))
    return rep


def verify_subset_conjugacy(t, allow_large: bool = False) -> Report:
    """For subsets J, K with Property (1): the attached involutions are
    conjugate exactly when some -w0-symmetric element maps J onto K.

    Conjugacy is read off ``involution_classes``.  The symmetric elements,
    those with w0 * x * w0 = x, form the centralizer C_W(w0) and come from
    ``_conjugator_cosets``, so the group is not enumerated.  It refuses Weyl
    groups with more than STRONG_CONJ_LIMIT elements unless allow_large is
    set.  When w0 = -1 the centralizer is the whole group, and its size is
    guarded like an enumeration.
    """
    rs = _suite_system(t, allow_large, STRONG_CONJ_LIMIT)
    w0_central = delta0_permutation(rs) == tuple(range(1, rs.rank + 1))
    _guard(rs, allow_large, STRONG_CONJ_LIMIT, enumerates=w0_central)
    rep = Report(f"subset conjugacy {rs.cartan_type}")
    subsets = sorted(subsets_with_property_one(rs), key=sorted)
    class_of = {
        w.perm: k
        for k, c in enumerate(involution_classes(rs, allow_large))
        for w in c.elements
    }
    symmetric = _conjugator_cosets(rs, rs.w0.perm)[1]
    simple = rs.simple_index
    subject = str(rs.cartan_type)
    for J in subsets:
        class_J = class_of[subset_involution(rs, J).perm]
        roots_J = [simple[i - 1] for i in sorted(J)]
        images_J = {frozenset(p[k] for k in roots_J) for p in symmetric}
        for K in subsets:
            conj = class_of[subset_involution(rs, K).perm] == class_J
            mapped = frozenset(simple[i - 1] for i in K) in images_J
            rep.add(
                subject,
                f"conjugacy-matches-mapping {_fmt_subset(J)}->{_fmt_subset(K)}",
                "EXACT",
                conj == mapped,
                None if conj == mapped else f"conjugate={conj} mapped={mapped}",
            )
    return rep


def verify_twisted_minimum(t, allow_large: bool = False) -> Report:
    """Each unique-maximal involution m gives w0*m as the unique minimal
    length element of its twisted class under the -w0 diagram symmetry."""
    rs = _suite_system(t, allow_large)
    rep = Report(f"twisted minimum {rs.cartan_type}")
    delta = delta0_permutation(rs)
    subject = str(rs.cartan_type)
    for m in sorted(
        unique_max_involutions(rs, allow_large=allow_large).members,
        key=lambda w: (w.length, w.rows),
    ):
        u = rs.w0 * m
        tc = twisted_class(u, delta, allow_large=allow_large)
        ok = tc.min_length == (u,)
        rep.add(
            subject,
            f"unique-twisted-minimum m={_fmt(m)}",
            "EXACT",
            ok,
            None if ok else ", ".join(_fmt(v) for v in tc.min_length),
        )
    return rep


def verify_coxeter_bound(t, allow_large: bool = False) -> Report:
    """Every Coxeter element sits below every nonidentity unique-maximal
    involution in the Bruhat order."""
    rs = _suite_system(t, allow_large)
    rep = Report(f"coxeter bound {rs.cartan_type}")
    members = unique_max_involutions(rs, allow_large=allow_large).members
    cox = sorted(coxeter_elements(rs), key=lambda w: w.rows)
    subject = str(rs.cartan_type)
    for m in sorted(members, key=lambda w: (w.length, w.rows)):
        if m.is_identity:
            continue
        bad = [c for c in cox if not bruhat_leq(c, m)]
        rep.add(
            subject,
            f"coxeter-elements-below m={_fmt(m)}",
            "EXACT",
            not bad,
            None if not bad else _fmt(bad[0]),
        )
    return rep


def verify_ascent_classes(t, allow_large: bool = False) -> Report:
    """Two facts about every conjugacy class: each element admits an ascent
    chain to a maximal-length element, and all maximal-length elements are
    pairwise linked by strong-conjugation chains.

    The classes come from the whole group, so it refuses Weyl groups with
    more than STRONG_CONJ_LIMIT elements unless allow_large is set.
    """
    rs = _suite_system(t, allow_large, STRONG_CONJ_LIMIT)
    rep = Report(f"ascent suite {rs.cartan_type}")
    subject = str(rs.cartan_type)
    for c in conjugacy_classes(rs, allow_large):
        label = f"class-of-{_fmt(c.representative)}"
        # reverse closure: which elements reach the maximal stratum by ascents
        reached = {w.perm for w in c.max_length}
        frontier = [(w.perm, w.length) for w in c.max_length]
        while frontier:
            nxt = []
            for p, lp in frontier:
                for i in range(rs.rank):
                    q = rs._conj(p, i, i)
                    if q not in reached:
                        lq = rs._length(q)
                        if lq <= lp:
                            reached.add(q)
                            nxt.append((q, lq))
            frontier = nxt
        missing = [w for w in c.elements if w.perm not in reached]
        rep.add(
            subject,
            f"{label} ascent-to-maximal",
            "EXACT",
            not missing,
            None if not missing else _fmt(missing[0]),
        )
        # strong-conjugation connectivity on the maximal stratum
        if len(c.max_length) > 1:
            stratum = {w.perm for w in c.max_length}
            ok = _strong_component(rs, c.max_length[0].perm) == stratum
            rep.add(subject, f"{label} maxima-strongly-linked", "EXACT", ok)
    return rep
