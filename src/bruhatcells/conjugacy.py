"""Conjugacy classes and twisted conjugacy classes in Weyl groups.

The central objects are the elements that are the unique maximal-length
member of their conjugacy class.  They are classified by subsets J of the
simple roots satisfying two conditions ("Property (1)" and "Property (2)"
below); the subset J corresponds to the involution w0 * w0J.  This module
materializes classes by orbit search, computes those sets, carries the
per-family catalog of classifying subsets and walks its involutions on
simple-root images, with no root system, and bundles the exhaustive
verification suites that check the classification and its corollaries.
"""

from __future__ import annotations

import os
from operator import attrgetter

from ._record import Record
from .coxeter import (
    CartanType,
    ENUMERATION_LIMIT,
    RootSystem,
    WeylElement,
    _coerce_type,
    _image_walk,
    _rank_guard,
    _walk_longest,
    _walk_reduced_word,
    _word_str,
    bruhat_leq,
    build_root_system,
    coxeter_elements,
    delta0_permutation,
    element_to_word_str,
    longest_element,
)
from .errors import GuardError
from .permutations import _from_simple_images, _root_pair, weyl_to_permutation
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
# E6; 256.8 and 218.3 stepping on permutations and wrapping each length
# level once), so the line is an upper bound.
ENUMERATION_BYTES_PER_ELEMENT = 118
ENUMERATION_BYTES_PER_ROOT = 2.44
# CPU seconds per walk step and coordinate of a catalog, one constant for
# every family: above the largest ratio of CPU time to (entries + 1) * N *
# rank measured on the classical types of rank 20-60, three runs each
# (2 vCPUs, Python 3.11): 131-274 ns in B, C and D.  Type A prints cycles,
# which need no walk, at 40-83 ns, so its estimate is about 5 times high.
_CATALOG_STEP_S = 3.0e-7
_CATALOG_LIMIT_S = 5.0


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
            f"|W({t})| = {order} exceeds {limit}; lift this limit with "
            "allow_large=True (CLI: --checks ascent --allow-large)"
        )


def enumerate_weyl_group(rs: RootSystem, allow_large: bool = False):
    """All Weyl group elements, in breadth-first order by length (cached).

    Past the order guard, it refuses a group whose estimated memory exceeds
    the physical memory, even with allow_large.
    """
    t = rs.cartan_type
    _order_guard(t, allow_large)
    per_element = (
        ENUMERATION_BYTES_PER_ELEMENT + ENUMERATION_BYTES_PER_ROOT * len(rs.roots)
    )
    need = t.weyl_order * per_element / 2**20
    have = _physical_mb()
    if have is not None and need > have:
        raise GuardError(
            f"enumerating the {t.weyl_order} elements of W({t}) "
            f"needs about {need:,.0f} MB, more than the {have:,.0f} MB "
            "of physical memory; refused even with allow_large"
        )
    cached = rs._memo.get("all_elements")
    if cached is None:
        right, simple, npos = rs._right, tuple(enumerate(rs.simple_index)), rs.npos
        frontier = [rs.identity.perm]
        seen = set(frontier)
        out = [rs.identity]
        ell = 0
        while frontier:
            nxt = []
            for p in frontier:
                for i, k in simple:
                    if p[k] >= npos:
                        q = right(p, i)
                        if q not in seen:
                            seen.add(q)
                            nxt.append(q)
            ell += 1
            out.extend(WeylElement(rs, q, ell) for q in nxt)
            frontier = nxt
        cached = rs._memo["all_elements"] = tuple(out)
    return cached


class ConjugacyClass(Record):
    """A conjugacy class, materialized; extremal-length sublists are sorted.

    With a diagram automorphism delta it is the delta-twisted class, the
    orbit under u |-> delta(s) * u * s over the simple reflections s.
    """

    __slots__ = ("representative", "elements", "max_length", "min_length", "delta")
    representative: WeylElement
    elements: frozenset[WeylElement]
    max_length: tuple[WeylElement, ...]
    min_length: tuple[WeylElement, ...]
    delta: tuple[int, ...] | None

    def __init__(self, representative, elements, max_length, min_length, delta=None):
        super().__init__(representative, elements, max_length, min_length, delta)

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
    _order_guard(w.rs.cartan_type, allow_large)
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
    _order_guard(rs.cartan_type, allow_large)
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
    _rank_guard(n)
    return (frozenset(i + 1 for i in range(n) if m >> i & 1) for m in range(1 << n))


def conjugacy_classes(rs: RootSystem, allow_large: bool = False):
    """All conjugacy classes of the Weyl group."""
    _order_guard(rs.cartan_type, allow_large)
    cached = rs._memo.get("conj_classes")
    if cached is None:
        seeds = enumerate_weyl_group(rs, allow_large)
        cached = rs._memo["conj_classes"] = _classes(rs, seeds)
    return cached


def involution_classes(rs: RootSystem):
    """Conjugacy classes consisting of involutions (identity class included).

    Every involution is conjugate to the longest element w0J of some
    parabolic subgroup W_J (Richardson, Bull. Austral. Math. Soc. 26, 1982),
    so the classes are those of the 2^rank seeds w0J, J a subset of the
    simple roots, and the group itself is never enumerated.
    """
    _rank_guard(rs.rank)
    cached = rs._memo.get("inv_classes")
    if cached is None:
        seeds = (longest_element(rs, J) for J in _subsets(rs.rank))
        cached = rs._memo["inv_classes"] = _classes(rs, seeds)
    return cached


class MaximalSet(Record):
    """The unique maximal-length involutions, with their fixed subsets."""

    __slots__ = ("cartan_type", "members", "fixed_simples")
    __hash__ = None  # fixed_simples is a dict
    cartan_type: CartanType
    members: frozenset[WeylElement]
    fixed_simples: dict  # member -> frozenset of fixed simple-root indices

    def __init__(self, cartan_type, members, fixed_simples):
        super().__init__(cartan_type, members, fixed_simples)

    def __len__(self):
        return len(self.members)


def unique_max_involutions(rs: RootSystem) -> MaximalSet:
    """Elements that are the unique maximal-length member of their class
    (memoised).

    Scanning the involution classes is exact: a class containing a unique
    longest element is inverse-closed, forcing that element to be an
    involution.
    """
    cached = rs._memo.get("unique_max")
    if cached is None:
        fixed = {
            c.max_length[0]: fixed_simple_roots(c.max_length[0])
            for c in involution_classes(rs)
            if c.is_unique_max
        }
        cached = rs._memo["unique_max"] = MaximalSet(
            rs.cartan_type, frozenset(fixed), fixed
        )
    return cached


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


def _shift_components(rs: RootSystem, stratum) -> list:
    """The stratum split by equal-length cyclic shifts: lists of perms in
    the order reached, the one holding stratum[0] first.

    A shift u -> s*u*s, s simple, is admitted when s*u*s lies in the stratum
    and s is a descent of u on one side, l(s*u) = l(u) - 1 or l(u*s) =
    l(u) - 1; then x = s is a strong conjugation step from u to s*u*s.
    """
    conj, right, mul, length = rs._conj, rs._right, rs._mul, rs._length
    below = length(stratum[0]) - 1
    unseen = set(stratum)
    components = []
    for start in stratum:
        if start not in unseen:
            continue
        unseen.discard(start)
        component = [start]
        for u in component:
            for i, s in enumerate(rs.simple_reflections):
                v = conj(u, i, i)
                if v in unseen and (
                    length(right(u, i)) == below or length(mul(s.perm, u)) == below
                ):
                    unseen.discard(v)
                    component.append(v)
        components.append(component)
    return components


def _strong_component(rs: RootSystem, stratum) -> set:
    """The perms that strong-conjugation chains link to u0 = stratum[0],
    within stratum, the perms of u0's class with u0's length.

    Equal-length cyclic shifts are strong steps (Geck-Pfeiffer, Characters
    of Finite Coxeter Groups and Iwahori-Hecke Algebras, 2000, §3.2), and
    on a maximal stratum they alone link most classes.  Only when they
    leave more than one component is the centralizer C_W(u0) built; the
    components are then joined by strong steps from reached perms, stopping
    at the first step into each.  The relation is symmetric (when x is a
    strong step from u to v, x^-1 is one from v to u), so a component that
    no reached perm steps into is not linked.
    """
    first, *rest = _shift_components(rs, stratum)
    reached = set(first)
    if rest:
        t, centralizer = _conjugator_cosets(rs, stratum[0])
        todo = list(first)
        while todo and rest:
            u = todo.pop()
            unlinked = []
            for component in rest:
                if any(_strongly_linked(rs, t, centralizer, u, v) for v in component):
                    reached.update(component)
                    todo += component
                else:
                    unlinked.append(component)
            rest = unlinked
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
    dp = delta0_permutation(rs)

    def pairing(a, b):
        return rs.pairing[a - 1][b - 1]

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
    _rank_guard(rs.rank)
    cached = rs._memo.get("subsets")
    if cached is None:
        cached = rs._memo["subsets"] = frozenset(
            J for J in _subsets(rs.rank) if property_one(rs, J)
        )
    return cached


def classifying_subsets(rs: RootSystem) -> frozenset[frozenset[int]]:
    """All subsets with both properties; these classify the unique-maximal
    involutions via J |-> w0 * w0J."""
    return frozenset(J for J in subsets_with_property_one(rs) if property_two(rs, J))


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


def _catalog_guard(t: CartanType, entries: int, known: bool = True) -> None:
    """Refuse a catalog estimated above _CATALOG_LIMIT_S: a walk of at most N
    steps to w0 and one to each w0J, and one down each printed word, each
    step O(rank).  With known=False, entries is a lower bound on the count."""
    n_pos = t.positive_root_count
    cost = _CATALOG_STEP_S * (entries + 1) * n_pos * t.rank
    if cost > _CATALOG_LIMIT_S:
        walks = f"{entries + 1:,}" if known else f"at least {entries + 1}"
        raise GuardError(
            f"catalog for {t} would take about {cost:,.2f} s of CPU time, above "
            f"the {_CATALOG_LIMIT_S:g} s limit: {walks} walks of up to N = {n_pos:,} "
            f"steps of rank {t.rank}, at {_CATALOG_STEP_S * 1e9:g} ns per step "
            "and rank"
        )


def _catalog_entries(t) -> list[dict]:
    """The catalog entries as ``bruhatcells catalog`` prints them: each
    subset J, sorted by size and then entries, with m_J = w0 * w0J formatted
    as ``_fmt`` formats it and its length.  The walks read only the simple-root
    images (``coxeter._image_walk``), so no root system is built:

    - w0 and each w0J grow by the rule of ``longest_element``;
    - m_J(alpha_i) = w0(w0J(alpha_i)), and w0(alpha_k) = -alpha_delta(k),
      with delta read off w0's images; delta is an involution;
    - l(m_J) = N - l(w0J);
    - in type A, m_J(alpha_i) = e_m(i) - e_m(i+1) gives the cycles; else the
      reduced word is walked as ``reduced_word`` walks it.

    Guarded by _CATALOG_LIMIT_S, first on the two trivial subsets alone, so
    a huge rank is refused before ``catalog_subsets`` builds rank^2 data.
    """
    t = _coerce_type(t)
    _catalog_guard(t, 2, known=False)
    subsets = sorted(catalog_subsets(t), key=lambda J: (len(J), sorted(J)))
    _catalog_guard(t, len(subsets))
    start, step = _image_walk(t)
    w0, negative = start()
    n_pos = _walk_longest(step, w0, negative, range(t.rank))
    delta = [next(k for k, c in enumerate(a) if c) for a in w0]
    out = []
    for J in subsets:
        images, negative = start()
        length = n_pos - _walk_longest(step, images, negative, sorted(i - 1 for i in J))
        images = [tuple(-a[k] for k in delta) for a in images]
        if t.family == "A":
            element = _from_simple_images(list(map(_root_pair, images))).cycle_string()
        else:
            negative = [min(a) < 0 for a in images]
            element = _word_str(_walk_reduced_word(step, images, negative))
        out.append({"subset": sorted(J), "element": element, "length": length})
    return out


def _fmt(w: WeylElement) -> str:
    """Cycle notation in type A, a space-separated reduced word otherwise."""
    if w.rs.cartan_type.family == "A":
        return weyl_to_permutation(w).cycle_string()
    return element_to_word_str(w)


def _suite_system(t) -> RootSystem:
    """The root system of t, built only once the rank guard admits t, so a
    type past the rank bound is refused for its rank, not its root count."""
    t = _coerce_type(t)
    _rank_guard(t.rank)
    return build_root_system(t)


def _fmt_subset(J) -> str:
    return "{" + " ".join(map(str, sorted(J))) + "}"


def verify_unique_max_classification(t) -> Report:
    """Check that the unique-maximal involutions, the property-based subset
    enumeration, and the stored catalog all produce the same set."""
    rs = _suite_system(t)
    rep = Report(f"unique-max classification {rs.cartan_type}")
    from_props = frozenset(
        subset_involution(rs, J) for J in classifying_subsets(rs)
    )
    computed = unique_max_involutions(rs).members
    from_catalog = frozenset(
        subset_involution(rs, J) for J in catalog_subsets(rs.cartan_type)
    )
    subject = str(rs.cartan_type)
    rep.require(
        subject,
        "computed-set-equals-property-enumeration",
        "EXACT",
        computed ^ from_props,
        _fmt,
    )
    rep.require(
        subject,
        "property-enumeration-equals-catalog",
        "EXACT",
        from_props ^ from_catalog,
        _fmt,
    )
    rep.add(subject, "member-count", "EXACT", len(computed) == len(from_catalog))
    return rep


def _stable_subset_classes(rs: RootSystem) -> dict:
    """Label each -w0-stable subset J of the simple roots by its class: J
    and K share a label when some x with w0 * x * w0 = x maps the simple
    roots of J onto those of K.

    The classes are closed from elementary steps (Howlett, J. London Math.
    Soc. 21, 1980; Deodhar, Comm. Algebra 10, 1982; Steinberg, Mem. AMS 80,
    §11, for the twist by -w0).  For J stable, O an orbit of the -w0
    symmetry outside J and L = J | O, the element w0L * w0J commutes with
    w0 and maps J onto K = -w0L(J).  A union-find joins each such J and K,
    over at most 2^rank subsets; the group is never enumerated.
    """
    delta = delta0_permutation(rs)
    stable = [J for J in _subsets(rs.rank) if {delta[i - 1] for i in J} == J]
    simple = rs.simple_index
    simple_of = {k: i + 1 for i, k in enumerate(simple)}
    negate = 2 * rs.npos - 1  # the index of -root is negate - the index of root
    parent = {J: J for J in stable}

    def find(J):
        while parent[J] != J:
            J = parent[J]
        return J

    for J in stable:
        for i in range(1, rs.rank + 1):
            if i not in J:
                w0L = longest_element(rs, J | {i, delta[i - 1]}).perm
                K = frozenset(simple_of[negate - w0L[simple[j - 1]]] for j in J)
                parent[find(K)] = find(J)
    return {J: find(J) for J in stable}


def verify_subset_conjugacy(t) -> Report:
    """For subsets J, K with Property (1): the attached involutions are
    conjugate exactly when some -w0-symmetric element, one with
    w0 * x * w0 = x, maps J onto K.

    Conjugacy is read off ``involution_classes`` and the mappings off the
    closure of ``_stable_subset_classes``, two independent computations.
    Known limit: on every type tried (A1-A8, B2-B6, C2-C5, D4-D8, E6-E8,
    F4, G2) the closure agrees with the untwisted one (steps over single
    simple roots, any x in W) on the Property-(1) subsets, so a fault that
    dropped the symmetry condition would not show here.
    """
    rs = _suite_system(t)
    rep = Report(f"subset conjugacy {rs.cartan_type}")
    subsets = sorted(subsets_with_property_one(rs), key=sorted)
    class_of = {
        w.perm: k
        for k, c in enumerate(involution_classes(rs))
        for w in c.elements
    }
    class_of_subset = {J: class_of[subset_involution(rs, J).perm] for J in subsets}
    label = _stable_subset_classes(rs)
    subject = str(rs.cartan_type)
    for J in subsets:
        for K in subsets:
            conj = class_of_subset[K] == class_of_subset[J]
            mapped = label[K] == label[J]
            rep.add(
                subject,
                f"conjugacy-matches-mapping {_fmt_subset(J)}->{_fmt_subset(K)}",
                "EXACT",
                conj == mapped,
                None if conj == mapped else f"conjugate={conj} mapped={mapped}",
            )
    return rep


def verify_twisted_minimum(t) -> Report:
    """Each unique-maximal involution m gives w0*m as the unique minimal
    length element of its twisted class under the -w0 diagram symmetry.
    That class is w0 times the class of m, so the rank guard bounds it."""
    rs = _suite_system(t)
    rep = Report(f"twisted minimum {rs.cartan_type}")
    delta = delta0_permutation(rs)
    subject = str(rs.cartan_type)
    for m in sorted(
        unique_max_involutions(rs).members,
        key=lambda w: (w.length, w.rows),
    ):
        u = rs.w0 * m
        mins = _materialize(rs, _orbit(rs, u, delta))[2]
        ok = mins == (u,)
        rep.add(
            subject,
            f"unique-twisted-minimum m={_fmt(m)}",
            "EXACT",
            ok,
            None if ok else ", ".join(_fmt(v) for v in mins),
        )
    return rep


def verify_coxeter_bound(t) -> Report:
    """Every Coxeter element sits below every nonidentity unique-maximal
    involution in the Bruhat order."""
    rs = _suite_system(t)
    rep = Report(f"coxeter bound {rs.cartan_type}")
    cox = sorted(coxeter_elements(rs), key=lambda w: w.rows)
    members = unique_max_involutions(rs).members
    subject = str(rs.cartan_type)
    for m in sorted(members, key=lambda w: (w.length, w.rows)):
        if m.is_identity:
            continue
        rep.require(
            subject,
            f"coxeter-elements-below m={_fmt(m)}",
            "EXACT",
            (c for c in cox if not bruhat_leq(c, m)),
            _fmt,
        )
    return rep


def verify_ascent_classes(t, allow_large: bool = False) -> Report:
    """Two facts about every conjugacy class: each element admits an ascent
    chain to a maximal-length element, and all maximal-length elements are
    pairwise linked by strong-conjugation chains.

    Equal-length cyclic shifts u -> s*u*s are strong steps (Geck-Pfeiffer
    2000, §3.2), so a maximal stratum is first linked by shifts alone; a
    centralizer is built only for a class whose stratum they leave in
    several components (3 of the 25 classes of W(E6)).

    The classes come from the whole group, so it refuses Weyl groups with
    more than STRONG_CONJ_LIMIT elements unless allow_large is set.
    """
    t = _coerce_type(t)
    _order_guard(t, allow_large, STRONG_CONJ_LIMIT)
    rs = build_root_system(t)
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
        rep.require(
            subject,
            f"{label} ascent-to-maximal",
            "EXACT",
            (w for w in c.elements if w.perm not in reached),
            _fmt,
        )
        # strong-conjugation connectivity on the maximal stratum
        if len(c.max_length) > 1:
            linked = _strong_component(rs, [w.perm for w in c.max_length])
            rep.require(
                subject,
                f"{label} maxima-strongly-linked",
                "EXACT",
                (w for w in c.max_length if w.perm not in linked),
                _fmt,
            )
    return rep
