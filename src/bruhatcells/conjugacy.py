"""Conjugacy classes and twisted conjugacy classes in Weyl groups.

The central objects are the elements that are the unique maximal-length
member of their conjugacy class.  They are classified by subsets J of the
simple roots satisfying two conditions ("Property (1)" and "Property (2)"
below); the subset J corresponds to the involution w0 * w0J.  This module
grows classes one orbit at a time from parabolic seeds, never walking W,
keeps each as its size and extremal strata, computes those sets, carries
the per-family catalog of classifying subsets and walks its involutions
on simple-root images, with no root system, and bundles the exhaustive
verification suites that check the classification and its corollaries.
"""

from __future__ import annotations

from itertools import chain, islice, repeat
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
# CPU seconds per walk step and coordinate of a catalog: above the largest
# ratio of CPU time to (entries + 1) * N * rank on B, C and D of rank 20-60,
# 131-274 ns (three runs each, 2 vCPUs, Python 3.11).  Type A prints cycles
# with no walk, at 40-83 ns, so its estimate is about 5 times high.
_CATALOG_STEP_S = 3.0e-7
_CATALOG_LIMIT_S = 5.0


def _order_guard(t: CartanType, limit: int = ENUMERATION_LIMIT, lift: str = ""):
    """Refuse more than limit elements; lift names the override, if any."""
    if t.weyl_order > limit:
        raise GuardError(f"|W({t})| = {t.weyl_order} exceeds {limit}{lift}")


_LIFT = "; lift this limit with allow_large=True"


def enumerate_weyl_group(rs: RootSystem):
    """All Weyl group elements by length, breadth first, one length layer in
    memory at a time; the guard runs at the call.  w * s, s not a right
    descent of w, is one longer than w, so a layer meets no earlier one."""
    _order_guard(rs.cartan_type)
    return _length_layers(rs)


def _length_layers(rs: RootSystem):
    right, simple, npos = rs._right, tuple(enumerate(rs.simple_index)), rs.npos
    layer, ell = [rs.identity.perm], 0
    while layer:
        yield from (WeylElement(rs, p, ell) for p in layer)
        layer = dict.fromkeys(
            right(p, i) for p in layer for i, k in simple if p[k] >= npos
        )
        ell += 1


class ConjugacyClass(Record):
    """A conjugacy class as its size and its extremal strata, each sorted by
    ``rows``; its members are not kept.  With a diagram automorphism delta
    it is the delta-twisted class, the orbit under u |-> delta(s) * u * s
    over the simple reflections s.
    """

    __slots__ = ("representative", "size", "max_length", "min_length", "delta")
    representative: WeylElement
    size: int
    max_length: tuple[WeylElement, ...]
    min_length: tuple[WeylElement, ...]
    delta: tuple[int, ...] | None

    def __init__(self, representative, size, max_length, min_length, delta=None):
        super().__init__(representative, size, max_length, min_length, delta)

    @property
    def is_unique_max(self) -> bool:
        return len(self.max_length) == 1

    @property
    def is_unique_min(self) -> bool:
        return len(self.min_length) == 1

    def __len__(self):
        return self.size


_rows = attrgetter("rows")
_length_rows = attrgetter("length", "rows")


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
    """An orbit's size and its maximal and minimal strata, sorted by
    ``rows``; only the strata become ``WeylElement``s."""
    lengths = list(map(rs._length, perms))

    def stratum(ell):
        members = (WeylElement(rs, p, ell) for p, n in zip(perms, lengths) if n == ell)
        return tuple(sorted(members, key=_rows))

    return len(lengths), stratum(max(lengths)), stratum(min(lengths))


def conjugacy_class(w: WeylElement, allow_large: bool = False) -> ConjugacyClass:
    """Orbit of w under conjugation, grown by the simple-reflection generators."""
    if not allow_large:
        _order_guard(w.rs.cartan_type, lift=_LIFT)
    return ConjugacyClass(w, *_materialize(w.rs, _orbit(w.rs, w)))


def is_diagram_automorphism(rs: RootSystem, delta) -> bool:
    """True when delta (1-based index images) preserves the Cartan integers."""
    delta = tuple(delta)
    if sorted(delta) != list(range(1, rs.rank + 1)):
        return False
    c, n = rs.cartan, range(rs.rank)
    return all(c[delta[i] - 1][delta[j] - 1] == c[i][j] for i in n for j in n)


def twisted_class(w: WeylElement, delta, allow_large: bool = False) -> ConjugacyClass:
    """Orbit of w under u |-> delta(s) * u * s over the simple reflections s."""
    rs = w.rs
    delta = tuple(delta)
    if not is_diagram_automorphism(rs, delta):
        raise ValueError(f"{delta} is not a diagram automorphism of {rs.cartan_type}")
    if not allow_large:
        _order_guard(rs.cartan_type, lift=_LIFT)
    return ConjugacyClass(w, *_materialize(rs, _orbit(rs, w, delta)), delta)


def _classes(rs: RootSystem, seeds) -> tuple[ConjugacyClass, ...]:
    """The classes of the seeds, one orbit in memory at a time: an orbit
    drops the seeds it holds from those not yet placed, and only its size
    and strata are kept.  The classes are sorted by their representatives,
    their row-smallest maxima."""
    seeds = list(seeds)
    pending = {seed.perm for seed in seeds}
    classes = []
    for seed in seeds:
        if seed.perm in pending:
            found = _orbit(rs, seed)
            pending -= found
            size, maxs, mins = _materialize(rs, found)
            del found
            classes.append(ConjugacyClass(maxs[0], size, maxs, mins))
    classes.sort(key=lambda c: c.representative.rows)
    return tuple(classes)


def _subsets(n: int):
    """All subsets of 1..n, as frozensets, in binary order."""
    _rank_guard(n)
    return (frozenset(i + 1 for i in range(n) if m >> i & 1) for m in range(1 << n))


def _powers(rs: RootSystem, c):
    """c, c^2, ... short of the identity, for the perm c."""
    p = c
    while p != rs.identity.perm:
        yield p
        p = rs._mul(p, c)


def _parabolic_seeds(rs: RootSystem) -> list[WeylElement]:
    """Distinct seeds from the parabolic subgroups W_J, with c_J the product
    of the s_j, j in J, in index order: each w0J, the powers of each c_J,
    and w0J*c_K, w0J*w0K, c_J*c_K and w0J*c_K^2 over all J and K (B7, D8 and
    E7 fall short without w0J*w0K and w0J*c_K^2).  Minimal-length elements
    are cuspidal in some W_J (Geck-Pfeiffer 2000, ch. 3).  Each left factor
    p has its table p + pad, which ``rs._mul`` builds per product, once."""
    w0s = [longest_element(rs, J).perm for J in _subsets(rs.rank)]
    cs = [rs.identity.perm]
    for m in range(1, len(w0s)):  # c_J = c_(J - {j}) * s_j, j = max J
        j = m.bit_length() - 1
        cs.append(rs._right(cs[m ^ 1 << j], j))
    right_of_w0 = list(dict.fromkeys(cs + w0s + [rs._mul(c, c) for c in cs]))
    involutions = set(w0s)  # c_J = w0J when J has no edge
    pairs = [(w0, right_of_w0) for w0 in w0s]
    pairs += [(c, cs) for c in cs if c not in involutions]
    pad = bytes(256 - 2 * rs.npos)
    products = (map(bytes.translate, q, repeat(p + pad)) for p, q in pairs)
    powers = (_powers(rs, c) for c in cs if c not in involutions)
    seeds = dict.fromkeys(chain(w0s, *powers, *products))
    return [WeylElement(rs, p) for p in seeds]


def conjugacy_classes(rs: RootSystem):
    """All conjugacy classes of the Weyl group, grown from parabolic seeds.
    Classes are disjoint, so sizes that sum to |W| show that none is missed."""
    t = rs.cartan_type
    _order_guard(t)
    cached = rs._memo.get("conj_classes")
    if cached is None:
        cached = _classes(rs, _parabolic_seeds(rs))
        reached = sum(map(len, cached))
        if reached != t.weyl_order:
            raise GuardError(
                f"parabolic seeds reach {reached} of the {t.weyl_order} "
                f"elements of W({t})"
            )
        rs._memo["conj_classes"] = cached
    return cached


def involution_classes(rs: RootSystem):
    """Conjugacy classes consisting of involutions (identity class included).

    Every involution is conjugate to the longest element w0J of some
    parabolic subgroup W_J (Richardson, Bull. Austral. Math. Soc. 26, 1982),
    so the 2^rank seeds w0J give every class; the group is never enumerated.
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

    ``t[v] * u0 * t[v]^-1 = v``, set by t[s v s] = s * t[v].  The Schreier
    generators t[s v s]^-1 * s * t[v] not yet in the subgroup are added, and
    it is closed under right multiplication by them, until it has |W| /
    |class| elements.  The conjugators taking u to v are t[v] * C * t[u]^-1.
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


def _strong_component(rs: RootSystem, stratum) -> set:
    """The perms that strong-conjugation chains link to u0 = stratum[0],
    within stratum, the perms of u0's class with u0's length.

    A shift v = s*u*s != u, s simple, in the stratum is a strong step
    (Geck-Pfeiffer, Characters of Finite Coxeter Groups and Iwahori-Hecke
    Algebras, 2000, §3.2): were l(s*u) = l(u*s) = l(u) + 1, the exchange
    condition would delete a letter of u's word from s*u*s, making u*s
    shorter than u, or give v = u.  The walk takes the shifts from each
    reached perm; only if perms stay unseen is C_W(u0) built, and reached
    perms are tested in order against each unseen v, taking the shifts from
    v after each link.  A strong step's inverse steps back, so no other
    perm is linked.
    """
    conj, ranks = rs._conj, range(rs.rank)
    reached = [stratum[0]]
    unseen = set(stratum[1:])

    def shifts(start):
        for u in islice(reached, start, None):
            for i in ranks:
                v = conj(u, i, i)
                if v in unseen:
                    unseen.discard(v)
                    reached.append(v)

    shifts(0)
    if unseen:
        t, centralizer = _conjugator_cosets(rs, stratum[0])
        for u in reached:
            if not unseen:
                break
            for v in stratum:
                if v in unseen and _strongly_linked(rs, t, centralizer, u, v):
                    unseen.discard(v)
                    reached.append(v)
                    shifts(len(reached) - 1)
    return set(reached)


def property_one(rs: RootSystem, J) -> bool:
    """J is stable under the -w0 diagram symmetry and w0 agrees with the
    parabolic longest element on J."""
    J = frozenset(J)
    dp = delta0_permutation(rs)
    if {dp[i - 1] for i in J} != J:
        return False
    w0 = rs.w0
    w0J = longest_element(rs, J)
    return all(w0(rs.simple_roots[i - 1]) == w0J(rs.simple_roots[i - 1]) for i in J)


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
            if (
                b != i and dp[b - 1] == b
                and pairing(b, b) == pairing(i, i) and pairing(b, i) != 0
                and all(pairing(b, j) == 0 for j in J if j != i)
            ):
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
    return frozenset(i + 1 for i, a in enumerate(m.rs.simple_roots) if m(a) == a)


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

    w0 and each w0J grow by the rule of ``longest_element``; m_J(alpha_i) =
    w0(w0J(alpha_i)), w0(alpha_k) = -alpha_delta(k) with delta read off w0's
    images, and l(m_J) = N - l(w0J).  Type A reads its cycles off m_J(alpha_i)
    = e_m(i) - e_m(i+1); the others walk the word as ``reduced_word`` does.
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
    from_props = frozenset(subset_involution(rs, J) for J in classifying_subsets(rs))
    computed = unique_max_involutions(rs).members
    from_catalog = frozenset(
        subset_involution(rs, J) for J in catalog_subsets(rs.cartan_type)
    )
    subject = str(rs.cartan_type)
    for check, offenders in (
        ("computed-set-equals-property-enumeration", computed ^ from_props),
        ("property-enumeration-equals-catalog", from_props ^ from_catalog),
    ):
        rep.require(subject, check, "EXACT", offenders, _fmt)
    rep.add(subject, "member-count", "EXACT", len(computed) == len(from_catalog))
    return rep


def _stable_subset_classes(rs: RootSystem) -> dict:
    """Label each -w0-stable subset J of the simple roots by its class: J
    and K share a label when some x with w0 * x * w0 = x maps the simple
    roots of J onto those of K.

    Closed from elementary steps (Howlett, J. London Math. Soc. 21, 1980;
    Deodhar, Comm. Algebra 10, 1982; Steinberg, Mem. AMS 80, §11, for the
    twist): for J stable and L = J | O, O a -w0 orbit outside J, w0L * w0J
    commutes with w0 and maps J onto K = -w0L(J).  A union-find joins each
    such J and K; the group is never enumerated.
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


def _climb(rs: RootSystem, u, top: dict):
    """``top[v]`` for a perm v conjugate to u, or None: the walk searches
    u's level, what its equal-length shifts s*u*s reach, for a key of
    ``top``, and moves on from the first strict ascent, at most N times.
    Every element ascends to its maximal stratum without shortening
    (Geck-Pfeiffer 2000, §3.2), so a level with no ascent is maximal."""
    conj, length = rs._conj, rs._length
    lu = length(u)
    level, seen = [u], {u}
    for v in level:
        if v in top:
            return top[v]
        for i in range(rs.rank):
            w = conj(v, i, i)
            if w not in seen:
                seen.add(w)
                lw = length(w)
                if lw > lu:
                    return _climb(rs, w, top)
                if lw == lu:
                    level.append(w)
    return None


def verify_subset_conjugacy(t) -> Report:
    """For subsets J, K with Property (1): the attached involutions are
    conjugate exactly when some x with w0 * x * w0 = x maps J onto K.

    Conjugacy is read off the stored maxima an involution climbs to (its
    orbit is grown only where ``_climb`` stops short), the mappings off
    ``_stable_subset_classes``.  Known limit: on every type tried (A1-A8,
    B2-B6, C2-C5, D4-D8, E6-E8, F4, G2) that closure agrees with the
    untwisted one on the Property-(1) subsets, so a fault that dropped the
    symmetry condition would not show here.
    """
    rs = _suite_system(t)
    rep = Report(f"subset conjugacy {rs.cartan_type}")
    subsets = sorted(subsets_with_property_one(rs), key=sorted)
    top = {
        w.perm: k for k, c in enumerate(involution_classes(rs)) for w in c.max_length
    }
    class_of_subset = {}
    for J in subsets:
        m = subset_involution(rs, J)
        k = _climb(rs, m.perm, top)
        if k is None:
            k = next(top[p] for p in _orbit(rs, m) if p in top)
        class_of_subset[J] = k
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
    for m in sorted(unique_max_involutions(rs).members, key=_length_rows):
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
    cox = sorted(coxeter_elements(rs), key=_rows)
    subject = str(rs.cartan_type)
    for m in sorted(unique_max_involutions(rs).members, key=_length_rows):
        if not m.is_identity:
            below = (c for c in cox if not bruhat_leq(c, m))
            check = f"coxeter-elements-below m={_fmt(m)}"
            rep.require(subject, check, "EXACT", below, _fmt)
    return rep


def verify_ascent_classes(t, allow_large: bool = False) -> Report:
    """Two facts about every conjugacy class: each element admits an ascent
    chain to a maximal-length element, and all maximal-length elements are
    pairwise linked by strong-conjugation chains.

    The first holds when the reverse closure of the maxima has as many
    perms as the class; a class that fails is grown again to name the rest.
    The maxima are linked by ``_strong_component``, which builds a
    centralizer for 3 of the 25 classes of W(E6).  Classes are reported in
    the order of their labels, their row-smallest members.

    It refuses more than STRONG_CONJ_LIMIT elements unless allow_large is
    set, and more than ENUMERATION_LIMIT (in ``conjugacy_classes`` under
    allow_large) even then, so a refusal names a flag only if it helps.
    """
    t = _coerce_type(t)
    if not allow_large:
        _order_guard(t)
        cli = " (CLI: --checks ascent --allow-large)"
        _order_guard(t, STRONG_CONJ_LIMIT, _LIFT + cli)
    rs = build_root_system(t)
    rep = Report(f"ascent suite {rs.cartan_type}")
    subject = str(rs.cartan_type)
    conj, length, roots, simple = rs._conj, rs._length, rs.roots, rs.simple_index

    def rows(p):
        return tuple(zip(*(roots[p[k]] for k in simple)))

    checked = {}
    for c in conjugacy_classes(rs):
        # reverse closure: which elements reach the maximal stratum by ascents
        reached = {w.perm for w in c.max_length}
        frontier = [(w.perm, w.length) for w in c.max_length]
        while frontier:
            nxt = []
            for p, lp in frontier:
                for i in range(rs.rank):
                    q = conj(p, i, i)
                    if q not in reached:
                        lq = length(q)
                        if lq <= lp:
                            reached.add(q)
                            nxt.append((q, lq))
            frontier = nxt
        members, missed = reached, ()
        if len(reached) != len(c):
            members = _orbit(rs, c.representative)
            missed = [WeylElement(rs, p) for p in members if p not in reached]
        first = min(members, key=rows)
        checked[rows(first)] = WeylElement(rs, first), missed, c
    for key in sorted(checked):
        first, missed, c = checked[key]
        label = f"class-of-{_fmt(first)}"
        rep.require(subject, f"{label} ascent-to-maximal", "EXACT", missed, _fmt)
        # strong-conjugation connectivity on the maximal stratum
        if len(c.max_length) > 1:
            linked = _strong_component(rs, [w.perm for w in c.max_length])
            unlinked = (w for w in c.max_length if w.perm not in linked)
            check = f"{label} maxima-strongly-linked"
            rep.require(subject, check, "EXACT", unlinked, _fmt)
    return rep
