import tracemalloc
from functools import lru_cache
from itertools import islice

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from bruhatcells.conjugacy import (
    ConjugacyClass,
    _catalog_entries,
    _classes,
    _fmt,
    _orbit,
    _rotations,
    _stable_subset_classes,
    _strong_component,
    catalog_subsets,
    classifying_subsets,
    conjugacy_class,
    conjugacy_classes,
    enumerate_weyl_group,
    fixed_simple_roots,
    involution_classes,
    is_diagram_automorphism,
    property_one,
    property_two,
    subset_involution,
    subsets_with_property_one,
    twisted_class,
    unique_max_involutions,
    verify_ascent_classes,
    verify_coxeter_bound,
    verify_subset_conjugacy,
    verify_twisted_minimum,
    verify_unique_max_classification,
)
from bruhatcells.coxeter import (
    CartanType,
    RootSystem,
    WeylElement,
    bruhat_leq,
    build_root_system,
    delta0_permutation,
    longest_element,
    simple_reflection,
)
from bruhatcells import clear_caches, conjugacy
from bruhatcells.errors import GuardError
from bruhatcells.permutations import weyl_to_permutation


def cycles(w):
    return weyl_to_permutation(w).cycle_string()


def members(c):
    """The members of a class, regrown from its representative."""
    rs = c.representative.rs
    return frozenset(WeylElement(rs, p) for p in _orbit(rs, c.representative, c.delta))


def max_length_involutions(rs):
    """The maximal-length members, unique or not, of the involution classes."""
    return {m for c in involution_classes(rs) for m in c.max_length}


def _no_enumeration(rs):
    raise AssertionError(f"W({rs.cartan_type}) was enumerated")


class TestConjugacyClasses:
    def test_identity_is_singleton(self):
        rs = build_root_system("A3")
        assert len(conjugacy_class(rs.identity)) == 1

    def test_w0_central_in_b2(self):
        rs = build_root_system("B2")
        assert len(conjugacy_class(rs.w0)) == 1

    def test_transpositions_of_s4(self):
        rs = build_root_system("A3")
        c = conjugacy_class(simple_reflection(rs, 1))
        assert len(c) == 6  # one per 2-subset of {1..4}
        assert {cycles(w) for w in members(c)} == {
            "(1 2)", "(2 3)", "(3 4)", "(1 3)", "(2 4)", "(1 4)"
        }

    def test_same_set_from_any_member(self):
        for name in ["A2", "B2", "A3"]:
            rs = build_root_system(name)
            for c in conjugacy_classes(rs):
                elements = members(c)
                for v in elements:
                    assert members(conjugacy_class(v)) == elements

    def test_classes_partition_group(self):
        for name in ["A3", "B3"]:
            rs = build_root_system(name)
            classes = conjugacy_classes(rs)
            total = sum(len(c) for c in classes)
            assert total == rs.cartan_type.weyl_order
            union = set().union(*(members(c) for c in classes))
            assert len(union) == total

    @pytest.mark.parametrize("name", ["A3", "B3", "A4", "B4", "D4"])
    def test_closed_under_inverse(self, name):
        rs = build_root_system(name)
        for c in conjugacy_classes(rs):
            elements = members(c)
            for w in elements:
                assert w.inv() in elements

    def test_extremal_elements(self):
        rs = build_root_system("A2")
        c = conjugacy_class(simple_reflection(rs, 1))
        # the three transpositions: lengths 1, 1, 3, so a unique maximum
        assert sorted(w.length for w in members(c)) == [1, 1, 3]
        assert c.is_unique_max and c.max_length[0] == rs.w0
        assert len(c.min_length) == 2
        # the two 3-cycles have equal length: no unique maximum
        c3 = conjugacy_class(
            simple_reflection(rs, 1) * simple_reflection(rs, 2)
        )
        assert len(c3) == 2 and not c3.is_unique_max

    def test_max_length_equals_bruhat_maximal(self):
        for name in ["A3", "B3"]:
            rs = build_root_system(name)
            for c in conjugacy_classes(rs):
                elements = members(c)
                bruhat_maximal = {
                    w
                    for w in elements
                    if not any(v != w and bruhat_leq(w, v) for v in elements)
                }
                assert bruhat_maximal == set(c.max_length)

    def test_guard_on_e8(self):
        rs = build_root_system("E8")
        with pytest.raises(GuardError):
            conjugacy_class(rs.identity)

    def test_library_refusals_name_the_keyword_only(self):
        # no command-line path reaches these two, so they name no flag
        rs = build_root_system("E8")
        delta = tuple(range(1, 9))
        for refuse in (lambda: conjugacy_class(rs.identity),
                       lambda: twisted_class(rs.identity, delta)):
            with pytest.raises(GuardError) as caught:
                refuse()
            assert str(caught.value) == (
                "|W(E8)| = 696729600 exceeds 10000000; "
                "lift this limit with allow_large=True"
            )

    def test_e8_class_orbit_mode(self):
        # cost is proportional to the class, so E8 works under the override
        rs = build_root_system("E8")
        c = conjugacy_class(simple_reflection(rs, 1), allow_large=True)
        assert len(c) == 120  # all reflections are conjugate (simply laced)
        assert c.is_unique_max
        m = c.max_length[0]
        # consistent with the stored catalog: the unique maximum fixes the
        # rank-7 subdiagram, so its length is 120 - 63
        assert m.length == 57
        assert fixed_simple_roots(m) == frozenset(range(1, 8))
        assert frozenset(range(1, 8)) in catalog_subsets("E8")


def _breadth_first(rs):
    """The elements of W in the order of a breadth-first walk by right
    multiplication with the non-descents, one visited set over all of W."""
    right, npos = rs._right, rs.npos
    frontier = [rs.identity.perm]
    seen = set(frontier)
    out = list(frontier)
    while frontier:
        nxt = []
        for p in frontier:
            for i, k in enumerate(rs.simple_index):
                if p[k] >= npos:
                    q = right(p, i)
                    if q not in seen:
                        seen.add(q)
                        nxt.append(q)
        out.extend(nxt)
        frontier = nxt
    return out


class TestParabolicSeeds:
    """``conjugacy_classes`` grows its classes from parabolic seeds and
    checks by counting that they cover W."""

    @pytest.mark.parametrize(
        "name",
        ["A1", "A2", "A3", "A4", "A5", "A6", "A7", "B2", "B3", "B4", "B5", "C2",
         "C3", "C4", "C5", "C6", "D4", "D5", "D6", "E6", "F4", "G2"],
    )
    def test_matches_whole_group_reference(self, name):
        # fresh root systems, so no memo is shared
        rs = RootSystem(CartanType.from_string(name))
        reference = _classes(rs, tuple(enumerate_weyl_group(rs)))
        assert conjugacy_classes(RootSystem(CartanType.from_string(name))) == reference

    def test_missing_seed_family_is_a_shortfall(self, monkeypatch):
        # without the powers of c_J, F4 misses 12 of its 1152 elements
        monkeypatch.setattr(conjugacy, "_powers", lambda rs, c: ())
        rs = RootSystem(CartanType("F", 4))
        shortfall = r"reach 1140 of the 1152 elements of W\(F4\)$"
        with pytest.raises(GuardError, match=shortfall):
            conjugacy_classes(rs)
        assert "conj_classes" not in rs._memo

    def test_e6_never_enumerates(self, monkeypatch):
        monkeypatch.setattr(conjugacy, "enumerate_weyl_group", _no_enumeration)
        classes = conjugacy_classes(RootSystem(CartanType("E", 6)))
        assert (len(classes), sum(map(len, classes))) == (25, 51840)

    @pytest.mark.parametrize("name", ["A1", "A4", "B3", "D4", "G2", "F4", "E6"])
    def test_enumeration_order_is_breadth_first(self, name):
        rs = RootSystem(CartanType.from_string(name))
        walked = list(enumerate_weyl_group(rs))
        assert [w.perm for w in walked] == _breadth_first(rs)
        assert all(w.length == rs._length(w.perm) for w in walked)

    def test_enumeration_holds_no_memo(self):
        rs = RootSystem(CartanType("B", 3))
        assert len(list(enumerate_weyl_group(rs))) == 48
        assert rs._memo == {}


class TestTwistedClasses:
    def test_identity_twist_matches_plain_conjugacy(self):
        rs = build_root_system("B3")
        ident = tuple(range(1, rs.rank + 1))
        for w in islice(enumerate_weyl_group(rs), 0, None, 7):
            assert members(twisted_class(w, ident)) == members(conjugacy_class(w))

    def test_b3_delta0_is_identity_twist(self):
        rs = build_root_system("B3")
        delta = delta0_permutation(rs)
        assert delta == (1, 2, 3)
        w = simple_reflection(rs, 2)
        assert members(twisted_class(w, delta)) == members(conjugacy_class(w))

    def test_rejects_non_automorphism(self):
        rs = build_root_system("B3")
        assert not is_diagram_automorphism(rs, (3, 2, 1))  # would swap long/short
        with pytest.raises(ValueError):
            twisted_class(rs.identity, (3, 2, 1))
        with pytest.raises(ValueError):
            twisted_class(rs.identity, (1, 1, 2))

    @pytest.mark.parametrize("name", ["A2", "B2", "A3"])
    def test_w0_shift_swaps_maxima_and_minima(self, name):
        # u -> w0*u carries the maxima of a class onto the minima of the
        # twisted class of w0*w, and the whole class onto that twisted class
        rs = build_root_system(name)
        delta = delta0_permutation(rs)
        for c in conjugacy_classes(rs):
            w = c.representative
            tc = twisted_class(rs.w0 * w, delta)
            assert {rs.w0 * u for u in members(c)} == set(members(tc))
            assert {rs.w0 * u for u in c.max_length} == set(tc.min_length)


def ascent_step(w, i):
    """s_i * w * s_i when that does not decrease length, else None."""
    rs = w.rs
    v = WeylElement(rs, rs._conj(w.perm, i - 1, i - 1))
    return v if v.length >= w.length else None


def ascent_reachable(w, target):
    """Whether some chain of non-decreasing conjugation steps leads w to
    target: a forward search, where ``verify_ascent_classes`` closes the
    maximal stratum backwards."""
    seen = {w.perm}
    frontier = [w]
    while frontier:
        nxt = []
        for u in frontier:
            for i in range(1, u.rs.rank + 1):
                v = ascent_step(u, i)
                if v is not None and v.perm not in seen:
                    seen.add(v.perm)
                    nxt.append(v)
        frontier = nxt
    return target.perm in seen


class TestAscent:
    def test_identity_step_preserves(self):
        rs = build_root_system("A2")
        for i in (1, 2):
            assert ascent_step(rs.identity, i) == rs.identity

    def test_a2_transposition_steps(self):
        rs = build_root_system("A2")
        s1, s2 = rs.simple_reflections
        assert ascent_step(s1, 1) == s1            # s1*s1*s1 keeps length
        assert ascent_step(s1, 2) == rs.w0         # jumps to length 3
        assert ascent_reachable(s1, rs.w0)
        # s2 is not an ascent target of s1: conjugating by s2 overshoots and
        # coming back down is not allowed
        assert not ascent_reachable(s1, s2)

    def test_chains_stay_in_class_and_rise(self):
        rs = build_root_system("B2")
        for c in conjugacy_classes(rs):
            elements = members(c)
            for w in elements:
                for i in range(1, 3):
                    v = ascent_step(w, i)
                    if v is not None:
                        assert v.length >= w.length
                        assert v in elements

    @pytest.mark.parametrize("name", ["A3", "B3"])
    def test_every_element_ascends_to_a_maximum(self, name):
        rs = build_root_system(name)
        for c in conjugacy_classes(rs):
            top = set(c.max_length)
            for w in members(c):
                assert any(ascent_reachable(w, m) for m in top)


def same_length_stratum(rs, u):
    """u, then the other members of its class with its length."""
    orbit = _orbit(rs, WeylElement(rs, u))
    return [u] + [v for v in orbit if v != u and rs._length(v) == rs._length(u)]


class TestStrongConjugation:
    def test_reflexive_via_identity(self):
        # the prefix a = e rotates u to itself
        rs = build_root_system("A2")
        s1 = simple_reflection(rs, 1).perm
        assert s1 in set(_rotations(rs, s1))
        assert _strong_component(rs, [s1]) == {s1}

    def test_length_mismatch_fails(self):
        rs = build_root_system("A2")
        s1 = simple_reflection(rs, 1)
        stratum = same_length_stratum(rs, s1.perm)
        assert rs.w0.perm not in _strong_component(rs, stratum)

    def test_links_equal_length_maxima(self):
        rs = build_root_system("A2")
        s1, s2 = rs.simple_reflections
        stratum = same_length_stratum(rs, (s1 * s2).perm)
        assert (s2 * s1).perm in _strong_component(rs, stratum)

    @pytest.mark.parametrize("name", ["A2", "B2", "A3", "B3"])
    def test_maxima_pairwise_linked(self, name):
        rs = build_root_system(name)
        for c in conjugacy_classes(rs):
            tops = [u.perm for u in c.max_length]
            for u in tops:
                stratum = [u] + [v for v in tops if v != u]
                assert _strong_component(rs, stratum) == set(tops)


class TestInvolutionClasses:
    @pytest.mark.parametrize(
        "name",
        ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C2", "C3", "C4",
         "D4", "D5", "F4", "G2", "E6"],
    )
    def test_seeded_orbits_match_whole_group_partition(self, name):
        # fresh root systems, so the cached ones keep no enumerated group
        rs = RootSystem(CartanType.from_string(name))
        invs = [w for w in enumerate_weyl_group(rs) if w.is_involution()]
        reference = _classes(rs, invs)
        classes = involution_classes(RootSystem(CartanType.from_string(name)))
        assert classes == reference
        # the members, regrown, against conjugation by every element of W
        mul, inverse = rs._mul, rs._inverse
        group = [g.perm for g in enumerate_weyl_group(rs)]
        partition = set()
        for w in invs:
            if not any(w.perm in part for part in partition):
                partition.add(frozenset(mul(mul(g, w.perm), inverse(g)) for g in group))
        assert {frozenset(_orbit(rs, c.representative)) for c in classes} == partition

    def test_classes_hold_no_members(self):
        # B8 has 32,400 involutions in 25 classes; with a frozenset of
        # every member per class, the classes held 8.7 MB
        rs = RootSystem(CartanType("B", 8))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            classes = involution_classes(rs)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert sum(map(len, classes)) == 32400
        assert held <= 2**20

    def test_group_is_not_enumerated(self, monkeypatch):
        monkeypatch.setattr(conjugacy, "enumerate_weyl_group", _no_enumeration)
        rs = RootSystem(CartanType("E", 6))
        classes = involution_classes(rs)
        assert sum(len(c) for c in classes) == 892

    def test_rank_guard(self):
        # the classes are grown from 2^rank seeds; E8 is admitted, rank 10 not
        with pytest.raises(GuardError, match="rank 10 > 9"):
            involution_classes(RootSystem(CartanType("A", 10)))


def _count_orbits(monkeypatch):
    """Record the seed of each ``_orbit`` call, i.e. each orbit grown."""
    grown = []
    orbit = conjugacy._orbit

    def counted(rs, seed, delta=None):
        grown.append(seed)
        return orbit(rs, seed, delta)

    monkeypatch.setattr(conjugacy, "_orbit", counted)
    return grown


class TestClimb:
    """``verify_subset_conjugacy`` finds each involution m_J among the
    stored maxima, and grows an orbit only where the lookup misses."""

    @pytest.mark.parametrize(
        "name",
        ["A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "B2", "B3", "B4", "B5",
         "B6", "B7", "B8", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "D4", "D5",
         "D6", "D7", "D8", "E6", "E7", "F4", "G2"],
    )
    def test_no_orbit_is_grown(self, name, monkeypatch):
        involution_classes(build_root_system(name))  # their orbits not counted
        grown = _count_orbits(monkeypatch)
        assert verify_subset_conjugacy(name).passed
        assert grown == []

    @pytest.mark.parametrize(
        "name,fallbacks", [("B3", 1), ("B4", 3), ("D4", 3), ("F4", 4)]
    )
    def test_stripped_strata_fall_back_to_orbits(self, name, fallbacks, monkeypatch):
        # with one maximum kept per class, some m_J are no stored key; the
        # orbits grown for them give the same report
        rs = build_root_system(name)
        want = verify_subset_conjugacy(name).to_text()
        stripped = tuple(
            ConjugacyClass(c.representative, len(c), c.max_length[:1], c.min_length)
            for c in involution_classes(rs)
        )
        monkeypatch.setitem(rs._memo, "inv_classes", stripped)
        grown = _count_orbits(monkeypatch)
        assert verify_subset_conjugacy(name).to_text() == want
        assert len(grown) == fallbacks


@pytest.mark.parametrize(
    "function,key,name,refusal",
    [
        (conjugacy_classes, "conj_classes", "E8", "696729600"),
        (involution_classes, "inv_classes", "A10", "rank 10 > 9"),
        (subsets_with_property_one, "subsets", "A10", "rank 10 > 9"),
        (classifying_subsets, "subsets", "A10", "rank 10 > 9"),
    ],
)
def test_guard_verdict_does_not_depend_on_the_memo(function, key, name, refusal):
    rs = RootSystem(CartanType.from_string(name))
    with pytest.raises(GuardError, match=refusal):
        function(rs)
    # a warm memo must not get past the guard
    rs._memo[key] = ()
    with pytest.raises(GuardError, match=refusal):
        function(rs)


@pytest.mark.parametrize("name", ["E8", "B8", "C8", "A10"])
@pytest.mark.parametrize("allow_large", [False, True])
def test_ascent_past_the_ceiling_is_refused_naming_no_flag(name, allow_large):
    order = CartanType.from_string(name).weyl_order
    with pytest.raises(GuardError) as caught:
        verify_ascent_classes(name, allow_large=allow_large)
    assert str(caught.value) == f"|W({name})| = {order} exceeds 10000000"


class TestMaximalSets:
    def test_a3_members(self):
        rs = build_root_system("A3")
        M = unique_max_involutions(rs)
        assert {cycles(m) for m in M.members} == {"e", "(1 4)", "(1 4)(2 3)"}
        assert len(M) == 3

    def test_g2_has_four(self):
        assert len(unique_max_involutions(build_root_system("G2"))) == 4

    @pytest.mark.parametrize("name", ["A3", "B3", "D4", "G2", "F4"])
    def test_members_are_involutions(self, name):
        rs = build_root_system(name)
        for m in unique_max_involutions(rs).members:
            assert m.is_involution()

    @pytest.mark.parametrize("name", ["A2", "A3", "A4", "B2", "B3", "B4", "D4", "G2"])
    def test_involution_scan_matches_exhaustive_scan(self, name):
        rs = build_root_system(name)
        fast = unique_max_involutions(rs).members
        slow = {c.max_length[0] for c in conjugacy_classes(rs) if c.is_unique_max}
        assert fast == slow

    @pytest.mark.parametrize("name", ["A3", "B3", "B4", "D4"])
    def test_unique_subset_of_maximal(self, name):
        rs = build_root_system(name)
        M = unique_max_involutions(rs).members
        assert M <= max_length_involutions(rs)

    @pytest.mark.parametrize("name", ["A3", "B3", "B4", "D4"])
    def test_maximal_involutions_come_from_admissible_subsets(self, name):
        rs = build_root_system(name)
        admissible = subsets_with_property_one(rs)
        for m in max_length_involutions(rs):
            J = fixed_simple_roots(m)
            assert J in admissible
            assert subset_involution(rs, J) == m

    @pytest.mark.parametrize("name", ["A3", "B3", "B4"])
    def test_bijection_with_admissible_subsets(self, name):
        rs = build_root_system(name)
        Mp = max_length_involutions(rs)
        admissible = subsets_with_property_one(rs)
        image = {fixed_simple_roots(m) for m in Mp}
        assert image == admissible
        assert len(Mp) == len(admissible)

    def test_b3_strictly_bigger_maximal_set(self):
        rs = build_root_system("B3")
        assert len(max_length_involutions(rs)) > len(unique_max_involutions(rs))


class TestProperties:
    def test_trivial_subsets(self):
        for name in ["A3", "B3", "G2"]:
            rs = build_root_system(name)
            full = frozenset(range(1, rs.rank + 1))
            assert property_one(rs, frozenset())
            assert property_one(rs, full)
            assert property_two(rs, frozenset())
            assert property_two(rs, full)

    def test_a3_middle_vs_edge(self):
        rs = build_root_system("A3")
        assert property_one(rs, {2})
        assert not property_one(rs, {1})
        assert property_two(rs, {2})

    def test_b2_singletons(self):
        rs = build_root_system("B2")
        # both simple roots give valid subsets: the lengths differ, so no
        # exchange partner exists
        for J in ({1}, {2}):
            assert property_one(rs, J)
            assert property_two(rs, J)

    def test_b3_edge_root_obstructed(self):
        rs = build_root_system("B3")
        assert property_one(rs, {1})
        assert not property_two(rs, {1})  # alpha_2 is an exchange partner

    def test_nesting(self):
        for name in ["A4", "B3", "D4", "F4", "G2"]:
            rs = build_root_system(name)
            assert classifying_subsets(rs) <= subsets_with_property_one(rs)

    def test_property_one_runs_once_per_subset(self, monkeypatch):
        # classifying_subsets filters the memoised Property (1) subsets
        calls = []

        def counting(rs, J):
            calls.append(J)
            return property_one(rs, J)

        monkeypatch.setattr(conjugacy, "property_one", counting)
        rs = RootSystem(CartanType.from_string("E6"))
        assert classifying_subsets(rs) <= subsets_with_property_one(rs)
        assert classifying_subsets(rs) == catalog_subsets("E6")
        assert len(calls) == 2**6


class TestSubsetInvolutionMaps:
    def test_trivial_values(self):
        rs = build_root_system("A3")
        assert subset_involution(rs, range(1, 4)) == rs.identity
        assert subset_involution(rs, []) == rs.w0

    def test_a3_middle_gives_long_transposition(self):
        rs = build_root_system("A3")
        assert cycles(subset_involution(rs, {2})) == "(1 4)"

    def test_fixed_points_invert_on_classifying_subsets(self):
        for name in ["A4", "B3", "D4"]:
            rs = build_root_system(name)
            for J in classifying_subsets(rs):
                assert fixed_simple_roots(subset_involution(rs, J)) == J

    def test_fixed_simple_roots_requires_involution(self):
        rs = build_root_system("A2")
        s1, s2 = rs.simple_reflections
        with pytest.raises(ValueError):
            fixed_simple_roots(s1 * s2)

    def test_length_complementary_to_parabolic(self):
        rs = build_root_system("B3")
        for J in subsets_with_property_one(rs):
            m = subset_involution(rs, J)
            assert m.length == rs.w0.length - longest_element(rs, J).length


class TestCatalog:
    @pytest.mark.parametrize(
        "name,total",
        [("A3", 3), ("A4", 3), ("B4", 7), ("B5", 8), ("C4", 7), ("D4", 6),
         ("D5", 5), ("D6", 8), ("E6", 4), ("E7", 6), ("E8", 5), ("F4", 5), ("G2", 4)],
    )
    def test_sizes(self, name, total):
        assert len(catalog_subsets(name)) == total

    def test_a4_single_nontrivial(self):
        nontrivial = [J for J in catalog_subsets("A4") if 0 < len(J) < 4]
        assert nontrivial == [frozenset({2, 3})]

    def test_b4_entries(self):
        cat = {tuple(sorted(J)) for J in catalog_subsets("B4")}
        assert cat == {
            (), (1, 2, 3, 4), (2, 3, 4), (3, 4), (4,), (1, 3, 4), (1, 3),
        }

    @pytest.mark.parametrize(
        "name", ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C2", "C3",
                 "D4", "D5", "F4", "G2"]
    )
    def test_catalog_matches_property_enumeration(self, name):
        rs = build_root_system(name)
        assert catalog_subsets(name) == classifying_subsets(rs)

    @pytest.mark.parametrize("name", ["B6", "B7", "C6", "D6", "D7", "D8",
                                      "E6", "E7", "E8", "A7", "A8"])
    def test_catalog_matches_enumeration_without_group_enumeration(self, name):
        # the property filters need only the root system, so even the large
        # types are cheap to cross-check against the stored catalog
        rs = build_root_system(name)
        assert catalog_subsets(name) == classifying_subsets(rs)

    @pytest.mark.parametrize(
        "name",
        [f"A{n}" for n in range(1, 16)]
        + [f"{f}{n}" for f in "BC" for n in range(2, 12)]
        + [f"D{n}" for n in range(4, 12)]
        + ["E6", "E7", "E8", "F4", "G2"],
    )
    def test_walk_on_simple_root_images_matches_weyl_elements(self, name):
        # every type with at most 256 roots and rank <= 11: the catalog's
        # image walk against w0 * w0J as a WeylElement on the root system
        rs = build_root_system(name)
        assert rs.cartan_type.positive_root_count == rs.npos
        want = []
        for J in sorted(catalog_subsets(name), key=lambda J: (len(J), sorted(J))):
            m = subset_involution(rs, J)
            want.append({"subset": sorted(J), "element": _fmt(m), "length": m.length})
        assert _catalog_entries(name) == want


class TestVerificationSuites:
    @pytest.mark.parametrize("name", ["A1", "A3", "B3", "C3", "D4", "G2", "F4"])
    def test_classification(self, name):
        assert verify_unique_max_classification(name).passed

    @pytest.mark.parametrize("name", ["A2", "A3", "B3"])
    def test_subset_conjugacy(self, name):
        assert verify_subset_conjugacy(name).passed

    def test_subset_conjugacy_rank_guard(self):
        # the suite is bounded by the rank alone: A9, refused at any |W|
        # before, passes, and rank 10 is refused
        try:
            assert verify_subset_conjugacy("A9").passed
        finally:
            clear_caches()
        with pytest.raises(GuardError, match="rank 10 > 9"):
            verify_subset_conjugacy("A10")

    @pytest.mark.parametrize(
        "name,proper",
        [("A3", True), ("A4", True), ("A5", True), ("D5", True), ("E6", True),
         ("B3", False), ("D4", False)],
    )
    def test_symmetric_elements_are_the_centralizer_of_w0(self, name, proper):
        # the -w0-symmetric elements, w0*x*w0 = x, that the reference of
        # TestStableSubsetClasses maps J with, are the centralizer of w0:
        # |C_W(w0)| * |class of w0| = |W|; a proper subgroup exactly when
        # w0 is not -1
        rs = RootSystem(CartanType.from_string(name))
        group = {w.perm for w in enumerate_weyl_group(rs)}
        symmetric = _symmetric(rs, group)
        assert len(symmetric) * len(_orbit(rs, rs.w0)) == len(group)
        assert (symmetric < group) == proper

    def test_subset_conjugacy_identity_pairs(self):
        rep = verify_subset_conjugacy("B3")
        assert rep.passed
        # subsets of different sizes are never conjugate and never mapped
        rs = build_root_system("B3")
        sizes = {len(J) for J in subsets_with_property_one(rs)}
        assert len(sizes) > 1  # the check above actually exercised that case

    @pytest.mark.parametrize("name", ["A3", "B3", "G2"])
    def test_twisted_minimum(self, name):
        assert verify_twisted_minimum(name).passed

    @pytest.mark.parametrize("name", ["A2", "A3", "B3"])
    def test_coxeter_bound(self, name):
        assert verify_coxeter_bound(name).passed

    @pytest.mark.parametrize(
        "suite",
        [
            verify_unique_max_classification,
            verify_coxeter_bound,
            verify_subset_conjugacy,
            verify_twisted_minimum,
        ],
    )
    def test_rank_guard_refuses_before_classes_are_built(self, suite, monkeypatch):
        # the involution-side suites stop at rank 9; A10 has to be refused
        # before its root system, let alone its involution classes, is built
        def no_build(t):
            raise AssertionError(f"built the root system of {t}")

        monkeypatch.setattr(conjugacy, "build_root_system", no_build)
        with pytest.raises(GuardError, match="rank 10 > 9"):
            suite("A10")

    @pytest.mark.parametrize("name", ["A2", "A3", "B3", "G2"])
    def test_ascent_suite(self, name):
        assert verify_ascent_classes(name).passed

    def test_ascent_guard(self, monkeypatch):
        # |W(E6)| = 51840 is above STRONG_CONJ_LIMIT; the refusal comes
        # before any class is built
        def no_classes(*args, **kwargs):
            raise AssertionError("the classes of W(E6) were requested")

        monkeypatch.setattr(conjugacy, "conjugacy_classes", no_classes)
        with pytest.raises(GuardError, match="10000"):
            verify_ascent_classes("E6")

    def test_report_shape(self):
        rep = verify_unique_max_classification("A2")
        assert rep.passed
        d = rep.to_dict()
        assert d["passed"] and d["results"]
        assert all(r["kind"] == "EXACT" for r in d["results"])
        assert "result: pass" in rep.to_text()


# the types with |W| <= 10^4, where the reference below is cheap
SMALL_TYPES = ["A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "B5",
               "C2", "C3", "C4", "C5", "D4", "D5", "F4", "G2"]


def _orbits(rs):
    """The orbits of the -w0 symmetry on the simple roots."""
    delta = delta0_permutation(rs)
    return sorted(
        {frozenset((i, delta[i - 1])) for i in range(1, rs.rank + 1)}, key=min
    )


@st.composite
def stable_subsets(draw, rs):
    orbits = _orbits(rs)
    picks = draw(st.lists(st.booleans(), min_size=len(orbits), max_size=len(orbits)))
    return frozenset().union(*(O for O, pick in zip(orbits, picks) if pick))


def _symmetric(rs, group):
    """The perms p of group with w0 * p * w0 = p."""
    w0, mul = rs.w0.perm, rs._mul
    return {p for p in group if mul(mul(w0, p), w0) == p}


@lru_cache(maxsize=None)
def _symmetric_images(name):
    """J -> the sets of root indices that the -w0-symmetric elements, taken
    from all of W, map the simple roots of J onto."""
    rs = build_root_system(name)
    symmetric = _symmetric(rs, (w.perm for w in enumerate_weyl_group(rs)))
    simple = rs.simple_index
    return {
        J: {frozenset(p[simple[j - 1]] for j in J) for p in symmetric}
        for J in _stable_subset_classes(rs)
    }


class TestStableSubsetClasses:
    @given(st.data())
    def test_elementary_step(self, data):
        # x = w0L * w0J commutes with w0 and maps J onto a stable K, which
        # the closure and the centralizer reference both join to J
        name = data.draw(st.sampled_from(SMALL_TYPES))
        rs = build_root_system(name)
        J = data.draw(stable_subsets(rs))
        outside = [O for O in _orbits(rs) if not O <= J]
        assume(outside)
        O = data.draw(st.sampled_from(outside))
        x = longest_element(rs, J | O) * longest_element(rs, J)
        assert rs.w0 * x * rs.w0 == x
        images = {x(rs.simple_roots[j - 1]) for j in J}
        assert images <= set(rs.simple_roots)
        K = frozenset(i + 1 for i, a in enumerate(rs.simple_roots) if a in images)
        delta = delta0_permutation(rs)
        assert {delta[k - 1] for k in K} == K
        label = _stable_subset_classes(rs)
        assert label[J] == label[K]
        roots_K = frozenset(rs.simple_index[k - 1] for k in K)
        assert roots_K in _symmetric_images(name)[J]

    @pytest.mark.parametrize("name", SMALL_TYPES)
    def test_closure_matches_centralizer_reference_on_every_pair(self, name):
        rs = build_root_system(name)
        label = _stable_subset_classes(rs)
        images = _symmetric_images(name)
        for J in label:
            for K in label:
                roots_K = frozenset(rs.simple_index[k - 1] for k in K)
                assert (label[J] == label[K]) == (roots_K in images[J])

    @pytest.mark.parametrize(
        "name,subsets,classes", [("E6", 16, 12), ("E7", 128, 32), ("E8", 256, 41)]
    )
    def test_class_counts(self, name, subsets, classes):
        # E7 and E8 have w0 = -1, so every subset is stable and the classes
        # are those of the parabolic subgroups: 41 for W(E8)
        rs = RootSystem(CartanType.from_string(name))
        label = _stable_subset_classes(rs)
        assert len(label) == subsets
        assert len(set(label.values())) == classes
        assert "inv_classes" not in rs._memo
