import inspect
import itertools
import sys

import pytest

from bruhatcells import clear_caches, oracle, sl_criteria
from bruhatcells.coxeter import (
    CartanType,
    RootSystem,
    bruhat_leq,
    build_root_system,
    coxeter_elements,
    delta0_on_root,
    delta0_permutation,
    element_to_word_str,
    longest_element,
    reduced_word,
    simple_reflection,
    word_to_element,
)
from bruhatcells.conjugacy import enumerate_weyl_group, involution_classes
from bruhatcells.errors import GuardError
from bruhatcells.oracle import intersection_table, validate_class
from bruhatcells.sl_criteria import (
    JordanClass,
    bruhat_lower_set,
    closure_monotonicity,
)


def subword_lower_set(w):
    """Independent Bruhat oracle: all products of subwords of one fixed
    reduced word of w (built by the subset-product closure)."""
    rs = w.rs
    reachable = {rs.identity}
    for i in reduced_word(w):
        reachable |= {u * simple_reflection(rs, i) for u in reachable}
    return reachable


class TestCartanType:
    def test_parse_and_str(self):
        t = CartanType.from_string("B4")
        assert (t.family, t.rank) == ("B", 4)
        assert str(t) == "B4"

    @pytest.mark.parametrize("bad", ["H3", "I2", "E9", "E5", "D3", "B1", "F3", "G4", "A0"])
    def test_invalid_types_rejected(self, bad):
        with pytest.raises(ValueError):
            CartanType.from_string(bad)

    @pytest.mark.parametrize(
        "name,order",
        [("A3", 24), ("B3", 48), ("C4", 384), ("D4", 192), ("G2", 12),
         ("F4", 1152), ("E6", 51840), ("E7", 2903040), ("E8", 696729600)],
    )
    def test_weyl_orders(self, name, order):
        assert CartanType.from_string(name).weyl_order == order


class TestRootSystem:
    @pytest.mark.parametrize(
        "name,count",
        [("A2", 6), ("G2", 12), ("B3", 18), ("A3", 12), ("C3", 18),
         ("D4", 24), ("F4", 48), ("E6", 72), ("A1", 2)],
    )
    def test_root_counts(self, name, count):
        rs = build_root_system(name)
        assert len(rs.roots) == count
        assert len(rs.positive_roots) * 2 == count
        negatives = {tuple(-v for v in r) for r in rs.positive_roots}
        assert set(rs.roots) == set(rs.positive_roots) | negatives

    def test_cartan_integers_bounded(self):
        for name in ["A3", "B3", "C3", "D4", "F4", "G2"]:
            rs = build_root_system(name)
            for row in rs.cartan:
                assert set(row) <= {0, 1, -1, 2, -2, 3, -3}

    def test_pairing_normalization(self):
        rs = build_root_system("B3")
        norms = [rs.pair(a, a) for a in rs.simple_roots]
        assert norms == [4, 4, 2]
        rs = build_root_system("G2")
        assert [rs.pair(a, a) for a in rs.simple_roots] == [2, 6]
        rs = build_root_system("A3")
        assert {rs.pair(r, r) for r in rs.roots} == {2}

    def test_instances_cached(self):
        assert build_root_system("A3") is build_root_system(CartanType("A", 3))

    def test_clear_caches(self):
        held = build_root_system("A3")
        classes = involution_classes(held)
        transvection = JordanClass(2, [("u", (2,))], {"u": 1})
        bruhat_lower_set(transvection)
        closure_monotonicity(transvection, transvection)
        validate_class(transvection, 3, intersection_table(transvection, 3))
        caches = [
            sl_criteria._lower_set,
            oracle._support_plan,
            oracle._off_diagonal,
            oracle._cycle_conjugation,
            oracle._column_reversal,
            oracle._cycle_type_classes,
        ]
        assert held._memo and all(f.cache_info().currsize for f in caches)
        clear_caches()
        assert not held._memo
        assert not any(f.cache_info().currsize for f in caches)
        fresh = build_root_system("A3")
        assert fresh is not held
        assert involution_classes(fresh) == classes


class TestSimpleReflections:
    def test_a2_action(self):
        rs = build_root_system("A2")
        s1 = simple_reflection(rs, 1)
        assert s1(rs.simple_roots[0]) == (-1, 0)
        assert s1(rs.simple_roots[1]) == (1, 1)

    def test_involutive_with_length_one(self):
        for name in ["A3", "B2", "G2"]:
            rs = build_root_system(name)
            for i in range(1, rs.rank + 1):
                s = simple_reflection(rs, i)
                assert s.length == 1
                assert (s * s).is_identity

    def test_index_out_of_range(self):
        rs = build_root_system("A2")
        with pytest.raises(ValueError):
            simple_reflection(rs, 3)
        with pytest.raises(ValueError):
            simple_reflection(rs, 0)


class TestGroupLaws:
    def test_braid_relation_a2(self):
        rs = build_root_system("A2")
        s1, s2 = rs.simple_reflections
        assert ((s1 * s2) * (s1 * s2) * (s1 * s2)).is_identity

    def test_inverse(self):
        rs = build_root_system("B3")
        for w in itertools.islice(enumerate_weyl_group(rs), 0, 48, 5):
            assert (w * w.inv()).is_identity
            assert (w.inv() * w).is_identity

    def test_w0_involutive(self):
        for name in ["A3", "B3", "D4", "G2"]:
            rs = build_root_system(name)
            assert (rs.w0 * rs.w0).is_identity

    def test_mismatched_systems_rejected(self):
        a = build_root_system("A2").w0
        b = build_root_system("B2").w0
        with pytest.raises(ValueError):
            a * b


class TestLength:
    def test_examples(self):
        rs = build_root_system("A3")
        assert rs.identity.length == 0
        assert rs.w0.length == 6
        rs2 = build_root_system("A2")
        s1, s2 = rs2.simple_reflections
        assert (s1 * s2).length == 2

    def test_length_of_inverse(self):
        rs = build_root_system("B3")
        for w in enumerate_weyl_group(rs):
            assert w.length == w.inv().length

    def test_simple_multiplication_changes_length_by_one(self):
        for name in ["A3", "B3"]:
            rs = build_root_system(name)
            for w in enumerate_weyl_group(rs):
                for i in range(1, rs.rank + 1):
                    s = simple_reflection(rs, i)
                    assert abs((s * w).length - w.length) == 1
                    assert abs((w * s).length - w.length) == 1

    def test_counts_inverted_positive_roots(self):
        rs = build_root_system("B2")
        for w in enumerate_weyl_group(rs):
            inverted = sum(
                1 for a in rs.positive_roots if any(v < 0 for v in w(a))
            )
            assert inverted == w.length


class TestLongestElements:
    def test_trivial_cases(self):
        rs = build_root_system("A3")
        assert longest_element(rs, []).is_identity
        assert longest_element(rs).length == 6

    def test_matches_brute_force_over_parabolic(self):
        # oracle: enumerate W_J by closure under its own generators
        rs = build_root_system("B3")
        for J in [{2, 3}, {1, 2}, {1, 3}, {1}, {3}]:
            gens = [simple_reflection(rs, i) for i in J]
            group = {rs.identity}
            frontier = [rs.identity]
            while frontier:
                nxt = []
                for w in frontier:
                    for s in gens:
                        v = w * s
                        if v not in group:
                            group.add(v)
                            nxt.append(v)
                frontier = nxt
            best = max(group, key=lambda w: w.length)
            assert longest_element(rs, J) == best

    def test_a3_subset_length_three(self):
        rs = build_root_system("A3")
        assert longest_element(rs, {2, 3}).length == 3

    def test_parabolic_invariants(self):
        for name in ["A3", "B3"]:
            rs = build_root_system(name)
            pos = set(rs.positive_roots)
            for r in range(rs.rank + 1):
                for J in itertools.combinations(range(1, rs.rank + 1), r):
                    w0j = longest_element(rs, J)
                    span = {
                        r
                        for r in pos
                        if all(r[j] == 0 or j + 1 in J for j in range(rs.rank))
                    }
                    assert w0j.length == len(span)
                    assert {w0j(a) for a in span} == {
                        tuple(-v for v in a) for a in span
                    }
                    rest = pos - span
                    assert {w0j(a) for a in rest} == rest

    def test_bad_index_rejected(self):
        rs = build_root_system("A2")
        with pytest.raises(ValueError):
            longest_element(rs, {5})


class TestBruhatOrder:
    def test_identity_below_everything(self):
        rs = build_root_system("B2")
        for w in enumerate_weyl_group(rs):
            assert bruhat_leq(rs.identity, w)

    def test_simple_subword_case(self):
        rs = build_root_system("A2")
        s1 = simple_reflection(rs, 1)
        assert bruhat_leq(s1, rs.w0)
        assert not bruhat_leq(rs.w0, s1)

    @pytest.mark.parametrize("name", ["A3", "B3"])
    def test_agrees_with_subword_oracle(self, name):
        rs = build_root_system(name)
        elements = enumerate_weyl_group(rs)
        for w in elements:
            lower = subword_lower_set(w)
            for u in elements:
                assert bruhat_leq(u, w) == (u in lower), (u, w)

    def test_partial_order_axioms(self):
        for name in ["A3", "B3"]:
            rs = build_root_system(name)
            elements = enumerate_weyl_group(rs)
            leq = {
                (u.rows, w.rows): bruhat_leq(u, w)
                for u in elements
                for w in elements
            }
            for u in elements:
                assert leq[(u.rows, u.rows)]
            for u in elements:
                for w in elements:
                    if leq[(u.rows, w.rows)] and leq[(w.rows, u.rows)]:
                        assert u == w
                    if leq[(u.rows, w.rows)] and u != w:
                        assert u.length < w.length
            rows = [w.rows for w in elements]
            for a in rows:
                for b in rows:
                    if not leq[(a, b)]:
                        continue
                    for c in rows:
                        if leq[(b, c)]:
                            assert leq[(a, c)]

    def test_w0_is_unique_maximum(self):
        for name in ["A3", "B3"]:
            rs = build_root_system(name)
            for w in enumerate_weyl_group(rs):
                assert bruhat_leq(w, rs.w0)
                if w != rs.w0:
                    assert not bruhat_leq(rs.w0, w)

    def test_long_descent_chain_needs_no_recursion(self):
        # the lifting recursion is 121 steps deep in C11, as deep as it gets
        # in a system of at most 256 roots; with the recursion limit 50
        # frames above this one, only a loop gets through.  A fresh root
        # system keeps its Bruhat memo out of the shared cache.
        rs = RootSystem(CartanType("C", 11))
        w0 = rs.w0
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 50)
        try:
            assert bruhat_leq(rs.identity, w0)
            assert not bruhat_leq(w0, rs.identity)
        finally:
            sys.setrecursionlimit(limit)

    def test_mismatched_systems_rejected(self):
        with pytest.raises(ValueError):
            bruhat_leq(build_root_system("A2").w0, build_root_system("B2").w0)


class TestDelta0:
    def test_type_a_reverses_diagram(self):
        for n in [2, 3, 4, 5]:
            rs = build_root_system(f"A{n}")
            assert delta0_permutation(rs) == tuple(n + 1 - i for i in range(1, n + 1))

    def test_minus_one_types_give_identity(self):
        for name in ["B2", "B4", "C3", "D4", "G2", "F4"]:
            rs = build_root_system(name)
            assert delta0_permutation(rs) == tuple(range(1, rs.rank + 1))

    def test_d5_and_e6_flip(self):
        assert delta0_permutation(build_root_system("D5")) == (1, 2, 3, 5, 4)
        assert delta0_permutation(build_root_system("E6")) == (6, 2, 5, 4, 3, 1)

    def test_involutive_on_roots_and_elements(self):
        rs = build_root_system("A3")
        for a in rs.roots:
            assert delta0_on_root(rs, delta0_on_root(rs, a)) == a
        w0 = rs.w0
        for w in enumerate_weyl_group(rs):
            assert w0 * (w0 * w * w0) * w0 == w

    def test_automorphism(self):
        rs = build_root_system("A3")
        w0 = rs.w0
        ws = enumerate_weyl_group(rs)
        for u in ws[::5]:
            for v in ws[::7]:
                assert w0 * (u * v) * w0 == (w0 * u * w0) * (w0 * v * w0)

    def test_preserves_pairing_on_simples(self):
        for name in ["A4", "D5", "E6", "B3"]:
            rs = build_root_system(name)
            dp = delta0_permutation(rs)
            for i in range(rs.rank):
                for j in range(rs.rank):
                    assert rs.pair(rs.simple_roots[i], rs.simple_roots[j]) == rs.pair(
                        rs.simple_roots[dp[i] - 1], rs.simple_roots[dp[j] - 1]
                    )


class TestReducedWords:
    def test_examples(self):
        rs = build_root_system("A2")
        assert reduced_word(rs.identity) == ()
        assert reduced_word(simple_reflection(rs, 2)) == (2,)
        word = reduced_word(rs.w0)
        assert len(word) == 3
        assert word_to_element(rs, word) == rs.w0

    @pytest.mark.parametrize("name", ["A3", "B3"])
    def test_roundtrip_whole_group(self, name):
        rs = build_root_system(name)
        for w in enumerate_weyl_group(rs):
            word = reduced_word(w)
            assert len(word) == w.length
            assert word_to_element(rs, word) == w

    def test_string_serialization(self):
        rs = build_root_system("B3")
        for w in enumerate_weyl_group(rs)[::5]:
            text = element_to_word_str(w)
            word = () if text == "e" else tuple(map(int, text.split()))
            assert word == reduced_word(w)
            assert word_to_element(rs, word) == w
        assert element_to_word_str(rs.identity) == "e"


def ordering_products(rs):
    """Reference: the products of the simple reflections in each of the
    rank! orderings, deduplicated."""
    out = set()
    for order in itertools.permutations(range(1, rs.rank + 1)):
        out.add(word_to_element(rs, order))
    return frozenset(out)


class TestCoxeterElements:
    @pytest.mark.parametrize(
        "name",
        ["A1", "A2", "A5", "A8", "B4", "B8", "C5", "C8", "D4", "D5", "D6", "D8",
         "E6", "E7", "E8", "F4", "G2"],
    )
    def test_orientations_give_every_ordering_product(self, name):
        rs = build_root_system(name)
        got = coxeter_elements(rs)
        assert got == ordering_products(rs)
        assert {c.length for c in got} == {rs.rank}

    def test_a2_exactly_two(self):
        rs = build_root_system("A2")
        s1, s2 = rs.simple_reflections
        assert coxeter_elements(rs) == frozenset({s1 * s2, s2 * s1})

    @pytest.mark.parametrize("name", ["A2", "A3", "B3", "D4", "G2", "A4"])
    def test_count_matches_orientation_formula(self, name):
        # the diagram is a tree, so products of the generators in all orders
        # give exactly 2^(rank-1) distinct elements
        rs = build_root_system(name)
        assert len(coxeter_elements(rs)) == 2 ** (rs.rank - 1)

    def test_all_have_full_support_length(self):
        rs = build_root_system("B3")
        assert {c.length for c in coxeter_elements(rs)} == {3}


class TestActionOnRoots:
    @pytest.mark.parametrize("name", ["A3", "B2", "G2"])
    def test_permutes_the_root_set(self, name):
        rs = build_root_system(name)
        roots = set(rs.roots)
        for w in enumerate_weyl_group(rs):
            assert {w(a) for a in roots} == roots


class TestGuards:
    def test_e8_enumeration_refused(self):
        rs = build_root_system("E8")
        with pytest.raises(GuardError):
            enumerate_weyl_group(rs)

    def test_e8_root_system_still_builds(self):
        rs = build_root_system("E8")
        assert len(rs.roots) == 240
        assert rs.w0.length == 120
