import copy
import json
import pickle

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from bruhatcells.partitions import Partition, cycle_type, dominance_leq, partitions_of
from bruhatcells.permutations import (
    Permutation,
    all_permutations,
    bruhat_leq_perm,
    exceedances,
    involutions,
)
from bruhatcells.sl_criteria import (
    JordanClass,
    abstract_jordan_classes,
    block_sum_partition,
    bruhat_lower_set,
    closure_monotonicity,
    dense_cell_involution,
    eigenspace_corank,
    involution_cell_meets,
    is_spherical,
    nested_involution,
    passes_corank_bound,
    spherical_weyl_set,
    two_cycle_cap,
    weyl_class_inside,
)
from bruhatcells import sl_criteria
from bruhatcells.errors import GuardError

CENTRAL4 = JordanClass(4, [("c", (1, 1, 1, 1))])
REG_SS4 = JordanClass(4, [("a", (1,)), ("b", (1,)), ("c", (1,)), ("d", (1,))])
TRANSVECTION4 = JordanClass(4, [("u", (2, 1, 1))])


class TestJordanClass:
    def test_validation(self):
        with pytest.raises(ValueError):
            JordanClass(4, [("a", (2, 1))])  # weight 3 != 4
        with pytest.raises(ValueError):
            JordanClass(3, [("a", (1, 2))])  # increasing blocks
        with pytest.raises(ValueError):
            JordanClass(2, [("a", (1,)), ("a", (1,))])  # repeated label
        with pytest.raises(ValueError):
            JordanClass(2, [("a", (2,))], {"b": 1})  # values mismatch labels

    def test_json_roundtrip(self):
        c = JordanClass(5, [("a", (2, 1)), ("b", (2,))], {"a": 1, "b": 3})
        again = JordanClass.from_json_dict(json.loads(json.dumps(c.to_json_dict())))
        assert again == c
        plain = JordanClass.from_json_dict(
            json.loads(
                '{"n_plus_1": 4, "eigen_data": [{"label": "u", "blocks": [2, 1, 1]}]}'
            )
        )
        assert plain == TRANSVECTION4

    def test_centrality(self):
        assert CENTRAL4.is_central
        assert not TRANSVECTION4.is_central
        assert not REG_SS4.is_central

    def test_abstract_enumeration_counts(self):
        # multisets of partitions by total size: 1, 3, 6, 14, 27, ...
        for n, count in [(1, 1), (2, 3), (3, 6), (4, 14), (5, 27)]:
            assert sum(1 for _ in abstract_jordan_classes(n)) == count

    def test_abstract_enumeration_distinct(self):
        seen = set()
        for c in abstract_jordan_classes(6):
            key = tuple(sorted(e.blocks for e in c.eigen_data))
            assert key not in seen
            seen.add(key)


class TestCorankAndCap:
    def test_examples(self):
        assert eigenspace_corank(CENTRAL4) == 0
        assert eigenspace_corank(REG_SS4) == 3
        assert eigenspace_corank(TRANSVECTION4) == 1
        assert two_cycle_cap(CENTRAL4) == 0
        assert two_cycle_cap(REG_SS4) == 2
        assert two_cycle_cap(TRANSVECTION4) == 1

    def test_corank_matches_rank_of_shifted_matrix(self):
        # kernel of (g - c) has dimension = number of blocks for c
        c = JordanClass(6, [("a", (3, 2)), ("b", (1,))])
        assert eigenspace_corank(c) == 6 - 2


class TestBlockSumPartition:
    def test_examples(self):
        c = JordanClass(5, [("c1", (2, 1)), ("c2", (2,))])
        assert block_sum_partition(c) == Partition((4, 1))
        assert block_sum_partition(CENTRAL4) == Partition((1, 1, 1, 1))
        assert block_sum_partition(JordanClass(4, [("u", (4,))])) == Partition((4,))

    def test_part_count_and_weight(self):
        for n in range(2, 7):
            for c in abstract_jordan_classes(n):
                nu = block_sum_partition(c)
                assert nu.weight == n
                assert len(nu) == n - eigenspace_corank(c)

    def test_tie_break_does_not_change_result(self):
        a = JordanClass(6, [("x", (2, 1)), ("y", (2, 1))])
        b = JordanClass(6, [("y", (2, 1)), ("x", (2, 1))])
        assert block_sum_partition(a) == block_sum_partition(b)


class TestNestedInvolution:
    def test_examples(self):
        assert nested_involution(4, 0).is_identity
        assert nested_involution(4, 2) == Permutation.longest(4)
        assert nested_involution(5, 1).cycle_string() == "(1 5)"
        assert nested_involution(6, 2).cycle_string() == "(1 6)(2 5)"

    def test_range_check(self):
        with pytest.raises(ValueError):
            nested_involution(4, 3)

    def test_chain_in_bruhat_order(self):
        from bruhatcells.coxeter import build_root_system, bruhat_leq
        from bruhatcells.permutations import permutation_to_weyl

        rs = build_root_system("A4")
        elems = [permutation_to_weyl(rs, nested_involution(5, l)) for l in range(3)]
        assert bruhat_leq(elems[0], elems[1]) and bruhat_leq(elems[1], elems[2])

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_totally_ordered_exactly_by_cycle_count(self, m):
        from bruhatcells.coxeter import build_root_system, bruhat_leq
        from bruhatcells.permutations import permutation_to_weyl

        rs = build_root_system(f"A{m - 1}")
        lift = [
            permutation_to_weyl(rs, nested_involution(m, l))
            for l in range(m // 2 + 1)
        ]
        for l1, w1 in enumerate(lift):
            for l2, w2 in enumerate(lift):
                assert bruhat_leq(w1, w2) == (l1 <= l2)

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_matches_subset_involution(self, m):
        # the nested involution with l cycles is w0 * w0J for the middle
        # run J = {l+1, ..., m-l} of simple roots
        from bruhatcells.conjugacy import subset_involution
        from bruhatcells.coxeter import build_root_system
        from bruhatcells.permutations import weyl_to_permutation

        rs = build_root_system(f"A{m - 1}")
        for l in range(m // 2 + 1):
            J = set(range(l + 1, m - l))
            assert weyl_to_permutation(subset_involution(rs, J)) == nested_involution(m, l)

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_unique_longest_in_own_class(self, m):
        from bruhatcells.conjugacy import conjugacy_class
        from bruhatcells.coxeter import build_root_system
        from bruhatcells.permutations import permutation_to_weyl

        rs = build_root_system(f"A{m - 1}")
        for l in range(m // 2 + 1):
            w = permutation_to_weyl(rs, nested_involution(m, l))
            c = conjugacy_class(w)
            assert c.is_unique_max and c.max_length[0] == w


class TestDenseCellInvolution:
    def test_examples(self):
        assert dense_cell_involution(CENTRAL4).is_identity
        reg3 = JordanClass(3, [("a", (1,)), ("b", (1,)), ("c", (1,))])
        assert dense_cell_involution(reg3).cycle_string() == "(1 3)"
        assert dense_cell_involution(TRANSVECTION4).cycle_string() == "(1 4)"

    def test_identity_exactly_for_central(self):
        for n in range(2, 7):
            for c in abstract_jordan_classes(n):
                assert dense_cell_involution(c).is_identity == c.is_central

    def test_longest_when_corank_large(self):
        for n in range(2, 7):
            for c in abstract_jordan_classes(n):
                expected = eigenspace_corank(c) >= n // 2
                got = dense_cell_involution(c) == Permutation.longest(n)
                assert got == expected


class TestInvolutionCellMembership:
    def test_identity_always_meets(self):
        for c in abstract_jordan_classes(5):
            assert involution_cell_meets(c, Permutation.identity(5))

    def test_transvection_examples(self):
        assert involution_cell_meets(TRANSVECTION4, Permutation.parse("(1 2)", 4))
        assert not involution_cell_meets(
            TRANSVECTION4, Permutation.parse("(1 2)(3 4)", 4)
        )

    def test_rejects_non_involution(self):
        with pytest.raises(ValueError):
            involution_cell_meets(TRANSVECTION4, Permutation.parse("(1 2 3)", 4))

    def test_rejects_degree_mismatch(self):
        with pytest.raises(ValueError):
            involution_cell_meets(TRANSVECTION4, Permutation.identity(3))

    def test_monotone_in_cap(self):
        classes = sorted(abstract_jordan_classes(5), key=two_cycle_cap)
        for small, big in zip(classes, classes[1:]):
            accepted_small = {
                w for w in involutions(5) if involution_cell_meets(small, w)
            }
            accepted_big = {
                w for w in involutions(5) if involution_cell_meets(big, w)
            }
            assert accepted_small <= accepted_big


class TestCorankBound:
    def test_central_rejects_everything_moving(self):
        assert not passes_corank_bound(CENTRAL4, Permutation.parse("(1 2)", 4))
        assert passes_corank_bound(CENTRAL4, Permutation.identity(4))

    def test_regular_accepts_all(self):
        for w in Permutation.identity(4), Permutation.parse("(1 2 3 4)", 4):
            assert passes_corank_bound(REG_SS4, w)

    def test_three_cycle_against_corank_one(self):
        c = JordanClass(4, [("a", (1, 1, 1)), ("b", (1,))])
        assert not passes_corank_bound(c, Permutation.parse("(1 2 3)", 4))


class TestWeylClassInside:
    def test_one_column_always_inside(self):
        for c in abstract_jordan_classes(5):
            assert weyl_class_inside(c, Partition((1,) * 5))

    def test_sl3_unipotent(self):
        c = JordanClass(3, [("u", (2, 1))])
        assert weyl_class_inside(c, Partition((2, 1)))
        assert not weyl_class_inside(c, Partition((3,)))

    def test_weight_mismatch(self):
        with pytest.raises(ValueError):
            weyl_class_inside(TRANSVECTION4, Partition((2, 1)))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_agrees_with_involution_rule(self, n):
        for c in abstract_jordan_classes(n):
            for w in involutions(n):
                assert involution_cell_meets(c, w) == weyl_class_inside(
                    c, cycle_type(w)
                )


class TestBruhatLowerSet:
    def test_extremes(self):
        assert bruhat_lower_set(JordanClass(3, [("c", (1, 1, 1))])) == frozenset(
            {Permutation.identity(3)}
        )
        reg3 = JordanClass(3, [("a", (1,)), ("b", (1,)), ("c", (1,))])
        assert len(bruhat_lower_set(reg3)) == 6

    def test_sl3_transvection_meets_everything_opposite(self):
        c = JordanClass(3, [("u", (2, 1))])
        assert len(bruhat_lower_set(c)) == 6

    def test_downward_closed_with_unique_top(self):
        from bruhatcells.coxeter import build_root_system, bruhat_leq
        from bruhatcells.permutations import all_permutations, permutation_to_weyl

        c = TRANSVECTION4
        lower = bruhat_lower_set(c)
        rs = build_root_system("A3")
        lifted = {w: permutation_to_weyl(rs, w) for w in all_permutations(4)}
        top = lifted[dense_cell_involution(c)]
        for w in all_permutations(4):
            assert (w in lower) == bruhat_leq(lifted[w], top)
        maxima = [
            w
            for w in lower
            if not any(v != w and bruhat_leq(lifted[w], lifted[v]) for v in lower)
        ]
        assert maxima == [dense_cell_involution(c)]

    def test_guard(self):
        big = JordanClass(9, [("c", (1,) * 9)])
        with pytest.raises(GuardError, match=r"read all 9! = 362,880 permutations$"):
            bruhat_lower_set(big)

    @pytest.mark.parametrize(
        "degree, scan", [(20, "20! = 2,432,902,008,176,640,000"), (5000, "5000!")]
    )
    def test_guard_states_the_scan_at_any_degree(self, degree, scan):
        # 5000! has more digits than int-to-str conversion allows by default
        big = JordanClass(degree, [("c", (degree,))])
        with pytest.raises(GuardError, match=rf"read all {scan} permutations$"):
            bruhat_lower_set(big)


class TestPrefixCrossings:
    """w <= nested_involution(n, l) iff every prefix crossing of w is at
    most l, against the tableau criterion of bruhat_leq_perm."""

    @pytest.mark.parametrize("n", range(1, sl_criteria._LOWER_SET_DEGREE_LIMIT + 1))
    def test_lower_set_is_the_tableau_filter(self, n):
        # every (degree, cap) the guard admits; uncached, so nothing stays
        perms = list(all_permutations(n))
        for l in range(n // 2 + 1):
            top = nested_involution(n, l)
            want = frozenset(w for w in perms if bruhat_leq_perm(w, top))
            assert sl_criteria._lower_set.__wrapped__(n, l) == want, (n, l)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_nested_involutions_form_a_chain(self, n):
        caps = range(n // 2 + 1)
        for l in caps:
            for m in caps:
                got = bruhat_leq_perm(nested_involution(n, l), nested_involution(n, m))
                assert got == (l <= m), (n, l, m)


@st.composite
def jordan_classes(draw, max_degree=9):
    """A Jordan class of degree at most max_degree: labels c1, c2, ... each
    with a partition of a drawn share of the degree."""
    n = left = draw(st.integers(1, max_degree))
    data = []
    while left:
        weight = draw(st.integers(1, left))
        blocks = draw(st.sampled_from(list(partitions_of(weight))))
        data.append((f"c{len(data) + 1}", blocks.parts))
        left -= weight
    return JordanClass(n, data)


@st.composite
def involutions_of(draw, n):
    """An involution of degree n pairing the first 2k points of a shuffle."""
    points = draw(st.permutations(range(1, n + 1)))
    k = draw(st.integers(0, n // 2))
    im = list(range(1, n + 1))
    for a, b in zip(points[: 2 * k : 2], points[1 : 2 * k : 2]):
        im[a - 1], im[b - 1] = b, a
    return Permutation(im)


class TestKernelsAgainstDefinitions:
    """The per-call criteria, one pass over their input, against the rules
    they implement, with the error texts of the checks they make."""

    @given(st.data())
    def test_involution_cell_meets_is_the_cap_rule(self, data):
        c = data.draw(jordan_classes())
        w = data.draw(involutions_of(c.n_plus_1))
        assert involution_cell_meets(c, w) == (exceedances(w) <= two_cycle_cap(c))

    @given(st.data())
    def test_weyl_class_inside_is_dominance(self, data):
        c = data.draw(jordan_classes())
        lam = data.draw(st.sampled_from(list(partitions_of(c.n_plus_1))))
        assert weyl_class_inside(c, lam) == dominance_leq(lam, block_sum_partition(c))

    @given(st.data())
    def test_degree_is_checked_before_the_involution(self, data):
        c = data.draw(jordan_classes())
        m = data.draw(st.integers(1, 10).filter(lambda m: m != c.n_plus_1))
        w = Permutation(data.draw(st.permutations(range(1, m + 1))))
        message = f"permutation degree {m} does not match SL({c.n_plus_1})"
        with pytest.raises(ValueError) as err:
            involution_cell_meets(c, w)
        assert str(err.value) == message

    @given(st.data())
    def test_non_involution_text(self, data):
        c = data.draw(jordan_classes())
        w = Permutation(data.draw(st.permutations(range(1, c.n_plus_1 + 1))))
        assume(not w.is_involution)
        with pytest.raises(ValueError) as err:
            involution_cell_meets(c, w)
        assert str(err.value) == f"{w.cycle_string()} is not an involution"

    @given(st.data())
    def test_wrong_weight_text(self, data):
        c = data.draw(jordan_classes())
        weight = data.draw(st.integers(1, 10).filter(lambda k: k != c.n_plus_1))
        lam = data.draw(st.sampled_from(list(partitions_of(weight))))
        with pytest.raises(ValueError) as err:
            weyl_class_inside(c, lam)
        assert str(err.value) == (
            f"cycle type has weight {weight}, expected {c.n_plus_1}"
        )

    @given(st.data())
    def test_lower_set_members_are_permutations(self, data):
        c = data.draw(jordan_classes(sl_criteria._LOWER_SET_DEGREE_LIMIT))
        members = sorted(bruhat_lower_set(c), key=lambda w: w.images)
        w = data.draw(st.sampled_from(members))
        assert type(w.images) is tuple
        assert w == Permutation(w.images)
        assert hash(w) == hash(Permutation(w.images))


class TestSpherical:
    def test_predicate(self):
        assert is_spherical(JordanClass(4, [("u", (2, 1, 1))]))
        assert is_spherical(JordanClass(4, [("a", (1, 1)), ("b", (1, 1))]))
        assert not is_spherical(CENTRAL4)
        assert not is_spherical(REG_SS4)
        assert not is_spherical(JordanClass(4, [("u", (3, 1))]))

    def test_counts(self):
        assert len(spherical_weyl_set(TRANSVECTION4)) == 7
        ss22 = JordanClass(4, [("a", (1, 1)), ("b", (1, 1))])
        assert len(spherical_weyl_set(ss22)) == 10  # all involutions of S_4

    def test_rejects_central(self):
        with pytest.raises(ValueError):
            spherical_weyl_set(CENTRAL4)

    def test_members_are_involutions_under_bound(self):
        from bruhatcells.permutations import exceedances

        c = JordanClass(5, [("a", (1, 1, 1)), ("b", (1, 1))])
        got = spherical_weyl_set(c)
        assert all(w.is_involution and exceedances(w) <= 2 for w in got)


class TestClosureMonotonicity:
    def test_reflexive(self):
        assert closure_monotonicity(TRANSVECTION4, TRANSVECTION4).ok

    def test_central_below_everything(self):
        for c in abstract_jordan_classes(4):
            assert closure_monotonicity(CENTRAL4, c).ok

    def test_unipotent_chain(self):
        tall = JordanClass(4, [("u", (2, 2))])
        assert closure_monotonicity(TRANSVECTION4, tall).ok

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            closure_monotonicity(TRANSVECTION4, JordanClass(3, [("u", (2, 1))]))


class TestMemoisedAgainstPerClass:
    """The lower sets, cached per (degree, cap), and the closure check, read
    off the two caps, against the per-class computations they replaced."""

    @staticmethod
    def lower_set_per_class(c):
        top = dense_cell_involution(c)
        return frozenset(
            w for w in all_permutations(c.n_plus_1) if bruhat_leq_perm(w, top)
        )

    @staticmethod
    def cells_monotone_per_pair(inner, outer, invs):
        return all(
            involution_cell_meets(outer, w)
            for w in invs
            if involution_cell_meets(inner, w)
        )

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_lower_sets(self, n):
        for c in abstract_jordan_classes(n):
            assert bruhat_lower_set(c) == self.lower_set_per_class(c), c

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_closure_monotonicity(self, n):
        classes = list(abstract_jordan_classes(n))
        invs = list(involutions(n))
        for inner in classes:
            for outer in classes:
                got = closure_monotonicity(inner, outer)
                want = self.cells_monotone_per_pair(inner, outer, invs)
                assert got.cells_monotone == want, (inner, outer)
                caps = two_cycle_cap(inner), two_cycle_cap(outer)
                assert got.cap_monotone == (caps[0] <= caps[1])
                assert got.dense_elements_comparable == bruhat_leq_perm(
                    dense_cell_involution(inner), dense_cell_involution(outer)
                )


def reference_block_sums(c):
    """The column-wise sums of the blocks: the t-th adds the t-th block of
    every label that has one."""
    width = max(len(e.blocks) for e in c.eigen_data)
    return tuple(
        sum(e.blocks[t] for e in c.eigen_data if t < len(e.blocks))
        for t in range(width)
    )


def reference_cap(c):
    """n+1 minus the largest block count, capped at floor((n+1)/2)."""
    n_plus_1 = c.n_plus_1
    return min(n_plus_1 - max(len(e.blocks) for e in c.eigen_data), n_plus_1 // 2)


@st.composite
def labelled_jordan_classes(draw, max_degree=9):
    """A Jordan class with drawn labels, in drawn order, and field values."""
    n = left = draw(st.integers(1, max_degree))
    shapes = []
    while left:
        weight = draw(st.integers(1, left))
        shapes.append(draw(st.sampled_from(list(partitions_of(weight)))).parts)
        left -= weight
    labels = draw(
        st.lists(st.text(min_size=1, max_size=3), min_size=len(shapes),
                 max_size=len(shapes), unique=True)
    )
    values = draw(st.none() | st.lists(
        st.integers(-50, 50), min_size=len(shapes), max_size=len(shapes)
    ))
    if values is not None:
        values = dict(zip(labels, values))
    return JordanClass(n, list(zip(labels, shapes)), values)


class TestStoredJordanData:
    """The cap and block sums a class computes once, against their
    definitions, and the record's outside unchanged by them."""

    @staticmethod
    def assert_stored_values_match(c):
        sums = reference_block_sums(c)
        assert c.block_sums == sums and type(c.block_sums) is tuple
        assert c.cap == reference_cap(c)
        assert two_cycle_cap(c) == c.cap
        assert block_sum_partition(c) == Partition(sums)
        assert eigenspace_corank(c) == c.n_plus_1 - len(sums)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_abstract_classes(self, n):
        for c in abstract_jordan_classes(n):
            self.assert_stored_values_match(c)

    @given(labelled_jordan_classes())
    def test_labelled_classes_with_values(self, c):
        self.assert_stored_values_match(c)

    @given(labelled_jordan_classes())
    def test_copy_and_pickle_round_trips(self, c):
        for again in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
            assert again == c and hash(again) == hash(c) and repr(again) == repr(c)
            assert (again.block_sums, again.cap) == (c.block_sums, c.cap)

    @given(labelled_jordan_classes())
    def test_json_dict_has_only_its_keys(self, c):
        d = c.to_json_dict()
        keys = {"n_plus_1", "eigen_data"}
        if c.values is not None:
            keys.add("values")
        assert set(d) == keys
        assert all(set(e) == {"label", "blocks"} for e in d["eigen_data"])
        assert JordanClass.from_json_dict(json.loads(json.dumps(d))) == c

    @pytest.mark.parametrize("key", ["n_plus_1", "eigen_data"])
    def test_missing_key_is_a_value_error_naming_it(self, key):
        d = TRANSVECTION4.to_json_dict()
        del d[key]
        with pytest.raises(ValueError) as err:
            JordanClass.from_json_dict(d)
        assert str(err.value) == f"missing key '{key}'"
