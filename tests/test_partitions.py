import pytest

from bruhatcells.partitions import (
    Partition,
    cycle_type,
    dominance_leq,
    partitions_of,
)
from bruhatcells.permutations import (
    Permutation,
    all_permutations,
    exceedances,
    involutions,
)
from test_acceptance import dual, two_one_shape


class TestPartitionType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))
        assert Partition(()).weight == 0

    def test_parse_and_str(self):
        lam = Partition.parse("2,2,1")
        assert lam == Partition((2, 2, 1))
        assert str(lam) == "2,2,1"
        assert lam.weight == 5

    def test_generation_counts(self):
        # p(n) for n = 0..10
        expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        for n, count in enumerate(expected):
            assert sum(1 for _ in partitions_of(n)) == count


class TestDual:
    def test_examples(self):
        assert dual(Partition((3, 1))) == Partition((2, 1, 1))
        assert dual(Partition((1,) * 6)) == Partition((6,))
        assert dual(two_one_shape(7, 2)) == Partition((5, 2))

    def test_involutive_and_weight_preserving(self):
        for p in range(9):
            for lam in partitions_of(p):
                assert dual(dual(lam)) == lam
                assert dual(lam).weight == lam.weight


class TestDominance:
    def test_examples(self):
        assert dominance_leq(Partition((1, 1, 1)), Partition((2, 1)))
        assert not dominance_leq(Partition((3,)), Partition((2, 1)))
        assert dominance_leq(Partition((2, 1)), Partition((3,)))

    def test_weight_mismatch_is_an_error(self):
        with pytest.raises(ValueError):
            dominance_leq(Partition((2,)), Partition((2, 1)))

    def test_partial_order(self):
        for p in range(1, 9):
            lams = list(partitions_of(p))
            for a in lams:
                assert dominance_leq(a, a)
            for a in lams:
                for b in lams:
                    if dominance_leq(a, b) and dominance_leq(b, a):
                        assert a == b
                    for c in lams:
                        if dominance_leq(a, b) and dominance_leq(b, c):
                            assert dominance_leq(a, c)

    def test_dual_reverses_order(self):
        for p in range(1, 9):
            lams = list(partitions_of(p))
            for a in lams:
                for b in lams:
                    assert dominance_leq(a, b) == dominance_leq(dual(b), dual(a))

    def test_one_column_is_minimum(self):
        for p in range(1, 9):
            ones = Partition((1,) * p)
            for lam in partitions_of(p):
                assert dominance_leq(ones, lam)


class TestTwoOneShape:
    def test_examples(self):
        assert two_one_shape(5, 2) == Partition((2, 2, 1))
        assert two_one_shape(4, 0) == Partition((1, 1, 1, 1))
        assert two_one_shape(4, 2) == Partition((2, 2))

    def test_range_check(self):
        with pytest.raises(ValueError):
            two_one_shape(4, 3)
        with pytest.raises(ValueError):
            two_one_shape(4, -1)


class TestHookBound:
    """Dominance of the shape (2^l, 1^(p-2l)) below mu."""

    def test_examples(self):
        assert dominance_leq(two_one_shape(5, 2), Partition((2, 2, 1)))
        assert not dominance_leq(two_one_shape(5, 2), Partition((1,) * 5))
        for mu in partitions_of(6):
            assert dominance_leq(two_one_shape(6, 0), mu)

    def test_weight_mismatch(self):
        with pytest.raises(ValueError):
            dominance_leq(two_one_shape(5, 1), Partition((2, 2)))

    def test_agrees_with_length_characterization(self):
        for p in range(1, 9):
            for l in range(p // 2 + 1):
                for mu in partitions_of(p):
                    assert dominance_leq(two_one_shape(p, l), mu) == (
                        len(mu) <= p - l
                    )


class TestCycleType:
    def test_examples(self):
        assert cycle_type(Permutation.identity(4)) == Partition((1, 1, 1, 1))
        assert cycle_type(Permutation.parse("(1 4)(2 3)", 4)) == Partition((2, 2))
        assert cycle_type(Permutation.parse("(1 2 3)", 4)) == Partition((3, 1))

    def test_weight_is_degree(self):
        for w in all_permutations(5):
            assert cycle_type(w).weight == 5

    def test_involution_types_are_hook_shapes(self):
        for n in range(2, 6):
            for w in involutions(n):
                assert cycle_type(w) == two_one_shape(n, exceedances(w))
