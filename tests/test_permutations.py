import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruhatcells.coxeter import build_root_system, bruhat_leq
from bruhatcells.permutations import (
    Permutation,
    all_permutations,
    bruhat_leq_perm,
    involutions,
    permutation_to_weyl,
)


def perms(n):
    return st.permutations(range(1, n + 1)).map(Permutation)


@st.composite
def perm_pairs(draw, degrees=(6, 7, 8)):
    n = draw(st.sampled_from(degrees))
    return draw(perms(n)), draw(perms(n))


class TestInvolutions:
    @pytest.mark.parametrize("n", range(9))
    def test_matches_filtered_permutations(self, n):
        # same elements in the same lexicographic one-line order
        assert list(involutions(n)) == [
            w for w in all_permutations(n) if w.is_involution
        ]


class TestBruhatLeqPerm:
    def test_s1(self):
        # A0 has no root system; the only pair is e <= e
        e = Permutation.identity(1)
        assert bruhat_leq_perm(e, e)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_agrees_with_weyl_matrices_exhaustively(self, n):
        rs = build_root_system(f"A{n - 1}")
        elements = list(all_permutations(n))
        weyl = {w: permutation_to_weyl(rs, w) for w in elements}
        for u in elements:
            for w in elements:
                assert bruhat_leq_perm(u, w) == bruhat_leq(weyl[u], weyl[w]), (u, w)

    @settings(max_examples=300)
    @given(perm_pairs())
    def test_agrees_with_weyl_matrices_on_random_pairs(self, pair):
        u, w = pair
        rs = build_root_system(f"A{u.degree - 1}")
        assert bruhat_leq_perm(u, w) == bruhat_leq(
            permutation_to_weyl(rs, u), permutation_to_weyl(rs, w)
        )

    def test_extremes(self):
        n = 8
        e, w0 = Permutation.identity(n), Permutation.longest(n)
        assert bruhat_leq_perm(e, w0)
        assert not bruhat_leq_perm(w0, e)

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bruhat_leq_perm(Permutation.identity(2), Permutation.identity(3))
