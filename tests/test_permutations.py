import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bruhatcells.coxeter import (
    build_root_system,
    bruhat_leq,
    reduced_word,
    word_to_element,
)
from bruhatcells.permutations import (
    Permutation,
    all_permutations,
    bruhat_leq_perm,
    involutions,
    permutation_to_weyl,
    weyl_to_permutation,
)


def perms(n):
    return st.permutations(range(1, n + 1)).map(Permutation)


@st.composite
def perm_pairs(draw, degrees=(6, 7, 8)):
    n = draw(st.sampled_from(degrees))
    return draw(perms(n)), draw(perms(n))


def full_prefix_criterion(u, w):
    """The tableau criterion as stated: for every i, the sorted u(1..i) are
    entrywise at most the sorted w(1..i)."""
    return all(
        a <= b
        for i in range(1, u.degree + 1)
        for a, b in zip(sorted(u.images[:i]), sorted(w.images[:i]))
    )


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

    @settings(max_examples=500)
    @given(perm_pairs(degrees=range(1, 8)), st.data())
    def test_agrees_with_the_full_prefix_criterion(self, pair, data):
        # random pairs are mostly incomparable, so w is also compared with
        # the two sides of one transposition, which Bruhat order relates
        u, w = pair
        i, j = (data.draw(st.integers(0, w.degree - 1)) for _ in range(2))
        images = list(w.images)
        images[i], images[j] = images[j], images[i]
        v = Permutation(tuple(images))
        for a, b in ((u, w), (w, u), (w, v), (v, w)):
            assert bruhat_leq_perm(a, b) == full_prefix_criterion(a, b), (a, b)

    def test_extremes(self):
        n = 8
        e, w0 = Permutation.identity(n), Permutation.longest(n)
        assert bruhat_leq_perm(e, w0)
        assert not bruhat_leq_perm(w0, e)

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bruhat_leq_perm(Permutation.identity(2), Permutation.identity(3))


def ref_permutation_to_weyl(rs, w):
    """The bridge through a reduced word: bubble sort w by right descents;
    the swaps read backwards spell w in the adjacent transpositions."""
    im = list(w.images)
    word = []
    changed = True
    while changed:
        changed = False
        for i in range(len(im) - 1):
            if im[i] > im[i + 1]:
                im[i], im[i + 1] = im[i + 1], im[i]
                word.append(i + 1)
                changed = True
    return word_to_element(rs, word[::-1])


def ref_weyl_to_permutation(w):
    """The product of the transpositions (i, i+1) along a reduced word."""
    n = w.rs.rank + 1
    out = Permutation.identity(n)
    for i in reduced_word(w):
        out = out * Permutation.from_cycles(n, [(i, i + 1)])
    return out


class TestTypeABridge:
    """The bridge reads root images; the references walk reduced words.
    From S_17 on, W(A_n) has more than 256 roots and tuple permutations."""

    @settings(max_examples=200)
    @given(st.integers(2, 30).flatmap(perms))
    @example(Permutation.longest(17))
    @example(Permutation.longest(30))
    def test_matches_the_word_reference(self, w):
        rs = build_root_system(f"A{w.degree - 1}")
        x = permutation_to_weyl(rs, w)
        assert x == ref_permutation_to_weyl(rs, w)
        assert x.length == w.inversions()
        assert weyl_to_permutation(x) == ref_weyl_to_permutation(x) == w

    def test_other_types_rejected(self):
        with pytest.raises(ValueError):
            permutation_to_weyl(build_root_system("A3"), Permutation.identity(3))
        with pytest.raises(ValueError):
            weyl_to_permutation(build_root_system("B3").w0)
