"""Weyl elements as root-index permutations against integer matrices.

The reference below is independent of ``WeylElement``: an element is the
integer matrix, in the simple-root basis, of a word in the simple
reflections, built by one column update per letter.  Column j of the matrix
holds the coordinates of w(alpha_j).
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruhatcells.conjugacy import enumerate_weyl_group
from bruhatcells.coxeter import (
    CartanType,
    WeylElement,
    _forms,
    _roots_and_reflections,
    bruhat_leq,
    build_root_system,
    reduced_word,
    simple_reflection,
    word_to_element,
)
from bruhatcells.errors import GuardError

TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 7)]
    + [f"C{n}" for n in range(2, 7)]
    + ["D4", "D5", "D6", "E6", "E7", "E8", "F4", "G2"]
)


def ref_identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def ref_times_generator(cartan, rows, i):
    """rows * s_{i+1}: column j becomes column j minus C[i][j] times column i."""
    ci = cartan[i]
    n = len(ci)
    return tuple(tuple(r[j] - r[i] * ci[j] for j in range(n)) for r in rows)


def ref_word(rs, word):
    rows = ref_identity(rs.rank)
    for i in word:
        rows = ref_times_generator(rs.cartan, rows, i - 1)
    return rows


def ref_product(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[r][k] * b[k][j] for k in range(n)) for j in range(n))
        for r in range(n)
    )


def ref_apply(rows, v):
    return tuple(sum(a * b for a, b in zip(r, v)) for r in rows)


def ref_length(rs, rows):
    return sum(
        1 for a in rs.positive_roots if any(x < 0 for x in ref_apply(rows, a))
    )


def words(rs):
    return st.lists(st.integers(1, rs.rank), max_size=30)


# every type, a few random words each
few = settings(max_examples=20)


@pytest.mark.parametrize("name", TYPES)
class TestAgainstMatrices:
    @few
    @given(data=st.data())
    def test_rows_are_the_matrix(self, name, data):
        rs = build_root_system(name)
        word = data.draw(words(rs))
        assert word_to_element(rs, word).rows == ref_word(rs, word)

    @few
    @given(data=st.data())
    def test_products(self, name, data):
        rs = build_root_system(name)
        u, v = data.draw(words(rs)), data.draw(words(rs))
        got = word_to_element(rs, u) * word_to_element(rs, v)
        assert got.rows == ref_product(ref_word(rs, u), ref_word(rs, v))
        assert got == word_to_element(rs, u + v)

    @few
    @given(data=st.data())
    def test_conjugation_step(self, name, data):
        """The one-call step s_j * w * s_i that orbit searches take."""
        rs = build_root_system(name)
        word = data.draw(words(rs))
        j, i = data.draw(st.integers(1, rs.rank)), data.draw(st.integers(1, rs.rank))
        w = word_to_element(rs, word)
        got = WeylElement(rs, rs._conj(w.perm, j - 1, i - 1))
        assert got.rows == ref_word(rs, [j] + word + [i])
        assert got == word_to_element(rs, [j] + word + [i])

    @few
    @given(data=st.data())
    def test_inverses(self, name, data):
        rs = build_root_system(name)
        word = data.draw(words(rs))
        w = word_to_element(rs, word)
        assert w.inv().rows == ref_word(rs, word[::-1])
        assert (w * w.inv()).is_identity and (w.inv() * w).is_identity

    @few
    @given(data=st.data())
    def test_lengths(self, name, data):
        rs = build_root_system(name)
        word = data.draw(words(rs))
        w = word_to_element(rs, word)
        assert w.length == ref_length(rs, ref_word(rs, word))
        assert w.inv().length == w.length
        assert len(reduced_word(w)) == w.length

    @few
    @given(data=st.data())
    def test_action_on_roots(self, name, data):
        rs = build_root_system(name)
        word = data.draw(words(rs))
        w = word_to_element(rs, word)
        rows = ref_word(rs, word)
        assert all(w(a) == ref_apply(rows, a) for a in rs.roots)

    @few
    @given(data=st.data(), conjugate=st.booleans())
    def test_involutions(self, name, data, conjugate):
        rs = build_root_system(name)
        word = data.draw(words(rs))
        if conjugate:  # u s_i u^-1 is always an involution
            word = word + [data.draw(st.integers(1, rs.rank))] + word[::-1]
        rows = ref_word(rs, word)
        want = ref_product(rows, rows) == ref_identity(rs.rank)
        assert word_to_element(rs, word).is_involution() == want


@pytest.mark.parametrize(
    "name, n_roots, encoding",
    [("A15", 240, bytes), ("E8", 240, bytes)],
)
def test_encoding_boundary(name, n_roots, encoding):
    """Permutations are bytes up to 256 roots, the largest systems built."""
    rs = build_root_system(name)
    assert len(rs.roots) == n_roots
    w = word_to_element(rs, range(1, rs.rank + 1))
    for e in (rs.identity, *rs.simple_reflections, w, w * w, w.inv()):
        assert type(e.perm) is encoding


@pytest.mark.parametrize("name, n_roots", [("A16", 272), ("B12", 288)])
def test_more_than_256_roots_are_refused(name, n_roots):
    with pytest.raises(GuardError, match=f"^{name} has {n_roots} roots, more than the 256"):
        build_root_system(name)
    assert 2 * CartanType.from_string(name).positive_root_count == n_roots


class TestRankOne:
    """A1 has one positive root, so each permutation has two entries."""

    def test_generator(self):
        rs = build_root_system("A1")
        s = simple_reflection(rs, 1)
        assert s.rows == ((-1,),)
        assert s((1,)) == (-1,) and s((-1,)) == (1,)
        assert s.length == 1 and s.is_involution()
        assert s.inv() == s
        assert (s * s).is_identity and (s * s).length == 0
        assert rs.w0 == s
        assert bruhat_leq(rs.identity, s) and not bruhat_leq(s, rs.identity)
        assert len(enumerate_weyl_group(rs)) == 2


class TestNonRoots:
    @pytest.mark.parametrize("vector", [(1, 1, 1), (0, 0), (2, 0)])
    def test_value_error_names_the_vector(self, vector):
        rs = build_root_system("A2")
        with pytest.raises(ValueError, match=re.escape(str(vector))):
            simple_reflection(rs, 1)(vector)


@pytest.mark.parametrize("name", ["A3", "B3", "G2"])
def test_bruhat_order_is_the_subword_order(name):
    """u <= w exactly when u is a product of a subword of a reduced word of
    w; the subword products are taken on reference matrices."""
    rs = build_root_system(name)
    group = enumerate_weyl_group(rs)
    assert len({w.rows for w in group}) == rs.cartan_type.weyl_order
    for w in group:
        word = reduced_word(w)
        assert ref_length(rs, ref_word(rs, word)) == len(word)
        below = {ref_identity(rs.rank)}
        for i in word:
            below |= {ref_times_generator(rs.cartan, r, i - 1) for r in below}
        for u in group:
            assert bruhat_leq(u, w) == (u.rows in below), (u, w)


def ref_roots_and_generators(cartan):
    """The two-pass construction: close the simple roots under full-length
    reflections, then reflect every root in every generator again."""
    n = len(cartan)

    def reflect(i, v):
        c = sum(a * b for a, b in zip(cartan[i], v))
        w = list(v)
        w[i] -= c
        return tuple(w)

    todo = list(ref_identity(n))
    seen = set(todo)
    while todo:
        v = todo.pop()
        for i in range(n):
            w = reflect(i, v)
            if w not in seen:
                seen.add(w)
                todo.append(w)
    roots = tuple(sorted(seen))
    index = {r: k for k, r in enumerate(roots)}
    return roots, [tuple(index[reflect(i, r)] for r in roots) for i in range(n)]


@pytest.mark.parametrize(
    "name",
    [f"A{n}" for n in range(1, 21)]
    + [f"{f}{n}" for f in "BC" for n in range(2, 13)]
    + [f"D{n}" for n in range(4, 13)]
    + ["E6", "E7", "E8", "F4", "G2"],
)
def test_generators_match_the_two_pass_reference(name):
    # the closure needs no byte permutations, so it is checked past the 256
    # roots of the largest root system built, from the shared Cartan integers
    t = CartanType.from_string(name)
    cartan = _forms(t)[1]
    roots, generators = ref_roots_and_generators(cartan)
    got, _, got_generators = _roots_and_reflections(cartan, ref_identity(t.rank))
    assert got == roots
    assert list(got_generators) == generators
    if len(roots) <= 256:
        rs = build_root_system(t)
        assert rs.roots == roots and rs.cartan == cartan
        assert [tuple(s.perm) for s in rs.simple_reflections] == generators
