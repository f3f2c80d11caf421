import collections
import functools
import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bruhatcells import oracle
from bruhatcells.errors import GuardError
from bruhatcells.oracle import (
    IntersectionTable,
    MatrixFq,
    PrimeField,
    bruhat_cell,
    bruhat_factor,
    cell_size_census,
    coset_product_report,
    field_classes,
    gl_order,
    intersection_table,
    jordan_matrix,
    opposite_bruhat_cell,
    sl_order,
    validate_class,
)
from bruhatcells.oracle import (
    DEFAULT_PAIRS,
    _iter_orbit,
    _opposite_pass,
    _pivot_pattern,
    _support_plan,
    _torus_class,
)
from bruhatcells.partitions import partitions_of
from bruhatcells.permutations import Permutation, all_permutations, bruhat_leq_perm
from bruhatcells.sl_criteria import JordanClass
from test_acceptance import borel_order


def permutation_monomial(w, field):
    """A determinant-one monomial matrix with the pattern of w."""
    n = w.degree
    ent = [0] * (n * n)
    for j in range(1, n + 1):
        ent[(w(j) - 1) * n + (j - 1)] = 1
    m = MatrixFq(field, n, ent)
    if m.det() != 1:
        ent[(w(1) - 1) * n] = field.p - 1
        m = MatrixFq(field, n, ent)
    return m


def leibniz_terms(n):
    """sign(w) and the flat positions of the entries (w(j), j), per w in S_n."""
    return [
        (-1 if w.inversions() % 2 else 1, [(w(j + 1) - 1) * n + j for j in range(n)])
        for w in all_permutations(n)
    ]


@functools.lru_cache(maxsize=None)
def sl_elements(n, p):
    """All of SL(n, F_p) as entry tuples: the p^(n^2) entry tuples whose
    Leibniz determinant is 1, independent of the oracle's kernels."""
    terms = leibniz_terms(n)
    return tuple(
        ent
        for ent in itertools.product(range(p), repeat=n * n)
        if sum(s * math.prod(ent[k] for k in ks) for s, ks in terms) % p == 1
    )


def borel_minus_elements(n, field):
    """All lower triangular matrices in SL(n, F_p), i.e. the group B^-."""
    p = field.p
    below = [i * n + j for i in range(n) for j in range(i)]
    for head in itertools.product(range(1, p), repeat=n - 1):
        diagonal = [0] * (n * n)
        for i, d in enumerate((*head, field.inverse[math.prod(head) % p])):
            diagonal[i * (n + 1)] = d
        for values in itertools.product(range(p), repeat=len(below)):
            ent = list(diagonal)
            for k, v in zip(below, values):
                ent[k] = v
            yield MatrixFq(field, n, ent)


def w0_monomial(n, field):
    """A determinant-one monomial matrix of the longest permutation."""
    return permutation_monomial(Permutation.longest(n), field)


def is_upper_triangular(m):
    n = m.n
    return all(m.entries[i * n + j] == 0 for i in range(n) for j in range(i))


def is_upper_unitriangular(m):
    diagonal = m.entries[:: m.n + 1]
    return is_upper_triangular(m) and all(d == 1 for d in diagonal)


def factored_cell(g):
    """The w of ``bruhat_factor(g)``, once its factors are checked against
    the defining property: g = b1 * m * b2 with b1, b2 upper unitriangular
    and m monomial with its nonzeros at (w(j), j).  The cells BwB are
    disjoint, so such factors prove that g lies in BwB."""
    b1, mono, b2, w = bruhat_factor(g)
    n = g.n
    assert is_upper_unitriangular(b1) and is_upper_unitriangular(b2)
    nonzero = [k for k, x in enumerate(mono.entries) if x]
    assert nonzero == sorted((w(j + 1) - 1) * n + j for j in range(n))
    assert b1 * mono * b2 == g
    return w


def random_invertible(rng, field, n):
    while True:
        m = MatrixFq(field, n, [rng.randrange(field.p) for _ in range(n * n)])
        if m.det() != 0:
            return m


class TestPrimeField:
    def test_inverses(self):
        f = PrimeField(7)
        for x in range(1, 7):
            assert x * f.inverse[x] % 7 == 1

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            PrimeField(6)
        with pytest.raises(ValueError):
            PrimeField(37)

    def test_field_classes_take_the_field_bound(self):
        # 37 is prime but above the bound PrimeField enforces, so its
        # classes could not be turned into matrices
        for p in (4, 37):
            with pytest.raises(ValueError):
                field_classes(2, p)


class TestMatrixFq:
    def test_multiply_and_identity(self):
        f = PrimeField(5)
        a = MatrixFq.from_rows(f, [[1, 2], [3, 4]])
        assert a * MatrixFq.identity(f, 2) == a
        b = MatrixFq.from_rows(f, [[0, 1], [4, 0]])
        assert (a * b).entries == (3, 1, 1, 3)

    def test_det_is_multiplicative(self):
        f = PrimeField(7)
        rng = random.Random(3)
        for _ in range(50):
            m = random_invertible(rng, f, 3)
            n = random_invertible(rng, f, 3)
            assert (m * n).det() == m.det() * n.det() % 7

    @given(
        st.sampled_from([2, 3, 5, 7]).flatmap(
            lambda p: st.integers(1, 4).flatmap(
                lambda n: st.tuples(
                    st.just(p),
                    st.just(n),
                    st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n),
                )
            )
        )
    )
    @settings(max_examples=300)
    def test_det_matches_leibniz_formula(self, drawn):
        p, n, entries = drawn
        expected = 0
        for w in all_permutations(n):
            term = -1 if w.inversions() % 2 else 1
            for j in range(n):
                term *= entries[(w(j + 1) - 1) * n + j]
            expected += term
        assert MatrixFq(PrimeField(p), n, entries).det() == expected % p

    def test_det_of_singular_matrices_is_zero(self):
        f = PrimeField(5)
        assert MatrixFq.from_rows(f, [[1, 2], [2, 4]]).det() == 0
        assert MatrixFq.from_rows(f, [[0, 0, 0], [1, 2, 3], [4, 0, 1]]).det() == 0
        assert MatrixFq(f, 1, [0]).det() == 0

    def test_hashing(self):
        f = PrimeField(3)
        a = MatrixFq.from_rows(f, [[1, 2], [0, 1]])
        b = MatrixFq(f, 2, (1, 2, 0, 1))
        assert a == b and hash(a) == hash(b)


class TestBruhatDecomposition:
    def test_identity_and_triangulars_in_top_cell_group(self):
        f = PrimeField(5)
        assert bruhat_cell(MatrixFq.identity(f, 3)).is_identity
        upper = MatrixFq.from_rows(f, [[1, 2, 3], [0, 1, 4], [0, 0, 1]])
        assert bruhat_cell(upper).is_identity

    def test_sl2_antidiagonal(self):
        f = PrimeField(5)
        anti = MatrixFq.from_rows(f, [[0, 1], [4, 0]])
        assert bruhat_cell(anti).cycle_string() == "(1 2)"

    def test_sl2_lower_unipotent(self):
        f = PrimeField(3)
        low = MatrixFq.from_rows(f, [[1, 0], [1, 1]])
        assert bruhat_cell(low).cycle_string() == "(1 2)"

    def test_permutation_matrices_decompose_to_themselves(self):
        f = PrimeField(5)
        for w in all_permutations(4):
            assert bruhat_cell(permutation_monomial(w, f)) == w

    @pytest.mark.parametrize("n,p", [(2, 5), (3, 5), (4, 3)])
    def test_factorization_reconstructs(self, n, p):
        f = PrimeField(p)
        rng = random.Random(n * 100 + p)
        for _ in range(100):
            g = random_invertible(rng, f, n)
            assert bruhat_cell(g) == factored_cell(g)

    @settings(max_examples=300)
    @given(st.data())
    def test_cells_are_borel_double_cosets(self, data):
        # b1 * g * b2 lies in the cell of g for upper triangular b1, b2: the
        # fact that lets the coset-product probe walk U^- alone
        p = data.draw(st.sampled_from([2, 3, 5, 7]))
        n = data.draw(st.integers(1, 4))
        field = PrimeField(p)
        entries = st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n)
        g = MatrixFq(field, n, data.draw(entries))
        det = g.det()
        assume(det != 0)
        scaled = list(g.entries)
        scaled[:n] = [x * field.inverse[det] % p for x in scaled[:n]]
        g = MatrixFq(field, n, scaled)

        def upper_det_one():
            ent = data.draw(entries)
            diag = data.draw(
                st.lists(st.integers(1, p - 1), min_size=n - 1, max_size=n - 1)
            )
            diag.append(field.inverse[math.prod(diag) % p])
            for i in range(n):
                ent[i * n + i] = diag[i]
                ent[i * n : i * n + i] = [0] * i
            return MatrixFq(field, n, ent)

        b1, b2 = upper_det_one(), upper_det_one()
        assert g.det() == b1.det() == b2.det() == 1
        assert is_upper_triangular(b1) and is_upper_triangular(b2)
        assert bruhat_cell(b1 * g * b2) == bruhat_cell(g)

    def test_singular_rejected(self):
        f = PrimeField(3)
        with pytest.raises(ValueError):
            bruhat_cell(MatrixFq.from_rows(f, [[1, 1], [2, 2]]))

    def test_longest_monomial_has_det_one(self):
        for n in range(2, 6):
            for p in (3, 5, 7):
                w0 = w0_monomial(n, PrimeField(p))
                assert w0.det() == 1
                assert bruhat_cell(w0) == Permutation.longest(n)


@st.composite
def invertible_matrices(draw):
    field = PrimeField(draw(st.sampled_from([2, 3, 5])))
    n = draw(st.integers(1, 4))
    entries = draw(
        st.lists(st.integers(0, field.p - 1), min_size=n * n, max_size=n * n)
    )
    g = MatrixFq(field, n, entries)
    assume(g.det() != 0)
    return g


class TestOppositeCells:
    def test_diagonal_lands_at_identity(self):
        f = PrimeField(5)
        d = MatrixFq.from_rows(f, [[2, 0], [0, 3]])
        assert opposite_bruhat_cell(d).is_identity

    def test_w0_representative(self):
        f = PrimeField(5)
        assert opposite_bruhat_cell(w0_monomial(3, f)) == Permutation.longest(3)

    def test_opposite_cell_below_plain_cell(self):
        # g in BuB forces the opposite cell of g to sit at or below u
        f = PrimeField(3)
        rng = random.Random(11)
        for _ in range(150):
            g = random_invertible(rng, f, 3)
            assert bruhat_leq_perm(opposite_bruhat_cell(g), bruhat_cell(g))

    @settings(max_examples=300)
    @given(invertible_matrices())
    def test_row_reversal_matches_w0_product(self, g):
        n, field = g.n, g.field
        expected = bruhat_cell(g * w0_monomial(n, field)).images
        assert _opposite_pass(g.entries, n, field)[0] == expected


def _column_reversed(entries, n):
    return [entries[i + n - 1 - j] for i in range(0, n * n, n) for j in range(n)]


class TestPivotPatternMatchesFactoring:
    """The row-operation kernel behind ``bruhat_cell``, ``_opposite_pass``
    and ``det`` against Bruhat factorisations checked by their defining
    property, and against the Leibniz formula."""

    @pytest.mark.parametrize("n,p", [(3, 3), (2, 7), (4, 2)])
    def test_patterns_on_the_whole_group(self, n, p):
        # Where reversing the columns keeps the determinant (n = 4, or
        # p = 2), a reversed matrix is in the group and its cell is looked
        # up.
        field = PrimeField(p)
        factored = {}
        for ent in sl_elements(n, p):
            g = MatrixFq(field, n, ent)
            factored[ent] = factored_cell(g).images
            assert bruhat_cell(g).images == factored[ent]
        for ent in factored:
            flipped = tuple(_column_reversed(ent, n))
            expected = factored.get(flipped)
            if expected is None:
                expected = factored_cell(MatrixFq(field, n, flipped)).images
            assert _opposite_pass(ent, n, field)[0] == expected

    def test_det_matches_leibniz_on_all_of_m3_f3(self):
        field = PrimeField(3)
        terms = leibniz_terms(3)
        for ent in itertools.product(range(3), repeat=9):
            expected = sum(s * math.prod(ent[k] for k in ks) for s, ks in terms) % 3
            assert MatrixFq(field, 3, ent).det() == expected

    @settings(max_examples=60)
    @given(st.data())
    def test_random_matrices(self, data):
        # det against the Leibniz formula at the same sizes:
        # TestMatrixFq.test_det_matches_leibniz_formula
        p = data.draw(st.sampled_from([2, 3, 5, 7]))
        n = data.draw(st.integers(1, 4))
        field = PrimeField(p)
        ent = data.draw(
            st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n)
        )
        g = MatrixFq(field, n, ent)
        assume(g.det() != 0)
        assert bruhat_cell(g) == factored_cell(g)
        flipped = MatrixFq(field, n, _column_reversed(ent, n))
        assert _opposite_pass(ent, n, field)[0] == factored_cell(flipped).images


class TestCellCensus:
    @pytest.mark.parametrize("n,p", [(2, 3), (3, 2), (3, 5), (3, 7)])
    def test_partition_of_group(self, n, p):
        census = cell_size_census(n, p)
        assert sum(census.values()) == sl_order(n, p)
        b = borel_order(n, p)
        for w, size in census.items():
            assert size == b * p ** w.inversions()

    @pytest.mark.parametrize(
        "n,p", [(1, 3), (2, 3), (2, 5), (2, 7), (3, 2), (3, 3), (4, 2)]
    )
    def test_census_counts_every_element(self, n, p):
        # the census counts one matrix per left torus coset; the reference
        # eliminates every element of the group
        field = PrimeField(p)
        cells = collections.Counter(
            bruhat_cell(MatrixFq(field, n, ent)) for ent in sl_elements(n, p)
        )
        assert cell_size_census(n, p) == dict(cells)

    def test_census_guard(self):
        # 40^4 = 2,560,000 row-scaled matrices, about 17 s of CPU
        with pytest.raises(GuardError, match="allow_large=True"):
            cell_size_census(4, 3)

    def test_census_guard_counts_the_walk(self, monkeypatch):
        # |SL(5, F_2)| = 9,999,360 is small, but the census would walk
        # 31^5 matrices; the refusal comes before the first of them
        def no_walk(*args):
            raise AssertionError("the census started")

        monkeypatch.setattr(oracle, "_pivot_pattern", no_walk)
        with pytest.raises(GuardError, match="walks 28,629,151 matrices"):
            cell_size_census(5, 2)

    def test_whole_group_reference_counts(self):
        assert len(sl_elements(2, 7)) == sl_order(2, 7) == 336
        assert len(sl_elements(3, 3)) == sl_order(3, 3) == 5616


class TestJordanMatrices:
    def test_determinant_check(self):
        bad = JordanClass(4, [("a", (2, 1)), ("b", (1,))], {"a": 1, "b": 4})
        with pytest.raises(ValueError):
            jordan_matrix(bad, 5)  # det = 1^3 * 4 = 4 mod 5

    def test_colliding_values(self):
        c = JordanClass(4, [("a", (2, 1)), ("b", (1,))], {"a": 2, "b": 7})
        with pytest.raises(ValueError):
            jordan_matrix(c, 5)  # 7 = 2 mod 5

    def test_zero_eigenvalue(self):
        c = JordanClass(2, [("a", (1,)), ("b", (1,))], {"a": 5, "b": 1})
        with pytest.raises(ValueError):
            jordan_matrix(c, 5)

    def test_block_layout(self):
        c = JordanClass(4, [("a", (2, 1)), ("b", (1,))], {"a": 2, "b": 3})
        # det = 2^3 * 3 = 24 = 1 mod 23
        m = jordan_matrix(c, 23)
        assert m.entries == (
            2, 1, 0, 0,
            0, 2, 0, 0,
            0, 0, 2, 0,
            0, 0, 0, 3,
        )

    def test_explicit_good_matrix(self):
        c = JordanClass(3, [("u", (2, 1))], {"u": 1})
        m = jordan_matrix(c, 5)
        assert m.entries == (1, 1, 0, 0, 1, 0, 0, 0, 1)

    def test_missing_values(self):
        with pytest.raises(ValueError):
            jordan_matrix(JordanClass(2, [("u", (2,))]), 5)


def _torus_expand(rep, n, field):
    """Every member t rep t^-1 of the T-class of rep, each exactly once:
    t is 1 at the root of each support component (see ``_support_plan``)
    and free elsewhere."""
    p, inv = field.p, field.inverse
    support = bytes(bool(rep[k]) for k in range(n * n) if k % (n + 1))
    edges, positions, _, _ = _support_plan(support, n)
    free = [v for _, _, v, _ in edges]
    for units in itertools.product(range(1, p), repeat=len(free)):
        t = [1] * n
        for v, x in zip(free, units):
            t[v] = x
        out = list(rep)
        for k, u, v in positions:
            out[k] = rep[k] * t[u] * inv[t[v]] % p
        yield tuple(out)


def geometric_orbit(c, p):
    """The full GL(n, F_p)-conjugation orbit of the Jordan representative,
    sorted by entries: every T-class of ``_iter_orbit`` expanded by T."""
    start = jordan_matrix(c, p)
    n, field = start.n, start.field
    members = sorted(
        ent
        for rep, *_ in _iter_orbit(start)
        for ent in _torus_expand(rep, n, field)
    )
    return tuple(MatrixFq(field, n, ent) for ent in members)


def _sl2_inverse(x):
    a, b, c, d = x.entries
    return MatrixFq(x.field, 2, (d, -b, -c, a))


class TestGeometricOrbits:
    def test_central_is_singleton(self):
        c = JordanClass(2, [("c", (1, 1))], {"c": 4})
        assert len(geometric_orbit(c, 5)) == 1

    def test_sl2_transvection_orbit(self):
        c = JordanClass(2, [("u", (2,))], {"u": 1})
        assert len(geometric_orbit(c, 3)) == 8

    def test_regular_semisimple_orbit_size(self):
        c = JordanClass(
            3, [("a", (1,)), ("b", (1,)), ("c", (1,))], {"a": 1, "b": 2, "c": 3}
        )
        orbit = geometric_orbit(c, 5)
        assert len(orbit) == gl_order(3, 5) // (5 - 1) ** 3

    def test_orbit_independent_of_base_point(self):
        c = JordanClass(2, [("u", (2,))], {"u": 1})
        orbit = set(geometric_orbit(c, 5))
        # regrow the orbit from an arbitrary member by brute conjugation
        other = sorted(orbit, key=lambda m: m.entries)[-1]
        f = PrimeField(5)
        regrown = set()
        for ent in sl_elements(2, 5):
            x = MatrixFq(f, 2, ent)
            regrown.add(x * other * _sl2_inverse(x))
        # SL-conjugation may only see part of a GL orbit; here it is all of it
        assert regrown <= orbit

    def test_guard(self, monkeypatch):
        # about 5,667,187 T-classes; the refusal comes before the walk
        def no_walk(*args):
            raise AssertionError("the orbit walk started")

        monkeypatch.setattr(oracle, "_iter_orbit", no_walk)
        eigen_data = [("a", (1,)), ("b", (1,)), ("c", (2,))]
        c = JordanClass(4, eigen_data, {"a": 2, "b": 3, "c": 4})
        with pytest.raises(GuardError, match="5,667,187 T-classes"):
            intersection_table(c, 5)

    def test_validate_class_refuses_degree_nine_before_the_walk(self, monkeypatch):
        # the orbit guard admits the central class, but the checks need the
        # Bruhat lower set, refused past degree 8
        def no_walk(*args):
            raise AssertionError("the orbit walk started")

        monkeypatch.setattr(oracle, "_iter_orbit", no_walk)
        c = JordanClass(9, [("u", (1,) * 9)], {"u": 1})
        message = (
            r"degree 9 > 8: the Bruhat lower set below the dense-cell involution "
            r"of u=1\.1\.1\.1\.1\.1\.1\.1\.1 is built only up to degree 8, and "
            r"validate_class needs it"
        )
        with pytest.raises(GuardError, match=message):
            validate_class(c, 2)

    def test_guard_sizes_the_orbit_not_the_group(self):
        # |SL(4, F_7)| is about 4.6 * 10^12; this orbit has 136,800 matrices
        c = JordanClass(4, [("u", (2, 1, 1))], {"u": 1})
        assert intersection_table(c, 7).orbit_size == 136800


class TestIntersectionTables:
    def test_central_class(self):
        c = JordanClass(2, [("c", (1, 1))], {"c": 1})
        t = intersection_table(c, 5)
        assert {w.cycle_string() for w in t.cells} == {"e"}
        assert {w.cycle_string() for w in t.opposite_cells} == {"e"}
        assert t.bruhat_max is not None and t.bruhat_max.is_identity

    def test_sl2_transvection(self):
        c = JordanClass(2, [("u", (2,))], {"u": 1})
        t = intersection_table(c, 5)
        assert t.orbit_size == 24
        assert {w.cycle_string() for w in t.cells} == {"e", "(1 2)"}
        assert t.bruhat_max.cycle_string() == "(1 2)"

    def test_sl3_subregular_unipotent(self):
        c = JordanClass(3, [("u", (2, 1))], {"u": 1})
        t = intersection_table(c, 5)
        invs = {w.cycle_string() for w in t.cells if w.is_involution}
        assert invs == {"e", "(1 2)", "(2 3)", "(1 3)"}
        assert t.bruhat_max.cycle_string() == "(1 3)"

    @pytest.mark.parametrize(
        "degree, cells",
        [
            (3, ("e", "(1 2)", "(2 3)")),  # two maxima of one length
            (4, ("e", "(1 2)", "(2 3 4)")),  # the longest is not above (1 2)
        ],
    )
    def test_bruhat_max_is_none_without_a_unique_maximum(self, degree, cells):
        perms = {Permutation.parse(w, degree) for w in cells}
        assert oracle._bruhat_max(perms) is None

    @pytest.mark.parametrize(
        "degree, cells, top",
        [
            (3, ("e", "(1 2)", "(2 3)", "(1 3)"), "(1 3)"),
            (4, ("e", "(2 3)", "(2 3 4)"), "(2 3 4)"),
            (4, ("(1 2)(3 4)",), "(1 2)(3 4)"),
        ],
    )
    def test_bruhat_max_of_a_unique_maximum(self, degree, cells, top):
        perms = {Permutation.parse(w, degree) for w in cells}
        assert oracle._bruhat_max(perms) == Permutation.parse(top, degree)

    @given(st.data())
    def test_maximal_cells_are_the_pairwise_maxima(self, data):
        n = data.draw(st.integers(1, 5))
        perms = list(all_permutations(n))
        cells = data.draw(st.sets(st.sampled_from(perms), min_size=1))
        maxima = {
            w for w in cells if not any(v != w and bruhat_leq_perm(w, v) for v in cells)
        }
        got = oracle._bruhat_maximal(cells)
        assert len(got) == len(maxima) and set(got) == maxima
        unique = oracle._bruhat_max(cells)
        assert (got == [unique]) if unique is not None else len(got) > 1

    def test_table_stable_under_base_change(self):
        base = JordanClass(2, [("d", (1,)), ("e", (1,))], {"d": 2, "e": 3})
        t1 = intersection_table(base, 5)
        # same class described with the labels swapped
        swapped = JordanClass(2, [("e", (1,)), ("d", (1,))], {"e": 3, "d": 2})
        t2 = intersection_table(swapped, 5)
        assert t1.cells == t2.cells and t1.opposite_cells == t2.opposite_cells

    def test_orbit_identical_from_any_member(self):
        c = JordanClass(2, [("u", (2,))], {"u": 1})
        orbit = set(geometric_orbit(c, 5))
        for other in sorted(orbit, key=lambda m: m.entries)[::7]:
            regrown = {
                MatrixFq(other.field, 2, ent)
                for rep, *_ in _iter_orbit(other)
                for ent in _torus_expand(rep, 2, other.field)
            }
            assert regrown == orbit


def _primitive_root(p):
    """The least generator of the unit group of F_p."""
    return next(
        g for g in range(1, p) if len({pow(g, k, p) for k in range(1, p)}) == p - 1
    )


def _reference_orbit(start):
    """Every member of the GL(n)-conjugation orbit of start, one matrix at a
    time: the search closed under all transvections I + e_ij and one
    diagonal with a primitive root as first entry, independent of the
    T-class walk."""
    n, field = start.n, start.field
    p = field.p
    ops = []

    def make_transvection(i, j):
        def conj(m):
            ib, jb = i * n, j * n
            for k in range(n):  # row_i += row_j
                m[ib + k] = (m[ib + k] + m[jb + k]) % p
            for r in range(n):  # col_j -= col_i
                b = r * n
                m[b + j] = (m[b + j] - m[b + i]) % p

        return conj

    for i in range(n):
        for j in range(n):
            if i != j:
                ops.append(make_transvection(i, j))
    if p > 2:
        g = _primitive_root(p)
        ginv = field.inverse[g]

        def conj_diag(m):
            for k in range(n):  # row_0 *= g
                m[k] = m[k] * g % p
            for r in range(n):  # col_0 *= g^-1
                m[r * n] = m[r * n] * ginv % p

        ops.append(conj_diag)
    seen = {start.entries}
    queue = [start.entries]
    while queue:
        ent = queue.pop()
        yield ent
        for op in ops:
            m = list(ent)
            op(m)
            t = tuple(m)
            if t not in seen:
                seen.add(t)
                queue.append(t)


def _reference_table(c, p):
    start = jordan_matrix(c, p)
    n, field = start.n, start.field
    size, cells, opposite = 0, set(), set()
    for ent in _reference_orbit(start):
        size += 1
        cells.add(_pivot_pattern(list(ent), n, field.p, field.inverse))
        opposite.add(_opposite_pass(ent, n, field)[0])
    cells = frozenset(Permutation(s) for s in cells)
    w0 = Permutation.longest(n)
    opposite = frozenset(Permutation(s) * w0 for s in opposite)
    maxima = [
        w for w in cells if not any(v != w and bruhat_leq_perm(w, v) for v in cells)
    ]
    return size, cells, opposite, maxima[0] if len(maxima) == 1 else None


class TestTorusClassWalk:
    @pytest.mark.parametrize("n,p", DEFAULT_PAIRS)
    def test_tables_match_full_orbit_reference(self, n, p):
        for c in field_classes(n, p):
            t = intersection_table(c, p)
            got = (t.orbit_size, t.cells, t.opposite_cells, t.bruhat_max)
            assert got == _reference_table(c, p), c.describe()

    @settings(max_examples=150)
    @given(st.data())
    def test_torus_class_properties(self, data):
        p = data.draw(st.sampled_from([3, 5, 7]))
        n = data.draw(st.integers(1, 4))
        field = PrimeField(p)
        m = data.draw(st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n))
        t = data.draw(st.lists(st.integers(1, p - 1), min_size=n, max_size=n))
        before = list(m)
        rep, size, kept = _torus_class(m, n, field)
        assert m == before and type(rep) is bytes
        # T-invariant, keys included
        conj = _torus_conjugate(m, t, field)
        assert _torus_class(conj, n, field) == (rep, size, kept)
        assert _torus_class(bytes(conj), n, field) == (rep, size, kept)
        # T-conjugate to its input (scalars act trivially, so t_0 = 1)
        units = range(1, p)
        torus = [(1,) + rest for rest in itertools.product(units, repeat=n - 1)]
        assert any(bytes(_torus_conjugate(m, s, field)) == rep for s in torus)
        if n <= 3:
            members = {_torus_conjugate(m, s, field) for s in torus}
            assert size == len(members)
            expanded = list(_torus_expand(rep, n, field))
            assert len(expanded) == size and set(expanded) == members

    @settings(max_examples=200)
    @given(st.data())
    def test_kept_tree_survives_transvections(self, data):
        # A representative whose forest is a kept tree has canonical
        # I + c*e_12 conjugates of the same size and again with a kept tree,
        # which is what lets the walk skip canonicalising them.
        p = data.draw(st.sampled_from([3, 5, 7, 11]))
        n = data.draw(st.integers(2, 5))
        field = PrimeField(p)
        m = data.draw(st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n))
        rep, size, kept = _torus_class(m, n, field)
        assume(kept)
        assert size == (p - 1) ** (n - 1)
        u, u_inv = _transvection(field, n, data.draw(st.integers(1, p - 1)))
        conj = u * MatrixFq(field, n, rep) * u_inv
        assert _torus_class(conj.entries, n, field) == (bytes(conj.entries), size, True)

    def test_walk_visits_fewer_classes_than_matrices(self):
        c = JordanClass(
            3, [("a", (1,)), ("b", (1,)), ("c", (1,))], {"a": 1, "b": 2, "c": 3}
        )
        classes = list(_iter_orbit(jordan_matrix(c, 5)))
        assert sum(size for _, size, _, _ in classes) == gl_order(3, 5) // 4**3
        assert len(classes) == len({rep for rep, *_ in classes}) == 1506
        field = PrimeField(5)
        for rep, _, cell, opposite in classes:
            assert cell == bruhat_cell(MatrixFq(field, 3, rep)).images
            assert opposite == _opposite_pass(rep, 3, field)[0]

    @pytest.mark.parametrize("p", [2, 5])
    def test_scalar_walk(self, p):
        # At n = 1 the cycle is the identity and there is no transvection.
        (c,) = field_classes(1, p)
        assert list(_iter_orbit(jordan_matrix(c, p))) == [(b"\x01", 1, (1,), (1,))]

    def test_walk_eliminates_family_roots_only(self, monkeypatch):
        # Only the start and the classes first reached over the cycle edge,
        # the family roots, are eliminated: 330 of the 1,506, once for BwB
        # and once for BwB^-, where every class was eliminated for BwB^-.
        calls, roots = [], []

        def counting(m, n, p, inv):
            calls.append(tuple(m))
            return _pivot_pattern(m, n, p, inv)

        def recording(entries, n, field):
            roots.append(entries)
            return _opposite_pass(entries, n, field)

        monkeypatch.setattr(oracle, "_pivot_pattern", counting)
        monkeypatch.setattr(oracle, "_opposite_pass", recording)
        c = JordanClass(
            3, [("a", (1,)), ("b", (1,)), ("c", (1,))], {"a": 1, "b": 2, "c": 3}
        )
        assert len(list(_iter_orbit(jordan_matrix(c, 5)))) == 1506
        assert len(roots) == len(set(roots)) == 330
        assert len(calls) == 660 and calls[::2] == [tuple(r) for r in roots]

    def test_kept_trees_skip_canonicalisation(self, monkeypatch):
        # The start and every cycle edge are canonicalised; transvection
        # edges only from the family roots without a kept tree.
        calls, roots = [], []

        def counting(m, n, field):
            calls.append(m)
            return _torus_class(m, n, field)

        def recording(entries, n, field):
            roots.append(entries)
            return _opposite_pass(entries, n, field)

        monkeypatch.setattr(oracle, "_torus_class", counting)
        monkeypatch.setattr(oracle, "_opposite_pass", recording)
        c = JordanClass(
            3, [("a", (1,)), ("b", (1,)), ("c", (1,))], {"a": 1, "b": 2, "c": 3}
        )
        classes = list(_iter_orbit(jordan_matrix(c, 5)))
        field = PrimeField(5)
        kept = [_torus_class(rep, 3, field)[2] for rep in roots]
        assert len(classes) == 1506 and kept.count(False) == 95
        assert len(calls) == 1 + len(classes) + 4 * kept.count(False) == 1887

    @settings(max_examples=200)
    @given(st.data())
    def test_shear_gives_the_transvection_conjugates_opposite_cells(self, data):
        # The pattern of u r u^-1 * w0dot, u = I + c*e_12, is that of r with
        # its last two rows in increasing order when c is the shear of r,
        # else in decreasing order.
        p = data.draw(st.sampled_from([3, 5, 7]))
        n = data.draw(st.integers(2, 4))
        field = PrimeField(p)
        ent = data.draw(st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n))
        r = MatrixFq(field, n, ent)
        assume(r.det() != 0)
        sigma, shear = _opposite_pass(ent, n, field)
        low, high = sorted(sigma[-2:])
        w0 = w0_monomial(n, field)
        for c in range(p):
            u, u_inv = _transvection(field, n, c)
            conj = u * r * u_inv
            tail = (low, high) if c == shear else (high, low)
            assert _opposite_pass(conj.entries, n, field)[0] == sigma[:-2] + tail
            assert bruhat_cell(conj * w0).images == sigma[:-2] + tail

    @settings(max_examples=150)
    @given(st.data())
    def test_member_transvections_stay_in_the_family(self, data):
        # The family of a root r is the T-classes of the u r u^-1; the
        # transvection conjugates of each member's canonical representative
        # fall into them again, so the walk never conjugates a member by u.
        p = data.draw(st.sampled_from([3, 5, 7]))
        n = data.draw(st.integers(2, 4))
        field = PrimeField(p)
        ent = data.draw(st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n))
        root = MatrixFq(field, n, _torus_class(ent, n, field)[0])
        shears = [_transvection(field, n, c) for c in range(p)]

        def classes_of_conjugates(m):
            conjugates = (u * m * u_inv for u, u_inv in shears)
            return {_torus_class(g.entries, n, field)[0] for g in conjugates}

        family = classes_of_conjugates(root)
        for rep in family:
            assert classes_of_conjugates(MatrixFq(field, n, rep)) <= family

    @settings(max_examples=200)
    @given(st.data())
    def test_borel_transvection_keeps_the_cell(self, data):
        # I + c*e_12 lies in B, so conjugating by it maps BwB onto itself
        p = data.draw(st.sampled_from([3, 5, 7]))
        n = data.draw(st.integers(2, 4))
        field = PrimeField(p)
        ent = data.draw(st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n))
        m = MatrixFq(field, n, ent)
        assume(m.det() != 0)
        u, u_inv = _transvection(field, n, data.draw(st.integers(1, p - 1)))
        conj = u * m * u_inv
        assert bruhat_cell(conj) == bruhat_cell(m)


def _transvection(field, n, c):
    """u = I + c*e_12 and its inverse."""
    u = list(MatrixFq.identity(field, n).entries)
    u_inv = list(u)
    u[1], u_inv[1] = c, -c
    return MatrixFq(field, n, u), MatrixFq(field, n, u_inv)


def _torus_conjugate(m, t, field):
    n, inv = len(t), field.inverse
    return tuple(
        m[i * n + j] * t[i] * inv[t[j]] % field.p for i in range(n) for j in range(n)
    )


class TestCosetProducts:
    def test_identity_cell(self):
        rep = coset_product_report(Permutation.identity(2), 3)
        assert rep.passed

    def test_sl2_longest(self):
        rep = coset_product_report(Permutation.parse("(1 2)", 2), 3)
        assert rep.passed
        kinds = {r.kind for r in rep.results}
        assert kinds == {"SOUND", "COMPLETE"}

    def test_sl3_simple_reflection_exhaustive(self):
        rep = coset_product_report(Permutation.parse("(1 2)", 3), 2)
        assert rep.passed
        assert any(r.check == "attains-whole-upper-set" for r in rep.results)

    def test_sl3_whole_upper_set_at_p3_and_p5(self):
        for p in (3, 5):
            for w in all_permutations(3):
                rep = coset_product_report(w, p)
                assert rep.passed and not rep.notes
                assert [(r.kind, r.check) for r in rep.results] == [
                    ("SOUND", "products-land-at-or-above"),
                    ("COMPLETE", "attains-whole-upper-set"),
                ]

    def test_guard(self):
        # |U^-| = 7^6 in SL(4, F_7)
        with pytest.raises(GuardError, match=r"\|U\^-\| = 117,649 .* exceeds 60,000"):
            coset_product_report(Permutation.identity(4), 7)

    def test_guard_counts_the_walk(self):
        # |B^-| = 4^3 * 5^6 = 1,000,000 in SL(4, F_5), but the probe walks
        # only |U^-| = 15,625 matrices per w
        for w in (Permutation.identity(4), Permutation.longest(4)):
            assert coset_product_report(w, 5).passed

    @pytest.mark.parametrize("n,p", [(3, 3), (3, 5), (4, 2)])
    def test_attained_cells_match_the_borel_walk(self, n, p, monkeypatch):
        # the probe walks U^- with wdot's rows moved in; the reference
        # multiplies a monomial wdot into every element of B^-
        attained = set()

        def recording(m, n, p, inv):
            sigma = _pivot_pattern(m, n, p, inv)
            attained.add(Permutation(sigma))
            return sigma

        monkeypatch.setattr(oracle, "_pivot_pattern", recording)
        field = PrimeField(p)
        for w in all_permutations(n):
            attained.clear()
            assert coset_product_report(w, p).passed
            got = set(attained)
            wdot = permutation_monomial(w, field)
            assert got == {
                bruhat_cell(wdot * c) for c in borel_minus_elements(n, field)
            }, w

    def test_sl4_over_f3(self):
        # |U^-| = 3^6 = 729
        for w in (Permutation.identity(4), Permutation.longest(4)):
            rep = coset_product_report(w, 3)
            assert rep.passed
            assert [r.kind for r in rep.results] == ["SOUND", "COMPLETE"]


class TestValidateClass:
    def test_transvection_all_pass(self):
        c = JordanClass(2, [("u", (2,))], {"u": 1})
        rep = validate_class(c, 5)
        assert rep.passed
        kinds = {r.kind for r in rep.results}
        assert kinds == {"SOUND", "COMPLETE"}

    def test_spherical_note_attached(self):
        c = JordanClass(2, [("u", (2,))], {"u": 1})
        rep = validate_class(c, 5)
        assert any("characteristic" in n for n in rep.notes)

    def test_nonspherical_class_checked_without_spherical_rule(self):
        c = JordanClass(
            3, [("a", (1,)), ("b", (1,)), ("c", (1,))], {"a": 1, "b": 2, "c": 3}
        )
        rep = validate_class(c, 5)
        assert rep.passed
        assert not any(r.check == "spherical-cells-match" for r in rep.results)

    def test_sound_predictions_catch_a_cell_outside_them(self):
        # the central class meets only the identity cell
        c = JordanClass(3, [("u", (1, 1, 1))], {"u": 1})
        table = intersection_table(c, 5)
        w0 = Permutation.longest(3)
        doctored = IntersectionTable(
            table.jordan,
            table.p,
            table.orbit_size,
            table.cells | {w0},
            table.opposite_cells | {w0},
            table.bruhat_max,
        )
        assert validate_class(c, 5, table).passed
        failed = {r.check for r in validate_class(c, 5, doctored).failed(("SOUND",))}
        assert failed == {
            "members-obey-corank-bound",
            "members-below-dense-element",
            "opposite-members-below-dense-element",
            "involutions-obey-two-cycle-cap",
        }

    def test_complete_prediction_catches_a_missing_opposite_cell(self):
        c = JordanClass(3, [("u", (2, 1))], {"u": 1})
        table = intersection_table(c, 5)
        dropped = min(table.opposite_cells - table.cells, key=lambda w: w.images)
        doctored = IntersectionTable(
            table.jordan,
            table.p,
            table.orbit_size,
            table.cells,
            table.opposite_cells - {dropped},
            table.bruhat_max,
        )
        assert validate_class(c, 5, table).passed
        failed = {r.check for r in validate_class(c, 5, doctored).failed()}
        assert "opposite-cells-equal-lower-set" in failed

    def test_a_class_missing_one_cell_is_not_inside(self):
        # (3, 1) is dominated by the block sums, so the 3-cycles all lie in the cells
        c = JordanClass(4, [("u", (3, 1))], {"u": 1})
        table = intersection_table(c, 3)
        three_cycles = {w for w in table.cells if w.cycle_lengths() == (3, 1)}
        assert len(three_cycles) == 8
        doctored = IntersectionTable(
            table.jordan,
            table.p,
            table.orbit_size,
            table.cells - {min(three_cycles, key=lambda w: w.images)},
            table.opposite_cells,
            table.bruhat_max,
        )
        assert validate_class(c, 3, table).passed
        failed = {r.check for r in validate_class(c, 3, doctored).failed()}
        assert "class-containment-matches-dominance" in failed

    def test_a_member_class_missing_one_opposite_cell_is_caught(self):
        c = JordanClass(4, [("u", (3, 1))], {"u": 1})
        table = intersection_table(c, 3)
        met = {w.cycle_lengths() for w in table.cells}
        # an opposite cell that is no cell, of a cycle type some cell has
        dropped = min(
            (w for w in table.opposite_cells - table.cells if w.cycle_lengths() in met),
            key=lambda w: w.images,
        )
        doctored = IntersectionTable(
            table.jordan,
            table.p,
            table.orbit_size,
            table.cells,
            table.opposite_cells - {dropped},
            table.bruhat_max,
        )
        assert validate_class(c, 3, table).passed
        failed = {r.check for r in validate_class(c, 3, doctored).failed()}
        assert "member-classes-inside-opposite" in failed

    def test_an_opposite_cell_below_no_cell_is_caught_whatever_the_maximum(self):
        # the central class meets only the identity cell; a Bruhat maximum
        # of w0, no cell, must not hide the opposite cell w0
        c = JordanClass(3, [("u", (1, 1, 1))], {"u": 1})
        table = intersection_table(c, 5)
        w0 = Permutation.longest(3)
        assert w0 not in table.cells
        doctored = IntersectionTable(
            table.jordan,
            table.p,
            table.orbit_size,
            table.cells,
            table.opposite_cells | {w0},
            w0,
        )
        assert validate_class(c, 5, table).passed
        failed = {r.check for r in validate_class(c, 5, doctored).failed()}
        assert "opposite-members-below-some-member" in failed

    def test_table_of_another_class_or_prime_is_refused(self):
        central = JordanClass(3, [("x1", (1, 1, 1))], {"x1": 1})
        transvection = JordanClass(3, [("x1", (2, 1))], {"x1": 1})
        table = intersection_table(central, 5)
        with pytest.raises(ValueError, match=r"x1=1\.1\.1 at p=5, not of x1=2\.1 at p=5"):
            validate_class(transvection, 5, table)
        with pytest.raises(ValueError, match=r"x1=1\.1\.1 at p=5, not of x1=1\.1\.1 at p=7"):
            validate_class(central, 7, table)

    def test_sl8_f2_transvection_passes_every_sound_check(self):
        c = JordanClass(8, [("u", (2, 1, 1, 1, 1, 1, 1))], {"u": 1})
        rep = validate_class(c, 2)
        assert len(rep.results) > 6
        assert not rep.failed(("SOUND",))


@functools.lru_cache(maxsize=None)
def cycle_type_classes(n):
    """S_n grouped by cycle lengths, fixed points included, read off the
    nontrivial cycles: the whole-group reference for ``_whole_types``."""
    out = collections.defaultdict(set)
    for w in all_permutations(n):
        lengths = [len(cyc) for cyc in w.cycles()]
        lengths += [1] * (n - sum(lengths))
        out[tuple(sorted(lengths, reverse=True))].add(w)
    return {lam: frozenset(ws) for lam, ws in out.items()}


class TestWholeClasses:
    @given(st.data())
    def test_counting_matches_the_grouping_of_s_n(self, data):
        n = data.draw(st.integers(1, 6))
        classes = cycle_type_classes(n)
        perms = sorted((w for ws in classes.values() for w in ws), key=lambda w: w.images)
        # whole classes, with some members dropped and strays added
        chosen = data.draw(st.sets(st.sampled_from(sorted(classes))))
        dropped = data.draw(st.sets(st.sampled_from(perms), max_size=3))
        added = data.draw(st.sets(st.sampled_from(perms), max_size=20))
        ws = set().union(*(classes[lam] for lam in chosen)) - dropped | added
        expected = {lam for lam, members in classes.items() if members <= ws}
        assert oracle._whole_types(w.cycle_lengths() for w in ws) == expected

    @pytest.mark.parametrize("n", range(1, 9))
    def test_class_sizes_sum_to_the_group_order(self, n):
        sizes = {lam.parts: oracle._class_size(lam.parts) for lam in partitions_of(n)}
        assert sum(sizes.values()) == math.factorial(n)
        if n <= 6:
            assert sizes == {lam: len(ws) for lam, ws in cycle_type_classes(n).items()}


class TestFieldClasses:
    def test_sl2_f3(self):
        classes = field_classes(2, 3)
        assert len(classes) == 4
        descriptions = {c.describe() for c in classes}
        assert descriptions == {"x1=1.1", "x2=1.1", "x1=2", "x2=2"}

    def test_determinants_are_one(self):
        for n, p in [(2, 5), (3, 3)]:
            for c in field_classes(n, p):
                det = 1
                for e in c.eigen_data:
                    det = det * pow(c.values[e.label], e.multiplicity, p) % p
                assert det == 1

    def test_every_class_realizable(self):
        for c in field_classes(3, 3):
            m = jordan_matrix(c, 3)
            assert m.det() == 1
