import dataclasses
import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bruhatcells.errors import GuardError
from bruhatcells.oracle import (
    MatrixFq,
    PrimeField,
    borel_order,
    bruhat_cell,
    bruhat_factor,
    cell_size_census,
    coset_product_report,
    enumerate_sl,
    field_classes,
    geometric_orbit,
    gl_order,
    intersection_table,
    jordan_matrix,
    longest_monomial,
    opposite_bruhat_cell,
    permutation_monomial,
    sl_order,
    validate_class,
)
from bruhatcells.oracle import (
    DEFAULT_PAIRS,
    _cell_pattern,
    _iter_orbit,
    _opposite_pattern,
    _torus_class,
    _torus_expand,
)
from bruhatcells.permutations import Permutation, all_permutations, bruhat_leq_perm
from bruhatcells.sl_criteria import JordanClass


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

    def test_primitive_root(self):
        f = PrimeField(5)
        g = f.primitive_root()
        assert sorted(pow(g, k, 5) for k in range(1, 5)) == [1, 2, 3, 4]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            PrimeField(6)
        with pytest.raises(ValueError):
            PrimeField(37)


class TestMatrixFq:
    def test_multiply_and_identity(self):
        f = PrimeField(5)
        a = MatrixFq.from_rows(f, [[1, 2], [3, 4]])
        assert a * MatrixFq.identity(f, 2) == a
        b = MatrixFq.from_rows(f, [[0, 1], [4, 0]])
        assert (a * b).entries == (3, 1, 1, 3)

    def test_det_and_inverse(self):
        f = PrimeField(7)
        rng = random.Random(3)
        for _ in range(50):
            m = random_invertible(rng, f, 3)
            assert (m * m.inverse()) == MatrixFq.identity(f, 3)
            prod = m.det() * m.inverse().det() % 7
            assert prod == 1

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

    def test_hashing_and_key(self):
        f = PrimeField(3)
        a = MatrixFq.from_rows(f, [[1, 2], [0, 1]])
        b = MatrixFq(f, 2, (1, 2, 0, 1))
        assert a == b and hash(a) == hash(b)
        assert a.key() == bytes((1, 2, 0, 1))


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
            b1, mono, b2, w = bruhat_factor(g)
            assert b1.is_upper_triangular() and b2.is_upper_triangular()
            assert b1 * mono * b2 == g
            nonzero = [
                (i, j)
                for i in range(n)
                for j in range(n)
                if mono.entries[i * n + j]
            ]
            assert sorted(j for _, j in nonzero) == list(range(n))
            assert sorted(i for i, _ in nonzero) == list(range(n))
            assert all(i == w(j + 1) - 1 for i, j in nonzero)
            assert bruhat_cell(g) == w

    def test_singular_rejected(self):
        f = PrimeField(3)
        with pytest.raises(ValueError):
            bruhat_cell(MatrixFq.from_rows(f, [[1, 1], [2, 2]]))

    def test_longest_monomial_has_det_one(self):
        for n in range(2, 6):
            for p in (3, 5, 7):
                w0 = longest_monomial(n, PrimeField(p))
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
        assert opposite_bruhat_cell(longest_monomial(3, f)) == Permutation.longest(3)

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
        assert _opposite_pattern(g.entries, n, field) == _cell_pattern(
            (g * longest_monomial(n, field)).entries, n, field
        )


class TestCellCensus:
    @pytest.mark.parametrize("n,p", [(2, 3), (3, 2)])
    def test_partition_of_group(self, n, p):
        census = cell_size_census(n, p)
        assert sum(census.values()) == sl_order(n, p)
        b = borel_order(n, p)
        for w, size in census.items():
            assert size == b * p ** w.inversions()

    def test_enumerate_sl_counts(self):
        assert sum(1 for _ in enumerate_sl(2, 7)) == 336
        assert sum(1 for _ in enumerate_sl(3, 3)) == 5616


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
        for ent in enumerate_sl(2, 5):
            x = MatrixFq(f, 2, ent)
            regrown.add(x * other * x.inverse())
        # SL-conjugation may only see part of a GL orbit; here it is all of it
        assert regrown <= orbit

    def test_guard(self):
        c = JordanClass(4, [("u", (2, 1, 1))], {"u": 1})
        with pytest.raises(GuardError):
            geometric_orbit(c, 7)


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
                for rep, _ in _iter_orbit(other)
                for ent in _torus_expand(rep, 2, other.field)
            }
            assert regrown == orbit


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
        g = field.primitive_root()
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
        cells.add(_cell_pattern(ent, n, field))
        opposite.add(_opposite_pattern(ent, n, field))
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
        rep, size = _torus_class(m, n, field)
        # T-invariant
        assert _torus_class(_torus_conjugate(m, t, field), n, field) == (rep, size)
        # T-conjugate to its input (scalars act trivially, so t_0 = 1)
        units = range(1, p)
        torus = [(1,) + rest for rest in itertools.product(units, repeat=n - 1)]
        assert any(_torus_conjugate(m, s, field) == rep for s in torus)
        if n <= 3:
            members = {_torus_conjugate(m, s, field) for s in torus}
            assert size == len(members)
            expanded = list(_torus_expand(rep, n, field))
            assert len(expanded) == size and set(expanded) == members

    def test_walk_visits_fewer_classes_than_matrices(self):
        c = JordanClass(
            3, [("a", (1,)), ("b", (1,)), ("c", (1,))], {"a": 1, "b": 2, "c": 3}
        )
        classes = list(_iter_orbit(jordan_matrix(c, 5)))
        assert sum(size for _, size in classes) == gl_order(3, 5) // 4**3
        assert len(classes) == len({rep for rep, _ in classes}) == 1506


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

    def test_sampling_mode(self):
        rep = coset_product_report(
            Permutation.parse("(1 2)", 3), 3, sample_budget=2000
        )
        assert rep.passed
        assert any("sampled" in n for n in rep.notes)

    def test_guard(self):
        with pytest.raises(GuardError):
            coset_product_report(Permutation.identity(4), 2)


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
        doctored = dataclasses.replace(
            table, cells=table.cells | {w0}, opposite_cells=table.opposite_cells | {w0}
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
        doctored = dataclasses.replace(
            table, opposite_cells=table.opposite_cells - {dropped}
        )
        assert validate_class(c, 5, table).passed
        failed = {r.check for r in validate_class(c, 5, doctored).failed()}
        assert "opposite-cells-equal-lower-set" in failed


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
