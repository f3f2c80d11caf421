"""Acceptance suite: the end-to-end criteria the library must satisfy.

Each test prints one pass/fail line so a plain `pytest -s tests/test_acceptance.py`
reads as a checklist.  Everything here is exhaustive at the stated sizes;
there are no tolerances, only exact equality.
"""

import json
import pathlib

import pytest

from bruhatcells import clear_caches, conjugacy
from bruhatcells.cli import main
from bruhatcells.conjugacy import (
    involution_classes,
    unique_max_involutions,
    verify_ascent_classes,
    verify_coxeter_bound,
    verify_subset_conjugacy,
    verify_twisted_minimum,
    verify_unique_max_classification,
)
from bruhatcells.coxeter import build_root_system, bruhat_leq
from bruhatcells.conjugacy import enumerate_weyl_group
from bruhatcells.oracle import (
    COMPLETE_PAIRS,
    DEFAULT_PAIRS,
    _below_no_cell,
    _orbit_size,
    cell_size_census,
    field_classes,
    intersection_table,
    sl_order,
    validate_class,
)
from bruhatcells.partitions import Partition, cycle_type, dominance_leq, partitions_of
from bruhatcells.permutations import all_permutations, bruhat_leq_perm, involutions
from bruhatcells.sl_criteria import abstract_jordan_classes, involution_cell_meets, weyl_class_inside

CLASSIFICATION_TYPES = [
    "A1", "A2", "A3", "A4", "A5", "A6",
    "B2", "B3", "B4", "B5",
    "C2", "C3", "C4", "C5",
    "D4", "D5", "D6",
    "G2", "F4", "E6",
]

ASCENT_TYPES = [
    "A1", "A2", "A3", "A4", "A6", "B2", "B3", "B4", "B5",
    "C3", "D4", "D5", "G2", "F4",
]

COXETER_TYPES = [
    "A1", "A2", "A3", "A4", "A5",
    "B2", "B3", "B4", "C2", "C3", "C4", "D4",
    "G2", "F4",
]


EXPECTED = pathlib.Path(__file__).resolve().parent / "expected"


def announce(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {status} {name} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def oracle_tables():
    """Intersection tables for every class at every default and every
    COMPLETE (n, q) pair, all within the orbit guard."""
    tables = {}
    for n, q in dict.fromkeys(DEFAULT_PAIRS + COMPLETE_PAIRS):
        tables[(n, q)] = [(c, intersection_table(c, q)) for c in field_classes(n, q)]
    return tables


def test_orbit_size_formula(oracle_tables):
    """|GL(n, F_q)| / |C(g)|, with |C(g)| from the Jordan data (Macdonald),
    is the number of matrices the orbit walk counts, for every class."""
    for (n, q), rows in oracle_tables.items():
        for c, table in rows:
            assert _orbit_size(c, q) == table.orbit_size, (n, q, c.describe())


def test_criterion_1_unique_max_classification():
    """Computed unique-maximal involutions match the catalog, all types."""
    for name in CLASSIFICATION_TYPES:
        rep = verify_unique_max_classification(name)
        announce(f"classification {name}", rep.passed, rep.to_text() if not rep.passed else "")
    # frozen cardinalities, derived from exhaustive runs
    for name, size in [("A3", 3), ("B4", 7), ("G2", 4), ("E6", 4)]:
        got = len(unique_max_involutions(build_root_system(name)))
        announce(f"classification size {name}", got == size, f"got {got}, want {size}")


def test_criterion_2_ascent_and_strong_conjugation():
    """Every element ascends to a maximum; maxima are strongly linked."""
    for name in ASCENT_TYPES:
        rep = verify_ascent_classes(name)
        announce(f"ascent suite {name}", rep.passed, "" if rep.passed else rep.to_text())


def test_criterion_3_twisted_minimum():
    """w0*m is the unique minimal element of its twisted class, all types."""
    for name in CLASSIFICATION_TYPES:
        rep = verify_twisted_minimum(name)
        announce(f"twisted minimum {name}", rep.passed, "" if rep.passed else rep.to_text())


def test_criterion_4_involution_rule_consistency():
    """Both membership routes agree for every class and involution, n+1 <= 8."""
    for m in range(2, 9):
        invs = list(involutions(m))
        bad = 0
        for c in abstract_jordan_classes(m):
            for w in invs:
                if involution_cell_meets(c, w) != weyl_class_inside(c, cycle_type(w)):
                    bad += 1
        announce(f"involution-rule consistency SL({m})", bad == 0, f"{bad} mismatches")


def dual(lam):
    """Transpose of the shape: dual(lam)_k = #{j : lam_j >= k}."""
    if not len(lam):
        return Partition(())
    return Partition(sum(1 for p in lam if p >= k) for k in range(1, lam[0] + 1))


def two_one_shape(p, l):
    """The partition (2^l, 1^(p-2l)) of p."""
    if not 0 <= 2 * l <= p:
        raise ValueError(f"need 0 <= l <= p/2, got p={p}, l={l}")
    return Partition((2,) * l + (1,) * (p - 2 * l))


def test_criterion_5_partition_suite():
    """Dominance/dual duality and the hook-shape bound, weights <= 10: the
    shape (2^l, 1^(p-2l)) is dominated by mu exactly when len(mu) <= p - l."""
    bad = 0
    for p in range(1, 11):
        lams = list(partitions_of(p))
        for a in lams:
            for b in lams:
                if dominance_leq(a, b) != dominance_leq(dual(b), dual(a)):
                    bad += 1
    announce("dominance-dual duality w<=10", bad == 0, f"{bad} mismatches")
    bad = 0
    for p in range(1, 11):
        for l in range(p // 2 + 1):
            for mu in partitions_of(p):
                if dominance_leq(two_one_shape(p, l), mu) != (len(mu) <= p - l):
                    bad += 1
    announce("hook-bound agreement p<=10", bad == 0, f"{bad} mismatches")


def borel_order(n, q):
    """Order of the upper-triangular subgroup of SL(n, F_q)."""
    return (q - 1) ** (n - 1) * q ** (n * (n - 1) // 2)


def test_criterion_6_oracle_sound(oracle_tables):
    """SOUND checks for every class at every tabled (n, q); cell census."""
    for (n, q), pairs in oracle_tables.items():
        failures = []
        for c, table in pairs:
            rep = validate_class(c, q, table)
            failures.extend(
                (c.describe(), r.check, r.witness) for r in rep.failed(("SOUND",))
            )
        announce(
            f"oracle SOUND n={n} q={q} ({len(pairs)} classes)",
            not failures,
            str(failures[:3]),
        )
    for n, q in DEFAULT_PAIRS:
        census = cell_size_census(n, q)
        total_ok = sum(census.values()) == sl_order(n, q)
        b = borel_order(n, q)
        formula_ok = all(
            size == b * q ** w.inversions() for w, size in census.items()
        )
        announce(
            f"oracle cell census n={n} q={q}",
            total_ok and formula_ok,
            f"total_ok={total_ok} formula_ok={formula_ok}",
        )


def test_criterion_7_oracle_complete(oracle_tables):
    """COMPLETE checks: empirical sets equal predictions at the listed pairs."""
    for n, q in COMPLETE_PAIRS:
        failures = []
        for c, table in oracle_tables[(n, q)]:
            rep = validate_class(c, q, table)
            failures.extend(
                (c.describe(), r.check, r.witness)
                for r in rep.failed(("COMPLETE",))
            )
        announce(
            f"oracle COMPLETE n={n} q={q}",
            not failures,
            str(failures[:3]),
        )


def test_bruhat_max_equals_the_pairwise_maxima(oracle_tables):
    """The one-pass unique maximum of each table equals the maximal cells
    found by comparing every pair, when exactly one cell is maximal."""
    for n, q in DEFAULT_PAIRS:
        for c, table in oracle_tables[(n, q)]:
            cells = table.cells
            maxima = [
                w for w in cells
                if not any(v != w and bruhat_leq_perm(w, v) for v in cells)
            ]
            want = maxima[0] if len(maxima) == 1 else None
            assert table.bruhat_max == want, (n, q, c.describe())


def test_below_no_cell_matches_the_scan_of_every_cell(oracle_tables):
    """The permutations below no cell, tested against the maximal cells
    alone, equal those found by testing every cell: for the opposite cells,
    which the COMPLETE check reads, and for all of S_n, where there are
    offenders."""
    offenders = 0
    for n, q in [(3, 5), (4, 3)]:
        everything = list(all_permutations(n))
        for c, table in oracle_tables[(n, q)]:
            for ws in (table.opposite_cells, everything):
                want = {
                    w for w in ws
                    if not any(bruhat_leq_perm(w, v) for v in table.cells)
                }
                offenders += len(want)
                got = _below_no_cell(ws, table.cells)
                assert len(got) == len(set(got)) and set(got) == want, (
                    n, q, c.describe()
                )
    announce("below-no-cell-matches-scan", offenders > 0, f"{offenders} offenders")


def test_criterion_8_bruhat_engine_cross_validation():
    """Lifting-recursion Bruhat order equals the subword oracle, all pairs."""
    from bruhatcells.coxeter import reduced_word, simple_reflection

    for name in ["A3", "B3", "C3"]:
        rs = build_root_system(name)
        elements = tuple(enumerate_weyl_group(rs))
        bad = 0
        for w in elements:
            reachable = {rs.identity}
            for i in reduced_word(w):
                reachable |= {u * simple_reflection(rs, i) for u in reachable}
            for u in elements:
                if bruhat_leq(u, w) != (u in reachable):
                    bad += 1
        announce(f"bruhat cross-validation {name}", bad == 0, f"{bad} mismatches")


def test_criterion_9_coxeter_elements_bounded():
    """Every Coxeter element lies below every nonidentity member."""
    for name in COXETER_TYPES:
        rep = verify_coxeter_bound(name)
        announce(f"coxeter bound {name}", rep.passed, "" if rep.passed else rep.to_text())


def test_optional_e7_classification():
    """The E7 run: about 0.1 s of CPU time and 20 MB peak RSS (2 vCPUs,
    Python 3.11)."""
    rep = verify_unique_max_classification("E7")
    announce("classification E7", rep.passed)
    got = len(unique_max_involutions(build_root_system("E7")))
    announce("classification size E7", got == 6, f"got {got}, want 6")


def test_e6_ascent_and_strong_conjugation(monkeypatch):
    """The E6 ascent suite under the override: 25 classes of W(E6), 51,840
    elements.  Of the 21 classes with several maxima, cyclic shifts link
    the maximal stratum of 18, and only the other 3 build a centralizer and
    join their shift components through its cosets.  0.86-1.19 s of CPU
    time and 41 MB peak RSS (2 vCPUs, Python 3.11), against 360 s and 149 MB
    trying every element of W as a conjugator.  The report is pinned in
    tests/expected/ascent_E6.json."""
    calls = []
    build = conjugacy._conjugator_cosets
    monkeypatch.setattr(
        conjugacy, "_conjugator_cosets", lambda rs, u0: calls.append(u0) or build(rs, u0)
    )
    try:
        rep = verify_ascent_classes("E6", allow_large=True)
        announce("ascent suite E6", rep.passed, "" if rep.passed else rep.to_text())
        announce("centralizers built E6", len(calls) == 3, f"got {len(calls)}, want 3")
        got = json.dumps(rep.to_dict(), indent=2) + "\n"
        want = (EXPECTED / "ascent_E6.json").read_text(encoding="utf-8")
        announce("ascent suite E6 as recorded", got == want)
    finally:
        # release the enumerated group and its classes
        clear_caches()


def test_e6_subset_conjugacy():
    """The E6 subset-conjugacy suite, without the override: 36 pairs
    (J, K), 0.012-0.015 s of CPU time and 17 MB peak RSS (2 vCPUs, Python
    3.11), with the mappings closed from elementary steps over the 16
    -w0-stable subsets; taking them from the centralizer C_W(w0) took
    0.03 s and 19 MB, and picking them from all of W(E6) 0.6 s and 29 MB."""
    try:
        rep = verify_subset_conjugacy("E6")
        announce("subset conjugacy E6", rep.passed, "" if rep.passed else rep.to_text())
    finally:
        clear_caches()


def test_e8_classification(capsys, monkeypatch):
    """`bruhatcells verify --type E8` with no flags: the classification,
    twisted-min, subset-conjugacy and Coxeter-bound suites pass and only
    ascent is skipped, W(E8) is never enumerated.  199,952 involutions in
    10 classes, the largest of 113,400; 1.65-1.83 s of CPU time and 54 MB
    peak RSS for the whole run, three runs (2 vCPUs, Python 3.11), of which
    the classification takes 1.5-2.3 s in a process of its own.  Holding
    every member of every class took 2.5-2.9 s and 103 MB on the same
    runs, tuple permutations about 19 s and 462 MB for the classification,
    integer matrices about 109 s and 268 MB."""
    walks = []
    monkeypatch.setattr(conjugacy, "enumerate_weyl_group", walks.append)
    try:
        code = main(["verify", "--type", "E8", "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        announce("verify E8", code == 0 and data["passed"], f"exit code {code}")
        names = [r["name"] for r in data["reports"]]
        announce("verify E8 runs four suites", len(names) == 4, str(names))
        announce("verify E8 skips only ascent", data["skipped"] == ["ascent"])
        rs = build_root_system("E8")
        got = len(unique_max_involutions(rs))
        announce("classification size E8", got == 5, f"got {got}, want 5")
        classes = involution_classes(rs)
        sizes = (len(classes), sum(map(len, classes)))
        announce("involutions E8", sizes == (10, 199952), f"got {sizes}")
        announce("W(E8) not enumerated", walks == [])
    finally:
        clear_caches()


@pytest.mark.parametrize("name", ["A9", "B9", "C9", "D9"])
def test_rank_9_classification(name):
    """The catalog's parametric A-D rules at rank 9, the bound of the
    involution-side suites: B9 and C9 have 168,992 involutions in 30
    classes and take 1.0-1.2 s of CPU time and 24-25 MB peak RSS each, D9
    (84,496 in 15) 0.5 s and 24 MB, A9 (9,496 in 6) 0.05-0.06 s and 16 MB,
    each in a process of its own, two runs (2 vCPUs, Python 3.11)."""
    try:
        rep = verify_unique_max_classification(name)
        announce(f"classification {name}", rep.passed, "" if rep.passed else rep.to_text())
    finally:
        clear_caches()
