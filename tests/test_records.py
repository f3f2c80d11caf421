"""Every value type of the package is a ``Record``: records compare,
hash, print and refuse assignment as frozen dataclasses did, and copy and
pickle; ``Report`` stays mutable and unhashable.  A record with one field
(``Permutation``, ``Partition``) hashes as that field alone.  The ``repr``
texts are pinned to the literal text of earlier releases.  ``WeylElement``
is not a record (it fills its length in lazily, and elements of separately
built root systems of one type are equal), but it copies and pickles."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

import bruhatcells
from bruhatcells.conjugacy import ConjugacyClass, MaximalSet, _orbit, conjugacy_class
from bruhatcells.coxeter import (
    CartanType,
    WeylElement,
    build_root_system,
    simple_reflection,
)
from bruhatcells.oracle import (
    IntersectionTable,
    MatrixFq,
    PrimeField,
    intersection_table,
)
from bruhatcells.partitions import Partition
from bruhatcells.permutations import Permutation
from bruhatcells.report import CheckResult, Report
from bruhatcells.sl_criteria import ClosureMonotonicity, EigenData, JordanClass

JORDAN = JordanClass(2, [("u", (1, 1))], {"u": 1})


def _s1_class():
    return conjugacy_class(simple_reflection(build_root_system("A1"), 1))


def _s1_class_twisted_by(delta):
    c = _s1_class()
    return ConjugacyClass(
        c.representative, len(c), c.max_length, c.min_length, delta
    )


# name -> (build, build a record differing in one field, field values (a
# one-field record's field alone), repr)
RECORDS = {
    "CartanType": (
        lambda: CartanType("B", 4),
        lambda: CartanType("C", 4),
        ("B", 4),
        "CartanType(family='B', rank=4)",
    ),
    "CheckResult": (
        lambda: CheckResult("B4", "c", "SOUND", False, "s1"),
        lambda: CheckResult("B4", "c", "SOUND", False, "s2"),
        ("B4", "c", "SOUND", False, "s1"),
        "CheckResult(subject='B4', check='c', kind='SOUND', passed=False,"
        " witness='s1')",
    ),
    "EigenData": (
        lambda: EigenData("a", (2, 1)),
        lambda: EigenData("a", (1, 1, 1)),
        ("a", (2, 1)),
        "EigenData(label='a', blocks=(2, 1))",
    ),
    "ClosureMonotonicity": (
        lambda: ClosureMonotonicity(True, False, True),
        lambda: ClosureMonotonicity(True, True, True),
        (True, False, True),
        "ClosureMonotonicity(cap_monotone=True, cells_monotone=False,"
        " dense_elements_comparable=True)",
    ),
    "ConjugacyClass": (
        _s1_class,
        lambda: _s1_class_twisted_by((1,)),
        None,
        "ConjugacyClass(representative=<WeylElement A1 '1'>, size=1,"
        " max_length=(<WeylElement A1 '1'>,), min_length=(<WeylElement A1 '1'>,),"
        " delta=None)",
    ),
    "JordanClass": (
        lambda: JordanClass(2, [("u", (1, 1))], {"u": 1}),
        lambda: JordanClass(2, [("u", (1, 1))], {"u": 2}),
        (2, (EigenData("u", (1, 1)),), {"u": 1}),
        "<JordanClass SL(2) u:[1, 1]>",
    ),
    "IntersectionTable": (
        lambda: intersection_table(JORDAN, 3),
        lambda: intersection_table(JORDAN, 5),
        None,
        "IntersectionTable(jordan=<JordanClass SL(2) u:[1, 1]>, p=3, orbit_size=1,"
        " cells=frozenset({Permutation.parse('e', 2)}),"
        " opposite_cells=frozenset({Permutation.parse('e', 2)}),"
        " bruhat_max=Permutation.parse('e', 2))",
    ),
    "MaximalSet": (
        lambda: MaximalSet(CartanType("A", 1), frozenset(), {}),
        lambda: MaximalSet(CartanType("A", 2), frozenset(), {}),
        (CartanType("A", 1), frozenset(), {}),
        "MaximalSet(cartan_type=CartanType(family='A', rank=1), members=frozenset(),"
        " fixed_simples={})",
    ),
    "MatrixFq": (
        lambda: MatrixFq(PrimeField(5), 2, (1, 2, 3, 4)),
        lambda: MatrixFq(PrimeField(5), 2, (1, 2, 3, 0)),
        (PrimeField(5), 2, (1, 2, 3, 4)),
        "MatrixFq(p=5, [[1, 2], [3, 4]])",
    ),
    "Partition": (
        lambda: Partition((2, 1)),
        lambda: Partition((1, 1, 1)),
        (2, 1),
        "Partition((2, 1))",
    ),
    "Permutation": (
        lambda: Permutation((2, 1, 3)),
        lambda: Permutation((1, 3, 2)),
        (2, 1, 3),
        "Permutation.parse('(1 2)', 3)",
    ),
    "PrimeField": (
        lambda: PrimeField(5),
        lambda: PrimeField(7),
        (5, (0, 1, 3, 2, 4)),
        "PrimeField(5)",
    ),
    "Report": (
        lambda: Report("r", [CheckResult("s", "c", "EXACT", True)], ["n"]),
        lambda: Report("r", [CheckResult("s", "c", "EXACT", True)], ["m"]),
        ("r", [CheckResult("s", "c", "EXACT", True)], ["n"]),
        "Report(name='r', results=[CheckResult(subject='s', check='c', kind='EXACT',"
        " passed=True, witness=None)], notes=['n'])",
    ),
}
UNHASHABLE = {"MaximalSet", "Report"}
MUTABLE = {"Report"}
ITERABLE = {"Partition"}  # a sequence of parts by design
HASHED_WITHOUT_LAST_FIELD = {"JordanClass"}  # its last field is a dict


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equality_is_by_value_within_one_class(name):
    build, other, values, _ = RECORDS[name]
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    assert a != other()
    assert a != object() and a != str(a)
    if values is not None:
        assert a != values  # not a tuple in disguise
    if name in ITERABLE:
        return
    with pytest.raises(TypeError):
        iter(a)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_hash(name):
    build, _, values, _ = RECORDS[name]
    a = build()
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
        return
    assert hash(a) == hash(build())
    assert len({a, build()}) == 1
    if name in HASHED_WITHOUT_LAST_FIELD:
        values = values[:-1]
    if values is not None:
        assert hash(a) == hash(values)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_assignment(name):
    build, *_ = RECORDS[name]
    a = build()
    field = next(iter(type(a).__annotations__))
    if name in MUTABLE:
        setattr(a, field, "renamed")
        assert getattr(a, field) == "renamed"
        return
    before = getattr(a, field)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(a, field, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert getattr(a, field) is before


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_copy_and_pickle(name):
    build, *_ = RECORDS[name]
    a = build()
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is type(a) and b == a and repr(b) == repr(a)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr_is_pinned(name):
    build, _, _, text = RECORDS[name]
    assert repr(build()) == text


def test_keyword_construction_and_defaults():
    assert CartanType(family="B", rank=4) == CartanType("B", 4)
    assert CheckResult("s", "c", "EXACT", True).witness is None
    assert CheckResult(
        subject="s", check="c", kind="EXACT", passed=False, witness="w"
    ) == CheckResult("s", "c", "EXACT", False, "w")
    c = _s1_class()
    assert c.delta is None
    assert _s1_class_twisted_by(None) == c
    assert EigenData(label="a", blocks=(1,)) == EigenData("a", (1,))
    t = intersection_table(JORDAN, 3)
    rebuilt = IntersectionTable(
        jordan=t.jordan,
        p=t.p,
        orbit_size=t.orbit_size,
        cells=t.cells,
        opposite_cells=t.opposite_cells,
        bruhat_max=t.bruhat_max,
    )
    assert rebuilt == t


def test_matrix_entries_are_fixed_and_its_field_compares_by_value():
    m = MatrixFq(PrimeField(5), 2, (1, 2, 3, 4))
    with pytest.raises(AttributeError, match="cannot assign to field 'entries'"):
        m.entries = (0, 0, 0, 0)
    assert m.entries == (1, 2, 3, 4)
    other = MatrixFq(PrimeField(5), 2, (6, 2, 3, 4))
    assert other.field is not m.field
    assert other == m and hash(other) == hash(m)
    assert m != MatrixFq(PrimeField(7), 2, (1, 2, 3, 4))


def test_weyl_elements_copy_and_pickle_onto_the_cached_root_system():
    rs = build_root_system("B3")
    w = simple_reflection(rs, 1) * simple_reflection(rs, 3)
    for v in (copy.copy(w), copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
        assert v == w and repr(v) == repr(w) and v.rs is rs


def _members(c):
    """The reprs of a class's members, regrown from its representative."""
    rs = c.representative.rs
    return sorted(repr(WeylElement(rs, p)) for p in _orbit(rs, c.representative, c.delta))


LOAD_IN_CHILD = """
import pickle, sys
from bruhatcells.conjugacy import _orbit, conjugacy_class
from bruhatcells.coxeter import WeylElement
central, c = pickle.loads(sys.stdin.buffer.read())
rs = c.representative.rs
members = sorted(repr(WeylElement(rs, p)) for p in _orbit(rs, c.representative, c.delta))
print(repr(central))
print(c == conjugacy_class(c.representative), members)
"""


def test_a_pickled_class_loads_under_another_hash_seed():
    # Weyl elements hash as bytes, so the child's hashes differ from ours;
    # a one-element class prints the same repr under any seed.
    rs = build_root_system("B3")
    central = conjugacy_class(rs.w0)
    c = conjugacy_class(simple_reflection(rs, 1))
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    src = os.path.dirname(os.path.dirname(bruhatcells.__file__))
    out = subprocess.run(
        [sys.executable, "-c", LOAD_IN_CHILD],
        input=pickle.dumps((central, c)),
        capture_output=True,
        check=True,
        env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
    ).stdout.decode()
    assert out.splitlines() == [
        repr(central),
        f"True {_members(c)}",
    ]


def test_each_report_gets_fresh_lists():
    a, b = Report("a"), Report("b")
    a.add("s", "c", "EXACT", True)
    a.notes.append("n")
    assert (b.results, b.notes) == ([], [])
    assert Report("a") == Report("a", [], [])
    results = []
    assert Report("r", results).results is results


@pytest.mark.parametrize(
    "family, rank, message",
    [
        ("H", 3, "unknown family 'H'"),
        ("D", 3, "rank 3 out of range for family D"),
        ("G", 3, "rank 3 out of range for family G"),
        ("A", True, "rank must be an integer: True"),
        ("A", 3.0, "rank must be an integer: 3.0"),
        ("A", "3", "rank must be an integer: '3'"),
    ],
)
def test_cartan_type_rejects(family, rank, message):
    with pytest.raises(ValueError) as info:
        CartanType(family, rank)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "blocks, message",
    [
        ((1.0,), "blocks must be integers: (1.0,)"),
        ((), "blocks must be positive: ()"),
        ((2, 0), "blocks must be positive: (2, 0)"),
        ((1, 2), "blocks must be non-increasing: (1, 2)"),
    ],
)
def test_eigen_data_rejects(blocks, message):
    with pytest.raises(ValueError) as info:
        EigenData("a", blocks)
    assert str(info.value) == message
