"""The value records compare, hash, print and refuse assignment as frozen
dataclasses did; ``Report`` stays mutable and unhashable.  The ``repr``
texts are pinned to the literal text of earlier releases."""

import copy
import pickle

import pytest

from bruhatcells.conjugacy import ConjugacyClass, MaximalSet, conjugacy_class
from bruhatcells.coxeter import CartanType, build_root_system, simple_reflection
from bruhatcells.oracle import IntersectionTable, intersection_table
from bruhatcells.report import CheckResult, Report
from bruhatcells.sl_criteria import ClosureMonotonicity, EigenData, JordanClass

JORDAN = JordanClass(2, [("u", (1, 1))], {"u": 1})


def _s1_class():
    return conjugacy_class(simple_reflection(build_root_system("A1"), 1))


def _s1_class_twisted_by(delta):
    c = _s1_class()
    return ConjugacyClass(
        c.representative, c.elements, c.max_length, c.min_length, delta
    )


# name -> (build, build a record differing in one field, field values, repr)
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
        "ConjugacyClass(representative=<WeylElement A1 '1'>,"
        " elements=frozenset({<WeylElement A1 '1'>}),"
        " max_length=(<WeylElement A1 '1'>,), min_length=(<WeylElement A1 '1'>,),"
        " delta=None)",
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
# Fields that cannot be deep-copied or pickled: a WeylElement's root system
# holds local functions, and JordanClass refuses the default rebuild.
FIELDS_NOT_PICKLABLE = {"ConjugacyClass", "IntersectionTable"}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equality_is_by_value_within_one_class(name):
    build, other, values, _ = RECORDS[name]
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    assert a != other()
    assert a != object() and a != str(a)
    if values is not None:
        assert a != values  # not a tuple in disguise
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
    copies = [copy.copy(a)]
    if name not in FIELDS_NOT_PICKLABLE:
        copies += [copy.deepcopy(a), pickle.loads(pickle.dumps(a))]
    for b in copies:
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
