"""Strong conjugation over cyclic shifts and conjugator cosets against a
whole-group scan.

The library links a stratum in one walk (``conjugacy._strong_component``):
it takes equal-length cyclic shifts, each a strong step, and only where
perms stay unseen finds the conjugators taking u to v as the coset
t_v C t_u^-1 of the centralizer C = C_W(u0)
(``conjugacy._conjugator_cosets``).  The reference below is the direct
definition: every element x of W is tried as a conjugator.  It is
exhaustive and only feasible for small groups.
"""

import pytest

from bruhatcells import conjugacy
from bruhatcells.conjugacy import (
    _conjugator_cosets,
    _orbit,
    _strong_component,
    _strongly_linked,
    conjugacy_classes,
    enumerate_weyl_group,
    verify_ascent_classes,
)
from bruhatcells.coxeter import WeylElement, build_root_system

EDGE_TYPES = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4",
              "C2", "C3", "C4", "D4", "G2", "F4"]
# (same-length pairs within a class, pairs among them strongly conjugate)
CONJUGATE_PAIRS = {"A3": (70, 54), "B3": (116, 110), "C3": (116, 110),
                   "D4": (1282, 838), "G2": (16, 16)}


def _strong_conj_neighbors(u, group, inverses):
    """Every v = x*u*x^-1 of u's length, x in group, with l(u) = l(x*u) +
    l(x) or l(u) = l(x) + l(u*x^-1)."""
    lu = u.length
    for x in group:
        xinv = inverses[x.perm]
        xu = x * u
        v = xu * xinv
        if v.length != lu:
            continue
        lx = x.length
        if lu == xu.length + lx or lu == lx + (u * xinv).length:
            yield v


def _reference(rs):
    group = tuple(enumerate_weyl_group(rs))
    return group, {w.perm: w.inv() for w in group}


def _reference_strongly_conjugate(w, w2, group, inverses):
    seen = {w.perm}
    todo = [w]
    while todo:
        u = todo.pop()
        for v in _strong_conj_neighbors(u, group, inverses):
            if v.perm not in seen:
                seen.add(v.perm)
                todo.append(v)
    return w2.perm in seen


@pytest.mark.parametrize("name", EDGE_TYPES)
def test_transversal_centralizer_and_orbit_stabilizer(name):
    rs = build_root_system(name)
    mul, inverse = rs._mul, rs._inverse
    order = rs.cartan_type.weyl_order
    for c in conjugacy_classes(rs):
        u0 = c.max_length[0].perm
        t, centralizer = _conjugator_cosets(rs, u0)
        assert set(t) == _orbit(rs, c.representative)
        for v, tv in t.items():
            assert mul(mul(tv, u0), inverse(tv)) == v
        for x in centralizer:
            assert mul(x, u0) == mul(u0, x)
        assert len(set(centralizer)) == len(centralizer)
        assert len(t) * len(centralizer) == order


@pytest.mark.parametrize("name", EDGE_TYPES)
def test_coset_edges_equal_whole_group_edges(name):
    rs = build_root_system(name)
    group, inverses = _reference(rs)
    for c in conjugacy_classes(rs):
        stratum = {w.perm for w in c.max_length}
        t, centralizer = _conjugator_cosets(rs, c.max_length[0].perm)
        for u in c.max_length:
            ref = {v.perm for v in _strong_conj_neighbors(u, group, inverses)}
            # x = e always links u to itself
            assert u.perm in ref
            ref &= stratum
            got = {
                v for v in stratum if _strongly_linked(rs, t, centralizer, u.perm, v)
            }
            assert got == ref, (name, c.representative, u)


@pytest.mark.parametrize("name", sorted(CONJUGATE_PAIRS))
def test_strongly_conjugate_matches_whole_group_search(name):
    rs = build_root_system(name)
    group, inverses = _reference(rs)
    checked = linked = 0
    for c in conjugacy_classes(rs):
        members = sorted(
            (WeylElement(rs, p) for p in _orbit(rs, c.representative)),
            key=lambda w: (w.length, w.rows),
        )
        for w in members:
            stratum = [w.perm] + [
                v.perm for v in members if v.length == w.length and v != w
            ]
            component = _strong_component(rs, stratum)
            for w2 in members:
                if w.length != w2.length:
                    continue
                want = _reference_strongly_conjugate(w, w2, group, inverses)
                assert (w2.perm in component) == want, (name, w, w2)
                checked += 1
                linked += want
    # in A3, B3, C3 and D4 both answers occur, so the comparison is not
    # vacuous; shifts leave 21 strata of D4 in two to four components, so
    # there the reference also checks the centralizer join
    assert (checked, linked) == CONJUGATE_PAIRS[name]


def _count_cosets(monkeypatch):
    """Count the calls of ``_conjugator_cosets``, i.e. centralizer builds."""
    calls = []
    build = conjugacy._conjugator_cosets

    def counted(rs, u0):
        calls.append(u0)
        return build(rs, u0)

    monkeypatch.setattr(conjugacy, "_conjugator_cosets", counted)
    return calls


def _shift_edge(rs, u, v):
    """Whether v = s*u*s for a simple s with l(u) = l(s*u) + 1 or l(u) =
    l(u*s) + 1, so that s is a strong conjugation step from u to v."""
    mul, length = rs._mul, rs._length
    lu = length(u)
    return any(
        rs._conj(u, i, i) == v
        and lu - 1 in (length(mul(s.perm, u)), length(mul(u, s.perm)))
        for i, s in enumerate(rs.simple_reflections)
    )


def test_centralizers_only_where_shifts_leave_several_components(monkeypatch):
    # the types of the benchmark's verify workload; E6 is pinned in
    # tests/test_acceptance.py, which runs its ascent suite anyway
    calls = _count_cosets(monkeypatch)
    per_type = {}
    for name in ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
                 "D4", "G2"):
        before = len(calls)
        assert verify_ascent_classes(name).passed
        per_type[name] = len(calls) - before
    assert sum(per_type.values()) == 10, per_type
    assert per_type == {**dict.fromkeys(per_type, 0), "B3": 1, "B4": 3,
                        "C3": 1, "C4": 3, "D4": 2}


@pytest.mark.parametrize("name", EDGE_TYPES)
def test_equal_length_shifts_are_strong_steps(name):
    rs = build_root_system(name)
    length = rs._length
    shifts = 0
    for u in enumerate_weyl_group(rs):
        for i in range(rs.rank):
            v = rs._conj(u.perm, i, i)
            if v != u.perm and length(v) == u.length:
                assert _shift_edge(rs, u.perm, v), (name, u, i)
                shifts += 1
    assert shifts or name == "A1"


def _shift_split(rs, stratum):
    """The stratum split into the components of its strong shift steps."""
    unseen = set(stratum)
    components = []
    for start in stratum:
        if start in unseen:
            unseen.discard(start)
            component = [start]
            for u in component:
                for v in [v for v in unseen if _shift_edge(rs, u, v)]:
                    unseen.discard(v)
                    component.append(v)
            components.append(component)
    return components


def test_cosets_join_the_shift_components_of_a_d4_stratum(monkeypatch):
    rs = build_root_system("D4")
    group, inverses = _reference(rs)
    (c,) = [
        c for c in conjugacy_classes(rs)
        if [len(comp) for comp in
            _shift_split(rs, [w.perm for w in c.max_length])] == [2, 2, 2]
    ]
    calls = _count_cosets(monkeypatch)
    tops = sorted(c.max_length, key=lambda w: w.rows)
    assert _strong_component(rs, [w.perm for w in tops]) == {w.perm for w in tops}
    assert len(calls) == 1
    assert all(
        _reference_strongly_conjugate(tops[0], w, group, inverses) for w in tops
    )
