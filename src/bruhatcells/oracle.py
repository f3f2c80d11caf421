"""Brute-force ground truth over small prime fields.

Exact mod-p linear algebra, Bruhat decomposition of invertible matrices by
pivot elimination, enumeration of geometric (= GL-orbit) conjugacy classes
in SL(n, F_p), and empirical computation of which cells BwB and BwB^- a
class meets.  Membership found over F_p certifies membership over the
algebraic closure, so these tables give one-sided ground truth everywhere
("SOUND" checks) and, at the field sizes listed in COMPLETE_PAIRS, turn
out to reproduce the predicted sets exactly ("COMPLETE" checks).

Both cell systems are invariant under conjugation by the diagonal torus T,
so an orbit is walked one T-conjugacy class at a time and only a canonical
representative of each class is eliminated: over DEFAULT_PAIRS that is
10,927 representatives for 103,250 matrices, and the (3, 5) sweep walks
6,226 classes instead of 97,000 matrices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .errors import GuardError
from .partitions import cycle_type, partitions_of
from .permutations import (
    Permutation,
    all_permutations,
    bruhat_leq_perm,
    involutions,
)
from .report import Report
from .sl_criteria import (
    JordanClass,
    SPHERICAL_CHAR_CAVEAT,
    block_sum_partition,
    bruhat_lower_set,
    dense_cell_involution,
    involution_cell_meets,
    is_spherical,
    passes_corank_bound,
    spherical_weyl_set,
    weyl_class_inside,
)

__all__ = [
    "PrimeField",
    "MatrixFq",
    "IntersectionTable",
    "bruhat_cell",
    "opposite_bruhat_cell",
    "bruhat_factor",
    "longest_monomial",
    "permutation_monomial",
    "jordan_matrix",
    "geometric_orbit",
    "intersection_table",
    "coset_product_report",
    "validate_class",
    "field_classes",
    "enumerate_sl",
    "cell_size_census",
    "gl_order",
    "sl_order",
    "borel_order",
    "DEFAULT_PAIRS",
    "COMPLETE_PAIRS",
    "ORBIT_LIMIT",
]

# (dimension, prime) pairs whose full class sweep stays at desk scale
DEFAULT_PAIRS = ((2, 3), (2, 5), (2, 7), (3, 2), (3, 3), (3, 5), (4, 2))
# pairs where the empirical tables match the predicted sets exactly
COMPLETE_PAIRS = ((2, 5), (2, 7), (3, 5))

ORBIT_LIMIT = 10**7
_MAX_PRIME = 31


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class PrimeField:
    """Arithmetic mod a prime p <= 31, with a cached inverse table."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p > _MAX_PRIME:
            raise ValueError(f"p = {p} exceeds the supported bound {_MAX_PRIME}")
        self.p = p
        self.inverse = (0,) + tuple(pow(x, p - 2, p) for x in range(1, p))

    def __repr__(self):
        return f"PrimeField({self.p})"

    def primitive_root(self) -> int:
        for g in range(2, self.p):
            seen = set()
            x = 1
            for _ in range(self.p - 1):
                x = x * g % self.p
                seen.add(x)
            if len(seen) == self.p - 1:
                return g
        return 1  # p == 2


class MatrixFq:
    """An n x n matrix over F_p; entries are a flat row-major tuple in 0..p-1."""

    __slots__ = ("field", "n", "entries", "_det")

    def __init__(self, field: PrimeField, n: int, entries):
        self.field = field
        self.n = n
        self.entries = tuple(v % field.p for v in entries)
        if len(self.entries) != n * n:
            raise ValueError(f"expected {n * n} entries, got {len(self.entries)}")
        self._det = None

    @classmethod
    def from_rows(cls, field, rows) -> "MatrixFq":
        rows = [list(r) for r in rows]
        return cls(field, len(rows), [v for r in rows for v in r])

    @classmethod
    def identity(cls, field, n) -> "MatrixFq":
        return cls(field, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    def __eq__(self, other):
        return (
            isinstance(other, MatrixFq)
            and self.field.p == other.field.p
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field.p, self.entries))

    def key(self) -> bytes:
        """Canonical fixed-width byte encoding (entries fit one byte each)."""
        return bytes(self.entries)

    def __repr__(self):
        rows = [
            list(self.entries[i * self.n : (i + 1) * self.n]) for i in range(self.n)
        ]
        return f"MatrixFq(p={self.field.p}, {rows})"

    def __mul__(self, other: "MatrixFq") -> "MatrixFq":
        if self.field.p != other.field.p or self.n != other.n:
            raise ValueError("matrix shapes or fields differ")
        n, p = self.n, self.field.p
        a, b = self.entries, other.entries
        out = []
        for i in range(n):
            base = i * n
            for j in range(n):
                out.append(sum(a[base + k] * b[k * n + j] for k in range(n)) % p)
        return MatrixFq(self.field, n, out)

    def det(self) -> int:
        """sign(sigma) times the pivots of the monomial matrix that
        ``_eliminate`` leaves: its row and column operations are
        unitriangular and keep the determinant.  0 when it is singular."""
        if self._det is None:
            n, p = self.n, self.field.p
            m = list(self.entries)
            try:
                sigma = _eliminate(m, n, self.field)
            except ValueError:
                self._det = 0
                return 0
            det = 1
            for j, i in enumerate(sigma):
                det = det * m[(i - 1) * n + j] % p
            if Permutation(sigma).inversions() % 2:
                det = -det % p
            self._det = det
        return self._det

    def inverse(self) -> "MatrixFq":
        n, p = self.n, self.field.p
        m = [
            list(self.entries[i * n : (i + 1) * n])
            + [1 if k == i else 0 for k in range(n)]
            for i in range(n)
        ]
        for j in range(n):
            piv = next((i for i in range(j, n) if m[i][j]), None)
            if piv is None:
                raise ValueError("singular matrix")
            m[j], m[piv] = m[piv], m[j]
            inv = self.field.inverse[m[j][j]]
            m[j] = [v * inv % p for v in m[j]]
            for i in range(n):
                if i != j and m[i][j]:
                    f = m[i][j]
                    m[i] = [(a - f * b) % p for a, b in zip(m[i], m[j])]
        return MatrixFq(self.field, n, [m[i][n + k] for i in range(n) for k in range(n)])

    def is_upper_triangular(self) -> bool:
        n = self.n
        return all(
            self.entries[i * n + j] == 0 for i in range(n) for j in range(i)
        )


def _eliminate(m, n, field, b1=None, b2=None):
    """Reduce the invertible matrix m (a flat row-major list, in place) to a
    monomial matrix by clearing above pivots with row operations and right
    of pivots with column operations, both triangular.  Returns sigma with
    sigma[j] = pivot row of column j (1-based).  Given flat identity lists
    b1 and b2, also updates them so that the input equals b1 * m * b2."""
    p = field.p
    inv = field.inverse
    claimed = [False] * n
    sigma = [0] * n
    for j in range(n):
        piv = -1
        for i in range(n - 1, -1, -1):
            if not claimed[i] and m[i * n + j]:
                piv = i
                break
        if piv < 0:
            raise ValueError("singular matrix")
        claimed[piv] = True
        sigma[j] = piv + 1
        pbase = piv * n
        pinv = inv[m[pbase + j]]
        for i in range(piv):
            a = m[i * n + j]
            if a:
                f = a * pinv % p
                ibase = i * n
                # the pivot row is zero left of column j
                for k in range(j, n):
                    m[ibase + k] = (m[ibase + k] - f * m[pbase + k]) % p
                if b1 is not None:  # b1 := b1 * (I + f e_{i,piv})
                    for r in range(0, n * n, n):
                        b1[r + piv] = (b1[r + piv] + f * b1[r + i]) % p
        for k in range(j + 1, n):
            a = m[pbase + k]
            if a:
                f = a * pinv % p
                for i2 in range(n):
                    b = i2 * n
                    m[b + k] = (m[b + k] - f * m[b + j]) % p
                if b2 is not None:  # b2 := (I + f e_{j,k}) * b2
                    for c in range(n):
                        b2[j * n + c] = (b2[j * n + c] + f * b2[k * n + c]) % p
    return tuple(sigma)


def _cell_pattern(entries, n, field):
    """Pivot pattern of an invertible matrix, see ``_eliminate``."""
    return _eliminate(list(entries), n, field)


def _opposite_pattern(entries, n, field):
    """Pivot pattern of g*w0dot: w0dot reverses the columns of g up to a
    diagonal factor in B, which leaves the cell unchanged."""
    rows = (entries[i : i + n] for i in range(0, n * n, n))
    return _eliminate([v for row in rows for v in reversed(row)], n, field)


def bruhat_cell(g: MatrixFq) -> Permutation:
    """The unique w with g in BwB, for B the upper-triangular subgroup."""
    return Permutation(_cell_pattern(g.entries, g.n, g.field))


def bruhat_factor(g: MatrixFq):
    """Factor g = b1 * m * b2 with b1, b2 upper triangular and m monomial;
    returns (b1, m, b2, w)."""
    n = g.n
    m = list(g.entries)
    b1 = [1 if i == j else 0 for i in range(n) for j in range(n)]
    b2 = list(b1)
    sigma = _eliminate(m, n, g.field, b1, b2)
    return (
        MatrixFq(g.field, n, b1),
        MatrixFq(g.field, n, m),
        MatrixFq(g.field, n, b2),
        Permutation(sigma),
    )


def longest_monomial(n: int, field: PrimeField) -> MatrixFq:
    """The fixed antidiagonal representative of the longest element:
    entry (-1)^i at position (i, n-1-i), which always has determinant one."""
    ent = [0] * (n * n)
    for i in range(n):
        ent[i * n + (n - 1 - i)] = (-1) ** i % field.p
    return MatrixFq(field, n, ent)


def permutation_monomial(w: Permutation, field: PrimeField) -> MatrixFq:
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


def opposite_bruhat_cell(g: MatrixFq) -> Permutation:
    """The unique w with g in BwB^-, via g*w0dot in B(w*w0)B."""
    u = Permutation(_opposite_pattern(g.entries, g.n, g.field))
    return u * Permutation.longest(g.n)


def gl_order(n: int, q: int) -> int:
    order = 1
    for i in range(n):
        order *= q**n - q**i
    return order


def sl_order(n: int, q: int) -> int:
    return gl_order(n, q) // (q - 1)


def borel_order(n: int, q: int) -> int:
    """Order of the upper-triangular subgroup of SL(n, F_q)."""
    return (q - 1) ** (n - 1) * q ** (n * (n - 1) // 2)


def jordan_matrix(c: JordanClass, p: int) -> MatrixFq:
    """Block-diagonal Jordan representative over F_p.

    Requires concrete eigenvalues; checks they are distinct and nonzero mod
    p and that the determinant is one.
    """
    if c.values is None:
        raise ValueError("class has no concrete eigenvalues")
    field = PrimeField(p)
    vals = {label: v % p for label, v in c.values.items()}
    if any(v == 0 for v in vals.values()):
        raise ValueError("zero eigenvalue: matrix would be singular")
    if len(set(vals.values())) != len(vals):
        raise ValueError(f"eigenvalues collide mod {p}: {c.values}")
    det = 1
    for e in c.eigen_data:
        det = det * pow(vals[e.label], e.multiplicity, p) % p
    if det != 1:
        raise ValueError(f"determinant {det} != 1 mod {p}")
    n = c.n_plus_1
    ent = [0] * (n * n)
    pos = 0
    for e in c.eigen_data:
        v = vals[e.label]
        for size in e.blocks:
            for k in range(size):
                ent[(pos + k) * n + (pos + k)] = v
                if k + 1 < size:
                    ent[(pos + k) * n + (pos + k + 1)] = 1
            pos += size
    return MatrixFq(field, n, ent)


def _conjugation_ops(n: int, field: PrimeField):
    """In-place conjugation callbacks for I + c*e_12 (every c in F_p^*) and
    the n-1 adjacent transposition matrices.  Conjugating this set by the
    diagonal torus T gives it back up to factors in T, and with T it
    generates GL(n), so closing T-class representatives under it reaches
    every T-class of a GL(n)-orbit."""
    p = field.p
    ops = []

    def make_transvection(c):
        def conj(m):
            for k in range(n):  # row_0 += c * row_1
                m[k] = (m[k] + c * m[n + k]) % p
            for b in range(0, n * n, n):  # col_1 -= c * col_0
                m[b + 1] = (m[b + 1] - c * m[b]) % p

        return conj

    def make_swap(i):
        def conj(m):
            a, b = i * n, (i + 1) * n
            m[a : a + n], m[b : b + n] = m[b : b + n], m[a : a + n]
            for r in range(0, n * n, n):
                m[r + i], m[r + i + 1] = m[r + i + 1], m[r + i]

        return conj

    if n > 1:
        ops.extend(make_transvection(c) for c in range(1, p))
    ops.extend(make_swap(i) for i in range(n - 1))
    return ops


@lru_cache(maxsize=4096)
def _support_forest(support: tuple, n: int):
    """Spanning forest of the graph on 0..n-1 with an edge u-v where the
    nonzero flags ``support`` (row by row) mark m_uv or m_vu, grown
    depth-first from the least vertex of each component.  Returns the edges
    as (index of m_uv, index of m_vu, u, v) with u already reached, and the
    number of components."""
    reached = [False] * n
    edges = []
    components = 0
    for root in range(n):
        if reached[root]:
            continue
        components += 1
        reached[root] = True
        stack = [root]
        while stack:
            u = stack.pop()
            for v in range(n):
                if not reached[v] and (support[u * n + v] or support[v * n + u]):
                    reached[v] = True
                    edges.append((u * n + v, v * n + u, u, v))
                    stack.append(v)
    return tuple(edges), components


def _torus_class(m, n: int, field: PrimeField):
    """Canonical representative and size of the T-conjugacy class of the
    flat matrix m, T the diagonal torus of GL(n, F_p).

    (t m t^-1)_uv = t_u m_uv / t_v, so scaling along a spanning forest of
    the off-diagonal support graph turns every forest entry into 1 (m_uv,
    or m_vu where m_uv = 0); this fixes t up to a constant on each
    component, which leaves the matrix alone.  The class therefore has
    (p-1)^(n - components) members.
    """
    p = field.p
    if p == 2:
        return tuple(m), 1
    edges, components = _support_forest(tuple(map(bool, m)), n)
    inv = field.inverse
    t = [1] * n
    for uv, vu, u, v in edges:
        y = m[uv]
        t[v] = t[u] * y % p if y else t[u] * inv[m[vu]] % p
    tinv = [inv[x] for x in t]
    scale = [a * b for a in t for b in tinv]
    return (
        tuple([x * s % p for x, s in zip(m, scale)]),
        (p - 1) ** (n - components),
    )


def _torus_expand(rep, n: int, field: PrimeField):
    """Every member t rep t^-1 of the T-class of rep, each exactly once:
    t is 1 at the root of each support component (see ``_support_forest``)
    and free elsewhere."""
    p, inv = field.p, field.inverse
    edges, _ = _support_forest(tuple(map(bool, rep)), n)
    free = [v for _, _, _, v in edges]
    for units in product(range(1, p), repeat=len(free)):
        t = [1] * n
        for v, x in zip(free, units):
            t[v] = x
        scale = [a * inv[b] for a in t for b in t]
        yield tuple([x * s % p for x, s in zip(rep, scale)])


def _orbit_guard(n: int, p: int, allow_large: bool):
    if sl_order(n, p) > ORBIT_LIMIT and not allow_large:
        raise GuardError(
            f"|SL({n}, F_{p})| = {sl_order(n, p)} exceeds {ORBIT_LIMIT}; "
            "pass allow_large=True to force it"
        )


def _iter_orbit(start: MatrixFq, allow_large: bool = False):
    """Depth-first walk of the GL(n)-conjugation orbit of start, one
    T-conjugacy class at a time: yields (canonical entries, class size)
    per class, see ``_torus_class``.  Over F_5 the orbit of a regular
    semisimple class of SL(3) has 23,250 matrices in 1,506 T-classes."""
    n, field = start.n, start.field
    _orbit_guard(n, field.p, allow_large)
    ops = _conjugation_ops(n, field)
    first = _torus_class(start.entries, n, field)
    seen = {first[0]}
    queue = [first]
    while queue:
        item = queue.pop()
        yield item
        for op in ops:
            m = list(item[0])
            op(m)
            cls = _torus_class(m, n, field)
            if cls[0] not in seen:
                seen.add(cls[0])
                queue.append(cls)


def geometric_orbit(c: JordanClass, p: int, allow_large: bool = False):
    """The full GL(n, F_p)-conjugation orbit of the Jordan representative,
    sorted by entries: every T-class of ``_iter_orbit`` expanded by T.

    GL-orbits, not SL-orbits: over the algebraic closure a class is pinned
    down by its Jordan data, and SL(F_p)-orbits may split into pieces that
    would wrongly shrink the intersection sets.
    """
    start = jordan_matrix(c, p)
    n, field = start.n, start.field
    members = sorted(
        ent
        for rep, _ in _iter_orbit(start, allow_large)
        for ent in _torus_expand(rep, n, field)
    )
    return tuple(MatrixFq(field, n, ent) for ent in members)


@dataclass(frozen=True)
class IntersectionTable:
    """Which cells BwB and BwB^- one class meets over F_p."""

    jordan: JordanClass
    p: int
    orbit_size: int
    cells: frozenset[Permutation]            # w with orbit meeting BwB
    opposite_cells: frozenset[Permutation]   # w with orbit meeting BwB^-
    bruhat_max: Permutation | None           # unique Bruhat maximum of cells

    def sorted_cells(self):
        return sorted(self.cells, key=lambda w: (w.inversions(), w.images))

    def sorted_opposite(self):
        return sorted(self.opposite_cells, key=lambda w: (w.inversions(), w.images))


def intersection_table(
    c: JordanClass, p: int, allow_large: bool = False
) -> IntersectionTable:
    """Decompose one member of every T-class of the orbit in both cell
    systems and tabulate.  Both cell systems are invariant under
    T-conjugation (t in B on the left, t^-1 in B and in B^- on the right),
    so the representatives meet the same cells as the whole orbit."""
    start = jordan_matrix(c, p)
    n, field = start.n, start.field
    w0 = Permutation.longest(n)
    cells = set()
    opposite = set()
    size = 0
    for ent, members in _iter_orbit(start, allow_large):
        size += members
        cells.add(_cell_pattern(ent, n, field))
        opposite.add(_opposite_pattern(ent, n, field))
    cell_perms = frozenset(Permutation(s) for s in cells)
    opp_perms = frozenset(Permutation(s) * w0 for s in opposite)
    maxima = [
        w
        for w in cell_perms
        if not any(v != w and bruhat_leq_perm(w, v) for v in cell_perms)
    ]
    return IntersectionTable(
        c,
        p,
        size,
        cell_perms,
        opp_perms,
        maxima[0] if len(maxima) == 1 else None,
    )


def enumerate_sl(n: int, p: int, allow_large: bool = False):
    """All of SL(n, F_p) as entry tuples, by BFS over transvection generators."""
    field = PrimeField(p)
    _orbit_guard(n, p, allow_large)
    ident = MatrixFq.identity(field, n).entries
    seen = {ident}
    queue = [ident]
    while queue:
        ent = queue.pop()
        yield ent
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                m = list(ent)
                for r in range(n):  # right-multiply by I + e_{ij}: col_j += col_i
                    b = r * n
                    m[b + j] = (m[b + j] + m[b + i]) % p
                t = tuple(m)
                if t not in seen:
                    seen.add(t)
                    queue.append(t)


def cell_size_census(n: int, p: int, allow_large: bool = False) -> dict:
    """Cell sizes of the whole group: {w: |BwB|}.  The theory predicts
    |BwB| = |B| * p^length(w) and the sizes must sum to |SL(n, F_p)|."""
    field = PrimeField(p)
    counts: dict = {}
    for ent in enumerate_sl(n, p, allow_large):
        s = _cell_pattern(ent, n, field)
        counts[s] = counts.get(s, 0) + 1
    return {Permutation(s): c for s, c in counts.items()}


def field_classes(n: int, p: int):
    """All Jordan classes of SL(n) with eigenvalues in F_p and determinant
    one; labels are 'x<value>' with the concrete value attached."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    out = []

    def rec(min_value, remaining, chosen):
        if remaining == 0:
            det = 1
            for v, lam in chosen:
                det = det * pow(v, lam.weight, p) % p
            if det == 1:
                out.append(
                    JordanClass(
                        n,
                        [(f"x{v}", lam.parts) for v, lam in chosen],
                        {f"x{v}": v for v, lam in chosen},
                    )
                )
            return
        for v in range(min_value, p):
            for m in range(1, remaining + 1):
                for lam in partitions_of(m):
                    rec(v + 1, remaining - m, chosen + [(v, lam)])

    rec(1, n, [])
    return out


def coset_product_report(
    w: Permutation,
    p: int,
    sample_budget: int | None = None,
    seed: int = 12345,
) -> Report:
    """Probe the identity BwB^- B = union of the cells Bw'B with w' >= w.

    Every sampled product must land in a cell at or above w (SOUND); when
    the triple loop over (b, c, b') is exhaustive, the attained cells must
    be exactly the upper set of w (COMPLETE).
    """
    n = w.degree
    if n > 3 or p > 5:
        raise GuardError("coset product probe limited to n <= 3, p <= 5")
    field = PrimeField(p)
    rep = Report(f"coset product w={w.cycle_string()} p={p}")
    subject = f"S{n} w={w.cycle_string()} p={p}"
    uppers = list(_borel_elements(n, field, lower=False))
    lowers = list(_borel_elements(n, field, lower=True))
    wdot = permutation_monomial(w, field)
    upper_set = {
        v for v in all_permutations(n) if bruhat_leq_perm(w, v)
    }
    total = len(uppers) * len(lowers) * len(uppers)
    budget = sample_budget if sample_budget is not None else 200_000
    exhaustive = total <= budget
    attained = set()
    violation = None
    if exhaustive:
        triples = (
            (b, c, b2) for b in uppers for c in lowers for b2 in uppers
        )
    else:
        rng = random.Random(seed)
        triples = (
            (rng.choice(uppers), rng.choice(lowers), rng.choice(uppers))
            for _ in range(budget)
        )
    for b, c_low, b2 in triples:
        v = bruhat_cell(b * wdot * c_low * b2)
        attained.add(v)
        if violation is None and v not in upper_set:
            violation = v
    rep.add(
        subject,
        "products-land-at-or-above",
        "SOUND",
        violation is None,
        None if violation is None else violation.cycle_string(),
    )
    if exhaustive:
        missing = upper_set - attained
        rep.add(
            subject,
            "attains-whole-upper-set",
            "COMPLETE",
            not missing,
            None if not missing else next(iter(missing)).cycle_string(),
        )
    else:
        rep.notes.append(
            f"sampled {budget} of {total} triples; completeness not asserted"
        )
    return rep


def _borel_elements(n: int, field: PrimeField, lower: bool):
    """All upper (or lower) triangular matrices in SL(n, F_p)."""
    p = field.p
    free = [(i, j) for i in range(n) for j in range(n) if (i > j if lower else i < j)]
    diags = []

    def rec_diag(k, acc, prod):
        if k == n - 1:
            diags.append(acc + [field.inverse[prod]])
            return
        for d in range(1, p):
            rec_diag(k + 1, acc + [d], prod * d % p)

    rec_diag(0, [], 1)
    for diag in diags:
        ent0 = [0] * (n * n)
        for i in range(n):
            ent0[i * n + i] = diag[i]

        def rec_free(k, ent):
            if k == len(free):
                yield MatrixFq(field, n, ent)
                return
            i, j = free[k]
            for v in range(p):
                e2 = list(ent)
                e2[i * n + j] = v
                yield from rec_free(k + 1, e2)

        yield from rec_free(0, ent0)


def validate_class(
    c: JordanClass, p: int, table: IntersectionTable | None = None
) -> Report:
    """Run every cell-membership check for one class over F_p.

    SOUND checks must pass on any run (finite membership implies geometric
    membership); COMPLETE checks assert the empirical sets equal the
    predicted ones and are expected to hold at the COMPLETE_PAIRS sizes.
    """
    if table is None:
        table = intersection_table(c, p)
    n = c.n_plus_1
    rep = Report(f"class checks SL({n}) {c.describe()} p={p}")
    subject = f"SL({n}) {c.describe()} q={p}"
    m_c = dense_cell_involution(c)
    lower = bruhat_lower_set(c)
    blocks = block_sum_partition(c)
    cells = table.cells
    opposite = table.opposite_cells

    rep.add(
        subject,
        "cells-subset-of-opposite-cells",
        "SOUND",
        cells <= opposite,
        _first_cycle(cells - opposite),
    )
    bad = [w for w in cells if not passes_corank_bound(c, w)]
    rep.add(subject, "members-obey-corank-bound", "SOUND", not bad, _first_cycle(bad))
    bad = cells - lower
    rep.add(
        subject, "members-below-dense-element", "SOUND", not bad, _first_cycle(bad)
    )
    bad = opposite - lower
    rep.add(
        subject,
        "opposite-members-below-dense-element",
        "SOUND",
        not bad,
        _first_cycle(bad),
    )
    bad = [
        w for w in cells if w.is_involution and not involution_cell_meets(c, w)
    ]
    rep.add(
        subject, "involutions-obey-two-cycle-cap", "SOUND", not bad, _first_cycle(bad)
    )
    weyl_classes = _cycle_type_classes(n)
    bad = [
        str(lam)
        for lam, members in weyl_classes.items()
        if members <= cells and not weyl_class_inside(c, lam)
    ]
    rep.add(
        subject,
        "contained-classes-dominated",
        "SOUND",
        not bad,
        bad[0] if bad else None,
    )

    predicted_inv = {w for w in involutions(n) if involution_cell_meets(c, w)}
    got_inv = {w for w in cells if w.is_involution}
    rep.add(
        subject,
        "involutions-match-two-cycle-cap",
        "COMPLETE",
        got_inv == predicted_inv,
        _first_cycle(got_inv ^ predicted_inv),
    )
    rep.add(
        subject,
        "opposite-cells-equal-lower-set",
        "COMPLETE",
        opposite == lower,
        _first_cycle(opposite ^ lower),
    )
    max_ok = table.bruhat_max == m_c
    rep.add(
        subject,
        "bruhat-max-is-dense-element",
        "COMPLETE",
        max_ok,
        None
        if max_ok
        else (table.bruhat_max.cycle_string() if table.bruhat_max else "none"),
    )
    bad = [
        str(lam)
        for lam, members in weyl_classes.items()
        if (members <= cells) != weyl_class_inside(c, lam)
    ]
    rep.add(
        subject,
        "class-containment-matches-dominance",
        "COMPLETE",
        not bad,
        bad[0] if bad else None,
    )
    bad = [
        w
        for w in opposite
        if not any(bruhat_leq_perm(w, v) for v in cells)
    ]
    rep.add(
        subject,
        "opposite-members-below-some-member",
        "COMPLETE",
        not bad,
        _first_cycle(bad),
    )
    bad = [
        w
        for w in cells
        if not _cycle_type_classes(n)[cycle_type(w)] <= opposite
    ]
    rep.add(
        subject,
        "member-classes-inside-opposite",
        "COMPLETE",
        not bad,
        _first_cycle(bad),
    )
    if is_spherical(c):
        predicted = spherical_weyl_set(c)
        rep.add(
            subject,
            "spherical-cells-match",
            "COMPLETE",
            cells == predicted,
            _first_cycle(cells ^ predicted),
        )
        rep.notes.append(SPHERICAL_CHAR_CAVEAT)
    if table.bruhat_max is None:
        rep.notes.append("no unique Bruhat maximum among met cells")
    rep.notes.append(f"predicted block-sum partition: {blocks}")
    return rep


@lru_cache(maxsize=None)
def _cycle_type_classes(n: int) -> dict:
    out: dict = {}
    for w in all_permutations(n):
        out.setdefault(cycle_type(w), set()).add(w)
    return {lam: frozenset(ws) for lam, ws in out.items()}


def _first_cycle(ws) -> str | None:
    for w in sorted(ws, key=lambda v: v.images):
        return w.cycle_string()
    return None
