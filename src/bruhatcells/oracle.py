"""Brute-force ground truth over small prime fields.

Exact mod-p linear algebra, Bruhat decomposition of invertible matrices by
pivot elimination, enumeration of geometric (= GL-orbit) conjugacy classes
in SL(n, F_p), and empirical computation of which cells BwB and BwB^- a
class meets.  Membership found over F_p certifies membership over the
algebraic closure, so these tables give one-sided ground truth everywhere
("SOUND" checks) and, at the field sizes listed in COMPLETE_PAIRS, turn
out to reproduce the predicted sets exactly ("COMPLETE" checks).

Both cell systems are invariant under conjugation by the diagonal torus T,
so an orbit is walked one T-conjugacy class at a time and a canonical
representative stands for each class: over DEFAULT_PAIRS that is 10,927
representatives for 103,250 matrices, and the (3, 5) sweep walks 6,226
classes instead of 97,000 matrices.  The classes come in families, the
T-classes of one orbit of T*U12 with U12 = {I + c*e_12} inside B, and only
a family's root is eliminated, once for BwB and once for BwB^-: a member
keeps its root's cell BwB, and its cell BwB^- comes off the root's
reversed row pass.  That is 3,713 roots over DEFAULT_PAIRS (1,362 at
(3, 5)) and 7,426 eliminations, where eliminating every class for BwB^-
made 14,640.  Most roots are scaled along a tree that conjugation by
I + c*e_12 leaves alone, so their members need no canonicalisation:
12,541 calls of ``_torus_class`` over DEFAULT_PAIRS, where conjugating
every class by the transvections took 15,805.

Left multiplication by T keeps every cell as well, so the whole-group
checks count over torus cosets: ``cell_size_census`` eliminates one
matrix per left T-coset, and ``coset_product_report`` walks U^- in place
of B^- = T U^-.

Cells, determinants and Bruhat factorisations all come from one row
reduction, ``_pivot_pattern``.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, partial
from itertools import product
from math import isqrt
from operator import itemgetter

from ._record import Record
from .errors import GuardError
from .partitions import cycle_type, partitions_of
from .permutations import (
    Permutation,
    all_permutations,
    bruhat_leq_perm,
    involutions,
    length_order,
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
    "jordan_matrix",
    "intersection_table",
    "coset_product_report",
    "validate_class",
    "field_classes",
    "cell_size_census",
    "gl_order",
    "sl_order",
    "DEFAULT_PAIRS",
    "COMPLETE_PAIRS",
    "ORBIT_LIMIT",
]

# (dimension, prime) pairs whose full class sweep stays at desk scale
DEFAULT_PAIRS = ((2, 3), (2, 5), (2, 7), (3, 2), (3, 3), (3, 5), (4, 2))
# pairs where the empirical tables match the predicted sets exactly
COMPLETE_PAIRS = ((2, 5), (2, 7), (3, 5), (3, 7), (4, 3))

# Limit on the T-classes an orbit walk is estimated to visit.  A T-class
# costs intersection_table 9-10 us at p = 2 and at n <= 4 (84,288 classes at
# (4, 3)), 17 us at (5, 2) (624,960) and 48-58 us at (5, 3) (2 vCPUs, Python
# 3.11); the limit counts classes alone.  The largest estimates are 84,240 at
# (4, 3), 624,960 at (5, 2) and 21,242 at (3, 11); (4, 5) has 5,667,187.
ORBIT_LIMIT = 10**6
_MAX_PRIME = 31
# Limits on the matrices a walk eliminates, 6-15 us each (2 vCPUs, Python 3.11):
# census (3, 7) walks 185,193 in 1.1 s of CPU, (4, 3) 2,560,000 in 17 s; the
# coset probe at (4, 5) walks 15,625 in 0.14 s per w, at (5, 3) 59,049 in 0.66 s.
_CENSUS_LIMIT = 10**6
_COSET_PRODUCT_LIMIT = 60_000


class PrimeField(Record):
    """Arithmetic mod a prime p <= 31, with a cached inverse table."""

    __slots__ = ("p", "inverse")
    p: int
    inverse: tuple[int, ...]  # inverse[x] * x = 1 mod p; inverse[0] = 0

    def __init__(self, p: int):
        if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
            raise ValueError(f"{p} is not prime")
        if p > _MAX_PRIME:
            raise ValueError(f"p = {p} exceeds the supported bound {_MAX_PRIME}")
        super().__init__(p, (0,) + tuple(pow(x, p - 2, p) for x in range(1, p)))

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __reduce__(self):
        return PrimeField, (self.p,)


class MatrixFq(Record):
    """An n x n matrix over F_p; entries are a flat row-major tuple in 0..p-1."""

    __slots__ = ("field", "n", "entries")
    field: PrimeField
    n: int
    entries: tuple[int, ...]

    def __init__(self, field: PrimeField, n: int, entries):
        entries = tuple(v % field.p for v in entries)
        if len(entries) != n * n:
            raise ValueError(f"expected {n * n} entries, got {len(entries)}")
        super().__init__(field, n, entries)

    @classmethod
    def from_rows(cls, field, rows) -> "MatrixFq":
        rows = [list(r) for r in rows]
        return cls(field, len(rows), [v for r in rows for v in r])

    @classmethod
    def identity(cls, field, n) -> "MatrixFq":
        return cls(field, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

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
        """sign(sigma) times the pivots that ``_pivot_pattern`` leaves: its
        row operations keep the determinant, and its pivot rows in sigma
        order are upper triangular.  0 when it is singular."""
        n, p = self.n, self.field.p
        m = list(self.entries)
        try:
            sigma = _pivot_pattern(m, n, p, self.field.inverse)
        except ValueError:
            return 0
        det = 1
        for j, i in enumerate(sigma):
            det = det * m[(i - 1) * n + j] % p
        if Permutation(sigma).inversions() % 2:
            det = -det % p
        return det


def _pivot_pattern(m, n, p, inv):
    """Row-reduce the invertible matrix m (a flat row-major list, in place)
    and return sigma, sigma[j] the 1-based row of the pivot of column j;
    ValueError if m is singular.  Column by column, the pivot is the lowest
    unclaimed row nonzero there, and multiples of it are subtracted from the
    unclaimed rows above it.  These row operations are upper unitriangular,
    so they leave r = b^-1 * g for the input g and some upper unitriangular
    b.  Row sigma(j) of r is zero left of its pivot at column j, so g lies
    in BwB for w = sigma.  A row operation at column j does not write
    column j, so the entries that m holds left of a pivot are stale and
    must not be read."""
    free = list(range(0, n * n, n))  # unclaimed row offsets
    sigma = [0] * n
    for j in range(n):
        pos = len(free) - 1
        while not m[free[pos] + j]:
            pos -= 1
            if pos < 0:
                raise ValueError("singular matrix")
        pbase = free.pop(pos)
        sigma[j] = pbase // n + 1
        if pos:
            pinv = inv[m[pbase + j]]
            for base in free[:pos]:
                a = m[base + j]
                if a:
                    f = a * pinv % p
                    for k in range(j + 1, n):
                        m[base + k] = (m[base + k] - f * m[pbase + k]) % p
    return tuple(sigma)


@lru_cache(maxsize=8)
def _column_reversal(n: int):
    """Flat indices that read an n x n matrix with its columns reversed."""
    return tuple(i + n - 1 - j for i in range(0, n * n, n) for j in range(n))


def _opposite_pass(entries, n, field):
    """Pivot pattern of g*w0dot, with w0dot reversing the columns of g up
    to a diagonal factor in B, which leaves the cell unchanged; and the
    shear: the one c in F_p, or None, for which the pattern of the
    transvection conjugate u g u^-1, u = I + c*e_12, ends (a, b), with
    a < b its last two entries.  For every other c it ends (b, a), and
    the rest is that of g.

    u lies in B, so u g u^-1 lies in the opposite cell of g u^-1, whose
    reversed columns differ from those of g only by
    col_(n-2) -= c * col_(n-1).  Row operations commute with that, and the
    pass does the same ones on the first n - 2 columns, so it leaves the
    same two rows a < b unclaimed.  Row b, whose last two entries (x, y)
    no later step writes, is the pivot of column n - 2 unless
    x - c*y = 0: the pattern ends (a, b) for c = x / y, else (b, a)."""
    p, inv = field.p, field.inverse
    m = [entries[k] for k in _column_reversal(n)]
    sigma = _pivot_pattern(m, n, p, inv)
    if n == 1:
        return sigma, None
    b = max(sigma[-2:])
    x, y = m[b * n - 2], m[b * n - 1]
    return sigma, (x * inv[y] % p if y else None)


def bruhat_cell(g: MatrixFq) -> Permutation:
    """The unique w with g in BwB, for B the upper-triangular subgroup."""
    field = g.field
    return Permutation(_pivot_pattern(list(g.entries), g.n, field.p, field.inverse))


def bruhat_factor(g: MatrixFq):
    """Factor g = b1 * m * b2 with b1, b2 upper unitriangular and m monomial
    with its nonzeros at (w(j), j); returns (b1, m, b2, w).  The factors
    prove that g lies in BwB, since the cells are disjoint (Borel, Linear
    Algebraic Groups, 2nd ed., 14.12).

    The row pass of ``_pivot_pattern`` leaves r = b1^-1 * g = m * b2, so
    m holds the pivots r[sigma(j), j], and row j of b2 is row sigma(j) of
    r from column j on, divided by its pivot; the stale entries left of
    the pivot are not read.  Then b1 = g * b2^-1 * m^-1, with the
    unitriangular b2 inverted by back substitution."""
    n, field = g.n, g.field
    p, inv = field.p, field.inverse
    r = list(g.entries)
    sigma = _pivot_pattern(r, n, p, inv)
    m, m_inv, b2, b2_inv = ([0] * (n * n) for _ in range(4))
    for j, i in enumerate(sigma):
        base = (i - 1) * n
        pivot = r[base + j]
        m[base + j], m_inv[j * n + i - 1] = pivot, inv[pivot]
        for k in range(j, n):
            b2[j * n + k] = r[base + k] * inv[pivot] % p
    for i in reversed(range(n)):
        for k in range(i, n):
            rest = sum(b2[i * n + t] * b2_inv[t * n + k] for t in range(i + 1, k + 1))
            b2_inv[i * n + k] = ((i == k) - rest) % p
    m, b2 = MatrixFq(field, n, m), MatrixFq(field, n, b2)
    b1 = g * MatrixFq(field, n, b2_inv) * MatrixFq(field, n, m_inv)
    return b1, m, b2, Permutation(sigma)


def opposite_bruhat_cell(g: MatrixFq) -> Permutation:
    """The unique w with g in BwB^-, via g*w0dot in B(w*w0)B."""
    u = Permutation(_opposite_pass(g.entries, g.n, g.field)[0])
    return u * Permutation.longest(g.n)


def gl_order(n: int, q: int) -> int:
    order = 1
    for i in range(n):
        order *= q**n - q**i
    return order


def sl_order(n: int, q: int) -> int:
    return gl_order(n, q) // (q - 1)


def _centralizer_order(c: JordanClass, q: int) -> int:
    """|C(g)| in GL(n, F_q) for g with the Jordan data of c and every
    eigenvalue in F_q: the product over the eigenvalues of
    a_lambda(q) = q^(sum_j lambda'_j^2) prod_i prod_(k <= m_i) (1 - q^-k),
    with lambda the block sizes, lambda' its conjugate and m_i the number of
    blocks of size i (Macdonald, Symmetric Functions and Hall Polynomials,
    2nd ed., ch. II (1.6))."""
    order = 1
    for e in c.eigen_data:
        conjugate = [sum(b >= j for b in e.blocks) for j in range(1, e.blocks[0] + 1)]
        counts = Counter(e.blocks).values()
        power = sum(x * x for x in conjugate) - sum(m * (m + 1) // 2 for m in counts)
        order *= q**power
        for m in counts:
            for k in range(1, m + 1):
                order *= q**k - 1
    return order


def _orbit_size(c: JordanClass, q: int) -> int:
    """The number of matrices in the GL(n, F_q)-conjugacy class of c."""
    return gl_order(c.n_plus_1, q) // _centralizer_order(c, q)


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


@lru_cache(maxsize=8)
def _cycle_conjugation(n: int):
    """Conjugation by the permutation matrix of the n-cycle i -> i+1 as one
    ``itemgetter``: it only permutes the flat entries.  Its powers carry
    I + c*e_12 (c in F_p^*) to every I + c*e_{i,i+1} and to I + c*e_{n,1},
    which with the diagonal torus T generate GL(n); T-conjugation maps these
    generators into themselves times T, so closing T-class representatives
    under them reaches every T-class of a GL(n)-orbit.  At n = 1 the cycle
    is the identity (an ``itemgetter`` of one index would return a scalar)."""
    if n == 1:
        return tuple
    back = [(a - 1) % n for a in range(n)]
    return itemgetter(*(a * n + b for a in back for b in back))


@lru_cache(maxsize=8)
def _off_diagonal(n: int):
    """Reads the off-diagonal entries of a flat n x n matrix, n >= 2."""
    return itemgetter(*(k for k in range(n * n) if k % (n + 1)))


def _spanning_forest(support, n: int):
    """Depth-first spanning forest of the graph on 0..n-1 with an edge u-v
    where support[uv] or support[vu] holds (flat indices), as edges
    (k, u, v, forward) with u reached first and k the index of m_uv when
    forward, else of m_vu; and the number of components."""
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
                    forward = bool(support[u * n + v])
                    edges.append((u * n + v if forward else v * n + u, u, v, forward))
                    stack.append(v)
    return tuple(edges), components


@lru_cache(maxsize=4096)
def _support_plan(support: bytes, n: int):
    """For the nonzero flags ``support`` of the off-diagonal entries, row by
    row: the spanning forest that ``_torus_class`` scales along, see
    ``_spanning_forest``; the nonzero off-diagonal positions (index of m_uv,
    u, v); the number of components; and whether the forest is a kept tree.

    The forest is first built from the entries outside row 0 and column 1,
    the only ones conjugation by I + c*e_12 leaves alone.  When that forest
    connects all n vertices it is used (a kept tree): a representative's
    transvection conjugates then keep its tree, with its entries still 1, so
    they are canonical as they stand.  Otherwise the forest is built from
    every entry.  The diagonal is left out of the key, so at n <= 4 all
    2^(n^2 - n) plans fit."""
    flags = iter(support)
    support = [u != v and next(flags) for u in range(n) for v in range(n)]
    fixed = [s and k >= n and k % n != 1 for k, s in enumerate(support)]
    edges, components = _spanning_forest(fixed, n)
    kept_tree = components == 1
    if not kept_tree:
        edges, components = _spanning_forest(support, n)
    positions = tuple((k, k // n, k % n) for k in range(n * n) if support[k])
    return edges, positions, components, kept_tree


_NONZERO = bytes([0]) + bytes([1]) * 255  # translate table


def _torus_class(m, n: int, field: PrimeField):
    """Canonical representative and size of the T-conjugacy class of the
    flat matrix m, which is left unchanged, T the diagonal torus of
    GL(n, F_p); the orbit walk's kernel.  Returns the representative as
    ``bytes`` (entries are below p <= 31), the class size, and whether its
    forest is a kept tree (see ``_support_plan``).

    (t m t^-1)_uv = t_u m_uv / t_v, so scaling along a spanning forest of
    the off-diagonal support graph turns every forest entry into 1; this
    fixes t up to a constant on each component, which leaves the matrix
    alone.  The class therefore has (p-1)^(n - components) members.  Only
    off-diagonal nonzeros change.
    """
    p = field.p
    if p == 2 or n == 1:
        return bytes(m), 1, True
    support = bytes(_off_diagonal(n)(m)).translate(_NONZERO)
    edges, positions, components, kept = _support_plan(support, n)
    inv = field.inverse
    t = [1] * n
    for k, u, v, forward in edges:
        t[v] = t[u] * (m[k] if forward else inv[m[k]]) % p
    out = list(m)
    for k, u, v in positions:
        out[k] = m[k] * t[u] * inv[t[v]] % p
    return bytes(out), (p - 1) ** (n - components), kept


def _iter_orbit(start: MatrixFq):
    """Depth-first walk of the GL(n)-conjugation orbit of start, one
    T-conjugacy class at a time: yields (canonical entries, class size,
    BwB cell pattern, BwB^- cell pattern) per class, see ``_torus_class``
    and ``_opposite_pass``.  Over F_5 the orbit of a regular semisimple
    class of SL(3) has 23,250 matrices in 1,506 T-classes.

    The classes come in families, the T-classes of one orbit of T*U12,
    U12 = {u = I + c*e_12}: a family's root is the start or a class first
    reached over ``_cycle_conjugation``, and its other members are the
    classes of the p - 1 conjugates u r u^-1 of the root r, built in place
    on a fresh list.  When r has a kept tree these are canonical already
    and of the same size, so they are not canonicalised again.  u lies in
    B, so a member lies in its root's cell BwB, and its cell BwB^- comes
    off the root's reversed row pass: each root is eliminated once for
    each cell system, 330 of the 1,506 classes.

    Every class is then conjugated by the n-cycle only.  ``_torus_class``
    scales with t_0 = 1, so a member t u r u^-1 t^-1 has the transvection
    conjugates t u' u r (u' u)^-1 t^-1 with u' = I + c' * t_1 * e_12: classes
    of its own family, already reached.

    GL-orbits, not SL-orbits: over the algebraic closure a class is pinned
    down by its Jordan data, and SL(F_p)-orbits may split into pieces that
    would wrongly shrink the intersection sets.
    """
    n, field = start.n, start.field
    p, inv = field.p, field.inverse
    shears = range(1, p) if n > 1 else ()
    row, rows = range(n), range(0, n * n, n)
    cycle = _cycle_conjugation(n)
    seen = set()
    queue = []
    m = start.entries
    while True:
        rep, size, kept = _torus_class(m, n, field)
        if rep not in seen:  # the root of a new family
            seen.add(rep)
            queue.append(rep)
            cell = _pivot_pattern(list(rep), n, p, inv)
            opposite, shear = _opposite_pass(rep, n, field)
            yield rep, size, cell, opposite
            if shears:
                low, high = sorted(opposite[-2:])
                ordered = opposite[:-2] + (low, high)
                swapped = opposite[:-2] + (high, low)
            for c in shears:
                m = list(rep)
                for k in row:  # row_0 += c * row_1
                    m[k] = (m[k] + c * m[n + k]) % p
                for b in rows:  # col_1 -= c * col_0
                    m[b + 1] = (m[b + 1] - c * m[b]) % p
                member, members, _ = (
                    (bytes(m), size, True) if kept else _torus_class(m, n, field)
                )
                if member not in seen:
                    seen.add(member)
                    queue.append(member)
                    yield member, members, cell, ordered if c == shear else swapped
        if not queue:
            return
        m = cycle(queue.pop())


class IntersectionTable(Record):
    """Which cells BwB and BwB^- one class meets over F_p."""

    __slots__ = ("jordan", "p", "orbit_size", "cells", "opposite_cells", "bruhat_max")
    jordan: JordanClass
    p: int
    orbit_size: int
    cells: frozenset[Permutation]            # w with orbit meeting BwB
    opposite_cells: frozenset[Permutation]   # w with orbit meeting BwB^-
    bruhat_max: Permutation | None           # unique Bruhat maximum of cells

    def __init__(self, jordan, p, orbit_size, cells, opposite_cells, bruhat_max):
        super().__init__(jordan, p, orbit_size, cells, opposite_cells, bruhat_max)

    def sorted_cells(self):
        return sorted(self.cells, key=length_order)

    def sorted_opposite(self):
        return sorted(self.opposite_cells, key=length_order)


def intersection_table(
    c: JordanClass, p: int, allow_large: bool = False
) -> IntersectionTable:
    """Tabulate the cells BwB and BwB^- that ``_iter_orbit`` yields for
    every T-class of the GL(n)-orbit.  Both cell systems are invariant under
    T-conjugation (t in B on the left, t^-1 in B and in B^- on the right),
    so the representatives meet the same cells as the whole orbit.

    The walk is refused when its estimated T-classes, the orbit size over
    the (p-1)^(n-1) members of a class with a connected support, exceed
    ORBIT_LIMIT, unless allow_large."""
    start = jordan_matrix(c, p)
    n = start.n
    orbit = _orbit_size(c, p)
    t_classes = orbit // (p - 1) ** (n - 1)
    if t_classes > ORBIT_LIMIT and not allow_large:
        raise GuardError(
            f"the orbit of {c.describe()} in GL({n}, F_{p}) has {orbit:,} matrices, "
            f"about {t_classes:,} T-classes to walk, above the limit of "
            f"{ORBIT_LIMIT:,}; pass allow_large=True to force it (CLI: --allow-large)"
        )
    w0 = Permutation.longest(n)
    cells = set()
    opposite = set()
    size = 0
    for _, members, cell, opposite_cell in _iter_orbit(start):
        size += members
        cells.add(cell)
        opposite.add(opposite_cell)
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


def cell_size_census(n: int, p: int, allow_large: bool = False) -> dict:
    """Cell sizes of the whole group: {w: |BwB|}.  The theory predicts
    |BwB| = |B| * p^length(w) and the sizes must sum to |SL(n, F_p)|.

    Left multiplication by the diagonal torus T of GL(n) keeps every cell,
    so each left T-coset is counted once, by its matrix whose rows each
    have 1 as first nonzero entry, and weighted by the (p-1)^(n-1) members
    it has in SL."""
    inv = PrimeField(p).inverse
    walked = ((p**n - 1) // (p - 1)) ** n
    if walked > _CENSUS_LIMIT and not allow_large:
        raise GuardError(
            f"the census of SL({n}, F_{p}) walks {walked:,} matrices, above its "
            f"limit of {_CENSUS_LIMIT:,}; pass allow_large=True to force it"
        )
    rows = [
        (0,) * k + (1,) + rest
        for k in range(n)
        for rest in product(range(p), repeat=n - 1 - k)
    ]
    weight = (p - 1) ** (n - 1)
    counts: dict = {}
    for choice in product(rows, repeat=n):
        try:
            s = _pivot_pattern([x for row in choice for x in row], n, p, inv)
        except ValueError:  # singular
            continue
        counts[s] = counts.get(s, 0) + weight
    return {Permutation(s): c for s, c in counts.items()}


def field_classes(n: int, p: int):
    """All Jordan classes of SL(n) with eigenvalues in F_p and determinant
    one; labels are 'x<value>' with the concrete value attached."""
    PrimeField(p)  # rejects p not prime or above _MAX_PRIME
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


def coset_product_report(w: Permutation, p: int) -> Report:
    """Probe the identity BwB^- B = union of the cells Bw'B with w' >= w.

    Cells are B-double cosets, so b * wdot * c * b' lies in the cell of
    wdot * c for b, b' in B.  B^- = T U^-, with U^- lower unitriangular,
    and wdot * t = (wdot t wdot^-1) * wdot with wdot t wdot^-1 in T, inside
    B, so one pass over u in U^- reaches every cell the products reach.
    wdot * u is u with row j moved to row w(j), up to a sign that is a
    diagonal factor in B.  Each cell must lie at or above w (SOUND), and
    together they must be exactly the upper set of w (COMPLETE).
    """
    n = w.degree
    walked = p ** (n * (n - 1) // 2)
    if walked > _COSET_PRODUCT_LIMIT:
        raise GuardError(
            f"|U^-| = {walked:,} in SL({n}, F_{p}) exceeds {_COSET_PRODUCT_LIMIT:,}, "
            "the coset product probe's size limit"
        )
    inv = PrimeField(p).inverse
    rep = Report(f"coset product w={w.cycle_string()} p={p}")
    subject = f"S{n} w={w.cycle_string()} p={p}"
    # wdot * u without its sign: row j of u, with u_jj = 1, moves to row w(j)
    offsets = [(w(j + 1) - 1) * n for j in range(n)]
    start = [0] * (n * n)
    for j, b in enumerate(offsets):
        start[b + j] = 1
    below = [b + k for j, b in enumerate(offsets) for k in range(j)]
    patterns = set()
    for values in product(range(p), repeat=len(below)):
        m = list(start)
        for k, v in zip(below, values):
            m[k] = v
        patterns.add(_pivot_pattern(m, n, p, inv))
    attained = {Permutation(s) for s in patterns}
    upper_set = {v for v in all_permutations(n) if bruhat_leq_perm(w, v)}
    cyc = Permutation.cycle_string
    rep.require(
        subject, "products-land-at-or-above", "SOUND", attained - upper_set, cyc
    )
    rep.require(
        subject, "attains-whole-upper-set", "COMPLETE", upper_set - attained, cyc
    )
    return rep


def validate_class(
    c: JordanClass, p: int, table: IntersectionTable | None = None
) -> Report:
    """Run every cell-membership check for one class over F_p.

    SOUND checks must pass on any run (finite membership implies geometric
    membership); COMPLETE checks assert the empirical sets equal the
    predicted ones and are expected to hold at the COMPLETE_PAIRS sizes.
    """
    lower = bruhat_lower_set(c)  # its degree guard refuses before the walk
    if table is None:
        table = intersection_table(c, p)
    n = c.n_plus_1
    rep = Report(f"class checks SL({n}) {c.describe()} p={p}")
    subject = f"SL({n}) {c.describe()} q={p}"
    m_c = dense_cell_involution(c)
    blocks = block_sum_partition(c)
    cells = table.cells
    opposite = table.opposite_cells

    require = partial(rep.require, subject)
    cyc = Permutation.cycle_string
    require("cells-subset-of-opposite-cells", "SOUND", cells - opposite, cyc)
    bad = (w for w in cells if not passes_corank_bound(c, w))
    require("members-obey-corank-bound", "SOUND", bad, cyc)
    require("members-below-dense-element", "SOUND", cells - lower, cyc)
    require("opposite-members-below-dense-element", "SOUND", opposite - lower, cyc)
    bad = (w for w in cells if w.is_involution and not involution_cell_meets(c, w))
    require("involutions-obey-two-cycle-cap", "SOUND", bad, cyc)
    weyl_classes = _cycle_type_classes(n)
    bad = (
        lam
        for lam, members in weyl_classes.items()
        if members <= cells and not weyl_class_inside(c, lam)
    )
    require("contained-classes-dominated", "SOUND", bad)

    predicted_inv = {w for w in involutions(n) if involution_cell_meets(c, w)}
    got_inv = {w for w in cells if w.is_involution}
    require("involutions-match-two-cycle-cap", "COMPLETE", got_inv ^ predicted_inv, cyc)
    require("opposite-cells-equal-lower-set", "COMPLETE", opposite ^ lower, cyc)
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
    bad = (
        lam
        for lam, members in weyl_classes.items()
        if (members <= cells) != weyl_class_inside(c, lam)
    )
    require("class-containment-matches-dominance", "COMPLETE", bad)
    bad = (w for w in opposite if not any(bruhat_leq_perm(w, v) for v in cells))
    require("opposite-members-below-some-member", "COMPLETE", bad, cyc)
    bad = (w for w in cells if not weyl_classes[cycle_type(w)] <= opposite)
    require("member-classes-inside-opposite", "COMPLETE", bad, cyc)
    if is_spherical(c):
        require("spherical-cells-match", "COMPLETE", cells ^ spherical_weyl_set(c), cyc)
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
