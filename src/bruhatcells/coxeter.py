"""Root systems and Weyl groups of the simple Cartan types A-G.

Group elements are integer matrices written in the simple-root basis, so
they are exact, canonical and hashable for every type, including the
exceptional ones.  Roots are integer coordinate vectors in the same basis.
The module provides the length function, longest elements of parabolic
subgroups, the Bruhat order, the automorphism w |-> w0*w*w0, reduced words
and Coxeter elements.

Conventions: simple roots are numbered 1..n following the usual Bourbaki
diagrams (for D_n the two fork ends are alpha_{n-1}, alpha_n; for E_n the
branch node is alpha_2 attached to alpha_4).  The symmetric pairing is
normalized so short roots have squared length 2.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations as _permutations
from math import factorial

from .errors import GuardError

__all__ = [
    "CartanType",
    "RootSystem",
    "WeylElement",
    "ParabolicSubset",
    "build_root_system",
    "simple_reflection",
    "longest_element",
    "bruhat_leq",
    "delta0_on_root",
    "delta0_on_element",
    "delta0_permutation",
    "reduced_word",
    "word_to_element",
    "element_to_word_str",
    "word_str_to_element",
    "coxeter_elements",
    "ENUMERATION_LIMIT",
]

# Full-group enumerations refuse anything larger unless allow_large is set.
ENUMERATION_LIMIT = 10**7

_RANK_BOUNDS = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

_TYPE_RE = re.compile(r"^([A-G])\s*(\d+)$")


@dataclass(frozen=True)
class CartanType:
    """A simple Cartan type: family letter plus rank, e.g. CartanType('B', 4)."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in _RANK_BOUNDS:
            raise ValueError(f"unknown family {self.family!r}")
        lo, hi = _RANK_BOUNDS[self.family]
        if self.rank < lo or (hi is not None and self.rank > hi):
            raise ValueError(f"rank {self.rank} out of range for family {self.family}")

    @classmethod
    def from_string(cls, s: str) -> "CartanType":
        m = _TYPE_RE.match(s.strip())
        if not m:
            raise ValueError(f"cannot parse Cartan type {s!r}")
        return cls(m.group(1), int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def weyl_order(self) -> int:
        """Order of the Weyl group."""
        n = self.rank
        if self.family == "A":
            return factorial(n + 1)
        if self.family in ("B", "C"):
            return 2**n * factorial(n)
        if self.family == "D":
            return 2 ** (n - 1) * factorial(n)
        if self.family == "F":
            return 1152
        if self.family == "G":
            return 12
        return {6: 51840, 7: 2903040, 8: 696729600}[n]


def _coerce_type(t) -> CartanType:
    if isinstance(t, CartanType):
        return t
    if isinstance(t, str):
        return CartanType.from_string(t)
    raise TypeError(f"expected CartanType or string, got {type(t).__name__}")


def _diagram(t: CartanType):
    """Edges (0-based pairs) and half squared lengths d_i of the simple roots."""
    n = t.rank
    f = t.family
    path = [(i, i + 1) for i in range(n - 1)]
    if f == "A":
        return path, [1] * n
    if f == "B":
        return path, [2] * (n - 1) + [1]
    if f == "C":
        return path, [1] * (n - 1) + [2]
    if f == "D":
        edges = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
        return edges, [1] * n
    if f == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        edges = [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)] + [(1, 3)]
        return edges, [1] * n
    if f == "F":
        return path, [2, 2, 1, 1]
    return [(0, 1)], [1, 3]  # G2: alpha_1 short, alpha_2 long


class WeylElement:
    """A Weyl group element as an integer matrix in the simple-root basis.

    Column j of ``rows`` holds the coordinates of the image of the j-th
    simple root.  Equal group elements always have identical matrices, so
    instances hash and compare by value.
    """

    __slots__ = ("rs", "rows", "_length", "_hash")

    def __init__(self, rs: "RootSystem", rows, length=None):
        self.rs = rs
        self.rows = rows
        self._length = length
        self._hash = None

    def __eq__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.rows == other.rows and self.rs.cartan_type == other.rs.cartan_type

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.rs.cartan_type, self.rows))
        return self._hash

    def __repr__(self):
        word = " ".join(map(str, reduced_word(self))) or "e"
        return f"<WeylElement {self.rs.cartan_type} '{word}'>"

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if self.rs is not other.rs:
            raise ValueError("elements belong to different root systems")
        n = self.rs.rank
        a, b = self.rows, other.rows
        rng = range(n)
        rows = tuple(
            tuple(sum(ar[k] * b[k][j] for k in rng) for j in rng) for ar in a
        )
        return WeylElement(self.rs, rows)

    def __call__(self, root):
        """Apply the element to a root (coordinate vector)."""
        rng = range(self.rs.rank)
        return tuple(sum(r[j] * root[j] for j in rng) for r in self.rows)

    def inv(self) -> "WeylElement":
        rs = self.rs
        acc = rs.identity
        cur = self
        while True:
            j = _descent(cur.rows, rs.rank)
            if j is None:
                break
            cur = rs._mul_gen_right(cur, j)
            acc = rs._mul_gen_right(acc, j)
        acc._length = self.length
        return acc

    @property
    def length(self) -> int:
        """Number of positive roots sent to negative roots."""
        if self._length is None:
            n = self.rs.rank
            cartan = self.rs.cartan
            rows = [list(r) for r in self.rows]
            count = 0
            while True:
                j = _descent(rows, n)
                if j is None:
                    break
                cj = cartan[j]
                for r in rows:
                    a = r[j]
                    if a:
                        for k in range(n):
                            r[k] -= a * cj[k]
                count += 1
            self._length = count
        return self._length

    @property
    def is_identity(self) -> bool:
        return self.rows == self.rs.identity.rows

    def is_involution(self) -> bool:
        """True when the element squares to the identity."""
        rows = self.rows
        n = self.rs.rank
        rng = range(n)
        for j in rng:
            for r in rng:
                want = 1 if r == j else 0
                if sum(rows[r][k] * rows[k][j] for k in rng) != want:
                    return False
        return True


def _descent(rows, n) -> int | None:
    """First column index j with w(alpha_j) negative, or None (identity)."""
    for j in range(n):
        for r in range(n):
            v = rows[r][j]
            if v < 0:
                return j
            if v > 0:
                break
    return None


class RootSystem:
    """The root system of one simple Cartan type.

    Attributes: ``cartan`` (Cartan integers C[i][j] = 2<a_i,a_j>/<a_i,a_i>),
    ``pairing`` (symmetrized form with short roots of squared length 2),
    ``simple_roots``, ``positive_roots`` and ``roots`` as coordinate tuples.
    """

    def __init__(self, cartan_type: CartanType):
        self.cartan_type = cartan_type
        n = self.rank = cartan_type.rank
        edges, d = _diagram(cartan_type)
        adj = {(i, j) for i, j in edges} | {(j, i) for i, j in edges}
        self.pairing = tuple(
            tuple(
                2 * d[i] if i == j else (-max(d[i], d[j]) if (i, j) in adj else 0)
                for j in range(n)
            )
            for i in range(n)
        )
        self.cartan = tuple(
            tuple(self.pairing[i][j] // d[i] for j in range(n)) for i in range(n)
        )
        self.simple_roots = tuple(
            tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
        )
        self.roots = self._generate_roots()
        self.positive_roots = tuple(r for r in self.roots if _is_positive(r))
        if 2 * len(self.positive_roots) != len(self.roots):
            raise AssertionError("root generation produced an asymmetric set")
        self.identity = WeylElement(
            self, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 0
        )
        self.simple_reflections = tuple(
            self._mul_gen_right(self.identity, i) for i in range(n)
        )
        for s in self.simple_reflections:
            s._length = 1
        self._memo: dict = {}

    def __repr__(self):
        return f"RootSystem({self.cartan_type})"

    def _generate_roots(self):
        n = self.rank
        cartan = self.cartan
        todo = list(self.simple_roots)
        seen = set(todo)
        while todo:
            v = todo.pop()
            for i in range(n):
                c = sum(cartan[i][j] * v[j] for j in range(n))
                if c:
                    w = list(v)
                    w[i] -= c
                    w = tuple(w)
                    if w not in seen:
                        seen.add(w)
                        todo.append(w)
        return tuple(sorted(seen))

    def pair(self, alpha, beta) -> int:
        """Invariant symmetric bilinear form of two coordinate vectors."""
        n = self.rank
        b = self.pairing
        return sum(alpha[i] * b[i][j] * beta[j] for i in range(n) for j in range(n))

    def _mul_gen_right(self, w: WeylElement, i: int, length=None) -> WeylElement:
        """w * s_{i+1} via a column update; i is 0-based."""
        ci = self.cartan[i]
        n = self.rank
        rows = tuple(
            tuple(r[j] - r[i] * ci[j] for j in range(n)) for r in w.rows
        )
        return WeylElement(self, rows, length)

    def _mul_gen_left(self, i: int, w: WeylElement, length=None) -> WeylElement:
        """s_{i+1} * w via a row update; i is 0-based."""
        ci = self.cartan[i]
        n = self.rank
        rng = range(n)
        new_row = tuple(
            w.rows[i][j] - sum(ci[k] * w.rows[k][j] for k in rng if ci[k])
            for j in rng
        )
        rows = tuple(new_row if r == i else w.rows[r] for r in rng)
        return WeylElement(self, rows, length)

    def _has_right_descent(self, w: WeylElement, i: int) -> bool:
        """True when l(w * s_{i+1}) < l(w); i is 0-based."""
        for r in range(self.rank):
            v = w.rows[r][i]
            if v < 0:
                return True
            if v > 0:
                return False
        raise AssertionError("zero column in a Weyl element")

    @property
    def w0(self) -> WeylElement:
        """The longest element."""
        if "w0" not in self._memo:
            self._memo["w0"] = longest_element(self)
        return self._memo["w0"]


def _is_positive(root) -> bool:
    for v in root:
        if v:
            return v > 0
    return False


@lru_cache(maxsize=None)
def _build_cached(t: CartanType) -> RootSystem:
    return RootSystem(t)


def build_root_system(t) -> RootSystem:
    """Root system for a CartanType or type string such as 'B4'.

    Instances are cached, so repeated calls share memoized Bruhat data.
    """
    return _build_cached(_coerce_type(t))


def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    """The reflection in the i-th simple root, 1 <= i <= rank."""
    if not 1 <= i <= rs.rank:
        raise ValueError(f"simple root index {i} out of range 1..{rs.rank}")
    return rs.simple_reflections[i - 1]


class ParabolicSubset:
    """A subset J of simple-root indices with its longest element w_{0,J}
    and the positive roots supported on J."""

    def __init__(self, rs: RootSystem, indices):
        indices = frozenset(indices)
        for i in indices:
            if not 1 <= i <= rs.rank:
                raise ValueError(f"simple root index {i} out of range 1..{rs.rank}")
        self.rs = rs
        self.indices = indices
        self.span_positive = tuple(
            r
            for r in rs.positive_roots
            if all(r[j] == 0 or (j + 1) in indices for j in range(rs.rank))
        )
        self.longest = self._greedy_longest()

    def _greedy_longest(self) -> WeylElement:
        rs = self.rs
        w = rs.identity
        ell = 0
        idx = sorted(i - 1 for i in self.indices)
        changed = True
        while changed:
            changed = False
            for i in idx:
                if not rs._has_right_descent(w, i):
                    w = rs._mul_gen_right(w, i, ell + 1)
                    ell += 1
                    changed = True
        return w

    def __repr__(self):
        return f"ParabolicSubset({self.rs.cartan_type}, {sorted(self.indices)})"


def longest_element(rs: RootSystem, J=None) -> WeylElement:
    """Longest element of the parabolic subgroup W_J (whole group if J is None)."""
    if J is None:
        J = range(1, rs.rank + 1)
    return ParabolicSubset(rs, J).longest


def bruhat_leq(u: WeylElement, w: WeylElement) -> bool:
    """Bruhat order by the lifting-property recursion, memoized per root system.

    With s a right descent of w: u <= w iff (us <= ws if us < u else u <= ws).
    The recursion runs as a loop down w's descent chain, to the length base
    case or a cache hit; the answer is then stored under every key missed on
    the way, so the depth is not bounded by Python's recursion limit.
    """
    rs = u.rs
    if rs is not w.rs:
        raise ValueError("elements belong to different root systems")
    cache = rs._memo.setdefault("bruhat", {})
    missed = []
    while True:
        lu, lw = u.length, w.length
        if lu >= lw:
            res = u.rows == w.rows
            break
        key = (u.rows, w.rows)
        res = cache.get(key)
        if res is not None:
            break
        missed.append(key)
        j = _descent(w.rows, rs.rank)
        if rs._has_right_descent(u, j):
            u = rs._mul_gen_right(u, j, lu - 1)
        w = rs._mul_gen_right(w, j, lw - 1)
    for key in missed:
        cache[key] = res
    return res


def delta0_on_root(rs: RootSystem, root):
    """The permutation alpha |-> -w0(alpha) of the roots; stabilizes the simple ones."""
    return tuple(-v for v in rs.w0(root))


def delta0_on_element(w: WeylElement) -> WeylElement:
    """The automorphism w |-> w0 * w * w0."""
    w0 = w.rs.w0
    return w0 * w * w0


def delta0_permutation(rs: RootSystem) -> tuple[int, ...]:
    """delta0 restricted to simple roots, as a tuple p with p[i-1] = image of i."""
    if "delta0_perm" not in rs._memo:
        images = []
        for a in rs.simple_roots:
            b = delta0_on_root(rs, a)
            images.append(rs.simple_roots.index(b) + 1)
        rs._memo["delta0_perm"] = tuple(images)
    return rs._memo["delta0_perm"]


def reduced_word(w: WeylElement) -> tuple[int, ...]:
    """A reduced word for w as 1-based simple-reflection indices."""
    rs = w.rs
    picks = []
    cur = w
    while True:
        j = _descent(cur.rows, rs.rank)
        if j is None:
            break
        cur = rs._mul_gen_right(cur, j)
        picks.append(j + 1)
    return tuple(reversed(picks))


def word_to_element(rs: RootSystem, word) -> WeylElement:
    """Product of the listed simple reflections, left to right."""
    w = rs.identity
    for i in word:
        if not 1 <= i <= rs.rank:
            raise ValueError(f"simple root index {i} out of range 1..{rs.rank}")
        w = rs._mul_gen_right(w, i - 1)
    return w


def element_to_word_str(w: WeylElement) -> str:
    """Serialize as a space-separated reduced word; the identity is 'e'."""
    word = reduced_word(w)
    return " ".join(map(str, word)) if word else "e"


def word_str_to_element(rs: RootSystem, s: str) -> WeylElement:
    s = s.strip()
    if s in ("", "e"):
        return rs.identity
    return word_to_element(rs, [int(tok) for tok in s.split()])


def coxeter_elements(rs: RootSystem) -> frozenset[WeylElement]:
    """All products of the n simple reflections, each used once, deduplicated."""
    n = rs.rank
    if n > 8:
        raise GuardError(f"rank {n} > 8: too many orderings")
    out = set()
    for order in _permutations(range(n)):
        w = rs.identity
        for i in order:
            w = rs._mul_gen_right(w, i)
        w._length = n
        out.add(w)
    return frozenset(out)
