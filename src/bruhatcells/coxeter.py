"""Root systems and Weyl groups of the simple Cartan types A-G.

Roots are integer coordinate vectors in the simple-root basis.  Group
elements are permutations of the root indices, as in GAP/CHEVIE and
Casselman's reflection tables, so they are exact, canonical and hashable
for every type, including the exceptional ones.  A permutation is a
``bytes`` object, one byte per root, and a product or a generator step is
one C-level ``bytes.translate`` call: in E7, with the new element built,
0.9 us each (2 vCPUs, Python 3.11).  So a root system has at most 256
roots, which holds for every type the suites and the benchmark build;
``build_root_system`` refuses a larger one.  The integer matrix of an
element is derived when asked for.
The module provides the length function, longest elements of parabolic
subgroups, the Bruhat order, the automorphism w |-> w0*w*w0, reduced words
and Coxeter elements, and a walk on the simple-root images w(alpha_i)
alone, which needs no root system and so serves any rank.
``longest_element`` and ``reduced_word`` keep their own loops on the
permutations, with the walk's rule but not its code: a step there is one
``bytes.translate``, and on the images O(rank) tuple arithmetic.  One
``reduced_word`` step took 0.6-0.8 us on permutations and 1.7-2.5 us on
images, best of 5 over 300 random elements each of B4, D6 and E6-E8
(2 vCPUs, Python 3.11).

Conventions: simple roots are numbered 1..n following the usual Bourbaki
diagrams (for D_n the two fork ends are alpha_{n-1}, alpha_n; for E_n the
branch node is alpha_2 attached to alpha_4).  The symmetric pairing is
normalized so short roots have squared length 2.
"""

from __future__ import annotations

import re
import weakref
from functools import lru_cache
from math import factorial
from operator import add, neg

from ._record import Record
from .errors import GuardError

__all__ = [
    "CartanType",
    "RootSystem",
    "WeylElement",
    "build_root_system",
    "simple_reflection",
    "longest_element",
    "bruhat_leq",
    "delta0_on_root",
    "delta0_permutation",
    "reduced_word",
    "word_to_element",
    "element_to_word_str",
    "coxeter_elements",
    "ENUMERATION_LIMIT",
]

# A |W| ceiling that no flag lifts for enumerate_weyl_group and conjugacy_classes.
ENUMERATION_LIMIT = 10**7
# The involution side never walks W.  `bruhatcells verify` takes 1.3-1.7 s of CPU
# and 35 MB at B9 and C9, and 1.5-2.2 s and 54 MB at E8 (2 vCPUs, Python 3.11).
_RANK_LIMIT = 9
# A permutation of the roots is one byte per root.
_ROOT_LIMIT = 256

# Every RootSystem ever constructed, so _clear_caches reaches
# the memos of instances that callers still hold.
_BUILT: "weakref.WeakSet[RootSystem]" = weakref.WeakSet()

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


class CartanType(Record):
    """A simple Cartan type: family letter plus rank, e.g. CartanType('B', 4)."""

    __slots__ = ("family", "rank")
    family: str
    rank: int

    def __init__(self, family: str, rank: int):
        if family not in _RANK_BOUNDS:
            raise ValueError(f"unknown family {family!r}")
        if type(rank) is not int:
            raise ValueError(f"rank must be an integer: {rank!r}")
        lo, hi = _RANK_BOUNDS[family]
        if rank < lo or (hi is not None and rank > hi):
            raise ValueError(f"rank {rank} out of range for family {family}")
        super().__init__(family, rank)

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

    @property
    def positive_root_count(self) -> int:
        """N = |Phi+| = rank * h / 2, h the Coxeter number; N = l(w0)."""
        n = self.rank
        h = {
            "A": n + 1,
            "B": 2 * n,
            "C": 2 * n,
            "D": 2 * n - 2,
            "E": {6: 12, 7: 18, 8: 30}.get(n),
            "F": 12,
            "G": 6,
        }[self.family]
        return n * h // 2


def _rank_guard(rank: int) -> None:
    if rank > _RANK_LIMIT:
        raise GuardError(f"rank {rank} > {_RANK_LIMIT}: 2^{rank} subsets J to classify")


def _coerce_type(t) -> CartanType:
    if isinstance(t, CartanType):
        return t
    if isinstance(t, str):
        return CartanType.from_string(t)
    raise TypeError(f"expected CartanType or string, got {type(t).__name__}")


def _diagram(t: CartanType):
    """Edges (0-based, from the node nearer alpha_1) and half squared lengths d_i."""
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
        edges = [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)] + [(3, 1)]
        return edges, [1] * n
    if f == "F":
        return path, [2, 2, 1, 1]
    return [(0, 1)], [1, 3]  # G2: alpha_1 short, alpha_2 long


def _forms(t: CartanType):
    """The symmetrized pairing, with short roots of squared length 2, and the
    Cartan integers C[i][j] = 2<a_i,a_j>/<a_i,a_i> = <alpha_j, alpha_i^vee>."""
    n = t.rank
    edges, d = _diagram(t)
    adj = {(i, j) for i, j in edges} | {(j, i) for i, j in edges}
    pairing = tuple(
        tuple(
            2 * d[i] if i == j else (-max(d[i], d[j]) if (i, j) in adj else 0)
            for j in range(n)
        )
        for i in range(n)
    )
    cartan = tuple(tuple(pairing[i][j] // d[i] for j in range(n)) for i in range(n))
    return pairing, cartan


class WeylElement:
    """A Weyl group element as a permutation of the root indices.

    ``perm[k]``, a ``bytes`` object, is the index in ``rs.roots`` of the
    image of ``rs.roots[k]``, so a product is one ``RootSystem`` call on two
    permutations and the length counts the positive roots with negative
    images.  Equal group elements have identical permutations, so instances
    hash and compare by value.  The integer matrix in the simple-root basis
    is derived on request as ``rows``.
    """

    __slots__ = ("rs", "perm", "_length")

    def __init__(self, rs: "RootSystem", perm, length=None):
        self.rs = rs
        self.perm = perm
        self._length = length

    def __eq__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.perm == other.perm and (
            self.rs is other.rs or self.rs.cartan_type == other.rs.cartan_type
        )

    def __hash__(self):
        return hash(self.perm)

    def __repr__(self):
        return f"<WeylElement {self.rs.cartan_type} '{element_to_word_str(self)}'>"

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        rs = self.rs
        if rs is not other.rs:
            raise ValueError("elements belong to different root systems")
        return WeylElement(rs, rs._mul(self.perm, other.perm))

    def __call__(self, root):
        """Apply the element to a root (coordinate vector)."""
        rs = self.rs
        k = rs.root_index.get(tuple(root))
        if k is None:
            raise ValueError(f"{tuple(root)} is not a root of {rs.cartan_type}")
        return rs.roots[self.perm[k]]

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The integer matrix in the simple-root basis, computed on each call:
        column j holds the coordinates of the image of the j-th simple root."""
        roots, perm = self.rs.roots, self.perm
        return tuple(zip(*(roots[perm[k]] for k in self.rs.simple_index)))

    def inv(self) -> "WeylElement":
        return WeylElement(self.rs, self.rs._inverse(self.perm), self._length)

    @property
    def length(self) -> int:
        """Number of positive roots sent to negative roots."""
        if self._length is None:
            self._length = self.rs._length(self.perm)
        return self._length

    @property
    def is_identity(self) -> bool:
        return self.perm == self.rs.identity.perm

    def is_involution(self) -> bool:
        """True when the element squares to the identity."""
        perm = self.perm
        return self.rs._mul(perm, perm) == self.rs.identity.perm


def _descent(rs: RootSystem, perm) -> int | None:
    """First 0-based j with w(alpha_{j+1}) negative, w = perm, or None."""
    npos = rs.npos
    for j, k in enumerate(rs.simple_index):
        if perm[k] < npos:
            return j
    return None


def _byte_arithmetic(npos: int, generators):
    """Permutations of at most 256 roots as ``bytes``: each primitive is one
    or two C-level ``bytes.translate`` calls with a 256-byte table, which is
    a permutation padded with zeros that are never looked up."""
    n_roots = 2 * npos
    pad = bytes(256 - n_roots)
    positive = bytes(range(npos, n_roots))
    identity = bytes(range(n_roots))
    right = tuple(map(bytes, generators))
    left = tuple(g + pad for g in right)

    def mul(p, q):
        return q.translate(p + pad)

    def times_generator(p, i):
        return right[i].translate(p + pad)

    def conjugate(p, j, i):
        return right[i].translate(p.translate(left[j]) + pad)

    def length(p):
        return len(p[npos:].translate(None, positive))

    def inverse(p):
        return bytes.maketrans(p, identity)[:n_roots]

    return identity, right, mul, times_generator, conjugate, length, inverse


class RootSystem:
    """The root system of one simple Cartan type.

    Attributes: ``cartan`` (Cartan integers C[i][j] = 2<a_i,a_j>/<a_i,a_i>),
    ``pairing`` (symmetrized form with short roots of squared length 2),
    ``simple_roots``, ``positive_roots`` and ``roots`` as coordinate tuples.
    Weyl elements permute the indices of ``roots``: ``root_index`` inverts
    that tuple, ``simple_index`` holds the indices of the simple roots, and
    the negative roots are the first ``npos``.

    Permutations are ``bytes`` with ``bytes.translate``, so a system has at
    most 256 roots (E6-E8, F4, G2, A1-A15, B/C2-B/C11, D4-D11); a larger
    type is refused with a ``GuardError`` that names its root count.  The
    private calls on permutations are ``_mul(p, q)`` (p*q), ``_right(p, i)``
    (p*s_{i+1}), ``_conj(p, j, i)`` (s_{j+1}*p*s_{i+1}), ``_length(p)`` and
    ``_inverse(p)``.
    """

    def __init__(self, cartan_type: CartanType):
        n_roots = 2 * cartan_type.positive_root_count
        if n_roots > _ROOT_LIMIT:
            raise GuardError(
                f"{cartan_type} has {n_roots} roots, more than the {_ROOT_LIMIT} "
                "that Weyl elements, one byte per root, can permute"
            )
        self.cartan_type = cartan_type
        n = self.rank = cartan_type.rank
        self.pairing, self.cartan = _forms(cartan_type)
        self.simple_roots = tuple(
            tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
        )
        self.roots, self.root_index, generators = _roots_and_reflections(
            self.cartan, self.simple_roots
        )
        self.positive_roots = tuple(r for r in self.roots if _is_positive(r))
        npos = self.npos = len(self.positive_roots)
        # sorted coordinates put each negative root before every positive one
        if 2 * npos != len(self.roots) or self.roots[npos:] != self.positive_roots:
            raise AssertionError("root generation produced an asymmetric set")
        self.simple_index = tuple(self.root_index[a] for a in self.simple_roots)
        (
            identity,
            generators,
            self._mul,
            self._right,
            self._conj,
            self._length,
            self._inverse,
        ) = _byte_arithmetic(npos, generators)
        self.identity = WeylElement(self, identity, 0)
        self.simple_reflections = tuple(WeylElement(self, g, 1) for g in generators)
        self._memo: dict = {}
        _BUILT.add(self)

    def __repr__(self):
        return f"RootSystem({self.cartan_type})"

    def __reduce__(self):
        # the arithmetic is closures: copies and unpickled systems are the cached one
        return build_root_system, (self.cartan_type,)

    def pair(self, alpha, beta) -> int:
        """Invariant symmetric bilinear form of two coordinate vectors."""
        n = self.rank
        b = self.pairing
        return sum(alpha[i] * b[i][j] * beta[j] for i in range(n) for j in range(n))

    @property
    def w0(self) -> WeylElement:
        """The longest element."""
        if "w0" not in self._memo:
            self._memo["w0"] = longest_element(self)
        return self._memo["w0"]


def _roots_and_reflections(cartan, simple_roots):
    """All roots, sorted, their index, and the simple reflections as tuples
    of root indices, from one closure of the simple roots that records the
    roots each s_i moves: s_i(v) = v - <v, alpha_i^vee> alpha_i, the pairing
    summed over the at most four nonzero Cartan integers C[i][j] of row i."""
    rows = [[(j, c) for j, c in enumerate(row) if c] for row in cartan]
    roots = list(simple_roots)
    seen = set(roots)
    images = [{} for _ in rows]
    for v in roots:  # grows while it is walked
        for i, row in enumerate(rows):
            c = 0
            for j, a in row:
                c += a * v[j]
            if c:
                w = images[i][v] = v[:i] + (v[i] - c,) + v[i + 1 :]
                if w not in seen:
                    seen.add(w)
                    roots.append(w)
    roots.sort()
    index = {r: k for k, r in enumerate(roots)}
    generators = tuple(
        tuple(map(index.__getitem__, map(moved.get, roots, roots))) for moved in images
    )
    return tuple(roots), index, generators


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


def _clear_caches() -> None:
    """Empty the memo of every root system and forget the cached instances."""
    for rs in list(_BUILT):
        rs._memo.clear()
    _build_cached.cache_clear()


def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    """The reflection in the i-th simple root, 1 <= i <= rank."""
    if not 1 <= i <= rs.rank:
        raise ValueError(f"simple root index {i} out of range 1..{rs.rank}")
    return rs.simple_reflections[i - 1]


def longest_element(rs: RootSystem, J=None) -> WeylElement:
    """Longest element w0J of the parabolic subgroup W_J (whole group if J
    is None), grown by right multiplication with any generator of J that
    is not yet a right descent."""
    idx = range(rs.rank) if J is None else sorted({i - 1 for i in J})
    for i in idx:
        if not 0 <= i < rs.rank:
            raise ValueError(f"simple root index {i + 1} out of range 1..{rs.rank}")
    right, simple, npos = rs._right, rs.simple_index, rs.npos
    perm, length = rs.identity.perm, 0
    changed = True
    while changed:
        changed = False
        for i in idx:
            if perm[simple[i]] >= npos:
                perm = right(perm, i)
                length += 1
                changed = True
    return WeylElement(rs, perm, length)


def _image_walk(t: CartanType):
    """Right multiplication by simple reflections on the images w(alpha_1),
    ..., w(alpha_r) alone, the columns of w's matrix, so no root system is
    built (Bjorner-Brenti, *Combinatorics of Coxeter Groups*, Section 4.4).

    ``start()`` gives the identity: a list of images, coordinate tuples, and
    flags ``negative[i]``, set when w(alpha_{i+1}) < 0, that is when s_{i+1}
    is a right descent.  ``step(images, negative, i)`` turns w into w*s_{i+1}
    in place, in O(rank): the image at i is negated, and each Dynkin
    neighbour j becomes w(alpha_j) - C[i][j] w(alpha_i), C[i][j] < 0.
    """
    cartan = _forms(t)[1]
    n = t.rank
    links = [[(j, -c) for j, c in enumerate(row) if c < 0] for row in cartan]
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    zero = (0,) * n

    def start():
        return list(simple), [False] * n

    def step(images, negative, i):
        a = images[i]
        images[i] = tuple(map(neg, a))
        negative[i] = not negative[i]
        for j, c in links[i]:
            b = images[j]
            for _ in range(c):
                b = tuple(map(add, b, a))
            images[j] = b
            negative[j] = b < zero  # a root's first nonzero coordinate is its sign

    return start, step


def _walk_longest(step, images, negative, idx) -> int:
    """Grow w to w*w0J, for J the 0-based indices idx, by the rule of
    ``longest_element``: any generator of J that is not yet a right descent.
    Returns the number of steps, l(w0J) when w starts as the identity."""
    length = 0
    changed = True
    while changed:
        changed = False
        for i in idx:
            if not negative[i]:
                step(images, negative, i)
                length += 1
                changed = True
    return length


def _walk_reduced_word(step, images, negative) -> tuple[int, ...]:
    """A reduced word for w, found as ``reduced_word`` finds it, by stepping
    down the first right descent; w is the identity afterwards."""
    picks = []
    while True in negative:
        j = negative.index(True)
        step(images, negative, j)
        picks.append(j + 1)
    return tuple(reversed(picks))


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
    right, simple, npos = rs._right, rs.simple_index, rs.npos
    missed = []
    u, lu, w, lw = u.perm, u.length, w.perm, w.length
    while True:
        if lu >= lw:
            res = u == w
            break
        key = (u, w)
        res = cache.get(key)
        if res is not None:
            break
        missed.append(key)
        j = _descent(rs, w)
        if u[simple[j]] < npos:
            u = right(u, j)
            lu -= 1
        w = right(w, j)
        lw -= 1
    for key in missed:
        cache[key] = res
    return res


def delta0_on_root(rs: RootSystem, root):
    """The permutation alpha |-> -w0(alpha) of the roots; stabilizes the simple ones."""
    return tuple(-v for v in rs.w0(root))


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
    rs, perm = w.rs, w.perm
    picks = []
    while True:
        j = _descent(rs, perm)
        if j is None:
            break
        perm = rs._right(perm, j)
        picks.append(j + 1)
    return tuple(reversed(picks))


def word_to_element(rs: RootSystem, word) -> WeylElement:
    """Product of the listed simple reflections, left to right."""
    perm = rs.identity.perm
    for i in word:
        if not 1 <= i <= rs.rank:
            raise ValueError(f"simple root index {i} out of range 1..{rs.rank}")
        perm = rs._right(perm, i - 1)
    return WeylElement(rs, perm)


def element_to_word_str(w: WeylElement) -> str:
    """Serialize as a space-separated reduced word; the identity is 'e'."""
    return _word_str(reduced_word(w))


def _word_str(word) -> str:
    return " ".join(map(str, word)) if word else "e"


def coxeter_elements(rs: RootSystem) -> frozenset[WeylElement]:
    """All products of the n simple reflections, each used once: one per
    orientation of the Dynkin tree's edges (Shi, J. Algebraic Combin. 6, 1997).
    An edge mask gives each node a height, and the reflections are multiplied
    by height; joined nodes differ in height, so the rest commute."""
    n = rs.rank
    _rank_guard(n)
    edges = _diagram(rs.cartan_type)[0]
    out = set()
    for mask in range(1 << (n - 1)):
        height = [0] * n
        for k, (a, b) in enumerate(edges):
            height[b] = height[a] + (1 if mask >> k & 1 else -1)
        word = [i + 1 for i in sorted(range(n), key=height.__getitem__)]
        out.add(WeylElement(rs, word_to_element(rs, word).perm, n))
    return frozenset(out)
