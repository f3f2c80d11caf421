"""Permutations of {1..n}: cycle notation, exceedances, and the bridge to
the type-A Weyl group where s_i is the adjacent transposition (i, i+1).

>>> w = Permutation.parse("(1 4)(2 3)", 4)
>>> w.cycle_string()
'(1 4)(2 3)'
>>> exceedances(w)
2
>>> (w * w).is_identity
True
"""

from __future__ import annotations

import re
from bisect import bisect
from itertools import permutations as _permutations

from ._record import Record
from .coxeter import RootSystem, WeylElement

__all__ = [
    "Permutation",
    "exceedances",
    "all_permutations",
    "involutions",
    "bruhat_leq_perm",
    "permutation_to_weyl",
    "weyl_to_permutation",
]

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


class Permutation(Record):
    """Immutable permutation of {1..n}; ``images[i-1]`` is the image of i."""

    __slots__ = ("images",)
    images: tuple[int, ...]

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images}")
        _set_images(self, images)  # the slot directly: products build many

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (u * v)(i) = u(v(i))."""
        if self.degree != other.degree:
            raise ValueError("degrees differ")
        return Permutation(tuple(self.images[j - 1] for j in other.images))

    def inv(self) -> "Permutation":
        out = [0] * self.degree
        for i, j in enumerate(self.images, start=1):
            out[j - 1] = i
        return Permutation(out)

    def __repr__(self):
        return f"Permutation.parse({self.cycle_string()!r}, {self.degree})"

    @property
    def is_identity(self) -> bool:
        return all(j == i + 1 for i, j in enumerate(self.images))

    @property
    def is_involution(self) -> bool:
        return all(self.images[j - 1] == i + 1 for i, j in enumerate(self.images))

    def inversions(self) -> int:
        """Coxeter length in S_n: pairs i < j with w(i) > w(j).

        >>> Permutation((2, 1, 3)).inversions()
        1
        """
        im = self.images
        n = len(im)
        return sum(1 for i in range(n) for j in range(i + 1, n) if im[i] > im[j])

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each starting at its minimum, sorted by minimum."""
        seen = [False] * self.degree
        out = []
        for start in range(1, self.degree + 1):
            if seen[start - 1]:
                continue
            cyc = []
            i = start
            while not seen[i - 1]:
                seen[i - 1] = True
                cyc.append(i)
                i = self.images[i - 1]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return tuple(out)

    def cycle_lengths(self) -> tuple[int, ...]:
        """All cycle lengths including fixed points, non-increasing."""
        lens = sorted(map(len, self.cycles()), reverse=True)
        return tuple(lens) + (1,) * (self.degree - sum(lens))

    def cycle_string(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "e"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def longest(cls, n: int) -> "Permutation":
        """The order-reversing permutation, the longest element of S_n."""
        return cls(range(n, 0, -1))

    @classmethod
    def from_cycles(cls, n: int, cycles) -> "Permutation":
        im = list(range(1, n + 1))
        for cyc in cycles:
            cyc = list(cyc)
            if len(set(cyc)) != len(cyc):
                raise ValueError(f"repeated point in cycle {cyc}")
            for i, pt in enumerate(cyc):
                if not 1 <= pt <= n:
                    raise ValueError(f"point {pt} outside 1..{n}")
                im[pt - 1] = cyc[(i + 1) % len(cyc)]
        moved = [p for c in cycles for p in c]
        if len(set(moved)) != len(moved):
            raise ValueError("cycles are not disjoint")
        return cls(im)

    @classmethod
    def parse(cls, s: str, degree: int) -> "Permutation":
        """Parse cycle notation '(1 4)(2 3)' or one-line form '4 3 2 1'.

        'e', '()' and the empty string denote the identity.
        """
        s = s.strip()
        if s in ("", "e", "()"):
            return cls.identity(degree)
        if "(" in s:
            body = s.replace(",", " ")
            chunks = _CYCLE_RE.findall(body)
            if not chunks or _CYCLE_RE.sub("", body).strip():
                raise ValueError(f"cannot parse cycle notation {s!r}")
            cycles = [tuple(int(t) for t in c.split()) for c in chunks if c.split()]
            return cls.from_cycles(degree, cycles)
        images = [int(t) for t in s.replace(",", " ").split()]
        if len(images) != degree:
            raise ValueError(f"one-line form has {len(images)} entries, expected {degree}")
        return cls(images)


_set_images = Permutation.images.__set__


def length_order(w: Permutation):
    """Sort key of permutations by Coxeter length, then one-line form."""
    return w.inversions(), w.images


def exceedances(w: Permutation) -> int:
    """Number of points i with w(i) > i; for an involution, its 2-cycle count."""
    return sum(1 for i, j in enumerate(w.images, start=1) if j > i)


def all_permutations(n: int):
    """All of S_n in lexicographic one-line order."""
    for im in _permutations(range(1, n + 1)):
        yield Permutation(im)


def involutions(n: int):
    """All w in S_n with w * w = identity (the identity included), in
    lexicographic one-line order: the smallest free point is fixed first,
    then paired with each larger free point in ascending order."""
    im = [0] * n

    def rec(free):
        if not free:
            yield Permutation(im)
            return
        i = free[0]
        for k, j in enumerate(free):  # k = 0 fixes i
            im[i], im[j] = j + 1, i + 1
            yield from rec(free[1:k] + free[k + 1 :])

    yield from rec(tuple(range(n)))


def bruhat_leq_perm(u: Permutation, w: Permutation) -> bool:
    """Whether u <= w in the Bruhat order of S_n, by the tableau criterion
    (Bjorner-Brenti, Combinatorics of Coxeter Groups, Thm 2.1.5): for every
    i, the sorted images u(1..i) are entrywise at most those of w.  Each
    step inserts one image into each prefix, which leaves the entries before
    the earlier insertion point in place, so only the rest is compared."""
    if u.degree != w.degree:
        raise ValueError(f"degrees differ: {u.degree} and {w.degree}")
    prefix_u, prefix_w = [], []
    # the full prefixes are both 1..n, so the last one needs no check
    for x, y in zip(u.images[:-1], w.images[:-1]):
        i = bisect(prefix_u, x)
        prefix_u.insert(i, x)
        j = bisect(prefix_w, y)
        prefix_w.insert(j, y)
        for k in range(min(i, j), len(prefix_u)):
            if prefix_u[k] > prefix_w[k]:
                return False
    return True


def _root_pair(r) -> tuple[int, int]:
    """The pair (a, b), 0-based, with r = e_a - e_b, for a root r of A_n.  In
    the simple-root basis e_a - e_b (a < b) is alpha_{a+1} + ... + alpha_b,
    ones at coordinates a..b-1, so b - a = |sum(r)|."""
    a, s = next(j for j, x in enumerate(r) if x), sum(r)
    return (a, a + s) if s > 0 else (a - s, a)


def _from_simple_images(pairs) -> Permutation:
    """w in S_{n+1} from the pairs of w(alpha_1), ..., w(alpha_n):
    w(alpha_i) = e_w(i) - e_w(i+1)."""
    return Permutation([a + 1 for a, _ in pairs] + [pairs[-1][1] + 1])


def _type_a_roots(rs: RootSystem):
    """Memoised for W(A_n): the pair of each root index k, and the index of
    each pair."""
    table = rs._memo.get("type_a_roots")
    if table is None:
        pairs = list(map(_root_pair, rs.roots))
        table = rs._memo["type_a_roots"] = (pairs, {ab: k for k, ab in enumerate(pairs)})
    return table


def permutation_to_weyl(rs: RootSystem, w: Permutation) -> WeylElement:
    """Image of w under S_{n+1} ~ W(A_n), sending (i, i+1) to s_i: the
    element that maps e_a - e_b to e_w(a) - e_w(b)."""
    if rs.cartan_type.family != "A" or rs.rank != w.degree - 1:
        raise ValueError(f"{rs.cartan_type} does not match S_{w.degree}")
    pairs, index = _type_a_roots(rs)
    im = [i - 1 for i in w.images]
    return WeylElement(rs, bytes(index[im[a], im[b]] for a, b in pairs))


def weyl_to_permutation(w: WeylElement) -> Permutation:
    """Inverse of ``permutation_to_weyl``, read off the simple-root images:
    w(alpha_i) = e_w(i) - e_w(i+1)."""
    rs = w.rs
    if rs.cartan_type.family != "A":
        raise ValueError(f"{rs.cartan_type} is not of type A")
    pairs = _type_a_roots(rs)[0]
    return _from_simple_images([pairs[w.perm[k]] for k in rs.simple_index])
