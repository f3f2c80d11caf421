"""Decision procedures for conjugacy classes of SL(n+1) meeting Bruhat cells.

A class is given by its Jordan data: distinct eigenvalue labels, each with
non-increasing block sizes.  The criteria read the blocks only; field values
are optional and checked by the finite-field oracle that uses them.  In the
Weyl group S_{n+1}, the cell of an involution meets the class exactly when
its 2-cycle count is within a cap computed from the Jordan data, and a whole
Weyl class lies inside the intersection set exactly when its cycle type is
dominated by the block-sum partition.  Both depend on the class alone, so a
``JordanClass`` computes its cap and block sums once, when it is built, and
every criterion reads them from there.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, zip_longest
from math import factorial

from ._record import Record
from .errors import GuardError
from .partitions import Partition, _partial_sums_leq, partitions_of
from .permutations import Permutation, _unchecked, exceedances, involutions

__all__ = [
    "JordanClass",
    "abstract_jordan_classes",
    "eigenspace_corank",
    "two_cycle_cap",
    "block_sum_partition",
    "nested_involution",
    "dense_cell_involution",
    "involution_cell_meets",
    "passes_corank_bound",
    "weyl_class_inside",
    "bruhat_lower_set",
    "is_spherical",
    "spherical_weyl_set",
    "ClosureMonotonicity",
    "closure_monotonicity",
    "SPHERICAL_CHAR_CAVEAT",
]

# The spherical characterization below is stated for fields of
# characteristic != 2; reports quote this caveat verbatim.
SPHERICAL_CHAR_CAVEAT = (
    "spherical characterization assumes characteristic != 2"
)

_LOWER_SET_DEGREE_LIMIT = 8
_SPHERICAL_DEGREE_LIMIT = 10


class EigenData(Record):
    """One eigenvalue label with its Jordan block sizes, non-increasing."""

    __slots__ = ("label", "blocks")
    label: str
    blocks: tuple[int, ...]

    def __init__(self, label: str, blocks: tuple[int, ...]):
        if not all(type(b) is int for b in blocks):
            raise ValueError(f"blocks must be integers: {blocks}")
        if not blocks or any(b <= 0 for b in blocks):
            raise ValueError(f"blocks must be positive: {blocks}")
        if any(blocks[i] < blocks[i + 1] for i in range(len(blocks) - 1)):
            raise ValueError(f"blocks must be non-increasing: {blocks}")
        super().__init__(label, blocks)

    @property
    def multiplicity(self) -> int:
        return sum(self.blocks)


class JordanClass(Record):
    """Jordan data of a conjugacy class in SL(n+1).

    ``values`` optionally assigns an integer to each label, to be read in a
    prime field later; distinctness and the determinant-one constraint are
    then checked by the consumer that knows the field.

    ``block_sums`` and ``cap`` are derived from the blocks when the class is
    built: the parts of ``block_sum_partition`` and ``two_cycle_cap``.
    """

    __slots__ = ("n_plus_1", "eigen_data", "values", "block_sums", "cap")
    n_plus_1: int
    eigen_data: tuple[EigenData, ...]
    values: dict[str, int] | None
    block_sums: tuple[int, ...]
    cap: int

    def __init__(self, n_plus_1: int, eigen_data, values=None):
        if type(n_plus_1) is not int or n_plus_1 < 1:
            raise ValueError(f"n_plus_1 must be a positive integer: {n_plus_1!r}")
        eigen_data = tuple(
            e if isinstance(e, EigenData) else EigenData(e[0], tuple(e[1]))
            for e in eigen_data
        )
        labels = [e.label for e in eigen_data]
        if not labels:
            raise ValueError("a class needs at least one eigenvalue")
        if len(set(labels)) != len(labels):
            raise ValueError(f"labels repeat: {labels}")
        # The t-th sum adds the t-th largest block of every label, so the
        # sums are positive and non-increasing, one per dimension of the
        # largest eigenspace.
        block_sums = tuple(
            map(sum, zip_longest(*[e.blocks for e in eigen_data], fillvalue=0))
        )
        total = sum(block_sums)
        if total != n_plus_1:
            raise ValueError(f"blocks sum to {total}, expected {n_plus_1}")
        if values is not None:
            if not isinstance(values, dict):
                raise ValueError(f"values must map labels to integers: {values!r}")
            values = dict(values)
            if set(values) != set(labels):
                raise ValueError("values must cover exactly the labels")
            if not all(type(v) is int for v in values.values()):
                raise ValueError(f"values must be integers: {values}")
        cap = min(n_plus_1 - len(block_sums), n_plus_1 // 2)
        super().__init__(n_plus_1, eigen_data, values, block_sums, cap)

    def __hash__(self):  # values is a dict
        return hash((self.n_plus_1, self.eigen_data))

    def __reduce__(self):  # the derived fields are rebuilt, not passed
        return type(self), (self.n_plus_1, self.eigen_data, self.values)

    def __repr__(self):
        data = ", ".join(f"{e.label}:{list(e.blocks)}" for e in self.eigen_data)
        return f"<JordanClass SL({self.n_plus_1}) {data}>"

    def describe(self) -> str:
        return " ".join(
            f"{e.label}={'.'.join(map(str, e.blocks))}" for e in self.eigen_data
        )

    @property
    def is_central(self) -> bool:
        return len(self.eigen_data) == 1 and all(
            b == 1 for b in self.eigen_data[0].blocks
        )

    def to_json_dict(self) -> dict:
        out = {
            "n_plus_1": self.n_plus_1,
            "eigen_data": [
                {"label": e.label, "blocks": list(e.blocks)} for e in self.eigen_data
            ],
        }
        if self.values is not None:
            out["values"] = dict(self.values)
        return out

    @classmethod
    def from_json_dict(cls, d: dict) -> "JordanClass":
        """The inverse of ``to_json_dict``; ValueError on any other shape."""
        if isinstance(d, dict):
            for key in ("n_plus_1", "eigen_data"):
                if key not in d:
                    raise ValueError(f"missing key {key!r}")
        entries = d["eigen_data"] if isinstance(d, dict) else None
        if not isinstance(entries, list) or not all(
            isinstance(e, dict)
            and isinstance(e.get("label"), str)
            and isinstance(e.get("blocks"), list)
            for e in entries
        ):
            raise ValueError("expected an eigen_data list of labels and blocks lists")
        return cls(
            d["n_plus_1"],
            [(e["label"], tuple(e["blocks"])) for e in entries],
            d.get("values"),
        )


def abstract_jordan_classes(n_plus_1: int):
    """All Jordan classes of SL(n+1) up to relabeling: multisets of block
    partitions with total size n+1, labels c1, c2, ...
    """
    shapes = []
    for k in range(1, n_plus_1 + 1):
        shapes.extend(p.parts for p in partitions_of(k))
    shapes.sort(reverse=True)

    def rec(remaining, start):
        if remaining == 0:
            yield ()
            return
        for idx in range(start, len(shapes)):
            shape = shapes[idx]
            if sum(shape) <= remaining:
                for rest in rec(remaining - sum(shape), idx):
                    yield (shape,) + rest

    for combo in rec(n_plus_1, 0):
        yield JordanClass(
            n_plus_1,
            [(f"c{i + 1}", shape) for i, shape in enumerate(combo)],
        )


def eigenspace_corank(c: JordanClass) -> int:
    """n+1 minus the largest geometric eigenvalue multiplicity.

    The block count of a label is the dimension of that eigenspace, so this
    equals the minimum over scalars z of rank(g - z*I).  The block sums
    have one part per dimension of the largest eigenspace.
    """
    return c.n_plus_1 - len(c.block_sums)


def two_cycle_cap(c: JordanClass) -> int:
    """The corank capped at floor((n+1)/2): the largest 2-cycle count an
    involution meeting the class in a Bruhat cell can have."""
    return c.cap


def block_sum_partition(c: JordanClass) -> Partition:
    """Partition whose t-th part sums the t-th largest block of every label.

    The result has exactly n+1 - corank parts and weight n+1.
    """
    return Partition(c.block_sums)


def nested_involution(n_plus_1: int, l: int) -> Permutation:
    """The involution (1, n+1)(2, n)...(l, n+2-l); l = 0 gives the identity."""
    if not 0 <= 2 * l <= n_plus_1:
        raise ValueError(f"need 0 <= l <= (n+1)/2, got l={l}, n+1={n_plus_1}")
    im = list(range(1, n_plus_1 + 1))
    for k in range(1, l + 1):
        im[k - 1], im[n_plus_1 - k] = n_plus_1 + 1 - k, k
    return Permutation(im)


def dense_cell_involution(c: JordanClass) -> Permutation:
    """The element whose cell meets the class densely: the nested involution
    with two_cycle_cap(c) cycles.  Identity iff the class is central."""
    return nested_involution(c.n_plus_1, c.cap)


def involution_cell_meets(c: JordanClass, w: Permutation) -> bool:
    """Whether the class meets the cell BwB of an involution w: exactly when
    the 2-cycle count of w is at most the cap."""
    im = w.images
    if len(im) != c.n_plus_1:
        _check_degree(c, w)
    count = 0  # the exceedances, which an involution has one per 2-cycle
    for i, j in enumerate(im, 1):
        if im[j - 1] != i:
            raise ValueError(f"{w.cycle_string()} is not an involution")
        if j > i:
            count += 1
    return count <= c.cap


def passes_corank_bound(c: JordanClass, w: Permutation) -> bool:
    """Necessary condition for any permutation: exceedances(w) <= corank.

    False certifies the intersection with BwB is empty; True alone decides
    membership only for involutions.
    """
    _check_degree(c, w)
    return exceedances(w) <= eigenspace_corank(c)


def weyl_class_inside(c: JordanClass, lam: Partition) -> bool:
    """Whether the whole S_{n+1} class with cycle type lam lies inside the
    set of cells meeting C: dominance below the block-sum partition."""
    if lam.weight != c.n_plus_1:
        raise ValueError(f"cycle type has weight {lam.weight}, expected {c.n_plus_1}")
    # dominance_leq(lam, block_sum_partition(c)) with no Partition built
    return _partial_sums_leq(lam.parts, c.block_sums)


def bruhat_lower_set(c: JordanClass) -> frozenset[Permutation]:
    """All w at or below the dense-cell involution in the Bruhat order;
    this is the set of opposite cells BwB^- the class meets."""
    n_plus_1 = c.n_plus_1
    if n_plus_1 > _LOWER_SET_DEGREE_LIMIT:
        scan = f"{n_plus_1}!"
        if n_plus_1 <= 20:  # by default str() refuses factorials past 1,558!
            scan += f" = {factorial(n_plus_1):,}"
        raise GuardError(
            f"degree {n_plus_1} > {_LOWER_SET_DEGREE_LIMIT}: the Bruhat lower set "
            f"below the dense-cell involution of {c.describe()} is built only up "
            f"to degree {_LOWER_SET_DEGREE_LIMIT}, and validate_class needs it to "
            "check the opposite cells and the cells below the dense element; its "
            f"scan would read all {scan} permutations"
        )
    return _lower_set(n_plus_1, c.cap)


@lru_cache(maxsize=None)
def _lower_set(n_plus_1: int, l: int) -> frozenset[Permutation]:
    """The Bruhat interval below w_l = nested_involution(n+1, l): the w in
    S_{n+1} whose prefix crossings c(i) = #{a <= i : w(a) > i} are <= l.

    u <= w iff u[i, j] <= w[i, j] for all i, j, where w[i, j] = #{a <= i :
    w(a) >= j} (Bjorner-Brenti, Thm 2.1.5).  Necessity: c(i) = w[i, i+1]
    and w_l[i, i+1] = min(i, l, n+1-i).  Sufficiency: if j > i, w[i, j] <=
    min(i, n+2-j, c(i)); if j <= i, at most c(i) values below j lie beyond
    i, so w[i, j] <= i-j+1 + min(c(i), j-1, n+1-i).  w_l attains both
    bounds with c(i) replaced by l."""
    members = []
    for im in permutations(range(1, n_plus_1 + 1)):
        # c(i) = c(i-1) + [w(i) > i] - [i is among w(1..i-1)]
        seen = crossing = 0
        for i, x in enumerate(im, 1):
            crossing += (x > i) - (seen >> i & 1)
            if crossing > l:
                break
            seen |= 1 << x
        else:
            members.append(_unchecked(im))
    return frozenset(members)


def is_spherical(c: JordanClass) -> bool:
    """Semisimple with exactly two distinct eigenvalues, or a single
    eigenvalue with all blocks of size at most 2 and some block of size 2.

    Central classes are rejected (single points).  The characterization
    carries the characteristic caveat in SPHERICAL_CHAR_CAVEAT.
    """
    if len(c.eigen_data) == 2 and all(
        b == 1 for e in c.eigen_data for b in e.blocks
    ):
        return True
    return (
        len(c.eigen_data) == 1
        and all(b <= 2 for b in c.eigen_data[0].blocks)
        and any(b == 2 for b in c.eigen_data[0].blocks)
    )


def spherical_weyl_set(c: JordanClass) -> frozenset[Permutation]:
    """For a spherical class, the full set of cells meeting it: involutions
    with at most corank 2-cycles."""
    if c.n_plus_1 > _SPHERICAL_DEGREE_LIMIT:
        raise GuardError(f"degree {c.n_plus_1} > {_SPHERICAL_DEGREE_LIMIT}")
    if not is_spherical(c):
        raise ValueError(f"{c!r} is not spherical: {c.describe()}")
    bound = eigenspace_corank(c)
    return frozenset(
        w for w in involutions(c.n_plus_1) if exceedances(w) <= bound
    )


class ClosureMonotonicity(Record):
    """Combinatorial consequences of one class lying in another's closure;
    all three fields equal the cap comparison (see closure_monotonicity)."""

    __slots__ = ("cap_monotone", "cells_monotone", "dense_elements_comparable")
    cap_monotone: bool            # cap of inner <= cap of outer
    cells_monotone: bool          # inner meets an involution cell => outer does
    dense_elements_comparable: bool  # dense involutions Bruhat-comparable

    def __init__(self, cap_monotone, cells_monotone, dense_elements_comparable):
        super().__init__(cap_monotone, cells_monotone, dense_elements_comparable)

    @property
    def ok(self) -> bool:
        return self.cap_monotone and self.cells_monotone and self.dense_elements_comparable


def closure_monotonicity(inner: JordanClass, outer: JordanClass) -> ClosureMonotonicity:
    """Check the cell-membership consequences of closure containment.

    The caller asserts the geometric containment; this only verifies that
    every involution cell met by the inner class is met by the outer one
    and that the dense-cell involutions are comparable: all three fields
    equal the cap comparison.
    """
    if inner.n_plus_1 != outer.n_plus_1:
        raise ValueError("classes live in different groups")
    # Involutions take each exceedance count 0..floor((n+1)/2), the range of
    # the caps; w_l's largest prefix crossing is l, so w_l <= w_l' iff l <= l'.
    cap_monotone = inner.cap <= outer.cap
    return ClosureMonotonicity(cap_monotone, cap_monotone, cap_monotone)


def _check_degree(c: JordanClass, w: Permutation):
    if w.degree != c.n_plus_1:
        raise ValueError(
            f"permutation degree {w.degree} does not match SL({c.n_plus_1})"
        )


def format_class_summary(c: JordanClass) -> list[tuple[str, str]]:
    """Human-readable core invariants as (name, value) pairs, printed one
    per line as "name: value"."""
    return [
        ("class", f"SL({c.n_plus_1}) {c.describe()}"),
        ("eigenspace corank", str(eigenspace_corank(c))),
        ("two-cycle cap", str(c.cap)),
        ("block-sum partition", str(block_sum_partition(c))),
        ("dense-cell involution", dense_cell_involution(c).cycle_string()),
        ("central", "yes" if c.is_central else "no"),
    ]
