"""Integer partitions with the dominance order and cycle types.

>>> Partition.parse("2,2,1")
Partition((2, 2, 1))
>>> dominance_leq(Partition((1, 1, 1)), Partition((2, 1)))
True
>>> dominance_leq(Partition((2, 2, 1)), Partition((3, 1, 1)))
True
>>> str(cycle_type(Permutation.parse("(1 4)(2 3)", 5)))
'2,2,1'
"""

from __future__ import annotations

from ._record import Record
from .permutations import Permutation

__all__ = [
    "Partition",
    "dominance_leq",
    "cycle_type",
    "partitions_of",
]


class Partition(Record):
    """A non-increasing sequence of positive integers."""

    __slots__ = ("parts",)
    parts: tuple[int, ...]

    def __init__(self, parts):
        parts = tuple(parts)
        if any(p <= 0 for p in parts):
            raise ValueError(f"parts must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be non-increasing: {parts}")
        super().__init__(parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, k):
        return self.parts[k]

    def __repr__(self):
        return f"Partition({self.parts})"

    def __str__(self):
        return ",".join(map(str, self.parts))

    @classmethod
    def parse(cls, s: str) -> "Partition":
        """Parse a comma-separated part list such as '2,2,1'."""
        return cls(int(t) for t in s.split(",") if t.strip())


def dominance_leq(lam: Partition, mu: Partition) -> bool:
    """Partial-sum comparison of two partitions of the same weight.

    Comparing different weights is an error rather than False, to surface
    caller bugs.
    """
    if lam.weight != mu.weight:
        raise ValueError(f"weights differ: {lam.weight} vs {mu.weight}")
    return _partial_sums_leq(lam.parts, mu.parts)


def _partial_sums_leq(lam, mu) -> bool:
    """Whether each partial sum of the parts lam is at most mu's, for two
    part sequences of one weight.  zip stops at the shorter one, which
    suffices with no zero padding: after mu's last part its partial sum is
    the weight, which bounds lam's; after lam's last part both sums stay at
    the weight once the comparison at that part has held."""
    a = b = 0
    for x, y in zip(lam, mu):
        a += x
        b += y
        if a > b:
            return False
    return True


def cycle_type(w: Permutation) -> Partition:
    """Cycle lengths of a permutation, fixed points included as 1s.

    >>> cycle_type(Permutation.parse("(1 2 3)", 4))
    Partition((3, 1))
    """
    return Partition(w.cycle_lengths())


def partitions_of(p: int, max_part: int | None = None):
    """All partitions of p in decreasing lexicographic order.

    >>> [tuple(q) for q in partitions_of(4)]
    [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    """
    if p < 0:
        raise ValueError("p must be non-negative")
    first = p if max_part is None else min(p, max_part)
    if p == 0:
        yield Partition(())
        return
    for head in range(first, 0, -1):
        for tail in partitions_of(p - head, head):
            yield Partition((head,) + tail.parts)
