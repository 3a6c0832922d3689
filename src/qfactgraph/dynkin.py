"""Type A_n Dynkin diagram bookkeeping.

The diagram is a path on nodes 1..n, so distances, intervals, the
boundary and the reducibility bounds all have closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import InvalidInterval, InvalidNode

__all__ = ["DynkinA"]


@dataclass(frozen=True, order=True)
class DynkinA:
    """The type A_n diagram on nodes 1..n."""

    n: int

    def __post_init__(self) -> None:
        if type(self.n) is not int or self.n < 1:
            raise ValueError(f"rank must be a positive integer, got {self.n!r}")

    @property
    def nodes(self) -> range:
        return range(1, self.n + 1)

    @property
    def boundary(self) -> frozenset[int]:
        """Monovalent nodes of the diagram, {1, n}."""
        return frozenset({1, self.n})

    def check_node(self, i: int) -> int:
        if type(i) is not int or not 1 <= i <= self.n:
            raise InvalidNode(f"node {i!r} is not in 1..{self.n}")
        return i

    def distance(self, i: int, j: int) -> int:
        """Path-metric distance |i - j|."""
        self.check_node(i)
        self.check_node(j)
        return abs(i - j)

    def interval(self, i: int, j: int) -> frozenset[int]:
        """All nodes between i and j inclusive."""
        self.check_node(i)
        self.check_node(j)
        return frozenset(range(min(i, j), max(i, j) + 1))

    def check_interval(self, nodes: Iterable[int]) -> tuple[int, int]:
        """The ends (lo, hi) of a nonempty connected interval of nodes.  A
        unit-step range is connected, so it is checked by its two ends."""
        if isinstance(nodes, range) and nodes.step == 1 and nodes:
            return self.check_node(nodes[0]), self.check_node(nodes[-1])
        js = sorted(set(nodes))
        if not js:
            raise InvalidInterval("empty node interval")
        for j in js:
            self.check_node(j)
        if js[-1] - js[0] + 1 != len(js):  # sorted distinct ints with a gap
            raise InvalidInterval(f"{js} is not a connected interval")
        return js[0], js[-1]

    def boundary_distance(self, nodes: Iterable[int]) -> int:
        """Distance min(lo - 1, n - hi) from a connected interval [lo, hi]
        of nodes to the diagram boundary."""
        lo, hi = self.check_interval(nodes)
        return min(lo - 1, self.n - hi)

    def star(self, i: int) -> int:
        """The diagram involution i -> n + 1 - i."""
        self.check_node(i)
        return self.n + 1 - i

    def dual_coxeter(self) -> int:
        """Dual Coxeter number, n + 1 in type A_n."""
        return self.n + 1


def reducibility_bounds(i: int, j: int, r: int, s: int, lo: int, hi: int) -> tuple[int, int]:
    """Least and greatest member of the type A reducibility set of the KR
    pair (i, r), (j, s) over the ambient interval [lo, hi], which must
    contain [i, j]: the progression r + s + d(i, j) - 2p for
    -d([i, j], {lo, hi}) <= p < min(r, s).  Arguments are not checked.
    """
    a, b = (i, j) if i <= j else (j, i)
    return abs(r - s) + b - a + 2, r + s + b - a + 2 * min(a - lo, hi - b)


def reducible(gap: int, i: int, j: int, r: int, s: int, lo: int, hi: int) -> bool:
    """True iff gap lies in the reducibility set of reducibility_bounds."""
    first, last = reducibility_bounds(i, j, r, s, lo, hi)
    return first <= gap <= last and (gap - first) % 2 == 0
