"""Type A reducibility sets for pairs of KR strings.

The set attached to colors (i, j) and lengths (r, s) is the arithmetic
progression r + s + d(i,j) - 2p for -d([i,j], boundary) <= p < min(r, s).
A KR pair is reducible exactly when its center gap lies in this set, and
the sign of the gap decides which tensor order is highest-weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .dynkin import DynkinA, reducibility_bounds, reducible
from .errors import IntervalDoesNotContain
from .lweight import KRFactor, check_length

__all__ = [
    "RSet",
    "rset",
    "rset_restricted",
    "PairRelation",
    "kr_pair_relation",
    "kr_dual_pair_simple",
]


@dataclass(frozen=True)
class RSet:
    """A reducibility set, stored as progression bounds for O(1) membership."""

    i: int
    j: int
    r: int
    s: int
    interval: tuple[int, int] | None
    lo: int
    hi: int

    def __contains__(self, m: object) -> bool:
        return (
            isinstance(m, int)
            and self.lo <= m <= self.hi
            and (m - self.lo) % 2 == 0
        )

    @property
    def members(self) -> range:
        return range(self.lo, self.hi + 1, 2)

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return max(0, (self.hi - self.lo) // 2 + 1)


def rset(d: DynkinA, i: int, j: int, r: int, s: int) -> RSet:
    """Reducibility set for the KR pair (i, r), (j, s) over the full diagram."""
    check_length(r, s)
    d.check_node(i)
    d.check_node(j)
    return RSet(i, j, r, s, None, *reducibility_bounds(i, j, r, s, 1, d.n))


def rset_restricted(
    d: DynkinA, i: int, j: int, r: int, s: int, J: Iterable[int]
) -> RSet:
    """Reducibility set computed with the interval J as the ambient diagram.

    J must be a connected interval containing [i, j]; its endpoints play
    the role of the diagram boundary.
    """
    check_length(r, s)
    lo, hi = d.check_interval(J)
    d.check_node(i)
    d.check_node(j)
    if not lo <= min(i, j) <= max(i, j) <= hi:
        raise IntervalDoesNotContain(f"interval [{lo}, {hi}] does not contain [{i}, {j}]")
    return RSet(i, j, r, s, (lo, hi), *reducibility_bounds(i, j, r, s, lo, hi))


class PairRelation(NamedTuple):
    """Outcome of the ordered KR pair test."""

    kind: str  # "Simple" | "ReducibleHLW" | "ReducibleOpposite"
    exponent: int | None = None


SIMPLE = PairRelation("Simple")


def kr_pair_relation(d: DynkinA, f: KRFactor, g: KRFactor) -> PairRelation:
    """Classify the ordered tensor product of two KR strings.

    ReducibleHLW(m) means the product in this order is reducible and
    highest-weight-ordered with positive exponent m; ReducibleOpposite
    means the opposite order is.  Cross-coset pairs of valid colors are
    always simple.
    """
    d.check_node(f.color)
    d.check_node(g.color)
    if f.coset != g.coset:
        return SIMPLE
    delta = f.center - g.center
    if reducible(abs(delta), f.color, g.color, f.length, g.length, 1, d.n):
        kind = "ReducibleHLW" if delta > 0 else "ReducibleOpposite"
        return PairRelation(kind, delta)
    return SIMPLE


def kr_dual_pair_simple(d: DynkinA, f: KRFactor, g: KRFactor) -> bool:
    """True iff the product of f with the right dual of g is simple.

    The right dual of (j, c, s) is (star(j), c - h_vee, s), in g's coset.
    """
    d.check_node(f.color)
    j, gap = d.star(g.color), abs(f.center - (g.center - d.dual_coxeter()))
    return f.coset != g.coset or not reducible(gap, f.color, j, f.length, g.length, 1, d.n)
