"""Generators for structured polynomial families: tournaments, snakes,
and skew-shape modules."""

from __future__ import annotations

from dataclasses import dataclass

from .dynkin import DynkinA
from .errors import RankTooSmall, ShapeInvalid
from .lweight import DrinfeldPoly, KRFactor, check_ints
from .redsets import rset

__all__ = [
    "Snake",
    "SkewShape",
    "tournament_family",
    "is_snake",
    "is_prime_snake",
    "snake_to_poly",
    "skew_nu_table",
    "skew_to_poly",
]


def tournament_family(N: int, n: int) -> DrinfeldPoly:
    """Weight-one factors at colors i+N-2 and centers 3(i-1) for 1 <= i <= N.

    On A_n with n >= 3N-4 every pair of factors is linked, so the graph is
    an N-vertex tournament.
    """
    if not isinstance(N, int) or N < 2:
        raise ValueError(f"N must be an integer >= 2, got {N!r}")
    if n < 3 * N - 4:
        raise RankTooSmall(
            f"rank {n} is too small for an {N}-vertex tournament; need n >= {3 * N - 4}"
        )
    d = DynkinA(n)
    return DrinfeldPoly(
        d, tuple(KRFactor(i + N - 2, 3 * (i - 1), 1) for i in range(1, N + 1))
    )


@dataclass(frozen=True)
class Snake:
    """A sequence of (color, center) points over a fixed diagram."""

    rank: DynkinA
    points: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        pts = tuple((i, m) for i, m in self.points)
        if not pts:
            raise ValueError("a snake needs at least one point")
        for i, m in pts:
            check_ints("snake colors and centers", i, m)
            self.rank.check_node(i)
        object.__setattr__(self, "points", pts)


def is_snake(s: Snake) -> bool:
    """Consecutive gaps have the form 2 + d(i, i') - 2p with p <= 0."""
    for (i0, m0), (i1, m1) in zip(s.points, s.points[1:]):
        delta = m1 - m0
        dist = s.rank.distance(i0, i1)
        if delta < 2 + dist or (delta - dist) % 2:
            return False
    return True


def is_prime_snake(s: Snake) -> bool:
    """Snake whose consecutive gaps lie in the weight-one reducibility sets."""
    for (i0, m0), (i1, m1) in zip(s.points, s.points[1:]):
        if m1 - m0 not in rset(s.rank, i0, i1, 1, 1):
            return False
    return True


def snake_to_poly(s: Snake) -> DrinfeldPoly:
    return DrinfeldPoly(s.rank, tuple(KRFactor(i, m, 1) for i, m in s.points))


@dataclass(frozen=True)
class SkewShape:
    """A skew shape lambda \\ mu over A_n: len(lambda) = len(mu) + n + 1,
    both weakly decreasing, with lambda_k >= mu_k >= lambda_{k+n+1}."""

    rank: DynkinA
    lam: tuple[int, ...]
    mu: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        lam, mu = tuple(self.lam), tuple(self.mu)
        check_ints("lambda and mu parts", *lam, *mu)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)
        n, m = self.rank.n, len(mu)
        if len(lam) != m + n + 1:
            raise ShapeInvalid(
                f"lambda must have length {m + n + 1} (= len(mu) + n + 1), got {len(lam)}"
            )
        if any(a < b for a, b in zip(lam, lam[1:])):
            raise ShapeInvalid("lambda must be weakly decreasing")
        if any(a < b for a, b in zip(mu, mu[1:])):
            raise ShapeInvalid("mu must be weakly decreasing")
        for k in range(1, m + 1):
            if not lam[k - 1] >= mu[k - 1] >= lam[k + n]:
                raise ShapeInvalid(
                    f"interlacing fails at k={k}: need lambda_{k} >= mu_{k} >= lambda_{k + n + 1}"
                )


def skew_nu_table(shape: SkewShape) -> tuple[tuple[int, ...], ...]:
    """The (m+1) x (n+1) median table: row l, column i holds the middle
    value of mu_{l-1}, mu_l and lambda_{i+l-1}, with sentinel mu_0 = +inf
    and mu_{m+1} = -inf."""
    n, m = shape.rank.n, len(shape.mu)
    mu_ext = (float("inf"),) + shape.mu + (float("-inf"),)
    rows = []
    for l in range(1, m + 2):
        row = []
        for i in range(1, n + 2):
            row.append(int(sorted((mu_ext[l - 1], mu_ext[l], shape.lam[i + l - 2]))[1]))
        rows.append(tuple(row))
    return tuple(rows)


def skew_to_poly(
    shape: SkewShape,
) -> tuple[DrinfeldPoly, tuple[tuple[tuple[int, int], ...], ...]]:
    """Factors read off the median table: cell (i, l) contributes the
    center exponent nu_{i,l} + nu_{i+1,l} - 2l + 1 - i and the length
    nu_{i,l} - nu_{i+1,l}.  Zero-length cells are kept in the returned
    table but omitted from the polynomial."""
    n, m = shape.rank.n, len(shape.mu)
    nu = skew_nu_table(shape)
    factors = []
    table_rows = []
    for l in range(1, m + 2):
        row = []
        for i in range(1, n + 1):
            k = nu[l - 1][i - 1] + nu[l - 1][i] - 2 * l + 1 - i
            r = nu[l - 1][i - 1] - nu[l - 1][i]
            row.append((k, r))
            if r > 0:
                factors.append(KRFactor(i, k, r))
        table_rows.append(tuple(row))
    return DrinfeldPoly(shape.rank, tuple(factors)), tuple(table_rows)
