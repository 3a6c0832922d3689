"""Drinfeld polynomials as multisets of Kirillov-Reshetikhin strings.

A KR factor records a q-string by its color, the q-exponent of the string
center (relative to an arbitrary per-coset anchor), its length, and an
opaque coset tag.  Factors in distinct cosets never interact.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Sequence

from .dynkin import DynkinA, reducible
from .errors import InternalInvariantViolation, NonPositiveLength, PolySyntaxError

__all__ = [
    "KRFactor",
    "DrinfeldPoly",
    "roots_of",
    "q_factorize",
    "is_q_factorization",
    "weight",
    "support",
    "dual_negate",
    "dual_sigma",
    "dual_star",
    "dual_kappa",
    "shift",
    "parse_poly",
    "poly_to_text",
    "poly_to_json",
    "poly_from_json",
]


def check_ints(what: str, *values: int) -> None:
    """Refuse the first of values that is not an int (nor a bool), the
    rule KRFactor applies to its color, center and coset."""
    for v in values:
        if type(v) is not int:
            raise TypeError(f"{what} must be ints, got {v!r}")


def check_length(*lengths: int) -> None:
    """Refuse the first of lengths that is not an int >= 1 (nor a bool)."""
    for v in lengths:
        if type(v) is not int or v < 1:
            raise NonPositiveLength(f"string length must be >= 1, got {v!r}")


@dataclass(frozen=True, order=True)
class KRFactor:
    """One KR string: color, center exponent, length, coset tag.

    Graph vertices are KR factors too; their weight is the length.
    """

    color: int
    center: int
    length: int
    coset: int = 0

    def __post_init__(self) -> None:
        check_ints("color, center and coset", self.color, self.center, self.coset)
        check_length(self.length)

    @property
    def weight(self) -> int:
        return self.length


@dataclass(frozen=True)
class DrinfeldPoly:
    """A multiset of KR factors over a fixed type A diagram.

    Factors are kept sorted, so equality is multiset equality.
    """

    rank: DynkinA
    factors: tuple[KRFactor, ...] = ()

    def __post_init__(self) -> None:
        fs = tuple(sorted(self.factors))
        for f in fs:
            self.rank.check_node(f.color)
        object.__setattr__(self, "factors", fs)

    def __len__(self) -> int:
        return len(self.factors)

    def __iter__(self):
        return iter(self.factors)

    @cached_property
    def _forced(self) -> tuple[tuple[int, int, int], ...]:
        """forced_pairs of the factors, scanned once for is_q_factorization and build_graph."""
        return forced_pairs(self.rank, self.factors)


def roots_of(f: KRFactor) -> tuple[int, ...]:
    """Exponents of the string roots: center + length - 1 - 2p for 0 <= p < length."""
    return tuple(f.center - f.length + 1 + 2 * p for p in range(f.length))


def forced_pairs(rank: DynkinA, factors: Sequence[KRFactor]) -> tuple[tuple[int, int, int], ...]:
    """The (k, l, gap) of every pair with k above l: one coset, and a center
    gap in the pair's full-diagram reducibility set, sorted.  With lowest and
    top roots lo and hi, u = lo + color and w = lo - color, colors b of k and
    a of l, and lengths r and s, such a pair has
    u_k in [u_l + 2, hi_l - a + 2n + 2], w_k in [w_l + 2, hi_l + a] and
    u_k = u_l (mod 2): the set's first member |r - s| + |a - b| + 2 bounds
    lo_k - lo_l from below by |a - b| + 2, its last r + s +
    min(a + b - 2, 2n - a - b) bounds lo_k - hi_l from above by that min + 2,
    and the gap's parity r + s + a + b is that of u_k - u_l.  Only the pair's
    own strings enter.  Per (coset, parity of u), each l bisects the factors
    sorted by u and by w, scans the window with fewer points and checks the
    other coordinate; reducible refuses the rest, k nested in l."""
    n = rank.n
    u = [f.center - f.length + 1 + f.color for f in factors]
    w = [x - 2 * f.color for x, f in zip(u, factors)]
    groups: dict[tuple[int, int], list[int]] = defaultdict(list)
    for k, f in enumerate(factors):
        groups[f.coset, u[k] % 2].append(k)
    pairs = []
    for members in groups.values():
        by_u, by_w = sorted(members, key=u.__getitem__), sorted(members, key=w.__getitem__)
        us, ws = [u[k] for k in by_u], [w[k] for k in by_w]
        for l in members:
            fl = factors[l]
            hi = fl.center + fl.length - 1
            u_lo, u_hi, w_lo, w_hi = u[l] + 2, hi - fl.color + 2 * n + 2, w[l] + 2, hi + fl.color
            u0, u1 = bisect_left(us, u_lo), bisect_right(us, u_hi)
            w0, w1 = bisect_left(ws, w_lo), bisect_right(ws, w_hi)
            if u1 - u0 <= w1 - w0:
                window = [k for k in by_u[u0:u1] if w_lo <= w[k] <= w_hi]
            else:
                window = [k for k in by_w[w0:w1] if u_lo <= u[k] <= u_hi]
            for k in window:
                fk = factors[k]
                gap = fk.center - fl.center
                if reducible(gap, fk.color, fl.color, fk.length, fl.length, 1, n):
                    pairs.append((k, l, gap))
    return tuple(sorted(pairs))


def is_q_factorization(p: DrinfeldPoly) -> bool:
    """True iff no same-color, same-coset pair of factors interacts: its
    center gap lies in the single-node set {r + s - 2p : 0 <= p < min(r, s)}.
    That set has the first member |r - s| + 2 and the parity of the pair's
    full-diagram set and ends earlier, at r + s, so a pair interacts iff it
    is a forced pair of one color whose gap is at most r + s."""
    fs = p.factors
    return not any(
        fs[k].color == fs[l].color and gap <= fs[k].length + fs[l].length
        for k, l, gap in p._forced
    )


def q_factorize(p: DrinfeldPoly) -> DrinfeldPoly:
    """Canonical factorization of a (pseudo) factorization into KR strings.

    Roots of opposite parity never share a string, so per (color, coset,
    parity of the lowest root) the root multiplicity m is a step function:
    +1 at a string's lowest root, -1 one step past its top root.  The
    canonical strings are the maximal runs of the level sets {m >= k},
    which are pairwise nested or separated.  A sweep over the sorted
    endpoints keeps a stack of open run starts: a rise of d opens d runs,
    a fall of d closes the d most recent, and abutting strings merge (net
    change 0).  No root is expanded: O(f log f) time and O(f) memory in
    the number of factors f.  The result is verified pairwise; a failure
    indicates a bug, not bad input.
    """
    steps: dict[tuple[int, int, int], Counter] = defaultdict(Counter)
    for f in p.factors:
        lo = f.center - f.length + 1
        step = steps[f.color, f.coset, lo % 2]
        step[lo] += 1
        step[lo + 2 * f.length] -= 1
    out: list[KRFactor] = []
    for (color, coset, _), step in steps.items():
        starts: list[int] = []
        for x in sorted(step):
            d = step[x]
            starts.extend([x] * d)
            for _ in range(-d):
                s = starts.pop()
                length = (x - s) // 2
                out.append(KRFactor(color, s + length - 1, length, coset))
    result = DrinfeldPoly(p.rank, tuple(out))
    if not is_q_factorization(result):
        raise InternalInvariantViolation("run peeling produced interacting strings")
    return result


def weight(p: DrinfeldPoly) -> dict[int, int]:
    """Total string length per color."""
    out: dict[int, int] = {}
    for f in p.factors:
        out[f.color] = out.get(f.color, 0) + f.length
    return out


def support(p: DrinfeldPoly) -> frozenset[int]:
    return frozenset(f.color for f in p.factors)


def dual_negate(p: DrinfeldPoly) -> DrinfeldPoly:
    """Negate every center (the root-inversion dual)."""
    return DrinfeldPoly(p.rank, tuple(replace(f, center=-f.center) for f in p.factors))


def dual_sigma(p: DrinfeldPoly) -> DrinfeldPoly:
    """Apply the diagram involution to every color."""
    return DrinfeldPoly(
        p.rank, tuple(replace(f, color=p.rank.star(f.color)) for f in p.factors)
    )


def shift(p: DrinfeldPoly, c: int) -> DrinfeldPoly:
    """Add c to every center."""
    return DrinfeldPoly(p.rank, tuple(replace(f, center=f.center + c) for f in p.factors))


def dual_star(p: DrinfeldPoly) -> DrinfeldPoly:
    """Right-dual transform: star the colors, then shift centers by -h_vee."""
    return shift(dual_sigma(p), -p.rank.dual_coxeter())


def dual_kappa(p: DrinfeldPoly) -> DrinfeldPoly:
    """Composite of root inversion and the right dual; an involution."""
    return dual_star(dual_negate(p))


_TOKEN = re.compile(r"(\d+):(-?\d+):(-?\d+)(?:@(-?\d+))?\Z")


def parse_poly(text: str, rank: DynkinA | int) -> DrinfeldPoly:
    """Parse whitespace-separated ``color:center:length[@coset]`` tokens.

    Duplicate tokens accumulate multiplicity.
    """
    diagram = rank if isinstance(rank, DynkinA) else DynkinA(rank)
    factors: list[KRFactor] = []
    for m in re.finditer(r"\S+", text):
        tok = m.group(0)
        parsed = _TOKEN.match(tok)
        if parsed is None:
            raise PolySyntaxError(f"bad token {tok!r}", m.start())
        color, center, length = (int(parsed.group(k)) for k in (1, 2, 3))
        coset = int(parsed.group(4)) if parsed.group(4) is not None else 0
        factors.append(KRFactor(color, center, length, coset))
    return DrinfeldPoly(diagram, tuple(factors))


def poly_to_text(p: DrinfeldPoly) -> str:
    parts = []
    for f in p.factors:
        tok = f"{f.color}:{f.center}:{f.length}"
        if f.coset:
            tok += f"@{f.coset}"
        parts.append(tok)
    return " ".join(parts)


def poly_to_json(p: DrinfeldPoly) -> list[dict[str, int]]:
    return [
        {"color": f.color, "center": f.center, "length": f.length, "coset": f.coset}
        for f in p.factors
    ]


def poly_from_json(data: Iterable[dict[str, int]], rank: DynkinA | int) -> DrinfeldPoly:
    """Inverse of poly_to_json; a malformed item raises PolySyntaxError
    whose position is the item's index."""
    diagram = rank if isinstance(rank, DynkinA) else DynkinA(rank)
    factors = []
    for k, item in enumerate(data):
        values = (
            [item.get(key) for key in ("color", "center", "length")] + [item.get("coset", 0)]
            if isinstance(item, dict)
            else [None]
        )
        if any(type(v) is not int for v in values):
            raise PolySyntaxError(
                f"factor {item!r} needs int color, center, length and optional coset", k
            )
        factors.append(KRFactor(*values))
    return DrinfeldPoly(diagram, tuple(factors))
