"""Reference implementations kept as test oracles.

These are the closed forms and pair loops the library used before the
reducibility kernel (``dynkin.reducibility_bounds``) and the shared
construction loop replaced them, copied unchanged.  They recompute every
reducibility set through ``DynkinA.distance`` and ``boundary_distance``,
so they share no arithmetic with the kernel they check.
"""

from __future__ import annotations

from typing import Iterable

from qfactgraph import (
    Arrow,
    DynkinA,
    FactGraph,
    IntervalDoesNotContain,
    InvalidInterval,
    KRFactor,
    PairRelation,
    RSet,
    Vertex,
)
from qfactgraph.fgraph import _LEVELS, ValidationFailure, ValidationReport
from qfactgraph.redsets import SIMPLE, _check_lengths


def rset(d: DynkinA, i: int, j: int, r: int, s: int) -> RSet:
    """Reducibility set for the KR pair (i, r), (j, s) over the full diagram."""
    _check_lengths(r, s)
    dist = d.distance(i, j)
    bd = d.boundary_distance(d.interval(i, j))
    lo = r + s + dist - 2 * (min(r, s) - 1)
    hi = r + s + dist + 2 * bd
    return RSet(i, j, r, s, None, lo, hi)


def rset_restricted(
    d: DynkinA, i: int, j: int, r: int, s: int, J: Iterable[int]
) -> RSet:
    """Reducibility set computed with the interval J as the ambient diagram.

    J must be a connected interval containing [i, j]; its endpoints play
    the role of the diagram boundary.
    """
    _check_lengths(r, s)
    js = sorted(set(J))
    if not js:
        raise InvalidInterval("empty restricting interval")
    for node in js:
        d.check_node(node)
    if js != list(range(js[0], js[-1] + 1)):
        raise InvalidInterval(f"{js} is not a connected interval")
    dist = d.distance(i, j)
    span = d.interval(i, j)
    if not span <= set(js):
        raise IntervalDoesNotContain(f"interval {js} does not contain [{i}, {j}]")
    bd = min(min(span) - js[0], js[-1] - max(span))
    lo = r + s + dist - 2 * (min(r, s) - 1)
    hi = r + s + dist + 2 * bd
    return RSet(i, j, r, s, (js[0], js[-1]), lo, hi)


def rset_same_node(d: DynkinA, i: int, r: int, s: int) -> RSet:
    """Single-node reducibility set {r + s - 2p : 0 <= p < min(r, s)}."""
    _check_lengths(r, s)
    d.check_node(i)
    return RSet(i, i, r, s, (i, i), abs(r - s) + 2, r + s)


def kr_pair_relation(d: DynkinA, f: KRFactor, g: KRFactor) -> PairRelation:
    """Classify the ordered tensor product of two KR strings.

    ReducibleHLW(m) means the product in this order is reducible and
    highest-weight-ordered with positive exponent m; ReducibleOpposite
    means the opposite order is.  Cross-coset pairs are always simple.
    """
    if f.coset != g.coset:
        return SIMPLE
    delta = f.center - g.center
    if abs(delta) in rset(d, f.color, g.color, f.length, g.length):
        kind = "ReducibleHLW" if delta > 0 else "ReducibleOpposite"
        return PairRelation(kind, delta)
    return SIMPLE


def _strings_interact(a: KRFactor, b: KRFactor) -> bool:
    # Two same-color strings fail the q-factorization condition exactly when
    # their center gap lies in {r + s - 2p : 0 <= p < min(r, s)}, i.e. the
    # strings overlap without nesting or abut with a gap of one step.
    gap = abs(a.center - b.center)
    hi = a.length + b.length
    lo = abs(a.length - b.length) + 2
    return lo <= gap <= hi and (hi - gap) % 2 == 0


def _graph_from_factors(rank: DynkinA, factors: tuple[KRFactor, ...]) -> FactGraph:
    vertices = {
        k: Vertex(f.color, f.center, f.length, f.coset) for k, f in enumerate(factors)
    }
    arrows = []
    for a, fa in enumerate(factors):
        for b, fb in enumerate(factors):
            if a == b:
                continue
            rel = kr_pair_relation(rank, fa, fb)
            if rel.kind == "ReducibleHLW":
                arrows.append(Arrow(a, b, rel.exponent))
    return FactGraph(rank, vertices, tuple(arrows))


def validate(g: FactGraph, level: str = "qfact") -> ValidationReport:
    """Check graph invariants at the requested level.

    prefact: structural invariants (positive exponents matching center
    differences, one arrow per pair, coset-pure arrows).  pseudo: every
    reducible highest-weight-ordered same-coset pair carries its forced
    arrow, and every arrow exponent lies in the pair's reducibility set.
    qfact: same-color, same-coset pairs stay out of the single-node
    reducibility set.  Centers within one coset share an anchor, so
    pairs are compared across components too; deleting a bridge arrow
    cannot mask a violation.  Levels are cumulative; failures are
    reported, never raised.
    """
    if level not in _LEVELS:
        raise ValueError(f"level must be one of {_LEVELS}, got {level!r}")
    fails: list[ValidationFailure] = []
    n = g.rank.n
    for vid in g.ids():
        v = g.vertices[vid]
        if not isinstance(v.color, int) or not 1 <= v.color <= n:
            fails.append(
                ValidationFailure("bad-color", (vid,), f"color {v.color!r} not in 1..{n}")
            )
        if not isinstance(v.weight, int) or v.weight < 1:
            fails.append(
                ValidationFailure("bad-weight", (vid,), f"weight {v.weight!r} < 1")
            )
    seen_pairs: set[frozenset[int]] = set()
    for a in g.arrows:
        t, h = g.vertices[a.tail], g.vertices[a.head]
        if a.tail == a.head:
            fails.append(ValidationFailure("self-loop", (a.tail,), "loop arrow"))
            continue
        pair = frozenset((a.tail, a.head))
        if pair in seen_pairs:
            fails.append(
                ValidationFailure(
                    "duplicate-pair-arrow", (a.tail, a.head), "second arrow on the pair"
                )
            )
        seen_pairs.add(pair)
        if t.coset != h.coset:
            fails.append(
                ValidationFailure(
                    "cross-coset-arrow", (a.tail, a.head), "arrow joins distinct cosets"
                )
            )
        if a.exp < 1 or a.exp != t.center - h.center:
            fails.append(
                ValidationFailure(
                    "bad-exponent",
                    (a.tail, a.head),
                    f"exponent {a.exp} != positive center gap {t.center - h.center}",
                )
            )
    if fails or level == "prefact":
        return ValidationReport(level, tuple(fails))

    ids = g.ids()
    for u in ids:
        vu = g.vertices[u]
        for w in ids:
            if u == w:
                continue
            vw = g.vertices[w]
            if vu.coset != vw.coset:
                continue
            delta = vu.center - vw.center
            if delta <= 0:
                continue
            if delta in rset(g.rank, vu.color, vw.color, vu.weight, vw.weight):
                if (u, w) not in g.arrow_map:
                    fails.append(
                        ValidationFailure(
                            "missing-arrow",
                            (u, w),
                            f"center gap {delta} forces an arrow from {u} to {w}",
                        )
                    )
    for a in g.arrows:
        t, h = g.vertices[a.tail], g.vertices[a.head]
        if a.exp not in rset(g.rank, t.color, h.color, t.weight, h.weight):
            fails.append(
                ValidationFailure(
                    "unjustified-arrow",
                    (a.tail, a.head),
                    f"exponent {a.exp} is outside the pair's reducibility set",
                )
            )
    if fails or level == "pseudo":
        return ValidationReport(level, tuple(fails))

    for k, u in enumerate(ids):
        vu = g.vertices[u]
        for w in ids[k + 1 :]:
            vw = g.vertices[w]
            if vu.color != vw.color or vu.coset != vw.coset:
                continue
            gap = abs(vu.center - vw.center)
            rs = rset_same_node(g.rank, vu.color, vu.weight, vw.weight)
            if gap in rs:
                fails.append(
                    ValidationFailure(
                        "qfact-violation",
                        (u, w),
                        f"|{vu.center - vw.center}| = {gap} lies in the same-color "
                        f"reducibility set {list(rs.members)} for color {vu.color}",
                    )
                )
    return ValidationReport(level, tuple(fails))
