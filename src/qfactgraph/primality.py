"""Primality verdicts for q-factorization graphs.

The certificates implemented here are sufficient conditions only, so the
engine returns a trichotomy: Prime with the certificate that fired,
NotPrime with a witness factorization, or an honest Unknown carrying a
per-cut classification report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .dynkin import DynkinA
from .errors import (
    ChainConditionViolated,
    InvalidCut,
    NonIntegralP,
    NotQFactGraph,
    PreconditionViolated,
)
from .fgraph import (
    Arrow,
    Cut,
    FactGraph,
    ancestors,
    connected_components,
    cuts,
    descendants,
    is_line,
    is_monotonic_line,
    is_totally_ordered,
    subgraph,
    to_polynomial,
    validate,
)
from .lweight import DrinfeldPoly
from .redsets import kr_dual_pair_simple, rset, rset_restricted

__all__ = [
    "Verdict",
    "CutClass",
    "CutWitness",
    "DualCutWitness",
    "DualCertificate",
    "ChainPair",
    "ChainReport",
    "classify",
    "classify_cut",
    "cut_reducible_extremal",
    "cut_arrowless_simple",
    "dual_neighborhood_certificate",
    "chain_p_matrix",
    "chain_arrow_closure",
    "alternating_line_check",
]


@dataclass(frozen=True)
class CutWitness:
    """An adjacent extremal pair certifying that a cut is reducible."""

    left_vertex: int
    right_vertex: int
    arrow: Arrow


@dataclass(frozen=True)
class CutClass:
    cut: Cut
    status: str  # "ReducibleByExtremal" | "ReducibleByArrowless" | "Undetermined"
    witness: CutWitness | None = None


@dataclass(frozen=True)
class DualCutWitness:
    """A base pair whose punctured neighborhood product passed the dual
    simplicity test, certifying the cut cannot split the module."""

    cut: Cut
    left_base: int
    right_base: int
    condition: int  # 1: arrow right->left, right duals; 2: mirrored
    checked: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class DualCertificate:
    cuts: tuple[DualCutWitness, ...]


@dataclass(frozen=True)
class Verdict:
    outcome: str  # "Prime" | "NotPrime" | "Unknown"
    certificate: str | None = None
    witness: tuple[DrinfeldPoly, ...] | None = None
    report: tuple[CutClass, ...] | None = None


def _check_cut(g: FactGraph, cut: Cut) -> None:
    ids = set(g.ids())
    if set(cut.left) | set(cut.right) != ids or set(cut.left) & set(cut.right):
        raise InvalidCut("cut sides do not bipartition the vertex set")
    if not cut.left or not cut.right:
        raise InvalidCut("cut sides must both be nonempty")


def _extremal_in(g: FactGraph, v: int) -> bool:
    return not g.out_adj[v] or not g.in_adj[v]


def _isolated_in(g: FactGraph, v: int) -> bool:
    return not g.out_adj[v] and not g.in_adj[v]


def cut_reducible_extremal(g: FactGraph, cut: Cut) -> CutWitness | None:
    """Search the cut for an adjacent pair, extremal in their own sides,
    such that a pair member extremal in the whole graph is isolated in
    its side.  Such a pair certifies the cut's tensor product reducible."""
    _check_cut(g, cut)
    left_sub = subgraph(g, cut.left)
    right_sub = subgraph(g, cut.right)
    amap = g.arrow_map
    for vl in sorted(cut.left):
        if not _extremal_in(left_sub, vl):
            continue
        if _extremal_in(g, vl) and not _isolated_in(left_sub, vl):
            continue
        for vr in sorted(cut.right):
            arrow = amap.get((vl, vr)) or amap.get((vr, vl))
            if arrow is None:
                continue
            if not _extremal_in(right_sub, vr):
                continue
            if _extremal_in(g, vr) and not _isolated_in(right_sub, vr):
                continue
            return CutWitness(vl, vr, arrow)
    return None


def cut_arrowless_simple(g: FactGraph, cut: Cut) -> bool:
    """True iff no arrow crosses the cut; the cut then factors the module."""
    return not cut.crossing


def _dual_cut_witness(g: FactGraph, cut: Cut) -> DualCutWitness | None:
    d = g.rank
    amap = g.arrow_map
    left_sub = subgraph(g, cut.left)
    right_sub = subgraph(g, cut.right)
    for vl in sorted(cut.left):
        for vr in sorted(cut.right):
            # The monotone neighborhoods of the base vertices include the
            # bases; only the base pair itself is exempt from the test.
            if (vr, vl) in amap:
                np_left = sorted(ancestors(left_sub, vl) | {vl})
                nm_right = sorted(descendants(right_sub, vr) | {vr})
                pairs = tuple(
                    (x, y)
                    for x in np_left
                    for y in nm_right
                    if (x, y) != (vl, vr)
                )
                if all(
                    kr_dual_pair_simple(d, g.vertices[x], g.vertices[y])
                    for x, y in pairs
                ):
                    return DualCutWitness(cut, vl, vr, 1, pairs)
            if (vl, vr) in amap:
                nm_left = sorted(descendants(left_sub, vl) | {vl})
                np_right = sorted(ancestors(right_sub, vr) | {vr})
                pairs = tuple(
                    (x, y)
                    for x in nm_left
                    for y in np_right
                    if (x, y) != (vl, vr)
                )
                # Mirrored condition: the left member is dualized, which is
                # the same simplicity test with the arguments swapped.
                if all(
                    kr_dual_pair_simple(d, g.vertices[y], g.vertices[x])
                    for x, y in pairs
                ):
                    return DualCutWitness(cut, vl, vr, 2, pairs)
    return None


def dual_neighborhood_certificate(
    g: FactGraph, max_cut_vertices: int = 20
) -> DualCertificate | None:
    """Try to certify primality by exhibiting, for every cut, a base pair
    joined by an arrow whose punctured neighborhood products are all
    simple against the appropriate duals.  Returns None as soon as one
    cut admits no witness."""
    witnesses = []
    for cut in cuts(g, max_vertices=max_cut_vertices):
        w = _dual_cut_witness(g, cut)
        if w is None:
            return None
        witnesses.append(w)
    return DualCertificate(tuple(witnesses))


def classify_cut(g: FactGraph, cut: Cut) -> CutClass:
    if cut_arrowless_simple(g, cut):
        return CutClass(cut, "ReducibleByArrowless")
    witness = cut_reducible_extremal(g, cut)
    if witness is not None:
        return CutClass(cut, "ReducibleByExtremal", witness)
    return CutClass(cut, "Undetermined")


def classify(g: FactGraph, max_cut_vertices: int = 20) -> Verdict:
    """Decide primality of the module attached to a q-factorization graph.

    Pipeline: disconnected graphs factor across components (NotPrime);
    one- and two-vertex connected graphs are prime; totally ordered
    graphs are prime; otherwise the dual-neighborhood certificate is
    attempted, and failing that the verdict is Unknown with every cut
    classified by the extremal-pair test.
    """
    report = validate(g, "qfact")
    if not report.ok:
        raise NotQFactGraph(f"graph fails q-factorization validation: {report.first}")
    if not g.vertices:
        # The empty polynomial denotes the trivial module, the unit of the
        # tensor product; it is not prime and its witness is empty.
        return Verdict("NotPrime", witness=())
    components = connected_components(g)
    if len(components) > 1:
        return Verdict(
            "NotPrime", witness=tuple(to_polynomial(c) for c in components)
        )
    n = len(g.vertices)
    if n == 1:
        return Verdict("Prime", certificate="SingleVertex")
    if n == 2:
        return Verdict("Prime", certificate="TwoVertexConnected")
    if is_totally_ordered(g):
        cert = "TotallyOrderedLine" if is_monotonic_line(g) else "TotallyOrdered"
        return Verdict("Prime", certificate=cert)
    if dual_neighborhood_certificate(g, max_cut_vertices=max_cut_vertices) is not None:
        return Verdict("Prime", certificate="DualNeighborhood")
    cut_report = tuple(
        classify_cut(g, cut) for cut in cuts(g, max_vertices=max_cut_vertices)
    )
    return Verdict("Unknown", report=cut_report)


def _check_chain(
    d: DynkinA, chain: tuple[tuple[int, int, int], ...], increasing: bool
) -> None:
    for (m0, r0, i0), (m1, r1, i1) in zip(chain, chain[1:]):
        if increasing and m1 <= m0:
            raise ChainConditionViolated(
                f"centers must strictly increase, got {m0} then {m1}"
            )
        if abs(m1 - m0) not in rset(d, i0, i1, r0, r1):
            raise ChainConditionViolated(
                f"|{m1} - {m0}| is outside the reducibility set of the "
                f"consecutive pair ({i0}, {r0}), ({i1}, {r1})"
            )


def chain_p_matrix(
    d: DynkinA, chain: list[tuple[int, int, int]]
) -> dict[tuple[int, int], int]:
    """Overlap parameters p_{l,k} = (r_l + r_k + d(i_l,i_k) - (m_l - m_k)) / 2
    for 1 <= k < l <= N, from a chain of (center, length, color) entries
    whose consecutive gaps lie in the reducibility sets."""
    entries = tuple((int(m), int(r), int(i)) for m, r, i in chain)
    _check_chain(d, entries, increasing=False)
    out: dict[tuple[int, int], int] = {}
    for k in range(1, len(entries) + 1):
        mk, rk, ik = entries[k - 1]
        for l in range(k + 1, len(entries) + 1):
            ml, rl, il = entries[l - 1]
            num = rl + rk + d.distance(il, ik) - (ml - mk)
            if num % 2:
                raise NonIntegralP(
                    f"p_({l},{k}) = {num}/2 is not an integer; the chain is inconsistent"
                )
            out[(l, k)] = num // 2
    return out


class ChainPair(NamedTuple):
    k: int
    l: int
    difference: int
    p: int
    in_full: bool
    in_interval: bool


@dataclass(frozen=True)
class ChainReport:
    pairs: tuple[ChainPair, ...]
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def chain_arrow_closure(d: DynkinA, chain: list[tuple[int, int, int]]) -> ChainReport:
    """Pairwise reducibility audit of a strictly increasing chain.

    For every pair (k, l) the report records whether the center gap lies
    in the full and in the interval-restricted reducibility sets, and
    cross-checks the closure implications: a pair whose extreme overlap
    parameter is within one of its interval bound must be linked, and if
    the extreme pair is linked within its interval then every pair is.
    """
    entries = tuple((int(m), int(r), int(i)) for m, r, i in chain)
    _check_chain(d, entries, increasing=True)
    pmat = chain_p_matrix(d, list(entries))
    n = len(entries)
    pairs: list[ChainPair] = []
    violations: list[str] = []
    for k in range(1, n + 1):
        mk, rk, ik = entries[k - 1]
        for l in range(k + 1, n + 1):
            ml, rl, il = entries[l - 1]
            delta = ml - mk
            in_full = delta in rset(d, ik, il, rk, rl)
            span = d.interval(ik, il)
            in_interval = delta in rset_restricted(d, ik, il, rk, rl, span)
            pairs.append(ChainPair(k, l, delta, pmat[(l, k)], in_full, in_interval))
    if n >= 2:
        p_extreme = pmat[(n, 1)]
        for pair in pairs:
            if (pair.k, pair.l) == (1, n):
                continue
            span = d.interval(entries[pair.k - 1][2], entries[pair.l - 1][2])
            if p_extreme >= -d.boundary_distance(span) - 1 and not pair.in_full:
                violations.append(
                    f"pair ({pair.k}, {pair.l}) should be linked: extreme overlap "
                    f"{p_extreme} is within one of its interval bound"
                )
        extreme = next(p for p in pairs if (p.k, p.l) == (1, n))
        if extreme.in_interval:
            for pair in pairs:
                if not pair.in_interval:
                    violations.append(
                        f"pair ({pair.k}, {pair.l}) escapes its interval set although "
                        "the extreme pair is interval-linked"
                    )
    return ChainReport(tuple(pairs), tuple(violations))


def alternating_line_check(g: FactGraph) -> bool:
    """For a totally ordered graph with boundary colors only: true iff it
    is a line whose adjacent vertices are differently colored."""
    if not is_totally_ordered(g):
        raise PreconditionViolated("graph is not totally ordered")
    boundary = g.rank.boundary
    if any(v.color not in boundary for v in g.vertices.values()):
        raise PreconditionViolated("all colors must lie on the diagram boundary")
    if not is_line(g):
        return False
    return all(
        g.vertices[a.tail].color != g.vertices[a.head].color for a in g.arrows
    )
