"""Primality verdicts for q-factorization graphs.

The certificates implemented here are sufficient conditions only, so the
engine returns a trichotomy: Prime with the certificate that fired,
NotPrime with a witness factorization, or an honest Unknown carrying a
per-cut classification report.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, TypeVar

from .dynkin import DynkinA
from .errors import (
    ChainConditionViolated,
    InvalidCut,
    NonIntegralP,
    NotQFactGraph,
    PreconditionViolated,
)
from .fgraph import (
    _CUT_CAP,
    Arrow,
    BitMasks,
    Cut,
    FactGraph,
    _bits,
    _closure,
    _component_masks,
    is_line,
    is_totally_ordered,
    validate,
)
from .lweight import DrinfeldPoly, check_ints
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

T = TypeVar("T")
_BLOCK = 10  # a block of report rows holds 2^_BLOCK cuts


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
    report: Sequence[CutClass] | None = None
    reason: str | None = None  # "cap-exceeded": too many vertices to walk the cuts


def _left_mask(g: FactGraph, cut: Cut) -> int:
    """The left mask of a cut whose sides split the vertices into two
    nonempty sets; an id that is not a vertex sets bit n, past all of them."""
    index, n = g.masks.index, len(g.vertices)
    left = right = 0
    for v in cut.left:
        left |= 1 << index.get(v, n)
    for v in cut.right:
        right |= 1 << index.get(v, n)
    if left | right != g.masks.full or left & right:
        raise InvalidCut("cut sides do not bipartition the vertex set")
    if not left or not right:
        raise InvalidCut("cut sides must both be nonempty")
    return left


def _witness_lanes(g: FactGraph, xs: list[int], ones: int, lane: int) -> int:
    """cut_reducible_extremal's witness on many cuts, one lane per cut: ones
    is ``lane`` in every lane, xs[j] in the lanes with vertex j on the left.
    A vertex passes if extremal in its side, or isolated there if extremal
    in the graph.  A lane of the result is kl * n + kr for the lowest passing
    left kl with a passing right neighbour and the lowest such kr, or lane."""
    m, n = g.masks, len(g.vertices)
    inner = [i and o for i, o in zip(m.inn, m.out)]
    left, right = [], []
    for side, passing in ((xs, left), ([ones ^ x for x in xs], right)):
        heads, tails = [0] * n, [0] * n  # lanes where k has an in- or out-neighbour in side
        for t, h in m.arrow_bits:
            heads[h] |= side[t]
            tails[t] |= side[h]
        passing += [s & ~(i & o if b else i | o) for s, i, o, b in zip(side, heads, tails, inner)]
    row = rest = ones
    for kl in range(n):
        for kr in _bits(m.nbr[kl]) if left[kl] else ():
            hit = left[kl] & right[kr] & rest
            row ^= hit // lane * (lane ^ (kl * n + kr))
            rest ^= hit
    return row


def _report_rows(g: FactGraph) -> array:
    """The report rows (see _CutReport) in 16-bit lanes, lane i for the cut
    whose left side is 2i + 1, bar the last (left = full), 2^_BLOCK lanes a
    block.  The lanes with vertex j on the left are 2^(j-1) lanes off and
    2^(j-1) on, repeated, or all or none of a block.  Lanes are two equal
    bytes until written, so taking both ways through the host byte order
    puts lane i at item i.  Codes are below n^2: n up to 181 fits."""
    n, order = len(g.vertices), sys.byteorder
    lanes = 1 << min(n - 1, _BLOCK)
    ones = int.from_bytes(b"\xff" * 2 * lanes, order)
    patterns = [ones] + [
        int.from_bytes((bytes(1 << j) + b"\xff" * (1 << j)) * (lanes >> j), order)
        for j in range(1, n) if lanes >> j
    ]
    rows = array("h")
    for base in range(0, 1 << n - 1, lanes):
        xs = patterns + [ones * (base >> j - 1 & 1) for j in range(len(patterns), n)]
        rows.frombytes(_witness_lanes(g, xs, ones, 0xFFFF).to_bytes(2 * lanes, order))
    del rows[-1]
    return rows


def _witness(g: FactGraph, kl: int, kr: int) -> CutWitness:
    vl, vr = g.masks.ids[kl], g.masks.ids[kr]
    amap = g.arrow_map
    return CutWitness(vl, vr, amap.get((vl, vr)) or amap.get((vr, vl)))


def _extremal_witness(g: FactGraph, left: int) -> CutWitness | None:
    n = len(g.vertices)
    lane = (1 << 2 * n.bit_length()) - 1  # one lane, wider than any witness code
    row = _witness_lanes(g, [lane * (left >> j & 1) for j in range(n)], lane, lane)
    return None if row == lane else _witness(g, *divmod(row, n))


def _arrowless(m: BitMasks, left: int) -> bool:
    return not any(m.nbr[k] & ~left for k in _bits(left))


def cut_reducible_extremal(g: FactGraph, cut: Cut) -> CutWitness | None:
    """Search the cut for an adjacent pair, extremal in their own sides,
    such that a pair member extremal in the whole graph is isolated in
    its side.  Such a pair certifies the cut's tensor product reducible."""
    return _extremal_witness(g, _left_mask(g, cut))


def cut_arrowless_simple(g: FactGraph, cut: Cut) -> bool:
    """True iff no arrow of the graph crosses the cut; the cut then factors
    the module."""
    return _arrowless(g.masks, _left_mask(g, cut))


def _dual_rows(g: FactGraph) -> list[int]:
    """One row mask per vertex: bit y of row x is set iff the product of
    vertex x with the right dual of vertex y is not simple, for y != x.  The
    diagonal is always clear."""
    d, factors = g.rank, [g.vertices[v] for v in g.masks.ids]
    return [
        sum(1 << y for y, fy in enumerate(factors) if y != x and not kr_dual_pair_simple(d, fx, fy))
        for x, fx in enumerate(factors)
    ]


def _dual_base(m: BitMasks, bad: list[int], left: int) -> tuple[int, int, int, int] | None:
    """The first base pair (kl, kr) of the cut whose left side is the mask
    left that passes the dual test, as (kl, kr, condition, tested) with
    tested the vertices whose pairs were tested, or None.

    An arrow t -> h across the cut passes if every vertex of upper (h and
    its ancestors on h's side) is dual-simple against every vertex of lower
    (t and its descendants on t's side), bar the pair (h, t) itself: no row
    of bad over upper, with t cleared from h's, meets lower.  Both arrows of
    a pair are tried, kr -> kl first; condition is 1 exactly when h is on
    the left."""
    right = m.full ^ left
    for kl in _bits(left):
        for kr in _bits(m.nbr[kl] & right):
            for h, t, condition, side in ((kl, kr, 1, left), (kr, kl, 2, right)):
                if m.out[t] >> h & 1:
                    upper = _closure(m.inn, 1 << h, side)
                    lower = _closure(m.out, 1 << t, m.full ^ side)
                    if not (bad[h] & ~(1 << t) & lower
                            or any(bad[x] & lower for x in _bits(upper ^ 1 << h))):
                        return kl, kr, condition, upper | lower
    return None


def _dual_walk(m: BitMasks, bad: list[int], lefts: range) -> bool:
    """True iff every cut of lefts has a base pair that passes _dual_base."""
    return all(_dual_base(m, bad, left) for left in lefts)


def dual_neighborhood_certificate(g: FactGraph) -> DualCertificate | None:
    """Try to certify primality by exhibiting, for every cut, a base pair
    joined by an arrow whose punctured neighborhood products are all
    simple against the appropriate duals.  Returns None if one cut admits
    no witness, and for the empty graph (its module is trivial).  Witnesses
    are built only once classify's walk has passed every cut.  A witness
    checks (left, right) pairs of the tested vertices, by left vertex, bar
    the base pair."""
    if not g.vertices:
        return None
    m = g.masks
    lefts = m.lefts()
    bad, ids = _dual_rows(g), m.ids
    if not _dual_walk(m, bad, lefts):
        return None
    witnesses = []
    for left in lefts:
        kl, kr, condition, tested = _dual_base(m, bad, left)
        pairs = ((x, y) for x in _bits(tested & left) for y in _bits(tested & ~left))
        checked = tuple((ids[x], ids[y]) for x, y in pairs if (x, y) != (kl, kr))
        witnesses.append(DualCutWitness(m.cut(left), ids[kl], ids[kr], condition, checked))
    return DualCertificate(tuple(witnesses))


class _CutReport(Sequence[CutClass]):
    """The Unknown report: one 16-bit row per cut in the order of lefts,
    kl * n + kr for its extremal witness (kl, kr) or -1 for Undetermined.
    Entries are built only when read; ==, hash and repr see their tuple."""

    def __init__(self, graph: FactGraph, lefts: range, rows: array) -> None:
        self.graph = graph
        self.lefts = lefts
        self.rows = rows

    def __len__(self) -> int:
        return len(self.lefts)

    def by_row(self, witness: Callable[[int, int], T], undetermined: T) -> list[T]:
        """A table indexed by row: witness(kl, kr) at the row of the witness
        (kl, kr), and undetermined at row -1, the last item."""
        n = len(self.graph.vertices)
        return [witness(kl, kr) for kl in range(n) for kr in range(n)] + [undetermined]

    def _entry(self, left: int, row: int) -> CutClass:
        g, cut = self.graph, self.graph.masks.cut(left)
        if row < 0:
            return CutClass(cut, "Undetermined")
        return CutClass(cut, "ReducibleByExtremal", _witness(g, *divmod(row, len(g.vertices))))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return _CutReport(self.graph, self.lefts[index], self.rows[index])
        return self._entry(self.lefts[index], self.rows[index])

    def __iter__(self) -> Iterator[CutClass]:
        return map(self._entry, self.lefts, self.rows)

    def __eq__(self, other) -> bool:
        if isinstance(other, (_CutReport, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


def classify_cut(g: FactGraph, cut: Cut) -> CutClass:
    left = _left_mask(g, cut)
    if _arrowless(g.masks, left):
        return CutClass(cut, "ReducibleByArrowless")
    witness = _extremal_witness(g, left)
    return CutClass(cut, "Undetermined" if witness is None else "ReducibleByExtremal", witness)


def classify(g: FactGraph) -> Verdict:
    """Decide primality of the module attached to a q-factorization graph.

    Pipeline: graphs with zero or several components factor across them
    (NotPrime); one- and two-vertex connected graphs are prime; totally
    ordered graphs are prime; graphs with more than _CUT_CAP (20)
    vertices are Unknown with reason "cap-exceeded"; otherwise the
    dual-neighborhood certificate is attempted, and failing that the
    verdict is Unknown with every cut classified by the extremal-pair test.
    """
    report = validate(g, "qfact")
    if not report.ok:
        raise NotQFactGraph(f"graph fails q-factorization validation: {report.first}")
    m = g.masks
    components = list(_component_masks(m))
    if len(components) != 1:
        # No component: the empty polynomial is the trivial module, the unit
        # of the tensor product; it is not prime and its witness is empty.
        factors = (tuple(g.vertices[v] for v in m.members(comp)) for comp in components)
        return Verdict("NotPrime", witness=tuple(DrinfeldPoly(g.rank, f) for f in factors))
    n = len(g.vertices)
    if n == 1:
        return Verdict("Prime", certificate="SingleVertex")
    if n == 2:
        return Verdict("Prime", certificate="TwoVertexConnected")
    if is_totally_ordered(g):
        # The covering pairs u > w of a total order are arrows (a longer path
        # passes a vertex between them) and form the monotonic line; validate
        # allows one arrow per pair, so the graph is that line iff n - 1 arrows.
        cert = "TotallyOrderedLine" if len(g.arrows) == n - 1 else "TotallyOrdered"
        return Verdict("Prime", certificate=cert)
    if n > _CUT_CAP:
        return Verdict("Unknown", reason="cap-exceeded")
    lefts = m.lefts()
    if _dual_walk(m, _dual_rows(g), lefts):
        return Verdict("Prime", certificate="DualNeighborhood")
    # The graph is connected, so an arrow crosses every cut.
    return Verdict("Unknown", report=_CutReport(g, lefts, _report_rows(g)))


def _check_chain(
    d: DynkinA, chain: list[tuple[int, int, int]], increasing: bool
) -> tuple[tuple[int, int, int], ...]:
    """The chain's (center, length, color) entries as a tuple, once every
    entry holds three ints and every consecutive gap lies in its pair's
    reducibility set (and, if increasing, is positive)."""
    chain = tuple((m, r, i) for m, r, i in chain)
    for entry in chain:
        check_ints("chain centers, lengths and colors", *entry)
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
    return chain


def _p_matrix(
    d: DynkinA, entries: tuple[tuple[int, int, int], ...]
) -> dict[tuple[int, int], int]:
    """chain_p_matrix of entries that _check_chain has passed.  A gap in
    rset(i, j, r, s) is r + s + |i - j| - 2p, so summing the consecutive gaps
    gives m_l - m_k = r_k + r_l + |i_l - i_k| mod 2 (the inner r's come twice):
    every numerator is even, and NonIntegralP can only mean a bug."""
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


def chain_p_matrix(
    d: DynkinA, chain: list[tuple[int, int, int]]
) -> dict[tuple[int, int], int]:
    """Overlap parameters p_{l,k} = (r_l + r_k + d(i_l,i_k) - (m_l - m_k)) / 2
    for 1 <= k < l <= N, from a chain of (center, length, color) entries
    whose consecutive gaps lie in the reducibility sets."""
    return _p_matrix(d, _check_chain(d, chain, increasing=False))


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
    entries = _check_chain(d, chain, increasing=True)
    pmat = _p_matrix(d, entries)
    n = len(entries)
    p_extreme = pmat.get((n, 1))
    pairs: list[ChainPair] = []
    violations: list[str] = []
    for k in range(1, n + 1):
        mk, rk, ik = entries[k - 1]
        for l in range(k + 1, n + 1):
            ml, rl, il = entries[l - 1]
            delta = ml - mk
            span = range(min(ik, il), max(ik, il) + 1)
            in_full = delta in rset(d, ik, il, rk, rl)
            in_interval = delta in rset_restricted(d, ik, il, rk, rl, span)
            pairs.append(ChainPair(k, l, delta, pmat[(l, k)], in_full, in_interval))
            if (k, l) != (1, n) and p_extreme >= -d.boundary_distance(span) - 1 and not in_full:
                violations.append(
                    f"pair ({k}, {l}) should be linked: extreme overlap "
                    f"{p_extreme} is within one of its interval bound"
                )
    if n >= 2 and pairs[n - 2].in_interval:  # pairs[n - 2] is the extreme pair (1, n)
        violations += (
            f"pair ({p.k}, {p.l}) escapes its interval set although "
            "the extreme pair is interval-linked"
            for p in pairs if not p.in_interval
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
