"""Reference implementations kept as test oracles: one per library function.

Each reference is an earlier, simpler version of the function it checks,
copied unchanged unless noted.  The module imports neither the
reducibility kernel ``dynkin.reducible`` nor ``BitMasks``, and no
reference calls library code that reaches the kernel: every reducibility
test here goes through the closed forms below.

- The kernel, ``rset``, ``rset_restricted`` (also on one node, as
  ``rset_same_node``), ``kr_pair_relation`` and ``kr_dual_pair_simple``:
  the closed forms ``rset`` through ``kr_dual_pair_simple``.  They
  recompute every reducibility set through ``DynkinA.distance`` and
  ``boundary_distance``, and the right dual of (j, c, s) as
  (n + 1 - j, c - (n + 1), s).  Their length check ``_check_lengths`` is
  the one ``redsets`` kept before the rule moved to
  ``lweight.check_length`` (it accepts a bool).
- ``build_graph`` and the pair scan ``lweight.forced_pairs``:
  ``_graph_from_factors``, which tests every ordered pair of factors with
  ``kr_pair_relation`` and takes the factors' positions as ids; and
  ``window_pairs``, the lowest-root center window with one slack for the
  whole input that ``forced_pairs`` replaced.  It yields index pairs only
  and reaches no kernel; its callers test them with ``kr_pair_relation``.
- ``is_q_factorization`` and the one-color forced pairs it reads:
  ``_strings_interact``, the closed form of the single-node set, taken over
  every same-color, same-coset pair.
- ``validate``: ``validate``, the pair loops over ``rset`` that construction
  reuse replaced.
- ``primality._dual_walk``: ``dual_walk``, the per-cut walk that the walk
  over unions of certified-arrow classes replaced.  It runs the library's
  ``_dual_base`` on every cut, on the masks and dual rows it is given, so
  it reaches no kernel.
- The cut stage, ``cuts`` through ``classify``: the set-based version the
  bitmask cut engine replaced.  Every cut builds both sides as subgraphs
  and walks them.  Its ``cut_reducible_extremal``, one cut at a time, is
  also the reference for the bit-sliced report rows.  Edited when ``Cut``
  lost its crossing arrows: ``cuts`` builds the two sides only, and
  ``cut_arrowless_simple``, which used to read the cut's crossing field,
  reads ``g.arrows``.
- ``q_factorize``: ``q_factorize`` and ``_longest_run``, the
  root-expanding run peeling the endpoint sweep replaced.  Every root of
  every string goes into a multiset, and the longest step-2 run is peeled
  off repeatedly.  The result is checked with ``_strings_interact``.
- ``is_totally_ordered``: ``is_totally_ordered``, which builds the whole
  partial order by DFS and compares every pair of vertices, where the
  library runs a topological sort.
- The order structure, ``descendants`` through ``transitive_reduction``:
  the versions the int masks of ``BitMasks`` replaced, copied unchanged
  but for one thing.  They read the three dict adjacencies ``FactGraph``
  used to cache (``_out_adj``, ``_in_adj``, ``_undirected_adj``, built
  here from the arrows).
- The chain audit ``chain_arrow_closure``: the version that carried each
  pair's span as a node set and checked the implications in a second
  pass, copied unchanged but for its chain check ``_check_chain`` and
  p-matrix ``_p_matrix``, which are written here on the closed-form
  ``rset`` instead of the library's.
- The CLI's verdict writer ``cli._write_verdict``: ``_verdict_to_json``,
  the encoder from before the report was streamed from its rows.  Every
  report entry is a dict with two freshly sorted id lists, read from the
  entry's ``Cut``, and the CLI printed ``json.dumps`` of the whole dict at
  once.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Callable, Hashable, Iterator, Iterable, Mapping, Sequence

from qfactgraph import (
    Arrow,
    ChainConditionViolated,
    ChainPair,
    ChainReport,
    Cut,
    CutClass,
    CutWitness,
    CyclicGraph,
    DrinfeldPoly,
    DualCertificate,
    DualCutWitness,
    DynkinA,
    FactGraph,
    IntervalDoesNotContain,
    InternalInvariantViolation,
    InvalidCut,
    InvalidInterval,
    KRFactor,
    NonIntegralP,
    NonPositiveLength,
    NotQFactGraph,
    PairRelation,
    RSet,
    TooManyVertices,
    ValidationFailure,
    ValidationReport,
    Verdict,
    poly_to_json,
    roots_of,
    subgraph,
    to_polynomial,
)
from qfactgraph.fgraph import _LEVELS
from qfactgraph.primality import _dual_base
from qfactgraph.redsets import SIMPLE


def _check_lengths(r: int, s: int) -> None:
    for v in (r, s):
        if not isinstance(v, int) or v < 1:
            raise NonPositiveLength(f"string length must be >= 1, got {v!r}")


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


def kr_dual_pair_simple(d: DynkinA, f: KRFactor, g: KRFactor) -> bool:
    """True iff the product of f with the right dual of g is simple.  The
    right dual of (j, c, s) over A_n is (n + 1 - j, c - (n + 1), s)."""
    gdual = KRFactor(d.n + 1 - g.color, g.center - (d.n + 1), g.length, g.coset)
    return kr_pair_relation(d, f, gdual).kind == "Simple"


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
        k: KRFactor(f.color, f.center, f.length, f.coset) for k, f in enumerate(factors)
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


def window_pairs(
    factors: Sequence[KRFactor], group: Callable[[KRFactor], Hashable], slack: int
) -> Iterator[tuple[int, int]]:
    """Every same-group pair that can be reducible, once, as indices (k, l)
    with k the candidate upper factor.  With lo = center - length + 1 and
    hi = center + length - 1, k above l (lengths r, s, colors d apart, gap
    gap) has lo_k - lo_l = gap - r + s and hi_k - hi_l = gap + r - s, both at
    least 2 when gap >= |r - s| + d + 2, and lo_k - hi_l = gap - r - s + 2 <=
    slack + 2, as the set ends by r + s + slack: slack n - 1 on A_n
    (b - a + 2 min(a - 1, n - b) <= n - 1), 0 on one node.  So lo_k lies in
    [lo_l + 2, hi_l + slack + 2], l is never reducible above k, and a yielded
    pair with a negative gap is refused by reducible.  Sorted by (group, lo),
    each l moves a forward-only start pointer past lo_l + 2 and stops past
    hi_l + slack + 2: the cost is the sort plus the pairs in the windows."""
    keyed = sorted((group(f), f.center - f.length + 1, k) for k, f in enumerate(factors))
    size, start = len(keyed), 0
    for key, lo, l in keyed:
        floor = (key, lo + 2)
        while start < size and keyed[start] < floor:
            start += 1
        ceiling = (key, lo + 2 * factors[l].length + slack + 1)  # past hi_l + slack + 2
        upper = start
        while upper < size and keyed[upper] < ceiling:
            yield keyed[upper][2], l
            upper += 1


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


def cuts(g: FactGraph, max_vertices: int = 20) -> Iterator[Cut]:
    """All unordered nontrivial bipartitions of the vertices."""
    ids = g.ids()
    n = len(ids)
    if n > max_vertices:
        raise TooManyVertices(
            f"{n} vertices exceed the cut cap {max_vertices}; raise max_vertices to override"
        )

    def generate() -> Iterator[Cut]:
        if n < 2:
            return
        anchor, rest = ids[0], ids[1:]
        for mask in range(2 ** len(rest) - 1):
            left = {anchor}
            for bit, v in enumerate(rest):
                if mask >> bit & 1:
                    left.add(v)
            right = frozenset(ids) - left
            yield Cut(frozenset(left), right)

    return generate()


def _check_cut(g: FactGraph, cut: Cut) -> None:
    ids = set(g.ids())
    if set(cut.left) | set(cut.right) != ids or set(cut.left) & set(cut.right):
        raise InvalidCut("cut sides do not bipartition the vertex set")
    if not cut.left or not cut.right:
        raise InvalidCut("cut sides must both be nonempty")


def _extremal_in(g: FactGraph, v: int) -> bool:
    return not _out_adj(g)[v] or not _in_adj(g)[v]


def _isolated_in(g: FactGraph, v: int) -> bool:
    return not _out_adj(g)[v] and not _in_adj(g)[v]


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
    return not any((a.tail in cut.left) != (a.head in cut.left) for a in g.arrows)


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
    cut admits no witness.  Edited: the empty graph, whose trivial module
    is not prime, returns None too (it used to get an empty certificate)."""
    if not g.vertices:
        return None
    witnesses = []
    for cut in cuts(g, max_vertices=max_cut_vertices):
        w = _dual_cut_witness(g, cut)
        if w is None:
            return None
        witnesses.append(w)
    return DualCertificate(tuple(witnesses))


def dual_walk(m, bad: list[int]) -> bool:
    """True iff every cut of the masks m has a base pair that passes
    _dual_base against the dual rows bad."""
    return all(_dual_base(m, bad, left) for left in m.lefts())


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


def _longest_run(pool: Counter) -> tuple[int, int]:
    """Longest step-2 run in the support of ``pool``; leftmost on ties.

    Runs live inside one parity class, so each class is scanned separately.
    """
    runs = []
    for parity in (0, 1):
        support = sorted(x for x in pool if x % 2 == parity)
        k = 0
        while k < len(support):
            j = k
            while j + 1 < len(support) and support[j + 1] - support[j] == 2:
                j += 1
            runs.append((support[k], j - k + 1))
            k = j + 1
    return max(runs, key=lambda run: (run[1], -run[0]))


def q_factorize(p: DrinfeldPoly) -> DrinfeldPoly:
    """Canonical factorization of a (pseudo) factorization into KR strings.

    Per (color, coset) class the factors are expanded into their root
    multiset; the longest step-2 run present is peeled off repeatedly
    (leftmost on ties), each peel emitting one KR factor.  The result is
    verified pairwise by _strings_interact; a failure indicates a bug,
    not bad input.
    """
    out: list[KRFactor] = []
    groups: dict[tuple[int, int], Counter] = defaultdict(Counter)
    for f in p.factors:
        groups[(f.color, f.coset)].update(roots_of(f))
    for (color, coset), pool in sorted(groups.items()):
        while pool:
            start, length = _longest_run(pool)
            for x in range(start, start + 2 * length, 2):
                pool[x] -= 1
                if not pool[x]:
                    del pool[x]
            out.append(KRFactor(color, start + length - 1, length, coset))
    for k, a in enumerate(out):
        for b in out[k + 1 :]:
            if (a.color, a.coset) == (b.color, b.coset) and _strings_interact(a, b):
                raise InternalInvariantViolation("run peeling produced interacting strings")
    return DrinfeldPoly(p.rank, tuple(out))


def is_totally_ordered(g: FactGraph) -> bool:
    """True iff every pair of vertices is comparable; disconnected graphs
    are never totally ordered."""
    ids = g.ids()
    if len(ids) <= 1:
        return True
    order = partial_order(g)
    for k, u in enumerate(ids):
        for w in ids[k + 1 :]:
            if (u, w) not in order and (w, u) not in order:
                return False
    return True


def _out_adj(g: FactGraph) -> Mapping[int, tuple[int, ...]]:
    out: dict[int, list[int]] = {v: [] for v in g.vertices}
    for a in g.arrows:
        out[a.tail].append(a.head)
    return {v: tuple(sorted(ws)) for v, ws in out.items()}


def _in_adj(g: FactGraph) -> Mapping[int, tuple[int, ...]]:
    out: dict[int, list[int]] = {v: [] for v in g.vertices}
    for a in g.arrows:
        out[a.head].append(a.tail)
    return {v: tuple(sorted(ws)) for v, ws in out.items()}


def _undirected_adj(g: FactGraph) -> Mapping[int, tuple[int, ...]]:
    out: dict[int, set[int]] = {v: set() for v in g.vertices}
    for a in g.arrows:
        out[a.tail].add(a.head)
        out[a.head].add(a.tail)
    return {v: tuple(sorted(ws)) for v, ws in out.items()}


def _component_index(g: FactGraph) -> dict[int, int]:
    undirected_adj = _undirected_adj(g)
    comp: dict[int, int] = {}
    idx = 0
    for start in g.ids():
        if start in comp:
            continue
        stack = [start]
        comp[start] = idx
        while stack:
            u = stack.pop()
            for w in undirected_adj[u]:
                if w not in comp:
                    comp[w] = idx
                    stack.append(w)
        idx += 1
    return comp


def connected_components(g: FactGraph) -> list[FactGraph]:
    comp = _component_index(g)
    groups: dict[int, list[int]] = {}
    for v, c in comp.items():
        groups.setdefault(c, []).append(v)
    return [subgraph(g, groups[c]) for c in sorted(groups)]


def descendants(g: FactGraph, v: int) -> frozenset[int]:
    """Vertices strictly below v: reachable from v along arrows."""
    g.vertex(v)
    out_adj = _out_adj(g)
    seen: set[int] = set()
    stack = [v]
    while stack:
        u = stack.pop()
        for w in out_adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    seen.discard(v)
    return frozenset(seen)


def ancestors(g: FactGraph, v: int) -> frozenset[int]:
    """Vertices strictly above v: those with a directed path into v."""
    g.vertex(v)
    in_adj = _in_adj(g)
    seen: set[int] = set()
    stack = [v]
    while stack:
        u = stack.pop()
        for w in in_adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    seen.discard(v)
    return frozenset(seen)


def partial_order(g: FactGraph) -> frozenset[tuple[int, int]]:
    """Strict order induced by arrows: pairs (u, w) with u above w."""
    out_adj = _out_adj(g)
    relation: set[tuple[int, int]] = set()
    for v in g.ids():
        below = set()
        stack = [v]
        while stack:
            u = stack.pop()
            for w in out_adj[u]:
                if w == v:
                    raise CyclicGraph(f"vertex {v} lies on an oriented cycle")
                if w not in below:
                    below.add(w)
                    stack.append(w)
        relation.update((v, w) for w in below)
    return frozenset(relation)


def sinks(g: FactGraph) -> frozenset[int]:
    return frozenset(v for v in g.ids() if not _out_adj(g)[v])


def sources(g: FactGraph) -> frozenset[int]:
    return frozenset(v for v in g.ids() if not _in_adj(g)[v])


def is_tournament(g: FactGraph) -> bool:
    ids = g.ids()
    amap = g.arrow_map
    for k, u in enumerate(ids):
        for w in ids[k + 1 :]:
            if (u, w) not in amap and (w, u) not in amap:
                return False
    return True


def is_tree(g: FactGraph) -> bool:
    ids = g.ids()
    if not ids:
        return False
    comp = _component_index(g)
    if max(comp.values()) != 0:
        return False
    return len(g.arrows) == len(ids) - 1


def is_line(g: FactGraph) -> bool:
    """A tree with no vertex of undirected valence >= 3."""
    undirected_adj = _undirected_adj(g)
    return is_tree(g) and all(len(undirected_adj[v]) <= 2 for v in g.ids())


def is_monotonic_line(g: FactGraph) -> bool:
    """A line all of whose arrows point the same way along it."""
    out_adj, in_adj = _out_adj(g), _in_adj(g)
    return is_line(g) and all(
        len(out_adj[v]) <= 1 and len(in_adj[v]) <= 1 for v in g.ids()
    )


def transitive_reduction(g: FactGraph) -> tuple[Arrow, ...]:
    """Minimal arrow subset with the same transitive closure."""
    partial_order(g)  # raises CyclicGraph on bad input
    desc = {v: descendants(g, v) for v in g.ids()}
    out_adj = _out_adj(g)
    keep = []
    for a in g.arrows:
        redundant = any(
            a.head in desc[w] for w in out_adj[a.tail] if w != a.head
        )
        if not redundant:
            keep.append(a)
    return tuple(keep)


def _verdict_to_json(v: Verdict) -> dict:
    out: dict = {"outcome": v.outcome}
    if v.certificate is not None:
        out["certificate"] = v.certificate
    if v.reason is not None:
        out["reason"] = v.reason
    if v.witness is not None:
        out["witness"] = [poly_to_json(p) for p in v.witness]
    if v.report is not None:
        out["report"] = [
            {
                "left": sorted(c.cut.left),
                "right": sorted(c.cut.right),
                "status": c.status,
                "witness": (
                    [c.witness.left_vertex, c.witness.right_vertex]
                    if c.witness is not None
                    else None
                ),
            }
            for c in v.report
        ]
    return out


def _check_chain(
    d: DynkinA, chain: list[tuple[int, int, int]], increasing: bool
) -> tuple[tuple[int, int, int], ...]:
    """The chain's (center, length, color) entries as a tuple, once every
    entry holds three ints and every consecutive gap lies in its pair's
    reducibility set (and, if increasing, is positive)."""
    chain = tuple((m, r, i) for m, r, i in chain)
    for v in (v for entry in chain for v in entry):
        if type(v) is not int:
            raise TypeError(f"chain centers, lengths and colors must be ints, got {v!r}")
    for (m0, r0, i0), (m1, r1, i1) in zip(chain, chain[1:]):
        if increasing and m1 <= m0:
            raise ChainConditionViolated(f"centers must strictly increase, got {m0} then {m1}")
        if abs(m1 - m0) not in rset(d, i0, i1, r0, r1):
            raise ChainConditionViolated(
                f"|{m1} - {m0}| is outside the reducibility set of the "
                f"consecutive pair ({i0}, {r0}), ({i1}, {r1})"
            )
    return chain


def _p_matrix(
    d: DynkinA, entries: tuple[tuple[int, int, int], ...]
) -> dict[tuple[int, int], int]:
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
    pairs: list[ChainPair] = []
    spans: list[frozenset[int]] = []
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
            spans.append(span)
    if n >= 2:
        p_extreme = pmat[(n, 1)]
        for pair, span in zip(pairs, spans):
            if (pair.k, pair.l) == (1, n):
                continue
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
