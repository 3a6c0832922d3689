from __future__ import annotations

import tracemalloc

import pytest

from qfactgraph import (
    ChainConditionViolated,
    DrinfeldPoly,
    DualCertificate,
    DynkinA,
    InvalidCut,
    KRFactor,
    NotQFactGraph,
    PreconditionViolated,
    TooManyVertices,
    Verdict,
    alternating_line_check,
    build_graph,
    canonical,
    chain_arrow_closure,
    chain_p_matrix,
    classify,
    classify_cut,
    cut_arrowless_simple,
    cut_reducible_extremal,
    cuts,
    dual_neighborhood_certificate,
    is_line,
    is_totally_ordered,
    kr_dual_pair_simple,
    parse_poly,
    partial_order,
    q_factorize,
    subgraph,
    tournament_family,
)
import oracles
from qfactgraph import primality
from qfactgraph.fgraph import BitMasks, Cut, FactGraph

from conftest import A2, A3, A5, A8, unknown_verdict


def cut_isolating(g, v):
    return next(c for c in cuts(g) if c.left == {v} or c.right == {v})


def test_classify_tournament_totally_ordered():
    verdict = classify(build_graph(tournament_family(4, 8)))
    assert (verdict.outcome, verdict.certificate) == ("Prime", "TotallyOrdered")


def test_classify_disconnected_cosets():
    g = build_graph(parse_poly("1:0:1 1:0:1@1", A2))
    verdict = classify(g)
    assert verdict.outcome == "NotPrime"
    assert len(verdict.witness) == 2
    assert all(len(part) == 1 for part in verdict.witness)


def test_classify_two_vertex_connected():
    verdict = classify(build_graph(parse_poly("1:3:2 2:0:2", A2)))
    assert (verdict.outcome, verdict.certificate) == ("Prime", "TwoVertexConnected")


def test_classify_single_vertex():
    verdict = classify(build_graph(DrinfeldPoly(A5, (KRFactor(3, 0, 2),))))
    assert (verdict.outcome, verdict.certificate) == ("Prime", "SingleVertex")


def test_classify_monotonic_line_certificate():
    g = build_graph(parse_poly("1:6:1 2:3:1 1:0:1", A2))
    verdict = classify(g)
    assert (verdict.outcome, verdict.certificate) == ("Prime", "TotallyOrderedLine")


def test_classify_two_source_unknown(two_source_graph):
    verdict = classify(two_source_graph)
    assert verdict.outcome == "Unknown"
    statuses = sorted(c.status for c in verdict.report)
    assert statuses == ["ReducibleByExtremal", "Undetermined", "Undetermined"]
    assert len(verdict.report) == 3


def test_classify_cap_exceeded(past_cap_graph):
    # Past the cut cap the verdict is an honest Unknown without a report;
    # the certificate on its own still refuses the graph.  A totally
    # ordered graph past the cap is still Prime.
    verdict = classify(past_cap_graph)
    assert verdict == Verdict("Unknown", reason="cap-exceeded")
    with pytest.raises(TooManyVertices):
        dual_neighborhood_certificate(past_cap_graph)
    ordered = classify(build_graph(tournament_family(21, 59)))
    assert (ordered.outcome, ordered.certificate) == ("Prime", "TotallyOrdered")


def test_classify_dual_neighborhood_certificate():
    # Connected and not totally ordered, yet every cut has a dual witness.
    g = canonical(build_graph(q_factorize(parse_poly("1:0:2 2:4:1 3:6:2", A3))))
    assert not is_totally_ordered(g)
    verdict = classify(g)
    assert (verdict.outcome, verdict.certificate) == ("Prime", "DualNeighborhood")


def test_classify_rejects_pseudo_input():
    with pytest.raises(NotQFactGraph):
        classify(build_graph(parse_poly("1:0:1 1:2:1", A2)))


def test_classify_empty_polynomial():
    verdict = classify(build_graph(DrinfeldPoly(A3)))
    assert verdict.outcome == "NotPrime" and verdict.witness == ()


def test_extremal_cut_witnesses_on_triangles(triangle1_graph, triangle2_graph):
    for g in (triangle1_graph, triangle2_graph):
        order = partial_order(g)
        ranked = sorted(g.ids(), key=lambda v: sum((v, w) in order for w in g.ids()))
        bottom, middle, top = ranked
        assert cut_reducible_extremal(g, cut_isolating(g, top)) is not None
        assert cut_reducible_extremal(g, cut_isolating(g, bottom)) is not None
        assert cut_reducible_extremal(g, cut_isolating(g, middle)) is None


def test_extremal_cut_two_vertex():
    g = build_graph(parse_poly("1:3:2 2:0:2", A2))
    witness = cut_reducible_extremal(g, next(cuts(g)))
    assert witness is not None


def test_extremal_witness_satisfies_conditions(triangle1_graph):
    g = triangle1_graph
    for cut in cuts(g):
        witness = cut_reducible_extremal(g, cut)
        if witness is None:
            continue
        vl, vr = witness.left_vertex, witness.right_vertex
        assert vl in cut.left and vr in cut.right
        assert {witness.arrow.tail, witness.arrow.head} == {vl, vr}
        for v, side in ((vl, cut.left), (vr, cut.right)):
            side_sub = subgraph(g, side)
            ins = [a for a in side_sub.arrows if a.head == v]
            outs = [a for a in side_sub.arrows if a.tail == v]
            assert not ins or not outs  # extremal in its side
            full_ins = [a for a in g.arrows if a.head == v]
            full_outs = [a for a in g.arrows if a.tail == v]
            if not full_ins or not full_outs:  # extremal in the whole graph
                assert not ins and not outs


def test_cut_reducible_extremal_rejects_bad_cut(triangle1_graph):
    bad = Cut(frozenset({0}), frozenset({1}))
    with pytest.raises(InvalidCut):
        cut_reducible_extremal(triangle1_graph, bad)


def test_classify_cut_checks_the_cut_against_the_graph():
    # The rank-3 triangle with arrows 1->0, 2->0, 2->1: sides that miss a
    # vertex, share one, name a vertex the graph lacks or leave one side
    # empty are refused, and a caller's cut is judged by the graph's arrows
    # that cross it.
    g = build_graph(DrinfeldPoly(A3, (KRFactor(1, 0, 3), KRFactor(2, 3, 3), KRFactor(3, 6, 3))))
    assert [(a.tail, a.head) for a in g.arrows] == [(1, 0), (2, 0), (2, 1)]
    split = "cut sides do not bipartition the vertex set"
    bad_cuts = {
        Cut(frozenset({0}), frozenset({1})): split,
        Cut(frozenset({0, 1}), frozenset({1, 2})): split,
        Cut(frozenset({0, 7}), frozenset({1, 2})): split,
        Cut(frozenset({0, 1, 2}), frozenset()): "cut sides must both be nonempty",
    }
    for bad, message in bad_cuts.items():
        for check in (classify_cut, cut_reducible_extremal, cut_arrowless_simple):
            with pytest.raises(InvalidCut, match=message):
                check(g, bad)
    crossed = Cut(frozenset({0}), frozenset({1, 2}))
    assert not cut_arrowless_simple(g, crossed)
    assert classify_cut(g, crossed).status != "ReducibleByArrowless"
    assert classify_cut(g, crossed).cut is crossed


def test_each_cut_function_checks_its_cut_once(monkeypatch):
    # Checking a cut reads the masks, and every public cut function checks
    # its cut once: classify_cut used to check it twice, each time building
    # sets of the graph's ids.
    _, g, _ = unknown_verdict(11)
    g.masks  # built once per graph, before any cut is checked
    checks, ids = [], []
    left_mask, graph_ids = primality._left_mask, FactGraph.ids

    def counted_check(g, cut):
        checks.append(cut)
        return left_mask(g, cut)

    def counted_ids(self):
        ids.append(self)
        return graph_ids(self)

    monkeypatch.setattr(primality, "_left_mask", counted_check)
    monkeypatch.setattr(FactGraph, "ids", counted_ids)
    for cut in list(cuts(g))[::50]:
        for check in (classify_cut, cut_reducible_extremal, cut_arrowless_simple):
            checks.clear()
            check(g, cut)
            assert checks == [cut] and not ids, check.__name__


def test_arrowless_test_never_runs_the_lanes(monkeypatch, two_source_graph):
    # cut_arrowless_simple is a plain mask test, on crossing cuts and on
    # the arrowless cuts of a disconnected graph alike.
    split = build_graph(parse_poly("1:0:1 1:0:1@1 2:5:1@2", A2))
    graphs = (split, two_source_graph, unknown_verdict(11)[1])
    all_cuts = [(g, cut) for g in graphs for cut in cuts(g)]

    def refuse(*args):
        raise AssertionError("the lane routine ran")

    monkeypatch.setattr(primality, "_witness_lanes", refuse)
    results = [cut_arrowless_simple(g, cut) for g, cut in all_cuts]
    assert results == [oracles.cut_arrowless_simple(g, cut) for g, cut in all_cuts]
    assert True in results and False in results


def test_cut_arrowless(two_source_graph):
    split = build_graph(parse_poly("1:0:1 1:0:1@1", A2))
    component_cut = next(c for c in cuts(split) if oracles.cut_arrowless_simple(split, c))
    assert cut_arrowless_simple(split, component_cut)
    assert all(not cut_arrowless_simple(two_source_graph, c) for c in cuts(two_source_graph))
    two = build_graph(parse_poly("1:3:2 2:0:2", A2))
    assert not cut_arrowless_simple(two, next(cuts(two)))


def test_dual_certificate_two_vertex_vacuous():
    g = build_graph(parse_poly("1:3:2 2:0:2", A2))
    cert = dual_neighborhood_certificate(g)
    assert cert is not None and len(cert.cuts) == 1
    assert cert.cuts[0].checked == ()


def test_dual_certificate_empty_graph_none():
    # The empty graph's module is trivial, which classify calls NotPrime,
    # so it has no primality certificate; one vertex keeps its empty one.
    assert dual_neighborhood_certificate(build_graph(DrinfeldPoly(A2, ()))) is None
    single = build_graph(parse_poly("1:0:1", A2))
    assert dual_neighborhood_certificate(single) == DualCertificate(cuts=())


def test_dual_certificate_builds_witnesses_once_every_cut_passes(monkeypatch):
    # The certificate walks the cuts as classify does and builds a Cut only
    # once all of them have passed: this 9-vertex graph passes 8 cuts, then
    # fails one, and builds none.  A DualNeighborhood prime still gets one
    # witness per cut, the oracle's.
    built = []
    cut = BitMasks.cut
    monkeypatch.setattr(BitMasks, "cut", lambda m, left: built.append(left) or cut(m, left))
    poly = "2:0:2 2:9:1 2:10:2 2:16:2 3:4:1 3:4:1 4:9:1 4:13:1 5:0:1"
    g = build_graph(q_factorize(parse_poly(poly, A5)))
    assert len(g.vertices) == 9 and dual_neighborhood_certificate(g) is None
    assert built == []
    prime = build_graph(q_factorize(parse_poly("1:0:2 2:4:1 3:6:2", A3)))
    cert = dual_neighborhood_certificate(prime)
    assert len(cert.cuts) == len(built) == 2 ** (len(prime.vertices) - 1) - 1
    assert cert == oracles.dual_neighborhood_certificate(prime)


# Unknowns of 11-13 vertices from the cut-search pool, as (rank,
# polynomial): a walk over every cut calls _dual_base 14,482 times on them
# before each finds its failing cut.
LATE_FAILURES = (
    (6, "1:-11:2 1:7:2 2:-1:1 2:17:1 3:-3:2 3:2:1 3:3:2 3:8:1 4:-5:1 4:10:2 4:24:2 5:0:1 6:3:1"),
    (5, "1:-17:1 1:-16:2 1:5:1 2:5:2 2:6:1 3:-6:2 3:0:2 3:7:1 4:-28:1 4:0:1 5:-24:2 5:-11:1 5:-1:1"),
    (6, "1:0:2 1:13:1 2:-11:2 2:-4:1 2:-4:1 2:3:2 3:-4:2 4:1:2 4:7:2 5:7:1 6:-5:2 6:-5:2 6:2:1"),
    (5, "1:-9:2 1:7:2 1:7:2 1:8:1 2:-1:1 2:3:1 3:-5:2 3:7:2 4:-9:1 4:3:1 4:3:1 5:0:1 5:0:1"),
    (4, "1:-5:1 1:6:2 2:-7:2 2:18:1 3:-14:2 3:0:2 3:8:2 3:17:1 3:18:2 4:-12:1 4:3:2 4:4:1 4:13:2"),
    (5, "1:-9:1 1:-1:1 2:-21:2 2:-5:2 2:-4:1 3:0:2 4:-29:2 4:-22:1 4:-18:1 4:-18:1 4:4:1 5:-15:1"),
    (5, "1:-16:1 1:-10:1 1:-1:2 2:0:2 2:6:2 3:-4:1 3:3:2 3:4:1 4:-10:2 4:-5:1 4:4:2 5:-6:1 5:-1:2"),
    (5, "1:-15:2 1:-7:2 2:-9:1 2:-2:2 3:-10:1 4:-20:2 4:-7:1 4:-7:1 4:0:2 5:-22:1 5:-14:1 5:3:2"),
)


def test_dual_walk_tests_only_the_cuts_between_classes(dual_bases):
    # The walk tests only cuts that split no class of certified arrows:
    # 115 _dual_base calls on these eight Unknowns, where a walk over
    # every cut makes 14,482 and one that certifies no arrow as many.
    # Verdicts cannot tell them apart.
    for rank, text in LATE_FAILURES:
        g = build_graph(q_factorize(parse_poly(text, DynkinA(rank))))
        assert 11 <= len(g.vertices) <= 13 and classify(g).outcome == "Unknown"
    assert len(dual_bases) <= 300


def test_dual_rows_hold_the_kernel_off_the_diagonal():
    # Bit y of row x is set iff x times the right dual of y is not simple;
    # the kernel is not symmetric, and a vertex against its own dual is never
    # simple, yet the diagonal stays clear.
    poly = "2:0:2 2:9:1 2:10:2 2:16:2 3:4:1 3:4:1 4:9:1 4:13:1 5:0:1"
    g = build_graph(q_factorize(parse_poly(poly, A5)))
    factors = [g.vertices[v] for v in g.masks.ids]
    bad = primality._dual_rows(g)
    asymmetric = 0
    for x, fx in enumerate(factors):
        for y, fy in enumerate(factors):
            assert bad[x] >> y & 1 == (x != y and not kr_dual_pair_simple(A5, fx, fy))
            asymmetric += bad[x] >> y & 1 != bad[y] >> x & 1
    assert asymmetric and not any(kr_dual_pair_simple(A5, f, f) for f in factors)


def test_dual_rows_are_built_after_the_cap_check(monkeypatch, past_cap_graph, two_source_graph):
    # Past the cap neither caller makes a dual test; under it, the rows make
    # one test per ordered pair of distinct vertices.
    calls = []
    kernel = primality.kr_dual_pair_simple
    monkeypatch.setattr(
        primality, "kr_dual_pair_simple", lambda d, f, g: calls.append((f, g)) or kernel(d, f, g)
    )
    assert classify(past_cap_graph).reason == "cap-exceeded"
    with pytest.raises(TooManyVertices):
        dual_neighborhood_certificate(past_cap_graph)
    assert calls == []
    assert dual_neighborhood_certificate(two_source_graph) is None
    n = len(two_source_graph.vertices)
    assert len(calls) == len(set(calls)) == n * (n - 1)


def test_dual_certificate_two_source_none(two_source_graph):
    assert dual_neighborhood_certificate(two_source_graph) is None


def test_dual_certificate_consistent_with_total_order():
    g = build_graph(tournament_family(3, 5))
    cert = dual_neighborhood_certificate(g)
    assert classify(g).outcome == "Prime"
    if cert is not None:
        for cw in cert.cuts:
            assert (cw.right_base, cw.left_base) in g.arrow_map or (
                cw.left_base,
                cw.right_base,
            ) in g.arrow_map


def test_dual_certificate_claims_reverify(snake_graph, triangle1_graph):
    for g in (snake_graph, triangle1_graph, build_graph(tournament_family(3, 5))):
        cert = dual_neighborhood_certificate(g)
        if cert is None:
            continue
        for cw in cert.cuts:
            for x, y in cw.checked:
                fx = g.vertices[x]
                fy = g.vertices[y]
                kx = KRFactor(fx.color, fx.center, fx.weight, fx.coset)
                ky = KRFactor(fy.color, fy.center, fy.weight, fy.coset)
                if cw.condition == 1:
                    assert kr_dual_pair_simple(g.rank, kx, ky)
                else:
                    assert kr_dual_pair_simple(g.rank, ky, kx)


def test_classify_cut_statuses(two_source_graph):
    for cut in cuts(two_source_graph):
        cc = classify_cut(two_source_graph, cut)
        assert cc.status in ("ReducibleByExtremal", "Undetermined")
        if cc.status == "ReducibleByExtremal":
            assert cc.witness is not None


def test_notprime_witness_parts_have_no_crossing():
    g = build_graph(parse_poly("1:0:1 3:0:1 1:9:1@1", A3))
    verdict = classify(g)
    assert verdict.outcome == "NotPrime"
    ids_by_part = []
    for part in verdict.witness:
        part_keys = {(f.color, f.center, f.coset) for f in part}
        ids_by_part.append(
            {
                v
                for v in g.ids()
                if (g.vertices[v].color, g.vertices[v].center, g.vertices[v].coset)
                in part_keys
            }
        )
    for k, left in enumerate(ids_by_part):
        for right in ids_by_part[k + 1 :]:
            crossing = [
                a
                for a in g.arrows
                if (a.tail in left and a.head in right)
                or (a.tail in right and a.head in left)
            ]
            assert not crossing


def test_totally_ordered_verdicts_reverify(snake_graph):
    verdict = classify(snake_graph)
    assert verdict.certificate == "TotallyOrdered"
    assert is_totally_ordered(snake_graph)
    order = partial_order(snake_graph)
    ids = snake_graph.ids()
    assert len(order) == len(ids) * (len(ids) - 1) // 2


def test_chain_p_matrix_examples():
    assert chain_p_matrix(A5, [(0, 1, 2), (3, 1, 3)]) == {(2, 1): 0}
    pmat = chain_p_matrix(A5, [(0, 1, 2), (3, 1, 3), (6, 1, 4)])
    assert pmat[(3, 1)] == -1
    assert chain_p_matrix(A5, [(0, 2, 3)]) == {}


def test_chain_p_matrix_rejects_unlinked_consecutive():
    with pytest.raises(ChainConditionViolated):
        chain_p_matrix(A5, [(0, 1, 2), (1, 1, 3)])


def test_chain_arrow_closure_tournament():
    chain = [(0, 1, 3), (3, 1, 4), (6, 1, 5), (9, 1, 6)]
    report = chain_arrow_closure(A8, chain)
    assert report.ok
    assert len(report.pairs) == 6
    assert all(p.in_full for p in report.pairs)


def test_chain_arrow_closure_matches_skew_graph():
    chain = [(-4, 1, 4), (0, 2, 3), (4, 1, 2), (7, 1, 3)]
    report = chain_arrow_closure(A5, chain)
    assert report.ok
    linked = {(p.k, p.l) for p in report.pairs if p.in_full}
    assert linked == {(1, 2), (2, 3), (3, 4), (2, 4)}


def test_chain_arrow_closure_boundary_chain_only_consecutive():
    chain = [(0, 1, 1), (3, 1, 2), (6, 1, 1)]
    report = chain_arrow_closure(A2, chain)
    assert report.ok
    linked = {(p.k, p.l) for p in report.pairs if p.in_full}
    assert linked == {(1, 2), (2, 3)}


def test_each_chain_function_checks_its_chain_once(monkeypatch):
    # One _check_chain per call, so a 4-entry chain builds 3 rsets for its
    # consecutive pairs and, in the audit, 6 more for all of its pairs.
    calls = []

    def counted(name):
        function = getattr(primality, name)

        def call(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)

        return call

    for name in ("_check_chain", "rset"):
        monkeypatch.setattr(primality, name, counted(name))
    chain = [(0, 1, 3), (3, 1, 4), (6, 1, 5), (9, 1, 6)]
    chain_p_matrix(A8, chain)
    assert calls == ["_check_chain"] + ["rset"] * 3
    calls.clear()
    chain_arrow_closure(A8, chain)
    assert calls == ["_check_chain"] + ["rset"] * 9


def test_chain_arrow_closure_spans_are_read_by_their_ends():
    # The pair spans 10^6 nodes, read by their two ends; carried as a
    # node set, the span peaked at 107 MB.
    d, chain = DynkinA(10**6), [(0, 1, 1), (10**6 + 1, 1, 10**6)]
    chain_arrow_closure(A2, [(0, 1, 1), (3, 1, 2)])  # warm up
    tracemalloc.start()
    try:
        report = chain_arrow_closure(d, chain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and report.pairs[0].in_interval
    assert peak < 1024 * 1024


def test_chain_arrow_closure_requires_increasing():
    with pytest.raises(ChainConditionViolated):
        chain_arrow_closure(A5, [(3, 1, 2), (0, 1, 3)])


def test_alternating_line_check_two_vertex():
    assert alternating_line_check(build_graph(parse_poly("1:3:2 2:0:2", A2)))


def test_alternating_line_check_three_chain():
    g = build_graph(parse_poly("1:0:1 2:3:1 1:6:1", A2))
    assert alternating_line_check(g)


def test_alternating_line_check_false_both_ways():
    # A line whose adjacent vertices share a color, and a totally ordered
    # graph (2 -> 1 -> 0 and 2 -> 0) that is not a line.
    line = build_graph(parse_poly("1:0:1 1:2:1", A2))
    ordered = build_graph(parse_poly("1:0:2 1:2:2 1:4:2", A2))
    assert is_line(line) and not alternating_line_check(line)
    assert is_totally_ordered(ordered) and not is_line(ordered)
    assert not alternating_line_check(ordered)


def test_alternating_line_check_false_off_a_line():
    # Totally ordered (0 -> 1 -> 2 -> 3 and the skip 0 -> 3), and every arrow
    # joins two colors, the odd skip included: only the line test says False.
    g = FactGraph(
        A2,
        {0: KRFactor(1, 9, 1), 1: KRFactor(2, 6, 1), 2: KRFactor(1, 3, 1), 3: KRFactor(2, 0, 1)},
        [(0, 1, 3), (1, 2, 3), (2, 3, 3), (0, 3, 9)],
    )
    assert is_totally_ordered(g) and not is_line(g)
    assert all(g.vertices[a.tail].color != g.vertices[a.head].color for a in g.arrows)
    assert not alternating_line_check(g)


def test_alternating_line_check_preconditions(two_source_graph, triangle1_graph):
    with pytest.raises(PreconditionViolated):
        alternating_line_check(two_source_graph)  # not totally ordered
    with pytest.raises(PreconditionViolated):
        alternating_line_check(triangle1_graph)  # color 2 is not a boundary node


def test_classify_invariance_spot_check(snake_graph):
    from qfactgraph import arrow_dual, color_dual, shift, to_polynomial

    base = classify(snake_graph)
    shifted = classify(build_graph(shift(to_polynomial(snake_graph), 9)))
    dualized = classify(color_dual(arrow_dual(snake_graph)))
    assert (base.outcome, base.certificate) == (shifted.outcome, shifted.certificate)
    assert (base.outcome, base.certificate) == (dualized.outcome, dualized.certificate)
