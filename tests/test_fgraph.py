from __future__ import annotations

import pytest

import oracles
from qfactgraph import fgraph
from qfactgraph import (
    Arrow,
    CyclicGraph,
    DrinfeldPoly,
    DynkinA,
    FactGraph,
    InvalidVertex,
    KRFactor,
    RankMismatch,
    TooManyVertices,
    ancestors,
    arrow_dual,
    build_graph,
    canonical,
    classify,
    color_dual,
    connected_components,
    cuts,
    descendants,
    dual_negate,
    dual_sigma,
    graph_tensor,
    graph_to_dot,
    graph_to_json_obj,
    is_line,
    is_monotonic_line,
    is_totally_ordered,
    is_tournament,
    is_tree,
    parse_poly,
    partial_order,
    sinks,
    sources,
    skew_to_poly,
    subgraph,
    to_polynomial,
    tournament_family,
    transitive_reduction,
    validate,
)

from conftest import A2, A3, A5, arrow_data


def line_graph(*centers, color=1, rank=A5):
    """Hand-built monotonic line v0 -> v1 -> ... with given centers."""
    vertices = {k: KRFactor(color, c, 1) for k, c in enumerate(centers)}
    arrows = tuple(
        Arrow(k, k + 1, centers[k] - centers[k + 1]) for k in range(len(centers) - 1)
    )
    return FactGraph(rank, vertices, arrows)


def test_build_graph_two_source_example(two_source_graph):
    assert len(two_source_graph.vertices) == 3
    assert arrow_data(two_source_graph) == {
        ((1, 3), (2, 0), 3),
        ((1, 4), (2, 0), 4),
    }


def test_build_graph_triangle(triangle1_graph):
    assert arrow_data(triangle1_graph) == {
        ((3, 6), (1, 0), 6),
        ((3, 6), (2, 3), 3),
        ((2, 3), (1, 0), 3),
    }


def test_build_graph_singleton():
    g = build_graph(DrinfeldPoly(A5, (KRFactor(2, 0, 3),)))
    assert len(g.vertices) == 1 and not g.arrows


def test_validate_qfact_on_built_canonical(two_source_graph):
    assert validate(two_source_graph, "qfact").ok


def test_factgraph_rejects_an_arrow_to_a_missing_vertex():
    with pytest.raises(ValueError, match="missing vertex"):
        FactGraph(A2, {0: KRFactor(1, 0, 1)}, [(0, 1, 2)])


def test_validate_rejects_an_unknown_level(two_source_graph):
    with pytest.raises(ValueError, match="level must be one of"):
        validate(two_source_graph, "bogus")


def test_validate_pseudo_catches_deleted_arrow(two_source_graph):
    removed = tuple(a for a in two_source_graph.arrows if a.exp != 4)
    g = FactGraph(two_source_graph.rank, dict(two_source_graph.vertices), removed)
    assert validate(g, "prefact").ok
    report = validate(g, "pseudo")
    assert not report.ok
    assert report.first.kind == "missing-arrow"


def test_validate_trivial_example_pseudo_but_not_qfact():
    g = build_graph(parse_poly("1:0:1 1:2:1", A2))
    assert len(g.arrows) == 1 and g.arrows[0].exp == 2
    assert validate(g, "pseudo").ok
    report = validate(g, "qfact")
    assert not report.ok
    assert report.first.kind == "qfact-violation"


def test_validate_prefact_catches_bad_exponent():
    g = FactGraph(A2, {0: KRFactor(1, 3, 1), 1: KRFactor(2, 0, 1)}, (Arrow(0, 1, 5),))
    report = validate(g, "prefact")
    assert not report.ok and report.first.kind == "bad-exponent"


def test_validate_pseudo_catches_unjustified_arrow():
    # exponent 5 matches the centers but misses rset(1, 2, 1, 1) = {3} on A_2
    g = FactGraph(A2, {0: KRFactor(1, 5, 1), 1: KRFactor(2, 0, 1)}, (Arrow(0, 1, 5),))
    assert validate(g, "prefact").ok
    report = validate(g, "pseudo")
    assert not report.ok and report.first.kind == "unjustified-arrow"


def test_validate_of_a_built_graph_scans_no_window(window_scans):
    for text in ("2:0:2 1:3:2 1:4:1", "1:0:1 1:2:1"):
        g = build_graph(parse_poly(text, A2))
        window_scans.clear()
        for level in ("prefact", "pseudo", "qfact"):
            validate(g, level)
        assert window_scans == []


def test_validate_of_a_hand_built_graph_scans_once(window_scans):
    g = build_graph(parse_poly("1:0:1 1:2:1", A2))
    copy = FactGraph(g.rank, dict(g.vertices), g.arrows)
    window_scans.clear()
    assert validate(copy, "qfact") == validate(g, "qfact")
    assert not validate(copy, "qfact").ok
    assert len(window_scans) == 1


def test_to_polynomial_round_trip(two_source_poly, two_source_graph):
    assert to_polynomial(two_source_graph) == two_source_poly
    assert build_graph(to_polynomial(two_source_graph)) == two_source_graph


def test_connected_components_skew(skew1_shape):
    poly, _ = skew_to_poly(skew1_shape)
    comps = connected_components(build_graph(poly))
    sizes = sorted(len(c.vertices) for c in comps)
    assert sizes == [1, 5]


def test_connected_components_connected(triangle1_graph):
    assert len(connected_components(triangle1_graph)) == 1


def test_connected_components_split_by_coset():
    g = build_graph(parse_poly("1:0:1 1:3:1@1 2:3:1 2:0:1@1", A2))
    assert len(connected_components(g)) == 2


def test_partial_order_line():
    g = line_graph(6, 3, 0)
    assert partial_order(g) == {(0, 1), (1, 2), (0, 2)}


def test_partial_order_two_sources_incomparable(two_source_graph):
    order = partial_order(two_source_graph)
    colored1 = [
        v for v in two_source_graph.ids() if two_source_graph.vertices[v].color == 1
    ]
    a, b = colored1
    assert (a, b) not in order and (b, a) not in order


def test_partial_order_triangle_total(triangle1_graph):
    assert len(partial_order(triangle1_graph)) == 3
    assert is_totally_ordered(triangle1_graph)


def test_partial_order_rejects_cycles():
    g = FactGraph(
        A2,
        {0: KRFactor(1, 0, 1), 1: KRFactor(2, 0, 1)},
        (Arrow(0, 1, 1), Arrow(1, 0, 1)),
    )
    with pytest.raises(CyclicGraph):
        partial_order(g)


def test_is_totally_ordered_rejects_cycles():
    # The 2-cycle above, alone and below a source: the topological sort
    # stalls on it either way.
    cycle = FactGraph(
        A2,
        {0: KRFactor(1, 0, 1), 1: KRFactor(2, 0, 1)},
        (Arrow(0, 1, 1), Arrow(1, 0, 1)),
    )
    below = FactGraph(
        A2, {**cycle.vertices, 2: KRFactor(1, 2, 1)}, (*cycle.arrows, Arrow(2, 0, 2))
    )
    for g in (cycle, below):
        with pytest.raises(CyclicGraph):
            is_totally_ordered(g)


def test_is_totally_ordered_examples(two_source_graph, snake_graph):
    assert is_totally_ordered(build_graph(tournament_family(4, 8)))
    assert is_totally_ordered(snake_graph) and not is_tournament(snake_graph)
    assert not is_totally_ordered(two_source_graph)


def test_sinks_sources(two_source_graph, triangle1_graph):
    # ids follow the sorted factor order, so id 0 is the (1, 0) vertex
    assert sinks(triangle1_graph) == {0} and sources(triangle1_graph) == {2}
    assert len(sinks(two_source_graph)) == 1 and len(sources(two_source_graph)) == 2


def test_tree_line_predicates(snake_graph):
    line = line_graph(6, 3, 0)
    assert is_tree(line) and is_line(line) and is_monotonic_line(line)
    assert not is_tree(snake_graph)
    fork = FactGraph(
        A5,
        {0: KRFactor(1, 5, 1), 1: KRFactor(2, 2, 1), 2: KRFactor(3, 8, 1)},
        (Arrow(0, 1, 3), Arrow(2, 1, 6)),
    )
    assert is_tree(fork) and is_line(fork) and not is_monotonic_line(fork)
    single = build_graph(DrinfeldPoly(A5, (KRFactor(1, 0, 1),)))
    assert is_tree(single) and is_line(single) and is_monotonic_line(single)


def test_neighborhoods_line():
    g = line_graph(6, 3, 0)
    assert descendants(g, 0) == {1, 2}
    assert ancestors(g, 0) == frozenset()
    assert ancestors(g, 2) == {0, 1}


def test_neighborhoods_isolated():
    g = build_graph(DrinfeldPoly(A5, (KRFactor(1, 0, 1),)))
    assert ancestors(g, 0) == frozenset()
    assert descendants(g, 0) == frozenset()
    with pytest.raises(InvalidVertex):
        ancestors(g, 5)


def test_neighborhoods_snake(snake_graph):
    top = next(
        v for v in snake_graph.ids() if snake_graph.vertices[v].center == 7
    )
    assert descendants(snake_graph, top) == frozenset(
        set(snake_graph.ids()) - {top}
    )


def test_cut_counts():
    for n, expected in ((2, 1), (3, 3), (4, 7)):
        g = build_graph(
            DrinfeldPoly(A5, tuple(KRFactor(1, 20 * k, 1) for k in range(n)))
        )
        assert len(list(cuts(g))) == expected


def test_cut_cap():
    # The cap is 20 vertices: 21 are refused, and 20 walk all 2^19 - 1 cuts.
    g = build_graph(DrinfeldPoly(A5, tuple(KRFactor(1, 20 * k, 1) for k in range(21))))
    with pytest.raises(TooManyVertices, match="21 vertices exceed the cut cap 20"):
        list(cuts(g))
    g = build_graph(DrinfeldPoly(A5, tuple(KRFactor(1, 20 * k, 1) for k in range(20))))
    assert len(g.masks.lefts()) == 2**19 - 1


def test_forced_arrows_take_the_slack_from_the_colors_present(pairs_tested):
    # 2,000 color-1 factors 10 apart on A_10^6: a color-1 set ends at
    # r + s, so no pair can be reducible.  A window of slack n - 1 covers
    # every later factor, 1,999,000 pairs; each factor's w window,
    # [w_l + 2, hi_l + 1], holds no w_k = 10k - 1, so the scan tests none.
    items = [(k, KRFactor(1, 10 * k, 1)) for k in range(2000)]
    assert fgraph._forced_arrows(DynkinA(10**6), items) == []
    assert pairs_tested == []


def test_arrow_dual_involution(snake_graph):
    assert arrow_dual(arrow_dual(snake_graph)) == snake_graph
    assert validate(arrow_dual(snake_graph), "qfact").ok


def test_arrow_dual_matches_negated_polynomial(snake_graph):
    assert to_polynomial(arrow_dual(snake_graph)) == dual_negate(
        to_polynomial(snake_graph)
    )


def test_color_dual_tour_triangle(triangle1_graph):
    g = color_dual(triangle1_graph)
    colors = sorted(v.color for v in g.vertices.values())
    assert colors == [1, 2, 3]
    assert g.arrows == triangle1_graph.arrows
    assert validate(g, "qfact").ok
    rebuilt = build_graph(dual_sigma(to_polynomial(triangle1_graph)))
    assert canonical(g) == canonical(rebuilt)


def test_transitive_reduction_chain_with_shortcut():
    g = line_graph(6, 3, 0)
    shortcut = FactGraph(
        g.rank, dict(g.vertices), g.arrows + (Arrow(0, 2, 6),)
    )
    assert set(transitive_reduction(shortcut)) == set(g.arrows)


def test_transitive_reduction_two_source_unchanged(two_source_graph):
    assert set(transitive_reduction(two_source_graph)) == set(two_source_graph.arrows)


def test_transitive_reduction_snake(snake_graph):
    reduced = transitive_reduction(snake_graph)
    data = {
        (
            (snake_graph.vertices[a.tail].color, snake_graph.vertices[a.tail].center),
            (snake_graph.vertices[a.head].color, snake_graph.vertices[a.head].center),
            a.exp,
        )
        for a in reduced
    }
    assert data == {
        ((3, 7), (2, 4), 3),
        ((2, 4), (3, 1), 3),
        ((3, 1), (4, -2), 3),
    }


def test_graph_tensor_cross_coset_disjoint_union():
    g = build_graph(parse_poly("1:0:1 2:3:1", A2))
    h = build_graph(parse_poly("1:0:1@1 2:3:1@1", A2))
    res = graph_tensor(g, h)
    assert res.dissociate
    assert len(res.graph.arrows) == len(g.arrows) + len(h.arrows)
    assert len(connected_components(res.graph)) == 2


def test_graph_tensor_singleton_pair():
    g = build_graph(DrinfeldPoly(A2, (KRFactor(1, 3, 2),)))
    h = build_graph(DrinfeldPoly(A2, (KRFactor(2, 0, 2),)))
    res = graph_tensor(g, h)
    assert res.dissociate
    assert [a.exp for a in res.graph.arrows] == [3]
    assert res.origin == ("left", "right")


def test_graph_tensor_merging_strings_not_dissociate():
    g = build_graph(DrinfeldPoly(A2, (KRFactor(1, 0, 1),)))
    h = build_graph(DrinfeldPoly(A2, (KRFactor(1, 2, 1),)))
    assert not graph_tensor(g, h).dissociate


def test_graph_tensor_identical_singletons_are_dissociate():
    # two copies of one string coexist in the canonical factorization, so
    # the combined multiset is the disjoint union and the flag is positive
    g = build_graph(DrinfeldPoly(A2, (KRFactor(1, 0, 1),)))
    assert graph_tensor(g, g).dissociate


def test_graph_tensor_rank_mismatch():
    g = build_graph(DrinfeldPoly(A2, (KRFactor(1, 0, 1),)))
    h = build_graph(DrinfeldPoly(A3, (KRFactor(1, 0, 1),)))
    with pytest.raises(RankMismatch):
        graph_tensor(g, h)


def test_isomorphic_up_to_shift_and_relabel(two_source_graph, two_source_poly):
    from qfactgraph import isomorphic, shift

    shifted = build_graph(shift(two_source_poly, 13))
    assert isomorphic(two_source_graph, shifted)
    other = build_graph(parse_poly("2:0:2 1:3:2 1:5:1", A2))
    assert not isomorphic(two_source_graph, other)
    # components may be shifted independently
    split = build_graph(parse_poly("1:0:1 1:0:1@1", A2))
    resplit = build_graph(parse_poly("1:4:1 1:-9:1@1", A2))
    assert isomorphic(split, resplit)


def test_canonical_orders_vertices(two_source_graph):
    g = canonical(two_source_graph)
    data = [g.vertices[v] for v in g.ids()]
    assert data == sorted(data)
    assert canonical(g) == g


def test_subgraph_keeps_ids(triangle1_graph):
    sub = subgraph(triangle1_graph, [0, 2])
    assert set(sub.vertices) == {0, 2}
    assert all({a.tail, a.head} <= {0, 2} for a in sub.arrows)


def test_graph_json_shape(two_source_graph):
    obj = graph_to_json_obj(canonical(two_source_graph))
    assert set(obj) == {"rank", "vertices", "arrows"}
    assert [v["id"] for v in obj["vertices"]] == [0, 1, 2]


def test_graph_dot_output(two_source_graph):
    dot = graph_to_dot(canonical(two_source_graph))
    assert 'v0 [label="2\\n1"];' in dot
    assert 'v2 [label="2\\n2"];' in dot
    assert '[label="4"]' in dot


def test_build_graph_acyclic_topological_by_center(snake_graph):
    for a in snake_graph.arrows:
        assert (
            snake_graph.vertices[a.tail].center > snake_graph.vertices[a.head].center
        )


def test_totally_ordered_extremal_removal(triangle1_graph, snake_graph):
    # removing an extremal vertex keeps the rest totally ordered
    for g in (triangle1_graph, snake_graph):
        for v in sorted(sinks(g) | sources(g)):
            rest = subgraph(g, set(g.ids()) - {v})
            assert is_totally_ordered(rest)


def test_tournament_and_total_order():
    g = build_graph(tournament_family(4, 8))
    assert is_tournament(g)
    n = len(g.vertices)
    assert len(g.arrows) == n * (n - 1) // 2
    assert is_totally_ordered(g)
    assert len(sinks(g)) == 1 and len(sources(g)) == 1


def test_brute_force_closure_matches_transitive_reduction(snake_graph):
    reduced = FactGraph(snake_graph.rank, snake_graph.vertices, transitive_reduction(snake_graph))
    assert oracles.partial_order(reduced) == oracles.partial_order(snake_graph)


CUT_ONLY = ("arrow_bits",)


def test_cut_only_mask_fields_are_built_on_first_use(two_source_graph):
    # A disconnected graph and a totally ordered one never reach the cut
    # stage, so their verdicts build none of the cut-only fields.
    for text in ("1:0:1 1:0:1@1", "1:6:1 2:3:1 1:0:1"):
        g = build_graph(parse_poly(text, A2))
        classify(g)
        assert not set(CUT_ONLY) & set(vars(g.masks))
    classify(two_source_graph)
    assert {"arrow_bits"} <= set(vars(two_source_graph.masks))
    list(cuts(two_source_graph))
    assert set(CUT_ONLY) <= set(vars(two_source_graph.masks))
