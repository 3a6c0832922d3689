from __future__ import annotations

from collections import Counter

import hypothesis.strategies as st
from hypothesis import HealthCheck, assume, given, settings

import oracles
from qfactgraph import (
    DrinfeldPoly,
    DynkinA,
    FactGraph,
    KRFactor,
    SkewShape,
    Snake,
    alternating_line_check,
    arrow_dual,
    build_graph,
    canonical,
    chain_p_matrix,
    classify,
    connected_components,
    dual_kappa,
    dual_negate,
    dual_sigma,
    dual_star,
    is_monotonic_line,
    is_q_factorization,
    is_totally_ordered,
    is_tournament,
    partial_order,
    q_factorize,
    roots_of,
    rset,
    rset_restricted,
    shift,
    sinks,
    skew_to_poly,
    snake_to_poly,
    sources,
    to_polynomial,
    transitive_reduction,
    validate,
    weight,
)

from conftest import increasing_chains

COMMON = dict(
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


@st.composite
def diagrams(draw, lo=1, hi=6):
    return DynkinA(draw(st.integers(lo, hi)))


@st.composite
def polys(draw, max_factors=6, max_length=4):
    d = draw(diagrams())
    count = draw(st.integers(1, max_factors))
    factors = tuple(
        KRFactor(
            draw(st.integers(1, d.n)),
            draw(st.integers(-20, 20)),
            draw(st.integers(1, max_length)),
            draw(st.integers(0, 1)),
        )
        for _ in range(count)
    )
    return DrinfeldPoly(d, factors)


@st.composite
def rset_params(draw):
    d = draw(diagrams(1, 8))
    return (
        d,
        draw(st.integers(1, d.n)),
        draw(st.integers(1, d.n)),
        draw(st.integers(1, 4)),
        draw(st.integers(1, 4)),
    )


@st.composite
def boundary_chains(draw, max_len=5, max_weight=3):
    """Chains alternating between the two boundary colors, consecutive
    gaps drawn from the reducibility sets."""
    d = DynkinA(draw(st.integers(2, 8)))
    length = draw(st.integers(1, max_len))
    color = draw(st.sampled_from((1, d.n)))
    m = draw(st.integers(0, 6))
    r = draw(st.integers(1, max_weight))
    chain = [(m, r, color)]
    for _ in range(length - 1):
        color_next = 1 if color != 1 else d.n
        r_next = draw(st.integers(1, max_weight))
        m += draw(st.sampled_from(rset(d, color, color_next, r, r_next).members))
        chain.append((m, r_next, color_next))
        color, r = color_next, r_next
    return d, chain


@st.composite
def prime_snakes(draw, max_len=5, max_rank=6):
    d = DynkinA(draw(st.integers(1, max_rank)))
    length = draw(st.integers(1, max_len))
    i = draw(st.integers(1, d.n))
    m = draw(st.integers(-5, 5))
    points = [(i, m)]
    for _ in range(length - 1):
        i_next = draw(st.integers(1, d.n))
        m += draw(st.sampled_from(rset(d, i, i_next, 1, 1).members))
        points.append((i_next, m))
        i = i_next
    return Snake(d, tuple(points))


@st.composite
def skew_shapes(draw, max_rank=5, max_mu=3, max_part=20):
    n = draw(st.integers(1, max_rank))
    m = draw(st.integers(0, max_mu))
    lam = tuple(
        sorted(
            (draw(st.integers(0, max_part)) for _ in range(m + n + 1)), reverse=True
        )
    )
    mu = []
    upper = None
    for k in range(1, m + 1):
        hi = lam[k - 1] if upper is None else min(upper, lam[k - 1])
        lo = lam[k + n]
        mu.append(draw(st.integers(lo, hi)))
        upper = mu[-1]
    return SkewShape(DynkinA(n), lam, tuple(mu))


def assert_line_certificate(g) -> None:
    """On a totally ordered graph, n - 1 arrows is the monotonic line, and
    classify's certificate of a q-factorization graph says which it is."""
    n, line = len(g.vertices), is_monotonic_line(g)
    assert (len(g.arrows) == n - 1) == line
    if n > 2 and validate(g, "qfact").ok:
        assert classify(g).certificate == ("TotallyOrderedLine" if line else "TotallyOrdered")


def _root_profile(p: DrinfeldPoly) -> dict:
    out: dict[tuple[int, int], Counter] = {}
    for f in p.factors:
        out.setdefault((f.color, f.coset), Counter()).update(roots_of(f))
    return out


@settings(max_examples=500, **COMMON)
@given(rset_params(), st.data())
def test_rset_invariants(params, data):
    d, i, j, r, s = params
    rs = rset(d, i, j, r, s)
    assert rs.members == rset(d, j, i, s, r).members
    assert rs.members == rset(d, d.star(i), d.star(j), r, s).members
    dist = d.distance(i, j)
    for m in rs:
        assert m % 2 == (r + s + dist) % 2
    assert max(rs) == r + s + dist + 2 * d.boundary_distance(d.interval(i, j))
    assert min(rs) == r + s + dist - 2 * (min(r, s) - 1)
    span = sorted(d.interval(i, j))
    lo = data.draw(st.integers(1, span[0]))
    hi = data.draw(st.integers(span[-1], d.n))
    inner = rset_restricted(d, i, j, r, s, span)
    outer = rset_restricted(d, i, j, r, s, range(lo, hi + 1))
    assert set(inner) <= set(outer) <= set(rs)
    for t in (rs, inner, outer):
        assert len(t) == len(t.members)
    assert rset_restricted(d, i, j, r, s, range(1, d.n + 1)).members == rs.members


@settings(max_examples=500, **COMMON)
@given(polys(), st.integers(-10, 10))
def test_q_factorize_properties(poly, offset):
    out = q_factorize(poly)
    assert is_q_factorization(out)
    assert _root_profile(out) == _root_profile(poly)
    assert weight(out) == weight(poly)
    assert q_factorize(out) == out
    assert q_factorize(shift(poly, offset)) == shift(out, offset)


@settings(max_examples=500, **COMMON)
@given(polys())
def test_built_graphs_validate(poly):
    # A built graph numbers its vertices in the sorted factor order, so
    # the CLI never renumbers it: canonical is the identity both on the
    # graph of the factors as given (what `graph` and `check` print) and
    # on the graph of the q-factorization.
    assert canonical(build_graph(poly)) == build_graph(poly)
    g = build_graph(q_factorize(poly))
    assert canonical(g) == g
    for a in g.arrows:
        assert g.vertices[a.tail].center > g.vertices[a.head].center
    partial_order(g)  # must not raise
    assert validate(g, "qfact").ok
    if is_tournament(g):
        assert is_totally_ordered(g)
    if is_totally_ordered(g):
        assert len(sinks(g)) == 1 and len(sources(g)) == 1
        assert_line_certificate(g)


@settings(max_examples=500, **COMMON)
@given(polys())
def test_duality_involutions(poly):
    assert dual_negate(dual_negate(poly)) == poly
    assert dual_sigma(dual_sigma(poly)) == poly
    assert dual_kappa(dual_kappa(poly)) == poly
    assert dual_star(dual_star(poly)) == shift(poly, -2 * poly.rank.dual_coxeter())
    g = build_graph(q_factorize(poly))
    rev = arrow_dual(g)
    assert arrow_dual(rev) == g
    assert to_polynomial(rev) == dual_negate(to_polynomial(g))
    assert validate(rev, "qfact").ok


@settings(max_examples=500, **COMMON)
@given(polys(max_factors=4, max_length=2))
def test_transitive_reduction_preserves_closure(poly):
    g = build_graph(q_factorize(poly))
    assert len(g.vertices) <= 8
    reduced = transitive_reduction(g)
    assert set(reduced) <= set(g.arrows)
    assert oracles.partial_order(FactGraph(g.rank, g.vertices, reduced)) == oracles.partial_order(g)


@settings(max_examples=500, **COMMON)
@given(increasing_chains())
def test_chain_p_matrix_monotone(data):
    d, chain = data
    length = len(chain)
    pmat = chain_p_matrix(d, chain)
    assert all(isinstance(v, int) for v in pmat.values())
    if length < 2:
        return
    extreme = pmat[(length, 1)]
    _, r1, _ = chain[0]
    _, r_last, _ = chain[-1]
    assert extreme < min(r1, r_last)
    for (l, k), value in pmat.items():
        if (k, l) == (1, length):
            continue
        rk, rl = chain[k - 1][1], chain[l - 1][1]
        assert extreme < value < min(rk, rl)


@settings(max_examples=700, **COMMON)
@given(boundary_chains())
def test_boundary_colored_totally_ordered_graphs_alternate(data):
    d, chain = data
    poly = DrinfeldPoly(d, tuple(KRFactor(i, m, r) for (m, r, i) in chain))
    assume(is_q_factorization(poly))
    g = build_graph(poly)
    assert is_totally_ordered(g)
    assert alternating_line_check(g)
    assert_line_certificate(g)


@settings(max_examples=300, **COMMON)
@given(prime_snakes())
def test_prime_snake_graphs_totally_ordered(snake):
    pseudo = build_graph(snake_to_poly(snake))
    assert is_totally_ordered(pseudo)
    actual = build_graph(q_factorize(snake_to_poly(snake)))
    assert is_totally_ordered(actual)
    for g in (pseudo, actual):
        assert_line_certificate(g)


@settings(max_examples=300, **COMMON)
@given(skew_shapes())
def test_skew_components_totally_ordered(shape):
    poly, _ = skew_to_poly(shape)
    g = build_graph(q_factorize(poly))
    for comp in connected_components(g):
        assert is_totally_ordered(comp)
        assert_line_certificate(comp)
