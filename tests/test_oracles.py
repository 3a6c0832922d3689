"""Differential tests: the reducibility kernel, the shared construction
loop, validate, the bitmask cut engine, the bit-sliced report rows, the
endpoint-sweep q-factorization, the pair scan forced_pairs, the
topological order check, the mask-based order structure and the chain
audit against the reference implementations in oracles.py."""

from __future__ import annotations

import json
import random
import sys
from array import array
from collections import Counter
from dataclasses import replace
from io import StringIO
from operator import attrgetter
from typing import Sequence

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

import oracles
from qfactgraph import (
    Arrow,
    CutClass,
    CyclicGraph,
    DrinfeldPoly,
    DynkinA,
    FactGraph,
    KRFactor,
    ValidationFailure,
    ancestors,
    build_graph,
    chain_arrow_closure,
    classify,
    classify_cut,
    connected_components,
    cut_reducible_extremal,
    cuts,
    descendants,
    dual_neighborhood_certificate,
    is_line,
    is_monotonic_line,
    is_q_factorization,
    is_totally_ordered,
    is_tournament,
    is_tree,
    kr_dual_pair_simple,
    kr_pair_relation,
    parse_poly,
    partial_order,
    q_factorize,
    rset,
    rset_restricted,
    sinks,
    sources,
    subgraph,
    to_polynomial,
    transitive_reduction,
    validate,
)
from qfactgraph import primality
from qfactgraph.cli import _dumps, _write_verdict
from qfactgraph.dynkin import reducibility_bounds, reducible
from qfactgraph.fgraph import _forced_arrows
from qfactgraph.lweight import forced_pairs

from conftest import boundary_pair, diagonal, increasing_chains, nested, unknown_verdict

COMMON = dict(
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)

LEVELS = ("prefact", "pseudo", "qfact")


@st.composite
def kernel_cases(draw):
    d = DynkinA(draw(st.integers(1, 12)))
    i, j = draw(st.integers(1, d.n)), draw(st.integers(1, d.n))
    r, s = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    lo = draw(st.integers(1, min(i, j)))
    hi = draw(st.integers(max(i, j), d.n))
    gap = draw(st.integers(-40, 40))
    coset = draw(st.integers(0, 1))
    out = draw(st.integers(1, 40))
    return d, i, j, r, s, lo, hi, gap, coset, out


@settings(max_examples=600, **COMMON)
@given(kernel_cases())
def test_kernel_matches_oracle(case):
    d, i, j, r, s, lo, hi, gap, coset, out = case
    ambient = range(lo, hi + 1)
    old_full = oracles.rset(d, i, j, r, s)
    old_restricted = oracles.rset_restricted(d, i, j, r, s, ambient)
    assert reducibility_bounds(i, j, r, s, 1, d.n) == (old_full.lo, old_full.hi)
    assert reducibility_bounds(i, j, r, s, lo, hi) == (old_restricted.lo, old_restricted.hi)
    assert reducible(abs(gap), i, j, r, s, lo, hi) == (abs(gap) in old_restricted)
    assert rset(d, i, j, r, s) == old_full
    assert rset_restricted(d, i, j, r, s, ambient) == old_restricted
    assert rset_restricted(d, i, i, r, s, [i]) == oracles.rset_same_node(d, i, r, s)
    # Unit-step ranges that leave the diagram by out nodes on either side.
    for outside in (range(1 - out, hi + 1), range(lo, d.n + 1 + out)):
        with pytest.raises(Exception) as old:
            oracles.rset_restricted(d, i, j, r, s, outside)
        with pytest.raises(Exception) as new:
            rset_restricted(d, i, j, r, s, outside)
        assert new.type is old.type
    # Signed gaps exercise both arrow directions; cosets the simple branch.
    f, g = KRFactor(i, 7 + gap, r), KRFactor(j, 7, s, coset)
    assert kr_pair_relation(d, f, g) == oracles.kr_pair_relation(d, f, g)
    assert kr_pair_relation(d, g, f) == oracles.kr_pair_relation(d, g, f)
    assert kr_dual_pair_simple(d, f, g) == oracles.kr_dual_pair_simple(d, f, g)
    assert kr_dual_pair_simple(d, g, f) == oracles.kr_dual_pair_simple(d, g, f)
    same = KRFactor(i, 7, s, coset)
    poly = DrinfeldPoly(d, (f, same))
    expected = f.coset != same.coset or not oracles._strings_interact(f, same)
    assert is_q_factorization(poly) == expected
    assert build_graph(poly) == oracles._graph_from_factors(d, poly.factors)


@settings(max_examples=500, **COMMON)
@given(increasing_chains())
def test_chain_audit_matches_oracle(data):
    # Valid chains satisfy both closure implications, so the reports carry
    # no violation and the group checks every pair's fields.
    d, chain = data
    assert chain_arrow_closure(d, chain) == oracles.chain_arrow_closure(d, chain)


@st.composite
def polys(draw, max_rank=6, max_factors=7, max_length=4):
    d = DynkinA(draw(st.integers(1, max_rank)))
    factors = tuple(
        KRFactor(
            draw(st.integers(1, d.n)),
            draw(st.integers(-12, 12)),
            draw(st.integers(1, max_length)),
            draw(st.integers(0, 1)),
        )
        for _ in range(draw(st.integers(0, max_factors)))
    )
    return DrinfeldPoly(d, factors)


def mutate(g: FactGraph, rng: random.Random, ops: int) -> FactGraph:
    """Apply ops random edits: delete an arrow, insert an arrow (with the
    center gap as exponent, or any exponent), change an exponent, or
    recolor a vertex, possibly outside the diagram."""
    vertices = dict(g.vertices)
    arrows = list(g.arrows)
    ids = sorted(vertices)
    for _ in range(ops):
        op = rng.randrange(5)
        if op == 0 and arrows:
            arrows.pop(rng.randrange(len(arrows)))
        elif op in (1, 2) and ids:
            t, h = rng.choice(ids), rng.choice(ids)
            gap = vertices[t].center - vertices[h].center
            exp = gap if op == 1 else rng.randrange(-3, 12)
            arrows.append(Arrow(t, h, exp))
        elif op == 3 and arrows:
            k = rng.randrange(len(arrows))
            arrows[k] = arrows[k]._replace(exp=arrows[k].exp + rng.choice((-2, -1, 1, 2)))
        elif op == 4 and ids and rng.randrange(4) == 0:
            v = rng.choice(ids)
            vertices[v] = replace(vertices[v], color=rng.randrange(1, g.rank.n + 2))
    return FactGraph(g.rank, vertices, tuple(arrows))


def bounded(failure: ValidationFailure) -> ValidationFailure:
    """The oracle's failure, with a qfact-violation's listed set named by
    its least and greatest member as validate names it; the list must be
    the step-2 progression between them."""
    if failure.kind != "qfact-violation":
        return failure
    head, rest = failure.message.split(" [", 1)
    listed, tail = rest.split("] ", 1)
    members = json.loads(f"[{listed}]")
    assert members == list(range(members[0], members[-1] + 1, 2))
    return replace(failure, message=f"{head} from {members[0]} to {members[-1]} in steps of 2 {tail}")


def assert_validate_matches_oracle(g: FactGraph) -> None:
    """validate equals the oracle at every level, kinds, vertices, order
    and every message byte, bar the bounded qfact-violation set."""
    for level in LEVELS:
        expected = oracles.validate(g, level)
        assert validate(g, level) == replace(expected, failures=tuple(map(bounded, expected.failures)))


@settings(max_examples=600, **COMMON)
@given(polys(), st.booleans(), st.integers(0, 2**32 - 1), st.integers(0, 4))
def test_validate_matches_oracle(poly, canonical_input, seed, ops):
    if canonical_input:
        poly = q_factorize(poly)
    built = build_graph(poly)
    assert built == oracles._graph_from_factors(poly.rank, poly.factors)
    g = mutate(built, random.Random(seed), ops)
    assert_validate_matches_oracle(g)


@pytest.mark.parametrize("n", range(3, 7))
def test_one_color_test_at_the_end_of_the_single_node_set(n):
    # On every interior color one same-color pair sits at gap r + s - 2 or
    # r + s, in the single-node set, or at r + s + 2, one member past it
    # but still in the full set: all three are arrows, and only the first
    # two are qfact-violations, built or hand-built.
    d = DynkinA(n)
    for c in range(2, n):
        for r, s in ((2, 2), (3, 2), (2, 4)):
            for gap in (r + s - 2, r + s, r + s + 2):
                upper, lower = KRFactor(c, gap, r), KRFactor(c, 0, s)
                interacts = gap <= r + s
                assert oracles._strings_interact(upper, lower) == interacts
                poly = DrinfeldPoly(d, (upper, lower))
                assert is_q_factorization(poly) == (not interacts)
                built = build_graph(poly)
                assert built == oracles._graph_from_factors(d, poly.factors)
                hand = FactGraph(d, {7: lower, -3: upper}, (Arrow(-3, 7, gap),))
                for g in (built, hand):
                    assert validate(g, "qfact").ok == (not interacts)
                    assert_validate_matches_oracle(g)


def test_mutations_reach_every_failure_kind():
    # Guards the differential test above against vacuity: its edits
    # provoke every failure kind the validator can report.
    rng = random.Random(2)
    kinds = set()
    for _ in range(400):
        d = DynkinA(rng.randrange(1, 6))
        factors = tuple(
            KRFactor(
                rng.randrange(1, d.n + 1), rng.randrange(-8, 9), rng.randrange(1, 4), rng.randrange(2)
            )
            for _ in range(rng.randrange(1, 7))
        )
        g = mutate(build_graph(DrinfeldPoly(d, factors)), rng, rng.randrange(0, 4))
        for level in LEVELS:
            kinds.update(f.kind for f in validate(g, level).failures)
    assert kinds == {
        "bad-color",
        "self-loop",
        "duplicate-pair-arrow",
        "cross-coset-arrow",
        "bad-exponent",
        "missing-arrow",
        "unjustified-arrow",
        "qfact-violation",
    }


def grow(d: DynkinA, size: int, rng: random.Random) -> tuple[KRFactor, ...]:
    """A connected q-factorization of up to size factors of length <= 3:
    each new factor is attached to an existing one at a gap from their
    reducibility set, and dropped if it interacts with a factor of its
    color and coset.  Gaps and interactions come from the references, so
    the inputs do not move with the code under test."""
    factors = [KRFactor(rng.randint(1, d.n), 0, rng.randint(1, 3))]
    for _ in range(4 * size):
        if len(factors) == size:
            break
        anchor = rng.choice(factors)
        color, length = rng.randint(1, d.n), rng.randint(1, 3)
        gap = rng.choice(oracles.rset(d, anchor.color, color, anchor.length, length).members)
        new = KRFactor(color, anchor.center + rng.choice((-gap, gap)), length)
        if not any(
            (f.color, f.coset) == (new.color, new.coset) and oracles._strings_interact(f, new)
            for f in factors
        ):
            factors.append(new)
    return tuple(factors)


def grown_graph(d: DynkinA, size: int, mode: str, rng: random.Random) -> FactGraph:
    """The graph of a grown q-factorization, kept on ids 0..n-1 (plain),
    relabeled to distinct ids in -30..60 in no particular order (relabel),
    or with one vertex dropped by subgraph, which may disconnect it."""
    g = build_graph(DrinfeldPoly(d, grow(d, size, rng)))
    if mode == "relabel":
        new = rng.sample(range(-30, 61), len(g.vertices))
        return FactGraph(
            d,
            {new[v]: f for v, f in g.vertices.items()},
            tuple(Arrow(new[a.tail], new[a.head], a.exp) for a in g.arrows),
        )
    if mode == "subgraph":
        drop = rng.choice(g.ids())
        return subgraph(g, [v for v in g.ids() if v != drop])
    return g


def assert_order_matches_oracle(g: FactGraph) -> None:
    """The mask-based order structure of g equals the dict-adjacency DFS
    versions in oracles.py, at every vertex where a function takes one."""
    assert g.out_adj == oracles._out_adj(g) and g.in_adj == oracles._in_adj(g)
    for v in g.ids():
        assert descendants(g, v) == oracles.descendants(g, v)
        assert ancestors(g, v) == oracles.ancestors(g, v)
    assert connected_components(g) == oracles.connected_components(g)
    assert partial_order(g) == oracles.partial_order(g)
    assert transitive_reduction(g) == oracles.transitive_reduction(g)
    for new, old in (
        (sinks, oracles.sinks),
        (sources, oracles.sources),
        (is_tournament, oracles.is_tournament),
        (is_tree, oracles.is_tree),
        (is_line, oracles.is_line),
        (is_monotonic_line, oracles.is_monotonic_line),
        (is_totally_ordered, oracles.is_totally_ordered),
    ):
        assert new(g) == old(g), new.__name__


def oracle_rows(g: FactGraph) -> array:
    """The report rows of every cut of g, each naming the witness of the
    subgraph-era extremal test on that cut."""
    return array("h", (row_of(g, oracles.cut_reducible_extremal(g, cut)) for cut in oracles.cuts(g)))


def row_of(g: FactGraph, witness) -> int:
    """The report row that names an extremal witness, or -1 for None."""
    if witness is None:
        return -1
    index = g.masks.index
    return index[witness.left_vertex] * len(g.vertices) + index[witness.right_vertex]


@settings(max_examples=500, **COMMON)
@given(
    st.integers(2, 7),
    st.integers(3, 10),
    st.sampled_from(("plain", "relabel", "subgraph")),
    st.integers(0, 2**32 - 1),
)
def test_cut_engine_matches_oracle(rank, size, mode, seed):
    # Blocks of 2^2 lanes, so that the rows of every graph of 4 or more
    # vertices span several blocks.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(primality, "_BLOCK", 2)
        check_cut_engine(grown_graph(DynkinA(rank), size, mode, random.Random(seed)))


def check_cut_engine(g: FactGraph) -> None:
    assert_order_matches_oracle(g)
    expected = oracles.classify(g)
    verdict = classify(g)
    assert verdict == expected
    if verdict.outcome == "NotPrime":
        assert verdict.witness == tuple(map(to_polynomial, connected_components(g)))
    # The streamed encoder prints what the dict encoder printed, on any ids.
    out = StringIO()
    _write_verdict(verdict, out)
    assert out.getvalue() == _dumps(oracles._verdict_to_json(expected))
    old_cuts = list(oracles.cuts(g))
    assert list(cuts(g)) == old_cuts
    # An Unknown verdict's report is the oracle's classify_cut of every cut.
    if expected.report is not None:
        old_classes = expected.report
    else:
        old_classes = [oracles.classify_cut(g, cut) for cut in old_cuts]
    # The sliced rows, and the witness of every single cut, are also the
    # subgraph-era extremal test's, which the oracle's classify_cut runs on
    # every crossing cut: oracle_rows(g), without running it twice.
    assert primality._report_rows(g) == array("h", (row_of(g, old.witness) for old in old_classes))
    for cut, old in zip(old_cuts, old_classes, strict=True):
        assert classify_cut(g, cut) == old
        # No arrow crosses an arrowless cut, so it has no extremal witness;
        # on a crossing cut, classify_cut's witness is cut_reducible_extremal's.
        assert cut_reducible_extremal(g, cut) == old.witness
    assert dual_neighborhood_certificate(g) == oracles.dual_neighborhood_certificate(g)


def two_cycle_graph(rng: random.Random) -> FactGraph:
    """A hand-built graph of 2-6 vertices on ids in -10..20, never
    validated: each pair gets one arrow, the other, or both (a 2-cycle)."""
    d = DynkinA(rng.randint(1, 4))
    ids = rng.sample(range(-10, 21), rng.randint(2, 6))
    vertices = {v: KRFactor(rng.randint(1, d.n), rng.randint(-6, 6), rng.randint(1, 3)) for v in ids}
    arrows = []
    for k, u in enumerate(ids):
        for w in ids[k + 1 :]:
            r = rng.random()
            if r < 0.75:
                arrows.append(Arrow(u, w, 1))
            if r > 0.5:
                arrows.append(Arrow(w, u, 1))
    return FactGraph(d, vertices, tuple(arrows))


def test_dual_certificate_on_two_cycles_matches_oracle():
    # dual_neighborhood_certificate does not validate its graph, so both
    # arrows of a 2-cycle are tried, kr -> kl first, as the oracle does.
    rng, seen = random.Random(11), Counter()
    for _ in range(500):
        g = two_cycle_graph(rng)
        cert = dual_neighborhood_certificate(g)
        assert cert == oracles.dual_neighborhood_certificate(g)
        seen["none" if cert is None else "certified"] += 1
        for w in cert.cuts if cert else ():
            # Condition 2 on a 2-cycle: the arrow kr -> kl failed first.
            two_cycle = (w.right_base, w.left_base) in g.arrow_map
            seen[w.condition, two_cycle and w.condition == 2] += 1
    # Guards the check against vacuity: both verdicts, both conditions, and
    # the second arrow of a 2-cycle passing where the first failed.
    assert seen["none"] >= 50 and seen["certified"] >= 50
    assert seen[1, False] >= 50 and seen[2, False] >= 50 and seen[2, True] >= 50


def test_cluster_witness_is_the_components():
    # Polynomials shaped like the graph-scale bench requests: grown
    # clusters of 2-6 factors over A_10, spaced far beyond any
    # reducibility gap.  Each cluster is one component, and the NotPrime
    # witness read off the component masks is the polynomials of
    # connected_components, in the same order.
    rng, d = random.Random(401), DynkinA(10)
    for _ in range(20):
        factors, clusters = [], 0
        while len(factors) < 60:
            grown = grow(d, rng.randint(2, 6), rng)
            factors += [replace(f, center=f.center + 400 * clusters) for f in grown]
            clusters += 1
        g = build_graph(q_factorize(DrinfeldPoly(d, tuple(factors))))
        components = connected_components(g)
        assert len(components) == clusters
        assert classify(g).witness == tuple(map(to_polynomial, components))


@pytest.mark.parametrize("n", (11, 12, 13))
def test_sliced_rows_match_oracle_across_blocks(n):
    # At 12 and 13 vertices the 2^(n-1) lanes span 2 and 4 blocks of 1,024.
    _, graph, verdict = unknown_verdict(n)
    old_rows = oracle_rows(graph)
    assert verdict.report.rows == old_rows
    for cut, row in zip(cuts(graph), old_rows, strict=True):
        witness = cut_reducible_extremal(graph, cut)
        assert row_of(graph, witness) == row
        status = "Undetermined" if witness is None else "ReducibleByExtremal"
        assert classify_cut(graph, cut) == CutClass(cut, status, witness)
    # Lane i lands at item i through either host byte order: the rows
    # computed as on a host of the other order are these rows byteswapped.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "byteorder", {"little": "big", "big": "little"}[sys.byteorder])
        swapped = primality._report_rows(graph)
    swapped.byteswap()
    assert swapped == verdict.report.rows


@pytest.mark.parametrize("n", (3, 11, 12))
def test_report_acts_as_the_oracle_tuple(n):
    _, graph, verdict = unknown_verdict(n)
    expected = oracles.classify(graph)
    report, old = verdict.report, expected.report
    assert type(old) is tuple and len(report) == len(old)
    assert report[0] == old[0] and report[-1] == old[-1] and report[len(old) // 2] == old[len(old) // 2]
    for part in (slice(1, 3), slice(None, None, -2), slice(-5, None), slice(4, 2)):
        assert report[part] == old[part] and old[part] == report[part]
        assert tuple(report[part]) == old[part]
    assert tuple(iter(report)) == old and list(reversed(report))[:3] == list(old[::-1][:3])
    assert report == old and old == report and report == report[:] and not report != old
    assert report != list(old) and report != old[1:] and old[1:] != report
    assert verdict == expected and expected == verdict
    assert hash(report) == hash(old) and hash(verdict) == hash(expected)
    assert repr(report) == repr(old) and repr(verdict) == repr(expected)
    with pytest.raises(IndexError):
        report[len(old)]


def test_grown_graphs_reach_every_cut_stage_verdict():
    # Guards the differential test above against vacuity: four-vertex
    # grown graphs on A_4 and A_5 reach both the dual certificate and the
    # Unknown report.
    rng = random.Random(5)
    seen = Counter()
    for _ in range(100):
        g = grown_graph(DynkinA(rng.choice((4, 5))), 4, "plain", rng)
        verdict = oracles.classify(g)
        seen[verdict.certificate or verdict.outcome] += 1
    assert seen["DualNeighborhood"] >= 5
    assert seen["Unknown"] >= 5


def string_soup(pick) -> tuple[KRFactor, ...]:
    """Up to 12 strings on colors 1-3 and cosets 0-1, of lengths 1-40, with
    centers in a narrow window and lowest roots of both parities.  After
    the first, a string may repeat an earlier one, abut it on either side
    (same color and coset), or share its color and coset at a nearby
    center, so overlaps, nestings, merges and repeats are common.
    ``pick(lo, hi)`` draws an int in [lo, hi]."""
    factors: list[KRFactor] = []
    for _ in range(pick(0, 12)):
        length = pick(1, 40)
        mode = pick(0, 3) if factors else 0
        if mode == 0:
            factors.append(KRFactor(pick(1, 3), pick(-12, 12), length, pick(0, 1)))
            continue
        base = factors[pick(0, len(factors) - 1)]
        if mode == 1:
            factors.append(base)
        elif mode == 2:
            side = pick(0, 1) * 2 - 1
            center = base.center + side * (base.length + length)
            factors.append(replace(base, center=center, length=length))
        else:
            center = base.center + pick(-length - base.length, length + base.length)
            factors.append(replace(base, center=center, length=length))
    return tuple(factors)


@settings(max_examples=600, **COMMON)
@given(st.data())
def test_q_factorize_matches_oracle(data):
    factors = string_soup(lambda lo, hi: data.draw(st.integers(lo, hi)))
    poly = DrinfeldPoly(DynkinA(3), factors)
    assert q_factorize(poly) == oracles.q_factorize(poly)


def test_string_soup_reaches_merges_and_recuts():
    # Guards the differential test above against vacuity: its inputs
    # merge strings (fewer factors out than in), re-cut overlapping ones
    # into a union and an intersection (as many factors, but others) and
    # are already canonical.
    rng = random.Random(7)
    seen = Counter()
    for _ in range(300):
        poly = DrinfeldPoly(DynkinA(3), string_soup(rng.randint))
        out = oracles.q_factorize(poly)
        seen["merge" if len(out) < len(poly) else "recut" if out != poly else "same"] += 1
    assert seen["merge"] >= 30 and seen["recut"] >= 10 and seen["same"] >= 30


def window_soup(rng: random.Random) -> tuple[DynkinA, tuple[KRFactor, ...]]:
    """10-40 factors over A_1-A_10, of lengths 1-4 and cosets 0-2.  After
    the first, a factor mostly sits near an earlier one, on either side,
    at a center gap within two steps of one of three window edges: the
    pair's reducibility bound r + s + n - 1 (often with colors i + j =
    n + 1, where that bound is reached), the scan's window len_a + 4 +
    n - 1, or the single-node bound r + s at the earlier factor's color.
    It mostly keeps the earlier factor's coset; the rest land anywhere."""
    d = DynkinA(rng.randint(1, 10))
    n = d.n
    factors: list[KRFactor] = []
    for _ in range(rng.randint(10, 40)):
        color, length, coset = rng.randint(1, n), rng.randint(1, 4), rng.randint(0, 2)
        if not factors or rng.randrange(5) == 0:
            factors.append(KRFactor(color, rng.randint(-60, 60), length, coset))
            continue
        base = rng.choice(factors)
        mode = rng.randrange(3)
        if mode == 0:
            if rng.randrange(2):
                color = n + 1 - base.color
            edge = base.length + length + n - 1
        elif mode == 1:
            edge = base.length + 4 + n - 1
        else:
            color, edge = base.color, base.length + length
        if rng.randrange(5):
            coset = base.coset
        center = base.center + rng.choice((-1, 1)) * (edge + rng.randint(-2, 2))
        factors.append(KRFactor(color, center, length, coset))
    return d, tuple(factors)


def all_interacting_pairs(factors: Sequence[KRFactor]) -> list[tuple[int, int]]:
    """Every index pair k < l of same-color, same-coset factors whose
    strings interact by the closed form, in lexicographic order."""
    return [
        (k, l)
        for k, a in enumerate(factors)
        for l, b in enumerate(factors[k + 1 :], k + 1)
        if (a.color, a.coset) == (b.color, b.coset) and oracles._strings_interact(a, b)
    ]


def assert_one_color_pairs_match_oracle(d: DynkinA, factors: Sequence[KRFactor]) -> None:
    """The forced pairs of one color whose gap is at most r + s, which
    is_q_factorization reads, are the closed form's interacting pairs."""
    one_color = sorted(
        (min(k, l), max(k, l))
        for k, l, gap in forced_pairs(d, factors)
        if factors[k].color == factors[l].color and gap <= factors[k].length + factors[l].length
    )
    assert one_color == all_interacting_pairs(factors)
    assert is_q_factorization(DrinfeldPoly(d, factors)) == (not one_color)


def grown_size(rng: random.Random) -> int:
    # Grown graphs past four vertices are seldom totally ordered.
    return rng.choice((3, 4, rng.randint(5, 40)))


@settings(max_examples=500, **COMMON)
@given(st.integers(0, 2**32 - 1))
def test_window_scans_match_oracle(seed):
    rng = random.Random(seed)
    d, factors = window_soup(rng)
    # Unsorted factors keep positions out of center order.
    # The oracle graph's ids are the factors' positions, as the items' are.
    items = list(enumerate(factors))
    assert tuple(_forced_arrows(d, items)) == oracles._graph_from_factors(d, factors).arrows
    assert_one_color_pairs_match_oracle(d, factors)
    poly = DrinfeldPoly(d, factors)
    g = build_graph(poly)
    assert g == oracles._graph_from_factors(d, poly.factors)
    for comp in connected_components(g):
        assert_order_matches_oracle(comp)
    grown = grown_graph(d, grown_size(rng), "relabel", rng)
    assert_order_matches_oracle(grown)
    # Relabeled ids put the failure lists in an order the positions do not.
    new = rng.sample(range(-50, 100), len(factors))
    relabeled = FactGraph(
        d,
        {new[v]: f for v, f in g.vertices.items()},
        tuple(Arrow(new[a.tail], new[a.head], a.exp) for a in g.arrows),
    )
    assert_validate_matches_oracle(mutate(relabeled, rng, rng.randint(0, 4)))


def test_window_soup_reaches_the_window_edges():
    # Guards the differential test above against vacuity: its inputs hold
    # reducible pairs at gap exactly r + s + n - 1 with the lower factor
    # of the greatest length (on the scan's window edge), interacting
    # same-color pairs at gap exactly r + s, and grown graphs and
    # components on both sides of the order check, of the shape
    # predicates and of the transitive reduction.
    rng = random.Random(11)
    seen = Counter()
    for _ in range(100):
        d, factors = window_soup(rng)
        n, top = d.n, max(f.length for f in factors)
        for a in oracles._graph_from_factors(d, factors).arrows:
            fa, fb = factors[a.tail], factors[a.head]
            if a.exp == fa.length + fb.length + n - 1:
                seen["bound"] += 1
                seen["window edge"] += fb.length == top
        for k, l in all_interacting_pairs(factors):
            seen["abut"] += abs(factors[k].center - factors[l].center) == (
                factors[k].length + factors[l].length
            )
        g = build_graph(DrinfeldPoly(d, factors))
        for comp in connected_components(g):
            seen[f"component total {oracles.is_totally_ordered(comp)}"] += len(comp.vertices) > 2
        grown = grown_graph(d, grown_size(rng), "relabel", rng)
        seen[f"grown total {oracles.is_totally_ordered(grown)}"] += len(grown.vertices) > 2
        for h in (*connected_components(g), grown):
            if len(h.vertices) > 2:
                for shape in (oracles.is_tournament, oracles.is_tree, oracles.is_monotonic_line):
                    seen[f"{shape.__name__} {shape(h)}"] += 1
                reduced = len(oracles.transitive_reduction(h)) < len(h.arrows)
                seen[f"reduced {reduced}"] += 1
    assert seen["bound"] >= 100 and seen["window edge"] >= 30 and seen["abut"] >= 30
    for side in ("component", "grown"):
        assert seen[f"{side} total True"] >= 10 and seen[f"{side} total False"] >= 10, seen
    for name in ("is_tournament", "is_tree", "is_monotonic_line", "reduced"):
        assert seen[f"{name} True"] >= 5 and seen[f"{name} False"] >= 5, seen


def lowest_root_soup(rng: random.Random) -> tuple[DynkinA, tuple[KRFactor, ...]]:
    """8-30 short factors over A_1-A_6, of lengths 1-5 and cosets 0-1, the
    inputs that decided the lowest-root window of oracles.window_pairs.
    Half the soups also hold one string of length 50-500.  After the first, a factor is
    mostly placed against an earlier one: a block of 2-5 twins of it, a
    near-twin (its lowest root, another length), or a factor at a center
    gap within two steps of the pair's lower bound |r - s| + d + 2 or of
    its upper bound r + s + n - 1, on either side."""
    d = DynkinA(rng.randint(1, 6))
    n = d.n
    factors: list[KRFactor] = []
    if rng.randrange(2):
        factors.append(KRFactor(rng.randint(1, n), rng.randint(-40, 40), rng.randint(50, 500)))
    for _ in range(rng.randint(8, 30)):
        color, length, coset = rng.randint(1, n), rng.randint(1, 5), rng.randint(0, 1)
        if not factors or rng.randrange(6) == 0:
            factors.append(KRFactor(color, rng.randint(-30, 30), length, coset))
            continue
        base = rng.choice(factors)
        mode = rng.randrange(4)
        if mode == 0:
            factors += [base] * rng.randint(1, 4)
            continue
        if mode == 1:
            lowest = base.center - base.length + 1
            factors.append(KRFactor(color, lowest + length - 1, length, base.coset))
            continue
        r, s, dist = base.length, length, abs(base.color - color)
        edge = abs(r - s) + dist + 2 if mode == 2 else r + s + n - 1
        center = base.center + rng.choice((-1, 1)) * (edge + rng.randint(-2, 2))
        factors.append(KRFactor(color, center, length, base.coset if rng.randrange(4) else coset))
    return d, tuple(factors)


@settings(max_examples=500, **COMMON)
@given(st.integers(0, 2**32 - 1))
def test_lowest_root_window_matches_oracle(seed):
    d, factors = lowest_root_soup(random.Random(seed))
    items = list(enumerate(factors))
    assert tuple(_forced_arrows(d, items)) == oracles._graph_from_factors(d, factors).arrows
    assert_one_color_pairs_match_oracle(d, factors)


def test_lowest_root_soup_reaches_twins_long_strings_and_the_lower_edge():
    # Guards the differential test above against vacuity: its inputs hold
    # twin blocks, a long string, and reducible pairs at gap exactly
    # |r - s| + d + 2, the lower edge that starts the window.
    rng = random.Random(7)
    seen = Counter()
    for _ in range(100):
        d, factors = lowest_root_soup(rng)
        seen["twin block"] += len(set(factors)) < len(factors)
        seen["long string"] += max(f.length for f in factors) >= 50
        for a in oracles._graph_from_factors(d, factors).arrows:
            fa, fb = factors[a.tail], factors[a.head]
            lower = abs(fa.length - fb.length) + abs(fa.color - fb.color) + 2
            seen["lower edge"] += a.exp == lower
            seen["long lower edge"] += a.exp == lower and max(fa.length, fb.length) >= 50
    assert seen["twin block"] >= 30 and seen["long string"] >= 30, seen
    assert seen["lower edge"] >= 100 and seen["long lower edge"] >= 10, seen


def replaced_window_pairs(
    d: DynkinA, factors: Sequence[KRFactor]
) -> tuple[tuple[int, int, int], ...]:
    """The pairs of the replaced window, by coset with slack n - 1, that the
    closed-form kernel calls reducible, as sorted (k, l, gap), k above l."""
    pairs = []
    for k, l in oracles.window_pairs(factors, attrgetter("coset"), d.n - 1):
        relation = oracles.kr_pair_relation(d, factors[k], factors[l])
        if relation.kind == "ReducibleHLW":
            pairs.append((k, l, relation.exponent))
    return tuple(sorted(pairs))


@pytest.mark.parametrize("k", (1, 2, 5, 16, 60))
def test_forced_pairs_match_the_replaced_window_on_hostile_families(k):
    # The boundary pair on ranks where its gap of 10 is in the set (A_9),
    # is not (A_10) and is far below its first member, the diagonal, and
    # nested strings, which only reducible refuses.
    families = [boundary_pair(k, n) for n in (2, 9, 10, 61)] + [diagonal(k), nested(k)]
    for rank, text in families:
        p = parse_poly(text, rank)
        assert forced_pairs(p.rank, p.factors) == replaced_window_pairs(p.rank, p.factors)


def boundary_soup(rng: random.Random) -> tuple[DynkinA, tuple[KRFactor, ...]]:
    """10-40 factors over A_2-A_12 that hold both boundary colors, of
    lengths 1-4 and cosets 0-1, colored 1, n or anything.  After the first
    two, a factor mostly sits against an earlier one, on either side, at a
    center gap within two steps of the first or last member of the pair's
    set, the edges of its rectangle."""
    d = DynkinA(rng.randint(2, 12))
    n = d.n
    factors = [KRFactor(1, rng.randint(-20, 20), rng.randint(1, 4)), KRFactor(n, 0, 1)]
    for _ in range(rng.randint(8, 38)):
        color = rng.choice((1, n, rng.randint(1, n)))
        length, coset = rng.randint(1, 4), rng.randint(0, 1)
        if rng.randrange(6) == 0:
            factors.append(KRFactor(color, rng.randint(-30, 30), length, coset))
            continue
        base = rng.choice(factors)
        members = oracles.rset(d, base.color, color, base.length, length).members
        edge = rng.choice((members[0], members[-1])) + rng.randint(-2, 2)
        center = base.center + rng.choice((-1, 1)) * edge
        factors.append(KRFactor(color, center, length, base.coset if rng.randrange(4) else coset))
    return d, tuple(factors)


def test_forced_pairs_match_the_replaced_window_on_boundary_soups():
    rng = random.Random(3)
    edges = Counter()
    for _ in range(300):
        d, factors = boundary_soup(rng)
        pairs = forced_pairs(d, factors)
        assert pairs == replaced_window_pairs(d, factors)
        assert_one_color_pairs_match_oracle(d, factors)
        for k, l, gap in pairs:
            a, b = sorted((factors[k].color, factors[l].color))
            r, s = factors[k].length, factors[l].length
            edges["boundary colors"] += (a, b) == (1, d.n)
            edges["first"] += gap == abs(r - s) + b - a + 2
            edges["last"] += gap == r + s + min(a + b - 2, 2 * d.n - a - b)
    # Guards against vacuity: pairs of both boundary colors, and pairs at
    # the first or last member of their set, on the rectangle's sides.
    assert min(edges["boundary colors"], edges["first"], edges["last"]) >= 1000, edges


def test_order_structure_on_cycles():
    # Hand-built graphs with oriented cycles: the 2-cycle, and a 3-cycle
    # under a source with a tail below it.  The order functions raise, and
    # reachability still matches the oracle at every vertex.
    rank = DynkinA(2)
    two = FactGraph(
        rank, {0: KRFactor(1, 0, 1), 1: KRFactor(2, 0, 1)}, (Arrow(0, 1, 1), Arrow(1, 0, 1))
    )
    three = FactGraph(
        rank,
        {v: KRFactor(1 + v % 2, v, 1) for v in range(5)},
        (Arrow(0, 1, 1), Arrow(1, 2, 1), Arrow(2, 3, 1), Arrow(3, 1, 1), Arrow(3, 4, 1)),
    )
    for g in (two, three):
        for order_function in (partial_order, is_totally_ordered, transitive_reduction):
            with pytest.raises(CyclicGraph):
                order_function(g)
        with pytest.raises(CyclicGraph):
            oracles.partial_order(g)
        for v in g.ids():
            assert descendants(g, v) == oracles.descendants(g, v)
            assert ancestors(g, v) == oracles.ancestors(g, v)
    assert descendants(three, 0) == {1, 2, 3, 4} and ancestors(three, 4) == {0, 1, 2, 3}
