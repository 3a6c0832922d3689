from __future__ import annotations

import hypothesis.strategies as st
import pytest

import oracles
from qfactgraph import fgraph, lweight, primality
from qfactgraph import (
    DrinfeldPoly,
    DynkinA,
    KRFactor,
    Snake,
    SkewShape,
    build_graph,
    classify,
    parse_poly,
    q_factorize,
    snake_to_poly,
)

A1 = DynkinA(1)
A2 = DynkinA(2)
A3 = DynkinA(3)
A5 = DynkinA(5)
A8 = DynkinA(8)


# 21 vertices, connected and not totally ordered: one past the cut cap of
# 20, as (rank, polynomial).
PAST_CAP = (
    5,
    "1:-13:1 1:6:2 1:6:2 2:-11:2 2:-2:1 2:6:1 2:10:1 2:10:1 2:11:2 2:16:1 "
    "2:17:2 3:-5:1 3:16:2 4:-4:1 4:-3:2 4:11:2 4:11:2 5:-7:1 5:0:2 5:1:1 5:15:1",
)


@pytest.fixture
def window_scans(monkeypatch):
    """One entry per forced_pairs scan: DrinfeldPoly._forced reaches it
    through lweight, and _forced_arrows through fgraph."""
    scans, forced_pairs = [], lweight.forced_pairs

    def counting(*args):
        scans.append(args)
        return forced_pairs(*args)

    monkeypatch.setattr(lweight, "forced_pairs", counting)
    monkeypatch.setattr(fgraph, "forced_pairs", counting)
    return scans


@pytest.fixture
def dual_bases(monkeypatch):
    """One entry per _dual_base call: the left mask of the cut it tests.
    The dual walk and the certificate's witnesses both reach it through
    primality."""
    lefts, dual_base = [], primality._dual_base

    def counting(m, bad, left):
        lefts.append(left)
        return dual_base(m, bad, left)

    monkeypatch.setattr(primality, "_dual_base", counting)
    return lefts


@pytest.fixture
def pairs_tested(monkeypatch):
    """One entry per pair the scan tests: the arguments of each call
    forced_pairs makes to the kernel."""
    tested, reducible = [], lweight.reducible

    def counting(*args):
        tested.append(args)
        return reducible(*args)

    monkeypatch.setattr(lweight, "reducible", counting)
    return tested


def boundary_pair(k: int, n: int = 10**6) -> tuple[int, str]:
    """(rank, text) of the factors 1:20i:1 and n:(20i + 10):1 for i < k on
    A_n: both boundary colors, and no arrow on A_10^6."""
    return n, " ".join(f"1:{20 * i}:1 {n}:{20 * i + 10}:1" for i in range(k))


def diagonal(k: int) -> tuple[int, str]:
    """(rank, text) of i:i:1 for 1 <= i <= k on A_k: every gap j - i lies
    below its set's first member |i - j| + 2, so there is no arrow."""
    return k, " ".join(f"{i}:{i}:1" for i in range(1, k + 1))


def nested(k: int) -> tuple[int, str]:
    """(rank, text) of k // 2 same-center strings 1:0:(4k + 1 - 2j) and
    k // 2 strings 2:(4i - k):1 on A_2: each string lies inside every
    longer one, and there is no arrow."""
    long = [f"1:0:{4 * k + 1 - 2 * j}" for j in range(k // 2)]
    return 2, " ".join(long + [f"2:{4 * i - k}:1" for i in range(k // 2)])


@pytest.fixture
def past_cap_graph():
    rank, text = PAST_CAP
    g = build_graph(q_factorize(parse_poly(text, DynkinA(rank))))
    assert len(g.vertices) == 21
    return g


@pytest.fixture
def two_source_poly():
    return parse_poly("2:0:2 1:3:2 1:4:1", A2)


@pytest.fixture
def two_source_graph(two_source_poly):
    return build_graph(two_source_poly)


@pytest.fixture
def triangle1_graph():
    # All-pairs triangle on A_3 with exponents {6, 3, 3}.
    return build_graph(DrinfeldPoly(A3, (KRFactor(3, 6, 3), KRFactor(2, 3, 3), KRFactor(1, 0, 3))))


@pytest.fixture
def triangle2_graph():
    # All-pairs triangle on A_3 with exponents {7, 3, 4}.
    return build_graph(DrinfeldPoly(A3, (KRFactor(2, 7, 3), KRFactor(3, 4, 3), KRFactor(1, 0, 3))))


@pytest.fixture
def snake_a5():
    return Snake(A5, ((4, -2), (3, 1), (2, 4), (3, 7)))


@pytest.fixture
def snake_graph(snake_a5):
    return build_graph(snake_to_poly(snake_a5))


@pytest.fixture
def skew1_shape():
    return SkewShape(A3, (20, 16, 10, 7, 2, 0), (17, 5))


@st.composite
def increasing_chains(draw, max_len=6, max_rank=8, max_weight=4):
    """Strictly increasing chains of (center, length, color) entries whose
    consecutive gaps are drawn from the reference reducibility sets."""
    d = DynkinA(draw(st.integers(1, max_rank)))
    length = draw(st.integers(1, max_len))
    m = draw(st.integers(0, 10))
    r = draw(st.integers(1, max_weight))
    i = draw(st.integers(1, d.n))
    chain = [(m, r, i)]
    for _ in range(length - 1):
        r_next = draw(st.integers(1, max_weight))
        i_next = draw(st.integers(1, d.n))
        m += draw(st.sampled_from(oracles.rset(d, i, i_next, r, r_next).members))
        chain.append((m, r_next, i_next))
        r, i = r_next, i_next
    return d, chain


def vertex_data(g, v):
    vert = g.vertices[v]
    return (vert.color, vert.center, vert.weight)


def arrow_data(g):
    """Arrows as ((tail color, center), (head color, center), exp) triples."""
    out = set()
    for a in g.arrows:
        t, h = g.vertices[a.tail], g.vertices[a.head]
        out.add(((t.color, t.center), (h.color, h.center), a.exp))
    return out


# Connected graphs that are not totally ordered and get an Unknown verdict,
# by vertex count, as (rank, polynomial).  An n-vertex report has
# 2^(n-1) - 1 entries: at 11 vertices 1,023, one block of the writer's
# 1,024; at 12 vertices two blocks.
UNKNOWN = {
    3: (2, "2:0:2 1:3:2 1:4:1"),
    11: (3, "1:1:1 1:2:2 1:9:1 1:9:1 2:0:1 2:0:1 2:4:1 2:5:2 2:12:1 3:-4:2 3:-4:2"),
    12: (5, "1:0:1 1:0:1 1:1:2 2:-4:2 2:4:2 2:9:1 3:0:1 3:5:2 4:-3:1 4:5:1 4:9:1 5:6:1"),
    13: (5, "1:-9:2 1:7:2 1:7:2 1:8:1 2:-1:1 2:3:1 3:-5:2 3:7:2 4:-9:1 4:3:1 4:3:1 5:0:1 5:0:1"),
}


def unknown_verdict(n: int):
    """The polynomial, graph and Unknown verdict of UNKNOWN[n], built the
    way the CLI's verdict builds them."""
    rank, text = UNKNOWN[n]
    poly = parse_poly(text, DynkinA(rank))
    graph = build_graph(q_factorize(poly))
    verdict = classify(graph)
    assert len(graph.vertices) == n and verdict.outcome == "Unknown"
    assert len(verdict.report) == 2 ** (n - 1) - 1
    return poly, graph, verdict
