from __future__ import annotations

import random
import sys
from collections import Counter
from itertools import combinations
from types import CodeType

import pytest

from qfactgraph import (
    DrinfeldPoly,
    DynkinA,
    InvalidNode,
    KRFactor,
    NonPositiveLength,
    PolySyntaxError,
    dual_kappa,
    dual_negate,
    dual_sigma,
    dual_star,
    is_q_factorization,
    parse_poly,
    poly_from_json,
    poly_to_json,
    poly_to_text,
    q_factorize,
    roots_of,
    shift,
    support,
    weight,
)
from qfactgraph.lweight import forced_pairs

from conftest import A1, A2, A3, A5, boundary_pair, diagonal


def P(rank, *triples):
    return DrinfeldPoly(rank, tuple(KRFactor(*t) for t in triples))


def test_roots_of_examples():
    assert sorted(roots_of(KRFactor(2, 0, 2))) == [-1, 1]
    assert sorted(roots_of(KRFactor(1, 4, 1))) == [4]
    assert sorted(roots_of(KRFactor(3, 0, 3))) == [-2, 0, 2]


def test_q_factorize_merges_adjacent_singletons():
    assert q_factorize(P(A2, (1, 0, 1), (1, 2, 1))).factors == (KRFactor(1, 1, 2),)


def test_q_factorize_fixes_canonical_input():
    poly = P(A2, (2, 0, 2), (1, 3, 2), (1, 4, 1))
    assert q_factorize(poly) == poly


def test_q_factorize_overlapping_strings():
    got = q_factorize(P(A5, (1, 0, 2), (1, 2, 2)))
    assert got.factors == (KRFactor(1, 1, 1), KRFactor(1, 1, 3))


def _string_decompositions(roots):
    """All ways to split a root multiset into step-2 strings, as multisets
    of (center, length); brute-force ground truth for the peeling."""
    pool = Counter(roots)
    if not pool:
        return {frozenset()}
    out = set()

    def rec(pool, acc):
        if not pool:
            out.add(tuple(sorted(acc)))
            return
        start = min(pool)
        length = 1
        while True:
            string = [start + 2 * k for k in range(length)]
            if any(not pool[x] for x in string):
                break
            rest = pool.copy()
            for x in string:
                rest[x] -= 1
                if not rest[x]:
                    del rest[x]
            rec(rest, acc + [((start + string[-1]) // 2, length)])
            length += 1

    rec(pool, [])
    return out


def _pairwise_clear(decomp):
    for (m0, r0), (m1, r1) in combinations(decomp, 2):
        gap = abs(m0 - m1)
        if abs(r0 - r1) + 2 <= gap <= r0 + r1 and (r0 + r1 - gap) % 2 == 0:
            return False
    return True


def test_q_factorize_matches_unique_clear_decomposition():
    # The canonical factorization is the only string decomposition whose
    # pairs all pass the separation condition; check the peeling against
    # exhaustive enumeration on the worked example and random multisets.
    cases = [[-1, 1, 1, 3]]
    rng = random.Random(7)
    for _ in range(60):
        cases.append([rng.randrange(-4, 5) for _ in range(rng.randrange(1, 7))])
    for roots in cases:
        clear = [d for d in _string_decompositions(roots) if _pairwise_clear(d)]
        assert len(clear) == 1, roots
        poly = DrinfeldPoly(A5, tuple(KRFactor(1, m, 1) for m in roots))
        got = sorted((f.center, f.length) for f in q_factorize(poly).factors)
        assert got == sorted(clear[0]), roots


def test_window_pairs_skip_twins_and_one_long_string(pairs_tested):
    # No pair of 2,000 copies of one factor (rank 3), nor of 2,000 spaced
    # strings beside one long one (rank 1), can be reducible, and the scan
    # tests none: twins share u, and a spaced string's w window holds none.
    twins = [KRFactor(2, 0, 1)] * 2000
    spaced = [KRFactor(1, 4 * i, 1) for i in range(2000)] + [KRFactor(1, -5_000_000, 1_000_000)]
    for factors, rank in ((twins, A3), (spaced, A1)):
        assert forced_pairs(rank, factors) == ()
    assert pairs_tested == []


@pytest.mark.parametrize("family, k", [(boundary_pair, 2000), (diagonal, 1000)])
def test_forced_pairs_test_no_pair_of_an_arrowless_family(pairs_tested, family, k):
    # Both boundary colors on A_10^6, or the diagonal: a window with one
    # slack for the whole input tests 7,998,000 and 498,501 pairs.  Each
    # pair's rectangle comes from its own two strings, and none holds a
    # point.
    rank, text = family(k)
    p = parse_poly(text, rank)
    assert forced_pairs(p.rank, p.factors) == ()
    assert pairs_tested == []


def lines_run(function, *args) -> int:
    """The line events sys.settrace sees in frames of function and of the
    code nested in it (its comprehensions, which are frames of their own
    before Python 3.12 and inlined from it), while function(*args) runs."""
    codes, stack = set(), [function.__code__]
    while stack:
        code = stack.pop()
        codes.add(code)
        stack += [c for c in code.co_consts if isinstance(c, CodeType)]
    lines = 0

    def count(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return count

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: count if frame.f_code in codes else None)
    try:
        function(*args)
    finally:
        sys.settrace(previous)
    return lines


@pytest.mark.parametrize("family, size", [(boundary_pair, 1000), (diagonal, 2000)])
def test_forced_pairs_scans_the_smaller_window(family, size):
    # The scan walks the window of each pair's rectangle with fewer points:
    # about 16 lines per factor on k = 2,000 factors (32,022 and 32,016).
    # Always walking the u window runs 531,522 and 2,031,016 lines on these
    # two arrowless families, and tests no more pairs.
    k = 2000
    rank, text = family(size)
    p = parse_poly(text, rank)
    assert len(p.factors) == k and lines_run(forced_pairs, p.rank, p.factors) <= 20 * k


def test_forced_pairs_test_only_forced_pairs_when_no_string_can_nest(pairs_tested):
    # Strings of one length per coset never nest, and every other point of
    # a pair's rectangle and parity class is reducible, so the scan tests
    # exactly the pairs it returns.
    rng = random.Random(5)
    found = 0
    for _ in range(500):
        d = DynkinA(rng.randint(1, 9))
        lengths = (rng.randint(1, 4), rng.randint(1, 4))
        factors = []
        for _ in range(rng.randint(2, 30)):
            color, center, coset = rng.randint(1, d.n), rng.randint(-15, 15), rng.randrange(2)
            factors.append(KRFactor(color, center, lengths[coset], coset))
        pairs_tested.clear()
        found += len(pairs := forced_pairs(d, factors))
        assert len(pairs_tested) == len(pairs), factors
    assert found >= 5000


def test_is_q_factorization_examples():
    assert is_q_factorization(P(A2, (1, 3, 2), (1, 4, 1)))
    assert not is_q_factorization(P(A2, (1, 0, 1), (1, 2, 1)))
    assert is_q_factorization(P(A2, (1, 0, 1), (2, 0, 1)))


def test_cosets_never_interact():
    poly = DrinfeldPoly(A2, (KRFactor(1, 0, 1), KRFactor(1, 2, 1, coset=1)))
    assert is_q_factorization(poly)
    assert len(q_factorize(poly)) == 2


def test_weight_examples():
    assert weight(P(A2, (2, 0, 2), (1, 3, 2), (1, 4, 1))) == {1: 3, 2: 2}
    assert weight(DrinfeldPoly(A2)) == {}
    assert weight(P(A3, (3, 0, 3))) == {3: 3}


def test_support():
    assert support(P(A2, (2, 0, 2), (1, 3, 2))) == {1, 2}
    assert support(DrinfeldPoly(A2)) == frozenset()
    assert support(P(A5, (4, -3, 2))) == {4}


def test_dual_star_examples():
    assert dual_star(P(A3, (2, 0, 1))).factors == (KRFactor(2, -4, 1),)
    assert dual_star(P(A5, (1, 5, 2))).factors == (KRFactor(5, -1, 2),)


def test_dual_involutions():
    poly = P(A5, (2, 3, 2), (4, -1, 1), (2, 0, 3))
    assert dual_negate(dual_negate(poly)) == poly
    assert dual_sigma(dual_sigma(poly)) == poly
    assert dual_kappa(dual_kappa(poly)) == poly
    assert dual_star(dual_star(poly)) == shift(poly, -2 * A5.dual_coxeter())


def test_shift_commutes_with_q_factorize():
    poly = P(A2, (1, 0, 1), (1, 2, 1), (2, 5, 2))
    assert q_factorize(shift(poly, 11)) == shift(q_factorize(poly), 11)


def test_factor_validation():
    with pytest.raises(NonPositiveLength):
        KRFactor(1, 0, 0)
    with pytest.raises(InvalidNode):
        P(A3, (4, 0, 1))
    for bad in (True, False, 1.0, "1", None):
        with pytest.raises(NonPositiveLength):
            KRFactor(1, 0, bad)
        for k in (0, 1, 3):
            args = [1, 0, 1, 0]
            args[k] = bad
            with pytest.raises(TypeError):
                KRFactor(*args)
    for bad in (True, False, 2.0):
        with pytest.raises(ValueError):
            DynkinA(bad)
    for bad in (True, False):
        with pytest.raises(InvalidNode):
            A3.check_node(bad)


def test_parse_poly_examples():
    poly = parse_poly("2:0:2 1:3:2 1:4:1", A2)
    assert poly == P(A2, (2, 0, 2), (1, 3, 2), (1, 4, 1))
    assert parse_poly("1:0:1 1:0:1", A5).factors == (KRFactor(1, 0, 1),) * 2
    with pytest.raises(InvalidNode):
        parse_poly("4:0:1", A3)


def test_parse_poly_coset_and_negative_center():
    poly = parse_poly("4:-2:1@3", A5)
    assert poly.factors == (KRFactor(4, -2, 1, coset=3),)


def test_parse_poly_reports_position():
    with pytest.raises(PolySyntaxError) as err:
        parse_poly("1:0:1 oops", A3)
    assert err.value.position == 6
    with pytest.raises(NonPositiveLength):
        parse_poly("1:0:0", A3)


def test_text_round_trip():
    rng = random.Random(3)
    for _ in range(40):
        poly = DrinfeldPoly(
            A5,
            tuple(
                KRFactor(
                    rng.randrange(1, 6),
                    rng.randrange(-9, 10),
                    rng.randrange(1, 4),
                    rng.randrange(0, 2),
                )
                for _ in range(rng.randrange(0, 5))
            ),
        )
        assert parse_poly(poly_to_text(poly), A5) == poly


def test_json_round_trip():
    poly = P(A5, (2, 3, 2), (4, -1, 1))
    assert poly_from_json(poly_to_json(poly), A5) == poly


@pytest.mark.parametrize(
    "item",
    [
        {"color": 1},
        {"color": 1, "center": 0},
        {"center": 0, "length": 1},
        {"color": 1, "center": "0", "length": 1},
        {"color": 1, "center": 0, "length": True},
        {"color": 1, "center": 0, "length": 1, "coset": 0.0},
        [1, 0, 1],
        None,
    ],
)
def test_json_malformed_item_reports_index(item):
    good = {"color": 1, "center": 0, "length": 1}
    with pytest.raises(PolySyntaxError) as err:
        poly_from_json([good, item], 3)
    assert err.value.position == 1


def test_empty_polynomial_is_fine():
    assert parse_poly("   ", A3) == DrinfeldPoly(A3)
    assert q_factorize(DrinfeldPoly(A3)) == DrinfeldPoly(A3)
