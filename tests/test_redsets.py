from __future__ import annotations

import random
import tracemalloc

import pytest

from qfactgraph import (
    IntervalDoesNotContain,
    InvalidInterval,
    InvalidNode,
    KRFactor,
    NonPositiveLength,
    kr_dual_pair_simple,
    kr_pair_relation,
    rset,
    rset_restricted,
)

from conftest import A2, A3, A5


def test_rset_examples():
    assert list(rset(A3, 3, 1, 3, 3)) == [4, 6, 8]
    assert list(rset(A2, 1, 2, 1, 2)) == [4]
    assert list(rset(A5, 3, 3, 1, 2)) == [3, 5, 7]


def test_rset_restricted_examples():
    assert list(rset_restricted(A5, 2, 3, 1, 1, [2, 3])) == [3]
    assert list(rset_restricted(A5, 3, 3, 1, 2, [3])) == [3]
    assert list(rset_restricted(A5, 2, 4, 1, 1, range(1, 6))) == [4, 6]


def test_rset_restricted_needs_containing_interval():
    with pytest.raises(IntervalDoesNotContain):
        rset_restricted(A5, 2, 4, 1, 1, [2, 3])


def test_rset_refuses_bool_lengths():
    # A bool is not a string length, for the sets as for KRFactor.
    for bad in (True, False):
        for r, s in ((bad, 1), (1, bad)):
            with pytest.raises(NonPositiveLength):
                rset(A3, 1, 1, r, s)
            with pytest.raises(NonPositiveLength):
                rset_restricted(A3, 1, 2, r, s, range(1, 4))
            with pytest.raises(NonPositiveLength):
                rset_restricted(A3, 1, 1, r, s, [1])


def test_rset_restricted_checks_in_order():
    # Lengths, then the interval, then the nodes, then containment.
    with pytest.raises(NonPositiveLength):
        rset_restricted(A3, 9, 9, 0, 1, [])
    with pytest.raises(InvalidInterval):
        rset_restricted(A3, 9, 9, 1, 1, [])
    with pytest.raises(InvalidNode):
        rset_restricted(A3, 9, 1, 1, 1, [1, 2])
    with pytest.raises(IntervalDoesNotContain):
        rset_restricted(A3, 1, 3, 1, 1, range(1, 3))


def test_rset_restricted_rejects_a_huge_range_in_place():
    # The interval check stops at node n + 1 without building the range;
    # a million nodes bound the memory a broken guard could take.
    rset_restricted(A3, 1, 1, 1, 1, range(1, 3))  # warm up
    tracemalloc.start()
    try:
        with pytest.raises(InvalidNode):
            rset_restricted(A3, 1, 1, 1, 1, range(1, 10**6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024


def test_rset_rejects_bad_nodes():
    with pytest.raises(InvalidNode):
        rset(A3, 0, 1, 1, 1)
    with pytest.raises(InvalidNode):
        rset_restricted(A3, 5, 5, 1, 1, [5])


def test_rset_same_node_examples():
    assert list(rset_restricted(A5, 1, 1, 2, 1, [1])) == [3]
    assert list(rset_restricted(A5, 1, 1, 1, 1, [1])) == [2]
    assert list(rset_restricted(A5, 2, 2, 3, 3, [2])) == [2, 4, 6]


def test_rset_membership_matches_members():
    rs = rset(A5, 2, 4, 3, 2)
    members = set(rs.members)
    for m in range(-2, 30):
        assert (m in rs) == (m in members)


def test_rset_symmetry_and_parity():
    rng = random.Random(11)
    for _ in range(200):
        i = rng.randrange(1, 6)
        j = rng.randrange(1, 6)
        r = rng.randrange(1, 5)
        s = rng.randrange(1, 5)
        a = rset(A5, i, j, r, s)
        assert a.members == rset(A5, j, i, s, r).members
        assert a.members == rset(A5, A5.star(i), A5.star(j), r, s).members
        for m in a:
            assert m % 2 == (r + s + A5.distance(i, j)) % 2
        assert max(a) == r + s + A5.distance(i, j) + 2 * A5.boundary_distance(A5.interval(i, j))
        assert min(a) == r + s + A5.distance(i, j) - 2 * (min(r, s) - 1)


def test_rset_restricted_monotone():
    assert set(rset_restricted(A5, 2, 3, 2, 2, [2, 3])) <= set(
        rset_restricted(A5, 2, 3, 2, 2, [1, 2, 3, 4])
    )
    assert rset_restricted(A5, 2, 3, 2, 2, range(1, 6)).members == rset(A5, 2, 3, 2, 2).members


def test_kr_pair_relation_examples():
    rel = kr_pair_relation(A2, KRFactor(1, 3, 2), KRFactor(2, 0, 2))
    assert (rel.kind, rel.exponent) == ("ReducibleHLW", 3)
    rel = kr_pair_relation(A2, KRFactor(2, 0, 2), KRFactor(1, 3, 2))
    assert (rel.kind, rel.exponent) == ("ReducibleOpposite", -3)
    assert kr_pair_relation(A2, KRFactor(1, 3, 2), KRFactor(1, 4, 1)).kind == "Simple"


def test_kr_pair_relation_cross_coset_is_simple():
    assert kr_pair_relation(A2, KRFactor(1, 3, 1), KRFactor(2, 0, 1, coset=1)).kind == "Simple"


def test_kr_pair_relation_checks_colors_across_cosets():
    # A color outside A_2 is refused whether or not the cosets agree.
    for coset in (0, 1):
        with pytest.raises(InvalidNode):
            kr_pair_relation(A2, KRFactor(7, 0, 1), KRFactor(1, 0, 1, coset=coset))
        with pytest.raises(InvalidNode):
            kr_pair_relation(A2, KRFactor(1, 0, 1, coset=coset), KRFactor(7, 0, 1))


def test_kr_pair_relation_antisymmetry():
    rng = random.Random(5)
    for _ in range(200):
        f = KRFactor(rng.randrange(1, 6), rng.randrange(-8, 9), rng.randrange(1, 4))
        g = KRFactor(rng.randrange(1, 6), rng.randrange(-8, 9), rng.randrange(1, 4))
        a, b = kr_pair_relation(A5, f, g), kr_pair_relation(A5, g, f)
        if a.kind == "ReducibleHLW":
            assert (b.kind, b.exponent) == ("ReducibleOpposite", -a.exponent)
        elif a.kind == "Simple":
            assert b.kind == "Simple"


def test_kr_dual_pair_simple_far_pair():
    # dual of (3, 0, 2) in A_5 sits at (3, -6, 2); the gap 13 misses {3, 5, 7}
    assert kr_dual_pair_simple(A5, KRFactor(3, 7, 1), KRFactor(3, 0, 2)) is True


def test_kr_dual_pair_simple_wide_gap():
    # dual of (3, 0, 1) in A_3 is (1, -4, 1); the gap 12 misses {2}
    assert kr_dual_pair_simple(A3, KRFactor(1, 8, 1), KRFactor(3, 0, 1)) is True


def test_kr_dual_pair_simple_close_pair():
    # dual of (3, 0, 1) in A_3 is (1, -4, 1); the gap 4 still misses the
    # same-color set {2} for weight-one strings at a boundary node
    assert kr_dual_pair_simple(A3, KRFactor(1, 0, 1), KRFactor(3, 0, 1)) is True


def test_kr_dual_pair_simple_checks_colors_across_cosets():
    for coset in (0, 1):
        with pytest.raises(InvalidNode):
            kr_dual_pair_simple(A2, KRFactor(7, 0, 1), KRFactor(1, 0, 1, coset=coset))
        with pytest.raises(InvalidNode):
            kr_dual_pair_simple(A2, KRFactor(1, 0, 1, coset=coset), KRFactor(7, 0, 1))


def test_kr_dual_pair_factor_with_own_dual_is_reducible():
    # a string against its own dual always carries the invariant pairing
    for i in (1, 2, 3):
        for r in (1, 2, 3):
            assert kr_dual_pair_simple(A3, KRFactor(i, 0, r), KRFactor(i, 0, r)) is False
