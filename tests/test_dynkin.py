from __future__ import annotations

import itertools
import tracemalloc

import pytest

from qfactgraph import DynkinA, InvalidInterval, InvalidNode

from conftest import A1, A3, A5, A8


def test_distance_examples():
    assert A5.distance(2, 4) == 2
    assert A3.distance(1, 1) == 0
    assert A8.distance(3, 6) == 3


def test_distance_rejects_bad_nodes():
    with pytest.raises(InvalidNode):
        A3.distance(0, 2)
    with pytest.raises(InvalidNode):
        A3.distance(1, 4)


def test_interval_examples():
    assert A5.interval(3, 1) == {1, 2, 3}
    assert A5.interval(4, 4) == {4}
    assert A3.interval(1, 3) == {1, 2, 3}


def test_boundary_distance_examples():
    assert A8.boundary_distance([3, 4, 5, 6]) == 2
    assert A5.boundary_distance([2, 3]) == 1
    assert A3.boundary_distance([1, 2]) == 0


def test_boundary_distance_rejects_bad_sets():
    with pytest.raises(InvalidInterval):
        A5.boundary_distance([])
    with pytest.raises(InvalidInterval):
        A5.boundary_distance([1, 3])
    with pytest.raises(InvalidNode):
        A5.boundary_distance([5, 6])


def test_check_interval_returns_the_ends():
    assert A5.check_interval(range(2, 5)) == (2, 4)
    assert A5.check_interval([4, 2, 3, 3]) == (2, 4)
    assert A5.check_interval(A5.interval(5, 5)) == (5, 5)
    for bad in ([], range(3, 3), [1, 3], range(1, 5, 2)):
        with pytest.raises(InvalidInterval):
            A5.check_interval(bad)


def test_boundary_distance_rejects_a_huge_range_in_place():
    # A unit-step range is checked by its two ends and fails at its last
    # node, so the million-node range is never built (building it peaked
    # at about 73 MB).
    A3.boundary_distance(range(1, 3))  # warm up
    tracemalloc.start()
    try:
        with pytest.raises(InvalidNode):
            A3.boundary_distance(range(1, 10**6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024


def test_check_interval_reads_a_range_by_its_two_ends(monkeypatch):
    # A unit-step range is connected, so its two ends decide; the cost
    # must not grow with the range (node by node, this made 10^6 calls).
    calls = []
    check_node = DynkinA.check_node

    def counted(self, i):
        calls.append(i)
        return check_node(self, i)

    monkeypatch.setattr(DynkinA, "check_node", counted)
    assert DynkinA(10**6).check_interval(range(1, 10**6 + 1)) == (1, 10**6)
    assert len(calls) <= 2


def test_star_examples():
    assert A5.star(2) == 4
    assert A3.star(2) == 2
    assert A8.star(1) == 8


def test_dual_coxeter():
    assert A3.dual_coxeter() == 4
    assert A5.dual_coxeter() == 6
    assert A1.dual_coxeter() == 2


def test_rank_must_be_positive():
    with pytest.raises(ValueError):
        DynkinA(0)


def test_triangle_inequality():
    for i, j, k in itertools.product(A5.nodes, repeat=3):
        assert A5.distance(i, k) <= A5.distance(i, j) + A5.distance(j, k)


def test_boundary_distance_monotone_under_inclusion():
    for i, j in itertools.combinations_with_replacement(A8.nodes, 2):
        big = A8.interval(i, j)
        for ii, jj in itertools.combinations_with_replacement(sorted(big), 2):
            small = A8.interval(ii, jj)
            assert A8.boundary_distance(big) <= A8.boundary_distance(small)


def test_star_is_distance_preserving_involution():
    for i in A8.nodes:
        assert A8.star(A8.star(i)) == i
        for j in A8.nodes:
            assert A8.distance(A8.star(i), A8.star(j)) == A8.distance(i, j)


def test_boundary_set():
    assert A1.boundary == {1}
    assert A5.boundary == {1, 5}
