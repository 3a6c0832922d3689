from __future__ import annotations

import random
from collections import Counter

import pytest

from qfactgraph import (
    DynkinA,
    KRFactor,
    RankTooSmall,
    ShapeInvalid,
    SkewShape,
    Snake,
    build_graph,
    chain_arrow_closure,
    chain_p_matrix,
    classify,
    connected_components,
    is_prime_snake,
    is_snake,
    is_totally_ordered,
    is_tournament,
    q_factorize,
    skew_nu_table,
    skew_to_poly,
    snake_to_poly,
    tournament_family,
    weight,
)

from conftest import A2, A3, A5, arrow_data


def test_tournament_family_4_8():
    poly = tournament_family(4, 8)
    assert [(f.color, f.center) for f in poly] == [(3, 0), (4, 3), (5, 6), (6, 9)]
    g = build_graph(poly)
    assert is_tournament(g) and len(g.arrows) == 6
    assert arrow_data(g) == {
        ((4, 3), (3, 0), 3),
        ((5, 6), (4, 3), 3),
        ((6, 9), (5, 6), 3),
        ((5, 6), (3, 0), 6),
        ((6, 9), (4, 3), 6),
        ((6, 9), (3, 0), 9),
    }


def test_tournament_family_minimal():
    poly = tournament_family(2, 2)
    assert [(f.color, f.center) for f in poly] == [(1, 0), (2, 3)]
    g = build_graph(poly)
    assert arrow_data(g) == {((2, 3), (1, 0), 3)}


def test_tournament_family_triangle_exponents():
    g = build_graph(tournament_family(3, 5))
    assert sorted(a.exp for a in g.arrows) == [3, 3, 6]
    assert is_tournament(g)


def test_tournament_family_rank_bound():
    with pytest.raises(RankTooSmall):
        tournament_family(3, 4)
    with pytest.raises(ValueError):
        tournament_family(1, 8)
    # the bound is sharp: the same factors on A_4 lose the long arrow
    from qfactgraph import DrinfeldPoly

    squeezed = build_graph(
        DrinfeldPoly(
            DynkinA(4), (KRFactor(2, 0, 1), KRFactor(3, 3, 1), KRFactor(4, 6, 1))
        )
    )
    assert not is_tournament(squeezed)


def test_tournament_family_classification():
    for n_vertices, rank in ((2, 2), (3, 5), (4, 8), (5, 11), (6, 14)):
        verdict = classify(build_graph(tournament_family(n_vertices, rank)))
        assert verdict.outcome == "Prime"
        if n_vertices > 2:
            assert verdict.certificate == "TotallyOrdered"


def test_is_snake_examples(snake_a5):
    assert is_snake(snake_a5) and is_prime_snake(snake_a5)
    not_snake = Snake(A5, ((4, -2), (3, -1)))
    assert not is_snake(not_snake)
    small = Snake(A5, ((1, 0), (1, 2)))
    assert is_snake(small) and is_prime_snake(small)


def test_snake_with_nonprime_step():
    # gap 7 = 2 + 1 - 2(-2) needs p = -2 below -d([2,3], boundary) = -1
    s = Snake(A5, ((2, 0), (3, 7)))
    assert is_snake(s) and not is_prime_snake(s)


def test_snake_to_poly(snake_a5):
    poly = snake_to_poly(snake_a5)
    assert sorted((f.color, f.center, f.length) for f in poly) == [
        (2, 4, 1),
        (3, 1, 1),
        (3, 7, 1),
        (4, -2, 1),
    ]


def test_prime_snake_graphs_totally_ordered(snake_a5):
    pseudo = build_graph(snake_to_poly(snake_a5))
    assert is_totally_ordered(pseudo)
    actual = build_graph(q_factorize(snake_to_poly(snake_a5)))
    assert is_totally_ordered(actual)


def test_skew_nu_table_worked_shape(skew1_shape):
    assert skew_nu_table(skew1_shape) == (
        (20, 17, 17, 17),
        (16, 10, 7, 5),
        (5, 5, 2, 0),
    )


def test_skew_nu_table_empty_mu():
    shape = SkewShape(A3, (9, 6, 4, 1))
    assert skew_nu_table(shape) == ((9, 6, 4, 1),)


def test_skew_nu_table_second_shape():
    shape = SkewShape(A5, (6, 6, 6, 4, 2, 1, 1), (5,))
    assert skew_nu_table(shape) == (
        (6, 6, 6, 5, 5, 5),
        (5, 5, 4, 2, 1, 1),
    )


def test_skew_to_poly_worked_shape(skew1_shape):
    poly, table = skew_to_poly(skew1_shape)
    assert table == (
        ((35, 3), (31, 0), (30, 0)),
        ((22, 6), (12, 3), (6, 2)),
        ((4, 0), (0, 3), (-6, 2)),
    )
    assert sorted((f.color, f.center, f.length) for f in poly) == [
        (1, 22, 6),
        (1, 35, 3),
        (2, 0, 3),
        (2, 12, 3),
        (3, -6, 2),
        (3, 6, 2),
    ]


def test_skew_worked_shape_graph(skew1_shape):
    poly, _ = skew_to_poly(skew1_shape)
    g = build_graph(poly)
    comps = connected_components(g)
    assert sorted(len(c.vertices) for c in comps) == [1, 5]
    singleton = next(c for c in comps if len(c.vertices) == 1)
    v = singleton.vertices[next(iter(singleton.vertices))]
    assert (v.color, v.center, v.weight) == (1, 35, 3)
    line = next(c for c in comps if len(c.vertices) == 5)
    assert sorted(a.exp for a in line.arrows) == [6, 6, 6, 10]
    for comp in comps:
        assert classify(comp).outcome == "Prime"


def test_skew_second_shape_polynomial():
    shape = SkewShape(A5, (6, 6, 6, 4, 2, 1, 1), (5,))
    poly, table = skew_to_poly(shape)
    assert sorted((f.color, f.center, f.length) for f in poly) == [
        (2, 4, 1),
        (3, 0, 2),
        (3, 7, 1),
        (4, -4, 1),
    ]
    # zero-length cells stay in the table
    assert table[0][0] == (10, 0)
    assert table[1][4] == (-6, 0)
    g = build_graph(poly)
    assert is_totally_ordered(g)
    assert sorted(a.exp for a in g.arrows) == [3, 4, 4, 7]


def test_skew_shape_validation():
    with pytest.raises(ShapeInvalid):
        SkewShape(A3, (1, 2, 3, 4))  # increasing lambda
    with pytest.raises(ShapeInvalid):
        SkewShape(A3, (5, 4, 3, 2, 1), (9,))  # mu_1 > lambda_1
    with pytest.raises(ShapeInvalid):
        SkewShape(A3, (5, 4, 3, 2), (4,))  # wrong lambda length
    with pytest.raises(ShapeInvalid):
        SkewShape(A2, (9, 9, 9, 9, 9), (3, 5))  # increasing mu


def test_skew_empty_mu_weights_match_lambda_differences():
    lam = (9, 6, 4, 1)
    poly, _ = skew_to_poly(SkewShape(A3, lam))
    w = weight(poly)
    for i in range(1, 4):
        expected = lam[i - 1] - lam[i]
        assert w.get(i, 0) == expected


def test_snake_validation():
    with pytest.raises(ValueError):
        Snake(A5, ())
    from qfactgraph import InvalidNode

    with pytest.raises(InvalidNode):
        Snake(A5, ((7, 0),))


def test_non_int_fields_are_refused():
    # KRFactor's rule: an exact int, never a bool.  int() coercion read the
    # first snake as ((1, 0), (1, 4)), the shape as (2, 1), and the chain
    # as (0, 1, 1), whose p-matrix {(2, 1): 0} came back silently.
    with pytest.raises(TypeError):
        Snake(A5, ((1.7, 0.9), (True, 4)))
    with pytest.raises(TypeError):
        Snake(A5, ((1, 0), (2, 4.0)))
    with pytest.raises(TypeError):
        SkewShape(DynkinA(1), (2.9, 1.2))
    with pytest.raises(TypeError):
        SkewShape(A2, (9, 6, 4, 1), (False,))
    for chain in ([(0.5, 1.9, 1), (3, 1, 2)], [(0, True, 2), (3, 1, 3)]):
        with pytest.raises(TypeError):
            chain_p_matrix(A5, chain)
        with pytest.raises(TypeError):
            chain_arrow_closure(A5, chain)
    # Lists of pairs and of triples are still read as tuples.
    assert Snake(A5, [[4, -2], [3, 1]]).points == ((4, -2), (3, 1))
    assert SkewShape(DynkinA(1), [2, 1]).lam == (2, 1)
    assert chain_p_matrix(A5, [[0, 1, 2], [3, 1, 3]]) == {(2, 1): 0}
    assert chain_arrow_closure(A5, [[0, 1, 2], [3, 1, 3]]).ok


def random_snakes(count: int, rng: random.Random):
    """Snakes over A_1-A_7 with 2-10 points.  Each gap is the distance of
    its colors plus 2k, k mostly 1 (prime position) and up to 4; one gap
    in twenty is odd, so some sequences are not snakes and are dropped."""
    for _ in range(count):
        d = DynkinA(rng.randint(1, 7))
        color, center = rng.randint(1, d.n), 0
        points = [(color, center)]
        for _ in range(rng.randint(1, 9)):
            nxt = rng.randint(1, d.n)
            center += d.distance(color, nxt) + 2 * rng.choice((0, 1, 1, 1, 2, 3, 4))
            center += rng.random() < 0.05
            color = nxt
            points.append((color, center))
        snake = Snake(d, tuple(points))
        if is_snake(snake):
            yield snake


def test_snake_verdicts_agree_with_mukhin_young():
    # Mukhin and Young (Adv. Math. 2012; Selecta Math. 2012): in type A a
    # snake module is prime iff its snake is prime.  So a non-prime snake
    # never gets Prime and a prime snake never gets NotPrime.
    kinds, certificates = Counter(), set()
    for snake in random_snakes(2000, random.Random(7)):
        prime = is_prime_snake(snake)
        verdict = classify(build_graph(q_factorize(snake_to_poly(snake))))
        assert verdict.outcome != ("NotPrime" if prime else "Prime"), snake
        kinds[prime] += 1
        if verdict.outcome == "Prime":
            certificates.add(verdict.certificate)
    # Guards the check against vacuity: both kinds of snake, and at least
    # three Prime certificates.
    assert kinds[True] >= 100 and kinds[False] >= 100
    assert len(certificates) >= 3
