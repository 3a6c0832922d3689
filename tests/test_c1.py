"""C_1 and C_l: exhaustive external truths for every verdict kind.

Hernandez and Leclerc ("Cluster algebras and quantum affine algebras",
Duke Math. J. 154, 2010) define a monoidal subcategory C_1 and prove, in
type A_n, that it categorifies the cluster algebra of type A_n; Nakajima
("Quiver varieties and cluster algebras", Kyoto J. Math. 51, 2011)
extends this to all ADE types.  So every simple module of C_1 is a tensor
product of prime simple modules, and the prime simple modules match the
cluster and frozen variables one to one: n(n + 3)/2 + n of them on A_n.

In this library's coordinates, pick xi_i in {0, 1} with xi_i != xi_(i+1),
either xi_i = i mod 2 (parity 0) or xi_i = (i + 1) mod 2 (parity 1).  The
simple modules of C_1 are the products of the length-1 factors
``i:xi_i:1`` and ``i:xi_i+2:1``; each case is an exponent vector in
{0, 1, 2}^(2n), bar zero, run through ``q_factorize``, ``build_graph``
and ``classify``.

- Soundness, which the theorem backs: at most n(n + 3)/2 + n distinct
  polynomials are Prime.
- Completeness on C_1, which the certificates reach today: exactly that
  many, 3, 7, 12, 18 and 25 on A_1-A_5.
- Vacuity guards: the whole verdict table below, under both parities.
  DualNeighborhood fires once on A_3 and 3 times on A_4, and NotPrime and
  Unknown both occur.  The counts match the theorem for n = 1..5, which is
  the evidence that the coordinates are right.

| A_n | cases | SingleVertex | TwoVertexConnected | DualNeighborhood | NotPrime | Unknown |
| --- | --- | --- | --- | --- | --- | --- |
| 1 | 8 | 3 | 0 | 0 | 5 | 0 |
| 2 | 80 | 6 | 1 | 0 | 70 | 3 |
| 3 | 728 | 9 | 2 | 1 | 703 | 13 |
| 4 | 6,560 | 12 | 3 | 3 | 6,504 | 38 |
| 5 | 59,048 | 15 | 4 | 6 | 58,929 | 94 |

C_l (Hernandez-Leclerc, same paper) takes the factors ``i:xi_i+2k:1``
for 0 <= k <= l; C_1 is l = 1.  Its cluster algebra has the quiver
A_n x A_l, of finite type for (2, 2) (D_4), (2, 3) and (3, 2) (E_6), and
(2, 4) (E_8), and for every l when n = 1 (A_l).  The monoidal
categorification of C_l is proven (Qin, Duke Math. J. 166, 2017;
Kashiwara-Kim-Oh-Park, Compos. Math. 156, 2020), and in finite type the
cluster monomials are the simple modules, so the primes are again the
cluster and frozen variables: almost positive roots plus n.  With every
exponent up to e_max = 2, the census gives, under both parities:

| (n, l) | Primes / bound | SV | TVC | DN | TOL | NotPrime | Unknown |
| --- | --- | --- | --- | --- | --- | --- | --- |
| (1, 2) | 6 / 6 | 6 | 0 | 0 | 0 | 20 | 0 |
| (1, 3) | 10 / 10 | 10 | 0 | 0 | 0 | 70 | 0 |
| (2, 2) | 18 / 18 | 12 | 6 | 0 | 0 | 681 | 29 |
| (2, 3) | 44 / 44 | 20 | 20 | 2 | 2 | 6,311 | 205 |
| (3, 2) | 37 floor / 45 | 18 | 15 | 4 | 0 | 18,641 | 1,004 |
| (2, 4) | 120 floor / 130 | 30 | 50 | 23 | 17 | 57,487 | 1,441 |

(SV SingleVertex, TVC TwoVertexConnected, DN DualNeighborhood, TOL
TotallyOrderedLine.)  The rows (3, 2) and (2, 4) are floors, not the
truth: the certificates reach 37 of 45 and 120 of 130 primes, the others
are Unknown here or need an exponent above 2.  Their asserts pin the
count reached today; a count above the bound is a false Prime.

A_5 of C_1 takes 11-16 s a parity, and (3, 2) and (2, 4) about 16 s
together, so tier 1 runs A_1-A_4 of C_1 and the four exact C_l rows
under both parities, and CI runs ``check_c1(5, parity)`` for both
parities and ``check_cl`` on (3, 2) and (2, 4) under parity 0.
"""

from __future__ import annotations

import itertools
from collections import Counter

import pytest

from qfactgraph import DrinfeldPoly, DynkinA, KRFactor, build_graph, classify, q_factorize

C1_VERDICTS = {
    1: {"SingleVertex": 3, "NotPrime": 5},
    2: {"SingleVertex": 6, "TwoVertexConnected": 1, "NotPrime": 70, "Unknown": 3},
    3: {"SingleVertex": 9, "TwoVertexConnected": 2, "DualNeighborhood": 1, "NotPrime": 703,
        "Unknown": 13},
    4: {"SingleVertex": 12, "TwoVertexConnected": 3, "DualNeighborhood": 3, "NotPrime": 6504,
        "Unknown": 38},
    5: {"SingleVertex": 15, "TwoVertexConnected": 4, "DualNeighborhood": 6, "NotPrime": 58929,
        "Unknown": 94},
}

# C_l past C_1, with e_max 2: (cluster + frozen variables, the distinct
# Primes the certificates reach, the verdict table).  (3, 2) and (2, 4)
# reach fewer Primes than the truth, so their counts are floors.
CL_CENSUS = {
    (1, 2): (6, 6, {"SingleVertex": 6, "NotPrime": 20}),
    (1, 3): (10, 10, {"SingleVertex": 10, "NotPrime": 70}),
    (2, 2): (18, 18, {"SingleVertex": 12, "TwoVertexConnected": 6, "NotPrime": 681,
                      "Unknown": 29}),
    (2, 3): (44, 44, {"SingleVertex": 20, "TwoVertexConnected": 20, "DualNeighborhood": 2,
                      "TotallyOrderedLine": 2, "NotPrime": 6311, "Unknown": 205}),
    (3, 2): (45, 37, {"SingleVertex": 18, "TwoVertexConnected": 15, "DualNeighborhood": 4,
                      "NotPrime": 18641, "Unknown": 1004}),
    (2, 4): (130, 120, {"SingleVertex": 30, "TwoVertexConnected": 50, "DualNeighborhood": 23,
                        "TotallyOrderedLine": 17, "NotPrime": 57487, "Unknown": 1441}),
}


def cl_census(n: int, l: int, parity: int, e_max: int) -> tuple[Counter, int]:
    """The verdicts of every product of the factors ``i:xi_i+2k:1`` of C_l
    on A_n (0 <= k <= l), each to an exponent up to e_max, bar the empty
    one, counted by certificate (Prime) or outcome (NotPrime, Unknown), and
    the number of distinct Prime polynomials."""
    d = DynkinA(n)
    factors = [KRFactor(i, (i + parity) % 2 + 2 * k, 1) for i in d.nodes for k in range(l + 1)]
    verdicts, primes = Counter(), set()
    for exponents in itertools.product(range(e_max + 1), repeat=len(factors)):
        if not any(exponents):
            continue
        poly = q_factorize(DrinfeldPoly(d, tuple(
            f for f, e in zip(factors, exponents) for _ in range(e)
        )))
        verdict = classify(build_graph(poly))
        verdicts[verdict.certificate or verdict.outcome] += 1
        if verdict.outcome == "Prime":
            primes.add(poly)
    return verdicts, len(primes)


def check_cl(n: int, l: int, parity: int) -> None:
    if l == 1:
        cluster_count = reached = n * (n + 3) // 2 + n
        table = C1_VERDICTS[n]
    else:
        cluster_count, reached, table = CL_CENSUS[n, l]
    verdicts, primes = cl_census(n, l, parity, 2)
    assert primes <= cluster_count, "more primes than C_l has: a Prime verdict is wrong"
    assert primes == reached, "fewer primes than the certificates reached: a prime went undecided"
    assert verdicts == table


def check_c1(n: int, parity: int) -> None:
    check_cl(n, 1, parity)


@pytest.mark.parametrize("parity", (0, 1))
@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_c1_primes_are_the_cluster_variables(n, parity):
    check_c1(n, parity)


@pytest.mark.parametrize("parity", (0, 1))
@pytest.mark.parametrize("n, l", ((1, 2), (1, 3), (2, 2), (2, 3)))
def test_cl_primes_are_the_cluster_variables(n, l, parity):
    check_cl(n, l, parity)
