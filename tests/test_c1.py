"""C_1: an exhaustive external truth for every verdict kind.

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

A_5 takes about 15 s, so tier 1 runs A_1-A_4 under both parities and CI
runs ``check_c1(5, 0)`` on its own.
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


def c1_census(n: int, parity: int) -> tuple[Counter, int]:
    """The verdicts of every case of C_1 on A_n, counted by certificate
    (Prime) or outcome (NotPrime, Unknown), and the number of distinct
    Prime polynomials."""
    d = DynkinA(n)
    factors = [KRFactor(i, (i + parity) % 2 + shift, 1) for i in d.nodes for shift in (0, 2)]
    verdicts, primes = Counter(), set()
    for exponents in itertools.product(range(3), repeat=2 * n):
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


def check_c1(n: int, parity: int) -> None:
    verdicts, primes = c1_census(n, parity)
    cluster_count = n * (n + 3) // 2 + n
    assert primes <= cluster_count, "more primes than C_1 has: a Prime verdict is wrong"
    assert primes == cluster_count, "fewer primes than C_1 has: a prime went undecided"
    assert verdicts == C1_VERDICTS[n]


@pytest.mark.parametrize("parity", (0, 1))
@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_c1_primes_are_the_cluster_variables(n, parity):
    check_c1(n, parity)
