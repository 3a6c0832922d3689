"""Seeded input generators for the four benchmark workloads.

A workload is a fixed list of slots; a slot names a generator and its size
parameters. Every slot has ``VARIANTS`` variants, and variant ``v`` of slot
``k`` is generated from its own ``random.Random`` keyed by
``(workload, k, v)``. A run's inputs are one variant per slot, drawn from
the workload seed. So the inputs of any seed come from a finite pool, and
``record.py`` stores the reference output of every pool member: every run,
whatever its seed, is checked byte for byte against the seed code.

The slot lists fix the size mix of a run, so two seeds load the same layers
by the same amount and differ only in the shapes the generators draw.

Each request is ``(rank, text)``: the benchmark sends
``verdict --rank <rank> <text>``. Generators use closed forms of their own
(``_linked``, ``_interacts``) rather than the library, so the library sees
only the generated text; ``family-mix`` alone builds its polynomials with
``qfactgraph.families``, which is the layer ``families.generate.s`` times.
"""

from __future__ import annotations

import random

from qfactgraph import (
    DynkinA,
    SkewShape,
    Snake,
    poly_to_text,
    shift,
    skew_to_poly,
    snake_to_poly,
    tournament_family,
)

VARIANTS = 16

# A factor is (color, center, length); every generated factor has coset 0.


def _rset_bounds(n: int, i: int, j: int, r: int, s: int) -> tuple[int, int]:
    """Bounds of the reducibility set of (i, r), (j, s) over A_n (step 2)."""
    d = abs(i - j)
    bd = min(min(i, j) - 1, n - max(i, j))
    return abs(r - s) + d + 2, r + s + d + 2 * bd


def _linked(n: int, a: tuple, b: tuple) -> bool:
    lo, hi = _rset_bounds(n, a[0], b[0], a[2], b[2])
    gap = abs(a[1] - b[1])
    return lo <= gap <= hi and (gap - lo) % 2 == 0


def _interacts(a: tuple, b: tuple) -> bool:
    """Same-color strings that break the q-factorization condition."""
    if a[0] != b[0]:
        return False
    gap = abs(a[1] - b[1])
    hi = a[2] + b[2]
    return abs(a[2] - b[2]) + 2 <= gap <= hi and (hi - gap) % 2 == 0


def _fits(factors: list, new: tuple) -> bool:
    return not any(_interacts(f, new) for f in factors)


def _text(factors) -> str:
    return " ".join(f"{c}:{m}:{r}" for c, m, r in sorted(factors))


def _totally_ordered(n: int, factors: list) -> bool:
    """Every pair comparable along arrows, which run from the higher center
    to the lower one: the strict order then has k(k-1)/2 pairs."""
    k = len(factors)
    below = [0] * k
    order = sorted(range(k), key=lambda v: factors[v][1])
    for pos, v in enumerate(order):
        for w in order[:pos]:
            if factors[v][1] > factors[w][1] and _linked(n, factors[v], factors[w]):
                below[v] |= (1 << w) | below[w]
    return sum(bin(b).count("1") for b in below) == k * (k - 1) // 2


def _grow(rng: random.Random, n: int, size: int, max_len: int, base: int = 0) -> list:
    """A connected q-factorization: each new factor is attached to an
    existing one at a gap drawn from their reducibility set."""
    factors = [(rng.randint(1, n), base, rng.randint(1, max_len))]
    while len(factors) < size:
        anchor = rng.choice(factors)
        color, length = rng.randint(1, n), rng.randint(1, max_len)
        lo, hi = _rset_bounds(n, anchor[0], color, anchor[2], length)
        gap = lo + 2 * rng.randint(0, (hi - lo) // 2)
        new = (color, anchor[1] + rng.choice((-gap, gap)), length)
        if _fits(factors, new):
            factors.append(new)
    return factors


def _snake(rng: random.Random, n: int, size: int, max_len: int) -> list:
    """A chain whose consecutive factors are linked, centers increasing, so
    the graph is connected and totally ordered."""
    factors = [(rng.randint(1, n), 0, rng.randint(1, max_len))]
    while len(factors) < size:
        prev = factors[-1]
        color, length = rng.randint(1, n), rng.randint(1, max_len)
        lo, hi = _rset_bounds(n, prev[0], color, prev[2], length)
        new = (color, prev[1] + lo + 2 * rng.randint(0, (hi - lo) // 2), length)
        if _fits(factors[-2 * max_len :], new):
            factors.append(new)
    return factors


# Every workload has a hundred slots, so one pass of a run holds a hundred
# distinct requests: a run then samples the pool widely enough that its
# medians and percentiles hardly depend on the seed.

# The slots of a workload fall into size classes. Each class is wide, and
# the median and the 90th percentile of request cost fall near the middle
# of one, so jitter between neighbouring requests cannot move them far.

# graph-scale: A_10, 50-200 factors; even slots are clusters, odd slots
# ordered chains. The median falls in the 80 class, the 90th percentile in
# the 160 class.

GRAPH_RANK = 10
_GRAPH_SIZES = (50,) * 35 + (80,) * 30 + (120,) * 15 + (160,) * 15 + (200,) * 5
_CLUSTER_SPACING = 400  # far beyond any reducibility gap on A_10 with lengths <= 3


def _clusters(rng: random.Random, size: int) -> list:
    """Many small connected clusters, spaced so that none links another."""
    factors: list = []
    k = 0
    while len(factors) < size:
        part = min(rng.randint(2, 6), size - len(factors))
        factors += _grow(rng, GRAPH_RANK, part, 3, base=k * _CLUSTER_SPACING)
        k += 1
    return factors


def _graph_scale(k: int, rng: random.Random) -> tuple[int, str]:
    size = _GRAPH_SIZES[k]
    if k % 2 == 0:
        factors = _clusters(rng, size)
    else:
        # Alternate prime snakes with thick snakes (lengths 1-3), whose wider
        # reducibility sets link many non-consecutive pairs, as tournaments
        # do; true tournaments need rank >= 3N - 4, so A_10 caps them at 4.
        factors = _snake(rng, GRAPH_RANK, size, 1 if k % 4 == 1 else 3)
    return GRAPH_RANK, _text(factors)


# cut-search: 9-13 vertices over A_3-A_7, connected and not totally ordered.
# The median falls in the 11 class, the 90th percentile in the 13 class.

_CUT_SIZES = (9,) * 20 + (10,) * 20 + (11,) * 22 + (12,) * 20 + (13,) * 18


def _cut_search(k: int, rng: random.Random) -> tuple[int, str]:
    rank = 3 + k % 5
    while True:
        factors = _grow(rng, rank, _CUT_SIZES[k], 2)
        if not _totally_ordered(rank, factors):
            return rank, _text(factors)


# long-strings: 9 factors, three strings on each of 3 colors, whose roots
# overlap within a color. A slot fixes the total root count; the strings
# of a color form a staircase, each starting halfway along the previous one
# in the same parity class, so run peeling must re-cut them and the number
# of peels, which sets the cost, is the same for every variant. String
# lengths run from about 450 to 23,000. The median falls in the 64k class,
# the 90th percentile in the 200k class.

_LONG_TOTALS = (
    (4_000,) * 10
    + (8_000,) * 10
    + (16_000,) * 10
    + (32_000,) * 10
    + (64_000,) * 20
    + (100_000,) * 20
    + (200_000,) * 20
)


def _long_strings(k: int, rng: random.Random) -> tuple[int, str]:
    rank = 3 + k % 3
    base = _LONG_TOTALS[k] // 9
    factors = []
    for color in rng.sample(range(1, rank + 1), 3):
        start = 2 * rng.randint(-base, base)  # the lowest root; even for every string
        for _ in range(3):
            length = base + rng.randint(0, base // 20)
            factors.append((color, start + length - 1, length))
            start += 2 * (length // 2 + rng.randint(0, base // 50))
    return rank, _text(factors)


# family-mix: many small requests from the named families and small grown
# graphs. Slot k cycles through five kinds; k // 5 sets the kind's size.


def _family_mix(k: int, rng: random.Random) -> tuple[int, str]:
    kind, size = k % 5, k // 5
    if kind == 0:
        big_n = 3 + size % 6
        poly = tournament_family(big_n, 3 * big_n - 4 + rng.randint(0, 3))
        return poly.rank.n, poly_to_text(shift(poly, rng.randint(-20, 20)))
    if kind == 1:
        rank = 3 + size % 4
        factors = _snake(rng, rank, 4 + size % 9, 1)
        points = tuple((c, m) for c, m, _ in factors)
        return rank, poly_to_text(snake_to_poly(Snake(DynkinA(rank), points)))
    if kind == 2:
        rank, rows = 2 + size % 2, 1 + size % 2
        lam = sorted((rng.randint(0, 8) for _ in range(rows + rank)), reverse=True)
        mu: list = []
        for j in range(rows - 1):
            top = min(lam[j], mu[-1]) if mu else lam[j]
            mu.append(rng.randint(lam[j + rank + 1], top))
        poly, _ = skew_to_poly(SkewShape(DynkinA(rank), tuple(lam), tuple(mu)))
        return rank, poly_to_text(poly)
    if kind == 3:
        rank = 3 + size % 3
        return rank, _text(_grow(rng, rank, 4 + size % 5, 2))
    # Four vertices on A_4 or A_5: about a fifth of the graphs that reach
    # the cut stage there are settled by the dual certificate, which then
    # walks every cut; at 8 vertices it is one in a hundred.
    rank = 4 + size % 2
    return rank, _text(_grow(rng, rank, 4, 2))


_SLOTS = {
    "graph-scale": (len(_GRAPH_SIZES), _graph_scale),
    "cut-search": (len(_CUT_SIZES), _cut_search),
    "long-strings": (len(_LONG_TOTALS), _long_strings),
    "family-mix": (100, _family_mix),
}


def slot_count(workload: str) -> int:
    return _SLOTS[workload][0]


def generate(workload: str, slot: int, variant: int) -> tuple[int, str]:
    """The request for one pool member; deterministic in its arguments."""
    rng = random.Random(f"{workload}/{slot}/{variant}")
    return _SLOTS[workload][1](slot, rng)


def variants(workload: str, seed: int) -> list[int]:
    """One variant index per slot, drawn from the workload seed."""
    rng = random.Random(f"{workload}#{seed}")
    return [rng.randrange(VARIANTS) for _ in range(slot_count(workload))]


def requests(workload: str, seed: int) -> list[tuple[int, str]]:
    """The run's requests, in slot order (smallest slots first)."""
    return [generate(workload, k, v) for k, v in enumerate(variants(workload, seed))]
