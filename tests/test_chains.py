"""The chain audit on every small chain.

A chain here starts at center 0, has lengths 1-3 and colors in the
diagram, and each consecutive gap is drawn from its pair's reducibility
set (the reference ``oracles.rset``), so ``_check_chain`` accepts it.  On
every such chain ``chain_arrow_closure`` reports no violation, and the
p-matrix it builds raises no ``NonIntegralP``: both closure implications
hold.

Vacuity guards, on A_1-A_5 with 2-3 entries: the "should be linked"
premise holds on 17,088 pairs, and the extreme pair is interval-linked on
1,185 chains of 3 entries, so both implications are exercised.  Mutated
checks flag chains: ``in_interval`` read for ``in_full`` (1,959 here,
2,379 on FULL), the extreme pair read as ``pairs[0]`` (17,463 and 56,053),
and the premise bound ``- 3`` for ``- 1`` (13,249 on FULL only).  Two
mutations flag none: the bound ``+ 1`` for ``- 1``, and a span widened by
one node on the left.

| A_n | entries | chains |
| --- | --- | --- |
| 1-5 | 2-3 | 23,612 (tier 1, about 1.5 s) |
| 1-3 | 2-4 | 64,713 with A_4-A_5 at 2-3 (CI, about 7 s) |

Tier 1 runs the first row; CI runs ``check_chain_census(FULL)`` on its own.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator

import oracles
from qfactgraph import DynkinA, chain_arrow_closure

TIER1 = {n: 3 for n in range(1, 6)}  # rank -> most entries
FULL = {1: 4, 2: 4, 3: 4, 4: 3, 5: 3}
LENGTHS = (1, 2, 3)


def chains(d: DynkinA, entries: int) -> Iterator[list[tuple[int, int, int]]]:
    """Every chain of (center, length, color) entries on d with first
    center 0 and each consecutive gap in its pair's reducibility set."""

    def grow(chain):
        if len(chain) == entries:
            yield chain
            return
        m0, r0, i0 = chain[-1]
        for r in LENGTHS:
            for i in d.nodes:
                for gap in oracles.rset(d, i0, i, r0, r):
                    yield from grow(chain + [(m0 + gap, r, i)])

    for r in LENGTHS:
        for i in d.nodes:
            yield from grow([(0, r, i)])


def chain_census(sizes: dict[int, int]) -> Counter:
    """The audit of every chain of 2 to sizes[n] entries on each A_n:
    chains seen, chains with a violation, pairs whose "should be linked"
    premise holds and 3-entry chains whose extreme pair is interval-linked."""
    counts = Counter()
    for n, most in sizes.items():
        d = DynkinA(n)
        for entries in range(2, most + 1):
            for chain in chains(d, entries):
                report = chain_arrow_closure(d, chain)
                extreme = report.pairs[entries - 2]  # the pair (1, entries)
                counts["chains"] += 1
                counts["violations"] += not report.ok
                for pair in report.pairs:
                    ik, il = chain[pair.k - 1][2], chain[pair.l - 1][2]
                    bound = -min(min(ik, il) - 1, n - max(ik, il)) - 1
                    counts["premises"] += pair is not extreme and extreme.p >= bound
                counts["extreme_linked"] += entries == 3 and extreme.in_interval
    return counts


def check_chain_census(sizes: dict[int, int]) -> Counter:
    counts = chain_census(sizes)
    assert counts["violations"] == 0, "a valid chain breaks a closure implication"
    return counts


def test_chain_audit_holds_on_every_small_chain():
    counts = check_chain_census(TIER1)
    assert counts == {"chains": 23612, "violations": 0, "premises": 17088, "extreme_linked": 1185}
