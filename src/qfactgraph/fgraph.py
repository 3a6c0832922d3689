"""Decorated directed graphs built from pseudo factorizations.

Vertices are KR factors (color, center, weight = length, coset); arrows
carry a positive exponent that must equal the center difference of their
endpoints, so path compatibility of exponents is structural and the graph
is acyclic by construction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Sequence

from .dynkin import DynkinA, reducibility_bounds
from .errors import (
    CyclicGraph,
    InvalidVertex,
    RankMismatch,
    TooManyVertices,
)
from .lweight import DrinfeldPoly, KRFactor, forced_pairs, q_factorize

__all__ = [
    "Arrow",
    "FactGraph",
    "Cut",
    "ValidationFailure",
    "ValidationReport",
    "TensorResult",
    "build_graph",
    "to_polynomial",
    "validate",
    "subgraph",
    "connected_components",
    "partial_order",
    "descendants",
    "ancestors",
    "is_totally_ordered",
    "sinks",
    "sources",
    "is_tournament",
    "is_tree",
    "is_line",
    "is_monotonic_line",
    "cuts",
    "arrow_dual",
    "color_dual",
    "transitive_reduction",
    "graph_tensor",
    "canonical",
    "isomorphic",
    "graph_to_json_obj",
    "graph_to_dot",
]


_CUT_CAP = 20  # the most vertices whose 2^(n-1) - 1 cuts are walked


class Arrow(NamedTuple):
    tail: int
    head: int
    exp: int


@dataclass(frozen=True)
class FactGraph:
    rank: DynkinA
    vertices: Mapping[int, KRFactor]
    arrows: tuple[Arrow, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", MappingProxyType(dict(self.vertices)))
        arrows = tuple(sorted(Arrow(*a) for a in self.arrows))
        for a in arrows:
            if a.tail not in self.vertices or a.head not in self.vertices:
                raise ValueError(f"arrow {a} references a missing vertex")
        object.__setattr__(self, "arrows", arrows)

    def ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.vertices))

    def vertex(self, v: int) -> KRFactor:
        try:
            return self.vertices[v]
        except KeyError:
            raise InvalidVertex(f"vertex {v!r} is not in the graph") from None

    @cached_property
    def arrow_map(self) -> Mapping[tuple[int, int], Arrow]:
        return MappingProxyType({(a.tail, a.head): a for a in self.arrows})

    @cached_property
    def out_adj(self) -> Mapping[int, tuple[int, ...]]:
        """Read-only view of masks.out: the heads of each vertex's arrows."""
        return MappingProxyType(dict(zip(self.masks.ids, map(self.masks.members, self.masks.out))))

    @cached_property
    def in_adj(self) -> Mapping[int, tuple[int, ...]]:
        """Read-only view of masks.inn: the tails of each vertex's arrows."""
        return MappingProxyType(dict(zip(self.masks.ids, map(self.masks.members, self.masks.inn))))

    @cached_property
    def _forced(self) -> tuple[Arrow, ...]:
        """The arrows construction forces on these vertices; build_graph hands its own over."""
        return tuple(_forced_arrows(self.rank, [(v, self.vertices[v]) for v in self.ids()]))

    @cached_property
    def masks(self) -> BitMasks:
        """The adjacency as int masks, built on first use; every order and
        cut algorithm of the package reads the graph through them."""
        return BitMasks(self)


@dataclass(frozen=True)
class Cut:
    left: frozenset[int]
    right: frozenset[int]


def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _closure(step: tuple[int, ...], start: int, side: int) -> int:
    """The mask start and every vertex of side reachable from it along the
    step masks (out: descendants, inn: ancestors, nbr: the component)
    without leaving side."""
    seen = frontier = start
    while frontier:
        reach = 0
        for j in _bits(frontier):
            reach |= step[j]
        frontier = reach & side & ~seen
        seen |= frontier
    return seen


class BitMasks:
    """A graph's adjacency on int masks: vertex ``ids[k]`` (the k-th of
    ``g.ids()``) is bit k.  They back the whole order structure (components,
    reachability, the order check, the Hasse reduction) and the cut stage.

    ``out[k]`` is the mask of the heads of the arrows leaving ``ids[k]``,
    ``inn[k]`` that of the tails of the arrows entering it and ``nbr[k]``
    their union.
    """

    def __init__(self, g: FactGraph) -> None:
        self.ids = ids = g.ids()
        self.index = index = {v: k for k, v in enumerate(ids)}
        out = [0] * len(ids)
        inn = [0] * len(ids)
        for a in g.arrows:
            out[index[a.tail]] |= 1 << index[a.head]
            inn[index[a.head]] |= 1 << index[a.tail]
        self.out = tuple(out)
        self.inn = tuple(inn)
        self.nbr = tuple(o | i for o, i in zip(out, inn))
        self.full = (1 << len(ids)) - 1
        self._arrows = g.arrows

    @cached_property
    def arrow_bits(self) -> tuple[tuple[int, int], ...]:
        """The (tail bit, head bit) of every arrow of g.arrows, in order;
        built on first use, since only the cut stage reads it."""
        return tuple((self.index[a.tail], self.index[a.head]) for a in self._arrows)

    def members(self, mask: int) -> tuple[int, ...]:
        """The vertex ids of the bits of mask, ascending."""
        return tuple(self.ids[k] for k in _bits(mask))

    def lefts(self) -> range:
        """The left sides of the cuts, in the order cuts() yields them: the
        first vertex is always on the left, and the other bits count up."""
        n = len(self.ids)
        if n > _CUT_CAP:
            raise TooManyVertices(f"{n} vertices exceed the cut cap {_CUT_CAP}")
        return range(1, self.full, 2)

    def cut(self, left: int) -> Cut:
        """The cut whose left side is the mask left."""
        return Cut(frozenset(self.members(left)), frozenset(self.members(self.full ^ left)))


def _forced_arrows(rank: DynkinA, items: Sequence[tuple[int, KRFactor]]) -> list[Arrow]:
    """The forced pairs of the (id, factor) items (lweight.forced_pairs) as
    arrows between their ids, in (tail, head) id order."""
    pairs = forced_pairs(rank, [f for _, f in items])
    return sorted(Arrow(items[k][0], items[l][0], gap) for k, l, gap in pairs)


def _graph_from_factors(
    rank: DynkinA, factors: tuple[KRFactor, ...], arrows: Sequence[tuple[int, int, int]]
) -> FactGraph:
    """The graph on the factors' positions with the arrows construction
    forced on them, handed over to validate as its _forced."""
    g = FactGraph(rank, dict(enumerate(factors)), arrows)
    object.__setattr__(g, "_forced", g.arrows)
    return g


def build_graph(p: DrinfeldPoly) -> FactGraph:
    """Graph of a (pseudo) factorization: one vertex per factor, and as
    arrows p's forced pairs, the ordered pairs whose tensor product is
    reducible and highest-weight-ordered (q_factorize's self-check has
    scanned them when p is its result).  Canonical input yields the
    q-factorization graph of the polynomial.  Vertex k is the k-th
    factor in the sorted order p keeps, so the graph is canonical()."""
    return _graph_from_factors(p.rank, p.factors, p._forced)


def to_polynomial(g: FactGraph) -> DrinfeldPoly:
    """Read the factor multiset off the vertices."""
    return DrinfeldPoly(g.rank, tuple(g.vertices.values()))


@dataclass(frozen=True)
class ValidationFailure:
    kind: str
    vertices: tuple[int, ...]
    message: str


@dataclass(frozen=True)
class ValidationReport:
    level: str
    failures: tuple[ValidationFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def first(self) -> ValidationFailure | None:
        return self.failures[0] if self.failures else None


_LEVELS = ("prefact", "pseudo", "qfact")


def validate(g: FactGraph, level: str = "qfact") -> ValidationReport:
    """Check graph invariants at the requested level.

    prefact: structural invariants (colors in the diagram, positive
    exponents matching center differences, one arrow per pair,
    coset-pure arrows).  pseudo: a diff against construction; every
    arrow that build_graph forces on the graph's own vertices and ids
    but the graph lacks is a missing-arrow, and every graph arrow that
    construction does not give is an unjustified-arrow (its exponent
    lies outside the pair's reducibility set).  qfact: no same-color,
    same-coset pair interacts.  Past pseudo the arrows are the forced
    pairs, so by the argument of lweight.is_q_factorization the arrows of
    one color with exponent at most r + s are the violations.
    Deleting a bridge arrow cannot mask a violation: pseudo reports it
    missing.  Levels are cumulative; failures are reported, never raised.
    """
    if level not in _LEVELS:
        raise ValueError(f"level must be one of {_LEVELS}, got {level!r}")
    fails: list[ValidationFailure] = []
    n = g.rank.n
    for vid in g.ids():
        v = g.vertices[vid]
        if not 1 <= v.color <= n:
            fails.append(
                ValidationFailure("bad-color", (vid,), f"color {v.color!r} not in 1..{n}")
            )
    seen_pairs: set[frozenset[int]] = set()
    for a in g.arrows:
        t, h = g.vertices[a.tail], g.vertices[a.head]
        if a.tail == a.head:
            fails.append(ValidationFailure("self-loop", (a.tail,), "loop arrow"))
            continue
        pair = frozenset((a.tail, a.head))
        if pair in seen_pairs:
            fails.append(
                ValidationFailure(
                    "duplicate-pair-arrow", (a.tail, a.head), "second arrow on the pair"
                )
            )
        seen_pairs.add(pair)
        if t.coset != h.coset:
            fails.append(
                ValidationFailure(
                    "cross-coset-arrow", (a.tail, a.head), "arrow joins distinct cosets"
                )
            )
        if a.exp < 1 or a.exp != t.center - h.center:
            fails.append(
                ValidationFailure(
                    "bad-exponent",
                    (a.tail, a.head),
                    f"exponent {a.exp} != positive center gap {t.center - h.center}",
                )
            )
    if fails or level == "prefact":
        return ValidationReport(level, tuple(fails))

    # With the prefact invariants in place, an arrow is fixed by its pair,
    # so comparing (tail, head, exp) triples is the pairwise check.
    for a in g._forced:
        if (a.tail, a.head) not in g.arrow_map:
            fails.append(
                ValidationFailure(
                    "missing-arrow",
                    (a.tail, a.head),
                    f"center gap {a.exp} forces an arrow from {a.tail} to {a.head}",
                )
            )
    forced_set = set(g._forced)
    for a in g.arrows:
        if a not in forced_set:
            fails.append(
                ValidationFailure(
                    "unjustified-arrow",
                    (a.tail, a.head),
                    f"exponent {a.exp} is outside the pair's reducibility set",
                )
            )
    if fails or level == "pseudo":
        return ValidationReport(level, tuple(fails))

    for u, w, gap in sorted((min(a.tail, a.head), max(a.tail, a.head), a.exp) for a in g.arrows):
        vu, vw = g.vertices[u], g.vertices[w]
        c = vu.color
        lo, hi = reducibility_bounds(c, c, vu.length, vw.length, c, c)
        if vw.color == c and gap <= hi:
            fails.append(
                ValidationFailure(
                    "qfact-violation",
                    (u, w),
                    f"|{vu.center - vw.center}| = {gap} lies in the same-color reducibility set "
                    f"from {lo} to {hi} in steps of 2 for color {c}",
                )
            )
    return ValidationReport(level, tuple(fails))


def subgraph(g: FactGraph, ids) -> FactGraph:
    """Induced subgraph on a vertex id subset; ids are preserved."""
    keep = set(ids)
    for v in keep:
        g.vertex(v)
    vertices = {v: g.vertices[v] for v in keep}
    arrows = tuple(a for a in g.arrows if a.tail in keep and a.head in keep)
    return FactGraph(g.rank, vertices, arrows)


def _component_masks(m: BitMasks) -> Iterator[int]:
    """The component masks by lowest bit, each the nbr closure of the lowest vertex left."""
    rest = m.full
    while rest:
        comp = _closure(m.nbr, rest & -rest, rest)
        rest ^= comp
        yield comp


def connected_components(g: FactGraph) -> list[FactGraph]:
    """The components as induced subgraphs, by smallest id; one pass deals the arrows out."""
    m = g.masks
    parts = [m.members(comp) for comp in _component_masks(m)]
    owner = {v: c for c, ids in enumerate(parts) for v in ids}
    arrows: list[list[Arrow]] = [[] for _ in parts]
    for a in g.arrows:
        arrows[owner[a.tail]].append(a)
    vertices = ({v: g.vertices[v] for v in ids} for ids in parts)
    return [FactGraph(g.rank, vs, tuple(arr)) for vs, arr in zip(vertices, arrows)]


def _strict_closure(g: FactGraph, step: tuple[int, ...], v: int) -> frozenset[int]:
    g.vertex(v)
    m = g.masks
    k = m.index[v]
    return frozenset(m.members(_closure(step, step[k], m.full) & ~(1 << k)))


def descendants(g: FactGraph, v: int) -> frozenset[int]:
    """Vertices strictly below v: reachable from v along arrows."""
    return _strict_closure(g, g.masks.out, v)


def ancestors(g: FactGraph, v: int) -> frozenset[int]:
    """Vertices strictly above v: those with a directed path into v."""
    return _strict_closure(g, g.masks.inn, v)


def _topological(m: BitMasks) -> tuple[list[int], bool]:
    """Kahn's topological sort of the bits: the order, and whether every
    step had exactly one ready vertex.  Raises CyclicGraph when the sort
    cannot reach every vertex."""
    indegree = [i.bit_count() for i in m.inn]
    ready = [k for k, d in enumerate(indegree) if not d]
    order, chain = [], True
    while ready:
        chain = chain and len(ready) == 1
        k = ready.pop()
        order.append(k)
        for j in _bits(m.out[k]):
            indegree[j] -= 1
            if not indegree[j]:
                ready.append(j)
    left = len(indegree) - len(order)
    if left:
        raise CyclicGraph(f"{left} vertices lie on or below an oriented cycle")
    return order, chain


def _below(m: BitMasks) -> list[int]:
    """below[k]: the mask of the vertices strictly below bit k, in one pass
    in reverse topological order.  Every out-neighbour of k comes after k
    in that order, so its below mask is complete when k is reached."""
    below = [0] * len(m.ids)
    for k in reversed(_topological(m)[0]):
        for w in _bits(m.out[k]):
            below[k] |= 1 << w | below[w]
    return below


def partial_order(g: FactGraph) -> frozenset[tuple[int, int]]:
    """Strict order induced by arrows: pairs (u, w) with u above w."""
    m = g.masks
    return frozenset(
        (u, w) for u, mask in zip(m.ids, _below(m)) for w in m.members(mask)
    )


def is_totally_ordered(g: FactGraph) -> bool:
    """True iff every pair of vertices is comparable; disconnected graphs
    are never totally ordered.  Kahn's topological sort decides it in
    O(V + E): the order is total iff every step has exactly one ready
    vertex.  Raises CyclicGraph when the sort cannot reach every vertex."""
    return len(g.vertices) <= 1 or _topological(g.masks)[1]


def sinks(g: FactGraph) -> frozenset[int]:
    m = g.masks
    return frozenset(v for v, o in zip(m.ids, m.out) if not o)


def sources(g: FactGraph) -> frozenset[int]:
    m = g.masks
    return frozenset(v for v, i in zip(m.ids, m.inn) if not i)


def is_tournament(g: FactGraph) -> bool:
    m = g.masks
    return all(x | 1 << k == m.full for k, x in enumerate(m.nbr))


def is_tree(g: FactGraph) -> bool:
    m = g.masks
    return list(_component_masks(m)) == [m.full] and len(g.arrows) == len(m.ids) - 1


def is_line(g: FactGraph) -> bool:
    """A tree with no vertex of undirected valence >= 3."""
    return is_tree(g) and all(x.bit_count() <= 2 for x in g.masks.nbr)


def is_monotonic_line(g: FactGraph) -> bool:
    """A line all of whose arrows point the same way along it."""
    m = g.masks
    return is_line(g) and all(
        o.bit_count() <= 1 and i.bit_count() <= 1 for o, i in zip(m.out, m.inn)
    )


def cuts(g: FactGraph) -> Iterator[Cut]:
    """All unordered nontrivial bipartitions of the vertices."""
    masks = g.masks
    return map(masks.cut, masks.lefts())


def arrow_dual(g: FactGraph) -> FactGraph:
    """Reverse every arrow and negate every center; an involution."""
    vertices = {v: replace(vert, center=-vert.center) for v, vert in g.vertices.items()}
    arrows = tuple(Arrow(a.head, a.tail, a.exp) for a in g.arrows)
    return FactGraph(g.rank, vertices, arrows)


def color_dual(g: FactGraph) -> FactGraph:
    """Apply the diagram involution to every color; arrows are unchanged."""
    vertices = {
        v: replace(vert, color=g.rank.star(vert.color)) for v, vert in g.vertices.items()
    }
    return FactGraph(g.rank, vertices, g.arrows)


def transitive_reduction(g: FactGraph) -> tuple[Arrow, ...]:
    """Minimal arrow subset with the same transitive closure: an arrow
    t->h is redundant iff h lies below another out-neighbour of t."""
    m = g.masks
    below = _below(m)  # raises CyclicGraph on bad input
    keep = []
    for a in g.arrows:
        h = m.index[a.head]
        others = m.out[m.index[a.tail]] & ~(1 << h)
        if not any(below[w] >> h & 1 for w in _bits(others)):
            keep.append(a)
    return tuple(keep)


@dataclass(frozen=True)
class TensorResult:
    graph: FactGraph
    origin: tuple[str, ...]
    dissociate: bool


def graph_tensor(g: FactGraph, h: FactGraph) -> TensorResult:
    """Graph of the combined factor multiset, with vertices tagged by origin.

    The dissociate flag records whether the canonical factorization of the
    product is the disjoint union of the two canonical factorizations; only
    then does the combined graph agree with the graph of the product.
    """
    if g.rank != h.rank:
        raise RankMismatch(f"graphs over A_{g.rank.n} and A_{h.rank.n}")
    fg = tuple(g.vertices[v] for v in g.ids())
    fh = tuple(h.vertices[v] for v in h.ids())
    product = DrinfeldPoly(g.rank, fg + fh)  # checks the colors
    items = tuple(enumerate(fg + fh))
    combined = _graph_from_factors(g.rank, fg + fh, _forced_arrows(g.rank, items))
    origin = ("left",) * len(fg) + ("right",) * len(fh)
    separate = Counter(q_factorize(to_polynomial(g)).factors) + Counter(
        q_factorize(to_polynomial(h)).factors
    )
    dissociate = Counter(q_factorize(product).factors) == separate
    return TensorResult(combined, origin, dissociate)


def _normalized_component_form(g: FactGraph):
    forms = []
    for comp in connected_components(g):
        base = min(f.center for f in comp.vertices.values())
        vertices = {v: replace(f, center=f.center - base) for v, f in comp.vertices.items()}
        form = canonical(FactGraph(g.rank, vertices, comp.arrows))
        forms.append((tuple(form.vertices.values()), form.arrows))
    return tuple(sorted(forms))


def isomorphic(g: FactGraph, h: FactGraph) -> bool:
    """Equality up to vertex relabeling and a uniform center shift per
    component.  Exact for built graphs, whose arrows are determined by
    the vertex data; hand-built twins with diverging arrows may compare
    unequal even when an isomorphism exists."""
    return g.rank == h.rank and _normalized_component_form(g) == _normalized_component_form(h)


def canonical(g: FactGraph) -> FactGraph:
    """Renumber ids so vertices are sorted by (color, center, weight, coset)."""
    order = sorted(g.ids(), key=lambda v: (g.vertices[v], v))
    remap = {old: new for new, old in enumerate(order)}
    vertices = {remap[old]: g.vertices[old] for old in order}
    arrows = tuple(Arrow(remap[a.tail], remap[a.head], a.exp) for a in g.arrows)
    return FactGraph(g.rank, vertices, arrows)


def graph_to_json_obj(g: FactGraph) -> dict:
    return {
        "rank": g.rank.n,
        "vertices": [
            {
                "id": v,
                "color": g.vertices[v].color,
                "center": g.vertices[v].center,
                "weight": g.vertices[v].length,
                "coset": g.vertices[v].coset,
            }
            for v in g.ids()
        ],
        "arrows": [
            {"tail": a.tail, "head": a.head, "exp": a.exp} for a in g.arrows
        ],
    }


def graph_to_dot(g: FactGraph, hasse: bool = False) -> str:
    """DOT source with stacked weight-over-color vertex labels and
    exponent arrow labels; hasse draws the transitive reduction."""
    lines = ["digraph qfactorization {", "  rankdir=LR;"]
    for v in g.ids():
        vert = g.vertices[v]
        lines.append(f'  v{v} [label="{vert.length}\\n{vert.color}"];')
    for a in transitive_reduction(g) if hasse else g.arrows:
        lines.append(f'  v{a.tail} -> v{a.head} [label="{a.exp}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
