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
from operator import attrgetter
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .dynkin import DynkinA, reducible
from .errors import (
    CyclicGraph,
    InvalidVertex,
    RankMismatch,
    TooManyVertices,
)
from .lweight import DrinfeldPoly, KRFactor, interacting_pairs, q_factorize, window_pairs
from .redsets import rset_same_node

__all__ = [
    "Vertex",
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
    "neighborhoods",
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


Vertex = KRFactor  # the graph-side name; a vertex's weight is its length


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
        out: dict[int, list[int]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            out[a.tail].append(a.head)
        return MappingProxyType({v: tuple(sorted(ws)) for v, ws in out.items()})

    @cached_property
    def in_adj(self) -> Mapping[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            out[a.head].append(a.tail)
        return MappingProxyType({v: tuple(sorted(ws)) for v, ws in out.items()})

    @cached_property
    def undirected_adj(self) -> Mapping[int, tuple[int, ...]]:
        out: dict[int, set[int]] = {v: set() for v in self.vertices}
        for a in self.arrows:
            out[a.tail].add(a.head)
            out[a.head].add(a.tail)
        return MappingProxyType({v: tuple(sorted(ws)) for v, ws in out.items()})

    @cached_property
    def masks(self) -> BitMasks:
        """The adjacency as int masks, built on first use by the cut stage."""
        return BitMasks(self)


@dataclass(frozen=True)
class Cut:
    left: frozenset[int]
    right: frozenset[int]
    crossing: tuple[Arrow, ...]


class BitMasks:
    """A graph's adjacency on int masks, for the cut stage: vertex
    ``ids[k]`` (the k-th of ``g.ids()``) is bit k.

    ``out[k]`` is the mask of the heads of the arrows leaving ``ids[k]``,
    ``inn[k]`` that of the tails of the arrows entering it and ``nbr[k]``
    their union; ``extremal`` is the mask of the sources and sinks.
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
        self.extremal = sum(1 << k for k, (o, i) in enumerate(zip(out, inn)) if not o or not i)
        self.full = (1 << len(ids)) - 1
        self._vertex_set = frozenset(ids)
        self._arrow_ends = tuple(
            (a, 1 << index[a.tail] | 1 << index[a.head]) for a in g.arrows
        )

    def of(self, vertices: Iterable[int]) -> int:
        """The mask of a collection of vertex ids of the graph."""
        mask = 0
        for v in vertices:
            mask |= 1 << self.index[v]
        return mask

    def lefts(self, max_vertices: int) -> range:
        """The left sides of the cuts, in the order cuts() yields them: the
        first vertex is always on the left, and the other bits count up."""
        n = len(self.ids)
        if n > max_vertices:
            raise TooManyVertices(
                f"{n} vertices exceed the cut cap {max_vertices}; raise max_vertices to override"
            )
        return range(1, self.full, 2)

    def cut(self, left: int) -> Cut:
        """The cut whose left side is the mask left."""
        members = frozenset(v for k, v in enumerate(self.ids) if left >> k & 1)
        crossing = tuple(a for a, ends in self._arrow_ends if 0 != left & ends != ends)
        return Cut(members, self._vertex_set - members, crossing)


def _forced_arrows(rank: DynkinA, items: Sequence[tuple[int, KRFactor]]) -> list[Arrow]:
    """The arrow of every ordered pair of (id, factor) items whose tensor
    product is reducible and highest-weight-ordered: same coset, positive
    center gap, gap in the pair's reducibility set.  Every member of that
    set is at most r + s + n - 1 (b - a + 2 min(a - 1, n - b) <= n - 1), so
    only pairs in window_pairs' window len_a + max_len + n - 1 are tested.
    Arrows come in (tail, head) id order; colors must lie in the diagram."""
    n = rank.n
    factors = [f for _, f in items]
    arrows = []
    for k, l in window_pairs(factors, attrgetter("coset"), n - 1):
        fa, fb = factors[k], factors[l]
        delta = fa.center - fb.center
        if reducible(delta, fa.color, fb.color, fa.length, fb.length, 1, n):
            arrows.append(Arrow(items[k][0], items[l][0], delta))
    return sorted(arrows)


def _graph_from_factors(rank: DynkinA, factors: tuple[KRFactor, ...]) -> FactGraph:
    items = tuple(enumerate(factors))
    return FactGraph(rank, dict(items), tuple(_forced_arrows(rank, items)))


def build_graph(p: DrinfeldPoly) -> FactGraph:
    """Graph of a (pseudo) factorization: one vertex per factor, and an
    arrow for every ordered pair whose tensor product is reducible and
    highest-weight-ordered.  Canonical input yields the q-factorization
    graph of the polynomial."""
    return _graph_from_factors(p.rank, p.factors)


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
    same-coset pair interacts, by the predicate is_q_factorization
    uses.  Centers within one coset share an anchor, so pairs are
    compared across components too; deleting a bridge arrow cannot mask
    a violation.  Levels are cumulative; failures are reported, never
    raised.
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
    ids = g.ids()
    forced = _forced_arrows(g.rank, [(v, g.vertices[v]) for v in ids])
    for a in forced:
        if (a.tail, a.head) not in g.arrow_map:
            fails.append(
                ValidationFailure(
                    "missing-arrow",
                    (a.tail, a.head),
                    f"center gap {a.exp} forces an arrow from {a.tail} to {a.head}",
                )
            )
    forced_set = set(forced)
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

    for k, l in interacting_pairs([g.vertices[v] for v in ids]):
        u, w = ids[k], ids[l]
        vu, vw = g.vertices[u], g.vertices[w]
        rs = rset_same_node(g.rank, vu.color, vu.length, vw.length)
        fails.append(
            ValidationFailure(
                "qfact-violation",
                (u, w),
                f"|{vu.center - vw.center}| = {abs(vu.center - vw.center)} lies in the "
                f"same-color reducibility set {list(rs.members)} for color {vu.color}",
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


def _component_index(g: FactGraph) -> dict[int, int]:
    comp: dict[int, int] = {}
    idx = 0
    for start in g.ids():
        if start in comp:
            continue
        stack = [start]
        comp[start] = idx
        while stack:
            u = stack.pop()
            for w in g.undirected_adj[u]:
                if w not in comp:
                    comp[w] = idx
                    stack.append(w)
        idx += 1
    return comp


def connected_components(g: FactGraph) -> list[FactGraph]:
    comp = _component_index(g)
    groups: dict[int, list[int]] = {}
    for v, c in comp.items():
        groups.setdefault(c, []).append(v)
    return [subgraph(g, groups[c]) for c in sorted(groups)]


def descendants(g: FactGraph, v: int) -> frozenset[int]:
    """Vertices strictly below v: reachable from v along arrows."""
    g.vertex(v)
    seen: set[int] = set()
    stack = [v]
    while stack:
        u = stack.pop()
        for w in g.out_adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    seen.discard(v)
    return frozenset(seen)


def ancestors(g: FactGraph, v: int) -> frozenset[int]:
    """Vertices strictly above v: those with a directed path into v."""
    g.vertex(v)
    seen: set[int] = set()
    stack = [v]
    while stack:
        u = stack.pop()
        for w in g.in_adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    seen.discard(v)
    return frozenset(seen)


def partial_order(g: FactGraph) -> frozenset[tuple[int, int]]:
    """Strict order induced by arrows: pairs (u, w) with u above w."""
    relation: set[tuple[int, int]] = set()
    for v in g.ids():
        below = set()
        stack = [v]
        while stack:
            u = stack.pop()
            for w in g.out_adj[u]:
                if w == v:
                    raise CyclicGraph(f"vertex {v} lies on an oriented cycle")
                if w not in below:
                    below.add(w)
                    stack.append(w)
        relation.update((v, w) for w in below)
    return frozenset(relation)


def is_totally_ordered(g: FactGraph) -> bool:
    """True iff every pair of vertices is comparable; disconnected graphs
    are never totally ordered.  Kahn's topological sort decides it in
    O(V + E): the order is total iff every step has exactly one ready
    vertex.  Raises CyclicGraph when the sort cannot reach every vertex."""
    ids = g.ids()
    if len(ids) <= 1:
        return True
    indegree = {v: len(g.in_adj[v]) for v in ids}
    ready = [v for v in ids if not indegree[v]]
    chain, left = True, len(ids)
    while ready:
        chain = chain and len(ready) == 1
        u = ready.pop()
        left -= 1
        for w in g.out_adj[u]:
            indegree[w] -= 1
            if not indegree[w]:
                ready.append(w)
    if left:
        raise CyclicGraph(f"{left} vertices lie on or below an oriented cycle")
    return chain


def sinks(g: FactGraph) -> frozenset[int]:
    return frozenset(v for v in g.ids() if not g.out_adj[v])


def sources(g: FactGraph) -> frozenset[int]:
    return frozenset(v for v in g.ids() if not g.in_adj[v])


def is_tournament(g: FactGraph) -> bool:
    ids = g.ids()
    amap = g.arrow_map
    for k, u in enumerate(ids):
        for w in ids[k + 1 :]:
            if (u, w) not in amap and (w, u) not in amap:
                return False
    return True


def is_tree(g: FactGraph) -> bool:
    ids = g.ids()
    if not ids:
        return False
    comp = _component_index(g)
    if max(comp.values()) != 0:
        return False
    return len(g.arrows) == len(ids) - 1


def is_line(g: FactGraph) -> bool:
    """A tree with no vertex of undirected valence >= 3."""
    return is_tree(g) and all(len(g.undirected_adj[v]) <= 2 for v in g.ids())


def is_monotonic_line(g: FactGraph) -> bool:
    """A line all of whose arrows point the same way along it."""
    return is_line(g) and all(
        len(g.out_adj[v]) <= 1 and len(g.in_adj[v]) <= 1 for v in g.ids()
    )


def neighborhoods(g: FactGraph, v: int, sign: int) -> frozenset[int]:
    """Strict monotonic-path neighborhoods: +1 gives the vertices above v,
    -1 the vertices below; v itself is excluded."""
    if sign == 1:
        return ancestors(g, v)
    if sign == -1:
        return descendants(g, v)
    raise ValueError(f"sign must be +1 or -1, got {sign!r}")


def cuts(g: FactGraph, max_vertices: int = 20) -> Iterator[Cut]:
    """All unordered nontrivial bipartitions with their crossing arrows."""
    masks = g.masks
    return map(masks.cut, masks.lefts(max_vertices))


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
    """Minimal arrow subset with the same transitive closure."""
    partial_order(g)  # raises CyclicGraph on bad input
    desc = {v: descendants(g, v) for v in g.ids()}
    keep = []
    for a in g.arrows:
        redundant = any(
            a.head in desc[w] for w in g.out_adj[a.tail] if w != a.head
        )
        if not redundant:
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
    combined = _graph_from_factors(g.rank, fg + fh)
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
