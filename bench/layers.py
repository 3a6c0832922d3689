"""Traced pass: times each module's public functions from outside.

For every request the traced pass makes the end-to-end ``cli.run`` call,
then calls the pipeline's public functions one by one on the same input,
each inside a span, and counts the work each stage did. Nothing inside
the library is instrumented, so every span times an uninstrumented call.

Spans are ``[name, start, end, parent, request]`` with ``perf_counter``
times; ``parent`` is the index of the enclosing span in the same list.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from contextlib import contextmanager
from io import StringIO

from qfactgraph import (
    DynkinA,
    build_graph,
    canonical,
    classify,
    classify_cut,
    connected_components,
    cuts,
    dual_neighborhood_certificate,
    is_totally_ordered,
    kr_pair_relation,
    parse_poly,
    partial_order,
    q_factorize,
    validate,
)
from qfactgraph import cli

# The stages cli.run performs itself; cli.self.s is cli.run minus these.
PIPELINE = (
    "cli.build_parser",
    "lweight.parse_poly",
    "lweight.q_factorize",
    "fgraph.build_graph",
    "fgraph.canonical",
    "primality.classify",
)

TIMED = PIPELINE + (
    "cli.run",
    "dynkin.pair_geometry",
    "redsets.kr_pair_relation",
    "fgraph.validate",
    "fgraph.components",
    "fgraph.order",
    "fgraph.cuts",
    "primality.dual_certificate",
    "primality.cut_report",
)

STAGES = ("components", "small", "total_order", "dual", "unknown")

# The certificates classify may return at each stage.
_STAGE_OF = {
    ("NotPrime", None): "components",
    ("Prime", "SingleVertex"): "small",
    ("Prime", "TwoVertexConnected"): "small",
    ("Prime", "TotallyOrdered"): "total_order",
    ("Prime", "TotallyOrderedLine"): "total_order",
    ("Prime", "DualNeighborhood"): "dual",
    ("Unknown", None): "unknown",
}


class Recorder:
    """Spans of one pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, request: int):
        parent = self._open[-1] if self._open else None
        record = [name, 0.0, 0.0, parent, request]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def seconds(self, name: str) -> float:
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)


def trace_request(
    rec: Recorder, counts: Counter, request: int, argv: list[str]
) -> tuple[int, str, bool]:
    """Run one request traced; returns (exit code, stdout, stages agree).

    The last item is False when the stage the benchmark attributes the
    verdict to does not match the verdict classify returned.
    """
    span = rec.span
    rank, text = int(argv[2]), argv[3]
    with span("request", request):
        out = StringIO()
        with span("cli.run", request):
            code = cli.run(argv, stdout=out)
        with span("cli.build_parser", request):
            cli.build_parser()
        d = DynkinA(rank)
        with span("lweight.parse_poly", request):
            poly = parse_poly(text, d)
        with span("lweight.q_factorize", request):
            qpoly = q_factorize(poly)
        with span("fgraph.build_graph", request):
            built = build_graph(qpoly)
        with span("fgraph.canonical", request):
            graph = canonical(built)
        with span("primality.classify", request):
            verdict = classify(graph)
        with span("fgraph.validate", request):
            validate(graph, "qfact")
        with span("fgraph.components", request):
            components = connected_components(graph)
        stage = _stage(rec, counts, request, graph, components)
        # The ordered pairs build_graph tests, as (tail, head) factors.
        pairs = [(a, b) for a in qpoly.factors for b in qpoly.factors]
        del pairs[:: len(qpoly.factors) + 1]
        with span("redsets.kr_pair_relation", request):
            reducible = sum(kr_pair_relation(d, a, b).kind != "Simple" for a, b in pairs)
        with span("dynkin.pair_geometry", request):
            for a, b in pairs:
                d.distance(a.color, b.color)
                d.boundary_distance(d.interval(a.color, b.color))
    n = len(qpoly.factors)
    counts["cli.out_bytes"] += len(out.getvalue().encode())
    counts["lweight.q_factorize.roots"] += sum(f.length for f in poly.factors)
    counts["lweight.q_factorize.factors_out"] += n
    counts["redsets.kr_pair_relation.pairs"] += n * (n - 1)
    counts["redsets.reducible"] += reducible
    counts["fgraph.build_graph.arrows"] += len(built.arrows)
    counts[f"primality.decided_by.{stage}"] += 1
    agree = _STAGE_OF.get((verdict.outcome, verdict.certificate)) == stage
    return code, out.getvalue(), agree


def _stage(rec: Recorder, counts: Counter, request: int, graph, components) -> str:
    """Re-walk classify's stages after validation, timing each one."""
    span = rec.span
    if not graph.vertices or len(components) > 1:
        return "components"
    if len(graph.vertices) <= 2:
        return "small"
    with span("fgraph.order", request):
        ordered = is_totally_ordered(graph)
    counts["fgraph.order.relations"] += len(partial_order(graph))
    if ordered:
        return "total_order"
    with span("primality.dual_certificate", request):
        certificate = dual_neighborhood_certificate(graph)
    with span("fgraph.cuts", request):
        cut_list = list(cuts(graph))
    counts["primality.dual_certificate.tried"] += 1
    counts["fgraph.cuts.count"] += len(cut_list)
    if certificate is not None:
        counts["primality.dual_certificate.hits"] += 1
        return "dual"
    with span("primality.cut_report", request):
        report = [classify_cut(graph, cut) for cut in cut_list]
    counts["primality.cut_report.cuts"] += len(report)
    counts["primality.cut_report.undetermined"] += sum(
        c.status == "Undetermined" for c in report
    )
    return "unknown"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    passes: list[tuple[Recorder, Counter]], generate_s: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: each ``.s`` is the median over passes of the
    pass's summed seconds; counts are those of one pass."""

    def per_pass(fn) -> float:
        return statistics.median(fn(rec) for rec, _ in passes)

    counts = passes[0][1]
    m: dict[str, tuple[float, str]] = {}
    for name in TIMED:
        m[f"{name}.s"] = (per_pass(lambda rec: rec.seconds(name)), "s")
    m["cli.self.s"] = (
        per_pass(lambda rec: rec.seconds("cli.run") - sum(rec.seconds(s) for s in PIPELINE)),
        "s",
    )
    m["trace.coverage"] = (
        per_pass(lambda rec: _ratio(sum(rec.seconds(s) for s in PIPELINE), rec.seconds("cli.run"))),
        "ratio",
    )
    m["families.generate.s"] = (generate_s, "s")
    m["cli.out_bytes"] = (counts["cli.out_bytes"], "bytes")
    for name in (
        "lweight.q_factorize.roots",
        "lweight.q_factorize.factors_out",
        "redsets.kr_pair_relation.pairs",
        "fgraph.build_graph.arrows",
        "fgraph.order.relations",
        "fgraph.cuts.count",
    ) + tuple(f"primality.decided_by.{s}" for s in STAGES):
        m[name] = (counts[name], "count")
    m["redsets.reducible_ratio"] = (
        _ratio(counts["redsets.reducible"], counts["redsets.kr_pair_relation.pairs"]),
        "ratio",
    )
    m["primality.dual_certificate.hit_ratio"] = (
        _ratio(counts["primality.dual_certificate.hits"], counts["primality.dual_certificate.tried"]),
        "ratio",
    )
    m["primality.cut_report.undetermined_ratio"] = (
        _ratio(counts["primality.cut_report.undetermined"], counts["primality.cut_report.cuts"]),
        "ratio",
    )
    return m
