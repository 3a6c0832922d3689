"""Tests of the benchmark itself: seeded inputs, references, result format.

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

run.import_library()

import inputs  # noqa: E402
from qfactgraph import (  # noqa: E402
    build_graph,
    connected_components,
    is_totally_ordered,
    parse_poly,
    q_factorize,
)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_fixes_the_inputs(workload):
    first = inputs.requests(workload, 7)
    assert first == inputs.requests(workload, 7)
    assert first != inputs.requests(workload, 8)
    assert len(first) == inputs.slot_count(workload)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_input_has_a_reference(workload):
    refs = run.load_refs(workload)
    for seed in range(5):
        for rank, text in inputs.requests(workload, seed):
            assert run.request_key(rank, text) in refs


@pytest.mark.parametrize("workload", ["graph-scale", "cut-search"])
def test_generated_factorizations_are_canonical(workload):
    for rank, text in inputs.requests(workload, 0):
        poly = parse_poly(text, rank)
        assert q_factorize(poly) == poly


def test_graph_shapes():
    for k, (rank, text) in enumerate(inputs.requests("graph-scale", 0)):
        graph = build_graph(parse_poly(text, rank))
        connected = len(connected_components(graph)) == 1
        assert connected == (k % 2 == 1)
        assert is_totally_ordered(graph) == connected
    for rank, text in inputs.requests("cut-search", 0):
        graph = build_graph(parse_poly(text, rank))
        assert 9 <= len(graph.vertices) <= 13
        assert len(connected_components(graph)) == 1
        assert not is_totally_ordered(graph)


def _bench(*args, cwd=run.ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


def _names(kind):
    return sorted(m["name"] for m in BENCHMARK[kind])


def test_result_line_and_metric_names():
    args = ["--workload", "family-mix", "--seed", "3", "--seconds", "0.1"]
    code, lines = _bench(*args, "--trace", "0")
    assert code == 0
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_REQUESTS
    assert sorted(result["metrics"]) == _names("end_to_end")

    traced = []
    for _ in range(2):
        code, lines = _bench(*args, "--trace", "1")
        assert code == 0
        traced.append(json.loads(lines[-1])["metrics"])
    assert sorted(traced[0]) == _names("per_layer")
    for name, metric in traced[0].items():
        if metric["unit"] in ("count", "bytes"):
            assert metric == traced[1][name], name


def test_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    code, lines = _bench("--workload", "cut-search", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
