from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import time
import tracemalloc
from array import array
from io import StringIO
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

import oracles
from qfactgraph import (
    DynkinA,
    FactGraph,
    KRFactor,
    Verdict,
    build_graph,
    canonical,
    classify,
    graph_to_json_obj,
    parse_poly,
    poly_to_json,
    q_factorize,
    rset,
    rset_restricted,
)
from qfactgraph.cli import _dumps, _write_family, _write_list, _write_verdict, run
from qfactgraph.primality import _CutReport

from conftest import A2, PAST_CAP, UNKNOWN, unknown_verdict


def invoke(*argv, stdin_text: str | None = None):
    out = StringIO()
    stdin = StringIO(stdin_text) if stdin_text is not None else None
    code = run(list(argv), stdout=out, stdin=stdin)
    return code, out.getvalue()


def test_factorize_merges():
    code, text = invoke("factorize", "--rank", "5", "1:0:1 1:2:1")
    assert code == 0 and text.strip() == "1:1:2"


def test_factorize_json():
    code, text = invoke("factorize", "--rank", "5", "--json", "1:0:1 1:2:1")
    assert code == 0
    assert json.loads(text) == [{"center": 1, "color": 1, "coset": 0, "length": 2}]


def test_graph_json_golden():
    code, text = invoke("graph", "--rank", "2", "2:0:2 1:3:2 1:4:1")
    assert code == 0
    obj = json.loads(text)
    assert obj == {
        "rank": 2,
        "vertices": [
            {"id": 0, "color": 1, "center": 3, "weight": 2, "coset": 0},
            {"id": 1, "color": 1, "center": 4, "weight": 1, "coset": 0},
            {"id": 2, "color": 2, "center": 0, "weight": 2, "coset": 0},
        ],
        "arrows": [
            {"tail": 0, "head": 2, "exp": 3},
            {"tail": 1, "head": 2, "exp": 4},
        ],
    }


def test_graph_output_deterministic():
    args = ("graph", "--rank", "2", "2:0:2 1:3:2 1:4:1")
    assert invoke(*args) == invoke(*args)


def test_graph_dot():
    code, text = invoke("graph", "--rank", "2", "2:0:2 1:3:2 1:4:1", "--dot")
    assert code == 0
    assert text == (
        "digraph qfactorization {\n"
        "  rankdir=LR;\n"
        '  v0 [label="2\\n1"];\n'
        '  v1 [label="1\\n1"];\n'
        '  v2 [label="2\\n2"];\n'
        '  v0 -> v2 [label="3"];\n'
        '  v1 -> v2 [label="4"];\n'
        "}\n"
    )


def test_graph_dot_hasse():
    code, text = invoke("graph", "--rank", "2", "1:6:1 2:3:1 1:0:1", "--dot", "--hasse")
    assert code == 0
    assert text.count("->") == 2  # no transitive arrows on a chain


def test_graph_reads_stdin():
    code, text = invoke("graph", "--rank", "2", stdin_text="2:0:2 1:3:2 1:4:1")
    assert code == 0 and json.loads(text)["rank"] == 2


def test_check_qfact_failure():
    code, text = invoke("check", "--rank", "2", "1:0:1 1:2:1", "--level", "qfact")
    assert code == 1
    report = json.loads(text)
    assert not report["ok"]
    failure = report["failures"][0]
    assert failure["kind"] == "qfact-violation"
    assert "2" in failure["message"]


def test_check_pseudo_passes_on_built_graph():
    code, text = invoke("check", "--rank", "2", "1:0:1 1:2:1", "--level", "pseudo")
    assert code == 0 and json.loads(text)["ok"]


def test_verdict_tournament():
    code, poly_text = invoke("family", "tournament", "--N", "4", "--n", "8", "--poly-only")
    assert code == 0
    code, text = invoke("verdict", "--rank", "8", poly_text.strip())
    assert code == 0
    assert json.loads(text) == {"certificate": "TotallyOrdered", "outcome": "Prime"}


def test_verdict_exit_codes():
    code, text = invoke("verdict", "--rank", "2", "1:0:1 1:0:1@1")
    assert code == 1 and json.loads(text)["outcome"] == "NotPrime"
    code, text = invoke("verdict", "--rank", "2", "2:0:2 1:3:2 1:4:1")
    assert code == 2
    obj = json.loads(text)
    assert obj["outcome"] == "Unknown"
    assert {entry["status"] for entry in obj["report"]} == {
        "ReducibleByExtremal",
        "Undetermined",
    }


def test_verdict_dual_neighborhood():
    code, text = invoke("verdict", "--rank", "3", "1:0:2 2:4:1 3:6:2")
    assert code == 0
    assert text == '{"certificate": "DualNeighborhood", "outcome": "Prime"}\n'


def test_verdict_cap_exceeded():
    rank, poly = PAST_CAP
    code, text = invoke("verdict", "--rank", str(rank), poly)
    assert code == 2
    assert text == '{"outcome": "Unknown", "reason": "cap-exceeded"}\n'


def test_verdict_canonicalizes_first():
    # the raw pair is not a q-factorization; the verdict is for the product
    code, text = invoke("verdict", "--rank", "2", "1:0:1 1:2:1")
    assert code == 0
    assert json.loads(text) == {"certificate": "SingleVertex", "outcome": "Prime"}


@pytest.mark.parametrize(
    "rank, text, outcome, graphs",
    [
        (8, "6:0:1 7:3:1 8:6:1 5:-3:1", "Prime", 1),
        (*UNKNOWN[13], "Unknown", 1),
        (3, "1:0:1 3:40:1 2:90:1", "NotPrime", 1),
    ],
    ids=["prime", "unknown", "three-components"],
)
def test_verdict_builds_one_graph(monkeypatch, rank, text, outcome, graphs):
    # Every verdict constructs only the graph of its factorization: a
    # disconnected one reads its witness off the component masks.
    built = []
    post_init = FactGraph.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(FactGraph, "__post_init__", counting)
    _, out = invoke("verdict", "--rank", str(rank), text)
    assert json.loads(out)["outcome"] == outcome
    assert len(built) == graphs


def test_verdict_scans_each_pair_window_once(window_scans):
    # q_factorize's self-check scans once; build_graph reads the forced
    # pairs that scan left on the polynomial, and classify validates the
    # built graph from the arrows build_graph handed over.
    code, _ = invoke("verdict", "--rank", "8", "6:0:1 7:3:1 8:6:1 5:-3:1")
    assert code == 0
    assert len(window_scans) == 1


def test_rset_command():
    code, text = invoke("rset", "3", "1", "3", "3", "--rank", "3")
    assert code == 0 and json.loads(text) == [4, 6, 8]


def test_rset_command_interval():
    code, text = invoke("rset", "2", "3", "1", "1", "--rank", "5", "--interval", "2", "3")
    assert code == 0 and json.loads(text) == [3]


def test_dual_star_command():
    code, text = invoke("dual", "--rank", "5", "--kind", "star", "1:5:2")
    assert code == 0 and text.strip() == "5:-1:2"


def test_dual_shift_command():
    code, text = invoke("dual", "--rank", "5", "--kind", "shift", "--by", "-3", "2:5:1")
    assert code == 0 and text.strip() == "2:2:1"


def test_family_snake_payload():
    code, text = invoke(
        "family", "snake", "--points", "4:-2,3:1,2:4,3:7", "--rank", "5"
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["snake"] and payload["prime_snake"]
    assert payload["verdict"] == {"certificate": "TotallyOrdered", "outcome": "Prime"}
    assert len(payload["graph"]["arrows"]) == 5


def test_family_skew_payload():
    code, text = invoke(
        "family", "skew", "--lambda", "20,16,10,7,2,0", "--mu", "17,5", "--rank", "3"
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["nu"] == [[20, 17, 17, 17], [16, 10, 7, 5], [5, 5, 2, 0]]
    assert payload["table"][0] == [[35, 3], [31, 0], [30, 0]]
    assert payload["verdict"]["outcome"] == "NotPrime"


def test_family_skew_empty_mu():
    code, text = invoke("family", "skew", "--lambda", "9,6,4,1", "--rank", "3")
    assert code == 0
    assert json.loads(text)["nu"] == [[9, 6, 4, 1]]


def test_usage_error_exit_code():
    assert invoke("nonsense")[0] == 64
    assert invoke("graph")[0] == 64  # missing --rank
    assert invoke()[0] == 64


def test_data_error_exit_code():
    assert invoke("graph", "--rank", "3", "4:0:1")[0] == 65
    assert invoke("graph", "--rank", "2", "1:0:oops")[0] == 65
    assert invoke("family", "tournament", "--N", "3", "--n", "4")[0] == 65
    assert invoke("rset", "1", "9", "1", "1", "--rank", "3")[0] == 65


def test_list_parse_errors_point_at_the_bad_part(capsys):
    # A bad part of an int list is reported at its index, as a bad snake
    # point is, and the exit code stays 65.
    cases = (
        (("family", "skew", "--lambda", "3,x,1", "--rank", "1"), 1),
        (("family", "skew", "--lambda", "3,1", "--mu", "1,1,y", "--rank", "1"), 2),
        (("family", "snake", "--points", "1:0,1:x", "--rank", "2"), 1),
    )
    for argv, position in cases:
        capsys.readouterr()
        assert invoke(*argv)[0] == 65
        assert capsys.readouterr().err.endswith(f"(at position {position})\n")


def test_parse_accumulates_multiplicity():
    code, text = invoke("factorize", "--rank", "5", "1:0:1 1:0:1")
    assert code == 0 and text.strip() == "1:0:1 1:0:1"


def test_factorize_string_of_a_billion_roots():
    # The canonical factorization never expands roots, so length is free.
    code, text = invoke("factorize", "--rank", "1", "1:0:1000000000")
    assert code == 0 and text == "1:0:1000000000\n"
    code, text = invoke("verdict", "--rank", "1", "1:0:1000000000")
    assert code == 0
    assert json.loads(text) == {"certificate": "SingleVertex", "outcome": "Prime"}


def test_factorize_merges_abutting_long_strings():
    # Roots -1999999999..-1 and 1..1999999999 (step 2) form one string.
    code, text = invoke(
        "factorize", "--rank", "1", "1:-1000000000:1000000000 1:1000000000:1000000000"
    )
    assert code == 0 and text == "1:0:2000000000\n"


def test_rset_output_is_json_dumps_of_the_members():
    # Sets of 1 to 6,000 members, across the chunk boundaries of the writer.
    d = DynkinA(5)
    for r, s in ((1, 1), (3, 3), (2, 7), (1024, 1024), (1025, 2000), (6000, 6000)):
        for i, j in ((1, 1), (2, 4), (5, 3)):
            code, text = invoke("rset", str(i), str(j), str(r), str(s), "--rank", "5")
            assert code == 0 and text == json.dumps(list(rset(d, i, j, r, s).members)) + "\n"
    code, text = invoke("rset", "2", "3", "4", "9", "--rank", "5", "--interval", "2", "4")
    expected = rset_restricted(d, 2, 3, 4, 9, range(2, 5)).members
    assert code == 0 and text == json.dumps(list(expected)) + "\n"
    for values in (range(0), range(5, 3, 2), range(7, 8), range(-3, 2050, 2)):
        out = StringIO()
        _write_list(out, map(str, values))
        assert out.getvalue() == json.dumps(list(values))


class _Stop(Exception):
    pass


class _OneWrite:
    """A sink that keeps its first write and raises _Stop on the next."""

    def __init__(self) -> None:
        self.text = None

    def write(self, text: str) -> int:
        if self.text is not None:
            raise _Stop
        self.text = text
        return len(text)


def test_write_list_takes_an_iterator_of_any_length():
    # 10^19 members: too many for len(), so the writer must not ask.
    sink = _OneWrite()
    with pytest.raises(_Stop):
        _write_list(sink, (str(x) for x in range(2, 2 * 10**19 + 1, 2)))
    assert sink.text == "[" + ", ".join(str(x) for x in range(2, 2050, 2))


class _Discard:
    def write(self, text: str) -> int:
        return len(text)


def test_rset_output_is_streamed():
    # 10^5 members print as 0.74 MB; building them as a tuple and one
    # string peaked at about 8 MB, the chunked writer at about 0.13 MB.
    run(["rset", "1", "1", "1", "1", "--rank", "1"], stdout=_Discard())  # warm imports
    tracemalloc.start()
    try:
        code = run(["rset", "1", "1", "100000", "100000", "--rank", "1"], stdout=_Discard())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 512 * 1024


@pytest.mark.parametrize("n", (3, 11, 12))
def test_streamed_verdict_matches_oracle(n):
    poly, graph, verdict = unknown_verdict(n)
    expected = _dumps(oracles._verdict_to_json(verdict))
    rank, text = UNKNOWN[n]
    assert invoke("verdict", "--rank", str(rank), text) == (2, expected + "\n")
    # Every other key of a family payload sorts before "verdict".
    for extra in ({}, {"snake": True, "prime_snake": False}, {"nu": [[2, 1]], "table": [[[3, 0]]]}):
        out = StringIO()
        _write_family(poly, extra, out)
        payload = {
            "polynomial": poly_to_json(poly),
            "graph": graph_to_json_obj(graph),
            "verdict": oracles._verdict_to_json(verdict),
            **extra,
        }
        assert out.getvalue() == _dumps(payload)


class _Writes(StringIO):
    """A StringIO that counts its writes."""

    writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("n", (3, 4, 5, 8, 11, 12, 13, 16))
def test_report_writer_matches_oracle_on_hand_built_reports(n):
    # The Unknown report of n vertices on relabelled ids, negative and of
    # up to four digits, with rows that mix witnesses and Undetermined (-1):
    # the writer's pieces per low half and per block print what the oracle
    # encoder prints, on both parities of n, on n = 3 with one low bit,
    # and past check_cut_engine's 10 vertices, where a report spans
    # several 1,024-item writes.
    rng = random.Random(n)
    ids = rng.sample(range(-150, 0), n // 2) + rng.sample(range(10, 1500), n - n // 2)
    g = FactGraph(A2, {v: KRFactor(1 + v % 2, 3 * v, 1) for v in ids}, ())
    lefts = g.masks.lefts()
    rows = array("h", (rng.choice((-1, rng.randrange(n * n))) for _ in range(len(lefts) - 1)))
    rows.append(-1)  # the last cut's row is Undetermined
    verdict = Verdict("Unknown", report=_CutReport(g, lefts, rows))
    assert -1 in rows and max(rows) >= 0
    out = _Writes()
    _write_verdict(verdict, out)
    expected = _dumps(oracles._verdict_to_json(verdict))
    # Compared entry by entry, so a failure names the first differing entry
    # instead of diffing megabytes of one line.
    assert out.getvalue().split("}, {") == expected.split("}, {")
    assert out.writes == 4 + (len(lefts) - 1) // 1024  # head, items, "]", "}"


def test_family_commands_match_oracle():
    # Each family verb through run against the oracle encoder, on Prime
    # and NotPrime verdicts.
    for argv in (
        ("family", "tournament", "--N", "3", "--n", "5"),
        ("family", "snake", "--points", "4:-2,3:1,2:4,3:7", "--rank", "5"),
        ("family", "snake", "--points", "2:-5,2:0", "--rank", "3"),
        ("family", "skew", "--lambda", "20,16,10,7,2,0", "--mu", "17,5", "--rank", "3"),
        ("family", "skew", "--lambda", "12,8,6,0", "--mu", "3", "--rank", "2"),
    ):
        code, text = invoke(*argv)
        obj = json.loads(text)
        poly = parse_poly(invoke(*argv, "--poly-only")[1], DynkinA(obj["graph"]["rank"]))
        obj["verdict"] = oracles._verdict_to_json(classify(canonical(build_graph(q_factorize(poly)))))
        assert code == 0 and text == _dumps(obj) + "\n"


def test_verdict_report_is_streamed():
    # The 13-vertex report prints as 467,264 bytes; building every entry
    # and one string peaked at about 12 MB.
    rank, text = UNKNOWN[13]
    run(["verdict", "--rank", str(rank), UNKNOWN[3][1]], stdout=_Discard())  # warm imports
    tracemalloc.start()
    try:
        code = run(["verdict", "--rank", str(rank), text], stdout=_Discard())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 1024 * 1024


def _close_after_100_bytes(*argv: str) -> tuple[bytes, int, str]:
    """Run the CLI apart, read 100 bytes of its stdout and close it; return
    those bytes, the exit code and stderr."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "qfactgraph.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    try:
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        return head, proc.wait(timeout=60), err
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


def test_closed_stdout_exits_74_without_traceback():
    # The reader stops after 100 of 467,264 bytes, more than a pipe holds.
    rank, text = UNKNOWN[13]
    head, code, err = _close_after_100_bytes("verdict", "--rank", str(rank), text)
    assert len(head) == 100 and code == 74
    assert "Traceback" not in err and err.startswith("qfactgraph: error:")


def test_rset_of_any_size_streams_until_stdout_closes():
    # The set {2, 4, ..., 2 * 10^19} has 10^19 members, too many for len().
    big = str(10**19)
    head, code, err = _close_after_100_bytes("rset", "1", "1", big, big, "--rank", "1")
    assert head.startswith(b"[2, 4, 6") and len(head) == 100 and code == 74
    assert "Traceback" not in err and err.startswith("qfactgraph: error:")


def _rset_apart(rank: int) -> subprocess.CompletedProcess:
    """rset 1 1 1 1 over the nodes 1..10^12 of A_rank, run apart under a
    1 GiB address-space cap and a timeout, so an interval built as a set
    of 10^12 nodes, or walked node by node, fails here instead of growing
    until the machine runs out of memory or time."""
    src = Path(__file__).resolve().parent.parent / "src"

    def cap() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(
        [sys.executable, "-m", "qfactgraph.cli", "rset", "1", "1", "1", "1", "--rank", str(rank),
         "--interval", "1", str(10**12)],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        preexec_fn=cap,
        timeout=60,
    )


def test_rset_interval_is_not_materialized():
    proc = _rset_apart(3)
    assert proc.returncode == 65, proc.stderr.decode()[-500:]
    assert proc.stderr == b"qfactgraph: error: node 1000000000000 is not in 1..3\n"


def test_rset_interval_of_a_huge_diagram_is_read_by_its_ends():
    # The interval's two ends decide, so this returns at once; checking
    # its 10^12 nodes one by one would take about 33 hours.
    proc = _rset_apart(10**12)
    assert (proc.returncode, proc.stdout) == (0, b"[2]\n"), proc.stderr.decode()[-500:]


def test_qfact_violation_message_is_bounded():
    # Two same-color strings of length 10^6, two apart: their reducibility
    # set has 10^6 members and listing them printed 8.4 MB.  The message
    # names the set by its ends, so its length does not grow with L.
    run(["check", "--rank", "1", "1:0:1 1:2:1"], stdout=_Discard())  # warm imports
    out = StringIO()
    tracemalloc.start()
    try:
        code = run(["check", "--rank", "1", f"1:0:{10**6} 1:2:{10**6}"], stdout=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = out.getvalue()
    assert code == 1 and len(text) < 1024 and peak < 1024 * 1024
    (failure,) = json.loads(text)["failures"]
    assert failure["kind"] == "qfact-violation"
    assert "from 2 to 2000000 in steps of 2" in failure["message"]


@st.composite
def kr_tokens(draw):
    color = draw(st.one_of(st.integers(1, 3), st.integers(0, 9)))
    center = draw(st.one_of(st.integers(-20, 20), st.integers(-(10**12), 10**12)))
    length = draw(st.one_of(st.integers(1, 30), st.integers(0, 10**12)))
    coset = draw(st.sampled_from(("", "", "@1", "@-2")))
    return f"{color}:{center}:{length}{coset}"


# Sizes are capped here: at most 6 tokens or list items, ranks and --N up
# to 8, and no arbitrary text with more than 4 digits, so every int it
# parses to is small (the rset verb prints every member of its set).
polys_text = st.lists(kr_tokens(), max_size=6).map(" ".join)
small_text = st.text(max_size=20).filter(lambda t: sum(map(str.isdigit, t)) <= 4)
ranks = st.one_of(st.integers(3, 8), st.integers(0, 8)).map(str)
small_ints = st.one_of(st.integers(1, 4), st.integers(-3, 12)).map(str)


def int_list(max_size: int):
    return st.lists(st.integers(-2, 12).map(str), max_size=max_size).map(",".join)


snake_points = st.lists(st.tuples(st.integers(1, 4), st.integers(-9, 20)), max_size=6).map(
    lambda pts: ",".join(f"{i}:{m}" for i, m in pts)
)
VERBS = ("factorize", "graph", "check", "verdict", "dual", "rset", "family")
WORDS = VERBS + (
    "tournament", "snake", "skew",
    "--rank", "--json", "--dot", "--hasse", "--level", "--kind", "--by",
    "--interval", "--N", "--n", "--points", "--lambda", "--mu", "--poly-only",
    "--help", "prefact", "pseudo", "qfact",
    "negate", "sigma", "star", "kappa", "shift",
)  # fmt: skip
noise = st.one_of(st.sampled_from(WORDS), ranks, small_ints, polys_text, small_text)


@st.composite
def cli_argv(draw):
    """A well-formed command line for one verb, then up to two random
    edits (insert, replace or delete an item) drawn from the CLI's
    vocabulary, numbers, token lists and arbitrary text."""
    verb = draw(st.sampled_from(VERBS))
    argv = [verb]
    if verb == "rset":
        argv += [draw(small_ints) for _ in range(4)] + ["--rank", draw(ranks)]
        if draw(st.booleans()):
            argv += ["--interval", draw(small_ints), draw(small_ints)]
    elif verb == "family":
        kind = draw(st.sampled_from(("tournament", "snake", "skew")))
        argv.append(kind)
        if kind == "tournament":
            argv += ["--N", draw(ranks), "--n", draw(ranks)]
        elif kind == "snake":
            argv += ["--points", draw(snake_points), "--rank", draw(ranks)]
        else:
            argv += ["--lambda", draw(int_list(6)), "--mu", draw(int_list(3))]
            argv += ["--rank", draw(ranks)]
        if draw(st.booleans()):
            argv.append("--poly-only")
    else:
        argv += ["--rank", draw(ranks)]
        if verb == "dual":
            kind = draw(st.sampled_from(("negate", "sigma", "star", "kappa", "shift")))
            argv += ["--kind", kind, "--by", draw(small_ints)]
        elif verb == "check":
            argv += ["--level", draw(st.sampled_from(("prefact", "pseudo", "qfact")))]
        elif verb == "graph":
            argv += draw(st.lists(st.sampled_from(("--json", "--dot", "--hasse")), max_size=2))
        if verb in ("factorize", "dual") and draw(st.booleans()):
            argv.append("--json")
        if draw(st.booleans()):
            argv.append(draw(polys_text))
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
        k = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(("insert", "replace", "delete")))
        if edit == "insert":
            argv.insert(k, draw(noise))
        elif k < len(argv):
            if edit == "replace":
                argv[k] = draw(noise)
            else:
                del argv[k]
    return argv


@settings(
    max_examples=500,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(cli_argv(), st.one_of(polys_text, small_text))
def test_cli_fuzz(argv, stdin_text):
    started = time.perf_counter()
    code, _ = invoke(*argv, stdin_text=stdin_text)
    assert code in (0, 1, 2, 64, 65)
    assert time.perf_counter() - started < 5
