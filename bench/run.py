"""Benchmark of ``qfactgraph verdict``, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one process sends requests in a closed loop: each request
is one in-process ``qfactgraph.cli.run(["verdict", "--rank", n, text])``
call, and the next starts when it returns. The run's requests come from
the seeded generators in ``inputs.py``; the loop makes whole passes over
them until ``--seconds`` have elapsed and at least ``MIN_REQUESTS``
requests were sent. Every request's exit code and stdout digest are
compared with ``ref/<workload>.txt``, recorded from the seed code by
``record.py``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` makes traced
passes instead (see ``layers.py``) and reports the per-layer metrics.
The last line of stdout is the result object; the lines before it and
``results/`` give the same metrics by name and unit, with the stamp
(Python, CPUs, commit, seed, input sizes) that makes runs comparable.
The exit code is 1 when any output fails its check, 2 when the library
cannot be imported from ``src/`` beside this directory.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from io import StringIO
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_REQUESTS = 100  # so that at least ten samples lie beyond the 90th percentile
SETUP_REPEATS = 5
WORKLOADS = ("graph-scale", "cut-search", "long-strings", "family-mix")
EXIT_OF = {"Prime": 0, "NotPrime": 1, "Unknown": 2}
_OUTCOME = re.compile(r'"outcome": "(\w+)"')


def digest(text: str, size: int) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:size]


def request_key(rank: int, text: str) -> str:
    return digest(f"{rank} {text}", 20)


def load_refs(workload: str) -> dict[str, tuple[int, str]]:
    """Reference (exit code, stdout digest) per request key."""
    refs = {}
    with open(BENCH / "ref" / f"{workload}.txt") as f:
        for line in f:
            key, code, out = line.split()
            refs[key] = (int(code), out)
    return refs


def import_library():
    """Import qfactgraph from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import qfactgraph

    if Path(qfactgraph.__file__).resolve().parent != (src / "qfactgraph").resolve():
        raise ImportError(f"qfactgraph imported from {qfactgraph.__file__}, not {src}")
    return qfactgraph


def import_seconds() -> float:
    """Time to import the library and its dependencies in a fresh interpreter."""
    probe = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import time; "
        "t = time.perf_counter(); import qfactgraph.cli; print(time.perf_counter() - t)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, check=True
    )
    return float(proc.stdout)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Run:
    """One benchmark run: set-up, the measured passes, and the checks."""

    def __init__(self, args, cli, inputs):
        self.args, self.cli, self.inputs = args, cli, inputs
        self.failed = 0
        self.attempted = 0
        self.problems: list[str] = []
        self.witnesses: dict[int, str] = {}  # a NotPrime output per input

    def set_up(self) -> tuple[float, float]:
        """Set up SETUP_REPEATS times: import the library in a fresh
        interpreter, generate the inputs, load the references and warm up.
        Returns the medians of the set-up time and of the generation time."""
        totals, gens = [], []
        for _ in range(SETUP_REPEATS):
            import_s = import_seconds()
            t0 = time.perf_counter()
            reqs = self.inputs.requests(self.args.workload, self.args.seed)
            t1 = time.perf_counter()
            refs = load_refs(self.args.workload)
            self.argvs = [["verdict", "--rank", str(rank), text] for rank, text in reqs]
            self.expected = [refs.get(request_key(rank, text)) for rank, text in reqs]
            # Warm-up: the first (smallest) request, checked like any other.
            out = StringIO()
            code = self.cli.run(self.argvs[0], stdout=out)
            self.check(0, code, out.getvalue(), count=False)
            totals.append(import_s + time.perf_counter() - t0)
            gens.append(t1 - t0)
        # Slots come in size order. Interleave them, so that each size class,
        # and so each percentile, samples the machine over the whole run
        # rather than over the few seconds the class would take in order.
        order = list(range(len(self.argvs)))
        random.Random(self.args.seed).shuffle(order)
        self.argvs = [self.argvs[i] for i in order]
        self.expected = [self.expected[i] for i in order]
        return statistics.median(totals), statistics.median(gens)

    def check(self, i: int, code, out: str, count: bool = True) -> None:
        """Compare one output with its reference; count a mismatch."""
        if count:
            self.attempted += 1
        outcome = _OUTCOME.search(out)
        if self.expected[i] != (code, digest(out, 32)):
            problem = f"got exit {code}, reference {self.expected[i]}"
        elif outcome is None or EXIT_OF.get(outcome.group(1)) != code:
            problem = f"exit {code} does not match the outcome"
        else:
            if count and outcome.group(1) == "NotPrime":
                self.witnesses.setdefault(i, out)
            return
        if count:
            self.failed += 1
        self.problems.append(f"request {i}: {problem}")

    def timed_passes(self) -> tuple[list[float], float]:
        """The closed loop; returns every request's latency and the wall
        time of the whole timed phase."""
        run, argvs = self.cli.run, self.argvs
        latencies = []
        t_start = time.perf_counter()
        while True:
            for i, argv in enumerate(argvs):
                out = StringIO()
                t0 = time.perf_counter()
                try:
                    code = run(argv, stdout=out)
                except Exception as e:  # a raise is a failed request, not a crash
                    code = f"raised {type(e).__name__}"
                latencies.append(time.perf_counter() - t0)
                self.check(i, code, out.getvalue())
            elapsed = time.perf_counter() - t_start
            if elapsed >= self.args.seconds and len(latencies) >= MIN_REQUESTS:
                return latencies, elapsed

    def traced_passes(self, layers) -> list:
        """Traced whole passes until --seconds have elapsed; at least one."""
        passes = []
        t_start = time.perf_counter()
        while not passes or time.perf_counter() - t_start < self.args.seconds:
            rec, counts = layers.Recorder(), Counter()
            for i, argv in enumerate(self.argvs):
                code, out, agree = layers.trace_request(rec, counts, i, argv)
                self.check(i, code, out)
                if not agree:
                    self.problems.append(f"request {i}: verdict stage not re-derived")
            if passes and counts != passes[0][1]:
                self.problems.append("counts differ between traced passes")
            passes.append((rec, counts))
        return passes

    def check_invariants(self, q) -> None:
        """Untimed: the canonical factorization of each distinct input
        keeps the per-color weight and is a q-factorization. A NotPrime
        output carries it as the union of its witness factors; otherwise it
        is recomputed."""
        for i, argv in enumerate(self.argvs):
            poly = q.parse_poly(argv[3], int(argv[2]))
            if i in self.witnesses:
                parts = json.loads(self.witnesses[i])["witness"]
                canon = q.poly_from_json([f for part in parts for f in part], poly.rank)
            else:
                canon = q.q_factorize(poly)
            if q.weight(canon) != q.weight(poly) or not q.is_q_factorization(canon):
                self.failed += 1
                self.problems.append(f"request {i}: canonical factorization invariant fails")


def git_commit() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(args, argvs) -> dict:
    tokens = [argv[3].split() for argv in argvs]
    factors = [len(t) for t in tokens]
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": {
            "requests_per_pass": len(argvs),
            "factors_min": min(factors),
            "factors_max": max(factors),
            "factors_total": sum(factors),
            "roots_total": sum(int(tok.split(":")[2]) for t in tokens for tok in t),
            "text_bytes": sum(len(argv[3]) for argv in argvs),
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        q = import_library()
    except ImportError as e:
        print(f"bench: cannot import qfactgraph from src/: {e}", file=sys.stderr)
        return 2
    from qfactgraph import cli

    import inputs

    run = Run(args, cli, inputs)
    if args.trace:
        import layers
    setup_s, generate_s = run.set_up()

    if args.trace:
        passes = run.traced_passes(layers)
        metrics = layers.layer_metrics(passes, generate_s)
        extra = {"passes": len(passes)}
    else:
        latencies, wall = run.timed_passes()
        run.check_invariants(q)
        p90 = statistics.quantiles(latencies, n=10)[8]
        metrics = {
            "verdicts_per_s": ((run.attempted - run.failed) / wall, "1/s"),
            "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "latency_p90_ms": (p90 * 1e3, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        extra = {"latency_samples": len(latencies), "timed_s": wall}

    fail_ratio = run.failed / run.attempted
    info = stamp(args, run.argvs) | extra | {"fail_ratio": fail_ratio}
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        with open(out_dir / f"{name}.spans.jsonl", "w") as f:
            for p, (rec, _) in enumerate(passes):
                for span in rec.spans:
                    f.write(json.dumps([p] + span) + "\n")
    correct = run.failed == 0 and not run.problems
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(out_dir / f"{name}.json", "w") as f:
        json.dump(info | {"problems": run.problems[:50]} | result, f, indent=1)
    for problem in run.problems[:20]:
        print(f"# FAIL {problem}", file=sys.stderr)
    print("# " + json.dumps(info))
    for k, (v, u) in metrics.items():
        print(f"{k} {v:.6g} {u}")
    print(f"fail_ratio {fail_ratio:.6g} ratio")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
