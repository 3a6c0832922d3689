"""Record the reference outputs the benchmark checks against.

    python3 bench/record.py [WORKLOAD ...]

For every pool member (each slot, each variant) of each workload, runs
``verdict`` once and writes ``ref/<workload>.txt``: one line per request
with its key, exit code and stdout digest. Run it only on the code whose
outputs are the contract; the benchmark then fails any run whose outputs
differ.
"""

import sys
from io import StringIO

from run import BENCH, WORKLOADS, digest, import_library, request_key


def record(workload: str, inputs, cli) -> None:
    lines = set()
    for slot in range(inputs.slot_count(workload)):
        for variant in range(inputs.VARIANTS):
            rank, text = inputs.generate(workload, slot, variant)
            out = StringIO()
            code = cli.run(["verdict", "--rank", str(rank), text], stdout=out)
            if code not in (0, 1, 2):
                raise SystemExit(f"{workload} slot {slot} variant {variant}: exit {code}")
            lines.add(f"{request_key(rank, text)} {code} {digest(out.getvalue(), 32)}\n")
    (BENCH / "ref").mkdir(exist_ok=True)
    with open(BENCH / "ref" / f"{workload}.txt", "w") as f:
        f.writelines(sorted(lines))
    print(f"{workload}: {len(lines)} references")


def main() -> None:
    import_library()
    from qfactgraph import cli

    import inputs

    for workload in sys.argv[1:] or WORKLOADS:
        record(workload, inputs, cli)


if __name__ == "__main__":
    main()
