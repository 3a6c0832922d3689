"""Command-line front end.

Exit codes: 0 success (and Prime verdicts), 1 NotPrime or failed check,
2 Unknown verdict, 64 usage error, 65 bad input data, 74 output error
(stdout closed before the output was written).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice
from typing import IO, Callable, Iterator, Sequence

from .dynkin import DynkinA
from .errors import PolySyntaxError, QfgError
from .families import (
    Snake,
    SkewShape,
    is_prime_snake,
    is_snake,
    skew_nu_table,
    skew_to_poly,
    snake_to_poly,
    tournament_family,
)
from .fgraph import (
    build_graph,
    graph_to_dot,
    graph_to_json_obj,
    validate,
)
from .lweight import (
    DrinfeldPoly,
    dual_kappa,
    dual_negate,
    dual_sigma,
    dual_star,
    parse_poly,
    poly_to_json,
    poly_to_text,
    q_factorize,
    shift,
)
from .primality import Verdict, _CutReport, classify
from .redsets import rset, rset_restricted

USAGE_ERROR = 64
DATA_ERROR = 65
IO_ERROR = 74

_VERDICT_EXIT = {"Prime": 0, "NotPrime": 1, "Unknown": 2}
_CHUNK = 1024  # list items per write


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _read_poly(args, stdin: IO[str]) -> DrinfeldPoly:
    text = args.poly if args.poly is not None else stdin.read()
    return parse_poly(text, DynkinA(args.rank))


def _write_list(out: IO[str], items: Iterator[str]) -> None:
    """Write the JSON list of the encoded, nonempty items, _CHUNK per
    write, so memory stays bounded however many there are."""
    out.write("[" + ", ".join(islice(items, _CHUNK)))
    while chunk := ", ".join(islice(items, _CHUNK)):
        out.write(", " + chunk)
    out.write("]")


def _write_last_key(out: IO[str], obj: dict, key: str, write_value: Callable[[], None]) -> None:
    """Write _dumps of the nonempty obj with one more key, which sorts after
    all of obj's keys; write_value writes that key's value."""
    out.write(f"{_dumps(obj)[:-1]}, {json.dumps(key)}: ")
    write_value()
    out.write("}")


def _id_texts(names: Sequence[str]) -> list[str]:
    """The comma-joined names of the bits of every mask over names, indexed
    by mask.  Each name doubles the table."""
    table = [""]
    for name in names:
        table += [f"{text}, {name}" if text else name for text in table]
    return table


def _write_report(report: _CutReport, out: IO[str]) -> None:
    """Write the JSON list of the report's entries, each one
    {"left": [...], "right": [...], "status": ..., "witness": ...}, from its
    rows, and build no Cut or CutClass.  The id lists come from two tables
    of id texts, one for the masks of the bits below half = n // 2 and one
    for those from half up: 2^half + 2^(n - half) entries, not 2^n."""
    m = report.graph.masks
    names = [str(v) for v in m.ids]
    half, full = len(names) // 2, m.full
    low = (1 << half) - 1
    lo_text, hi_text = _id_texts(names[:half]), _id_texts(names[half:])

    def members(mask: int) -> str:
        a, b = lo_text[mask & low], hi_text[mask >> half]
        return f"{a}, {b}" if a and b else a or b

    statuses = report.by_row(
        lambda kl, kr: f'"ReducibleByExtremal", "witness": [{names[kl]}, {names[kr]}]',
        '"Undetermined", "witness": null',
    )

    def entry(left: int, row: int) -> str:
        return (
            f'{{"left": [{members(left)}], "right": [{members(full ^ left)}], '
            f'"status": {statuses[row]}}}'
        )

    _write_list(out, map(entry, report.lefts, report.rows))


def _write_verdict(v: Verdict, out: IO[str]) -> None:
    """Write the verdict's JSON object with sorted keys.  A report, which
    only classify's witness-free Unknown verdicts carry, is the last key
    and is streamed."""
    obj: dict = {"outcome": v.outcome}
    if v.certificate is not None:
        obj["certificate"] = v.certificate
    if v.reason is not None:
        obj["reason"] = v.reason
    if v.witness is not None:
        obj["witness"] = [poly_to_json(p) for p in v.witness]
    if v.report is None:
        out.write(_dumps(obj))
    else:
        _write_last_key(out, obj, "report", lambda: _write_report(v.report, out))


def _cmd_factorize(args, inp: IO[str], out: IO[str]) -> int:
    poly = q_factorize(_read_poly(args, inp))
    print(_dumps(poly_to_json(poly)) if args.json else poly_to_text(poly), file=out)
    return 0


def _cmd_graph(args, inp: IO[str], out: IO[str]) -> int:
    graph = build_graph(_read_poly(args, inp))
    if args.dot:
        out.write(graph_to_dot(graph, hasse=args.hasse))
    else:
        print(_dumps(graph_to_json_obj(graph)), file=out)
    return 0


def _cmd_check(args, inp: IO[str], out: IO[str]) -> int:
    graph = build_graph(_read_poly(args, inp))
    report = validate(graph, args.level)
    failures = [
        {"kind": f.kind, "vertices": list(f.vertices), "message": f.message}
        for f in report.failures
    ]
    print(_dumps({"level": report.level, "ok": report.ok, "failures": failures}), file=out)
    return 0 if report.ok else 1


def _cmd_verdict(args, inp: IO[str], out: IO[str]) -> int:
    graph = build_graph(q_factorize(_read_poly(args, inp)))
    verdict = classify(graph)
    _write_verdict(verdict, out)
    out.write("\n")
    return _VERDICT_EXIT[verdict.outcome]


def _cmd_dual(args, inp: IO[str], out: IO[str]) -> int:
    poly = _read_poly(args, inp)
    transform = {
        "negate": dual_negate,
        "sigma": dual_sigma,
        "star": dual_star,
        "kappa": dual_kappa,
        "shift": lambda p: shift(p, args.by),
    }[args.kind]
    poly = transform(poly)
    print(_dumps(poly_to_json(poly)) if args.json else poly_to_text(poly), file=out)
    return 0


def _cmd_rset(args, inp: IO[str], out: IO[str]) -> int:
    d = DynkinA(args.rank)
    if args.interval is not None:
        lo, hi = args.interval
        rs = rset_restricted(d, args.i, args.j, args.r, args.s, range(lo, hi + 1))
    else:
        rs = rset(d, args.i, args.j, args.r, args.s)
    _write_list(out, map(str, rs.members))
    out.write("\n")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="qfactgraph", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def poly_command(name: str, help_text: str, handler) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--rank", type=int, required=True, metavar="N")
        p.add_argument(
            "poly",
            nargs="?",
            help="whitespace-separated color:center:length[@coset] tokens; stdin if omitted",
        )
        return p

    p = poly_command("factorize", "print the canonical factorization", _cmd_factorize)
    p.add_argument("--json", action="store_true")

    p = poly_command("graph", "print the graph of the given factors", _cmd_graph)
    p.add_argument("--json", action="store_true", help="JSON output (default)")
    p.add_argument("--dot", action="store_true", help="DOT output")
    p.add_argument("--hasse", action="store_true", help="draw the transitive reduction")

    p = poly_command("check", "validate the graph of the given factors", _cmd_check)
    p.add_argument("--level", choices=("prefact", "pseudo", "qfact"), default="qfact")

    poly_command("verdict", "canonicalize, build the graph, decide primality", _cmd_verdict)

    p = poly_command("dual", "apply a duality transform to the polynomial", _cmd_dual)
    p.add_argument("--kind", choices=("negate", "sigma", "star", "kappa", "shift"), required=True)
    p.add_argument("--by", type=int, default=0, help="shift amount (kind=shift)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("rset", help="print a reducibility set")
    p.set_defaults(handler=_cmd_rset)
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    p.add_argument("r", type=int)
    p.add_argument("s", type=int)
    p.add_argument("--rank", type=int, required=True, metavar="N")
    p.add_argument("--interval", type=int, nargs=2, metavar=("LO", "HI"))

    fam = sub.add_parser("family", help="generate an example family")
    fam.set_defaults(handler=_cmd_family)
    fam_sub = fam.add_subparsers(dest="family", required=True)

    p = fam_sub.add_parser("tournament")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--poly-only", action="store_true")

    p = fam_sub.add_parser("snake")
    p.add_argument("--points", required=True, help="comma-separated color:center pairs")
    p.add_argument("--rank", type=int, required=True, metavar="N")
    p.add_argument("--poly-only", action="store_true")

    p = fam_sub.add_parser("skew")
    p.add_argument("--lambda", dest="lam", required=True, help="comma-separated parts")
    p.add_argument("--mu", default="", help="comma-separated parts (may be empty)")
    p.add_argument("--rank", type=int, required=True, metavar="N")
    p.add_argument("--poly-only", action="store_true")

    return parser


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    text = text.strip()
    values = []
    for k, tok in enumerate(text.split(",") if text else ()):
        try:
            values.append(int(tok))
        except ValueError:
            raise PolySyntaxError(f"bad {what} list {text!r}", k) from None
    return tuple(values)


def _parse_points(text: str) -> tuple[tuple[int, int], ...]:
    points = []
    for k, tok in enumerate(text.split(",")):
        parts = tok.strip().split(":")
        if len(parts) != 2:
            raise PolySyntaxError(f"bad snake point {tok.strip()!r}", k)
        try:
            points.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise PolySyntaxError(f"bad snake point {tok.strip()!r}", k) from None
    return tuple(points)


def _write_family(poly: DrinfeldPoly, extra: dict, out: IO[str]) -> None:
    """Write the family payload; "verdict" sorts after every other key."""
    graph = build_graph(q_factorize(poly))
    payload = {"polynomial": poly_to_json(poly), "graph": graph_to_json_obj(graph), **extra}
    verdict = classify(graph)
    _write_last_key(out, payload, "verdict", lambda: _write_verdict(verdict, out))


def _cmd_family(args, inp: IO[str], out: IO[str]) -> int:
    if args.family == "tournament":
        poly = tournament_family(args.N, args.n)
        extra = {}
    elif args.family == "snake":
        snake = Snake(DynkinA(args.rank), _parse_points(args.points))
        poly = snake_to_poly(snake)
        extra = {"snake": is_snake(snake), "prime_snake": is_prime_snake(snake)}
    else:
        shape = SkewShape(
            DynkinA(args.rank),
            _parse_int_list(args.lam, "lambda"),
            _parse_int_list(args.mu, "mu"),
        )
        poly, table = skew_to_poly(shape)
        extra = {
            "nu": [list(row) for row in skew_nu_table(shape)],
            "table": [[list(cell) for cell in row] for row in table],
        }
    if args.poly_only:
        print(poly_to_text(poly), file=out)
        return 0
    _write_family(poly, extra, out)
    out.write("\n")
    return 0


def run(argv: list[str], stdout: IO[str] | None = None, stdin: IO[str] | None = None) -> int:
    """Parse and execute one command; returns the exit code."""
    out = stdout if stdout is not None else sys.stdout
    inp = stdin if stdin is not None else sys.stdin
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.handler(args, inp, out)
    except (QfgError, ValueError) as e:
        print(f"qfactgraph: error: {e}", file=sys.stderr)
        return DATA_ERROR


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull, so that the
        # interpreter's flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("qfactgraph: error: stdout was closed before the output was written", file=sys.stderr)
        code = IO_ERROR
    sys.exit(code)


if __name__ == "__main__":
    main()
