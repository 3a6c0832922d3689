"""Command-line front end.

Exit codes: 0 success (and Prime verdicts), 1 NotPrime or failed check,
2 Unknown verdict, 64 usage error, 65 bad input data.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import IO

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
    canonical,
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
from .primality import Verdict, classify
from .redsets import rset, rset_restricted

USAGE_ERROR = 64
DATA_ERROR = 65

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


def _verdict_to_json(v: Verdict) -> dict:
    out: dict = {"outcome": v.outcome}
    if v.certificate is not None:
        out["certificate"] = v.certificate
    if v.reason is not None:
        out["reason"] = v.reason
    if v.witness is not None:
        out["witness"] = [poly_to_json(p) for p in v.witness]
    if v.report is not None:
        out["report"] = [
            {
                "left": sorted(c.cut.left),
                "right": sorted(c.cut.right),
                "status": c.status,
                "witness": (
                    [c.witness.left_vertex, c.witness.right_vertex]
                    if c.witness is not None
                    else None
                ),
            }
            for c in v.report
        ]
    return out


def _cmd_factorize(args, inp: IO[str], out: IO[str]) -> int:
    poly = q_factorize(_read_poly(args, inp))
    print(_dumps(poly_to_json(poly)) if args.json else poly_to_text(poly), file=out)
    return 0


def _cmd_graph(args, inp: IO[str], out: IO[str]) -> int:
    graph = canonical(build_graph(_read_poly(args, inp)))
    if args.dot:
        out.write(graph_to_dot(graph, hasse=args.hasse))
    else:
        print(_dumps(graph_to_json_obj(graph)), file=out)
    return 0


def _cmd_check(args, inp: IO[str], out: IO[str]) -> int:
    graph = canonical(build_graph(_read_poly(args, inp)))
    report = validate(graph, args.level)
    failures = [
        {"kind": f.kind, "vertices": list(f.vertices), "message": f.message}
        for f in report.failures
    ]
    print(_dumps({"level": report.level, "ok": report.ok, "failures": failures}), file=out)
    return 0 if report.ok else 1


def _cmd_verdict(args, inp: IO[str], out: IO[str]) -> int:
    graph = canonical(build_graph(q_factorize(_read_poly(args, inp))))
    verdict = classify(graph)
    print(_dumps(_verdict_to_json(verdict)), file=out)
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
    _write_int_list(rs.members, out)
    return 0


def _write_int_list(values: range, out: IO[str]) -> None:
    """Print json.dumps(list(values)) in chunks straight from the range,
    so memory stays constant however many values there are."""
    out.write("[")
    for start in range(0, len(values), _CHUNK):
        if start:
            out.write(", ")
        out.write(", ".join(map(str, values[start : start + _CHUNK])))
    out.write("]\n")


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
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise PolySyntaxError(f"bad {what} list {text!r}", 0) from None


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


def _family_payload(poly: DrinfeldPoly, extra: dict) -> dict:
    graph = canonical(build_graph(q_factorize(poly)))
    payload = {
        "polynomial": poly_to_json(poly),
        "graph": graph_to_json_obj(graph),
        "verdict": _verdict_to_json(classify(graph)),
    }
    payload.update(extra)
    return payload


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
    print(_dumps(_family_payload(poly, extra)), file=out)
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
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
