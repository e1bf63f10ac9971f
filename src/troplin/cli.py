"""Command-line interface.

Every command reads JSON files or inline points, runs one operation, and
prints a JSON report (or a plain-text rendering with --pretty).  Exit codes:
0 for accepted/true verdicts, 1 for rejected/false verdicts, and 2 for
malformed input or exceeded budgets.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import io as tio
from .complexes import DEFAULT_BUDGET, chain_fan, is_balanced, recession_fan, star_fan
from .errors import InvalidInputError, ResourceLimitError
from .matroids import ChainFamily, enumerate_matroids
from .points import TropPoint, segment
from .recognize import convexity_probe, decide_complex, local_check, recognize_fan
from .valuated import member


POINT_OPTIONS = ("--from", "--to", "--point")


def _attach_point_values(argv: list[str]) -> list[str]:
    """Write `--from -1,2` as `--from=-1,2`, since argparse reads a separate
    value with a leading minus as an option unless it is a plain number.
    Abbreviations are joined too: after the command, argparse resolves any
    prefix of a point option to it, since no command has another option
    with such a prefix."""
    out: list[str] = []
    command = False
    for arg in argv:
        last = out[-1] if out else ""
        if (
            command
            and len(last) > 2
            and any(o.startswith(last) for o in POINT_OPTIONS)
            and arg[:1] == "-"
            and arg[:2] != "--"
        ):
            out[-1] += "=" + arg
        else:
            command = command or arg[:1] != "-"
            out.append(arg)
    return out


def _parse_point(text: str) -> TropPoint:
    return TropPoint(tio.parse_frac(part) for part in text.split(","))


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # also an int literal past the digit limit
        raise InvalidInputError(f"malformed JSON in {path}: {exc}") from exc


def _render(data, pretty: bool, indent: int = 0) -> str:
    if not pretty:
        return tio.dumps(data)
    pad = "  " * indent
    if isinstance(data, dict):
        lines = []
        for key in data:
            val = data[key]
            if isinstance(val, (dict, list)) and val:
                lines.append(f"{pad}{key}:")
                lines.append(_render(val, True, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_render_scalar(val)}")
        return "\n".join(lines)
    if isinstance(data, list):
        if all(not isinstance(x, (dict, list)) for x in data):
            return pad + ", ".join(_render_scalar(x) for x in data)
        return "\n".join(_render(x, True, indent) for x in data)
    return pad + _render_scalar(data)


def _render_scalar(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, list):
        return "[" + ", ".join(_render_scalar(v) for v in x) + "]"
    return tio.number_to_json(x)


def _emit(data, pretty: bool) -> None:
    print(_render(data, pretty))


def cmd_bergman(args) -> int:
    matroid = tio.matroid_from_json(_load(args.matroid))
    fan = chain_fan(ChainFamily(matroid.n, matroid.flats | {matroid.ground}))
    _emit(tio.complex_to_json(fan), args.pretty)
    return 0


def cmd_segment(args) -> int:
    x = _parse_point(getattr(args, "from"))
    y = _parse_point(args.to)
    points = segment(x, y)
    _emit({"breakpoints": [tio.point_to_json(p) for p in points]}, args.pretty)
    return 0


def cmd_member(args) -> int:
    valuated = tio.valuated_from_json(_load(args.valuated))
    x = _parse_point(args.point)
    verdict = member(valuated, x)
    _emit({"member": verdict, "point": tio.point_to_json(x)}, args.pretty)
    return 0 if verdict else 1


def cmd_balanced(args) -> int:
    complex_ = tio.complex_from_json(_load(args.complex))
    check = is_balanced(complex_)
    data = {"balanced": check.ok}
    if not check.ok:
        data["witness"] = tio.cell_to_json(check.witness)
    _emit(data, args.pretty)
    return 0 if check.ok else 1


def cmd_recession(args) -> int:
    complex_ = tio.complex_from_json(_load(args.complex))
    fan = recession_fan(complex_, budget=args.budget)
    _emit(tio.complex_to_json(fan), args.pretty)
    return 0


def cmd_star(args) -> int:
    complex_ = tio.complex_from_json(_load(args.complex))
    fan = star_fan(complex_, _parse_point(args.point))
    _emit(tio.complex_to_json(fan), args.pretty)
    return 0


def cmd_chains(args) -> int:
    family = tio.chain_family_from_json(_load(args.family))
    _emit(tio.complex_to_json(chain_fan(family)), args.pretty)
    return 0


def cmd_recognize(args) -> int:
    complex_ = tio.complex_from_json(_load(args.complex))
    report = recognize_fan(complex_, budget=args.budget)
    _emit(tio.report_to_json(report), args.pretty)
    return 0 if report.accepted else 1


def cmd_decide(args) -> int:
    complex_ = tio.complex_from_json(_load(args.complex))
    report = decide_complex(complex_, budget=args.budget)
    _emit(tio.report_to_json(report), args.pretty)
    return 0 if report.accepted else 1


def cmd_local_check(args) -> int:
    complex_ = tio.complex_from_json(_load(args.complex))
    report = local_check(complex_, budget=args.budget)
    _emit(tio.local_check_to_json(report), args.pretty)
    return 0 if report.accepted else 1


def cmd_probe(args) -> int:
    complex_ = tio.complex_from_json(_load(args.complex))
    result = convexity_probe(complex_, samples=args.samples, seed=args.seed)
    _emit(tio.probe_to_json(result), args.pretty)
    return 0 if result.ok else 1


def cmd_enumerate(args) -> int:
    matroids = enumerate_matroids(args.n)
    _emit(
        {"n": args.n, "count": len(matroids), "matroids": [tio.matroid_to_json(m) for m in matroids]},
        args.pretty,
    )
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="troplin",
        description="Exact tropical convexity and tropical linear space recognition.",
    )
    parser.add_argument("--pretty", action="store_true", help="human-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bergman", help="chains-of-flats fan of a matroid")
    p.add_argument("matroid")
    p.set_defaults(func=cmd_bergman)

    p = sub.add_parser("segment", help="breakpoints of a tropical segment")
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("member", help="tropical linear space membership")
    p.add_argument("valuated")
    p.add_argument("--point", required=True)
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("balanced", help="check the balancing equation")
    p.add_argument("complex")
    p.set_defaults(func=cmd_balanced)

    p = sub.add_parser("recession", help="recession fan with aggregated weights")
    p.add_argument("complex")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_recession)

    p = sub.add_parser("star", help="star fan at a support point")
    p.add_argument("complex")
    p.add_argument("--point", required=True)
    p.set_defaults(func=cmd_star)

    p = sub.add_parser("chains", help="fan of chains in a subset family")
    p.add_argument("family")
    p.set_defaults(func=cmd_chains)

    p = sub.add_parser("recognize", help="recognize a matroidal fan")
    p.add_argument("complex")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("decide", help="decide a complex via its recession fan")
    p.add_argument("complex")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("local-check", help="recognize the star at every vertex")
    p.add_argument("complex")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_local_check)

    p = sub.add_parser("probe", help="seeded convexity counterexample search")
    p.add_argument("complex")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("enumerate", help="all loopfree matroids on n elements")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_enumerate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_point_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except (InvalidInputError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
