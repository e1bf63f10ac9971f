"""Command-line interface.

Every command reads JSON files or inline points, runs one operation, and
prints a JSON report (or a plain-text rendering with --pretty).  Each
subcommand is declared once, in `_COMMANDS`, with a function that returns
its report and its verdict; `main` alone owns the exit codes: 0 for
accepted/true verdicts, 1 for rejected/false verdicts, and 2 for malformed
input or exceeded budgets, found while running the command or rendering
its report.
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
from .points import segment
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
    return tio.number_to_json(x)


def _complex(args):
    return tio.complex_from_json(_load(args.complex))


def _cmd_bergman(args):
    matroid = tio.matroid_from_json(_load(args.matroid))
    fan = chain_fan(ChainFamily(matroid.n, matroid.flats | {matroid.ground}))
    return tio.complex_to_json(fan), True


def _cmd_segment(args):
    x = tio.point_from_json(getattr(args, "from").split(","))
    y = tio.point_from_json(args.to.split(","))
    return {"breakpoints": [tio.point_to_json(p) for p in segment(x, y)]}, True


def _cmd_member(args):
    valuated = tio.valuated_from_json(_load(args.valuated))
    x = tio.point_from_json(args.point.split(","))
    verdict = member(valuated, x)
    return {"member": verdict, "point": tio.point_to_json(x)}, verdict


def _cmd_balanced(args):
    check = is_balanced(_complex(args))
    data = {"balanced": check.ok}
    if not check.ok:
        data["witness"] = tio.cell_to_json(check.witness)
    return data, check.ok


def _cmd_recession(args):
    return tio.complex_to_json(recession_fan(_complex(args), budget=args.budget)), True


def _cmd_star(args):
    complex_ = _complex(args)  # read first, so its errors come before the point's
    fan = star_fan(complex_, tio.point_from_json(args.point.split(",")))
    return tio.complex_to_json(fan), True


def _cmd_chains(args):
    return tio.complex_to_json(chain_fan(tio.chain_family_from_json(_load(args.family)))), True


def _cmd_recognize(args):
    report = recognize_fan(_complex(args), budget=args.budget)
    return tio.report_to_json(report), report.accepted


def _cmd_decide(args):
    report = decide_complex(_complex(args), budget=args.budget)
    return tio.report_to_json(report), report.accepted


def _cmd_local_check(args):
    report = local_check(_complex(args), budget=args.budget)
    return tio.local_check_to_json(report), report.accepted


def _cmd_probe(args):
    result = convexity_probe(_complex(args), samples=args.samples, seed=args.seed)
    return tio.probe_to_json(result), result.ok


def _cmd_enumerate(args):
    matroids = [tio.matroid_to_json(m) for m in enumerate_matroids(args.n)]
    return {"n": args.n, "count": len(matroids), "matroids": matroids}, True


# the keyword arguments of every option; a name missing here is a positional
_SPECS = {
    "--budget": {"type": int, "default": DEFAULT_BUDGET},
    "--samples": {"type": int, "default": 200},
    "--seed": {"type": int, "default": 0},
    "--n": {"type": int, "required": True},
    **dict.fromkeys(POINT_OPTIONS, {"required": True}),
}

# (name, help, argument names, function) of every subcommand, in --help order
_COMMANDS = (
    ("bergman", "chains-of-flats fan of a matroid", "matroid", _cmd_bergman),
    ("segment", "breakpoints of a tropical segment", "--from --to", _cmd_segment),
    ("member", "tropical linear space membership", "valuated --point", _cmd_member),
    ("balanced", "check the balancing equation", "complex", _cmd_balanced),
    ("recession", "recession fan with aggregated weights", "complex --budget", _cmd_recession),
    ("star", "star fan at a support point", "complex --point", _cmd_star),
    ("chains", "fan of chains in a subset family", "family", _cmd_chains),
    ("recognize", "recognize a matroidal fan", "complex --budget", _cmd_recognize),
    ("decide", "decide a complex via its recession fan", "complex --budget", _cmd_decide),
    ("local-check", "recognize the star at every vertex", "complex --budget", _cmd_local_check),
    ("probe", "seeded convexity counterexample search", "complex --samples --seed", _cmd_probe),
    ("enumerate", "all loopfree matroids on n elements", "--n", _cmd_enumerate),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="troplin",
        description="Exact tropical convexity and tropical linear space recognition.",
    )
    parser.add_argument("--pretty", action="store_true", help="human-readable output")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, arguments, func in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for argument in arguments.split():
            p.add_argument(argument, **_SPECS.get(argument, {}))
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    """Run one command: print its report and return 0 for an accepted or
    true verdict and 1 for a rejected or false one, or print the error and
    return 2 for malformed input or an exceeded budget, rendering included."""
    parser = build_parser()
    args = parser.parse_args(_attach_point_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        payload, verdict = args.func(args)
        print(_render(payload, args.pretty))
    except (InvalidInputError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if verdict else 1


if __name__ == "__main__":
    sys.exit(main())
