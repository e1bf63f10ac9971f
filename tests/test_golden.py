"""Committed digests of what the command line prints.

Each case runs `troplin.cli.main` in-process on a JSON document built from
the corpora of `conftest.py` and hashes its stdout, its stderr and its exit
code.  Segment coverage, which no command prints on its own, has one case
per complex of `coverage_complexes`: the `segment_in_support` result of
every seeded pair of `coverage_pairs`, hashed with the pair.  The documents
are written to one file in a scratch working directory, so a file name in a
message is the same on every run, and help is formatted 80 columns wide.
`golden_digests.json` maps each case, named by its input and its command
line, to that SHA-256, so a change to any byte a command prints, to an exit
code or to a coverage result, fails here.  After a change of output
that is meant, regenerate the file from the repository root with

    PYTHONPATH=src:tests python tests/test_golden.py

and name every entry that changed, with its reason, in CHANGES.md.
"""

import hashlib
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from troplin import io as tio
from troplin.cli import _COMMANDS, main
from troplin.complexes import WeightedComplex, segment_in_support
from troplin.matroids import enumerate_matroids
from troplin.points import TropPoint

from conftest import (
    MALFORMED_CELLS,
    MALFORMED_STRUCTURES,
    _benchmark_workloads,
    benchmark_tree_line,
    braid_fan_corpus,
    coarse_uniform_corpus,
    coverage_corpus,
    coverage_pairs,
    het_bound_fans,
    holed_tree_line,
    overlapping_cones,
    skeleton_fan_corpus,
)

DIGESTS = Path(__file__).with_name("golden_digests.json")
INPUT = "input.json"

FAN_COMMANDS = (
    ["recognize", INPUT],
    ["decide", INPUT],
    ["local-check", INPUT],
    ["probe", INPUT, "--samples", "20"],
)
COMPLEX_COMMANDS = (*FAN_COMMANDS, ["balanced", INPUT], ["recession", INPUT])
MUTANT_COMMANDS = (["decide", INPUT], ["local-check", INPUT], ["balanced", INPUT])
PROBE_50 = ["probe", INPUT, "--samples", "50", "--seed", "7"]
SEGMENT_CASE = "segment_in_support on seeded pairs"

U23 = [[1, 2], [1, 3], [2, 3]]
U24 = [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]


def _run(argv: list[str]) -> tuple[str, str, int]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    return out.getvalue(), err.getvalue(), code


def _point(p: TropPoint) -> str:
    return ",".join(tio.point_to_json(p))


def _cases():
    """(input name, document, command lines) of every case in order; a
    document is JSON data, raw text, a complex, or None for no input file."""
    yield "help", None, [["--help"]] + [[name, "--help"] for name, *_ in _COMMANDS]
    yield "no input", None, [
        *(["enumerate", "--n", str(n)] for n in range(0, 5)),
        ["--pretty", "enumerate", "--n", "3"],
        ["segment", "--from", "0,0,0", "--to", "0,1,2"],
        ["segment", "--from", "0,-1,3,1/2", "--to", "0,2,-5/2,7"],
        ["--pretty", "segment", "--from", "0,-1,3", "--to", "0,2,-5/2"],
        ["segment", "--from", "0,0", "--to", "0,1,2"],
        ["segment", "--from", "0,x", "--to", "0,1"],
        ["recognize", "missing.json"],
    ]
    yield "malformed JSON", "{not json", [["recognize", INPUT]]
    for k, (cells, _) in enumerate(MALFORMED_CELLS):
        yield f"malformed cells #{k}", {"n": 3, "cells": cells}, [["recognize", INPUT]]
    for k, (command, data) in enumerate(MALFORMED_STRUCTURES):
        yield f"malformed structure #{k}", data, [[command, INPUT]]
    yield "complex without cells", {"n": 3}, [["recognize", INPUT]]
    yield "family without sets", {"n": 3}, [["chains", INPUT]]
    yield "valuated without weights", {"n": 3, "bases": U23}, [
        ["member", INPUT, "--point", "0,0,0"]
    ]
    valuated = {
        "bad basis key": {"1,x": "0", "1,3": "0", "2,3": "0"},
        "weight on a non-basis": {"1,2": "0", "1,3": "0", "2,3": "0", "1,4": "3"},
        "basis named twice": {"1,2": "0", "2,1": "5", "1,3": "0", "2,3": "0"},
        "basis named twice, swapped": {"2,1": "0", "1,2": "5", "1,3": "0", "2,3": "0"},
        "repeated element after its basis": {"1,2": "0", "1,1,2": "5", "1,3": "0", "2,3": "0"},
        "repeated element": {"1,1,2": "0", "1,3": "0", "2,3": "0"},
    }
    for name, weights in valuated.items():
        doc = {"n": 3, "bases": U23, "weights": weights}
        yield f"valuated with {name}", doc, [["member", INPUT, "--point", "0,0,0"]]
    pluecker = {",".join(map(str, b)): "5" if b == [3, 4] else "0" for b in U24}
    yield "valuated off the Pluecker relations", {"n": 4, "bases": U24, "weights": pluecker}, [
        ["member", INPUT, "--point", "0,0,0,0"]
    ]
    yield "matroid with a repeated element", {"n": 3, "bases": [[1, 2, 2], [1, 3], [2, 3]]}, [
        ["bergman", INPUT]
    ]
    yield "family with a repeated element", {"n": 3, "sets": [[1, 1]]}, [["chains", INPUT]]
    for name, sets in [
        ("flats of U(2,3)", [[1], [2], [3], [1, 2, 3]]),
        ("nested sets", [[1], [1, 2], [3]]),
        ("chain of four", [[2], [2, 4], [1, 2, 4], [1, 2, 3, 4]]),
    ]:
        yield f"family {name}", {"n": max(map(max, sets)), "sets": sets}, [
            ["chains", INPUT],
            ["--pretty", "chains", INPUT],
        ]
    yield "overlapping cones", overlapping_cones(), [
        ["recession", INPUT, "--budget", "1"],
        ["recession", INPUT, "--budget", "2"],
        ["decide", INPUT, "--budget", "1"],
        ["decide", INPUT],
    ]
    for n in range(1, 6):
        for k, matroid in enumerate(enumerate_matroids(n)):
            yield f"matroid n={n} #{k}", tio.matroid_to_json(matroid), [["bergman", INPUT]]
            yield f"bergman fan of matroid n={n} #{k}", "stdout", FAN_COMMANDS
    for name, corpus, commands in [
        ("braid fan", braid_fan_corpus(4), (["recognize", INPUT],)),
        ("coarse uniform fan", coarse_uniform_corpus(4), (["recognize", INPUT],)),
        ("skeleton fan", skeleton_fan_corpus(), (["recognize", INPUT],)),
        ("het bound fan", het_bound_fans(), (["recognize", INPUT], ["decide", INPUT])),
    ]:
        for k, fan in enumerate(corpus):
            yield f"{name} #{k}", fan, commands
    for n in range(4, 8):
        for name, cx in [
            ("tree line", benchmark_tree_line(n)),
            ("holed tree line", holed_tree_line(n)),
        ]:
            star = ["star", INPUT, "--point", _point(cx.cells[0].vertices[0])]
            commands = [*COMPLEX_COMMANDS, star]
            yield f"{name} n={n}", cx, commands
            if n == 4:
                yield f"{name} n={n}", cx, [["--pretty", *argv] for argv in commands]
    workloads = _benchmark_workloads()
    for seed in (301, 302, 305):
        for k, recipe in enumerate(workloads.valuated_recipes(seed, small=False)):
            if recipe.mutant is None:  # the fixed translates, of 20 and 60 cells
                continue
            case = recipe.make()
            cx = case.complex_
            if len(cx.cells) > 10:
                continue
            name = f"valuated seed={seed} #{k}"
            points = [cx.cells[0].vertices[0], TropPoint(range(cx.n))]
            yield name, tio.valuated_to_json(case.valuated), [
                ["member", INPUT, "--point", _point(p)] for p in points
            ]
            yield f"complex of {name}", cx, COMPLEX_COMMANDS
            yield f"mutant of {name}", workloads.mutate(cx, recipe.mutant), MUTANT_COMMANDS
    yield "matroid U(2,3)", {"n": 3, "bases": U23}, [["--pretty", "bergman", INPUT]]
    for name, cx in coverage_complexes():
        yield name, cx, [PROBE_50]


def coverage_complexes():
    """(name, complex) of every complex whose probe with 50 samples and
    seed 7 and whose segment coverage are pinned: the seeded complexes of
    `coverage_corpus`, mostly of cells that are not alcoved, and the tree
    lines and holed tree lines n = 4..7, whose cells all are."""
    yield from coverage_corpus()
    for n in range(4, 8):
        yield f"tree line n={n}", benchmark_tree_line(n)
        yield f"holed tree line n={n}", holed_tree_line(n)


def _segment_digest(cx) -> str:
    checks = []
    for a, b in coverage_pairs(cx, 7):
        check = segment_in_support(cx, a, b)
        gap = check.gap_point and _point(check.gap_point)
        checks.append([_point(a), _point(b), check.covered, str(check.gap_param), gap])
    return hashlib.sha256(json.dumps(checks).encode()).hexdigest()


def digests() -> dict[str, str]:
    """The SHA-256 of each case's stdout, stderr and exit code, by case name;
    run in an empty working directory.  A case whose document is "stdout"
    reads what the case before it printed."""
    found: dict[str, str] = {}
    printed = ""
    for name, document, commands in _cases():
        if isinstance(document, WeightedComplex):
            document = json.dumps(tio.complex_to_json(document))
        elif document == "stdout":
            document = printed
        elif document is not None and not isinstance(document, str):
            document = json.dumps(document)
        if document is not None:
            Path(INPUT).write_text(document)
        for argv in commands:
            out, err, code = _run(list(argv))
            key = f"{name} :: {' '.join(argv)}"
            assert key not in found, key
            found[key] = hashlib.sha256(json.dumps([out, err, code]).encode()).hexdigest()
            printed = out
    for name, cx in coverage_complexes():
        found[f"{name} :: {SEGMENT_CASE}"] = _segment_digest(cx)
    return found


def test_every_case_prints_its_committed_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    expected = json.loads(DIGESTS.read_text())
    found = digests()
    changed = sorted(k for k in expected.keys() | found.keys() if expected.get(k) != found.get(k))
    assert not changed, f"{len(changed)} of {len(expected)} digests differ: {changed[:20]}"


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    here = Path.cwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        table = digests()
        os.chdir(here)
    DIGESTS.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {DIGESTS}")
