"""Fuzzing complex, set-family, matroid and valuated-matroid JSON and inline
points through the command line: every input, however malformed or
degenerate, ends in exit 0, 1 or 2 and never in a traceback."""

import contextlib
import io
import json
import sys
import tempfile
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from troplin.cli import main

FUZZ = settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def direction(draw, n):
    """+-e_F over a random subset F, at scale 1, 2 or 1/2, or a random
    small integer vector, as JSON rationals."""
    if draw(st.booleans()):
        subset = draw(st.sets(st.integers(0, n - 1)))
        value = draw(st.sampled_from(["-1", "1", "-2", "2", "-1/2", "1/2"]))
        return [value if i in subset else "0" for i in range(n)]
    return [str(x) for x in draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))]


@st.composite
def complex_json(draw):
    n = draw(st.integers(2, 4))
    cells = []
    for _ in range(draw(st.integers(1, 4))):
        zero = draw(st.booleans())
        vertices = [
            [0] * n if zero else draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
            for _ in range(draw(st.integers(1, 2)))
        ]
        cell = {
            "vertices": vertices,
            "rays": [draw(direction(n)) for _ in range(draw(st.integers(0, 3)))],
            "weight": draw(st.sampled_from([1, 1, 1, 2, 0])),
        }
        if draw(st.integers(0, 5)) == 0:
            cell["lineality"] = [draw(direction(n))]
        cells.append(cell)
    return {"n": n, "cells": cells}


@st.composite
def family_json(draw):
    """Subsets of {0..n+1}, so some fall outside the ground set {1..n}, and
    often the ground set itself."""
    n = draw(st.integers(1, 5))
    subset = st.lists(st.integers(0, n + 1), max_size=n, unique=True)
    sets = draw(st.lists(subset, max_size=8))
    if draw(st.booleans()):
        sets.append(list(range(1, n + 1)))
    return {"n": n, "sets": sets}


@st.composite
def matroid_json(draw):
    """All r-subsets of {1..n} (a uniform matroid), a random family of
    r-subsets, or a family of random subsets."""
    n = draw(st.integers(1, 5))
    r = draw(st.integers(1, n))
    r_subsets = [list(c) for c in combinations(range(1, n + 1), r)]
    kind = draw(st.integers(0, 2))
    if kind == 0:
        bases = r_subsets
    elif kind == 1:
        bases = draw(st.lists(st.sampled_from(r_subsets), min_size=1, max_size=6))
    else:
        bases = draw(st.lists(st.lists(st.integers(0, n + 1), max_size=n), max_size=4))
    return {"n": n, "bases": bases}


@st.composite
def number_text(draw):
    """A small rational, a power of ten whose exponent is near the digit
    limit of printing (10^limit parses but has one digit too many to print,
    and an exponent past the limit is refused), or text that is no number."""
    limit = sys.get_int_max_str_digits()
    kind = draw(st.integers(0, 11))
    if kind == 0:
        exponent = draw(st.sampled_from([limit - 1, limit, limit + 1]))
        return draw(st.sampled_from(["", "-"])) + "1e" + draw(st.sampled_from(["", "-"])) + str(exponent)
    if kind == 1:
        return draw(st.sampled_from(["", "x", "1/0", "nan", "inf", "1e", "2.5", "1_0"]))
    return str(Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4))))


@st.composite
def point_text(draw, n):
    """n coordinates, or sometimes one more, joined by commas."""
    size = n + draw(st.sampled_from([0] * 7 + [1]))
    return ",".join(draw(number_text()) for _ in range(size))


@st.composite
def valuated_json(draw):
    """Half the time a uniform matroid valued by w(B) = the sum of small
    rationals a_i over i in B, which passes the Pluecker relations;
    otherwise a matroid drawn by `matroid_json` with a weight drawn by
    `number_text` on each basis, sometimes one missing and sometimes one on
    a set that is no basis."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        bases = [list(c) for c in combinations(range(1, n + 1), draw(st.integers(1, n)))]
        a = [Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 2))) for _ in range(n)]
        weights = {",".join(map(str, b)): str(sum(a[i - 1] for i in b)) for b in bases}
        return {"n": n, "bases": bases, "weights": weights}
    data = draw(matroid_json())
    keys = [",".join(map(str, sorted(set(b)))) for b in data["bases"]]
    if keys and draw(st.booleans()):
        keys = keys[1:]
    if draw(st.integers(0, 4)) == 0:
        keys.append(",".join(map(str, range(1, data["n"] + 1))))
    data["weights"] = {key: draw(number_text()) for key in keys}
    return data


def run_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
    else:
        json.loads(out.getvalue())


def run_cli(command, data, args=()):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "complex.json"
        path.write_text(json.dumps(data))
        run_argv([command, str(path), *args])


@FUZZ
@given(complex_json())
def test_recognize_never_crashes(data):
    run_cli("recognize", data)


@FUZZ
@given(complex_json())
def test_balanced_never_crashes(data):
    run_cli("balanced", data)


@FUZZ
@given(complex_json())
def test_decide_never_crashes(data):
    run_cli("decide", data)


@FUZZ
@given(complex_json())
def test_local_check_never_crashes(data):
    run_cli("local-check", data)


# more examples than the other commands: most drawn complexes fail
# validation, and with 30 none of the valid ones has a lineality cell
@settings(FUZZ, max_examples=100)
@given(complex_json(), st.integers(0, 2**32))
def test_probe_never_crashes(data, seed):
    run_cli("probe", data, ["--samples", "20", "--seed", str(seed)])


@FUZZ
@given(family_json())
def test_chains_never_crashes(data):
    run_cli("chains", data)


@FUZZ
@given(matroid_json())
def test_bergman_never_crashes(data):
    run_cli("bergman", data)


# more examples than the other commands, so that each kind of number meets
# each command several times
@settings(FUZZ, max_examples=80)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(point_text(n), point_text(n))))
def test_segment_never_crashes(ends):
    run_argv(["segment", "--from", ends[0], "--to", ends[1]])


@settings(FUZZ, max_examples=80)
@given(valuated_json(), st.data())
def test_member_never_crashes(data, draw):
    run_cli("member", data, ["--point", draw.draw(point_text(data["n"]))])
