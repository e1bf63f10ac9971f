"""Fuzzing complex, set-family and matroid JSON through the command line:
every input, however malformed or degenerate, ends in exit 0, 1 or 2 and
never in a traceback."""

import contextlib
import io
import json
import tempfile
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


def run_cli(command, data, args=()):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "complex.json"
        path.write_text(json.dumps(data))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path), *args])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
    else:
        json.loads(out.getvalue())


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
