"""JSON serialization for points, matroids, complexes, and reports.

Rationals travel as strings like "3" or "-1/2" so nothing is ever rounded;
reading gives the canonical number of `troplin.points`, an int for both "3"
and "4/2".
Ground elements are 1-indexed and listed ascending.  Reading canonicalizes:
points get their first coordinate subtracted and basis valuations are checked
against the Pluecker relations; a complex's braid cones at the origin are
read off their representatives as written, with no point made, each
distinct vector of a document parsed once and each distinct ray's set read
once.  One writer, `cell_to_json`, writes every cell, alone or in a
complex, as its `Cell.generators` lifted as (0,) + v, which a cell built
from a chain writes from its apex and sets, with no polyhedron.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

from .complexes import Cell, WeightedComplex
from .errors import InvalidInputError, ResourceLimitError
from .matroids import ChainFamily, Matroid, _sorted_sets
from .points import Rational, TropPoint, _frac
from .recognize import LocalCheckReport, ProbeResult, Reason, RecognitionReport
from .valuated import ValuatedMatroid


_INTEGER = re.compile(r"-?[0-9]+")
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z")
_TOO_LONG = "a number to print has more than {} digits"
_EMPTY_POINT = "a point is a nonempty array of rationals"


def parse_frac(s) -> Rational:
    """The rational that `Fraction(str(s))` reads, as a canonical number;
    plain ASCII integers skip the Fraction parser.  An exponent larger in
    magnitude than `sys.get_int_max_str_digits()`, the limit that refuses
    integer strings that long, is refused before Fraction builds its power
    of ten."""
    text = str(s)
    try:
        if _INTEGER.fullmatch(text):
            return int(text)
        limit = sys.get_int_max_str_digits()
        exponent = _EXPONENT.search(text)
        if limit and exponent and int(exponent[1]) > limit:
            raise ValueError("exponent past the digit limit")
        return _frac(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"not a rational: {s!r}") from exc


def _arrays(raw, what: str) -> list[list]:
    """Check that a JSON value is an array of arrays."""
    if not isinstance(raw, list) or not all(isinstance(x, list) for x in raw):
        raise InvalidInputError(f"{what} must be an array of arrays")
    return raw


def _int_sets(raw, what: str) -> list[list[int]]:
    """Check that a JSON value is an array of arrays of distinct integers."""
    for s in _arrays(raw, what):
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in s):
            raise InvalidInputError(f"{what} must hold arrays of integers")
        _distinct(s, what)
    return raw


def _distinct(elems: list[int], what: str) -> None:
    """Refuse a set of elements of `what` that names one twice."""
    if len(set(elems)) < len(elems):
        x = next(x for k, x in enumerate(elems) if x in elems[:k])
        raise InvalidInputError(f"element {x} repeated in {elems} of {what}")


def _size(n) -> int:
    """Check that a JSON 'n' is an integer of at least one."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InvalidInputError("'n' must be an integer >= 1")
    return n


def number_to_json(x) -> str:
    """`str(x)`, or ResourceLimitError past `sys.get_int_max_str_digits()`."""
    try:
        return str(x)
    except ValueError as exc:
        raise ResourceLimitError(_TOO_LONG.format(sys.get_int_max_str_digits())) from exc


def point_to_json(p: TropPoint) -> list[str]:
    return [number_to_json(c) for c in p.coords]


def point_from_json(data) -> TropPoint:
    if not isinstance(data, (list, tuple)) or not data:
        raise InvalidInputError(_EMPTY_POINT)
    return TropPoint(parse_frac(c) for c in data)


def vector_to_json(v) -> list[str]:
    return [number_to_json(c) for c in v]


def matroid_to_json(m: Matroid) -> dict:
    return {
        "n": m.n,
        "bases": [sorted(b) for b in _sorted_sets(m.bases)],
    }


def matroid_from_json(data) -> Matroid:
    try:
        n, bases = data["n"], data["bases"]
    except (KeyError, TypeError) as exc:
        raise InvalidInputError("matroid JSON needs fields 'n' and 'bases'") from exc
    return Matroid(_size(n), _int_sets(bases, "'bases'"))


def valuated_to_json(v: ValuatedMatroid) -> dict:
    out = matroid_to_json(v.matroid)
    out["weights"] = {
        ",".join(str(i) for i in sorted(b)): str(v.weights[b])
        for b in _sorted_sets(v.matroid.bases)
    }
    return out


def valuated_from_json(data) -> ValuatedMatroid:
    matroid = matroid_from_json(data)
    raw = data.get("weights")
    if not isinstance(raw, dict):
        raise InvalidInputError("valuated matroid JSON needs a 'weights' mapping")
    weights = {}
    for key, val in raw.items():
        try:
            elems = [int(x) for x in str(key).split(",")]
        except ValueError as exc:
            raise InvalidInputError(f"bad basis key {key!r}") from exc
        basis = frozenset(elems)
        if basis in weights:
            raise InvalidInputError(f"basis {sorted(basis)} named twice in 'weights'")
        _distinct(elems, "'weights'")
        weights[basis] = parse_frac(val)
    return ValuatedMatroid(matroid, weights)


def chain_family_to_json(f: ChainFamily) -> dict:
    return {"n": f.n, "sets": [sorted(s) for s in _sorted_sets(f.sets)]}


def chain_family_from_json(data) -> ChainFamily:
    try:
        n, sets = data["n"], data["sets"]
    except (KeyError, TypeError) as exc:
        raise InvalidInputError("family JSON needs fields 'n' and 'sets'") from exc
    return ChainFamily(_size(n), [frozenset(s) for s in _int_sets(sets, "'sets'")])


def _lifted(vectors, text: dict) -> list[list[str]]:
    """Each quotient vector v written as (0,) + v, converted once per `text`."""
    return [text.get(v) or text.setdefault(v, vector_to_json((0,) + v)) for v in vectors]


def cell_to_json(cell: Cell, weight: int | None = None, text: dict | None = None) -> dict:
    """A cell from its `Cell.generators` v lifted as (0,) + v: the canonical
    representatives of its vertices, and the length-n representatives of
    its rays and lineality that `Cell.rays` and `Cell.lineality` give, so a
    cell made by `Cell.from_braid` is written with no polyhedron.  `text`
    maps vectors to their JSON; a caller writing many cells passes one, so
    each distinct vector is converted once and equal ones share a list."""
    text = {} if text is None else text
    vertices, rays, lineality = cell.generators
    out = {"vertices": _lifted(vertices, text), "rays": _lifted(rays, text)}
    if weight is not None:
        out["weight"] = weight
    if lineality:
        out["lineality"] = _lifted(lineality, text)
    return out


def complex_to_json(c: WeightedComplex) -> dict:
    """Each cell with its weight as `cell_to_json` writes it, with one
    vector-text dict for the whole complex."""
    text: dict = {}
    return {"n": c.n, "cells": [cell_to_json(x, w, text) for x, w in zip(c.cells, c.weights)]}


class _Numbers(dict):
    """Number strings parsed by `parse_frac`, and arrays of them as tuples
    of their strings, each distinct one once.  Other JSON values, such as
    `true` and `1.0`, which equal numbers as keys but not as input, are
    parsed each time: only arrays of strings are entered, and a string
    equals nothing but a string, so an array found is one of strings."""

    def __missing__(self, key):
        if type(key) is tuple:
            value = self[key] = tuple(self[x] for x in key)
        else:
            value = self[key] = parse_frac(key)
        return value

    def vector(self, raw: list) -> tuple:
        key = tuple(raw)
        try:
            vec = self.get(key)
        except TypeError:  # a nested array or object
            vec = None
        if vec is not None:
            return vec
        if all(type(x) is str for x in raw):
            return self[key]
        return tuple(self[x] if type(x) is str else parse_frac(x) for x in raw)


def complex_from_json(data) -> WeightedComplex:
    """A braid cone at the origin is read from its chain (`Cell.from_torus`).
    One table of numbers and vectors and one of rays and sets serve the
    whole document, so each distinct vector is parsed, and each distinct
    ray's set read, once."""
    try:
        n, raw_cells = data["n"], data["cells"]
    except (KeyError, TypeError) as exc:
        raise InvalidInputError("complex JSON needs fields 'n' and 'cells'") from exc
    n = _size(n)
    if not isinstance(raw_cells, list) or not raw_cells:
        raise InvalidInputError("'cells' must be a nonempty array")
    numbers = _Numbers()
    set_rays: dict = {}
    cells = []
    weights = []
    for raw in raw_cells:
        if not isinstance(raw, dict):
            raise InvalidInputError("each cell must be a JSON object")
        verts = _arrays(raw.get("vertices", []), "'vertices'")
        if not verts:
            raise InvalidInputError("each cell needs at least one vertex")
        vertices = []
        for v in verts:
            if not v:
                raise InvalidInputError(_EMPTY_POINT)
            vertices.append(numbers.vector(v))
        rays = [numbers.vector(r) for r in _arrays(raw.get("rays", []), "'rays'")]
        lineality = [numbers.vector(l) for l in _arrays(raw.get("lineality", []), "'lineality'")]
        for vec in rays + lineality:
            if len(vec) != n:
                raise InvalidInputError("direction vectors must have length n")
        weight = raw.get("weight", 1)
        if isinstance(weight, bool) or not isinstance(weight, int) or weight <= 0:
            raise InvalidInputError("cell weights must be positive integers")
        cells.append(Cell.from_torus(n, vertices, rays, lineality, set_rays))
        weights.append(weight)
    return WeightedComplex(n, cells, weights)


def _jsonable(obj):
    if obj is None or isinstance(obj, (str, int, bool)):
        return obj
    if isinstance(obj, TropPoint):
        return point_to_json(obj)
    if isinstance(obj, Matroid):
        return matroid_to_json(obj)
    if isinstance(obj, Cell):
        return cell_to_json(obj)
    if isinstance(obj, Reason):
        return {"kind": obj.kind, "witness": _jsonable(obj.witness)}
    if isinstance(obj, frozenset):
        return sorted(obj)
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return number_to_json(obj)


def report_to_json(report: RecognitionReport) -> dict:
    return {
        "verdict": report.verdict,
        "matroid": _jsonable(report.matroid),
        "reason": _jsonable(report.reason),
        "multiplier": report.multiplier,
        "flats": _jsonable(report.flats),
    }


def local_check_to_json(report: LocalCheckReport) -> dict:
    return {
        "global": report_to_json(report.global_report),
        "vertices": [
            {
                "point": point_to_json(p),
                "report": report_to_json(r),
                "multiplier": m,
            }
            for (p, r), m in zip(report.vertex_reports, report.multipliers)
        ],
    }


def probe_to_json(result: ProbeResult) -> dict:
    if result.ok:
        return {"counterexample": None, "verdict": "no counterexample found"}
    x, y = result.pair
    return {
        "counterexample": {
            "from": point_to_json(x),
            "to": point_to_json(y),
            "gap_parameter": number_to_json(result.segment_check.gap_param),
            "gap_point": point_to_json(result.segment_check.gap_point),
        },
        "verdict": "not tropically convex",
    }


def dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed separators."""
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))
    except ValueError as exc:  # an int past the digit limit, such as a summed weight
        raise ResourceLimitError(_TOO_LONG.format(sys.get_int_max_str_digits())) from exc
