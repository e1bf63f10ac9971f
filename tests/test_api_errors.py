"""Malformed arguments to the library API raise InvalidInputError with
their messages: sizes that disagree, empty inputs and points outside."""

from fractions import Fraction

import pytest

from troplin import io as tio
from troplin.complexes import (
    Cell,
    WeightedComplex,
    chain_fan,
    point_in_support,
    primitive_normal,
    segment_in_support,
    star_fan,
)
from troplin.errors import InvalidInputError
from troplin.matroids import ChainFamily, matroid_from_bases
from troplin.points import TropPoint, e_indicator, tconv_contains, trop_combine
from troplin.polyhedra import Polyhedron
from troplin.valuated import ValuatedMatroid, certify_cell

U23 = matroid_from_bases(3, [[1, 2], [1, 3], [2, 3]])
FAN = chain_fan(ChainFamily(3, U23.flats | {U23.ground}))
CELL = FAN.cells[0]
WIDE_CELL = Cell.from_torus(4, [TropPoint((0, 0, 0, 0))], rays=[(-1, 0, 0, 0)])
P3, P4 = TropPoint((0, 0, 0)), TropPoint((0, 0, 0, 0))
VALUATED = ValuatedMatroid(U23, {b: Fraction(0) for b in U23.bases})

CASES = {
    "cell-size": (
        lambda: Cell(3, Polyhedron(1, [(0,)])),
        "cell dimension does not match ambient size",
    ),
    "two-weights-one-cell": (
        lambda: WeightedComplex(3, [CELL], [1, 1]),
        "one weight per maximal cell required",
    ),
    "no-cells": (lambda: WeightedComplex(3, [], []), "empty complex"),
    "cell-of-other-n": (lambda: WeightedComplex(3, [WIDE_CELL], [1]), "ambient size mismatch"),
    "point_in_support": (lambda: point_in_support(FAN, P4), "ambient size mismatch"),
    "star_fan": (lambda: star_fan(FAN, P4), "ambient size mismatch"),
    "segment_in_support": (lambda: segment_in_support(FAN, P3, P4), "ambient size mismatch"),
    "TropPoint.minus": (lambda: P3.minus(P4), "ambient size mismatch"),
    "TropPoint.translate": (lambda: P3.translate((1, 2)), "ambient size mismatch"),
    "primitive_normal": (lambda: primitive_normal(CELL, WIDE_CELL), "ambient size mismatch"),
    "certify_cell": (lambda: certify_cell(VALUATED, WIDE_CELL), "ambient size mismatch"),
    "e_indicator": (lambda: e_indicator(3, {4}), r"subset \[4\] not within 1\.\.3"),
    "trop_combine": (lambda: trop_combine([]), "empty combination"),
    "tconv_contains": (lambda: tconv_contains([], P3), "empty generator list"),
    "minimal_face_containing": (
        lambda: Polyhedron(1, [(0,)]).minimal_face_containing((1,)),
        "point outside the polyhedron",
    ),
    "point_from_json": (
        lambda: tio.point_from_json([]),
        "a point is a nonempty array of rationals",
    ),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_malformed_argument_is_refused(call, message):
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        call()
