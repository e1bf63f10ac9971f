"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every assertion is exact (zero tolerance); the stated runtime
budgets are asserted as hard caps.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from troplin.complexes import (
    Cell,
    WeightedComplex,
    chain_fan,
    is_balanced,
    point_in_support,
    recession_fan,
    star_fan,
)
from troplin.matroids import ChainFamily, enumerate_matroids
from troplin.points import (
    TropPoint,
    heterogeneity,
    imax,
    segment,
    trop_combine,
    trop_norm,
)
from troplin.recognize import (
    convexity_probe,
    decide_complex,
    local_check,
    recognize_fan,
)
from troplin.valuated import certify_cell, member

from conftest import (
    make_tree_cells,
    rand_point,
    rand_rational,
    random_v2_matrix,
    v2_det_valuated,
)

F = Fraction
fs = frozenset


@pytest.fixture(scope="module")
def corpus():
    """Every loopfree matroid on up to five elements with its flat-chain fan."""
    out = []
    for n in range(1, 6):
        for matroid in enumerate_matroids(n):
            fan = chain_fan(ChainFamily(n, matroid.flats | {matroid.ground}))
            out.append((n, matroid, fan))
    return out


def report(number: int, label: str, start: float, limit: float) -> None:
    elapsed = time.monotonic() - start
    print(f"criterion {number:2d} PASS ({elapsed:6.2f}s < {limit:g}s): {label}")
    assert elapsed < limit


def sample_support_point(rng, complex_):
    cell = complex_.cells[rng.randrange(len(complex_.cells))]
    q = list(cell.poly.vertices[rng.randrange(len(cell.poly.vertices))])
    for r in cell.poly.rays:
        c = F(rng.randint(0, 8), rng.randint(1, 3))
        for i, x in enumerate(r):
            q[i] += c * x
    return TropPoint((0,) + tuple(q))


def test_criterion_1_bergman_fans_balance(corpus):
    start = time.monotonic()
    for n, matroid, fan in corpus:
        assert is_balanced(fan).ok, matroid
    report(1, "chains-of-flats fans of all loopfree matroids n<=5 balance", start, 30)


def test_criterion_2_recognition_round_trip(corpus):
    start = time.monotonic()
    for n, matroid, fan in corpus:
        result = recognize_fan(fan)
        assert result.accepted, matroid
        assert result.matroid == matroid
        expected_flats = (matroid.flats | {matroid.ground}) - {fs()}
        assert set(result.flats) == set(expected_flats)
    report(2, "recognition recovers every matroid n<=5 from its fan", start, 60)


def test_criterion_3_weight_two_rejected(u23_fan):
    start = time.monotonic()
    doubled = WeightedComplex(3, u23_fan.cells, [2, 2, 2], validate=False)
    result = recognize_fan(doubled)
    assert not result.accepted
    assert result.reason.kind == "weight-not-one"
    report(3, "uniform weight two on the tropical line is rejected", start, 1)


def test_criterion_4_positive_fan_rejected(plus_e_fan):
    start = time.monotonic()
    result = recognize_fan(plus_e_fan)
    assert not result.accepted
    assert result.reason.kind == "flat-axiom"
    axiom, witness = result.reason.witness
    assert axiom == "intersection"
    assert witness == (fs({1, 2}), fs({1, 3}))
    probe = convexity_probe(plus_e_fan, samples=200, seed=0)
    assert probe.counterexample_found
    assert point_in_support(plus_e_fan, probe.segment_check.gap_point) is None
    report(4, "positive-ray fan fails the flat axioms and the probe", start, 5)


def test_criterion_5_members_are_tropically_convex(
    u23_valuated, u24_tree_valuated, tripod_complex, tree_complex
):
    start = time.monotonic()
    rng = random.Random(20240)
    for vm, complex_ in (
        (u23_valuated, tripod_complex),
        (u24_tree_valuated, tree_complex),
    ):
        for _ in range(1000):
            x = sample_support_point(rng, complex_)
            y = sample_support_point(rng, complex_)
            assert member(vm, x) and member(vm, y)
            lam, mu = rand_rational(rng), rand_rational(rng)
            assert member(vm, trop_combine([(lam, x), (mu, y)]))
            for p in segment(x, y):
                assert member(vm, p)
    report(5, "1000 member pairs per space: segments and combinations stay in", start, 30)


def test_criterion_6_tree_complex_decided(tree_complex, u24):
    start = time.monotonic()
    result = decide_complex(tree_complex)
    assert result.accepted
    assert result.matroid == u24
    rec = recession_fan(tree_complex)
    bergman = chain_fan(ChainFamily(4, u24.flats | {u24.ground}))
    for cell in rec.cells:
        assert any(o.poly.contains_polyhedron(cell.poly) for o in bergman.cells)
    for cell in bergman.cells:
        assert any(o.poly.contains_polyhedron(cell.poly) for o in rec.cells)
    report(6, "tree of U(2,4) decided; recession support is the matroid fan", start, 30)


def test_criterion_7_heterogeneity_bound(corpus):
    start = time.monotonic()
    rng = random.Random(7)
    for n, matroid, fan in corpus:
        for cell in fan.cells:
            for v in cell.vertices:
                assert heterogeneity(v) <= matroid.rank
        for _ in range(500):
            point = sample_support_point(rng, fan)
            assert heterogeneity(point) <= matroid.rank
    report(7, "500 sampled points per fan satisfy het <= rank", start, 30)


def test_criterion_8_norm_lemmas():
    start = time.monotonic()
    rng = random.Random(55)
    for _ in range(10**4):
        x, y = rand_point(rng, 5), rand_point(rng, 5)
        points = segment(x, y)
        total = sum((trop_norm(b.minus(a)) for a, b in zip(points, points[1:])), F(0))
        assert total == trop_norm(y.minus(x))
    for _ in range(10**4):
        x, y, z = rand_point(rng, 5), rand_point(rng, 5), rand_point(rng, 5)
        allowed = imax(x.minus(z)) | imax(y.minus(z))
        for p in segment(x, y):
            assert imax(p.minus(z)) <= allowed
    report(8, "norm additivity and max-index inclusion on 10^4 samples", start, 30)


def test_criterion_9_stars_and_local_checks(tree_complex):
    start = time.monotonic()
    for vertex in (TropPoint((0, 0, 0, 0)), TropPoint((-1, -1, 0, 0))):
        star = star_fan(tree_complex, vertex)
        assert recognize_fan(star).accepted
    assert local_check(tree_complex).accepted
    two = WeightedComplex(
        4, make_tree_cells() + make_tree_cells((0, 50, 100, 150)), [1] * 10
    )
    result = local_check(two)
    assert not result.accepted
    assert result.global_report.reason.witness == "disconnected"
    report(9, "tree stars recognized; disjoint union rejected as disconnected", start, 30)


def test_criterion_10_permutohedral_counts():
    start = time.monotonic()
    family = ChainFamily(
        3, [fs(c) for k in range(1, 4) for c in combinations([1, 2, 3], k)]
    )
    fan = chain_fan(family)
    assert len(fan.cells) == 6
    assert len(fan.all_cells()) == 13
    report(10, "full chain fan on three elements: 6 maximal cones, 13 total", start, 1)


def test_criterion_11_generic_cells_certify_without_refinement():
    rng = random.Random(11)
    vm = v2_det_valuated(random_v2_matrix(rng, 4, 7))
    cells = [Cell.from_torus(7, [rand_point(rng, 7) for _ in range(4)]) for _ in range(20)]
    assert {cell.dim for cell in cells} == {3}
    start = time.monotonic()
    verdicts = [certify_cell(vm, cell) for cell in cells]
    # a generic 3-simplex does not lie in a 3-dimensional tropical linear space
    assert not any(verdicts)
    report(11, "20 random 3-simplices under a (4,7) -v2(det) valuation certified", start, 1)
