"""Exact phase-one simplex: feasibility witnesses and Farkas certificates."""

import random
from fractions import Fraction

from troplin.lp import lp_feasible

F = Fraction


def test_interval_feasible():
    res = lp_feasible(1, ineqs=[((F(-1),), F(0)), ((F(1),), F(1))])
    assert res.feasible
    assert F(0) <= res.point[0] <= F(1)


def test_empty_interval_certificate():
    res = lp_feasible(1, ineqs=[((F(-1),), F(-1)), ((F(1),), F(0))])
    assert not res.feasible
    lam, mu = res.certificate
    assert all(l >= 0 for l in lam)
    assert -lam[0] + lam[1] == 0
    assert -lam[0] * 1 + lam[1] * 0 < 0


def test_point_in_cone_multiplier():
    # does (-2,-2) lie on the ray spanned by (-1,-1)?  One free multiplier.
    res = lp_feasible(
        1,
        ineqs=[((F(-1),), F(0))],
        eqs=[((F(-1),), F(-2)), ((F(-1),), F(-2))],
    )
    assert res.feasible
    assert res.point == (F(2),)


def test_region_unbounded_above_is_feasible():
    res = lp_feasible(1, ineqs=[((F(-1),), F(0))])
    assert res.feasible
    assert res.point[0] >= 0


def test_degenerate_equalities():
    res = lp_feasible(2, eqs=[((F(1), F(1)), F(3)), ((F(2), F(2)), F(6))])
    assert res.feasible
    assert sum(res.point) == 3


def test_randomized_verdicts_are_certified():
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randint(1, 3)
        ineqs = [
            (tuple(F(rng.randint(-3, 3)) for _ in range(n)), F(rng.randint(-4, 4)))
            for _ in range(rng.randint(1, 6))
        ]
        eqs = [
            (tuple(F(rng.randint(-2, 2)) for _ in range(n)), F(rng.randint(-2, 2)))
            for _ in range(rng.randint(0, 2))
        ]
        res = lp_feasible(n, ineqs, eqs)
        if res.feasible:
            x = res.point
            for a, b in ineqs:
                assert sum(ai * xi for ai, xi in zip(a, x)) <= b
            for a, b in eqs:
                assert sum(ai * xi for ai, xi in zip(a, x)) == b
        else:
            lam, mu = res.certificate
            assert all(l >= 0 for l in lam)
            for j in range(n):
                combo = sum(l * a[j] for l, (a, _) in zip(lam, ineqs))
                combo += sum(m * a[j] for m, (a, _) in zip(mu, eqs))
                assert combo == 0
            rhs = sum(l * b for l, (_, b) in zip(lam, ineqs))
            rhs += sum(m * b for m, (_, b) in zip(mu, eqs))
            assert rhs < 0
