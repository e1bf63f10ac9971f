"""Generator-based polyhedra: reduction, dual descriptions, splitting, faces."""

import random
from fractions import Fraction

import pytest

from troplin.complexes import DEFAULT_BUDGET, Cell, WeightedComplex, to_quotient
from troplin.errors import InvalidInputError
from troplin.linalg import (
    hermite_normal_form,
    lattice_quotient_generator,
    primitive_direction,
    rank,
    saturate_rows,
    solve_exact,
    vec_dot,
)
from troplin.points import TropPoint, trop_ball
from troplin.polyhedra import Polyhedron
from troplin.recognize import _braid_hyperplanes, _braid_pieces

from conftest import diagonalize_integer_matrix, in_hull

F = Fraction


class TestLattices:
    def test_primitive_direction(self):
        assert primitive_direction((F(2, 3), F(-4, 3))) == (1, -2)
        assert primitive_direction((6, -4)) == (3, -2)
        with pytest.raises(InvalidInputError):
            primitive_direction((0, 0))

    def test_hnf_is_canonical(self):
        a = hermite_normal_form([(2, 1), (1, 2)])
        b = hermite_normal_form([(1, 2), (2, 1)])
        assert a == b

    def test_saturation_randomized(self):
        rng = random.Random(7)
        for _ in range(200):
            nr, nc = rng.randint(1, 3), rng.randint(1, 4)
            mat = [
                tuple(rng.randint(-5, 5) for _ in range(nc)) for _ in range(nr)
            ]
            mat = [r for r in mat if any(r)]
            if not mat:
                continue
            sat = saturate_rows(mat)
            assert len(sat) == rank(mat)
            cols = [list(c) for c in zip(*sat)] if sat else []
            for r in mat:
                sol = solve_exact(cols, list(r))
                assert sol is not None
                assert all(x.denominator == 1 for x in sol)

    def test_saturation_of_a_hyperplane_with_a_large_normal(self):
        # reducing against a pivot other than the smallest entry once made
        # the entries of this diagonalization grow without bound
        rows = [
            (4705, 2214, 0, 0, 0),
            (-75, 0, 82, 0, 0),
            (-197, 0, 0, 2214, 0),
            (-2218, 0, 0, 0, 1107),
        ]
        assert saturate_rows(rows) == [
            (1, 0, 0, 2826, -126),
            (0, 1, 0, 2073, -91),
            (0, 0, 1, 1611, -72),
            (0, 0, 0, 4436, -197),
        ]

    def test_diagonalization_rank(self):
        diag, _ = diagonalize_integer_matrix([(2, 4), (1, 3)])
        assert len([d for d in diag if d]) == 2
        assert all(d > 0 for d in diag)

    def test_quotient_generator(self):
        big = saturate_rows([(1, 1), (0, 1)])
        sub = [(0, 1)]
        for a, g in (((1, 0), 1), ((-3, 0), 3)):
            gen = lattice_quotient_generator(big, a)
            assert vec_dot(a, gen) == -g
            # generator plus the sub-lattice orthogonal to a spans the big
            # lattice over Z
            assert hermite_normal_form([gen] + sub) == hermite_normal_form(big)
        # a plane in Z^3 whose values under a have gcd 1 but no value 1
        plane = saturate_rows([(1, 2, 0), (0, 0, 1)])
        a = (1, 1, 2)
        gen = lattice_quotient_generator(plane, a)
        assert sorted(vec_dot(a, b) for b in plane) == [2, 3]
        assert vec_dot(a, gen) == -1
        with pytest.raises(InvalidInputError):
            lattice_quotient_generator(sub, (1, 0))


class TestConstruction:
    def test_redundant_generators_removed(self):
        square = Polyhedron(
            2, [(0, 0), (1, 0), (0, 1), (1, 1), (F(1, 2), F(1, 2))]
        )
        assert len(square.vertices) == 4
        cone = Polyhedron(2, [(0, 0)], rays=[(1, 0), (0, 1), (1, 1)])
        assert len(cone.rays) == 2

    def test_needs_a_vertex(self):
        with pytest.raises(InvalidInputError):
            Polyhedron(2, [])

    def test_lineality_modding(self):
        line = Polyhedron(2, [(2, 2)], lineality=[(1, 1)])
        assert line.lineality == ((1, 1),)
        assert line.contains((0, 0))
        assert line.contains((-7, -7))
        assert not line.contains((1, 0))

    def test_dim_and_cone_flag(self):
        assert Polyhedron(3, [(0, 0, 0)], rays=[(1, 0, 0)]).dim == 1
        assert Polyhedron(2, [(0, 0)]).is_cone
        assert not Polyhedron(2, [(1, 0)]).is_cone


class TestHRepresentation:
    def test_ray(self):
        ray = Polyhedron(1, [(0,)], rays=[(1,)])
        eqs, ineqs = ray.hrep
        assert ineqs == (((-1,), F(0)),)
        assert not eqs

    def test_point(self):
        pt = Polyhedron(1, [(3,)])
        eqs, ineqs = pt.hrep
        assert ineqs == ()
        assert eqs == (((1,), F(3)),)

    def test_agreement_with_hull_oracle(self):
        rng = random.Random(11)
        for _ in range(50):
            m = rng.randint(1, 3)
            verts = [
                tuple(F(rng.randint(-3, 3)) for _ in range(m))
                for _ in range(rng.randint(1, 4))
            ]
            rays = [
                t
                for t in (
                    tuple(rng.randint(-2, 2) for _ in range(m))
                    for _ in range(rng.randint(0, 2))
                )
                if any(t)
            ]
            lin = [
                t
                for t in (
                    tuple(rng.randint(-1, 1) for _ in range(m))
                    for _ in range(rng.randint(0, 1))
                )
                if any(t)
            ]
            poly = Polyhedron(m, verts, rays, lin)
            for _ in range(40):
                q = tuple(F(rng.randint(-5, 5), rng.randint(1, 2)) for _ in range(m))
                assert poly.contains(q) == in_hull(q, poly.vertices, poly.rays, poly.lineality)


class TestSplitting:
    def test_split_square(self):
        square = Polyhedron(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
        left, right = square.split((1, 0), F(1, 2))
        assert left.contains((0, 0)) and not left.contains((1, 0))
        assert right.contains((1, 1)) and right.contains((F(1, 2), 0))

    def test_empty_side(self):
        square = Polyhedron(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
        neg, pos = square.split((1, 0), F(5))
        assert pos is None
        assert neg is not None

    def test_hyperplane_slice(self):
        square = Polyhedron(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
        mid = square.intersection(Polyhedron(2, [(F(1, 2), 0)], lineality=[(0, 1)]))
        assert mid.dim == 1
        assert mid.contains((F(1, 2), F(1, 2)))
        assert not mid.contains((0, 0))

    def test_split_with_lineality(self):
        line = Polyhedron(2, [(0, 0)], lineality=[(1, 0)])
        neg, pos = line.split((1, 0), F(0))
        assert neg.contains((-3, 0)) and not neg.contains((1, 0))
        assert pos.contains((3, 0)) and not pos.contains((-1, 0))

    def test_split_ray_cone(self):
        cone = Polyhedron(2, [(0, 0)], rays=[(1, 0), (0, 1)])
        neg, pos = cone.split((1, -1), F(0))
        assert neg.contains((0, 1)) and pos.contains((1, 0))
        assert neg.contains((1, 1)) and pos.contains((1, 1))

    def test_intersection(self):
        square = Polyhedron(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
        triangle = Polyhedron(2, [(0, 0), (2, 0), (0, 2)])
        meet = square.intersection(triangle)
        assert meet.contains((1, 0)) and meet.contains((0, 1))
        assert meet.contains((F(1, 2), F(1, 2)))
        far = Polyhedron(2, [(5, 5), (6, 6), (5, 6)])
        assert square.intersection(far) is None

    def test_randomized_split_partitions(self):
        rng = random.Random(13)
        for _ in range(60):
            m = rng.randint(1, 3)
            verts = [
                tuple(F(rng.randint(-3, 3)) for _ in range(m))
                for _ in range(rng.randint(1, 4))
            ]
            rays = [
                t
                for t in (
                    tuple(rng.randint(-2, 2) for _ in range(m))
                    for _ in range(rng.randint(0, 2))
                )
                if any(t)
            ]
            poly = Polyhedron(m, verts, rays)
            a = tuple(rng.randint(-2, 2) for _ in range(m))
            if not any(a):
                continue
            b = F(rng.randint(-2, 2))
            neg, pos = poly.split(a, b)
            for _ in range(25):
                q = tuple(F(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(m))
                inside = poly.contains(q)
                val = sum(ai * qi for ai, qi in zip(a, q))
                in_neg = neg is not None and neg.contains(q)
                in_pos = pos is not None and pos.contains(q)
                assert in_neg == (inside and val <= b)
                assert in_pos == (inside and val >= b)


class TestFaces:
    def test_cube_cone_face_count(self):
        cone = Polyhedron(3, [(0, 0, 0)], rays=[(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert len(cone.all_faces()) == 8

    def test_square_face_count(self):
        square = Polyhedron(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
        assert len(square.all_faces()) == 9  # 4 + 4 + 1

    def test_minimal_face(self):
        square = Polyhedron(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
        edge = square.minimal_face_containing((0, F(1, 2)))
        assert edge.dim == 1
        corner = square.minimal_face_containing((0, 0))
        assert corner.dim == 0
        interior = square.minimal_face_containing((F(1, 2), F(1, 3)))
        assert interior.dim == 2

    def test_relative_interior_point(self):
        cone = Polyhedron(2, [(0, 0)], rays=[(1, 0), (1, 1)])
        p = cone.relative_interior_point()
        eqs, ineqs = cone.hrep
        for a, b in ineqs:
            assert sum(x * y for x, y in zip(a, p)) < b


class TestDoubleDescription:
    def test_generic_braid_refinement_finishes(self):
        # every cut used to cross all positive/negative generator pairs, so
        # the generators grew without bound along these six hyperplanes
        poly = Polyhedron(
            3,
            [(F(1, 3), F(-2, 7), F(5, 11))],
            rays=[(1, 2, -3), (-2, 1, 1), (3, -1, 2)],
        )
        cells = _braid_pieces(WeightedComplex(4, [Cell(4, poly)], [1]), DEFAULT_BUDGET)
        pieces = [c.poly for c in cells]
        assert pieces and all(p.dim == 3 for p in pieces)
        for a in _braid_hyperplanes(4):
            assert not any(p.cuts(a, 0) for p in pieces)

    def test_tropical_ball_in_five_coordinates(self):
        ball = trop_ball(TropPoint((0,) * 5), 1)
        poly = Polyhedron(4, [to_quotient(v) for v in ball.vertices])
        assert len(poly.vertices) == 30
        eqs, ineqs = poly.hrep
        assert len(ineqs) == 20
        assert not eqs
