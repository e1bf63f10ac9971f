"""Cross-cutting structural properties checked against independent oracles."""

import random
import time
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from troplin.complexes import (
    Cell,
    WeightedComplex,
    _cell_interval,
    _first_gap,
    chain_fan,
    from_quotient,
    is_balanced,
    point_in_support,
    primitive_normal,
    recession_fan,
    segment_in_support,
    star_fan,
    to_quotient,
)
from troplin.linalg import (
    hermite_normal_form,
    in_span,
    lattice_quotient_generator,
    nullspace,
    primitive_direction,
    rank,
    saturate_rows,
    solve_exact,
    vec_dot,
    vec_sub,
)
from troplin.matroids import (
    ChainFamily,
    Matroid,
    _flat_matroid,
    _lattice,
    enumerate_matroids,
    matroid_from_bases,
    matroid_from_flats,
    verify_flat_family,
)
from troplin.points import TropPoint, flat_direction, segment, tconv_contains, trop_combine
from troplin.polyhedra import Polyhedron, _apart, _from_rows, _lift, _row

from conftest import (
    _first_gap as fraction_first_gap,
    benchmark_valuated_corpus,
    closure_flats,
    contains_polyhedron,
    diagonal_quotient_generator,
    diagonal_saturate_rows,
    filtered_maximal_chains,
    flat_family_check,
    frozenset_covers,
    halfspace_status,
    height_table_bases,
    in_hull,
    primitive_normal_by_tight_rows,
    rand_point,
    rand_rational,
    rref_nullspace,
    rref_rank,
    rref_solve,
    segment_in_support_per_cell,
    segment_interval,
    subset_circuits,
    table_rows,
)

F = Fraction
fs = frozenset


class TestChainConePoints:
    def test_cone_points_are_combinations_of_scaled_generators(self):
        # any nonnegative combination of nested negated indicators equals a
        # tropical combination of scaled single generators, so chain cones
        # are tropically convex and lie in any hull containing their rays
        rng = random.Random(19)
        for _ in range(200):
            n = rng.randint(2, 6)
            sizes = sorted(rng.sample(range(1, n), rng.randint(1, n - 1)))
            elements = list(range(1, n + 1))
            rng.shuffle(elements)
            chain = [fs(elements[: s]) for s in sizes]
            lams = [F(rng.randint(0, 5), rng.randint(1, 3)) for _ in chain]
            total = [F(0)] * n
            for lam, f in zip(lams, chain):
                for i in range(n):
                    total[i] += lam * flat_direction(n, f).coords[i]
            point = TropPoint(total)
            # identity: the cone point is the componentwise maximum over the
            # scaled raw generators -mu0*e_F shifted by the tail sums -mu_j;
            # the representatives have to be anchored consistently, so the
            # maximum is taken on raw vectors before canonicalizing
            mu0 = sum(lams, F(0))
            raw_terms = []
            for j, f in enumerate(chain):
                mu_j = sum(lams[j + 1 :], F(0))
                raw_terms.append(
                    [(-mu0 if i in f else F(0)) - mu_j for i in range(1, n + 1)]
                )
            combined = [max(col) for col in zip(*raw_terms)]
            assert TropPoint(combined) == point
            # membership in the hull of the scaled generators, quantifying
            # over coefficients, is exactly what tconv_contains decides
            scaled = [flat_direction(n, f).scale(mu0) for f in chain]
            assert tconv_contains(scaled, point)


class TestStarsStayBalanced:
    def test_star_of_balanced_complex_is_balanced(self, tree_complex, tripod_complex):
        rng = random.Random(23)
        for complex_ in (tree_complex, tripod_complex):
            for _ in range(15):
                cell = complex_.cells[rng.randrange(len(complex_.cells))]
                q = list(cell.poly.vertices[rng.randrange(len(cell.poly.vertices))])
                for r in cell.poly.rays:
                    c = F(rng.randint(0, 4), rng.randint(1, 2))
                    for i, x in enumerate(r):
                        q[i] += c * x
                p = TropPoint((0,) + tuple(q))
                star = star_fan(complex_, p)
                assert is_balanced(star).ok, p


class TestSegmentCoverageOracle:
    def test_verdict_matches_dense_sampling(self, u23_fan, plus_e_fan, tree_complex):
        # the interval union verdict must agree with pointwise membership of
        # densely sampled segment points
        rng = random.Random(29)
        complexes = [u23_fan, plus_e_fan, tree_complex]
        for _ in range(120):
            complex_ = complexes[rng.randrange(len(complexes))]
            n = complex_.n
            x = TropPoint([F(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(n)])
            y = TropPoint([F(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(n)])
            verdict = segment_in_support(complex_, x, y)
            points = segment(x, y)
            sampled_outside = None
            for a, b in zip(points, points[1:]):
                for k in range(8):
                    t = F(k, 7)
                    mid = TropPoint(
                        [
                            (1 - t) * ca + t * cb
                            for ca, cb in zip(a.coords, b.coords)
                        ]
                    )
                    if point_in_support(complex_, mid) is None:
                        sampled_outside = mid
                        break
                if sampled_outside:
                    break
            if sampled_outside is not None:
                assert not verdict.covered
            if not verdict.covered:
                assert point_in_support(complex_, verdict.gap_point) is None


class TestHigherDimensionalDuality:
    def test_hrep_matches_hull_oracle_in_dim_four(self):
        rng = random.Random(31)
        for _ in range(25):
            m = 4
            verts = [
                tuple(F(rng.randint(-2, 2)) for _ in range(m))
                for _ in range(rng.randint(1, 5))
            ]
            rays = [
                t
                for t in (
                    tuple(rng.randint(-1, 1) for _ in range(m))
                    for _ in range(rng.randint(0, 3))
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
            for _ in range(20):
                q = tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(m))
                assert poly.contains(q) == in_hull(q, poly.vertices, poly.rays, poly.lineality)


class TestKernelAgainstHullOracle:
    @staticmethod
    def random_polyhedron(rng):
        m = rng.randint(1, 3)
        verts = [
            tuple(F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(m))
            for _ in range(rng.randint(1, 6))
        ]
        directions = [tuple(rng.randint(-1, 1) for _ in range(m)) for _ in range(4)]
        rays = [t for t in directions[: rng.randint(0, 3)] if any(t)]
        lin = [t for t in directions[3:] if any(t) and rng.random() < 0.3]
        return Polyhedron(m, verts, rays, lin)

    def test_kept_generators_lie_outside_the_hull_of_the_others(self):
        rng = random.Random(41)
        for _ in range(40):
            poly = self.random_polyhedron(rng)
            zero = [tuple(F(0) for _ in range(poly.m))]
            verts, rays, lin = poly.vertices, poly.rays, poly.lineality
            for v in verts:
                assert not in_hull(v, [w for w in verts if w != v], rays, lin)
            for r in rays:
                assert not in_hull(r, zero, [s for s in rays if s != r], lin)
                assert not in_hull(tuple(-x for x in r), zero, rays, lin)

    def test_split_pieces_agree_with_the_oracle(self):
        rng = random.Random(43)
        for _ in range(20):
            poly = self.random_polyhedron(rng)
            a = tuple(rng.randint(-2, 2) for _ in range(poly.m))
            if not any(a):
                continue
            b = F(rng.randint(-2, 2), rng.randint(1, 2))
            neg, pos = poly.split(a, b)
            for _ in range(6):
                q = tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(poly.m))
                inside = in_hull(q, poly.vertices, poly.rays, poly.lineality)
                value = sum(x * y for x, y in zip(a, q))
                for piece, side in ((neg, value <= b), (pos, value >= b)):
                    in_piece = piece is not None and in_hull(
                        q, piece.vertices, piece.rays, piece.lineality
                    )
                    assert in_piece == (inside and side)


class TestIntegerFormAgainstFractionOracle:
    """Rows evaluated on homogenised integer generators agree with the
    Fraction loops over vertices, rays and lineality they replaced."""

    @staticmethod
    def random_polyhedron(rng, m):
        verts = [
            tuple(rand_rational(rng, 3, 3) for _ in range(m))
            for _ in range(rng.randint(1, 4))
        ]
        directions = [tuple(rng.randint(-1, 1) for _ in range(m)) for _ in range(4)]
        rays = [t for t in directions[: rng.randint(0, 3)] if any(t)]
        lin = [t for t in directions[3:] if any(t) and rng.random() < 0.3]
        return Polyhedron(m, verts, rays, lin)

    def test_containment_and_halfspace_status(self):
        rng = random.Random(47)
        seen = set()
        for _ in range(60):
            m = rng.randint(1, 4)
            poly = self.random_polyhedron(rng, m)
            sub = Polyhedron(
                m,
                rng.sample(poly.vertices, rng.randint(1, len(poly.vertices))),
                [r for r in poly.rays if rng.random() < 0.5],
                poly.lineality if rng.random() < 0.5 else (),
            )
            other = self.random_polyhedron(rng, m)
            for p, q in ((poly, sub), (sub, poly), (poly, other), (other, poly)):
                expected = contains_polyhedron(p, q)
                assert p.contains_polyhedron(q) == expected
                seen.add(expected)
            for _ in range(5):
                a = tuple(rng.randint(-2, 2) for _ in range(m))
                if not any(a):
                    continue
                # an offset through a vertex makes the hyperplane touch poly
                b = rng.choice([rand_rational(rng, 3, 3), vec_dot(a, rng.choice(poly.vertices))])
                expected = halfspace_status(poly, a, b)
                assert poly._halfspace_status(_row(a, b)) == expected
                assert poly.cuts(a, b) == (expected == 0)
                seen.add(expected)
            # the zero direction, homogenised, lies in every recession cone
            assert poly._holds((0,) * (m + 1))
        assert seen == {True, False, -1, 0, 1}

    def test_segment_intervals(self):
        rng = random.Random(53)
        seen = set()
        fractional = False
        for _ in range(40):
            m = rng.randint(1, 4)
            poly = self.random_polyhedron(rng, m)
            inner = from_quotient(poly.relative_interior_point())
            for _ in range(4):
                x = rand_point(rng, m + 1, span=3)
                y = rng.choice([inner, rand_point(rng, m + 1, span=3)])
                points = segment(x, y)
                for s, e in zip(points, points[1:]):
                    start, end = to_quotient(s), to_quotient(e)
                    lifted = _lift(start + end + (1,))
                    p, q = lifted[:m] + lifted[-1:], lifted[m:]
                    direction = tuple(b - a for a, b in zip(start, end))
                    # the polyhedron's rows as a one-cell row table, read at
                    # the torus vectors (0, d*start) and (0, d*end) over d
                    cell = WeightedComplex(m + 1, [Cell(m + 1, poly)], [1], validate=False)
                    table = cell._row_table
                    (pairs,) = table.pairs
                    got = _cell_interval(
                        pairs,
                        table.values((0, *p[:-1]), p[-1]),
                        table.values((0, *q[:-1]), q[-1]),
                    )
                    if got is not None:
                        got = (F(got[0], got[1]), F(got[2], got[3]))
                    assert got == segment_interval(poly, start, direction)
                    seen.add(got is None)
                    fractional |= any(c.denominator > 1 for c in end)
        assert seen == {True, False} and fractional

    def test_table_rows_give_the_cell(self):
        # a cell's difference and dense rows in its row table cut it out
        rng = random.Random(59)
        kinds = set()
        for _ in range(200):
            m = rng.randint(1, 4)
            poly = self.random_polyhedron(rng, m)
            cx = WeightedComplex(m + 1, [Cell(m + 1, poly)], [1], validate=False)
            table = cx._row_table
            got = _from_rows(m, [], table_rows(table, 0, m + 1))
            assert got.canonical_key == poly.canonical_key, poly
            kinds.update(kind for kind in ("diffs", "dense") if getattr(table, kind))
        assert kinds == {"diffs", "dense"}


class TestSegmentCoverageAgainstPerCellOracle:
    """The row table's segment test returns the SegmentCheck of the per-cell
    test over `points.segment`, gap parameter and point included."""

    @staticmethod
    def random_complexes(rng):
        for k in range(30):
            m = rng.randint(1, 3)
            cells = {}
            for _ in range(rng.randint(1, 5)):
                if k % 2:
                    poly = TestIntegerFormAgainstFractionOracle.random_polyhedron(rng, m)
                else:
                    poly = TestKernelAgainstHullOracle.random_polyhedron(rng)
                    if poly.m != m:
                        continue
                cells.setdefault(poly.canonical_key, Cell(m + 1, poly))
            if cells:
                yield WeightedComplex(m + 1, list(cells.values()), [1] * len(cells), validate=False)

    @staticmethod
    def valuated_complexes():
        for cx in benchmark_valuated_corpus(301):
            yield cx
            if len(cx.cells) == 1:
                continue
            # a cell dropped from the middle leaves holes inside the support
            k = len(cx.cells) // 2
            keep = [i for i in range(len(cx.cells)) if i != k]
            yield WeightedComplex(
                cx.n, [cx.cells[i] for i in keep], [cx.weights[i] for i in keep], validate=False
            )

    @staticmethod
    def cell_point(rng, cell):
        q = list(rng.choice(cell.poly.vertices))
        for r in cell.poly.rays + cell.poly.lineality:
            c = F(rng.randint(-2 if r in cell.poly.lineality else 0, 4), rng.randint(1, 4))
            q = [a + c * x for a, x in zip(q, r)]
        return from_quotient(q)

    def test_first_gap_matches_the_fraction_sweep(self):
        rng = random.Random(79)
        seen = set()
        for _ in range(2000):
            intervals = []
            for _ in range(rng.randint(0, 5)):
                d = rng.randint(1, 4)
                lo = rng.randint(0, d)
                hi = rng.randint(lo, d)
                intervals.append((lo, d, hi, d))
            got = _first_gap(intervals)
            expected = fraction_first_gap([(F(a, b), F(c, e)) for a, b, c, e in intervals])
            assert got == expected, intervals
            # a gap parameter is a canonical number: an int when integral
            assert got is None or isinstance(got, int) or got.denominator > 1
            seen.add("covered" if got is None else "start" if got == 0 else "later")
        assert seen == {"covered", "start", "later"}

    def test_segment_check_matches_the_oracle(self):
        rng = random.Random(67)
        seen = set()
        fractional = False
        complexes = list(self.random_complexes(rng)) + list(self.valuated_complexes())
        for cx in complexes:
            verts = sorted({v for c in cx.cells for v in c.vertices}, key=lambda p: p.coords)
            pairs = list(combinations(verts, 2))[:6]
            for _ in range(8):
                a, b = rng.choice(cx.cells), rng.choice(cx.cells)
                pairs.append((self.cell_point(rng, a), self.cell_point(rng, b)))
            pairs.append((rand_point(rng, cx.n, span=3), self.cell_point(rng, cx.cells[0])))
            pairs.append((verts[0], verts[0]))
            for x, y in pairs:
                got = segment_in_support(cx, x, y)
                assert got == segment_in_support_per_cell(cx, x, y), (cx, x, y)
                seen.add(got.covered)
                fractional |= any(
                    c.denominator > 1 for p in segment(x, y)[1:-1] for c in p.coords
                )
        assert seen == {True, False} and fractional


class TestHermiteAgainstRowReduction:
    """rank, in_span, nullspace and solve_exact, read off the integer Hermite
    normal form, agree with the Fraction Gauss-Jordan elimination, and so
    does the dimension read off a polyhedron's `_span`."""

    @staticmethod
    def random_matrix(rng, rational):
        cols = rng.randint(1, 5)

        def entry():
            if rng.random() < 0.3:
                return 0
            return rand_rational(rng, 4, 3) if rational else rng.randint(-4, 4)

        mat = [[entry() for _ in range(cols)] for _ in range(rng.randint(0, 4))]
        if len(mat) >= 2 and rng.random() < 0.5:
            a, b = rng.sample(mat, 2)
            s, t = entry(), entry()
            mat.append([s * x + t * y for x, y in zip(a, b)])
        if rng.random() < 0.3:
            mat.insert(rng.randint(0, len(mat)), [0] * cols)
        return mat, cols, entry

    def test_matrices_agree_with_the_oracle(self):
        rng = random.Random(59)
        seen = set()
        for k in range(400):
            mat, cols, entry = self.random_matrix(rng, rational=k % 2 == 1)
            r = rref_rank(mat)
            assert rank(mat) == r
            x0 = [entry() for _ in range(cols)]
            image = [sum(a * x for a, x in zip(row, x0)) for row in mat]
            for target in (x0, [0] * cols, mat[0] if mat else x0):
                expected = not any(target) or rref_rank(mat + [target]) == r
                assert in_span(mat, target) == expected
                seen.add(("in span", expected))
            assert nullspace(mat, cols) == [
                primitive_direction(v) for v in rref_nullspace(mat, cols)
            ]
            for rhs in (image, [entry() for _ in mat]):
                expected = rref_solve(mat, rhs)
                assert solve_exact(mat, rhs) == expected
                seen.add(("solvable", expected is not None))
            seen.add(("rows", len(mat) > 0, r == len(mat)))
            seen.add(("zero row", [0] * cols in mat))
        assert seen == {
            ("in span", True),
            ("in span", False),
            ("solvable", True),
            ("solvable", False),
            ("rows", False, True),
            ("rows", True, True),
            ("rows", True, False),
            ("zero row", True),
            ("zero row", False),
        }

    def test_dimension_is_the_rank_of_the_directions(self):
        rng = random.Random(61)
        polys = [TestKernelAgainstHullOracle.random_polyhedron(rng) for _ in range(40)]
        polys += [
            TestIntegerFormAgainstFractionOracle.random_polyhedron(rng, rng.randint(1, 4))
            for _ in range(40)
        ]
        dims = set()
        for poly in polys:
            for face in poly.all_faces():
                v0 = face.vertices[0]
                directions = [vec_sub(v, v0) for v in face.vertices[1:]]
                assert face.dim == rref_rank(directions + list(face.rays + face.lineality))
                dims.add(face.dim)
        assert dims == {0, 1, 2, 3, 4}


class TestLatticeAgainstDiagonalisation:
    """Saturation read off the Hermite normal form of the nullspace equals
    the saturation the integer diagonalisation gave, and the facet normals
    of the extended Euclidean algorithm generate the same lattice quotients
    as the diagonalisation's generators."""

    LARGE_NORMAL = [
        (4705, 2214, 0, 0, 0),
        (-75, 0, 82, 0, 0),
        (-197, 0, 0, 2214, 0),
        (-2218, 0, 0, 0, 1107),
    ]

    def test_saturation_matches_the_oracle(self):
        rng = random.Random(71)
        seen = set()
        matrices = [self.LARGE_NORMAL, [], [(0, 0, 0)]]
        for _ in range(600):
            cols = rng.randint(1, 5)
            span = rng.choice([1, 3, 9])
            mat = [
                tuple(rng.randint(-span, span) if rng.random() < 0.7 else 0 for _ in range(cols))
                for _ in range(rng.randint(1, 4))
            ]
            if len(mat) >= 2 and rng.random() < 0.4:
                a, b = rng.sample(mat, 2)
                s, t = rng.randint(-3, 3), rng.randint(-3, 3)
                mat.append(tuple(s * x + t * y for x, y in zip(a, b)))
            if rng.random() < 0.2:
                mat.insert(rng.randint(0, len(mat)), (0,) * cols)
            matrices.append(mat)
        for mat in matrices:
            got = saturate_rows(mat)
            assert got == diagonal_saturate_rows(mat), mat
            r = rank(mat)
            nonzero = [row for row in mat if any(row)]
            seen.add(("zero row", len(nonzero) < len(mat)))
            seen.add(("rank deficient", r < len(nonzero)))
            # the row lattice itself is saturated or not
            seen.add(("saturated", hermite_normal_form(mat) == got))
        assert seen == {
            ("zero row", True),
            ("zero row", False),
            ("rank deficient", True),
            ("rank deficient", False),
            ("saturated", True),
            ("saturated", False),
        }

    @staticmethod
    def polyhedra():
        rng = random.Random(73)
        for _ in range(40):
            yield TestKernelAgainstHullOracle.random_polyhedron(rng)
            yield TestIntegerFormAgainstFractionOracle.random_polyhedron(rng, rng.randint(1, 4))

    def test_facet_normals_match_the_oracle(self):
        seen = set()
        for poly in self.polyhedra():
            for cell in poly.all_faces():
                basis = cell.lattice_basis
                directions = [r[1:] for r in cell._span[1:]]
                assert basis == diagonal_saturate_rows(directions)
                for face, row in cell.faces_of_facets():
                    a = row[:-1]
                    u = lattice_quotient_generator(basis, a)
                    assert vec_dot(a, u) == -gcd(*(vec_dot(a, b) for b in basis))
                    expected = diagonal_quotient_generator(basis, face.lattice_basis)
                    if vec_dot(a, expected) > 0:
                        expected = tuple(-x for x in expected)
                    assert in_span(face.lattice_basis, vec_sub(u, expected))
                    seen.add((u == expected, abs(vec_dot(a, u)) > 1))
        assert seen == {(True, False), (False, False), (True, True), (False, True)}

    def test_primitive_normals_match_the_tight_row_search(self):
        count = 0
        for poly in self.polyhedra():
            n = poly.m + 1
            for face in poly.all_faces():
                cell = Cell(n, face)
                for facet, _ in face.faces_of_facets():
                    tau = Cell(n, facet)
                    assert primitive_normal(cell, tau) == primitive_normal_by_tight_rows(cell, tau)
                    count += 1
        assert count > 500


class TestCoversAgainstChainEnumeration:
    """The integer lattice of a family agrees with the frozenset cover
    relation it replaced: its maximal chains as paths of covers, their
    number, the flat axioms read from the covers, the rank as a path length
    and the bases read from the coatoms agree with enumerating every chain,
    scanning all members above each member and a height table.  The seeded
    families have n <= 6: flat families, flat families with a set added
    (mostly not intersection-closed) or a flat taken out (mostly breaking
    the partition axiom), families without the ground set, and random
    subsets."""

    @staticmethod
    def families():
        rng = random.Random(2502)
        matroids = [m for n in range(1, 6) for m in enumerate_matroids(n)]
        matroids += [matroid_from_bases(6, combinations(range(1, 7), r)) for r in range(1, 7)]
        for m in rng.sample(enumerate_matroids(5), 20):
            # 6 parallel to 1
            matroids.append(matroid_from_bases(6, set(m.bases) | {b - {1} | {6} for b in m.bases if 1 in b}))
        for m in matroids:
            n, flats = m.n, sorted(m.flats, key=sorted)
            subsets = [fs(c) for k in range(n + 1) for c in combinations(range(1, n + 1), k)]
            yield n, flats
            yield n, flats + [rng.choice(subsets)]
            proper = [f for f in flats if f and f != m.ground]
            if proper:
                gone = rng.choice(proper)
                yield n, [f for f in flats if f != gone]
        rng = random.Random(79)
        for _ in range(3000):
            n = rng.randint(1, 5)
            p = rng.choice([0.1, 0.3, 0.6])
            subsets = [fs(c) for k in range(n + 1) for c in combinations(range(1, n + 1), k)]
            yield n, [s for s in subsets if rng.random() < p]
        for _ in range(300):
            n = rng.randint(1, 6)
            subsets = [fs(c) for k in range(n + 1) for c in combinations(range(1, n + 1), k)]
            sets = [s for s in subsets if rng.random() < rng.choice([0.1, 0.2])]
            yield n, sets
            yield n, [s for s in sets if len(s) < n]

    def test_chains_axioms_and_bases_match_the_oracles(self):
        seen = set()
        for n, sets in self.families():
            members, masks, covers = _lattice(set(sets) | {fs()})
            by_frozensets = frozenset_covers(set(sets) | {fs()})
            assert list(by_frozensets) == members
            assert masks == [sum(1 << (i - 1) for i in f) for f in members]
            assert [[members[j] for j in up] for up in covers] == list(by_frozensets.values())
            family = ChainFamily(n, sets + [range(1, n + 1)])
            chains = filtered_maximal_chains(family)
            assert family.maximal_chains() == chains, (n, sets)
            assert family.count_maximal_chains() == len(chains)
            covered, flat, rank = frozenset_covers(family.sets | {fs()}), fs(), 0
            while flat != family.ground:
                rank, flat = rank + 1, covered[flat][0]
            assert family.rank == rank
            check = verify_flat_family(n, sets)
            assert check == flat_family_check(n, sets), (n, sets)
            if family.ground in sets:
                assert verify_flat_family(n, family) == check
            if check.ok:
                assert matroid_from_flats(family).bases == height_table_bases(family)
            seen.add(check.axiom)
        assert seen == {None, "ground-set", "intersection", "partition"}


class TestFlatsAgainstSubsetClosure:
    """Flats found one cover at a time agree with closing every subset, and
    the matroid of a verified flat family, built without the exchange check,
    equals the one built with it."""

    @staticmethod
    def uniform(rank, n):
        return matroid_from_bases(n, combinations(range(1, n + 1), rank))

    def test_flats_match_the_oracle(self):
        matroids = [m for n in range(1, 6) for m in enumerate_matroids(n)]
        assert len(matroids) == 221
        matroids += [self.uniform(r, n) for r, n in ((3, 6), (4, 6), (2, 8), (4, 7), (6, 6))]
        for m in matroids:
            assert m.flats == closure_flats(m), m

    def test_flat_matroid_matches_the_exchange_checked_one(self):
        for n in range(1, 6):
            for m in enumerate_matroids(n):
                built = _flat_matroid(ChainFamily(n, m.flats | {m.ground}))
                checked = Matroid(n, built.bases)
                assert built == checked == m
                assert hash(built) == hash(checked)
                assert built.rank == checked.rank
                assert built.flats == checked.flats


class TestCircuitsAgainstSubsetScan:
    """The fundamental circuits of the bases are the minimal dependent sets
    that a scan of the subsets of size at most rank + 1 finds."""

    def test_circuits_match_the_oracle(self):
        matroids = [m for n in range(1, 6) for m in enumerate_matroids(n)]
        assert len(matroids) == 221
        matroids += [TestFlatsAgainstSubsetClosure.uniform(r, n) for r, n in ((1, 30), (3, 12))]
        for m in matroids:
            assert m.circuits == subset_circuits(m), m

    def test_rank_two_on_thirty_elements(self):
        # the scan takes about a second here; the circuits are the 3-subsets
        m = TestFlatsAgainstSubsetClosure.uniform(2, 30)
        start = time.perf_counter()
        circuits = m.circuits
        assert time.perf_counter() - start < 0.2
        assert circuits == frozenset(map(frozenset, combinations(range(1, 31), 3)))


class TestCutExtentsAgainstHalfspaceStatus:
    """`cuts` against the Fraction loop over vertices, rays and lineality."""

    def test_cuts_match_the_halfspace_status(self):
        # several offsets per functional; offsets at vertex values touch
        # without cutting
        rng = random.Random(83)
        seen = set()
        for _ in range(150):
            m = rng.randint(1, 4)
            verts = [
                tuple(rand_rational(rng, 3, 3) for _ in range(m))
                for _ in range(rng.randint(1, 4))
            ]
            rays = [
                tuple(rand_rational(rng, 2, 3) for _ in range(m))
                for _ in range(rng.randint(0, 2))
            ]
            lin = [tuple(rand_rational(rng, 2, 3) for _ in range(m))] if rng.random() < 0.3 else []
            poly = Polyhedron(m, verts, rays, lin)
            for _ in range(4):
                a = tuple(rng.randint(-2, 2) for _ in range(m))
                values = [vec_dot(a, v) for v in poly.vertices]
                for b in values + [min(values) - 1, max(values) + 1, rand_rational(rng, 3, 3)]:
                    expected = halfspace_status(poly, a, b) == 0
                    assert poly.cuts(a, b) == expected, (poly, a, b)
                    seen.add((expected, b in values))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}


class TestExtentsAgainstFractionMaxima:
    """`Polyhedron.extents` against the maxima of x_i - x_j over the vertices
    in Fraction arithmetic, and their unboundedness along the rays and both
    signs of the lineality, at torus positions with x_0 = 0."""

    @staticmethod
    def polyhedra():
        rng = random.Random(89)
        for _ in range(60):
            yield TestKernelAgainstHullOracle.random_polyhedron(rng)
            yield TestIntegerFormAgainstFractionOracle.random_polyhedron(rng, rng.randint(1, 4))

    def test_extents_match_the_fraction_maxima(self):
        seen = set()
        for poly in self.polyhedra():
            scale, top = poly.extents
            verts = [(0, *v) for v in poly.vertices]
            dirs = [(0, *d) for d in poly.rays + poly.lineality]
            dirs += [tuple(-x for x in d) for d in dirs[len(poly.rays) :]]
            assert scale == lcm(*(F(x).denominator for v in verts for x in v))
            for i in range(poly.m + 1):
                for j in range(poly.m + 1):
                    t = top[i][j]
                    if any(d[i] > d[j] for d in dirs):
                        assert t is None
                    else:
                        assert type(t) is int
                        assert F(t, scale) == max(F(v[i] - v[j]) for v in verts)
                    seen.add(t is None)
        assert seen == {True, False}

    def test_cells_apart_do_not_meet(self):
        # a translate of one of the pair moves some pairs apart
        rng = random.Random(97)
        seen = set()
        for _ in range(150):
            m = rng.randint(1, 4)
            a = TestIntegerFormAgainstFractionOracle.random_polyhedron(rng, m)
            b = TestIntegerFormAgainstFractionOracle.random_polyhedron(rng, m)
            if rng.random() < 0.5:
                b = b.translate([rand_rational(rng, 6, 3) for _ in range(m)])
            apart, empty = _apart(a, b), a.intersection(b) is None
            assert apart == _apart(b, a)
            assert empty or not apart
            seen.add((apart, empty))
        assert (True, True) in seen and (False, False) in seen


class TestRecessionRepairOracle:
    def test_repaired_fan_covers_union_of_recession_cones(self):
        # random pairs of translated two-dimensional cells whose recession
        # cones overlap arbitrarily; the repaired fan must have the same
        # support as the union of the recession cones
        rng = random.Random(37)
        built = 0
        while built < 12:
            rays_a = [
                t
                for t in (
                    tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(2)
                )
                if any(t)
            ]
            rays_b = [
                t
                for t in (
                    tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(2)
                )
                if any(t)
            ]
            if len(rays_a) < 2 or len(rays_b) < 2:
                continue
            a = Cell(3, Polyhedron(2, [(0, 0)], rays_a))
            b = Cell(3, Polyhedron(2, [(50, 81)], rays_b))
            if a.dim != 2 or b.dim != 2:
                continue
            try:
                complex_ = WeightedComplex(3, [a, b], [1, 2], validate=True)
            except Exception:
                continue
            built += 1
            rec = recession_fan(complex_)
            rec_polys = [c.poly for c in rec.cells]
            originals = [a.poly.recession(), b.poly.recession()]
            for _ in range(60):
                q = tuple(F(rng.randint(-5, 5), rng.randint(1, 2)) for _ in range(2))
                in_union = any(p.contains(q) for p in originals)
                in_fan = any(p.contains(q) for p in rec_polys)
                assert in_union == in_fan, (rays_a, rays_b, q)
            # the output is a valid fan with positive weights
            WeightedComplex(3, rec.cells, rec.weights, validate=True)


class TestMutationRejection:
    def test_removing_any_maximal_cone_breaks_recognition(self):
        # every codimension-one face of a chains-of-flats fan lies in at
        # least two maximal cones, so deleting one cone always unbalances
        from troplin.recognize import recognize_fan

        for n in range(2, 5):
            for matroid in enumerate_matroids(n):
                if matroid.rank < 2:
                    continue
                fan = chain_fan(ChainFamily(n, matroid.flats | {matroid.ground}))
                if len(fan.cells) < 2:
                    continue
                for drop in range(len(fan.cells)):
                    cells = [c for i, c in enumerate(fan.cells) if i != drop]
                    mutated = WeightedComplex(
                        n, cells, [1] * len(cells), validate=False
                    )
                    report = recognize_fan(mutated)
                    assert not report.accepted, (matroid, drop)
                    assert report.reason.kind == "unbalanced"


class TestBergmanSupportsAgainstCircuitCriterion:
    def test_chain_fan_support_equals_circuit_membership(self):
        # independent oracle: the chains-of-flats fan of a matroid and the
        # doubly-attained-maximum criterion over circuits define the same set
        rng = random.Random(41)
        for n in range(2, 5):
            for matroid in enumerate_matroids(n):
                fan = chain_fan(ChainFamily(n, matroid.flats | {matroid.ground}))
                for _ in range(25):
                    x = TropPoint(
                        [F(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(n)]
                    )
                    by_circuits = all(
                        sum(
                            1
                            for i in c
                            if x.coords[i - 1] == max(x.coords[j - 1] for j in c)
                        )
                        >= 2
                        for c in matroid.circuits
                    )
                    by_fan = point_in_support(fan, x) is not None
                    assert by_circuits == by_fan, (matroid, x)
