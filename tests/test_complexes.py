"""Weighted complexes: balancing, recession, stars, chain fans, segments."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from troplin import complexes
from troplin.complexes import (
    Cell,
    WeightedComplex,
    chain_fan,
    chn_cell_of,
    coordinate_difference,
    direction_to_quotient,
    from_quotient,
    is_balanced,
    point_in_support,
    primitive_normal,
    recession_fan,
    segment_in_support,
    star_fan,
)
from troplin.errors import InvalidInputError
from troplin.linalg import hermite_normal_form, in_span, saturate_rows
from troplin.matroids import ChainFamily, enumerate_matroids
from troplin.points import TropPoint, flat_direction, heterogeneity
from troplin.polyhedra import Polyhedron

from conftest import (
    benchmark_valuated_corpus,
    braid_fan_corpus,
    make_tree_cells,
    validate_common_faces,
)

F = Fraction
fs = frozenset


def cone_keys(complex_):
    return {c.poly.canonical_key for c in complex_.cells}


class TestChainFan:
    def test_u23_flats(self, u23, u23_fan):
        assert len(u23_fan.cells) == 3
        assert u23_fan.is_fan and u23_fan.is_pure and u23_fan.dim == 1
        assert len(u23_fan.all_cells()) == 4

    def test_full_subset_family_is_permutohedral(self):
        family = ChainFamily(
            3, [fs(c) for k in range(1, 4) for c in combinations([1, 2, 3], k)]
        )
        fan = chain_fan(family)
        assert len(fan.cells) == 6
        assert len(fan.all_cells()) == 13

    def test_trivial_family_gives_zero_fan(self):
        fan = chain_fan(ChainFamily(3, [{1, 2, 3}]))
        assert len(fan.cells) == 1
        assert fan.cells[0].dim == 0

    def test_chain_cones_are_unimodular(self, u24):
        fan = chain_fan(ChainFamily(4, u24.flats | {u24.ground}))
        for cell in fan.cells:
            rays = list(cell.poly.rays)
            assert hermite_normal_form(rays) == saturate_rows(rays)
            assert len(rays) == cell.dim

    def test_each_chain_cone_is_built_once(self, u24, monkeypatch):
        built = []
        real = complexes.chain_cone
        monkeypatch.setattr(
            complexes, "chain_cone", lambda n, chain: built.append(chain) or real(n, chain)
        )
        family = ChainFamily(4, u24.flats | {u24.ground})
        fan = chain_fan(family)
        assert built == family.maximal_chains()
        assert [c.chain for c in fan.cells] == built

    def test_chain_is_derived_from_the_cone(self):
        cell = Cell.from_torus(3, [(0, 0, 0)], rays=[(-1, 0, 0)])
        assert cell.chain == (fs({1}),)
        # cone(-e_1, -e_2) is no braid cone: {1} and {2} are not nested
        assert Cell.from_torus(3, [(0, 0, 0)], rays=[(-1, 0, 0), (0, -1, 0)]).chain is None
        assert Cell.from_torus(3, [(0, 1, 0)], rays=[(-1, 0, 0)]).chain is None
        assert Cell.from_torus(3, [(0, 0, 0)], lineality=[(-1, 0, 0)]).chain is None
        fan = WeightedComplex(3, [cell], [1])
        assert fan.chain_tagged
        assert fan.support_contains(TropPoint((-1, 0, 0)))
        assert not fan.support_contains(TropPoint((0, -1, 0)))


class TestPointInSupport:
    def test_origin_in_any_fan(self, u23_fan):
        cell = point_in_support(u23_fan, TropPoint((0, 0, 0)))
        assert cell is not None and cell.dim == 0

    def test_scalar_multiple_of_ray_generator(self, u23_fan):
        # (0,-3,0) is three times the generator of the ray attached to {2}
        cell = point_in_support(u23_fan, TropPoint((0, -3, 0)))
        assert cell is not None and cell.dim == 1
        assert cell.rays == [(0, -1, 0)]

    def test_outside(self, u23_fan):
        assert point_in_support(u23_fan, TropPoint((0, -1, -2))) is None
        # the negated indicator of a non-flat misses the support
        assert point_in_support(u23_fan, flat_direction(3, {2, 3})) is None

    def test_ambient_size_is_checked_on_both_paths(self, u23_fan, tripod_complex):
        # a fan of braid cones reads the point's chain, any other complex its cells
        assert u23_fan.chain_tagged and not tripod_complex.chain_tagged
        for complex_ in (u23_fan, tripod_complex):
            with pytest.raises(InvalidInputError):
                complex_.support_contains(TropPoint((0, -1, -1, -1, -1)))


class TestPrimitiveNormal:
    def test_ray_over_origin(self):
        zero = Cell.from_torus(3, [TropPoint((0, 0, 0))])
        ray = Cell.from_torus(3, [TropPoint((0, 0, 0))], rays=[(-1, 0, 0)])
        assert TropPoint(primitive_normal(ray, zero)) == TropPoint((-1, 0, 0))

    def test_two_dimensional_cone_over_ray(self):
        cone = Cell.from_torus(
            3, [TropPoint((0, 0, 0))], rays=[(-1, 0, 0), (-1, -1, 0)]
        )
        ray = Cell.from_torus(3, [TropPoint((0, 0, 0))], rays=[(-1, -1, 0)])
        u = primitive_normal(cone, ray)
        diff = tuple(
            a - b
            for a, b in zip(
                direction_to_quotient(u), direction_to_quotient((-1, 0, 0))
            )
        )
        assert in_span([direction_to_quotient((-1, -1, 0))], diff)

    def test_invariant_under_generator_scaling(self):
        cone = Cell.from_torus(
            3, [TropPoint((0, 0, 0))], rays=[(-3, 0, 0), (-3, -3, 0)]
        )
        ray = Cell.from_torus(3, [TropPoint((0, 0, 0))], rays=[(-1, -1, 0)])
        cone_small = Cell.from_torus(
            3, [TropPoint((0, 0, 0))], rays=[(-1, 0, 0), (-1, -1, 0)]
        )
        assert primitive_normal(cone, ray) == primitive_normal(cone_small, ray)

    def test_not_a_facet(self):
        cone = Cell.from_torus(
            3, [TropPoint((0, 0, 0))], rays=[(-1, 0, 0), (-1, -1, 0)]
        )
        zero = Cell.from_torus(3, [TropPoint((0, 0, 0))])
        with pytest.raises(InvalidInputError):
            primitive_normal(cone, zero)


class TestBalancing:
    def test_bergman_fan_balanced(self, u23_fan):
        assert is_balanced(u23_fan).ok

    def test_two_rays_unbalanced_at_origin(self):
        cells = [
            Cell.from_torus(3, [TropPoint((0, 0, 0))], rays=[(-1, 0, 0)]),
            Cell.from_torus(3, [TropPoint((0, 0, 0))], rays=[(0, -1, 0)]),
        ]
        check = is_balanced(WeightedComplex(3, cells, [1, 1], validate=False))
        assert not check.ok
        assert check.witness.dim == 0

    def test_doubling_weights_preserves_verdict(self, u23_fan):
        doubled = WeightedComplex(3, u23_fan.cells, [2, 2, 2], validate=False)
        assert is_balanced(doubled).ok

    def test_non_pure_rejected(self):
        cells = [
            Cell.from_torus(3, [TropPoint((0, 0, 0))], rays=[(-1, 0, 0)]),
            Cell.from_torus(3, [TropPoint((0, 5, 5))]),
        ]
        with pytest.raises(InvalidInputError):
            is_balanced(WeightedComplex(3, cells, [1, 1], validate=False))

    def test_tree_balanced(self, tree_complex):
        assert is_balanced(tree_complex).ok

    def test_lone_bounded_segment_unbalanced(self):
        cell = Cell.from_torus(3, [TropPoint((0, 0, 0)), TropPoint((0, -1, 0))])
        check = is_balanced(WeightedComplex(3, [cell], [1]))
        assert not check.ok

    def test_invariant_under_refinement(self, tripod_complex):
        # cutting cells along coordinate-comparison hyperplanes must not
        # change the balancing verdict
        pieces = []
        for cell in tripod_complex.cells:
            polys = [cell.poly]
            for i in range(1, 4):
                for j in range(i + 1, 4):
                    a = coordinate_difference(3, i, j)
                    nxt = []
                    for p in polys:
                        if p.cuts(a, 0):
                            neg, pos = p.split(a, 0)
                            nxt.extend(x for x in (neg, pos) if x is not None)
                        else:
                            nxt.append(p)
                    polys = nxt
            pieces.extend(
                Cell(3, Polyhedron(2, q.vertices, q.rays, q.lineality)) for q in polys
            )
        refined = WeightedComplex(3, pieces, [1] * len(pieces))
        assert len(refined.cells) > len(tripod_complex.cells)
        assert is_balanced(refined).ok

    def test_braid_chain_path_matches_the_geometric_path(self, monkeypatch):
        # braid cones balance from their rays; the geometric path is the oracle
        fans = list(braid_fan_corpus(4))
        chain_checks = [is_balanced(fan) for fan in fans]
        assert any(not check.ok for check in chain_checks)
        assert any(
            c.chain is None for fan in fans for c in fan.cells
        ), "the corpus mixes braid cones with other cones"
        dims = [[c.dim for c in fan.cells] for fan in fans]
        monkeypatch.setattr(Cell, "braid", property(lambda self: None))
        monkeypatch.setattr(Cell, "chain", property(lambda self: None))
        for fan, check, fan_dims in zip(fans, chain_checks, dims):
            oracle = is_balanced(fan)
            assert (check.ok, check.witness) == (oracle.ok, oracle.witness)
            assert fan_dims == [c.dim for c in fan.cells]

    def test_translated_braid_path_matches_the_geometric_path(self, monkeypatch):
        # translated braid cones balance from their apex and rays too
        cases = list(braid_fan_corpus(4)) + list(TestBraidRecessionAndStars.non_fans())
        checks = [is_balanced(cx) for cx in cases]
        assert any(not check.ok for check in checks)
        assert any(
            c.braid is not None and c.chain is None for cx in cases for c in cx.cells
        ), "the corpus has braid cones away from the origin"
        monkeypatch.setattr(Cell, "braid", property(lambda self: None))
        monkeypatch.setattr(Cell, "chain", property(lambda self: None))
        for cx, check in zip(cases, checks):
            oracle = is_balanced(cx)
            assert (check.ok, check.witness) == (oracle.ok, oracle.witness)


class TestRecession:
    def test_fan_is_its_own_recession(self, u23_fan):
        rec = recession_fan(u23_fan)
        assert cone_keys(rec) == cone_keys(u23_fan)
        assert rec.weights == u23_fan.weights

    def test_translated_fan(self, u23_fan):
        cells = [
            Cell.from_torus(3, [TropPoint((0, 5, 7))], rays=[r])
            for r in [(-1, 0, 0), (0, -1, 0), (0, 0, -1)]
        ]
        translated = WeightedComplex(3, cells, [1, 1, 1])
        rec = recession_fan(translated)
        assert cone_keys(rec) == cone_keys(u23_fan)
        assert list(rec.weights) == [1, 1, 1]

    def test_bounded_segment_to_zero_fan(self):
        cell = Cell.from_torus(3, [TropPoint((0, 0, 0)), TropPoint((0, -2, 0))])
        rec = recession_fan(WeightedComplex(3, [cell], [1]))
        assert len(rec.cells) == 1
        assert rec.cells[0].dim == 0
        assert rec.weights == (1,)

    def test_idempotent(self, tree_complex):
        rec = recession_fan(tree_complex)
        rec2 = recession_fan(rec)
        assert cone_keys(rec) == cone_keys(rec2)
        assert rec.weights == rec2.weights

    def test_tree_recession_weights(self, tree_complex, u24):
        rec = recession_fan(tree_complex)
        assert len(rec.cells) == 4
        assert set(rec.weights) == {1}
        expected = chain_fan(ChainFamily(4, u24.flats | {u24.ground}))
        assert cone_keys(rec) == cone_keys(expected)

    def test_each_maximal_recession_cone_from_one_cell(
        self, tree_complex, tripod_complex
    ):
        # one-to-one correspondence for tropically convex complexes
        for complex_ in (tree_complex, tripod_complex):
            rec_cones = [c.poly.recession().canonical_key for c in complex_.cells]
            maximal = cone_keys(recession_fan(complex_))
            for key in maximal:
                assert rec_cones.count(key) == 1

    def test_overlapping_cones_get_repaired(self):
        # two 2-dimensional cones overlapping non-facially: recession of
        # translated copies; the repaired fan must cover the union exactly
        a = Cell.from_torus(
            3, [TropPoint((0, 0, 0))], rays=[(0, -1, 0), (0, 0, -1)]
        )
        b = Cell.from_torus(
            3, [TropPoint((0, 9, 9))], rays=[(0, -1, -1), (0, 1, 0)]
        )
        complex_ = WeightedComplex(3, [a, b], [1, 1], validate=False)
        rec = recession_fan(complex_)
        rng = random.Random(3)
        rec_cells = [c.poly for c in rec.cells]
        for i, cone in enumerate([a.poly, b.poly.translate((-9, -9))]):
            for _ in range(60):
                q = tuple(F(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(2))
                in_union = a.poly.contains(q) or b.poly.translate((-9, -9)).contains(q)
                in_rec = any(p.contains(q) for p in rec_cells)
                assert in_union == in_rec
        # and it is now a genuine fan
        WeightedComplex(3, rec.cells, rec.weights, validate=True)


class TestBraidRecessionAndStars:
    """Recession and star fans of braid cones skip the geometry; with
    `Cell.chain` forced to None the geometric path is the oracle."""

    @staticmethod
    def non_fans():
        shift = (F(5, 2), F(-4, 3), F(3), F(-1, 2))
        for n in range(2, 5):
            for matroid in enumerate_matroids(n):
                fan = chain_fan(ChainFamily(n, matroid.flats | {matroid.ground}))
                cells = [Cell(n, c.poly.translate(shift[: n - 1])) for c in fan.cells]
                yield WeightedComplex(n, cells, [1] * len(cells), validate=False)
                # two translates share every recession cone
                cells += [Cell(n, c.poly.translate(shift[1:n])) for c in fan.cells]
                yield WeightedComplex(n, cells, [1] * len(cells), validate=False)
        yield WeightedComplex(4, make_tree_cells(), [1] * 5)
        yield WeightedComplex(4, make_tree_cells((0, F(1, 2), -3, 2)), [3, 1, 2, 1, 1])
        # a ray and a segment along it have one star at their common vertex
        apex = TropPoint((0, 1, 2))
        ray = Cell.from_torus(3, [apex], rays=[(0, 0, -1)])
        edge = Cell.from_torus(3, [apex, TropPoint((0, 1, 1))])
        yield WeightedComplex(3, [ray, edge], [2, 1], validate=False)
        yield from benchmark_valuated_corpus(301)

    @staticmethod
    def summary(fan):
        return [c.poly.canonical_key for c in fan.cells], list(fan.weights)

    def test_chain_path_matches_the_geometric_path(self, monkeypatch):
        cases = list(self.non_fans())
        stars = [{v for c in cx.cells for v in c.vertices} for cx in cases]

        def refuse(*args):
            raise AssertionError("fan repair on braid cones")

        monkeypatch.setattr(complexes, "_repair_fan", refuse)
        recs = [self.summary(recession_fan(cx)) for cx in cases]
        local = [{p: self.summary(star_fan(cx, p)) for p in ps} for cx, ps in zip(cases, stars)]
        monkeypatch.undo()
        monkeypatch.setattr(Cell, "braid", property(lambda self: None))
        monkeypatch.setattr(Cell, "chain", property(lambda self: None))
        for cx, ps, rec, expected in zip(cases, stars, recs, local):
            assert self.summary(recession_fan(cx)) == rec
            assert {p: self.summary(star_fan(cx, p)) for p in ps} == expected
        assert len(cases) > 40 and any(len(set(rec[1])) > 1 for rec in recs)

    def test_braid_containment_matches_the_geometric_path(self, monkeypatch):
        # stars at vertices, inside cells and off the support, with a braid
        # cone's containment read off chains and then off its rows
        rng = random.Random(71)
        cases = list(self.non_fans())
        points = []
        for cx in cases:
            ps = {v for c in cx.cells for v in c.vertices}
            for cell in rng.sample(cx.cells, min(4, len(cx.cells))):
                q = list(cell.poly.vertices[0])
                for r in cell.poly.rays:
                    q = [a + F(rng.randint(0, 3), rng.randint(1, 2)) * x for a, x in zip(q, r)]
                ps.add(from_quotient(cx.n, q))
            ps.add(TropPoint([F(rng.randint(-4, 4), 3) for _ in range(cx.n)]))
            points.append(sorted(ps, key=lambda p: p.coords))

        def stars(cx, ps):
            out = []
            for p in ps:
                try:
                    out.append(self.summary(star_fan(cx, p)))
                except InvalidInputError as exc:
                    out.append(str(exc))
            return out

        expected = [stars(cx, ps) for cx, ps in zip(cases, points)]
        assert any("outside" in s for e in expected for s in e if isinstance(s, str))
        monkeypatch.setattr(Cell, "braid", property(lambda self: None))
        monkeypatch.setattr(Cell, "chain", property(lambda self: None))
        for cx, ps, star_list in zip(cases, points, expected):
            assert stars(cx, ps) == star_list


class TestStar:
    def test_star_of_fan_at_origin(self, u23_fan):
        star = star_fan(u23_fan, TropPoint((0, 0, 0)))
        assert cone_keys(star) == cone_keys(u23_fan)

    def test_star_of_translated_fan(self, u23_fan):
        cells = [
            Cell.from_torus(3, [TropPoint((0, 5, 7))], rays=[r])
            for r in [(-1, 0, 0), (0, -1, 0), (0, 0, -1)]
        ]
        translated = WeightedComplex(3, cells, [1, 1, 1])
        star = star_fan(translated, TropPoint((0, 5, 7)))
        assert cone_keys(star) == cone_keys(u23_fan)

    def test_star_at_ray_interior_is_a_line(self, u23_fan):
        star = star_fan(u23_fan, TropPoint((0, -3, 0)))
        assert len(star.cells) == 1
        cell = star.cells[0]
        for d in ((0, -1, 0), (0, 1, 0)):
            ray = Polyhedron(2, [(0, 0)], rays=[direction_to_quotient(d)])
            assert cell.poly.contains_polyhedron(ray)

    def test_point_outside(self, u23_fan):
        with pytest.raises(InvalidInputError):
            star_fan(u23_fan, TropPoint((0, -1, -2)))

    def test_star_weights_inherited(self, u23_fan):
        doubled = WeightedComplex(3, u23_fan.cells, [2, 2, 2], validate=False)
        star = star_fan(doubled, TropPoint((0, -3, 0)))
        assert set(star.weights) == {2}

    def test_equal_local_cones_add_their_weights(self):
        # a ray and a segment along it leave their common vertex the same way
        apex = TropPoint((0, 1, 2))
        ray = Cell.from_torus(3, [apex], rays=[(0, 0, -1)])
        edge = Cell.from_torus(3, [apex, TropPoint((0, 1, 1))])
        star = star_fan(WeightedComplex(3, [ray, edge], [2, 1], validate=False), apex)
        assert star.weights == (3,)
        assert star.cells[0].chain == (fs({3}),)


class TestChnCell:
    def test_origin(self):
        assert chn_cell_of(TropPoint((0, 0, 0))) == (fs({1, 2, 3}),)

    def test_ray_generator(self):
        assert chn_cell_of(flat_direction(3, {1})) == (fs({1}), fs({1, 2, 3}))

    def test_two_dimensional_point(self):
        # oracle: (0,-1,-3) decomposes as 2*v_{3} + 1*v_{23}
        x = TropPoint((0, -1, -3))
        chain = chn_cell_of(x)
        assert chain == (fs({3}), fs({2, 3}), fs({1, 2, 3}))
        assert len(chain) - 1 == heterogeneity(x) - 1 == 2
        rebuilt = TropPoint(
            [
                2 * flat_direction(3, {3}).coords[i]
                + 1 * flat_direction(3, {2, 3}).coords[i]
                for i in range(3)
            ]
        )
        assert rebuilt == x

    def test_decomposition_oracle_randomized(self):
        rng = random.Random(21)
        for _ in range(300):
            n = rng.randint(2, 6)
            x = TropPoint([rng.randint(-5, 5) for _ in range(n)])
            chain = chn_cell_of(x)
            assert chain[-1] == fs(range(1, n + 1))
            assert len(chain) == heterogeneity(x)
            for small, big in zip(chain, chain[1:]):
                assert small < big
            # x is a nonnegative combination of the chain generators: the
            # coefficient of each proper member is the value gap across it
            coords = list(x.coords)
            rebuilt = [F(0)] * n
            for f in chain[:-1]:
                inside_max = max(coords[i - 1] for i in f)
                outside_min = min(
                    coords[i - 1] for i in range(1, n + 1) if i not in f
                )
                gap = outside_min - inside_max
                assert gap > 0
                for i in f:
                    rebuilt[i - 1] -= gap
            assert TropPoint(rebuilt) == x


class TestSegmentInSupport:
    def test_single_point(self, u23_fan):
        check = segment_in_support(
            u23_fan, TropPoint((0, 0, 0)), TropPoint((0, 0, 0))
        )
        assert check.covered

    def test_between_rays_through_origin(self, u23_fan):
        check = segment_in_support(
            u23_fan, TropPoint((-1, 0, 0)), TropPoint((0, -1, 0))
        )
        assert check.covered

    def test_two_ray_subfan_still_covers(self, u23_fan):
        cells = [c for c in u23_fan.cells if c.rays != [(0, 0, -1)]]
        sub = WeightedComplex(3, cells, [1, 1], validate=False)
        check = segment_in_support(sub, TropPoint((-1, 0, 0)), TropPoint((0, -1, 0)))
        assert check.covered

    def test_gap_witness_on_positive_fan(self, plus_e_fan):
        check = segment_in_support(
            plus_e_fan, TropPoint((1, 0, 0)), TropPoint((0, 1, 0))
        )
        assert not check.covered
        assert check.gap_param is not None
        assert check.gap_point is not None
        assert point_in_support(plus_e_fan, check.gap_point) is None

    def test_gap_point_outside_witness_is_faithful(self, u23_fan):
        check = segment_in_support(
            u23_fan, TropPoint((0, -1, -2)), TropPoint((0, 0, 0))
        )
        assert not check.covered
        assert point_in_support(u23_fan, check.gap_point) is None


class TestComplexValidation:
    def test_crossing_rays_rejected(self):
        # two translated tropical lines in the plane always cross; their
        # union is not a polyhedral complex
        cells_a = [
            Cell.from_torus(3, [TropPoint((0, 5, 7))], rays=[r])
            for r in [(-1, 0, 0), (0, -1, 0), (0, 0, -1)]
        ]
        cells_b = [
            Cell.from_torus(3, [TropPoint((0, 100, 200))], rays=[r])
            for r in [(-1, 0, 0), (0, -1, 0), (0, 0, -1)]
        ]
        with pytest.raises(InvalidInputError):
            WeightedComplex(3, cells_a + cells_b, [1] * 6)

    def test_duplicate_cells_rejected(self, u23_fan):
        with pytest.raises(InvalidInputError):
            WeightedComplex(
                3, list(u23_fan.cells) + [u23_fan.cells[0]], [1] * 4
            )

    def test_nonpositive_weights_rejected(self, u23_fan):
        with pytest.raises(InvalidInputError):
            WeightedComplex(3, u23_fan.cells, [1, 1, 0])

    def test_contained_cells_rejected(self):
        big = Cell.from_torus(3, [TropPoint((0, 0, 0))], rays=[(-1, 0, 0)])
        small = Cell.from_torus(
            3, [TropPoint((0, 1, 1)), TropPoint((0, 2, 2))]
        )
        with pytest.raises(InvalidInputError):
            WeightedComplex(3, [big, small], [1, 1])


class TestValidationAgainstPairwiseOracle:
    """Chain lookup for braid cones raises what the pairwise check raises."""

    @staticmethod
    def message(validate):
        try:
            validate()
        except InvalidInputError as exc:
            return str(exc)
        return None

    def assert_as_oracle(self, n, cells):
        got = self.message(lambda: WeightedComplex(n, cells, [1] * len(cells)))
        assert got == self.message(lambda: validate_common_faces(cells))
        return got

    def test_a_cone_with_one_of_its_faces(self):
        seen = set()
        for fan in braid_fan_corpus(3):
            for k, cell in enumerate(fan.cells):
                for face in cell.poly.all_faces()[:-1]:
                    face = Cell(fan.n, face)
                    seen.add(self.assert_as_oracle(fan.n, [cell, face]))
                    rest = list(fan.cells[:k]) + list(fan.cells[k + 1 :])
                    if face not in rest:
                        seen.add(self.assert_as_oracle(fan.n, [face] + list(fan.cells)))
        assert seen == {"maximal cells must not contain one another"}

    def test_the_zero_cone_alongside_other_cones(self, u23_fan):
        zero = Cell.from_torus(3, [TropPoint((0, 0, 0))])
        other = Cell.from_torus(3, [TropPoint((0, 0, 0))], rays=[(0, -1, -2)])
        for cells in (
            [zero] + list(u23_fan.cells),
            list(u23_fan.cells) + [zero],
            [zero, other],
            [other] + list(u23_fan.cells) + [zero],
        ):
            assert self.assert_as_oracle(3, cells) == (
                "maximal cells must not contain one another"
            )

    def test_mixed_complexes_with_a_random_cone(self):
        # add a random cone, maybe translated, to every complex of the corpus
        rng = random.Random(61)
        seen = set()
        for fan in braid_fan_corpus(3):
            seen.add(self.assert_as_oracle(fan.n, list(fan.cells)))
            m = fan.n - 1
            for _ in range(4):
                rays = [tuple(rng.randint(-2, 2) for _ in range(m)) for _ in range(2)]
                rays = [r for r in rays[: rng.randint(1, 2)] if any(r)]
                apex = [(0,) * m] if rng.random() < 0.7 else [(rng.randint(-1, 1),) * m]
                extra = Cell(fan.n, Polyhedron(m, apex, rays))
                if extra in fan.cells:
                    continue
                cells = list(fan.cells)
                cells.insert(rng.randint(0, len(cells)), extra)
                seen.add(self.assert_as_oracle(fan.n, cells))
        assert seen == {
            None,
            "maximal cells must not contain one another",
            "cells do not intersect in a common face",
        }


class TestHeterogeneityBound:
    def test_sampled_points_of_bergman_fans(self):
        # points of a d-dimensional tropically convex fan have at most d+1
        # distinct coordinate values
        rng = random.Random(17)
        for n in range(2, 5):
            for matroid in enumerate_matroids(n):
                fan = chain_fan(ChainFamily(n, matroid.flats | {matroid.ground}))
                for _ in range(20):
                    cell = fan.cells[rng.randrange(len(fan.cells))]
                    q = list(cell.poly.vertices[0])
                    for r in cell.poly.rays:
                        c = F(rng.randint(0, 6), rng.randint(1, 3))
                        for i, x in enumerate(r):
                            q[i] += c * x
                    point = TropPoint((0,) + tuple(q))
                    assert heterogeneity(point) <= matroid.rank
