"""Weighted complexes: balancing, recession, stars, chain fans, segments."""

import functools
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    to_quotient,
)
from troplin.errors import InvalidInputError, ResourceLimitError
from troplin.linalg import hermite_normal_form, in_span, saturate_rows, vec_sub
from troplin.matroids import ChainFamily, enumerate_matroids
from troplin.points import TropPoint, flat_direction, heterogeneity
from troplin.polyhedra import Polyhedron, _from_rows
from troplin.recognize import convexity_probe

from conftest import (
    benchmark_tree_line,
    benchmark_valuated_corpus,
    benchmark_valuated_mutants,
    braid_fan_corpus,
    coarse_uniform_corpus,
    constraint_row_table,
    difference_row,
    extents_polyhedron,
    holed_tree_line,
    is_balanced_by_rays,
    make_tree_cells,
    overlapping_cones,
    primitive_normal_by_tight_rows,
    rand_rational,
    skeleton_fan_corpus,
    table_rows,
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
        def refuse(*args, **kwargs):
            raise AssertionError("a cone's generators were reduced")

        built = []
        real = Polyhedron._minimal
        monkeypatch.setattr(Polyhedron, "__init__", refuse)
        monkeypatch.setattr(
            Polyhedron, "_minimal", lambda m, *gens: built.append(gens) or real(m, *gens)
        )
        family = ChainFamily(4, u24.flats | {u24.ground})
        fan = chain_fan(family)
        assert built == [], "a cone was built before its polyhedron was read"
        polys = [c.poly for c in fan.cells]
        assert [c.chain for c in fan.cells] == family.maximal_chains()
        assert built == [c.generators for c in fan.cells]
        # a second read builds nothing
        assert all(c.poly is p for c, p in zip(fan.cells, polys))
        assert len(built) == len(polys)

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

    def test_every_facet_of_the_corpus_matches_the_tight_row_search(self):
        count = 0
        for cx in benchmark_valuated_corpus(301):
            for cell in cx.cells:
                for face, _ in cell.poly.faces_of_facets():
                    facet = Cell(cx.n, face)
                    got = primitive_normal(cell, facet)
                    assert got == primitive_normal_by_tight_rows(cell, facet), (cell, facet)
                    count += 1
        assert count > 500

    def test_faces_that_are_no_facets_raise(self):
        square = Cell.from_torus(3, [(0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)])
        corner = Cell.from_torus(3, [(0, 0, 0)])
        outside = Cell.from_torus(3, [(0, 2, 0), (0, 2, 1)])
        assert square.dim == outside.dim + 1 == corner.dim + 2
        for tau in (corner, outside):
            for normal in (primitive_normal, primitive_normal_by_tight_rows):
                with pytest.raises(InvalidInputError, match="not a facet of the first"):
                    normal(square, tau)


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

    def test_witness_is_chosen_by_key_with_no_polyhedron(self, u24):
        fan = chain_fan(ChainFamily(4, u24.flats | {u24.ground}))
        weights = [2] + [1] * (len(fan.cells) - 1)
        check = is_balanced(WeightedComplex(4, fan.cells, weights, validate=False))
        assert not check.ok
        assert "poly" not in vars(check.witness)

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
        # braid cones balance on their dropped sets; the geometric path is the oracle
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
        # translated braid cones balance on their apex and dropped sets too
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


@functools.cache
def loopfree_matroid_fans():
    """The chain fans of every loopfree matroid with n <= 5."""
    return [
        chain_fan(ChainFamily(n, m.flats | {m.ground}))
        for n in range(1, 6)
        for m in enumerate_matroids(n)
    ]


class TestBalancingOnSets:
    """Braid facets balance on their dropped sets as they did on their rays:
    the same verdict and the same witness as `is_balanced_by_rays`."""

    @staticmethod
    def as_oracle(cx):
        got, want = is_balanced(cx), is_balanced_by_rays(cx)
        assert got.ok == want.ok
        keys = [None if c.witness is None else c.witness.poly.canonical_key for c in (got, want)]
        assert keys[0] == keys[1]
        return got.ok

    def test_fan_corpora(self):
        corpora = [braid_fan_corpus(4), skeleton_fan_corpus(), coarse_uniform_corpus(5)]
        for corpus in corpora:
            assert {self.as_oracle(cx) for cx in corpus} == {True, False}

    def test_valuated_complexes_and_mutants(self):
        verdicts = [self.as_oracle(cx) for cx in benchmark_valuated_mutants(301)]
        assert len(verdicts) > 40 and set(verdicts) == {True, False}

    def test_tree_lines(self):
        # a bounded edge is no braid cone, and its vertices join the groups of
        # the rays at them
        seen = []
        for n in range(4, 9):
            tree = benchmark_tree_line(n)
            assert {c.braid is None for c in tree.cells} == {True, False}
            for cx in (tree, holed_tree_line(n)):
                for k in range(len(cx.cells)):
                    weights = [2 if i == k else 1 for i in range(len(cx.cells))]
                    seen.append(self.as_oracle(WeightedComplex(n, cx.cells, weights, validate=False)))
                seen.append(self.as_oracle(cx))
        seen += [self.as_oracle(WeightedComplex(4, make_tree_cells(), [1] * 5))]
        assert set(seen) == {True, False}

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_reweighted_matroid_fans(self, data):
        fan = data.draw(st.sampled_from(loopfree_matroid_fans()))
        # weight 0 drops a cell
        weights = data.draw(
            st.lists(st.integers(0, 3), min_size=len(fan.cells), max_size=len(fan.cells))
        )
        kept = [(c, w) for c, w in zip(fan.cells, weights) if w]
        if kept:
            cells, weights = zip(*kept)
            self.as_oracle(WeightedComplex(fan.n, cells, weights, validate=False))


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
        # the repaired fan must cover the union exactly
        complex_ = overlapping_cones()
        a, b = complex_.cells
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

    def test_repair_stays_within_its_budget(self):
        # the overlap takes two splits to repair, and the budget bounds them
        complex_ = overlapping_cones()
        with pytest.raises(ResourceLimitError) as err:
            recession_fan(complex_, budget=1)
        assert str(err.value) == "fan repair exceeded its budget"
        assert len(recession_fan(complex_, budget=2).cells) == 3

    def test_a_fan_is_its_own_recession_fan(self, u23_fan):
        assert recession_fan(u23_fan) is u23_fan


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

    @staticmethod
    def points(cases):
        """For each case its vertices, seeded points inside some cells, and
        a seeded point that is mostly off the support."""
        rng = random.Random(71)
        points = []
        for cx in cases:
            ps = {v for c in cx.cells for v in c.vertices}
            for cell in rng.sample(cx.cells, min(4, len(cx.cells))):
                q = list(cell.poly.vertices[0])
                for r in cell.poly.rays:
                    q = [a + F(rng.randint(0, 3), rng.randint(1, 2)) * x for a, x in zip(q, r)]
                ps.add(from_quotient(q))
            ps.add(TropPoint([F(rng.randint(-4, 4), 3) for _ in range(cx.n)]))
            points.append(sorted(ps, key=lambda p: p.coords))
        return points

    def test_braid_containment_matches_the_geometric_path(self, monkeypatch):
        # stars at vertices, inside cells and off the support, with a braid
        # cone's containment read off chains and then off its rows
        cases = list(self.non_fans())
        points = self.points(cases)

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

    def test_point_in_support_is_the_least_face_of_the_polyhedra_containing_it(self):
        cases = list(self.non_fans())
        found = set()
        for cx, ps in zip(cases, self.points(cases)):
            for p in ps:
                q = to_quotient(p)
                faces = [c.poly.minimal_face_containing(q) for c in cx.cells if c.poly.contains(q)]
                expected = min(faces, key=lambda face: face.dim, default=None)
                got = point_in_support(cx, p)
                assert (got and got.poly.canonical_key) == (expected and expected.canonical_key), p
                found.add(got is None)
        assert found == {True, False}


class TestBraidRowsFromChains:
    """The rows a complex's row table holds for each cell cut out the cell:
    a braid cone's differences read from its apex and chain, and any other
    cell's polyhedron rows, as differences where they are ones."""

    @staticmethod
    def rows_give_the_cell(cx, c):
        poly = _from_rows(cx.n - 1, [], table_rows(cx._row_table, c, cx.n))
        return poly.canonical_key == cx.cells[c].poly.canonical_key

    def test_corpus_cells(self):
        seen = set()
        fans = 0
        for seed in (301, 302):
            for cx in benchmark_valuated_corpus(seed):
                for c, cell in enumerate(cx.cells):
                    assert self.rows_give_the_cell(cx, c), cell
                    seen.add(cell.braid is None)
                if all(cell.braid is not None for cell in cx.cells):
                    # a translated Bergman fan: every row is a difference
                    assert cx._row_table.dense == [] and cx._row_table.diffs
                    fans += 1
        assert seen == {True, False} and fans > 0

    def test_random_chains(self):
        rng = random.Random(89)
        seen = set()
        for _ in range(300):
            n = rng.randint(1, 7)
            order = rng.sample(range(1, n + 1), n)
            sizes = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
            chain = tuple(fs(order[:k]) for k in sizes)
            apex = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n - 1))
            cell = Cell(n, Cell.from_braid(n, (0,) * (n - 1), chain).poly.translate(apex))
            assert cell.braid == (apex, chain)
            cx = WeightedComplex(n, [cell], [1], validate=False)
            assert cx._row_table.dense == []
            assert self.rows_give_the_cell(cx, 0), cell
            seen.add("empty" if not chain else "flag" if len(chain) == n - 1 else "partial")
        assert seen == {"empty", "flag", "partial"}


class TestDifferenceForms:
    """A cell's difference form is None exactly when the cell is not
    alcoved, that is not the polyhedron of the bounds of its extents, and
    otherwise its rows cut the cell out."""

    @staticmethod
    def cells():
        for seed in (301, 302, 305):
            for cx in benchmark_valuated_corpus(seed):
                yield from cx.cells
        for cx in benchmark_valuated_corpus(301):
            yield from cx.all_cells()
        yield from benchmark_tree_line(12).cells
        rng = random.Random(331)
        for _ in range(300):
            n = rng.randint(2, 5)
            verts = [
                tuple(rand_rational(rng, 3, 3) for _ in range(n - 1))
                for _ in range(rng.randint(1, 4))
            ]
            dirs = [tuple(rng.randint(-1, 1) for _ in range(n - 1)) for _ in range(3)]
            rays = [d for d in dirs[: rng.randint(0, 2)] if any(d)]
            lin = [d for d in dirs[2:] if any(d) and rng.random() < 0.3]
            yield Cell(n, Polyhedron(n - 1, verts, rays, lin))

    def test_forms_cut_out_exactly_the_alcoved_cells(self):
        kinds = set()
        for cell in self.cells():
            form = cell.differences
            alcoved = extents_polyhedron(cell).canonical_key == cell.poly.canonical_key
            assert (form is not None) == alcoved, cell
            if form is not None:
                assert all(q > 0 and F(c, q).denominator == q for _, _, q, c in form)
                rows = [difference_row(cell.n, *r) for r in form]
                assert _from_rows(cell.n - 1, [], rows).canonical_key == cell.poly.canonical_key
            kinds.add((cell.braid is not None, alcoved))
        assert kinds == {(True, True), (False, True), (False, False)}

    def test_cells_not_alcoved_probe_as_the_constraint_row_table(self):
        segment = Cell.from_torus(3, [(0, 0, 0), (0, 1, 2)])
        line = Cell.from_torus(3, [(0, 0, 0)], lineality=[(0, 1, 2)])
        ray = Cell.from_torus(3, [(0, 1, 2)], rays=[(-1, 0, 0)])
        points = [TropPoint(p) for p in [(0, 0, 0), (0, 1, 2), (0, 1, 1), (0, 2, 4), (-3, 1, 2)]]
        assert segment.differences is None and line.differences is None
        seen = set()
        for cells in ([segment], [line], [segment, ray]):
            cx = WeightedComplex(3, cells, [1] * len(cells), validate=False)

            def results():
                probes = [convexity_probe(cx, samples=10, seed=s) for s in range(3)]
                checks = [segment_in_support(cx, a, b) for a, b in combinations(points, 2)]
                return probes, checks, [cx.support_contains(p) for p in points]

            got = results()
            assert cx._row_table.dense
            assert bool(cx._row_table.diffs) == (len(cells) > 1)
            cx.__dict__["_row_table"] = constraint_row_table(cx)
            assert results() == got
            assert got[2] == [any(c.poly.contains(to_quotient(p)) for c in cells) for p in points]
            seen.update(("found", r.counterexample_found) for r in got[0])
            seen.update(("covered", c.covered) for c in got[1])
        assert seen == {("found", True), ("covered", True), ("covered", False)}


class TestChainBuiltCells:
    """A braid cone built from its apex and chain is the cell
    `Cell.from_torus` builds from its generators, lifted to length n, with
    the same key, braid and chain; so are the recession cone and the star
    at the apex of a translated braid cone, which carry their chains."""

    @staticmethod
    def chains():
        """Every distinct maximal chain of flats of a loopfree matroid with
        n <= 5, with a seeded rational apex."""
        rng = random.Random(113)
        seen = set()
        for fan in loopfree_matroid_fans():
            for chain in (c.chain for c in fan.cells):
                if (fan.n, chain) not in seen:
                    seen.add((fan.n, chain))
                    apex = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(fan.n)]
                    yield fan.n, chain, to_quotient(TropPoint(apex))

    @staticmethod
    def from_generators(n, apex, chain):
        rays = [[-int(i in f) for i in range(1, n + 1)] for f in chain]
        return Cell.from_torus(n, [(0, *apex)], rays)

    @staticmethod
    def assert_same(got, want):
        assert "braid" in vars(got), "the chain was derived, not carried"
        assert got.poly.canonical_key == want.poly.canonical_key
        assert (got.braid, got.chain) == (want.braid, want.chain)

    def test_every_maximal_chain(self):
        count = 0
        for n, chain, apex in self.chains():
            origin = (0,) * (n - 1)
            for at in (origin, apex):
                self.assert_same(Cell.from_braid(n, at, chain), self.from_generators(n, at, chain))
            translated = self.from_generators(n, apex, chain)
            cx = WeightedComplex(n, [translated], [1], validate=False)
            cone = self.from_generators(n, origin, chain)
            for fan in (recession_fan(cx), star_fan(cx, from_quotient(apex))):
                assert fan.weights == (1,)
                self.assert_same(fan.cells[0], cone)
            count += 1
        assert count > 500

    def test_the_cones_of_one_fan_share_one_ray_table(self):
        # each set's ray is built once per fan, not once per cone that has it
        shared = 0
        for cx in TestBraidRecessionAndStars.non_fans():
            vertices = {v for c in cx.cells for v in c.vertices}
            for fan in [recession_fan(cx)] + [star_fan(cx, v) for v in vertices]:
                built = [c._built_from for c in fan.cells if c._built_from is not None]
                tables = {id(b[2]) for b in built}
                assert len(tables) <= 1 and all(isinstance(b[2], dict) for b in built)
                if len(built) > 1:
                    table = built[0][2]
                    assert all(f in table for _, chain, _ in built for f in chain)
                    shared += 1
        assert shared > 40


class TestBraidCellsFromGenerators:
    """A zero vertex with rays -c*e_F, c > 0, over nested F, some F maybe
    repeated, lifted to length n, is built from its chain by
    `Cell.from_torus`, and is the cell reduced from its generators; any
    other generators keep the reduction."""

    @staticmethod
    def lifted(n, vertices, rays, lineality=()):
        """`Cell.from_torus` on quotient generators v lifted as (0,) + v."""
        return Cell.from_torus(
            n,
            [(0, *v) for v in vertices],
            [(0, *r) for r in rays],
            [(0, *l) for l in lineality],
        )

    @staticmethod
    def rays(n, chain, rng):
        """Each -c*e_F with a seeded c > 0, shifted along the all-ones line,
        in a shuffled order."""
        rays = []
        for f in chain:
            c, shift = F(rng.randint(1, 9), rng.randint(1, 4)), F(rng.randint(-5, 5), 3)
            rays.append(direction_to_quotient([shift - c * (i in f) for i in range(1, n + 1)]))
        rng.shuffle(rays)
        return rays

    def test_scaled_rays_over_every_maximal_chain(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a braid cone's generators were reduced")

        rng = random.Random(2101)
        count = 0
        for n, chain, _ in TestChainBuiltCells.chains():
            origin = (0,) * (n - 1)
            for sub, repeated in product((chain, chain[: len(chain) // 2]), (0, 1)):
                rays = self.rays(n, sub + sub[:repeated], rng)
                want = Cell(n, Polyhedron(n - 1, [origin], rays))
                with monkeypatch.context() as patch:
                    patch.setattr(Polyhedron, "_minimal", refuse)
                    got = self.lifted(n, [origin, origin], rays)
                    assert "braid" in vars(got), "the chain was derived, not carried"
                assert got.poly.canonical_key == want.poly.canonical_key
                assert (got.braid, got.chain) == (want.braid, want.chain) == ((origin, sub), sub)
                count += 1
        assert count > 1000

    def test_other_generators_are_reduced(self):
        n, origin = 4, (0, 0, 0)

        def ray(*values):
            return direction_to_quotient(values)

        cases = [
            [ray(-1, 0, 0, 0), ray(0, -1, 0, 0)],  # sets not nested
            [ray(-1, 0, 0, 0), ray(-1, -1, 0, 0), ray(-1, -1, -2, 0)],  # three values
            [ray(-1, 0, 0, 0), ray(-1, -1, 0, 0), ray(-2, -1, 0, 0)],  # a redundant ray
        ]
        for rays in cases:
            got = self.lifted(n, [origin], rays)
            want = Cell(n, Polyhedron(n - 1, [origin], rays))
            assert "braid" not in vars(got), "a chain was carried"
            assert got.poly.canonical_key == want.poly.canonical_key
            assert (got.braid, got.chain) == (want.braid, want.chain)
        assert self.lifted(n, [origin], cases[0]).chain is None
        translated = self.lifted(n, [(1, 0, 0)], [ray(-1, 0, 0, 0)])
        assert translated.braid == ((1, 0, 0), (fs({1}),)) and translated.chain is None
        line = self.lifted(n, [origin], [ray(-1, 0, 0, 0)], [ray(0, 1, 0, 0)])
        assert "braid" not in vars(line) and line.braid is None

    def test_stars_with_lineality_or_sets_not_nested_are_reduced(self):
        n, origin = 4, (0, 0, 0)
        apex = TropPoint((0, 1, 2, 3))
        q = to_quotient(apex)

        def ray(*values):
            return direction_to_quotient(values)

        cases = [
            # a half-plane along a line: its star at a point of the line
            ([q], [ray(-1, 0, 0, 0)], [ray(0, 1, 0, 0)]),
            # the cone on two rays whose sets are not nested
            ([q], [ray(-1, 0, 0, 0), ray(0, -1, 0, 0)], []),
            # a triangle with a vertex at the apex
            ([q, vec_sub(q, ray(1, 0, 0, 0)), vec_sub(q, ray(0, 1, 0, 0))], [], []),
        ]
        for vertices, rays, lineality in cases:
            cell = Cell(n, Polyhedron(n - 1, vertices, rays, lineality))
            (got,) = star_fan(WeightedComplex(n, [cell], [1], validate=False), apex).cells
            directions = rays + [vec_sub(v, q) for v in vertices if v != q]
            want = Cell(n, Polyhedron(n - 1, [origin], directions, lineality))
            assert got.poly.canonical_key == want.poly.canonical_key
            assert "braid" not in vars(got) and got.braid is None


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

    def test_cells_at_their_apex_are_not_tested_by_level_sets(self, u23_fan, monkeypatch):
        # a braid cone contains its apex, so its star there is its chain's cone
        calls = []
        real = complexes._cell_contains
        monkeypatch.setattr(complexes, "_cell_contains", lambda c, q: calls.append(c) or real(c, q))
        shift = (F(5, 2), F(-4, 3))
        cells = [Cell(3, c.poly.translate(shift)) for c in u23_fan.cells]
        star = star_fan(WeightedComplex(3, cells, [1, 1, 1]), TropPoint((0, *shift)))
        assert cone_keys(star) == cone_keys(u23_fan)
        assert calls == []

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

    def test_single_point_outside(self, u23_fan):
        # a segment of one breakpoint off the fan has its gap at parameter 0
        p = TropPoint((0, 1, 2))
        check = segment_in_support(u23_fan, p, p)
        assert (check.covered, check.gap_param, check.gap_point) == (False, 0, p)

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

    def test_duplicates_found_by_chain_or_by_key(self, u23_fan):
        # cells that all carry their chains are compared by them; a copy
        # that carries none, built from generators, is found by its key
        cell = u23_fan.cells[0]
        bare = Cell(3, Polyhedron(2, cell.poly.vertices, cell.poly.rays))
        assert "chain" not in vars(bare) and bare.poly == cell.poly
        for extra in (cell, bare):
            with pytest.raises(InvalidInputError, match="duplicate maximal cells"):
                WeightedComplex(3, [*u23_fan.cells, extra], [1] * 4, validate=False)
        assert "chain" not in vars(bare)

    def test_mixed_cells_are_compared_by_key_with_no_polyhedron(self, u24):
        # a cell that carries no chain makes every cell compared by its key,
        # which a braid cell reads off its apex and chain
        fan = chain_fan(ChainFamily(4, u24.flats | {u24.ground}))
        cells = [*fan.cells[:2], Cell.from_torus(4, [(0, 1, 2, 3)])]
        WeightedComplex(4, cells, [1, 1, 1], validate=False)
        assert all("poly" not in vars(c) for c in cells[:2])

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

    def test_tree_line_intersects_only_the_pairs_not_apart(self, monkeypatch):
        tree = benchmark_tree_line(20)
        calls = []
        real = Polyhedron.intersection
        monkeypatch.setattr(Polyhedron, "intersection", lambda a, b: calls.append(1) or real(a, b))
        WeightedComplex(20, tree.cells, tree.weights)
        # with no prefilter all 703 pairs of the 38 cells are intersected;
        # the extents leave the 55 pairs that share a vertex
        assert len(calls) <= 55


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

    def test_contained_chains_match_a_brute_force_oracle(self):
        # seeded chains of mixed lengths, half of them sub-chains of others;
        # chains of one length contain none of one another
        rng = random.Random(2501)
        for _ in range(300):
            n = rng.randint(2, 6)
            chains = set()
            for _ in range(rng.randint(1, 40)):
                order = rng.sample(range(1, n + 1), n)
                cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
                chain = tuple(fs(order[:k]) for k in cuts)
                chains.add(chain)
                if rng.random() < 0.5:
                    chains.add(tuple(f for f in chain if rng.random() < 0.5))
            want = {c for c in chains if any(set(c) < set(d) for d in chains)}
            assert complexes._contained_chains(chains) == want, chains
            level = rng.choice([len(c) for c in chains])
            assert complexes._contained_chains({c for c in chains if len(c) == level}) == set()

    def test_tree_lines_with_a_moved_or_shortened_cell(self):
        # a translate of a cell is apart from most cells, and meets some
        # without a common face; half of a segment lies inside it
        rng = random.Random(67)
        seen = set()
        for n in (4, 5, 6):
            cells = list(benchmark_tree_line(n).cells)
            seen.add(self.assert_as_oracle(n, cells))
            for cell in cells:
                extra = Cell(n, cell.poly.translate([rand_rational(rng, 2, 2) for _ in range(n - 1)]))
                if extra not in cells:
                    seen.add(self.assert_as_oracle(n, cells + [extra]))
                if len(cell.poly.vertices) == 2:
                    a, b = cell.poly.vertices
                    half = Cell(n, Polyhedron(n - 1, [a, [F(x + y) / 2 for x, y in zip(a, b)]]))
                    seen.add(self.assert_as_oracle(n, [half] + cells))
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
