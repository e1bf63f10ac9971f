"""Fan recognition, complex decision, local checks, and the convexity probe."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from troplin import complexes, matroids, polyhedra, recognize
from troplin.complexes import (
    Cell,
    WeightedComplex,
    chain_fan,
    point_in_support,
    recession_fan,
    segment_in_support,
    star_fan,
)
from troplin.errors import InvalidInputError, ResourceLimitError
from troplin.matroids import ChainFamily, enumerate_matroids, matroid_from_bases
from troplin.points import TropPoint, flat_direction, trop_combine
from troplin.polyhedra import Polyhedron
from troplin.recognize import (
    Reason,
    _braid_pieces,
    _components,
    _support_equal,
    convexity_probe,
    decide_complex,
    local_check,
    recognize_fan,
    recover_flat_family,
)

from conftest import (
    benchmark_valuated_corpus,
    braid_fan_corpus,
    coarse_uniform_corpus,
    coarse_uniform_fan,
    constraint_row_table,
    dropped_cones,
    make_tree_cells,
    probed_flat_family,
    rand_rational,
)

F = Fraction
fs = frozenset


def origin_cell(n, rays):
    return Cell.from_torus(n, [TropPoint((0,) * n)], rays=rays)


@pytest.fixture(scope="module")
def rank3_flats_line_fan():
    """Balanced weight-one fan of six rays over the proper flats of a rank-3
    matroid; valid flat family, but the support misses every 2-dimensional
    chain cone."""
    flats = [{1}, {2}, {3, 4}, {1, 2}, {1, 3, 4}, {2, 3, 4}]
    cells = [origin_cell(4, [tuple(flat_direction(4, f).coords)]) for f in flats]
    return WeightedComplex(4, cells, [1] * 6, validate=False)


class TestRecoverFlatFamily:
    def test_bergman_fan(self, u23_fan, u23):
        fam = recover_flat_family(u23_fan)
        assert fam.sets == (u23.flats | {u23.ground}) - {fs()}

    def test_zero_fan(self):
        zero = WeightedComplex(3, [Cell.from_torus(3, [TropPoint((0, 0, 0))])], [1])
        fam = recover_flat_family(zero)
        assert fam.sets == fs({fs({1, 2, 3})})

    def test_full_permutohedral_fan(self):
        family = ChainFamily(
            3, [fs(c) for k in range(1, 4) for c in combinations([1, 2, 3], k)]
        )
        fan = chain_fan(family)
        recovered = recover_flat_family(fan)
        assert recovered.sets == family.sets

    def test_chain_path_matches_support_probes(self, monkeypatch):
        fans = list(braid_fan_corpus(4))
        from_chains = [recover_flat_family(fan).sets for fan in fans]
        monkeypatch.setattr(Cell, "chain", property(lambda self: None))
        for fan, sets in zip(fans, from_chains):
            # no cell is a braid cone now, so every cell is refined
            family = recover_flat_family(fan)
            assert family.sets == sets
            assert family == probed_flat_family(fan)

    def test_thirteen_coordinates_are_u1_13(self):
        fan = chain_fan(ChainFamily(13, [range(1, 14)]))
        assert recover_flat_family(fan).sets == {fs(range(1, 14))}
        report = recognize_fan(fan)
        assert report.accepted
        assert report.matroid == matroid_from_bases(13, [[i] for i in range(1, 14)])

    def test_translated_bergman_fan_is_refused(self, tripod_complex):
        with pytest.raises(InvalidInputError, match="input complex is not a fan"):
            recover_flat_family(tripod_complex)

    def test_random_cones_match_the_probes(self):
        rng = random.Random(1501)
        for _ in range(600):
            n = rng.randint(2, 5)
            cells = {}
            def vector():
                return [rng.choice((-2, -1, 0)) for _ in range(n)]

            for _ in range(rng.randint(1, 3)):
                rays = [vector() for _ in range(rng.randint(1, 3))]
                lineality = [vector()] if rng.random() < 0.2 else []
                cell = Cell.from_torus(n, [TropPoint((0,) * n)], rays=rays, lineality=lineality)
                cells[cell.poly.canonical_key] = cell
            fan = WeightedComplex(n, list(cells.values()), [1] * len(cells), validate=False)
            assert recover_flat_family(fan) == probed_flat_family(fan)


class TestRecognizeFan:
    def test_flat_axioms_checked_once_per_fan(self, monkeypatch):
        calls = []
        verify = matroids.verify_flat_family

        def counted(n, sets):
            calls.append(n)
            return verify(n, sets)

        # matroid_from_flats reads the name from matroids
        monkeypatch.setattr(matroids, "verify_flat_family", counted)
        monkeypatch.setattr(recognize, "verify_flat_family", counted)
        for m in enumerate_matroids(4):
            assert recognize_fan(chain_fan(ChainFamily(4, m.flats | {m.ground}))).accepted
        assert len(calls) == 27

    def test_round_trip_u23(self, u23_fan, u23):
        report = recognize_fan(u23_fan)
        assert report.accepted
        assert report.matroid == u23
        assert set(report.flats) == set((u23.flats | {u23.ground}) - {fs()})
        assert report.multiplier == 1

    def test_weight_two_rejected(self, u23_fan):
        doubled = WeightedComplex(3, u23_fan.cells, [2, 2, 2], validate=False)
        report = recognize_fan(doubled)
        assert not report.accepted
        assert report.reason.kind == "weight-not-one"

    def test_positive_fan_fails_flat_axiom(self, plus_e_fan):
        report = recognize_fan(plus_e_fan)
        assert not report.accepted
        assert report.reason.kind == "flat-axiom"
        axiom, witness = report.reason.witness
        assert axiom == "intersection"
        assert witness == (fs({1, 2}), fs({1, 3}))

    def test_unbalanced_rejected(self):
        fan = WeightedComplex(
            3,
            [origin_cell(3, [(-1, 0, 0)]), origin_cell(3, [(0, -1, 0)])],
            [1, 1],
            validate=False,
        )
        report = recognize_fan(fan)
        assert not report.accepted
        assert report.reason.kind == "unbalanced"

    def test_non_pure_rejected(self):
        fan = WeightedComplex(
            3,
            [
                origin_cell(3, [(-1, 0, 0)]),
                origin_cell(3, [(0, 0, -1)]),
                origin_cell(3, [(0, -1, 0), (0, -1, -1)]),
            ],
            [1, 1, 1],
            validate=False,
        )
        report = recognize_fan(fan)
        assert not report.accepted
        assert report.reason.kind == "non-pure"
        # the witness is the sorted set of cell dimensions, on every route
        for r in (report, decide_complex(fan), local_check(fan).global_report):
            assert r.reason == Reason("non-pure", [1, 2])

    def test_heterogeneity_bound_rejection(self):
        # the line through (0,-1,-2,-3) is balanced with unit weights but a
        # generic point has four distinct coordinates in a 1-dimensional fan
        fan = WeightedComplex(
            4,
            [origin_cell(4, [(0, -1, -2, -3)]), origin_cell(4, [(0, 1, 2, 3)])],
            [1, 1],
            validate=False,
        )
        report = recognize_fan(fan)
        assert not report.accepted
        assert report.reason.kind == "het-bound"
        witness = report.reason.witness
        assert len(set(witness.coords)) > fan.dim + 1

    def test_heterogeneity_bound_with_lineality_cell(self):
        # the same line presented as a single cell with a lineality direction
        line = Cell.from_torus(
            4, [TropPoint((0, 0, 0, 0))], lineality=[(0, -1, -2, -3)]
        )
        fan = WeightedComplex(4, [line], [1], validate=False)
        report = recognize_fan(fan)
        assert not report.accepted
        assert report.reason.kind == "het-bound"

    def test_support_mismatch_rejection(self, rank3_flats_line_fan):
        report = recognize_fan(rank3_flats_line_fan)
        assert not report.accepted
        assert report.reason.kind == "support-mismatch"
        witness = report.reason.witness
        assert point_in_support(rank3_flats_line_fan, witness) is None

    def test_line_fan_recognized_as_parallel_matroid(self):
        # the line through v_{1} also passes through v_{2,3}; it is the
        # tropical line of the matroid where 2 and 3 are parallel
        fan = WeightedComplex(
            3,
            [origin_cell(3, [(-1, 0, 0)]), origin_cell(3, [(0, -1, -1)])],
            [1, 1],
            validate=False,
        )
        report = recognize_fan(fan)
        assert report.accepted
        assert report.matroid == matroid_from_bases(3, [[1, 2], [1, 3]])

    def test_round_trip_all_small_matroids(self):
        for n in range(1, 5):
            for matroid in enumerate_matroids(n):
                fan = chain_fan(ChainFamily(n, matroid.flats | {matroid.ground}))
                report = recognize_fan(fan)
                assert report.accepted
                assert report.matroid == matroid
                assert set(report.flats) == set(
                    (matroid.flats | {matroid.ground}) - {fs()}
                )

    def test_braid_fan_needs_no_h_representation(self, monkeypatch):
        u46 = matroid_from_bases(6, combinations(range(1, 7), 4))
        fan = chain_fan(ChainFamily(6, u46.flats | {u46.ground}))

        def refuse(*args):
            raise AssertionError("geometry on a braid cone")

        monkeypatch.setattr(Polyhedron, "_facets", refuse)
        monkeypatch.setattr(polyhedra, "hermite_normal_form", refuse)
        monkeypatch.setattr(complexes, "lattice_quotient_generator", refuse)
        monkeypatch.setattr(complexes, "in_span", refuse)
        report = recognize_fan(fan)
        assert report.accepted
        assert report.matroid == u46

    def test_non_fan_precondition(self):
        complex_ = WeightedComplex(
            3, [Cell.from_torus(3, [TropPoint((0, 5, 5))], rays=[(-1, 0, 0)])], [1]
        )
        with pytest.raises(InvalidInputError):
            recognize_fan(complex_)


class TestSupportEquality:
    def test_missing_chain_cone_is_witnessed(self, u23_fan, u23):
        sub = WeightedComplex(
            3, u23_fan.cells[:2], [1, 1], validate=False
        )
        family = ChainFamily(3, u23.flats | {u23.ground})
        witness = _support_equal(sub, _braid_pieces(sub, 20000), family, budget=20000)
        assert witness is not None
        assert point_in_support(sub, witness) is None

    def test_equal_supports_pass(self, u23_fan, u23):
        family = ChainFamily(3, u23.flats | {u23.ground})
        pieces = _braid_pieces(u23_fan, 20000)
        assert _support_equal(u23_fan, pieces, family, budget=20000) is None


class TestChainLookup:
    """A maximal chain that is a braid piece is covered without
    `_uncovered_witness`, and each coarse cell is refined once."""

    def test_refine_runs_once_per_cell_that_is_no_braid_cone(self, monkeypatch):
        calls = []
        real = recognize.refine

        def counted(poly, *args):
            calls.append(poly)
            return real(poly, *args)

        monkeypatch.setattr(recognize, "refine", counted)
        refined = 0
        for fan in [*braid_fan_corpus(4), *coarse_uniform_corpus(5)]:
            calls.clear()
            report = recognize_fan(fan)
            coarse = [c.poly for c in fan.cells if c.chain is None]
            if report.accepted or report.reason.kind in ("flat-axiom", "support-mismatch"):
                assert len(calls) == len(coarse)
                assert all(a is b for a, b in zip(calls, coarse))
                refined += len(calls)
            else:
                assert calls == []
        assert refined > 50

    def test_accepted_coarse_fans_cover_every_chain_by_lookup(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a chain went through the coverage test")

        monkeypatch.setattr(recognize, "_uncovered_witness", refuse)
        for n in range(1, 7):
            for rank in range(1, n + 1):
                assert recognize_fan(coarse_uniform_fan(rank, n)).accepted

    def test_lookup_matches_coverage_of_every_chain(self, monkeypatch):
        # with no lookup every maximal chain goes through _uncovered_witness;
        # at n = 6 that takes seconds per fan, so only a first mutant is run
        budget = 20000
        cases = []
        for n in range(1, 7):
            for rank in range(1, n + 1):
                fan = coarse_uniform_fan(rank, n)
                family = recover_flat_family(fan)
                mutants = list(dropped_cones(fan))
                kept = mutants[:1] if n == 6 else [fan, *mutants]
                cases += [(cx, family) for cx in kept]

        def run():
            return [
                (
                    recognize_fan(cx, budget),
                    _support_equal(cx, _braid_pieces(cx, budget), family, budget),
                )
                for cx, family in cases
            ]

        looked_up = run()
        assert {r.verdict for r, _ in looked_up} == {"accepted", "rejected"}
        assert sum(w is not None for _, w in looked_up) > 20
        monkeypatch.setattr(Cell, "chain", property(lambda self: None))
        assert run() == looked_up


class TestDecideComplex:
    def test_translated_fan(self, u23):
        cells = [
            Cell.from_torus(3, [TropPoint((0, 5, 7))], rays=[r])
            for r in [(-1, 0, 0), (0, -1, 0), (0, 0, -1)]
        ]
        report = decide_complex(WeightedComplex(3, cells, [1, 1, 1]))
        assert report.accepted and report.matroid == u23

    def test_single_point_is_rank_one(self):
        single = WeightedComplex(
            4, [Cell.from_torus(4, [TropPoint((0, 0, 0, 0))])], [1]
        )
        report = decide_complex(single)
        assert report.accepted
        assert report.matroid == matroid_from_bases(4, [[1], [2], [3], [4]])

    def test_tree_decided_as_u24(self, tree_complex, u24):
        report = decide_complex(tree_complex)
        assert report.accepted and report.matroid == u24

    def test_tripod_decided_as_u23(self, tripod_complex, u23):
        report = decide_complex(tripod_complex)
        assert report.accepted and report.matroid == u23

    def test_unbalanced_complex_rejected(self):
        cell = Cell.from_torus(3, [TropPoint((0, 0, 0)), TropPoint((0, -1, 0))])
        report = decide_complex(WeightedComplex(3, [cell], [1]))
        assert not report.accepted
        assert report.reason.kind == "unbalanced"

    def test_doubled_weights_fail_through_recession(self, tree_complex):
        doubled = WeightedComplex(
            4, tree_complex.cells, [2] * 5, validate=False
        )
        report = decide_complex(doubled)
        assert not report.accepted
        assert report.reason.kind == "recession-mismatch"
        assert report.reason.witness.kind == "weight-not-one"

    def test_recession_round_trip_supports(self, tree_complex, u24):
        rec = recession_fan(tree_complex)
        bergman = chain_fan(ChainFamily(4, u24.flats | {u24.ground}))
        for cell in rec.cells:
            assert any(
                other.poly.contains_polyhedron(cell.poly) for other in bergman.cells
            )
        for cell in bergman.cells:
            assert any(
                other.poly.contains_polyhedron(cell.poly) for other in rec.cells
            )


class TestLocalCheck:
    def test_tree_accepted_at_both_vertices(self, tree_complex):
        report = local_check(tree_complex)
        assert report.accepted
        assert len(report.vertex_reports) == 2
        assert set(report.multipliers) == {1}
        for _, vertex_report in report.vertex_reports:
            assert vertex_report.accepted

    def test_doubled_bergman_fan_multiplier(self, u23_fan):
        doubled = WeightedComplex(3, u23_fan.cells, [2, 2, 2], validate=False)
        report = local_check(doubled)
        assert report.accepted
        assert report.global_report.multiplier == 2

    def test_disjoint_union_rejected(self):
        cells = make_tree_cells() + make_tree_cells((0, 50, 100, 150))
        two = WeightedComplex(4, cells, [1] * 10)
        report = local_check(two)
        assert not report.accepted
        assert report.global_report.reason.kind == "support-mismatch"
        assert report.global_report.reason.witness == "disconnected"

    def test_components_skip_pairs_already_joined(self, tree_complex, monkeypatch):
        calls = []
        real = Polyhedron.intersection
        monkeypatch.setattr(
            Polyhedron, "intersection", lambda a, b: calls.append(1) or real(a, b)
        )
        assert _components(tree_complex) == 1
        # the edge shares a vertex with every ray, so nothing is intersected
        assert len(calls) == 0

    def test_components_join_shared_vertices_before_intersecting(self, monkeypatch):
        calls = []
        real = Polyhedron.intersection
        monkeypatch.setattr(
            Polyhedron, "intersection", lambda a, b: calls.append(1) or real(a, b)
        )
        # the four rays come first, and only the edge joins their two vertices
        leaves_first = WeightedComplex(4, make_tree_cells()[::-1], [1] * 5, validate=False)
        assert _components(leaves_first) == 1
        assert len(calls) == 0

    def test_components_intersect_cells_without_a_common_vertex(self, monkeypatch):
        calls = []
        real = Polyhedron.intersection
        monkeypatch.setattr(
            Polyhedron, "intersection", lambda a, b: calls.append(1) or real(a, b)
        )
        # two segments crossing at the origin, and one far from both
        cells = [
            Cell.from_torus(3, [TropPoint((0, -1, 0)), TropPoint((0, 1, 0))]),
            Cell.from_torus(3, [TropPoint((0, 0, -1)), TropPoint((0, 0, 1))]),
        ]
        assert _components(WeightedComplex(3, cells, [1, 1], validate=False)) == 1
        assert len(calls) == 1
        far = Cell.from_torus(3, [TropPoint((0, 5, 5)), TropPoint((0, 6, 5))])
        crossing = WeightedComplex(3, cells + [far], [1, 1, 1], validate=False)
        assert _components(crossing) == 2

    def test_agrees_with_decide_on_connected_corpus(
        self, tree_complex, tripod_complex, u23_fan
    ):
        for complex_ in (tree_complex, tripod_complex, u23_fan):
            assert local_check(complex_).accepted == decide_complex(complex_).accepted

    def test_positive_fan_rejected_locally(self, plus_e_fan):
        report = local_check(plus_e_fan)
        assert not report.accepted
        assert report.global_report.reason.kind == "flat-axiom"


class TestRecessionPreservesConvexity:
    def test_probe_clean_on_recession_of_convex_corpus(
        self, tree_complex, tripod_complex
    ):
        # sampled-segment convexity passes to the recession fan
        for complex_ in (tree_complex, tripod_complex):
            assert convexity_probe(complex_, samples=80, seed=13).ok
            rec = recession_fan(complex_)
            assert convexity_probe(rec, samples=80, seed=13).ok

    def test_tripod_recession_is_the_matroid_fan(self, tripod_complex, u23):
        rec = recession_fan(tripod_complex)
        bergman = chain_fan(ChainFamily(3, u23.flats | {u23.ground}))
        for cell in rec.cells:
            assert any(
                o.poly.contains_polyhedron(cell.poly) for o in bergman.cells
            )
        for cell in bergman.cells:
            assert any(o.poly.contains_polyhedron(cell.poly) for o in rec.cells)


class TestStarsOfLinearSpaces:
    def test_tree_stars_are_matroidal(self, tree_complex):
        for vertex in (TropPoint((0, 0, 0, 0)), TropPoint((-1, -1, 0, 0))):
            star = star_fan(tree_complex, vertex)
            assert recognize_fan(star).accepted

    def test_stars_at_sampled_support_points(self, tree_complex):
        rng = random.Random(61)
        for _ in range(25):
            cell = tree_complex.cells[rng.randrange(len(tree_complex.cells))]
            q = list(cell.poly.vertices[rng.randrange(len(cell.poly.vertices))])
            for r in cell.poly.rays:
                c = F(rng.randint(0, 4), rng.randint(1, 2))
                for i, x in enumerate(r):
                    q[i] += c * x
            p = TropPoint((0,) + tuple(q))
            star = star_fan(tree_complex, p)
            assert recognize_fan(star).accepted, p

    def test_edge_interior_star_is_matroidal(self, tree_complex):
        star = star_fan(tree_complex, TropPoint((F(-1, 2), F(-1, 2), 0, 0)))
        report = recognize_fan(star)
        assert report.accepted
        # locally a line with parallel classes {1,2} and {3,4}
        assert set(report.flats) == {fs({1, 2}), fs({3, 4}), fs({1, 2, 3, 4})}


class TestConvexityProbe:
    def test_bergman_fan_clean(self, u23_fan):
        assert convexity_probe(u23_fan, samples=150, seed=3).ok

    def test_positive_fan_counterexample(self, plus_e_fan):
        result = convexity_probe(plus_e_fan, samples=150, seed=3)
        assert result.counterexample_found
        x, y = result.pair
        assert point_in_support(plus_e_fan, result.segment_check.gap_point) is None

    def test_single_chain_cone_clean(self):
        cone = origin_cell(3, [(-1, 0, 0), (-1, -1, 0)])
        single = WeightedComplex(3, [cone], [1])
        assert convexity_probe(single, samples=150, seed=5).ok

    def test_deterministic(self, plus_e_fan):
        a = convexity_probe(plus_e_fan, samples=50, seed=11)
        b = convexity_probe(plus_e_fan, samples=50, seed=11)
        assert a.pair == b.pair

    def test_rejected_balanced_fans_have_counterexamples(
        self, rank3_flats_line_fan, plus_e_fan
    ):
        # soundness agreement: a counterexample on a balanced unit-weight fan
        # forces rejection, and these rejected fans do exhibit one
        for fan in (rank3_flats_line_fan, plus_e_fan):
            assert not recognize_fan(fan).accepted
            assert convexity_probe(fan, samples=300, seed=7).counterexample_found

    def test_accepted_complexes_probe_clean(self, tree_complex, tripod_complex):
        for complex_ in (tree_complex, tripod_complex):
            assert convexity_probe(complex_, samples=100, seed=9).ok


class TestProbeAgainstPolyhedronRows:
    """Segment coverage over the rows braid cones read from their chains
    gives the results it gives over every cell's polyhedron rows."""

    @staticmethod
    def complexes():
        for seed in (301, 302):
            for cx in benchmark_valuated_corpus(seed):
                yield cx
                if len(cx.cells) == 1:
                    continue
                # a cell dropped from the middle leaves a hole inside the support
                keep = [i for i in range(len(cx.cells)) if i != len(cx.cells) // 2]
                yield WeightedComplex(
                    cx.n, [cx.cells[i] for i in keep], [cx.weights[i] for i in keep],
                    validate=False,
                )

    def test_results_match_the_polyhedron_row_table(self):
        rng = random.Random(97)
        seen = set()
        fewer_rows = 0
        for cx in self.complexes():
            verts = recognize._structure_vertices(cx)
            pairs = list(combinations(verts, 2))[:4]
            for _ in range(6):
                a, b = rng.choice(cx.cells), rng.choice(cx.cells)
                pairs.append((recognize._sample_point(a, rng), recognize._sample_point(b, rng)))

            def results():
                probe = convexity_probe(cx, samples=10, seed=len(cx.cells))
                return probe, [segment_in_support(cx, a, b) for a, b in pairs]

            got = results()
            rows = cx._row_table[0]
            cx.__dict__["_row_table"] = constraint_row_table(cx)
            assert results() == got, cx
            fewer_rows += len(rows) < len(cx._row_table[0])
            seen.add(("probe found", got[0].counterexample_found))
            seen.update(("segment covered", check.covered) for check in got[1])
        assert len(seen) == 4 and fewer_rows > 0

    def test_translated_bergman_fan_probe_runs_no_double_description(self, monkeypatch):
        cx = next(cx for cx in benchmark_valuated_corpus(301) if cx.n == 5 and len(cx.cells) == 60)
        calls = []
        dd = polyhedra._dd

        def counted(*args):
            calls.append(args)
            return dd(*args)

        monkeypatch.setattr(polyhedra, "_dd", counted)
        assert convexity_probe(cx, samples=30, seed=7).ok
        assert len(calls) == 0


class TestEdgeCases:
    def test_single_coordinate_torus(self):
        # the torus of a one-element ground set is a single point
        zero = WeightedComplex(1, [Cell.from_torus(1, [TropPoint((0,))])], [1])
        report = recognize_fan(zero)
        assert report.accepted
        assert report.matroid == matroid_from_bases(1, [[1]])
        assert decide_complex(zero).accepted

    def test_probe_agreement_on_accepted_fans(self):
        for n in range(1, 4):
            for matroid in enumerate_matroids(n):
                fan = chain_fan(ChainFamily(n, matroid.flats | {matroid.ground}))
                assert recognize_fan(fan).accepted
                assert convexity_probe(fan, samples=40, seed=1).ok

    def test_tree_face_closure(self, tree_complex):
        cells = tree_complex.all_cells()
        # five maximal cells, two vertices
        assert sum(1 for c in cells if c.dim == 1) == 5
        assert sum(1 for c in cells if c.dim == 0) == 2


class TestCombinationClosure:
    def test_accepted_support_closed_under_combinations(self, tree_complex):
        rng = random.Random(31)
        cells = tree_complex.cells
        for _ in range(150):
            points = []
            for _ in range(2):
                cell = cells[rng.randrange(len(cells))]
                q = list(cell.poly.vertices[rng.randrange(len(cell.poly.vertices))])
                for r in cell.poly.rays:
                    c = F(rng.randint(0, 5), rng.randint(1, 2))
                    for i, x in enumerate(r):
                        q[i] += c * x
                points.append(TropPoint((0,) + tuple(q)))
            lam, mu = rand_rational(rng), rand_rational(rng)
            combo = trop_combine([(lam, points[0]), (mu, points[1])])
            assert point_in_support(tree_complex, combo) is not None
