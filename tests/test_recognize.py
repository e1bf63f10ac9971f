"""Fan recognition, complex decision, local checks, and the convexity probe."""

import random
import sys
import time
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from troplin import complexes, matroids, points, polyhedra, recognize
from troplin import io as tio
from troplin.complexes import (
    BalanceCheck,
    Cell,
    SegmentCheck,
    WeightedComplex,
    chain_fan,
    chn_cell_of,
    point_in_support,
    recession_fan,
    segment_in_support,
    star_fan,
    to_quotient,
)
from troplin.errors import InvalidInputError, ResourceLimitError
from troplin.matroids import ChainFamily, enumerate_matroids, matroid_from_bases
from troplin.points import (
    TropPoint,
    _integer_breakpoints,
    _integer_ends,
    flat_direction,
    trop_combine,
)
from troplin.polyhedra import Polyhedron
from troplin.recognize import (
    Reason,
    _braid_pieces,
    _components,
    convexity_probe,
    decide_complex,
    local_check,
    recognize_fan,
    recover_flat_family,
)

from conftest import (
    benchmark_tree_line,
    benchmark_valuated_corpus,
    benchmark_valuated_mutants,
    braid_fan_corpus,
    coarse_uniform_corpus,
    coarse_uniform_fan,
    constraint_row_table,
    coordinate_classes,
    coverage_complexes,
    coverage_pairs,
    dropped_cones,
    het_bound_fans,
    holed_tree_line,
    is_balanced_by_rays,
    make_tree_cells,
    off_chain_point,
    probe_drawing_first,
    probed_flat_family,
    rand_rational,
    recognize_fan_balancing_first,
    sample_by_randint,
    skeleton_fan_corpus,
    support_equal_by_coverage,
    uncovered_piece_by_keys,
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

    def test_one_cover_relation_for_verdict_chains_and_matroid(self, monkeypatch):
        # the family's cached lattice gives the flat axioms, the rank, the
        # maximal chains or their number, and the matroid
        fans = [
            chain_fan(ChainFamily(4, m.flats | {m.ground})) for m in enumerate_matroids(4)
        ] + [coarse_uniform_fan(rank, 5) for rank in range(1, 6)]
        calls = []
        lattice = matroids._lattice

        def counted(sets):
            calls.append(sets)
            return lattice(sets)

        monkeypatch.setattr(matroids, "_lattice", counted)
        for fan in fans:
            calls.clear()
            assert recognize_fan(fan).accepted
            assert len(calls) == 1

    def test_chamber_family_is_taken_unchecked(self, monkeypatch):
        # the chambers' members are frozensets within 1..n, so the family of
        # them and the ground set skips the checks of `ChainFamily(...)`
        fans = [chain_fan(ChainFamily(4, m.flats | {m.ground})) for m in enumerate_matroids(4)]
        want = [tio.report_to_json(recognize_fan(fan)) for fan in fans]
        monkeypatch.setattr(ChainFamily, "__init__", lambda *args: pytest.fail("checked"))
        assert [tio.report_to_json(recognize_fan(fan)) for fan in fans] == want
        monkeypatch.undo()
        with pytest.raises(InvalidInputError, match="not within 1..3"):
            ChainFamily(3, [{1, 4}, {1, 2, 3}])

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
    def test_missing_chain_cone_is_witnessed(self):
        # the rays over every proper flat of U(3,4) are balanced, but they
        # miss every 2-dimensional chain cone; the witness is the first one's
        u34 = matroid_from_bases(4, combinations(range(1, 5), 3))
        proper = sorted((f for f in u34.flats if f and f != u34.ground), key=sorted)
        fan = WeightedComplex(
            4, [origin_cell(4, [tuple(flat_direction(4, f).coords)]) for f in proper],
            [1] * len(proper),
        )
        report = recognize_fan(fan)
        assert report.reason.kind == "support-mismatch"
        witness = report.reason.witness
        assert point_in_support(fan, witness) is None
        first = ChainFamily(4, u34.flats | {u34.ground}).maximal_chains()[0]
        assert chn_cell_of(witness)[:-1] == first

    def test_equal_supports_pass(self):
        # no cell of a coarse U(3,4) fan is a braid cone, so every chamber is
        # read from the relative interior point of a piece
        fan = coarse_uniform_fan(3, 4)
        assert all(cell.chain is None for cell in fan.cells)
        report = recognize_fan(fan)
        assert report.accepted
        assert report.matroid == matroid_from_bases(4, combinations(range(1, 5), 3))


class TestChainLookup:
    """Support equality looks each maximal chain up among the chambers of the
    braid pieces, and each coarse cell is refined once."""

    def test_refine_runs_once_per_cell_that_is_no_braid_cone(self, monkeypatch):
        calls = []
        real = recognize.refine

        def counted(poly, *args):
            calls.append(poly)
            return real(poly, *args)

        monkeypatch.setattr(recognize, "refine", counted)
        refined = 0
        for fan in [*braid_fan_corpus(4), *coarse_uniform_corpus(5), *het_bound_fans()]:
            calls.clear()
            report = recognize_fan(fan)
            coarse = [c.poly for c in fan.cells if c.chain is None]
            if report.accepted or report.reason.kind in ("flat-axiom", "support-mismatch"):
                assert len(calls) == len(coarse)
            elif report.reason.kind == "het-bound":
                # refinement stops at the first cell with an offending piece
                assert 0 < len(calls) <= len(coarse)
            else:
                assert calls == []
            assert all(a is b for a, b in zip(calls, coarse))
            refined += len(calls)
        assert refined > 50

    def test_braid_hyperplanes_built_only_for_a_cell_to_refine(self, monkeypatch):
        calls = []
        real = recognize._braid_hyperplanes

        def counted(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(recognize, "_braid_hyperplanes", counted)
        tagged = 0
        for fan in [*braid_fan_corpus(4), *coarse_uniform_corpus(5)]:
            calls.clear()
            _braid_pieces(fan, 20000)
            assert calls == ([] if fan.chain_tagged else [fan.n])
            tagged += fan.chain_tagged
        assert tagged > 100

    def test_accepted_coarse_fans_cover_every_chain_by_lookup(self, monkeypatch):
        calls = []
        real = recognize._braid_pieces

        def refuse(*args):
            raise AssertionError("support equality cut a polyhedron")

        for n in range(1, 7):
            for rank in range(1, n + 1):
                with monkeypatch.context() as patch:

                    def then_uncut(*args):
                        calls.append(args)
                        pieces = real(*args)
                        patch.setattr(Polyhedron, "_cut", refuse)
                        return pieces

                    patch.setattr(recognize, "_braid_pieces", then_uncut)
                    assert recognize_fan(coarse_uniform_fan(rank, n)).accepted
        assert len(calls) == 21

    def test_lookup_matches_coverage_of_every_chain(self, monkeypatch):
        # coarse fans with their one-cone-dropped mutants, which are
        # unbalanced, and the skeleton fans, which give support mismatches;
        # refining every cone of an n = 6 fan takes seconds, so only a first
        # mutant is run there
        budget = 20000
        cases = [*skeleton_fan_corpus()]
        for n in range(1, 7):
            for rank in range(1, n + 1):
                fan = coarse_uniform_fan(rank, n)
                mutants = list(dropped_cones(fan))
                cases += mutants[:1] if n == 6 else [fan, *mutants]

        def run():
            return [recognize_fan(cx, budget) for cx in cases]

        looked_up = run()
        assert {r.verdict for r in looked_up} == {"accepted", "rejected"}
        mismatches = 0
        for cx, report in zip(cases, looked_up):
            if not (report.accepted or report.reason.kind == "support-mismatch"):
                continue
            family = recover_flat_family(cx)
            oracle = support_equal_by_coverage(cx, _braid_pieces(cx, budget), family, budget)
            assert report.accepted == (oracle is None)
            if not report.accepted:
                mismatches += 1
                witness = report.reason.witness
                assert point_in_support(cx, witness) is None
                assert set(chn_cell_of(witness)) <= family.sets
        assert mismatches > 20
        # with no chains every piece's chamber comes from its interior point
        monkeypatch.setattr(Cell, "chain", property(lambda self: None))
        assert run() == looked_up

    def test_lookup_matches_the_coverage_oracle(self):
        seen = set()
        corpus = [*skeleton_fan_corpus(), *braid_fan_corpus(4), *coarse_uniform_corpus(5)]
        for fan in corpus:
            report = recognize_fan(fan)
            if not (report.accepted or report.reason.kind == "support-mismatch"):
                continue
            pieces = _braid_pieces(fan, 20000)
            family = recover_flat_family(fan)
            # the lemma of `recognize_fan`: every piece sits on a chain
            assert off_chain_point(fan, pieces, family) is None
            witness = None if report.accepted else report.reason.witness
            assert (witness is None) == (support_equal_by_coverage(fan, pieces, family) is None)
            if witness is not None:
                assert point_in_support(fan, witness) is None
                assert set(chn_cell_of(witness)) <= family.sets
            seen.add(witness is None)
        assert seen == {True, False}


class TestChambers:
    """One pass reads each braid piece's chamber; its length is the
    heterogeneity bound test, and the chambers' members are the flat
    family."""

    @staticmethod
    def corpus():
        return [
            *braid_fan_corpus(4), *coarse_uniform_corpus(5), *skeleton_fan_corpus(),
            *het_bound_fans(),
        ]

    @pytest.fixture(params=["braid", "none"])
    def braid_or_none(self, request, monkeypatch):
        """As is, or with no cell a braid cone, so every cell is refined."""
        if request.param == "none":
            monkeypatch.setattr(Cell, "braid", property(lambda self: None))
            monkeypatch.setattr(Cell, "chain", property(lambda self: None))
        return request.param

    def test_chamber_verdict_matches_coordinate_classes(self, monkeypatch, braid_or_none):
        # a one-cell fan taken as balanced reaches the chamber pass, and is
        # rejected by it exactly when the oracle rejects the cell
        monkeypatch.setattr(recognize, "is_balanced", lambda cx: BalanceCheck(True))
        seen = set()
        for fan in self.corpus():
            for cell in fan.cells:
                one = WeightedComplex(fan.n, [cell], [1], validate=False)
                report = recognize_fan(one)
                rejected = not report.accepted and report.reason.kind == "het-bound"
                assert rejected == (coordinate_classes(cell) > cell.dim + 1)
                if rejected:
                    witness = report.reason.witness
                    assert cell.poly.contains(to_quotient(witness))
                    assert len(set(witness.coords)) == coordinate_classes(cell)
                seen.add(rejected)
        assert seen == {True, False}

    def test_het_bound_witness_lies_in_the_first_offending_cell(self, braid_or_none):
        rejected = 0
        for fan in self.corpus():
            report = recognize_fan(fan)
            kind = None if report.accepted else report.reason.kind
            if kind in ("non-pure", "weight-not-one", "unbalanced"):
                continue
            offending = [c for c in fan.cells if coordinate_classes(c) > fan.dim + 1]
            assert (kind == "het-bound") == bool(offending)
            if offending:
                rejected += 1
                witness = report.reason.witness
                assert offending[0].poly.contains(to_quotient(witness))
                assert len(set(witness.coords)) > fan.dim + 1
        assert rejected == len(het_bound_fans())

    def test_offending_cell_split_into_pieces(self):
        walls = het_bound_fans()[-1]
        first, offending, _ = walls.cells
        assert [coordinate_classes(c) > walls.dim + 1 for c in walls.cells] == [False, True, False]
        one = WeightedComplex(4, [offending], [1], validate=False)
        assert len(_braid_pieces(one, 20000)) >= 2
        report = recognize_fan(walls)
        assert report.reason.kind == "het-bound"
        witness = report.reason.witness
        assert offending.poly.contains(to_quotient(witness))
        assert not first.poly.contains(to_quotient(witness))
        assert len(set(witness.coords)) > walls.dim + 1

    def test_chamber_family_is_the_ray_family(self, monkeypatch, braid_or_none):
        # the lemma of `recognize_fan` makes the members of the chambers the
        # F with -e_F spanning a ray of a piece; a fan of braid cones at the
        # origin has its family checked before it is balanced
        checked = []
        verify = recognize.verify_flat_family

        def recorded(n, family):
            checked.append(family)
            return verify(n, family)

        monkeypatch.setattr(recognize, "verify_flat_family", recorded)
        kinds = set()
        for fan in self.corpus():
            checked.clear()
            report = recognize_fan(fan)
            kind = report.verdict if report.accepted else report.reason.kind
            reached = kind in ("accepted", "flat-axiom", "support-mismatch")
            early = kind in ("non-pure", "weight-not-one")
            assert bool(checked) == (reached or fan.chain_tagged and not early)
            if checked:
                (family,) = checked
                assert family.sets == recover_flat_family(fan).sets
                kinds.add(kind)
        tagged = {"unbalanced"} if braid_or_none == "braid" else set()
        assert kinds == {"accepted", "flat-axiom", "support-mismatch"} | tagged


class TestChainFanFastPath:
    """A fan of braid cones at the origin is accepted from its chains alone,
    and every verdict, reason and witness is the one of balancing first."""

    @staticmethod
    def matroid_fans():
        for n in range(1, 6):
            for m in enumerate_matroids(n):
                yield chain_fan(ChainFamily(n, m.flats | {m.ground}))
        for rank in range(1, 7):
            m = matroid_from_bases(6, combinations(range(1, 7), rank))
            yield chain_fan(ChainFamily(6, m.flats | {m.ground}))

    @staticmethod
    def chain_fan_mutants():
        """Chain fans of seeded random families, most of them no flat family,
        and the fans of the chains of a matroid's flats with the members of
        one rank left out: the flats of its truncation when that rank is the
        top one, and mostly no flat family otherwise."""
        rng = random.Random(2103)
        for _ in range(400):
            n = rng.randint(1, 5)
            p = rng.choice([0.2, 0.4, 0.7])
            subsets = [fs(c) for k in range(1, n) for c in combinations(range(1, n + 1), k)]
            yield chain_fan(ChainFamily(n, [s for s in subsets if rng.random() < p] + [range(1, n + 1)]))
        for n in range(2, 5):
            for m in enumerate_matroids(n):
                chains = ChainFamily(n, m.flats | {m.ground}).maximal_chains()
                for level in range(m.rank - 1):
                    kept = {c[:level] + c[level + 1 :] for c in chains}
                    cells = [Cell.from_braid(n, (0,) * (n - 1), c) for c in sorted(kept, key=repr)]
                    yield WeightedComplex(n, cells, [1] * len(cells), validate=False)

    def corpora(self):
        return {
            "matroids": self.matroid_fans(),
            "braid": braid_fan_corpus(4),
            "skeleton": skeleton_fan_corpus(),
            "het": het_bound_fans(),
            "coarse": coarse_uniform_corpus(5),
            "mutants": self.chain_fan_mutants(),
        }

    def test_reports_match_balancing_first(self, monkeypatch):
        balanced = []
        real = recognize.is_balanced

        def recorded(fan):
            balanced.append(fan)
            return real(fan)

        monkeypatch.setattr(recognize, "is_balanced", recorded)
        kinds, fast = {}, 0
        for name, corpus in self.corpora().items():
            for fan in corpus:
                balanced.clear()
                report = recognize_fan(fan)
                want = recognize_fan_balancing_first(fan)
                assert tio.dumps(tio.report_to_json(report)) == tio.dumps(tio.report_to_json(want))
                kind = report.verdict if report.accepted else report.reason.kind
                kinds.setdefault(name, set()).add(kind)
                if report.accepted and not balanced:
                    # accepted from its chains: the lemma makes it balanced
                    assert fan.chain_tagged
                    assert real(fan).ok and is_balanced_by_rays(fan).ok
                    fast += 1
        assert fast > 250
        assert kinds["matroids"] == {"accepted"}
        assert kinds["mutants"] >= {"accepted", "non-pure", "flat-axiom", "unbalanced"}
        everything = set().union(*kinds.values())
        assert everything == {
            "accepted", "non-pure", "weight-not-one", "unbalanced", "het-bound",
            "flat-axiom", "support-mismatch",
        }

    def test_fast_path_neither_balances_nor_lists_chains(self, monkeypatch):
        fans = list(self.matroid_fans())

        def refuse(*args):
            raise AssertionError("an accepted chain fan was balanced or listed its chains")

        monkeypatch.setattr(ChainFamily, "maximal_chains", refuse)
        monkeypatch.setattr(recognize, "is_balanced", refuse)
        for fan in fans:
            assert recognize_fan(fan).accepted


class TestSixElementChainFans:
    """Chain fans on six elements: every U(r,6), and each loopfree matroid
    on five elements with 6 added parallel to 1, are accepted with their own
    matroid and flats, as balancing first reports; with one cone dropped
    each gets the reason and witness of balancing first."""

    @staticmethod
    def matroids():
        for rank in range(1, 7):
            yield matroid_from_bases(6, combinations(range(1, 7), rank))
        for m in enumerate_matroids(5):
            bases = set(m.bases) | {b - {1} | {6} for b in m.bases if 1 in b}
            yield matroid_from_bases(6, bases)

    def test_accepted_as_balancing_first_and_mutants_as_well(self):
        def dumps(report):
            return tio.dumps(tio.report_to_json(report))

        spent, count, kinds = 0.0, 0, set()
        for m in self.matroids():
            fan = chain_fan(ChainFamily(6, m.flats | {m.ground}))
            started = time.perf_counter()
            report = recognize_fan(fan)
            spent += time.perf_counter() - started
            assert report.accepted and report.matroid == m
            assert set(report.flats) == m.flats - {fs()}
            assert dumps(report) == dumps(recognize_fan_balancing_first(fan))
            if len(fan.cells) > 1:
                mutant = WeightedComplex(6, fan.cells[1:], [1] * (len(fan.cells) - 1), validate=False)
                report = recognize_fan(mutant)
                assert not report.accepted
                assert dumps(report) == dumps(recognize_fan_balancing_first(mutant))
                kinds.add(report.reason.kind)
            count += 1
        assert count == 6 + len(enumerate_matroids(5))
        assert kinds == {"unbalanced"}
        # the fast path reads each chain fan from its chains alone
        assert spent < 1


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

    def test_components_stop_reading_pairs_at_one_component(self, monkeypatch):
        read = []

        def counted(items, r):
            for pair in combinations(items, r):
                read.append(pair)
                yield pair

        monkeypatch.setattr(recognize, "combinations", counted)
        # the 60 cones of a translated U(4,5) fan share their apex: the loop
        # stops at the first pair it reads
        fan = next(cx for cx in benchmark_valuated_corpus(301) if len(cx.cells) == 60)
        assert _components(fan) == 1 and len(read) == 1
        # two segments crossing at the origin, then one sharing a vertex with
        # the first: the crossing pair joins the last two components
        cells = [
            Cell.from_torus(3, [TropPoint((0, -1, 0)), TropPoint((0, 1, 0))]),
            Cell.from_torus(3, [TropPoint((0, 0, -1)), TropPoint((0, 0, 1))]),
            Cell.from_torus(3, [TropPoint((0, 1, 0)), TropPoint((0, 2, 0))]),
        ]
        read.clear()
        assert _components(WeightedComplex(3, cells, [1, 1, 1], validate=False)) == 1
        assert [(i, j) for (i, _), (j, _) in read] == [(0, 1), (0, 2)]

    def test_agrees_with_decide_on_connected_corpus(
        self, tree_complex, tripod_complex, u23_fan
    ):
        for complex_ in (tree_complex, tripod_complex, u23_fan):
            assert local_check(complex_).accepted == decide_complex(complex_).accepted

    def test_positive_fan_rejected_locally(self, plus_e_fan):
        report = local_check(plus_e_fan)
        assert not report.accepted
        assert report.global_report.reason.kind == "flat-axiom"

    def test_stars_with_different_multipliers_rejected(self):
        # two crossing U(2,3) lines of weights 1 and 2: each star is
        # recognized, but their multipliers differ
        def line(apex):
            rays = [(-1, 0, 0), (0, -1, 0), (0, 0, -1)]
            return [Cell.from_torus(3, [TropPoint(apex)], rays=[r]) for r in rays]

        cells, weights = line((0, 0, 0)) + line((0, 2, -1)), [1, 1, 1, 2, 2, 2]
        with pytest.raises(InvalidInputError, match="cells do not intersect in a common face"):
            WeightedComplex(3, cells, weights)
        report = local_check(WeightedComplex(3, cells, weights, validate=False))
        assert report.global_report.reason == Reason("support-mismatch", "multiplier mismatch")
        assert report.multipliers == (1, 2)
        assert all(r.accepted for _, r in report.vertex_reports)


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


class TestSampledPoints:
    """`_sample` reads the drawn vertex's generator and draws with
    `randrange`; it gives the points of drawing from the vertex with
    `randint` (`sample_by_randint`) and leaves the generator in the same
    state, so every probe draws the same pairs."""

    def test_samples_and_the_stream_match_the_randint_draws(self):
        cells = [c for cx in benchmark_valuated_corpus(301) for c in cx.cells]
        cells += [
            Cell.from_torus(3, [(0, F(1, 2), F(-1, 3))], lineality=[(0, 1, 2)]),
            Cell.from_torus(4, [(0, F(5, 6), 2, 0), (0, 0, 1, 1)], [(-1, 0, 0, 0)], [(0, 1, 0, 1)]),
        ]
        for k, cell in enumerate(cells):
            ours, theirs = random.Random(k), random.Random(k)
            for _ in range(4):
                assert recognize._sample(cell, ours) == sample_by_randint(cell, theirs), cell
            assert ours.random() == theirs.random()


class TestProbeAgainstPolyhedronRows:
    """Segment coverage over the difference forms of the cells gives the
    results it gives over every cell's polyhedron rows, all evaluated as
    dense rows."""

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
                x = recognize._scaled_point(*recognize._sample(a, rng))
                pairs.append((x, recognize._scaled_point(*recognize._sample(b, rng))))

            def results():
                probe = convexity_probe(cx, samples=10, seed=len(cx.cells))
                return probe, [segment_in_support(cx, a, b) for a, b in pairs]

            got = results()
            table = cx._row_table
            # every cell of a tree line or translated fan is alcoved
            assert table.dense == [], cx
            cx.__dict__["_row_table"] = constraint_row_table(cx)
            assert results() == got, cx
            fewer_rows += len(table.diffs) + len(table.dense) < len(cx._row_table.dense)
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


class TestProbeAgainstDrawFirstOracle:
    """The probe that draws integer samples one pair at a time returns the
    result of drawing every sample as a point first and checking each pair
    with the per-cell segment test."""

    def test_corpora_dropped_cells_and_plus_e_fan(self, plus_e_fan):
        found = set()
        sampled = 0
        cases = list(TestProbeAgainstPolyhedronRows.complexes()) + [plus_e_fan]
        for k, cx in enumerate(cases):
            result = convexity_probe(cx, samples=12, seed=k)
            assert result == probe_drawing_first(cx, 12, k), cx
            found.add(result.counterexample_found)
            vertex_pairs = set(combinations(recognize._structure_vertices(cx), 2))
            sampled += result.counterexample_found and result.pair not in vertex_pairs
        assert found == {True, False} and sampled > 0

    def test_samples_are_drawn_lazily(self):
        # the counterexample is a vertex pair, so a million samples are never drawn
        cx = holed_tree_line(6)
        expected = convexity_probe(cx, samples=200)
        assert expected.counterexample_found
        start = time.perf_counter()
        assert convexity_probe(cx, samples=10**6) == expected
        assert time.perf_counter() - start < 1


def _random_complexes(seed, count):
    """Seeded complexes of one to three random cells, mostly not alcoved,
    overlapping as they fall: cells are compared by neither validation nor
    segment coverage."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 4)
        cells = {}
        for _ in range(rng.randint(1, 3)):
            verts = [
                tuple(rand_rational(rng, 3, 2) for _ in range(n - 1))
                for _ in range(rng.randint(1, 4))
            ]
            dirs = [tuple(rng.randint(-1, 1) for _ in range(n - 1)) for _ in range(3)]
            rays = [t for t in dirs[: rng.randint(0, 2)] if any(t)]
            lin = [t for t in dirs[2:] if any(t) and rng.random() < 0.2]
            cell = Cell(n, Polyhedron(n - 1, verts, rays, lin))
            cells.setdefault(cell.key, cell)
        yield WeightedComplex(n, list(cells.values()), [1] * len(cells), validate=False)


def _ends(cell_a, cell_b, rng):
    """The scale d and the integer vectors d*x and d*y of two points x and
    y drawn as the probe draws them."""
    (sa, qa), (sb, qb) = recognize._sample(cell_a, rng), recognize._sample(cell_b, rng)
    d = lcm(sa, sb)
    return d, [0] + [x * (d // sa) for x in qa], [0] + [x * (d // sb) for x in qb]


def segment_check_by_keys(table, d, a, b):
    """The `SegmentCheck` of the segment between a/d and b/d by
    `uncovered_piece_by_keys` on its `_integer_breakpoints`: the gap
    parameter (j + gap)/pieces and its point on piece j, or the point
    itself when the segment is one point."""
    ends = _integer_breakpoints(a, b)
    found = uncovered_piece_by_keys(table, d, ends)
    if found is None:
        return SegmentCheck(True)
    j, gap = found
    start, end = ends[j], ends[min(j + 1, len(ends) - 1)]
    point = TropPoint(Fraction(s + gap * (e - s), d) for s, e in zip(start, end))
    return SegmentCheck(False, Fraction(j + gap, max(len(ends) - 1, 1)), point)


@pytest.fixture(scope="module")
def seeded_mutants():
    """The seed-301, 302 and 305 valuated_complexes cases and their mutants."""
    return [cx for seed in (301, 302, 305) for cx in benchmark_valuated_mutants(seed)]


@pytest.fixture(scope="module")
def alcoved_cells(seeded_mutants):
    """The distinct alcoved cells of the seeded mutants, two tree lines
    and seeded random complexes."""
    cells = {}
    for cx in [
        *seeded_mutants,
        *(benchmark_tree_line(n) for n in (4, 8)),
        *_random_complexes(347, 200),
    ]:
        for cell in cx.cells:
            if cell.differences is not None:
                cells.setdefault(cell.key, cell)
    return list(cells.values())


class TestCellMaskKernel:
    """The one segment kernel, `_segment_check`, on cell bitmasks with the
    polytrope lemma, gives the coverage, gap parameter and gap point that
    the kernel on the key sets of each cell's rows gives
    (`uncovered_piece_by_keys`) on every segment the probe and
    `segment_in_support` test."""

    def test_every_tested_segment_matches_the_key_oracle(self, monkeypatch, seeded_mutants):
        kinds = set()
        kernel = complexes._segment_check

        def checked(table, d, a, b):
            got = kernel(table, d, a, b)
            assert got == segment_check_by_keys(table, d, a, b), (a, b, d)
            first, last = (table.inside(table.values(e, d)) for e in (a, b))
            lemma = len(_integer_breakpoints(a, b)) > 2 and first & last & table.alcoved
            kinds.add("lemma" if lemma else "covered" if got.covered else "gap")
            kinds.add(("all alcoved", table.alcoved == table.full))
            return got

        monkeypatch.setattr(complexes, "_segment_check", checked)
        monkeypatch.setattr(recognize, "_segment_check", checked)
        cases = [*seeded_mutants, *(benchmark_tree_line(n) for n in range(4, 13))]
        cases += _random_complexes(337, 300)
        for k, cx in enumerate(cases):
            convexity_probe(cx, samples=20, seed=k)
            for a, b in coverage_pairs(cx, k)[::3]:
                segment_in_support(cx, a, b)
        assert kinds == {"lemma", "covered", "gap", ("all alcoved", True), ("all alcoved", False)}

    def test_pairs_in_one_alcoved_cell_are_covered_by_it_alone(self, alcoved_cells):
        rng = random.Random(349)
        bent = 0
        for cell in alcoved_cells:
            table = WeightedComplex(cell.n, [cell], [1], validate=False)._row_table
            assert table.alcoved == 1
            for _ in range(3):
                d, a, b = _ends(cell, cell, rng)
                ends = _integer_breakpoints(a, b)
                assert uncovered_piece_by_keys(table, d, ends) is None, (cell, ends)
                bent += len(ends) > 2
        assert len(alcoved_cells) > 100 and bent > 100

    def test_pairs_in_one_alcoved_cell_build_no_breakpoint(self, monkeypatch, alcoved_cells):
        build, calls = points._integer_breakpoints, []

        def counted(a, b):
            calls.append((a, b))
            return build(a, b)

        bound = [
            m
            for name, m in sys.modules.items()
            if name.startswith("troplin") and hasattr(m, "_integer_breakpoints")
        ]
        assert points in bound
        for module in bound:
            monkeypatch.setattr(module, "_integer_breakpoints", counted)
        rng = random.Random(349)
        bent = 0
        for k, cell in enumerate(alcoved_cells):
            cx = WeightedComplex(cell.n, [cell], [1], validate=False)
            for _ in range(3):
                d, a, b = _ends(cell, cell, rng)
                x, y = (TropPoint(Fraction(c, d) for c in v) for v in (a, b))
                assert segment_in_support(cx, x, y).covered
                bent += len(build(a, b)) > 2
            assert convexity_probe(cx, samples=3, seed=k).ok
        assert calls == [] and bent > 100

    def test_probe_counterexamples_are_the_segment_checks_of_their_pairs(self, seeded_mutants):
        found = sampled = 0
        cases = [cx for _, cx in coverage_complexes()] + seeded_mutants
        for cx in cases:
            result = convexity_probe(cx, samples=50)
            if result.counterexample_found:
                assert result.segment_check == segment_in_support(cx, *result.pair), cx
                found += 1
                sampled += result.pair not in combinations(recognize._structure_vertices(cx), 2)
        assert found > 20 and sampled > 5

    def test_classical_segment_bends_out_of_its_cell(self):
        # conv{(0,0,0), (0,1,2)} is not alcoved, so the lemma must not cover
        # the tropical segment between its ends, which bends at (0,0,1) and
        # leaves the cell at once: the gap is the middle of the first piece
        x, y = TropPoint((0, 0, 0)), TropPoint((0, 1, 2))
        cx = WeightedComplex(3, [Cell.from_torus(3, [x, y])], [1])
        table = cx._row_table
        assert cx.cells[0].differences is None and table.alcoved == 0
        d, a, b = _integer_ends(x, y)
        assert len(_integer_breakpoints(a, b)) == 3
        assert table.inside(table.values(a, d)) & table.inside(table.values(b, d))
        got = complexes._segment_check(table, d, a, b)
        assert not got.covered and got == segment_check_by_keys(table, d, a, b)
        assert (got.gap_param, got.gap_point) == (Fraction(1, 4), TropPoint((0, 0, Fraction(1, 2))))
        result = convexity_probe(cx, samples=0)
        assert result.pair == (x, y) and result.segment_check == got
        # had the cell been taken for a polytrope, the bend would be covered
        table.alcoved = table.full
        assert complexes._segment_check(table, d, a, b).covered


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
