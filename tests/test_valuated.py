"""Valuations on bases, circuit vectors, membership, cell certification."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from troplin import valuated
from troplin.complexes import Cell, coordinate_difference
from troplin.errors import InvalidInputError
from troplin.matroids import _sorted_sets, enumerate_matroids, matroid_from_bases
from troplin.points import TropPoint, segment, trop_combine
from troplin.valuated import ValuatedMatroid, certify_cell, check_pluecker, member

from conftest import (
    benchmark_valuated_cases,
    benchmark_valuated_matroids,
    certify_cell_by_fraction_extents,
    certify_cell_by_refinement,
    certify_cell_by_sector_scan,
    check_circuit_axioms,
    check_pluecker_all_pairs,
    circuit_valuations_by_search,
    circuit_vector_from_pair,
    comparison_hyperplanes,
    derivations,
    fundamental_circuit,
    member_by_circuit_maxima,
    rand_point,
    rand_rational,
    random_v2_matrix,
    v2_det_valuated,
    v2_row_point,
)

F = Fraction
fs = frozenset


def trivial(matroid):
    return ValuatedMatroid(matroid, {b: F(0) for b in matroid.bases})


def linear_valuation(matroid, coeffs):
    weights = {b: sum((coeffs[i - 1] for i in b), F(0)) for b in matroid.bases}
    return ValuatedMatroid(matroid, weights)


class TestPluecker:
    def test_trivial_valuation(self, u23):
        assert check_pluecker(u23, {b: 0 for b in u23.bases}).ok

    def test_u23_example(self, u23):
        weights = {fs({1, 2}): 0, fs({1, 3}): 0, fs({2, 3}): 1}
        assert check_pluecker(u23, weights).ok

    def test_u24_violation_with_witness(self, u24):
        weights = {b: 0 for b in u24.bases}
        weights[fs({1, 2})] = 1
        weights[fs({3, 4})] = 1
        res = check_pluecker(u24, weights)
        assert not res.ok
        assert res.witness == (fs({1, 2}), fs({3, 4}), 1)

    def test_missing_weight(self, u23):
        with pytest.raises(InvalidInputError):
            check_pluecker(u23, {fs({1, 2}): 0})

    def test_linear_valuations_always_pass(self):
        rng = random.Random(1)
        for n in range(2, 5):
            for matroid in enumerate_matroids(n):
                coeffs = [rand_rational(rng) for _ in range(n)]
                linear_valuation(matroid, coeffs)  # constructor validates

    def test_constant_shift_preserves_verdict(self, u23, u24):
        weights = {fs({1, 2}): F(0), fs({1, 3}): F(0), fs({2, 3}): F(1)}
        shifted = {b: w + 7 for b, w in weights.items()}
        assert check_pluecker(u23, shifted).ok
        bad = {b: F(0) for b in u24.bases}
        bad[fs({1, 2})] = F(1)
        bad[fs({3, 4})] = F(1)
        bad_shifted = {b: w - 3 for b, w in bad.items()}
        assert check_pluecker(u24, bad).witness == check_pluecker(
            u24, bad_shifted
        ).witness

    def test_the_constructor_validates_the_weights_once(self, monkeypatch, u23):
        calls, validate = [], valuated._normalized_weights

        def counted(*args):
            calls.append(args)
            return validate(*args)

        monkeypatch.setattr(valuated, "_normalized_weights", counted)
        ValuatedMatroid(u23, {fs({1, 2}): 0, fs({1, 3}): 0, fs({2, 3}): 1})
        assert len(calls) == 1


class TestLocalPluecker:
    """The exchange pairs with |B1 - B2| = 2 decide the relations, and a
    failure is reported with the first violation over all pairs."""

    @staticmethod
    def perturbed(rng, count):
        """Seeded valuations with n <= 6: -v_2 determinant valuations of
        random matrices and linear valuations of enumerated matroids, each
        as is or with one to three bases moved by a small rational."""
        matroids = [m for n in range(2, 5) for m in enumerate_matroids(n)]
        for _ in range(count):
            if rng.random() < 0.5:
                n = rng.randint(2, 6)
                v = v2_det_valuated(random_v2_matrix(rng, rng.randint(1, n), n))
                matroid, weights = v.matroid, dict(v.weights)
            else:
                matroid = rng.choice(matroids)
                coeffs = [rand_rational(rng) for _ in range(matroid.n)]
                weights = {b: sum((coeffs[i - 1] for i in b), F(0)) for b in matroid.bases}
            bases = _sorted_sets(matroid.bases)
            for b in rng.sample(bases, min(len(bases), rng.randint(0, 3))):
                weights[b] += F(rng.randint(-3, 3), rng.randint(1, 2))
            yield matroid, weights

    def test_agrees_with_all_pairs(self):
        verdicts, far = set(), 0
        for matroid, weights in self.perturbed(random.Random(2105), 5000):
            got = check_pluecker(matroid, weights)
            assert got == check_pluecker_all_pairs(matroid, weights), (matroid, weights)
            verdicts.add(got.ok)
            if not got.ok:
                b1, b2, _ = got.witness
                far += len(b1 - b2) > 2
        assert verdicts == {True, False}
        # the first violation over all pairs is not always a local pair
        assert far > 0

    def test_valid_valuation_scans_no_pair_beyond_the_local_ones(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("all pairs were scanned for a valid valuation")

        monkeypatch.setattr(valuated, "_first_violation", refuse)
        rng = random.Random(2106)
        u230 = matroid_from_bases(30, combinations(range(1, 31), 2))
        coeffs = [rand_rational(rng) for _ in range(30)]
        ValuatedMatroid(u230, {b: sum((coeffs[i - 1] for i in b), F(0)) for b in u230.bases})
        for _ in range(20):
            v2_det_valuated(random_v2_matrix(rng, 3, 7))  # the constructor validates


class TestCircuitValuation:
    def test_u23_example(self, u23_valuated):
        vec = u23_valuated.circuit_valuation({1, 2, 3})
        assert vec == (F(1), F(0), F(0))

    def test_trivial_is_zero_on_circuit(self, u23):
        vec = trivial(u23).circuit_valuation({1, 2, 3})
        assert vec == (F(0), F(0), F(0))

    def test_well_defined_across_derivations(self, u23_valuated):
        c = fs({1, 2, 3})
        expected = u23_valuated.circuit_valuation(c)
        pairs = derivations(u23_valuated, c)
        assert len(pairs) > 1
        for basis, elem in pairs:
            assert circuit_vector_from_pair(u23_valuated, c, basis, elem) == expected

    def test_well_defined_exhaustively(self):
        rng = random.Random(3)
        for n in range(2, 6):
            for matroid in enumerate_matroids(n):
                coeffs = [rand_rational(rng, 3) for _ in range(n)]
                vm = linear_valuation(matroid, coeffs)
                for c in matroid.circuits:
                    expected = vm.circuit_valuation(c)
                    for basis, elem in derivations(vm, c):
                        assert circuit_vector_from_pair(vm, c, basis, elem) == expected

    def test_derivations_are_the_pairs_with_that_fundamental_circuit(self):
        seen = 0
        for matroid in enumerate_matroids(4):
            vm = trivial(matroid)
            for c in matroid.circuits:
                expected = [
                    (b, i)
                    for i in sorted(matroid.ground)
                    for b in _sorted_sets(matroid.bases)
                    if i not in b and fundamental_circuit(matroid, b, i) == c
                ]
                assert derivations(vm, c) == expected
                seen += len(expected)
        assert seen > 0

    def test_each_vector_comes_from_the_first_derivation(self, u23_valuated, u24_tree_valuated):
        rng = random.Random(7)
        corpus = [u23_valuated, u24_tree_valuated]
        corpus += [
            linear_valuation(m, [rand_rational(rng, 3) for _ in range(n)])
            for n in range(2, 6)
            for m in enumerate_matroids(n)
        ]
        corpus += list(benchmark_valuated_matroids(301))
        for vm in corpus:
            assert list(vm.circuit_valuations) == _sorted_sets(vm.matroid.circuits)
            for c, vec in vm.circuit_valuations.items():
                expected = circuit_vector_from_pair(vm, c, *derivations(vm, c)[0])
                assert vec == expected
                assert list(map(type, vec)) == list(map(type, expected))

    def test_vectors_match_the_search_over_every_basis(self):
        # each circuit's recorded pair gives the vector that the first pair
        # a search finds gives, with the same types and in the same order
        rng = random.Random(30)
        valuations = [vm for seed in (301, 302, 305) for vm in benchmark_valuated_matroids(seed)]
        for rank, n in [(2, 4), (2, 5), (3, 5), (3, 6), (4, 6)]:
            valuations += [v2_det_valuated(random_v2_matrix(rng, rank, n)) for _ in range(4)]
        for vm in valuations:
            got, expected = vm.circuit_valuations, circuit_valuations_by_search(vm)
            assert list(got.items()) == list(expected.items())
            assert [list(map(type, v)) for v in got.values()] == [
                list(map(type, v)) for v in expected.values()
            ]

    def test_comparison_hyperplanes_are_the_distinct_circuit_pairs(self):
        # the hyperplanes of the refinement oracle of `certify_cell`
        for vm in benchmark_valuated_matroids(301):
            pairs = [
                (coordinate_difference(vm.n, i, j), vec[j - 1] - vec[i - 1])
                for c, vec in vm.circuit_valuations.items()
                for i in sorted(c)
                for j in sorted(c)
                if i < j
            ]
            assert comparison_hyperplanes(vm) == list(dict.fromkeys(pairs))

    def test_not_a_circuit(self, u23_valuated):
        with pytest.raises(InvalidInputError):
            u23_valuated.circuit_valuation({1, 2})

    def test_support_is_the_circuit(self):
        for n in range(2, 6):
            for matroid in enumerate_matroids(n):
                vm = trivial(matroid)
                for c, vec in vm.circuit_valuations.items():
                    support = fs(i + 1 for i, e in enumerate(vec) if e is not None)
                    assert support == c
                    finite = [e for e in vec if e is not None]
                    assert min(finite) == 0

    def test_normalization(self):
        # from ({1, 2}, 3) the entries w(B - j + 3) - w(B) are -2 and 2,
        # shifted up by 2; on {1, 2, 4}, element 3 is bottom
        u23 = matroid_from_bases(3, [[1, 2], [1, 3], [2, 3]])
        vm = ValuatedMatroid(u23, {fs({1, 2}): 5, fs({1, 3}): 7, fs({2, 3}): 3})
        assert circuit_vector_from_pair(vm, fs({1, 2, 3}), fs({1, 2}), 3) == (0, 4, 2)
        u24 = matroid_from_bases(4, combinations(range(1, 5), 2))
        vm = ValuatedMatroid(u24, {b: F(sum(b), 2) for b in u24.bases})
        assert circuit_vector_from_pair(vm, fs({1, 2, 4}), fs({1, 2}), 4) == (F(3, 2), F(1), None, 0)


class TestCircuitAxioms:
    def test_derived_valuations_pass(self):
        rng = random.Random(5)
        for n in range(2, 5):
            for matroid in enumerate_matroids(n):
                vm = linear_valuation(
                    matroid, [rand_rational(rng, 3) for _ in range(n)]
                )
                assert check_circuit_axioms(n, vm.circuit_valuations).ok

    def test_single_circuit_vacuous(self, u23):
        vm = trivial(u23)
        assert check_circuit_axioms(3, vm.circuit_valuations).ok

    def test_support_violation(self):
        res = check_circuit_axioms(3, {fs({1, 2}): (F(0), F(0), F(1))})
        assert not res.ok and res.axiom == "support"

    def test_frozen_perturbation_witness(self, u24_tree_valuated):
        # bumping the first finite entry of the valuation of circuit {1,2,3}
        # breaks elimination against circuit {2,3,4}
        vectors = dict(u24_tree_valuated.circuit_valuations)
        bumped = list(vectors[fs({1, 2, 3})])
        bumped[0] += 1
        vectors[fs({1, 2, 3})] = tuple(bumped)
        res = check_circuit_axioms(4, vectors)
        assert not res.ok
        assert res.axiom == "elimination"
        assert res.witness == (fs({1, 2, 3}), fs({2, 3, 4}), 2, 1)


class TestMember:
    def test_examples(self, u23):
        vm = trivial(u23)
        assert member(vm, TropPoint((0, 0, -5)))
        assert not member(vm, TropPoint((0, -1, -2)))

    def test_shifted_valuation(self, u23_valuated):
        assert member(u23_valuated, TropPoint((0, 1, -5)))
        assert member(u23_valuated, TropPoint((0, 1, 1)))
        assert not member(u23_valuated, TropPoint((0, 0, 0)))

    def test_size_mismatch(self, u23_valuated):
        with pytest.raises(InvalidInputError):
            member(u23_valuated, TropPoint((0, 1)))

    def test_trivial_matches_bergman_criterion(self):
        rng = random.Random(7)
        for n in range(2, 5):
            for matroid in enumerate_matroids(n):
                vm = trivial(matroid)
                for _ in range(20):
                    x = TropPoint([rng.randint(-3, 3) for _ in range(n)])
                    direct = all(
                        sum(
                            1
                            for i in c
                            if x.coords[i - 1] == max(x.coords[j - 1] for j in c)
                        )
                        >= 2
                        for c in matroid.circuits
                    )
                    assert member(vm, x) == direct

    def test_coordinate_rescaling_translates_membership(self, u23):
        # adding c to w on every basis containing k translates the space by c*e_k
        rng = random.Random(8)
        base = {fs({1, 2}): F(0), fs({1, 3}): F(0), fs({2, 3}): F(1)}
        vm = ValuatedMatroid(u23, base)
        for k in (1, 2, 3):
            c = F(rng.randint(-3, 3))
            rescaled = ValuatedMatroid(
                u23, {b: w + (c if k in b else 0) for b, w in base.items()}
            )
            shift = tuple(c if i == k else F(0) for i in range(1, 4))
            for _ in range(50):
                x = TropPoint([rand_rational(rng, 4) for _ in range(3)])
                assert member(rescaled, x) == member(
                    vm, TropPoint([a - b for a, b in zip(x.coords, shift)])
                )


class TestMemberAgainstCircuitMaxima:
    """`member`, read from the sector index, gives the verdicts of scanning
    every circuit for a maximum attained once (`member_by_circuit_maxima`)."""

    def test_fractional_points_and_points_near_the_space(self):
        rng = random.Random(2811)
        counts = {True: 0, False: 0}

        def check(vm, x):
            verdict = member(vm, x)
            assert verdict == member_by_circuit_maxima(vm, x), (vm.weights, x)
            counts[verdict] += 1

        valuations = [vm for seed in (301, 302, 305) for vm in benchmark_valuated_matroids(seed)]
        for rank, n in [(2, 4), (2, 5), (3, 5), (3, 6), (4, 6)]:
            valuations += [v2_det_valuated(random_v2_matrix(rng, rank, n)) for _ in range(4)]
        for vm in valuations:
            for _ in range(40):
                check(vm, TropPoint(rand_rational(rng, 2, 2) for _ in range(vm.n)))
        for rank, n in [(2, 4), (2, 5), (3, 5), (3, 6), (3, 7)]:
            a = random_v2_matrix(rng, rank, n)
            vm = v2_det_valuated(a)
            for _ in range(24):
                for p in segment(v2_row_point(rng, a), v2_row_point(rng, a)):
                    check(vm, p)
                    for k in range(n):
                        for step in (F(1, 2), F(-1, 2)):
                            check(vm, TropPoint(c + step * (i == k) for i, c in enumerate(p.coords)))
        assert counts[True] > 1000 and counts[False] > 1000, counts


class TestConvexityOfMembers:
    def sample_members(self, rng, complex_):
        cell = complex_.cells[rng.randrange(len(complex_.cells))]
        q = list(cell.poly.vertices[0])
        for r in cell.poly.rays:
            c = F(rng.randint(0, 8), rng.randint(1, 3))
            for i, val in enumerate(r):
                q[i] += c * val
        return TropPoint((0,) + tuple(q))

    @pytest.mark.parametrize("which", ["tripod", "tree"])
    def test_combinations_and_breakpoints_stay_members(
        self, which, u23_valuated, u24_tree_valuated, tripod_complex, tree_complex
    ):
        vm, complex_ = {
            "tripod": (u23_valuated, tripod_complex),
            "tree": (u24_tree_valuated, tree_complex),
        }[which]
        rng = random.Random(42)
        for _ in range(150):
            x = self.sample_members(rng, complex_)
            y = self.sample_members(rng, complex_)
            assert member(vm, x) and member(vm, y)
            lam, mu = rand_rational(rng), rand_rational(rng)
            assert member(vm, trop_combine([(lam, x), (mu, y)]))
            for p in segment(x, y):
                assert member(vm, p)


class TestCertifyCell:
    def test_ray_inside(self, u23):
        vm = trivial(u23)
        ray = Cell.from_torus(3, [TropPoint((0, 0, 0))], rays=[(-1, 0, 0)])
        assert certify_cell(vm, ray)

    def test_ray_outside(self, u23):
        vm = trivial(u23)
        ray = Cell.from_torus(3, [TropPoint((0, 0, 0))], rays=[(1, 0, 0)])
        assert not certify_cell(vm, ray)

    def test_point_cell_matches_member(self, u23):
        vm = trivial(u23)
        for coords in [(0, 0, -5), (0, -1, -2), (0, 0, 0)]:
            cell = Cell.from_torus(3, [TropPoint(coords)])
            assert certify_cell(vm, cell) == member(vm, TropPoint(coords))
        rng = random.Random(301)
        verdicts = set()
        for vm in benchmark_valuated_matroids(301):
            for _ in range(20):
                x = TropPoint(rng.randint(-2, 2) for _ in range(vm.n))
                verdict = member(vm, x)
                assert certify_cell(vm, Cell.from_torus(vm.n, [x])) == verdict
                verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_tree_cells_certify(self, u24_tree_valuated, tree_complex):
        for cell in tree_complex.cells:
            assert certify_cell(u24_tree_valuated, cell)

    def test_overshooting_edge_fails(self, u24_tree_valuated):
        bad = Cell.from_torus(
            4, [TropPoint((0, 0, 0, 0)), TropPoint((-2, -2, 0, 0))]
        )
        assert not certify_cell(u24_tree_valuated, bad)

    def test_ray_from_wrong_vertex_fails(self, u24_tree_valuated):
        bad = Cell.from_torus(4, [TropPoint((0, 0, 0, 0))], rays=[(-1, 0, 0, 0)])
        assert not certify_cell(u24_tree_valuated, bad)


class TestSectorTestAgainstRefinement:
    """`certify_cell` gives the verdicts of refinement along every comparison
    hyperplane (`certify_cell_by_refinement`)."""

    def test_benchmark_faces_mutants_and_translates(self):
        rng = random.Random(301)
        verdicts = []
        for vm, cx, mutant in benchmark_valuated_cases(301):
            cells = cx.all_cells() + list(mutant.cells if mutant else ())
            for cell in cx.cells:
                shift = [rand_rational(rng, 2) for _ in range(cx.n - 1)]
                cells.append(Cell(cx.n, cell.poly.translate(shift)))
            for cell in cells:
                verdict = certify_cell(vm, cell)
                assert verdict == certify_cell_by_refinement(vm, cell), cell
                verdicts.append(verdict)
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("rank, n", [(3, 5), (3, 6)])
    def test_random_cells_under_generic_valuations(self, rank, n):
        """Pieces of tropical segments between points of the space are
        members; random simplices, rays and lines mostly are not."""
        rng = random.Random(f"sectors:{rank},{n}")
        a = random_v2_matrix(rng, rank, n)
        vm = v2_det_valuated(a)
        cells = []
        for _ in range(6):
            x, y = v2_row_point(rng, a), v2_row_point(rng, a)
            assert member(vm, x) and member(vm, y)
            pts = segment(x, y)
            cells += [Cell.from_torus(n, pts[k : k + 2]) for k in range(len(pts) - 1)]
            direction = [rng.randint(-1, 1) for _ in range(n)]
            cells.append(Cell.from_torus(n, [rand_point(rng, n, 3) for _ in range(rank)]))
            cells.append(Cell.from_torus(n, [x], rays=[direction]))
            cells.append(Cell.from_torus(n, [y], lineality=[direction]))
        verdicts = [certify_cell(vm, cell) for cell in cells]
        assert verdicts == [certify_cell_by_refinement(vm, cell) for cell in cells]
        assert True in verdicts and False in verdicts


class TestIntegerSectorBoundsAgainstFractionExtents:
    """`certify_cell` on integer extents and sector bounds gives the verdicts
    of the Fraction extents it replaced (`certify_cell_by_fraction_extents`)."""

    def test_every_cell_under_every_valuation_of_its_size(self):
        rng = random.Random(301)
        cases = list(benchmark_valuated_cases(301))
        cells = []
        for _, cx, _ in cases:
            for cell in cx.cells:
                shift = [rand_rational(rng, 6, 3) for _ in range(cx.n - 1)]
                cells += [cell, Cell(cx.n, cell.poly.translate(shift))]
        verdicts = set()
        for vm, _, _ in cases:
            for cell in cells:
                if cell.n == vm.n:
                    verdict = certify_cell(vm, cell)
                    assert verdict == certify_cell_by_fraction_extents(vm, cell), (vm.weights, cell)
                    verdicts.add(verdict)
        assert verdicts == {True, False}


class TestSectorIndexAgainstSectorScan:
    """`certify_cell` with one bisection per pair of coordinates in the
    sector index gives the verdicts of comparing the cell's extents with the
    bounds of every sector (`certify_cell_by_sector_scan`)."""

    def test_every_corpus_cell_under_every_valuation_of_its_size(self):
        cases = [case for seed in (301, 302, 305) for case in benchmark_valuated_cases(seed)]
        verdicts = {True: 0, False: 0}
        for vm, _, _ in cases:
            for _, cx, _ in cases:
                if cx.n == vm.n:
                    for cell in cx.cells:
                        verdict = certify_cell(vm, cell)
                        assert verdict == certify_cell_by_sector_scan(vm, cell), (vm.weights, cell)
                        verdicts[verdict] += 1
        assert verdicts[True] > 100 and verdicts[False] > 100

    @pytest.mark.parametrize("rank, n", [(2, 4), (3, 5), (3, 6)])
    def test_random_polytopes_and_cones(self, rank, n):
        """Pieces of tropical segments between points of the space, and
        cones at those points, are mostly members; random polytopes are not.
        Each is also checked under the benchmark's valuations of its size."""
        rng = random.Random(f"sector index:{rank},{n}")
        a = random_v2_matrix(rng, rank, n)
        valuations = [v2_det_valuated(a)]
        valuations += [vm for vm in benchmark_valuated_matroids(301) if vm.n == n]
        cells = []
        for _ in range(8):
            x, y = v2_row_point(rng, a), v2_row_point(rng, a)
            pts = segment(x, y)
            cells += [Cell.from_torus(n, pts[k : k + 2]) for k in range(len(pts) - 1)]
            cells.append(Cell.from_torus(n, [rand_point(rng, n, 3) for _ in range(rng.randint(2, 4))]))
            cells.append(Cell.from_torus(n, [x], rays=[[-(i in (1, 2)) for i in range(1, n + 1)]]))
        verdicts = set()
        for vm in valuations:
            for cell in cells:
                verdict = certify_cell(vm, cell)
                assert verdict == certify_cell_by_sector_scan(vm, cell), (vm.weights, cell)
                verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_index_bounds_are_the_sector_bounds_sorted(self):
        for vm in benchmark_valuated_matroids(305):
            _, sectors, index = vm._sector_bounds
            pairs = {(k - 1, l - 1) for k, sector in sectors for l, _ in sector}
            assert sorted((i, j) for i, j, _, _ in index) == sorted(pairs)
            for i, j, bounds, masks in index:
                entries = sorted(
                    (b, s)
                    for s, (k, sector) in enumerate(sectors)
                    for l, b in sector
                    if (k - 1, l - 1) == (i, j)
                )
                assert bounds == [b for b, _ in entries]
                assert masks == [
                    sum(1 << s for _, s in entries[start:]) for start in range(len(entries))
                ]
