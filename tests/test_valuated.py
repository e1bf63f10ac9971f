"""Valuations on bases, circuit vectors, membership, cell certification."""

import random
from fractions import Fraction

import pytest

from troplin.complexes import Cell
from troplin.errors import InvalidInputError, ResourceLimitError
from troplin.matroids import _sorted_sets, enumerate_matroids
from troplin.points import TropPoint, segment, trop_combine
from troplin.valuated import (
    ValuatedMatroid,
    certify_cell,
    check_circuit_axioms,
    check_pluecker,
    member,
    normalize_circuit_vector,
)

from conftest import fundamental_circuit, rand_rational

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
        pairs = u23_valuated.derivations(c)
        assert len(pairs) > 1
        for basis, elem in pairs:
            assert u23_valuated.circuit_valuation_from(c, basis, elem) == expected

    def test_well_defined_exhaustively(self):
        rng = random.Random(3)
        for n in range(2, 6):
            for matroid in enumerate_matroids(n):
                coeffs = [rand_rational(rng, 3) for _ in range(n)]
                vm = linear_valuation(matroid, coeffs)
                for c in matroid.circuits:
                    expected = vm.circuit_valuation(c)
                    for basis, elem in vm.derivations(c):
                        assert vm.circuit_valuation_from(c, basis, elem) == expected

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
                assert vm.derivations(c) == expected
                seen += len(expected)
        assert seen > 0

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
        assert normalize_circuit_vector((F(3), None, F(5))) == (F(0), None, F(2))


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

    def test_refinement_over_budget_raises(self, u24_tree_valuated, tree_complex):
        with pytest.raises(ResourceLimitError, match="cell refinement"):
            certify_cell(u24_tree_valuated, tree_complex.cells[0], budget=1)
