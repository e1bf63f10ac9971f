"""Matroids from bases, flat families, and the exhaustive enumeration oracle."""

from itertools import combinations

import pytest

from troplin import matroids
from troplin.errors import (
    InvalidInputError,
    LoopyMatroidError,
    NotAMatroidError,
    ResourceLimitError,
)
from troplin.matroids import (
    ChainFamily,
    Matroid,
    enumerate_matroids,
    matroid_from_bases,
    matroid_from_flats,
    verify_flat_family,
)

from conftest import all_chains, closure_by_rank_scan, fundamental_circuit, rank_by_bases

fs = frozenset

# exhaustive counts of loopfree matroids on a labeled ground set, frozen from
# the enumeration oracle as regression constants
LOOPFREE_COUNTS = {1: 1, 2: 2, 3: 6, 4: 27, 5: 185}


class TestFromBases:
    def test_u23(self, u23):
        assert u23.rank == 2
        assert u23.circuits == fs({fs({1, 2, 3})})
        assert u23.flats == fs(
            {fs(), fs({1}), fs({2}), fs({3}), fs({1, 2, 3})}
        )

    def test_free_matroid(self):
        m = matroid_from_bases(3, [[1, 2, 3]])
        assert m.circuits == fs()
        assert len(m.flats) == 8

    def test_exchange_failure_with_witness(self):
        with pytest.raises(NotAMatroidError) as err:
            matroid_from_bases(4, [[1, 2], [3, 4]])
        assert err.value.witness == (fs({1, 2}), fs({3, 4}), 1)

    def test_loop_detection(self):
        with pytest.raises(LoopyMatroidError) as err:
            matroid_from_bases(3, [[1, 2]])
        assert err.value.loops == fs({3})

    def test_mixed_cardinalities_rejected(self):
        with pytest.raises(InvalidInputError):
            matroid_from_bases(3, [[1, 2], [3]])

    def test_rank_function(self, u23):
        assert u23.rank_of({1}) == 1
        assert u23.rank_of({1, 2, 3}) == 2
        assert u23.rank_of(set()) == 0


class TestDerivedData:
    def test_circuits_are_minimal_dependent(self):
        for n in range(1, 6):
            for m in enumerate_matroids(n):
                for c in m.circuits:
                    assert not m.is_independent(c)
                    for e in c:
                        assert m.is_independent(c - {e})

    def test_rank_monotone_and_submodular(self):
        for n in range(1, 5):
            for m in enumerate_matroids(n):
                subsets = [
                    fs(c)
                    for size in range(n + 1)
                    for c in combinations(range(1, n + 1), size)
                ]
                for a in subsets:
                    for b in subsets:
                        if a <= b:
                            assert m.rank_of(a) <= m.rank_of(b)
                        assert m.rank_of(a | b) + m.rank_of(a & b) \
                            <= m.rank_of(a) + m.rank_of(b)

    def test_closure_is_a_closure_operator(self, u23):
        assert u23.closure({1}) == fs({1})
        assert u23.closure({1, 2}) == fs({1, 2, 3})

    def test_rank_and_closure_match_the_scan_of_the_bases(self):
        # every subset of 1..n+1: n + 1 lies outside the ground set, where
        # the closure keeps it and the rank ignores it
        seen = 0
        for n in range(1, 6):
            for m in enumerate_matroids(n):
                for size in range(n + 2):
                    for s in map(fs, combinations(range(1, n + 2), size)):
                        r = rank_by_bases(m, s)
                        assert m.rank_of(s) == r
                        assert m.is_independent(s) == (r == len(s))
                        assert m.closure(s) == closure_by_rank_scan(m, s)
                        seen += 1
        assert seen == sum(LOOPFREE_COUNTS[n] << n + 1 for n in range(1, 6))

    def test_each_circuit_is_the_fundamental_circuit_of_its_pair(self):
        for n in range(1, 6):
            for m in enumerate_matroids(n):
                assert m.circuits == fs(map(matroids._members, m._circuit_pairs))
                for mask, (basis, e) in m._circuit_pairs.items():
                    assert basis in m.bases and e not in basis
                    assert fundamental_circuit(m, basis, e) == matroids._members(mask)


class TestFlatFamilies:
    def test_valid_family(self, u23):
        assert verify_flat_family(3, [{1}, {2}, {3}, {1, 2, 3}]).ok

    def test_partition_axiom_violation(self):
        res = verify_flat_family(3, [{1}, {2}, {1, 2, 3}])
        assert not res.ok
        assert res.axiom == "partition"

    def test_single_proper_flat(self):
        assert verify_flat_family(4, [{1, 2, 3, 4}]).ok

    def test_missing_ground_set(self):
        res = verify_flat_family(3, [{1}, {2}])
        assert not res.ok and res.axiom == "ground-set"

    def test_a_set_outside_the_ground_set_is_refused(self):
        for outside in ({0}, {4}, {-1, 2}):
            with pytest.raises(InvalidInputError, match="not within 1..3"):
                verify_flat_family(3, [outside, {1, 2, 3}])

    def test_intersection_violation(self):
        res = verify_flat_family(3, [{1, 2}, {1, 3}, {2, 3}, {1, 2, 3}])
        assert not res.ok
        assert res.axiom == "intersection"
        assert res.witness == (fs({1, 2}), fs({1, 3}))

    def test_flats_of_every_enumerated_matroid_verify(self):
        for n in range(1, 6):
            for m in enumerate_matroids(n):
                assert verify_flat_family(n, m.flats).ok


class TestFromFlats:
    def test_u23_roundtrip(self, u23):
        rebuilt = matroid_from_flats(ChainFamily(3, u23.flats | {u23.ground}))
        assert rebuilt == u23

    def test_boolean_lattice_gives_free_matroid(self):
        family = ChainFamily(
            3, [s for k in range(4) for s in map(fs, combinations([1, 2, 3], k))]
        )
        m = matroid_from_flats(family)
        assert m.bases == fs({fs({1, 2, 3})})

    def test_rank_one(self):
        m = matroid_from_flats(ChainFamily(4, [{1, 2, 3, 4}]))
        assert m.rank == 1
        assert m.bases == fs({fs({1}), fs({2}), fs({3}), fs({4})})

    def test_invalid_family_rejected(self):
        with pytest.raises(InvalidInputError):
            matroid_from_flats(ChainFamily(3, [{1}, {2}, {1, 2, 3}]))

    def test_roundtrip_all_enumerated(self):
        for n in range(1, 6):
            for m in enumerate_matroids(n):
                rebuilt = matroid_from_flats(ChainFamily(n, m.flats | {m.ground}))
                assert rebuilt.bases == m.bases, m


class TestEnumeration:
    def test_frozen_counts(self):
        for n, count in LOOPFREE_COUNTS.items():
            assert len(enumerate_matroids(n)) == count

    def test_n1(self):
        (only,) = enumerate_matroids(1)
        assert only.bases == fs({fs({1})})

    def test_n2(self):
        matroids = enumerate_matroids(2)
        assert [m.bases for m in matroids] == [
            fs({fs({1}), fs({2})}),
            fs({fs({1, 2})}),
        ]

    def test_deterministic_order(self):
        assert [m.bases for m in enumerate_matroids(4)] == [
            m.bases for m in enumerate_matroids(4)
        ]

    def test_all_loopfree_and_valid(self):
        for m in enumerate_matroids(4):
            assert fs().union(*m.bases) == m.ground
            Matroid(m.n, m.bases)  # revalidates the exchange axiom

    def test_resource_limit(self):
        with pytest.raises(ResourceLimitError):
            enumerate_matroids(6)

    def test_exchange_checked_once_per_candidate(self, monkeypatch):
        calls = []
        check = matroids._check_exchange
        monkeypatch.setattr(
            matroids, "_check_exchange", lambda bases: calls.append(bases) or check(bases)
        )
        assert len(enumerate_matroids(5)) == 185
        assert len(calls) == 1754


class TestChainFamily:
    def test_requires_ground_set(self):
        with pytest.raises(InvalidInputError):
            ChainFamily(3, [{1}])

    def test_chains_of_u23_flats(self, u23):
        family = ChainFamily(3, u23.flats | {u23.ground})
        chains = all_chains(family)
        # empty chain plus one chain per singleton
        assert len(chains) == 4
        assert family.maximal_chains() == [
            (fs({1}),),
            (fs({2}),),
            (fs({3}),),
        ]

    def test_maximal_chains_of_boolean_lattice(self):
        family = ChainFamily(
            3, [s for k in range(1, 4) for s in map(fs, combinations([1, 2, 3], k))]
        )
        maximal = family.maximal_chains()
        assert len(maximal) == 6
        assert all(len(c) == 2 for c in maximal)
