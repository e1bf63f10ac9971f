"""Valuated matroids: basis valuations, circuit valuations, and membership.

A valuation assigns a rational to every basis and has to satisfy the exchange
form of the tropical Pluecker relations.  Each circuit then carries a
valuation vector whose finite support is exactly the circuit; the minus
infinity entries are stored as None rather than as a sentinel number.
Membership in the associated tropical linear space is the requirement that,
for every circuit, the maximum of x_i + (v_C)_i is attained at least twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .complexes import coordinate_difference, from_quotient
from .errors import InvalidInputError
from .matroids import GroundSet, Matroid, _sorted_sets
from .points import Rational, TropPoint, _frac
from .polyhedra import DEFAULT_BUDGET, refine

# index i holds the entry for ground element i+1; None encodes bottom.
CircuitVector = tuple[Rational | None, ...]


@dataclass(frozen=True)
class PlueckerCheck:
    ok: bool
    witness: tuple[GroundSet, GroundSet, int] | None = None


def check_pluecker(matroid: Matroid, weights: Mapping[GroundSet, Rational]) -> PlueckerCheck:
    """Exchange form of the tropical Pluecker relations.

    For all bases B1, B2 and every u in B1 there must be a v in B2 such that
    both exchanges are bases and w(B1) + w(B2) <= w(B1-u+v) + w(B2-v+u).
    """
    w = _normalized_weights(matroid, weights)
    ordered = _sorted_sets(matroid.bases)
    for b1 in ordered:
        for b2 in ordered:
            for u in sorted(b1 - b2):
                target = w[b1] + w[b2]
                ok = False
                for v in sorted(b2 - b1):
                    e1 = (b1 - {u}) | {v}
                    e2 = (b2 - {v}) | {u}
                    if e1 in w and e2 in w and target <= w[e1] + w[e2]:
                        ok = True
                        break
                if not ok:
                    return PlueckerCheck(False, (b1, b2, u))
    return PlueckerCheck(True)


def _normalized_weights(
    matroid: Matroid, weights: Mapping[GroundSet, Rational]
) -> dict[GroundSet, Rational]:
    for key in weights:
        if frozenset(key) not in matroid.bases:
            raise InvalidInputError(f"valuation given on {sorted(key)}, which is not a basis")
    out: dict[GroundSet, Rational] = {}
    for b in matroid.bases:
        key = frozenset(b)
        if key not in weights:
            raise InvalidInputError(f"valuation missing on basis {sorted(key)}")
        out[key] = _frac(weights[key])
    return out


def normalize_circuit_vector(vec: Iterable[Rational | None]) -> CircuitVector:
    """Shift so the minimum finite entry is zero."""
    entries = tuple(vec)
    finite = [e for e in entries if e is not None]
    if not finite:
        raise InvalidInputError("circuit vector with empty support")
    low = min(finite)
    return tuple(None if e is None else _frac(e - low) for e in entries)


class ValuatedMatroid:
    """A matroid with a Pluecker-valid basis valuation."""

    def __init__(self, matroid: Matroid, weights: Mapping[GroundSet, Rational]):
        self.matroid = matroid
        self.weights = _normalized_weights(matroid, weights)
        check = check_pluecker(matroid, self.weights)
        if not check.ok:
            b1, b2, u = check.witness
            raise InvalidInputError(
                "tropical Pluecker relations fail for "
                f"B1={sorted(b1)}, B2={sorted(b2)}, u={u}"
            )

    @property
    def n(self) -> int:
        return self.matroid.n

    def derivations(self, circuit: GroundSet) -> list[tuple[GroundSet, int]]:
        """All (basis, element) pairs whose fundamental circuit is the given one."""
        if circuit not in self.matroid.circuits:
            raise InvalidInputError(f"{sorted(circuit)} is not a circuit")
        pairs = []
        for i in sorted(circuit):
            rest = circuit - {i}
            for b in _sorted_sets(self.matroid.bases):
                if rest <= b and i not in b:
                    # b + i holds this circuit, the only circuit it holds
                    pairs.append((b, i))
        return pairs

    def circuit_valuation_from(self, circuit: GroundSet, basis: GroundSet, element: int) -> CircuitVector:
        """Valuation vector of a circuit derived from one (basis, element) pair."""
        entries: list[Rational | None] = [None] * self.n
        entries[element - 1] = 0
        base_weight = self.weights[basis]
        for j in circuit - {element}:
            exchanged = (basis - {j}) | {element}
            entries[j - 1] = self.weights[exchanged] - base_weight
        return normalize_circuit_vector(entries)

    def circuit_valuation(self, circuit: GroundSet) -> CircuitVector:
        circuit = frozenset(circuit)
        if circuit not in self.matroid.circuits:
            raise InvalidInputError(f"{sorted(circuit)} is not a circuit")
        return self.circuit_valuations[circuit]

    @cached_property
    def circuit_valuations(self) -> dict[GroundSet, CircuitVector]:
        out: dict[GroundSet, CircuitVector] = {}
        for c in _sorted_sets(self.matroid.circuits):
            basis, element = self.derivations(c)[0]
            out[c] = self.circuit_valuation_from(c, basis, element)
        return out


def member(valuated: ValuatedMatroid, x: TropPoint) -> bool:
    """Membership in the tropical linear space of a valuated matroid."""
    if x.n != valuated.n:
        raise InvalidInputError("ambient size mismatch")
    for circuit, vec in valuated.circuit_valuations.items():
        values = [x.coords[i - 1] + vec[i - 1] for i in circuit]
        top = max(values)
        if sum(1 for v in values if v == top) < 2:
            return False
    return True


@dataclass(frozen=True)
class CircuitAxiomCheck:
    ok: bool
    axiom: str | None = None
    witness: object = None


def check_circuit_axioms(
    n: int, circuit_vectors: Mapping[GroundSet, Iterable[Rational | None]]
) -> CircuitAxiomCheck:
    """Support and elimination axioms for a circuit valuation.

    Elimination: for circuits C, C' with representatives agreeing at some
    i in their intersection, and any j in C - C', some circuit D avoiding i
    must admit a representative with (v_D)_j = (v_C)_j that is dominated by
    the componentwise maximum of the two representatives.
    """
    vectors = {frozenset(c): tuple(v) for c, v in circuit_vectors.items()}
    for c, vec in vectors.items():
        if len(vec) != n:
            raise InvalidInputError("vector length must match the ground set size")
        support = frozenset(i + 1 for i, e in enumerate(vec) if e is not None)
        if support != c:
            return CircuitAxiomCheck(False, "support", (c, support))
    circuits = _sorted_sets(vectors)
    for c in circuits:
        for c2 in circuits:
            if c == c2:
                continue
            vc = vectors[c]
            for i in sorted(c & c2):
                shift = vc[i - 1] - vectors[c2][i - 1]
                vc2 = tuple(
                    None if e is None else e + shift for e in vectors[c2]
                )
                for j in sorted(c - c2):
                    if not _eliminates(vectors, vc, vc2, c, c2, i, j):
                        return CircuitAxiomCheck(False, "elimination", (c, c2, i, j))
    return CircuitAxiomCheck(True)


def _eliminates(vectors, vc, vc2, c, c2, i, j) -> bool:
    target = vc[j - 1]
    upper = [
        _nmax(a, b) for a, b in zip(vc, vc2)
    ]
    for d in _sorted_sets(vectors):
        if i in d or j not in d:
            continue
        vd = vectors[d]
        shift = target - vd[j - 1]
        ok = True
        for k in d:
            lim = upper[k - 1]
            if lim is None or vd[k - 1] + shift > lim:
                ok = False
                break
        if ok:
            return True
    return False


def _nmax(a: Rational | None, b: Rational | None) -> Rational | None:
    if a is None:
        return b
    if b is None:
        return a
    return a if a >= b else b


def certify_cell(valuated: ValuatedMatroid, cell, budget: int = DEFAULT_BUDGET) -> bool:
    """Exact test that every point of a polyhedral cell is a member.

    The cell is refined along the arrangement of comparison hyperplanes
    x_i + (v_C)_i = x_j + (v_C)_j over all circuits; on each refined
    full-dimensional piece the winner pattern is constant, so testing one
    relative-interior point per piece decides the whole cell.  Membership is
    a closed condition, which settles the piece boundaries as well.
    """
    if cell.n != valuated.n:
        raise InvalidInputError("ambient size mismatch")
    n = valuated.n
    hyperplanes = []
    for circuit, vec in valuated.circuit_valuations.items():
        members = sorted(circuit)
        for idx, i in enumerate(members):
            for j in members[idx + 1 :]:
                a = coordinate_difference(n, i, j)
                b = vec[j - 1] - vec[i - 1]
                hyperplanes.append((a, b))
    for piece in refine(cell.poly, hyperplanes, budget, "cell refinement"):
        point = from_quotient(n, piece.relative_interior_point())
        if not member(valuated, point):
            return False
    return True
