"""Valuated matroids: basis valuations, circuit valuations, and membership.

A valuation assigns a rational to every basis and has to satisfy the exchange
form of the tropical Pluecker relations.  Each circuit then carries a
valuation vector whose finite support is exactly the circuit; the minus
infinity entries are stored as None rather than as a sentinel number.
Membership in the associated tropical linear space is the requirement that,
for every circuit, the maximum of x_i + (v_C)_i is attained at least twice.
A cell lies in that space exactly when it meets none of the open sectors in
which one element of a circuit attains the maximum alone; `certify_cell`
bisects an index of the sector bounds for the sectors that a cell's extents
leave open, decides each with one cut, and needs no budget.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, combinations
from math import gcd, lcm
from operator import or_
from typing import Iterable, Mapping

from .complexes import coordinate_difference
from .errors import InvalidInputError
from .linalg import vec_dot
from .matroids import GroundSet, Matroid, _sorted_sets
from .points import Rational, TropPoint, _frac
from .polyhedra import _from_rows, _row

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
    On the bases of a matroid the pairs with |B1 - B2| = 2 are enough (local
    exchange: Dress & Wenzel 1992; Murota 2003), so those are checked first
    (`_locally_exchangeable`).  Only when one fails are all pairs scanned, so
    the witness is the first violating (B1, B2, u) with B1 and B2 in
    `_sorted_sets` order and u ascending.
    """
    w = _normalized_weights(matroid, weights)
    if _locally_exchangeable(w):
        return PlueckerCheck(True)
    # a local pair fails, so the scan finds a violation
    return PlueckerCheck(False, _first_violation(w, _sorted_sets(matroid.bases)))


def _first_violation(w: dict[GroundSet, Fraction], ordered: list[GroundSet]):
    """The first (B1, B2, u) over all pairs of bases at which the exchange fails, or None."""
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
                    return b1, b2, u
    return None


def _locally_exchangeable(w: dict[GroundSet, Fraction]) -> bool:
    """The exchange axiom on the pairs of bases S+ab, S+cd with a, b, c, d
    distinct: for every u and in either order it asks that w(S+ab) + w(S+cd)
    be at most w(S+ac) + w(S+bd) or w(S+ad) + w(S+bc), a set that is no
    basis counting as -infinity.  Weights are read as integers over their
    common denominator, and the pairs ab as bitmasks, grouped by S."""
    scale = lcm(*(x.denominator for x in w.values()))
    links: dict[GroundSet, dict[int, int]] = {}
    for b, x in w.items():
        value = x.numerator * (scale // x.denominator)
        for i, j in combinations(b, 2):
            links.setdefault(b - {i, j}, {})[1 << i | 1 << j] = value
    for link in links.values():
        get = link.get
        for (e, x), (f, y) in combinations(link.items(), 2):
            if e & f:
                continue
            a, c = e & -e, f & -f
            b, d = e ^ a, f ^ c
            target = x + y
            g, h = get(a | c), get(b | d)
            if g is not None and h is not None and target <= g + h:
                continue
            g, h = get(a | d), get(b | c)
            if g is None or h is None or target > g + h:
                return False
    return True


def _normalized_weights(
    matroid: Matroid, weights: Mapping[GroundSet, Rational]
) -> dict[GroundSet, Rational]:
    for key in weights:
        if frozenset(key) not in matroid.bases:
            raise InvalidInputError(f"valuation given on {sorted(key)}, which is not a basis")
    for b in matroid.bases:
        if b not in weights:
            raise InvalidInputError(f"valuation missing on basis {sorted(b)}")
    return {b: _frac(weights[b]) for b in matroid.bases}


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
        """Each circuit's vector from its `_fundamental_pairs` pair."""
        return {c: self.circuit_valuation_from(c, b, i) for c, b, i in self._fundamental_pairs()}

    def _fundamental_pairs(self):
        """Each circuit, in sorted order, with its first (basis, element)
        pair whose fundamental circuit it is, with elements of the circuit
        ascending, then bases in sorted order."""
        bases = _sorted_sets(self.matroid.bases)
        for c in _sorted_sets(self.matroid.circuits):
            basis, element = next(
                (b, i) for i in sorted(c) for b in bases if c - {i} <= b and i not in b
            )
            yield c, basis, element

    @cached_property
    def _sector_bounds(self) -> tuple[int, list, list]:
        """(B, sectors, index): B the common denominator of the
        circuit-valuation entries; for each circuit C and each i in C in
        ascending order, (v_C, i, [(j, B*((v_C)_j - (v_C)_i)) for j in C - i
        ascending]); and for each ordered pair of torus positions i, j
        (0-based), (i, j, bounds, masks) with the bounds b of the sectors
        (C, i) with j in C - i ascending, and masks[k] the bitmask of the
        sectors' indices with the bounds from bounds[k] on.

        The circuit vectors are `circuit_valuation_from`'s, of the same
        pairs, read on the weights as integers over their common
        denominator W: for the pair (A, e), W*v_C is 0 at e and
        W*(w(A - j + e) - w(A)) at each other j in C, less its least entry,
        and B is W over the gcd of W and all those entries."""
        big = lcm(*(x.denominator for x in self.weights.values()))
        w = {b: x.numerator * (big // x.denominator) for b, x in self.weights.items()}
        scaled_vecs = []
        for circuit, basis, element in self._fundamental_pairs():
            entries = [None] * self.n
            entries[element - 1] = 0
            for j in circuit - {element}:
                entries[j - 1] = w[(basis - {j}) | {element}] - w[basis]
            low = min(x for x in entries if x is not None)
            scaled_vecs.append((circuit, [None if x is None else x - low for x in entries]))
        common = gcd(big, *(x for _, vec in scaled_vecs for x in vec if x))
        big //= common
        sectors, pairs = [], {}
        for circuit, scaled in scaled_vecs:
            members = sorted(circuit)
            scaled = [None if x is None else x // common for x in scaled]
            vec = tuple(x if x is None else Fraction(x, big) if x % big else x // big for x in scaled)
            for i in members:
                bounds = [(j, scaled[j - 1] - scaled[i - 1]) for j in members if j != i]
                for j, b in bounds:
                    pairs.setdefault((i - 1, j - 1), []).append((b, 1 << len(sectors)))
                sectors.append((vec, i, bounds))
        index = []
        for (i, j), entries in pairs.items():
            entries.sort()
            masks = list(accumulate([bit for _, bit in reversed(entries)], or_))
            index.append((i, j, [b for b, _ in entries], masks[::-1]))
        return big, sectors, index


def member(valuated: ValuatedMatroid, x: TropPoint) -> bool:
    """Membership in the tropical linear space of a valuated matroid."""
    if x.n != valuated.n:
        raise InvalidInputError("ambient size mismatch")
    for circuit, vec in valuated.circuit_valuations.items():
        values = [x.coords[i - 1] + vec[i - 1] for i in circuit]
        if values.count(max(values)) < 2:
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
                vc2 = tuple(None if e is None else e + shift for e in vectors[c2])
                for j in sorted(c - c2):
                    if not _eliminates(vectors, vc, vc2, c, c2, i, j):
                        return CircuitAxiomCheck(False, "elimination", (c, c2, i, j))
    return CircuitAxiomCheck(True)


def _eliminates(vectors, vc, vc2, c, c2, i, j) -> bool:
    target = vc[j - 1]
    upper = [_nmax(a, b) for a, b in zip(vc, vc2)]
    for d in _sorted_sets(vectors):
        if i in d or j not in d:
            continue
        vd = vectors[d]
        shift = target - vd[j - 1]
        if all(upper[k - 1] is not None and vd[k - 1] + shift <= upper[k - 1] for k in d):
            return True
    return False


def _nmax(a: Rational | None, b: Rational | None) -> Rational | None:
    return a if b is None or (a is not None and a >= b) else b


def certify_cell(valuated: ValuatedMatroid, cell) -> bool:
    """Exact test that every point of a polyhedral cell P is a member.

    A point is a non-member exactly when it lies in an open sector
    S_i(C) = {x : x_i + (v_C)_i > x_j + (v_C)_j for all j in C - i} of a
    circuit C, so P is certified exactly when it meets no S_i(C).  The
    maxima of x_i - x_j over P are the integers T[i][j] over L of the
    polyhedron's `extents`, and the sector bounds (v_C)_j - (v_C)_i the
    integers b over B of the matroid's `_sector_bounds`, so (C, i) is
    skipped when some j in C - i has T[i][j] * B <= b * L, that is
    b >= ceil(T[i][j] * B / L).  The bounds of each pair (i, j) are indexed
    sorted, so one bisection per pair finds every sector it skips, as a
    suffix of the pair's bounds with one bitmask.  For every sector left,
    one cut by the |C| - 1 closed sector rows gives Q.  A convex set inside
    finitely many hyperplanes lies in one of them, so P meets S_i(C) exactly
    when Q is nonempty and no sector row vanishes on every generator of Q.
    Each sector costs one cut, so no budget is needed.
    """
    if cell.n != valuated.n:
        raise InvalidInputError("ambient size mismatch")
    n, poly = valuated.n, cell.poly
    scale, top = poly.extents
    big, sectors, index = valuated._sector_bounds
    left = (1 << len(sectors)) - 1
    for i, j, bounds, masks in index:
        t = top[i][j]
        if t is not None:
            k = bisect_left(bounds, -(-t * big // scale))
            if k < len(bounds):
                left &= ~masks[k]
    while left:
        s = (left & -left).bit_length() - 1
        left &= left - 1
        vec, i, bounds = sectors[s]
        sector = [_row(coordinate_difference(n, j, i), vec[i - 1] - vec[j - 1]) for j, _ in bounds]
        eqs, ineqs = poly._rows
        q = _from_rows(n - 1, eqs, ineqs + sector)
        if q is not None and not any(all(vec_dot(r, g) == 0 for g in q._gens) for r in sector):
            return False
    return True
