"""Valuated matroids: basis valuations, circuit valuations, and membership.

A valuation assigns a rational to every basis and has to satisfy the exchange
form of the tropical Pluecker relations.  Each circuit then carries a
valuation vector whose finite support is exactly the circuit; the minus
infinity entries are stored as None rather than as a sentinel number.  The
vectors are derived once, as integers over one denominator, each from the
(basis, element) pair that its matroid records, which gives the same vector
as any other pair (Dress & Wenzel 1992; Murota 2003) (`_circuits`).
Membership in the associated tropical linear space is the requirement that,
for every circuit, the maximum of x_i + (v_C)_i is attained at least twice:
x lies in no open sector in which one element of a circuit attains it
alone.  A point and a cell are decided on one index of the sector bounds
(`_open_sectors`), a point by its differences and a cell by its extents and
one cut for each sector left, so `certify_cell` needs no budget.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations
from math import gcd
from operator import or_
from typing import Mapping

from .cache import cached_property
from .complexes import coordinate_difference
from .errors import InvalidInputError
from .linalg import _lift, vec_dot
from .matroids import GroundSet, Matroid, _mask, _sorted_sets
from .points import Rational, TropPoint, _frac
from .polyhedra import _from_rows

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
    witness = _pluecker_witness(_integral(_normalized_weights(matroid, weights))[1])
    return PlueckerCheck(witness is None, witness)


def _pluecker_witness(w: dict[GroundSet, int]):
    """None if the weights, as integers (`_integral`), satisfy the exchange
    form, else the first violation."""
    if _locally_exchangeable(w):
        return None
    # a local pair fails, so the scan finds a violation
    return _first_violation(w, _sorted_sets(w))


def _first_violation(w: dict[GroundSet, int], ordered: list[GroundSet]):
    """The first (B1, B2, u) over all pairs of bases at which the exchange fails, or None."""
    for b1 in ordered:
        for b2 in ordered:
            for u in sorted(b1 - b2):
                target = w[b1] + w[b2]
                exchanges = (((b1 - {u}) | {v}, (b2 - {v}) | {u}) for v in sorted(b2 - b1))
                if not any(e in w and f in w and target <= w[e] + w[f] for e, f in exchanges):
                    return b1, b2, u
    return None


def _locally_exchangeable(w: dict[GroundSet, int]) -> bool:
    """The exchange axiom on the pairs of bases S+ab, S+cd with a, b, c, d
    distinct: for every u and in either order it asks that w(S+ab) + w(S+cd)
    be at most w(S+ac) + w(S+bd) or w(S+ad) + w(S+bc), a set that is no
    basis counting as -infinity.  The pairs ab are read as bitmasks,
    grouped by S."""
    links: dict[GroundSet, dict[int, int]] = {}
    for b, value in w.items():
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


def _integral(weights: dict[GroundSet, Rational]) -> tuple[int, dict[GroundSet, int]]:
    """(L, {B: L*w(B)}) for L the least common denominator of the weights."""
    *values, scale = _lift((*weights.values(), 1))
    return scale, dict(zip(weights, values))


class ValuatedMatroid:
    """A matroid with a Pluecker-valid basis valuation."""

    def __init__(self, matroid: Matroid, weights: Mapping[GroundSet, Rational]):
        self.matroid = matroid
        self.weights = _normalized_weights(matroid, weights)
        self._integer_weights = _integral(self.weights)
        witness = _pluecker_witness(self._integer_weights[1])
        if witness is not None:
            b1, b2, u = witness
            where = f"B1={sorted(b1)}, B2={sorted(b2)}, u={u}"
            raise InvalidInputError(f"tropical Pluecker relations fail for {where}")

    @property
    def n(self) -> int:
        return self.matroid.n

    def circuit_valuation(self, circuit: GroundSet) -> CircuitVector:
        circuit = frozenset(circuit)
        if circuit not in self.matroid.circuits:
            raise InvalidInputError(f"{sorted(circuit)} is not a circuit")
        return self.circuit_valuations[circuit]

    @cached_property
    def circuit_valuations(self) -> dict[GroundSet, CircuitVector]:
        """Each circuit's vector v_C, least entry 0: `_circuits` over its
        denominator, an int where integral."""
        big, circuits = self._circuits
        return {
            c: tuple(x if x is None else Fraction(x, big) if x % big else x // big for x in vec)
            for c, vec in circuits.items()
        }

    @cached_property
    def _circuits(self) -> tuple[int, dict[GroundSet, tuple[int | None, ...]]]:
        """(B, {C: B*v_C}) over the circuits in sorted order, with None off
        C.  Each vector comes from the circuit's `Matroid._circuit_pairs`
        pair on the weights as integers over their common denominator W: for
        the pair (A, e), W*v_C is 0 at e and W*(w(A - j + e) - w(A)) at each
        other j in C, less its least entry, and B is W over the gcd of W and
        all those entries, the least common denominator of the v_C."""
        big, w = self._integer_weights
        vecs = {}
        for circuit in _sorted_sets(self.matroid.circuits):
            basis, element = self.matroid._circuit_pairs[_mask(circuit)]
            entries = [None] * self.n
            entries[element - 1] = 0
            for j in circuit - {element}:
                entries[j - 1] = w[(basis - {j}) | {element}] - w[basis]
            low = min(x for x in entries if x is not None)
            vecs[circuit] = [None if x is None else x - low for x in entries]
        common = gcd(big, *(x for vec in vecs.values() for x in vec if x))
        return big // common, {
            c: tuple(None if x is None else x // common for x in vec) for c, vec in vecs.items()
        }

    @cached_property
    def _sector_bounds(self) -> tuple[int, list, list]:
        """(B, sectors, index): B the denominator of `_circuits`; for each
        circuit C and each i in C ascending, the sector (i, [(j, b) for j in
        C - i ascending]) with integer bounds b = B*((v_C)_j - (v_C)_i); and
        for each ordered pair of torus positions i, j (0-based), (i, j,
        bounds, masks) with the bounds of the sectors (C, i) with j in C - i
        ascending, and masks[k] the bitmask of the sectors with the bounds
        from bounds[k] on."""
        big, circuits = self._circuits
        sectors, pairs = [], {}
        for circuit, vec in circuits.items():
            members = sorted(circuit)
            for i in members:
                bounds = [(j, vec[j - 1] - vec[i - 1]) for j in members if j != i]
                for j, b in bounds:
                    pairs.setdefault((i - 1, j - 1), []).append((b, 1 << len(sectors)))
                sectors.append((i, bounds))
        index = []
        for (i, j), entries in pairs.items():
            entries.sort()
            masks = list(accumulate([bit for _, bit in reversed(entries)], or_))
            index.append((i, j, [b for b, _ in entries], masks[::-1]))
        return big, sectors, index

    def _open_sectors(self, scale: int, top: list[list[int | None]]) -> int:
        """The bitmask of the sectors that no pair of coordinates rules out
        for a set whose maxima of x_i - x_j are the integers top[i][j] over
        scale (None where unbounded).  The open sector S_i(C) =
        {x : x_i + (v_C)_i > x_j + (v_C)_j for all j in C - i} misses the
        set when some j in C - i has top[i][j] * B <= b * scale for its
        bound b over B, that is b >= ceil(top[i][j] * B / scale).  The
        bounds of each pair (i, j) are indexed sorted, so one bisection per
        pair finds every sector it rules out, as a suffix with one bitmask.
        For a point the maxima are its differences, so a sector is left
        exactly when the point lies in it."""
        big, sectors, index = self._sector_bounds
        left = (1 << len(sectors)) - 1
        for i, j, bounds, masks in index:
            t = top[i][j]
            if t is not None:
                k = bisect_left(bounds, -(-t * big // scale))
                if k < len(bounds):
                    left &= ~masks[k]
        return left


def member(valuated: ValuatedMatroid, x: TropPoint) -> bool:
    """Membership in the tropical linear space of a valuated matroid: x is a
    member exactly when it lies in no open sector (`_open_sectors`, read on
    the differences of x as integers over their common denominator)."""
    if x.n != valuated.n:
        raise InvalidInputError("ambient size mismatch")
    *coords, scale = _lift(x.coords + (1,))
    return not valuated._open_sectors(scale, [[a - b for b in coords] for a in coords])


def certify_cell(valuated: ValuatedMatroid, cell) -> bool:
    """Exact test that every point of a polyhedral cell P is a member.

    A point is a non-member exactly when it lies in an open sector S_i(C),
    so P is certified exactly when it meets none.  The maxima of x_i - x_j
    over P are the polyhedron's `extents`, and `_open_sectors` leaves the
    sectors they do not rule out.  For each one, one cut by its |C| - 1
    closed sector rows B*(x_j - x_i) + b <= 0 gives Q.  A convex set inside
    finitely many hyperplanes lies in one of them, so P meets S_i(C)
    exactly when Q is nonempty and no sector row vanishes on every
    generator of Q.  Each sector costs one cut, so no budget is needed.
    """
    if cell.n != valuated.n:
        raise InvalidInputError("ambient size mismatch")
    n, poly = valuated.n, cell.poly
    left = valuated._open_sectors(*poly.extents)
    big, sectors, _ = valuated._sector_bounds
    while left:
        s = (left & -left).bit_length() - 1
        left &= left - 1
        i, bounds = sectors[s]
        sector = [tuple(big * a for a in coordinate_difference(n, j, i)) + (b,) for j, b in bounds]
        eqs, ineqs = poly._rows
        q = _from_rows(n - 1, eqs, ineqs + sector)
        if q is not None and not any(all(vec_dot(r, g) == 0 for g in q._gens) for r in sector):
            return False
    return True
