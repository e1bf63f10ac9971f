"""Loopfree matroids given by bases, plus flat-family verification.

Ground sets are {1..n}.  Derived data (circuits, flats, closure) is computed
by direct enumeration; ground sets stay small enough that the brute force
doubles as the test oracle for everything downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable

from .errors import (
    InvalidInputError,
    LoopyMatroidError,
    NotAMatroidError,
    ResourceLimitError,
)

GroundSet = frozenset[int]

# exhaustive enumeration is doubly exponential in n
ENUMERATION_LIMIT = 5


def _sorted_sets(sets: Iterable[frozenset[int]]) -> list[frozenset[int]]:
    return sorted(sets, key=lambda s: (len(s), sorted(s)))


def _check_exchange(bases: frozenset[GroundSet]) -> tuple[GroundSet, GroundSet, int] | None:
    """Return a violating (B1, B2, u) triple, or None if the axiom holds."""
    ordered = _sorted_sets(bases)
    for b1 in ordered:
        for b2 in ordered:
            for u in sorted(b1 - b2):
                if not any(b1 - {u} | {v} in bases for v in b2 - b1):
                    return b1, b2, u
    return None


class Matroid:
    """A loopfree matroid on {1..n} with validated basis family."""

    def __init__(self, n: int, bases: Iterable[Iterable[int]]):
        basis_family = frozenset(frozenset(b) for b in bases)
        if not basis_family:
            raise InvalidInputError("empty basis family")
        ground = frozenset(range(1, n + 1))
        for b in basis_family:
            if not b <= ground:
                raise InvalidInputError(f"basis {sorted(b)} not within 1..{n}")
        sizes = {len(b) for b in basis_family}
        if len(sizes) != 1 or 0 in sizes:
            raise InvalidInputError("bases must share a cardinality r >= 1")
        witness = _check_exchange(basis_family)
        if witness is not None:
            raise NotAMatroidError(witness)
        covered = frozenset().union(*basis_family)
        if covered != ground:
            raise LoopyMatroidError(ground - covered)
        self.n = n
        self.ground = ground
        self.bases = basis_family
        self.rank = len(next(iter(basis_family)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matroid)
            and self.n == other.n
            and self.bases == other.bases
        )

    def __hash__(self) -> int:
        return hash((self.n, self.bases))

    def __repr__(self) -> str:
        basis_list = [tuple(sorted(b)) for b in _sorted_sets(self.bases)]
        return f"Matroid(n={self.n}, bases={basis_list})"

    def rank_of(self, subset: Iterable[int]) -> int:
        s = frozenset(subset)
        return max(len(b & s) for b in self.bases)

    def is_independent(self, subset: Iterable[int]) -> bool:
        s = frozenset(subset)
        return self.rank_of(s) == len(s)

    def closure(self, subset: Iterable[int]) -> GroundSet:
        s = frozenset(subset)
        r = self.rank_of(s)
        return s | frozenset(
            g for g in self.ground - s if self.rank_of(s | {g}) == r
        )

    @cached_property
    def circuits(self) -> frozenset[GroundSet]:
        """Minimal dependent sets, of size at most rank + 1."""
        found: list[GroundSet] = []
        elements = sorted(self.ground)
        for size in range(1, self.rank + 2):
            for combo in combinations(elements, size):
                c = frozenset(combo)
                if self.is_independent(c):
                    continue
                if any(prev <= c for prev in found):
                    continue
                found.append(c)
        return frozenset(found)

    @cached_property
    def flats(self) -> frozenset[GroundSet]:
        """All closed sets, including the empty set and the ground set."""
        out = set()
        elements = sorted(self.ground)
        for size in range(0, self.n + 1):
            for combo in combinations(elements, size):
                s = frozenset(combo)
                if self.closure(s) == s:
                    out.add(s)
        return frozenset(out)


def matroid_from_bases(n: int, bases: Iterable[Iterable[int]]) -> Matroid:
    """Validate a basis family and build the matroid, or raise with a witness."""
    return Matroid(n, bases)


@dataclass(frozen=True)
class ChainFamily:
    """A family of subsets of {1..n} that contains the ground set."""

    n: int
    sets: frozenset[GroundSet]

    def __init__(self, n: int, sets: Iterable[Iterable[int]]):
        family = frozenset(frozenset(s) for s in sets)
        ground = frozenset(range(1, n + 1))
        for s in family:
            if not s <= ground:
                raise InvalidInputError(f"set {sorted(s)} not within 1..{n}")
        if ground not in family:
            raise InvalidInputError("the ground set must belong to the family")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "sets", family)

    @property
    def ground(self) -> GroundSet:
        return frozenset(range(1, self.n + 1))

    def proper_members(self) -> list[GroundSet]:
        return _sorted_sets(s for s in self.sets if s and s != self.ground)

    def chains(self) -> list[tuple[GroundSet, ...]]:
        """All chains of proper nonempty members, in deterministic order.

        The empty chain is included; every chain implicitly ends at the
        ground set.
        """
        proper = self.proper_members()
        out: list[tuple[GroundSet, ...]] = []

        def extend(prefix: tuple[GroundSet, ...], start: int) -> None:
            out.append(prefix)
            for idx in range(start, len(proper)):
                cand = proper[idx]
                if not prefix or prefix[-1] < cand:
                    extend(prefix + (cand,), idx + 1)

        extend((), 0)
        return out

    def maximal_chains(self) -> list[tuple[GroundSet, ...]]:
        """Chains that admit no single-member insertion."""
        proper = self.proper_members()

        def extendable(chain: tuple[GroundSet, ...]) -> bool:
            bounds = [(frozenset(), chain[0] if chain else None)]
            for i in range(len(chain)):
                upper = chain[i + 1] if i + 1 < len(chain) else None
                bounds.append((chain[i], upper))
            for lo, hi in bounds:
                for g in proper:
                    if lo < g and (hi is None or g < hi):
                        return True
            return False

        return [c for c in self.chains() if not extendable(c)]


@dataclass(frozen=True)
class FlatFamilyCheck:
    """Verdict of the flat-family axioms, with the failing axiom and witness."""

    ok: bool
    axiom: str | None = None
    witness: object = None


def verify_flat_family(n: int, sets: Iterable[Iterable[int]]) -> FlatFamilyCheck:
    """Check whether a family (with the empty set adjoined) is a flat family.

    The three axioms: the ground set belongs to the family; the family is
    intersection-closed; for every member F, the minimal members properly
    containing F partition the complement of F.
    """
    ground = frozenset(range(1, n + 1))
    family = {frozenset(s) for s in sets} | {frozenset()}
    if ground not in family:
        return FlatFamilyCheck(False, "ground-set", ground)
    ordered = _sorted_sets(family)
    for f, g in combinations(ordered, 2):
        if f & g not in family:
            return FlatFamilyCheck(False, "intersection", (f, g))
    for f in ordered:
        if f == ground:
            continue
        above = [g for g in ordered if f < g]
        minimal = [g for g in above if not any(h < g for h in above if h != g)]
        seen: set[int] = set()
        for g in minimal:
            diff = g - f
            if diff & seen:
                return FlatFamilyCheck(False, "partition", (f, g))
            seen |= diff
        if seen != ground - f:
            return FlatFamilyCheck(False, "partition", (f, frozenset(ground - f - seen)))
    return FlatFamilyCheck(True)


def matroid_from_flats(family: ChainFamily) -> Matroid:
    """Reconstruct the unique loopfree matroid with the given flat family.

    The rank of a flat is its height in the flat lattice; a set is a basis
    exactly when it has full-rank cardinality and closes up to the ground set.
    """
    check = verify_flat_family(family.n, family.sets)
    if not check.ok:
        raise InvalidInputError(
            f"not a flat family: axiom {check.axiom}, witness {check.witness}"
        )
    ground = family.ground
    flats = _sorted_sets(set(family.sets) | {frozenset()})
    height: dict[GroundSet, int] = {}
    for f in flats:
        below = [height[g] for g in flats if g < f and g in height]
        height[f] = 1 + max(below) if below else 0
    rank = height[ground]

    def closure(s: frozenset[int]) -> GroundSet:
        out = ground
        for f in flats:
            if s <= f:
                out &= f
        return out

    bases = [
        frozenset(c)
        for c in combinations(sorted(ground), rank)
        if closure(frozenset(c)) == ground
    ]
    return Matroid(family.n, bases)


def enumerate_matroids(n: int) -> list[Matroid]:
    """Every loopfree matroid on {1..n}, by exhaustive exchange filtering.

    No isomorphism reduction is performed; output order is fixed by rank and
    then by the sorted basis family.
    """
    if n < 1:
        raise InvalidInputError("enumeration needs n >= 1")
    if n > ENUMERATION_LIMIT:
        raise ResourceLimitError(f"enumeration capped at n <= {ENUMERATION_LIMIT}")
    ground = list(range(1, n + 1))
    out: list[Matroid] = []
    for rank in range(1, n + 1):
        subsets = [frozenset(c) for c in combinations(ground, rank)]
        for mask in range(1, 1 << len(subsets)):
            family = frozenset(
                subsets[i] for i in range(len(subsets)) if mask >> i & 1
            )
            if frozenset().union(*family) != frozenset(ground):
                continue
            if _check_exchange(family) is not None:
                continue
            out.append(Matroid(n, family))
    out.sort(
        key=lambda m: (
            m.rank,
            sorted(tuple(sorted(b)) for b in m.bases),
        )
    )
    return out
