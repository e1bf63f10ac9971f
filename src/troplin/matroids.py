"""Loopfree matroids given by bases, plus flat-family verification.

Ground sets are {1..n}.  Closures are computed by direct enumeration over
the bases.  Circuits are the fundamental circuits of the bases, and flats
are found from the empty flat upwards, one cover at a time, since the
covers of a flat F are the closures of F + e and partition the complement
of F (Oxley, *Matroid Theory*, ch. 1), so neither walks the 2^n subsets.
One cover relation, `_covers`, gives the maximal chains of a family, the
partition axiom of flats and the rank of a lattice of flats.
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


def _covers(sets: Iterable[frozenset[int]]) -> dict[GroundSet, list[GroundSet]]:
    """Each member, in `_sorted_sets` order, with the minimal members that
    properly contain it, in the same order."""
    ordered = _sorted_sets(sets)
    out: dict[GroundSet, list[GroundSet]] = {}
    for i, f in enumerate(ordered):
        # a member between f and g comes before g, so some cover of f is below g
        out[f] = covers = []
        for g in ordered[i + 1 :]:
            if f < g and not any(h < g for h in covers):
                covers.append(g)
    return out


def _mask(s: Iterable[int]) -> int:
    return sum(1 << (i - 1) for i in s)


def _members(mask: int) -> GroundSet:
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def _check_exchange(bases: frozenset[GroundSet]) -> tuple[GroundSet, GroundSet, int] | None:
    """Return the first violating (B1, B2, u) triple, B1 and B2 in
    `_sorted_sets` order and u ascending, or None if the axiom holds."""
    ordered = _sorted_sets(bases)
    masks = [_mask(b) for b in ordered]
    family = set(masks)
    elements = sorted(frozenset().union(*bases))
    for b1, m1 in zip(ordered, masks):
        # for each u of b1, the v with b1 - u + v a basis, as one mask
        swaps = []
        for u in sorted(b1):
            rest = m1 & ~(1 << (u - 1))
            swap = _mask(v for v in elements if rest | 1 << (v - 1) in family)
            swaps.append((u, 1 << (u - 1), swap & ~m1))
        for b2, m2 in zip(ordered, masks):
            for u, bit, swap in swaps:
                if not m2 & bit and not m2 & swap:
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
        self._set(n, basis_family)

    @classmethod
    def _verified(cls, n: int, bases: frozenset[GroundSet]) -> Matroid:
        """Build from a basis family known to be a loopfree matroid's; skips the checks."""
        matroid = cls.__new__(cls)
        matroid._set(n, bases)
        return matroid

    def _set(self, n: int, bases: frozenset[GroundSet]) -> None:
        self.n = n
        self.ground = frozenset(range(1, n + 1))
        self.bases = bases
        self.rank = len(next(iter(bases)))

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
        """Minimal dependent sets: the fundamental circuits e + {b in B :
        B - b + e is a basis} over every basis B and every e outside it, on
        bitmask bases.  Every circuit C is one: for e in C, C - e extends to
        a basis B, and C is the only circuit in B + e."""
        family = {_mask(b) for b in self.bases}
        found = set()
        for b in family:
            for e in range(self.n):
                bit = 1 << e
                if b & bit:
                    continue
                c, rest = bit, b
                while rest:
                    low = rest & -rest
                    rest ^= low
                    if b ^ low ^ bit in family:
                        c |= low
                found.add(c)
        return frozenset(map(_members, found))

    @cached_property
    def flats(self) -> frozenset[GroundSet]:
        """All closed sets, including the empty set and the ground set: the
        empty flat and its covers, theirs, and so on, on bitmask bases.  The
        covers of F are the closures of F + e, and they partition E - F."""
        masks = [_mask(b) for b in self.bases]
        full = (1 << self.n) - 1

        def closure(s: int) -> int:
            # e outside s raises the rank exactly when a basis meeting s most holds e
            r = max((b & s).bit_count() for b in masks)
            raising = 0
            for b in masks:
                if (b & s).bit_count() == r:
                    raising |= b
            return s | (full & ~raising)

        seen, todo = {0}, [0]
        while todo:
            f = todo.pop()
            rest = full & ~f
            while rest:
                g = closure(f | (rest & -rest))
                rest &= ~g
                if g not in seen:
                    seen.add(g)
                    todo.append(g)
        return frozenset(map(_members, seen))


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

    def maximal_chains(self) -> list[tuple[GroundSet, ...]]:
        """Maximal chains of proper nonempty members in lexicographic order:
        the paths of covers from the empty set to the ground set, ends dropped."""
        covers = _covers(self.sets | {frozenset()})
        ground = self.ground
        out: list[tuple[GroundSet, ...]] = []

        def walk(path: tuple[GroundSet, ...]) -> None:
            if path[-1] == ground:
                out.append(path[1:-1])
            for g in covers[path[-1]]:
                walk(path + (g,))

        walk((frozenset(),))
        return out


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
    for f, minimal in _covers(ordered).items():
        if f == ground:
            continue
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
    """Reconstruct the unique loopfree matroid with the given flat family."""
    check = verify_flat_family(family.n, family.sets)
    if not check.ok:
        raise InvalidInputError(
            f"not a flat family: axiom {check.axiom}, witness {check.witness}"
        )
    return _flat_matroid(family)


def _flat_matroid(family: ChainFamily) -> Matroid:
    """The matroid of a verified flat family: the rank is the length of a
    path of covers from the empty set to the ground set (flat lattices are
    graded), and the bases are the rank-sized sets that close up to the ground set."""
    ground = family.ground
    covers = _covers(family.sets | {frozenset()})
    rank, flat = 0, frozenset()
    while flat != ground:
        rank, flat = rank + 1, covers[flat][0]

    def closure(s: frozenset[int]) -> GroundSet:
        out = ground
        for f in covers:
            if s <= f:
                out &= f
        return out

    bases = frozenset(
        frozenset(c)
        for c in combinations(sorted(ground), rank)
        if closure(frozenset(c)) == ground
    )
    # the flat axioms were verified, so the bases need no exchange check
    return Matroid._verified(family.n, bases)


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
            try:
                out.append(Matroid(n, family))
            except NotAMatroidError:
                continue
    out.sort(
        key=lambda m: (
            m.rank,
            sorted(tuple(sorted(b)) for b in m.bases),
        )
    )
    return out
