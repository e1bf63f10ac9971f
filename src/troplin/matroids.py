"""Loopfree matroids given by bases, plus flat-family verification.

Ground sets are {1..n}.  One bitmask closure gives ranks, closures and
flats.  Circuits are the fundamental circuits of the bases, each with its
first (basis, element) pair, and flats are found from the empty flat up, one
cover at a time, since the covers of a flat F are the closures of F + e and
partition E - F (Oxley, *Matroid Theory*, ch. 1): neither walks 2^n subsets.
A `ChainFamily` builds one integer lattice, once: its members as bitmasks
and each member's covers as indices.  The flat axioms, the rank, the
maximal chains and their number all read it, and so do the bases of a flat
family, the rank-sized sets that no coatom contains.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .cache import cached_property
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


def _lattice(sets: Iterable[frozenset[int]]) -> tuple[list[GroundSet], list[int], list[list[int]]]:
    """The members in `_sorted_sets` order, their bitmasks, and for each the
    indices of the minimal members that properly contain it, ascending."""
    members = _sorted_sets(sets)
    holding: dict[int, int] = {}  # element -> the indices of the members holding it
    for j, s in enumerate(members):
        for e in s:
            holding[e] = holding.get(e, 0) | 1 << j
    above = []  # for each member, the indices of the members containing it
    for s in members:
        up = (1 << len(members)) - 1
        for e in s:
            up &= holding[e]
        above.append(up)
    covers = []
    for i, up in enumerate(above):
        # a member's subsets come before it, so the first member left above
        # member i is a cover; it and the members above it are dropped
        rest, found = up & ~(1 << i), []
        while rest:
            j = (rest & -rest).bit_length() - 1
            found.append(j)
            rest &= ~above[j]
        covers.append(found)
    return members, [_mask(s) for s in members], covers


def _mask(s: Iterable[int]) -> int:
    """Bit i - 1 for each i >= 1 of s: the sum of the 2^i, halved."""
    return sum(map((1).__lshift__, s)) >> 1


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
        return self._closure(_mask(self.ground.intersection(subset)))[0]

    def is_independent(self, subset: Iterable[int]) -> bool:
        s = frozenset(subset)
        return self.rank_of(s) == len(s)

    def closure(self, subset: Iterable[int]) -> GroundSet:
        """The closure of the subset's elements in 1..n, with the others kept."""
        s = frozenset(subset)
        return s | _members(self._closure(_mask(s & self.ground))[1])

    @cached_property
    def _masks(self) -> list[int]:
        return [_mask(b) for b in self.bases]

    def _closure(self, s: int) -> tuple[int, int]:
        """The rank and the closure of a bitmask within the ground set: an
        element outside s raises the rank exactly when a basis meeting s
        most holds it."""
        r = max((b & s).bit_count() for b in self._masks)
        raising = 0
        for b in self._masks:
            if (b & s).bit_count() == r:
                raising |= b
        return r, s | (((1 << self.n) - 1) & ~raising)

    @cached_property
    def _circuit_pairs(self) -> dict[int, tuple[GroundSet, int]]:
        """Each circuit's bitmask, with the first (B, e) pair found whose
        fundamental circuit e + {b in B : B - b + e is a basis} it is, over
        every basis B and every e outside it.  Every circuit C is one: for e
        in C, C - e extends to a basis B, and C is the only circuit in B + e."""
        family = set(self._masks)
        found: dict[int, tuple[GroundSet, int]] = {}
        for basis, b in zip(self.bases, self._masks):
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
                found.setdefault(c, (basis, e + 1))
        return found

    @cached_property
    def circuits(self) -> frozenset[GroundSet]:
        """Minimal dependent sets: the circuits of `_circuit_pairs`."""
        return frozenset(map(_members, self._circuit_pairs))

    @cached_property
    def flats(self) -> frozenset[GroundSet]:
        """All closed sets, including the empty set and the ground set: the
        empty flat and its covers, theirs, and so on, by `_closure`.  The
        covers of F are the closures of F + e, and they partition E - F."""
        full = (1 << self.n) - 1
        seen, todo = {0}, [0]
        while todo:
            f = todo.pop()
            rest = full & ~f
            while rest:
                g = self._closure(f | (rest & -rest))[1]
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

    @classmethod
    def _of_chambers(cls, n: int, sets: frozenset[GroundSet]) -> ChainFamily:
        """The family of frozensets within 1..n, the ground set among them,
        taken as is: the members of braid chambers, unchecked."""
        family = cls.__new__(cls)
        object.__setattr__(family, "n", n)
        object.__setattr__(family, "sets", sets)
        return family

    @property
    def ground(self) -> GroundSet:
        return frozenset(range(1, self.n + 1))

    @cached_property
    def lattice(self) -> tuple[list[GroundSet], list[int], list[list[int]]]:
        """`_lattice` of the members and the empty set, computed once; the
        empty set is first and the ground set last."""
        return _lattice(self.sets | {frozenset()})

    @cached_property
    def rank(self) -> int:
        """The number of covers on the first path from the empty set to the
        ground set, which is the rank of a graded lattice such as a flat
        family's."""
        covers = self.lattice[2]
        rank, i = 0, 0
        while covers[i]:
            rank, i = rank + 1, covers[i][0]
        return rank

    def count_maximal_chains(self) -> int:
        """`len(self.maximal_chains())`, by one pass down the covers: a member
        lies on as many paths to the ground set as its covers together."""
        covers = self.lattice[2]
        paths = [1] * len(covers)
        # a cover comes after its member, and only the ground set has none
        for i in range(len(covers) - 2, -1, -1):
            paths[i] = sum([paths[j] for j in covers[i]])
        return paths[0]

    def maximal_chains(self) -> list[tuple[GroundSet, ...]]:
        """Maximal chains of proper nonempty members in lexicographic order:
        the paths of covers from the empty set to the ground set, ends dropped."""
        members, _, covers = self.lattice
        out: list[tuple[GroundSet, ...]] = []

        def walk(path: tuple[int, ...]) -> None:
            if not covers[path[-1]]:
                out.append(tuple(members[i] for i in path[1:-1]))
            for j in covers[path[-1]]:
                walk(path + (j,))

        walk((0,))
        return out


@dataclass(frozen=True)
class FlatFamilyCheck:
    """Verdict of the flat-family axioms, with the failing axiom and witness."""

    ok: bool
    axiom: str | None = None
    witness: object = None


def verify_flat_family(n: int, sets: Iterable[Iterable[int]] | ChainFamily) -> FlatFamilyCheck:
    """Check whether a family (with the empty set adjoined) is a flat family.

    The three axioms: the ground set belongs to the family; the family is
    intersection-closed; for every member F, the minimal members properly
    containing F partition the complement of F.  A `ChainFamily` is read
    through its cached lattice, so no second cover relation is built.
    """
    if not isinstance(sets, ChainFamily):
        ground, family = frozenset(range(1, n + 1)), {frozenset(s) for s in sets} | {frozenset()}
        if ground not in family:
            return FlatFamilyCheck(False, "ground-set", ground)
        sets = ChainFamily(n, family)  # a set outside 1..n is refused here
    members, masks, covers = sets.lattice
    full, present = (1 << n) - 1, set(masks)
    for i, f in enumerate(masks):  # pairs in `_sorted_sets` order
        if not present.issuperset([f & g for g in masks[i + 1 :]]):
            j = next(j for j in range(i + 1, len(masks)) if f & masks[j] not in present)
            return FlatFamilyCheck(False, "intersection", (members[i], members[j]))
    # the family is intersection-closed here, so two covers of f meet in f,
    # and they partition the complement of f exactly when they cover it
    for i, up in enumerate(covers[:-1]):
        seen = masks[i]
        for j in up:
            seen |= masks[j]
        if seen != full:
            return FlatFamilyCheck(False, "partition", (members[i], _members(full & ~seen)))
    return FlatFamilyCheck(True)


def matroid_from_flats(family: ChainFamily) -> Matroid:
    """Reconstruct the unique loopfree matroid with the given flat family."""
    check = verify_flat_family(family.n, family)
    if not check.ok:
        raise InvalidInputError(
            f"not a flat family: axiom {check.axiom}, witness {check.witness}"
        )
    return _flat_matroid(family)


def _flat_matroid(family: ChainFamily) -> Matroid:
    """The matroid of a verified flat family: the rank is the length of a
    path of covers from the empty set to the ground set (flat lattices are
    graded), and the bases are the rank-sized sets that no coatom, a member
    the ground set covers, contains.  For the closure of s is the meet of
    the members that contain s, which is the ground set exactly when no
    proper member contains s, and every proper member lies below a coatom
    on a path of covers up to the ground set."""
    _, masks, covers = family.lattice
    coatoms = [m for m, up in zip(masks, covers) if up == [len(masks) - 1]]
    bases = frozenset(
        frozenset(c)
        for c in combinations(range(1, family.n + 1), family.rank)
        if (m := _mask(c)) not in [m & a for a in coatoms]  # no coatom holds c
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
