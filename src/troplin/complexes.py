"""Weighted rational polyhedral complexes in the tropical projective torus.

Geometry lives in quotient coordinates: a torus point with canonical
representative (0, y_2, ..., y_n) maps to (y_2, ..., y_n) in R^(n-1), an
isomorphism that also identifies the quotient lattice with Z^(n-1).  Cells
wrap exact polyhedra in these coordinates; complexes carry positive integer
weights on their maximal cells.

The operations here are the tropical-variety toolkit: primitive normal
vectors and the balancing test, recession and star fans, fans of chains of
subsets, and exact coverage tests for tropical segments.  A cell that is a
braid cone apex + cone(-e_F over a chain) carries its apex and chain
(`Cell.braid`): a cell built from a chain (`Cell.from_braid`, for chain
fans, recession cones of braid cones, stars at their apexes and braid cones
at the origin given by generators, which `Cell.from_torus` reads off the
representatives as written, with no point made, for JSON ingest and for the
other stars) is given them, and any other cell has them read off its
generators.  A cell built from a chain has no polyhedron until `Cell.poly`
is read, and is written to JSON from its apex and sets, so a Bergman fan
goes through the CLI as chains.  Balancing reads each braid facet's dropped
sets, and dimension reads the chain, instead of an H-representation.
Segment coverage reads one `RowTable` per complex of the cells' distinct
constraint rows, each evaluated once at every integer breakpoint of the
segment.  An alcoved cell, one cut out by bounds x_i - x_j <= c, as every
cell of a tropical linear space is (Lam & Postnikov 2007), has its rows
read as one integer difference form (`Cell.differences`), of coordinate
differences q*(x_i - x_j) + c read from two coordinates: a braid cone's
come from its apex and chain with no double description, and any other
cell's from its `extents` and facets.  Point containment reads the same
form.  Which cells meet the segment, and which contain a whole piece, are
set tests on the keys of the rows positive at each breakpoint; only the
pieces that no cell contains are swept in intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from math import gcd
from typing import Iterable, Sequence

from .errors import InvalidInputError, ResourceLimitError
from .linalg import (
    _lift,
    in_span,
    lattice_quotient_generator,
    primitive_direction,
    vec_dot,
    vec_is_zero,
    vec_sub,
)
from .matroids import ChainFamily, GroundSet
from .points import Rational, TropPoint, _breakpoints, _frac
from .polyhedra import DEFAULT_BUDGET, IntVec, Polyhedron, Vec, _apart, _neg


def to_quotient(x: TropPoint) -> Vec:
    """Drop the leading zero of the canonical representative."""
    return x.coords[1:]


def from_quotient(n: int, q: Sequence) -> TropPoint:
    return TropPoint((0,) + tuple(q))


def direction_to_quotient(vec: Sequence) -> Vec:
    """A direction modulo the all-ones line, in quotient coordinates."""
    return to_quotient(TropPoint(vec))


def lift_direction(d: Sequence) -> tuple:
    """Length-n integer representative of a quotient direction."""
    return (0,) + tuple(d)


def coordinate_difference(n: int, i: int, j: int) -> tuple[int, ...]:
    """The functional x_i - x_j of the torus, in quotient coordinates."""
    a = [0] * (n - 1)
    if i > 1:
        a[i - 2] += 1
    if j > 1:
        a[j - 2] -= 1
    return tuple(a)


def chain_cone(n: int, chain: tuple[GroundSet, ...], set_rays: dict | None = None) -> Polyhedron:
    """The cone on the negated indicator vectors of a chain's members, which
    are proper nonempty sets: its `chain_rays`, which are primitive and
    pairwise distinct and no one redundant, set as they are, with no
    reduction."""
    return Polyhedron._canonical(n - 1, ((0,) * (n - 1),), chain_rays(n, chain, set_rays))


def chain_rays(n: int, chain: tuple[GroundSet, ...], set_rays: dict | None = None) -> tuple:
    """The rays -e_F of a chain's members in quotient coordinates, sorted:
    the integer vectors with entry [1 in F] - [i in F] at position i = 2..n.
    `set_rays` maps sets to their rays; a fan built cone by cone passes one
    dict, so each distinct set's ray is built once."""
    rays = {} if set_rays is None else set_rays
    for f in chain:
        if f not in rays:
            rays[f] = tuple((1 in f) - (i in f) for i in range(2, n + 1))
    return tuple(sorted(rays[f] for f in chain))


def ray_set(r: Sequence[int]) -> GroundSet | None:
    """The F with -e_F spanning the primitive quotient ray r, or None
    (`_low_set` of r lifted, when that is a proper nonempty set)."""
    return _low_set(lift_direction(r)) or None


def _low_set(r: Sequence) -> GroundSet | None:
    """The set F of a length-n ray -c*e_F + d*(1,...,1), c > 0, or None.
    Such a ray is constant, the zero direction, whose set is empty, or
    takes exactly two values, F being where it takes the smaller.  Lifted,
    a primitive quotient ray takes two values when max - min is 1."""
    values = set(r)
    if len(values) == 2:
        low = min(values)
        return frozenset(i for i, x in enumerate(r, 1) if x == low)
    return frozenset() if len(values) == 1 else None


def _ray_chain(rays: Iterable[tuple], ray_sets: dict) -> tuple[GroundSet, ...] | None:
    """The ascending chain of the distinct nonempty `_low_set`s of rays
    given as length-n tuples, or None when a ray has none or the sets are
    not nested.  `ray_sets` maps rays to their sets as they are read; a
    caller reading many cells passes one dict, so each distinct ray is read
    once."""
    sets = set()
    for r in rays:
        if r not in ray_sets:
            ray_sets[r] = _low_set(r)
        sets.add(ray_sets[r])
    if None in sets:
        return None
    sets.discard(frozenset())
    chain = tuple(sorted(sets, key=len))
    if any(not a < b for a, b in zip(chain, chain[1:])):
        return None
    return chain


class Cell:
    """A rational polyhedron in the torus, equal to another when their
    `key`s are; a `from_braid` cell writes its `generators` with no polyhedron."""

    # (apex, chain, set_rays) of a cell made by `from_braid`
    _built_from: tuple | None = None

    def __init__(self, n: int, poly: Polyhedron):
        if poly.m != n - 1:
            raise InvalidInputError("cell dimension does not match ambient size")
        self.n = n
        self.poly = poly

    @classmethod
    def from_torus(
        cls,
        n: int,
        vertices: Iterable[TropPoint | Sequence],
        rays: Iterable[Sequence] = (),
        lineality: Iterable[Sequence] = (),
        set_rays: dict | None = None,
    ) -> "Cell":
        """The cell generated by torus points and length-n direction
        representatives.  A braid cone at the origin, every vertex and
        lineality vector constant and the rays a chain (`_ray_chain`), is
        read off the representatives as given and built from its chain;
        every other cell is reduced in quotient coordinates.  `set_rays`,
        shared by a caller reading many cells, maps each length-n ray to
        its set and each set to its quotient ray, so each distinct one is
        read or built once.
        """
        verts = [v.coords if isinstance(v, TropPoint) else v for v in vertices]
        rays, lineality = list(map(tuple, rays)), list(lineality)
        if any(len(x) != n for x in verts + rays + lineality):
            raise InvalidInputError("ambient size mismatch")
        if verts and all(x.count(x[0]) == n for x in verts + lineality):
            chain = _ray_chain(rays, {} if set_rays is None else set_rays)
            if chain is not None:
                return cls.from_braid(n, (0,) * (n - 1), chain, set_rays)
        qrays = [r for r in map(direction_to_quotient, rays) if not vec_is_zero(r)]
        qlin = [l for l in map(direction_to_quotient, lineality) if not vec_is_zero(l)]
        qverts = [to_quotient(TropPoint(v)) for v in verts]
        return cls(n, Polyhedron(n - 1, qverts, qrays, qlin))

    @classmethod
    def from_braid(
        cls, n: int, apex: Vec, chain: tuple[GroundSet, ...], set_rays: dict | None = None
    ) -> "Cell":
        """The braid cone apex + cone(-e_F over an ascending chain of proper
        nonempty sets), for a canonical apex in quotient coordinates.

        The cell keeps its apex and chain, and `braid`, `chain` and, with
        `chain_rays` given `set_rays`, `generators` are read off them; it has
        no polyhedron until `poly` is read.  So nothing is derived from
        generators, and a fan read and written by its chains builds none.
        """
        cell = cls.__new__(cls)
        cell.n, cell._built_from = n, (apex, chain, set_rays)
        vars(cell).update(braid=(apex, chain), chain=None if any(apex) else chain)
        return cell

    @cached_property
    def poly(self) -> Polyhedron:
        """The cell's polyhedron, given to `Cell`, or built on first read
        from the apex and chain a `from_braid` cell keeps."""
        apex, chain, set_rays = self._built_from
        if any(apex):
            return Polyhedron._canonical(self.n - 1, (apex,), chain_rays(self.n, chain, set_rays))
        return chain_cone(self.n, chain, set_rays)

    @property
    def generators(self) -> tuple[tuple[Vec, ...], tuple[IntVec, ...], tuple[IntVec, ...]]:
        """`poly`'s vertices, rays and lineality, or a `from_braid` cell's apex and rays."""
        if self._built_from is None:
            return self.poly.vertices, self.poly.rays, self.poly.lineality
        apex, chain, set_rays = self._built_from
        return (apex,), chain_rays(self.n, chain, set_rays), ()

    @cached_property
    def key(self) -> tuple:
        """`(n - 1, *generators)`, which is `poly.canonical_key`."""
        return (self.n - 1, *self.generators)

    @cached_property
    def braid(self) -> tuple[Vec, tuple[GroundSet, ...]] | None:
        """The apex and ascending chain of subsets of the translated braid
        cone this cell is, or None; set by `from_braid`, and otherwise read
        off the generators.

        The cell is apex + cone(-e_F over a chain) exactly when it has one
        vertex, no lineality and rays that make a chain (`_ray_chain`).
        """
        if len(self.poly.vertices) != 1 or self.poly.lineality:
            return None
        chain = _ray_chain(map(lift_direction, self.poly.rays), {})
        return None if chain is None else (self.poly.vertices[0], chain)

    @cached_property
    def chain(self) -> tuple[GroundSet, ...] | None:
        """The chain of subsets whose cone this cell is, or None: the chain
        of `braid` when the apex is the origin."""
        braid = self.braid
        return braid[1] if braid is not None and vec_is_zero(braid[0]) else None

    @cached_property
    def differences(self) -> list[tuple[int, int, int, int]] | None:
        """The cell as primitive rows (i, j, q, c), q > 0, of
        q*(x_i - x_j) + c <= 0 at 0-based torus positions, or None when it
        is not alcoved.  A braid cone's are `_braid_differences`.  Any other
        cell reads (L, T) off `extents`: its blocks are the classes of i ~ j
        where T_ij + T_ji = 0, on which x_i - x_j is T_ij/L, and it is
        alcoved exactly when its dimension is the number of blocks less one
        and every facet row, each x_i written x_r + T_ir/L for the least
        member r of its block, is q*(x_a - x_b) + c between two blocks.  Its
        rows are then each member against its block's least, both signs,
        and those facets.

        They cut the cell out: the block equations hold on it and cut out a
        flat of its dimension, its affine hull, on which each facet row is
        its rewritten form.  Conversely, a cell cut out by difference rows
        has as affine hull the flat of the rows tight on all of it, which
        join members of one block, and each facet is where one row between
        two blocks is tight, so modulo that hull the facet row is a positive
        multiple of that row.
        """
        if self.braid is not None:
            return _braid_differences(self.n, *self.braid)
        n, (scale, top) = self.n, self.poly.extents
        rep = [
            next(r for r, t in enumerate(top[i]) if t is not None and top[r][i] == -t)
            for i in range(n)
        ]
        if self.poly.dim != sum(r == i for i, r in enumerate(rep)) - 1:
            return None
        rows = []
        for i, r in enumerate(rep):
            if r != i:
                g = gcd(scale, top[i][r])
                rows += [(i, r, scale // g, -top[i][r] // g), (r, i, scale // g, top[i][r] // g)]
        for row in self.poly._rows[1]:
            coef, c = [0] * n, row[-1] * scale
            for i, a in enumerate((-sum(row[:-1]), *row[:-1])):
                coef[rep[i]] += a
                c += a * top[i][rep[i]]
            nz = [i for i, a in enumerate(coef) if a]
            if len(nz) != 2:
                return None
            i, j = nz if coef[nz[0]] > 0 else nz[::-1]
            g = gcd(coef[i] * scale, c)
            rows.append((i, j, coef[i] * scale // g, c // g))
        return rows

    @property
    def dim(self) -> int:
        # the rays of a braid cone are linearly independent
        braid = self.braid
        return self.poly.dim if braid is None else len(braid[1])

    @property
    def vertices(self) -> list[TropPoint]:
        return [from_quotient(self.n, v) for v in self.generators[0]]

    @property
    def rays(self) -> list[tuple]:
        return [lift_direction(r) for r in self.generators[1]]

    @property
    def lineality(self) -> list[tuple]:
        return [lift_direction(l) for l in self.generators[2]]

    def __eq__(self, other) -> bool:
        return isinstance(other, Cell) and self.n == other.n and self.key == other.key

    def __hash__(self) -> int:
        return hash((self.n, self.key))

    def __repr__(self) -> str:
        return f"Cell(n={self.n}, dim={self.dim}, vertices={self.vertices}, rays={self.rays})"


@dataclass(frozen=True)
class BalanceCheck:
    ok: bool
    witness: Cell | None = None


@dataclass(frozen=True)
class SegmentCheck:
    covered: bool
    gap_param: Rational | None = None
    gap_point: TropPoint | None = None


class WeightedComplex:
    """A polyhedral complex with positive integer weights on maximal cells."""

    def __init__(
        self,
        n: int,
        cells: Sequence[Cell],
        weights: Sequence[int],
        validate: bool = True,
    ):
        if len(cells) != len(weights):
            raise InvalidInputError("one weight per maximal cell required")
        if not cells:
            raise InvalidInputError("empty complex")
        for c in cells:
            if c.n != n:
                raise InvalidInputError("ambient size mismatch")
        for w in weights:
            if not isinstance(w, int) or w <= 0:
                raise InvalidInputError("weights must be positive integers")
        # cells that all carry their chains, as `from_braid` gives them, are
        # equal exactly when their chains are; any others by their keys
        keys = [vars(c).get("chain") for c in cells]
        if None in keys:
            keys = [c.poly.canonical_key for c in cells]
        if len(set(keys)) != len(keys):
            raise InvalidInputError("duplicate maximal cells")
        self.n = n
        self.cells = tuple(cells)
        self.weights = tuple(weights)
        if validate:
            self._validate_common_faces()

    def _validate_common_faces(self) -> None:
        """Braid cones are compared by their chains: one contains another
        exactly when its chain does, and two meet in the cone of their common
        sub-chain.  Only pairs with another cell are compared geometrically,
        and of those only the pairs whose extents do not show them disjoint
        (`_apart`): disjoint cells neither contain one another nor meet."""
        braid = [c for c in self.cells if c.chain is not None]
        others = [c for c in self.cells if c.chain is None]
        chains = {c.chain for c in braid}
        mixed = [
            (a, b)
            for a, b in [*combinations(others, 2), *product(braid, others)]
            if not _apart(a.poly, b.poly)
        ]
        if _contained_chains(chains) or any(
            a.poly.contains_polyhedron(b.poly) or b.poly.contains_polyhedron(a.poly)
            for a, b in mixed
        ):
            raise InvalidInputError("maximal cells must not contain one another")
        if not all(_meet_in_common_face(a.poly, b.poly) for a, b in mixed):
            raise InvalidInputError("cells do not intersect in a common face")

    @cached_property
    def dim(self) -> int:
        return max(c.dim for c in self.cells)

    @cached_property
    def is_pure(self) -> bool:
        return all(c.dim == self.dim for c in self.cells)

    @property
    def is_fan(self) -> bool:
        # a braid cone at the origin is a cone, read with no polyhedron
        return all(c.chain is not None or c.poly.is_cone for c in self.cells)

    @cached_property
    def chain_tagged(self) -> bool:
        """Is every cell a braid cone at the origin?  Such a fan is read from
        its chains by `recognize_fan`."""
        return all(c.chain is not None for c in self.cells)

    def all_cells(self) -> list[Cell]:
        """Face closure of the maximal cells."""
        seen: dict = {}
        for c in self.cells:
            for f in c.poly.all_faces():
                seen.setdefault(f.canonical_key, Cell(self.n, f))
        return sorted(seen.values(), key=lambda c: (c.dim, c.poly.canonical_key))

    def support_contains(self, x: TropPoint) -> bool:
        if x.n != self.n:
            raise InvalidInputError("ambient size mismatch")
        point = _lift(x.coords + (1,))
        return any(_cell_contains(c, point) for c in self.cells)

    @cached_property
    def _row_table(self) -> RowTable:
        """The distinct constraint rows of the cells up to sign.  An alcoved
        cell's rows are its difference form (`Cell.differences`), each
        distinct (i, j, q, c) made a row once, so cells that share a bound,
        such as braid cones at one apex, share its row; any other cell has
        its polyhedron's rows, kept dense."""
        diffs: dict[tuple[int, int, int, int], int] = {}
        dense: dict[IntVec, int] = {}
        cell_rows = []
        for cell in self.cells:
            form = cell.differences
            if form is not None:
                cell_rows.append([_add_difference(diffs, *r) for r in form])
                continue
            rows = []
            for r in cell.poly._constraints:
                # marked by ~, and placed after the differences below
                s = 1 if next(x for x in r if x) > 0 else -1
                rows.append((~dense.setdefault(r if s > 0 else _neg(r), len(dense)), s))
            cell_rows.append(rows)
        offset = len(diffs)
        pairs = [[(k if k >= 0 else offset + ~k, s) for k, s in rows] for rows in cell_rows]
        return RowTable(list(diffs), list(dense), pairs)

    def __repr__(self) -> str:
        return f"WeightedComplex(n={self.n}, dim={self.dim}, cells={len(self.cells)})"


def _contained_chains(chains: set) -> set:
    """The members of a set of chains that are proper sub-chains of another.

    Distinct chains of one length are not sub-chains of one another, so
    none is when all have one length.  Otherwise each chain is compared
    with the shorter members.
    """
    if len({len(c) for c in chains}) < 2:
        return set()
    out = set()
    for chain in chains:
        above = set(chain)
        out.update(c for c in chains if len(c) < len(chain) and above.issuperset(c))
    return out


def _meet_in_common_face(a: Polyhedron, b: Polyhedron) -> bool:
    """Is the intersection of two polyhedra empty or a face of both?"""
    meet = a.intersection(b)
    if meet is None:
        return True
    # the smallest face of each containing the meet must lie in the other
    return b.contains_polyhedron(a._face(a._tight(meet._gens))) and a.contains_polyhedron(
        b._face(b._tight(meet._gens))
    )


def point_in_support(complex_: WeightedComplex, x: TropPoint) -> Cell | None:
    """The minimal cell of the complex containing x, or None."""
    if x.n != complex_.n:
        raise InvalidInputError("ambient size mismatch")
    q, point = to_quotient(x), _lift(x.coords + (1,))
    faces = [c.poly.minimal_face_containing(q) for c in complex_.cells if _cell_contains(c, point)]
    best = min(faces, key=lambda face: face.dim, default=None)
    return None if best is None else Cell(complex_.n, best)


def primitive_normal(sigma: Cell, tau: Cell) -> tuple:
    """Primitive generator of the lattice quotient of a cell by a facet.

    Returned as an integer vector of length n (a representative of the
    quotient direction), signed so it points from the facet into the cell.
    The facet's row comes from `faces_of_facets`, as in `is_balanced`.
    """
    if sigma.n != tau.n:
        raise InvalidInputError("ambient size mismatch")
    sp, key = sigma.poly, tau.poly.canonical_key
    row = next((r for face, r in sp.faces_of_facets() if face.canonical_key == key), None)
    if row is None:
        raise InvalidInputError("second argument is not a facet of the first")
    return lift_direction(lattice_quotient_generator(sp.lattice_basis, row[:-1]))


def is_balanced(complex_: WeightedComplex) -> BalanceCheck:
    """Check the balancing equation at every codimension-one face.

    At each such face the weighted sum of primitive normal vectors of the
    adjacent maximal cells must lie in the linear span of the face.  A
    braid cone v + cone(-e_F over a chain), at the origin or translated, is
    unimodular and simplicial, so dropping a member F of its chain leaves
    the facet v + cone(G) on the sub-chain G, with primitive inward normal
    -e_F.  Facets are grouped by apex and sub-chain, each with the dropped
    sets F and their weights w, and a facet of any other cell that is a
    braid cone (every vertex is, with the empty chain) joins its group with
    its lifted primitive normal.  Modulo the all-ones line the span of
    v + cone(G) is the vectors constant on each block of the ordered
    partition that G cuts out, so the group is balanced exactly when the
    sum of -w*1_F and the lifted normals is constant on each block of G.

    The witness is the failing face with the least canonical key, which is
    computed for failing faces only.
    """
    if not complex_.is_pure:
        raise InvalidInputError("balancing is defined for pure complexes")
    n = complex_.n
    ground = frozenset(range(1, n + 1))
    # (apex, sub-chain) -> ((F, weight) per dropped F, (weight, normal) pairs)
    braid_facets: dict = {}
    # canonical key of a face that is no braid cone -> [its cell, (weight, normal) pairs]
    other_facets: dict = {}
    for cell, weight in zip(complex_.cells, complex_.weights):
        if cell.braid is not None:
            apex, chain = cell.braid
            for i, f in enumerate(chain):
                key = (apex, chain[:i] + chain[i + 1 :])
                entry = braid_facets.get(key)
                if entry is None:
                    entry = braid_facets[key] = ([], [])
                entry[0].append((f, weight))
            continue
        poly = cell.poly
        for face, row in poly.faces_of_facets():
            u = (weight, lattice_quotient_generator(poly.lattice_basis, row[:-1]))
            facet = Cell(n, face)
            if facet.braid is not None:
                braid_facets.setdefault(facet.braid, ([], []))[1].append(u)
            else:
                other_facets.setdefault(face.canonical_key, [facet, []])[1].append(u)
    failing = [
        Cell.from_braid(n, apex, sub)
        for (apex, sub), (dropped, normals) in braid_facets.items()
        if not _constant_on_blocks(ground, sub, dropped, normals)
    ]
    for facet, normals in other_facets.values():
        total = [0] * (n - 1)
        for weight, u in normals:
            for i, x in enumerate(u):
                total[i] += weight * x
        # a direction is 0 in the homogenising coordinate, first in `_span`
        if not vec_is_zero(total) and not in_span(facet.poly._span, (0, *total)):
            failing.append(facet)
    if not failing:
        return BalanceCheck(True)
    return BalanceCheck(False, min(failing, key=lambda c: c.poly.canonical_key))


def _constant_on_blocks(ground: GroundSet, sub: tuple[GroundSet, ...], dropped, normals) -> bool:
    """Is the sum of -w*1_F over the dropped (F, w) and of w*(0, u) over
    the (w, u) normals constant on each block of the chain sub?"""
    total = [0] * (len(ground) + 1)  # at torus positions 1..n
    for f, w in dropped:
        for i in f:
            total[i] -= w
    for w, u in normals:
        for i, x in enumerate(u, 2):
            total[i] += w * x
    blocks = zip((frozenset(),) + sub, sub + (ground,))
    return all(len({total[i] for i in hi - lo}) == 1 for lo, hi in blocks)


def recession_fan(complex_: WeightedComplex, budget: int = DEFAULT_BUDGET) -> WeightedComplex:
    """The fan of recession cones, with aggregated weights on maximal cones."""
    if complex_.is_fan:
        return complex_
    n = complex_.n
    origin, set_rays = (0,) * (n - 1), {}
    # a braid cone's recession cone is its chain's cone at the origin
    rec_cells = [
        Cell(n, c.poly.recession())
        if c.braid is None
        else Cell.from_braid(n, origin, c.braid[1], set_rays)
        for c in complex_.cells
    ]
    if all(c.chain is not None for c in rec_cells):
        # braid cones meet in the cone of their common sub-chain, so the fan
        # needs no repair; a cone goes when its chain lies in another
        contained = _contained_chains({c.chain for c in rec_cells})
        kept = zip(rec_cells, complex_.weights)
        return _merged_fan(n, [(c, w) for c, w in kept if c.chain not in contained])
    rec_of_cell = [c.poly for c in rec_cells]
    cones = _drop_contained(_dedup(rec_of_cell))
    # a repaired cone takes the weight of every recession cone of its
    # dimension that contains it
    weighted = [
        (Cell(n, poly), w)
        for poly in _repair_fan(cones, budget)
        for rec_poly, w in zip(rec_of_cell, complex_.weights)
        if rec_poly.dim == poly.dim and rec_poly.contains_polyhedron(poly)
    ]
    return _merged_fan(n, weighted)


def _merged_fan(n: int, weighted: list[tuple[Cell, int]]) -> WeightedComplex:
    """The cells in canonical order, each once, with the weights of its
    copies summed."""
    totals: dict = {}
    for cell, weight in weighted:
        key = cell.key
        totals[key] = (cell, totals[key][1] + weight if key in totals else weight)
    kept = [totals[key] for key in sorted(totals)]
    return WeightedComplex(n, [c for c, _ in kept], [w for _, w in kept], validate=False)


def _drop_contained(cones: list[Polyhedron]) -> list[Polyhedron]:
    """The cones that no other cone contains.  Every cone holds the origin,
    so no two are `_apart`, and no extent prefilter is tried."""
    kept = []
    for p in cones:
        if not any(
            q is not p and q.contains_polyhedron(p) for q in cones
        ):
            kept.append(p)
    return kept


def _repair_fan(cones: list[Polyhedron], budget: int) -> list[Polyhedron]:
    """Split cones pairwise until every intersection is a common face."""
    work = list(cones)
    steps = 0
    while True:
        violation = next(
            ((a, b) for a, b in combinations(work, 2) if not _meet_in_common_face(a, b)),
            None,
        )
        if violation is None:
            return _drop_contained(_dedup(work))
        a, b = violation
        steps += 1
        if steps > budget:
            raise ResourceLimitError("fan repair exceeded its budget")
        cut = next(
            (
                (first, row)
                for first, second in ((a, b), (b, a))
                for row in second._constraints
                if first._halfspace_status(row) == 0
            ),
            None,
        )
        if cut is None:
            # mutually uncut overlap means equality, which is not a violation
            raise InvalidInputError("irreparable cone overlap")
        first, row = cut
        work.remove(first)
        work.extend(p for p in (first._cut(row), first._cut(_neg(row))) if p is not None)


def _dedup(cones: list[Polyhedron]) -> list[Polyhedron]:
    seen: dict = {}
    for p in cones:
        seen.setdefault(p.canonical_key, p)
    return [seen[k] for k in sorted(seen)]


def star_fan(complex_: WeightedComplex, p: TropPoint) -> WeightedComplex:
    """The fan of directions into the complex at a point of its support."""
    if p.n != complex_.n:
        raise InvalidInputError("ambient size mismatch")
    n, q = complex_.n, to_quotient(p)
    point = None  # p lifted to integers, once it is needed
    cones, set_rays = [], {}
    for cell, weight in zip(complex_.cells, complex_.weights):
        braid = cell.braid
        if braid is not None and braid[0] == q:
            # at its apex a braid cone's star is its chain's cone
            cones.append((Cell.from_braid(n, (0,) * (n - 1), braid[1], set_rays), weight))
            continue
        point = point or _lift(p.coords + (1,))
        if not _cell_contains(cell, point):
            continue
        # the cone of directions from q into the cell
        poly = cell.poly
        rays = list(poly.rays)
        for v in poly.vertices:
            d = vec_sub(v, q)
            if not vec_is_zero(d):
                rays.append(primitive_direction(d))
        lifted = [lift_direction(r) for r in rays]
        lineality = [lift_direction(l) for l in poly.lineality]
        cones.append((Cell.from_torus(n, [(0,) * n], lifted, lineality, set_rays), weight))
    if not cones:
        raise InvalidInputError("point outside the support")
    return _merged_fan(n, cones)


def _cell_contains(cell: Cell, p: IntVec) -> bool:
    """Does the cell contain the torus point p[:-1] / p[-1], an integer
    vector p with p[0] = 0 and p[-1] > 0?  Its difference form is read at
    p, or, for a cell that is not alcoved, its polyhedron's rows at the
    homogenised quotient point p[1:]."""
    form = cell.differences
    if form is None:
        return cell.poly._holds(p[1:])
    return all(q * (p[i] - p[j]) + c * p[-1] <= 0 for i, j, q, c in form)


def chain_fan(family: ChainFamily) -> WeightedComplex:
    """The fan of cones over chains in a subset family containing the ground set.

    Each maximal chain of proper nonempty members spans a unimodular cone on
    the negated indicator vectors of its members, each member's built once.
    """
    origin, rays = (0,) * (family.n - 1), {}
    cells = [Cell.from_braid(family.n, origin, c, rays) for c in family.maximal_chains()]
    return WeightedComplex(family.n, cells, [1] * len(cells), validate=False)


def chn_cell_of(x: TropPoint) -> tuple[GroundSet, ...]:
    """The chain of subsets whose cone minimally contains x.

    The level sets of x in ascending order of its coordinate values are the
    nested sets F_1 through F_{s-1} and then the full ground set; the cone of
    the chain has dimension het(x) - 1.
    """
    w = x.coords
    return tuple(frozenset(i for i, c in enumerate(w, 1) if c <= v) for v in sorted(set(w)))


class RowTable:
    """Distinct constraint rows of a complex's cells up to sign, as
    functionals r(x, t) whose cell is {x : r(x, 1) <= 0}, and each cell's
    rows.

    An alcoved cell's rows are differences (i, j, q, c) in `diffs`, with
    torus positions i < j (0-based) and q > 0, for q*(x_i - x_j) + c*t; any
    other cell's are integer rows in quotient coordinates in `dense`, first
    nonzero entry positive, indexed after the differences.  Each cell's rows
    are (index, sign) pairs, sign times the distinct row, and its `keys` the
    same pairs as ints, index for sign 1 and ~index for -1.
    """

    def __init__(self, diffs: list, dense: list[IntVec], pairs: list[list[tuple[int, int]]]):
        self.diffs = diffs
        self.dense = dense
        self.pairs = pairs
        self.keys = [frozenset(k if s > 0 else ~k for k, s in p) for p in pairs]

    def values(self, b: Sequence[int], d: int) -> list[int]:
        """Every distinct row at the homogenised point (b, d) for a torus
        vector b, indexed as the rows."""
        vals = [q * (b[i] - b[j]) + c * d for i, j, q, c in self.diffs]
        if self.dense:
            h = [x - b[0] for x in b[1:]] + [d]
            vals += [vec_dot(r, h) for r in self.dense]
        return vals

    @staticmethod
    def positive(vals: Sequence[int]) -> set[int]:
        """The keys of the rows positive at a point, from their values."""
        return {k if v > 0 else ~k for k, v in enumerate(vals) if v}


def _braid_differences(n: int, apex: Vec, chain: tuple[GroundSet, ...]) -> list:
    """The rows of apex + cone(-e_F over F_1 < ... < F_k) as primitive
    (i, j, q, c) for q*(x_i - x_j) + c <= 0, torus positions i and j
    0-based: x_i - x_j <= a_i - a_j times the denominator of the right side.

    With a = (0, apex) and the blocks F_1, F_2 - F_1, ..., E - F_k, its
    points are the x with x - a constant on each block and nondecreasing
    from block to block: so the rows are those of the least elements of
    consecutive blocks, then, for the least element i of a block and each
    other member j, x_i - x_j = a_i - a_j as two rows.  They are computed
    on D*a, integral over the common denominator D.
    """
    *a, big_d = _lift((0, *apex, 1))
    ground = frozenset(range(1, n + 1))
    blocks = [sorted(f - e) for e, f in zip((frozenset(),) + chain, chain + (ground,))]
    pairs = [(s[0] - 1, t[0] - 1) for s, t in zip(blocks, blocks[1:])]
    pairs += [p for b in blocks for j in b[1:] for p in ((b[0] - 1, j - 1), (j - 1, b[0] - 1))]
    rows = []
    for i, j in pairs:
        g = gcd(big_d, a[i] - a[j])
        rows.append((i, j, big_d // g, (a[j] - a[i]) // g))
    return rows


def _add_difference(index: dict, i: int, j: int, q: int, c: int) -> tuple[int, int]:
    """The (index, sign) pair of q*(x_i - x_j) + c*t, entering its distinct
    row (i < j, q > 0) into the index."""
    if i > j:
        i, j, q = j, i, -q
    if q < 0:
        return index.setdefault((i, j, -q, -c), len(index)), -1
    return index.setdefault((i, j, q, c), len(index)), 1


def segment_in_support(
    complex_: WeightedComplex, x: TropPoint, y: TropPoint
) -> SegmentCheck:
    """Is the tropical segment between two points inside the support?

    The integer breakpoints b over one common denominator d come from
    `points._breakpoints`, as for `points.segment`, and `_uncovered_piece`
    tests them against the complex's `RowTable`.  On failure a rational
    parameter in the first uncovered gap (measured along the whole segment,
    scaled to [0, 1]) is returned with its point.
    """
    if x.n != complex_.n or y.n != complex_.n:
        raise InvalidInputError("ambient size mismatch")
    d, ends = _breakpoints(x, y)
    found = _uncovered_piece(complex_._row_table, d, ends)
    if found is None:
        return SegmentCheck(True)
    if len(ends) == 1:
        return SegmentCheck(False, 0, x)
    j, gap = found
    witness = TropPoint(Fraction(s + gap * (e - s), d) for s, e in zip(ends[j], ends[j + 1]))
    return SegmentCheck(False, _frac(Fraction(j + gap, len(ends) - 1)), witness)


def _uncovered_piece(table: RowTable, d: int, ends: list[list[int]]) -> tuple[int, Rational] | None:
    """The first piece j of a tropical segment with a point outside the
    cells, and the parameter in [0, 1] of the first such point on it, or
    None; the breakpoints are the integer torus vectors of `ends` over d.

    Each distinct row is evaluated once at every homogenised breakpoint, and
    the keys of the rows positive there are collected.  A piece is the
    convex hull of two breakpoints, so a cell meets the segment only when
    none of its keys is positive at every breakpoint, and it contains the
    piece when none is positive at either end.  Only on a piece that no
    meeting cell contains are the cells' closed parameter subintervals read
    off the row values at its ends and their union swept in integers.  A
    single breakpoint is covered when some cell meets it.
    """
    values = [table.values(b, d) for b in ends]
    positive = [table.positive(v) for v in values]
    everywhere = set.intersection(*positive)
    meeting = [c for c, keys in enumerate(table.keys) if keys.isdisjoint(everywhere)]
    if len(ends) == 1:
        return None if meeting else (0, 0)
    for j in range(len(ends) - 1):
        outside = positive[j] | positive[j + 1]
        if any(table.keys[c].isdisjoint(outside) for c in meeting):
            continue
        intervals = []
        for c in meeting:
            iv = _cell_interval(table.pairs[c], values[j], values[j + 1])
            if iv is not None:
                intervals.append(iv)
        gap = _first_gap(intervals)
        if gap is not None:
            return j, gap
    return None


def _cell_interval(pairs, start: Sequence[int], end: Sequence[int]):
    """Parameters t in [0, 1] on a segment piece with every row of a cell
    <= 0 at (1 - t)*p + t*q, as (lo_n, lo_d, hi_n, hi_d) with positive
    denominators, or None.  Row (i, s) is s times the distinct row i, whose
    values at the homogenised ends p and q are start[i] and end[i]."""
    lo_n, lo_d, hi_n, hi_d = 0, 1, 1, 1
    for i, s in pairs:
        # the row is <= 0 at t when rp + t*(rq - rp) <= 0
        rp, rq = s * start[i], s * end[i]
        if rp == rq:
            if rp > 0:
                return None
        elif rq > rp:
            # t <= -rp/(rq - rp)
            if -rp * hi_d < hi_n * (rq - rp):
                hi_n, hi_d = -rp, rq - rp
        elif rp * lo_d > lo_n * (rp - rq):
            # t >= rp/(rp - rq)
            lo_n, lo_d = rp, rp - rq
    if lo_n * hi_d > hi_n * lo_d:
        return None
    return lo_n, lo_d, hi_n, hi_d


def _first_gap(intervals) -> Rational | None:
    """The first gap of the closed intervals (lo_n, lo_d, hi_n, hi_d) in
    [0, 1], or None if they cover it.

    With [0, reach] covered, the interval starting at or before reach that
    ends furthest beyond it extends it; reach starts at -1, when only 0 may
    start one.  When none does, the gap is 0 if reach is still -1, else the
    midpoint of reach and the next start, or of reach and 1.
    """
    reach_n, reach_d = -1, 1
    while reach_n < reach_d:
        bound = max(reach_n, 0)
        best = None
        for lo_n, lo_d, hi_n, hi_d in intervals:
            if lo_n * reach_d <= bound * lo_d and hi_n * reach_d > reach_n * hi_d:
                if best is None or hi_n * best[1] > best[0] * hi_d:
                    best = hi_n, hi_d
        if best is None:
            if reach_n < 0:
                return 0
            next_n, next_d = 1, 1
            for lo_n, lo_d, _, _ in intervals:
                if lo_n * reach_d > reach_n * lo_d and lo_n * next_d < next_n * lo_d:
                    next_n, next_d = lo_n, lo_d
            return Fraction(reach_n * next_d + next_n * reach_d, 2 * reach_d * next_d)
        reach_n, reach_d = best
    return None
