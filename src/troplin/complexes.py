"""Weighted rational polyhedral complexes in the tropical projective torus.

Geometry lives in quotient coordinates: a torus point with canonical
representative (0, y_2, ..., y_n) maps to (y_2, ..., y_n) in R^(n-1), an
isomorphism that also identifies the quotient lattice with Z^(n-1).  Cells
wrap exact polyhedra in these coordinates; complexes carry positive integer
weights on their maximal cells.

The operations here are the tropical-variety toolkit: primitive normal
vectors and the balancing test, recession and star fans, fans of chains of
subsets, and exact coverage tests for tropical segments.  A cell that is a
braid cone apex + cone(-e_F over a chain) is recognised from its
generators (`Cell.braid`), and balancing, dimension and star containment
read the chain instead of an H-representation.  Segment coverage reads one
table per complex of the cells' distinct constraint rows, each evaluated
once at every integer breakpoint of the segment; a braid cone's rows come
from its chain, as coordinate differences x_i - x_j bounded by the apex's,
so no double description runs for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from typing import Iterable, Sequence

from .errors import InvalidInputError, ResourceLimitError
from .linalg import (
    in_span,
    lattice_quotient_generator,
    primitive_direction,
    vec_dot,
    vec_is_zero,
    vec_sub,
)
from .matroids import ChainFamily, GroundSet
from .points import Rational, TropPoint, _breakpoints, _frac
from .polyhedra import DEFAULT_BUDGET, IntVec, Polyhedron, Vec, _neg, _row


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


def chain_cone(n: int, chain: Iterable[Iterable[int]]) -> Polyhedron:
    """The cone on the negated indicator vectors of a chain's members.

    In quotient coordinates -e_F is the integer vector with entry
    [1 in F] - [i in F] at position i = 2..n.
    """
    rays = [tuple(int(1 in f) - int(i in f) for i in range(2, n + 1)) for f in map(set, chain)]
    return Polyhedron._minimal(n - 1, [(0,) * (n - 1)], rays)


def ray_set(r: Sequence[int]) -> GroundSet | None:
    """The F with -e_F spanning the primitive quotient ray r, or None: lifted
    to (0,) + r, it is -e_F up to the all-ones line when it takes two values
    that differ by 1, and F is where it takes the lower one."""
    lifted = lift_direction(r)
    low = min(lifted)
    if set(lifted) != {low, low + 1}:
        return None
    return frozenset(i for i, x in enumerate(lifted, 1) if x == low)


def _cell_of(n: int, vertices, rays=(), lineality=()) -> Cell:
    """The cell generated in quotient coordinates.

    A braid cone is kept as given: a zero vertex with rays -e_F over nested
    sets F has linearly independent rays, so no generator is redundant.
    Every other cell is reduced to its minimal generators.
    """
    if not lineality and all(vec_is_zero(v) for v in vertices):
        cell = Cell(n, Polyhedron._minimal(n - 1, vertices, rays))
        if cell.chain is not None:
            return cell
    return Cell(n, Polyhedron(n - 1, vertices, rays, lineality))


class Cell:
    """A rational polyhedron in the torus."""

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
    ) -> "Cell":
        verts = []
        for v in vertices:
            pt = v if isinstance(v, TropPoint) else TropPoint(v)
            if pt.n != n:
                raise InvalidInputError("ambient size mismatch")
            verts.append(to_quotient(pt))
        qrays = [direction_to_quotient(r) for r in rays]
        qrays = [r for r in qrays if not vec_is_zero(r)]
        qlin = [direction_to_quotient(l) for l in lineality]
        qlin = [l for l in qlin if not vec_is_zero(l)]
        return _cell_of(n, verts, qrays, qlin)

    @cached_property
    def braid(self) -> tuple[Vec, tuple[GroundSet, ...]] | None:
        """The apex and chain of subsets of the translated braid cone this
        cell is, or None.

        The cell is apex + cone(-e_F over a chain) exactly when it has one
        vertex, no lineality and rays -e_F (`ray_set`) for nested sets F.
        """
        if len(self.poly.vertices) != 1 or self.poly.lineality:
            return None
        sets = [ray_set(r) for r in self.poly.rays]
        if None in sets:
            return None
        chain = tuple(sorted(sets, key=len))
        if any(not a < b for a, b in zip(chain, chain[1:])):
            return None
        return self.poly.vertices[0], chain

    @cached_property
    def chain(self) -> tuple[GroundSet, ...] | None:
        """The chain of subsets whose cone this cell is, or None: the chain
        of `braid` when the apex is the origin."""
        braid = self.braid
        return braid[1] if braid is not None and vec_is_zero(braid[0]) else None

    @cached_property
    def _constraints(self) -> list[IntVec]:
        """Rows r with the cell {x : r.(x, 1) <= 0 for all r}.

        A braid cone apex + cone(-e_F over F_1 < ... < F_k) is read from its
        chain: with A = (0, apex) and the blocks F_1, F_2 - F_1, ...,
        E - F_k, its points are the x with x - A constant on each block and
        nondecreasing from block to block.  So x_i - x_j <= A_i - A_j for
        the least elements i and j of consecutive blocks, then x_i - x_j =
        A_i - A_j, as a row and its negation, for the least element i of a
        block and each other member j.  Every other cell has the rows of
        its polyhedron.
        """
        braid = self.braid
        if braid is None:
            return self.poly._constraints
        apex, chain = braid
        a = (0, *apex)
        ground = frozenset(range(1, self.n + 1))
        blocks = [sorted(f - e) for e, f in zip((frozenset(),) + chain, chain + (ground,))]

        def row(i: int, j: int) -> IntVec:
            return _row(coordinate_difference(self.n, i, j), a[i - 1] - a[j - 1])

        ineqs = [row(s[0], t[0]) for s, t in zip(blocks, blocks[1:])]
        return ineqs + [
            r for b in blocks for j in b[1:] for r in (row(b[0], j), row(j, b[0]))
        ]

    @property
    def dim(self) -> int:
        # the rays of a braid cone are linearly independent
        braid = self.braid
        return self.poly.dim if braid is None else len(braid[1])

    @property
    def vertices(self) -> list[TropPoint]:
        return [from_quotient(self.n, v) for v in self.poly.vertices]

    @property
    def rays(self) -> list[tuple]:
        return [lift_direction(r) for r in self.poly.rays]

    @property
    def lineality(self) -> list[tuple]:
        return [lift_direction(l) for l in self.poly.lineality]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cell)
            and self.n == other.n
            and self.poly.canonical_key == other.poly.canonical_key
        )

    def __hash__(self) -> int:
        return hash((self.n, self.poly.canonical_key))

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
        sub-chain.  Only pairs with another cell are compared geometrically."""
        braid = [c for c in self.cells if c.chain is not None]
        others = [c for c in self.cells if c.chain is None]
        chains = {c.chain for c in braid}
        mixed = list(combinations(others, 2)) + list(product(braid, others))
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

    @property
    def is_pure(self) -> bool:
        return all(c.dim == self.dim for c in self.cells)

    @property
    def is_fan(self) -> bool:
        return all(c.poly.is_cone for c in self.cells)

    @cached_property
    def chain_tagged(self) -> bool:
        """Is every cell a braid cone at the origin?  Only the benchmark's traced
        mode still reads this."""
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
        q = to_quotient(x)
        return any(_cell_contains(c, q) for c in self.cells)

    @cached_property
    def _row_table(self) -> tuple[list[IntVec], list[list[tuple[int, int]]]]:
        """The distinct `Cell._constraints` rows of the cells up to sign,
        each with its first nonzero entry positive, and for each cell its
        rows as (index, sign) pairs: the row is sign times the distinct row.
        A braid cone's rows come from its chain, so braid cones that share
        an apex share their rows."""
        index: dict[IntVec, int] = {}
        cell_rows = []
        for cell in self.cells:
            pairs = []
            for r in cell._constraints:
                s = 1 if next(x for x in r if x) > 0 else -1
                pairs.append((index.setdefault(r if s > 0 else _neg(r), len(index)), s))
            cell_rows.append(pairs)
        return list(index), cell_rows

    def __repr__(self) -> str:
        return f"WeightedComplex(n={self.n}, dim={self.dim}, cells={len(self.cells)})"


def _contained_chains(chains: set) -> set:
    """The members of a set of chains that are proper sub-chains of another.

    Each chain's sub-chains are looked up in the set, or, when it has more
    sub-chains than the set has members, the members are compared with it.
    """
    out = set()
    for chain in chains:
        if 2 ** len(chain) <= len(chains):
            subs = (s for k in range(len(chain)) for s in combinations(chain, k))
            out.update(s for s in subs if s in chains)
        else:
            out.update(c for c in chains if set(c) < set(chain))
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
    q = to_quotient(x)
    best: Polyhedron | None = None
    for c in complex_.cells:
        if c.poly.contains(q):
            face = c.poly.minimal_face_containing(q)
            if best is None or face.dim < best.dim:
                best = face
    return None if best is None else Cell(complex_.n, best)


def primitive_normal(sigma: Cell, tau: Cell) -> tuple:
    """Primitive generator of the lattice quotient of a cell by a facet.

    Returned as an integer vector of length n (a representative of the
    quotient direction), signed so it points from the facet into the cell.
    """
    if sigma.n != tau.n:
        raise InvalidInputError("ambient size mismatch")
    u = _primitive_normal_quotient(sigma.poly, tau.poly)
    return lift_direction(u)


def _primitive_normal_quotient(sp: Polyhedron, tp: Polyhedron) -> IntVec:
    if sp.dim != tp.dim + 1 or not sp.contains_polyhedron(tp):
        raise InvalidInputError("second argument is not a facet of the first")
    cutting = next(
        (r for r in sp._tight(tp._gens) if sp._face([r]).canonical_key == tp.canonical_key),
        None,
    )
    if cutting is None:
        raise InvalidInputError("second argument is not a facet of the first")
    return lattice_quotient_generator(sp.lattice_basis, cutting[:-1])


def is_balanced(complex_: WeightedComplex) -> BalanceCheck:
    """Check the balancing equation at every codimension-one face.

    At each such face the weighted sum of primitive normal vectors of the
    adjacent maximal cells must lie in the linear span of the face.  A
    braid cone, at the origin or translated to an apex v, is unimodular and
    simplicial, so dropping one of its rays u gives a facet whose primitive
    inward normal is u; that facet's canonical key is (m, (v,), the other
    rays, ()), the key the geometric faces of other cells get, and it is
    built only as a witness.
    """
    if not complex_.is_pure:
        raise InvalidInputError("balancing is defined for pure complexes")
    # canonical face key -> [face or None, (weight, normal) pairs, is a braid cone's face]
    groups: dict = {}
    for cell, weight in zip(complex_.cells, complex_.weights):
        poly = cell.poly
        if cell.braid is not None:
            for u in poly.rays:
                rest = tuple(r for r in poly.rays if r != u)
                entry = groups.setdefault((poly.m, poly.vertices, rest, ()), [None, [], False])
                entry[1].append((weight, u))
                entry[2] = True
            continue
        for face, row in poly.faces_of_facets():
            entry = groups.setdefault(face.canonical_key, [face, [], False])
            entry[0] = entry[0] or face
            entry[1].append((weight, lattice_quotient_generator(poly.lattice_basis, row[:-1])))
    for key in sorted(groups):
        face, contributions, braid = groups[key]
        total = [0] * key[0]
        for weight, u in contributions:
            for i, x in enumerate(u):
                total[i] += weight * x
        if vec_is_zero(total):
            continue
        if braid:
            ok = _in_braid_span(key[2], total)
        else:
            # a direction is 0 in the homogenising coordinate, first in `_span`
            ok = in_span(face._span, (0, *total))
        if not ok:
            face = face or Polyhedron._minimal(key[0], key[1], key[2])
            return BalanceCheck(False, Cell(complex_.n, face))
    return BalanceCheck(True)


def _in_braid_span(rays: Sequence[IntVec], vec: Sequence[int]) -> bool:
    """Is vec in the span of the rays of a braid cone?

    Modulo the all-ones line that span is the vectors constant on each block
    of the ordered partition cut out by the cone's chain, and two positions
    share a block exactly when every ray takes the same value at both.
    """
    lifted = [lift_direction(r) for r in rays]
    value: dict = {}
    for i, x in enumerate(lift_direction(vec)):
        if value.setdefault(tuple(r[i] for r in lifted), x) != x:
            return False
    return True


def recession_fan(complex_: WeightedComplex, budget: int = DEFAULT_BUDGET) -> WeightedComplex:
    """The fan of recession cones, with aggregated weights on maximal cones."""
    if complex_.is_fan:
        return WeightedComplex(
            complex_.n, complex_.cells, complex_.weights, validate=False
        )
    rec_cells = [Cell(complex_.n, c.poly.recession()) for c in complex_.cells]
    if all(c.chain is not None for c in rec_cells):
        # braid cones meet in the cone of their common sub-chain, so the fan
        # needs no repair; a cone goes when its chain lies in another
        contained = _contained_chains({c.chain for c in rec_cells})
        kept = zip(rec_cells, complex_.weights)
        return _merged_fan(complex_.n, [(c, w) for c, w in kept if c.chain not in contained])
    rec_of_cell = [c.poly for c in rec_cells]
    cones = _drop_contained(_dedup(rec_of_cell))
    cones = _repair_fan(cones, budget)
    out_cells = []
    out_weights = []
    for poly in cones:
        weight = 0
        for rec_poly, w in zip(rec_of_cell, complex_.weights):
            if rec_poly.dim == poly.dim and rec_poly.contains_polyhedron(poly):
                weight += w
        if weight > 0:
            out_cells.append(Cell(complex_.n, poly))
            out_weights.append(weight)
    return WeightedComplex(complex_.n, out_cells, out_weights, validate=False)


def _merged_fan(n: int, weighted: list[tuple[Cell, int]]) -> WeightedComplex:
    """The cells in canonical order, each once, with the weights of its
    copies summed."""
    totals: dict = {}
    for cell, weight in weighted:
        key = cell.poly.canonical_key
        totals[key] = (cell, totals[key][1] + weight if key in totals else weight)
    kept = [totals[key] for key in sorted(totals)]
    return WeightedComplex(n, [c for c, _ in kept], [w for _, w in kept], validate=False)


def _drop_contained(cones: list[Polyhedron]) -> list[Polyhedron]:
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
    q = to_quotient(p)
    zero = [(0,) * len(q)]
    cones = []
    for cell, weight in zip(complex_.cells, complex_.weights):
        poly = cell.poly
        if _cell_contains(cell, q):
            # the cone of directions from q into the cell
            rays = list(poly.rays)
            for v in poly.vertices:
                d = vec_sub(v, q)
                if not vec_is_zero(d):
                    rays.append(primitive_direction(d))
            cones.append((_cell_of(complex_.n, zero, rays, poly.lineality), weight))
    if not cones:
        raise InvalidInputError("point outside the support")
    return _merged_fan(complex_.n, cones)


def _level_sets(w: Sequence[Rational]) -> list[GroundSet]:
    """The sets {i : w_i <= v} (1-based) for the values v of w in ascending
    order; the last is the ground set."""
    return [frozenset(i for i, x in enumerate(w, 1) if x <= v) for v in sorted(set(w))]


def _cell_contains(cell: Cell, q: Vec) -> bool:
    """Does the cell contain the quotient point q?  A braid cone apex +
    cone(chain) does when the chain of q - apex lies in its chain: with
    w = (0, q - apex), that is the level sets of w but the ground set."""
    if cell.braid is None:
        return cell.poly.contains(q)
    apex, chain = cell.braid
    return all(f in chain for f in _level_sets((0, *vec_sub(q, apex)))[:-1])


def chain_fan(family: ChainFamily) -> WeightedComplex:
    """The fan of cones over chains in a subset family containing the ground set.

    Each maximal chain of proper nonempty members spans a unimodular cone on
    the negated indicator vectors of its members.
    """
    cells = [Cell(family.n, chain_cone(family.n, chain)) for chain in family.maximal_chains()]
    return WeightedComplex(family.n, cells, [1] * len(cells), validate=False)


def chn_cell_of(x: TropPoint) -> tuple[GroundSet, ...]:
    """The chain of subsets whose cone minimally contains x.

    The level sets of x in ascending order of its coordinate values are the
    nested sets F_1 through F_{s-1} and then the full ground set; the cone of
    the chain has dimension het(x) - 1.
    """
    return tuple(_level_sets(x.coords))


def segment_in_support(
    complex_: WeightedComplex, x: TropPoint, y: TropPoint
) -> SegmentCheck:
    """Is the tropical segment between two points inside the support?

    The integer breakpoints b over one common denominator d come from
    `points._breakpoints`, as for `points.segment`.  Each distinct constraint row
    of the complex (`WeightedComplex._row_table`) is evaluated once at every
    homogenised breakpoint (b, d).  A piece is the convex combination of two
    breakpoints, so a cell with a row positive at every breakpoint misses
    the whole segment; for the other cells the closed parameter subinterval
    of each piece inside the cell is read off the row values at the piece's
    ends, and the union is swept in integers.  On failure a rational
    parameter in the first uncovered gap (measured along the whole segment,
    scaled to [0, 1]) is returned with its point.
    """
    if x.n != complex_.n or y.n != complex_.n:
        raise InvalidInputError("ambient size mismatch")
    d, ends = _breakpoints(x, y)
    if len(ends) == 1:
        if complex_.support_contains(x):
            return SegmentCheck(True)
        return SegmentCheck(False, 0, x)
    ends = [tuple(p - b[0] for p in b[1:]) + (d,) for b in ends]
    rows, cell_rows = complex_._row_table
    values = [[vec_dot(r, b) for r in rows] for b in ends]
    low = list(map(min, zip(*values)))
    high = list(map(max, zip(*values)))
    meeting = [
        pairs
        for pairs in cell_rows
        if not any(low[i] > 0 if s > 0 else high[i] < 0 for i, s in pairs)
    ]
    pieces = len(ends) - 1
    for j in range(pieces):
        intervals = []
        for pairs in meeting:
            iv = _cell_interval(pairs, values[j], values[j + 1])
            if iv is not None:
                intervals.append(iv)
        gap = _first_gap(intervals)
        if gap is None:
            continue
        witness = from_quotient(
            complex_.n,
            tuple(Fraction(s + gap * (e - s), d) for s, e in zip(ends[j][:-1], ends[j + 1][:-1])),
        )
        return SegmentCheck(False, _frac(Fraction(j + gap, pieces)), witness)
    return SegmentCheck(True)


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
