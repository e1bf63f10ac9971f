"""Deciding whether weighted complexes are supported on tropical linear spaces.

A fan is cut once into braid pieces, and one pass reads the closed braid
chamber of each: a braid cone's chain, or the chain of a relative interior
point, which has the piece's largest heterogeneity.  A chamber longer than
the fan's dimension d breaks the heterogeneity bound.  Otherwise the
chambers' members and the ground set are the candidate flat family, and
every fan is accepted by one rule, the lemma in `recognize_fan`: the family
is a flat family of rank d + 1 with as many maximal chains as there are
chambers.  A fan of braid cones at the origin is tested before balancing,
since the rule makes it the whole, balanced, Bergman fan.  Complexes are
decided through their recession fan; the local route recognizes the star
at every vertex.  A seeded segment sampler provides sound (never complete)
convexity rejection.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from .complexes import (
    DEFAULT_BUDGET,
    Cell,
    SegmentCheck,
    WeightedComplex,
    _uncovered_piece,
    chn_cell_of,
    coordinate_difference,
    from_quotient,
    is_balanced,
    ray_set,
    recession_fan,
    segment_in_support,
    star_fan,
)
from .errors import InvalidInputError, ResourceLimitError
from .matroids import (
    ChainFamily,
    GroundSet,
    Matroid,
    _flat_matroid,
    verify_flat_family,
)
from .points import TropPoint, _integer_breakpoints
from .polyhedra import Polyhedron, _apart

REASON_NON_PURE = "non-pure"
REASON_WEIGHT = "weight-not-one"
REASON_UNBALANCED = "unbalanced"
REASON_HET = "het-bound"
REASON_FLAT_AXIOM = "flat-axiom"
REASON_SUPPORT = "support-mismatch"
REASON_RECESSION = "recession-mismatch"

BRAID_BUDGET_EXCEEDED = "braid refinement exceeded its budget"


@dataclass(frozen=True)
class Reason:
    kind: str
    witness: object = None


@dataclass(frozen=True)
class RecognitionReport:
    verdict: str  # "accepted" | "rejected"
    matroid: Matroid | None = None
    reason: Reason | None = None
    multiplier: int = 1
    flats: tuple[GroundSet, ...] | None = None

    @property
    def accepted(self) -> bool:
        return self.verdict == "accepted"


def _accept(matroid: Matroid, flats) -> RecognitionReport:
    """An acceptance with the flats given in `_sorted_sets` order."""
    return RecognitionReport("accepted", matroid=matroid, flats=tuple(flats))


def _reject(kind: str, witness=None) -> RecognitionReport:
    return RecognitionReport("rejected", reason=Reason(kind, witness))


def _non_pure(complex_: WeightedComplex) -> RecognitionReport:
    return _reject(REASON_NON_PURE, sorted({c.dim for c in complex_.cells}))


def recover_flat_family(complex_: WeightedComplex) -> ChainFamily:
    """The ground set and every F with -e_F in the support of a fan: each of
    its `_braid_pieces` lies in a closed braid cone, whose only -e_F span its
    rays, so these are the F with -e_F spanning a ray of a piece."""
    if not complex_.is_fan:
        raise InvalidInputError("input complex is not a fan")
    n = complex_.n
    pieces = _braid_pieces(complex_, DEFAULT_BUDGET)
    sets = {f for p in pieces for f in p.chain or map(ray_set, p.poly.rays)}
    return ChainFamily(n, (sets - {None}) | {frozenset(range(1, n + 1))})


def _braid_hyperplanes(n: int) -> list[tuple[int, ...]]:
    """Functionals x_i - x_j in quotient coordinates, for 1 <= i < j <= n."""
    return [
        coordinate_difference(n, i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    ]


def refine(poly: Polyhedron, hyperplanes, budget: int) -> list[Polyhedron]:
    """Split every piece along each hyperplane (a, b), a.x = b, in turn; raise
    ResourceLimitError once the pieces of two consecutive rounds pass the budget."""
    pieces = [poly]
    for a, b in hyperplanes:
        nxt = []
        for p in pieces:
            nxt += [x for x in p.split(a, b) if x is not None] if p.cuts(a, b) else [p]
            if len(nxt) + len(pieces) > budget:
                raise ResourceLimitError(BRAID_BUDGET_EXCEEDED)
        pieces = nxt
    return pieces


def _braid_pieces(complex_: WeightedComplex, budget: int) -> list[Cell]:
    """The cells cut into pieces that each lie in one closed braid cone: a
    cell that is a braid cone at the origin is its own piece, and any other
    is refined along every hyperplane x_i = x_j, built at the first such cell."""
    hyperplanes = None
    pieces = []
    for cell in complex_.cells:
        if cell.chain is not None:
            pieces.append(cell)
        else:
            if hyperplanes is None:
                hyperplanes = [(a, 0) for a in _braid_hyperplanes(complex_.n)]
            cut = refine(cell.poly, hyperplanes, budget)
            pieces.extend(Cell(complex_.n, p) for p in cut)
    return pieces


def recognize_fan(
    complex_: WeightedComplex, budget: int = DEFAULT_BUDGET
) -> RecognitionReport:
    """Decide whether a weighted fan is the chains-of-flats fan of a matroid.

    Every fan is accepted by one test, the lemma below: the chambers'
    family is a flat family of rank d + 1 with as many maximal chains as
    there are chambers.  Rejection reasons are checked in a fixed order:
    purity, unit weights, balancing, the heterogeneity bound, the flat
    axioms for the recovered family, and finally support equality with the
    chain fan.  A fan of braid cones at the origin is its own braid pieces,
    so it meets the bound and is tested before balancing; when it fails,
    it is balanced next, so its verdict and witness are those of that order.
    """
    tagged = complex_.chain_tagged  # braid cones at the origin are cones
    if not (tagged or complex_.is_fan):
        raise InvalidInputError("input complex is not a fan")
    if not complex_.is_pure:
        return _non_pure(complex_)
    if any(w != 1 for w in complex_.weights):
        bad = next(w for w in complex_.weights if w != 1)
        return _reject(REASON_WEIGHT, bad)
    n, d = complex_.n, complex_.dim
    if not tagged:
        balance = is_balanced(complex_)
        if not balance.ok:
            return _reject(REASON_UNBALANCED, balance.witness)
    chambers = set()
    for piece in _braid_pieces(complex_, budget):
        chain = piece.chain  # a braid cone's own, of length d
        if chain is None:
            # no hyperplane x_i = x_j cuts the piece, so its relative interior
            # point has the piece's largest heterogeneity, len(chain) + 1
            point = from_quotient(n, piece.poly.relative_interior_point())
            chain = chn_cell_of(point)[:-1]
            if len(chain) > d:
                return _reject(REASON_HET, point)
        chambers.add(chain)
    family = ChainFamily._of_chambers(n, frozenset({frozenset(range(1, n + 1))}.union(*chambers)))
    check = verify_flat_family(n, family)
    # Lemma: each chamber is a chain of d members: a braid cone's, as the fan
    # is pure, and a piece's, by the heterogeneity bound and its dimension d.
    # In the geometric lattice of a flat family of rank d + 1 such a chain
    # has d + 1 steps from the empty set to the ground set, so it is maximal;
    # the chambers are distinct, so as many as the maximal chains are all of
    # them.  The support is a union of closed d-dimensional braid cones: a
    # braid cone is its own chamber, and any other cell lies in the
    # d-dimensional braid flat L of the x_i = x_j that hold on it, where a
    # wall inside an open chamber of L has points of heterogeneity d + 1, so
    # each cell through it lies in L, and balancing puts one on each side.
    # So the support is the family's Bergman fan exactly when every maximal
    # chain is a chamber, and the point -sum(e_F) of one that is not lies
    # outside it.  That fan is balanced with unit weights: the facet that
    # drops the member between flats lo < hi of a chain is dropped from one
    # cone for each cover of lo below hi, and these covers partition hi - lo,
    # so the sum of their -e_F is constant on every block of the facet's
    # chain, in its span.  Chambers are chains of nonempty sets, so the
    # family is the lattice's members but the first, the empty set.
    if check.ok and family.rank == d + 1 and family.count_maximal_chains() == len(chambers):
        return _accept(_flat_matroid(family), family.lattice[0][1:])
    if tagged:
        balance = is_balanced(complex_)
        if not balance.ok:
            return _reject(REASON_UNBALANCED, balance.witness)
    if not check.ok:
        return _reject(REASON_FLAT_AXIOM, (check.axiom, check.witness))
    chain = next(c for c in family.maximal_chains() if c not in chambers)
    return _reject(REASON_SUPPORT, TropPoint(-sum(i in f for f in chain) for i in range(1, n + 1)))


def decide_complex(
    complex_: WeightedComplex, budget: int = DEFAULT_BUDGET
) -> RecognitionReport:
    """Decide whether a weighted complex is supported on a tropical linear space.

    The complex must be pure and balanced, and its recession fan with
    aggregated weights has to be recognized as a matroid fan with unit
    weights.
    """
    if not complex_.is_pure:
        return _non_pure(complex_)
    balance = is_balanced(complex_)
    if not balance.ok:
        return _reject(REASON_UNBALANCED, balance.witness)
    rec = recession_fan(complex_, budget=budget)
    inner = recognize_fan(rec, budget=budget)
    return inner if inner.accepted else _reject(REASON_RECESSION, inner.reason)


@dataclass(frozen=True)
class LocalCheckReport:
    global_report: RecognitionReport
    vertex_reports: tuple[tuple[TropPoint, RecognitionReport], ...]
    multipliers: tuple[int, ...]

    @property
    def accepted(self) -> bool:
        return self.global_report.accepted


def _components(complex_: WeightedComplex) -> int:
    """Connected components of the support.  Two cells meet when they share
    a vertex generator, or else when their intersection is nonempty.  All
    shared vertices are joined first, read off `Cell.generators`, so only
    the pairs they leave in different components read their polyhedra, and
    only those whose extents do not show them disjoint (`_apart`) meet.
    The pairs are read until one component is left."""
    cells = complex_.cells
    parent = list(range(len(cells)))
    count = len(cells)

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def join(i, j):
        nonlocal count
        i, j = find(i), find(j)
        parent[i], count = j, count - (i != j)

    first_cell = {}
    for i, cell in enumerate(cells):
        for v in cell.generators[0]:
            join(i, first_cell.setdefault(v, i))
    for (i, a), (j, b) in combinations(enumerate(cells), 2):
        if count == 1:
            break
        if find(i) != find(j) and not _apart(a.poly, b.poly):
            if a.poly.intersection(b.poly) is not None:
                join(i, j)
    return count


def _structure_vertices(complex_: WeightedComplex) -> list[TropPoint]:
    """The vertices of the cells, each once, in the order of their coordinates."""
    vertices = sorted({v for cell in complex_.cells for v in cell.generators[0]})
    return [from_quotient(complex_.n, v) for v in vertices]


def local_check(
    complex_: WeightedComplex, budget: int = DEFAULT_BUDGET
) -> LocalCheckReport:
    """Recognize the star at every vertex and demand one common multiplier.

    The star at each vertex is normalized by the gcd of its weights before
    recognition; acceptance additionally requires the support to be
    connected and the gcd multiplier to agree across vertices.
    """
    if not complex_.is_pure:
        return LocalCheckReport(_non_pure(complex_), (), ())
    if _components(complex_) > 1:
        return LocalCheckReport(_reject(REASON_SUPPORT, "disconnected"), (), ())
    vertex_reports = []
    multipliers = []
    for p in _structure_vertices(complex_):
        star = star_fan(complex_, p)
        g = gcd(*star.weights)
        normalized = WeightedComplex(
            complex_.n,
            star.cells,
            [w // g for w in star.weights],
            validate=False,
        )
        report = recognize_fan(normalized, budget=budget)
        vertex_reports.append((p, report))
        multipliers.append(g)
    failing = next((r.reason for _, r in vertex_reports if not r.accepted), None)
    if failing is None and len(set(multipliers)) != 1:
        failing = Reason(REASON_SUPPORT, "multiplier mismatch")
    report = RecognitionReport(
        "accepted" if failing is None else "rejected",
        reason=failing,
        multiplier=multipliers[0] if failing is None and multipliers else 1,
    )
    return LocalCheckReport(report, tuple(vertex_reports), tuple(multipliers))


@dataclass(frozen=True)
class ProbeResult:
    counterexample_found: bool
    pair: tuple[TropPoint, TropPoint] | None = None
    segment_check: SegmentCheck | None = None

    @property
    def ok(self) -> bool:
        return not self.counterexample_found


def _sample(cell: Cell, rng: random.Random) -> tuple[int, list[int]]:
    """A seeded vertex plus a/b times each ray (a in 0..6) and lineality
    vector (a in -6..6), b in 1..3, as its scale 6*d and the integer vector
    6*d*q, for the vertex's generator (d*v, d) in `_gens`, d the lcm of v's
    denominators; 6 = lcm(1, 2, 3) clears every b.  The draws are those of
    `randint` over the same ranges, one `_randbelow` call each."""
    poly = cell.poly
    *v, d = poly._gens[rng.randrange(len(poly.vertices))]
    q = [6 * x for x in v]
    for r in poly.rays:
        c = rng.randrange(7) * (6 // (1 + rng.randrange(3))) * d
        q = [a + c * x for a, x in zip(q, r)]
    for l in poly.lineality:
        c = (rng.randrange(13) - 6) * (6 // (1 + rng.randrange(3))) * d
        q = [a + c * x for a, x in zip(q, l)]
    return 6 * d, q


def _scaled_point(n: int, scale: int, q: list[int]) -> TropPoint:
    return from_quotient(n, [Fraction(a, scale) for a in q])


def convexity_probe(
    complex_: WeightedComplex, samples: int = 200, seed: int = 0
) -> ProbeResult:
    """Sound, incomplete convexity rejection by seeded segment sampling.

    Any failure certifies that the support is not tropically convex; running
    clean only reports that no counterexample was found.  The segments
    between vertex generators are checked first, then one pair of points
    drawn from seeded cells at a time.  A drawn point stays an integer
    vector over its scale (`_sample`), and the pair's breakpoints are taken
    over the lcm of the two scales, which changes no sign of a row value;
    they are tested with the complex's `RowTable` as in
    `segment_in_support`, which gives a counterexample's `SegmentCheck`.
    An alcoved cell is a polytrope and tropically convex (Develin &
    Sturmfels 2004), so a pair in one such cell, often drawn, is covered
    at once.  With no samples only the vertex segments are checked.
    """
    if samples < 0:
        raise InvalidInputError("the number of samples must be >= 0")
    for a, b in combinations(_structure_vertices(complex_), 2):
        check = segment_in_support(complex_, a, b)
        if not check.covered:
            return ProbeResult(True, (a, b), check)
    table = complex_._row_table
    cells = complex_.cells
    rng = random.Random(seed)
    for _ in range(samples):
        ca = cells[rng.randrange(len(cells))]
        cb = cells[rng.randrange(len(cells))]
        (sa, qa), (sb, qb) = _sample(ca, rng), _sample(cb, rng)
        d = lcm(sa, sb)
        ends = _integer_breakpoints(
            [0] + [x * (d // sa) for x in qa], [0] + [x * (d // sb) for x in qb]
        )
        if _uncovered_piece(table, d, ends) is not None:
            pair = (_scaled_point(complex_.n, sa, qa), _scaled_point(complex_.n, sb, qb))
            return ProbeResult(True, pair, segment_in_support(complex_, *pair))
    return ProbeResult(False)
