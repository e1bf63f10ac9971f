"""Deciding whether weighted complexes are supported on tropical linear spaces.

A fan is cut once into braid pieces, each inside one closed braid chamber.
The candidate flat family is read off their rays; after the flat axioms, the
support equals the fan of chains of that family exactly when every maximal
chain is the chamber of some piece, since a balanced fan within the
heterogeneity bound fills each chamber it meets (`_support_equal`).
Complexes are decided through their recession fan; the local route
recognizes the star at every vertex.  A seeded segment sampler provides
sound (never complete) convexity rejection.
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
    _sorted_sets,
    verify_flat_family,
)
from .points import TropPoint, _integer_breakpoints, heterogeneity
from .polyhedra import refine

REASON_NON_PURE = "non-pure"
REASON_WEIGHT = "weight-not-one"
REASON_UNBALANCED = "unbalanced"
REASON_HET = "het-bound"
REASON_FLAT_AXIOM = "flat-axiom"
REASON_SUPPORT = "support-mismatch"
REASON_RECESSION = "recession-mismatch"


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


def _accept(matroid: Matroid, flats, multiplier: int = 1) -> RecognitionReport:
    return RecognitionReport(
        "accepted",
        matroid=matroid,
        multiplier=multiplier,
        flats=tuple(_sorted_sets(flats)),
    )


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
    return _piece_family(complex_.n, _braid_pieces(complex_, DEFAULT_BUDGET))


def _piece_family(n: int, pieces: list[Cell]) -> ChainFamily:
    """The ground set and every F with -e_F spanning a ray of a piece; those
    of a braid cone at the origin are its chain."""
    sets = {f for p in pieces for f in p.chain or map(ray_set, p.poly.rays)}
    return ChainFamily(n, (sets - {None}) | {frozenset(range(1, n + 1))})


def _coordinate_classes(cell: Cell) -> int:
    """The number of classes of torus coordinates that agree identically on
    the cell: the distinct coordinate columns of its generators."""
    gens = [v.coords for v in cell.vertices] + cell.rays + cell.lineality
    return len(set(zip(*gens)))


def _generic_point(cell: Cell, num_classes: int) -> TropPoint:
    """A cell point realizing the cell's maximal heterogeneity."""
    base = list(cell.poly.vertices[0])
    directions = list(cell.poly.rays) + list(cell.poly.lineality)
    for scale in range(1, 64):
        coeffs = [Fraction(scale**k, scale + k + 1) for k in range(len(directions))]
        q = list(base)
        for c, r in zip(coeffs, directions):
            for i, x in enumerate(r):
                q[i] += c * x
        pt = from_quotient(cell.n, q)
        if heterogeneity(pt) == num_classes:
            return pt
    raise ResourceLimitError("no generic point found within 63 scales")


def _braid_hyperplanes(n: int) -> list[tuple[int, ...]]:
    """Functionals x_i - x_j in quotient coordinates, for 1 <= i < j <= n."""
    return [
        coordinate_difference(n, i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    ]


def _braid_pieces(complex_: WeightedComplex, budget: int) -> list[Cell]:
    """The cells cut into pieces that each lie in one closed braid cone: a
    cell that is a braid cone at the origin is its own piece, and any other
    is refined along every hyperplane x_i = x_j."""
    hyperplanes = [(a, 0) for a in _braid_hyperplanes(complex_.n)]
    pieces = []
    for cell in complex_.cells:
        if cell.chain is not None:
            pieces.append(cell)
        else:
            cut = refine(cell.poly, hyperplanes, budget, "braid refinement")
            pieces.extend(Cell(complex_.n, p) for p in cut)
    return pieces


def _support_equal(
    complex_: WeightedComplex, pieces: list[Cell], family: ChainFamily
) -> TropPoint | None:
    """A point of |Ch_X| outside |X|, or None, for a fan X that `recognize_fan`
    has found pure of dimension d, balanced with unit weights and within the
    heterogeneity bound, with `_braid_pieces` and their family.

    Lemma: the support of such a fan is a union of closed d-dimensional braid
    cones.  By the heterogeneity bound each cell lies in a d-dimensional
    braid flat L, cut out by the equations x_i = x_j that hold on all of it.
    A wall inside an open braid chamber of L has points of heterogeneity
    d + 1, so every cell through that wall lies in L, and weight-one
    balancing puts a cell on each side of it.  So the support meets each chamber in all of its interior or
    in none of it.

    Each piece lies in one chamber: a braid cone at the origin in that of its
    chain, any other in that of its relative interior point.  The rays -e_F
    of a chamber met are rays of pieces, so |X| lies in |Ch_X|, and the two
    are equal exactly when every maximal chain of the family is a chamber
    met.  The first that is not has the relative interior point
    -sum(e_F for F in it) of its cone as witness.
    """
    n = complex_.n
    chambers = {
        piece.chain
        if piece.chain is not None
        else chn_cell_of(from_quotient(n, piece.poly.relative_interior_point()))[:-1]
        for piece in pieces
    }
    for chain in family.maximal_chains():
        if chain not in chambers:
            return TropPoint(-sum(i in f for f in chain) for i in range(1, n + 1))
    return None


def recognize_fan(
    complex_: WeightedComplex, budget: int = DEFAULT_BUDGET
) -> RecognitionReport:
    """Decide whether a weighted fan is the chains-of-flats fan of a matroid.

    Rejection reasons are checked in a fixed order: purity, unit weights,
    balancing, the heterogeneity bound, the flat axioms for the recovered
    family, and finally support equality with the chain fan.
    """
    if not complex_.is_fan:
        raise InvalidInputError("input complex is not a fan")
    if not complex_.is_pure:
        return _non_pure(complex_)
    if any(w != 1 for w in complex_.weights):
        bad = next(w for w in complex_.weights if w != 1)
        return _reject(REASON_WEIGHT, bad)
    balance = is_balanced(complex_)
    if not balance.ok:
        return _reject(REASON_UNBALANCED, balance.witness)
    d = complex_.dim
    for cell in complex_.cells:
        if cell.chain is not None:
            # len(chain) + 1 <= d + 1 blocks of the chain's ordered partition
            continue
        classes = _coordinate_classes(cell)
        if classes > d + 1:
            return _reject(REASON_HET, _generic_point(cell, classes))
    pieces = _braid_pieces(complex_, budget)
    family = _piece_family(complex_.n, pieces)
    check = verify_flat_family(complex_.n, family.sets)
    if not check.ok:
        return _reject(REASON_FLAT_AXIOM, (check.axiom, check.witness))
    witness = _support_equal(complex_, pieces, family)
    if witness is not None:
        return _reject(REASON_SUPPORT, witness)
    return _accept(_flat_matroid(family), family.sets)


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
    if not inner.accepted:
        return _reject(REASON_RECESSION, inner.reason)
    return _accept(inner.matroid, inner.flats)


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
    shared vertices are joined first, so only the pairs that they leave in
    different components are intersected."""
    cells = complex_.cells
    parent = list(range(len(cells)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    first_cell = {}
    for i, cell in enumerate(cells):
        for v in cell.poly.vertices:
            parent[find(i)] = find(first_cell.setdefault(v, i))
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            if find(i) != find(j) and cells[i].poly.intersection(cells[j].poly) is not None:
                parent[find(i)] = find(j)
    return len({find(i) for i in range(len(cells))})


def _structure_vertices(complex_: WeightedComplex) -> list[TropPoint]:
    seen = []
    for cell in complex_.cells:
        for v in cell.vertices:
            if v not in seen:
                seen.append(v)
    return sorted(seen, key=lambda p: p.coords)


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
        g = 0
        for w in star.weights:
            g = gcd(g, w)
        normalized = WeightedComplex(
            complex_.n,
            star.cells,
            [w // g for w in star.weights],
            validate=False,
        )
        report = recognize_fan(normalized, budget=budget)
        vertex_reports.append((p, report))
        multipliers.append(g)
    if all(r.accepted for _, r in vertex_reports) and len(set(multipliers)) == 1:
        report = RecognitionReport(
            "accepted", multiplier=multipliers[0] if multipliers else 1
        )
        return LocalCheckReport(report, tuple(vertex_reports), tuple(multipliers))
    failing = next(
        (r.reason for _, r in vertex_reports if not r.accepted),
        Reason(REASON_SUPPORT, "multiplier mismatch"),
    )
    return LocalCheckReport(
        RecognitionReport("rejected", reason=failing),
        tuple(vertex_reports),
        tuple(multipliers),
    )


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
    vector (a in -6..6), b in 1..3, as its scale 6*d for the vertex
    denominator d and the integer vector 6*d*q; 6 = lcm(1, 2, 3) clears
    every b."""
    v = cell.poly.vertices[rng.randrange(len(cell.poly.vertices))]
    d = lcm(*(x.denominator for x in v))
    scale = 6 * d
    q = [x.numerator * (scale // x.denominator) for x in v]
    for r in cell.poly.rays:
        c = rng.randint(0, 6) * (6 // rng.randint(1, 3)) * d
        q = [a + c * x for a, x in zip(q, r)]
    for l in cell.poly.lineality:
        c = rng.randint(-6, 6) * (6 // rng.randint(1, 3)) * d
        q = [a + c * x for a, x in zip(q, l)]
    return scale, q


def _sample_point(cell: Cell, rng: random.Random) -> TropPoint:
    """The point `_sample` draws."""
    return _scaled_point(cell.n, *_sample(cell, rng))


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
    With no samples only the vertex segments are checked.
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
