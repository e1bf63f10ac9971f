"""Deciding whether weighted complexes are supported on tropical linear spaces.

A fan is cut once into braid pieces, each inside one closed braid cone.  The
candidate flat family is read off their rays; after the flat axioms, the same
pieces show that the support lies in the fan of chains of that family, and
which maximal chain cones are pieces already.  Complexes are decided through
their recession fan; the local route recognizes the star at every vertex.  A
seeded segment sampler provides sound (never complete) convexity rejection.
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
    chain_cone,
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
from .points import TropPoint, heterogeneity
from .polyhedra import Polyhedron, _neg, refine

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


def _uncovered_witness(
    piece: Polyhedron, cells: list[Polyhedron], counter: list[int], budget: int
) -> Polyhedron | None:
    """A sub-piece not covered by the union of the cells, or None."""
    counter[0] += 1
    if counter[0] > budget:
        raise ResourceLimitError("coverage check exceeded its budget")
    if not cells:
        return piece
    head, rest = cells[0], cells[1:]
    current: Polyhedron | None = piece
    for row in head._constraints:
        if current is None:
            return None
        above = current._cut(_neg(row))
        if above is not None and above.dim == current.dim:
            # some of it lies strictly outside row.(x, 1) <= 0
            if above._halfspace_status(row) != -1:
                witness = _uncovered_witness(above, rest, counter, budget)
                if witness is not None:
                    return witness
        current = current._cut(row)
    return None


def _support_equal(
    complex_: WeightedComplex, pieces: list[Cell], family: ChainFamily, budget: int
) -> TropPoint | None:
    """Witness point in the symmetric difference of |X| and |Ch_X|, or None:
    the `_braid_pieces` that are no braid cone must sit on chains of the
    family, and only maximal chains that are no piece are tested for cover."""
    n = complex_.n
    covered = {piece.chain for piece in pieces}
    for piece in pieces:
        if piece.chain is None:
            point = from_quotient(n, piece.poly.relative_interior_point())
            if any(f not in family.sets for f in chn_cell_of(point)):
                return point
    cell_polys = [c.poly for c in complex_.cells]
    for chain in family.maximal_chains():
        if chain in covered:
            continue
        witness = _uncovered_witness(chain_cone(n, chain), cell_polys, [0], budget)
        if witness is not None:
            return from_quotient(n, witness.relative_interior_point())
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
    witness = _support_equal(complex_, pieces, family, budget)
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


def _sample_point(cell: Cell, rng: random.Random) -> TropPoint:
    """A seeded vertex plus a/b times each ray (a in 0..6) and lineality
    vector (a in -6..6), b in 1..3, accumulated as the integer vector 6*d*q
    for the vertex denominator d; 6 = lcm(1, 2, 3) clears every b."""
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
    return from_quotient(cell.n, [Fraction(a, scale) for a in q])


def convexity_probe(
    complex_: WeightedComplex, samples: int = 200, seed: int = 0
) -> ProbeResult:
    """Sound, incomplete convexity rejection by seeded segment sampling.

    Any failure certifies that the support is not tropically convex; running
    clean only reports that no counterexample was found.  With no samples
    only the segments between vertex generators are checked.
    """
    if samples < 0:
        raise InvalidInputError("the number of samples must be >= 0")
    pairs = list(combinations(_structure_vertices(complex_), 2))
    rng = random.Random(seed)
    for _ in range(samples):
        ca = complex_.cells[rng.randrange(len(complex_.cells))]
        cb = complex_.cells[rng.randrange(len(complex_.cells))]
        pairs.append((_sample_point(ca, rng), _sample_point(cb, rng)))
    for a, b in pairs:
        check = segment_in_support(complex_, a, b)
        if not check.covered:
            return ProbeResult(True, (a, b), check)
    return ProbeResult(False)
