"""Shared fixtures: small matroids, their fans, and valuated-matroid complexes,
plus an LP hull oracle independent of the polyhedron kernel, the
Fraction-valued predicates the kernel's integer form replaced, the Fraction
row reduction and the integer diagonalisation the Hermite normal form
replaced, the pairwise complex validation that chain lookup replaced, the
per-cell segment coverage test, with its Fraction gap sweep, that the row
table of a complex replaced, the fundamental circuit by basis exchange, and
the chain enumeration, flat-axiom check and height-table rank that a cover
relation replaced, that cover relation on frozensets, which the integer
lattice of `ChainFamily` replaced, the flats of a matroid by the
closure of every subset, which the walk up the covers of `Matroid.flats`
replaced, the circuits of a matroid by a scan of the small subsets, which
the fundamental circuits of `Matroid.circuits` replaced, the row table of a
complex from its polyhedra's rows, all dense, which the difference rows of
braid cones read from their apex and chain replaced, the flat family of a
fan by probing every subset, which reading the rays of its braid pieces
replaced, the convexity probe that drew every sample before checking a
pair, which drawing integer samples one pair at a time replaced, support
equality by recursive polyhedral subtraction of the cells from every maximal
chain cone, which looking up each chain among the chambers of the braid
pieces replaced, the circuit derivations of a valuated matroid, and the
coordinate classes of a cell, which reading the chamber of each braid piece
replaced in the heterogeneity bound, cell certification by refinement
along every comparison hyperplane, which the sector test of `certify_cell`
replaced, cell certification with the extents of the cell and the sector
bounds in Fraction arithmetic, which the integer `extents` of a polyhedron
and `_sector_bounds` of a valuated matroid replaced, and braid balancing by rays, grouping facets by their generators
and testing each sum against the rays' coordinate classes, which balancing
on the dropped sets of each sub-chain replaced, the exchange axiom over
all pairs of bases, which the local check of `check_pluecker` replaced, and
`recognize_fan` balancing every fan first, which reading a fan of braid
cones from its chains replaced, the cell writer through torus points, which
writing every cell from its generators lifted as (0,) + v replaced, and the
primitive normal by a search of the facet rows tight on the facet, which
reading the facet's row off `faces_of_facets` replaced, the scan of every
sector of `certify_cell`, which the bisected sector index replaced,
minimal generators with each equation given to `_dd` as a row and its
negation, which giving it once as an equation replaced, and the probe's
sample drawn with `randint` off a vertex, which drawing with `randrange`
off its generator replaced, the Fraction circuit vector of a (basis,
element) pair and membership by the maxima on each circuit, which the
integer circuit table and the sector index of a valuated matroid replaced,
the support and elimination axioms of a circuit valuation, the oracle
of `circuit_valuations`, the rank and closure of a matroid by a scan of its
bases, which one bitmask closure replaced, and each circuit's vector from
the first pair a search over every basis finds, on the weights scaled to
integers apart, which the pairs `Matroid` records with its circuits and
one integer weight table replaced, and segment coverage by set tests on
the keys of each cell's rows, which cell bitmasks and the polytrope lemma
replaced; plus seeded complexes of cells mostly not alcoved, and seeded
point pairs, for the coverage digests, and seeded complexes of disjoint
translated cones whose recession fan is repaired."""

import importlib.util
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import lcm
from pathlib import Path

import pytest

from troplin import complexes
from troplin.complexes import (
    DEFAULT_BUDGET,
    BalanceCheck,
    Cell,
    RowTable,
    SegmentCheck,
    WeightedComplex,
    _cell_interval,
    _first_gap as _table_first_gap,
    _meet_in_common_face,
    chain_fan,
    chn_cell_of,
    coordinate_difference,
    direction_to_quotient,
    from_quotient,
    is_balanced,
    lift_direction,
    recession_fan,
    to_quotient,
)
from troplin.errors import InvalidInputError, ResourceLimitError
from troplin.io import point_to_json, vector_to_json
from troplin.linalg import (
    hermite_normal_form,
    in_span,
    lattice_quotient_generator,
    solve_exact,
    vec_dot,
    vec_is_zero,
)
from troplin.lp import lp_feasible
from troplin.matroids import (
    ChainFamily,
    FlatFamilyCheck,
    _flat_matroid,
    _sorted_sets,
    enumerate_matroids,
    matroid_from_bases,
    verify_flat_family,
)
from troplin.points import TropPoint, _frac, flat_direction, segment
from troplin.polyhedra import Polyhedron, _dd, _from_rows, _lift, _neg, _row
from troplin.recognize import (
    REASON_FLAT_AXIOM,
    REASON_HET,
    REASON_SUPPORT,
    REASON_UNBALANCED,
    REASON_WEIGHT,
    ProbeResult,
    _accept,
    _braid_pieces,
    _non_pure,
    _reject,
    _sample,
    _scaled_point,
    _structure_vertices,
    refine,
)
from troplin.valuated import PlueckerCheck, ValuatedMatroid, _normalized_weights


# (cells, message) of complex documents with n = 3 that ingest refuses
MALFORMED_CELLS = [
    ([{"vertices": [["0", "0"]], "rays": [["-1", "0", "0"]]}], "ambient size mismatch"),
    ([{"vertices": [["0", "0", "0", "0"]]}], "ambient size mismatch"),
    ([{"vertices": [[]]}], "a point is a nonempty array of rationals"),
    ([{"vertices": [["1/0", "0", "0"], []]}], "not a rational: '1/0'"),
    ([{"vertices": [["0", "0", "0"], []]}], "a point is a nonempty array of rationals"),
    ([{"vertices": [["0", True, "0"]]}], "not a rational: True"),
    ([{"vertices": [["0", "0", "0"]], "rays": [[True, 0, 0]]}], "not a rational: True"),
    ([{"vertices": [[1, 1, 1]], "rays": [[0, True, 0]]}], "not a rational: True"),
    ([{"vertices": [["0", "0", "0"]], "rays": [["1/0", "0", "0"]]}], "not a rational: '1/0'"),
    ([{"vertices": [["0", "0", "0"]], "lineality": [["0", "1/0", "0"]]}], "not a rational: '1/0'"),
    (
        [{"vertices": [["0", "0", "0"]], "rays": [["-1", "0"]]}],
        "direction vectors must have length n",
    ),
    (
        [{"vertices": [["0", "0", "0"]], "lineality": [["1", "1"]]}],
        "direction vectors must have length n",
    ),
    (
        [{"vertices": [["0", "0"]], "rays": [["-1", "0"]], "weight": 0}],
        "direction vectors must have length n",
    ),
    ([{"vertices": [["0", "0"]], "weight": 0}], "cell weights must be positive integers"),
    (
        [{"vertices": [["0", "0", "0"]], "rays": [["-1", "0", "0"]]}, {"vertices": [["1/0"]]}],
        "not a rational: '1/0'",
    ),
]

# (command, document) of inputs whose structure the command line refuses
MALFORMED_STRUCTURES = [
    ("recognize", {"n": 3, "cells": [[1]]}),
    ("bergman", {"n": 3, "bases": [[1, "a"]]}),
    ("bergman", {"n": 3, "bases": 5}),
    ("recognize", {"n": 3, "cells": [{"vertices": [[0, 0, 0]], "weight": True}]}),
    # 'n' is a JSON integer >= 1: no float, bool or string is rounded or cast
    ("recognize", {"n": 3.9, "cells": [{"vertices": [[0, 0, 0]], "rays": [[-1, 0, 0]]}]}),
    ("balanced", {"n": True, "cells": [{"vertices": [[0]]}]}),
    ("bergman", {"n": "3", "bases": [[1, 2], [1, 3], [2, 3]]}),
    ("bergman", {"n": 2.0, "bases": [[1], [2]]}),
    ("chains", {"n": 0, "sets": [[]]}),
    ("chains", {"n": -2, "sets": [[]]}),
]


@pytest.fixture(scope="session")
def u23():
    return matroid_from_bases(3, [[1, 2], [1, 3], [2, 3]])


@pytest.fixture(scope="session")
def u24():
    return matroid_from_bases(4, [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]])


@pytest.fixture(scope="session")
def u23_fan(u23):
    return chain_fan(ChainFamily(3, u23.flats | {u23.ground}))


@pytest.fixture(scope="session")
def u23_valuated(u23):
    weights = {
        frozenset({1, 2}): Fraction(0),
        frozenset({1, 3}): Fraction(0),
        frozenset({2, 3}): Fraction(1),
    }
    return ValuatedMatroid(u23, weights)


@pytest.fixture(scope="session")
def tripod_complex():
    """The tropical line of U(2,3) with valuation (0,0,1): vertex (0,1,1)."""
    apex = TropPoint((0, 1, 1))
    cells = [
        Cell.from_torus(3, [apex], rays=[(-1, 0, 0)]),
        Cell.from_torus(3, [apex], rays=[(0, -1, 0)]),
        Cell.from_torus(3, [apex], rays=[(0, 0, -1)]),
    ]
    return WeightedComplex(3, cells, [1, 1, 1])


@pytest.fixture(scope="session")
def u24_tree_valuated(u24):
    weights = {b: Fraction(0) for b in u24.bases}
    weights[frozenset({1, 2})] = Fraction(-1)
    return ValuatedMatroid(u24, weights)


def make_tree_cells(offset=(0, 0, 0, 0)):
    u0 = TropPoint(offset)
    u1 = u0.translate((-1, -1, 0, 0))
    return [
        Cell.from_torus(4, [u0, u1]),
        Cell.from_torus(4, [u1], rays=[(-1, 0, 0, 0)]),
        Cell.from_torus(4, [u1], rays=[(0, -1, 0, 0)]),
        Cell.from_torus(4, [u0], rays=[(0, 0, -1, 0)]),
        Cell.from_torus(4, [u0], rays=[(0, 0, 0, -1)]),
    ]


@pytest.fixture(scope="session")
def tree_complex():
    """The tropical line of U(2,4) with valuation -1 on basis {1,2}."""
    return WeightedComplex(4, make_tree_cells(), [1] * 5)


@pytest.fixture(scope="session")
def plus_e_fan():
    cells = [
        Cell.from_torus(3, [TropPoint((0, 0, 0))], rays=[(1, 0, 0)]),
        Cell.from_torus(3, [TropPoint((0, 0, 0))], rays=[(0, 1, 0)]),
        Cell.from_torus(3, [TropPoint((0, 0, 0))], rays=[(0, 0, 1)]),
    ]
    return WeightedComplex(3, cells, [1, 1, 1], validate=False)


def overlapping_cones() -> WeightedComplex:
    """Two translated 2-dimensional cones whose recession cones overlap
    non-facially, so that the recession fan needs two repair splits."""
    a = Cell.from_torus(3, [TropPoint((0, 0, 0))], rays=[(0, -1, 0), (0, 0, -1)])
    b = Cell.from_torus(3, [TropPoint((0, 9, 9))], rays=[(0, -1, -1), (0, 1, 0)])
    return WeightedComplex(3, [a, b], [1, 1], validate=False)


def repaired_fan_corpus():
    """(name, complex) of 40 seeded complexes of two to four pairwise
    disjoint translated cones of dimension n - 2, n = 3 or 4, weights 1-3,
    which validate.  Their recession cones overlap: two are equal, one lies
    in another, or two meet in no common face; and one is no braid cone at
    the origin, so `recession_fan` repairs their fan, as a spy on
    `complexes._repair_fan` checks for each.  The rays of a complex come
    from one seeded pool: two vectors when n = 3, and when n = 4 four
    vectors of one plane in angular order, u, u + v, v and v - u, whose
    wedges overlap."""
    rng = random.Random(32)
    repair, calls = complexes._repair_fan, []

    def spy(cones, budget):
        calls.append(cones)
        return repair(cones, budget)

    found = []
    complexes._repair_fan = spy
    try:
        while len(found) < 40:
            n = rng.randint(3, 4)
            u, v = (tuple(rng.randint(-2, 2) for _ in range(n - 1)) for _ in range(2))
            pool = [u, v]
            if n == 4:
                pool = [u, tuple(a + b for a, b in zip(u, v)), v, tuple(b - a for a, b in zip(u, v))]
            pool = [r for r in pool if any(r)]
            cells = []
            for _ in range(rng.randint(2, 4)):
                apex = tuple(rng.randint(-6, 6) for _ in range(n - 1))
                poly = Polyhedron(n - 1, [apex], rng.sample(pool, min(len(pool), n - 2)))
                if poly.dim == n - 2 and all(poly.intersection(c.poly) is None for c in cells):
                    cells.append(Cell(n, poly))
            rec = [c.poly.recession() for c in cells]
            if len(cells) < 2 or all(Cell(n, r).chain is not None for r in rec):
                continue
            if all(a != b and _meet_in_common_face(a, b) for a, b in combinations(rec, 2)):
                continue
            cx = WeightedComplex(n, cells, [rng.randint(1, 3) for _ in cells])
            before = len(calls)
            recession_fan(cx)
            assert len(calls) == before + 1, cx
            found.append((f"repaired fan #{len(found)}", cx))
    finally:
        complexes._repair_fan = repair
    return found


def braid_fan_corpus(max_n: int):
    """Every matroid fan with n <= max_n, each with one cone dropped, each
    with its first weight doubled, and each with its first cone of dimension
    at least two subdivided at the sum of its first two rays, which mixes
    braid cones with cones that are not."""
    for n in range(1, max_n + 1):
        for matroid in enumerate_matroids(n):
            fan = chain_fan(ChainFamily(n, matroid.flats | {matroid.ground}))
            cells, weights = list(fan.cells), list(fan.weights)
            yield fan
            if len(cells) > 1:
                for k in range(len(cells)):
                    yield WeightedComplex(
                        n, cells[:k] + cells[k + 1 :], weights[:k] + weights[k + 1 :],
                        validate=False,
                    )
            yield WeightedComplex(n, cells, [2] + weights[1:], validate=False)
            k = next((k for k, c in enumerate(cells) if len(c.poly.rays) >= 2), None)
            if k is not None:
                zero, (r1, r2, *rest) = cells[k].poly.vertices, cells[k].poly.rays
                mid = tuple(a + b for a, b in zip(r1, r2))
                halves = [
                    Cell(n, Polyhedron(n - 1, zero, [mid, r2] + rest)),
                    Cell(n, Polyhedron(n - 1, zero, [r1, mid] + rest)),
                ]
                subdivided = cells[:k] + halves + cells[k + 1 :]
                yield WeightedComplex(n, subdivided, [1] * len(subdivided), validate=False)


def coarse_uniform_fan(rank: int, n: int) -> WeightedComplex:
    """The Bergman fan of U(rank, n) in its coarse structure: the cones over
    rank - 1 of the rays -e_i.  From rank 3 on, no cell is a braid cone."""
    origin = TropPoint((0,) * n)
    rays = [tuple(-int(i == j) for j in range(n)) for i in range(n)]
    cells = [Cell.from_torus(n, [origin], rays=c) for c in combinations(rays, rank - 1)]
    return WeightedComplex(n, cells, [1] * len(cells), validate=False)


def dropped_cones(fan: WeightedComplex):
    """The fan with each one of its cones dropped in turn, if it has two or more."""
    cells = fan.cells
    for k in range(len(cells) if len(cells) > 1 else 0):
        rest = cells[:k] + cells[k + 1 :]
        yield WeightedComplex(fan.n, rest, [1] * len(rest), validate=False)


def coarse_uniform_corpus(max_n: int):
    """Every coarse uniform fan with n <= max_n, each followed by its
    one-cone-dropped mutants."""
    for n in range(1, max_n + 1):
        for rank in range(1, n + 1):
            fan = coarse_uniform_fan(rank, n)
            yield fan
            yield from dropped_cones(fan)


def skeleton_fan_corpus():
    """For every loopfree matroid with 3 <= n <= 5 and every 1 <= d <= rank - 2,
    the fan of the cones over all d-chains of proper nonempty flats, then
    that fan without its first cone."""
    for n in range(3, 6):
        for matroid in enumerate_matroids(n):
            proper = _sorted_sets(f for f in matroid.flats if f and f != matroid.ground)
            for d in range(1, matroid.rank - 1):
                chains = [
                    c for c in combinations(proper, d) if all(a < b for a, b in zip(c, c[1:]))
                ]
                cells = [Cell(n, Cell.from_braid(n, (0,) * (n - 1), c).poly) for c in chains]
                for kept in (cells, cells[1:]):
                    yield WeightedComplex(n, kept, [1] * len(kept), validate=False)


def het_bound_fans():
    """Balanced weight-one fans that break the heterogeneity bound: the line
    through (0,-1,-2,-3) as two rays and as one cell with lineality, and a
    2-dimensional fan with lineality e_4 whose second cell, over (1,-1,0,0),
    has four coordinate classes and is refined into four braid pieces."""
    n, origin = 4, [TropPoint((0, 0, 0, 0))]
    line = [Cell.from_torus(n, origin, rays=[r]) for r in [(0, -1, -2, -3), (0, 1, 2, 3)]]
    lineality = [Cell.from_torus(n, origin, lineality=[(0, -1, -2, -3)])]
    walls = [
        Cell.from_torus(n, origin, rays=[r], lineality=[(0, 0, 0, 1)])
        for r in [(-1, 0, 0, 0), (1, -1, 0, 0), (0, 1, 0, 0)]
    ]
    return [WeightedComplex(n, cells, [1] * len(cells)) for cells in (line, lineality, walls)]


def coordinate_classes(cell) -> int:
    """The number of classes of torus coordinates that agree identically on
    the cell: the distinct coordinate columns of its generators, which is
    the largest heterogeneity of a point of the cell.  A cell of a fan of
    dimension d breaks the heterogeneity bound when it has more than d + 1."""
    gens = [v.coords for v in cell.vertices] + cell.rays + cell.lineality
    return len(set(zip(*gens)))


def off_chain_point(complex_, pieces, family) -> TropPoint | None:
    """The relative interior point of the first braid piece that is no braid
    cone and does not sit on a chain of the family, or None."""
    for piece in pieces:
        if piece.chain is None:
            point = from_quotient(piece.poly.relative_interior_point())
            if any(f not in family.sets for f in chn_cell_of(point)):
                return point
    return None


def _uncovered_witness(piece, cells, counter, budget):
    """A sub-piece not covered by the union of the cells, or None."""
    counter[0] += 1
    if counter[0] > budget:
        raise ResourceLimitError("coverage check exceeded its budget")
    if not cells:
        return piece
    head, rest = cells[0], cells[1:]
    current = piece
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


def support_equal_by_coverage(complex_, pieces, family, budget=20000) -> TropPoint | None:
    """A point in the symmetric difference of |X| and |Ch_X|, or None: a
    braid piece off the chains of the family (`off_chain_point`), or a point
    of a maximal chain cone that is no piece and that the cells do not
    cover, found by subtracting the cells one by one."""
    n = complex_.n
    point = off_chain_point(complex_, pieces, family)
    if point is not None:
        return point
    covered = {piece.chain for piece in pieces}
    cell_polys = [c.poly for c in complex_.cells]
    for chain in family.maximal_chains():
        if chain in covered:
            continue
        cone = Cell.from_braid(n, (0,) * (n - 1), chain).poly
        witness = _uncovered_witness(cone, cell_polys, [0], budget)
        if witness is not None:
            return from_quotient(witness.relative_interior_point())
    return None


def probed_flat_family(complex_) -> ChainFamily:
    """The nonempty subsets F with -e_F in the support, found by probing all
    2^n - 1 of them."""
    n = complex_.n
    members = [
        frozenset(c)
        for size in range(1, n + 1)
        for c in combinations(range(1, n + 1), size)
        if complex_.support_contains(flat_direction(n, c))
    ]
    return ChainFamily(n, members)


def _benchmark_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look up their module
    spec.loader.exec_module(workloads)
    return workloads


def benchmark_valuated_corpus(seed):
    """The valuated_complexes benchmark's cases and mutants for a seed."""
    workloads = _benchmark_workloads()
    for recipe in workloads.valuated_recipes(seed, small=False):
        yield recipe.make().complex_
        if recipe.mutant:
            yield workloads.mutate(recipe.make().complex_, recipe.mutant)


def benchmark_valuated_mutants(seed):
    """Every case of the valuated_complexes benchmark for a seed, each
    followed by its drop mutant and its double mutant."""
    workloads = _benchmark_workloads()
    for recipe in workloads.valuated_recipes(seed, small=False):
        cx = recipe.make().complex_
        yield cx
        for kind in (workloads.DROP, workloads.DOUBLE):
            yield workloads.mutate(cx, kind)


def benchmark_tree_line(n):
    """The valuated_complexes benchmark's tree line with leaves 1..n in order."""
    return _benchmark_workloads().tree_line(n, list(range(1, n + 1))).complex_


def holed_tree_line(n):
    """`benchmark_tree_line(n)` with its first bounded cell dropped, so the
    segment between that cell's vertices leaves the support."""
    tree = benchmark_tree_line(n)
    gone = next(c for c in tree.cells if not c.poly.rays)
    keep = [c for c in tree.cells if c is not gone]
    return WeightedComplex(n, keep, [1] * len(keep), validate=False)


def coverage_corpus():
    """(name, complex) of seeded complexes whose cells are mostly not
    alcoved: a random polytope alone; a box split along a hyperplane that
    is no coordinate difference, so neither half is alcoved but their union
    is a polytrope and tropically convex; a random polytope beside a far
    box; and the classical segment from (0, 0, 0) to (0, 1, 2)."""
    rng = random.Random(733)

    def polytope(m):
        verts = [tuple(rand_rational(rng, 3, 2) for _ in range(m)) for _ in range(rng.randint(1, 4))]
        return Polyhedron(m, verts)

    def box(m, corner, side):
        return Polyhedron(m, list(product(*[(c, c + side) for c in corner])))

    for k in range(6):
        n = rng.randint(3, 4)
        yield f"random polytope #{k}", WeightedComplex(n, [Cell(n, polytope(n - 1))], [1])
    for k in range(4):
        n = 3 + k % 2
        a = (1, 2) if n == 3 else (2, -1, 1)
        b = sum(a) + Fraction(rng.randint(-1, 1), 2)
        pieces = box(n - 1, (0,) * (n - 1), 2).split(a, b)
        yield f"split box #{k}", WeightedComplex(n, [Cell(n, p) for p in pieces], [1, 1])
    for k in range(4):
        n = rng.randint(3, 4)
        cells = [Cell(n, polytope(n - 1)), Cell(n, box(n - 1, (9,) * (n - 1), rng.randint(1, 3)))]
        yield f"polytope and far box #{k}", WeightedComplex(n, cells, [1, 1])
    yield "classical segment", WeightedComplex(3, [Cell.from_torus(3, [(0, 0, 0), (0, 1, 2)])], [1])


def coverage_complexes():
    """(name, complex) of every complex whose probe with 50 samples and
    seed 7 and whose segment coverage are pinned: the seeded complexes of
    `coverage_corpus`, mostly of cells that are not alcoved, and the tree
    lines and holed tree lines n = 4..7, whose cells all are."""
    yield from coverage_corpus()
    for n in range(4, 8):
        yield f"tree line n={n}", benchmark_tree_line(n)
        yield f"holed tree line n={n}", holed_tree_line(n)


def coverage_pairs(complex_, seed):
    """Seeded point pairs for segment coverage: the first ten pairs of
    structure vertices, 30 pairs drawn from seeded cells by `_sample`, and
    five pairs of random points, which mostly lie outside the support."""
    rng = random.Random(seed)
    pairs = list(combinations(_structure_vertices(complex_), 2))[:10]
    for _ in range(30):
        a, b = rng.choice(complex_.cells), rng.choice(complex_.cells)
        pairs.append(
            (_scaled_point(*_sample(a, rng)), _scaled_point(*_sample(b, rng)))
        )
    pairs += [(rand_point(rng, complex_.n, 3), rand_point(rng, complex_.n, 3)) for _ in range(5)]
    return pairs


def benchmark_valuated_matroids(seed):
    """The valuated matroids of the valuated_complexes benchmark's cases."""
    workloads = _benchmark_workloads()
    for recipe in workloads.valuated_recipes(seed, small=False):
        yield recipe.make().valuated


def benchmark_valuated_cases(seed):
    """(valuated matroid, complex, its mutant or None) for each case of the
    valuated_complexes benchmark for a seed."""
    workloads = _benchmark_workloads()
    for recipe in workloads.valuated_recipes(seed, small=False):
        case = recipe.make()
        mutant = recipe.mutant and workloads.mutate(case.complex_, recipe.mutant)
        yield case.valuated, case.complex_, mutant


def _int_det(rows) -> int:
    """Determinant of a square integer matrix by Laplace expansion."""
    if not rows:
        return 1
    return sum(
        (-1) ** k * x * _int_det([r[:k] + r[k + 1 :] for r in rows[1:]])
        for k, x in enumerate(rows[0])
        if x
    )


def _v2(x: int) -> int:
    return (x & -x).bit_length() - 1


def random_v2_matrix(rng: random.Random, rank: int, n: int) -> list[list[int]]:
    """A seeded random integer rank x n matrix of full rank, no column zero."""
    while True:
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(rank)]
        if all(any(col) for col in zip(*a)) and _int_det([row[:rank] for row in a]):
            return a


def v2_det_valuated(a) -> ValuatedMatroid:
    """w(B) = -v_2(det A_B) on the matroid of the integer matrix A: the
    valuation of a generic point of a Grassmannian over the 2-adic numbers."""
    rank, n = len(a), len(a[0])
    weights = {}
    for b in combinations(range(n), rank):
        d = _int_det([[row[i] for i in b] for row in a])
        if d:
            weights[frozenset(i + 1 for i in b)] = -_v2(d)
    return ValuatedMatroid(matroid_from_bases(n, weights), weights)


def v2_row_point(rng: random.Random, a) -> TropPoint:
    """-v_2 of a seeded integer combination of the rows of A with no zero
    entry; a point of the tropical linear space of `v2_det_valuated(a)`."""
    while True:
        c = [rng.randint(-9, 9) for _ in a]
        x = [sum(k * row[i] for k, row in zip(c, a)) for i in range(len(a[0]))]
        if all(x):
            return TropPoint(-_v2(v) for v in x)


def circuit_vector_from_pair(valuated, circuit, basis, element):
    """The valuation vector of a circuit from one (basis, element) pair whose
    fundamental circuit it is, in Fraction arithmetic: 0 at the element and
    w(B - j + e) - w(B) at each other j of the circuit, shifted so the least
    finite entry is 0, each entry an int where integral."""
    entries = [None] * valuated.n
    entries[element - 1] = 0
    for j in circuit - {element}:
        entries[j - 1] = valuated.weights[(basis - {j}) | {element}] - valuated.weights[basis]
    low = min(e for e in entries if e is not None)
    return tuple(None if e is None else _frac(e - low) for e in entries)


def member_by_circuit_maxima(valuated, x) -> bool:
    """`member` by scanning the circuits: on each, the maximum of
    x_i + (v_C)_i must be attained at least twice."""
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


def check_circuit_axioms(n: int, circuit_vectors) -> CircuitAxiomCheck:
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
                    if not _eliminates(vectors, vc, vc2, i, j):
                        return CircuitAxiomCheck(False, "elimination", (c, c2, i, j))
    return CircuitAxiomCheck(True)


def _eliminates(vectors, vc, vc2, i, j) -> bool:
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


def _nmax(a, b):
    return a if b is None or (a is not None and a >= b) else b


def comparison_hyperplanes(valuated):
    """The distinct hyperplanes x_i + (v_C)_i = x_j + (v_C)_j, for i < j in a
    circuit C, as (a, b) with a.x = b in quotient coordinates, in the order of
    their first appearance over the circuits."""
    out = {}
    for circuit, vec in valuated.circuit_valuations.items():
        members = sorted(circuit)
        for idx, i in enumerate(members):
            for j in members[idx + 1 :]:
                out[coordinate_difference(valuated.n, i, j), vec[j - 1] - vec[i - 1]] = None
    return list(out)


def certify_cell_by_refinement(valuated, cell, budget=DEFAULT_BUDGET) -> bool:
    """`certify_cell` by refining the cell along every comparison hyperplane:
    on each full piece the winner pattern is constant, so one relative
    interior point per piece decides it, and membership is a closed
    condition, which settles the piece boundaries as well."""
    for piece in refine(cell.poly, comparison_hyperplanes(valuated), budget):
        x = from_quotient(piece.relative_interior_point())
        if not member_by_circuit_maxima(valuated, x):
            return False
    return True


def certify_cell_by_fraction_extents(valuated, cell) -> bool:
    """`certify_cell` with the maxima of x_i - x_j over the cell rebuilt in
    Fraction arithmetic from its vertices, rays and lineality for every call,
    and each sector bound (v_C)_j - (v_C)_i computed where it is compared."""
    n, poly = valuated.n, cell.poly
    verts = [(0,) + v for v in poly.vertices]
    dirs = [(0,) + d for d in poly.rays + poly.lineality + tuple(map(_neg, poly.lineality))]
    # top[i][j] is the max over P of x_i - x_j, or None where it is unbounded
    top = [
        [None if any(d[i] > d[j] for d in dirs) else max(v[i] - v[j] for v in verts) for j in range(n)]
        for i in range(n)
    ]
    for circuit, vec in valuated.circuit_valuations.items():
        for i in sorted(circuit):
            others, row = sorted(circuit - {i}), top[i - 1]
            if any(row[j - 1] is not None and row[j - 1] <= vec[j - 1] - vec[i - 1] for j in others):
                continue
            sector = [_row(coordinate_difference(n, j, i), vec[i - 1] - vec[j - 1]) for j in others]
            eqs, ineqs = poly._rows
            q = _from_rows(n - 1, eqs, ineqs + sector)
            if q is not None and not any(all(vec_dot(r, g) == 0 for g in q._gens) for r in sector):
                return False
    return True


def certify_cell_by_sector_scan(valuated, cell) -> bool:
    """`certify_cell` with the cell's extents compared with the bounds of
    every sector in turn, instead of one bisection per pair of coordinates
    in the sector index."""
    n, poly = valuated.n, cell.poly
    scale, top = poly.extents
    big, sectors, _ = valuated._sector_bounds
    vecs = [vec for c, vec in valuated.circuit_valuations.items() for _ in c]
    for vec, (i, bounds) in zip(vecs, sectors, strict=True):
        row = top[i - 1]
        if any(row[j - 1] is not None and row[j - 1] * big <= b * scale for j, b in bounds):
            continue
        sector = [_row(coordinate_difference(n, j, i), vec[i - 1] - vec[j - 1]) for j, _ in bounds]
        eqs, ineqs = poly._rows
        q = _from_rows(n - 1, eqs, ineqs + sector)
        if q is not None and not any(all(vec_dot(r, g) == 0 for g in q._gens) for r in sector):
            return False
    return True


def generators_with_negated_equations(m, eq_rows, ineq_rows):
    """`polyhedra._generators` with each equation given to `_dd` as two
    inequalities, the row and its negation."""
    rows = [s for r in eq_rows for s in (r, _neg(r))]
    rows.append((0,) * m + (-1,))
    lin, gens = _dd(rows + ineq_rows, m + 1)
    verts = [
        tuple(x // g[m] if x % g[m] == 0 else Fraction(x, g[m]) for x in g[:m])
        for g in gens
        if g[m]
    ]
    if not verts:
        return None
    return verts, [g[:m] for g in gens if not g[m]], [l[:m] for l in lin]


def difference_row(n, i, j, q, c):
    """The difference (i, j, q, c), q*(x_i - x_j) + c*t at 0-based torus
    positions, as an integer row in quotient coordinates."""
    r = [0] * n
    r[i] += q
    r[j] -= q
    return tuple(r[1:]) + (c,)


def extents_polyhedron(cell):
    """The polyhedron of the bounds x_i - x_j <= T_ij/L over the finite
    entries of the cell's `extents` (L, T): the cell itself exactly when it
    is alcoved, cut out by some bounds on coordinate differences, since
    each of those is at least the maximum T_ij/L."""
    n, (scale, top) = cell.n, cell.poly.extents
    rows = [
        difference_row(n, i, j, scale, -t)
        for i, row in enumerate(top)
        for j, t in enumerate(row)
        if t is not None and i != j
    ]
    return _from_rows(n - 1, [], rows)


def rand_rational(rng: random.Random, span: int = 8, denominators: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, denominators))


def rand_point(rng: random.Random, n: int, span: int = 8) -> TropPoint:
    return TropPoint(rand_rational(rng, span) for _ in range(n))


def in_hull(target, verts, rays=(), lineality=()) -> bool:
    """Is target in conv(verts) + cone(rays) + span(lineality)?  Decided by
    an exact LP over the generator coefficients."""
    gens = list(verts) + list(rays) + list(lineality)
    gens += [tuple(-x for x in l) for l in lineality]
    k = len(gens)
    eqs = [
        (tuple(Fraction(g[i]) for g in gens), Fraction(t)) for i, t in enumerate(target)
    ]
    eqs.append((tuple(Fraction(int(j < len(verts))) for j in range(k)), Fraction(1)))
    ineqs = [
        (tuple(Fraction(-int(i == j)) for j in range(k)), Fraction(0)) for i in range(k)
    ]
    return lp_feasible(k, ineqs, eqs).feasible


# Gauss-Jordan elimination over Fraction, and the rank, nullspace and
# solution it gave before linalg read them off the integer Hermite normal form.


def rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    mat = [list(map(Fraction, r)) for r in rows]
    pivots: list[int] = []
    r = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rref_rank(rows) -> int:
    return len(rref(rows)[0])


def rref_nullspace(rows, cols: int) -> list[tuple[Fraction, ...]]:
    """Basis of {x : rows . x = 0}, one vector per free column: 1 there and
    0 at the other free columns."""
    red, pivots = rref(rows)
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(tuple(v))
    return basis


def rref_solve(rows, rhs) -> tuple[Fraction, ...] | None:
    """The solution of rows . x = rhs that is 0 at every free column, or None."""
    cols = len(rows[0]) if rows else 0
    red, pivots = rref([list(r) + [b] for r, b in zip(rows, rhs)])
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, p in enumerate(pivots):
        x[p] = red[r][-1]
    return tuple(x)


# Diagonalisation over Z, and the saturation and lattice quotient generator it
# gave before linalg read them off the Hermite normal form and the extended
# Euclidean algorithm.


def diagonalize_integer_matrix(matrix):
    """Diagonalize over Z by unimodular row/column operations.

    Returns (diag, Vinv) where U @ A @ V is diagonal with positive entries
    `diag` and Vinv is the inverse of the accumulated column transform.  The
    divisibility chain of full Smith normal form is not enforced; saturation
    and torsion detection only need diagonality.
    """
    a = [list(r) for r in matrix]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    vinv = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in a:
            row[i] -= q * row[j]
        vinv[j] = [x + q * y for x, y in zip(vinv[j], vinv[i])]

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def col_negate(i):
        for row in a:
            row[i] = -row[i]
        vinv[i] = [-x for x in vinv[i]]

    t = 0
    while t < min(nrows, ncols):
        entries = [
            (abs(a[i][j]), i, j)
            for i in range(t, nrows)
            for j in range(t, ncols)
            if a[i][j]
        ]
        if not entries:
            break
        _, pi, pj = min(entries)
        a[t], a[pi] = a[pi], a[t]
        col_swap(t, pj)
        # Euclid down column t, then along row t, each time on the smallest
        # entry; reducing against a pivot that is not the smallest lets the
        # other entries grow without bound
        while True:
            while any(a[i][t] for i in range(t + 1, nrows)):
                _, pi = min((abs(a[i][t]), i) for i in range(t, nrows) if a[i][t])
                a[t], a[pi] = a[pi], a[t]
                for i in range(t + 1, nrows):
                    if a[i][t]:
                        row_op(i, t, a[i][t] // a[t][t])
            if not any(a[t][j] for j in range(t + 1, ncols)):
                break
            # a column swap can refill column t, hence the outer loop
            while any(a[t][j] for j in range(t + 1, ncols)):
                _, pj = min((abs(a[t][j]), j) for j in range(t, ncols) if a[t][j])
                col_swap(t, pj)
                for j in range(t + 1, ncols):
                    if a[t][j]:
                        col_op(j, t, a[t][j] // a[t][t])
        if a[t][t] < 0:
            col_negate(t)
        t += 1
    diag = [a[i][i] for i in range(t)]
    return diag, vinv


def diagonal_saturate_rows(rows):
    """Basis of (rational row span) intersected with the integer lattice."""
    mat = [tuple(int(x) for x in r) for r in rows if not vec_is_zero(r)]
    if not mat:
        return []
    diag, vinv = diagonalize_integer_matrix(mat)
    k = len([d for d in diag if d != 0])
    return hermite_normal_form([tuple(vinv[i]) for i in range(k)])


def diagonal_quotient_generator(big_basis, sub_basis):
    """Generator of Lambda_big / Lambda_sub when the quotient is infinite
    cyclic, for saturated bases of ranks d and d-1; unsigned."""
    d = len(big_basis)
    if len(sub_basis) != d - 1:
        raise InvalidInputError("quotient is not of rank one")
    if not sub_basis:
        return tuple(big_basis[0])
    # sub-basis coordinates in the big basis; integral for saturated inputs
    coord_rows = []
    for s in sub_basis:
        sol = solve_exact([list(col) for col in zip(*big_basis)], list(s))
        if sol is None:
            raise InvalidInputError("sub lattice not contained in big lattice")
        if any(Fraction(x).denominator != 1 for x in sol):
            raise InvalidInputError("sub lattice not saturated in big lattice")
        coord_rows.append(tuple(int(x) for x in sol))
    diag, vinv = diagonalize_integer_matrix(coord_rows)
    if any(x != 1 for x in diag):
        raise InvalidInputError("quotient has torsion; face lattice not saturated")
    gen_coords = vinv[d - 1]
    out = [0] * len(big_basis[0])
    for coef, row in zip(gen_coords, big_basis):
        for idx, val in enumerate(row):
            out[idx] += coef * val
    return tuple(out)


# The predicates below loop over vertices, rays and lineality separately in
# Fraction arithmetic over hrep's (a, b) pairs; the kernel evaluates integer
# rows on homogenised integer generators instead.


def contains_polyhedron(poly, other) -> bool:
    eqs, ineqs = poly.hrep

    def contains(p):
        return all(vec_dot(a, p) == b for a, b in eqs) and all(
            vec_dot(a, p) <= b for a, b in ineqs
        )

    def contains_direction(d):
        return all(vec_dot(a, d) == 0 for a, b in eqs) and all(
            vec_dot(a, d) <= 0 for a, b in ineqs
        )

    return all(contains(v) for v in other.vertices) and all(
        contains_direction(r) for r in other.rays
    ) and all(
        contains_direction(l) and contains_direction([-x for x in l])
        for l in other.lineality
    )


def halfspace_status(poly, a, b) -> int:
    """-1 if poly lies in a.x <= b, else +1 if it lies in a.x >= b, else 0."""
    has_pos = False
    has_neg = False
    for v in poly.vertices:
        s = vec_dot(a, v) - b
        has_pos |= s > 0
        has_neg |= s < 0
    for r in poly.rays:
        s = vec_dot(a, r)
        has_pos |= s > 0
        has_neg |= s < 0
    for l in poly.lineality:
        s = vec_dot(a, l)
        has_pos |= s != 0
        has_neg |= s != 0
    if not has_pos:
        return -1
    if not has_neg:
        return 1
    return 0


def segment_interval(poly, start, direction):
    """Parameters t in [0,1] with start + t*direction inside poly."""
    lo = Fraction(0)
    hi = Fraction(1)
    eqs, ineqs = poly.hrep
    for a, b in eqs:
        base = vec_dot(a, start)
        slope = vec_dot(a, direction)
        if slope == 0:
            if base != b:
                return None
        else:
            t = Fraction(b - base) / slope
            lo = max(lo, t)
            hi = min(hi, t)
    for a, b in ineqs:
        base = vec_dot(a, start)
        slope = vec_dot(a, direction)
        if slope == 0:
            if base > b:
                return None
        elif slope > 0:
            hi = min(hi, Fraction(b - base) / slope)
        else:
            lo = max(lo, Fraction(b - base) / slope)
    if lo > hi:
        return None
    return (lo, hi)


def reference_cell(n, vertices, rays=(), lineality=()) -> Cell:
    """A cell from torus generators through the normalising constructor,
    as `Cell.from_torus` built every cell before braid cones were read as
    given."""
    verts = [to_quotient(v if isinstance(v, TropPoint) else TropPoint(v)) for v in vertices]
    qrays = [r for r in map(direction_to_quotient, rays) if not vec_is_zero(r)]
    qlin = [l for l in map(direction_to_quotient, lineality) if not vec_is_zero(l)]
    return Cell(n, Polyhedron(n - 1, verts, qrays, qlin))


def cell_to_json_via_points(cell, weight=None) -> dict:
    """A cell's JSON written through `Cell.vertices`, `point_to_json` and
    `vector_to_json`, a torus point per vertex and a lifted tuple per ray."""
    out = {
        "vertices": [point_to_json(v) for v in cell.vertices],
        "rays": [vector_to_json(r) for r in cell.rays],
    }
    if cell.lineality:
        out["lineality"] = [vector_to_json(l) for l in cell.lineality]
    if weight is not None:
        out["weight"] = weight
    return out


def primitive_normal_by_tight_rows(sigma, tau):
    """`primitive_normal` with the facet's row found among the facet rows of
    sigma tight on every generator of tau, as the one whose face is tau."""
    sp, tp = sigma.poly, tau.poly
    if sp.dim != tp.dim + 1 or not sp.contains_polyhedron(tp):
        raise InvalidInputError("second argument is not a facet of the first")
    cutting = next(
        (r for r in sp._tight(tp._gens) if sp._face([r]).canonical_key == tp.canonical_key),
        None,
    )
    if cutting is None:
        raise InvalidInputError("second argument is not a facet of the first")
    return lift_direction(lattice_quotient_generator(sp.lattice_basis, cutting[:-1]))


def validate_common_faces(cells) -> None:
    """Pairwise validation of maximal cells: every nesting test, then every
    common-face test, over all pairs; braid cones are nested exactly when
    their chains are, and always meet in a common face."""

    def nested(a, b):
        if a.chain is None or b.chain is None:
            return a.poly.contains_polyhedron(b.poly) or b.poly.contains_polyhedron(a.poly)
        return set(a.chain) <= set(b.chain) or set(b.chain) <= set(a.chain)

    for a, b in combinations(cells, 2):
        if nested(a, b):
            raise InvalidInputError("maximal cells must not contain one another")
    for a, b in combinations(cells, 2):
        if (a.chain is None or b.chain is None) and not _meet_in_common_face(
            a.poly, b.poly
        ):
            raise InvalidInputError("cells do not intersect in a common face")


# Segment coverage piece by piece over `points.segment`: every constraint row
# of every cell evaluated at both ends of every piece, with the parameter
# interval of each cell built in Fraction.


def segment_interval_of_rows(poly, p, q):
    """Parameters t in [0,1] with (1 - t)*p + t*q in the homogenised cone of
    the polyhedron, for integer vectors p and q with the same last entry."""
    lo_n, lo_d, hi_n, hi_d = 0, 1, 1, 1
    for r in poly._constraints:
        rp, rq = vec_dot(r, p), vec_dot(r, q)
        if rp == rq:
            if rp > 0:
                return None
        elif rq > rp:
            if -rp * hi_d < hi_n * (rq - rp):
                hi_n, hi_d = -rp, rq - rp
        elif rp * lo_d > lo_n * (rp - rq):
            lo_n, lo_d = rp, rp - rq
    if lo_n * hi_d > hi_n * lo_d:
        return None
    return (Fraction(lo_n, lo_d), Fraction(hi_n, hi_d))


def _first_gap(intervals) -> Fraction | None:
    """A rational in the earliest part of [0,1] not covered by the intervals."""
    covered_to: Fraction | None = None
    for lo, hi in sorted(intervals):
        if covered_to is None:
            if lo > 0:
                return Fraction(0)
            covered_to = hi
        elif lo > covered_to:
            return (covered_to + lo) / 2
        else:
            covered_to = max(covered_to, hi)
        if covered_to >= 1:
            return None
    if covered_to is None:
        return Fraction(0)
    return (covered_to + 1) / 2


def segment_in_support_per_cell(complex_, x, y) -> SegmentCheck:
    """Is the tropical segment between two points inside the support?"""
    points = segment(x, y)
    if len(points) == 1:
        if complex_.support_contains(x):
            return SegmentCheck(True)
        return SegmentCheck(False, Fraction(0), x)
    pieces = len(points) - 1
    for j in range(pieces):
        start = to_quotient(points[j])
        end = to_quotient(points[j + 1])
        lifted = _lift(start + end + (1,))
        p, q = lifted[: len(start)] + lifted[-1:], lifted[len(start) :]
        intervals = []
        for cell in complex_.cells:
            iv = segment_interval_of_rows(cell.poly, p, q)
            if iv is not None:
                intervals.append(iv)
        gap = _first_gap(intervals)
        if gap is not None:
            direction = tuple(e - s for s, e in zip(start, end))
            global_param = Fraction(j, pieces) + gap / pieces
            witness = from_quotient(tuple(s + gap * d for s, d in zip(start, direction)))
            return SegmentCheck(False, global_param, witness)
    return SegmentCheck(True)


def closure_flats(matroid):
    """All flats of a matroid, by closing every subset of its ground set."""
    return frozenset(
        s
        for size in range(matroid.n + 1)
        for s in map(frozenset, combinations(sorted(matroid.ground), size))
        if matroid.closure(s) == s
    )


def subset_circuits(matroid):
    """The minimal dependent sets of a matroid, by testing every subset of
    size at most rank + 1 in increasing size."""
    found = []
    for size in range(1, matroid.rank + 2):
        for c in map(frozenset, combinations(sorted(matroid.ground), size)):
            if not matroid.is_independent(c) and not any(prev <= c for prev in found):
                found.append(c)
    return frozenset(found)


def constraint_row_table(complex_):
    """`WeightedComplex._row_table` over every cell's `poly._constraints`,
    braid cones included, with every row dense: each is evaluated by a dot
    product over all quotient coordinates."""
    index = {}
    cell_rows = []
    for cell in complex_.cells:
        pairs = []
        for r in cell.poly._constraints:
            s = 1 if next(x for x in r if x) > 0 else -1
            pairs.append((index.setdefault(r if s > 0 else _neg(r), len(index)), s))
        cell_rows.append(pairs)
    return RowTable([], list(index), cell_rows)


def table_rows(table, c, n):
    """The rows of cell c of a `RowTable` as integer rows in quotient
    coordinates, each r standing for r.(x, 1) <= 0."""
    rows = []
    for k, s in table.pairs[c]:
        if k < len(table.diffs):
            r = difference_row(n, *table.diffs[k])
        else:
            r = table.dense[k - len(table.diffs)]
        rows.append(tuple(s * x for x in r))
    return rows


def uncovered_piece_by_keys(table, d, ends):
    """The first piece j of a tropical segment, given by its integer
    breakpoints over d, with a point outside the cells of a row table, and
    the parameter in [0, 1] of the first such point on it, or None: the
    piece search that `complexes._segment_check` replaced, on the keys of
    each cell's rows, index for sign 1 and ~index for -1, with no polytrope
    lemma.  A cell meets the segment when none of its keys is positive at
    every breakpoint, contains a piece when none is positive at either end,
    and the intervals of the meeting cells are swept on every piece that
    none contains."""
    keys = [frozenset(k if s > 0 else ~k for k, s in p) for p in table.pairs]
    values = [table.values(b, d) for b in ends]
    positive = [{k if v > 0 else ~k for k, v in enumerate(vals) if v} for vals in values]
    everywhere = set.intersection(*positive)
    meeting = [c for c, cell_keys in enumerate(keys) if cell_keys.isdisjoint(everywhere)]
    if len(ends) == 1:
        return None if meeting else (0, 0)
    for j in range(len(ends) - 1):
        outside = positive[j] | positive[j + 1]
        if any(keys[c].isdisjoint(outside) for c in meeting):
            continue
        intervals = []
        for c in meeting:
            iv = _cell_interval(table.pairs[c], values[j], values[j + 1])
            if iv is not None:
                intervals.append(iv)
        gap = _table_first_gap(intervals)
        if gap is not None:
            return j, gap
    return None


def sample_by_randint(cell, rng):
    """`recognize._sample` with the vertex's denominators read off the
    vertex, not its generator, and every draw made with `randint`."""
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


def probe_drawing_first(complex_, samples, seed):
    """`convexity_probe` with every sample drawn before any pair is checked,
    each as the point `_sample` draws, and every pair, vertex pairs first,
    checked with `segment_in_support_per_cell`."""
    pairs = list(combinations(_structure_vertices(complex_), 2))
    rng = random.Random(seed)
    for _ in range(samples):
        ca = complex_.cells[rng.randrange(len(complex_.cells))]
        cb = complex_.cells[rng.randrange(len(complex_.cells))]
        a = _scaled_point(*_sample(ca, rng))
        pairs.append((a, _scaled_point(*_sample(cb, rng))))
    for a, b in pairs:
        check = segment_in_support_per_cell(complex_, a, b)
        if not check.covered:
            return ProbeResult(True, (a, b), check)
    return ProbeResult(False)


def derivations(valuated, circuit):
    """All (basis, element) pairs whose fundamental circuit is the given one."""
    matroid = valuated.matroid
    if circuit not in matroid.circuits:
        raise InvalidInputError(f"{sorted(circuit)} is not a circuit")
    pairs = []
    for i in sorted(circuit):
        rest = circuit - {i}
        for b in _sorted_sets(matroid.bases):
            if rest <= b and i not in b:
                # b + i holds this circuit, the only circuit it holds
                pairs.append((b, i))
    return pairs


def fundamental_pairs(valuated):
    """Each circuit, in sorted order, with its first pair in `derivations`:
    elements of the circuit ascending, then bases in sorted order."""
    for c in _sorted_sets(valuated.matroid.circuits):
        yield c, *derivations(valuated, c)[0]


def scaled(values):
    """(L, [L * x for x in values]) for L the least common denominator."""
    scale = lcm(*(x.denominator for x in values))
    return scale, [x.numerator * (scale // x.denominator) for x in values]


def circuit_valuations_by_search(valuated):
    """`circuit_valuations` with each vector from its `fundamental_pairs`
    pair, on the weights `scaled` to integers: 0 at the element and
    w(B - j + e) - w(B) at each other j of the circuit, less the least
    entry, over the scale, an int where integral."""
    big, values = scaled(list(valuated.weights.values()))
    w = dict(zip(valuated.weights, values))
    out = {}
    for circuit, basis, element in fundamental_pairs(valuated):
        entries = [None] * valuated.n
        entries[element - 1] = 0
        for j in circuit - {element}:
            entries[j - 1] = w[(basis - {j}) | {element}] - w[basis]
        low = min(x for x in entries if x is not None)
        out[circuit] = tuple(None if x is None else _frac(Fraction(x - low, big)) for x in entries)
    return out


def rank_by_bases(matroid, subset) -> int:
    """The most elements of the subset that one basis holds."""
    s = frozenset(subset)
    return max(len(b & s) for b in matroid.bases)


def closure_by_rank_scan(matroid, subset):
    """The subset with every element of the ground set outside it whose
    addition keeps the rank (`rank_by_bases`)."""
    s = frozenset(subset)
    r = rank_by_bases(matroid, s)
    return s | frozenset(g for g in matroid.ground - s if rank_by_bases(matroid, s | {g}) == r)


def fundamental_circuit(matroid, basis, element):
    """The unique circuit inside basis + element, for element not in basis:
    the element and every j of the basis that it can replace."""
    return frozenset({element}) | frozenset(
        j for j in basis if (basis - {j}) | {element} in matroid.bases
    )


def frozenset_covers(sets):
    """Each member, in `_sorted_sets` order, with the minimal members that
    properly contain it, in the same order."""
    ordered = _sorted_sets(sets)
    out = {}
    for i, f in enumerate(ordered):
        # a member between f and g comes before g, so some cover of f is below g
        out[f] = covers = []
        for g in ordered[i + 1 :]:
            if f < g and not any(h < g for h in covers):
                covers.append(g)
    return out


def proper_members(family):
    return _sorted_sets(s for s in family.sets if s and s != family.ground)


def all_chains(family):
    """All chains of proper nonempty members, in deterministic order.

    The empty chain is included; every chain implicitly ends at the
    ground set.
    """
    proper = proper_members(family)
    out = []

    def extend(prefix, start):
        out.append(prefix)
        for idx in range(start, len(proper)):
            cand = proper[idx]
            if not prefix or prefix[-1] < cand:
                extend(prefix + (cand,), idx + 1)

    extend((), 0)
    return out


def filtered_maximal_chains(family):
    """The chains of `all_chains` that admit no single-member insertion."""
    proper = proper_members(family)

    def extendable(chain):
        bounds = [(frozenset(), chain[0] if chain else None)]
        for i in range(len(chain)):
            upper = chain[i + 1] if i + 1 < len(chain) else None
            bounds.append((chain[i], upper))
        for lo, hi in bounds:
            for g in proper:
                if lo < g and (hi is None or g < hi):
                    return True
        return False

    return [c for c in all_chains(family) if not extendable(c)]


def flat_family_check(n, sets):
    """The flat axioms with the minimal members above each member found by
    scanning all members above it."""
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
        seen = set()
        for g in minimal:
            diff = g - f
            if diff & seen:
                return FlatFamilyCheck(False, "partition", (f, g))
            seen |= diff
        if seen != ground - f:
            return FlatFamilyCheck(False, "partition", (f, frozenset(ground - f - seen)))
    return FlatFamilyCheck(True)


def height_table_bases(family):
    """The bases of a valid flat family: the rank of the ground set is its
    height in the flat lattice, and a basis is a rank-sized set that closes
    up to the ground set."""
    ground = family.ground
    flats = _sorted_sets(set(family.sets) | {frozenset()})
    height = {}
    for f in flats:
        below = [height[g] for g in flats if g < f and g in height]
        height[f] = 1 + max(below) if below else 0

    def closure(s):
        out = ground
        for f in flats:
            if s <= f:
                out &= f
        return out

    return frozenset(
        frozenset(c)
        for c in combinations(sorted(ground), height[ground])
        if closure(frozenset(c)) == ground
    )


def is_balanced_by_rays(complex_) -> BalanceCheck:
    """`is_balanced` with a braid cone's facets keyed by its generators: the
    facet dropping ray u has the key (m, (v,), the other rays, ()), the key
    the geometric faces of other cells get, and primitive inward normal u.
    Each face's weighted sum of normals is tested in sorted key order, a
    braid cone's by `in_braid_span` and any other by the face's span."""
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
            ok = in_braid_span(key[2], total)
        else:
            ok = in_span(face._span, (0, *total))
        if not ok:
            face = face or Polyhedron._minimal(key[0], key[1], key[2])
            return BalanceCheck(False, Cell(complex_.n, face))
    return BalanceCheck(True)


def in_braid_span(rays, vec) -> bool:
    """Is vec in the span of the rays of a braid cone?  Modulo the all-ones
    line that span is the vectors constant on each block of the ordered
    partition cut out by the cone's chain, and two positions share a block
    exactly when every ray takes the same value at both."""
    lifted = [lift_direction(r) for r in rays]
    value: dict = {}
    for i, x in enumerate(lift_direction(vec)):
        if value.setdefault(tuple(r[i] for r in lifted), x) != x:
            return False
    return True


def check_pluecker_all_pairs(matroid, weights) -> PlueckerCheck:
    """The exchange axiom over every ordered pair of bases B1, B2 and every
    u in B1 - B2, in `_sorted_sets` order and u ascending."""
    w = _normalized_weights(matroid, weights)
    ordered = _sorted_sets(matroid.bases)
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
                    return PlueckerCheck(False, (b1, b2, u))
    return PlueckerCheck(True)


def recognize_fan_balancing_first(complex_, budget=DEFAULT_BUDGET):
    """`recognize_fan` with every fan balanced before its chambers are read,
    and its flat axioms checked on the family's sets."""
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
    n, d = complex_.n, complex_.dim
    chambers = set()
    for piece in _braid_pieces(complex_, budget):
        chain = piece.chain
        if chain is None:
            point = from_quotient(piece.poly.relative_interior_point())
            chain = chn_cell_of(point)[:-1]
            if len(chain) > d:
                return _reject(REASON_HET, point)
        chambers.add(chain)
    family = ChainFamily(n, {frozenset(range(1, n + 1))}.union(*chambers))
    check = verify_flat_family(n, family.sets)
    if not check.ok:
        return _reject(REASON_FLAT_AXIOM, (check.axiom, check.witness))
    for chain in family.maximal_chains():
        if chain not in chambers:
            witness = TropPoint(-sum(i in f for f in chain) for i in range(1, n + 1))
            return _reject(REASON_SUPPORT, witness)
    return _accept(_flat_matroid(family), _sorted_sets(family.sets))
