"""Shared fixtures: small matroids, their fans, and valuated-matroid complexes,
plus an LP hull oracle independent of the polyhedron kernel, the
Fraction-valued predicates the kernel's integer form replaced, the Fraction
row reduction and the integer diagonalisation the Hermite normal form
replaced, the pairwise complex validation that chain lookup replaced, the
per-cell segment coverage test, with its Fraction gap sweep, that the row
table of a complex replaced, the fundamental circuit by basis exchange, and
the chain enumeration, flat-axiom check and height-table rank that the cover
relation of `matroids._covers` replaced, the flats of a matroid by the
closure of every subset, which the walk up the covers of `Matroid.flats`
replaced, the circuits of a matroid by a scan of the small subsets, which
the fundamental circuits of `Matroid.circuits` replaced, and the row table
of a complex from its polyhedra's rows, which the chain rows of braid cones
in `Cell._constraints` replaced, and the flat family of a fan by probing
every subset, which reading the rays of its braid pieces replaced."""

import importlib.util
import random
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from troplin.complexes import (
    Cell,
    SegmentCheck,
    WeightedComplex,
    _meet_in_common_face,
    chain_fan,
    direction_to_quotient,
    from_quotient,
    to_quotient,
)
from troplin.errors import InvalidInputError
from troplin.linalg import hermite_normal_form, solve_exact, vec_dot, vec_is_zero
from troplin.lp import lp_feasible
from troplin.matroids import (
    ChainFamily,
    FlatFamilyCheck,
    _sorted_sets,
    enumerate_matroids,
    matroid_from_bases,
)
from troplin.points import TropPoint, flat_direction, segment
from troplin.polyhedra import Polyhedron, _lift, _neg
from troplin.valuated import ValuatedMatroid


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


def benchmark_tree_line(n):
    """The valuated_complexes benchmark's tree line with leaves 1..n in order."""
    return _benchmark_workloads().tree_line(n, list(range(1, n + 1))).complex_


def benchmark_valuated_matroids(seed):
    """The valuated matroids of the valuated_complexes benchmark's cases."""
    workloads = _benchmark_workloads()
    for recipe in workloads.valuated_recipes(seed, small=False):
        yield recipe.make().valuated


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
            witness = from_quotient(
                complex_.n,
                tuple(s + gap * d for s, d in zip(start, direction)),
            )
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
    braid cones included."""
    index = {}
    cell_rows = []
    for cell in complex_.cells:
        pairs = []
        for r in cell.poly._constraints:
            s = 1 if next(x for x in r if x) > 0 else -1
            pairs.append((index.setdefault(r if s > 0 else _neg(r), len(index)), s))
        cell_rows.append(pairs)
    return list(index), cell_rows


def fundamental_circuit(matroid, basis, element):
    """The unique circuit inside basis + element, for element not in basis:
    the element and every j of the basis that it can replace."""
    return frozenset({element}) | frozenset(
        j for j in basis if (basis - {j}) | {element} in matroid.bases
    )


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
