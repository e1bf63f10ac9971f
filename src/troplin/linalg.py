"""Exact linear algebra over the rationals and integer lattice utilities.

Everything here is dense and small: ambient dimensions stay in single digits,
so a textbook Hermite normal form and diagonalisation over the integers are
both fast enough and free of numerical error.  Rank, span membership,
nullspace and solutions are read off the Hermite normal form of the rows
scaled to integers, by integer back-substitution.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import InvalidInputError
from .points import Rational, _frac

Vec = tuple[Rational, ...]
IntVec = tuple[int, ...]


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_dot(a, b):
    total = 0
    for x, y in zip(a, b):
        if x and y:
            total += x * y
    return total


def vec_is_zero(a) -> bool:
    return all(x == 0 for x in a)


def _lift(v) -> IntVec:
    """D*v for the least D > 0 that makes the rational vector v integral;
    primitive when some entry of v is 1, as in (x, 1)."""
    if all(isinstance(x, int) for x in v):
        return tuple(v)
    v = [_frac(x) for x in v]
    d = lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (d // x.denominator) for x in v)


def _echelon(rows) -> tuple[list[IntVec], list[int]]:
    """Hermite normal form of the rows scaled to integers, and its pivot columns."""
    hnf = hermite_normal_form([_lift(r) for r in rows])
    return hnf, [next(j for j, x in enumerate(r) if x) for r in hnf]


def _kernel_vector(hnf: list[IntVec], pivots: list[int], free: int, cols: int) -> IntVec:
    """The primitive integer solution of hnf . x = 0 along the one that is 1
    at the free column and 0 at every other free column.  Back-substitution
    solves for each pivot entry after scaling x by the least factor that
    keeps it integral, so x ends primitive."""
    x = [0] * cols
    x[free] = 1
    for row, p in zip(reversed(hnf), reversed(pivots)):
        s = vec_dot(row[p + 1 :], x[p + 1 :])
        g = gcd(s, row[p])
        if row[p] != g:
            x = [row[p] // g * a for a in x]
        x[p] = -s // g
    return tuple(x)


def rank(rows) -> int:
    return len(_echelon(rows)[0])


def in_span(rows, target) -> bool:
    """Is target in the rational row span?"""
    return rank(rows) == rank(list(rows) + [target])


def nullspace(rows, cols: int) -> list[IntVec]:
    """Basis of {x : rows . x = 0}: for each free column of the echelon form,
    the primitive integer vector along the solution that is 1 there and 0 at
    the other free columns."""
    hnf, pivots = _echelon(rows)
    return [_kernel_vector(hnf, pivots, f, cols) for f in range(cols) if f not in pivots]


def solve_exact(rows, rhs) -> Vec | None:
    """One solution of rows . x = rhs, or None if inconsistent: the solution
    that is 0 at every free column, read off the kernel of (rows | -rhs)."""
    if not rows:
        return ()
    cols = len(rows[0])
    hnf, pivots = _echelon([tuple(r) + (-b,) for r, b in zip(rows, rhs)])
    if cols in pivots:
        return None
    x = _kernel_vector(hnf, pivots, cols, cols + 1)
    return tuple(_frac(Fraction(a, x[-1])) for a in x[:-1])


def content(vec) -> int:
    g = 0
    for x in vec:
        g = gcd(g, abs(int(x)))
    return g


def primitive_direction(vec) -> IntVec:
    """Scale a rational direction to a primitive integer vector, keeping orientation."""
    if all(isinstance(x, int) for x in vec):
        if all(x == 0 for x in vec):
            raise InvalidInputError("zero vector has no direction")
        g = content(vec)
        return tuple(x // g for x in vec)
    fracs = [_frac(x) for x in vec]
    if all(x == 0 for x in fracs):
        raise InvalidInputError("zero vector has no direction")
    denom = 1
    for x in fracs:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [x.numerator * (denom // x.denominator) for x in fracs]
    g = content(ints)
    return tuple(x // g for x in ints)


def hermite_normal_form(rows: list[IntVec]) -> list[IntVec]:
    """Row-style HNF of the integer row lattice: canonical basis."""
    mat = [list(r) for r in rows if not vec_is_zero(r)]
    if not mat:
        return []
    cols = len(mat[0])
    r = 0
    for c in range(cols):
        idx = [i for i in range(r, len(mat)) if mat[i][c] != 0]
        if not idx:
            continue
        # euclidean reduction within column c
        while len(idx) > 1:
            idx.sort(key=lambda i: abs(mat[i][c]))
            small = idx[0]
            for i in idx[1:]:
                q = mat[i][c] // mat[small][c]
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[small])]
            idx = [i for i in idx if mat[i][c] != 0]
        i = idx[0]
        mat[r], mat[i] = mat[i], mat[r]
        if mat[r][c] < 0:
            mat[r] = [-a for a in mat[r]]
        for i in range(r):
            q = mat[i][c] // mat[r][c]
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]]


def diagonalize_integer_matrix(matrix: list[IntVec]):
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


def saturate_rows(rows: list[IntVec]) -> list[IntVec]:
    """Basis of (rational row span) intersected with the integer lattice."""
    mat = [tuple(int(x) for x in r) for r in rows if not vec_is_zero(r)]
    if not mat:
        return []
    diag, vinv = diagonalize_integer_matrix(mat)
    k = len([d for d in diag if d != 0])
    return hermite_normal_form([tuple(vinv[i]) for i in range(k)])


def lattice_quotient_generator(big_basis: list[IntVec], sub_basis: list[IntVec]) -> IntVec:
    """Generator of Lambda_big / Lambda_sub when the quotient is infinite cyclic.

    Both inputs must be saturated bases with ranks d and d-1.
    """
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
        ints = []
        for x in sol:
            if x.denominator != 1:
                raise InvalidInputError("sub lattice not saturated in big lattice")
            ints.append(int(x))
        coord_rows.append(tuple(ints))
    diag, vinv = diagonalize_integer_matrix(coord_rows)
    if any(x != 1 for x in diag):
        raise InvalidInputError("quotient has torsion; face lattice not saturated")
    gen_coords = vinv[d - 1]
    out = [0] * len(big_basis[0])
    for coef, row in zip(gen_coords, big_basis):
        for idx, val in enumerate(row):
            out[idx] += coef * val
    return tuple(out)
