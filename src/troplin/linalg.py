"""Exact linear algebra over the rationals and integer lattice utilities.

Everything here is dense and small: ambient dimensions stay in single digits,
so plain row reduction over Fraction and textbook Smith normal form are both
fast enough and free of numerical error.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import InvalidInputError
from .points import _frac

Vec = tuple[Fraction, ...]
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


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    mat = [list(map(_frac, r)) for r in rows]
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


def rank(rows) -> int:
    if not rows:
        return 0
    return len(rref([list(r) for r in rows])[0])


def in_span(rows, target) -> bool:
    """Is target in the rational row span?"""
    if vec_is_zero(target):
        return True
    if not rows:
        return False
    return rank(list(rows)) == rank(list(rows) + [list(target)])


def nullspace(rows, cols: int) -> list[Vec]:
    """Canonical basis of {x : rows . x = 0}."""
    if not rows:
        return [tuple(Fraction(int(i == j)) for j in range(cols)) for i in range(cols)]
    red, pivots = rref([list(r) for r in rows])
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(tuple(v))
    return basis


def solve_exact(rows, rhs) -> Vec | None:
    """One solution of rows . x = rhs, or None if inconsistent."""
    cols = len(rows[0]) if rows else 0
    aug = [list(map(_frac, r)) + [_frac(b)] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    for r in red:
        if all(x == 0 for x in r[:-1]) and r[-1] != 0:
            return None
    x = [Fraction(0)] * cols
    for r, p in enumerate(pivots):
        if p == cols:
            return None
        x[p] = red[r][-1]
    return tuple(x)


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
