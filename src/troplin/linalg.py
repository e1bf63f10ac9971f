"""Exact linear algebra over the rationals and integer lattice utilities.

Everything here is dense and small: ambient dimensions stay in single digits,
so a textbook Hermite normal form over the integers is fast enough and free
of numerical error.  It is the only integer lattice algorithm: rank, span
membership, nullspace and solutions are read off the Hermite normal form of
the rows scaled to integers, by integer back-substitution, and the
saturation of a row lattice off the Hermite normal form of its nullspace.
Primitive normals of facets come from the extended Euclidean algorithm.
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


def primitive_direction(vec) -> IntVec:
    """Scale a rational direction to a primitive integer vector, keeping orientation."""
    ints = _lift(vec)
    g = gcd(*ints)
    if not g:
        raise InvalidInputError("zero vector has no direction")
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


def saturate_rows(rows: list[IntVec]) -> list[IntVec]:
    """Basis of (rational row span) intersected with the integer lattice,
    in Hermite normal form.

    That lattice is the integer kernel of the nullspace K of the rows.  The
    Hermite normal form of (K^T | I) has row lattice {(K.x, x) : x integer};
    its rows zero in the K part are a basis, already in Hermite normal form,
    of those with K.x = 0 (Cohen 1993, 2.4.3).
    """
    mat = [r for r in rows if not vec_is_zero(r)]
    if not mat:
        return []
    cols = len(mat[0])
    kernel = nullspace(mat, cols)
    k = len(kernel)
    stacked = [
        tuple(v[i] for v in kernel) + tuple(int(i == j) for j in range(cols)) for i in range(cols)
    ]
    return [r[k:] for r in hermite_normal_form(stacked) if vec_is_zero(r[:k])]


def lattice_quotient_generator(basis: list[IntVec], a: IntVec) -> IntVec:
    """Generator u of a lattice modulo its sublattice orthogonal to a, signed
    so that a.u < 0.

    For a saturated basis of a cell's lattice and an outer normal a of a
    facet, the sublattice is the facet's lattice, and x -> a.x maps the
    quotient onto g*Z, g the gcd of the values of a on the basis.  The
    extended Euclidean algorithm over those values, carrying a lattice
    vector with each, ends with a vector on which a takes the value +-g.
    """
    g, u = 0, (0,) * len(a)
    for b in basis:
        v = vec_dot(a, b)
        while v:
            q = g // v
            g, u, v, b = v, b, g - q * v, tuple(x - q * y for x, y in zip(u, b))
    if not g:
        raise InvalidInputError("the normal vanishes on the lattice")
    return u if g < 0 else tuple(-x for x in u)
