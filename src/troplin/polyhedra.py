"""Exact rational polyhedra in R^m, generator based.

A polyhedron is conv(vertices) + cone(rays) + span(lineality).  Only the
minimal generators are kept: vertices projected modulo the lineality space,
primitive integer rays and a saturated lineality basis, so structural
equality of this form decides geometric equality.

Predicates, faces and cuts read one integer form, the homogenised cone in
Z^(m+1): its generators `_gens`, where a vertex v becomes (d*v, d), a ray r
becomes (r, 0) and a lineality vector l becomes +-(l, 0), and its rows
`_rows`, where a constraint a.x <= b becomes the row of (x, t) -> a.x - b*t.
Faces come with the integer rows that cut them out.  `hrep`, the (a, b)
pairs with a primitive, is a view of the rows that no code here reads; the
test oracles and the benchmark's tracer do.  One Hermite normal form of the
generators, `_span`, gives the dimension, the equations and the basis of the
span in which the facets are found.  One integer double-description kernel,
`_dd`, does every conversion: facets come from `_dd` on the generators written
in coordinates of their own span; minimal generators, and the pieces of every
halfspace or hyperplane cut, come from `_dd` on the rows.  Whether a
hyperplane cuts at all is the sign pattern of its row on the generators
(`_halfspace_status`), recomputed on each call.  `extents`, the integer
maxima of the coordinate differences x_i - x_j over the polyhedron read as a
cell of the tropical torus, is a view of `_gens` too; `_apart` reads two of
them to tell, with no double description, that two cells are disjoint.  No
floating point and no LP.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .cache import cached_property
from .errors import InvalidInputError
from .linalg import (
    IntVec,
    Vec,
    _lift,
    hermite_normal_form,
    nullspace,
    primitive_direction,
    saturate_rows,
    solve_exact,
    vec_dot,
    vec_is_zero,
)
from .points import Rational, _frac

HalfSpace = tuple[IntVec, Rational]  # (a, b) meaning a.x <= b


def _fvec(v) -> Vec:
    return tuple(_frac(x) for x in v)


def _neg(v) -> tuple:
    return tuple(-x for x in v)


def _mix(s: int, x: IntVec, t: int, y: IntVec) -> IntVec:
    """The primitive vector along s*x + t*y."""
    v = [s * p + t * q for p, q in zip(x, y)]
    g = gcd(*v)
    return tuple(c // g for c in v)


def _dd(rows: Sequence[IntVec], dim: int, eqs: int = 0) -> tuple[list[IntVec], list[IntVec]]:
    """Lineality basis and extreme rays of {x in Q^dim : r.x <= 0 for every
    row, and r.x = 0 for each of the first `eqs` rows}.

    Double description (Motzkin et al. 1953; Fukuda & Prodon 1996) over the
    integers, adding one row at a time.  While some lineality vector is not
    orthogonal to the row, it becomes a ray and the rest of the description
    is made orthogonal to it.  Otherwise a positive and a negative ray are
    combined only when adjacent, which is decided combinatorially: no third
    ray is tight on every row the two share.  The equations come first,
    while the cone is a linear space, so each one only drops the vector that
    an inequality would make a ray, as the row and its negation would.
    """
    lin = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays: list[tuple[IntVec, int]] = []  # (ray, bitmask of its tight rows)
    for k, r in enumerate(rows):
        bit = 1 << k
        vals = [sum(map(mul, r, l)) for l in lin]
        i = next((i for i, s in enumerate(vals) if s), None)
        if i is not None:
            p, s = lin.pop(i), vals.pop(i)
            if s > 0:
                p, s = _neg(p), -s
            lin = [l if not t else _mix(-s, l, t, p) for l, t in zip(lin, vals)]
            for j, (x, z) in enumerate(rays):
                t = sum(map(mul, r, x))
                rays[j] = (x if not t else _mix(-s, x, t, p), z | bit)
            if k >= eqs:
                rays.append((p, bit - 1))
            continue
        pos, neg, kept = [], [], []
        for x, z in rays:
            s = sum(map(mul, r, x))
            if s > 0:
                pos.append((x, z, s))
            else:
                kept.append((x, z | bit if s == 0 else z))
                if s < 0:
                    neg.append((x, z, s))
        need = dim - len(lin) - 2
        for x, zx, sx in pos:
            for y, zy, sy in neg:
                common = zx & zy
                if common.bit_count() < need or any(
                    z & common == common and w is not x and w is not y
                    for w, z in rays
                ):
                    continue
                kept.append((_mix(sx, y, -sy, x), common | bit))
        rays = kept
    return lin, [x for x, _ in rays]


def _row(a: IntVec, b) -> IntVec:
    """An integer row of (x, t) -> a.x - b*t, homogenising a.x <= b for an
    integer vector a."""
    b = _frac(b)
    return tuple(b.denominator * x for x in a) + (-b.numerator,)


def _generators(m: int, eq_rows: list[IntVec], ineq_rows: list[IntVec]):
    """Minimal vertices, rays and lineality of the polyhedron whose
    homogenised cone the rows cut out, as equations and inequalities; None
    if it is empty."""
    rows = [*eq_rows, (0,) * m + (-1,), *ineq_rows]
    lin, gens = _dd(rows, m + 1, len(eq_rows))
    verts = [
        tuple(x // g[m] if x % g[m] == 0 else Fraction(x, g[m]) for x in g[:m])
        for g in gens
        if g[m]
    ]
    if not verts:
        return None
    return verts, [g[:m] for g in gens if not g[m]], [l[:m] for l in lin]


def _apart(a: Polyhedron, b: Polyhedron) -> bool:
    """Are two cells disjoint by their extents?  They are when, for some
    torus positions i and j, max (x_i - x_j) over a is below min (x_i - x_j)
    over b, which is -max (x_j - x_i) over b; over the scales L_a and L_b
    of `extents` that is T_a[i][j] * L_b + T_b[j][i] * L_a < 0."""
    la, ta = a.extents
    lb, tb = b.extents
    return any(
        s is not None and t is not None and s * lb + t * la < 0
        for row, col in zip(ta, zip(*tb))
        for s, t in zip(row, col)
    )


def _from_rows(m: int, eq_rows: list[IntVec], ineq_rows: list[IntVec]) -> Polyhedron | None:
    gens = _generators(m, eq_rows, ineq_rows)
    return None if gens is None else Polyhedron._minimal(m, *gens)


class Polyhedron:
    """A nonempty closed rational polyhedron given by generators."""

    def __init__(
        self,
        m: int,
        vertices: Iterable[Sequence],
        rays: Iterable[Sequence] = (),
        lineality: Iterable[Sequence] = (),
    ):
        # redundant generators leave the H-representation unchanged
        self._rows = Polyhedron._minimal(m, vertices, rays, lineality)._rows
        self._set(m, *_generators(m, *self._rows))

    @classmethod
    def _minimal(cls, m: int, vertices, rays=(), lineality=()) -> Polyhedron:
        """Build from generators no one of which is redundant; skips reduction."""
        poly = cls.__new__(cls)
        poly._set(m, vertices, rays, lineality)
        return poly

    def _set(self, m: int, vertices, rays, lineality) -> None:
        self.m = m
        lin_rows = [primitive_direction(l) for l in lineality if not vec_is_zero(l)]
        self.lineality: tuple[IntVec, ...] = tuple(saturate_rows(lin_rows))
        ray_list: list[IntVec] = []
        for r in rays:
            fr = self._project(tuple(r))
            if not vec_is_zero(fr):
                pr = primitive_direction(fr)
                if pr not in ray_list:
                    ray_list.append(pr)
        verts = []
        for v in vertices:
            vv = self._project(_fvec(v))
            if vv not in verts:
                verts.append(vv)
        if not verts:
            raise InvalidInputError("a polyhedron needs at least one vertex generator")
        self.vertices: tuple[Vec, ...] = tuple(sorted(verts))
        self.rays: tuple[IntVec, ...] = tuple(sorted(ray_list))

    def _project(self, v: Vec) -> Vec:
        """Orthogonal projection modulo the lineality span."""
        if not self.lineality:
            return v
        lin = self.lineality
        gram = [[vec_dot(a, b) for b in lin] for a in lin]
        rhs = [vec_dot(a, v) for a in lin]
        coeffs = solve_exact(gram, rhs)
        out = list(v)
        for c, l in zip(coeffs, lin):
            for i, x in enumerate(l):
                out[i] -= c * x
        return _fvec(out)

    # -- basic geometry -----------------------------------------------

    @cached_property
    def dim(self) -> int:
        return len(self._span) - 1

    @cached_property
    def lattice_basis(self) -> list[IntVec]:
        """Saturated basis of the direction span intersected with Z^m."""
        return saturate_rows([r[1:] for r in self._span[1:]])

    @property
    def is_cone(self) -> bool:
        return self.vertices == ((0,) * self.m,)

    @cached_property
    def canonical_key(self):
        return (self.m, self.vertices, self.rays, self.lineality)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polyhedron) and self.canonical_key == other.canonical_key

    def __hash__(self) -> int:
        return hash(self.canonical_key)

    def __repr__(self) -> str:
        return (
            f"Polyhedron(m={self.m}, vertices={list(self.vertices)}, "
            f"rays={list(self.rays)}, lineality={list(self.lineality)})"
        )

    # -- homogenised form ----------------------------------------------

    @cached_property
    def _gens(self) -> list[IntVec]:
        """Generators of the homogenised cone: (d*v, d) primitive for each
        vertex, then (r, 0) for each ray and +-(l, 0) for each lineality vector."""
        gens = [_lift(v + (1,)) for v in self.vertices]
        gens += [r + (0,) for r in self.rays]
        gens += [s + (0,) for l in self.lineality for s in (l, _neg(l))]
        return gens

    @cached_property
    def extents(self) -> tuple[int, list[list[int | None]]]:
        """(L, T) with L the lcm of the vertex denominators and T[i][j] the
        integer L * max (x_i - x_j) over the polyhedron, or None where that
        is unbounded, at torus positions i and j: position 0 is fixed at 0
        and position p > 0 is quotient coordinate p - 1.

        A vertex (d*v, d) gives L/d * (0, d*v) at the torus positions, so T
        is the differences of the first vertex's entries, maxed elementwise
        over the other vertices.  A direction (r, 0), a ray or either sign of
        a lineality vector, makes x_i - x_j unbounded where (0, r) is larger
        at i than at j.
        """
        nv = len(self.vertices)
        gens = self._gens
        big = lcm(*(g[-1] for g in gens[:nv]))
        first, *rest = [(0, *(big // g[-1] * x for x in g[:-1])) for g in gens[:nv]]
        top = [[a - b for b in first] for a in first]
        for p in rest:
            top = [[max(t, a - b) for t, b in zip(row, p)] for row, a in zip(top, p)]
        for g in gens[nv:]:
            d = (0, *g[:-1])
            for row, a in zip(top, d):
                for j, b in enumerate(d):
                    if a > b:
                        row[j] = None
        return big, top

    @cached_property
    def _span(self) -> list[IntVec]:
        """Hermite normal form of the generators with the homogenising
        coordinate moved first.  Every vertex has d > 0 there, so only the
        first row is nonzero in it, and the other rows with it dropped are a
        basis of the direction space."""
        return hermite_normal_form([g[-1:] + g[:-1] for g in self._gens])

    @cached_property
    def _rows(self) -> tuple[list[IntVec], list[IntVec]]:
        """Primitive integer rows of the equations and of the facets, sorted;
        a row r stands for r.(x, 1) = 0 or r.(x, 1) <= 0."""
        g0 = self._gens[0]
        eqs = [
            primitive_direction(tuple(g0[-1] * x for x in a) + (-vec_dot(a, g0),))
            for a in nullspace([r[1:] for r in self._span[1:]], self.m)
        ]
        return sorted(eqs), sorted(self._facets())

    @cached_property
    def _constraints(self) -> list[IntVec]:
        """Rows r with the polyhedron {x : r.(x, 1) <= 0 for all r}: the facets,
        then each equation and its negation."""
        eqs, ineqs = self._rows
        return ineqs + [s for r in eqs for s in (r, _neg(r))]

    @cached_property
    def hrep(self) -> tuple[tuple[HalfSpace, ...], tuple[HalfSpace, ...]]:
        """(equations, facet inequalities); each is (a, b) over primitive a,
        with b canonical, for a row r of r.(x, 1) = 0 or <= 0."""

        def pair(r: IntVec) -> HalfSpace:
            g = gcd(*r[:-1])
            return tuple(x // g for x in r[:-1]), _frac(Fraction(-r[-1], g))

        return tuple(tuple(sorted(map(pair, rows))) for rows in self._rows)

    def _facets(self) -> list[IntVec]:
        """Facet rows of the homogenised cone, as normals inside its span.

        With the integer basis B of the span, the rows of `_span` rotated
        back, a generator g has coordinates B.g, and a functional f on those
        coordinates is h.g for h = f.B in the span.  The extreme rays f of
        the polar cone are the facets; the one tight on no vertex is the
        face at infinity.
        """
        gens = self._gens
        nv = len(self.vertices)
        basis = [b[1:] + b[:1] for b in self._span]
        coords = [tuple(vec_dot(b, g) for b in basis) for g in gens]
        return [
            primitive_direction(
                [sum(c * b[i] for c, b in zip(f, basis)) for i in range(self.m + 1)]
            )
            for f in _dd(coords, len(basis))[1]
            if not all(vec_dot(f, c) for c in coords[:nv])
        ]

    def _holds(self, g: IntVec) -> bool:
        """Does the homogenised cone contain the integer vector g?"""
        eqs, ineqs = self._rows
        return all(vec_dot(r, g) == 0 for r in eqs) and all(vec_dot(r, g) <= 0 for r in ineqs)

    def _tight(self, gens: list[IntVec]) -> list[IntVec]:
        """The facet rows that vanish on every given generator."""
        return [r for r in self._rows[1] if all(vec_dot(r, g) == 0 for g in gens)]

    # -- predicates -----------------------------------------------------

    def contains(self, point: Sequence) -> bool:
        return self._holds(_lift(tuple(point) + (1,)))

    def contains_polyhedron(self, other: Polyhedron) -> bool:
        return all(map(self._holds, other._gens))

    def relative_interior_point(self) -> Vec:
        """A strictly positive combination of all generators lies in the
        relative interior regardless of generator redundancy."""
        k = len(self.vertices)
        acc = [Fraction(sum(c), k) for c in zip(*self.vertices)]
        for r in self.rays:
            acc = [a + x for a, x in zip(acc, r)]
        return _fvec(acc)

    # -- derived polyhedra ----------------------------------------------

    def recession(self) -> Polyhedron:
        return Polyhedron._minimal(self.m, [(0,) * self.m], self.rays, self.lineality)

    def translate(self, vec: Sequence) -> Polyhedron:
        t = _fvec(vec)
        return Polyhedron._minimal(
            self.m,
            [tuple(a + b for a, b in zip(v, t)) for v in self.vertices],
            self.rays,
            self.lineality,
        )

    def _face(self, tight: list[IntVec]) -> Polyhedron:
        """The face on which each given valid inequality row is tight."""
        on = [all(vec_dot(r, g) == 0 for r in tight) for g in self._gens]
        rays = compress(self.rays, on[len(self.vertices) :])
        return Polyhedron._minimal(self.m, compress(self.vertices, on), rays, self.lineality)

    def faces_of_facets(self) -> list[tuple[Polyhedron, IntVec]]:
        """Codimension-one faces, each with its primitive integer facet row r:
        the face is where r.(x, 1) = 0, and r[:-1] is an outer normal."""
        return [(self._face([r]), r) for r in self._rows[1]]

    def all_faces(self) -> list[Polyhedron]:
        """The full face lattice, this polyhedron included."""
        seen = {self.canonical_key: self}
        frontier = [self]
        while frontier:
            nxt = []
            for f in frontier:
                for sub, _ in f.faces_of_facets():
                    if sub.canonical_key not in seen:
                        seen[sub.canonical_key] = sub
                        nxt.append(sub)
            frontier = nxt
        return sorted(seen.values(), key=lambda p: (p.dim, p.canonical_key))

    def minimal_face_containing(self, point: Sequence) -> Polyhedron:
        """The smallest face containing a point of this polyhedron."""
        p = _lift(tuple(point) + (1,))
        if not self._holds(p):
            raise InvalidInputError("point outside the polyhedron")
        return self._face(self._tight([p]))

    # -- cuts -------------------------------------------------------------

    def _halfspace_status(self, row: IntVec) -> int:
        """-1 if the polyhedron lies in the halfspace row.(x, 1) <= 0, else +1
        if it lies in the opposite closed halfspace, else 0 (cut)."""
        has_pos = has_neg = False
        for g in self._gens:
            s = vec_dot(row, g)
            has_pos |= s > 0
            has_neg |= s < 0
        if not has_pos:
            return -1
        return 0 if has_neg else 1

    def _cut(self, row: IntVec) -> Polyhedron | None:
        """This polyhedron intersected with {x : row.(x, 1) <= 0}, or None if empty."""
        if self._halfspace_status(row) == -1:
            return self
        eq_rows, ineq_rows = self._rows
        return _from_rows(self.m, eq_rows, ineq_rows + [row])

    def intersection(self, other: Polyhedron) -> Polyhedron | None:
        """Exact intersection of the two H-representations."""
        (e1, i1), (e2, i2) = self._rows, other._rows
        return _from_rows(self.m, e1 + e2, i1 + i2)

    def split(self, a: IntVec, b) -> tuple[Polyhedron | None, Polyhedron | None]:
        """Both closed sides of a hyperplane cut."""
        row = _row(a, b)
        return self._cut(row), self._cut(_neg(row))

    def cuts(self, a: IntVec, b) -> bool:
        """Does the hyperplane a.x = b separate the polyhedron into two full
        pieces?  It does exactly when the row of a.x - b is positive on one
        homogenised generator and negative on another (`_halfspace_status`)."""
        return self._halfspace_status(_row(a, b)) == 0
