"""Exact rational polyhedra in R^m, generator based.

A polyhedron is conv(vertices) + cone(rays) + span(lineality).  Only the
minimal generators are kept: vertices projected modulo the lineality space,
primitive integer rays and a saturated lineality basis, so structural
equality of this form decides geometric equality.

All conversions run one integer double-description kernel, `_dd`, on the
homogenised cone in Z^(m+1), where a vertex v becomes (d*v, d), a ray r
becomes (r, 0) and a lineality vector l becomes +-(l, 0).  Facets come from
`_dd` on the generators written in coordinates of their own span; minimal
generators, and the pieces of every halfspace or hyperplane cut, come from
`_dd` on the rows of the H-representation.  No floating point and no LP.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import mul
from typing import Iterable, Sequence

from .errors import InvalidInputError
from .linalg import (
    nullspace,
    primitive_direction,
    rank,
    rref,
    saturate_rows,
    solve_exact,
    vec_dot,
    vec_is_zero,
    vec_sub,
)
from .points import _frac

Vec = tuple[Fraction, ...]
IntVec = tuple[int, ...]
HalfSpace = tuple[IntVec, Fraction]  # (a, b) meaning a.x <= b


def _fvec(v) -> Vec:
    return tuple(_frac(x) for x in v)


def _neg(v) -> tuple:
    return tuple(-x for x in v)


def _mix(s: int, x: IntVec, t: int, y: IntVec) -> IntVec:
    """The primitive vector along s*x + t*y."""
    v = [s * p + t * q for p, q in zip(x, y)]
    g = gcd(*v)
    return tuple(c // g for c in v)


def _dd(rows: Sequence[IntVec], dim: int) -> tuple[list[IntVec], list[IntVec]]:
    """Lineality basis and extreme rays of {x in Q^dim : r.x <= 0 for every row}.

    Double description (Motzkin et al. 1953; Fukuda & Prodon 1996) over the
    integers, adding one row at a time.  While some lineality vector is not
    orthogonal to the row, it becomes a ray and the rest of the description
    is made orthogonal to it.  Otherwise a positive and a negative ray are
    combined only when adjacent, which is decided combinatorially: no third
    ray is tight on every row the two share.
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


def _row(a, b) -> IntVec:
    """The primitive integer row of (x, t) -> a.x - b*t, homogenising a.x <= b."""
    return primitive_direction(tuple(a) + (-_frac(b),))


def _from_rows(m: int, eq_rows: list[IntVec], ineq_rows: list[IntVec]) -> Polyhedron | None:
    """The polyhedron whose homogenised cone is cut out by the rows, as
    equations and inequalities, by minimal generators; None if empty."""
    rows = [s for r in eq_rows for s in (r, _neg(r))]
    rows.append((0,) * m + (-1,))
    lin, gens = _dd(rows + ineq_rows, m + 1)
    verts = [tuple(Fraction(x, g[m]) for x in g[:m]) for g in gens if g[m]]
    if not verts:
        return None
    rays = [g[:m] for g in gens if not g[m]]
    return Polyhedron._minimal(m, verts, rays, [l[:m] for l in lin])


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
        raw = Polyhedron._minimal(m, vertices, rays, lineality)
        vars(self).update(vars(_from_rows(m, *raw._rows)), hrep=raw.hrep)

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
        gram = [[Fraction(vec_dot(a, b)) for b in lin] for a in lin]
        rhs = [Fraction(vec_dot(a, v)) for a in lin]
        coeffs = solve_exact(gram, rhs)
        out = list(v)
        for c, l in zip(coeffs, lin):
            for i, x in enumerate(l):
                out[i] -= c * x
        return tuple(out)

    # -- basic geometry -----------------------------------------------

    @cached_property
    def direction_rows(self) -> list[IntVec]:
        """Primitive integer spanning set of the direction space."""
        rows = [list(r) for r in self.rays] + [list(l) for l in self.lineality]
        v0 = self.vertices[0]
        for v in self.vertices[1:]:
            rows.append(list(primitive_direction(vec_sub(v, v0))))
        return [tuple(r) for r in rows]

    @cached_property
    def dim(self) -> int:
        return rank(self.direction_rows)

    @cached_property
    def lattice_basis(self) -> list[IntVec]:
        """Saturated basis of the direction span intersected with Z^m."""
        return saturate_rows(self.direction_rows)

    @property
    def is_cone(self) -> bool:
        zero = tuple(Fraction(0) for _ in range(self.m))
        return self.vertices == (zero,)

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

    # -- H-representation ----------------------------------------------

    @cached_property
    def hrep(self) -> tuple[tuple[HalfSpace, ...], tuple[HalfSpace, ...]]:
        """(equations, facet inequalities); each is (a, b) over primitive a."""
        v0 = self.vertices[0]
        eqs = []
        for nrm in nullspace(self.direction_rows, self.m):
            a = primitive_direction(nrm)
            eqs.append((a, Fraction(vec_dot(a, v0))))
        return tuple(sorted(eqs)), tuple(sorted(self._facets()))

    @cached_property
    def _rows(self) -> tuple[list[IntVec], list[IntVec]]:
        """Homogenised integer rows of the equations and of the facets."""
        eqs, ineqs = self.hrep
        return [_row(a, b) for a, b in eqs], [_row(a, b) for a, b in ineqs]

    @property
    def equations(self) -> tuple[HalfSpace, ...]:
        return self.hrep[0]

    @property
    def inequalities(self) -> tuple[HalfSpace, ...]:
        return self.hrep[1]

    def _facets(self) -> list[HalfSpace]:
        """Facets of the homogenised cone, as normals inside its span.

        With an integer basis B of the span, a generator g has coordinates
        B.g, and a functional f on those coordinates is h.g for h = f.B in
        the span.  The extreme rays f of the polar cone are the facets; the
        one tight on no vertex is the face at infinity.
        """
        gens = [primitive_direction(tuple(v) + (1,)) for v in self.vertices]
        nv = len(gens)
        gens += [r + (0,) for r in self.rays]
        gens += [s + (0,) for l in self.lineality for s in (l, _neg(l))]
        basis = [primitive_direction(b) for b in rref(gens)[0]]
        coords = [tuple(vec_dot(b, g) for b in basis) for g in gens]
        out = []
        for f in _dd(coords, len(basis))[1]:
            if all(vec_dot(f, c) for c in coords[:nv]):
                continue
            h = primitive_direction(
                [sum(c * b[i] for c, b in zip(f, basis)) for i in range(self.m + 1)]
            )
            out.append((h[: self.m], -Fraction(h[self.m])))
        return out

    # -- predicates -----------------------------------------------------

    def contains(self, point: Sequence) -> bool:
        p = _fvec(point)
        eqs, ineqs = self.hrep
        return all(vec_dot(a, p) == b for a, b in eqs) and all(
            vec_dot(a, p) <= b for a, b in ineqs
        )

    def contains_direction(self, direction: Sequence) -> bool:
        """Is the direction in the recession cone?"""
        d = _fvec(direction)
        eqs, ineqs = self.hrep
        return all(vec_dot(a, d) == 0 for a, b in eqs) and all(
            vec_dot(a, d) <= 0 for a, b in ineqs
        )

    def contains_polyhedron(self, other: Polyhedron) -> bool:
        return all(self.contains(v) for v in other.vertices) and all(
            self.contains_direction(r) for r in other.rays
        ) and all(
            self.contains_direction(l) and self.contains_direction([-x for x in l])
            for l in other.lineality
        )

    def relative_interior_point(self) -> Vec:
        """A strictly positive combination of all generators lies in the
        relative interior regardless of generator redundancy."""
        k = len(self.vertices)
        acc = [Fraction(0)] * self.m
        for v in self.vertices:
            for i, x in enumerate(v):
                acc[i] += Fraction(x, k)
        for r in self.rays:
            for i, x in enumerate(r):
                acc[i] += x
        return tuple(acc)

    # -- derived polyhedra ----------------------------------------------

    def recession(self) -> Polyhedron:
        zero = [Fraction(0)] * self.m
        return Polyhedron._minimal(self.m, [zero], self.rays, self.lineality)

    def translate(self, vec: Sequence) -> Polyhedron:
        t = _fvec(vec)
        return Polyhedron._minimal(
            self.m,
            [tuple(a + b for a, b in zip(v, t)) for v in self.vertices],
            self.rays,
            self.lineality,
        )

    def cone_from(self, apex: Sequence) -> Polyhedron:
        """The cone of directions from an apex into this polyhedron."""
        p = _fvec(apex)
        zero = [Fraction(0)] * self.m
        rays = [r for r in self.rays]
        for v in self.vertices:
            d = vec_sub(v, p)
            if not vec_is_zero(d):
                rays.append(primitive_direction(d))
        return Polyhedron(self.m, [zero], rays, self.lineality)

    def _face(self, tight: Iterable[HalfSpace]) -> Polyhedron:
        """The face on which each given valid inequality holds with equality."""
        tight = list(tight)
        verts = [v for v in self.vertices if all(vec_dot(a, v) == b for a, b in tight)]
        rays = [r for r in self.rays if all(vec_dot(a, r) == 0 for a, _ in tight)]
        return Polyhedron._minimal(self.m, verts, rays, self.lineality)

    def faces_of_facets(self) -> list[tuple[Polyhedron, HalfSpace]]:
        """Codimension-one faces, each with its cutting inequality."""
        return [(self._face([ineq]), ineq) for ineq in self.inequalities]

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
        p = _fvec(point)
        if not self.contains(p):
            raise InvalidInputError("point outside the polyhedron")
        return self._face((a, b) for a, b in self.inequalities if vec_dot(a, p) == b)

    # -- cuts -------------------------------------------------------------

    def _halfspace_status(self, a: IntVec, b: Fraction) -> int:
        """-1 if entirely inside a.x <= b, 0 if cut or touching, +1 if entirely
        in the strict outside."""
        has_pos = False
        has_neg = False
        for v in self.vertices:
            s = vec_dot(a, v) - b
            has_pos |= s > 0
            has_neg |= s < 0
        for r in self.rays:
            s = vec_dot(a, r)
            has_pos |= s > 0
            has_neg |= s < 0
        for l in self.lineality:
            s = vec_dot(a, l)
            has_pos |= s != 0
            has_neg |= s != 0
        if not has_pos:
            return -1
        if not has_neg:
            return 1
        return 0

    def intersect_halfspace(self, a: IntVec, b) -> Polyhedron | None:
        """This polyhedron intersected with {x : a.x <= b}, or None if empty."""
        b = _frac(b)
        if self._halfspace_status(a, b) == -1:
            return self
        eq_rows, ineq_rows = self._rows
        return _from_rows(self.m, eq_rows, ineq_rows + [_row(a, b)])

    def intersect_hyperplane(self, a: IntVec, b) -> Polyhedron | None:
        """This polyhedron intersected with {x : a.x = b}, or None if empty."""
        b = _frac(b)
        if all(vec_dot(a, v) == b for v in self.vertices) and all(
            vec_dot(a, r) == 0 for r in self.rays
        ) and all(vec_dot(a, l) == 0 for l in self.lineality):
            return self
        eq_rows, ineq_rows = self._rows
        return _from_rows(self.m, eq_rows + [_row(a, b)], ineq_rows)

    def intersection(self, other: Polyhedron) -> Polyhedron | None:
        """Exact intersection of the two H-representations."""
        (e1, i1), (e2, i2) = self._rows, other._rows
        return _from_rows(self.m, e1 + e2, i1 + i2)

    def split(self, a: IntVec, b) -> tuple[Polyhedron | None, Polyhedron | None]:
        """Both closed sides of a hyperplane cut."""
        neg = self.intersect_halfspace(a, b)
        pos = self.intersect_halfspace(_neg(a), -_frac(b))
        return neg, pos

    def cuts(self, a: IntVec, b) -> bool:
        """Does the hyperplane separate the polyhedron into two full pieces?"""
        return self._halfspace_status(a, _frac(b)) == 0
