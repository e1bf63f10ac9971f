"""Exact arithmetic in the tropical projective torus R^n modulo (1,...,1).

Points are stored through a canonical representative whose first coordinate
is zero, so equality and hashing are structural.  Every coordinate is one
canonical exact number, `Rational`: an `int` when it is integral and a
`fractions.Fraction` with denominator > 1 otherwise.  The two compare, hash
and print alike for integral values, so the choice changes no key, order or
output, and the integral coordinates of braid cones stay on the fast integer
paths.  Nothing in this module touches floating point, which makes every
identity below exact rather than approximate.

Tropical addition is max, tropical multiplication is ordinary +.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterable, Sequence

from .errors import InvalidInputError

Rational = Fraction | int


def _frac(x) -> Rational:
    """The canonical exact number equal to x: an int when x is integral,
    else a Fraction."""
    if type(x) is int:
        return x
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


@dataclass(frozen=True)
class TropPoint:
    """A point of the tropical projective torus, canonically represented.

    Any representative may be passed in; the constructor subtracts the first
    coordinate so that two equal torus points compare and hash equal.
    """

    coords: tuple[Rational, ...]

    def __init__(self, coords: Iterable[Rational]):
        raw = tuple(map(_frac, coords))
        if not raw:
            raise InvalidInputError("a torus point needs at least one coordinate")
        base = raw[0]
        if base:
            raw = tuple(_frac(c - base) for c in raw)
        object.__setattr__(self, "coords", raw)

    @property
    def n(self) -> int:
        return len(self.coords)

    def minus(self, other: TropPoint) -> TropPoint:
        """Difference vector y - x as a torus point."""
        if self.n != other.n:
            raise InvalidInputError("ambient size mismatch")
        return TropPoint(a - b for a, b in zip(self.coords, other.coords))

    def translate(self, vec: Sequence[Rational]) -> TropPoint:
        """Translate by an arbitrary representative vector."""
        if len(vec) != self.n:
            raise InvalidInputError("ambient size mismatch")
        return TropPoint(a + _frac(b) for a, b in zip(self.coords, vec))

    def scale(self, factor: Rational) -> TropPoint:
        """Scale the canonical representative by a rational factor."""
        f = _frac(factor)
        return TropPoint(c * f for c in self.coords)

    def __repr__(self) -> str:
        return "TropPoint(%s)" % ", ".join(str(c) for c in self.coords)


@dataclass(frozen=True)
class Partition:
    """Coordinate blocks of a point, ordered by strictly decreasing value."""

    blocks: tuple[frozenset[int], ...]
    values: tuple[Rational, ...]


@dataclass(frozen=True)
class Polytrope:
    """A tropical ball: classically convex and tropically convex."""

    center: TropPoint
    radius: Rational
    vertices: tuple[TropPoint, ...]

    def contains(self, y: TropPoint) -> bool:
        return trop_norm(y.minus(self.center)) <= self.radius


def canonicalize(raw: Iterable[Rational]) -> TropPoint:
    """Return the representative with first coordinate zero."""
    return TropPoint(raw)


def e_indicator(n: int, subset: Iterable[int]) -> tuple[int, ...]:
    """0/1 indicator vector of a subset of {1..n}."""
    s = set(subset)
    if not s <= set(range(1, n + 1)):
        raise InvalidInputError(f"subset {sorted(s)} not within 1..{n}")
    return tuple(1 if i in s else 0 for i in range(1, n + 1))


def flat_direction(n: int, subset: Iterable[int]) -> TropPoint:
    """The torus point of the negated indicator vector of a subset.

    These are the ray generators of all chains-of-sets fans.
    """
    return TropPoint(-c for c in e_indicator(n, subset))


def trop_combine(terms: Sequence[tuple[Rational, TropPoint]]) -> TropPoint:
    """Tropical linear combination: componentwise max of lambda_i + x_i."""
    if not terms:
        raise InvalidInputError("empty combination")
    n = terms[0][1].n
    acc: list[Rational] | None = None
    for lam, pt in terms:
        if pt.n != n:
            raise InvalidInputError("ambient size mismatch")
        lam = _frac(lam)
        shifted = [c + lam for c in pt.coords]
        if acc is None:
            acc = shifted
        else:
            acc = [a if a >= s else s for a, s in zip(acc, shifted)]
    assert acc is not None
    return TropPoint(acc)


def heterogeneity(x: TropPoint) -> int:
    """Number of distinct coordinate values of any representative."""
    return len(set(x.coords))


def partition(x: TropPoint) -> Partition:
    """Blocks of equal coordinates, ordered by strictly decreasing value.

    Indices are 1-based; ties inside a block are kept sorted ascending.
    """
    by_value: dict[Rational, list[int]] = {}
    for i, c in enumerate(x.coords, start=1):
        by_value.setdefault(c, []).append(i)
    values = sorted(by_value, reverse=True)
    return Partition(
        blocks=tuple(frozenset(by_value[v]) for v in values),
        values=tuple(values),
    )


def _breakpoints(x: TropPoint, y: TropPoint) -> tuple[int, list[list[int]]]:
    """The common denominator d of x and y, and the breakpoints b of the
    tropical segment from x to y as the integer vectors d*b, from d*x on."""
    d = lcm(*(c.denominator for c in x.coords + y.coords))
    point = [c.numerator * (d // c.denominator) for c in x.coords]
    return d, _integer_breakpoints(point, [c.numerator * (d // c.denominator) for c in y.coords])


def _integer_breakpoints(point: list[int], target: Sequence[int]) -> list[list[int]]:
    """The breakpoints of the tropical segment between two integer vectors,
    from the first on.

    The coordinates with the largest target - point values grow first:
    between consecutive distinct values hi > lo of target - point, every
    coordinate with a value of at least hi grows by hi - lo.
    """
    delta = [t - p for t, p in zip(target, point)]
    steps = sorted(set(delta), reverse=True)
    ends = [point]
    for hi, lo in zip(steps, steps[1:]):
        point = [p + hi - lo if e >= hi else p for p, e in zip(point, delta)]
        ends.append(point)
    return ends


def segment(x: TropPoint, y: TropPoint) -> list[TropPoint]:
    """Breakpoints of the tropical segment from x to y.

    Consecutive differences are positive multiples of nested 0/1 vectors; the
    number of returned points equals the heterogeneity of y - x, so equal
    endpoints give a single point.
    """
    if x.n != y.n:
        raise InvalidInputError("ambient size mismatch")
    d, ends = _breakpoints(x, y)
    return [TropPoint(Fraction(c, d) for c in b) for b in ends]


def tconv_contains(generators: Sequence[TropPoint], z: TropPoint) -> bool:
    """Decide membership of z in the tropical convex hull of the generators.

    z lies in the hull iff the combination with the largest admissible
    coefficients, lambda_i = min_j (z_j - (x_i)_j), already reproduces z.
    """
    if not generators:
        raise InvalidInputError("empty generator list")
    for g in generators:
        if g.n != z.n:
            raise InvalidInputError("ambient size mismatch")
    terms = []
    for g in generators:
        lam = min(zc - gc for zc, gc in zip(z.coords, g.coords))
        terms.append((lam, g))
    return trop_combine(terms) == z


def trop_norm(x: TropPoint) -> Rational:
    """Max coordinate minus min coordinate of any representative."""
    return max(x.coords) - min(x.coords)


def imax(x: TropPoint) -> frozenset[int]:
    """1-based indices where the coordinate is maximal."""
    m = max(x.coords)
    return frozenset(i for i, c in enumerate(x.coords, start=1) if c == m)


def imin(x: TropPoint) -> frozenset[int]:
    """1-based indices where the coordinate is minimal."""
    m = min(x.coords)
    return frozenset(i for i, c in enumerate(x.coords, start=1) if c == m)


def trop_ball(x: TropPoint, r: Rational) -> Polytrope:
    """The tropical ball of radius r around x.

    Its vertices are the images of x + r * e_F over proper nonempty subsets F;
    the empty set and the full set both land on the center, which is interior
    for positive radius.
    """
    r = _frac(r)
    if r < 0:
        raise InvalidInputError("negative radius")
    n = x.n
    verts: list[TropPoint] = []
    seen: set[TropPoint] = set()
    for size in range(1, n):
        for subset in combinations(range(1, n + 1), size):
            p = x.translate(tuple(r * c for c in e_indicator(n, subset)))
            if p not in seen:
                seen.add(p)
                verts.append(p)
    if r == 0 or not verts:
        verts = [x]
    return Polytrope(center=x, radius=r, vertices=tuple(verts))
