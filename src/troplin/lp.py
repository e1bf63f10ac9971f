"""Exact rational feasibility of linear systems by phase-one simplex.

Variables are free; internally each is split into a difference of two
nonnegative variables, inequalities get slacks and every row an artificial.
The sum of the artificials is minimized with Bland's rule, which terminates
without any tolerance.  A zero minimum gives a witness point once the basic
artificials are pivoted out; a positive one gives a Farkas certificate:
multipliers lam >= 0 on the inequalities and mu on the equalities with
lam.A + mu.E = 0 and lam.b + mu.f < 0.  Every coefficient is coerced to a
`Fraction`, so the pivot's true divisions stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Feasibility:
    feasible: bool
    point: tuple[Fraction, ...] | None
    certificate: tuple[tuple[Fraction, ...], tuple[Fraction, ...]] | None = None


class _Tableau:
    def __init__(self, num_vars: int, ineqs, eqs):
        self.n = num_vars
        self.ineqs = [(tuple(map(Fraction, a)), Fraction(b)) for a, b in ineqs]
        self.eqs = [(tuple(map(Fraction, a)), Fraction(b)) for a, b in eqs]
        rows = len(self.ineqs) + len(self.eqs)
        self.num_slacks = len(self.ineqs)
        self.cols = 2 * num_vars + self.num_slacks + rows  # + artificials
        self.art0 = 2 * num_vars + self.num_slacks
        self.signs: list[int] = []
        self.mat: list[list[Fraction]] = []
        self.rhs: list[Fraction] = []
        for idx, (a, b) in enumerate(self.ineqs + self.eqs):
            sign = -1 if b < 0 else 1
            row = [Fraction(0)] * self.cols
            for j, coef in enumerate(a):
                row[j] = sign * coef
                row[self.n + j] = -sign * coef
            if idx < len(self.ineqs):
                row[2 * self.n + idx] = Fraction(sign)
            row[self.art0 + idx] = Fraction(1)
            self.signs.append(sign)
            self.mat.append(row)
            self.rhs.append(sign * b)
        self.basis = [self.art0 + i for i in range(rows)]
        self.live_rows = list(range(rows))

    def _reduced_cost(self, cost, j):
        return cost[j] - sum(cost[self.basis[i]] * self.mat[i][j] for i in self.live_rows)

    def _pivot(self, row, col):
        piv = self.mat[row][col]
        inv = 1 / piv
        self.mat[row] = [x * inv for x in self.mat[row]]
        self.rhs[row] *= inv
        for i in self.live_rows:
            if i != row and self.mat[i][col] != 0:
                f = self.mat[i][col]
                self.mat[i] = [x - f * y for x, y in zip(self.mat[i], self.mat[row])]
                self.rhs[i] -= f * self.rhs[row]
        self.basis[row] = col

    def minimize(self, cost):
        """Bland-rule simplex.  Only the phase-one cost is minimized, and it
        is bounded below by 0, so a ratio test always finds a leaving row."""
        while True:
            entering = None
            for j in range(self.cols):
                if j in (self.basis[i] for i in self.live_rows):
                    continue
                if self._reduced_cost(cost, j) < 0:
                    entering = j
                    break
            if entering is None:
                return
            leaving = None
            best = None
            for i in self.live_rows:
                coef = self.mat[i][entering]
                if coef > 0:
                    ratio = self.rhs[i] / coef
                    if (
                        best is None
                        or ratio < best
                        or (ratio == best and self.basis[i] < self.basis[leaving])
                    ):
                        best = ratio
                        leaving = i
            self._pivot(leaving, entering)

    def objective_value(self, cost):
        return sum(cost[self.basis[i]] * self.rhs[i] for i in self.live_rows)

    def solution(self):
        values = [Fraction(0)] * self.cols
        for i in self.live_rows:
            values[self.basis[i]] = self.rhs[i]
        return tuple(values[j] - values[self.n + j] for j in range(self.n))


def lp_feasible(num_vars, ineqs=(), eqs=()) -> Feasibility:
    """Feasibility of {x : a.x <= b for ineqs, a.x = b for eqs}, with a
    witness point or a Farkas certificate."""
    tab = _Tableau(num_vars, list(ineqs), list(eqs))
    phase1 = [Fraction(0)] * tab.art0 + [Fraction(1)] * (tab.cols - tab.art0)
    tab.minimize(phase1)
    if tab.objective_value(phase1) > 0:
        return Feasibility(False, None, _farkas(tab, phase1))
    _evict_artificials(tab)
    return Feasibility(True, tab.solution())


def _evict_artificials(tab: _Tableau):
    """Pivot basic artificials out; drop rows that prove redundant."""
    for i in list(tab.live_rows):
        if tab.basis[i] < tab.art0:
            continue
        pivot_col = next(
            (j for j in range(tab.art0) if tab.mat[i][j] != 0),
            None,
        )
        if pivot_col is None:
            tab.live_rows.remove(i)
        else:
            tab._pivot(i, pivot_col)


def _farkas(tab: _Tableau, phase1_cost):
    """Multipliers (lam on inequalities, mu on equalities) from phase-one duals."""
    num_ineq = len(tab.ineqs)
    num_rows = num_ineq + len(tab.eqs)
    lam = []
    mu = []
    for idx in range(num_rows):
        j = tab.art0 + idx
        pi = Fraction(1) - tab._reduced_cost(phase1_cost, j)
        val = -tab.signs[idx] * pi
        if idx < num_ineq:
            lam.append(val)
        else:
            mu.append(val)
    return tuple(lam), tuple(mu)
