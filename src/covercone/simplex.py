"""Exact two-phase revised simplex over rationals, with Bland's rule.

Solves  min c.x  subject to  A x = b, x >= 0  in Fraction arithmetic, so
feasibility verdicts and optima are exact and deterministic.  On an
infeasible system the phase-1 dual is returned as a Farkas certificate:
a vector y with y.b > 0 and y.A_j <= 0 for every column j.

The method is the revised form.  Rows are negated where b_i < 0, and one
artificial column e_i per row starts as the basis.  Each column is stored as
its nonzeros; the state is the exact m x m basis inverse B^-1 and the basic
values x_B.  Each round prices the nonbasic columns in index order with the
duals pi = c_B B^-1 and enters the first one whose reduced cost
c_j - pi.A_j is negative (Bland's rule).  Only that column's B^-1 A_j is
formed, the ratio test breaks ties by the smallest basic index, and a pivot
updates B^-1 and x_B.  These are the entering and leaving rules of the full
tableau, so the pivots, x, the objective and the Farkas dual are the ones it
gives.  A redundant row keeps its artificial basic at level zero: the row is
zero on every original column, so that artificial never leaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)
_ONE = Fraction(1)


class PivotLimitError(RuntimeError):
    """The pivot budget was exhausted (resource guard, not a verdict)."""


@dataclass
class LPResult:
    status: str
    x: Optional[list[Fraction]] = None
    objective: Optional[Fraction] = None
    #: on INFEASIBLE: y with y.b > 0 and y.A_j <= 0 for all j
    farkas_dual: Optional[list[Fraction]] = None
    #: basis changes made in phase 1, while driving out artificials, and in phase 2
    pivots: int = 0


def solve_equality_lp(
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
    cost: Sequence[Fraction],
    max_pivots: int = 100_000,
) -> LPResult:
    m = len(rows)
    nvars = len(cost)
    if any(len(r) != nvars for r in rows) or len(rhs) != m:
        raise ValueError("inconsistent LP dimensions")

    # sign-normalize so the right-hand side is nonnegative; artificials e_i last
    sigma = [-1 if v < 0 else 1 for v in rhs]
    columns: list[list[tuple[int, Fraction]]] = [[] for _ in range(nvars)]
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                columns[j].append((i, sigma[i] * Fraction(v)))
    columns += [[(i, _ONE)] for i in range(m)]
    lp = _RevisedSimplex(columns, [sigma[i] * Fraction(rhs[i]) for i in range(m)], max_pivots)

    # phase 1: minimize the artificial sum
    phase1 = [_ZERO] * nvars + [_ONE] * m
    lp.optimize(phase1, nvars + m)
    if sum((v for v, j in zip(lp.xb, lp.basis) if j >= nvars), _ZERO) > 0:
        # optimal phase-1 duals: pi.b > 0 and pi.A_j <= 0 on the sign-normalized rows
        pi = lp.duals(phase1)
        return LPResult(INFEASIBLE, farkas_dual=[s * p for s, p in zip(sigma, pi)], pivots=lp.pivots)

    # drive zero-level artificials out of the basis where a row allows it
    for r in range(m):
        if lp.basis[r] >= nvars:
            inv_r = lp.inv[r]
            j = next((j for j in range(nvars) if sum(inv_r[i] * a for i, a in columns[j])), None)
            if j is not None:
                lp.pivot(r, j, lp.entering(j))

    # phase 2 on the original columns only
    phase2 = [Fraction(c) for c in cost] + [_ZERO] * m
    if not lp.optimize(phase2, nvars):
        return LPResult(UNBOUNDED, pivots=lp.pivots)
    x = [_ZERO] * nvars
    for j, v in zip(lp.basis, lp.xb):
        if j < nvars:
            x[j] = v
    objective = sum((phase2[j] * v for j, v in zip(lp.basis, lp.xb)), _ZERO)
    return LPResult(OPTIMAL, x=x, objective=objective, pivots=lp.pivots)


class _RevisedSimplex:
    """A basis of the sign-normalized system as B^-1 and x_B, starting at the artificials."""

    def __init__(self, columns, xb: list[Fraction], max_pivots: int):
        m = len(xb)
        self.columns = columns
        self.basis = list(range(len(columns) - m, len(columns)))
        self.inv = [[_ONE if k == i else _ZERO for k in range(m)] for i in range(m)]
        self.xb = xb
        self.budget = max_pivots
        self.pivots = 0

    def duals(self, cost) -> list[Fraction]:
        pi = [_ZERO] * len(self.xb)
        for j, inv_r in zip(self.basis, self.inv):
            c = cost[j]
            if c:
                pi = [p + c * v if v else p for p, v in zip(pi, inv_r)]
        return pi

    def entering(self, j: int) -> list[Fraction]:
        col = self.columns[j]
        return [sum((inv_r[i] * a for i, a in col), _ZERO) for inv_r in self.inv]

    def pivot(self, r: int, j: int, alpha: list[Fraction]) -> None:
        inv, xb = self.inv, self.xb
        p = alpha[r]
        if p != 1:
            inv[r] = [v / p for v in inv[r]]
            xb[r] /= p
        inv_r, x_r = inv[r], xb[r]
        for i, f in enumerate(alpha):
            if f and i != r:
                inv[i] = [v - f * w if w else v for v, w in zip(inv[i], inv_r)]
                xb[i] -= f * x_r
        self.basis[r] = j
        self.pivots += 1

    def optimize(self, cost, limit: int) -> bool:
        """Bland's rule over columns < limit; returns False on an unbounded direction."""
        columns, xb, basis = self.columns, self.xb, self.basis
        while True:
            if self.budget <= 0:
                raise PivotLimitError("LP pivot budget exhausted")
            self.budget -= 1
            pi = self.duals(cost)
            basic = set(basis)
            enter = next(
                (j for j in range(limit)
                 if j not in basic and sum((pi[i] * a for i, a in columns[j]), _ZERO) > cost[j]),
                None,
            )
            if enter is None:
                return True
            alpha = self.entering(enter)
            leave = None
            best: Optional[Fraction] = None
            for r, a in enumerate(alpha):
                if a > 0:
                    ratio = xb[r] / a
                    if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                        best = ratio
                        leave = r
            if leave is None:
                return False
            self.pivot(leave, enter, alpha)
