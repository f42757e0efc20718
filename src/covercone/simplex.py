"""Exact two-phase revised simplex over the integers, with Bland's rule.

Solves  min c.x  subject to  A x = b, x >= 0  exactly and deterministically.
On an infeasible system the phase-1 dual is returned as a Farkas certificate:
a vector y with y.b > 0 and y.A_j <= 0 for every column j.  At an optimum the
phase-2 dual y = c_B B^-1 is returned: y.A_j <= c_j for all j, y.b = c.x.

A, b and c are scaled once by K, L and M, each the lcm of its denominators,
so the pivot loop runs on Python ints.  Rows are negated where b_i < 0, one
artificial column e_i per row starts as the basis, and each column is stored
as its nonzeros.  The state is integer-preserving (Edmonds/Bareiss): adj, X
and D = |det B| > 0 with B^-1 = adj/D and x_B = X/D.  Each round enters the
first nonbasic column with P.A_j > c_j D, P = c_B adj (Bland's rule), forms
a = adj A_j, and takes the ratio test as X_r a_s < X_s a_r, ties to the
smallest basic index.  The pivot keeps row r and sets each other row of adj
and X to (a_r row_i - a_i row_r) / D, an exact division, as the result is an
adjugate; then D = |a_r|, negating row r if a_r < 0.  A row with a_i = 0
only rescales to a_r row_i / D, and is left alone when a_r = D as well:
71-73% of the row updates of an n = 5 implication LP are such no-ops.  P is
formed once per optimize call and then carried through each pivot as one
more row of the same update, P' = (a_r P - delta adj_r) / D with delta =
P.A_j - c_j D of the entering column, the number Bland's test compared with
0.  That division is exact too, since P' is c_B' adj', an integer vector, for
the new basis.  A positive scale per object flips no reduced cost and
reorders no ratios, so the pivots are the full tableau's, and so are
x = K X/(D L), the objective, the Farkas dual sigma P/D and the optimal dual
sigma K P/(D M), the only Fractions formed.
A redundant row keeps its artificial basic at level zero: the row is zero on
every original column, so that artificial never leaves.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import lcm
from typing import NamedTuple, Optional, Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)


class PivotLimitError(RuntimeError):
    """The pivot budget was exhausted (resource guard, not a verdict)."""


class LPResult(NamedTuple):
    status: str
    x: Optional[list[Fraction]] = None
    objective: Optional[Fraction] = None
    #: on INFEASIBLE: y with y.b > 0 and y.A_j <= 0 for all j
    farkas_dual: Optional[list[Fraction]] = None
    #: on OPTIMAL: the phase-2 dual y, with y.A_j <= c_j for all j and y.b = objective
    duals: Optional[list[Fraction]] = None
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

    # one positive integer scale each for A, b and c; rows sign-normalized so
    # that b >= 0; artificials e_i last.  v.denominator works on int and Fraction.
    # Each row is read through its distinct values, and only its nonzeros visited.
    values = [set(row) for row in rows]
    K = lcm(*{v.denominator for row in values for v in row})
    L = lcm(*(v.denominator for v in rhs))
    M = lcm(*(v.denominator for v in cost))
    sigma = [-1 if v < 0 else 1 for v in rhs]
    columns: list[list[tuple[int, int]]] = [[] for _ in range(nvars)]
    for i, row in enumerate(rows):
        entry = {v: (i, sigma[i] * v.numerator * (K // v.denominator)) for v in values[i]}
        for j in compress(range(nvars), row):
            columns[j].append(entry[row[j]])
    columns += [[(i, 1)] for i in range(m)]
    lp = _RevisedSimplex(columns, [s * v.numerator * (L // v.denominator) for s, v in zip(sigma, rhs)], max_pivots)

    # phase 1: minimize the artificial sum
    phase1 = [0] * nvars + [1] * m
    lp.optimize(phase1, nvars + m)
    if sum(v for v, j in zip(lp.X, lp.basis) if j >= nvars) > 0:
        # optimal phase-1 duals P/D: y.b > 0 and y.A_j <= 0 on the sign-normalized rows
        return LPResult(INFEASIBLE, farkas_dual=[Fraction(s * p, lp.D) for s, p in zip(sigma, lp.P)], pivots=lp.pivots)

    # drive zero-level artificials out of the basis where a row allows it
    for r in range(m):
        if lp.basis[r] >= nvars:
            adj_r = lp.adj[r]
            j = next((j for j in range(nvars) if sum(adj_r[i] * a for i, a in columns[j])), None)
            if j is not None:
                lp.pivot(r, j, lp.entering(j))

    # phase 2 on the original columns only
    phase2 = [c.numerator * (M // c.denominator) for c in cost] + [0] * m
    if not lp.optimize(phase2, nvars):
        return LPResult(UNBOUNDED, pivots=lp.pivots)
    x = [_ZERO] * nvars
    for j, v in zip(lp.basis, lp.X):
        if j < nvars:
            x[j] = Fraction(K * v, lp.D * L)
    objective = Fraction(K * sum(phase2[j] * v for j, v in zip(lp.basis, lp.X)), M * lp.D * L)
    duals = [Fraction(s * K * p, lp.D * M) for s, p in zip(sigma, lp.P)]
    return LPResult(OPTIMAL, x=x, objective=objective, duals=duals, pivots=lp.pivots)


class _RevisedSimplex:
    """A basis of the scaled system as adj, X and D, starting at the artificials.

    P = c_B adj for the cost optimize runs on, kept up by its pivots; the
    drive-out pivots between the phases leave it stale.
    """

    def __init__(self, columns, X: list[int], max_pivots: int):
        m = len(X)
        self.columns = columns
        self.basis = list(range(len(columns) - m, len(columns)))
        self.adj = [[int(k == i) for k in range(m)] for i in range(m)]
        self.X = X
        self.D = 1
        self.P: list[int] = []
        self.budget = max_pivots
        self.pivots = 0

    def duals(self, cost) -> list[int]:
        """P = c_B adj; the duals c_B B^-1 are P/D."""
        P = [0] * len(self.X)
        for j, adj_r in zip(self.basis, self.adj):
            c = cost[j]
            if c:
                P = [p + c * v for p, v in zip(P, adj_r)]
        return P

    def entering(self, j: int) -> list[int]:
        col = self.columns[j]
        return [sum(adj_r[i] * a for i, a in col) for adj_r in self.adj]

    def pivot(self, r: int, j: int, a: list[int], delta: Optional[int] = None) -> None:
        """Enter column j at row r, with a = adj A_j.  Given delta = P.A_j - c_j D,
        P is carried along as one more row with f = delta."""
        adj, X, D = self.adj, self.X, self.D
        p = a[r]
        if p < 0:  # keeps D > 0; only the drive-out pivots on a negative entry
            p = -p
            adj[r] = [-v for v in adj[r]]
            X[r] = -X[r]
        adj_r, x_r = adj[r], X[r]
        for i, f in enumerate(a):
            if i == r:
                continue
            if f:
                adj[i] = [(p * v - f * w) // D for v, w in zip(adj[i], adj_r)]
                X[i] = (p * X[i] - f * x_r) // D
            elif p != D:  # with f = 0 the row only rescales; with p = D too it stays
                adj[i] = [p * v // D for v in adj[i]]
                X[i] = p * X[i] // D
        if delta is not None:
            self.P = [(p * v - delta * w) // D for v, w in zip(self.P, adj_r)]
        self.D = p
        self.basis[r] = j
        self.pivots += 1

    def optimize(self, cost, limit: int) -> bool:
        """Bland's rule over columns < limit; returns False on an unbounded direction."""
        columns, X, basis = self.columns, self.X, self.basis
        self.P = self.duals(cost)
        while True:
            if self.budget <= 0:
                raise PivotLimitError("LP pivot budget exhausted")
            self.budget -= 1
            P, D = self.P, self.D
            basic = set(basis)
            for enter in range(limit):
                if enter not in basic:
                    delta = sum(P[i] * a for i, a in columns[enter]) - cost[enter] * D
                    if delta > 0:
                        break
            else:
                return True
            a = self.entering(enter)
            leave = None
            for r, a_r in enumerate(a):
                # x_r/a_r < x_leave/a_leave, ties to the smallest basic index
                if a_r > 0 and (leave is None or (X[r] * a[leave], basis[r]) < (X[leave] * a_r, basis[leave])):
                    leave = r
            if leave is None:
                return False
            self.pivot(leave, enter, a, delta)
