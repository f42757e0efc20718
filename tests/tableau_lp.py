"""Reference solver for the differential tests of covercone.simplex.

The dense two-phase tableau that covercone.simplex used before its revised
form, kept only as an oracle: same Bland's rule, same ratio-test tie-break,
same phase-1 Farkas dual, so on every LP it must give exactly the same
status, x, objective, Farkas dual, optimal dual and pivot count.  It deletes
redundant rows where the revised form keeps their artificials basic at level
zero.  The optimal dual is read off the phase-2 reduced costs of the
artificial columns, which the tableau keeps for every row, dropped or not.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from covercone.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LPResult, PivotLimitError

_ZERO = Fraction(0)
_ONE = Fraction(1)


def tableau_lp(
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
    cost: Sequence[Fraction],
    max_pivots: int = 100_000,
) -> LPResult:
    m = len(rows)
    nvars = len(cost)
    if any(len(r) != nvars for r in rows) or len(rhs) != m:
        raise ValueError("inconsistent LP dimensions")

    # sign-normalize so the right-hand side is nonnegative
    sigma = [1] * m
    tab: list[list[Fraction]] = []
    b: list[Fraction] = []
    for i in range(m):
        if rhs[i] < 0:
            sigma[i] = -1
            tab.append([-Fraction(v) for v in rows[i]])
            b.append(-Fraction(rhs[i]))
        else:
            tab.append([Fraction(v) for v in rows[i]])
            b.append(Fraction(rhs[i]))

    # append artificial identity columns
    for i in range(m):
        tab[i].extend(_ONE if j == i else _ZERO for j in range(m))
        tab[i].append(b[i])
    ncols = nvars + m
    basis = list(range(nvars, ncols))

    # phase 1: minimize the artificial sum
    zrow = [_ZERO] * (ncols + 1)
    for j in range(nvars, ncols):
        zrow[j] = _ONE
    for i in range(m):  # eliminate basic (artificial) columns from the cost row
        row = tab[i]
        for j in range(ncols + 1):
            zrow[j] -= row[j]
    for bi in basis:
        zrow[bi] = _ZERO

    budget = [max_pivots]
    count = [0]
    _pivot_until_optimal(tab, zrow, basis, entering_limit=ncols, budget=budget, count=count)
    phase1 = -zrow[ncols]
    if phase1 > 0:
        # Farkas dual from the reduced costs of the artificial columns
        y = [sigma[i] * (_ONE - zrow[nvars + i]) for i in range(m)]
        return LPResult(INFEASIBLE, farkas_dual=y, pivots=count[0])

    # drive zero-level artificials out of the basis; drop redundant rows
    drop: list[int] = []
    for r in range(m):
        if basis[r] >= nvars:
            pivot_col = next((j for j in range(nvars) if tab[r][j] != 0), None)
            if pivot_col is None:
                drop.append(r)
            else:
                _pivot(tab, zrow, basis, r, pivot_col, count)
    for r in reversed(drop):
        del tab[r]
        del basis[r]

    # phase 2 on the original columns only
    zrow = [_ZERO] * (ncols + 1)
    for j in range(nvars):
        zrow[j] = Fraction(cost[j])
    for i in range(len(tab)):
        cb = cost[basis[i]] if basis[i] < nvars else _ZERO
        if cb != 0:
            row = tab[i]
            for j in range(ncols + 1):
                zrow[j] -= cb * row[j]
    for bi in basis:
        if bi < nvars:
            zrow[bi] = _ZERO

    bounded = _pivot_until_optimal(tab, zrow, basis, entering_limit=nvars, budget=budget, count=count)
    if not bounded:
        return LPResult(UNBOUNDED, pivots=count[0])

    x = [_ZERO] * nvars
    for r in range(len(tab)):
        if basis[r] < nvars:
            x[basis[r]] = tab[r][ncols]
    # an artificial column costs 0 in phase 2, so its reduced cost is -y_i
    y = [-sigma[i] * zrow[nvars + i] for i in range(m)]
    return LPResult(OPTIMAL, x=x, objective=-zrow[ncols], duals=y, pivots=count[0])


def _pivot_until_optimal(tab, zrow, basis, entering_limit: int, budget: list, count: list) -> bool:
    """Bland's rule; returns False when an unbounded direction is found."""
    m = len(tab)
    ncols = len(zrow) - 1
    while True:
        if budget[0] <= 0:
            raise PivotLimitError("LP pivot budget exhausted")
        budget[0] -= 1
        enter = next(
            (j for j in range(entering_limit) if zrow[j] < 0 and j not in basis),
            None,
        )
        if enter is None:
            return True
        leave = None
        best: Optional[Fraction] = None
        for r in range(m):
            a = tab[r][enter]
            if a > 0:
                ratio = tab[r][ncols] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best = ratio
                    leave = r
        if leave is None:
            return False
        _pivot(tab, zrow, basis, leave, enter, count)


def _pivot(tab, zrow, basis, r: int, j: int, count: list) -> None:
    ncols = len(zrow) - 1
    row = tab[r]
    pivot = row[j]
    if pivot == 0:
        raise ValueError("zero pivot")
    if pivot != 1:
        inv = _ONE / pivot
        tab[r] = row = [v * inv for v in row]
    for i in range(len(tab)):
        if i == r:
            continue
        factor = tab[i][j]
        if factor != 0:
            other = tab[i]
            tab[i] = [ov - factor * rv for ov, rv in zip(other, row)]
            tab[i][j] = _ZERO
    factor = zrow[j]
    if factor != 0:
        for c in range(ncols + 1):
            zrow[c] -= factor * row[c]
        zrow[j] = _ZERO
    basis[r] = j
    count[0] += 1

