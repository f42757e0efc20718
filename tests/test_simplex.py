from fractions import Fraction as F

import pytest

from covercone.simplex import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    PivotLimitError,
    solve_equality_lp,
)


def test_simple_optimum():
    res = solve_equality_lp(
        [[F(1), F(1)], [F(1), F(-1)]], [F(2), F(0)], [F(1), F(0)]
    )
    assert res.status == OPTIMAL
    assert res.x == [F(1), F(1)]
    assert res.objective == 1


def test_infeasible_returns_farkas_dual():
    rows = [[F(1), F(1)], [F(1), F(1)]]
    rhs = [F(1), F(3)]
    res = solve_equality_lp(rows, rhs, [F(0), F(0)])
    assert res.status == INFEASIBLE
    y = res.farkas_dual
    assert sum(yi * bi for yi, bi in zip(y, rhs)) > 0
    for j in range(2):
        assert sum(y[i] * rows[i][j] for i in range(2)) <= 0


def test_negative_rhs_farkas_dual():
    # x1 = -1 with x1 >= 0 is infeasible; dual must respect the sign flip
    rows = [[F(1)]]
    rhs = [F(-1)]
    res = solve_equality_lp(rows, rhs, [F(0)])
    assert res.status == INFEASIBLE
    y = res.farkas_dual
    assert y[0] * rhs[0] > 0
    assert y[0] * rows[0][0] <= 0


def test_unbounded():
    # max x subject to x - s = 1, with s a surplus slack
    res = solve_equality_lp([[F(1), F(-1)]], [F(1)], [F(-1), F(0)])
    assert res.status == UNBOUNDED


def test_degenerate_does_not_cycle():
    # Beale's classic cycling example; Bland's rule must terminate at -1/20
    rows = [
        [F(1), F(0), F(0), F(1, 4), F(-60), F(-1, 25), F(9)],
        [F(0), F(1), F(0), F(1, 2), F(-90), F(-1, 50), F(3)],
        [F(0), F(0), F(1), F(0), F(0), F(1), F(0)],
    ]
    cost = [F(0), F(0), F(0), F(-3, 4), F(150), F(-1, 50), F(6)]
    res = solve_equality_lp(rows, [F(0), F(0), F(1)], cost)
    assert res.status == OPTIMAL
    assert res.objective == F(-1, 20)


def test_redundant_rows_are_dropped():
    rows = [[F(1), F(1)], [F(2), F(2)]]
    res = solve_equality_lp(rows, [F(2), F(4)], [F(1), F(2)])
    assert res.status == OPTIMAL
    assert res.x[0] + res.x[1] == 2


def test_dimension_validation():
    with pytest.raises(ValueError):
        solve_equality_lp([[F(1)]], [F(1), F(2)], [F(0)])


def test_pivot_budget():
    with pytest.raises(PivotLimitError):
        solve_equality_lp(
            [[F(1), F(1)], [F(1), F(-1)]], [F(2), F(0)], [F(1), F(0)], max_pivots=1
        )
