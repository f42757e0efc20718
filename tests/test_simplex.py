from fractions import Fraction as F
from unittest.mock import patch

import pytest
from hypothesis import find, given, settings, strategies as st
from scipy.optimize import linprog

from covercone import farkas, simplex
from covercone.cli import main
from covercone.cone import build_bt_system
from covercone.farkas import LinearInequality
from covercone.simplex import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    PivotLimitError,
    solve_equality_lp,
)
from tableau_lp import tableau_lp


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


def test_redundant_row_keeps_the_optimum():
    rows = [[F(1), F(1)], [F(2), F(2)]]
    res = solve_equality_lp(rows, [F(2), F(4)], [F(1), F(2)])
    assert res.status == OPTIMAL
    assert res.x[0] + res.x[1] == 2


def test_dimension_validation():
    with pytest.raises(ValueError):
        solve_equality_lp([[F(1)]], [F(1), F(2)], [F(0)])


def test_pivot_budget(monkeypatch):
    monkeypatch.setattr(simplex, "MAX_PIVOTS", 1)
    with pytest.raises(PivotLimitError):
        solve_equality_lp([[F(1), F(1)], [F(1), F(-1)]], [F(2), F(0)], [F(1), F(0)])


# ---------------------------------------------------------------------------
# differential tests against the dense tableau (tests/tableau_lp.py)

ENTRY = st.sampled_from([F(0), F(0), F(1), F(-1), F(1, 2), F(-3, 2), F(2, 3)])


@st.composite
def small_lps(draw):
    """Small LPs with 0/+-1 and small rational entries.

    Zero right-hand sides give degenerate vertices, negative ones flip rows,
    and an optional extra row is a multiple of the sum of two rows with the
    matching right-hand side, so it is redundant.  Infeasible and unbounded
    LPs come up on their own.
    """
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    rows = [[draw(ENTRY) for _ in range(n)] for _ in range(m)]
    rhs = [draw(ENTRY) for _ in range(m)]
    if draw(st.booleans()):
        i, k = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        c = draw(st.sampled_from([F(1), F(-2), F(1, 3)]))
        rows.append([c * (a + b) for a, b in zip(rows[i], rows[k])])
        rhs.append(c * (rhs[i] + rhs[k]))
    return rows, rhs, [draw(ENTRY) for _ in range(n)]


BIG = st.builds(F, st.integers(-10**31, 10**31), st.sampled_from([1, 10, 10**6, 10**15, 10**30]))
COST = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 7, 12]))


@st.composite
def scaled_lps(draw):
    """LPs whose right-hand sides have denominators up to 10^30, like the log
    targets of realize, and whose costs have non-unit denominators.

    Half of them are feasible by construction: b = A x0 for some x0 >= 0.
    """
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    rows = [[draw(ENTRY) for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):
        x0 = [abs(draw(BIG)) for _ in range(n)]
        rhs = [sum(a * v for a, v in zip(row, x0)) for row in rows]
    else:
        rhs = [draw(BIG) for _ in range(m)]
    return rows, rhs, [draw(COST) for _ in range(n)]


def outcome(solver, *args, **kwargs):
    try:
        return solver(*args, **kwargs)
    except PivotLimitError:
        return "pivot limit"


@settings(max_examples=400, deadline=None)
@given(small_lps(), st.integers(1, 6))
def test_matches_tableau(lp, budget):
    """Same status, x, objective, Farkas dual and pivot count; same budget cut."""
    assert outcome(solve_equality_lp, *lp) == outcome(tableau_lp, *lp)
    with patch.object(simplex, "MAX_PIVOTS", budget):
        assert outcome(solve_equality_lp, *lp) == outcome(tableau_lp, *lp, max_pivots=budget)


@settings(max_examples=300, deadline=None)
@given(scaled_lps())
def test_large_denominators_match_tableau(lp):
    assert outcome(solve_equality_lp, *lp) == outcome(tableau_lp, *lp)


@pytest.mark.parametrize("lps", [small_lps, scaled_lps], ids=["small", "scaled"])
def test_generators_reach_unbounded(lps):
    """Both LP strategies above draw unbounded LPs, which the tableau calls
    unbounded too, so the differential tests compare that status."""
    lp = find(lps(), lambda lp: solve_equality_lp(*lp).status == UNBOUNDED, settings=settings(database=None))
    assert tableau_lp(*lp).status == UNBOUNDED


def check_against_linprog(rows, rhs, cost, res):
    """Exact certificate checks, then status, value and dual against HiGHS in
    floats.  An optimal dual is unique, and so comparable, when as many x_j
    are positive as there are rows: those columns are then a basis, and
    complementary slackness fixes y on it.  Returns whether y was compared."""
    cols = range(len(cost))
    if res.status == OPTIMAL:
        assert all(v >= 0 for v in res.x)
        assert [sum(r[j] * res.x[j] for j in cols) for r in rows] == list(rhs)
        assert sum(c * v for c, v in zip(cost, res.x)) == res.objective
        y = res.duals
        assert all(sum(yi * r[j] for yi, r in zip(y, rows)) <= cost[j] for j in cols)
        assert sum(yi * bi for yi, bi in zip(y, rhs)) == res.objective
    if res.status == INFEASIBLE:
        y = res.farkas_dual
        assert sum(yi * bi for yi, bi in zip(y, rhs)) > 0
        assert all(sum(yi * r[j] for yi, r in zip(y, rows)) <= 0 for j in cols)
    ref = linprog(
        [float(c) for c in cost],
        A_eq=[[float(v) for v in r] for r in rows],
        b_eq=[float(b) for b in rhs],
        bounds=(0, None),
        method="highs",
    )
    assert {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}.get(ref.status) == res.status
    if res.status == OPTIMAL:
        assert ref.fun == pytest.approx(float(res.objective), rel=1e-9, abs=1e-9)
        if sum(v > 0 for v in res.x) == len(rows):
            assert list(ref.eqlin.marginals) == pytest.approx([float(v) for v in res.duals], rel=1e-9, abs=1e-9)
            return True
    return False


@settings(max_examples=200, deadline=None)
@given(small_lps())
def test_matches_linprog(lp):
    check_against_linprog(*lp, solve_equality_lp(*lp))


def imply_guess4(tmp_path, capsys):
    """Run the n = 4 guess through `imply --emit-body`: one implication LP,
    then one core-point LP of the witness per ground of two or more elements."""
    guess = tmp_path / "guess.json"
    guess.write_text('{"n": 4, "lhs": {"1,2": "1", "2,3": "1", "3,4": "1"}, '
                     '"rhs": {"1,2,3": "1", "2,3,4": "1"}}', encoding="utf-8")
    assert main(["imply", "--inequality", str(guess), "--emit-body", str(tmp_path / "body.json")]) == 1
    capsys.readouterr()


GUESS4 = LinearInequality.from_maps(4, {0b0011: F(1), 0b0110: F(1), 0b1100: F(1)}, {0b0111: F(1), 0b1110: F(1)})
GUESS5 = LinearInequality.from_maps(
    5, {0b00011: F(1), 0b00110: F(1), 0b01100: F(1)}, {0b00111: F(1), 0b01110: F(1)}
)
# Loomis-Whitney on [5]: the four-element subsets against 4 x_[5]
LW5 = LinearInequality.from_maps(5, {0b11111 ^ 1 << e: F(1) for e in range(5)}, {0b11111: F(4)})


@pytest.mark.parametrize("n, k_max, candidate, status, pivots", [
    (4, None, GUESS4, INFEASIBLE, 25),
    (5, 3, GUESS5, INFEASIBLE, 70),
    (5, None, GUESS5, INFEASIBLE, 70),
    (5, None, LW5, OPTIMAL, 208),
], ids=["guess-n4", "guess-n5-kmax3", "guess-n5", "loomis-whitney-n5"])
def test_implication_lp_pivots_pinned(monkeypatch, n, k_max, candidate, status, pivots):
    """The implication LPs keep their verdict and their number of pivots, so
    any change to the pivot sequence shows."""
    solved = []

    def record(*args, **kwargs):
        solved.append(solve_equality_lp(*args, **kwargs))
        return solved[-1]

    monkeypatch.setattr(simplex, "solve_equality_lp", record)
    farkas.check_implication(build_bt_system(n, k_max), candidate)
    assert [(res.status, res.pivots) for res in solved] == [(status, pivots)]


def test_real_lps_match_tableau(monkeypatch, capsys, tmp_path):
    """The LPs of the n = 4 guess `imply --emit-body` path and of the n = 5
    refutation at k <= 3, replayed through the dense tableau and HiGHS.
    None ends UNBOUNDED: each core-point LP is bounded, with every weight in
    [0, 1]; test_generators_reach_unbounded covers that status."""
    solved = []

    def record(*args, **kwargs):
        res = solve_equality_lp(*args, **kwargs)
        solved.append((args, res))
        return res

    monkeypatch.setattr(simplex, "solve_equality_lp", record)
    imply_guess4(tmp_path, capsys)
    farkas.check_implication(build_bt_system(5, 3), GUESS5)

    assert {res.status for _, res in solved} == {OPTIMAL, INFEASIBLE}
    assert max(len(args[0][0]) for args, _ in solved) == 1650
    compared = 0
    for args, res in solved:
        assert res == tableau_lp(*args)
        compared += check_against_linprog(*args, res)
    assert compared > 0


def exact_det(matrix) -> F:
    """Determinant by Gaussian elimination in Fractions."""
    rows = [[F(v) for v in row] for row in matrix]
    det = F(1)
    for c in range(len(rows)):
        p = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if p is None:
            return F(0)
        if p != c:
            rows[c], rows[p], det = rows[p], rows[c], -det
        det *= rows[c][c]
        for r in range(c + 1, len(rows)):
            f = rows[r][c] / rows[c][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return det


def test_integer_basis_invariant(monkeypatch, capsys, tmp_path):
    """After every pivot of the n = 4 guess LPs and of the n = 5 k <= 3 guess
    LP: adj and X hold ints, D = |det B| > 0, adj = D B^-1 and X = D x_B, and
    each pivot of optimize leaves the carried dual row P = c_B adj, checked
    exactly."""
    init = simplex._RevisedSimplex.__init__
    pivot, optimize = simplex._RevisedSimplex.pivot, simplex._RevisedSimplex.optimize
    checked, carried = [], []

    def recording_init(lp, columns, X):
        init(lp, columns, X)
        lp.b = list(X)  # the scaled right-hand side, while B = I and D = 1

    def recording_optimize(lp, cost, limit):
        lp.cost = cost
        return optimize(lp, cost, limit)

    def checked_pivot(lp, *args):
        pivot(lp, *args)
        m = len(lp.X)
        B = [[dict(lp.columns[j]).get(i, 0) for j in lp.basis] for i in range(m)]
        assert all(type(v) is int for row in lp.adj for v in row)
        assert all(type(v) is int for v in lp.X)
        assert lp.D > 0 and lp.D == abs(exact_det(B))
        # B adj = D I, so adj = D B^-1; and B X = D b, so X = D x_B
        assert [[sum(B[i][k] * lp.adj[k][c] for k in range(m)) for c in range(m)] for i in range(m)] == [
            [lp.D * (i == c) for c in range(m)] for i in range(m)
        ]
        assert [sum(B[i][k] * lp.X[k] for k in range(m)) for i in range(m)] == [lp.D * v for v in lp.b]
        if len(args) == 4:  # a pivot of optimize, given the entering column's delta
            assert lp.P == [sum(lp.cost[j] * adj_r[c] for j, adj_r in zip(lp.basis, lp.adj)) for c in range(m)]
            carried.append(m)
        checked.append(m)

    monkeypatch.setattr(simplex._RevisedSimplex, "__init__", recording_init)
    monkeypatch.setattr(simplex._RevisedSimplex, "optimize", recording_optimize)
    monkeypatch.setattr(simplex._RevisedSimplex, "pivot", checked_pivot)
    imply_guess4(tmp_path, capsys)
    assert len(checked) > 50 and len(carried) > 50
    farkas.check_implication(build_bt_system(5, 3), GUESS5)
    assert checked.count(31) == carried.count(31) == 70
