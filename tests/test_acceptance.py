"""End-to-end acceptance suite.

One test per criterion; each prints a single PASS line (visible with -s, and
mirrored by the -v test report) and enforces its runtime budget.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction as F

from conftest import oracle_irreducible_covers, random_body, sample_bt3_vector, shift, thicken
from covercone.boxgeom import projection_volume
from covercone.cone import build_bt_system, coefficients, format_inequality, membership
from covercone.core import (
    ProjectionVector,
    canonical_subset_order,
    exp_fraction,
    log_fraction,
)
from covercone.covers import irreducible_covers
from covercone.farkas import (
    FarkasCertificate,
    LinearInequality,
    SeparatingWitness,
    check_implication,
    violating_body,
)
from covercone.realize import _SLACK, BoxSystemInfeasible, find_lambda, realize_vector
from covercone.witness import SetFamily, shearer_check

TOL = F(1, 10**6)


def _report(number: int, detail: str, elapsed: float, budget: float) -> None:
    print(f"ACCEPTANCE {number}: PASS - {detail} ({elapsed:.2f}s < {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_1_boundary_witness():
    """witness --n 4: in cone, the named tight 2-uniform covers, obstruction 1 vs -1."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "covercone", "witness", "--n", "4"],
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["in_cone"] is True
    named = sorted(
        (t["ground"], tuple(t["parts"]))
        for t in data["tight"]
        if t["k"] == 2 and t["ground"] in ("1,2,3", "2,3,4")
    )
    assert named == [
        ("1,2,3", ("1,2", "1,3", "2,3")),
        ("2,3,4", ("2,3", "2,4", "3,4")),
    ]
    assert data["obstruction_lhs"] == "1"
    assert data["obstruction_rhs"] == "-1"
    assert data["obstruction_holds"] is False
    _report(1, "boundary witness analysis exact", elapsed, 5.0)


def test_criterion_2_uniform_cover_property_suite():
    """500 random box unions at n=4: every generator holds multiplicatively."""
    start = time.perf_counter()
    system = build_bt_system(4)
    rng = random.Random(20260810)
    order = canonical_subset_order(4)
    failures = 0
    for _ in range(500):
        body = thicken(random_body(rng, 4, 4, denom=8, hi=16), F(1, 64))
        vols = {m: projection_volume(body, m) for m in order}
        assert all(v > 0 for v in vols.values())
        for g in system.generators:
            lhs = F(1)
            for part in g.parts:
                lhs *= vols[part]
            if lhs < vols[g.ground] ** g.k:
                failures += 1
    assert failures == 0
    elapsed = time.perf_counter() - start
    _report(2, f"500 bodies x {len(system.generators)} generators, 0 failures", elapsed, 60.0)


def test_criterion_3_irreducible_cover_counts():
    """Brute-force oracle agreement: 1, 2, 6 irreducible covers for sizes 1-3."""
    start = time.perf_counter()
    expected_counts = {1: 1, 2: 2, 3: 6}
    for size, expected in expected_counts.items():
        ground = (1 << size) - 1
        got = {tuple(sorted(c.parts)) for c in irreducible_covers(ground, 2 * size)}
        oracle = oracle_irreducible_covers(ground, 2 * size)
        assert got == oracle
        assert len(got) == expected
    elapsed = time.perf_counter() - start
    _report(3, "irreducible counts 1/2/6 match the exhaustive oracle", elapsed, 10.0)


def test_criterion_4_farkas_soundness():
    """Certificates for every generator; witness plus violating body for the guess."""
    start = time.perf_counter()
    system = build_bt_system(4)
    for j, g in enumerate(system.generators):
        coeffs = coefficients(g)
        ineq = LinearInequality.from_maps(
            4,
            {m: F(c) for m, c in coeffs.items() if c > 0},
            {m: F(-c) for m, c in coeffs.items() if c < 0},
        )
        result = check_implication(system, ineq)
        assert isinstance(result, FarkasCertificate), format_inequality(coeffs)
        recon = {}
        for idx, w in result.weights.items():
            for mask, c in coefficients(system.generators[idx]).items():
                recon[mask] = recon.get(mask, F(0)) + w * c
        assert {m: c for m, c in recon.items() if c != 0} == coeffs

    guess = LinearInequality.from_maps(
        4, {0b0011: F(1), 0b0110: F(1), 0b1100: F(1)}, {0b0111: F(1), 0b1110: F(1)}
    )
    result = check_implication(system, guess)
    assert isinstance(result, SeparatingWitness)
    assert membership(system, result.vector).inside
    assert guess.evaluate(result.vector) == -1
    body_report = violating_body(guess, result.vector)
    assert body_report.violated
    assert body_report.lam == 20
    lhs = F(1)
    for mask in (0b0011, 0b0110, 0b1100):
        lhs *= projection_volume(body_report.body, mask)
    rhs = F(1)
    for mask in (0b0111, 0b1110):
        rhs *= projection_volume(body_report.body, mask)
    assert lhs < rhs
    elapsed = time.perf_counter() - start
    _report(4, f"{len(system.generators)} certificates exact; guess refuted by a body", elapsed, 20.0)


def test_criterion_5_realization_round_trip():
    """50 interior-shifted cone samples realize with lambda <= 64 within 1e-6."""
    start = time.perf_counter()
    rng = random.Random(97)
    for _ in range(50):
        w = shift(sample_bt3_vector(rng), F(1, 4))
        result = find_lambda(w, 64)
        assert result.lam <= 64
        assert max(result.residual_report.values()) <= TOL
        for mask in canonical_subset_order(3):
            achieved = log_fraction(projection_volume(result.body, mask))
            assert abs(achieved - result.lam * w[mask]) <= TOL

    ones = ProjectionVector.from_entries(2, {m: F(1) for m in range(1, 4)})
    result = realize_vector(ones, 2)
    e2 = exp_fraction(F(2))
    for mask in canonical_subset_order(2):
        assert abs(projection_volume(result.body, mask) / e2 - 1) <= _SLACK
    try:
        realize_vector(ones, 1)
        raise AssertionError("lambda = 1 must be infeasible for the all-ones pair vector")
    except BoxSystemInfeasible:
        pass
    elapsed = time.perf_counter() - start
    _report(5, "50 round trips within 1e-6; hand case passes at 2, fails at 1", elapsed, 20.0)


def test_criterion_6_shearer_suite():
    """200 random (family, cover) pairs at n <= 5 hold in integer arithmetic."""
    start = time.perf_counter()
    rng = random.Random(1234)
    trials = 0
    while trials < 200:
        n = rng.randint(2, 5)
        universe = list(range(1 << n))
        members = rng.sample(universe, rng.randint(1, len(universe)))
        sets = [rng.randint(1, (1 << n) - 1) for _ in range(rng.randint(1, 2 * n))]
        k = min(sum(1 for a in sets if a >> e & 1) for e in range(n))
        if k < 1:
            continue
        report = shearer_check(SetFamily.from_members(n, members), sets, k)
        assert report.holds
        trials += 1

    n = 4
    family = SetFamily.from_members(n, range(1 << n))
    cover = [0b0011, 0b1100, 0b0101, 0b1010]  # 2-uniform
    report = shearer_check(family, cover, 2)
    assert report.lhs_product == report.rhs_power == (1 << n) ** 2
    elapsed = time.perf_counter() - start
    _report(6, "200 random pairs hold; power-set case is an equality", elapsed, 20.0)
