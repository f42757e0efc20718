import hashlib
import random
import time
from fractions import Fraction as F

import pytest

from conftest import axiswise_disjoint, sample_bt3_vector, shift
from covercone import cone, realize, simplex
from covercone.boxgeom import projection_volume, read_body, write_body
from covercone.cli import main
from covercone.cone import build_bt_system, membership
from covercone.core import (
    ProjectionVector,
    canonical_subset_order,
    elements,
    exp_fraction,
    log_fraction,
    read_vector,
    subsets_of,
)
from covercone.covers import irreducible_covers
from covercone.farkas import LinearInequality, check_implication, violating_body
from covercone.realize import (
    _SLACK,
    BoundaryError,
    BoxSystemInfeasible,
    InconclusiveError,
    NotInConeError,
    double_lambda,
    find_lambda,
    realize_vector,
    solve_box_system,
)
from covercone.simplex import INFEASIBLE, OPTIMAL, solve_equality_lp
from covercone.witness import theorem9_vector

ONES2 = ProjectionVector.from_entries(2, {m: F(1) for m in range(1, 4)})
TOL = F(1, 10**6)


def assert_within_slack(got, want):
    """got matches want to a factor 1 +- _SLACK, compared exactly."""
    assert abs(F(got) / F(want) - 1) <= _SLACK


#: (ground, targets) of the hand-built step systems
HAND_CASES = {
    "singleton": (0b1, {0b1: F(7, 3)}),
    "symmetric_pair": (0b11, {0b01: exp_fraction(F(2)) / 2, 0b10: exp_fraction(F(2)) / 2,
                              0b11: exp_fraction(F(2))}),
    "infeasible_pair": (0b11, {0b01: exp_fraction(F(1)) / 2, 0b10: exp_fraction(F(1)) / 2,
                               0b11: exp_fraction(F(1))}),
    # tight cap on one side forces the water-filling split
    "asymmetric_caps": (0b11, {0b01: F(2), 0b10: exp_fraction(F(3)), 0b11: exp_fraction(F(3))}),
    "triple_ground": (0b111, {**{m: exp_fraction(F(4)) / 2 for m in range(1, 7)},
                              0b111: exp_fraction(F(4))}),
}


def full_step_system(ground, y):
    """Sum-minimizing LP over all 2^m - 1 log coordinates of the step system:
      (i)   z_A <= y_A                       for all nonempty A subset ground
      (ii)  z_A <= prod of singleton z's     for |A| >= 2
      (iii) y_ground^k <= prod over parts z  for each irreducible cover
    Returns (status, log z, minimum).  Variables are shifted by `big` so they
    are nonnegative; the shift never binds.  Every row is an inequality, so
    each gets its own slack column, +1 for <= and -1 for >=."""
    members = sorted(subsets_of(ground), key=lambda m: (m.bit_count(), m))
    singles = [1 << (e - 1) for e in elements(ground)]
    eta = {a: log_fraction(F(y[a])) for a in members}
    big = 2 * max(abs(e) for e in eta.values()) + 4
    # (coefficients by subset, slack sign, right-hand side), one per row
    constraints = [({a: 1}, 1, eta[a] + big) for a in members]
    for a in members:
        if a.bit_count() >= 2:
            coeffs = {a: 1}
            for s in singles:
                if a & s:
                    coeffs[s] = -1
            constraints.append((coeffs, 1, (1 - a.bit_count()) * big))
    for cover in irreducible_covers(ground):
        coeffs = {}
        for part in cover.parts:
            coeffs[part] = coeffs.get(part, 0) + 1
        constraints.append((coeffs, -1, cover.k * eta[ground] + len(cover.parts) * big))
    col = {a: j for j, a in enumerate(members)}
    width = len(members) + len(constraints)
    rows = []
    for i, (coeffs, sign, _) in enumerate(constraints):
        row = [F(0)] * width
        for a, c in coeffs.items():
            row[col[a]] = F(c)
        row[len(members) + i] = F(sign)
        rows.append(row)
    cost = [F(1)] * len(members) + [F(0)] * len(constraints)
    res = solve_equality_lp(rows, [F(b) for _, _, b in constraints], cost)
    if res.status != OPTIMAL:
        return res.status, None, None
    return res.status, {a: res.x[col[a]] - big for a in members}, res.objective - len(members) * big


def assert_matches_full_system(ground, y, system):
    """The minimality theorem on one step: the full system is feasible exactly
    when solve_box_system returned `system` (None when it raised), its
    minimum is 2^(m-1) log y_ground at a product-form point, and the returned
    z consumes y_ground within _SLACK and meets every irreducible cover of its
    own z_ground with equality."""
    status, zeta, minimum = full_step_system(ground, y)
    if system is None:
        assert status == INFEASIBLE
        return
    assert status == OPTIMAL
    assert_within_slack(system.z[ground], y[ground])
    m = ground.bit_count()
    assert minimum == (1 << (m - 1)) * log_fraction(F(y[ground]))
    for a in zeta:
        assert zeta[a] == sum(zeta[1 << (e - 1)] for e in elements(a))
    for cover in irreducible_covers(ground):
        prod = F(1)
        for part in cover.parts:
            prod *= system.z[part]
        assert prod == system.z[ground] ** cover.k


class TestInteriorShift:
    """The l > k theorem behind the tests' strict samples: conftest.shift by
    eps > 0 takes a vector of the cone strictly inside."""

    def test_zero_vector_becomes_ones(self):
        shifted = shift(ProjectionVector.zero(2), F(1))
        assert shifted == ONES2
        g = build_bt_system(2).generators[0]
        assert cone.margin(g, shifted) == 1  # 1 + 1 > 1

    def test_witness_vector_strict_after_shift(self):
        v = theorem9_vector(4)
        system = build_bt_system(4)
        assert membership(system, v).tight
        shifted = shift(v, F(1, 10))
        for g in system.generators:
            assert cone.margin(g, shifted) > 0

    def test_margin_grows_by_parts_minus_k(self):
        eps = F(1, 10)
        v = sample_bt3_vector(random.Random(3))
        shifted = shift(v, eps)
        for g in build_bt_system(3).generators:
            gain = (len(g.parts) - g.k) * eps
            assert cone.margin(g, shifted) - cone.margin(g, v) == gain


class TestSolveBoxSystem:
    def test_symmetric_pair(self):
        e2 = exp_fraction(F(2))
        system = solve_box_system(*HAND_CASES["symmetric_pair"])
        assert_within_slack(system.z[0b11], e2)
        assert system.z[0b01] * system.z[0b10] == system.z[0b11]
        assert system.z[0b01] <= e2 / 2 and system.z[0b10] <= e2 / 2
        e = exp_fraction(F(1))
        assert abs(system.z[0b01] - e) < F(1, 10**20)
        assert abs(system.z[0b10] - e) < F(1, 10**20)

    def test_singleton_ground(self):
        c = F(7, 3)
        system = solve_box_system(*HAND_CASES["singleton"])
        assert system.z == {0b1: system.sides[1]}
        assert_within_slack(system.sides[1], c)

    def test_infeasible_pair(self):
        with pytest.raises(BoxSystemInfeasible):
            solve_box_system(*HAND_CASES["infeasible_pair"])

    def test_asymmetric_caps(self):
        e3 = exp_fraction(F(3))
        system = solve_box_system(*HAND_CASES["asymmetric_caps"])
        assert system.z[0b01] * system.z[0b10] == system.z[0b11]
        assert_within_slack(system.z[0b11], e3)
        assert system.z[0b01] <= 2

    def test_triple_ground(self):
        e4 = exp_fraction(F(4))
        ground, y = HAND_CASES["triple_ground"]
        system = solve_box_system(ground, y)
        assert_within_slack(system.z[0b111], e4)
        prod = system.z[0b001] * system.z[0b010] * system.z[0b100]
        assert prod == system.z[0b111]
        for m in range(1, 7):
            assert system.z[m] <= y[m] * (1 + _SLACK)

    def test_missing_target(self):
        with pytest.raises(ValueError):
            solve_box_system(0b11, {0b11: F(1)})

    @pytest.mark.parametrize("case", sorted(HAND_CASES))
    def test_hand_cases_match_full_system(self, case):
        ground, y = HAND_CASES[case]
        try:
            system = solve_box_system(ground, y)
        except BoxSystemInfeasible:
            system = None
        assert_matches_full_system(ground, y, system)


class TestMinimalityOracle:
    def test_sampled_steps(self, monkeypatch):
        """Every step of sampled n = 3 realizations, at each lambda find_lambda
        tries (the infeasible ones below the answer and the feasible answer),
        gets positive targets, agrees with the full step system and costs one
        LP on a ground of two or more elements and none on a one-element
        ground."""
        steps = []
        lp_solves = [0]
        real_step = realize.solve_box_system

        def counting_solve(*args, **kwargs):
            lp_solves[0] += 1
            return solve_equality_lp(*args, **kwargs)

        def spy(ground, y):
            before = lp_solves[0]
            try:
                system = real_step(ground, y)
            except BoxSystemInfeasible:
                steps.append((ground, dict(y), None, lp_solves[0] - before))
                raise
            steps.append((ground, dict(y), system, lp_solves[0] - before))
            return system

        monkeypatch.setattr(simplex, "solve_equality_lp", counting_solve)
        monkeypatch.setattr(realize, "solve_box_system", spy)
        rng = random.Random(41)
        for _ in range(4):
            v = shift(sample_bt3_vector(rng), F(1, 4))
            find_lambda(v, 64)
        monkeypatch.undo()
        assert any(system is None for _, _, system, _ in steps)
        assert sum(system is not None for _, _, system, _ in steps) >= 4 * 7
        assert {ground.bit_count() for ground, _, _, _ in steps} == {1, 2, 3}
        for ground, y, system, lp_count in steps:
            assert all(target > 0 for target in y.values())
            assert lp_count == (ground.bit_count() > 1)
            assert_matches_full_system(ground, y, system)


class TestRealizeVector:
    def test_hand_case_lambda_two(self):
        result = realize_vector(ONES2, 2)
        e2 = exp_fraction(F(2))
        for mask in canonical_subset_order(2):
            assert_within_slack(projection_volume(result.body, mask), e2)
        assert max(result.residual_report.values()) <= TOL
        assert len(result.body.boxes) == 3
        assert axiswise_disjoint(result.body)

    def test_hand_case_lambda_one_infeasible(self):
        with pytest.raises(BoxSystemInfeasible):
            realize_vector(ONES2, 1)

    def test_zero_vector_rejected(self):
        # not strict on x_1 + x_2 >= x_12: the first step is infeasible at every lambda
        for lam in (1, 2, 64):
            with pytest.raises(BoxSystemInfeasible):
                realize_vector(ProjectionVector.zero(2), lam)

    def test_positive_sides_and_disjointness(self):
        v = shift(sample_bt3_vector(random.Random(13)), F(1, 4))
        result = find_lambda(v, 64)
        for step in result.steps:
            for side in step.sides.values():
                assert side > 0
        assert axiswise_disjoint(result.body)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            realize_vector(ONES2, 0)


def modular_plus_one(weights):
    """x_A = 1 + sum of weights over A: strict on every nontrivial generator."""
    n = len(weights)
    return ProjectionVector.from_entries(
        n, {m: 1 + sum(w for i, w in enumerate(weights) if m >> i & 1) for m in range(1, 1 << n)}
    )


#: name -> (vector, lambda, sha256 of the body find_lambda builds for it)
PINNED_BODIES = {
    # the theorem 9 vector is tight, so find_lambda refuses it; 1/4 more is strict
    "theorem9": (shift(theorem9_vector(4), F(1, 4)), 16,
                 "6e16cfb2f9aee959d4191325efb5bf2df58963181e01109b5dbcfe4f10e1665b"),
    # the shape of the benchmark's realize queries
    "modular_plus_one": (modular_plus_one((F(3, 4), F(-1, 2), F(1), F(-5, 4))), 4,
                         "86d78942e79d3ebb49c8e86a1123e8f4a9e5edc945b288d7917b113dcdf18c79"),
}


class TestFindLambda:
    def test_hand_case_returns_two(self):
        result = find_lambda(ONES2, 64)
        assert result.lam == 2

    def test_all_ones_n3(self):
        v = ProjectionVector.from_entries(3, {m: F(1) for m in range(1, 8)})
        result = find_lambda(v, 64)
        assert result.lam <= 8
        assert max(result.residual_report.values()) <= TOL
        for mask in canonical_subset_order(3):
            achieved = log_fraction(projection_volume(result.body, mask))
            assert abs(achieved - result.lam * v[mask]) <= TOL

    def test_lambda_one_kept_when_feasible(self):
        v = ProjectionVector.from_entries(2, {m: F(2) for m in range(1, 4)})
        result = find_lambda(v, 64)
        assert result.lam == 1

    def test_interior_shift_applied_on_boundary(self):
        """The boundary vector 0 is refused, naming its tight ground; the
        caller's shift by 1 takes it inside, to ONES2, realized at lambda 2."""
        zero = ProjectionVector.zero(2)
        with pytest.raises(BoundaryError, match=r"zero slack on \{1,2\}$"):
            find_lambda(zero, 64)
        result = find_lambda(shift(zero, F(1)), 64)
        assert result.lam == 2
        for mask in canonical_subset_order(2):
            assert_within_slack(result.volumes[mask], exp_fraction(result.lam * ONES2[mask]))

    @pytest.mark.parametrize("cap", ["0", "1/2", "-4"])
    def test_cap_below_one_rejected(self, cap):
        with pytest.raises(ValueError, match="lambda_cap"):
            find_lambda(ONES2, cap)

    def test_reads_no_generator_list(self, monkeypatch):
        """realize holds none of the generator-list names, and find_lambda
        decides outside, boundary and strict with no margin evaluated."""
        for name in ("build_bt_system", "membership", "margin", "coefficients", "format_inequality",
                     "irreducible_covers", "ConeSystem"):
            assert not hasattr(realize, name), name

        def refuse(*args):
            raise AssertionError("a generator margin was evaluated")

        monkeypatch.setattr(cone, "margin", refuse)
        for w in (ONES2, shift(sample_bt3_vector(random.Random(13)), F(1, 4))):
            find_lambda(w, 64)
        with pytest.raises(BoundaryError, match=r"on \{1,2\}"):
            find_lambda(ProjectionVector.zero(2), 64)
        with pytest.raises(NotInConeError, match=r"on \{1,2\}"):
            find_lambda(ProjectionVector.from_entries(2, {0b11: F(1)}), 64)

    @pytest.mark.parametrize("name", sorted(PINNED_BODIES))
    def test_body_pinned(self, name):
        """Hash of the body find_lambda builds for each pinned n = 4 vector."""
        v, lam, digest = PINNED_BODIES[name]
        result = find_lambda(v)
        for mask in canonical_subset_order(4):
            assert_within_slack(result.volumes[mask], exp_fraction(lam * v[mask]))
        assert result.lam == lam
        assert hashlib.sha256(write_body(result.body).encode()).hexdigest() == digest

    def test_outside_cone_rejected(self):
        v = ProjectionVector.from_entries(2, {0b11: F(1)})
        with pytest.raises(NotInConeError):
            find_lambda(v, 64)

    def test_cap_reached_is_inconclusive(self):
        with pytest.raises(InconclusiveError):
            find_lambda(ONES2, 1)

    def test_success_persists_at_double_lambda(self):
        rng = random.Random(17)
        for _ in range(3):
            v = shift(sample_bt3_vector(rng), F(1, 4))
            result = find_lambda(v, 64)
            doubled = realize_vector(v, result.lam * 2)
            assert max(doubled.residual_report.values()) <= TOL


class TestRoundTrip:
    def test_exact_volume_bookkeeping(self):
        # achieved volumes match the rationalized targets within _SLACK
        v = shift(sample_bt3_vector(random.Random(23)), F(1, 4))
        result = find_lambda(v, 64)
        for mask in canonical_subset_order(3):
            expected = exp_fraction(result.lam * v[mask])
            assert_within_slack(projection_volume(result.body, mask), expected)

    def test_residual_report_matches_gaps(self):
        v = shift(sample_bt3_vector(random.Random(29)), F(1, 4))
        result = find_lambda(v, 64)
        assert set(result.residual_report) == set(canonical_subset_order(3))
        for mask, gap in result.residual_report.items():
            assert gap == abs(log_fraction(result.volumes[mask]) - result.lam * v[mask])


def endpoint_bits(q):
    """Size of an endpoint: the bit length of the larger of its two terms."""
    return max(q.numerator.bit_length(), q.denominator.bit_length())


class TestBodySize:
    """Each side is a LOG_DIGITS-digit exp and nothing more, so an endpoint's
    size follows its magnitude, not the sides placed before it."""

    def test_closure_sequence(self):
        """The tight theorem 9 vector v is a limit of realized bodies: v + 2^-j
        realizes at lambda = 4 * 2^j, and every endpoint has at most 2M + 128
        bits, M the largest magnitude in bits of a nonzero endpoint."""
        v = theorem9_vector(4)
        for j in range(9):
            result = double_lambda(shift(v, F(1, 2**j)))
            assert result.lam == 4 * 2**j
            ends = [x for box in result.body.boxes for iv in box.intervals for x in iv]
            magnitude = max(abs(q.numerator.bit_length() - q.denominator.bit_length()) for q in ends if q)
            assert max(map(endpoint_bits, ends)) <= 2 * magnitude + 128

    def assert_round_trips(self, n, lam):
        """An n-d body of 1/2 + modular stays under the interpreter's
        4300-digit limit, so write_body prints it and read_body reads the
        same body back, all within 20 s."""
        start = time.perf_counter()
        weights = (F(3, 4), F(-1, 2), F(1), F(-5, 4), F(1, 3), F(2, 5), F(-1, 7), F(2, 3))
        result = double_lambda(shift(modular_plus_one(weights[:n]), F(-1, 2)))
        assert result.lam == lam
        assert read_body(write_body(result.body)) == result.body
        assert time.perf_counter() - start < 20

    def test_n7_body_round_trips(self):
        self.assert_round_trips(7, 16)

    def test_n8_body_round_trips(self):
        self.assert_round_trips(8, 16)


class TestBuiltRecords:
    """The package builds bodies and vectors as plain records, with no
    check; each must be one its entry check accepts: read_body reads the
    body back, and ProjectionVector.from_entries rebuilds the vector, both
    the one realized and the one `project` writes for the body."""

    @staticmethod
    def assert_checked(tmp_path, w, body):
        text = write_body(body)
        assert read_body(text) == body
        body_path, vector_path = tmp_path / "body.json", tmp_path / "projected.json"
        body_path.write_text(text, encoding="utf-8")
        assert main(["project", "--body", str(body_path), "--out", str(vector_path)]) == 0
        projected = read_vector(vector_path.read_text(encoding="utf-8"))
        for v in (w, projected, shift(projected, F(1, 8))):
            assert v == ProjectionVector.from_entries(v.n, v.entries)

    @pytest.mark.parametrize("name", sorted(PINNED_BODIES))
    def test_pinned_bodies(self, tmp_path, name):
        v, _, _ = PINNED_BODIES[name]
        result = double_lambda(v)
        self.assert_checked(tmp_path, v, result.body)

    def test_guess_body(self, tmp_path):
        guess = LinearInequality.from_maps(
            4, {0b0011: F(1), 0b0110: F(1), 0b1100: F(1)}, {0b0111: F(1), 0b1110: F(1)}
        )
        witness = check_implication(build_bt_system(4), guess).vector
        report = violating_body(guess, witness)
        self.assert_checked(tmp_path, witness, report.body)

    def test_half_plus_modular_n5_body(self, tmp_path):
        w = shift(modular_plus_one((F(3, 4), F(-1, 2), F(1), F(-5, 4), F(1, 3))), F(-1, 2))
        result = double_lambda(w)
        self.assert_checked(tmp_path, w, result.body)
