import hashlib
import json
import sys
from fractions import Fraction as F
from functools import cache
from math import ceil, floor, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import axiswise_disjoint, random_body, thicken
from covercone.boxgeom import projection_volume, write_body
from covercone.cone import build_bt_system, coefficients, format_inequality, membership
from covercone.core import FormatError, canonical_subset_order, elements
from covercone.farkas import (
    FarkasCertificate,
    LinearInequality,
    SeparatingWitness,
    certificate_to_obj,
    check_implication,
    read_inequality,
    violating_body,
    write_inequality,
)

GUESS = LinearInequality.from_maps(
    4, {0b0011: F(1), 0b0110: F(1), 0b1100: F(1)}, {0b0111: F(1), 0b1110: F(1)}
)
GUESS5 = LinearInequality.from_maps(
    5, {0b00011: F(1), 0b00110: F(1), 0b01100: F(1)}, {0b00111: F(1), 0b01110: F(1)}
)
cone_system = cache(build_bt_system)


def reconstruct(system, cert):
    total = {}
    for j, w in cert.weights.items():
        for mask, c in coefficients(system.generators[j]).items():
            total[mask] = total.get(mask, F(0)) + w * c
    return {m: c for m, c in total.items() if c != 0}


class TestLinearInequality:
    def test_cancellation(self):
        ineq = LinearInequality.from_maps(2, {0b01: F(3), 0b10: F(1)}, {0b01: F(1)})
        assert ineq.coeffs == {0b01: F(2), 0b10: F(1)}

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            LinearInequality.from_maps(2, {0b01: F(-1)}, {})

    def test_evaluate(self):
        from covercone.core import ProjectionVector

        v = ProjectionVector.from_entries(2, {0b01: F(1), 0b11: F(3)})
        ineq = LinearInequality.from_maps(2, {0b01: F(2)}, {0b11: F(1)})
        assert ineq.evaluate(v) == -1

    def test_format(self):
        assert format_inequality(GUESS.coeffs) == "1*1,2 + 1*2,3 + 1*3,4 >= 1*1,2,3 + 1*2,3,4"


class TestCheckImplication:
    def test_derived_sum_of_two_generators(self):
        system = build_bt_system(3)
        ineq = LinearInequality.from_maps(
            3, {0b001: F(1), 0b010: F(1), 0b101: F(1), 0b110: F(1)}, {0b111: F(2)}
        )
        result = check_implication(system, ineq)
        assert isinstance(result, FarkasCertificate)
        assert reconstruct(system, result) == ineq.coeffs
        used = {system.generators[j].parts: w for j, w in result.weights.items()}
        assert used == {(0b001, 0b110): F(1), (0b010, 0b101): F(1)}

    def test_generator_certifies_itself(self):
        system = build_bt_system(2)
        ineq = LinearInequality.from_maps(2, {0b01: F(1), 0b10: F(1)}, {0b11: F(1)})
        result = check_implication(system, ineq)
        assert isinstance(result, FarkasCertificate)
        assert result.weights == {0: F(1)}

    def test_every_bt3_generator_certified(self):
        system = build_bt_system(3)
        for g in system.generators:
            coeffs = coefficients(g)
            ineq = LinearInequality.from_maps(
                3,
                {m: F(c) for m, c in coeffs.items() if c > 0},
                {m: F(-c) for m, c in coeffs.items() if c < 0},
            )
            result = check_implication(system, ineq)
            assert isinstance(result, FarkasCertificate)
            assert reconstruct(system, result) == coeffs

    def test_guess_yields_witness(self):
        system = build_bt_system(4)
        result = check_implication(system, GUESS)
        assert isinstance(result, SeparatingWitness)
        assert membership(system, result.vector).inside
        assert GUESS.evaluate(result.vector) == -1

    def test_reversed_generator_yields_witness(self):
        system = build_bt_system(2)
        reversed_gen = LinearInequality.from_maps(2, {0b11: F(1)}, {0b01: F(1), 0b10: F(1)})
        result = check_implication(system, reversed_gen)
        assert isinstance(result, SeparatingWitness)
        assert membership(system, result.vector).inside
        assert reversed_gen.evaluate(result.vector) == -1

    def test_scaled_combination_certified(self):
        system = build_bt_system(3)
        # 1/2 * (x_1 + x_2 >= x_12) + 2 * (x_12 + x_13 + x_23 >= 2 x_123), cancel x_12
        ineq = LinearInequality.from_maps(
            3,
            {0b001: F(1, 2), 0b010: F(1, 2), 0b011: F(3, 2), 0b101: F(2), 0b110: F(2)},
            {0b111: F(4)},
        )
        result = check_implication(system, ineq)
        assert isinstance(result, FarkasCertificate)
        assert reconstruct(system, result) == ineq.coeffs

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            check_implication(build_bt_system(2), GUESS)


class TestViolatingBody:
    def test_witness_verdict_vindicated_beyond_sampling(self):
        # random bodies almost always satisfy the guess, so sampling is an
        # unreliable refuter; the witness route constructs one on demand
        import random

        rng = random.Random(40)
        masks = (0b0011, 0b0110, 0b1100, 0b0111, 0b1110)
        violations = 0
        for _ in range(1000):
            body = thicken(random_body(rng, 4, 3), F(1, 32))
            vols = {m: projection_volume(body, m) for m in masks}
            lhs = vols[0b0011] * vols[0b0110] * vols[0b1100]
            if lhs < vols[0b0111] * vols[0b1110]:
                violations += 1
        assert violations <= 50
        system = build_bt_system(4)
        witness = check_implication(system, GUESS)
        assert isinstance(witness, SeparatingWitness)
        report = violating_body(GUESS, witness.vector)
        assert report.violated

    def test_guess_refuted_by_body(self):
        system = build_bt_system(4)
        witness = check_implication(system, GUESS)
        report = violating_body(GUESS, witness.vector)
        assert report.violated
        assert report.lhs_product < report.rhs_product
        # recompute the exact products independently of the report
        lhs = F(1)
        for mask in (0b0011, 0b0110, 0b1100):
            lhs *= projection_volume(report.body, mask)
        rhs = F(1)
        for mask in (0b0111, 0b1110):
            rhs *= projection_volume(report.body, mask)
        assert lhs < rhs
        assert axiswise_disjoint(report.body)

    def test_guess_body_pinned(self):
        system = build_bt_system(4)
        report = violating_body(GUESS, check_implication(system, GUESS).vector)
        assert report.lam == 20
        digest = hashlib.sha256(write_body(report.body).encode()).hexdigest()
        assert digest == "e4ee99d2a80eeaf3c52bfc4db164222fff0050612e3f6a04e339a60768a14f47"

    def test_reversed_generator_body(self):
        system = build_bt_system(2)
        ineq = LinearInequality.from_maps(2, {0b11: F(1)}, {0b01: F(1), 0b10: F(1)})
        witness = check_implication(system, ineq)
        report = violating_body(ineq, witness.vector)
        assert report.violated
        vol = lambda m: projection_volume(report.body, m)
        assert vol(0b11) < vol(0b01) * vol(0b10)

    def test_reads_the_cone_once(self, monkeypatch):
        """The witness self-check of check_implication is the only cone read:
        one margin per generator, and realize holds no generator-list name.
        The body needs no realize machinery: no doubling, log or exp."""
        from covercone import cone, farkas, realize

        def refuse(*args):
            raise AssertionError("violating_body reached the realize machinery")

        system = build_bt_system(4)
        calls = {"margin": 0}
        margin = cone.margin

        def counting(cover, v):
            calls["margin"] += 1
            return margin(cover, v)

        for name in ("build_bt_system", "membership", "margin", "coefficients", "format_inequality"):
            assert not hasattr(realize, name), name
        for name in ("double_lambda", "RealizationResult"):
            assert not hasattr(farkas, name), name
        for module in [m for key, m in sys.modules.items() if key.startswith("covercone")]:
            for name in ("exp_fraction", "log_fraction", "double_lambda"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(cone, "margin", counting)
        witness = check_implication(system, GUESS)
        assert violating_body(GUESS, witness.vector).violated
        assert calls["margin"] == len(system.generators) == 67

    @staticmethod
    def assert_box_bounds(ineq, x, report):
        """The construction's bound, checked exactly with no log: with
        e = floor(lam x_A), 2^(e-|A|+1) <= |T_A| <= 2^(e+n-|A|) on every mask
        A, where |T_A| is the sum over the axis-disjoint boxes of their side
        products on A; and the body violates at lam = ceil(n ||c||_1 / -c.x)."""
        n, lam = ineq.n, report.lam
        assert lam == ceil(n * sum(abs(c) for c in ineq.coeffs.values()) / -ineq.evaluate(x))
        assert len(report.body.boxes) == (1 << n) - 1 and axiswise_disjoint(report.body)
        volumes = {}
        for mask in canonical_subset_order(n):
            vol = sum((prod(box.intervals[a - 1][1] - box.intervals[a - 1][0] for a in elements(mask))
                       for box in report.body.boxes), F(0))
            assert vol == projection_volume(report.body, mask)
            e, size = floor(lam * x[mask]), mask.bit_count()
            assert F(2) ** (e - size + 1) <= vol <= F(2) ** (e + n - size)
            volumes[mask] = vol
        scale = report.exponent_scale
        lhs = prod(volumes[m] ** int(c * scale) for m, c in ineq.coeffs.items() if c > 0)
        rhs = prod(volumes[m] ** int(-c * scale) for m, c in ineq.coeffs.items() if c < 0)
        assert (lhs, rhs) == (report.lhs_product, report.rhs_product)
        assert lhs < rhs and report.violated

    @pytest.mark.parametrize("ineq, lam", [(GUESS, 20), (GUESS5, 25)], ids=["guess-n4", "guess-n5"])
    def test_guess_bodies_meet_the_bound(self, ineq, lam):
        x = check_implication(cone_system(ineq.n), ineq).vector
        report = violating_body(ineq, x)
        assert report.lam == lam
        self.assert_box_bounds(ineq, x, report)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 4).flatmap(lambda n: st.tuples(st.just(n), st.dictionaries(
        st.integers(1, (1 << n) - 1), st.builds(F, st.integers(-4, 4), st.integers(1, 3)),
        min_size=1, max_size=6))))
    def test_drawn_refutations_meet_the_bound(self, drawn):
        n, coeffs = drawn
        ineq = LinearInequality.from_maps(
            n, {m: c for m, c in coeffs.items() if c > 0}, {m: -c for m, c in coeffs.items() if c < 0}
        )
        result = check_implication(cone_system(n), ineq)
        assume(isinstance(result, SeparatingWitness))
        self.assert_box_bounds(ineq, result.vector, violating_body(ineq, result.vector))

    def test_rejects_non_violating_witness(self):
        from covercone.core import ProjectionVector

        ineq = LinearInequality.from_maps(2, {0b11: F(1)}, {0b01: F(1), 0b10: F(1)})
        with pytest.raises(ValueError):
            violating_body(ineq, ProjectionVector.zero(2))


class TestInequalityFiles:
    def test_spec_example(self):
        text = json.dumps(
            {"n": 4, "lhs": {"1,2": "1", "2,3": "1", "3,4": "1"},
             "rhs": {"1,2,3": "1", "2,3,4": "1"}}
        )
        assert read_inequality(text) == GUESS

    def test_round_trip(self):
        assert read_inequality(write_inequality(GUESS)) == GUESS

    def test_rejects_negative_coefficient(self):
        with pytest.raises(FormatError):
            read_inequality('{"n":2,"lhs":{"1":"-1"},"rhs":{}}')

    def test_rejects_float(self):
        with pytest.raises(FormatError):
            read_inequality('{"n":2,"lhs":{"1":"0.5"},"rhs":{}}')

    def test_certificate_serialization(self):
        system = build_bt_system(2)
        ineq = LinearInequality.from_maps(2, {0b01: F(1), 0b10: F(1)}, {0b11: F(1)})
        cert = check_implication(system, ineq)
        obj = certificate_to_obj(system, cert)
        assert obj == [{"ground": "1,2", "k": 1, "parts": ["1", "2"], "weight": "1"}]
