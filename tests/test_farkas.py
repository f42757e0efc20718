import hashlib
import json
import re
import sys
from fractions import Fraction as F
from functools import cache
from itertools import permutations
from math import ceil, floor, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import axiswise_disjoint, inequality_json, random_body, thicken
from covercone.boxgeom import projection_volume, write_body
from covercone.cone import build_bt_system, coefficients, format_inequality, membership
from covercone.core import FormatError, ProjectionVector, canonical_subset_order, elements
from covercone.farkas import (
    FarkasCertificate,
    LinearInequality,
    SeparatingWitness,
    certificate_to_obj,
    check_implication,
    read_inequality,
    violating_body,
)

GUESS = LinearInequality.from_maps(
    4, {0b0011: F(1), 0b0110: F(1), 0b1100: F(1)}, {0b0111: F(1), 0b1110: F(1)}
)
LW4 = LinearInequality.from_maps(4, {0b0111: F(1), 0b1011: F(1), 0b1101: F(1), 0b1110: F(1)}, {0b1111: F(3)})
GUESS5 = LinearInequality.from_maps(
    5, {0b00011: F(1), 0b00110: F(1), 0b01100: F(1)}, {0b00111: F(1), 0b01110: F(1)}
)
cone_system = cache(build_bt_system)


def reconstruct(system, cert):
    """The certificate's combination, from its own covers; each is a generator of system."""
    total = {}
    for cover, w in cert.weights.items():
        assert cover in system.generators
        for mask, c in coefficients(cover).items():
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
        used = {cover.parts: w for cover, w in result.weights.items()}
        assert used == {(0b001, 0b110): F(1), (0b010, 0b101): F(1)}

    def test_generator_certifies_itself(self):
        system = build_bt_system(2)
        ineq = LinearInequality.from_maps(2, {0b01: F(1), 0b10: F(1)}, {0b11: F(1)})
        result = check_implication(system, ineq)
        assert isinstance(result, FarkasCertificate)
        assert result.weights == {system.generators[0]: F(1)}

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
        """On each of the 24 relabelings of the guess the witness is in the cone
        and the guess gives exactly -1 on it.  The witness is -y / (y.target)
        for the Farkas dual y, so that -1 holds for every y and
        check_implication does not re-check it."""
        system = build_bt_system(4)
        for perm in permutations(range(4)):
            image = {m: sum(1 << perm[e] for e in range(4) if m >> e & 1) for m in range(16)}
            ineq = LinearInequality.from_maps(4, {image[m]: c for m, c in GUESS.coeffs.items() if c > 0},
                                              {image[m]: -c for m, c in GUESS.coeffs.items() if c < 0})
            result = check_implication(system, ineq)
            assert isinstance(result, SeparatingWitness), perm
            assert membership(system, result.vector).inside, perm
            assert ineq.evaluate(result.vector) == -1, perm

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

    @pytest.mark.parametrize("n,facets,per_ground", [(2, 1, {2: 1}), (3, 7, {2: 1, 3: 4}),
                                                     (4, 40, {2: 1, 3: 4, 4: 18})])
    def test_facets_are_the_generators_no_others_imply(self, n, facets, per_ground):
        """A generator is a facet of the cone exactly when the other generators
        do not imply it: 1, 7 and 40 at n = 2, 3 and 4, and on each ground a
        number that depends only on its size (1, 4 and 18 at sizes 2, 3 and 4)."""
        system = build_bt_system(n)
        found = {}
        for j, g in enumerate(system.generators):
            others = system._replace(generators=system.generators[:j] + system.generators[j + 1:])
            ineq = LinearInequality(n, {m: F(c) for m, c in coefficients(g).items()})
            if isinstance(check_implication(others, ineq), SeparatingWitness):
                found[g.ground] = found.get(g.ground, 0) + 1
        assert sum(found.values()) == facets
        assert found == {ground: per_ground[ground.bit_count()]
                         for ground in canonical_subset_order(n) if ground.bit_count() >= 2}


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
        assert digest == "6b16b27e268f8221f9ba77b9444b22b1ead2a5e6ff072dd781c0bf93addc657c"

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
        for name in ("find_lambda", "RealizationResult"):
            assert not hasattr(farkas, name), name
        for module in [m for key, m in sys.modules.items() if key.startswith("covercone")]:
            for name in ("exp_fraction", "log_fraction", "find_lambda"):
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
            vol = sum((prod(box[a - 1][1] - box[a - 1][0] for a in elements(mask))
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

    def test_rejects_witness_outside_the_cone(self):
        """The witness imply --kmax 2 finds for Loomis-Whitney on [4]: inside
        the k <= 2 cone, outside the complete one on {1,2,3,4}."""
        x = {1: F(2, 7), 2: F(4, 7), 3: F(-1, 7), 4: F(1, 7)}
        witness = ProjectionVector.from_entries(4, {m: x[m.bit_count()] for m in range(1, 16)})
        with pytest.raises(RuntimeError, match=re.escape("witness is outside the cone on {1,2,3,4}")):
            violating_body(LW4, witness)

    def test_rejects_non_violating_witness(self):
        ineq = LinearInequality.from_maps(2, {0b11: F(1)}, {0b01: F(1), 0b10: F(1)})
        with pytest.raises(ValueError):
            violating_body(ineq, ProjectionVector.from_entries(2, {}))


class TestInequalityFiles:
    def test_spec_example(self):
        text = json.dumps(
            {"n": 4, "lhs": {"1,2": "1", "2,3": "1", "3,4": "1"},
             "rhs": {"1,2,3": "1", "2,3,4": "1"}}
        )
        assert read_inequality(text) == GUESS

    def test_round_trip(self):
        assert read_inequality(inequality_json(GUESS)) == GUESS

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
        obj = certificate_to_obj(cert)
        assert obj == [{"ground": "1,2", "k": 1, "parts": ["1", "2"], "weight": "1"}]
