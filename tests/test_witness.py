import json
import random
from fractions import Fraction as F

import pytest

from covercone.cone import build_bt_system, membership
from covercone.core import FormatError, ProjectionVector, canonical_subset_order
from covercone.covers import UniformCover
from covercone.witness import (
    SetFamily,
    analyze_witness,
    read_family,
    shearer_check,
    theorem9_vector,
    write_family,
)

TRIANGLE_123 = UniformCover.from_parts(0b0111, [0b0011, 0b0101, 0b0110])
TRIANGLE_234 = UniformCover.from_parts(0b1110, [0b0110, 0b1010, 0b1100])


def mask_of(*elems):
    m = 0
    for e in elems:
        m |= 1 << (e - 1)
    return m


class TestTheorem9Vector:
    def test_coordinates_n4(self):
        v = theorem9_vector(4)
        assert v[mask_of(1, 3)] == 2 and v[mask_of(2, 4)] == 2
        assert v[mask_of(1, 2, 3)] == 1 and v[mask_of(2, 3, 4)] == 1
        for e in (1, 2, 3, 4):
            assert v[mask_of(e)] == 1
        assert v[mask_of(1, 2)] == 0
        nonzero = {m for m in canonical_subset_order(4) if v[m] != 0}
        assert len(nonzero) == 8

    def test_embeds_into_larger_dimension(self):
        v = theorem9_vector(5)
        assert v.n == 5
        assert v[mask_of(2, 4)] == 2
        for m in canonical_subset_order(5):
            if m & mask_of(5):
                assert v[m] == 0

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            theorem9_vector(3)


class TestAnalyzeWitness:
    def test_reproduces_the_boundary_analysis(self):
        report = analyze_witness(theorem9_vector(4))
        assert report.in_cone
        tights = set(report.tight)
        assert TRIANGLE_123 in tights and TRIANGLE_234 in tights
        assert report.obstruction_lhs == 1
        assert report.obstruction_rhs == -1
        assert not report.obstruction_holds

    def test_named_grounds_have_no_other_tight_two_uniform(self):
        report = analyze_witness(theorem9_vector(4))
        for ground, expected in ((0b0111, TRIANGLE_123), (0b1110, TRIANGLE_234)):
            found = {g for g in report.tight if g.k == 2 and g.ground == ground}
            assert found == {expected}

    def test_zero_vector(self):
        report = analyze_witness(ProjectionVector.from_entries(4, {}))
        assert report.in_cone
        assert report.obstruction_lhs == report.obstruction_rhs == 0
        assert report.obstruction_holds

    def test_box_product_vector_obstruction_holds(self):
        # additive vectors (single-box log vectors) always satisfy the equation
        rng = random.Random(3)
        sides = {e: F(rng.randint(-6, 6), 2) for e in range(1, 5)}
        entries = {
            m: sum((sides[e] for e in range(1, 5) if m & mask_of(e)), F(0))
            for m in canonical_subset_order(4)
        }
        report = analyze_witness(ProjectionVector(4, entries))
        assert report.in_cone
        assert report.obstruction_holds

    def test_embedding_consistency(self):
        small = membership(build_bt_system(4), theorem9_vector(4))
        large = membership(build_bt_system(5), theorem9_vector(5))
        assert large.inside == small.inside
        inside4 = mask_of(1, 2, 3, 4)
        restricted = {g for g in large.tight if g.ground & ~inside4 == 0}
        assert restricted == set(small.tight)

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            analyze_witness(ProjectionVector.from_entries(2, {}))


class TestShearer:
    def test_power_set_equality(self):
        n = 3
        family = SetFamily.from_members(n, range(1 << n))
        cover = [0b011, 0b101, 0b110]  # 2-uniform
        report = shearer_check(family, cover, 2)
        assert report.holds
        assert report.lhs_product == report.rhs_power == (1 << n) ** 2

    def test_identity_trace(self):
        family = SetFamily.from_members(2, [0, 0b01, 0b10])
        report = shearer_check(family, [0b11], 1)
        assert report.lhs_product == report.rhs_power == 3

    def test_square_family(self):
        family = SetFamily.from_members(2, [0, 0b01, 0b10, 0b11])
        report = shearer_check(family, [0b01, 0b10], 1)
        assert report.trace_sizes == (2, 2)
        assert report.lhs_product == report.rhs_power == 4

    def test_coverage_at_least_k_allowed(self):
        family = SetFamily.from_members(2, [0, 0b11])
        report = shearer_check(family, [0b01, 0b10, 0b11], 1)
        assert report.holds

    def test_family_constructor_checks(self):
        """from_members is the family's one check; read_family calls it and
        also rejects a repeated member (test_duplicate_member_rejected)."""
        with pytest.raises(ValueError, match=r"member 4 not a subset of \[2\]"):
            SetFamily.from_members(2, [0b100])

    def test_coverage_violation(self):
        family = SetFamily.from_members(2, [0b01])
        with pytest.raises(ValueError):
            shearer_check(family, [0b01], 1)

    def test_random_families_always_hold(self):
        rng = random.Random(20260810)
        trials = 0
        while trials < 120:
            n = rng.randint(2, 5)
            universe = list(range(1 << n))
            members = rng.sample(universe, rng.randint(1, len(universe)))
            sets = [rng.randint(1, (1 << n) - 1) for _ in range(rng.randint(1, 2 * n))]
            k = min(
                sum(1 for a in sets if a >> e & 1) for e in range(n)
            )
            if k < 1:
                continue
            report = shearer_check(SetFamily.from_members(n, members), sets, k)
            assert report.holds
            trials += 1


class TestFamilyFiles:
    def test_round_trip_with_empty_member(self):
        family = SetFamily.from_members(4, [0, 0b0001, 0b1010])
        data = json.loads(write_family(family))
        assert data == {"n": 4, "members": ["", "1", "2,4"]}
        assert read_family(write_family(family)) == family

    def test_duplicate_member_rejected(self):
        with pytest.raises(FormatError):
            read_family('{"n":2,"members":["1","1"]}')

    def test_member_outside_ground_rejected(self):
        with pytest.raises(FormatError):
            read_family('{"n":2,"members":["3"]}')
