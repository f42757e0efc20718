import hashlib
import random
from fractions import Fraction

import pytest

from conftest import random_body, sample_bt3_vector, shift, thicken
from covercone import realize
from covercone.boxgeom import projection_volume
from covercone.cone import ConeSystem, build_bt_system, coefficients, core_point, format_inequality, margin, membership
from covercone.core import ProjectionVector, canonical_subset_order, elements, log_fraction, subsets_of
from covercone.covers import UniformCover
from covercone.witness import theorem9_vector


class TestBuildSystem:
    def test_n1_is_empty(self):
        assert build_bt_system(1).generators == ()

    def test_n2_single_generator(self):
        system = build_bt_system(2)
        assert len(system.generators) == 1
        assert format_inequality(coefficients(system.generators[0])) == "1*1 + 1*2 >= 1*1,2"

    def test_format_nets_a_ground_that_is_a_part(self):
        # x_1 + x_2 + x_12 >= 2 x_12 reads x_1 + x_2 >= x_12
        reducible = UniformCover.from_parts(0b11, [0b01, 0b10, 0b11])
        assert coefficients(reducible) == {0b01: 1, 0b10: 1, 0b11: -1}
        assert format_inequality(coefficients(reducible)) == "1*1 + 1*2 >= 1*1,2"

    def test_n3_contains_two_uniform_triangle(self):
        system = build_bt_system(3)
        triangle = UniformCover.from_parts(0b111, [0b011, 0b101, 0b110])
        assert triangle in system.generators
        assert len(system.generators) == 8

    def test_no_trivial_generators(self):
        for g in build_bt_system(3).generators:
            assert not g.trivial

    def test_generator_counts_n4(self):
        # 6 pair grounds * 1 + 4 triple grounds * 5 + (15-1 + 22 + 5) on [4]
        system = build_bt_system(4)
        assert len(system.generators) == 67
        assert len(set(system.generators)) == 67

    def test_resource_guard(self):
        with pytest.raises(ValueError):
            build_bt_system(7)

    @pytest.mark.parametrize("k_max", [None, 2, 5, 12])
    def test_no_ground_searched_past_its_size(self, monkeypatch, k_max):
        """Each ground Y asks for k <= min(k_max, |Y|), the complete cone's
        bound, so a k_max >= n adds no search."""
        from covercone import covers

        asked = {}

        def spy(ground, bound=None):
            asked[ground] = bound
            return []

        monkeypatch.setattr(covers, "irreducible_covers", spy)
        assert build_bt_system(5, k_max).generators == ()
        cap = 5 if k_max is None else k_max
        assert asked == {g: min(cap, g.bit_count()) for g in range(1, 32)}

    @pytest.mark.parametrize("args,digest", [
        ((4,), "704cb10fa8d51784ea174fa536e547a45bde1cc1023d3da1a077cce29b32e3c8"),
        ((5, 3), "24883aa69cc04d2afc50d894ce87104e163a8f731f1433b1e7890747a17d97ff"),
    ], ids=["n4", "n5-kmax3"])
    def test_generator_list_pinned(self, args, digest):
        text = build_bt_system(*args).h_representation()
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_h_representation(self):
        lines = build_bt_system(2).h_representation().splitlines()
        assert lines == ["1*1 + 1*2 >= 1*1,2"]


class TestMembership:
    def test_zero_vector_inside_all_tight(self):
        system = build_bt_system(3)
        report = membership(system, ProjectionVector.from_entries(3, {}))
        assert report.inside
        assert set(report.tight) == set(system.generators)
        assert report.violated == ()

    def test_violation_reported(self):
        system = build_bt_system(2)
        v = ProjectionVector.from_entries(2, {0b11: Fraction(1)})
        report = membership(system, v)
        assert not report.inside
        assert report.violated == (system.generators[0],)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            membership(build_bt_system(2), ProjectionVector.from_entries(3, {}))

    def test_scale_equivariance(self):
        system = build_bt_system(3)
        rng = random.Random(11)

        def scaled(w, q):
            return ProjectionVector(w.n, {m: x * q for m, x in w.entries.items()})

        for _ in range(25):
            v = sample_bt3_vector(rng)
            bad = shift(v, Fraction(-5))  # typically outside
            for q in (Fraction(1, 3), Fraction(7, 2), Fraction(12)):
                assert membership(system, scaled(v, q)).inside == membership(system, v).inside
                assert membership(system, scaled(bad, q)).inside == membership(system, bad).inside

    def test_redundant_generator_never_changes_verdict(self):
        system = build_bt_system(2)
        reducible = UniformCover.from_parts(0b11, [0b01, 0b10, 0b11])
        extended = ConeSystem(2, system.generators + (reducible,))
        rng = random.Random(5)
        for _ in range(50):
            entries = {m: Fraction(rng.randint(-8, 8), 2) for m in range(1, 4)}
            v = ProjectionVector.from_entries(2, entries)
            assert membership(system, v).inside == membership(extended, v).inside


def near_boundary_vector(rng, n: int) -> ProjectionVector:
    """Modular plus a small constant, so every margin is small, with a few
    entries moved off by a little in either direction."""
    weights = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
    bump = rng.choice([Fraction(0), Fraction(1, 8), Fraction(1, 2)])
    entries = {a: sum(weights[e - 1] for e in elements(a)) + bump for a in canonical_subset_order(n)}
    for a in rng.sample(sorted(entries), min(3, len(entries))):
        entries[a] += rng.choice([-1, 1]) * Fraction(rng.randint(1, 4), 4)
    return ProjectionVector.from_entries(n, entries)


def assert_core_point(ground, v, u):
    assert set(u) == set(elements(ground))
    assert sum(u.values()) == v[ground]
    for a in subsets_of(ground):
        if a != ground:
            assert sum(u[e] for e in elements(a)) <= v[a]


class TestCorePoint:
    """core_point(Y, v) gives a slack whose sign is the generator list's
    verdict on Y (Bondareva-Shapley), and then exactly a core point."""

    @pytest.mark.parametrize("n,count", [(2, 40), (3, 30), (4, 20), (5, 20)])
    def test_matches_generator_list(self, n, count):
        """Slack < 0 (None), = 0 and > 0 exactly when some generator on Y
        fails, the smallest margin is 0, and every margin is positive."""
        rng = random.Random(600 + n)
        on_ground = {}
        for g in build_bt_system(n).generators:
            on_ground.setdefault(g.ground, []).append(g)
        outcomes = {"outside": 0, "tight": 0, "strict": 0}
        for _ in range(count):
            v = near_boundary_vector(rng, n)
            for ground, generators in on_ground.items():
                smallest = min(margin(g, v) for g in generators)
                verdict = "outside" if smallest < 0 else "tight" if smallest == 0 else "strict"
                found = core_point(ground, v)
                if found is None:
                    assert verdict == "outside"
                else:
                    slack, u = found
                    assert verdict == ("tight" if slack == 0 else "strict")
                    assert_core_point(ground, v, u)
                outcomes[verdict] += 1
        assert min(outcomes["outside"], outcomes["strict"]) >= count // 4 and outcomes["tight"] >= 3

    @pytest.mark.parametrize("n,count", [(2, 40), (3, 30), (4, 20), (5, 20)])
    def test_find_lambda_decides_as_membership(self, monkeypatch, n, count):
        """find_lambda refuses v as not-in-cone exactly when membership finds
        a violated generator, as boundary exactly when it finds a tight one,
        and otherwise hands v on as given."""
        handed = []
        monkeypatch.setattr(realize, "realize_vector", lambda w, lam: handed.append(w))
        system = build_bt_system(n)
        rng = random.Random(700 + n)
        outcomes = {"outside": 0, "tight": 0, "strict": 0}
        for _ in range(count):
            near = near_boundary_vector(rng, n)
            for v in (near, shift(near, Fraction(1, 8)), shift(near, Fraction(1, 2))):
                report = membership(system, v)
                if not report.inside:
                    assert realize.find_lambda(v).reason == "not-in-cone"
                    outcomes["outside"] += 1
                elif report.tight:
                    assert realize.find_lambda(v).reason == "boundary"
                    outcomes["tight"] += 1
                else:
                    realize.find_lambda(v)
                    assert handed.pop() == v
                    outcomes["strict"] += 1
        assert min(outcomes.values()) >= 3

    def test_theorem9_vector_has_every_core_point(self):
        v = theorem9_vector(4)
        for ground in canonical_subset_order(4):
            assert_core_point(ground, v, core_point(ground, v)[1])

    def test_violated_pair_has_none(self):
        v = ProjectionVector.from_entries(3, {0b011: Fraction(3), 0b001: Fraction(1), 0b010: Fraction(1)})
        assert core_point(0b011, v) is None
        assert_core_point(0b111, v, core_point(0b111, v)[1])

    def test_water_fill_lowers_only_the_top(self):
        """On {1,2} with every cap loose the LP's duals are the caps 5 and 1;
        the slack 6 - 2 = 4 comes off the larger one alone."""
        slack, u = core_point(0b11, {0b01: Fraction(5), 0b10: Fraction(1), 0b11: Fraction(2)})
        assert slack == 4
        assert u == {1: Fraction(1), 2: Fraction(1)}


class TestUniformCoverTheorem:
    """Projection volumes of any box union satisfy every generator."""

    def test_multiplicative_form_on_random_bodies(self):
        rng = random.Random(101)
        system = build_bt_system(3)
        for _ in range(60):
            body = thicken(random_body(rng, 3, 3), Fraction(1, 64))
            vols = {m: projection_volume(body, m) for m in canonical_subset_order(3)}
            assert all(v > 0 for v in vols.values())
            for g in system.generators:
                lhs = Fraction(1)
                for part in g.parts:
                    lhs *= vols[part]
                assert lhs >= vols[g.ground] ** g.k

    def test_log_vector_membership(self):
        rng = random.Random(202)
        system = build_bt_system(3)
        checked = 0
        for _ in range(40):
            body = thicken(random_body(rng, 3, 3), Fraction(1, 64))
            vols = {m: projection_volume(body, m) for m in canonical_subset_order(3)}
            strict = all(
                _product(vols, g) > vols[g.ground] ** g.k
                for g in system.generators
            )
            if not strict:
                continue  # exact ties can flip sign under 30-digit logs
            vector = ProjectionVector.from_entries(3, {m: log_fraction(vol) for m, vol in vols.items()})
            assert membership(system, vector).inside
            checked += 1
        assert checked >= 20


def _product(vols, g):
    out = Fraction(1)
    for part in g.parts:
        out *= vols[part]
    return out
