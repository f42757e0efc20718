import json
import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from conftest import axiswise_disjoint, half_plus_modular, inclusion_exclusion_volume, random_body, thicken
from covercone.boxgeom import (
    BoxUnionBody,
    disjoint_offset,
    projection_volume,
    read_body,
    write_body,
)
from covercone.core import FormatError, canonical_subset_order, elements
from covercone.realize import find_lambda


def box(*pairs):
    return tuple((Fraction(lo), Fraction(hi)) for lo, hi in pairs)


def unit_cube(n):
    return box(*(((0, 1),) * n))


def side_map(bx):
    """axis (1-based) -> side length, as disjoint_offset takes a box."""
    return {axis: hi - lo for axis, (lo, hi) in enumerate(bx, 1)}


# mixed denominators; sides may also be exactly 0
sides = st.fractions(min_value=0, max_value=30, max_denominator=1000)

TWO_BOX = BoxUnionBody(2, (box((0, 1), (0, 1)), box((0, 2), (0, Fraction(1, 2)))))


class TestProjectionVolume:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_unit_cube(self, n):
        body = BoxUnionBody(n, (unit_cube(n),))
        for mask in canonical_subset_order(n):
            assert projection_volume(body, mask) == 1

    def test_two_box_overlap(self):
        # oracle: 1 + 1 - 1/2 = 3/2
        assert inclusion_exclusion_volume(TWO_BOX, 0b11) == Fraction(3, 2)
        assert projection_volume(TWO_BOX, 0b11) == Fraction(3, 2)
        assert projection_volume(TWO_BOX, 0b01) == 2
        assert projection_volume(TWO_BOX, 0b10) == 1

    def test_degenerate_segment(self):
        body = BoxUnionBody(2, (box((0, 5), (0, 0)),))
        assert projection_volume(body, 0b11) == 0
        assert projection_volume(body, 0b01) == 5
        assert projection_volume(body, 0b10) == 0

    @pytest.mark.parametrize(
        "n,trials,max_boxes,grid",
        [pytest.param(n, t, 3, {}, id=f"{n}-{t}") for n, t in ((2, 120), (3, 80), (4, 20))]
        # integer endpoints on 0..3: intervals touch, nest and repeat
        + [pytest.param(n, 150, 6, {"denom": 1, "hi": 3}, id=f"ties-{n}") for n in (1, 2, 3, 4)],
    )
    def test_matches_inclusion_exclusion(self, n, trials, max_boxes, grid):
        rng = random.Random(n * 1000 + 9)
        for _ in range(trials):
            body = random_body(rng, n, max_boxes, **grid)
            for mask in canonical_subset_order(n):
                assert projection_volume(body, mask) == inclusion_exclusion_volume(body, mask)

    @pytest.mark.parametrize("n", [6, 7])
    def test_realized_body_sums_its_boxes(self, n):
        """The body realizing 1/2 + modular (63 and 127 boxes) is axis-disjoint,
        so every projection volume is the sum over boxes of the product of
        their sides on A."""
        body = find_lambda(half_plus_modular(n)).body
        assert axiswise_disjoint(body)
        for mask in canonical_subset_order(n):
            own = sum(prod(bx[a - 1][1] - bx[a - 1][0] for a in elements(mask)) for bx in body.boxes)
            assert projection_volume(body, mask) == own

    def test_monotone_under_union(self):
        rng = random.Random(31)
        for _ in range(40):
            body = random_body(rng, 3, 3)
            bigger = BoxUnionBody(3, body.boxes + (random_body(rng, 3, 1).boxes[0],))
            for mask in canonical_subset_order(3):
                assert projection_volume(bigger, mask) >= projection_volume(body, mask)

    def test_subadditive_and_exact_after_offset(self):
        rng = random.Random(47)
        for _ in range(40):
            a = random_body(rng, 3, 2)
            b = random_body(rng, 3, 2)
            union = BoxUnionBody(3, a.boxes + b.boxes)
            spread = disjoint_offset(3, [side_map(bx) for bx in a.boxes + b.boxes])
            for mask in canonical_subset_order(3):
                va, vb = projection_volume(a, mask), projection_volume(b, mask)
                assert projection_volume(union, mask) <= va + vb
                total = sum(
                    (projection_volume(BoxUnionBody(3, (bx,)), mask) for bx in spread.boxes),
                    Fraction(0),
                )
                assert projection_volume(spread, mask) == total

    def test_mask_validation(self):
        body = BoxUnionBody(2, (unit_cube(2),))
        with pytest.raises(ValueError):
            projection_volume(body, 0)
        with pytest.raises(ValueError):
            projection_volume(body, 0b100)

    def test_axis_scaling_equivariance(self):
        rng = random.Random(53)
        s = Fraction(7, 3)
        for _ in range(25):
            body = random_body(rng, 3, 3)
            scaled = BoxUnionBody(
                3,
                tuple(
                    ((b[0][0] * s, b[0][1] * s),) + b[1:]
                    for b in body.boxes
                ),
            )
            for mask in canonical_subset_order(3):
                factor = s if mask & 0b001 else 1
                assert projection_volume(scaled, mask) == factor * projection_volume(body, mask)


class TestThicken:
    def test_all_projections_positive(self):
        body = BoxUnionBody(3, (box((0, 5), (0, 0), (1, 1)),))
        fat = thicken(body, Fraction(1, 1024))
        assert all(projection_volume(fat, m) > 0 for m in canonical_subset_order(3))

    def test_adds_exactly_eps_power(self):
        eps = Fraction(1, 7)
        body = TWO_BOX
        fat = thicken(body, eps)
        for mask in canonical_subset_order(2):
            assert projection_volume(fat, mask) == projection_volume(body, mask) + eps ** mask.bit_count()

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            thicken(TWO_BOX, Fraction(0))


class TestDisjointOffset:
    def test_two_unit_squares(self):
        body = disjoint_offset(2, [side_map(unit_cube(2))] * 2)
        assert projection_volume(body, 0b01) == 2
        assert projection_volume(body, 0b11) == 2

    def test_single_box_kept_in_place(self):
        """A lone box keeps its side lengths and starts at 0 on every axis;
        an axis its map leaves out is the point 0."""
        assert disjoint_offset(3, [{1: Fraction(1), 3: Fraction(1, 2)}]).boxes == (
            box((0, 1), (0, 0), (0, Fraction(1, 2))),
        )

    @settings(deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.dictionaries(st.integers(1, n), st.one_of(st.just(Fraction(0)), sides), max_size=n),
        min_size=1, max_size=6))))
    def test_axiswise_disjoint(self, drawn):
        """Each box keeps its side lengths (an axis left out is a point),
        each axis is laid out from 0 shortest first (ties in box order) with
        pairwise disjoint intervals, and every projection volume is the sum
        of the boxes' own, the products of their sides."""
        n, maps = drawn
        body = disjoint_offset(n, maps)
        assert body.n == n and len(body.boxes) == len(maps)
        assert axiswise_disjoint(body)
        for axis in range(n):
            placed = [b[axis] for b in body.boxes]
            assert [hi - lo for lo, hi in placed] == [m.get(axis + 1, 0) for m in maps]
            order = sorted(range(len(maps)), key=lambda i: placed[i][0])
            assert placed[order[0]][0] == 0
            keys = [(placed[i][1] - placed[i][0], i) for i in order]
            assert keys == sorted(keys)
        for mask in canonical_subset_order(n):
            own = sum(prod(m.get(a, 0) for a in elements(mask)) for m in maps)
            assert projection_volume(body, mask) == own


class TestBodyFiles:
    def test_round_trip(self):
        rng = random.Random(71)
        for _ in range(10):
            body = random_body(rng, 3, 3)
            assert read_body(write_body(body)) == body

    def test_example_shape(self):
        data = json.loads(write_body(TWO_BOX))
        assert data == {
            "n": 2,
            "boxes": [
                {"intervals": [["0", "1"], ["0", "1"]]},
                {"intervals": [["0", "2"], ["0", "1/2"]]},
            ],
        }

    @pytest.mark.parametrize(
        "bad",
        [
            '{"n":2,"boxes":[]}',
            '{"n":2,"boxes":[{"intervals":[["0","1"]]}]}',
            '{"n":2,"boxes":[{"intervals":[["1","0"],["0","1"]]}]}',
            '{"n":2,"boxes":[{"intervals":[["0.5","1"],["0","1"]]}]}',
            '{"boxes":[{"intervals":[["0","1"],["0","1"]]}]}',
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(FormatError):
            read_body(bad)
