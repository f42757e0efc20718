"""Bodies as finite unions of axis-aligned boxes; exact projection volumes.

A box is its tuple of closed rational intervals (lo, hi), one per axis.
Boxes may be degenerate (point extent) on some axes, so a box can live in a
proper coordinate subspace.  All endpoints are exact rationals and every
measure below is computed exactly.  This module reads, writes, places and
measures bodies and takes no log: the callers that report log volumes
(`project`, realize.realize_vector) take them from these exact volumes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import floor
from typing import Mapping, NamedTuple, Sequence

from .core import FormatError, elements, format_rational, load_object, parse_rational


class BoxUnionBody(NamedTuple):
    """A nonempty union of n-dimensional boxes, each a tuple of n (lo, hi)
    pairs with lo <= hi; checked only by read_body."""

    n: int
    boxes: tuple[tuple[tuple[Fraction, Fraction], ...], ...]


def projection_volume(body: BoxUnionBody, mask: int) -> Fraction:
    """Exact |A|-dimensional measure of the projection onto the axes in `mask`.

    Coordinate compression: the grid induced by the active boxes' endpoints
    partitions each axis; a cell contributes iff some box spans it entirely.
    Boxes degenerate on any axis of A project to measure zero and drop out.
    """
    if mask == 0 or mask >> body.n:
        raise ValueError(f"mask {mask} is not a nonempty subset of [{body.n}]")
    axes = elements(mask)
    rects = []
    for box in body.boxes:
        iv = tuple(box[a - 1] for a in axes)
        if all(lo < hi for lo, hi in iv):
            rects.append(iv)
    if not rects:
        return Fraction(0)
    depth_max = len(axes)
    memo: dict[tuple[frozenset, int], Fraction] = {}

    def measure(active: frozenset, depth: int) -> Fraction:
        if depth == depth_max:
            return Fraction(1)
        key = (active, depth)
        cached = memo.get(key)
        if cached is not None:
            return cached
        points = sorted(
            {rects[i][depth][0] for i in active} | {rects[i][depth][1] for i in active}
        )
        total = Fraction(0)
        for a, b in zip(points, points[1:]):
            spanning = frozenset(
                i for i in active if rects[i][depth][0] <= a and b <= rects[i][depth][1]
            )
            if spanning:
                total += (b - a) * measure(spanning, depth + 1)
        memo[key] = total
        return total

    return measure(frozenset(range(len(rects))), 0)


def disjoint_offset(n: int, sides: Sequence[Mapping[int, Fraction]]) -> BoxUnionBody:
    """An n-dimensional body of one box per map in `sides`, axis (1-based) ->
    side length, an axis left out a point.  On every axis the intervals are
    pairwise disjoint, so projections onto every subspace are disjoint and
    measures add.  Each axis is laid out on its own, shortest first (ties in
    box order): the first interval from 0, each later one from the least
    integer past the end of the one before, so no start adds a denominator."""
    if not sides:
        raise ValueError("need at least one box")
    columns = []
    for axis in range(1, n + 1):
        lengths = [box.get(axis, Fraction(0)) for box in sides]
        placed, start = [None] * len(sides), 0
        for i in sorted(range(len(sides)), key=lengths.__getitem__):  # fine sides start near 0, not past a large one
            placed[i] = (Fraction(start), start + lengths[i])
            start = floor(start + lengths[i]) + 1
        columns.append(placed)
    return BoxUnionBody(n, tuple(zip(*columns)))


# ---------------------------------------------------------------------------
# body file format

def write_body(body: BoxUnionBody) -> str:
    return json.dumps(
        {
            "n": body.n,
            "boxes": [
                {
                    "intervals": [
                        [format_rational(lo), format_rational(hi)]
                        for lo, hi in box
                    ]
                }
                for box in body.boxes
            ],
        },
        indent=2,
    )


def read_body(text: str) -> BoxUnionBody:
    data = load_object(text, "body", "n", "boxes")
    n = data["n"]
    if not isinstance(data["boxes"], list) or not data["boxes"]:
        raise FormatError("'boxes' must be a nonempty list")
    boxes = []
    for entry in data["boxes"]:
        if not isinstance(entry, dict) or list(entry) != ["intervals"]:
            raise FormatError("each box must be an object with the one field 'intervals'")
        iv = entry["intervals"]
        if not isinstance(iv, list) or len(iv) != n:
            raise FormatError(f"each box needs exactly {n} intervals")
        intervals = []
        for pair in iv:
            if not isinstance(pair, list) or len(pair) != 2:
                raise FormatError("each interval must be a [lo, hi] pair")
            lo, hi = parse_rational(pair[0]), parse_rational(pair[1])
            if lo > hi:
                raise FormatError(f"empty interval [{lo}, {hi}]")
            intervals.append((lo, hi))
        boxes.append(tuple(intervals))
    return BoxUnionBody(n, tuple(boxes))
