"""Bodies as finite unions of axis-aligned boxes; exact projection volumes.

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
from typing import NamedTuple, Optional, Sequence

from .core import FormatError, elements, format_rational, load_object, parse_rational


class Box(NamedTuple):
    """Product of closed rational intervals, one per axis; lo == hi is allowed.
    A plain record, like BoxUnionBody: read_body checks a body file's boxes."""

    intervals: tuple[tuple[Fraction, Fraction], ...]

    @property
    def n(self) -> int:
        return len(self.intervals)

    def translate(self, shift: Fraction) -> "Box":
        return Box(tuple((lo + shift, hi + shift) for lo, hi in self.intervals))


class BoxUnionBody(NamedTuple):
    """A nonempty union of n-dimensional boxes; checked only by read_body."""

    n: int
    boxes: tuple[Box, ...]


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
        iv = tuple(box.intervals[a - 1] for a in axes)
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


def disjoint_offset(boxes: Sequence[Box]) -> BoxUnionBody:
    """Translate each box along the diagonal so all coordinate intervals are
    pairwise disjoint; projections onto every subspace are then disjoint and
    measures add.  The first box stays; each later one starts at the least
    integer above the largest endpoint so far, so its shift adds no new denominator."""
    if not boxes:
        raise ValueError("need at least one box")
    n = boxes[0].n
    out: list[Box] = []
    top: Optional[Fraction] = None
    for box in boxes:
        if box.n != n:
            raise ValueError("boxes must share a dimension")
        if top is None:
            shifted = box
        else:
            lo_min = min(lo for lo, _ in box.intervals)
            shifted = box.translate(floor(top) + 1 - lo_min)
        out.append(shifted)
        hi_max = max(hi for _, hi in shifted.intervals)
        top = hi_max if top is None else max(top, hi_max)
    return BoxUnionBody(n, tuple(out))


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
                        for lo, hi in box.intervals
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
        boxes.append(Box(tuple(intervals)))
    return BoxUnionBody(n, tuple(boxes))
