"""Shared samplers and independent oracles for the test suite.

The oracles here deliberately reimplement results by different means
(inclusion-exclusion instead of grid compression, full multiplicity scans
instead of pruned search) so agreement is meaningful.
"""

import json
import os
from fractions import Fraction
from itertools import combinations, product

import numpy as np
from hypothesis import settings

from covercone.boxgeom import BoxUnionBody
from covercone.core import ProjectionVector, elements, format_rational, format_subset

# CI runs (GitHub Actions sets CI) draw the same examples every time and keep
# no example database, so a property test cannot pass on one run and fail on
# the next.
settings.register_profile("ci", derandomize=True, database=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


# ---------------------------------------------------------------------------
# measure oracle: inclusion-exclusion over box intersections

def inclusion_exclusion_volume(body: BoxUnionBody, mask: int) -> Fraction:
    axes = [a - 1 for a in elements(mask)]
    rects = []
    for box in body.boxes:
        iv = [box[a] for a in axes]
        rects.append(iv)
    total = Fraction(0)
    for r in range(1, len(rects) + 1):
        for combo in combinations(rects, r):
            vol = Fraction(1)
            for axis in range(len(axes)):
                lo = max(iv[axis][0] for iv in combo)
                hi = min(iv[axis][1] for iv in combo)
                if lo >= hi:
                    vol = Fraction(0)
                    break
                vol *= hi - lo
            total += vol if r % 2 == 1 else -vol
    return total


# ---------------------------------------------------------------------------
# cover oracles: exhaustive scans over multiplicity vectors

def oracle_all_covers(ground: int, k_max: int) -> set:
    """Every uniform cover with k <= k_max, as a sorted tuple of part masks.

    Vectorized full scan over all multiplicity vectors with per-part
    multiplicity <= k_max (a part's multiplicity never exceeds the coverage
    of its elements, so nothing is missed).
    """
    subs = [s for s in range(1, ground + 1) if (s & ~ground) == 0]
    elems = elements(ground)
    inc = np.array(
        [[1 if s >> (e - 1) & 1 else 0 for e in elems] for s in subs], dtype=np.int64
    )
    axes = [np.arange(k_max + 1)] * len(subs)
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(subs))
    coverage = grid @ inc
    uniform = (
        (coverage == coverage[:, :1]).all(axis=1)
        & (coverage[:, 0] >= 1)
        & (coverage[:, 0] <= k_max)
    )
    out = set()
    for mults in grid[uniform]:
        parts = []
        for s, m in zip(subs, mults):
            parts.extend([s] * int(m))
        out.add(tuple(sorted(parts)))
    return out


def oracle_is_irreducible(parts: tuple, ground: int) -> bool:
    """Full scan over proper nonempty sub-multisets for uniform coverage."""
    distinct = sorted(set(parts))
    mults = [parts.count(s) for s in distinct]
    elems = elements(ground)
    total = len(parts)
    for choice in product(*(range(m + 1) for m in mults)):
        size = sum(choice)
        if size == 0 or size == total:
            continue
        coverage = set()
        for e in elems:
            bit = 1 << (e - 1)
            coverage.add(sum(c for s, c in zip(distinct, choice) if s & bit))
        if len(coverage) == 1 and coverage.pop() >= 1:
            return False
    return True


def oracle_irreducible_covers(ground: int, k_max: int) -> set:
    return {
        parts
        for parts in oracle_all_covers(ground, k_max)
        if oracle_is_irreducible(parts, ground)
    }


# ---------------------------------------------------------------------------
# body helpers

def thicken(body: BoxUnionBody, eps: Fraction) -> BoxUnionBody:
    """Add one full-dimensional eps-cube beyond the body's coordinate range.

    Placed past the global maximum on every axis, its projections are
    disjoint from all existing ones, so every projection volume grows by
    exactly eps^{|A|} and becomes strictly positive.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    top = max(hi for box in body.boxes for _, hi in box)
    base = top + 1
    cube = tuple((base, base + eps) for _ in range(body.n))
    return BoxUnionBody(body.n, body.boxes + (cube,))


def axiswise_disjoint(body: BoxUnionBody) -> bool:
    """True when on every axis the boxes' intervals are pairwise disjoint."""
    for axis in range(body.n):
        spans = sorted(box[axis] for box in body.boxes)
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            if hi >= lo:
                return False
    return True


# ---------------------------------------------------------------------------
# exact linear algebra

def row_reduce(rows) -> tuple[list[list[Fraction]], list[int]]:
    """The nonzero rows of the reduced row echelon form of rows, in exact
    Fractions, and their pivot columns; the rank is the number of pivots."""
    m = [[Fraction(c) for c in row] for row in rows]
    pivots = []
    for col in range(len(m[0]) if m else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][col]), None)
        if p is None:
            continue
        row = m.pop(p)
        m.insert(r, [c / row[col] for c in row])
        for i in range(len(m)):
            if i != r and m[i][col]:
                m[i] = [a - m[i][col] * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
    return m[:len(pivots)], pivots


# ---------------------------------------------------------------------------
# writers for the input-only formats: no command writes an inequality or a
# family file, so the tests that read one back write it here

def inequality_json(ineq) -> str:
    """The inequality file of a LinearInequality: lhs its positive
    coefficients, rhs its negative ones negated."""
    return json.dumps(
        {
            "n": ineq.n,
            "lhs": {format_subset(m): format_rational(c) for m, c in ineq.coeffs.items() if c > 0},
            "rhs": {format_subset(m): format_rational(-c) for m, c in ineq.coeffs.items() if c < 0},
        },
        indent=2,
    )


def family_json(family) -> str:
    """The family file of a SetFamily, members in its order."""
    return json.dumps({"n": family.n, "members": [format_subset(m) for m in family.members]}, indent=2)


# ---------------------------------------------------------------------------
# samplers

def shift(v: ProjectionVector, eps: Fraction) -> ProjectionVector:
    """Add eps to every coordinate.  A nontrivial cover with l parts and
    multiplicity k has l > k, so each margin grows by (l - k)*eps: eps > 0
    takes a vector of the cone strictly inside."""
    return ProjectionVector(v.n, {m: x + eps for m, x in v.entries.items()})


def modular_plus_one(weights):
    """x_A = 1 + sum of weights over A: strict on every nontrivial generator."""
    n = len(weights)
    return ProjectionVector.from_entries(
        n, {m: 1 + sum(w for i, w in enumerate(weights) if m >> i & 1) for m in range(1, 1 << n)}
    )


#: the weights of the 1/2 + modular test vectors, one per element up to n = 8
MODULAR_WEIGHTS = (Fraction(3, 4), Fraction(-1, 2), Fraction(1), Fraction(-5, 4),
                   Fraction(1, 3), Fraction(2, 5), Fraction(-1, 7), Fraction(2, 3))


def half_plus_modular(n: int) -> ProjectionVector:
    """x_A = 1/2 + the first n MODULAR_WEIGHTS summed over A: a modular vector,
    tight on every generator, shifted strictly inside by 1/2."""
    return shift(modular_plus_one(MODULAR_WEIGHTS[:n]), Fraction(-1, 2))


def random_box(rng, n: int, denom: int = 8, hi: int = 16, degenerate_prob: float = 0.15) -> tuple:
    intervals = []
    for _ in range(n):
        a = Fraction(rng.randint(0, hi * denom), denom)
        if rng.random() < degenerate_prob:
            intervals.append((a, a))
        else:
            b = Fraction(rng.randint(0, hi * denom), denom)
            lo, hi_ = min(a, b), max(a, b)
            intervals.append((lo, hi_))
    return tuple(intervals)


def random_body(rng, n: int, max_boxes: int, **kw) -> BoxUnionBody:
    count = rng.randint(1, max_boxes)
    return BoxUnionBody(n, tuple(random_box(rng, n, **kw) for _ in range(count)))


def sample_bt3_vector(rng, denom: int = 4, hi: int = 4) -> ProjectionVector:
    """Uniform-ish rational point of the n=3 cone, built constructively:
    singletons free, each pair bounded by its singleton sum, the triple
    bounded by all five of its generator inequalities."""
    m1, m2, m3 = 0b001, 0b010, 0b100
    m12, m13, m23 = 0b011, 0b101, 0b110
    m123 = 0b111
    x = {}
    for m in (m1, m2, m3):
        x[m] = Fraction(rng.randint(0, hi * denom), denom)
    for a, b, ab in ((m1, m2, m12), (m1, m3, m13), (m2, m3, m23)):
        x[ab] = Fraction(rng.randint(0, int((x[a] + x[b]) * denom)), denom)
    cap = min(
        x[m1] + x[m23],
        x[m2] + x[m13],
        x[m3] + x[m12],
        x[m1] + x[m2] + x[m3],
        (x[m12] + x[m13] + x[m23]) / 2,
    )
    x[m123] = Fraction(rng.randint(0, int(cap * denom)), denom)
    return ProjectionVector.from_entries(3, x)
