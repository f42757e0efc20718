"""Realize vectors strictly inside the cone as box-union bodies, after a scaling.

Given v satisfying every nontrivial irreducible cover inequality strictly,
some multiple lambda*v is the log projection vector of a finite union of
boxes.  The construction walks the nonempty subsets S of [n] from largest to
smallest; at each step it finds the |S| sidelengths of a box living in
Span(S), subtracts that box's projection volumes from the running targets,
and finally places all boxes disjointly.  lambda is found by doubling.

A verdict is a returned value and an exception is a failure: find_lambda
returns a RealizationResult, or a Refusal whose reason is "not-in-cone",
"boundary" or "inconclusive" (the cap was reached; never a
non-realizability claim).  It raises ValueError for a bad n or cap, and
RuntimeError when a step or the final check fails.

Each step is one LP over log values, cone.core_point: the log sides are a
core point of the log targets on S and sum to the log target of S exactly;
the step is infeasible exactly when no core point exists.  find_lambda runs
the same LP on v itself, once per ground of two or more elements, and reads
no generator list, so its bound on n is its own, MAX_REALIZE_DIMENSION, not
the generator list's: the slacks decide whether v is outside, on the
boundary or strictly inside, and only a strict v is realized.
realize_vector trusts strictness; the final check of every log projection
volume against lambda*v is the arbiter.

The step LP only searches product-form solutions, z_A = prod of sides over
A.  That loses nothing: such a z meets every cover constraint of the step
with equality (each element lies in k parts, so the parts multiply to
(prod of sides)^k), and by the minimality theorem the minimal solution of a
feasible step is always of this form.  tests/test_realize.py checks the
theorem against the full step system on sampled steps.

All volume bookkeeping is exact rational; logs/exps are evaluated at
LOG_DIGITS significant digits.  Each side is the exp of its LP log side, so
a step consumes its ground target only to a factor 1 +- _SLACK, and the
running targets carry the difference on exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Mapping, NamedTuple, Union

from . import boxgeom, cone
from .core import (
    ProjectionVector,
    canonical_subset_order,
    elements,
    exp_fraction,
    format_subset,
    log_fraction,
    subsets_of,
)

DEFAULT_LAMBDA_CAP = 1024
#: find_lambda + projection_volume on 1/2 + modular take ~0.6 s at n = 7,
#: ~2 s at n = 8 and ~7-10 s at n = 9, in-process
MAX_REALIZE_DIMENSION = 8
DEFAULT_TOLERANCE = Fraction(1, 10**6)


class Refusal(NamedTuple):
    """find_lambda's verdict on a vector it did not realize.

    reason is "not-in-cone", "boundary" or "inconclusive"; detail names the
    ground, or the cap and the last failed ground.
    """

    reason: str
    detail: str


class BoxSystemInfeasible(Exception):
    """A step system has no solution; the scaling factor is too small."""

    def __init__(self, ground: int):
        super().__init__(f"box system for ground {{{format_subset(ground)}}} is infeasible")


class BoxSystem(NamedTuple):
    """One step's minimal solution z, in volume space.

    sides maps each element of the ground to the emitted box's extent on that
    axis; z is the induced product map, z_A = prod of sides over A.
    """

    ground: int
    z: dict[int, Fraction]
    sides: dict[int, Fraction]


class RealizationResult(NamedTuple):
    lam: Fraction
    body: boxgeom.BoxUnionBody
    steps: tuple[BoxSystem, ...]
    #: per-subset |log |T_A|  -  lam * v_A|, v the vector realized
    residual_report: dict[int, Fraction]


def solve_box_system(ground: int, y: Mapping[int, Fraction]) -> BoxSystem:
    """Minimal solution of the step system for `ground` with targets `y`.

    In log space the step system is linear:
      (i)   z_A <= y_A                       for all nonempty A subset ground
      (ii)  z_A <= prod of singleton z's     for |A| >= 2
      (iii) y_ground^k <= prod over parts z  for each irreducible cover
    Its minimal solution is in product form, z_A = prod of sides over A, with
    prod of all sides = y_ground.  Such a z meets (ii) and (iii) with
    equality, since each element lies in k parts of a k-uniform cover, so
    the system is feasible exactly when the log targets eta = log y have a
    core point on ground.  cone.core_point finds one, the water-filled duals
    of one balanced-weighting LP: its coordinates are the log sides, and
    without one the step raises BoxSystemInfeasible.  Each side is
    exp_fraction of its log side, so z_ground equals y_ground, and every
    other z_A stays below y_A, up to a factor 1 +- _SLACK.
    """
    members = sorted(subsets_of(ground), key=lambda m: (m.bit_count(), m))
    for a in members:
        if a not in y:
            raise ValueError(f"missing target for subset {{{format_subset(a)}}}")
    found = cone.core_point(ground, {a: log_fraction(Fraction(y[a])) for a in members})
    if found is None:
        raise BoxSystemInfeasible(ground)
    sides = {e: exp_fraction(s) for e, s in found[1].items()}
    z = {a: prod(sides[e] for e in elements(a)) for a in members}
    _check_solution(ground, dict(y), z)
    return BoxSystem(ground, z, sides)


_SLACK = Fraction(1, 10**15)


def _check_solution(ground, y, z) -> None:
    if abs(z[ground] - y[ground]) > y[ground] * _SLACK:
        raise RuntimeError("ground target not consumed within slack")
    for a, vol in z.items():
        if a != ground and vol > y[a] * (1 + _SLACK):
            raise RuntimeError(f"solution exceeds target on {{{format_subset(a)}}}")


def realize_vector(v: ProjectionVector, lam) -> RealizationResult:
    """Construct a body whose log projection vector is lam*v within DEFAULT_TOLERANCE.

    Precondition: v satisfies every nontrivial generator strictly, as
    find_lambda ensures; it is not re-checked here.  Without it some step
    can be infeasible at every lam.  Raises BoxSystemInfeasible when lam is
    too small for some step, and RuntimeError if the body misses lam*v.
    """
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("lambda must be positive")

    targets = {a: exp_fraction(lam * v[a]) for a in canonical_subset_order(v.n)}
    steps: list[BoxSystem] = []
    for ground in reversed(canonical_subset_order(v.n)):
        y = {a: targets[a] if a == ground else targets[a] / 2 for a in subsets_of(ground)}
        bs = solve_box_system(ground, y)
        steps.append(bs)
        for a in subsets_of(ground):
            targets[a] -= bs.z[a]

    body = boxgeom.disjoint_offset(v.n, [step.sides for step in steps])
    report = {a: abs(log_fraction(boxgeom.projection_volume(body, a)) - lam * v[a])
              for a in canonical_subset_order(v.n)}
    max_gap = max(report.values())
    if max_gap > DEFAULT_TOLERANCE:
        raise RuntimeError(f"realization drifted beyond tolerance: max gap {float(max_gap):.3g}")
    return RealizationResult(lam, body, tuple(steps), report)


def find_lambda(v: ProjectionVector, lambda_cap=DEFAULT_LAMBDA_CAP) -> Union[RealizationResult, Refusal]:
    """realize_vector(v, lam) at the first lam = 1, 2, 4, ... <= lambda_cap that
    works, if v is strictly inside the cone.

    v is in the cone exactly when cone.core_point(Y, v) has no negative
    slack on any ground Y of two or more elements, and strictly inside
    exactly when every such slack is positive.  In this order: raises
    ValueError unless v.n <= MAX_REALIZE_DIMENSION; returns
    Refusal("not-in-cone", ...) naming the first ground where v is outside,
    then Refusal("boundary", ...) naming the first ground with a zero
    slack; raises ValueError unless lambda_cap >= 1; returns the first
    RealizationResult, or Refusal("inconclusive", ...) past lambda_cap.
    RuntimeError from realize_vector's checks is not caught.
    """
    if v.n > MAX_REALIZE_DIMENSION:
        raise ValueError(f"realize is limited to 1 <= n <= {MAX_REALIZE_DIMENSION}")
    tight = 0  # the first ground with a zero slack; no ground is 0
    for ground in canonical_subset_order(v.n)[v.n:]:  # past the singletons
        found = cone.core_point(ground, v.entries)
        if found is None:
            return Refusal("not-in-cone", f"vector violates a uniform-cover inequality on {{{format_subset(ground)}}}")
        tight = tight or (ground if found[0] == 0 else 0)
    if tight:
        return Refusal("boundary", f"vector is on the boundary of the cone: zero slack on {{{format_subset(tight)}}}")
    lambda_cap = Fraction(lambda_cap)
    if lambda_cap < 1:
        raise ValueError("lambda_cap must be at least 1")
    lam = Fraction(1)
    while lam <= lambda_cap:  # runs at least once, so last is bound after it
        try:
            return realize_vector(v, lam)
        except BoxSystemInfeasible as exc:
            last = exc
            lam *= 2
    return Refusal("inconclusive", f"no realization found with lambda <= {lambda_cap} (last failure: {last})")
