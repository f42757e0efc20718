"""The uniform-cover cone as a finite inequality system, with exact membership.

Every nonempty Y subset [n] contributes one inequality per nontrivial
irreducible uniform cover of Y:  sum_i x_{Y_i} >= k * x_Y.  Reducible covers
add nothing (their inequalities are sums of irreducible ones) and the trivial
cover [Y] is a tautology, so the generator list below is finite and complete
for membership purposes.  A generator is its UniformCover; `coefficients`
and `margin` read it as that inequality, and `format_inequality` prints it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Mapping, NamedTuple, Optional

from . import covers, simplex
from .core import ProjectionVector, canonical_subset_order, elements, format_rational, format_subset, subsets_of

#: the default k <= |Y| system is proved complete up to here; n = 6 does not
#: end in minutes and no complete generator list for it is known
MAX_CONE_DIMENSION = 5


def coefficients(cover: covers.UniformCover) -> dict[int, int]:
    """mask -> c of sum_i x_{Y_i} - k * x_Y, netted, nonzero, in mask order."""
    coeffs: dict[int, int] = {}
    for part in cover.parts:
        coeffs[part] = coeffs.get(part, 0) + 1
    coeffs[cover.ground] = coeffs.get(cover.ground, 0) - cover.k
    return {mask: c for mask, c in sorted(coeffs.items()) if c != 0}


def margin(cover: covers.UniformCover, v: Mapping[int, Fraction] | ProjectionVector) -> Fraction | int:
    """sum_i v_{Y_i} - k*v_Y; nonnegative iff the inequality holds at v.

    v maps each mask to an int or a Fraction; the margin is of the same kind.
    """
    return sum(v[part] for part in cover.parts) - cover.k * v[cover.ground]


def format_inequality(coeffs: Mapping[int, Fraction]) -> str:
    """A netted mask -> coefficient map, as from `coefficients` or
    LinearInequality.coeffs, read as coeffs . x >= 0 and printed with each
    side in map order, e.g. `1*1 + 1*2 >= 1*1,2`."""
    lhs = " + ".join(f"{format_rational(c)}*{format_subset(m)}" for m, c in coeffs.items() if c > 0)
    rhs = " + ".join(f"{format_rational(-c)}*{format_subset(m)}" for m, c in coeffs.items() if c < 0)
    return f"{lhs or 0} >= {rhs or 0}"


class ConeSystem(NamedTuple):
    n: int
    generators: tuple[covers.UniformCover, ...]

    def h_representation(self) -> str:
        return "\n".join(format_inequality(coefficients(g)) for g in self.generators)


class MembershipReport(NamedTuple):
    inside: bool
    violated: tuple[covers.UniformCover, ...]
    tight: tuple[covers.UniformCover, ...]


def build_bt_system(n: int, k_max: Optional[int] = None) -> ConeSystem:
    """All nontrivial irreducible cover inequalities over every Y subset [n].

    Each Y searches k <= min(k_max, |Y|); k <= |Y| (the default) is the
    complete cone, so any k_max >= n gives the same system.
    """
    if not 1 <= n <= MAX_CONE_DIMENSION:
        raise ValueError(f"cone systems are limited to 1 <= n <= {MAX_CONE_DIMENSION}")
    generators = []
    for ground in canonical_subset_order(n):
        size = ground.bit_count()
        for cover in covers.irreducible_covers(ground, size if k_max is None else min(k_max, size)):
            if not cover.trivial:
                generators.append(cover)
    return ConeSystem(n, tuple(generators))


def membership(system: ConeSystem, v: ProjectionVector) -> MembershipReport:
    """Exact evaluation of every generator; inside iff none is violated.

    v is scaled once by the lcm of its denominators, which keeps every
    margin's sign, so each generator is evaluated in integers.
    """
    if v.n != system.n:
        raise ValueError(f"vector dimension {v.n} != system dimension {system.n}")
    scale = lcm(*(q.denominator for q in v.entries.values()))
    scaled = {mask: q.numerator * (scale // q.denominator) for mask, q in v.entries.items()}
    violated = []
    tight = []
    for g in system.generators:
        m = margin(g, scaled)
        if m < 0:
            violated.append(g)
        elif m == 0:
            tight.append(g)
    return MembershipReport(not violated, tuple(violated), tuple(tight))


def core_point(ground: int, values: Mapping[int, Fraction]) -> Optional[tuple[Optional[Fraction], dict[int, Fraction]]]:
    """(slack, u) of `values` on `ground`, or None when the slack is negative.

    values maps each nonempty subset of ground to a rational.  The slack is
    min sum of w_A values[A] - values[ground] over the balanced weightings
    w >= 0 of the proper subsets A (sum of w_A over A containing i = 1 for
    each element i), from one simplex.solve_equality_lp with those rows in
    element order and columns w_A in (size, mask) order.  The LP is feasible
    (singletons) and bounded (w_A <= 1).  A k-uniform cover is the weighting
    (multiplicity of A)/k, and the minimum is reached at an irreducible
    cover, so by Bondareva-Shapley the slack is negative, zero or positive
    exactly when some uniform-cover inequality on ground fails, none fails
    but one is tight, or all hold strictly.  The LP's duals u* meet u*(A) <=
    values[A] and u*(ground) = values[ground] + slack; the core point u,
    with u(A) <= values[A] and u(ground) = values[ground], water-fills them
    from the top: u_i = min(u*_i, L) for the one L that makes the sum exact,
    the largest (values[ground] - sum of u* past its k largest) / k over k.
    A one-element ground has no proper subset: slack None, u_i =
    values[ground], and no LP.
    """
    elems = elements(ground)
    if len(elems) == 1:
        return None, {elems[0]: values[ground]}
    caps = sorted(subsets_of(ground), key=lambda a: (a.bit_count(), a))[:-1]  # the ground sorts last
    res = simplex.solve_equality_lp([[a >> (e - 1) & 1 for a in caps] for e in elems], [1] * len(elems),
                                    [values[a] for a in caps])
    slack = res.objective - values[ground]
    if slack < 0:
        return None
    ordered = sorted(res.duals, reverse=True)
    level = max((values[ground] - sum(ordered[k:])) / k for k in range(1, len(ordered) + 1))
    return slack, {e: min(u, level) for e, u in zip(elems, res.duals)}
