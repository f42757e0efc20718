"""Implication over the cone: nonnegative-combination certificates, separating
witnesses, and violating bodies for candidate linear inequalities.

A candidate  sum alpha_A x_A >= sum beta_B x_B  holds on the whole cone iff
its coefficient vector is a nonnegative combination of the generator
inequalities.  That feasibility question is solved exactly; the Farkas dual
of an infeasible system is a cone vector on which the candidate fails, and
the realization machinery then turns it into an actual box-union body whose
exact projection volumes violate the candidate.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
from typing import Mapping, NamedTuple, Union

from .cone import ConeSystem, coefficients, membership
from .core import (
    FormatError,
    ProjectionVector,
    canonical_subset_order,
    check_dimension,
    format_rational,
    format_subset,
    load_object,
    read_subset_map,
)
from .covers import cover_to_obj
from .realize import RealizationResult, double_lambda
from .simplex import INFEASIBLE, OPTIMAL, solve_equality_lp


class LinearInequality(NamedTuple):
    """coeffs . x >= 0, where coeffs is the netted mask -> coefficient map
    (lhs minus rhs, nonzero, in mask order) that `cone.coefficients` gives a
    generator."""

    n: int
    coeffs: dict[int, Fraction]

    @classmethod
    def from_maps(cls, n: int, lhs: Mapping[int, Fraction], rhs: Mapping[int, Fraction]) -> "LinearInequality":
        """lhs >= rhs from two maps of nonnegative coefficients; common mass cancels."""
        check_dimension(n)
        net: dict[int, Fraction] = {}
        for side, sign in ((lhs, 1), (rhs, -1)):
            for mask, coeff in side.items():
                if not 0 < mask < (1 << n):
                    raise ValueError(f"mask {mask} out of range for n={n}")
                coeff = Fraction(coeff)
                if coeff < 0:
                    raise ValueError("coefficients must be nonnegative")
                net[mask] = net.get(mask, Fraction(0)) + sign * coeff
        return cls(n, {m: c for m, c in sorted(net.items()) if c != 0})

    def evaluate(self, v: ProjectionVector) -> Fraction:
        """lhs(v) - rhs(v); negative means v violates the inequality."""
        return sum((c * v[m] for m, c in self.coeffs.items()), Fraction(0))


class FarkasCertificate(NamedTuple):
    """Nonnegative weights on generator indices reconstructing the target."""

    weights: dict[int, Fraction]


class SeparatingWitness(NamedTuple):
    """A cone vector on which the candidate evaluates to exactly -1."""

    vector: ProjectionVector


def check_implication(system: ConeSystem, ineq: LinearInequality) -> Union[FarkasCertificate, SeparatingWitness]:
    """Decide whether the candidate is a nonnegative combination of generators.

    Exact rational feasibility; on failure the phase-1 Farkas dual yields the
    separating witness directly.
    """
    if ineq.n != system.n:
        raise ValueError(f"inequality dimension {ineq.n} != system dimension {system.n}")
    order = canonical_subset_order(system.n)
    index = {mask: i for i, mask in enumerate(order)}
    target = [Fraction(0)] * len(order)
    for mask, c in ineq.coeffs.items():
        target[index[mask]] = c
    # column j is coefficients(generator j): +1 per part, -k on the ground
    generators = system.generators
    rows = [[0] * len(generators) for _ in order]
    for j, g in enumerate(generators):
        for part in g.parts:
            rows[index[part]][j] += 1
        rows[index[g.ground]][j] -= g.k
    res = solve_equality_lp(rows, target, [0] * len(generators))

    if res.status == OPTIMAL:
        weights = {j: w for j, w in enumerate(res.x) if w != 0}
        recon = [Fraction(0)] * len(order)
        for j, w in weights.items():
            for mask, c in coefficients(generators[j]).items():
                recon[index[mask]] += w * c
        if recon != target:
            raise RuntimeError("certificate failed exact reconstruction")
        return FarkasCertificate(weights)

    if res.status != INFEASIBLE:
        raise RuntimeError(f"implication LP unexpectedly {res.status}")
    y = res.farkas_dual
    gap = sum(yi * ti for yi, ti in zip(y, target))  # = y.target > 0
    entries = {mask: -y[i] / gap for i, mask in enumerate(order)}
    witness = ProjectionVector.from_entries(system.n, entries)
    if not membership(system, witness).inside:
        raise RuntimeError("separating witness failed cone membership")
    value = ineq.evaluate(witness)
    if value != -1:
        raise RuntimeError(f"witness normalization failed: gap {value}")
    return SeparatingWitness(witness)


class ViolationReport(NamedTuple):
    """A body (realization.body) refuting the candidate, with the exact
    integer-exponent check.

    The candidate holds iff prod |T_A|^(scale*alpha_A) >= prod |T_B|^(scale*beta_B)
    where scale clears all coefficient denominators; violated means strict <.
    """

    realization: RealizationResult
    shift_eps: Fraction
    exponent_scale: int
    lhs_product: Fraction
    rhs_product: Fraction

    @property
    def violated(self) -> bool:
        return self.lhs_product < self.rhs_product


def violating_body(ineq: LinearInequality, witness: ProjectionVector) -> ViolationReport:
    """Turn a separating witness into an actual counterexample body.

    The witness is shifted by an eps small enough to keep the candidate
    violated and realized by double_lambda; no cone is read.  A nontrivial
    irreducible cover has more parts than its multiplicity (l > k), so any
    cone vector shifted by eps > 0 is strictly inside.  A witness outside
    the cone gets no body at any lambda and ends in InconclusiveError.  The
    violation is re-verified on exact projection volumes, so a body returned
    is a proof.
    """
    value = ineq.evaluate(witness)
    if value >= 0:
        raise ValueError("witness does not violate the inequality")
    # the shift moves the candidate's value by shift_eps * coeff_sum, which
    # leaves at least half of the violation
    coeff_sum = sum(ineq.coeffs.values(), Fraction(0))
    if coeff_sum > 0:
        shift_eps = min(Fraction(1), -value / (2 * coeff_sum))
    else:
        shift_eps = Fraction(1)
    realization = double_lambda(witness.shift(shift_eps))

    scale = lcm(*(c.denominator for c in ineq.coeffs.values()))
    volumes = realization.profile.volumes
    lhs_product = rhs_product = Fraction(1)
    for mask, c in ineq.coeffs.items():
        power = volumes[mask] ** int(abs(c) * scale)
        if c > 0:
            lhs_product *= power
        else:
            rhs_product *= power
    out = ViolationReport(realization, shift_eps, scale, lhs_product, rhs_product)
    if not out.violated:
        raise RuntimeError("constructed body does not violate the inequality")
    return out


# ---------------------------------------------------------------------------
# file formats

def read_inequality(text: str) -> LinearInequality:
    data = load_object(text, "inequality", "n", "lhs?", "rhs?")
    lhs, rhs = (read_subset_map(data.get(name, {}), data["n"], name) for name in ("lhs", "rhs"))
    if any(c < 0 for side in (lhs, rhs) for c in side.values()):
        raise FormatError("coefficients must be nonnegative")
    return LinearInequality.from_maps(data["n"], lhs, rhs)


def write_inequality(ineq: LinearInequality) -> str:
    return json.dumps(
        {
            "n": ineq.n,
            "lhs": {format_subset(m): format_rational(c) for m, c in ineq.coeffs.items() if c > 0},
            "rhs": {format_subset(m): format_rational(-c) for m, c in ineq.coeffs.items() if c < 0},
        },
        indent=2,
    )


def certificate_to_obj(system: ConeSystem, cert: FarkasCertificate) -> list[dict]:
    """(ground, parts, k, weight) tuples in generator order."""
    out = []
    for j in sorted(cert.weights):
        entry = cover_to_obj(system.generators[j])
        entry["weight"] = format_rational(cert.weights[j])
        out.append(entry)
    return out
