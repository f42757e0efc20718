"""Implication over the cone: nonnegative-combination certificates, separating
witnesses, and violating bodies for candidate linear inequalities.

A candidate  sum alpha_A x_A >= sum beta_B x_B  holds on the whole cone iff
its coefficient vector is a nonnegative combination of the generator
inequalities.  That feasibility question is solved exactly; the Farkas dual
of an infeasible system is a cone vector on which the candidate fails, and
its core points give a box-union body whose exact volumes violate it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import ceil, floor, lcm
from typing import Mapping, NamedTuple, Union

from . import boxgeom, cone, covers, simplex
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
    """Positive weights on generators reconstructing the target, each keyed
    by its cover, in generator order."""

    weights: dict[covers.UniformCover, Fraction]


class SeparatingWitness(NamedTuple):
    """A cone vector on which the candidate evaluates to exactly -1."""

    vector: ProjectionVector


def check_implication(system: cone.ConeSystem, ineq: LinearInequality) -> Union[FarkasCertificate, SeparatingWitness]:
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
    res = simplex.solve_equality_lp(rows, target, [0] * len(generators))

    if res.status == simplex.OPTIMAL:
        weights = {g: w for g, w in zip(generators, res.x) if w != 0}
        recon = [Fraction(0)] * len(order)
        for g, w in weights.items():
            for mask, c in cone.coefficients(g).items():
                recon[index[mask]] += w * c
        if recon != target:
            raise RuntimeError("certificate failed exact reconstruction")
        return FarkasCertificate(weights)

    if res.status != simplex.INFEASIBLE:
        raise RuntimeError(f"implication LP unexpectedly {res.status}")
    y = res.farkas_dual
    gap = sum(yi * ti for yi, ti in zip(y, target))  # = y.target > 0
    entries = {mask: -y[i] / gap for i, mask in enumerate(order)}
    witness = ProjectionVector.from_entries(system.n, entries)
    if not cone.membership(system, witness).inside:
        raise RuntimeError("separating witness failed cone membership")
    return SeparatingWitness(witness)


class ViolationReport(NamedTuple):
    """The body built at scaling lam, with the exact integer-exponent check.

    The candidate holds iff prod |T_A|^(scale*alpha_A) >= prod |T_B|^(scale*beta_B)
    where scale clears all coefficient denominators; violated means strict <.
    """

    lam: int
    body: boxgeom.BoxUnionBody
    exponent_scale: int
    lhs_product: Fraction
    rhs_product: Fraction

    @property
    def violated(self) -> bool:
        return self.lhs_product < self.rhs_product


def violating_body(ineq: LinearInequality, witness: ProjectionVector) -> ViolationReport:
    """Turn a separating witness x into a counterexample body, at one lam fixed up front.

    One box per ground Y: side 2^floor(lam u_i) on each axis i of Y for the
    core point u = cone.core_point(Y, x), a point off Y, placed disjointly.
    So |T_A| sums the side products on A over the 2^(n-|A|) grounds Y
    containing A; as u(S) <= x_S inside Y and u(Y) = x_Y, each term is at
    most 2^(lam x_A) and the one for Y = A exceeds 2^(lam x_A - |A|) (Kalai &
    Zemel 1982).  So c.log2|T| < n ||c||_1 - lam delta with delta = -c.x > 0,
    and lam = ceil(n ||c||_1 / delta) suffices.  Raises ValueError
    unless delta > 0, and RuntimeError naming a ground with no core point,
    where x is outside the cone.  The violation is re-checked on exact
    volumes, so a body returned is a proof.
    """
    delta = -ineq.evaluate(witness)
    if delta <= 0:
        raise ValueError("witness does not violate the inequality")
    lam = ceil(ineq.n * sum(abs(c) for c in ineq.coeffs.values()) / delta)
    sides = []
    for ground in canonical_subset_order(ineq.n):
        found = cone.core_point(ground, witness.entries)
        if found is None:
            raise RuntimeError(f"witness is outside the cone on {{{format_subset(ground)}}}")
        sides.append({i: Fraction(2) ** floor(lam * u) for i, u in found[1].items()})
    body = boxgeom.disjoint_offset(ineq.n, sides)

    scale = lcm(*(c.denominator for c in ineq.coeffs.values()))
    lhs_product = rhs_product = Fraction(1)
    for mask, c in ineq.coeffs.items():
        power = boxgeom.projection_volume(body, mask) ** int(abs(c) * scale)
        if c > 0:
            lhs_product *= power
        else:
            rhs_product *= power
    out = ViolationReport(lam, body, scale, lhs_product, rhs_product)
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


def certificate_to_obj(cert: FarkasCertificate) -> list[dict]:
    """(ground, k, parts, weight) objects in generator order."""
    return [{**covers.cover_to_obj(g), "weight": format_rational(w)} for g, w in cert.weights.items()]
