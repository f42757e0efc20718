"""Every record type of the package is immutable: assigning a field raises."""

from fractions import Fraction

import pytest

from covercone.boxgeom import BoxUnionBody
from covercone.cone import build_bt_system, membership
from covercone.core import ProjectionVector
from covercone.covers import UniformCover
from covercone.farkas import FarkasCertificate, LinearInequality, SeparatingWitness, ViolationReport
from covercone.realize import Refusal, find_lambda
from covercone.simplex import solve_equality_lp
from covercone.witness import SetFamily, analyze_witness, shearer_check, theorem9_vector


def _realization():
    return find_lambda(ProjectionVector.from_entries(2, {1: 1, 2: 1, 3: 1}))


BODY = BoxUnionBody(1, (((Fraction(0), Fraction(1)),),))

RECORDS = {
    "ProjectionVector": (lambda: ProjectionVector.from_entries(2, {}), "entries"),
    "UniformCover": (lambda: UniformCover.from_parts(0b11, [0b01, 0b10]), "parts"),
    "ConeSystem": (lambda: build_bt_system(2), "generators"),
    "MembershipReport": (lambda: membership(build_bt_system(2), ProjectionVector.from_entries(2, {})), "inside"),
    "LinearInequality": (lambda: LinearInequality.from_maps(2, {1: 1, 2: 1}, {3: 1}), "coeffs"),
    "FarkasCertificate": (lambda: FarkasCertificate({UniformCover.from_parts(0b11, [0b01, 0b10]): Fraction(1)}),
                          "weights"),
    "SeparatingWitness": (lambda: SeparatingWitness(ProjectionVector.from_entries(2, {})), "vector"),
    "ViolationReport": (lambda: ViolationReport(1, BODY, 1, Fraction(1), Fraction(2)), "lhs_product"),
    "BoxUnionBody": (lambda: BODY, "boxes"),
    "BoxSystem": (lambda: _realization().steps[0], "sides"),
    "RealizationResult": (_realization, "lam"),
    "Refusal": (lambda: find_lambda(ProjectionVector.from_entries(2, {})), "reason"),
    "LPResult": (lambda: solve_equality_lp([[Fraction(1)]], [Fraction(1)], [Fraction(0)]), "status"),
    "SetFamily": (lambda: SetFamily.from_members(1, [0, 1]), "members"),
    "WitnessReport": (lambda: analyze_witness(theorem9_vector(4)), "in_cone"),
    "ShearerReport": (lambda: shearer_check(SetFamily.from_members(1, [0, 1]), [1], 1), "rhs_power"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_assigning_a_field_raises(name):
    make, field = RECORDS[name]
    record = make()
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, field, None)
