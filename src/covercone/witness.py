"""The boundary witness vector, its obstruction equation, and the discrete
product theorem for set families.

The witness vector lies in the cone and is tight on the 2-uniform cover
inequalities of {1,2,3} and {2,3,4}; any body achieving equality there would
contain product sets forcing x_123 - x_12 = x_234 - x_24, which the witness
breaks (1 vs -1).  That single vector separates the cone from the set of
convex combinations of constructible vectors.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from . import cone, covers
from .core import (
    FormatError,
    ProjectionVector,
    check_dimension,
    load_object,
    parse_subset,
)

_M12, _M13, _M24, _M123, _M234 = 0b0011, 0b0101, 0b1010, 0b0111, 0b1110


class SetFamily(NamedTuple):
    """A duplicate-free collection of subsets of [n]; the empty set may occur.
    A plain record, checked only by from_members, which read_family calls."""

    n: int
    members: tuple[int, ...]

    @classmethod
    def from_members(cls, n: int, members) -> "SetFamily":
        """The distinct members, sorted; ValueError for n out of range or a member not in [n]."""
        check_dimension(n)
        members = tuple(sorted(set(members)))
        for m in members:
            if m >> n:
                raise ValueError(f"member {m} not a subset of [{n}]")
        return cls(n, members)


class WitnessReport(NamedTuple):
    in_cone: bool
    tight: tuple[covers.UniformCover, ...]
    obstruction_lhs: Fraction
    obstruction_rhs: Fraction

    @property
    def obstruction_holds(self) -> bool:
        return self.obstruction_lhs == self.obstruction_rhs


def theorem9_vector(n: int) -> ProjectionVector:
    """x_13 = x_24 = 2, x_123 = x_234 = x_1 = .. = x_4 = 1, all else 0,
    zero-extended into dimension n >= 4."""
    if n < 4:
        raise ValueError("the witness vector needs dimension >= 4")
    one, two = Fraction(1), Fraction(2)
    entries = {
        0b0001: one,
        0b0010: one,
        0b0100: one,
        0b1000: one,
        _M13: two,
        _M24: two,
        _M123: one,
        _M234: one,
    }
    return ProjectionVector.from_entries(n, entries)


def analyze_witness(v: ProjectionVector) -> WitnessReport:
    """Cone membership with tight generators, plus the obstruction equation
    x_123 - x_12 = x_234 - x_24 evaluated exactly, on the complete cone
    cone.build_bt_system(v.n).  Needs n >= 4."""
    if v.n < 4:
        raise ValueError("witness analysis needs dimension >= 4")
    system = cone.build_bt_system(v.n)
    report = cone.membership(system, v)
    return WitnessReport(
        in_cone=report.inside,
        tight=report.tight,
        obstruction_lhs=v[_M123] - v[_M12],
        obstruction_rhs=v[_M234] - v[_M24],
    )


class ShearerReport(NamedTuple):
    lhs_product: int
    rhs_power: int
    trace_sizes: tuple[int, ...]

    @property
    def holds(self) -> bool:
        return self.lhs_product >= self.rhs_power


def shearer_check(family: SetFamily, cover_sets: Sequence[int], k: int) -> ShearerReport:
    """Product theorem for set families: with every element of [n] in at
    least k of the A_i and F_i = {F intersect A_i}, the trace sizes satisfy
    prod |F_i| >= |F|^k.  Integer arithmetic throughout."""
    if k < 1:
        raise ValueError("k must be positive")
    full = (1 << family.n) - 1
    for e in range(family.n):
        bit = 1 << e
        count = sum(1 for a in cover_sets if a & bit)
        if count < k:
            raise ValueError(
                f"element {e + 1} is covered {count} < {k} times; coverage precondition violated"
            )
    for a in cover_sets:
        if a == 0 or a & ~full:
            raise ValueError("cover sets must be nonempty subsets of [n]")
    trace_sizes = tuple(len({f & a for f in family.members}) for a in cover_sets)
    lhs = 1
    for t in trace_sizes:
        lhs *= t
    return ShearerReport(lhs, len(family.members) ** k, trace_sizes)


# ---------------------------------------------------------------------------
# family file format

def read_family(text: str) -> SetFamily:
    data = load_object(text, "family", "n", "members")
    if not isinstance(data["members"], list):
        raise FormatError("'members' must be a list")
    members = [parse_subset(entry, data["n"], allow_empty=True) for entry in data["members"]]
    if len(set(members)) != len(members):
        raise FormatError("duplicate family member")
    return SetFamily.from_members(data["n"], members)

