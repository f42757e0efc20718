"""Exact computation with the uniform-cover cone of log projection volumes.

Enumerate irreducible uniform covers, test cone membership exactly, decide
implication of candidate inequalities with Farkas certificates or separating
witnesses, compute exact projection volumes of box-union bodies, and realize
interior cone vectors as actual bodies by scaling.
"""

from .boxgeom import (
    Box,
    BoxUnionBody,
    ProjectionProfile,
    disjoint_offset,
    log_projection_vector,
    projection_volume,
    read_body,
    write_body,
)
from .cone import (
    ConeSystem,
    MembershipReport,
    build_bt_system,
    membership,
)
from .core import (
    FormatError,
    ProjectionVector,
    canonical_subset_order,
    format_subset,
    parse_subset,
    read_vector,
    write_vector,
)
from .covers import (
    ResourceLimitError,
    UniformCover,
    decompose,
    enumerate_covers,
    irreducible_covers,
)
from .farkas import (
    FarkasCertificate,
    LinearInequality,
    SeparatingWitness,
    ViolationReport,
    check_implication,
    read_inequality,
    violating_body,
    write_inequality,
)
from .realize import (
    BoxSystem,
    BoxSystemInfeasible,
    InconclusiveError,
    NotInConeError,
    RealizationResult,
    find_lambda,
    realize_vector,
    solve_box_system,
)
from .witness import (
    SetFamily,
    ShearerReport,
    WitnessReport,
    analyze_witness,
    read_family,
    shearer_check,
    theorem9_vector,
    write_family,
)

__version__ = "0.1.0"
