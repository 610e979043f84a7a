"""Exact curvature and Ricci-soliton certification for a one-loop deformed
family of solvable Lie groups.

The package builds the solvable Lie algebras b |x heis_{2n+1} with their
two-parameter family of left-invariant metrics, computes their curvature by
two independent exact routes plus a floating-point ambient cross-check, and
certifies or refutes the algebraic Ricci soliton property with zero
tolerance on the exact path.
"""

from .family import (
    FamilyParams,
    build_delta,
    build_embedding,
    build_gram,
    build_lie_algebra,
    expected_closed_forms,
    expected_ric_matrix,
    family_splitting,
    metric_algebra,
)
from .hypersurface import (
    coordinate_gram,
    hypersurface_ricci_general,
    shape_operator,
    trace_identity_check,
)
from .lie_core import Splitting, StructureConstants
from .linalg import Matrix, Polynomial, char_poly, nullspace, real_rooted, solve_exact
from .metric_lie import (
    MetricLieAlgebra,
    SolitonVerdict,
    ricci_endomorphism_koszul,
    soliton_check_direct,
    soliton_check_lauret,
)
from .scalars import Fraction, Jet2, Surd, rational, surd

__all__ = [
    "FamilyParams",
    "Fraction",
    "Jet2",
    "Matrix",
    "MetricLieAlgebra",
    "Polynomial",
    "SolitonVerdict",
    "Splitting",
    "StructureConstants",
    "Surd",
    "build_delta",
    "build_embedding",
    "build_gram",
    "build_lie_algebra",
    "char_poly",
    "coordinate_gram",
    "expected_closed_forms",
    "expected_ric_matrix",
    "family_splitting",
    "hypersurface_ricci_general",
    "metric_algebra",
    "nullspace",
    "rational",
    "real_rooted",
    "ricci_endomorphism_koszul",
    "shape_operator",
    "soliton_check_direct",
    "soliton_check_lauret",
    "solve_exact",
    "surd",
    "trace_identity_check",
]

__version__ = "0.1.0"
