"""Exact curvature and Ricci-soliton certification for a one-loop deformed
family of solvable Lie groups.

The package builds the solvable Lie algebras b |x heis_{2n+1} with their
two-parameter family of left-invariant metrics, computes their curvature by
two independent exact routes plus a floating-point ambient cross-check, and
certifies or refutes the algebraic Ricci soliton property with zero
tolerance on the exact path.
"""

from .family import FamilyParams, build_lie_algebra, family_splitting, metric_algebra
from .hypersurface import shape_operator
from .lie_core import STRUCTURE_CLAIMS, StructureConstants
from .metric_lie import MetricLieAlgebra, soliton_check_direct, soliton_check_lauret

__all__ = [
    "FamilyParams",
    "MetricLieAlgebra",
    "STRUCTURE_CLAIMS",
    "StructureConstants",
    "build_lie_algebra",
    "family_splitting",
    "metric_algebra",
    "shape_operator",
    "soliton_check_direct",
    "soliton_check_lauret",
]

__version__ = "0.1.0"
