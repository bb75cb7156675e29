"""Exact Brandt matrices, theta series and their eigenform bases for the
definite quaternion algebra ramified at one prime."""

from .analysis import AnalysisResult, analyze
from .brandt import BrandtCollection, structural_checks
from .ideals import (ClassList, enumerate_classes, ideal_inverse,
                     is_equivalent, p_neighbors, right_order, unit_weight)
from .intmat import charpoly, exact_rank
from .lattices import QuatLattice, product_lattice
from .orders import QuatOrder, maximal_order, reduced_discriminant
from .quatalg import (ConsistencyError, ConstructionError, QuaternionAlgebra,
                      construct_algebra, is_prime, legendre)
from .records import (SCHEMA_VERSION, TOOL_VERSION, MigrationError,
                      build_record, load_record, to_json, verify_record,
                      write_record)
from .report import (ThetaReport, build_report, dim_theta_exact,
                     full_span_check, hecke_field_probe, sigma_set,
                     verify_expansion_identities)
from .spectral import (SpectralData, eigendecompose, eisenstein_exact_check,
                       eisenstein_vector, sigma_level, sturm_bound,
                       symmetrize)
from .ssoracle import (SupersingularSet, cross_validate, is_supersingular,
                       supersingular_set)

__version__ = TOOL_VERSION

__all__ = [
    "AnalysisResult", "analyze",
    "BrandtCollection", "structural_checks",
    "ClassList", "enumerate_classes", "ideal_inverse",
    "is_equivalent", "p_neighbors", "right_order", "unit_weight",
    "charpoly", "exact_rank",
    "QuatLattice", "product_lattice",
    "QuatOrder", "maximal_order", "reduced_discriminant",
    "ConsistencyError", "ConstructionError", "QuaternionAlgebra",
    "construct_algebra", "is_prime", "legendre",
    "SCHEMA_VERSION", "TOOL_VERSION", "MigrationError", "build_record",
    "load_record", "to_json", "verify_record", "write_record",
    "ThetaReport", "build_report", "dim_theta_exact",
    "full_span_check", "hecke_field_probe", "sigma_set",
    "verify_expansion_identities",
    "SpectralData", "eigendecompose", "eisenstein_exact_check",
    "eisenstein_vector", "sigma_level", "sturm_bound", "symmetrize",
    "SupersingularSet", "cross_validate", "is_supersingular",
    "supersingular_set",
    "__version__",
]
