"""Riemannian geometry of Z_2^k-symmetric reductive homogeneous spaces.

A generic graded-Lie-algebra engine plus the flag manifold
SO(5)/SO(2)xSO(2)xSO(1) as the built-in instance: adapted metrics,
orthonormal frames, the invariant connection, curvature, Ricci tensor and
the solution families of the first Ledger condition.
"""

from .algebra import (
    DEFAULT_TOL,
    GradedLieAlgebra,
    GradingLabel,
    ValidationReport,
    algebra_from_dict,
    algebra_to_dict,
)
from .analysis import (
    LedgerSolution,
    ReductivityReport,
    S_INTERVAL_U0,
    S_INTERVAL_UNONZERO,
    VerificationReport,
    first_ledger_verdict,
    infinitesimal_isometries,
    is_naturally_reductive,
    ledger_system_residuals,
    solve_ledger_u0,
    solve_ledger_unonzero,
    verify_solution,
)
from .geometry import (
    bracket_table,
    curvature,
    ledger,
    ledger_table,
    m_bracket,
    nabla,
    nomizu_table,
    ricci,
    u_map,
    u_table,
)
from .metric import (
    AdaptedForm,
    DegenerateMetricError,
    FRAME_NAMES,
    InvalidParamsError,
    InvarianceReport,
    MetricParams,
    OrthonormalFrame,
    build_form,
    check_adh_invariance,
    orthonormal_frame,
)
from .so5 import M_INDICES, M_NAMES, SO5_NAMES, build_so5, matrix_of, vector_of

__version__ = "0.1.0"

__all__ = [
    "AdaptedForm",
    "DEFAULT_TOL",
    "DegenerateMetricError",
    "FRAME_NAMES",
    "GradedLieAlgebra",
    "GradingLabel",
    "InvalidParamsError",
    "InvarianceReport",
    "LedgerSolution",
    "M_INDICES",
    "M_NAMES",
    "MetricParams",
    "OrthonormalFrame",
    "ReductivityReport",
    "S_INTERVAL_U0",
    "S_INTERVAL_UNONZERO",
    "SO5_NAMES",
    "ValidationReport",
    "VerificationReport",
    "algebra_from_dict",
    "algebra_to_dict",
    "bracket_table",
    "build_form",
    "build_so5",
    "check_adh_invariance",
    "curvature",
    "first_ledger_verdict",
    "infinitesimal_isometries",
    "is_naturally_reductive",
    "ledger",
    "ledger_system_residuals",
    "ledger_table",
    "m_bracket",
    "matrix_of",
    "nabla",
    "nomizu_table",
    "orthonormal_frame",
    "ricci",
    "solve_ledger_u0",
    "solve_ledger_unonzero",
    "u_map",
    "u_table",
    "vector_of",
    "verify_solution",
]
