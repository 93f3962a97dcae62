"""Riemannian geometry of Z_2^k-symmetric reductive homogeneous spaces.

A generic graded-Lie-algebra engine plus the flag manifold
SO(5)/SO(2)xSO(2)xSO(1) as the built-in instance: adapted metrics,
orthonormal frames, the invariant connection, curvature, Ricci tensor and
the solution families of the first Ledger condition.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# each public name by its module, which loads on the name's first access (PEP 562): ``import zksym`` loads none
_NAMES = {
    "algebra": "GradedLieAlgebra GradingLabel ValidationReport algebra_from_dict algebra_to_dict",
    "analysis": "LedgerSolution ReductivityReport S_INTERVAL_U0 S_INTERVAL_UNONZERO VerificationReport "
                "first_ledger_verdict infinitesimal_isometries is_naturally_reductive ledger_system_residuals "
                "solve_ledger_u0 solve_ledger_unonzero verify_solution",
    "geometry": "bracket_table curvature ledger ledger_table m_bracket nabla nomizu_table ricci u_map u_table",
    "metric": "AdaptedForm DEFAULT_TOL DegenerateMetricError FRAME_NAMES InvalidParamsError InvarianceReport "
              "MetricParams OrthonormalFrame build_form check_adh_invariance orthonormal_frame",
    "so5": "SO5_NAMES build_so5 matrix_of vector_of",
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names.split()}
__all__ = list(_MODULE_OF)


def _exports(module: str) -> list[str]:
    """A module's ``__all__``, from its ``__name__``: the names the table lists for it, in order."""
    return _NAMES[module.rpartition(".")[2]].split()


def __getattr__(name):
    if name in _NAMES:  # a module, by its own name
        return _import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted({*globals(), *_NAMES, *__all__})
