import ast
import inspect

import pytest

import zksym
from zksym import algebra, analysis, geometry, metric, so5

# the public interface of the package, each name declared once, in its module's __all__
_EXPORTED = {
    "AdaptedForm", "DEFAULT_TOL", "DegenerateMetricError", "FRAME_NAMES", "GradedLieAlgebra", "GradingLabel",
    "InvalidParamsError", "InvarianceReport", "LedgerSolution", "M_INDICES", "M_NAMES", "MetricParams",
    "OrthonormalFrame", "ReductivityReport", "S_INTERVAL_U0", "S_INTERVAL_UNONZERO", "SO5_NAMES",
    "ValidationReport", "VerificationReport", "algebra_from_dict", "algebra_to_dict", "bracket_table",
    "build_form", "build_so5", "check_adh_invariance", "curvature", "first_ledger_verdict",
    "infinitesimal_isometries", "is_naturally_reductive", "ledger", "ledger_system_residuals", "ledger_table",
    "m_bracket", "matrix_of", "nabla", "nomizu_table", "orthonormal_frame", "ricci", "solve_ledger_u0",
    "solve_ledger_unonzero", "u_map", "u_table", "vector_of", "verify_solution",
}
_MODULES = (algebra, analysis, geometry, metric, so5)


@pytest.mark.parametrize("module", _MODULES, ids=lambda m: m.__name__)
def test_each_module_exports_only_names_it_defines(module):
    defined = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(target.id for target in node.targets if isinstance(target, ast.Name))
    assert len(set(module.__all__)) == len(module.__all__)
    assert set(module.__all__) <= defined - {"__all__"}


def test_the_package_exports_the_union_of_the_module_lists():
    assert len(zksym.__all__) == len(_EXPORTED) == 44
    assert set(zksym.__all__) == _EXPORTED
    assert set(zksym.__all__) == set().union(*(m.__all__ for m in _MODULES))
    for name in zksym.__all__:
        assert getattr(zksym, name) is getattr(next(m for m in _MODULES if name in m.__all__), name)
    # public, but reached through their modules only
    for module, name in ((so5, "basis_matrix"), (so5, "validate_so5"), (so5, "LABELS"), (metric, "K_GUARD_EPS"),
                         (analysis, "S_MAX_UNONZERO")):
        assert hasattr(module, name) and name not in zksym.__all__
