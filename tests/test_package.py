import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zksym
from zksym.cli import main
from zksym import algebra, analysis, geometry, metric, so5

# the public interface of the package, each name declared once, in the package table zksym._NAMES, which each
# module's __all__ reads
_EXPORTED = {
    "AdaptedForm", "DEFAULT_TOL", "DegenerateMetricError", "FRAME_NAMES", "GradedLieAlgebra", "GradingLabel",
    "InvalidParamsError", "InvarianceReport", "LedgerSolution", "MetricParams",
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
    assert len(zksym.__all__) == len(_EXPORTED) == 42
    assert set(zksym.__all__) == _EXPORTED
    assert set(zksym.__all__) == set().union(*(m.__all__ for m in _MODULES))
    for name in zksym.__all__:
        assert getattr(zksym, name) is getattr(next(m for m in _MODULES if name in m.__all__), name)
    # public, but reached through their modules only
    for module, name in ((so5, "basis_matrix"), (so5, "LABELS"), (metric, "K_GUARD_EPS"), (analysis, "S_MAX_UNONZERO")):
        assert hasattr(module, name) and name not in zksym.__all__


def test_the_package_table_names_each_module_with_its_own_list():
    for module in _MODULES:
        short = module.__name__.rsplit(".", 1)[1]
        assert {name for name, owner in zksym._MODULE_OF.items() if owner == short} == set(module.__all__)


@pytest.mark.parametrize("module", _MODULES, ids=lambda m: m.__name__)
def test_each_module_reads_its_list_from_the_package_table(module):
    short = module.__name__.rsplit(".", 1)[1]
    assert module.__all__ == zksym._NAMES[short].split()
    namespace = {}
    exec(f"from zksym.{short} import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(zksym._NAMES[short].split())


def test_dir_and_star_import_give_the_exported_names():
    public = {name for name in dir(zksym) if not name.startswith("_")}
    assert _EXPORTED <= public and public - _EXPORTED <= {"algebra", "analysis", "cli", "geometry", "metric", "so5"}
    namespace = {}
    exec("from zksym import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(zksym.__all__) == _EXPORTED


# ----------------------------------------------------------------------
# numpy only where an array is formed: what a fresh process imports
# ----------------------------------------------------------------------

def _fresh(statement: str, module: str = "numpy") -> tuple[str, bool]:
    """Run a statement in a fresh interpreter on this checkout; its stdout and whether it imported the module."""
    src = str(Path(zksym.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"import sys\n{statement}\nprint({module!r} in sys.modules, file=sys.stderr)\n"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, {"False": False, "True": True}[proc.stderr.splitlines()[-1]]


def _main(*argv: str) -> str:
    return f"from zksym.cli import main\nassert main({list(argv)!r}) == 0"


_POINT = ("--t", "1", "--u", "0.3", "--v", "1.2", "--w", "0.8")
_VERDICT_PATH = {
    "import zksym": "import zksym",
    "zksym.MetricParams": "import zksym\nassert zksym.MetricParams(1, 0, 1, 1).K == 1",
    "solve": _main("solve", "--branch", "u0", "--S", "5"),
    "solve json": _main("solve", "--branch", "u0", "--S", "5", "--format", "json"),
    "sweep": _main("sweep", "--branch", "u1", "--S-min", "0.34", "--S-max", "1.43", "--S-steps", "50"),
    "ledger": _main("ledger", *_POINT),
    "ledger json": _main("ledger", *_POINT, "--format", "json"),
    "tables json": _main("tables", *_POINT, "--format", "json"),
    "ricci json": _main("ricci", *_POINT, "--format", "json"),
    "check-nr json": _main("check-nr", *_POINT, "--format", "json"),
    "isometries": _main("isometries", *_POINT),
    "unknown name": "import zksym\nassert not hasattr(zksym, 'no_such_name')",
}


@pytest.mark.parametrize("statement", _VERDICT_PATH.values(), ids=_VERDICT_PATH)
def test_the_verdict_path_imports_no_numpy(statement):
    assert _fresh(statement)[1] is False


@pytest.mark.parametrize("statement", _VERDICT_PATH.values(), ids=_VERDICT_PATH)
def test_a_well_formed_command_line_imports_no_argparse(statement):
    # argparse is loaded only for help and for argv the option table does not read
    assert _fresh(statement, "argparse")[1] is False


def test_a_ledger_verdict_forms_no_gram_defect():
    # only a solution record reports the Gram defect; at t = 1.1, whose square is not a float, forming it would load
    # fractions (and decimal) for a value that ``ledger`` does not print
    statement = _main("ledger", "--t", "1.1", *_POINT[2:])
    assert _fresh(statement, "fractions")[1] is False


@pytest.mark.parametrize("argv", [("tables", *_POINT), ("ricci", *_POINT), ("isometries", *_POINT, "--format", "json"),
                                  ("check-nr", *_POINT), ("inspect",), ("ledger", *_POINT)], ids=" ".join)
def test_a_fresh_process_prints_what_this_one_does(argv, capsys):
    # the point commands print Python floats; only inspect forms arrays, and loads numpy with them
    assert main(list(argv)) == 0
    out, numpy_loaded = _fresh(_main(*argv))
    assert out == capsys.readouterr().out
    assert numpy_loaded is (argv[0] == "inspect")


# ----------------------------------------------------------------------
# each array function as the first call of a process, which binds numpy in geometry
# ----------------------------------------------------------------------

_SETUP = """import zksym
p = zksym.MetricParams(1.0, 0.3, 1.2, 0.8)
x, y, z = [0.3, -1.0, 0.5, 2.0, 0.1, -0.7, 1.1, 0.4], [1.0, 0.2, -0.3, 0.0, 0.9, 0.5, -1.2, 0.6], [0.0] * 7 + [1.0]
"""
_FORMS = {"params": "zksym.build_form(p)", "bare": "zksym.AdaptedForm(gram=zksym.build_form(p).gram)"}
_FIRST_CALLS = {
    **{f"{name} {kind}": f"zksym.{name}({args}{form})" for name, args in (
        ("u_map", "x, y, "), ("nabla", "x, y, "), ("curvature", "x, y, z, "), ("ricci", ""), ("ledger", "x, y, z, "))
       for kind, form in _FORMS.items()},
    **{name: f"zksym.{name}(p)" for name in ("bracket_table", "u_table", "nomizu_table", "ledger_table",
                                             "infinitesimal_isometries", "ledger_system_residuals", "build_form",
                                             "orthonormal_frame")},
    "m_bracket": "zksym.m_bracket(x, y)",
}


@pytest.mark.parametrize("call", _FIRST_CALLS.values(), ids=_FIRST_CALLS)
def test_each_array_function_answers_as_the_first_call_of_a_process(call, capsys):
    statement = (f"{_SETUP}r = {call}\nr = getattr(r, 'gram', getattr(r, 'matrix', r))\n"
                 "print(repr(r.tolist() if hasattr(r, 'tolist') else r))")
    exec(statement, {})
    assert _fresh(statement)[0] == capsys.readouterr().out
