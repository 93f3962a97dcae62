"""Command-line front end.

Commands: inspect | tables | ricci | isometries | check-nr | ledger |
solve | sweep.  Metric parameters come from --t/--u/--v/--w flags, from a
JSON or TOML file via --params (flags override file values), and the
default tolerance can be overridden by the ZKSYM_TOL environment variable.

Exit codes: 0 success, 1 invalid input or parameters, 2 numerical or
validation failure.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

from .algebra import DEFAULT_TOL, GradedLieAlgebra, algebra_from_dict, algebra_to_dict
from .analysis import (
    S_INTERVAL_U0,
    S_INTERVAL_UNONZERO,
    infinitesimal_isometries,
    is_naturally_reductive,
    ledger_system_residuals,
    solve_ledger_u0,
    solve_ledger_unonzero,
    verify_solution,
)
from .geometry import bracket_table, ledger_table, ricci, u_table
from .metric import (
    DegenerateMetricError,
    FRAME_NAMES,
    InvalidParamsError,
    MetricParams,
    build_form,
)
from .so5 import build_so5

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NUMERICAL = 2

# pretty names for the Z_2^2 labels of the built-in instance
_LABEL_NAMES = {"00": "e", "10": "a", "01": "b", "11": "c"}


class _UsageError(Exception):
    pass


# negative numbers, exponent notation included; argparse's own pattern
# reads "-5.8e-05" as an option and refuses it as a value
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        raise _UsageError(message)


# ----------------------------------------------------------------------
# input plumbing
# ----------------------------------------------------------------------

def _load_params_file(path: str) -> dict:
    p = Path(path)
    try:
        raw = p.read_bytes()
    except OSError as exc:
        raise InvalidParamsError(f"cannot read parameter file {path}: {exc}") from exc
    try:
        if p.suffix.lower() == ".toml":
            try:
                import tomllib
            except ImportError:
                import tomli as tomllib
            data = tomllib.loads(raw.decode("utf-8"))
        else:
            data = json.loads(raw.decode("utf-8"))
    except Exception as exc:
        raise InvalidParamsError(f"malformed parameter file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidParamsError(f"parameter file {path} must hold a table of t, u, v, w")
    return data


def _resolve_params(args) -> MetricParams:
    values: dict[str, float] = {}
    if getattr(args, "params", None):
        data = _load_params_file(args.params)
        for key in ("t", "u", "v", "w"):
            if key in data:
                try:
                    values[key] = float(data[key])
                except (TypeError, ValueError) as exc:
                    raise InvalidParamsError(f"parameter {key} in file is not a real number") from exc
    for key in ("t", "u", "v", "w"):
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    missing = [k for k in ("t", "u", "v", "w") if k not in values]
    if missing:
        raise InvalidParamsError(f"missing metric parameter(s): {', '.join(missing)}")
    return MetricParams(values["t"], values["u"], values["v"], values["w"])


def _resolve_tol(args) -> float:
    tol = args.tol
    if tol is None:
        env = os.environ.get("ZKSYM_TOL")
        if env is not None:
            try:
                tol = float(env)
            except ValueError as exc:
                raise InvalidParamsError(f"ZKSYM_TOL is not a real number: {env!r}") from exc
        else:
            tol = DEFAULT_TOL
    if not tol > 0:
        raise InvalidParamsError(f"tolerance must be positive, got {tol:g}")
    return tol


# ----------------------------------------------------------------------
# output plumbing
# ----------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload))


def _params_dict(p: MetricParams) -> dict:
    return {"t": p.t, "u": p.u, "v": p.v, "w": p.w}


def _combo(vec, names, threshold: float) -> str:
    terms = [f"{c:+.6g} {n}" for c, n in zip(vec, names) if abs(c) > threshold]
    return " ".join(terms) if terms else "0"


def _print_grid(table: np.ndarray, names, threshold: float) -> None:
    cells = [[_combo(table[i, j], names, threshold) for j in range(8)] for i in range(8)]
    widths = [max(len(names[j]), max(len(cells[i][j]) for i in range(8))) for j in range(8)]
    label_w = max(len(n) for n in names)
    header = " " * label_w + " | " + " | ".join(n.ljust(widths[j]) for j, n in enumerate(names))
    print(header)
    print("-" * len(header))
    for i in range(8):
        row = " | ".join(cells[i][j].ljust(widths[j]) for j in range(8))
        print(f"{names[i].ljust(label_w)} | {row}")


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def _block_summary(alg: GradedLieAlgebra) -> dict[str, int]:
    blocks = {}
    for label in alg.labels:
        name = _LABEL_NAMES.get(str(label), str(label)) if alg.k == 2 else str(label)
        blocks[name] = len(alg.label_indices(label))
    return blocks


def cmd_inspect(args) -> int:
    tol = _resolve_tol(args)
    if args.algebra:
        try:
            data = json.loads(Path(args.algebra).read_text())
        except OSError as exc:
            raise InvalidParamsError(f"cannot read algebra file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InvalidParamsError(f"malformed algebra file: {exc}") from exc
        try:
            alg = algebra_from_dict(data)
        except ValueError as exc:
            raise InvalidParamsError(str(exc)) from exc
        report = alg.validate(tol)
    else:
        alg = build_so5()
        report = alg.validate(0.0)
    blocks = _block_summary(alg)
    if args.format == "json":
        payload = {
            "dim": alg.dim,
            "blocks": blocks,
            "valid": report.ok,
            "violations": {
                "antisymmetry": [list(t) for t in report.antisymmetry],
                "jacobi": [list(t) for t in report.jacobi],
                "grading": [list(t) for t in report.grading],
            },
            "algebra": algebra_to_dict(alg),
        }
        _emit_json(payload)
    else:
        print(f"dimension: {alg.dim}")
        print("grading blocks: " + " ".join(f"{k}={v}" for k, v in blocks.items()))
        print(f"validation: {report.summary()}")
    return EXIT_OK if report.ok else EXIT_NUMERICAL


def cmd_tables(args) -> int:
    p = _resolve_params(args)
    tol = _resolve_tol(args)
    bt = bracket_table(p)
    ut = u_table(p)
    if args.format == "json":
        _emit_json(
            {
                "frame": list(FRAME_NAMES),
                "params": _params_dict(p),
                "tol": tol,
                "bracket": bt.tolist(),
                "u": ut.tolist(),
            }
        )
    else:
        print("projected brackets [Ei, Ej]_m in the orthonormal frame:")
        _print_grid(bt, FRAME_NAMES, tol)
        print()
        print("symmetric map U(Ei, Ej) in the orthonormal frame:")
        _print_grid(ut, FRAME_NAMES, tol)
    return EXIT_OK


def cmd_ricci(args) -> int:
    p = _resolve_params(args)
    tol = _resolve_tol(args)
    rho = ricci(build_form(p))
    if args.format == "json":
        _emit_json(
            {
                "frame": list(FRAME_NAMES),
                "params": _params_dict(p),
                "tol": tol,
                "matrix": rho.tolist(),
            }
        )
    else:
        print("Ricci matrix in the orthonormal frame:")
        width = max(len(_fmt(x)) for x in rho.ravel())
        for i in range(8):
            print("  ".join(_fmt(rho[i, j]).rjust(width) for j in range(8)))
    return EXIT_OK


def cmd_isometries(args) -> int:
    p = _resolve_params(args)
    tol = _resolve_tol(args)
    basis = infinitesimal_isometries(p, tol)
    if args.format == "json":
        _emit_json(
            {
                "frame": list(FRAME_NAMES),
                "params": _params_dict(p),
                "tol": tol,
                "dimension": basis.shape[1],
                "basis": basis.T.tolist(),
            }
        )
    else:
        print(f"dimension: {basis.shape[1]}")
        for col in range(basis.shape[1]):
            print(f"  {_combo(basis[:, col], FRAME_NAMES, tol)}")
    return EXIT_OK


def cmd_check_nr(args) -> int:
    p = _resolve_params(args)
    tol = _resolve_tol(args)
    report = is_naturally_reductive(p, tol)
    if args.format == "json":
        _emit_json(
            {
                "params": _params_dict(p),
                "tol": tol,
                "naturally_reductive": report.naturally_reductive,
                "max_u_coefficient": report.max_coefficient,
                "witness": list(report.witness) if report.witness else None,
            }
        )
    else:
        print("true" if report.naturally_reductive else "false")
        if not report.naturally_reductive:
            x, y, z = report.witness
            print(f"witness: |<U({x}, {y}), {z}>| = {_fmt(report.max_coefficient)}")
    return EXIT_OK


def cmd_ledger(args) -> int:
    p = _resolve_params(args)
    tol = _resolve_tol(args)
    lgr = ledger_table(p)
    star = ledger_system_residuals(p)
    max_l = float(np.max(np.abs(lgr)))
    if args.format == "json":
        _emit_json(
            {
                "params": _params_dict(p),
                "tol": tol,
                "max_ledger_residual": max_l,
                "star_residuals": star.tolist(),
                "satisfied": bool(max_l <= tol),
            }
        )
    else:
        print(f"max |L| over frame triples: {_fmt(max_l)}")
        print("reduced-system residuals: " + " ".join(_fmt(x) for x in star))
        print("first Ledger condition satisfied" if max_l <= tol else "first Ledger condition violated")
    return EXIT_OK


def _solve_branch(branch: str, s: float):
    if branch == "u0":
        return solve_ledger_u0(s)
    return solve_ledger_unonzero(s)


def _emit_solution(sol, args) -> None:
    if args.format == "json":
        _emit_json(sol.to_dict())
    else:
        r = sol.residuals
        print(
            f"branch={sol.branch} S={_fmt(sol.S)} V={_fmt(sol.V)} W={_fmt(sol.W)} "
            f"u={_fmt(sol.params.u)} v={_fmt(sol.params.v)} w={_fmt(sol.params.w)} "
            f"ledger={r['ledger']:.3g} star={r['star']:.3g} "
            f"NR={'true' if sol.naturally_reductive else 'false'}"
        )


def cmd_solve(args) -> int:
    tol = _resolve_tol(args)
    if args.S is None:
        raise InvalidParamsError("solve needs --S")
    solutions = _solve_branch(args.branch, args.S)
    failed = 0
    for sol in solutions:
        _emit_solution(sol, args)
        report = verify_solution(sol, tol)
        if not report.passed:
            failed += 1
            print(f"verification failed: {report.summary()}", file=sys.stderr)
    return EXIT_OK if failed == 0 else EXIT_NUMERICAL


def cmd_sweep(args) -> int:
    tol = _resolve_tol(args)
    lo, hi = S_INTERVAL_U0 if args.branch == "u0" else S_INTERVAL_UNONZERO
    if not (lo < args.S_min <= args.S_max < hi):
        raise InvalidParamsError(
            f"sweep range must satisfy {lo:g} < S-min <= S-max < {hi:g}"
        )
    if args.S_steps < 1:
        raise InvalidParamsError("S-steps must be at least 1")
    grid = np.linspace(args.S_min, args.S_max, args.S_steps)
    failed = 0
    for s in grid:
        for sol in _solve_branch(args.branch, float(s)):
            _emit_json(sol.to_dict())
            if not verify_solution(sol, tol).passed:
                failed += 1
    return EXIT_OK if failed == 0 else EXIT_NUMERICAL


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def _add_common(sub, params: bool = True):
    sub.add_argument("--tol", type=float, default=None, help="tolerance (default: ZKSYM_TOL or 1e-9)")
    sub.add_argument("--format", choices=("text", "json"), default="text")
    if params:
        sub.add_argument("--t", type=float, default=None)
        sub.add_argument("--u", type=float, default=None)
        sub.add_argument("--v", type=float, default=None)
        sub.add_argument("--w", type=float, default=None)
        sub.add_argument("--params", default=None, help="JSON or TOML file with keys t, u, v, w")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="zksym", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("inspect", help="report the built-in graded so(5) or a serialized algebra")
    _add_common(sp, params=False)
    sp.add_argument("--algebra", default=None, help="JSON file holding a serialized algebra")
    sp.set_defaults(func=cmd_inspect)

    sp = subs.add_parser("tables", help="bracket and U tables in the orthonormal frame")
    _add_common(sp)
    sp.set_defaults(func=cmd_tables)

    sp = subs.add_parser("ricci", help="Ricci matrix in the orthonormal frame")
    _add_common(sp)
    sp.set_defaults(func=cmd_ricci)

    sp = subs.add_parser("isometries", help="basis of infinitesimal isometries contained in m")
    _add_common(sp)
    sp.set_defaults(func=cmd_isometries)

    sp = subs.add_parser("check-nr", help="test natural reductivity")
    _add_common(sp)
    sp.set_defaults(func=cmd_check_nr)

    sp = subs.add_parser("ledger", help="residuals of the first Ledger condition")
    _add_common(sp)
    sp.set_defaults(func=cmd_ledger)

    sp = subs.add_parser("solve", help="solution families of the first Ledger condition at one S")
    _add_common(sp, params=False)
    sp.add_argument("--branch", choices=("u0", "u1"), required=True)
    sp.add_argument("--S", type=float, default=None)
    sp.set_defaults(func=cmd_solve)

    sp = subs.add_parser("sweep", help="stream solution records over an S grid (one JSON per line)")
    _add_common(sp, params=False)
    sp.add_argument("--branch", choices=("u0", "u1"), required=True)
    sp.add_argument("--S-min", dest="S_min", type=float, required=True)
    sp.add_argument("--S-max", dest="S_max", type=float, required=True)
    sp.add_argument("--S-steps", dest="S_steps", type=int, default=50)
    sp.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        return args.func(args)
    except InvalidParamsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except DegenerateMetricError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
