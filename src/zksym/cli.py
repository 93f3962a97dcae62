"""Command-line front end.

Commands: inspect | tables | ricci | isometries | check-nr | ledger |
solve | sweep.  Metric parameters come from --t/--u/--v/--w flags, from a
JSON or TOML file via --params (flags override file values), and the
default tolerance can be overridden by the ZKSYM_TOL environment variable.

Exit codes: 0 success, 1 invalid input or parameters, 2 numerical or
validation failure.  A failure prints one line to stderr and no
traceback; a malformed parameter or algebra file exits 1.  JSON output
never carries NaN or Infinity: a result without a JSON form exits 2.  When
the reader of stdout closes it early (``zksym sweep ... | head -1``) the
command stops quietly and exits 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from .algebra import DEFAULT_TOL, GradedLieAlgebra, algebra_from_dict, algebra_to_dict
from .analysis import (
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
from .geometry import bracket_table, ricci, u_table
from .metric import (
    DegenerateMetricError,
    FRAME_NAMES,
    InvalidParamsError,
    MetricParams,
    build_form,
)
from .so5 import build_so5, validate_so5

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
    if args.params:
        data = _load_params_file(args.params)
        for key in ("t", "u", "v", "w"):
            if key in data:
                value = data[key]
                try:
                    # JSON and TOML numbers only; Python counts a bool as an int
                    if isinstance(value, bool) or not isinstance(value, (int, float)):
                        raise TypeError(type(value).__name__)
                    values[key] = float(value)  # OverflowError for an int beyond the floats
                except (TypeError, OverflowError) as exc:
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
    if tol == math.inf:  # every check would pass
        raise InvalidParamsError("tolerance must be finite, got inf")
    return tol


# ----------------------------------------------------------------------
# output plumbing
# ----------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _emit_json(payload: dict) -> None:
    try:
        text = json.dumps(payload, allow_nan=False)
    except ValueError as exc:  # NaN and Infinity have no JSON form
        raise DegenerateMetricError("a non-finite number has no JSON form") from exc
    print(text)


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
        except ValueError as exc:  # not JSON, or not UTF-8
            raise InvalidParamsError(f"malformed algebra file: {exc}") from exc
        try:
            alg = algebra_from_dict(data)
        except ValueError as exc:
            raise InvalidParamsError(str(exc)) from exc
        report = alg.validate(tol)
    else:
        alg = build_so5()
        report = validate_so5()
    blocks = _block_summary(alg)
    if args.format == "json":
        _emit_json({
            "dim": alg.dim,
            "blocks": blocks,
            "valid": report.ok,
            "violations": {
                "antisymmetry": [list(t) for t in report.antisymmetry],
                "jacobi": [list(t) for t in report.jacobi],
                "grading": [list(t) for t in report.grading],
            },
            "algebra": algebra_to_dict(alg),
        })
    else:
        print(f"dimension: {alg.dim}")
        print("grading blocks: " + " ".join(f"{k}={v}" for k, v in blocks.items()))
        print(f"validation: {report.summary()}")
    return EXIT_OK if report.ok else EXIT_NUMERICAL


# The point commands below take admissible parameters and the tolerance.
# With as_json they return the JSON fields that follow the shared head
# (see _point); otherwise they print their text.

def cmd_tables(p: MetricParams, tol: float, as_json: bool) -> dict | None:
    bt = bracket_table(p)
    ut = u_table(p)
    if as_json:
        return {"bracket": bt.tolist(), "u": ut.tolist()}
    # entries at or below tol * max|bracket table| show as absent, as check-nr judges U
    threshold = tol * float(np.max(np.abs(bt)))
    print("projected brackets [Ei, Ej]_m in the orthonormal frame:")
    _print_grid(bt, FRAME_NAMES, threshold)
    print()
    print("symmetric map U(Ei, Ej) in the orthonormal frame:")
    _print_grid(ut, FRAME_NAMES, threshold)


def cmd_ricci(p: MetricParams, tol: float, as_json: bool) -> dict | None:
    rho = ricci(build_form(p))
    if as_json:
        return {"matrix": rho.tolist()}
    print("Ricci matrix in the orthonormal frame:")
    width = max(len(_fmt(x)) for x in rho.ravel())
    for i in range(8):
        print("  ".join(_fmt(rho[i, j]).rjust(width) for j in range(8)))


def cmd_isometries(p: MetricParams, tol: float, as_json: bool) -> dict | None:
    basis = infinitesimal_isometries(p, tol)
    if as_json:
        return {"dimension": basis.shape[1], "basis": basis.T.tolist()}
    print(f"dimension: {basis.shape[1]}")
    for col in range(basis.shape[1]):
        print(f"  {_combo(basis[:, col], FRAME_NAMES, tol)}")


def cmd_check_nr(p: MetricParams, tol: float, as_json: bool) -> dict | None:
    report = is_naturally_reductive(p, tol)
    if as_json:
        return {
            "naturally_reductive": report.naturally_reductive,
            "max_u_coefficient": report.max_coefficient,
            "witness": list(report.witness) if report.witness else None,
        }
    print("true" if report.naturally_reductive else "false")
    if not report.naturally_reductive:
        x, y, z = report.witness
        print(f"witness: |<U({x}, {y}), {z}>| = {_fmt(report.max_coefficient)}")


def cmd_ledger(p: MetricParams, tol: float, as_json: bool) -> dict | None:
    star = ledger_system_residuals(p)
    max_l, satisfied = first_ledger_verdict(p, tol)
    if as_json:
        return {"max_ledger_residual": max_l, "star_residuals": star.tolist(), "satisfied": satisfied}
    print(f"max |L| over frame triples: {_fmt(max_l)}")
    print("reduced-system residuals: " + " ".join(_fmt(x) for x in star))
    print("first Ledger condition satisfied" if satisfied else "first Ledger condition violated")


def _point(command, frame: bool):
    """Runner of a point command: parameters, then tolerance, then the command and the JSON head."""

    def run(args) -> int:
        p = _resolve_params(args)
        tol = _resolve_tol(args)
        body = command(p, tol, args.format == "json")
        if body is not None:
            head = {"frame": list(FRAME_NAMES)} if frame else {}
            params = {"t": p.t, "u": p.u, "v": p.v, "w": p.w}
            _emit_json({**head, "params": params, "tol": tol, **body})
        return EXIT_OK

    return run


def _solutions(branch: str, grid, tol: float, as_json: bool) -> list[VerificationReport]:
    """Print every solution of the branch at each S of the grid; return the failed verifications."""
    solve = solve_ledger_u0 if branch == "u0" else solve_ledger_unonzero
    failed = []
    for s in grid:
        for sol in solve(s):
            if as_json:
                _emit_json(sol.to_dict())
            else:
                r = sol.residuals
                print(
                    f"branch={sol.branch} S={_fmt(sol.S)} V={_fmt(sol.V)} W={_fmt(sol.W)} "
                    f"u={_fmt(sol.params.u)} v={_fmt(sol.params.v)} w={_fmt(sol.params.w)} "
                    f"ledger={r['ledger']:.3g} star={r['star']:.3g} "
                    f"NR={'true' if sol.naturally_reductive else 'false'}"
                )
            report = verify_solution(sol, tol)
            if not report.passed:
                failed.append(report)
    return failed


def cmd_solve(args) -> int:
    tol = _resolve_tol(args)
    if args.S is None:
        raise InvalidParamsError("solve needs --S")
    failed = _solutions(args.branch, [args.S], tol, args.format == "json")
    for report in failed:
        print(f"verification failed: {report.summary()}", file=sys.stderr)
    return EXIT_NUMERICAL if failed else EXIT_OK


def cmd_sweep(args) -> int:
    tol = _resolve_tol(args)
    lo, hi = S_INTERVAL_U0 if args.branch == "u0" else S_INTERVAL_UNONZERO
    if not (lo < args.S_min <= args.S_max < hi):
        raise InvalidParamsError(
            f"sweep range must satisfy {lo:g} < S-min <= S-max < {hi:g}"
        )
    if args.S_steps < 1:
        raise InvalidParamsError("S-steps must be at least 1")
    grid = np.linspace(args.S_min, args.S_max, args.S_steps).tolist()
    return EXIT_NUMERICAL if _solutions(args.branch, grid, tol, as_json=True) else EXIT_OK


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

# name: (help, handler, takes --t/--u/--v/--w/--params), in the order of the help text
_COMMANDS = {
    "inspect": ("report the built-in graded so(5) or a serialized algebra", cmd_inspect, False),
    "tables": ("bracket and U tables in the orthonormal frame", _point(cmd_tables, frame=True), True),
    "ricci": ("Ricci matrix in the orthonormal frame", _point(cmd_ricci, frame=True), True),
    "isometries": ("basis of infinitesimal isometries contained in m", _point(cmd_isometries, frame=True), True),
    "check-nr": ("test natural reductivity", _point(cmd_check_nr, frame=False), True),
    "ledger": ("residuals of the first Ledger condition", _point(cmd_ledger, frame=False), True),
    "solve": ("solution families of the first Ledger condition at one S", cmd_solve, False),
    "sweep": ("stream solution records over an S grid (one JSON per line)", cmd_sweep, False),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="zksym", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)
    parsers = {}
    for name, (help_text, handler, takes_params) in _COMMANDS.items():
        sp = parsers[name] = subs.add_parser(name, help=help_text)
        sp.add_argument("--tol", type=float, default=None, help="tolerance (default: ZKSYM_TOL or 1e-9)")
        sp.add_argument("--format", choices=("text", "json"), default="text")
        if takes_params:
            for key in ("t", "u", "v", "w"):
                sp.add_argument(f"--{key}", type=float, default=None)
            sp.add_argument("--params", default=None, help="JSON or TOML file with keys t, u, v, w")
        sp.set_defaults(func=handler)

    parsers["inspect"].add_argument("--algebra", default=None, help="JSON file holding a serialized algebra")
    for name in ("solve", "sweep"):
        parsers[name].add_argument("--branch", choices=("u0", "u1"), required=True)
    parsers["solve"].add_argument("--S", type=float, default=None)
    parsers["sweep"].add_argument("--S-min", dest="S_min", type=float, required=True)
    parsers["sweep"].add_argument("--S-max", dest="S_max", type=float, required=True)
    parsers["sweep"].add_argument("--S-steps", dest="S_steps", type=int, default=50)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on the first call of main; parse_args leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (_UsageError, InvalidParamsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except DegenerateMetricError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: send what is still buffered to devnull,
        # so the flush at interpreter exit stays quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_INVALID
    sys.exit(code)


if __name__ == "__main__":
    run()
