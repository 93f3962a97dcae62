"""Command-line front end.

Commands: inspect | tables | ricci | isometries | check-nr | ledger |
solve | sweep.  Metric parameters come from --t/--u/--v/--w flags, from a
JSON or TOML file via --params (flags override file values), and the
default tolerance can be overridden by the ZKSYM_TOL environment variable.

Exit codes: 0 success, 1 invalid input or parameters, 2 numerical or
validation failure.  A failure prints one line to stderr and no
traceback; inspect, solve and sweep print their output first (the
validation report, every solution record) and then that line.  A
malformed parameter or algebra file exits 1.  JSON output
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
            import tomllib  # loaded only for TOML parameter files
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


def _term(c: float, name: str) -> str:
    return f"{c:+.6g} {name}"


def _print_grid(table: np.ndarray, names, threshold: float) -> None:
    terms, above = {}, np.abs(table) > threshold
    for (i, j, k), c in zip(np.argwhere(above).tolist(), table[above].tolist()):  # both in row-major order
        terms.setdefault((i, j), []).append(_term(c, names[k]))
    cells = [[" ".join(terms.get((i, j), ["0"])) for j in range(8)] for i in range(8)]
    widths = [max(map(len, column)) for column in zip(names, *cells)]
    label_w = max(map(len, names))
    header = " " * label_w + " | " + " | ".join(map(str.ljust, names, widths))
    print(header)
    print("-" * len(header))
    for name, row in zip(names, cells):
        print(f"{name.ljust(label_w)} | {' | '.join(map(str.ljust, row, widths))}")


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def _block_summary(alg: GradedLieAlgebra) -> dict[str, int]:
    names = _LABEL_NAMES if alg.k == 2 else {}
    return {names.get(str(label), str(label)): len(alg.label_indices(label)) for label in alg.labels}


def cmd_inspect(args) -> None:
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
            "violations": {k: [list(t) for t in getattr(report, k)] for k in ("antisymmetry", "jacobi", "grading")},
            "algebra": algebra_to_dict(alg),
        })
    else:
        print(f"dimension: {alg.dim}")
        print("grading blocks: " + " ".join(f"{k}={v}" for k, v in blocks.items()))
        print(f"validation: {report.summary()}")
    if not report.ok:
        raise DegenerateMetricError(f"algebra {report.summary()}")


# The point commands below take admissible parameters and the tolerance.
# With as_json they return the JSON fields that follow the shared head
# (see _point); otherwise they print their text.

def cmd_tables(p: MetricParams, tol: float, as_json: bool) -> dict | None:
    bt, ut = bracket_table(p), u_table(p)
    if as_json:
        return {"bracket": bt.tolist(), "u": ut.tolist()}
    # entries at or below tol * max|bracket table| show as absent; check-nr judges U as a whole, ||U|| <= tol ||C||
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
    cells = [[_fmt(x) for x in row] for row in rho.tolist()]
    width = max(len(cell) for row in cells for cell in row)
    for row in cells:
        print("  ".join(cell.rjust(width) for cell in row))


def cmd_isometries(p: MetricParams, tol: float, as_json: bool) -> dict | None:
    basis = infinitesimal_isometries(p, tol)
    if as_json:
        return {"dimension": basis.shape[1], "basis": basis.T.tolist()}
    print(f"dimension: {basis.shape[1]}")
    for vec in basis.T.tolist():
        print("  " + (" ".join(_term(c, n) for c, n in zip(vec, FRAME_NAMES) if abs(c) > tol) or "0"))


def cmd_check_nr(p: MetricParams, tol: float, as_json: bool) -> dict | None:
    report = is_naturally_reductive(p, tol)
    if as_json:
        return {"naturally_reductive": report.naturally_reductive, "max_u_coefficient": report.max_coefficient,
                "witness": list(report.witness) if report.witness else None}
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

    def run(args) -> None:
        p = _resolve_params(args)
        tol = _resolve_tol(args)
        body = command(p, tol, args.format == "json")
        if body is not None:
            head = {"frame": list(FRAME_NAMES)} if frame else {}
            params = {"t": p.t, "u": p.u, "v": p.v, "w": p.w}
            _emit_json({**head, "params": params, "tol": tol, **body})

    return run


def _solutions(branch: str, grid, tol: float, as_json: bool) -> None:
    """Print every solution of the branch at each S of the grid; after the last, raise if any fails verification."""
    solve = solve_ledger_u0 if branch == "u0" else solve_ledger_unonzero
    failed, count = [], 0
    for start in range(0, len(grid), 32):  # 32 S to a solve, so the solutions held do not grow with the grid
        for sol in solve(*grid[start:start + 32]):
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
            count += 1
            report = verify_solution(sol, tol)
            if not report.passed:
                failed.append(report)
    if failed:
        worst = max(failed, key=lambda r: max(r.relative_residuals.values()))
        raise DegenerateMetricError(f"{len(failed)} of {count} solutions fail verification, worst: {worst.summary()}")


def cmd_solve(args) -> None:
    tol = _resolve_tol(args)
    if args.S is None:
        raise InvalidParamsError("solve needs --S")
    _solutions(args.branch, [args.S], tol, args.format == "json")


def cmd_sweep(args) -> None:
    tol = _resolve_tol(args)
    lo, hi = S_INTERVAL_U0 if args.branch == "u0" else S_INTERVAL_UNONZERO
    if not (lo < args.S_min <= args.S_max < hi):
        raise InvalidParamsError(
            f"sweep range must satisfy {lo:g} < S-min <= S-max < {hi:g}"
        )
    if args.S_steps < 1:
        raise InvalidParamsError("S-steps must be at least 1")
    grid = np.linspace(args.S_min, args.S_max, args.S_steps).tolist()
    _solutions(args.branch, grid, tol, as_json=True)


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
        args.func(args)
    except (_UsageError, InvalidParamsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except DegenerateMetricError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


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
