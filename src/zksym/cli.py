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

import collections
import functools
import json
import math
import os
import re
import sys
import types
from pathlib import Path

from .analysis import _BRANCHES, _orbits, _quoting, _report, first_ledger_verdict, is_naturally_reductive
from .geometry import _SUPPORT, _cached_geometry
from .metric import DEFAULT_TOL, FRAME_NAMES, DegenerateMetricError, InvalidParamsError, MetricParams

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NUMERICAL = 2

# LedgerSolution.to_dict() as json.dumps writes it, from its branch, the reprs of 11 finite floats and NR
_SOLUTION = ('{"branch": "%s", "S": %s, "V": %s, "W": %s, "Usq": %s, "params": {"t": %s, "u": %s, "v": %s, "w": %s}, '
             '"residuals": {"ledger": %s, "star": %s, "gram": %s}, "naturally_reductive": %s}')
_TEXT = "branch=%s S=%.6g V=%.6g W=%.6g u=%.6g v=%.6g w=%.6g ledger=%.3g star=%.3g NR=%s"  # the same in --format text


class _UsageError(Exception):
    pass


# negative numbers, exponent notation included; argparse's own pattern
# reads "-5.8e-05" as an option and refuses it as a value
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


# --- input plumbing ---

def _read(path: str, files: dict, what: str) -> bytes:
    try:
        return files[path] if path in files else Path(path).read_bytes()  # the bytes _key read, else read now
    except OSError as exc:
        raise InvalidParamsError(f"cannot read {what}: {exc}") from exc


def _load_params_file(path: str, files: dict) -> dict:
    raw = _read(path, files, f"parameter file {path}")
    try:
        if Path(path).suffix.lower() == ".toml":
            import tomllib  # loaded only for TOML parameter files
            data = tomllib.loads(raw.decode("utf-8"))
        else:
            data = json.loads(raw.decode("utf-8"))
    except Exception as exc:
        raise InvalidParamsError(f"malformed parameter file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidParamsError(f"parameter file {path} must hold a table of t, u, v, w")
    return data


def _resolve_params(args, files: dict) -> MetricParams:
    values: dict[str, float] = {}
    if args.params:
        data = _load_params_file(args.params, files)
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
    values.update((key, getattr(args, key)) for key in ("t", "u", "v", "w") if getattr(args, key) is not None)
    missing = [k for k in ("t", "u", "v", "w") if k not in values]
    if missing:
        raise InvalidParamsError(f"missing metric parameter(s): {', '.join(missing)}")
    return MetricParams(values["t"], values["u"], values["v"], values["w"])


def _resolve_tol(args, env: str | None, relative: bool = True) -> float:
    tol = args.tol
    if tol is None:
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
    if relative and tol >= 1.0:  # every relative verdict would pass
        raise InvalidParamsError(f"tolerance must be below 1, got {tol:g}")
    return tol


# --- output plumbing ---

def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _json_text(value) -> str:
    try:
        return json.dumps(value, allow_nan=False)
    except ValueError as exc:  # NaN and Infinity have no JSON form
        raise DegenerateMetricError("a non-finite number has no JSON form") from exc


def _lists(table) -> list:  # a table's (8, 8, 8) lists: its support values on their slots, 0.0 elsewhere
    flat = [0.0] * 512
    for index, x in zip(_SUPPORT, table):
        flat[index] = x
    return [[flat[j:j + 8] for j in range(i, i + 64, 8)] for i in range(0, 512, 64)]


def _term(c: float, name: str) -> str:
    return f"{c:+.6g} {name}"


def _grid(table, names, threshold: float) -> str:
    terms = {}
    for index, x in zip(_SUPPORT, table):  # the support values, in row-major order
        if abs(x) > threshold:
            terms.setdefault(index // 8, []).append(_term(x, names[index % 8]))
    cells = [[" ".join(terms.get(8 * i + j, ["0"])) for j in range(8)] for i in range(8)]
    widths = [max(map(len, column)) for column in zip(names, *cells)]
    label_w = max(map(len, names))
    header = " " * label_w + " | " + " | ".join(map(str.ljust, names, widths))
    return "\n".join([header, "-" * len(header), *(f"{name.ljust(label_w)} | {' | '.join(map(str.ljust, row, widths))}"
                                                    for name, row in zip(names, cells))])


# --- commands ---

def cmd_inspect(args, env_tol: str | None, files: dict) -> tuple[str, str | None, None]:
    """The report of the built-in so(5), validated exactly, or of the --algebra file at tol; a malformed file raises."""
    tol = _resolve_tol(args, env_tol, relative=False)  # absolute: Jacobi, antisymmetry and grading residuals
    document = _read(args.algebra, files, "algebra file") if args.algebra else None
    from .algebra import algebra_from_dict, algebra_to_dict  # loaded only here, with numpy
    from .so5 import LABELS, build_so5
    if document is None:
        alg, tol = build_so5(), 0.0
    else:
        try:  # UTF-8 whatever the locale, newlines as Path.read_text reads them: the same error positions
            data = json.loads(document.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
        except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep to decode
            raise InvalidParamsError(f"malformed algebra file: {exc}") from exc
        try:
            alg = algebra_from_dict(data)
        except ValueError as exc:
            raise InvalidParamsError(str(exc)) from exc
    report = alg.validate(tol)
    # so(5)'s block names for any Z_2^2 grading; a Counter keeps the order of first appearance
    names = {str(label): name for name, label in LABELS.items()} if alg.k == 2 else {}
    blocks = {names.get(label, label): n for label, n in collections.Counter(map(str, alg.grading)).items()}
    if args.format == "json":
        violations = {k: [list(t) for t in getattr(report, k)] for k in ("antisymmetry", "jacobi", "grading")}
        reply = _json_text({"dim": alg.dim, "blocks": blocks, "valid": report.ok, "violations": violations,
                            "algebra": algebra_to_dict(alg)})
    else:
        reply = (f"dimension: {alg.dim}\ngrading blocks: {' '.join(f'{k}={v}' for k, v in blocks.items())}\n"
                 f"validation: {report.summary()}")
    return reply, None if report.ok else f"algebra {report.summary()}", None


# The point commands below take admissible parameters and the tolerance and return their reply: with as_json
# the JSON fields that follow the shared head (see _point) as a dict, otherwise their text.

def cmd_tables(p: MetricParams, tol: float, as_json: bool) -> str | dict:
    bt, ut = (geo.table(name, x) for geo in [_cached_geometry(p)] for x in [geo.ratios] for name in ("c", "u"))
    if as_json:
        return {"bracket": _lists(bt), "u": _lists(ut)}
    # entries at or below tol * max|bracket table| show as absent; check-nr judges x, not these entries
    threshold = tol * max(max(bt), -min(bt))
    return (f"projected brackets [Ei, Ej]_m in the orthonormal frame:\n{_grid(bt, FRAME_NAMES, threshold)}\n\n"
            f"symmetric map U(Ei, Ej) in the orthonormal frame:\n{_grid(ut, FRAME_NAMES, threshold)}")


def cmd_ricci(p: MetricParams, tol: float, as_json: bool) -> str | dict:
    rho = _cached_geometry(p).ricci
    if as_json:
        return {"matrix": rho}
    cells = [[_fmt(x) for x in row] for row in rho]
    width = max(len(cell) for row in cells for cell in row)
    return "\n".join(["Ricci matrix in the orthonormal frame:", *("  ".join(cell.rjust(width) for cell in row)
                                                                 for row in cells)])


def cmd_isometries(p: MetricParams, tol: float, as_json: bool) -> str | dict:
    basis = _cached_geometry(p).isometries(tol)
    if as_json:
        return {"dimension": len(basis), "basis": basis}
    return "\n".join([f"dimension: {len(basis)}", *("  " + " ".join(_term(c, n) for c, n in zip(vec, FRAME_NAMES) if c)
                                                    for vec in basis)])


def cmd_check_nr(p: MetricParams, tol: float, as_json: bool) -> str | dict:
    report = is_naturally_reductive(p, tol)
    if as_json:
        return {"naturally_reductive": report.naturally_reductive, "max_u_coefficient": report.max_coefficient,
                "witness": list(report.witness) if report.witness else None}
    if report.naturally_reductive:
        return "true"
    x, y, z = report.witness
    return f"false\nwitness: |<U({x}, {y}), {z}>| = {_fmt(report.max_coefficient)}"


def cmd_ledger(p: MetricParams, tol: float, as_json: bool) -> str | dict:
    star = _cached_geometry(p).reduced_system
    max_l, satisfied = first_ledger_verdict(p, tol)
    if as_json:
        return {"max_ledger_residual": max_l, "star_residuals": star, "satisfied": satisfied}
    return (f"max |L| over frame triples: {_fmt(max_l)}\nreduced-system residuals: {' '.join(map(_fmt, star))}\n"
            f"first Ledger condition {'satisfied' if satisfied else 'violated'}")


def _point(command, frame: bool, args, env_tol: str | None, files: dict) -> tuple[str, None, MetricParams]:
    """A point command's reply: parameters, then tolerance, then its text or one JSON dict, frame and head first."""
    p = _resolve_params(args, files)
    tol = _resolve_tol(args, env_tol)
    kept = _cached_geometry(p).params  # the cache's own key, which a kept reply's lookup meets by identity
    if args.format != "json":
        return command(p, tol, False), None, kept
    head = {"frame": FRAME_NAMES} if frame else {}
    return _json_text({**head, "params": {"t": p.t, "u": p.u, "v": p.v, "w": p.w}, "tol": tol,
                       **command(p, tol, True)}), None, kept


def _solutions(args, grid, tol: float) -> None:
    """Write the solutions of args.branch at each S of the grid in args.format, one Weyl orbit and one write per S,
    then raise if one fails verification by its orbit's eta_alpha, summarized by the report of the first worst failed
    orbit's own evaluation.  Two % formats write the (V, W) and (W, V) rows, a sign their -u twins on u1."""
    failed, count, worst, write = 0, 0, (None, -1.0, None), sys.stdout.write
    as_json, sign = args.format == "json", ('"u": ', '"u": -') if args.format == "json" else (" u=", " u=-")
    for name, s, rows, p, (r, eta, nr) in _orbits(args.branch, grid):
        count += len(rows)
        if not eta <= tol:  # the count and the first worst failed orbit, not every failed one
            failed, worst = failed + len(rows), ((r, eta, nr) if eta > worst[1] else worst)
        (vv, ww, u), nr = rows[0], "true" if nr else "false"
        v, w = (p.v, p.w) if vv <= ww else (p.w, p.v)  # sqrt V and sqrt W: the orbit's point has v <= w
        if as_json:
            numbers = (s, vv, ww, u * u, p.t, u, v, w, r["ledger"], r["star"], r["gram"])
            if not all(map(math.isfinite, numbers)):
                raise DegenerateMetricError("a non-finite number has no JSON form")
            s, vv, ww, usq, t, u, v, w, ledger, star, gram = map(repr, numbers)
            a = _SOLUTION % (name, s, vv, ww, usq, t, u, v, w, ledger, star, gram, nr)
            b = _SOLUTION % (name, s, ww, vv, usq, t, u, w, v, ledger, star, gram, nr)
        else:
            a = _TEXT % (name, s, vv, ww, u, v, w, r["ledger"], r["star"], nr)
            b = _TEXT % (name, s, ww, vv, u, w, v, r["ledger"], r["star"], nr)
        write(f"{a}\n{b}\n" if len(rows) == 2 else f"{a}\n{a.replace(*sign, 1)}\n{b}\n{b.replace(*sign, 1)}\n")
    if failed:
        raise DegenerateMetricError(f"{failed} of {count} solutions fail verification, worst: "
                                    f"{_report(*worst, tol).summary()}")


def cmd_solve(args, env_tol: str | None, files: dict) -> None:
    tol = _resolve_tol(args, env_tol)
    if args.S is None:
        raise InvalidParamsError("solve needs --S")
    _solutions(args, [args.S], tol)


def cmd_sweep(args, env_tol: str | None, files: dict) -> None:
    tol = _resolve_tol(args, env_tol)
    lo, hi = _BRANCHES[args.branch][1]
    if not (lo < args.S_min <= args.S_max < hi):
        q = _quoting([args.S_min, args.S_max], (lo, hi))
        raise InvalidParamsError(f"sweep range must satisfy {q(lo)} < S-min <= S-max < {q(hi)}")
    if args.S_steps < 1:
        raise InvalidParamsError("S-steps must be at least 1")
    if args.S_steps > sys.float_info.max:  # its step would overflow; no sweep that long could finish
        raise InvalidParamsError(f"S-steps must be at most {sys.float_info.max:.3g}")
    first, last, n = args.S_min, args.S_max, args.S_steps
    step = (last - first) / max(n - 1, 1)  # np.linspace's floats, S-max last, one at a time: memory stays flat in n
    _solutions(args, (last if i == n - 1 > 0 else first + i * step for i in range(n)), tol)


# --- parser ---

# One option of a command: flag, dest, type (str keeps the string), choices, default, required, help.
_TOL = ("--tol", "tol", float, None, None, False, "tolerance (default: ZKSYM_TOL or 1e-9)")
_FORMAT = ("--format", "format", str, ("text", "json"), "text", False, None)
_BRANCH = ("--branch", "branch", str, tuple(_BRANCHES), None, True, None)
_POINT_OPTIONS = (_TOL, _FORMAT, *((f"--{key}", key, float, None, None, False, None) for key in "tuvw"),
                  ("--params", "params", str, None, None, False, "JSON or TOML file with keys t, u, v, w"))

# name: (help, handler, options), in the order of the help text.  A handler takes the namespace, ZKSYM_TOL and the
# files _key read; a query's returns its reply: stdout, the failure line after it or None, its MetricParams or None.
_COMMANDS = {
    "inspect": ("report the built-in graded so(5) or a serialized algebra", cmd_inspect,
                (_TOL, _FORMAT, ("--algebra", "algebra", str, None, None, False,
                                 "JSON file holding a serialized algebra"))),
    "tables": ("bracket and U tables in the orthonormal frame", functools.partial(_point, cmd_tables, True),
               _POINT_OPTIONS),
    "ricci": ("Ricci matrix in the orthonormal frame", functools.partial(_point, cmd_ricci, True), _POINT_OPTIONS),
    "isometries": ("basis of infinitesimal isometries contained in m", functools.partial(_point, cmd_isometries, True),
                   _POINT_OPTIONS),
    "check-nr": ("test natural reductivity", functools.partial(_point, cmd_check_nr, False), _POINT_OPTIONS),
    "ledger": ("residuals of the first Ledger condition", functools.partial(_point, cmd_ledger, False),
               _POINT_OPTIONS),
    "solve": ("solution families of the first Ledger condition at one S", cmd_solve,
              (_TOL, _FORMAT, _BRANCH, ("--S", "S", float, None, None, False, None))),
    "sweep": ("stream solution records over an S grid (one per line)", cmd_sweep,
              (_TOL, ("--format", "format", str, ("text", "json"), "json", False, None), _BRANCH,
               ("--S-min", "S_min", float, None, None, True, None), ("--S-max", "S_max", float, None, None, True, None),
               ("--S-steps", "S_steps", int, None, 50, False, None))),
}
_FLAGS = {name: {option[0]: option for option in options} for name, (_, _, options) in _COMMANDS.items()}
# per command: its namespace before any flag is read, and the dests its command line must give
_START = {name: ({"command": name, **{option[1]: option[4] for option in options}, "func": handler},
                 {option[1] for option in options if option[5]}) for name, (_, handler, options) in _COMMANDS.items()}


def _read_argv(argv: list[str]) -> types.SimpleNamespace | None:
    """build_parser()'s namespace for a command and exact --flag value pairs: its _START namespace updated by them.

    None for any other argv (help, abbreviated flags, --flag=value, --, a value that does not
    convert or is not a choice, a missing required flag): argparse then decides, as the reference.
    """
    if len(argv) % 2 != 1 or argv[0] not in _FLAGS:
        return None
    flags, values = _FLAGS[argv[0]], {}
    for i in range(1, len(argv), 2):
        option, value = flags.get(argv[i]), argv[i + 1]
        # argparse reads a value that starts with "-" as a flag unless it is a negative number
        if option is None or value[:1] == "-" and not _NEGATIVE_NUMBER.match(value):
            return None
        _, dest, kind, choices, _, _, _ = option
        try:
            value = kind(value)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value  # a repeated flag keeps its last value
    namespace, required = _START[argv[0]]
    return types.SimpleNamespace(**(namespace | values)) if required <= values.keys() else None


def _key(argv) -> tuple | None:
    """The reply memo's key of a query the option table reads: argv, ZKSYM_TOL and each --params or --algebra file's
    (path, bytes), read once.  None for solve, sweep, argparse's argv and an unreadable file, which go unmemoized."""
    if len(argv) % 2 == 0 or argv[0] not in _FLAGS or argv[0] in ("solve", "sweep"):
        return None
    flags, files = _FLAGS[argv[0]], []
    for flag, value in zip(argv[1::2], argv[2::2]):
        if flag not in flags or value[:1] == "-" and not _NEGATIVE_NUMBER.match(value):
            return None
        if flag in ("--params", "--algebra"):
            try:
                files.append((value, Path(value).read_bytes()))
            except OSError:
                return None
    return tuple(argv), os.environ.get("ZKSYM_TOL"), tuple(files)


@functools.lru_cache(maxsize=2816)  # 256 points x 10 replies + 256 inspect replies; a fresh process gains nothing
def _reply(argv, env_tol: str | None, files: tuple):
    """A query's reply by its _key, kept unless the render raises: the handler resolves the tol from env_tol."""
    args = _read_argv(argv) or _parser().parse_args(argv)
    return args.func(args, env_tol, dict(files))


def _usage_error(message: str):
    raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    import argparse  # loaded only for help and usage errors

    parser = argparse.ArgumentParser(prog="zksym", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, options) in _COMMANDS.items():
        sp = subs.add_parser(name, help=help_text)
        for flag, dest, kind, choices, default, required, option_help in options:
            sp.add_argument(flag, dest=dest, type=kind, choices=choices, default=default, required=required,
                            help=option_help)
        sp.set_defaults(func=handler)
    # set on each instance: a subclass would be a new class on every call, which slows the build by a fifth
    for p in (parser, *subs.choices.values()):
        p.error, p._negative_number_matcher = _usage_error, _NEGATIVE_NUMBER
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on the first argv the table reader declines; parse_args leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        # ZKSYM_TOL is read once a call: by _key, else here for what is never kept
        reply = _reply(*key) if (key := _key(argv)) else _reply.__wrapped__(argv, os.environ.get("ZKSYM_TOL"), ())
        if reply:  # a query's; solve and sweep print as they go
            text, failure, p = reply
            if p is not None:  # looked up on every query, hit or not: bench/run.py --trace 1 reports its hit ratio
                _cached_geometry(p)
            print(text)
            if failure:
                raise DegenerateMetricError(failure)
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
