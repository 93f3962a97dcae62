"""The CLI contract, pinned by a snapshot of about 60 seeded command lines.

For each argv the snapshot holds what a caller may rely on: the exit
code, the one stderr line, the keys of each JSON record and the verdict
fields (``valid``, ``naturally_reductive``, ``satisfied``, ``dimension``,
the text verdict lines).  Numbers other than verdicts are left to the
value tests.  ``DIFFS`` lists the argv whose recorded contract changed on
purpose since the snapshot was taken, with the new contract.

Regenerate the snapshot with ``PYTHONPATH=src python tests/test_cli_contract.py``.
"""

import json
import random
import sys
from pathlib import Path

import pytest

from zksym.cli import main

SNAPSHOT = Path(__file__).with_name("cli_contract.json")

_VERDICT_KEYS = ("valid", "naturally_reductive", "satisfied", "dimension", "witness")


def _point(t, u, v, w):
    return ("--t", repr(t), "--u", repr(u), "--v", repr(v), "--w", repr(w))


def _argv() -> list[tuple[str, ...]]:
    rng = random.Random(11)
    generic = _point(1.3, 0.9, 0.8, 1.6)
    points = [
        generic,
        _point(1.0, 0.0, 1.0, 1.0),  # the round point
        _point(1.0, 0.7, 1.3, 1.3),  # the v = w family
        _point(1.0, 0.0, 0.001, 1.0),  # near the S = 1 end of the u = 0 family
        _point(1e154, 1e308, 1e154, 1e154),  # u^2 overflows, K^2 does not
        _point(-1e-150, 0.3e-300, 2e-150, -0.5e-150),
        _point(1.0, 2.0 * (1.0 - 0.5e-6), 1.3, 0.8),  # K/|t| = 1e-3
        _point(1.0, 2.0 * (1.0 - 0.5e-14), 1.3, 0.8),  # K/|t| = 1e-7
        _point(1.0, 0.0, 1.0, 1.000000001),  # 1e-9 from the round point
    ]
    for _ in range(2):
        t = rng.uniform(0.5, 2.0)
        points.append(_point(t, rng.uniform(-1.8, 1.8) * t * t, rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0)))
    argv = [("inspect",), ("inspect", "--format", "json")]
    for command in ("tables", "ricci", "isometries"):
        argv += [(command, *generic), (command, *generic, "--format", "json")]
    for p in points:
        argv += [("check-nr", *p, "--format", "json"), ("ledger", *p, "--format", "json")]
    argv += [("check-nr", *points[1]), ("ledger", *points[0]), ("ledger", *points[3])]
    for command in ("tables", "ricci", "isometries"):
        argv += [(command, *points[4], "--format", "json"), (command, *points[7], "--format", "json")]
    argv += [
        ("solve", "--branch", "u0", "--S", "5"),
        ("solve", "--branch", "u0", "--S", "5", "--format", "json"),
        ("solve", "--branch", "u1", "--S", "1", "--format", "json"),
        ("solve", "--branch", "u0", "--S", "1.0000000001", "--format", "json"),
        ("solve", "--branch", "u1", "--S", "1.4384471871911", "--format", "json"),
        ("sweep", "--branch", "u1", "--S-min", "0.34", "--S-max", "1.43", "--S-steps", "3"),
        ("sweep", "--branch", "u1", "--S-min", "0.34", "--S-max", "1.43", "--S-steps", "3", "--format", "text"),
        # bad inputs: exit 1
        ("ricci", "--t", "1", "--u", "0", "--v", "1"),
        ("ricci", *_point(1.0, 4.0, 1.0, 1.0)),
        ("ricci", *_point(0.0, 0.0, 1.0, 1.0)),
        ("ricci", *_point(1.0, 0.0, 1.0, 1.0), "--tol", "-1"),
        ("check-nr", *_point(1.0, 0.1, 1.0, 1.0), "--tol", "inf"),
        ("ricci", "--nope", "1"),
        ("solve", "--branch", "u0"),
        ("solve", "--branch", "u1", "--S", "2"),
        ("sweep", "--branch", "u0", "--S-min", "5", "--S-max", "4"),
        # an S that %g prints as it prints the bound 1/3: S and the bounds are quoted by repr
        ("solve", "--branch", "u1", "--S", "0.3333333333333333"),
        ("sweep", "--branch", "u1", "--S-min", "0.3333333333333333", "--S-max", "1"),
        # a step count beyond the floats, whose step division overflowed with a traceback
        ("sweep", "--branch", "u0", "--S-min", "2", "--S-max", "3", "--S-steps", "9" * 401),
        ("sweep", "--branch", "u0", "--S-min", "2", "--S-max", "3", "--S-steps", "9" * 401, "--format", "json"),
        ("inspect", "--algebra", "/nonexistent/algebra.json"),
        # numerical failures: exit 2
        ("ricci", *_point(1.0, 2.0 * (1.0 - 1e-17), 1.0, 1.0)),
        ("ricci", *_point(1.0, 0.0, 1e200, 1.0)),
        ("ricci", *_point(1e-160, 0.0, 1.0, 1.0)),
        ("ricci", *_point(1.0, 0.0, 1e150, 1.0)),
        ("check-nr", *_point(1e150, 0.0, 1e-150, 1.0)),
        ("ledger", *_point(1.0, 0.0, 1e100, 1.0)),
        ("ledger", *_point(1.0, 0.0, 1e100, 1.0), "--format", "json"),
        ("ledger", *_point(1.0, 0.0, 1e-120, 1.0)),
        # extreme ratios that still compute
        ("ricci", *_point(1.0, 0.0, 1e100, 1.0), "--format", "json"),
        ("check-nr", *_point(1.0, 0.0, 1e100, 1.0), "--format", "json"),
        ("ricci", *_point(1.0, 0.0, 1e-150, 1.0), "--format", "json"),
        ("ledger", *_point(1.0, 0.0, 1e60, 1.0), "--format", "json"),
    ]
    return argv


def _contract(argv, capsys) -> dict:
    code = main(list(argv))
    out, err = capsys.readouterr()
    record = {"exit": code, "stderr": err.strip()}
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json" if argv[0] == "sweep" else "text"
    if fmt == "json":
        docs = [json.loads(line) for line in out.splitlines()]
        record["keys"] = [list(doc) for doc in docs]
        record["verdicts"] = [{k: doc[k] for k in _VERDICT_KEYS if k in doc} for doc in docs]
    elif argv[0] == "check-nr":
        record["verdicts"] = out.splitlines()[:1]
    elif argv[0] in ("ledger", "inspect"):
        record["verdicts"] = [line for line in out.splitlines() if "condition" in line or "validation" in line]
    elif argv[0] in ("solve", "sweep"):
        record["verdicts"] = [line.rsplit(" ", 1)[-1] for line in out.splitlines()]
    return record


_STAR_OVERFLOW = "numerical failure: reduced Ledger system residuals are not finite: [inf, nan, nan, inf]"

# argv whose contract changed on purpose since the snapshot, with the new contract
DIFFS: dict[tuple[str, ...], dict] = {
    # check-nr at (1, 0, 1, 1.000000001) reads its snapshot contract again, false with its witness: x lies
    # eps_1234 = 1.0000000822e-9 from equal, above tol by 8.2e-8 of tol, far outside rounding; ledger there
    # judges the backward error eta = 1.0000000767e-9 of D_alpha, above tol as well (|D|/bound read 3.0e-11)
    ("ledger", *_point(1.0, 0.0, 1.0, 1.000000001), "--format", "json"):
        {"exit": 0, "stderr": "", "keys": [["params", "tol", "max_ledger_residual", "star_residuals", "satisfied"]],
         "verdicts": [{"satisfied": False}]},
    # the determinants and their terms are scale-free, so no max|nabla| max|rho| (1e360 here) is needed
    ("ledger", *_point(1.0, 0.0, 1e-120, 1.0)):
        {"exit": 0, "stderr": "", "verdicts": ["first Ledger condition satisfied"]},
    # the reduced residuals are read off D_alpha, which overflows here (about x3^2 / 2 = 5e399), where the
    # Ricci-entry sums met inf - inf
    ("ledger", *_point(1.0, 0.0, 1e100, 1.0)): {"exit": 2, "stderr": _STAR_OVERFLOW, "verdicts": []},
    ("ledger", *_point(1.0, 0.0, 1e100, 1.0), "--format", "json"):
        {"exit": 2, "stderr": _STAR_OVERFLOW, "keys": [], "verdicts": []},
    # the form is positive-definite exactly for |u| < 2t^2, where the snapshot named (-4t^2, 4t^2)
    ("ricci", *_point(1.0, 4.0, 1.0, 1.0)):
        {"exit": 1, "stderr": "error: u must lie in the open interval (-2t^2, 2t^2) = (-2, 2), got 4"},
    # each square is quoted at its own binary scale, so one beyond the floats reads as its value, not inf
    ("ricci", *_point(1.0, 0.0, 1e200, 1.0)):
        {"exit": 2, "stderr": "numerical failure: t^2, v^2, w^2 = 1, 1e+400, 1 leave the range of normal floats "
                              "[2.23e-308, 1.8e+308]"},
}


def _expected() -> dict:
    return {tuple(json.loads(key)): value for key, value in json.loads(SNAPSHOT.read_text()).items()}


@pytest.mark.parametrize("argv", _argv(), ids=" ".join)
def test_cli_contract_is_unchanged(argv, capsys):
    expected = DIFFS.get(argv, _expected()[argv])
    assert _contract(argv, capsys) == expected


def test_snapshot_covers_every_argv():
    expected = _expected()
    assert set(expected) == set(_argv())
    assert set(DIFFS) <= set(_argv())
    assert [argv for argv, contract in DIFFS.items() if contract == expected[argv]] == []  # no stale entry


class _Capture:
    """The readouterr of pytest's capsys, for regenerating outside pytest."""

    def readouterr(self):
        out, err = sys.stdout.getvalue(), sys.stderr.getvalue()
        sys.stdout.seek(0), sys.stdout.truncate(), sys.stderr.seek(0), sys.stderr.truncate()
        return out, err


if __name__ == "__main__":
    import io

    real = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    try:
        snapshot = {json.dumps(list(argv)): _contract(argv, _Capture()) for argv in _argv()}
    finally:
        sys.stdout, sys.stderr = real
    SNAPSHOT.write_text(json.dumps(snapshot, indent=1) + "\n")
    print(f"wrote {len(snapshot)} contracts to {SNAPSHOT}")
