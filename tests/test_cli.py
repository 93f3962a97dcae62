import dataclasses
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import zksym
from zksym import GradedLieAlgebra, algebra_to_dict, analysis, build_so5, cli, geometry, metric, so5
from zksym.cli import main

from oracles import sample_params


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# inspect
# ----------------------------------------------------------------------

def test_inspect_text(capsys):
    code, out, _ = run_cli(capsys, "inspect")
    assert code == 0
    assert "dimension: 10" in out
    assert "e=2 a=4 b=2 c=2" in out
    assert "validation: valid" in out


def test_inspect_json_carries_structure_constants(capsys):
    code, out, _ = run_cli(capsys, "inspect", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 10
    assert doc["valid"] is True
    assert doc["blocks"] == {"e": 2, "a": 4, "b": 2, "c": 2}
    assert len(doc["algebra"]["structure"]) > 0
    rows = {tuple(r[:3]): r[3] for r in doc["algebra"]["structure"]}
    assert all(v in (1.0, -1.0) for v in rows.values())


def test_inspect_corrupted_algebra_exits_2(tmp_path, capsys):
    doc = algebra_to_dict(build_so5())
    doc["structure"][0][3] += 0.25  # break an otherwise valid document
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "inspect", "--algebra", str(path))
    assert code == 2
    assert "invalid" in out
    # the report prints first, then one stderr line
    assert err == "numerical failure: algebra invalid: 1 antisymmetry violation(s), 5 Jacobi violation(s)\n"
    code, out, err = run_cli(capsys, "inspect", "--algebra", str(path), "--format", "json")
    assert code == 2
    assert json.loads(out)["valid"] is False
    assert len(err.splitlines()) == 1 and err.startswith("numerical failure: algebra invalid")


def test_inspect_unparseable_algebra_exits_1(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "inspect", "--algebra", str(path))
    assert code == 1
    assert "error" in err


def test_inspect_non_utf8_algebra_exits_1(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run_cli(capsys, "inspect", "--algebra", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: malformed algebra file") and len(err.splitlines()) == 1


def _algebra_doc(case):
    doc = algebra_to_dict(build_so5())
    if case == "null value":
        doc["structure"][0][3] = None
    elif case == "null structure":
        doc["structure"] = None
    elif case == "bare number row":
        doc["structure"][0] = 5
    elif case == "NaN value":
        doc["structure"].append([0, 1, 0, float("nan")])
    elif case == "string bits":
        doc["grading"] = [["1" if b else "0" for b in bits] for bits in doc["grading"]]
    elif case in _COERCED:
        doc = {**_SMALL_ALGEBRA, **_COERCED[case]}
    return doc


# [h, m] = m, a valid document; in each entry of _COERCED one value is
# replaced by one that int() or float() would read as valid (dim true as
# 1, with one basis element), except an int beyond the floats
_SMALL_ALGEBRA = {"dim": 2, "names": ["h", "m"], "grading": [[False], [True]], "structure": [[0, 1, 1, 1], [1, 0, 1, -1]]}
_COERCED = {
    "dim 2.7": {"dim": 2.7},
    "dim true": {"dim": True, "names": ["m"], "grading": [[True]], "structure": []},
    "dim string": {"dim": "2"},
    "index 1.9": {"structure": [[0, 1.9, 1, 1], [1, 0, 1, -1]]},
    "index string": {"structure": [[0, "1", 1, 1], [1, 0, 1, -1]]},
    "index true": {"structure": [[0, True, 1, 1], [1, 0, 1, -1]]},
    "value string": {"structure": [[0, 1, 1, "1"], [1, 0, 1, -1]]},
    "value true": {"structure": [[0, 1, 1, True], [1, 0, 1, -1]]},
    "value beyond the floats": {"structure": [[0, 1, 1, 10**400], [1, 0, 1, -1]]},
    "names null and int": {"names": [None, 3]},
    "names string": {"names": "hm"},
    "names duplicate": {"names": ["m", "m"]},
}


def test_inspect_small_algebra(tmp_path, capsys):
    path = tmp_path / "doc.json"
    for doc in (_SMALL_ALGEBRA, {**_SMALL_ALGEBRA, **_COERCED["dim true"], "dim": 1}):
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "inspect", "--algebra", str(path))
        assert code == 0 and "validation: valid" in out


@pytest.mark.parametrize("case", ["null value", "null structure", "bare number row", "NaN value", "string bits", *_COERCED])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_inspect_malformed_algebra_exits_1(tmp_path, capsys, case, fmt):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_algebra_doc(case)))
    code, out, err = run_cli(capsys, "inspect", "--algebra", str(path), "--format", fmt)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


# ----------------------------------------------------------------------
# parameter handling
# ----------------------------------------------------------------------

def test_params_from_json_file(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"t": 1, "u": 0, "v": 1, "w": 1}))
    code, out, _ = run_cli(capsys, "check-nr", "--params", str(path))
    assert code == 0
    assert out.strip() == "true"


def test_params_from_toml_file_with_flag_override(tmp_path, capsys):
    path = tmp_path / "p.toml"
    path.write_text("t = 1.0\nu = 0.0\nv = 1.0\nw = 1.0\n")
    code, out, _ = run_cli(capsys, "check-nr", "--params", str(path), "--w", "2")
    assert code == 0
    assert out.splitlines()[0] == "false"


@pytest.mark.parametrize(
    "name,text,key",
    [
        ("p.json", json.dumps({"t": True, "u": 0, "v": 1, "w": 1}), "t"),
        ("p.json", json.dumps({"t": 1, "u": 0, "v": False, "w": 1}), "v"),
        ("p.json", json.dumps({"t": "1.0", "u": 0, "v": 1, "w": 1}), "t"),
        ("p.toml", "t = true\nu = 0\nv = 1\nw = 1\n", "t"),
        ("p.toml", 't = 1\nu = "0"\nv = 1\nw = 1\n', "u"),
        ("p.json", '{"t": 1, "u": 0, "v": 1, "w": 1' + "0" * 400 + "}", "w"),
    ],
    ids=["json-true", "json-false", "json-string", "toml-true", "toml-string", "json-int-beyond-floats"],
)
def test_params_file_takes_only_numbers(tmp_path, capsys, name, text, key):
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run_cli(capsys, "check-nr", "--params", str(path))
    assert code == 1
    assert out == ""
    assert err == f"error: parameter {key} in file is not a real number\n"


def test_missing_params_exit_1(capsys):
    code, _, err = run_cli(capsys, "ricci", "--t", "1", "--u", "0")
    assert code == 1
    assert "missing" in err


def test_invalid_tol_exit_1(capsys):
    code, _, err = run_cli(capsys, "ricci", "--t", "1", "--u", "0", "--v", "1", "--w", "1", "--tol", "0")
    assert code == 1


def test_env_tolerance_override(capsys, monkeypatch):
    monkeypatch.setenv("ZKSYM_TOL", "0.5")
    code, out, _ = run_cli(capsys, "check-nr", "--t", "1", "--u", "0.1", "--v", "1", "--w", "1")
    assert code == 0
    assert out.strip() == "true"  # the huge tolerance absorbs the small U coefficients
    monkeypatch.setenv("ZKSYM_TOL", "not-a-number")
    code, _, err = run_cli(capsys, "check-nr", "--t", "1", "--u", "0.1", "--v", "1", "--w", "1")
    assert code == 1


# ----------------------------------------------------------------------
# computation commands
# ----------------------------------------------------------------------

def test_ricci_round_point(capsys):
    code, out, _ = run_cli(
        capsys, "ricci", "--t", "1", "--u", "0", "--v", "1", "--w", "1", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert np.allclose(np.diag(doc["matrix"]), [2.5, 2.5, 2.5, 2.5, 2, 2, 2, 2])


def test_tables_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "tables", "--t", "1", "--u", "1", "--v", "1", "--w", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["frame"][0] == "A~1"
    bracket = np.array(doc["bracket"])
    assert bracket.shape == (8, 8, 8)
    # [A~1, B~1] = -(w/tv) C~1 = -2 C~1
    assert bracket[0, 4, 6] == pytest.approx(-2.0)


def test_check_nr_false(capsys):
    code, out, _ = run_cli(capsys, "check-nr", "--t", "1", "--u", "0", "--v", "1", "--w", "2")
    assert code == 0
    assert out.splitlines()[0] == "false"
    assert "witness" in out


def test_isometries_dimension_four(capsys):
    code, out, _ = run_cli(
        capsys, "isometries", "--t", "1", "--u", "0.5", "--v", "2", "--w", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 4
    assert len(doc["basis"]) == 4


@pytest.mark.parametrize(
    "point,names",
    [
        (("1", "0", "1", "1"), metric.FRAME_NAMES),
        (("1", "0", "1", "2"), ("C~1", "C~2")),
        (("1", "0.5", "1.3", "0.8"), ()),
    ],
)
def test_isometries_text(capsys, point, names):
    argv = [f"--{key}={value}" for key, value in zip("tuvw", point)]
    code, out, _ = run_cli(capsys, "isometries", *argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"dimension: {len(names)}"
    terms = [line.split() for line in lines[1:]]  # "+c1 name1 +c2 name2 ..."
    assert len(terms) == len(names) and {name for t in terms for name in t[1::2]} == set(names)
    if len(names) == 8:  # the system is zero: the frame vectors themselves, up to sign
        assert [line.lstrip(" +-") for line in lines[1:]] == [f"1 {name}" for name in names]


def test_ledger_residual_report(capsys):
    code, out, _ = run_cli(
        capsys, "ledger", "--t", "1", "--u", "0", "--v", "1", "--w", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["max_ledger_residual"] == pytest.approx(3.0)
    assert len(doc["star_residuals"]) == 4
    assert not doc["satisfied"]
    # at u = 0 the two determinants are equal, and their difference prints as 0.0, never -0.0
    assert doc["star_residuals"] == pytest.approx([-6.0, 0.0, 0.0, -6.0])
    assert "-0.0" not in out and all(math.copysign(1.0, x) == 1.0 for x in doc["star_residuals"][1:3])


# ----------------------------------------------------------------------
# solve and sweep
# ----------------------------------------------------------------------

def test_solve_u0_at_s_five(capsys):
    code, out, _ = run_cli(capsys, "solve", "--branch", "u0", "--S", "5", "--format", "json")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 2
    for rec in records:
        assert rec["branch"] == "u-zero"
        assert max(rec["residuals"].values()) < 1e-8
        assert rec["params"]["u"] == 0.0
    assert records[0]["V"] == pytest.approx((5 - math.sqrt(17)) / 2, rel=1e-13)


def test_solve_u1_at_s_one(capsys):
    code, out, _ = run_cli(capsys, "solve", "--branch", "u1", "--S", "1", "--format", "json")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 4
    for rec in records:
        assert rec["Usq"] == pytest.approx(1.6, rel=1e-13)
        assert rec["naturally_reductive"] is False


def test_solve_u1_outside_interval_exits_1(capsys):
    code, _, err = run_cli(capsys, "solve", "--branch", "u1", "--S", "2")
    assert code == 1
    assert "open interval" in err


@pytest.mark.parametrize("branch,s", [("u0", "1"), ("u0", "9"), ("u1", str(1 / 3))])
def test_solve_interval_endpoints_exit_1(capsys, branch, s):
    code, _, err = run_cli(capsys, "solve", "--branch", branch, "--S", s)
    assert code == 1


def test_solve_requires_s(capsys):
    code, _, err = run_cli(capsys, "solve", "--branch", "u0")
    assert code == 1


def test_sweep_streams_deterministic_records(capsys):
    args = ("sweep", "--branch", "u0", "--S-min", "2", "--S-max", "8", "--S-steps", "4")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    records = [json.loads(line) for line in out1.splitlines()]
    assert len(records) == 8  # 4 grid points x 2 root orderings
    s_values = sorted({rec["S"] for rec in records})
    assert s_values == [2.0, 4.0, 6.0, 8.0]


@pytest.mark.parametrize(
    "branch,s",
    [
        ("u0", 1.0 + 1e-10),
        ("u0", 9.0 - 1e-10),
        ("u1", 1.0 / 3.0 + 1e-10),
        ("u1", (7.0 - math.sqrt(17.0)) / 2.0 - 1e-10),
    ],
)
def test_solve_exits_0_at_interval_ends(capsys, branch, s):
    code, out, err = run_cli(capsys, "solve", "--branch", branch, "--S", repr(s), "--format", "json")
    assert code == 0, err
    assert err == ""
    for line in out.splitlines():
        assert set(json.loads(line)["residuals"]) == {"ledger", "star", "gram"}


def test_solve_verdict_does_not_apply_tol_to_the_round_point(capsys):
    # only the exact round point u = 0, V = W = 1 is expected to be
    # naturally reductive, however loose the tolerance
    code, out, err = run_cli(capsys, "solve", "--branch", "u0", "--S", "2", "--tol", "0.5")
    assert code == 0, err
    assert err == ""
    assert len(out.splitlines()) == 2


def test_sweep_range_validation(capsys):
    code, _, err = run_cli(capsys, "sweep", "--branch", "u1", "--S-min", "0.1", "--S-max", "1.0")
    assert code == 1
    assert "range" in err


# ----------------------------------------------------------------------
# boundary exit codes
# ----------------------------------------------------------------------

def test_u_boundary_exits_1(capsys):
    for u in ("4", "-4"):
        code, _, err = run_cli(capsys, "ricci", "--t", "1", "--u", u, "--v", "1", "--w", "1")
        assert code == 1
        assert "open interval" in err


# admissible (2t^2 - u is 3.3e-17 of 2t^2), inside the guard of K = 0, at a t that is not a power of two
_IN_GUARD = (1.5442292252959517, 4.76928780051627)


def test_bounds_below_the_normal_floats_are_quoted_exactly(capsys):
    # 2t^2 = 2e-400 at t = 1e-200, and the guard (1e-8 t)^2 = 2.23e-324 at t = 2^-511, underflow as floats
    code, _, err = run_cli(capsys, "ricci", "--t", "1e-200", "--u", "1e300", "--v", "1", "--w", "1")
    assert (code, err) == (1, "error: u must lie in the open interval (-2t^2, 2t^2) = (-2e-400, 2e-400), got 1e+300\n")
    t = repr(2.0 ** -511)
    code, _, err = run_cli(capsys, "check-nr", "--t", t, "--u", repr(2.0 ** -1021), "--v", t, "--w", t)
    assert (code, err) == (2, "numerical failure: K^2 = 0 below guard 2.23e-324: |u| too close to the degenerate boundary\n")


@pytest.mark.parametrize("argv,shown", [(("--t", "1e-200", "--v", "1", "--w", "1"), "1e-400, 1, 1"),
                                        (("--t", "1", "--v", "1", "--w", "1e160"), "1, 1, 1e+320")])
def test_squares_beyond_the_normal_floats_are_quoted_at_their_own_scale(capsys, argv, shown):
    # t^2 = 1e-400 underflows to 0 and w^2 = 1e320 overflows to inf as floats; each is quoted from its own unit scale
    code, out, err = run_cli(capsys, "ricci", "--u", "0", *argv)
    assert (code, out) == (2, "")
    assert err == f"numerical failure: t^2, v^2, w^2 = {shown} leave the range of normal floats [2.23e-308, 1.8e+308]\n"


def test_k_guard_exits_2(capsys):
    t, u = map(repr, _IN_GUARD)
    code, _, err = run_cli(capsys, "ricci", "--t", t, "--u", u, "--v", "1", "--w", "1")
    assert code == 2
    assert "numerical failure" in err


@pytest.mark.parametrize("u,code", [("2.5", 1), ("-2.5", 1), ("4", 1), ("-4", 1), ("2", 2), ("-2", 2)])
def test_u_classification(capsys, u, code):
    # |u| > 2t^2 is indefinite, invalid input; on |u| = 2t^2, K = 0 and the guard refuses
    got, out, err = run_cli(capsys, "ricci", "--t", "1", "--u", u, "--v", "1", "--w", "1")
    assert (got, out) == (code, "")
    if code == 1:
        assert err == f"error: u must lie in the open interval (-2t^2, 2t^2) = (-2, 2), got {u}\n"
    else:
        assert err == "numerical failure: K^2 = 0 below guard 1e-16: |u| too close to the degenerate boundary\n"


@pytest.mark.parametrize("e", [-300, 0, 200])
def test_guard_decision_does_not_depend_on_scale(capsys, e):
    # the homothetic copies (lt, l^2 u, lv, lw), l = 2^e, of a point inside the guard band: x = (t^2 + u/2,
    # t^2 - u/2, v^2, w^2) scales by l^2 exactly, so K^2 = x1 x2 / t^2 = 1.56e-16 l^2 at each; u^2 would
    # underflow at 2^-300
    t, u = (math.ldexp(x, k * e) for x, k in zip(_IN_GUARD, (1, 2)))
    code, out, err = run_cli(capsys, "check-nr", "--t", repr(t), "--u", repr(u), "--v", repr(t), "--w", repr(t))
    k2 = _exact_k_squared(*_IN_GUARD) * Fraction(2) ** (2 * e)  # quoted at the point's own scale, as the guard
    guard = (metric.K_GUARD_EPS * t) ** 2
    assert (code, out) == (2, "")
    assert err == f"numerical failure: K^2 = {float(k2):.3g} below guard {guard:.3g}: |u| too close to the degenerate boundary\n"


def _exact_k_squared(t: float, u: float) -> Fraction:
    """K^2 = x1 x2 / t^2 = (t^2 + u/2)(t^2 - u/2) / t^2 of the binary values t and u."""
    t, u = Fraction(t), Fraction(u)
    return (t * t + u / 2) * (t * t - u / 2) / (t * t)


def test_guard_band_decided_on_the_exact_k_squared(capsys):
    # K/|t| = 1.27e-8, above the guard 1e-8, where K^2 from the rounded h = u/(2t) read 0
    t, u = 1.190614449268857, 2.8351255336155674
    assert _exact_k_squared(t, u) > Fraction(metric.K_GUARD_EPS) ** 2 * Fraction(t) ** 2
    code, out, err = run_cli(capsys, "check-nr", "--t", repr(t), "--u", repr(u), "--v", "1", "--w", "1")
    assert (code, err) == (0, "")
    assert out.startswith("false\nwitness: ")
    # exact K/|t| = 1.2e-8 at |t| = 6e-72
    code, out, err = run_cli(
        capsys, "check-nr", "--t", "6.38230470200337e-72", "--u", "-8.146762661842865e-143",
        "--v", "6.770046556759906e-72", "--w", "6.579124983711018e-72",
    )
    assert (code, err) == (0, "")
    assert out.startswith("false\nwitness: ")


def test_indefinite_by_a_hair_is_invalid(capsys):
    # u > 2t^2 exactly, by 1.6e-16 of it: the form is indefinite, so invalid input, not a degenerate metric
    t, u = 1.6118777843022354, 5.196299983054168
    assert Fraction(u) > 2 * Fraction(t) ** 2
    code, out, err = run_cli(capsys, "check-nr", "--t", repr(t), "--u", repr(u), "--v", "1", "--w", "1")
    assert (code, out) == (1, "")
    assert err == "error: u must lie in the open interval (-2t^2, 2t^2) = (-5.1963, 5.1963), got 5.1963\n"


def test_exit_code_is_the_exact_classification(capsys):
    # at seeded points around |u| = 2t^2 and the guard K/|t| = 1e-8, from |t| = 1e-150 to 1e150, the exit
    # code is that of the binary values: 1 where x2 = t^2 - |u|/2 < 0, the guard where K^2 < (1e-8 t)^2,
    # and otherwise 0 or another numerical failure (the tensors overflow at the smallest t); only points
    # within 1e-12 relative of the guard may go either way
    rng = np.random.default_rng(38)
    guard_ratio = Fraction(metric.K_GUARD_EPS) ** 2
    seen = set()
    for _ in range(300):
        t = float(10.0 ** rng.uniform(-150, 150) * rng.choice([-1.0, 1.0]))
        k_ratio = 10.0 ** rng.uniform(-9, -7)
        u = float(2.0 * t * t * math.sqrt(1.0 - k_ratio**2) * rng.choice([-1.0, 1.0]))
        for _ in range(int(rng.integers(0, 3))):
            u = math.nextafter(u, rng.choice([-math.inf, math.inf]))
        ratio = _exact_k_squared(t, u) / Fraction(t) ** 2 / guard_ratio
        if abs(ratio - 1) < Fraction(1, 10**12):
            continue
        v, w = (t * float(rng.uniform(0.5, 2.0)) for _ in range(2))
        code, out, err = run_cli(capsys, "check-nr", "--t", repr(t), "--u", repr(u), "--v", repr(v), "--w", repr(w))
        if Fraction(t) ** 2 < abs(Fraction(u)) / 2:
            want = (1, "u must lie in the open interval")
        elif ratio < 1:
            want = (2, "too close to the degenerate boundary")
        else:
            want = (0, "")
            if code == 2:
                want = (2, "curvature tensors overflow")
        assert code == want[0] and want[1] in err, (t, u, v, w, err)
        seen.add(want)
    assert len(seen) == 4


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_ledger_where_a_determinant_and_its_scale_sum_past_the_floats(capsys, fmt):
    # |D_alpha| and its scale are both about 8e307 here: each is finite, their sum is not
    code, out, err = run_cli(
        capsys, "ledger", "--t", "1", "--u", "0.3", "--v", "8.177916494933263e+153", "--w", "8.99570814442659e+153",
        "--format", fmt,
    )
    assert (code, err) == (0, "")
    if fmt == "json":
        assert json.loads(out)["satisfied"] is False
    else:
        assert "first Ledger condition violated" in out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_ledger_where_max_l_is_not_finite_exits_2_in_both_formats(capsys, fmt):
    # the program's determinants are 0 here while the Q-form L overflows; text printed "nan" and "satisfied"
    argv = ("ledger", "--t", "-9.42892081319446e-80", "--u", "1.7780714471072755e-158",
            "--v", "-9.07772418158703e-105", "--w", "-9.750089198671494e-93", "--format", fmt)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "numerical failure: max |L| over frame triples is not finite: nan\n"


@pytest.mark.parametrize("u", ["-5.8e-05", "-1E-3"])
def test_negative_exponent_values_parse(capsys, u):
    code, out, _ = run_cli(capsys, "ricci", "--t", "1", "--u", u, "--v", "1", "--w", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["params"]["u"] == float(u)


def test_negative_exponent_tolerance_reaches_validation(capsys):
    code, _, err = run_cli(capsys, "check-nr", "--t", "1", "--u", "0", "--v", "1", "--w", "1", "--tol", "-1E-3")
    assert code == 1
    assert "tolerance must be positive" in err


@pytest.mark.filterwarnings("error")
def test_overflowing_gram_exits_2(capsys):
    # t^2 or v^2 overflows to inf, or t^2 falls below the normal floats;
    # no warning, traceback or NaN may reach the output
    for t, v in (("1", "1e200"), ("1e200", "1"), ("1e-160", "1")):
        code, out, err = run_cli(capsys, "ricci", "--t", t, "--u", "0", "--v", v, "--w", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("numerical failure: ")
        assert len(err.splitlines()) == 1 and err.count("numerical failure") == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv",
    [
        ("ledger", "--t", "1", "--u", "0", "--v", "1e100", "--w", "1", "--format", "json"),
        ("ledger", "--t", "1", "--u", "0", "--v", "1e100", "--w", "1"),
    ],
)
def test_non_finite_results_exit_2(capsys, argv):
    # v = 1e100 puts x3 = v^2 = 1e200 in the Ledger determinants D_alpha, which overflow to NaN
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("numerical failure: ")
    assert len(err.splitlines()) == 1


def test_k_squared_overflow_point_scales(capsys):
    # (t, u, v, w) -> (lt, l^2 u, lv, lw) divides the frame Ricci matrix by l^2;
    # here l = 1e154, so u^2 overflows although K^2 = 0.75e308 does not
    code, out, err = run_cli(
        capsys, "ricci", "--t", "1e154", "--u", "1e308", "--v", "1e154", "--w", "1e154", "--format", "json"
    )
    assert code == 0, err
    big = np.array(json.loads(out)["matrix"]) * 1e308
    code, out, _ = run_cli(capsys, "ricci", "--t", "1", "--u", "1", "--v", "1", "--w", "1", "--format", "json")
    unit = np.array(json.loads(out)["matrix"])
    assert np.max(np.abs(big - unit)) <= 1e-12 * np.max(np.abs(unit))


@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_infinite_tolerance_exits_1(capsys, monkeypatch, fmt, source):
    # under tol = inf every check passes: this metric, with u != 0, would test naturally reductive
    argv = ["check-nr", "--t", "1", "--u", "0.1", "--v", "1", "--w", "1", "--format", fmt]
    if source == "flag":
        argv += ["--tol", "inf"]
    else:
        monkeypatch.setenv("ZKSYM_TOL", "inf")
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == "error: tolerance must be finite, got inf\n"


@pytest.mark.filterwarnings("error")
def test_ledger_system_at_overflowing_scale(capsys):
    # the residuals are formed at the unit scale and scaled after, so products such
    # as u*w (1e462 here) are never formed; the four residuals stay finite
    code, out, err = run_cli(
        capsys, "ledger", "--t", "1e154", "--u", "1e308", "--v", "1e154", "--w", "1e154", "--format", "json"
    )
    assert code == 0, err
    star = json.loads(out)["star_residuals"]
    assert len(star) == 4 and all(math.isfinite(x) for x in star)
    # off v = w the equations scale as l^0, l^-1, l^-2, l^0 under (lt, l^2 u, lv, lw)
    code, out, err = run_cli(
        capsys, "ledger", "--t", "1e154", "--u", "1e308", "--v", "1.2e154", "--w", "0.9e154", "--format", "json"
    )
    assert code == 0, err
    big = np.array(json.loads(out)["star_residuals"]) * [1, 1e154, 1e308, 1]
    code, out, _ = run_cli(capsys, "ledger", "--t", "1", "--u", "1", "--v", "1.2", "--w", "0.9", "--format", "json")
    unit = np.array(json.loads(out)["star_residuals"])
    assert np.max(np.abs(big - unit)) <= 1e-12 * np.max(np.abs(unit))


def test_unknown_flag_exits_1(capsys):
    code, _, err = run_cli(capsys, "ricci", "--nope", "1")
    assert code == 1


# ----------------------------------------------------------------------
# output shape
# ----------------------------------------------------------------------

_POINT = ("--t", "1", "--u", "1", "--v", "1", "--w", "2")


@pytest.mark.parametrize(
    "argv,keys",
    [
        (("tables", *_POINT), ["frame", "params", "tol", "bracket", "u"]),
        (("ricci", *_POINT), ["frame", "params", "tol", "matrix"]),
        (("isometries", *_POINT), ["frame", "params", "tol", "dimension", "basis"]),
        (("check-nr", *_POINT), ["params", "tol", "naturally_reductive", "max_u_coefficient", "witness"]),
        (("ledger", *_POINT), ["params", "tol", "max_ledger_residual", "star_residuals", "satisfied"]),
        (("inspect",), ["dim", "blocks", "valid", "violations", "algebra"]),
        (
            ("solve", "--branch", "u1", "--S", "1"),
            ["branch", "S", "V", "W", "Usq", "params", "residuals", "naturally_reductive"],
        ),
        (
            ("sweep", "--branch", "u0", "--S-min", "2", "--S-max", "8", "--S-steps", "2"),
            ["branch", "S", "V", "W", "Usq", "params", "residuals", "naturally_reductive"],
        ),
    ],
)
def test_json_key_order(capsys, argv, keys):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records
    for rec in records:
        assert list(rec) == keys


@pytest.mark.parametrize("branch,s", [("u0", 5.0), ("u1", 1.0)])
def test_solve_and_sweep_print_the_same_records(capsys, branch, s):
    sweep = ("sweep", "--branch", branch, "--S-min", repr(s), "--S-max", repr(s), "--S-steps", "1")
    code, swept, _ = run_cli(capsys, *sweep)
    assert code == 0
    code, solved, _ = run_cli(capsys, "solve", "--branch", branch, "--S", repr(s), "--format", "json")
    assert code == 0
    assert solved == swept
    code, text, _ = run_cli(capsys, "solve", "--branch", branch, "--S", repr(s))
    assert code == 0
    lines = text.splitlines()
    records = [json.loads(line) for line in swept.splitlines()]
    assert len(lines) == len(records)
    for line, rec in zip(lines, records):
        fields = dict(item.split("=") for item in line.split())
        assert fields["S"] == f"{rec['S']:.6g}"
        assert fields["V"] == f"{rec['V']:.6g}" and fields["W"] == f"{rec['W']:.6g}"
        assert fields["u"] == f"{rec['params']['u']:.6g}"
        assert fields["NR"] == ("true" if rec["naturally_reductive"] else "false")


@pytest.mark.parametrize("argv,n", [
    (("solve", "--branch", "u0", "--S", "5"), 2),
    (("solve", "--branch", "u1", "--S", "1", "--format", "json"), 4),
    (("sweep", "--branch", "u0", "--S-min", "5", "--S-max", "5", "--S-steps", "1"), 2),
    (("sweep", "--branch", "u1", "--S-min", "0.4", "--S-max", "1.4", "--S-steps", "5"), 20),
], ids=["solve-u0-text", "solve-u1-json", "sweep-u0", "sweep-u1"])
def test_failed_verification_prints_every_record_then_one_line(capsys, argv, n):
    # an unreachable tolerance fails every record: the records print as at the default tolerance,
    # then one stderr line counts the failures, and the exit code is 2
    code, records, _ = run_cli(capsys, *argv)
    assert code == 0 and len(records.splitlines()) == n
    code, out, err = run_cli(capsys, *argv, "--tol", "1e-300")
    assert (code, out) == (2, records)
    assert len(err.splitlines()) == 1
    assert err.startswith(f"numerical failure: {n} of {n} solutions fail verification, worst: FAIL (")


# ----------------------------------------------------------------------
# one parser per process, one residual computation per solution
# ----------------------------------------------------------------------

def test_main_builds_the_parser_once(capsys, monkeypatch):
    build, built = cli.build_parser, []

    def counting_build_parser():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    for argv in (("inspect",), ("ricci", *_POINT), ("ricci", "--nope", "1"), ("solve", "--branch", "u0", "--S", "5")):
        run_cli(capsys, *argv)
    assert len(built) == 1


def _fresh_process(argv, env):
    proc = subprocess.run(
        [sys.executable, "-c", "from zksym.cli import run; run()", *argv], env=env, capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_the_parser_keeps_no_state_between_calls(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ZKSYM_TOL", raising=False)
    params = tmp_path / "params.json"
    params.write_text('{"t": 1, "u": 0.5, "v": 1.2, "w": 0.8}')
    ledger = ("ledger", *_POINT, "--format", "json")
    sequence = [
        ("solve", "--S", "5"),  # usage error: --branch is required
        ("ricci", "--nope", "1"),
        ledger,
        ("check-nr", "--params", str(params)),
        ledger,
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(zksym.__file__).resolve().parents[1]))
    for argv in sequence:
        assert run_cli(capsys, *argv) == _fresh_process(argv, env), argv
    # and importing the package builds no parser
    probe = "import zksym.cli; print(zksym.cli._parser.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert proc.stdout == "0\n", proc.stderr


def _counting_geometries(monkeypatch):
    """Record the point of every _Geometry built and the number of points of every residual evaluation."""
    builds, evaluations = [], []
    init, evaluate = geometry._Geometry.__init__, analysis._evaluate

    def counting_init(self, p):
        builds.append(p)
        init(self, p)

    def counting_evaluate(points):
        evaluations.append(len(points))
        return evaluate(points)

    monkeypatch.setattr(geometry._Geometry, "__init__", counting_init)
    monkeypatch.setattr(analysis, "_evaluate", counting_evaluate)
    return builds, evaluations


@pytest.mark.parametrize("branch,s,n", [("u1", "1.1", 4), ("u0", "5", 2)])
def test_solve_evaluates_its_solutions_in_one_stacked_pass(capsys, monkeypatch, branch, s, n):
    # one evaluation of the N = 2 or 4 solutions, one geometry per point,
    # built through the cache: no Gram factorization, no form (the Gram
    # defect is a closed form), and the reductivity query never runs
    builds, evaluations = _counting_geometries(monkeypatch)
    forms = _count_calls(monkeypatch, metric.build_form)
    nr_tests = _count_calls(monkeypatch, analysis.is_naturally_reductive)
    cholesky, factorizations = _counting(np.linalg.cholesky)
    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    geometry._cached_geometry.cache_clear()
    code, out, _ = run_cli(capsys, "solve", "--branch", branch, "--S", s)
    assert code == 0
    assert len(out.splitlines()) == n
    assert (len(builds), evaluations) == (n, [n])
    assert (len(forms), len(nr_tests), len(factorizations)) == (0, 0, 0)
    # each point's geometry went into the cache, computed nowhere else
    info = geometry._cached_geometry.cache_info()
    assert (info.misses, info.hits, info.currsize) == (n, 0, n)


def test_verification_reads_back_the_solvers_evaluations(monkeypatch):
    builds, evaluations = _counting_geometries(monkeypatch)
    geometry._cached_geometry.cache_clear()
    sols = analysis.solve_ledger_unonzero(1.1) + analysis.solve_ledger_u0(5.0)
    assert (len(builds), evaluations) == (6, [4, 2])
    reports = [analysis.verify_solution(sol) for sol in sols]
    assert all(r.passed for r in reports)
    assert (len(builds), evaluations) == (6, [4, 2])
    # a hand-built solution at a point no solver evaluated is evaluated alone
    p = metric.MetricParams(1.0, 0.0, 1.0, 1.0)
    hand_built = analysis.LedgerSolution("u-zero", 2.0, 1.0, 1.0, 0.0, p, {}, True)
    assert analysis.verify_solution(hand_built).passed
    assert (len(builds), evaluations) == (7, [4, 2, 1])


def test_solutions_carry_their_own_evaluations(monkeypatch):
    # the geometry cache keeps the newest 256 points, but each solution
    # holds its own evaluation, so all 400 verify without evaluating again
    builds, evaluations = _counting_geometries(monkeypatch)
    geometry._cached_geometry.cache_clear()
    grid = np.linspace(0.4, 1.4, 100).tolist()
    sols = analysis.solve_ledger_unonzero(*grid)
    assert (len(builds), evaluations) == (400, [400])
    assert geometry._cached_geometry.cache_info().currsize == 256
    assert all(analysis.verify_solution(sol).passed for sol in sols)
    assert (len(builds), evaluations) == (400, [400])
    # a copy does not carry the evaluation, even at the same params, whose geometry has left the cache
    copy = dataclasses.replace(sols[0], params=dataclasses.replace(sols[0].params))
    assert analysis.verify_solution(copy).passed and (len(builds), evaluations) == (401, [400, 1])


def test_sweep_streams_the_records_of_one_solve_per_s(capsys, monkeypatch):
    # 70 S values go through solves of 32, 32 and 6 S, yet print exactly
    # what 70 single solves print, in grid order
    _, evaluations = _counting_geometries(monkeypatch)
    code, swept, _ = run_cli(capsys, "sweep", "--branch", "u1", "--S-min", "0.34", "--S-max", "1.43", "--S-steps", "70")
    assert code == 0
    assert evaluations == [128, 128, 24]
    solved = ""
    for s in np.linspace(0.34, 1.43, 70).tolist():
        code, out, _ = run_cli(capsys, "solve", "--branch", "u1", "--S", repr(s), "--format", "json")
        assert code == 0
        solved += out
    assert swept == solved


def _sweep_peak_rss_kb(steps: int) -> int:
    probe = (
        "import contextlib, io, resource, sys\n"
        "from zksym.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main(['sweep', '--branch', 'u0', '--S-min', '1.5', '--S-max', '8.5', '--S-steps', '{steps}'])\n"
        "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(zksym.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    code, rss = proc.stdout.split()
    assert code == "0", proc.stderr
    return int(rss)


def test_sweep_memory_does_not_grow_with_the_grid():
    # 2400 solutions evaluated at once would hold about 70 MB more than 400
    # (the printed records, kept here in memory, take about 1.5 MB)
    assert _sweep_peak_rss_kb(1200) - _sweep_peak_rss_kb(200) < 10_000


_SCALES = (1e-6, 1e-3, 1.0, 1e3, 1e6, 1e12)


def _verdicts(capsys, t, u, v, w):
    """check-nr and ledger verdicts, equal in text and JSON, and the nonzero cells of the tables grid."""
    point = ("--t", repr(t), "--u", repr(u), "--v", repr(v), "--w", repr(w))
    nr = json.loads(run_cli(capsys, "check-nr", *point, "--format", "json")[1])["naturally_reductive"]
    satisfied = json.loads(run_cli(capsys, "ledger", *point, "--format", "json")[1])["satisfied"]
    assert run_cli(capsys, "check-nr", *point)[1].splitlines()[0] == ("true" if nr else "false")
    last = run_cli(capsys, "ledger", *point)[1].splitlines()[-1]
    assert last == f"first Ledger condition {'satisfied' if satisfied else 'violated'}"
    rows = [line.split("|") for line in run_cli(capsys, "tables", *point)[1].splitlines()]
    cells = tuple(c.strip() != "0" for row in rows if row[0].strip() in metric.FRAME_NAMES for c in row[1:])
    return nr, satisfied, cells


def test_verdicts_do_not_depend_on_scale(capsys):
    # the homothety (t, u, v, w) -> (l t, l^2 u, l v, l w) scales U and the
    # brackets as 1/l and L as 1/l^3, and changes no verdict
    rng = np.random.default_rng(41)
    cases = [((1.0, 0.0, 1.0, 1.0), (True, True)), ((1.0, 0.0, 2.0, 1.0), (False, False))]
    cases += [(dataclasses.astuple(sample_params(rng)), (False, False)) for _ in range(3)]
    cases += [(dataclasses.astuple(sol.params), (False, True)) for sol in analysis.solve_ledger_u0(5.0)[:1]]
    cases += [(dataclasses.astuple(sol.params), (False, True)) for sol in analysis.solve_ledger_unonzero(1.0)[:1]]
    cases += [((1.0, 0.7, 1.3, 1.3), (False, True))]  # the v = w family
    for (t, u, v, w), expected in cases:
        verdicts = {lam: _verdicts(capsys, lam * t, lam * lam * u, lam * v, lam * w) for lam in _SCALES}
        assert all(got == verdicts[1.0] for got in verdicts.values()), (t, u, v, w)
        assert verdicts[1.0][:2] == expected, (t, u, v, w)
        assert any(verdicts[1.0][2])


def test_the_ledger_verdict_needs_no_scale_of_its_own(capsys):
    # max|nabla table| * max|rho| is about 1e120 * 1e240 here, beyond the
    # floats, but the determinants and their terms are scale-free: D = v^2 (1 - v^2) / 2
    # against terms of 3 + 3, and the homothetic point at |t| = 2 reads the same
    for t, v in (("1", "1e-120"), ("2", "2e-120")):
        code, out, err = run_cli(capsys, "ledger", "--t", t, "--u", "0", "--v", v, "--w", t)
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "first Ledger condition satisfied"
    code, out, _ = run_cli(capsys, "ledger", "--t", "1", "--u", "0", "--v", "1e-3", "--w", "1")
    assert out.splitlines()[-1] == "first Ledger condition violated"  # D / (3 + 3) = 8.3e-8


def _counting(fn):
    """A wrapper of fn that records each call, and the list it records them in."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    return counting, calls


def _count_calls(monkeypatch, fn) -> list:
    """Rebind fn in every zksym namespace to a wrapper that records each call."""
    counting, calls = _counting(fn)
    for name, module in list(sys.modules.items()):
        if name == "zksym" or name.startswith("zksym."):
            for attr, obj in list(vars(module).items()):
                if obj is fn:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def test_inspect_validates_the_built_in_algebra_once_per_process(capsys, monkeypatch, tmp_path):
    counting_validate, calls = _counting(GradedLieAlgebra.validate)
    monkeypatch.setattr(GradedLieAlgebra, "validate", counting_validate)
    so5.validate_so5.cache_clear()
    first = run_cli(capsys, "inspect")
    assert run_cli(capsys, "inspect") == first
    assert len(calls) == 1
    # a serialized algebra is validated on every call
    path = tmp_path / "so5.json"
    path.write_text(json.dumps(algebra_to_dict(build_so5())))
    for _ in range(2):
        assert run_cli(capsys, "inspect", "--algebra", str(path))[0] == 0
    assert len(calls) == 3


# ----------------------------------------------------------------------
# every stdout byte, pinned
# ----------------------------------------------------------------------

def _pinned_points() -> list[tuple[float, float, float, float]]:
    """The round point and 49 seeded points, |t| log-uniform in [1e-3, 1e3]: generic, u = 0, v = w,
    u = 0 with w = |t|, the u = 0 and u != 0 solutions scaled to t, and K/|t| from 1e-1 down to 1e-7."""
    rng = random.Random(18)
    points = [(1.0, 0.0, 1.0, 1.0)]
    for n in range(49):
        t = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.0)
        u = rng.uniform(-1.8, 1.8) * t * t
        v, w = (rng.choice((-1.0, 1.0)) * abs(t) * 10.0 ** rng.uniform(-1.0, 1.0) for _ in range(2))
        kind = n % 7
        if kind == 1:
            u = 0.0
        elif kind == 2:
            w = v
        elif kind == 3:
            u, w = 0.0, abs(t)
        elif kind in (4, 5):
            solve = analysis.solve_ledger_u0 if kind == 4 else analysis.solve_ledger_unonzero
            lo, hi = analysis.S_INTERVAL_U0 if kind == 4 else analysis.S_INTERVAL_UNONZERO
            q = rng.choice(solve(rng.uniform(lo, hi))).params
            u, v, w = q.u * t * t, q.v * t, q.w * t
        elif kind == 6:
            kappa = (1e-1, 1e-3, 1e-5, 1e-7)[n // 7 % 4]  # K/|t|, above the guard of 1e-8
            u = rng.choice((-1.0, 1.0)) * 2.0 * t * t * math.sqrt(1.0 - kappa * kappa)
        points.append((t, u, v, w))
    return points


def _pinned_argvs(command: str, fmt: str, tmp_path) -> list[list[str]]:
    if command != "inspect":
        return [[command, "--t", repr(t), "--u", repr(u), "--v", repr(v), "--w", repr(w), "--format", fmt]
                for t, u, v, w in _pinned_points()]
    # so(5) in a seeded basis order, serialized: the same algebra in new coordinates
    base, perm = build_so5(), list(range(10))
    random.Random(18).shuffle(perm)
    alg = GradedLieAlgebra([base.names[i] for i in perm], base.structure[np.ix_(perm, perm, perm)],
                           [base.grading[i] for i in perm])
    path = tmp_path / "so5-permuted.json"
    path.write_text(json.dumps(algebra_to_dict(alg)))
    return [["inspect", "--format", fmt], ["inspect", "--algebra", str(path), "--format", fmt]]


def _svd_digest() -> str:
    """sha256 of numpy's SVD (s and vh) of U's rows on the frame pairs i <= j at each pinned point."""
    digest = hashlib.sha256()
    for p in _pinned_points():
        _, s, vh = np.linalg.svd(geometry.u_table(metric.MetricParams(*p))[np.triu_indices(8)])
        digest.update(s.tobytes() + vh.tobytes())
    return digest.hexdigest()


# sha256 over each argv's exit code and stdout, in order.  The tables, the Ricci matrix and the
# isometry basis print every float, so a digest also pins numpy's own results.  Only the isometry basis
# comes from LAPACK, whose last bits (and the signs of singular vectors) may differ between builds and
# CPUs: those two digests are compared only where the SVDs of the corpus are the ones pinned here.
_SVD_PINNED = "05e578fe5bfb8277ef109972c2a935909d932b1e72bbd494dd0274a0967ad529"
_PINNED = {
    ("tables", "text"): "82fd998443b19398f75facc233ce5d10766775790567d7089aaae1840a9fc077",
    ("tables", "json"): "6ae86c6b10ff63b9caf0894194acf30e5f0d45847aeb7e076f32412712cde10d",
    ("ricci", "text"): "53099fbf1dbb8be64127245ffaa0a1b0e324975f202ea94e10dd47bdde0347bf",
    ("ricci", "json"): "188223be2f0492561826f5692f7230e4d762124d22ae324a537dc56a74b44912",
    ("isometries", "text"): "b71379dc75be14410fd75fa123baf7e96b127cb87c27b7b68db60ff532fc8678",
    ("isometries", "json"): "35478e32717667ce63fa3adeab9b9335ee6c676a07c11d2c741be9da3ab3025a",
    ("check-nr", "text"): "a4597ebda36854e62ccb761d2635a8c3f9603c386d1475d214ad4967f2af8a29",
    ("check-nr", "json"): "c01b221259e14491ac5910d63982c6bd2c3276aa81f1cd6da51902168004656a",
    ("ledger", "text"): "8c1134ed9b39e8d0e315f2ec8ca24c43626bd2f76037e4e80612e0d2ed9cd2ef",
    ("ledger", "json"): "e05bbe0910aee1296d3d399d6fba679f3a67fc5a9df757e5ddff2c229f56ce5d",
    ("inspect", "text"): "93a7aefb3221ba5fa983e60b91717b1c1734defa3790fd0d12c91dce6aa8c35a",
    ("inspect", "json"): "973cf70193359d803bf11f0a2372107782aacd9b3f641a88c5a95bb1c656e7a1",
}


@pytest.mark.parametrize("command,fmt", list(_PINNED))
def test_every_stdout_byte_is_pinned(capsys, tmp_path, command, fmt):
    if command == "isometries" and _svd_digest() != _SVD_PINNED:
        pytest.skip("this numpy's SVD rounds the corpus differently from the one the digests were pinned with")
    digest = hashlib.sha256()
    for argv in _pinned_argvs(command, fmt, tmp_path):
        code, out, _ = run_cli(capsys, *argv)
        digest.update(f"{code}\n{out}\0".encode())
    assert digest.hexdigest() == _PINNED[command, fmt]


# ----------------------------------------------------------------------
# a reader that closes the pipe early
# ----------------------------------------------------------------------

def test_a_closed_pipe_ends_the_command_quietly():
    # 800 records, far more than a pipe holds, so the writer meets the closed end
    argv = ["sweep", "--branch", "u1", "--S-min", "0.34", "--S-max", "1.43", "--S-steps", "200"]
    env = dict(os.environ, PYTHONPATH=str(Path(zksym.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-c", "from zksym.cli import run; run()", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    first = json.loads(proc.stdout.readline())
    proc.stdout.close()
    code = proc.wait(timeout=60)  # a traceback is far smaller than the stderr pipe
    with proc.stderr:
        assert proc.stderr.read() == b""
    assert code == cli.EXIT_INVALID
    assert first["S"] == 0.34
