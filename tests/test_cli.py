import dataclasses
import json
import math
import os
import subprocess
import sys
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
    code, out, _ = run_cli(capsys, "inspect", "--algebra", str(path))
    assert code == 2
    assert "invalid" in out


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
    return doc


@pytest.mark.parametrize("case", ["null value", "null structure", "bare number row", "NaN value", "string bits"])
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


def test_ledger_residual_report(capsys):
    code, out, _ = run_cli(
        capsys, "ledger", "--t", "1", "--u", "0", "--v", "1", "--w", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["max_ledger_residual"] == pytest.approx(3.0)
    assert len(doc["star_residuals"]) == 4
    assert not doc["satisfied"]


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


def test_k_guard_exits_2(capsys):
    u = repr(4.0 * (1.0 - 5e-9))
    code, _, err = run_cli(capsys, "ricci", "--t", "1", "--u", u, "--v", "1", "--w", "1")
    assert code == 2
    assert "numerical failure" in err


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
    # rho ~ 1e200 times a coefficient ~ 1e200 overflows the reduced Ledger system to NaN
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
    # the reduced-system coefficients are ratios of like scales, so products such
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


def test_failed_verification_is_reported_by_solve_alone(capsys):
    # an unreachable tolerance fails every record; solve names each on stderr, sweep only exits 2
    code, out, err = run_cli(capsys, "solve", "--branch", "u0", "--S", "5", "--tol", "1e-300")
    assert code == 2
    assert len(out.splitlines()) == 2
    assert [line.split(":")[0] for line in err.splitlines()] == ["verification failed"] * 2
    sweep = ("sweep", "--branch", "u0", "--S-min", "5", "--S-max", "5", "--S-steps", "1", "--tol", "1e-300")
    code, out, err = run_cli(capsys, *sweep)
    assert code == 2
    assert len(out.splitlines()) == 2
    assert err == ""


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


def test_solve_computes_each_solution_residuals_once(capsys):
    analysis._solution_residuals.cache_clear()
    code, out, _ = run_cli(capsys, "solve", "--branch", "u1", "--S", "1.1")
    assert code == 0
    info = analysis._solution_residuals.cache_info()
    # computed for each of the four records, looked up again by its verification
    assert len(out.splitlines()) == 4
    assert (info.misses, info.hits) == (4, 4)


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


def test_a_ledger_verdict_without_a_normal_scale_exits_2(capsys):
    # every tensor is finite, but max|nabla| * max|rho| is about 1e120 * 1e240
    code, out, err = run_cli(capsys, "ledger", "--t", "1", "--u", "0", "--v", "1e-120", "--w", "1")
    assert (code, out) == (2, "")
    assert err == "numerical failure: max|nabla table| * max|rho| = inf is no positive normal float\n"


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


def test_solve_builds_each_form_once_and_tests_reductivity_once(capsys, monkeypatch):
    # one form for the residuals' Gram defect; the geometry cache builds its
    # frame from the parameters alone, with no Gram matrix and no Cholesky.
    # The reductivity status is part of the cached residuals that
    # verification reads back.
    builds = _count_calls(monkeypatch, metric.build_form)
    nr_tests = _count_calls(monkeypatch, analysis.is_naturally_reductive)
    cholesky, factorizations = _counting(np.linalg.cholesky)
    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    geometry._cached_geometry.cache_clear()
    analysis._solution_residuals.cache_clear()
    code, out, _ = run_cli(capsys, "solve", "--branch", "u1", "--S", "1.1")
    assert code == 0
    assert len(out.splitlines()) == 4
    assert (len(builds), len(nr_tests), len(factorizations)) == (4, 4, 0)
    info = analysis._solution_residuals.cache_info()
    assert (info.misses, info.hits) == (4, 4)
    assert geometry._cached_geometry.cache_info().misses == 4


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
