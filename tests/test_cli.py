import collections
import contextlib
import dataclasses
import functools
import gc
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_inspect_of_an_algebra_whose_jacobi_sums_overflow_exits_2(tmp_path, capsys, fmt):
    # the products overflow to +-inf and their sum along e2 is NaN: a violation, reported as the same rows at +-1
    # are, with one stderr line and no numpy warning
    path = tmp_path / "j.json"
    path.write_text('{"dim": 3, "names": ["e0", "e1", "e2"], "grading": [[false], [false], [false]], "structure": '
                    '[[0, 2, 2, 1e200], [1, 2, 0, 1e200], [1, 2, 2, 1e200], [2, 0, 2, -1e200], [2, 1, 0, -1e200], '
                    '[2, 1, 2, -1e200]]}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "inspect", "--algebra", str(path), "--format", fmt)
    assert (code, err) == (2, "numerical failure: algebra invalid: 1 Jacobi violation(s)\n")
    if fmt == "json":
        doc = json.loads(out)
        assert doc["valid"] is False and doc["violations"] == {"antisymmetry": [], "jacobi": [[0, 1, 2]], "grading": []}
    else:
        assert out.splitlines()[-1] == "validation: invalid: 1 Jacobi violation(s)"


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


def test_a_malformed_file_reports_positions_after_newline_translation(tmp_path, capsys):
    # as Path.read_text reads a file: CRLF and a lone CR end a line, one character each
    path = tmp_path / "junk.json"
    for text in (b'{\r\n"dim": 2,\r\n x}', b'{\r"dim": 2,\r x}', b'{\n"dim": 2,\n x}'):
        path.write_bytes(text)
        assert run_cli(capsys, "inspect", "--algebra", str(path)) == (
            1, "", "error: malformed algebra file: Expecting property name enclosed in double quotes: "
                   "line 3 column 2 (char 13)\n")


def test_a_deeply_nested_file_is_malformed_not_a_traceback(tmp_path, capsys):
    # JSON nested deeper than the decoder recurses: one stderr line and exit 1, as an algebra and as parameters
    path = tmp_path / "nested.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run_cli(capsys, "inspect", "--algebra", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: malformed algebra file: ") and len(err.splitlines()) == 1
    code, out, err = run_cli(capsys, "ledger", "--params", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: malformed parameter file {path}: ") and len(err.splitlines()) == 1


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
    elif case == "null grading":
        doc["grading"] = None
    elif case == "empty bits before string bits":  # the first fault is reported
        doc["grading"][:2] = [[], ["1", "0"]]
    elif case == "short row":
        doc["structure"][1] = [0, 1, 1]
    elif case == "index out of range":
        doc["structure"].append([0, 10, 1, 1.0])
    elif case == "negative index":
        doc["structure"].append([0, -1, 1, 1.0])
    elif case in _COERCED:
        doc = {**_SMALL_ALGEBRA, **_COERCED[case]}
    elif case in _SHAPES:
        doc = {**_SMALL_ALGEBRA, **_SHAPES[case]}
    elif case in _CONTAINERS:
        doc = _CONTAINERS[case]
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
# well-typed documents whose shapes disagree, which the algebra refuses
_SHAPES = {
    "dim 0": {"dim": 0, "names": [], "grading": [], "structure": []},
    "names short": {"names": ["h"]},
    "grading short": {"grading": [[False]]},
    "grading widths": {"grading": [[False], [True, False]]},
}
# a document, a field or a grading row of the wrong JSON type; iterated unchecked, the {} and "" structures read no
# row, and a grading row was read by its keys or characters, or raised Python's own "not iterable"
_CONTAINERS = {
    "object structure": {"dim": 1, "names": ["a"], "grading": [[False]], "structure": {}},
    "string structure": {"dim": 1, "names": ["a"], "grading": [[False]], "structure": ""},
    "array document": [_SMALL_ALGEBRA],
    "number grading row": {"dim": 1, "names": ["a"], "grading": [5], "structure": []},
    "null grading row": {"dim": 1, "names": ["a"], "grading": [None], "structure": []},
    "object grading row": {"dim": 1, "names": ["a"], "grading": [{"x": 1}], "structure": []},
    "string grading row": {"dim": 1, "names": ["a"], "grading": ["ab"], "structure": []},
}


def test_inspect_of_a_grading_closure_violation_exits_2(tmp_path, capsys):
    # [h, m] = h: two structure constants land in the wrong block, a report, then one line, exit 2
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({**_SMALL_ALGEBRA, "structure": [[0, 1, 0, 1], [1, 0, 0, -1]]}))
    message = "numerical failure: algebra invalid: 2 grading-closure violation(s)\n"
    code, out, err = run_cli(capsys, "inspect", "--algebra", str(path))
    assert (code, err) == (2, message)
    assert "validation: invalid: 2 grading-closure violation(s)" in out.splitlines()
    code, out, err = run_cli(capsys, "inspect", "--algebra", str(path), "--format", "json")
    assert (code, err) == (2, message)
    doc = json.loads(out)
    assert doc["valid"] is False
    assert doc["violations"] == {"antisymmetry": [], "jacobi": [], "grading": [[0, 1, 0], [1, 0, 0]]}


def test_inspect_small_algebra(tmp_path, capsys):
    path = tmp_path / "doc.json"
    for doc in (_SMALL_ALGEBRA, {**_SMALL_ALGEBRA, **_COERCED["dim true"], "dim": 1}):
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "inspect", "--algebra", str(path))
        assert code == 0 and "validation: valid" in out


# the one stderr line of each malformed document, after "error: "
_MALFORMED = {
    "null value": "structure rows must hold three integers and a number, got [0, 2, 4, None]",
    "null structure": "structure must be a JSON array, got null",
    "bare number row": "structure rows must hold three integers and a number, got 5",
    "NaN value": "structure constants must be finite",
    "string bits": "grading bits must be booleans, got ['0', '0']",
    "null grading": "grading must be a JSON array, got null",
    "empty bits before string bits": "grading label needs at least one bit",
    "short row": "structure rows must hold three integers and a number, got [0, 1, 1]",
    "index out of range": "structure index out of range: (0, 10, 1)",
    "negative index": "structure index out of range: (0, -1, 1)",
    "dim 2.7": "dim must be an integer, got [2.7]",
    "dim true": "dim must be an integer, got [True]",
    "dim string": "dim must be an integer, got ['2']",
    "index 1.9": "structure rows must hold three integers and a number, got [0, 1.9, 1, 1]",
    "index string": "structure rows must hold three integers and a number, got [0, '1', 1, 1]",
    "index true": "structure rows must hold three integers and a number, got [0, True, 1, 1]",
    "value string": "structure rows must hold three integers and a number, got [0, 1, 1, '1']",
    "value true": "structure rows must hold three integers and a number, got [0, 1, 1, True]",
    "value beyond the floats": "malformed algebra document: int too large to convert to float",
    "names null and int": "names must be strings, got [None, 3]",
    "names string": "names must be a list of distinct strings, got 'hm'",
    "names duplicate": "names must be a list of distinct strings, got ['m', 'm']",
    "dim 0": "algebra needs a positive dimension",
    "names short": "names length disagrees with dim",
    "grading short": "need exactly one grading label per basis element",
    "grading widths": "grading labels must share the same group Z_2^k",
    "object structure": "structure must be a JSON array, got object",
    "string structure": "structure must be a JSON array, got string",
    "array document": "an algebra document must be a JSON object, got array",
    "number grading row": "grading row 0 must be a JSON array, got number",
    "null grading row": "grading row 0 must be a JSON array, got null",
    "object grading row": "grading row 0 must be a JSON array, got object",
    "string grading row": "grading row 0 must be a JSON array, got string",
}


@pytest.mark.parametrize("case", ["null value", "null structure", "bare number row", "NaN value", "string bits", *_COERCED,
                                  "null grading", "empty bits before string bits", "short row", "index out of range",
                                  "negative index", *_SHAPES, *_CONTAINERS])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_inspect_malformed_algebra_exits_1(tmp_path, capsys, case, fmt):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_algebra_doc(case)))
    code, out, err = run_cli(capsys, "inspect", "--algebra", str(path), "--format", fmt)
    assert code == 1
    assert out == ""
    assert err == f"error: {_MALFORMED[case]}\n"


def test_inspect_of_a_dimension_too_large_to_allocate_exits_1(tmp_path, capsys):
    # dim 10^5 would ask np.zeros for 10^15 float64s, 7.11 PiB, beyond the address space: refused at once
    n = 10**5
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"dim": n, "names": [f"e{i}" for i in range(n)], "grading": [[False]] * n, "structure": []}))
    for fmt in ("text", "json"):
        code, out, err = run_cli(capsys, "inspect", "--algebra", str(path), "--format", fmt)
        assert (code, out) == (1, "")
        assert err == f"error: dim {n} is too large: a document holds at most 64 basis elements\n"


@pytest.mark.parametrize("n", [65, 200])
def test_inspect_of_a_dimension_above_the_ceiling_exits_1_before_it_allocates(tmp_path, capsys, n):
    # a 2-row dim-200 document fits in memory, but its validation's n^4 Jacobi array needs 11.9 GiB: the ceiling
    # refuses it while the parsed document is all there is
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"dim": n, "names": [f"e{i}" for i in range(n)], "grading": [[i > 0] for i in range(n)],
                                "structure": [[0, 1, 1, 1], [1, 0, 1, -1]]}))
    tracemalloc.start()
    try:
        for fmt in ("text", "json"):
            code, out, err = run_cli(capsys, "inspect", "--algebra", str(path), "--format", fmt)
            assert (code, out) == (1, "")
            assert err == f"error: dim {n} is too large: a document holds at most 64 basis elements\n"
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()


def test_inspect_of_a_dimension_at_the_ceiling_is_validated(tmp_path, capsys):
    n = 64
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"dim": n, "names": [f"e{i}" for i in range(n)], "grading": [[i > 0] for i in range(n)],
                                "structure": [[0, 1, 1, 1], [1, 0, 1, -1]]}))
    assert run_cli(capsys, "inspect", "--algebra", str(path)) == (0, f"dimension: 64\ngrading blocks: 0=1 1=63\n"
                                                                       "validation: valid\n", "")


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


def test_a_params_file_that_is_not_a_table_exits_1(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text("[1, 0, 1, 1]")
    assert run_cli(capsys, "check-nr", "--params", str(path)) == (
        1, "", f"error: parameter file {path} must hold a table of t, u, v, w\n")


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


_GENERIC = ("--t", "1", "--u", "0.3", "--v", "1.2", "--w", "0.8")
_RELATIVE = [(command, *_GENERIC) for command in ("tables", "ricci", "isometries", "check-nr", "ledger")]
_RELATIVE += [("solve", "--branch", "u0", "--S", "5"), ("sweep", "--branch", "u1", "--S-min", "0.4", "--S-max", "1.4")]


@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize("argv", _RELATIVE, ids=lambda argv: argv[0])
def test_a_relative_tolerance_of_1_or_more_exits_1(capsys, monkeypatch, argv, source):
    # every verdict but inspect's is relative, so at tol 1 each passed: at this generic point isometries printed
    # dimension 8, check-nr true and ledger "satisfied"
    for tol in ("1", "1e308"):
        if source == "env":
            monkeypatch.setenv("ZKSYM_TOL", tol)
        flag = ("--tol", tol) if source == "flag" else ()
        assert run_cli(capsys, *argv, *flag) == (1, "", f"error: tolerance must be below 1, got {float(tol):g}\n")


def test_inspect_keeps_its_absolute_tolerance_above_1(capsys, tmp_path):
    path = tmp_path / "so5.json"
    path.write_text(json.dumps(algebra_to_dict(build_so5())))
    for argv in (("inspect", "--tol", "10"), ("inspect", "--algebra", str(path), "--tol", "10")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "") and "validation: valid" in out


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


def _library_reply(command: str, p, tol: float) -> dict:
    """A point command's JSON reply as one dict of the public library's values, in the order the CLI writes it."""
    head = {"params": {"t": p.t, "u": p.u, "v": p.v, "w": p.w}, "tol": tol}
    if command == "tables":
        return {"frame": list(zksym.FRAME_NAMES), **head, "bracket": zksym.bracket_table(p).tolist(),
                "u": zksym.u_table(p).tolist()}
    if command == "ricci":
        return {"frame": list(zksym.FRAME_NAMES), **head, "matrix": zksym.ricci(zksym.build_form(p)).tolist()}
    if command == "isometries":
        basis = zksym.infinitesimal_isometries(p, tol).T.tolist()
        return {"frame": list(zksym.FRAME_NAMES), **head, "dimension": len(basis), "basis": basis}
    if command == "check-nr":
        report = zksym.is_naturally_reductive(p, tol)
        return {**head, "naturally_reductive": report.naturally_reductive, "max_u_coefficient": report.max_coefficient,
                "witness": list(report.witness) if report.witness else None}
    max_l, satisfied = zksym.first_ledger_verdict(p, tol)
    return {**head, "max_ledger_residual": max_l, "star_residuals": zksym.ledger_system_residuals(p).tolist(),
            "satisfied": satisfied}


def test_each_point_json_reply_is_json_dumps_of_the_library(capsys):
    # each point command's JSON reply is byte for byte json.dumps of one dict of the library's values, over |t|
    # from 1e-150 to 1e150, K/|t| down to 1e-8, u = 0.0 and -0.0 and v = w included, at two tols
    rng = random.Random(25)
    points = [(1.0, 0.3, 1.2, 0.8), (1.0, 0.0, 1.0, 2.0), (1.0, -0.0, 1.0, 2.0), (1.0, 0.0, 1.0, 1.0),
              (1.0, -0.0, 1.0, 1.0)]
    while len(points) < 120:
        t = 10.0 ** rng.uniform(-150.0, 150.0) * rng.choice([-1.0, 1.0])
        k = 10.0 ** rng.uniform(-8.0, 0.0) if rng.random() < 0.5 else rng.uniform(0.1, 1.0)  # K / |t|
        u = 2.0 * t * t * math.sqrt(1.0 - k * k) * rng.choice([-1.0, 1.0])
        u = rng.choice([0.0, -0.0]) if rng.random() < 0.2 else u
        v, w = (t * 10.0 ** rng.uniform(-2.0, 2.0) * rng.choice([-1.0, 1.0]) for _ in range(2))
        points.append((t, u, v, -v if rng.random() < 0.2 else w))
    assert {math.copysign(1.0, u) for _, u, _, _ in points if u == 0.0} == {1.0, -1.0}
    written = collections.Counter()
    for command in _POINT_COMMANDS:
        for tol in ("1e-9", "0.5"):
            for t, u, v, w in points:
                argv = [command, "--t", repr(t), "--u", repr(u), "--v", repr(v), "--w", repr(w), "--format", "json",
                        "--tol", tol]
                code, out, err = run_cli(capsys, *argv)
                try:  # refused by the K guard or an overflow as the library refuses it, or a non-finite value
                    record = json.dumps(_library_reply(command, zksym.MetricParams(t, u, v, w), float(tol)),
                                        allow_nan=False)
                except (zksym.DegenerateMetricError, ValueError):
                    assert (code, out) == (2, "") and err.startswith("numerical failure: "), argv
                    continue
                assert (code, out, err) == (0, record + "\n", ""), argv
                written[command] += 1
    assert min(written.values()) >= 200 and len(written) == 5


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_tables_json_with_a_non_finite_entry_exits_2(capsys, monkeypatch, bad):
    # a table entry is at most sqrt 2 times the largest ratio, which the program keeps finite, and no admissible
    # point found overflows one, so the entry is planted: the record is refused whole, with the one JSON message
    def table(geo, name, *ratios):
        values = list(original(geo, name, *ratios))
        values[17] = bad
        return tuple(values)

    original = geometry._Geometry.table
    cli._reply.cache_clear()  # a point rendered before has its reply in the memo
    monkeypatch.setattr(geometry._Geometry, "table", table)
    code, out, err = run_cli(capsys, "tables", "--t", "1", "--u", "0.3", "--v", "1.2", "--w", "0.8", "--format", "json")
    assert (code, out, err) == (2, "", "numerical failure: a non-finite number has no JSON form\n")


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


def test_isometries_text_shows_every_nonzero_entry(capsys):
    # at the round point every module is kept at any tol: the basis is the adapted frame, each entry exactly 1
    code, out, _ = run_cli(capsys, "isometries", "--t", "1", "--u", "0", "--v", "1", "--w", "1")
    assert code == 0
    assert out.splitlines() == ["dimension: 8"] + [f"  +1 {name}" for name in metric.FRAME_NAMES]


def test_isometry_entries_are_exact(capsys):
    # u = 0 and w = |t|: the kernel is the B module, whose basis entries are exactly 1 and 0, where an SVD's
    # would read -0.9999999999999999 and 1e-16
    argv = ["isometries", "--t", "-72.95950902050484", "--u", "0.0", "--v", "19.736687683341707",
            "--w", "72.95950902050484"]
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    b1, b2 = [0.0] * 8, [0.0] * 8
    b1[4] = b2[5] = 1.0
    assert json.loads(out)["basis"] == [b1, b2]
    assert run_cli(capsys, *argv)[1].splitlines() == ["dimension: 2", "  +1 B~1", "  +1 B~2"]
    # both A modules are kept or dropped together, by eps_34 = (1.44 - 0.64) / (1.44 + 0.64) = 0.385, though
    # their singular values differ by sqrt(x1 / x2) = 6.2 here: dropped at tol 0.1, kept as A~1..A~4 at tol 0.5,
    # with B and C dropped (eps_124 = eps_123 = 0.95)
    argv = ["isometries", "--t", "-1", "--u", "1.9", "--v", "1.2", "--w", "0.8", "--format", "json", "--tol"]
    assert json.loads(run_cli(capsys, *argv, "0.1")[1])["basis"] == []
    a_block = [[float(i == j) for j in range(8)] for i in range(4)]
    assert json.loads(run_cli(capsys, *argv, "0.5")[1])["basis"] == a_block


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


_U1 = "(0.3333333333333333, 1.4384471871911697)"


@pytest.mark.parametrize("argv,message", [
    (("solve", "--branch", "u1", "--S", "0.3333333333333333"), f"S must lie in the open interval {_U1}, got "
                                                               "0.3333333333333333"),
    (("solve", "--branch", "u1", "--S", "1.43845"), f"S must lie in the open interval {_U1}, got 1.43845"),
    (("solve", "--branch", "u0", "--S", "9.000000000000002"),
     "S must lie in the open interval (1.0, 9.0), got 9.000000000000002"),
    (("solve", "--branch", "u0", "--S", "9"), "S must lie in the open interval (1, 9), got 9"),
    (("solve", "--branch", "u1", "--S", "2"), "S must lie in the open interval (0.333333, 1.43845), got 2"),
    (("sweep", "--branch", "u1", "--S-min", "0.3333333333333333", "--S-max", "1"),
     "sweep range must satisfy 0.3333333333333333 < S-min <= S-max < 1.4384471871911697"),
    (("sweep", "--branch", "u0", "--S-min", "2", "--S-max", "9.000000000000002"),
     "sweep range must satisfy 1.0 < S-min <= S-max < 9.0"),
    (("sweep", "--branch", "u0", "--S-min", "1", "--S-max", "2"), "sweep range must satisfy 1 < S-min <= S-max < 9"),
    (("sweep", "--branch", "u0", "--S-min", "5", "--S-max", "4"), "sweep range must satisfy 1 < S-min <= S-max < 9"),
])
def test_an_s_that_g_prints_as_a_bound_is_quoted_by_repr(capsys, argv, message):
    # the refusal quotes S and the bounds by %g where it tells S from each bound or prints the two equal
    # exactly (S = 9 is the bound 9), else by repr: at S = 1/3 %g wrote "(0.333333, 1.43845), got 0.333333"
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_a_sweep_of_fewer_than_one_step_exits_1(capsys, steps):
    argv = ("sweep", "--branch", "u0", "--S-min", "2", "--S-max", "3", "--S-steps", steps)
    assert run_cli(capsys, *argv) == (1, "", "error: S-steps must be at least 1\n")


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


@pytest.mark.parametrize("branch,first,last,n", [("u0", 1.5, 8.5, 7), ("u1", 0.34, 1.43, 5)])
def test_sweep_in_text_prints_the_lines_of_solve_at_each_s(capsys, branch, first, last, n):
    # --format text prints, S by S, what solve --format text prints there; the default stays JSON, and a failed
    # verification ends either format with the same stderr line
    argv = ("sweep", "--branch", branch, "--S-min", repr(first), "--S-max", repr(last), "--S-steps", str(n))
    solved = "".join(run_cli(capsys, "solve", "--branch", branch, "--S", repr(s))[1]
                     for s in np.linspace(first, last, n).tolist())
    assert len(solved.splitlines()) == n * (2 if branch == "u0" else 4)
    for spelling in (("--format", "text"), ("--format=text",), ("--form", "text")):  # the table and argparse
        assert run_cli(capsys, *argv, *spelling) == (0, solved, "")
    default = run_cli(capsys, *argv)
    assert default == run_cli(capsys, *argv, "--format", "json") == run_cli(capsys, *argv, "--format=json")
    code, out, err = run_cli(capsys, *argv, "--format", "text", "--tol", "1e-300")
    assert (code, out) == (2, solved) and (code, err) == run_cli(capsys, *argv, "--tol", "1e-300")[::2]


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
    # D_1 is 8.6e50 at the unit scale and L 7e325 at the point's: the program refuses the point, as every command
    argv = ("ledger", "--t", "-9.42892081319446e-80", "--u", "1.7780714471072755e-158",
            "--v", "-9.07772418158703e-105", "--w", "-9.750089198671494e-93", "--format", fmt)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "numerical failure: the curvature tensors overflow at this scale\n"


_NORM_OVERFLOW = ("--t", "4.19437676302152e-103", "--u", "-2.549485577789607e-205", "--v", "2.798135523751015e-103",
                  "--w", "3.7156504862124026e-103")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_ledger_where_the_norm_of_l_overflows_reads_a_verdict(capsys, monkeypatch, fmt):
    # max|L| = 7.5e307 is finite here, but ||L|| at the point's scale is not: the evaluation scales it by
    # geometry._ldexp, which gives +inf where math.ldexp raises OverflowError, so ledger prints its verdict, exit 0
    code, out, err = run_cli(capsys, "ledger", *_NORM_OVERFLOW, "--format", fmt)
    assert (code, err) == (0, "")
    if fmt == "json":
        record = json.loads(out)
        assert (record["max_ledger_residual"], record["satisfied"]) == (7.487666550072132e+307, False)
    else:
        assert "max |L| over frame triples: 7.48767e+307\n" in out and out.endswith("first Ledger condition violated\n")
    p = metric.MetricParams(*map(float, _NORM_OVERFLOW[1::2]))
    assert geometry._cached_geometry(p).evaluation()[0] == math.inf
    monkeypatch.setattr(geometry, "_ldexp", math.ldexp)
    with pytest.raises(OverflowError):
        analysis.first_ledger_verdict(p)


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


def _interval_ends():
    """The first and last float inside each branch's interval."""
    for branch, (lo, hi) in (("u0", analysis.S_INTERVAL_U0), ("u1", analysis.S_INTERVAL_UNONZERO)):
        yield from ((branch, math.nextafter(lo, hi)), (branch, math.nextafter(hi, lo)))


@pytest.mark.parametrize("branch,s", [("u0", 5.0), ("u1", 1.0), *_interval_ends()])
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
        assert fields["branch"] == rec["branch"]
        assert fields["S"] == f"{rec['S']:.6g}"
        assert fields["V"] == f"{rec['V']:.6g}" and fields["W"] == f"{rec['W']:.6g}"
        assert [fields[k] for k in "uvw"] == [f"{rec['params'][k]:.6g}" for k in "uvw"]
        assert fields["ledger"] == f"{rec['residuals']['ledger']:.3g}"
        assert fields["star"] == f"{rec['residuals']['star']:.3g}"
        assert fields["NR"] == ("true" if rec["naturally_reductive"] else "false")
    if branch == "u1":  # each -u line is its +u twin's but in u's sign, in text as in JSON
        assert [rec["params"]["u"] for rec in records] == [u for rec in records[::2] for u in (rec["params"]["u"],
                                                                                              -rec["params"]["u"])]
        for lines in (text.splitlines(), swept.splitlines()):
            assert lines[1::2] == [line.replace(" u=", " u=-").replace('"u": ', '"u": -') for line in lines[::2]]


_BRANCHES = {"u0": (analysis.solve_ledger_u0, analysis.S_INTERVAL_U0),
             "u1": (analysis.solve_ledger_unonzero, analysis.S_INTERVAL_UNONZERO)}


def _records(solutions) -> str:
    return "".join(json.dumps(sol.to_dict()) + "\n" for sol in solutions)


@pytest.mark.parametrize("branch", list(_BRANCHES))
def test_solve_and_sweep_records_are_json_dumps_of_to_dict(capsys, branch):
    # the records are written from a template: byte for byte json.dumps of the library's LedgerSolution.to_dict()
    solve, (lo, hi) = _BRANCHES[branch]
    for s in [lo + 10.0 ** -k for k in range(1, 11)] + [hi - 10.0 ** -k for k in range(1, 11)]:
        code, out, err = run_cli(capsys, "solve", "--branch", branch, "--S", repr(s), "--format", "json")
        assert (code, out, err) == (0, _records(solve(s)), ""), s
    # dense grids over the whole interval and within 1e-6 of each end, reaching 1e-10 from both
    for first, last, n in ((lo + 1e-10, hi - 1e-10, 301), (lo + 1e-10, lo + 1e-6, 64), (hi - 1e-6, hi - 1e-10, 64)):
        argv = ("sweep", "--branch", branch, "--S-min", repr(first), "--S-max", repr(last), "--S-steps", str(n))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (0, _records(solve(*np.linspace(first, last, n).tolist())), ""), argv


def _text_records(solutions) -> str:
    return "".join(f"branch={sol.branch} S={sol.S:.6g} V={sol.V:.6g} W={sol.W:.6g} u={sol.params.u:.6g} "
                   f"v={sol.params.v:.6g} w={sol.params.w:.6g} ledger={sol.residuals['ledger']:.3g} "
                   f"star={sol.residuals['star']:.3g} NR={'true' if sol.naturally_reductive else 'false'}\n"
                   for sol in solutions)


@pytest.mark.parametrize("branch", list(_BRANCHES))
def test_solve_and_sweep_text_records_are_the_library_solutions(capsys, branch):
    # each text line is formatted from its orbit's first row, permuted and signed: it reads the fields of the
    # library's LedgerSolution, %.6g and the residuals .3g
    solve, (lo, hi) = _BRANCHES[branch]
    for s in [lo + 10.0 ** -k for k in range(1, 11)] + [hi - 10.0 ** -k for k in range(1, 11)]:
        assert run_cli(capsys, "solve", "--branch", branch, "--S", repr(s)) == (0, _text_records(solve(s)), ""), s
    for first, last, n in ((lo + 1e-10, hi - 1e-10, 301), (lo + 1e-10, lo + 1e-6, 64), (hi - 1e-6, hi - 1e-10, 64)):
        argv = ("sweep", "--branch", branch, "--S-min", repr(first), "--S-max", repr(last), "--S-steps", str(n))
        code, out, err = run_cli(capsys, *argv, "--format", "text")
        assert (code, out, err) == (0, _text_records(solve(*np.linspace(first, last, n).tolist())), ""), argv


@pytest.mark.parametrize("tol", [1e-9, 5e-16, 1e-300])
@pytest.mark.parametrize("branch", list(_BRANCHES))
def test_the_cli_verdict_is_verify_solutions(capsys, branch, tol):
    # the CLI judges each record by the eta its solve formed: its exit code and stderr line are what verify_solution
    # over the library's solutions gives, the failure count and the first worst report, at seeded S, at the first
    # and last float of the interval and over two sweeps that span it, one of more steps than the 256-entry geometry
    # cache holds, where the worst failed orbit's geometry may have left the cache when the failure line is formed
    solve, (lo, hi) = _BRANCHES[branch]
    first, last = math.nextafter(lo, hi), math.nextafter(hi, lo)
    grids = [[s] for s in [first, last, *np.random.default_rng(41).uniform(lo, hi, 12).tolist()]]
    grids += [np.linspace(first, last, n).tolist() for n in (60, 300)]
    verdicts = set()
    for grid in grids:
        reports = [analysis.verify_solution(sol, tol) for sol in solve(*grid)]
        failed = [report for report in reports if not report.passed]
        want = (0, "")
        if failed:  # max keeps the first of equal reports
            worst = max(failed, key=lambda report: max(report.relative_residuals.values()))
            want = (2, f"numerical failure: {len(failed)} of {len(reports)} solutions fail verification, worst: "
                       f"{worst.summary()}\n")
        verdicts.add(want[0])
        if len(grid) == 1:
            argvs = [("solve", "--branch", branch, "--S", repr(grid[0]), "--format", fmt) for fmt in ("text", "json")]
        else:
            argvs = [("sweep", "--branch", branch, "--S-min", repr(first), "--S-max", repr(last), "--S-steps",
                      str(len(grid)))]
        for argv in argvs:
            code, _, err = run_cli(capsys, *argv, "--tol", repr(tol))
            assert (code, err) == want, argv
    if tol == 1e-9:
        assert verdicts == {0}  # every record verifies at the default tol
    elif tol == 1e-300:
        assert 2 in verdicts


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("key", ["S", "V", "W", "Usq", "ledger", "star", "gram"])
@pytest.mark.parametrize("argv,grid,planted", [
    (("solve", "--branch", "u1", "--S", "1", "--format", "json"), [1.0], 0),  # its only S
    (("sweep", "--branch", "u0", "--S-min", "2", "--S-max", "8", "--S-steps", "40"),
     np.linspace(2, 8, 40).tolist(), 35),  # its 36th S
], ids=["solve", "sweep"])
def test_a_non_finite_solution_record_exits_2(capsys, monkeypatch, argv, grid, planted, key, bad):
    # the solvers' numbers are finite wherever they return, so one is planted into one S, a Weyl orbit, whose records
    # are written at once: the records of the S before it print (none on solve, 70 on sweep), then the one JSON
    # message, exit 2
    original = cli._orbits

    def orbits(branch, grid):
        for i, (name, s, rows, p, (r, eta, nr)) in enumerate(original(branch, grid)):
            if i == planted:  # into the first row, whose numbers every record of the orbit is written from
                (vv, ww, u), rest = rows[0], rows[1:]
                row = {"V": (bad, ww, u), "W": (vv, bad, u), "Usq": (vv, ww, bad)}.get(key, (vv, ww, u))
                s, rows, r = bad if key == "S" else s, [row, *rest], {**r, key: bad} if key in r else r
            yield name, s, rows, p, (r, eta, nr)

    monkeypatch.setattr(cli, "_orbits", orbits)
    code, out, err = run_cli(capsys, *argv)
    solve = _BRANCHES[argv[2]][0]
    message = "numerical failure: a non-finite number has no JSON form\n"
    assert (code, out, err) == (2, _records(solve(*grid[:planted])), message)


def test_solve_flags_natural_reductivity_at_the_default_tol_whatever_tol_is(capsys):
    # documented: the record's flag is check-nr's verdict at DEFAULT_TOL, which verify_solution's exact expectation
    # needs, so at --tol 0.5 solve and check-nr read the same point differently (eps_1234 = 0.35)
    point = {"t": 1.0, "u": 0.0, "v": 0.8040190354753588, "w": 1.1634231348023272}
    code, out, err = run_cli(capsys, "solve", "--branch", "u0", "--S", "2", "--tol", "0.5", "--format", "json")
    assert code == 0 and err == ""
    assert [r["naturally_reductive"] for r in map(json.loads, out.splitlines()) if r["params"] == point] == [False]
    code, out, _ = run_cli(capsys, "solve", "--branch", "u0", "--S", "2", "--tol", "0.5")
    assert code == 0 and [line[-8:] for line in out.splitlines() if " v=0.804019 w=1.16342 " in line] == ["NR=false"]
    argv = ("check-nr", "--t", "1", "--u", "0", "--v", repr(point["v"]), "--w", repr(point["w"]), "--tol", "0.5")
    assert run_cli(capsys, *argv) == (0, "true\n", "")


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
# the option table, and one parser per process for what it declines
# ----------------------------------------------------------------------

def test_main_builds_the_parser_once(capsys, monkeypatch):
    build, built = cli.build_parser, []

    def counting_build_parser():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    # a well-formed command line is read from the option table: no parser
    for argv in (("inspect",), ("ricci", *_POINT), ("solve", "--branch", "u0", "--S", "5"), ("solve", "--branch", "u0")):
        run_cli(capsys, *argv)
    assert built == []
    # the first argv the table declines builds the parser, and later ones reuse it
    for argv in (("ricci", "--nope", "1"), ("solve", "--br", "u0", "--S=5"), ("ricci", *_POINT, "--form", "json")):
        run_cli(capsys, *argv)
    assert len(built) == 1


def _outcome(argv) -> tuple[object, str, str]:
    """Exit code (or SystemExit code, for help), stdout and stderr of one in-process main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _argparse_outcome(argv) -> tuple[object, str, str]:
    """_outcome with the option table reader and the memo key declining every argv, so argparse parses it and no
    kept reply answers it."""
    with mock.patch.object(cli, "_read_argv", lambda argv: None), mock.patch.object(cli, "_key", lambda argv: None):
        return _outcome(argv)


_ALL_FLAGS = sorted({flag for flags in cli._FLAGS.values() for flag in flags})
_ODD_FLAGS = ["--form", "--br", "--S-m", "--S-st", "--par", "--tol=1e-3", "--format=json", "--S=5", "--t=-1",
              "--", "-h", "--help", "--nope", "-t"]
_VALUES = ["-5.8e-05", "-1E-3", "-inf", "inf", "nan", "1_0", " 5", "5 ", "", "-", "-.5", "-0", "0x10", "9" * 401,
           "text", "json", "xml", "JSON", "u0", "u1", "u2", "1", "2", "3", "5", "0.5", "-2", "1e-300", "1e400"]


@st.composite
def _command_lines(draw) -> list[str]:
    """A command (or not), then flag-value pairs mostly of its own flags, with odd flags and stray tokens mixed in."""
    command = draw(st.sampled_from([*cli._COMMANDS, "tab", "-h", ""]))
    own = sorted(cli._FLAGS.get(command, _ALL_FLAGS))
    argv = [command]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 9))
        if kind < 6:
            argv += [draw(st.sampled_from(own)), draw(st.sampled_from(_VALUES))]
        elif kind < 8:
            argv += [draw(st.sampled_from(_ALL_FLAGS + _ODD_FLAGS)), draw(st.sampled_from(_VALUES))]
        else:
            argv.append(draw(st.sampled_from(_ALL_FLAGS + _ODD_FLAGS + _VALUES)))
    return argv


@settings(max_examples=300, deadline=None)
@given(_command_lines())
# each command with only its required options: its defaults, on every run
@example(["inspect"])
@example(["tables", *_POINT])
@example(["solve", "--branch", "u0"])
@example(["sweep", "--branch", "u1", "--S-min", "0.4", "--S-max", "1.4"])
@example(["ricci", *_POINT, "--u", "-5.8e-05", "--tol", "-1E-3"])
@example(["ricci", *_POINT, "--t", "-inf"])
@example(["check-nr", *_POINT, "--v", "nan", "--w", "1_0", "--t", " 5"])
@example(["sweep", "--branch", "u0", "--S-min", "2", "--S-max", "3", "--S-steps", "9" * 401])
@example(["sweep", "--branch", "u0", "--S-min", "2", "--S-max", "3"])
@example(["sweep", "--branch", "u0", "--S-max", "3"])
@example(["solve", "--branch", "u2", "--S", "5"])
@example(["solve", "--S", "5", "--branch", "u1", "--branch", "u0", "--S", "4", "--format", "json"])
@example(["ledger", *_POINT, "--format", "xml"])
@example(["ledger", *_POINT, "--params", ""])
@example(["tables", *_POINT, "--params", "-"])
@example([])
def test_the_option_table_reads_argv_as_argparse_does(argv):
    namespace = cli._read_argv(argv)
    if namespace is not None:
        # repr tells nan from nan and 10 from 10.0
        reference = cli.build_parser().parse_args(argv)
        assert {k: repr(v) for k, v in vars(namespace).items()} == {k: repr(v) for k, v in vars(reference).items()}
    assert _outcome(argv) == _argparse_outcome(argv)


# sha256 over the exit code, stdout and stderr at 80 columns, recorded under Python 3.11 when
# argparse parsed every argv: help, usage errors and the spellings only argparse reads
_HELP_AND_USAGE = {
    ("-h",): "5434de3a2d45aba2e5fd4dd1d1d5bd6c29eb789693eebe57b74e85bcbdee4912",
    ("inspect", "-h"): "5cd6b68c9677a6f1c3410ae0a1ef335bde1e3b584c9fefb868c375afc51be178",
    ("tables", "-h"): "9147d1241d3304dd235db65841afa09f6859318a46f1b542c41243cc26186640",
    ("ricci", "-h"): "2a3d21514549ee728c832aaa77297145b81c3f40d5a1be9e6c959b3bab06f692",
    ("isometries", "-h"): "fba7152dfaf655ecc6e311de9d0f91e1ee645c944f137f9e85e2b59b49d26738",
    ("check-nr", "-h"): "ef9d7fe9dabba2e693dcc74d3dfad5c333e945216c91679b43ef81619d66a619",
    ("ledger", "-h"): "b7a211c433a84e49838a0707878255055bd8e0e268b030cfa310815c8620b183",
    ("solve", "-h"): "258a40464bb9b729d11fb20763976435ebb3df9b90189b42b6840399967bea13",
    ("sweep", "-h"): "acbe4458057456f6f86c8fc68c0105add7a7f238aaa5373f20a41beeca35780e",
    (): "92395aeb452224cec80df6e2a35d14fe0d12f006c587ff798bfb429da298b498",
    ("nope",): "04bd45f7ec8251ad5857315283eba171e4bff479c7fad449410c84ad66085a27",
    ("--form", "json"): "ee0e9f083502cb7cebf4260fe1c2ab5ae857e41352d7bafce873d53606b22ed8",
    ("ricci", *_POINT, "--form", "json"): "c7327f64441ff76dd3107e5177e1634106985b5bbca7c86c59e47681441071bc",
    ("solve", "--br", "u0", "--S=5"): "e76250e7d1d08aa468ca6a6f6f4da985fb82606ac0b68cc12a6bb180920ef182",
    ("ricci", "--nope", "1"): "48da723bae4d6b517a158008eb0dec9e5553a584e0296e9513170f6b70841c45",
    ("solve", "--branch", "u0"): "132b487fe91b70eef642958d5849a6427c0cc0d121eeb333732f6854d1ae4cfd",
    ("solve", "--S", "5"): "86ec6fe37b7cd4dc6e870fe79ad63f3ffd235a78a47ac66a85bfb62a920ae381",
    ("tables", *_POINT, "--format", "xml"): "30e9e1a06c6308354e7aab03f9d5aace5704aa6e833de1704ef4f3f98fe32a19",
    ("ricci", "--t", "-inf", "--u", "1", "--v", "1", "--w", "2"):
        "c1f3874b299eaddf75cb5e68e7afd062fd0b74b795b3432f09f50342356f9085",
    ("ledger", *_POINT, "--tol=-1E-3"): "54f79332709f7cdcbe4fad3a00ceef41954dee8ab8bed17bb47ef5f81bd828cd",
    ("sweep", "--branch", "u0", "--S", "2", "--S-max", "3"):
        "9200d4d1fe87e67f66b3139ca210a3495fc0edce6d8f0330f54e1d991f1e892a",
    ("sweep", "--branch", "u0", "--S-min", "2", "--S-max", "3", "--S-steps", "2.5"):
        "87f3c6aec2d23e8ce57f3af6cd94cab6c2ec274483e8acbdd4b90df95c9f97be",
    ("ricci", "--t", "5", *_POINT): "0a8bc8ba2f53332cdb9c93b17344f082a94540b83c50bc2bdf64947dbb6e5849",
    ("tables", *_POINT, "--", "x"): "70af0fc5dcfd2d19afef7fb5b85815bdea4dabad4354e804d2763abfdc6b4038",
    ("ricci", *_POINT, "--t"): "c1f3874b299eaddf75cb5e68e7afd062fd0b74b795b3432f09f50342356f9085",
}


@pytest.mark.parametrize("argv", list(_HELP_AND_USAGE), ids=" ".join)
def test_help_and_usage_errors_are_pinned(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its help text to the terminal width
    monkeypatch.delenv("ZKSYM_TOL", raising=False)
    code, out, err = _outcome(argv)
    assert (code, out, err) == _argparse_outcome(argv)
    if sys.version_info[:2] == (3, 11):  # argparse's wording changes between Python versions
        assert hashlib.sha256(f"{code}\n{out}\0{err}".encode()).hexdigest() == _HELP_AND_USAGE[argv]


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
    """Record the point of every _Geometry built and of every residual evaluation."""
    builds, evaluations = [], []
    init, evaluate = geometry._Geometry.__init__, analysis._evaluate

    def counting_init(self, p):
        builds.append(p)
        init(self, p)

    def counting_evaluate(p):
        evaluations.append(p)
        return evaluate(p)

    monkeypatch.setattr(geometry._Geometry, "__init__", counting_init)
    monkeypatch.setattr(analysis, "_evaluate", counting_evaluate)
    return builds, evaluations


def _orbit_point(p):
    """The point whose geometry a solution's evaluation reads: (t, |u|, and v, w ordered by |.|)."""
    v, w = sorted((p.v, p.w), key=abs)
    return dataclasses.replace(p, u=abs(p.u), v=v, w=w)


@pytest.mark.parametrize("branch,s,n", [("u1", "1.1", 4), ("u0", "5", 2)])
def test_solve_builds_one_geometry_per_solution(capsys, monkeypatch, branch, s, n):
    # the N = 2 or 4 solutions of one S are one Weyl orbit (u -> -u, v <-> w):
    # the solver evaluates its first row once, at the orbit's point, every
    # other row takes that evaluation, and the CLI judges each solution by
    # the eta its solve formed: one geometry, built through the cache, no
    # Gram factorization, no form (the Gram defect is a closed form), and
    # the reductivity query never runs
    builds, evaluations = _counting_geometries(monkeypatch)
    forms = _count_calls(monkeypatch, metric.build_form)
    nr_tests = _count_calls(monkeypatch, analysis.is_naturally_reductive)
    cholesky, factorizations = _counting(np.linalg.cholesky)
    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    geometry._cached_geometry.cache_clear()
    code, out, _ = run_cli(capsys, "solve", "--branch", branch, "--S", s)
    assert code == 0
    assert len(out.splitlines()) == n
    assert len(builds) == len(evaluations) == 1 and list(map(_orbit_point, evaluations)) == builds
    assert builds[0].u >= 0.0 and abs(builds[0].v) <= abs(builds[0].w)
    assert (len(forms), len(nr_tests), len(factorizations)) == (0, 0, 0)
    # the orbit's geometry went into the cache, computed nowhere else
    info = geometry._cached_geometry.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 0, 1)


@pytest.mark.parametrize("branch,s,n", [("u1", "1.1", 4), ("u0", "5", 2)])
def test_solve_and_its_verifications_evaluate_each_point_once(capsys, monkeypatch, branch, s, n):
    # the solver evaluates each S once, every other row of its Weyl orbit taking the first row's evaluation, and each
    # verification evaluates its solution's point, that of a hand-built solution at the same params too: every record
    # of the orbit reads the one geometry its solve built, which keeps no evaluation, so the evaluation (eta and the
    # round-point verdict, with the Gram defect that _evaluate forms from the params) is formed on each read and
    # nothing else is
    formed = _count_calls(monkeypatch, metric._gram_defect)
    counting_equal, equals = _counting(geometry._Geometry.equal)
    monkeypatch.setattr(geometry._Geometry, "equal", counting_equal)
    builds, evaluations = _counting_geometries(monkeypatch)
    geometry._cached_geometry.cache_clear()
    code, out, _ = run_cli(capsys, "solve", "--branch", branch, "--S", s, "--format", "json")
    assert code == 0 and len(out.splitlines()) == n
    assert len(builds) == len(evaluations) == 1 and list(map(_orbit_point, evaluations)) == builds
    assert len(formed) == len(equals) == 1
    for record in map(json.loads, out.splitlines()):
        p = metric.MetricParams(**record["params"])
        hand_built = analysis.LedgerSolution(record["branch"], record["S"], record["V"], record["W"], record["Usq"],
                                             p, {}, False)
        report = analysis.verify_solution(hand_built)
        assert report.passed and report.residuals == record["residuals"]
    assert len(builds) == 1 and len(formed) == len(equals) == 1 + n


def test_a_cached_ledger_query_forms_its_reduced_system_once(capsys, monkeypatch):
    # the reply memo answers a repeated ledger query, so its reduced system is formed once; the point's geometry
    # keeps no reduced system, so the text reply at the same point forms it again
    counting, formed = _counting(geometry._Geometry.reduced_system.fget)
    monkeypatch.setattr(geometry._Geometry, "reduced_system", property(counting))
    geometry._cached_geometry.cache_clear()
    cli._reply.cache_clear()
    first = run_cli(capsys, "ledger", *_POINT, "--format", "json")
    assert first[0] == 0 and run_cli(capsys, "ledger", *_POINT, "--format", "json") == first
    assert len(formed) == 1
    assert run_cli(capsys, "ledger", *_POINT)[0] == 0
    assert len(formed) == 2 and geometry._cached_geometry.cache_info().currsize == 1


def test_a_solution_its_copy_and_a_hand_built_one_verify_alike():
    for sol in analysis.solve_ledger_unonzero(0.4, 1.1) + analysis.solve_ledger_u0(1.5, 5.0):
        p = sol.params
        copy = dataclasses.replace(sol, params=dataclasses.replace(p))
        hand_built = analysis.LedgerSolution(sol.branch, sol.S, sol.V, sol.W, sol.Usq,
                                             metric.MetricParams(p.t, p.u, p.v, p.w), {}, False)
        report = analysis.verify_solution(sol)
        assert report.passed and report.residuals == sol.residuals
        assert analysis.verify_solution(copy) == report == analysis.verify_solution(hand_built)


def test_verifying_a_solves_cached_outputs_builds_no_geometry(monkeypatch):
    builds, evaluations = _counting_geometries(monkeypatch)
    geometry._cached_geometry.cache_clear()
    sols = analysis.solve_ledger_unonzero(1.1) + analysis.solve_ledger_u0(5.0)
    # the solutions of one S, a Weyl orbit, read one geometry, and their solve evaluates it once, at the orbit's point
    # (t, |u|, and v, w ordered by |.|), whose evaluation every solution of the orbit takes
    assert len(builds) == len(evaluations) == 2 and evaluations == builds
    assert builds == [_orbit_point(sols[0].params), sols[4].params]
    assert all(analysis.verify_solution(sol).passed for sol in sols)
    assert len(builds) == 2 and evaluations[2:] == [sol.params for sol in sols]


def test_a_solve_larger_than_the_cache_still_verifies_every_solution(monkeypatch):
    # 1200 solutions read 300 geometries, one per S (a Weyl orbit of four);
    # the cache keeps the newest 256, and a pass over all 1200 in order then
    # misses at the first solution of each S and hits at the other three:
    # every point is built again, once
    builds, _ = _counting_geometries(monkeypatch)
    geometry._cached_geometry.cache_clear()
    sols = analysis.solve_ledger_unonzero(*np.linspace(0.4, 1.4, 300).tolist())
    assert len(sols) == 1200 and len(builds) == 300 and geometry._cached_geometry.cache_info().currsize == 256
    assert all(analysis.verify_solution(sol).passed for sol in sols)
    assert len(builds) == 600 and builds[300:] == builds[:300]


def test_sweep_streams_the_records_of_one_solve_per_s(capsys, monkeypatch):
    # 70 S values are drawn one at a time, each after the 4 records of the
    # one before have printed, and print exactly what 70 single solves
    # print, in grid order
    orbits, printed = cli._orbits, []

    def counting_orbits(branch, grid):
        def drawn():
            for s in grid:
                printed.append(capsys.readouterr().out)
                yield s
        return orbits(branch, drawn())

    monkeypatch.setattr(cli, "_orbits", counting_orbits)
    capsys.readouterr()
    code = main(["sweep", "--branch", "u1", "--S-min", "0.34", "--S-max", "1.43", "--S-steps", "70"])
    swept = "".join(printed) + capsys.readouterr().out
    assert code == 0
    assert [out.count("\n") for out in printed] == [0] + [4] * 69
    solved = ""
    for s in np.linspace(0.34, 1.43, 70).tolist():
        code, out, _ = run_cli(capsys, "solve", "--branch", "u1", "--S", repr(s), "--format", "json")
        assert code == 0
        solved += out
    assert swept == solved


def test_each_sweep_verification_reads_the_geometry_its_solve_built(capsys, monkeypatch):
    # with a geometry cache of 1 point, the one geometry of each S still fits: every solution of one S, a Weyl orbit,
    # reads the geometry its first row built, and each record is judged by the eta its solve formed, so 40 S print
    # 160 records from 40 geometries, not 80, 160 or 320
    builds = []

    class CountingGeometry(geometry._Geometry):
        def __init__(self, p):
            builds.append(p)
            super().__init__(p)

    monkeypatch.setattr(geometry, "_cached_geometry", functools.lru_cache(maxsize=1)(CountingGeometry))
    code, out, _ = run_cli(capsys, "sweep", "--branch", "u1", "--S-min", "0.34", "--S-max", "1.43", "--S-steps", "40")
    assert code == 0
    assert len(out.splitlines()) == 160 and len(builds) == 40


def test_the_sweep_grid_is_that_of_np_linspace(capsys, monkeypatch):
    # S-min + i step in floats, the last S S-max: np.linspace's arithmetic, bit for bit
    grids = []
    monkeypatch.setattr(cli, "_orbits", lambda branch, grid: grids.extend(grid) or [])
    rng = np.random.default_rng(19)
    cases = [(1.000001, 8.999999, 1000), (1.5, 8.5, 1), (2.0, 2.0, 7), (1.5, 8.5, 2)]
    for _ in range(200):
        lo, hi = sorted(rng.uniform(1.0, 9.0, 2).tolist())
        cases.append((lo, hi, int(rng.integers(1, 300))))
    for lo, hi, n in cases:
        grids.clear()
        argv = ("sweep", "--branch", "u0", "--S-min", repr(lo), "--S-max", repr(hi), "--S-steps", str(n))
        assert run_cli(capsys, *argv) == (0, "", "")
        assert grids == np.linspace(lo, hi, n).tolist(), (lo, hi, n)


class _KeptStdout(io.TextIOBase):
    """A stdout whose reader keeps every record."""

    def __init__(self):
        self.records = []

    def write(self, text):
        self.records.append(text)
        return len(text)


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("branch,first,last", [("u0", "1.5", "8.5"), ("u1", "0.34", "1.43")])
def test_a_solve_admits_one_point_and_writes_once_per_s(monkeypatch, branch, first, last, fmt):
    # the records of one S are one Weyl orbit: a passing solve or sweep admits one MetricParams per S, its orbit's
    # point, builds no LedgerSolution and writes the S's records, each line with its newline, in one write; a failing
    # sweep does the same, and its failure line reports the worst orbit's own evaluation, with no second admission
    admit, admissions = _counting(metric.MetricParams.__init__)
    build, solutions = _counting(analysis.LedgerSolution.__init__)
    monkeypatch.setattr(metric.MetricParams, "__init__", admit)
    monkeypatch.setattr(analysis.LedgerSolution, "__init__", build)
    n = 2 if branch == "u0" else 4
    sweep = ["sweep", "--branch", branch, "--S-min", first, "--S-max", last, "--S-steps", "40", "--format", fmt]
    for argv, steps in ((["solve", "--branch", branch, "--S", first, "--format", fmt], 1), (sweep, 40)):
        monkeypatch.setattr(sys, "stdout", _KeptStdout())
        admissions.clear()
        assert main(argv) == 0
        writes = sys.stdout.records
        assert len(admissions) == len(writes) == steps and solutions == []
        assert all(text.count("\n") == n and text.endswith("\n") for text in writes), argv
    monkeypatch.setattr(sys, "stdout", _KeptStdout())
    admissions.clear()
    assert main(sweep + ["--tol", "1e-300"]) == 2
    assert len(sys.stdout.records) == 40 and solutions == [] and len(admissions) == 40


def _kept_sweep_peak_bytes(monkeypatch, steps: int, failing: bool = False) -> tuple[int, int]:
    """The peak of what Python allocates in a sweep whose reader keeps its records, and what those records hold;
    a failing sweep runs at tol 1e-300, where most records fail their verification, and exits 2."""
    monkeypatch.setattr(sys, "stdout", _KeptStdout())
    argv = ["sweep", "--branch", "u0", "--S-min", "1.5", "--S-max", "8.5", "--S-steps", str(steps)]
    tracemalloc.start()
    try:
        assert main(argv + ["--tol", "1e-300"] * failing) == 2 * failing
        records = sys.stdout.records
        return tracemalloc.get_traced_memory()[1], sys.getsizeof(records) + sum(map(sys.getsizeof, records))
    finally:
        tracemalloc.stop()


def test_sweep_memory_does_not_grow_with_the_grid(monkeypatch):
    # beyond the records its reader keeps, 1200 steps hold what 200 do: one S is solved at a time, so the
    # solutions held do not grow with the grid (2400 solutions at once hold 1.5 MB more than the records)
    _kept_sweep_peak_bytes(monkeypatch, 10)  # what the first sweep of a process allocates once
    (small, kept_small), (large, kept_large) = (_kept_sweep_peak_bytes(monkeypatch, n) for n in (200, 1200))
    assert large - small < (kept_large - kept_small) + 500_000


def test_sweep_memory_does_not_grow_with_the_grid_when_verifications_fail(monkeypatch, capsys):
    # a sweep keeps the failure count and the first worst report, which is all its stderr line reads, not every
    # failed report (which grew the peak by 1.0 MB more than the records from 200 to 1200 steps)
    _kept_sweep_peak_bytes(monkeypatch, 10, failing=True)
    (small, kept_small), (large, kept_large) = (_kept_sweep_peak_bytes(monkeypatch, n, failing=True)
                                                for n in (200, 1200))
    assert large - small < (kept_large - kept_small) + 500_000
    assert capsys.readouterr().err.splitlines()[-1] == ("numerical failure: 1862 of 2400 solutions fail verification, "
                                                        "worst: FAIL (max relative residual 4.35e-16, naturally "
                                                        "reductive: False)")


class _ClosedStdout(io.StringIO):
    """A stdout whose reader closes it after the first records."""

    def write(self, text):
        if self.tell() > 2000:
            raise BrokenPipeError
        return super().write(text)


def _closed_sweep_peak_bytes(monkeypatch, steps: int) -> int:
    """The peak of what Python allocates in a sweep that stops when its closed stdout refuses a write."""
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    tracemalloc.start()
    try:
        with pytest.raises(BrokenPipeError):
            main(["sweep", "--branch", "u0", "--S-min", "1.5", "--S-max", "8.5", "--S-steps", str(steps)])
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_memory_does_not_grow_with_the_steps(monkeypatch):
    # the grid is formed as it is solved; a 10^6-step np.linspace list would hold about 40 MB
    assert _closed_sweep_peak_bytes(monkeypatch, 10**6) - _closed_sweep_peak_bytes(monkeypatch, 10) < 10**7


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
    # floats, but the determinants and their backward errors in x are scale-free:
    # D = v^2 (1 - v^2) / 2, and the homothetic point at |t| = 2 reads the same
    for t, v in (("1", "1e-120"), ("2", "2e-120")):
        code, out, err = run_cli(capsys, "ledger", "--t", t, "--u", "0", "--v", v, "--w", t)
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "first Ledger condition satisfied"
    code, out, _ = run_cli(capsys, "ledger", "--t", "1", "--u", "0", "--v", "1e-3", "--w", "1")
    assert out.splitlines()[-1] == "first Ledger condition satisfied"  # its backward error is 6.25e-14
    code, out, _ = run_cli(capsys, "ledger", "--t", "1", "--u", "0", "--v", "1e-3", "--w", "1", "--tol", "1e-14")
    assert out.splitlines()[-1] == "first Ledger condition violated"


@pytest.mark.parametrize("branch", ["u0", "u1"])
def test_solve_and_ledger_agree_on_dense_grids_near_both_ends(capsys, branch):
    # S log-spaced from 1e-10 to 1e-2 inside either end: every solution passes its verification, and ``ledger``
    # at its printed parameters reads "satisfied", as both judge the backward error of D_alpha in x.  Near S = 1 on
    # the u = 0 branch one ulp of W moves D_alpha by far more than its three terms' sizes.
    lo, hi = analysis.S_INTERVAL_U0 if branch == "u0" else analysis.S_INTERVAL_UNONZERO
    gaps = np.geomspace(1e-10, 1e-2, 200).tolist()
    for s in [lo + gap for gap in gaps] + [hi - gap for gap in gaps]:
        code, out, err = run_cli(capsys, "solve", "--branch", branch, "--S", repr(s), "--format", "json")
        assert (code, err) == (0, ""), s
        for record in map(json.loads, out.splitlines()):
            point = [arg for key in "tuvw" for arg in (f"--{key}", repr(record["params"][key]))]
            code, ledger, _ = run_cli(capsys, "ledger", *point, "--format", "json")
            assert code == 0 and json.loads(ledger)["satisfied"], (s, point)


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
    cli._reply.cache_clear()
    first = run_cli(capsys, "inspect")
    assert run_cli(capsys, "inspect") == first
    assert len(calls) == 1
    # a serialized algebra is validated once per document too, whatever the file is named
    path = tmp_path / "so5.json"
    path.write_text(json.dumps(algebra_to_dict(build_so5())))
    for _ in range(2):
        assert run_cli(capsys, "inspect", "--algebra", str(path))[0] == 0
    assert len(calls) == 2


def test_inspect_json_forms_the_built_in_document_once_per_process(capsys, monkeypatch, tmp_path):
    calls = _count_calls(monkeypatch, zksym.algebra_to_dict)
    cli._reply.cache_clear()
    first = run_cli(capsys, "inspect", "--format", "json")
    assert run_cli(capsys, "inspect", "--format", "json") == first
    assert json.loads(first[1])["algebra"] == algebra_to_dict(build_so5())
    assert len(calls) == 1
    # text forms none; a serialized algebra's document is formed on its first JSON call
    path = tmp_path / "so5.json"
    path.write_text(json.dumps(algebra_to_dict(build_so5())))
    assert run_cli(capsys, "inspect", "--algebra", str(path))[0] == 0 and len(calls) == 1
    for _ in range(2):
        assert run_cli(capsys, "inspect", "--algebra", str(path), "--format", "json")[0] == 0
    assert len(calls) == 2


def _count_inspect_stages(monkeypatch) -> dict[str, list]:
    """Record the calls of each stage of an inspect reply: decode, build, validate, document."""
    counting_validate, validate = _counting(GradedLieAlgebra.validate)
    monkeypatch.setattr(GradedLieAlgebra, "validate", counting_validate)
    counting_loads, loads = _counting(json.loads)
    monkeypatch.setattr(cli.json, "loads", counting_loads)
    return {"loads": loads, "from_dict": _count_calls(monkeypatch, zksym.algebra_from_dict), "validate": validate,
            "to_dict": _count_calls(monkeypatch, zksym.algebra_to_dict)}


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_inspect_answers_a_document_once_per_process(capsys, monkeypatch, tmp_path, fmt):
    path = tmp_path / "so5.json"
    path.write_text(json.dumps(algebra_to_dict(build_so5())))
    cli._reply.cache_clear()
    calls = _count_inspect_stages(monkeypatch)
    first = run_cli(capsys, "inspect", "--algebra", str(path), "--format", fmt)
    assert first[0] == 0 and run_cli(capsys, "inspect", "--algebra", str(path), "--format", fmt) == first
    # a text reply forms no JSON document
    assert {name: len(c) for name, c in calls.items()} == {"loads": 1, "from_dict": 1, "validate": 1,
                                                           "to_dict": int(fmt == "json")}
    # another tol is another entry, validated again
    assert run_cli(capsys, "inspect", "--algebra", str(path), "--format", fmt, "--tol", "1e-12")[0] == 0
    assert len(calls["validate"]) == 2 and cli._reply.cache_info().currsize == 2


def test_inspect_sees_an_edited_file_at_once(capsys, tmp_path):
    path, doc = tmp_path / "so5.json", algebra_to_dict(build_so5())
    valid = json.dumps(doc)
    doc["structure"][0][3] += 0.25
    broken = json.dumps(doc)
    for fmt in ("text", "json"):
        for text, code in ((valid, 0), (broken, 2), (valid, 0), (broken, 2)):
            path.write_text(text)
            got, out, err = run_cli(capsys, "inspect", "--algebra", str(path), "--format", fmt)
            assert got == code
            if code:
                assert err == "numerical failure: algebra invalid: 1 antisymmetry violation(s), 5 Jacobi violation(s)\n"
                assert "validation: invalid" in out if fmt == "text" else json.loads(out)["valid"] is False
            else:
                assert err == "" and ("validation: valid" in out if fmt == "text" else json.loads(out)["valid"])


@pytest.mark.parametrize("case", ["short row", "null grading", "NaN value", "dim string"])
def test_a_malformed_document_errors_on_every_call_and_leaves_no_entry(capsys, tmp_path, case):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_algebra_doc(case)))
    size = cli._reply.cache_info().currsize
    for fmt in ("text", "json", "text"):
        expected = (1, "", f"error: {_MALFORMED[case]}\n")
        assert run_cli(capsys, "inspect", "--algebra", str(path), "--format", fmt) == expected
        assert cli._reply.cache_info().currsize == size


def test_the_inspect_memo_keeps_strings_only(capsys, monkeypatch, tmp_path):
    refs = []

    def keep_refs(fn):
        def wrapped(*args, **kwargs):
            alg = fn(*args, **kwargs)
            refs.extend((weakref.ref(alg), weakref.ref(alg.structure)))
            return alg
        return wrapped

    monkeypatch.setattr(zksym.algebra, "algebra_from_dict", keep_refs(zksym.algebra.algebra_from_dict))
    cli._reply.cache_clear()
    path, doc = tmp_path / "so5.json", algebra_to_dict(build_so5())
    doc["structure"][0][3] += 0.25
    path.write_text(json.dumps(doc))
    for fmt in ("text", "json"):
        run_cli(capsys, "inspect", "--algebra", str(path), "--format", fmt)
        run_cli(capsys, "inspect", "--format", fmt)
    assert len(refs) == 4
    gc.collect()
    assert all(ref() is None for ref in refs)  # neither the algebra nor its array outlives its reply
    hits = cli._reply.cache_info().hits
    for algebra in (["--algebra", str(path)], []):
        for fmt in ("text", "json"):
            reply, failure, point = cli._reply(*cli._key(["inspect", *algebra, "--format", fmt]))
            assert type(reply) is str and (failure is None if not algebra else type(failure) is str) and point is None
    assert cli._reply.cache_info().hits == hits + 4  # the kept replies, not new ones


def _inspect_corpus(tmp_path) -> list[Path]:
    """so(5) in seeded basis orders, rescaled by seeded basis scales, and each of those broken."""
    base, paths = build_so5(), []
    for seed in range(3):
        rng = np.random.default_rng(seed)
        perm, lam = rng.permutation(10), rng.uniform(0.5, 2.0, 10)
        structure = base.structure[np.ix_(perm, perm, perm)]
        rescaled = structure * np.multiply.outer(np.outer(lam, lam), 1 / lam)
        for kind, c in (("permuted", structure), ("rescaled", rescaled)):
            doc = algebra_to_dict(GradedLieAlgebra([base.names[i] for i in perm], c, [base.grading[i] for i in perm]))
            for broken in (False, True):
                if broken:
                    doc["structure"][seed][3] += 0.25
                paths.append(tmp_path / f"{kind}-{seed}-{'broken' if broken else 'valid'}.json")
                paths[-1].write_text(json.dumps(doc))
    return paths


def test_inspect_replies_are_the_same_cold_and_warm(capsys, tmp_path):
    argvs = [["inspect", "--format", fmt, "--tol", tol, *algebra] for fmt in ("text", "json")
             for tol in ("1e-12", "1e-9", "0.3")
             for algebra in ([], *(["--algebra", str(path)] for path in _inspect_corpus(tmp_path)))]
    cold = []
    for argv in argvs:
        cli._reply.cache_clear()
        cold.append(run_cli(capsys, *argv))
    assert {code for code, _, _ in cold} == {0, 2}
    assert [run_cli(capsys, *argv) for argv in argvs] == cold
    assert [run_cli(capsys, *argv) for argv in argvs] == cold


def test_an_algebra_file_is_read_as_utf8_whatever_the_locale(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({**_SMALL_ALGEBRA, "names": ["h", "m\u00e9"]}, ensure_ascii=False), encoding="utf-8")
    assert b"m\xc3\xa9" in path.read_bytes()
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": os.pathsep.join([str(Path(zksym.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    for fmt in ("text", "json"):
        done = subprocess.run([sys.executable, "-m", "zksym.cli", "inspect", "--algebra", str(path), "--format", fmt],
                              capture_output=True, env=env)
        assert (done.returncode, done.stderr) == (0, b"")
        if fmt == "text":
            assert b"validation: valid" in done.stdout
        else:
            assert json.loads(done.stdout)["algebra"]["names"] == ["h", "m\u00e9"]
    path.write_bytes(b'{"dim": 1, "names": ["\xe9"]}')  # Latin-1, not UTF-8: malformed in any locale
    done = subprocess.run([sys.executable, "-m", "zksym.cli", "inspect", "--algebra", str(path)], capture_output=True,
                          env=env)
    assert (done.returncode, done.stdout) == (1, b"")
    assert done.stderr.startswith(b"error: malformed algebra file: 'utf-8' codec can't decode byte 0xe9")


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


def _pinned_solver_argvs(command: str, fmt: str) -> list[list[str]]:
    """Per branch: ``solve`` at 12 seeded S, at 10^-1..10^-10 from each interval end and at the first and last
    floats of the interval; ``sweep`` in 200 steps from the first float to the last."""
    argvs = []
    for branch, (lo, hi) in (("u0", analysis.S_INTERVAL_U0), ("u1", analysis.S_INTERVAL_UNONZERO)):
        first, last = math.nextafter(lo, math.inf), math.nextafter(hi, -math.inf)
        if command == "sweep":
            argvs.append(["sweep", "--branch", branch, "--S-min", repr(first), "--S-max", repr(last),
                          "--S-steps", "200"])
            continue
        rng = random.Random(33)
        grid = [rng.uniform(lo, hi) for _ in range(12)]
        grid += [s for k in range(1, 11) for s in (lo + 10.0 ** -k, hi - 10.0 ** -k)] + [first, last]
        argvs += [["solve", "--branch", branch, "--S", repr(s), "--format", fmt] for s in grid]
    return argvs


def _pinned_argvs(command: str, fmt: str, tmp_path) -> list[list[str]]:
    if command in ("solve", "sweep"):
        return _pinned_solver_argvs(command, fmt)
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


# sha256 over each argv's exit code and stdout, in order.  The tables, the Ricci matrix and the
# isometry basis print every float, so a digest also pins how each was rounded.
_PINNED = {
    ("tables", "text"): "82fd998443b19398f75facc233ce5d10766775790567d7089aaae1840a9fc077",
    ("tables", "json"): "6ae86c6b10ff63b9caf0894194acf30e5f0d45847aeb7e076f32412712cde10d",
    ("ricci", "text"): "53099fbf1dbb8be64127245ffaa0a1b0e324975f202ea94e10dd47bdde0347bf",
    ("ricci", "json"): "188223be2f0492561826f5692f7230e4d762124d22ae324a537dc56a74b44912",
    ("isometries", "text"): "af8d13691668db345f6da22a554c4ef11cb83bb2495b2a1e627e697b91a1df69",
    ("isometries", "json"): "57b7ba61b1121fa50cdda8bcc00f98bab7e89e168021accfbec74646d89f0460",
    ("check-nr", "text"): "a4597ebda36854e62ccb761d2635a8c3f9603c386d1475d214ad4967f2af8a29",
    ("check-nr", "json"): "c01b221259e14491ac5910d63982c6bd2c3276aa81f1cd6da51902168004656a",
    ("ledger", "text"): "561e644b466b46ff62ccee765f4a57dfa2160acaa29d7ef51c9c21a217ce4aa2",
    ("ledger", "json"): "5182612e8ca218b5ab6680864dc544877e540ef841463dce99157394f3b69caf",
    ("inspect", "text"): "93a7aefb3221ba5fa983e60b91717b1c1734defa3790fd0d12c91dce6aa8c35a",
    ("inspect", "json"): "973cf70193359d803bf11f0a2372107782aacd9b3f641a88c5a95bb1c656e7a1",
    # every record of both solvers, ||L|| and max|D| of each solution among them
    ("solve", "json"): "ca5ab8164c87b2ef6d59c90b0b55f6d2bb31d9fe96e466bdf1250e26497a071e",
    ("solve", "text"): "2d2260907286a375d657e1174ee01f2144db0ca1cfeaca7b58b484f2de8f8c15",
    ("sweep", "json"): "af2891190ee2e140160852a224948315e3cfd2df47d6f71dcc5fcf09cbdf1809",
}


@pytest.mark.parametrize("command,fmt", list(_PINNED))
def test_every_stdout_byte_is_pinned(capsys, tmp_path, command, fmt):
    digest = hashlib.sha256()
    for argv in _pinned_argvs(command, fmt, tmp_path):
        code, out, _ = run_cli(capsys, *argv)
        digest.update(f"{code}\n{out}\0".encode())
    assert digest.hexdigest() == _PINNED[command, fmt]


# ----------------------------------------------------------------------
# point replies, kept in the reply memo
# ----------------------------------------------------------------------

_POINT_COMMANDS = ("tables", "ricci", "check-nr", "isometries", "ledger")


def _point_argv(command: str, point, fmt: str, tol: str = "1e-9") -> list[str]:
    t, u, v, w = point
    return [command, "--t", repr(t), "--u", repr(u), "--v", repr(v), "--w", repr(w), "--format", fmt, "--tol", tol]


def _cold() -> None:
    """Empty the reply memo and the geometry cache: the next query renders from a new geometry."""
    cli._reply.cache_clear()
    geometry._cached_geometry.cache_clear()


def test_a_kept_reply_is_the_fresh_one_byte_for_byte(capsys):
    points = _pinned_points()
    assert any(u == 0.0 for _, u, _, _ in points)
    argvs = [_point_argv(command, point, fmt, tol) for tol in ("1e-9", "0.5") for point in points
             for command in _POINT_COMMANDS for fmt in ("text", "json")]
    fresh = []
    for argv in argvs:
        _cold()
        fresh.append(run_cli(capsys, *argv))
    assert {code for code, _, _ in fresh} == {0}
    _cold()
    for argv, expected in zip(argvs, fresh):
        assert run_cli(capsys, *argv) == expected  # rendered
        assert run_cli(capsys, *argv) == expected  # kept
    # each reply is held, at each tol, and printed as it was held
    info = cli._reply.cache_info()
    assert (info.currsize, info.misses, info.hits) == (len(argvs), len(argvs), len(argvs))
    assert [run_cli(capsys, *argv) for argv in argvs] == fresh
    assert cli._reply.cache_info().hits == 2 * len(argvs)


@pytest.mark.parametrize("command, hits", [("tables", 1), ("ricci", 1), ("isometries", 1), ("check-nr", 2),
                                           ("ledger", 2)])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_first_render_looks_its_point_up_once(capsys, command, hits, fmt):
    # _point's lookup builds the geometry and hands it to the renderer; main looks the kept key up once more (a hit),
    # and check-nr and ledger once more through their analysis predicate, which meets the same key
    _cold()
    assert run_cli(capsys, *_point_argv(command, (1.0, 0.3, 1.2, 0.8), fmt))[0] == 0
    info = geometry._cached_geometry.cache_info()
    assert (info.misses, info.hits) == (1, hits)


@pytest.mark.parametrize("command", _POINT_COMMANDS)
def test_the_json_head_is_written_on_every_call(capsys, command):
    # u = 0.0 and -0.0 are two command lines, so two kept replies, but one point of the geometry cache; each head
    # prints u as given, on the render and on the kept reply
    _cold()
    for _ in range(2):
        positive = run_cli(capsys, *_point_argv(command, (1.0, 0.0, 1.0, 2.0), "json"))
        negative = run_cli(capsys, *_point_argv(command, (1.0, -0.0, 1.0, 2.0), "json"))
    assert (cli._reply.cache_info().currsize, geometry._cached_geometry.cache_info().currsize) == (2, 1)
    assert '"u": 0.0,' in positive[1] and '"u": -0.0,' in negative[1]
    assert negative == (0, positive[1].replace('"u": 0.0,', '"u": -0.0,'), "")
    assert str(json.loads(negative[1])["params"]["u"]) == "-0.0"


def test_a_new_tol_renders_again_and_keeps_its_own_text(capsys, monkeypatch):
    point = (1.0, 0.3, 1.2, 0.8)
    counting_table, calls = _counting(geometry._Geometry.table)
    monkeypatch.setattr(geometry._Geometry, "table", counting_table)
    _cold()
    outs = [run_cli(capsys, *_point_argv("tables", point, "text", tol)) for tol in ("1e-9", "1e-9", "0.5", "0.5", "1e-9")]
    assert len(calls) == 2 * 2  # a render reads both tables; a kept reply reads none
    assert outs[0] == outs[1] == outs[4] != outs[2] == outs[3]  # 0.5 hides the entries below half the largest
    assert cli._reply.cache_info().currsize == 2
    for command in _POINT_COMMANDS:
        for fmt in ("text", "json"):
            for tol in ("1e-9", "0.5", "1e-12"):
                assert run_cli(capsys, *_point_argv(command, point, fmt, tol))[0] == 0
    assert cli._reply.cache_info().currsize == 5 * 2 * 3


def test_alternating_tols_render_each_tol_once(capsys, monkeypatch):
    # six tables --format json calls alternating two tols read the tables twice per tol, at the first call of each
    point = (1.0, 0.3, 1.2, 0.8)
    counting_table, calls = _counting(geometry._Geometry.table)
    monkeypatch.setattr(geometry._Geometry, "table", counting_table)
    _cold()
    outs = [run_cli(capsys, *_point_argv("tables", point, "json", tol)) for tol in ("1e-9", "0.5") * 3]
    assert len(calls) == 4
    assert outs[::2] == [outs[0]] * 3 and outs[1::2] == [outs[1]] * 3
    assert outs[0][1].replace('"tol": 1e-09', '"tol": 0.5') == outs[1][1]  # JSON tables do not read the tol


def test_a_render_that_raises_keeps_nothing(capsys):
    _cold()
    for command in _POINT_COMMANDS:
        for fmt in ("text", "json"):
            # the guard refuses u = 2t^2 (K = 0) before any geometry is kept
            assert run_cli(capsys, *_point_argv(command, (1.0, 2.0, 1.0, 1.0), fmt))[0] == 2
    assert cli._reply.cache_info().currsize == geometry._cached_geometry.cache_info().currsize == 0
    # x3 = 1e200 overflows the reduced Ledger system, not the geometry: ledger fails on every call and keeps nothing
    point = (1.0, 0.0, 1e100, 1.0)
    for _ in range(2):
        for fmt in ("text", "json"):
            assert run_cli(capsys, *_point_argv("ledger", point, fmt))[0] == 2
            assert run_cli(capsys, *_point_argv("tables", point, fmt))[0] == 0
    info = cli._reply.cache_info()
    # the two tables replies; ten guard misses and four ledger misses, each rendered and kept nowhere
    assert (info.currsize, info.misses, info.hits) == (2, 16, 2)


def test_the_memo_keeps_the_newest_replies_and_no_geometry(capsys):
    _cold()
    first = (1.0, 0.3, 1.2, 0.8)
    expected = [run_cli(capsys, *_point_argv(command, first, "json")) for command in _POINT_COMMANDS]
    geo = weakref.ref(geometry._cached_geometry(metric.MetricParams(*first)))
    geometry._cached_geometry.cache_clear()
    gc.collect()
    assert geo() is None  # the replies of a point outlive its geometry, and hold none of it
    bound = cli._reply.cache_info().maxsize
    assert bound == 256 * 10 + 256
    for n in range(bound - 5):  # fill the memo: the first point's five replies are the least recently used
        assert run_cli(capsys, *_point_argv("check-nr", (1.0, 0.3, 1.2, 1.0 + n / 4096), "json"))[0] == 0
    assert cli._reply.cache_info().currsize == bound
    misses = cli._reply.cache_info().misses
    assert [run_cli(capsys, *argv) for argv in (_point_argv(c, first, "json") for c in _POINT_COMMANDS)] == expected
    assert cli._reply.cache_info().misses == misses
    # one more reply evicts the least recently used one, here the first check-nr reply
    assert run_cli(capsys, *_point_argv("check-nr", (1.0, 0.3, 1.2, 2.0), "json"))[0] == 0
    assert cli._reply.cache_info().currsize == bound
    assert run_cli(capsys, *_point_argv("check-nr", (1.0, 0.3, 1.2, 1.0), "json"))[0] == 0
    assert cli._reply.cache_info().misses == misses + 2


# ----------------------------------------------------------------------
# the memo key: the command line, ZKSYM_TOL and the bytes of each named file
# ----------------------------------------------------------------------

def _fresh(capsys, *argv):
    """What a new process would print: the reply with the memo and the geometry cache cleared first."""
    _cold()
    return run_cli(capsys, *argv)


def test_a_kept_reply_reads_no_argv_params_or_tol(capsys, monkeypatch):
    argv = _point_argv("ledger", (1.0, 0.3, 1.2, 0.8), "json")
    expected = _fresh(capsys, *argv)
    calls = {name: _count_calls(monkeypatch, getattr(cli, name))
             for name in ("_read_argv", "_resolve_params", "_resolve_tol")}
    hits = cli._reply.cache_info().hits
    assert [run_cli(capsys, *argv) for _ in range(3)] == [expected] * 3
    assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(calls, 0)
    assert cli._reply.cache_info().hits == hits + 3


class _CountingEnviron(dict):
    """A copy of the environment that counts the reads of ZKSYM_TOL."""

    reads = 0

    def get(self, key, default=None):
        self.reads += key == "ZKSYM_TOL"
        return super().get(key, default)

    def __getitem__(self, key):
        self.reads += key == "ZKSYM_TOL"
        return super().__getitem__(key)

    def __contains__(self, key):
        self.reads += key == "ZKSYM_TOL"
        return super().__contains__(key)


def test_zksym_tol_is_read_once_per_call(capsys, monkeypatch, tmp_path):
    environ = _CountingEnviron(os.environ, ZKSYM_TOL="0.5")
    monkeypatch.setattr(os, "environ", environ)
    _cold()
    point = ["--t", "1.3", "--u", "0.3", "--v", "1.2", "--w", "0.8", "--format", "json"]
    calls = [("keyed miss", ["tables", *point]), ("kept hit", ["tables", *point]),
             ("inspect miss", ["inspect", "--format", "json"]), ("inspect hit", ["inspect", "--format", "json"]),
             ("argparse argv", ["tables", "--t=1.3", *point[2:]]),
             ("unreadable file", ["tables", "--params", str(tmp_path / "none.json"), *point]),
             ("solve", ["solve", "--branch", "u0", "--S", "5", "--format", "json"])]
    for name, argv in calls:
        environ.reads = 0
        code, out, _ = run_cli(capsys, *argv)
        assert environ.reads == 1, name
        if code == 0 and argv[0] == "tables":  # the value read is the one the reply's tol comes from
            assert json.loads(out)["tol"] == 0.5, name
    assert [run_cli(capsys, *argv)[0] for _, argv in calls] == [0, 0, 0, 0, 0, 1, 0]


@pytest.mark.parametrize("command,fmt", [("tables", "text"), ("check-nr", "json"), ("ledger", "text"),
                                         ("inspect", "text")])
def test_one_argv_under_two_zksym_tols_is_two_replies(capsys, monkeypatch, command, fmt):
    # tables text hides entries below tol times the largest, a JSON head prints the tol, ledger's verdict reads it
    # (eta is 3.0e-8 at its point); inspect's built-in so(5) is validated exactly, whatever the tol
    point = (1.0, 0.0, 1.0, 1.00000003) if command == "ledger" else (1.0, 0.3, 1.2, 0.8)
    argv = ["inspect", "--format", fmt] if command == "inspect" else _point_argv(command, point, fmt)[:-2]  # no --tol
    outs = []
    for tol in ("1e-9", "0.5", "1e-9", "0.5"):
        monkeypatch.setenv("ZKSYM_TOL", tol)
        outs.append(run_cli(capsys, *argv))
        assert outs[-1] == _fresh(capsys, *argv)
    assert outs[0] == outs[2] and outs[1] == outs[3]
    assert (outs[0] == outs[1]) is (command == "inspect")
    monkeypatch.setenv("ZKSYM_TOL", "-1")  # refused on every call, and kept nowhere
    size = cli._reply.cache_info().currsize
    for _ in range(2):
        assert run_cli(capsys, *argv) == (1, "", "error: tolerance must be positive, got -1\n")
    assert cli._reply.cache_info().currsize == size


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", _POINT_COMMANDS)
def test_a_rewritten_params_file_is_a_new_reply(capsys, tmp_path, command, fmt):
    path = tmp_path / "point.json"
    argv = [command, "--params", str(path), "--v", "1.2", "--format", fmt]  # a flag overrides the file
    outs = []
    for text in ('{"t": 1, "u": 0.3, "v": 9, "w": 0.8}', '{"t": 1, "u": 0.3, "v": 9, "w": 1.2}') * 2:  # v = w
        path.write_text(text)
        outs.append(run_cli(capsys, *argv))
        assert outs[-1] == _fresh(capsys, *argv)
    assert outs[0] == outs[2] != outs[1] == outs[3]
    path.write_text('{"t": 1, "u": 0.3, "v": 9, "w": "x"}')  # malformed: refused on every call
    for _ in range(2):
        assert run_cli(capsys, *argv) == (1, "", "error: parameter w in file is not a real number\n")
    path.unlink()  # unreadable: reported as without the memo
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "") and err.startswith(f"error: cannot read parameter file {path}: ")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_rewritten_algebra_file_is_a_new_reply(capsys, tmp_path, fmt):
    path, doc = tmp_path / "so5.json", algebra_to_dict(build_so5())
    valid = json.dumps(doc)
    doc["structure"][0][3] += 0.25
    argv = ["inspect", "--algebra", str(path), "--format", fmt]
    outs = []
    for text in (valid, json.dumps(doc), valid, json.dumps(_SMALL_ALGEBRA)):
        path.write_text(text)
        outs.append(run_cli(capsys, *argv))
        assert outs[-1] == _fresh(capsys, *argv)
    assert [code for code, _, _ in outs] == [0, 2, 0, 0]
    assert outs[0] == outs[2] and len({out for _, out, _ in outs}) == 3
    path.unlink()
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "") and err.startswith("error: cannot read algebra file: ")


def test_each_named_file_is_read_once_per_call(capsys, monkeypatch, tmp_path):
    point, algebra = tmp_path / "point.toml", tmp_path / "so5.json"
    point.write_text("t = 1\nu = 0.3\nv = 1.2\nw = 0.8\n")
    algebra.write_text(json.dumps(algebra_to_dict(build_so5())))
    read_bytes, reads = Path.read_bytes, []

    def counting_read_bytes(self):
        reads.append(str(self))
        return read_bytes(self)

    monkeypatch.setattr(Path, "read_bytes", counting_read_bytes)
    _cold()
    argvs = [[command, "--params", str(point), "--format", fmt] for command in _POINT_COMMANDS
             for fmt in ("text", "json")] + [["inspect", "--algebra", str(algebra), "--format", fmt]
                                              for fmt in ("text", "json")]
    for argv in argvs:
        for call in range(3):  # a render, then two kept replies
            reads.clear()
            assert run_cli(capsys, *argv)[0] == 0
            assert reads == [argv[2]], (argv, call)
    assert cli._reply.cache_info().currsize == len(argvs)


@pytest.mark.parametrize("spelling", [["--par", "{}"], ["--params={}"]])
def test_an_argv_that_argparse_reads_sees_an_edited_file(capsys, tmp_path, spelling):
    # an abbreviated flag or --flag=value goes to argparse and is answered on every call: no reply is kept
    path = tmp_path / "point.json"
    argv = ["tables", *(token.format(path) for token in spelling), "--format", "json"]
    outs = []
    for w in (0.8, 2.5, 0.8):
        path.write_text(json.dumps({"t": 1, "u": 0.3, "v": 1.2, "w": w}))
        outs.append(_fresh(capsys, *argv))
        assert outs[-1][0] == 0 and cli._reply.cache_info().currsize == 0
        assert run_cli(capsys, *argv) == outs[-1]
        assert outs[-1] == run_cli(capsys, "tables", "--params", str(path), "--format", "json")
    assert outs[0] == outs[2] != outs[1]


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
