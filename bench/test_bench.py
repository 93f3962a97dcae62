"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import PARENT, self_times, summarize  # noqa: E402
from workloads import Checker, Op  # noqa: E402

import pytest  # noqa: E402

from zksym import cli, geometry  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_smoke_run_prints_every_metric_with_its_unit():
    proc = _bench(["--workload", "query-mix-hot", "--seed", "3", "--seconds", "0.5", "--trace", "0"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {k: v["unit"] for k, v in result["metrics"].items()}
    table = {ln.split()[0]: ln.split()[2] for ln in lines if ln.startswith("  ")}
    for name, unit in [("ops_per_s", "1/s"), ("latency_p50_ms", "ms"), ("latency_p99_ms", "ms"),
                       ("failed_frac", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB")]:
        assert table[name] == unit
    assert "n=" in next(ln for ln in lines if "latency_p99_ms" in ln)


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("_run", "__pycache__"))
    proc = _bench(["--workload", "ledger-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _answer(op):
    rc, out, _ = run.call(cli, op.argv)
    return rc, out


def _edit(stdout, change):
    records = [json.loads(line) for line in stdout.splitlines()]
    change(records[0])
    return "\n".join(json.dumps(r) for r in records) + "\n"


def test_checker_passes_genuine_solve_and_rejects_corrupted_ones():
    s = 4.0
    op = Op(("solve", "--branch", "u0", "--S", repr(s), "--format", "json"), "solve", False, ("u0", s))
    rc, out = _answer(op)
    checker = Checker()
    assert checker.check(op, rc, out) is None

    wrong_v = checker.check(op, rc, _edit(out, lambda r: r.update(V=r["V"] * (1 + 1e-6))))
    assert wrong_v is not None and wrong_v.wrong
    inexact_v = checker.check(op, rc, _edit(out, lambda r: r.update(V=r["V"] * (1 + 1e-10))))
    assert inexact_v is not None and not inexact_v.wrong
    nan = checker.check(op, rc, _edit(out, lambda r: r.update(W=float("nan"))))
    assert nan is not None and nan.wrong and "non-finite" in str(nan)
    assert checker.check(op, rc, out.splitlines()[0] + "\n").wrong  # a solution missing
    exit_code = checker.check(op, 2, out)
    assert exit_code is not None and not exit_code.wrong
    refused = checker.check(op, 1, "")
    assert refused is not None and not refused.wrong
    raised = checker.check(op, None, "Traceback (most recent call last):\nOverflowError: (34, 'Result too large')\n")
    assert raised is not None and raised.wrong and "OverflowError" in str(raised)


def test_checker_compares_cached_answers_with_the_fresh_one():
    point = (1.25, 0.3, 0.7, 1.9)
    t, u, v, w = (repr(x) for x in point)
    op = Op(("ricci", "--t", t, "--u", u, "--v", v, "--w", w, "--format", "json"), "query", True, point)
    rc, out = _answer(op)
    checker = Checker()
    assert checker.check(op, rc, out) is None
    assert checker.check(op, *_answer(op)) is None
    drifted = _edit(out, lambda r: r["matrix"][2].__setitem__(2, r["matrix"][2][2] * (1 + 1e-9)))
    mismatch = checker.check(op, rc, drifted)
    assert mismatch is not None and mismatch.wrong and "cached" in str(mismatch)
    elsewhere = _edit(out, lambda r: r["params"].update(t=2.0))
    assert Checker().check(op, rc, elsewhere).wrong


def test_traced_self_times_and_harness_add_up_to_the_traced_wall_time(tmp_path):
    result = run.run_traced("query-mix-cold", 5, 1.0, tmp_path / "spans.jsonl")
    summary = result["summary"]
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert spans and min(self_times(spans)) >= 0
    assert summarize(spans)["layers"] == summary["layers"]
    layer_self = sum(stats["self_ns"] for stats in summary["layers"].values())
    assert layer_self == summary["root_ns"]
    wall = result["traced_wall_ns"]
    assert abs(layer_self + result["harness_ns"] - wall) <= 0.01 * wall
    shares = [v for k, v in result["metrics"].items() if k.endswith(".self_share")]
    assert abs(sum(shares) - 1.0) < 1e-9
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    commands = result["commands"]
    assert sum(row["ops"] for row in commands.values()) == sum(s[PARENT] < 0 for s in spans)  # one root span an op
    assert sum(sum(row["self_ns"].values()) for row in commands.values()) == layer_self
    assert set(commands) <= {"tables", "ricci", "check-nr", "isometries", "ledger", "inspect"}


def test_traced_run_fails_when_a_named_function_is_gone(tmp_path, monkeypatch):
    monkeypatch.delattr(geometry, "ledger_table")
    with pytest.raises(SystemExit, match="ledger_table"):
        run.run_traced("query-mix-cold", 5, 1.0, tmp_path / "spans.jsonl")


def test_run_that_cannot_finish_its_ops_fails(monkeypatch):
    monkeypatch.setattr(run, "MAX_MEASURE_S", 0.0)
    with pytest.raises(SystemExit, match="longer than"):
        run.run_e2e("ledger-sweep", 1, 25.0)
