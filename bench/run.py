#!/usr/bin/env python3
"""zksym benchmark: one client, closed loop, in-process ``zksym.cli.main``.

    python3 bench/run.py --workload {ledger-sweep,query-mix-hot,query-mix-cold,all}
                         --seed N --seconds S --trace {0,1}

Run from any directory; the library is imported from ``src`` next to
this directory, with the BLAS pool pinned to one thread and the process
pinned to one CPU.  Each op is one ``cli.main(argv)`` call whose exit
code and output are checked (see ``workloads.py``).  Warm-up ops fill the
caches first.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

A run measures a fixed number of ops, ``--seconds`` times the workload's
PACE with at least MIN_SAMPLES, so every commit measures the same ops for
a seed and the run length follows the program's speed.

``--trace 0`` reports the end-to-end metrics: ops_per_s (passed ops per
second spent in ``cli.main``), latency_p50_ms and latency_p99_ms over all
ops, setup_s (median wall time of a fresh interpreter running ``import
zksym``) and peak_rss_mb.  Times are put at the reference machine speed
by ``speed.py``; the table also prints them raw.  failed_frac is printed
in the table and carried by ``attempted`` and ``failed``.  ``correct`` is
false when some op raised, printed malformed or non-finite output, gave
an answer off by more than the solvers' verify tolerance, or answered a
cached query differently from the fresh computation; ops that only exit
nonzero or miss the 1e-12 closed forms count in ``failed``.  A run that
cannot finish its ops within MAX_MEASURE_S fails without a result.

``--trace 1`` alternates traced and untraced blocks of the same op
stream and reports per-layer metrics from the spans of ``tracer.py``,
with a per-command breakdown in the table.  The per-call costs (geometry
stages on a miss and a hit, ``build_parser``, ``validate``) come from a
fixed unit pass after the stream, the same on every workload, so they
never lack samples; a traced run whose tracer misses one of the named
functions or the geometry cache fails instead of reporting 0.
Results, with the machine description, and the spans are written to
``bench/_run``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_run"
WORKLOADS = ("ledger-sweep", "query-mix-hot", "query-mix-cold")

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# A run measures --seconds * PACE ops.  At --seconds 25 that is 2200
# ledger-sweep ops, about 55 s on a 2-CPU Xeon at the seed commit: fewer
# leave its p99 at the mercy of rare stretches in which solves run twice as
# long (see BASELINE.md).  query-mix-hot is steady with 3000.
PACE = {"ledger-sweep": 88, "query-mix-hot": 120, "query-mix-cold": 125}
MIN_SAMPLES = 1000  # p99 needs ten samples beyond it
MAX_MEASURE_S = 120.0  # a run whose ops take longer fails
SETUP_LAUNCHES = 7
SETUP_PROBES = 15  # speed probes before and after each launch
TRACE_BLOCKS = 10  # alternating traced and untraced blocks in a --trace 1 run
UNIT_POINTS = 40  # fresh points, parser builds, validations and solves in the unit pass

IMPORT_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "t1 = time.perf_counter()\n"
    "import scipy.linalg\n"
    "t2 = time.perf_counter()\n"
    "print(t1 - t0, t2 - t1)\n"
)

E2E_UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p99_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


class Tally:
    """Outcome of a stretch of ops: latencies, passes and failures."""

    def __init__(self):
        self.latencies: list[float] = []
        self.commands: list[str] = []
        self.probes: list[float] = []
        self.passed = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: Counter = Counter()
        self.wall = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def ops_per_s(self) -> float:
        return self.passed / sum(self.latencies)


def call(cli, argv) -> tuple[int | None, str, float]:
    """Run ``cli.main(argv)`` with captured output; if it raised, rc is None and the output its traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except Exception:  # a traceback is a failed op, not the end of the run
            rc = None
        dt = time.perf_counter() - t0
    return rc, traceback.format_exc() if rc is None else out.getvalue(), dt


def step(cli, op, checker, tally: Tally, probe=None) -> None:
    if probe is not None:
        tally.probes.append(probe())
    rc, out, dt = call(cli, op.argv)
    verdict = checker.check(op, rc, out)
    tally.latencies.append(dt)
    tally.commands.append(op.argv[0])
    if verdict is None:
        tally.passed += 1
    else:
        tally.failed += 1
        tally.wrong += verdict.wrong
        tally.reasons[str(verdict)] += 1


def drive(cli, ops, checker, tally: Tally, count: int, tracer=None, probe=None) -> None:
    """Closed loop: send the next op when the previous one has been checked, ``count`` ops in all."""
    start = time.perf_counter()
    end = tally.attempted + count
    now = start
    while tally.attempted < end:
        if now - start > MAX_MEASURE_S:
            raise SystemExit(f"error: {count} ops took longer than {MAX_MEASURE_S:g} s")
        if tracer is not None:
            tracer.op = tally.attempted
        step(cli, next(ops), checker, tally, probe)
        now = time.perf_counter()
    tally.wall += now - start


def op_count(workload: str, seconds: float, floor: int = MIN_SAMPLES) -> int:
    return max(floor, round(seconds * PACE[workload]))


def warm_up(cli, ops, checker) -> Tally:
    """Run the warm-up ops, then keep the collector off everything alive so far.

    In a CLI process a full collection over the imported modules is rare;
    in one long benchmark process it would land on random ops.
    """
    tally = Tally()
    for op in ops:
        step(cli, op, checker, tally)
    gc.collect()
    gc.freeze()
    return tally


# ----------------------------------------------------------------------
# fresh-interpreter launches and the machine description
# ----------------------------------------------------------------------

def launch(code: str) -> tuple[float, str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"fresh interpreter failed: {proc.stderr.strip()}")
    return wall, proc.stdout


def setup_seconds() -> tuple[float, float]:
    """Median import time of a fresh interpreter: at the reference speed, and raw."""
    from speed import REFERENCE_S, probe

    raw, scaled = [], []
    for _ in range(SETUP_LAUNCHES):
        probes = [probe() for _ in range(SETUP_PROBES)]
        raw.append(launch("import zksym")[0])
        probes += [probe() for _ in range(SETUP_PROBES)]
        scaled.append(raw[-1] * REFERENCE_S / statistics.median(probes))
    return statistics.median(scaled), statistics.median(raw)


def setup_breakdown() -> dict[str, float]:
    bare = statistics.median(launch("pass")[0] for _ in range(SETUP_LAUNCHES))
    probes = [launch(IMPORT_PROBE)[1].split() for _ in range(SETUP_LAUNCHES)]
    return {
        "setup.python_s": bare,
        "setup.numpy_import_s": statistics.median(float(p[0]) for p in probes),
        "setup.scipy_linalg_import_s": statistics.median(float(p[1]) for p in probes),
    }


def machine(workload: str, seed: int, trace: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # the layout of show_config differs between numpy versions
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ[k] for k in BLAS_ENV},
        "commit": commit,
    }


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def run_e2e(workload: str, seed: int, seconds: float) -> dict:
    from zksym import cli

    from speed import probe, rescale
    from workloads import Checker, make_workload

    checker = Checker()
    warmup, ops = make_workload(workload, seed, OUT)
    warm = warm_up(cli, warmup, checker)
    tally = Tally()
    drive(cli, ops, checker, tally, op_count(workload, seconds), probe=probe)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s, setup_raw = setup_seconds()
    scaled = rescale(tally.latencies, tally.probes)
    n = tally.attempted
    beyond = n - int(-(-n * 99 // 100))
    if beyond < 10:
        raise SystemExit(f"error: {n} ops leave {beyond} samples beyond p99, fewer than 10")
    metrics = {
        "ops_per_s": tally.passed / sum(scaled),
        "latency_p50_ms": 1e3 * statistics.median(scaled),
        "latency_p99_ms": 1e3 * percentile(scaled, 99),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }
    notes = {
        "ops_per_s": f"{tally.passed} passed of {n} ops; raw {tally.ops_per_s():.6g}",
        "latency_p50_ms": f"n={n}; raw {1e3 * statistics.median(tally.latencies):.6g}",
        "latency_p99_ms": f"n={n}, {beyond} beyond; raw {1e3 * percentile(tally.latencies, 99):.6g}",
        "failed_frac": f"{tally.failed} of {n}",
        "setup_s": f"median of {SETUP_LAUNCHES} launches; raw {setup_raw:.6g}",
        "peak_rss_mb": "after the workload",
    }
    table = dict(metrics, failed_frac=tally.failed / n)
    units = dict(E2E_UNITS, failed_frac="ratio")
    return {
        "tally": tally,
        "warm": warm,
        "metrics": metrics,
        "table": [(k, table[k], units[k], notes[k]) for k in
                  ("ops_per_s", "latency_p50_ms", "latency_p99_ms", "failed_frac", "setup_s", "peak_rss_mb")],
    }


def unit_pass(seed: int) -> tuple[dict[str, float], int, int]:
    """Per-call costs of the named functions on fixed seeded inputs, the same on every workload.

    Each of UNIT_POINTS fresh points goes through the geometry stages in
    dependency order twice (a miss, then a hit), so a stage's miss is the
    work it adds to the stages before it.  Also times ``build_parser`` and
    ``validate`` of so(5), and solves and verifies the Ledger system at
    S drawn as ledger-sweep draws them.  Returns the metrics and the
    solutions produced and verified.
    """
    from zksym import analysis, build_so5, cli, geometry, metric

    from tracer import STAGES, Tracer, summarize
    from workloads import _ledger_sweep, _point

    rng = random.Random(f"unit:{seed}")
    so5 = build_so5()  # the algebra every validate call checks
    costs, solves = Tracer(), Tracer()
    costs.install()
    try:
        for _ in range(UNIT_POINTS):
            p = metric.MetricParams(*_point(rng))
            for _ in range(2):
                geometry.bracket_table(p)
                geometry.u_table(p)
                geometry.ricci(metric.build_form(p))
                geometry.ledger_table(p)
            cli.build_parser()
            so5.validate()
    finally:
        costs.uninstall()
    draws = _ledger_sweep(rng)
    solves.install()  # apart, because solving and verifying call the stages too
    try:
        for _ in range(UNIT_POINTS):
            branch, s = next(draws).expect
            for sol in (analysis.solve_ledger_u0 if branch == "u0" else analysis.solve_ledger_unonzero)(s):
                analysis.verify_solution(sol)
    finally:
        solves.uninstall()
    functions = summarize(costs.spans)["functions"]
    names = [f"geometry.{stage}.{kind}" for stage in STAGES for kind in ("miss", "hit")]
    names += ["cli.build_parser", "algebra.validate"]
    metrics = {}
    for name in names:
        if len(functions.get(name, ())) != UNIT_POINTS:
            raise SystemExit(f"error: the unit pass recorded {len(functions.get(name, ()))} calls of {name}")
        stage, _, kind = name.rpartition(".")
        key = f"{stage}.self_us.{kind}" if kind in ("miss", "hit") else f"{name}.self_us"
        metrics[key] = statistics.median(functions[name]) / 1e3
    return metrics, solves.solutions, solves.verified


def run_traced(workload: str, seed: int, seconds: float, spans_path: Path) -> dict:
    from zksym import cli, geometry

    from speed import probe, rescale
    from tracer import LAYERS, NAMED, Tracer, by_command, summarize
    from workloads import Checker, make_workload

    checker = Checker()
    warmup, ops = make_workload(workload, seed, OUT)
    tracer = Tracer()
    tracer.install()
    missing = sorted(set(NAMED) - tracer.wrapped)
    cache = getattr(geometry, "_cached_geometry", None)
    if missing or not hasattr(cache, "cache_info"):
        tracer.uninstall()
        raise SystemExit(f"error: the tracer cannot find {missing or 'geometry._cached_geometry.cache_info'}")
    try:
        warm = warm_up(cli, warmup, checker)
        tracer.clear()
        info0 = cache.cache_info()  # read-only
        traced, untraced = Tally(), Tally()
        block = max(1, op_count(workload, seconds, TRACE_BLOCKS) // TRACE_BLOCKS)
        for i in range(TRACE_BLOCKS):
            if i % 2 == 0:
                tracer.install()
                drive(cli, ops, checker, traced, block, tracer=tracer, probe=probe)
            else:
                tracer.uninstall()
                drive(cli, ops, checker, untraced, block, probe=probe)
        info1 = cache.cache_info()
    finally:
        tracer.uninstall()

    summary = summarize(tracer.spans)
    n = traced.attempted
    root_ns = summary["root_ns"]
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        stats = summary["layers"][layer]
        metrics[f"{layer}.calls_per_op"] = stats["calls"] / n
        metrics[f"{layer}.self_ms_per_op"] = stats["self_ns"] / 1e6 / n
        metrics[f"{layer}.self_share"] = stats["self_ns"] / root_ns
    unit, solutions, verified = unit_pass(seed)
    metrics.update(unit)
    hits = info1.hits - info0.hits
    lookups = hits + info1.misses - info0.misses
    if not lookups:
        raise SystemExit("error: the traced ops made no geometry cache lookup")
    metrics["geometry.cache_hit_ratio"] = hits / lookups
    metrics["analysis.verified_ratio"] = (tracer.verified + verified) / (tracer.solutions + solutions)
    metrics["metric.build_form.calls_per_op"] = len(summary["functions"].get("metric.build_form", ())) / n
    metrics.update(setup_breakdown())
    traced_rate, untraced_rate = (t.passed / sum(rescale(t.latencies, t.probes)) for t in (traced, untraced))
    metrics["trace_overhead_frac"] = 1.0 - traced_rate / untraced_rate

    harness_ns = traced.wall * 1e9 - sum(traced.latencies) * 1e9
    with open(spans_path, "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s) + "\n")
    table = [(k, v, _unit(k), "") for k, v in metrics.items()]
    table.append(("harness_ms_per_op", harness_ns / 1e6 / n, "ms", "benchmark time outside cli.main, speed probes included"))
    table.append(("traced_ops", n, "count", f"{untraced.attempted} untraced; spans in {spans_path.name}"))
    commands = by_command(tracer.spans, traced.commands)
    tally = Tally()
    for part in (traced, untraced):
        tally.latencies += part.latencies
        tally.passed += part.passed
        tally.failed += part.failed
        tally.wrong += part.wrong
        tally.reasons += part.reasons
    return {
        "tally": tally,
        "warm": warm,
        "metrics": metrics,
        "table": table,
        "commands": commands,
        "breakdown": breakdown_table(commands),
        "summary": summary,
        "traced_wall_ns": traced.wall * 1e9,
        "harness_ns": harness_ns,
    }


def breakdown_table(commands: dict) -> list[str]:
    """Self share of each layer per command, and over every command but inspect."""
    from tracer import LAYERS

    rows = dict(commands)
    rest = [c for c in commands if c != "inspect"]
    if "inspect" in commands and rest:
        rows["all but inspect"] = {
            "ops": sum(commands[c]["ops"] for c in rest),
            "self_ns": {layer: sum(commands[c]["self_ns"][layer] for c in rest) for layer in LAYERS},
        }
    lines = [f"  {'command':<16} {'ops':>6} {'ms/op':>8} " + " ".join(f"{layer:>9}" for layer in LAYERS)]
    for name, row in rows.items():
        total = sum(row["self_ns"].values())
        shares = " ".join(f"{100 * row['self_ns'][layer] / total:>8.1f}%" for layer in LAYERS)
        lines.append(f"  {name:<16} {row['ops']:>6} {total / 1e6 / row['ops']:>8.3f} {shares}")
    return lines


def _unit(name: str) -> str:
    if name.endswith("calls_per_op"):
        return "count"
    if name.endswith("_ms_per_op"):
        return "ms"
    if ".self_us" in name:
        return "us"
    if name.endswith("_s"):
        return "s"
    return "ratio"


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def run_one(workload: str, seed: int, seconds: float, trace: int) -> int:
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    if trace:
        result = run_traced(workload, seed, seconds, OUT / f"spans-{workload}-seed{seed}.jsonl")
    else:
        result = run_e2e(workload, seed, seconds)
    desc = machine(workload, seed, trace)
    tally, warm = result["tally"], result["warm"]
    print("machine: " + json.dumps(desc))
    print(f"workload {workload}: closed loop, 1 client, {tally.attempted} ops measured after {warm.attempted} warm-up ops")
    for name, value, unit, note in result["table"]:
        print(f"  {name:<40} {value:>14.6g} {unit:<6} {note}")
    if "breakdown" in result:
        print("self share of cli.main time by layer, per command (traced ops):")
        print("\n".join(result["breakdown"]))
    reasons = tally.reasons + warm.reasons
    if reasons:
        print("failed checks: " + json.dumps(dict(reasons.most_common(10))))
    line = {
        "correct": tally.wrong + warm.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": _unit(k) if trace else E2E_UNITS[k]} for k, v in result["metrics"].items()},
    }
    record = {"machine": desc, "result": line, "table": result["table"], "breakdown": result.get("breakdown"),
              "failed_checks": dict(reasons)}
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(line))
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own fresh interpreter; one combined JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        line = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        combined["metrics"].update({f"{workload}.{k}": v for k, v in line["metrics"].items()})
    print(json.dumps(combined))
    return 0


def pin_to_one_cpu() -> None:
    """Keep this process, and the interpreters it launches, on the CPU where the speed probes run."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # not every platform lets a process choose its CPU
        pass


def prepare() -> None:
    """One BLAS thread and one CPU, and the library from ``src``; before numpy is imported."""
    os.environ.update(BLAS_ENV)
    pin_to_one_cpu()
    sys.path.insert(0, str(SRC))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "zksym" / "__init__.py").is_file():
        print(f"error: the zksym sources are not at {SRC}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    prepare()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
