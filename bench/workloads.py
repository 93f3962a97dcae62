"""Seeded workloads of the zksym benchmark and the checker of their outputs.

An op is one argv for ``zksym.cli.main``.  The program sees only the
argv; everything random is drawn here from the workload seed.

* ``ledger-sweep``: ``solve --branch b --S s --format json`` with S drawn
  uniformly over the paper's whole open interval of the branch.  Every S
  is new, so every op builds a fresh geometry.
* ``query-mix-hot``: tables / ricci / check-nr / isometries / ledger in
  json and text on a working set of 64 points, well inside the 256-entry
  geometry cache, plus ``inspect`` of serialized algebras.
* ``query-mix-cold``: the same command mix, every point drawn fresh.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from zksym import GradedLieAlgebra, algebra_to_dict, build_so5

S_U0 = (1.0, 9.0)
S_U1 = (1.0 / 3.0, (7.0 - math.sqrt(17.0)) / 2.0)

# An answer off by more than EXACT fails its op; off by more than WRONG it
# is wrong, not merely inexact.  WRONG is the solvers' own verify tolerance.
EXACT = 1e-12
WRONG = 1e-8

POINT_COMMANDS = ("tables", "ricci", "check-nr", "isometries", "ledger")
WORKING_SET = 64
ALGEBRA_FILES = 4
COLD_WARMUP = 20

_ARRAY_SHAPES = {
    "tables": {"bracket": (8, 8, 8), "u": (8, 8, 8)},
    "ricci": {"matrix": (8, 8)},
    "check-nr": {"max_u_coefficient": ()},
    "isometries": {"dimension": ()},
    "ledger": {"max_ledger_residual": (), "star_residuals": (4,)},
}
_NONFINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


@dataclass(frozen=True)
class Op:
    """One call of ``cli.main``.

    ``repeatable`` ops recur with the same argv; the first answer is kept
    as the fresh reference for the later, cached ones.  ``expect`` holds
    what the checker needs: (branch, S) for solve, the point for a query,
    the serialized algebra (or None for the built-in one) for inspect.
    """

    argv: tuple[str, ...]
    kind: str
    repeatable: bool
    expect: object = None

    @property
    def fmt(self) -> str:
        return self.argv[self.argv.index("--format") + 1]


def make_workload(name: str, seed: int, workdir: Path):
    """Return (warm-up ops, endless iterator of measured ops) for a workload."""
    rng = random.Random(f"{name}:{seed}")
    if name == "ledger-sweep":
        ops = _ledger_sweep(rng)
        return [next(ops) for _ in range(COLD_WARMUP)], ops
    algebras = _write_algebra_files(rng, workdir / f"algebras-{name}-{seed}")
    if name == "query-mix-hot":
        points = [_point(rng) for _ in range(WORKING_SET)]
        warmup = [_query(c, f, p, True) for p in points for c in POINT_COMMANDS for f in ("json", "text")]
        warmup += [_inspect(a, f) for a in algebras for f in ("json", "text")] + [_inspect(None, "json")]
        return warmup, _query_mix(rng, algebras, points)
    if name == "query-mix-cold":
        ops = _query_mix(rng, algebras, None)
        return [next(ops) for _ in range(COLD_WARMUP)], ops
    raise ValueError(f"unknown workload {name!r}")


def _ledger_sweep(rng: random.Random):
    # Five u0 ops per u1 op is a choice for steady latencies, not a model
    # of use (there is no usage data).  The median stays inside the u0
    # mode, and p99 stays at the top of the u1 mode: in rare stretches
    # some u1 solves take twice their usual time (see BASELINE.md), and
    # with fewer u1 ops a stretch fills fewer of the samples beyond p99.
    deck = ["u0"] * 5 + ["u1"]
    while True:
        rng.shuffle(deck)
        for branch in deck:
            lo, hi = S_U0 if branch == "u0" else S_U1
            s = rng.uniform(lo, hi)
            while not lo < s < hi:
                s = rng.uniform(lo, hi)
            argv = ("solve", "--branch", branch, "--S", repr(s), "--format", "json")
            yield Op(argv, "solve", False, (branch, s))


def _point(rng: random.Random) -> tuple[float, float, float, float]:
    # |u| <= 1.8 t^2 keeps K^2 = t^2 - u^2/(4t^2) at least 0.19 t^2, far from the guard.
    t = rng.uniform(0.5, 2.0)
    return t, rng.uniform(-1.8, 1.8) * t * t, rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0)


def _query(command: str, fmt: str, point, repeatable: bool) -> Op:
    t, u, v, w = point
    argv = (command, "--t", repr(t), "--u", repr(u), "--v", repr(v), "--w", repr(w), "--format", fmt)
    return Op(argv, "query", repeatable, point)


def _inspect(algebra, fmt: str) -> Op:
    if algebra is None:
        return Op(("inspect", "--format", fmt), "inspect", True, None)
    path, doc = algebra
    return Op(("inspect", "--algebra", str(path), "--format", fmt), "inspect", True, doc)


def _query_mix(rng: random.Random, algebras, points):
    # Assumed weights, not measured use: each query command once in json
    # and once in text, and three inspect ops, in every 13 ops.
    deck = [(c, f) for c in POINT_COMMANDS for f in ("json", "text")]
    deck += [("inspect-file", "json"), ("inspect-file", "text"), ("inspect", "json")]
    while True:
        rng.shuffle(deck)
        for command, fmt in deck:
            if command == "inspect-file":
                yield _inspect(rng.choice(algebras), fmt)
            elif command == "inspect":
                yield _inspect(None, fmt)
            elif points is None:
                yield _query(command, fmt, _point(rng), False)
            else:
                yield _query(command, fmt, rng.choice(points), True)


def _write_algebra_files(rng: random.Random, directory: Path):
    """so(5) with a seeded basis order, serialized: the same algebra in new coordinates."""
    directory.mkdir(parents=True, exist_ok=True)
    base = build_so5()
    out = []
    for n in range(ALGEBRA_FILES):
        perm = list(range(base.dim))
        rng.shuffle(perm)
        alg = GradedLieAlgebra(
            [base.names[i] for i in perm],
            base.structure[np.ix_(perm, perm, perm)],
            [base.grading[i] for i in perm],
        )
        doc = algebra_to_dict(alg)
        path = directory / f"so5-{n}.json"
        path.write_text(json.dumps(doc))
        out.append((path, doc))
    return out


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------

class Mismatch(Exception):
    """An output check failed; ``wrong`` marks an answer that is wrong, not merely inexact."""

    def __init__(self, reason: str, wrong: bool = True):
        super().__init__(reason)
        self.wrong = wrong


class Checker:
    """Checks each op's exit code and output; keeps the fresh answers of repeatable ops."""

    def __init__(self):
        self._reference: dict[tuple[str, ...], object] = {}

    def check(self, op: Op, rc, stdout: str) -> Mismatch | None:
        """None if the op passed, else the first failed check."""
        try:
            if rc is None:
                raise Mismatch("cli.main raised " + stdout.strip().splitlines()[-1])
            if rc != 0 and not stdout:  # a failure the program reported, with nothing printed
                raise Mismatch(f"exit code {rc}", wrong=False)
            answer = self._check_output(op, stdout)
            if op.repeatable:
                ref = self._reference.setdefault(op.argv, answer)
                if ref is not answer and not _same(ref, answer):
                    raise Mismatch("cached answer differs from the fresh one")
            if rc != 0:
                raise Mismatch(f"exit code {rc}", wrong=False)
        except Mismatch as exc:
            return exc
        return None

    def _check_output(self, op: Op, stdout: str):
        if op.fmt == "text":
            if not stdout.strip():
                raise Mismatch("empty output")
            if _NONFINITE.search(stdout):
                raise Mismatch("non-finite number in text output")
            return stdout
        records = _records(stdout)
        try:
            if op.kind == "solve":
                _check_solve(op.expect, records)
            elif len(records) != 1:
                raise Mismatch(f"expected one record, got {len(records)}")
            elif op.kind == "inspect":
                _check_inspect(op.expect, records[0])
            else:
                _check_query(op, records[0])
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise Mismatch(f"malformed record: {exc!r}") from exc
        return records


def _reject_constant(token: str):
    raise Mismatch(f"non-finite number {token} in JSON output")


def _records(stdout: str) -> list:
    lines = stdout.splitlines()
    if not lines:
        raise Mismatch("no output")
    try:
        return [json.loads(line, parse_constant=_reject_constant) for line in lines]
    except json.JSONDecodeError as exc:
        raise Mismatch(f"output is not JSON: {exc}") from exc


def _close(what: str, got: float, want: float) -> None:
    err = abs(got - want) / abs(want)
    if not err <= EXACT:
        raise Mismatch(f"{what} off by {err:.3g} relative", wrong=not err <= WRONG)


def _check_solve(expect, records: list) -> None:
    branch, s = expect
    if branch == "u0":
        name, count = "u-zero", 2
        product = (s - 1.0) * (9.0 - s) / 8.0
        usq = 0.0
    else:
        name, count = "u-nonzero", 4
        product = s * (4.0 - s) * (3.0 * s - 1.0) / (8.0 * (8.0 - 3.0 * s))
        usq = 4.0 * (8.0 - 7.0 * s + s * s) / (8.0 - 3.0 * s)
    if len(records) != count:
        raise Mismatch(f"expected {count} solutions, got {len(records)}")
    for r in records:
        if r["branch"] != name or r["S"] != s:
            raise Mismatch("solution for another branch or S")
        _close("V+W", r["V"] + r["W"], s)
        _close("V*W", r["V"] * r["W"], product)
        if branch == "u0":
            if r["Usq"] != 0.0:
                raise Mismatch("u-zero solution with u != 0")
        else:
            _close("u^2", r["Usq"], usq)


def _check_query(op: Op, record: dict) -> None:
    t, u, v, w = op.expect
    if record["params"] != {"t": t, "u": u, "v": v, "w": w}:
        raise Mismatch("answer for another point")
    for key, shape in _ARRAY_SHAPES[op.argv[0]].items():
        if np.shape(record[key]) != shape:
            raise Mismatch(f"{key} has shape {np.shape(record[key])}, expected {shape}")
    if op.argv[0] == "isometries" and np.shape(record["basis"]) not in {(record["dimension"], 8), (0,)}:
        raise Mismatch("isometry basis does not match its dimension")


def _check_inspect(doc, record: dict) -> None:
    if record["dim"] != 10 or record["valid"] is not True:
        raise Mismatch("so(5) reported with the wrong dimension or as invalid")
    if doc is not None and record["algebra"] != doc:
        raise Mismatch("serialized algebra does not round-trip")


def _same(ref, got) -> bool:
    """Equal structure, numbers within EXACT relative to max(1, |ref|)."""
    if isinstance(ref, str) or isinstance(got, str):
        return ref == got
    if isinstance(ref, bool) or ref is None:
        return ref is got
    if isinstance(ref, (int, float)):
        return isinstance(got, (int, float)) and abs(got - ref) <= EXACT * max(1.0, abs(ref))
    if isinstance(ref, list):
        return isinstance(got, list) and len(ref) == len(got) and all(map(_same, ref, got))
    if isinstance(ref, dict):
        return isinstance(got, dict) and ref.keys() == got.keys() and all(_same(ref[k], got[k]) for k in ref)
    return ref == got
