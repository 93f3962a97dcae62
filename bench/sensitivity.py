#!/usr/bin/env python3
"""Does the speed scaling of ``speed.py`` keep a real slowdown visible?

    python3 bench/sensitivity.py --workload ledger-sweep --seed 1 --seconds 25 --extra 0.15 --kind garbage

One process runs the workload's op stream in alternating blocks: plain,
and loaded, where fixed busy work follows every ``cli.main`` call inside
the timed region.  The busy work (see ``make_busy``) costs about
``--extra`` of the plain scaled p50.  Each block is scaled by its own
probes only, so the probes of a loaded block follow loaded ops, as they
would on a slower commit.  The blocks alternate every few hundred
milliseconds, so the host's speed states fall on both sides alike and the
raw times compare fairly.

The last line reports, for the p50 and for the time per passed op
(1 / ops_per_s), the loaded-over-plain change of the scaled times and of
the raw times, and ``kept``: the scaled change over the raw change.  If
probes next to a heavier op were slowed by it (frequency, cache state,
collections of the op's garbage), the scaling would absorb part of the
slowdown and ``kept`` would fall below 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

BLOCK_OPS = 25


def make_busy(units: int, kind: str):
    """Fixed work of ``units`` units.

    ``garbage``: a unit is a list of small dicts left as garbage and a small
    einsum, like the program's own work.  ``memory``: a unit sums the next
    512 KB of a 16 MB array, so the work streams through memory and leaves
    the caches cold for what follows.
    """
    import numpy as np  # after run.prepare() has pinned the BLAS pool

    b = np.linspace(0.0, 1.0, 512).reshape(8, 8, 8)
    big = np.ones(1 << 21)
    step = 1 << 16
    offset = [0]

    def busy() -> list:
        junk = []
        for k in range(units):
            if kind == "garbage":
                junk.append([{"k": k, "v": float(i)} for i in range(40)])
                np.einsum("ijk,jkl->il", b, b)
            else:
                junk.append(big[offset[0]:offset[0] + step].sum())
                offset[0] = (offset[0] + step) % big.size
        return junk

    return busy


def summary(blocks: list[run.Tally]) -> dict:
    from speed import rescale

    scaled = [x for b in blocks for x in rescale(b.latencies, b.probes)]
    raw = [x for b in blocks for x in b.latencies]
    passed = sum(b.passed for b in blocks)
    return {
        "ops": len(raw),
        "p50_ms": 1e3 * statistics.median(scaled),
        "per_op_ms": 1e3 * sum(scaled) / passed,
        "raw_p50_ms": 1e3 * statistics.median(raw),
        "raw_per_op_ms": 1e3 * sum(raw) / passed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0, help="as for run.py; the plain and the loaded ops each number as many as run.py measures")
    parser.add_argument("--extra", type=float, default=0.15, help="busy work as a share of the plain scaled p50")
    parser.add_argument("--kind", choices=("garbage", "memory"), default="garbage", help="what the busy work does")
    args = parser.parse_args(argv)
    run.prepare()

    from zksym import cli

    from speed import probe
    from workloads import Checker, make_workload

    checker = Checker()
    warmup, ops = make_workload(args.workload, args.seed, run.OUT)
    run.warm_up(cli, warmup, checker)
    plain_main = cli.main
    first = run.Tally()
    run.drive(cli, ops, checker, first, 4 * BLOCK_OPS, probe=probe)
    units_per_ms = 10 / summary([_timed(make_busy(10, args.kind), probe)])["p50_ms"]
    units = max(1, round(args.extra * summary([first])["p50_ms"] * units_per_ms))
    busy = make_busy(units, args.kind)

    def loaded_main(argv):
        rc = plain_main(argv)
        busy()
        return rc

    blocks = {"plain": [], "loaded": []}
    for _ in range(max(1, run.op_count(args.workload, args.seconds) // BLOCK_OPS)):
        for side, main_fn in (("plain", plain_main), ("loaded", loaded_main)):
            cli.main = main_fn
            blocks[side].append(run.Tally())
            run.drive(cli, ops, checker, blocks[side][-1], BLOCK_OPS, probe=probe)
    cli.main = plain_main

    plain, loaded = summary(blocks["plain"]), summary(blocks["loaded"])
    busy_alone = summary([_timed(busy, probe)])
    change = {}
    for key in ("p50_ms", "per_op_ms"):
        scaled = loaded[key] / plain[key] - 1.0
        raw = loaded[f"raw_{key}"] / plain[f"raw_{key}"] - 1.0
        change[key[:-3]] = {"scaled": scaled, "raw": raw, "kept": scaled / raw}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "kind": args.kind, "units": units,
                      "busy_alone_ms": busy_alone["p50_ms"], "raw_busy_alone_ms": busy_alone["raw_p50_ms"],
                      "plain": plain, "loaded": loaded, "change": change}))
    return 0


def _timed(busy, probe, n: int = 200) -> run.Tally:
    """busy() timed n times, each after a probe, like an op."""
    tally = run.Tally()
    for _ in range(n):
        tally.probes.append(probe())
        t0 = time.perf_counter()
        busy()
        tally.latencies.append(time.perf_counter() - t0)
        tally.passed += 1
    return tally


if __name__ == "__main__":
    sys.exit(main())
