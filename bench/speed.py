"""Machine-speed probe that puts timings on a common scale.

The benchmark's host is shared: its cores switch, for seconds or for a
few tens of milliseconds, between states that run the same code up to
about 1.5 times apart.  The benchmark runs ``probe()``, a fixed piece of
interpreter, argparse and numpy work, just before every timed call, and
reports each time as

    wall time * REFERENCE_S / (median of the probes around that call),

which is the time the call would have taken on the reference machine at
its fast state.  Raw wall times are reported alongside.

The probe must see the host's speed, not the state the timed calls leave
behind: a probe timed right after a call that streams through memory runs
on cold caches, and scaling by it would hide part of that call's cost
(``sensitivity.py`` measures this).  So each probe runs its work twice,
with the collector off, and only the second run is timed.
"""

from __future__ import annotations

import argparse
import gc
import statistics
from time import perf_counter

import numpy as np

# Fast-state time of probe() on the reference machine: 2-CPU Intel Xeon,
# Python 3.11.7, numpy 2.4.6 with OpenBLAS pinned to one thread.
REFERENCE_S = 0.00076

WINDOW = 4  # calls on each side whose probes also set a call's speed

_A = np.arange(512.0).reshape(8, 8, 8) / 512.0


def probe() -> float:
    """Seconds taken by a fixed mix of the work a CLI op does, on warm caches."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _work()
        t0 = perf_counter()
        _work()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def _work() -> None:
    """An interpreter loop, argparse set-up and parsing, and small einsums.

    The host's slow states slow each of these by a different factor.
    """
    acc = 0
    for i in range(2000):
        acc += i * i
    parser = argparse.ArgumentParser(prog="probe")
    commands = parser.add_subparsers(dest="command")
    for name in ("a", "b", "c"):
        command = commands.add_parser(name)
        command.add_argument("--t", type=float)
        command.add_argument("--format", choices=("text", "json"))
    parser.parse_args(["a", "--t", "1.5", "--format", "json"])
    np.einsum("ilm,jmk->ijlk", _A, _A)
    np.einsum("ilm,jmk->ijlk", _A, _A)


def rescale(times: list[float], probes: list[float]) -> list[float]:
    """Each time at the reference speed; probes[i] ran just before call i."""
    return [
        t * REFERENCE_S / statistics.median(probes[max(0, i - WINDOW): i + WINDOW + 1])
        for i, t in enumerate(times)
    ]
