"""Span tracing of the zksym layers from outside the program.

``Tracer.install`` rebinds every public function and public method of the
six layer modules, in every ``zksym`` namespace that holds it, to a
wrapper that records a span: name, layer, start, end, parent span and op
id.  ``uninstall`` puts the originals back.  Spans stay in memory until
the caller writes them out.  Time a layer spends in private helpers or in
numpy counts as its own self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import types
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("cli", "analysis", "geometry", "metric", "algebra", "so5")

# Geometry stages whose first call on a point computes and later calls look
# up, in the order the unit pass calls them.  nomizu_table is left out: no
# CLI command calls it.
STAGES = ("bracket_table", "u_table", "ricci", "ledger_table")

# Functions whose spans or results feed a named metric.  A traced run fails
# when one of them is not wrapped (renamed or removed), instead of
# reporting 0 for it.
NAMED = tuple(f"geometry.{s}" for s in STAGES) + (
    "cli.build_parser", "algebra.validate", "metric.build_form",
    "analysis.solve_ledger_u0", "analysis.solve_ledger_unonzero", "analysis.verify_solution",
)

NAME, LAYER, START, END, PARENT, OP, HIT = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.solutions = 0
        self.verified = 0
        self._stack: list[int] = []
        self._seen: set = set()
        self._patches: list[tuple[object, str, object]] = []
        self.wrapped: set[str] = set()

    def install(self) -> None:
        if self._patches:
            return
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"zksym.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and isinstance(fn, types.FunctionType):
                            self._patch(obj, meth, self._wrap(f"{layer}.{meth}", layer, fn))
                elif callable(obj):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", layer, obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "zksym" and not mod_name.startswith("zksym."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patch(module, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def clear(self) -> None:
        """Drop recorded spans and counts; keep which stage calls were first on their point."""
        self.spans.clear()
        self.solutions = self.verified = 0

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, layer: str, fn):
        self.wrapped.add(name)
        stage = name.split(".", 1)[1] if layer == "geometry" else None
        if stage not in STAGES:
            stage = None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            hit = None
            if stage is not None:
                point = getattr(args[0], "params", args[0])
                hit = (stage, point) in self._seen
                self._seen.add((stage, point))
            record = [name, layer, perf_counter_ns(), 0, stack[-1] if stack else -1, self.op, hit]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[END] = perf_counter_ns()
            if name.startswith("analysis.solve_ledger"):
                self.solutions += len(result)
            elif name == "analysis.verify_solution":
                self.verified += bool(result.passed)
            return result

        return wrapper


def self_times(spans: list[list]) -> list[int]:
    """Per span: its duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def summarize(spans: list[list]) -> dict:
    """Calls and self time per layer and per function (split by stage hit)."""
    own = self_times(spans)
    layers = {layer: {"calls": 0, "self_ns": 0} for layer in LAYERS}
    functions: dict[str, list[int]] = defaultdict(list)
    root_ns = 0
    for s, ns in zip(spans, own):
        layers[s[LAYER]]["calls"] += 1
        layers[s[LAYER]]["self_ns"] += ns
        key = s[NAME] if s[HIT] is None else f"{s[NAME]}.{'hit' if s[HIT] else 'miss'}"
        functions[key].append(ns)
        if s[PARENT] < 0:
            root_ns += s[END] - s[START]
    return {"layers": layers, "functions": dict(functions), "root_ns": root_ns}


def by_command(spans: list[list], commands: list[str]) -> dict:
    """Ops and per-layer self time for each CLI command; ``commands[i]`` is op i's command."""
    out: dict[str, dict] = {}
    for command in commands:
        out.setdefault(command, {"ops": 0, "self_ns": dict.fromkeys(LAYERS, 0)})["ops"] += 1
    for s, ns in zip(spans, self_times(spans)):
        out[commands[s[OP]]]["self_ns"][s[LAYER]] += ns
    return out
