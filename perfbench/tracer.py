"""Outside-in span tracer for the fracfield benchmark.

The package binds several public functions into other modules with
``from .x import name`` (``ml_eval`` into simulate, analytic_fields,
mildness and symbol; ``symbol_a`` into simulate, analytic_fields and
mildness; ``classify`` into simulate).  Patching only the defining module
would miss those calls, so ``install`` replaces every binding of the
original function object in every loaded ``fracfield`` module.

Spans live in memory as tuples and are summarised (or written out) once,
when the run ends.  A span's self time is its duration minus the durations
of its direct children; calls are strictly nested in one thread, so the
children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

import numpy as np

# (defining module, function name, span name)
TARGETS = (
    ("fracfield.special_fn", "ml_eval", "special_fn.ml_eval"),
    ("fracfield.symbol", "symbol_a", "symbol.symbol_a"),
    ("fracfield.mildness", "classify", "mildness.classify"),
    ("fracfield.mildness", "probe_m1", "mildness.probe_m1"),
    ("fracfield.mildness", "probe_m2", "mildness.probe_m2"),
    ("fracfield.simulate", "noise_increments", "simulate.noise_increments"),
    ("fracfield.simulate", "simulate_path", "simulate.simulate_path"),
    ("fracfield.simulate", "ensemble_stats", "simulate.ensemble_stats"),
    ("fracfield.analytic_fields", "mean_fourier", "analytic_fields.mean_fourier"),
    ("fracfield.analytic_fields", "var_frac_quadrature",
     "analytic_fields.var_frac_quadrature"),
    ("fracfield.cli", "main", "cli.main"),
)

CELL_SPANS = ("analytic_fields.mean_fourier", "analytic_fields.var_frac_quadrature")


def _ml_points(args, kwargs):
    """(points, is_scalar) of an ml_eval call: its argument is the second one."""
    x = args[1] if len(args) > 1 else kwargs["x"]
    return int(np.size(x)), np.ndim(x) == 0


class Tracer:
    """Records (name, start, end, parent index, points, scalar) per call."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        count_points = name == "special_fn.ml_eval"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                pts, scalar = _ml_points(args, kwargs) if count_points else (0, False)
                spans[idx] = (name, t0, t1, parent, pts, scalar)

        return traced

    def install(self):
        """Replace every fracfield binding of each target with a traced wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, span_name in TARGETS:
            original = getattr(importlib.import_module(mod_name), attr)
            wrapper = self._wrap(span_name, original)
            for name, mod in list(sys.modules.items()):
                if not (name == "fracfield" or name.startswith("fracfield.")):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def first(self, name):
        """Duration of the first completed span with this name, or 0.0."""
        for span in self.spans:
            if span is not None and span[0] == name:
                return span[2] - span[1]
        return 0.0

    def clear(self):
        self.spans.clear()

    def summary(self) -> dict:
        """Per span name: calls, total_s, self_s (and points/scalar_calls for ml_eval).

        ``ml_eval_in_cells`` counts ml_eval calls made beneath a mean or
        variance profile cell.
        """
        spans = [s for s in self.spans if s is not None]
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out = {}
        ml_in_cells = 0
        for idx, span in enumerate(self.spans):
            if span is None:
                continue
            name, t0, t1, parent, pts, scalar = span
            rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                        "points": 0, "scalar_calls": 0})
            rec["calls"] += 1
            rec["total_s"] += t1 - t0
            rec["self_s"] += (t1 - t0) - child_time[idx]
            rec["points"] += pts
            rec["scalar_calls"] += int(scalar)
            if name == "special_fn.ml_eval":
                p = parent
                while p >= 0:
                    pname = self.spans[p][0]
                    if pname in CELL_SPANS:
                        ml_in_cells += 1
                        break
                    p = self.spans[p][3]
        out["ml_eval_in_cells"] = ml_in_cells
        return out

    def write(self, path):
        """Write all spans once, one JSON array per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")

