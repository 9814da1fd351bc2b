"""One benchmark repetition in a fresh interpreter.

Usage: python3 worker.py '<json spec>'   (started by run.py, not by hand)

Set-up time runs from the first statement of this interpreter through the
import of fracfield and the workload's first CLI call, which pays one-off
per-process work such as the lru-cached cell-average weight table.  Then
the worker runs rounds of CLI calls until its time slice is spent (at least
one round), unless it is a set-up probe, which stops after set-up.  With
tracing on, untraced and traced rounds alternate, so the overhead of
tracing is measured in the same process.  The result is one JSON object on
the last line of stdout.
"""

from time import perf_counter

T_START = perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402

import workloads as wl  # noqa: E402


def call(cli, argv):
    """Run one CLI command in-process; stdout, stderr and warnings are captured."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is a failed operation, not a benchmark error
            rc = None
            err.write(traceback.format_exc())
    elapsed = perf_counter() - t0
    quad = sum(1 for w in caught if w.category.__name__ == "IntegrationWarning")
    return rc, elapsed, out.getvalue(), err.getvalue(), quad


def _rows(text):
    lines = text.strip().splitlines()
    return [line.split(",") for line in lines[1:]]


def parse_simulate(text):
    """Ensemble mean and variance at the check cells, plus a validity verdict."""
    blocks = text.split("t,x,value,method\n")[1:]
    if len(blocks) != 2:
        return {"valid": False, "detail": f"{len(blocks)} CSV blocks, expected 2"}
    arrays = []
    for block, method in zip(blocks, ("mc_ensemble_mean", "mc_ensemble_var")):
        rows = [r.split(",") for r in block.strip().splitlines()]
        if len(rows) != wl.SNAPSHOTS * wl.N_POINTS or any(r[3] != method for r in rows):
            return {"valid": False, "detail": f"bad {method} block"}
        arrays.append([(float(r[0]), float(r[1]), float(r[2])) for r in rows])
    mean, var = arrays
    values = [v for _, _, v in mean] + [v for _, _, v in var]
    if not all(math.isfinite(v) for v in values) or min(v for _, _, v in var) < 0:
        return {"valid": False, "detail": "non-finite value or negative variance"}
    index = {(t, x): i for i, (t, x, _) in enumerate(mean)}
    positions = [x for _, x, _ in mean[: wl.N_POINTS]]
    times = sorted({t for t, _, _ in mean})
    cells, m, v = [], [], []
    for t in times:
        if t < wl.CHECK_MIN_T:
            continue
        for x in wl.CHECK_X:
            xg = min(positions, key=lambda p: abs(p - x))
            if abs(xg - x) > 1e-9:
                return {"valid": False, "detail": f"check position {x} off the grid"}
            i = index[(t, xg)]
            cells.append([t, x])
            m.append(mean[i][2])
            v.append(var[i][2])
    return {"valid": True, "cells": cells, "mean": m, "var": v}


def parse(argv, text):
    kind = argv[0]
    if kind == "simulate":
        return parse_simulate(text)
    if kind == "mild":
        obj = json.loads(text)
        return {"mild": obj["mild"],
                "probes": [[obj[k]["status"], obj[k]["values"]]
                           for k in ("probe_m1", "probe_m2")]}
    return [[float(c) for c in row[: (2 if kind == "ml" else 3)]] for row in _rows(text)]


def run_round(cli, argvs, traced):
    t0 = perf_counter()
    raw = [(argv,) + call(cli, argv) for argv in argvs]
    round_s = perf_counter() - t0
    cmds = []
    for argv, rc, s, out, err, quad in raw:
        rec = {"argv": argv, "rc": rc, "s": s, "bytes": len(out.encode()),
               "quad_warnings": quad, "error": err[-2000:] or None}
        if rc == 0:
            try:
                rec["parsed"] = parse(argv, out)
                rec["units"] = wl.units(argv, len(_rows(out)))
            except (ValueError, KeyError, IndexError) as exc:
                rec["rc"] = None
                rec["error"] = f"unparsable output: {exc!r}"
        cmds.append(rec)
    return {"s": round_s, "traced": traced, "cmds": cmds}


def main(spec):
    root, name, seed, worker = spec["root"], spec["workload"], spec["seed"], spec["worker"]
    sys.path.insert(0, os.path.join(root, "src"))
    import fracfield.cli as cli

    src = os.path.realpath(os.path.join(root, "src", "fracfield"))
    if os.path.dirname(os.path.realpath(cli.__file__)) != src:
        raise SystemExit(f"fracfield imported from {cli.__file__}, not {src}")

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    setup = run_round(cli, [wl.setup_argv(name, seed, worker)], traced=False)
    setup_s = perf_counter() - T_START
    if spec["setup_only"]:
        return {"setup_s": setup_s, "setup": setup}
    first_path_s = tracer.first("simulate.simulate_path") if tracer else None
    if tracer:
        tracer.uninstall()
        tracer.clear()

    # With tracing on, untraced and traced rounds alternate, so both see the
    # same machine and the overhead of tracing is a same-process ratio.  The
    # first round is untraced and left out of that ratio: it also pays
    # first-run costs, such as growing the heap (~1 s of page faults on
    # analytic), that later rounds do not.
    rounds, rnd, t0 = [], 0, perf_counter()
    while True:
        traced = tracer is not None and rnd % 2 == 1
        if traced:
            tracer.install()
        rounds.append(run_round(cli, wl.round_argvs(name, seed, worker, rnd), traced))
        if traced:
            tracer.uninstall()
        rnd += 1
        if perf_counter() - t0 >= spec["slice_s"] and rnd >= (3 if tracer else 1):
            break
    summary = None
    if tracer:
        summary = tracer.summary()
        tracer.write(os.path.join(spec["out_dir"], f"spans-{name}-w{worker}.jsonl"))
    result = {
        "setup_s": setup_s,
        "setup": setup,
        "first_path_s": first_path_s,
        "rounds": rounds,
        "trace": summary,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if name in wl.MC and worker == 0:
        # The scheme's deterministic mean (sigma = 0), for the accuracy check.
        # It runs after the measurement, where the weight table is warm.
        result["deterministic"] = run_round(cli, [wl.mc_argv(name, 2, 1, sigma=0.0)], False)
    return result


if __name__ == "__main__":
    result = main(json.loads(sys.argv[1]))
    sys.stdout.write(json.dumps(result) + "\n")
