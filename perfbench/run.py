"""fracfield benchmark: end-to-end metrics, correctness checks, per-layer trace.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload mc_sub --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

Each repetition runs in a fresh interpreter (``worker.py``), one at a time,
so per-process caches are paid again and never leak out of set-up.  The
program is imported from ``src/`` of the checkout; nothing is installed.
Outputs are checked against independent references (``refs.py``) outside
the timed region.  The last stdout line is the JSON result; the line before
it is a manifest (versions, seed, work units, failures, per-command rates).
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
import warnings

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(HERE, ".cache", "refs.json")
OUT_DIR = os.path.join(HERE, ".out")
REF_SOURCES = (os.path.join(HERE, "refs.py"), os.path.join(ROOT, "tests", "ml_oracle.py"))
WORKERS = 3
DEADLINE_S = 170.0
CHECK_RESERVE_S = 30.0

# Correctness floors in digits (see workloads.digits).  Superdiffusive orders
# carry documented defects near the series/asymptotic hand-off (error up to
# 1.3e-2 at x = -50) and in the Fourier mean (1.8e-2 at x = 0, t = 0.5); the
# floors let those pass as recorded accuracy while catching broken output.
ML_FLOOR = {True: 6.0, False: 1.0}  # keyed by alpha < 1
MEAN_FLOOR = {True: 5.0, False: 1.0}


def median(values):
    return statistics.median(values) if values else 0.0


class Tally:
    """Attempted and failed operations and checks, with the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, note):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)
        return ok


# ---------------------------------------------------------------------------
# workers


def run_workers(name, seed, seconds, trace, tally, deadline):
    """Full workers, each preceded by set-up probes.

    A probe is a fresh interpreter that stops after set-up.  Probes
    interleaved with the workers give ``setup_s`` more samples where set-up
    is short enough to repeat; their CLI calls are checked like any other.
    A traced run reports no end-to-end metric, so it runs one worker for all
    of ``seconds`` and no probes.
    """
    workers = 1 if trace else WORKERS
    probes = 0 if trace else wl.SETUP_PROBES_PER_WORKER[name]
    schedule = [job for w in range(workers)
                for job in [(WORKERS * (1 + p) + w, True) for p in range(probes)] + [(w, False)]]
    results = []
    for worker, setup_only in schedule:
        spec = {"root": ROOT, "workload": name, "seed": seed, "worker": worker,
                "setup_only": setup_only, "slice_s": seconds / workers,
                "trace": bool(trace), "out_dir": OUT_DIR}
        timeout = deadline - time.monotonic() - CHECK_RESERVE_S
        if timeout <= 0:
            tally.check(False, f"worker {worker} not started: time budget spent")
            continue
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
                cwd=ROOT, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            tally.check(False, f"worker {worker} timed out after {timeout:.0f} s")
            continue
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tally.check(False, f"worker {worker} exit {proc.returncode}: {proc.stderr[-500:]}")
            continue
        results.append(json.loads(lines[-1]))
    return results


def all_calls(results):
    """Every CLI call: set-up calls first, then rounds, across workers and probes."""
    for res in results:
        yield from res["setup"]["cmds"]
        for rnd in res.get("rounds", ()):
            yield from rnd["cmds"]


# ---------------------------------------------------------------------------
# checks


def ml_key(alpha, beta, x):
    return f"ml|{alpha!r}|{beta!r}|{x!r}"


def mean_key(alpha, t, x):
    return f"mainardi|{alpha!r}|{t!r}|{x!r}"


def mc_reference(name, cache):
    """Mean field at a check cell, as a function of (t, x).

    At mu = 0 it is the Mainardi series (refs.py), cached.  At mu > 0 there
    is no closed form, so it is the package's ``mean_fourier``, evaluated
    afresh in every run and never cached: a cached program output would
    freeze the reference at whichever commit first filled the cache.
    """
    from fracfield import analytic_fields as af
    from fracfield.symbol import DiffusionParams, KernelSpec
    from refs import mean_reference

    alpha, mu = wl.MC[name]["alpha"], wl.MC[name]["mu"]
    if mu == 0:
        return lambda t, x: cache.get(mean_key(alpha, t, x),
                                      lambda: mean_reference(alpha, 1.0, t, x))
    params, fresh = DiffusionParams(alpha, 1.0, mu, 1.0, 1), {}

    def mf(t, x):
        if (t, abs(x)) not in fresh:
            fresh[t, abs(x)] = af.mean_fourier(params, KernelSpec(), t, abs(x))
        return fresh[t, abs(x)]

    return mf


def check_mc(name, results, tally, cache):
    """Pooled ensemble mean against the reference mean (max |z| <= Z_MAX), then accuracy."""
    from fracfield import special_fn
    from refs import load_ml_oracle

    cfg = wl.MC[name]
    ref_mean = mc_reference(name, cache)

    pooled = None  # (n, mean list, M2 list) merged pairwise (Chan et al.)
    for rec in all_calls(results):
        parsed = rec.get("parsed") or {}
        if not tally.check(rec["rc"] == 0 and parsed.get("valid"),
                           f"simulate {rec['argv']}: rc={rec['rc']} "
                           f"{parsed.get('detail') or rec['error']}"):
            continue
        n = rec["units"]
        m2 = [v * (n - 1) for v in parsed["var"]]
        if pooled is None:
            pooled = (n, parsed["mean"], m2, parsed["cells"])
            continue
        na, ma, qa, cells = pooled
        tot = na + n
        mean = [a + (b - a) * n / tot for a, b in zip(ma, parsed["mean"])]
        q = [x + y + (b - a) ** 2 * na * n / tot
             for x, y, a, b in zip(qa, m2, ma, parsed["mean"])]
        pooled = (tot, mean, q, cells)
    max_z = 0.0
    if pooled is not None:
        n, mean, q, cells = pooled
        for (t, x), m, qq in zip(cells, mean, q):
            ref = ref_mean(t, x)
            se = math.sqrt(qq / (n - 1) / n)
            z = abs(m - ref) / se if se > 0 else (0.0 if m == ref else math.inf)
            max_z = max(max_z, z)
            tally.check(z <= wl.Z_MAX, f"{name} ensemble mean at t={t}, x={x}: |z|={z:.2f}")

    # accuracy of the scheme's deterministic mean (sigma = 0), run by worker 0
    det_runs = [res["deterministic"]["cmds"][0] for res in results if "deterministic" in res]
    det = (det_runs[0].get("parsed") or {}) if det_runs else {}
    mean_digits = 0.0
    if tally.check(det.get("valid"), f"{name} sigma=0 run failed: {det_runs[:1]}"):
        mean_digits = min(wl.digits(m, ref_mean(t, x)) for (t, x), m in zip(det["cells"], det["mean"]))

    # the simulator's Mittag-Leffler values over the range of its arguments
    oracle = load_ml_oracle(ROOT)
    alpha = cfg["alpha"]
    order = special_fn.MLOrder(alpha, 1.0)
    ml_digits = 15.0
    for x in wl.SIM_ML_X:
        ref = cache.get(ml_key(alpha, 1.0, -x), lambda: oracle(alpha, 1.0, -x))
        d = wl.digits(float(special_fn.ml_eval(order, -x)), ref)
        ml_digits = min(ml_digits, d)
        tally.check(d >= ML_FLOOR[alpha < 1], f"ml_eval({alpha}, 1) at {-x}: {d:.2f} digits")
    return {"ml_digits": ml_digits, "mean_digits": mean_digits}, {
        "max_abs_z": max_z, "check_cells": len(pooled[3]) if pooled else 0}


def check_analytic(results, tally, cache):
    from refs import load_ml_oracle, mean_reference

    oracle = load_ml_oracle(ROOT)
    ml_d, mean_d = [], []
    for call in all_calls(results):
        argv = call["argv"]
        if not tally.check(call["rc"] == 0, f"{argv}: rc={call['rc']} {call['error']}"):
            continue
        kind, rows = argv[0], call["parsed"]
        opt = {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1) if argv[i].startswith("--")}
        if kind == "ml":
            a, b = float(opt["--alpha"]), float(opt.get("--beta", 1.0))
            for x, v in rows:
                ref = cache.get(ml_key(a, b, x), lambda: oracle(a, b, x))
                d = wl.digits(v, ref)
                ml_d.append(d)
                tally.check(d >= ML_FLOOR[a < 1], f"ml({a},{b}) at {x}: {d:.2f} digits")
        elif kind == "mean":
            a = float(opt["--alpha"])
            for t, x, v in rows:
                ref = cache.get(mean_key(a, t, x), lambda: mean_reference(a, 1.0, t, x))
                d = wl.digits(v, ref)
                mean_d.append(d)
                tally.check(d >= MEAN_FLOOR[a < 1], f"mean({a}) at t={t}, x={x}: {d:.2f} digits")
        elif kind == "variance":
            t0, x0, _, anchor = wl.VAR_ANCHOR
            for t, x, v in rows:
                tally.check(math.isfinite(v) and v > 0, f"variance at t={t}, x={x} not positive: {v}")
                if (t, x) == (t0, x0):
                    tally.check(abs(v - anchor) <= wl.VAR_ANCHOR_RTOL * anchor,
                                f"variance anchor {v!r} != {anchor!r}")
        elif kind == "mild":
            probes_ok = all(status != "diverges" and all(math.isfinite(v) and v > 0 for v in vals)
                            for status, vals in rows["probes"])
            tally.check(rows["mild"] and probes_ok, f"mild --probe at alpha=0.8: {rows}")
    return {"ml_digits": min(ml_d, default=0.0), "mean_digits": min(mean_d, default=0.0)}, {}


# ---------------------------------------------------------------------------
# metrics


def command_rates(rounds):
    """Untraced per-command throughput, for the manifest and the trace."""
    acc = {}
    for rnd in rounds:
        if rnd["traced"]:
            continue
        for call in rnd["cmds"]:
            if call["rc"] == 0:
                units, secs = acc.get(call["argv"][0], (0, 0.0))
                acc[call["argv"][0]] = (units + call["units"], secs + call["s"])

    def rate(kind):
        return acc[kind][0] / acc[kind][1] if kind in acc else 0.0

    return {
        "cli.simulate.paths_per_s": rate("simulate"),
        "cli.ml.points_per_s": rate("ml"),
        "cli.mean.cells_per_s": rate("mean"),
        "cli.variance.cells_per_s": rate("variance"),
        "cli.mild.probe_s": acc["mild"][1] / acc["mild"][0] if "mild" in acc else 0.0,
    }


def layer_metrics(name, results, rounds):
    traced = [r for r in rounds if r["traced"]]
    n = max(len(traced), 1)
    tot = {}
    for res in results:
        for span, rec in res["trace"].items():
            if not isinstance(rec, dict):  # ml_eval_in_cells
                tot[span] = tot.get(span, 0) + rec
                continue
            cur = tot.setdefault(span, dict.fromkeys(rec, 0))
            for k, v in rec.items():
                cur[k] += v

    def g(span, key):
        return tot.get(span, {}).get(key, 0) / n

    ml_self = g("special_fn.ml_eval", "self_s")
    cells = g("analytic_fields.mean_fourier", "calls") + g(
        "analytic_fields.var_frac_quadrature", "calls")
    out = {
        "special_fn.ml_eval.calls": g("special_fn.ml_eval", "calls"),
        "special_fn.ml_eval.points": g("special_fn.ml_eval", "points"),
        "special_fn.ml_eval.self_s": ml_self,
        "special_fn.ml_eval.points_per_s":
            g("special_fn.ml_eval", "points") / ml_self if ml_self > 0 else 0.0,
        "special_fn.ml_eval.scalar_calls": g("special_fn.ml_eval", "scalar_calls"),
        "simulate.noise_increments.calls": g("simulate.noise_increments", "calls"),
        "simulate.noise_increments.self_s": g("simulate.noise_increments", "self_s"),
        "simulate.simulate_path.self_s": g("simulate.simulate_path", "self_s"),
        "simulate.ensemble_stats.self_s": g("simulate.ensemble_stats", "self_s"),
        "simulate.first_path_s": median([r["first_path_s"] for r in results]),
        "simulate.noise_bytes": wl.noise_bytes_per_path() if name in wl.MC else 0,
        "analytic_fields.mean_fourier.calls": g("analytic_fields.mean_fourier", "calls"),
        "analytic_fields.mean_fourier.self_s": g("analytic_fields.mean_fourier", "self_s"),
        "analytic_fields.var_frac_quadrature.calls":
            g("analytic_fields.var_frac_quadrature", "calls"),
        "analytic_fields.var_frac_quadrature.self_s":
            g("analytic_fields.var_frac_quadrature", "self_s"),
        "analytic_fields.ml_eval_calls_per_cell":
            tot.get("ml_eval_in_cells", 0) / n / cells if cells else 0.0,
        "analytic_fields.quad_warnings":
            sum(c["quad_warnings"] for r in rounds for c in r["cmds"]) / len(rounds),
        "mildness.classify.calls": g("mildness.classify", "calls"),
        "mildness.probe_m2.self_s": g("mildness.probe_m2", "self_s"),
        "symbol.symbol_a.calls": g("symbol.symbol_a", "calls"),
        "symbol.symbol_a.self_s": g("symbol.symbol_a", "self_s"),
        "cli.main.self_s": g("cli.main", "self_s"),
        "cli.output_bytes": sum(c["bytes"] for r in traced for c in r["cmds"]) / n,
        "trace.overhead_frac": median([r["s"] for r in traced])
        / median([r["s"] for res in results for r in res["rounds"][1:] if not r["traced"]])
        - 1.0,
    }
    out.update(command_rates(rounds))
    return out


# ---------------------------------------------------------------------------
# provenance


def commit_id():
    """HEAD of the checkout's .git, read as files; None outside a repository."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "fracfield")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                h.update(fname.encode() + b"\0" + fh.read())
    return h.hexdigest()


def versions():
    import mpmath
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__}


# ---------------------------------------------------------------------------


def bench(args):
    t_start = time.monotonic()
    deadline = t_start + DEADLINE_S
    os.makedirs(OUT_DIR, exist_ok=True)
    tally = Tally()
    results = run_workers(args.workload, args.seed, args.seconds, args.trace, tally, deadline)
    workers = [res for res in results if "rounds" in res]
    rounds = [r for res in workers for r in res["rounds"]]
    if not workers:
        e2e, extra = {"ml_digits": 0.0, "mean_digits": 0.0}, {}
    else:
        from refs import RefCache

        sys.path.insert(0, os.path.join(ROOT, "src"))
        cache = RefCache(CACHE, REF_SOURCES)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                if args.workload in wl.MC:
                    e2e, extra = check_mc(args.workload, results, tally, cache)
                else:
                    e2e, extra = check_analytic(results, tally, cache)
            extra["check_warnings"] = len(caught)
        finally:
            cache.save()
    untraced = [r["s"] for r in rounds if not r["traced"]]
    metrics = {
        "setup_s": (median([r["setup_s"] for r in results]), "s"),
        "round_s": (median(untraced), "s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in workers]), "MB"),
        "ml_digits": (e2e["ml_digits"], "digits"),
        "mean_digits": (e2e["mean_digits"], "digits"),
    }
    calls = list(all_calls(results))

    def count(kind):
        return sum(c.get("units", 0) for c in calls if c["argv"][0] == kind)

    manifest = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit_id(), "source_sha256": source_digest(),
        "nproc": os.cpu_count(), **versions(),
        "FRACFIELD_THREADS": os.environ.get("FRACFIELD_THREADS", "unset (default 0)"),
        "workers": len(workers), "setup_probes": len(results) - len(workers), "rounds": len(rounds),
        "work_units": {
            "paths": count("simulate"), "n_points": wl.N_POINTS if args.workload in wl.MC else 0,
            "n_steps": wl.N_STEPS if args.workload in wl.MC else 0,
            "snapshots": wl.SNAPSHOTS if args.workload in wl.MC else 0,
            "cells": count("mean") + count("variance"), "points": count("ml"),
            "probes": count("mild"),
        },
        "failed_frac": tally.failed / max(tally.attempted, 1),
        "failures": tally.notes,
        "setup_s_all": [r["setup_s"] for r in results],
        "round_s": untraced,
        "command_rates": command_rates(rounds),
        "wall_s": time.monotonic() - t_start,
        **extra,
    }
    if args.trace:
        layers = layer_metrics(args.workload, workers, rounds) if workers else {}
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            declared = json.load(fh)["per_layer"]
        reported = {m["name"]: {"value": float(layers.get(m["name"], 0.0)), "unit": m["unit"]}
                    for m in declared}
    else:
        reported = {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps({"manifest": manifest}))
    print(json.dumps({"correct": tally.failed == 0 and bool(workers),
                      "attempted": max(tally.attempted, 1), "failed": tally.failed,
                      "metrics": reported}))
    return 0


def self_check():
    """One corrupted reference value must turn the checks from 0 to 1 failure."""
    from refs import RefCache
    from worker import run_round

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import fracfield.cli as cli

    ml_argv = ["ml", "--alpha", "0.6", "--beta", "1.0", "--x-range=-8:-1:3"]
    mean_argv = ["mean", "--alpha", "0.6", "--t", "1.0", "--x-range=0:1:2"]
    results = [{"setup": {"cmds": []}, "rounds": [run_round(cli, [ml_argv, mean_argv], False)]}]
    cache = RefCache(CACHE, REF_SOURCES)
    clean = Tally()
    check_analytic(results, clean, cache)
    cache.save()
    ml_x = results[0]["rounds"][0]["cmds"][0]["parsed"][1][0]
    t, x, _ = results[0]["rounds"][0]["cmds"][1]["parsed"][0]
    corrupted = {}
    for key in (ml_key(0.6, 1.0, ml_x), mean_key(0.6, t, x)):
        good = cache.data[key]
        cache.data[key] = good * 1.001  # in memory only; the cache file keeps the true value
        bad = Tally()
        check_analytic(results, bad, cache)
        cache.data[key] = good
        corrupted[key] = {"failed": bad.failed, "failed_frac": bad.failed / bad.attempted}
    ok = clean.attempted > 2 and clean.failed == 0 and all(
        c["failed"] == 1 for c in corrupted.values())
    print(json.dumps({"self_check": "pass" if ok else "FAIL",
                      "clean": {"attempted": clean.attempted, "failed": clean.failed},
                      "corrupted": corrupted}))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args()
    missing = [f for f in ("src/fracfield/__init__.py", "tests/ml_oracle.py")
               if not os.path.isfile(os.path.join(ROOT, f))]
    if missing:
        print(f"error: not a fracfield source checkout, missing {missing}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None or args.seconds <= 0:
        p.error("--workload and a positive --seconds are required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
