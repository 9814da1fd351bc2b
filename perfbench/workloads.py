"""Workload definitions shared by run.py and its workers.

Every operation is a ``fracfield`` CLI call, given here as an argv list.
The workload seed fixes every input: the Monte Carlo master seeds and the
jitter of the analytic sweep points.  The known accuracy defects stay in
view on purpose: the analytic ``ml`` sweep always contains the fixed window
x in [-50, -48] next to the 1 < alpha < 2 hand-off, and both mean profiles
always contain x = 0, where the superdiffusive Fourier mean is worst.
"""

from __future__ import annotations

import math
import random

N_POINTS = 1024
N_STEPS = 256
SNAPSHOTS = 8

# Monte Carlo workloads: CLI defaults for the grid (1024 x 256, 8 snapshots,
# Dirac initial condition, Gaussian jump kernel).
MC = {
    # Mittag-Leffler spectral branch dominates: the cell-average weight
    # table (once per process) and the Dirac part (every path and snapshot).
    "mc_sub": {"alpha": 0.8, "mu": 0.5, "samples": 8},
    # Noise generation, stochastic convolution and ensemble reduction dominate.
    "mc_super": {"alpha": 1.5, "mu": 0.0, "samples": 64},
}
WORKLOADS = ("mc_sub", "mc_super", "analytic")

# Fresh interpreters that stop after set-up, run before each of the three
# workers, so setup_s is a median of 3 * (1 + n) samples.  mc_sub's set-up
# (the weight table, ~10 s) is too long to repeat within a run's budget.
SETUP_PROBES_PER_WORKER = {"mc_sub": 0, "mc_super": 2, "analytic": 2}

# Ensemble-mean check cells: snapshot times t >= 0.25 at these x (all on the
# grid).  Acceptance criteria 11-12 allow max |z| <= 4 for one fixed seed.
# Every benchmark run draws new seeds, so the limit is set for a false-alarm
# rate below 1e-4 per run over 49 cells (two-sided 49 * 5.7e-7 at |z| = 5).
CHECK_X = (0.0, 0.625, -0.625, 1.25, -1.25, 2.5, -2.5)
CHECK_MIN_T = 0.25
Z_MAX = 5.0

# Arguments -x at which the simulator's Mittag-Leffler values are graded:
# log-spaced over the range a(xi) t^alpha takes on the grid (up to ~6400).
SIM_ML_X = (1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
            500.0, 1000.0, 3000.0, 6400.0)

VAR_ANCHOR = (1.0, 1.0, 0.6, 0.046873949677921)  # t, x, alpha, value
VAR_ANCHOR_RTOL = 1e-4


def _f(v: float) -> str:
    return repr(float(v))


def mc_argv(name: str, samples: int, seed: int, sigma: float = 1.0) -> list:
    cfg = MC[name]
    return ["simulate", "--alpha", _f(cfg["alpha"]), "--lambda", "1",
            "--mu", _f(cfg["mu"]), "--sigma", _f(sigma),
            "--samples", str(samples), "--seed", str(seed)]


def mc_seed(seed: int, worker: int, rnd: int) -> int:
    """Master seed of one simulate call; rnd = -1 is the set-up call."""
    return ((seed * 1009 + worker) * 1_000_003 + rnd + 1) & (2**63 - 1)


def setup_argv(name: str, seed: int, worker: int) -> list:
    """First CLI call of a fresh interpreter; set-up time includes it."""
    if name in MC:
        return mc_argv(name, 2, mc_seed(seed, worker, -1))
    return ["ml", "--alpha", "0.6", "--x-range=-1:-1:1"]


def analytic_round(seed: int) -> list:
    """The analytic command list.  It depends only on the seed."""
    rng = random.Random(seed)
    cmds = []
    for alpha in (0.6, 1.2, 1.8):
        for beta in (1.0, alpha):
            head = ["ml", "--alpha", _f(alpha), "--beta", _f(beta)]
            reach, n = (20.0, 21) if alpha < 1 else (62.0, 41)
            lo = -(reach + 4.0 * rng.random())
            hi = -(0.25 + 0.5 * rng.random())
            cmds.append(head + [f"--x-range={_f(lo)}:{_f(hi)}:{n}"])
            if alpha > 1:
                cmds.append(head + ["--x-range=-50:-48:9"])
    t2 = 0.8 + 0.7 * rng.random()
    x_hi = 1.8 + 0.8 * rng.random()
    mean = ["mean", "--method", "fourier", "--alpha"]
    cmds.append(mean + ["0.6", "--t-list", f"0.5,{_f(t2)}", f"--x-range=0:{_f(x_hi)}:9"])
    # Fixed cells at alpha=1.5.  A jittered cell whose value lands just above
    # the 1e-3 relative/absolute switch of `digits` would set mean_digits by
    # chance; the documented worst cell (x=0, t=0.5) must set it instead.
    cmds.append(mean + ["1.5", "--t-list", "0.5,1.0", "--x-range=0:2:5"])
    t, x, alpha, _ = VAR_ANCHOR
    cmds.append(["variance", "--method", "quadrature", "--alpha", _f(alpha),
                 "--t", _f(t), "--x", _f(x)])
    cmds.append(["mild", "--alpha", "0.8", "--probe"])
    return cmds


def round_argvs(name: str, seed: int, worker: int, rnd: int) -> list:
    if name in MC:
        return [mc_argv(name, MC[name]["samples"], mc_seed(seed, worker, rnd))]
    return analytic_round(seed)


def units(argv: list, n_rows: int) -> int:
    """Work units of one call: paths, points, cells or probes."""
    if argv[0] == "simulate":
        return int(argv[argv.index("--samples") + 1])
    if argv[0] == "mild":
        return 1
    return n_rows


def noise_bytes_per_path() -> int:
    """Computed size of one path's noise history: max_step x n_points x 16 B."""
    return N_STEPS * N_POINTS * 16


def digits(value: float, ref: float) -> float:
    """-log10 of the error, relative where |ref| > 1e-3, absolute below; cap 15."""
    err = abs(value - ref)
    if abs(ref) > 1e-3:
        err /= abs(ref)
    if not math.isfinite(err):
        return -15.0
    return 15.0 if err <= 1e-15 else min(15.0, -math.log10(err))
