"""Spectral Monte Carlo simulation of the stochastic field on a periodic box.

The field on [-L, L] with n equispaced points is represented by its DFT at
frequencies xi_k = pi k / L.  One sample path combines

  * the deterministic part E_alpha(-a(xi_k) t^alpha) (Dirac initial datum), and
  * the stochastic convolution  sigma sum_{m<n} Abar[n-m, k] dW_hat[m, k],

where dW_hat is the DFT of i.i.d. Gaussian cell increments of space-time
white noise (variance dt*dx per cell) and Abar is the time kernel
Lambda(s, xi) = s^(alpha-1) E_{alpha,alpha}(-s^alpha a(xi)) averaged over
each time cell.  The cell average has the exact closed form

  (1/dt) int_{T_{l-1}}^{T_l} Lambda(s, xi) ds
      = (E_alpha(-a T_{l-1}^alpha) - E_alpha(-a T_l^alpha)) / (a dt),

because Lambda is minus the time derivative of E_alpha(-a s^alpha)/a.  This
removes the s^(alpha-1) singularity at zero lag and, at alpha = 1, makes
the scheme the exact exponential-Euler integrator.  The field is real and
a(xi) is even, so the engine works on the rfft half-spectrum k = 0..n/2 and
recovers fields by  z(x_j) = (n / 2L) * irfft(zhat)_j,  the Riemann sum of
the inverse Fourier integral on the xi_k grid (spacing pi/L).  The noise
DFT and the synthesis each carry the phase (-1)^k of x_0 = -L; the two
cancel exactly, so only the Dirac row is multiplied by (-1)^k.

The Mittag-Leffler kernel is non-Markov: no recursive update exists, so all
noise increments are kept and each requested snapshot re-weights the full
history.  Everything is deterministic given (params, kernel, grid, seed):
a counter-based generator (Philox) keyed by the seed and advanced by a
fixed per-step offset, and a fixed pairwise-tree ensemble reduction that
does not depend on any scheduling.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .analytic_fields import Profile
from .errors import DomainError, GridMismatchError, NotMildError
from .mildness import classify
from .special_fn import DEFAULT_POLICY, EvalPolicy, MLOrder, gamma_fn, ml_eval
from .symbol import DiffusionParams, KernelSpec, symbol_a

__all__ = [
    "GridSpec",
    "SamplePath",
    "EnsembleStats",
    "noise_increments",
    "simulate_path",
    "stats_to_profiles",
    "ensemble_stats",
    "compare_to_analytic",
    "mix_seed",
]

_MASK64 = (1 << 64) - 1


def mix_seed(master_seed: int, index: int) -> int:
    """Derive the per-sample seed: splitmix64 output for master_seed + (i+1)*phi64.

    This mixing function is part of the external reproducibility contract.
    """
    z = (master_seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class GridSpec:
    """Periodic space-time grid: box [-L, L], n_points cells, n_steps time steps."""

    half_length: float = 20.0
    n_points: int = 1024
    n_steps: int = 256
    t_end: float = 1.0
    ic: str = "dirac_spectral"

    def __post_init__(self):
        if not self.half_length > 0 or not self.t_end > 0:
            raise DomainError("half_length and t_end must be positive")
        n = self.n_points
        if n < 64 or n & (n - 1):
            raise DomainError("n_points must be a power of two >= 64")
        if self.n_steps < 16:
            raise DomainError("n_steps must be >= 16")
        if self.ic not in ("dirac_spectral", "zero"):
            raise DomainError(f"unknown initial condition {self.ic!r}")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_length / self.n_points

    @property
    def dt(self) -> float:
        return self.t_end / self.n_steps

    def positions(self) -> np.ndarray:
        return -self.half_length + self.dx * np.arange(self.n_points)

    def frequencies(self) -> np.ndarray:
        """xi_k = pi k / L in FFT ordering."""
        return 2.0 * math.pi * np.fft.fftfreq(self.n_points, d=self.dx)


@dataclass(frozen=True)
class SamplePath:
    grid: GridSpec
    snapshots: tuple  # of (t_n, ndarray of n_points field values)
    seed: int


@dataclass(frozen=True)
class EnsembleStats:
    grid: GridSpec
    n_samples: int
    times: tuple
    positions: np.ndarray
    mean: np.ndarray  # (n_snapshots, n_points)
    variance: np.ndarray  # unbiased, same shape
    master_seed: int


def _rng_for_step(grid: GridSpec, seed: int, step: int) -> np.random.Generator:
    bg = np.random.Philox(key=seed)
    # fixed counter offset per step keeps draws of different steps disjoint
    bg.advance(step * 16 * grid.n_points)
    return np.random.Generator(bg)


def _cell_increments(grid: GridSpec, seed: int, step: int) -> np.ndarray:
    """Real white-noise cell increments of one time slab, i.i.d. N(0, dt*dx)."""
    rng = _rng_for_step(grid, seed, step)
    return rng.standard_normal(grid.n_points) * math.sqrt(grid.dt * grid.dx)


def noise_increments(grid: GridSpec, seed: int, step: int) -> np.ndarray:
    """DFT of one time slab of white-noise cell increments.

    Real-space increments are i.i.d. N(0, dt*dx) per cell; the return value
    is dW_hat_k = sum_j exp(-i xi_k x_j) dB_j, Hermitian-symmetric with
    E|dW_hat_k|^2 = n_points * dt * dx.
    """
    n = grid.n_points
    half = np.fft.rfft(_cell_increments(grid, seed, step))
    # assemble the full spectrum by explicit mirroring so Hermitian symmetry
    # holds bit-exactly, with real DC and Nyquist entries
    half[[0, -1]] = half[[0, -1]].real
    out = np.concatenate([half, np.conj(half[-2:0:-1])])
    phase = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    # exp(-i xi_k x_j) = (-1)^k exp(-2 pi i j k / n) since x_j starts at -L
    return phase * out


@functools.lru_cache(maxsize=8)
def _kernel_tables(
    params: DiffusionParams,
    kernel: KernelSpec,
    grid: GridSpec,
    policy: EvalPolicy,
):
    """(E, Abar) on the half-spectrum k = 0..n/2, shape (n_steps+1, n/2+1):
    E[l, k] = E_alpha(-a(xi_k) T_l^alpha) for l = 0..n_steps, and Abar[l-1, k]
    for lags l = 1..n_steps, the exact cell averages of Lambda.

    Row l of E is the Dirac part of a snapshot at step l.  Row l-1 of Abar
    holds (E[l-1] - E[l]) / (a dt); for a = 0 the limit
    (T_l^alpha - T_{l-1}^alpha) / (Gamma(alpha+1) dt).
    """
    a = symbol_a(params, kernel, grid.frequencies()[: grid.n_points // 2 + 1])
    t_alpha = (grid.dt * np.arange(grid.n_steps + 1)) ** params.alpha
    e = ml_eval(MLOrder(params.alpha, 1.0), -np.outer(t_alpha, a), policy)
    zero = a == 0.0
    a_safe = np.where(zero, 1.0, a)
    weights = (e[:-1] - e[1:]) / (a_safe[None, :] * grid.dt)
    if np.any(zero):
        limit = (t_alpha[1:] - t_alpha[:-1]) / (gamma_fn(params.alpha + 1.0) * grid.dt)
        weights[:, zero] = limit[:, None]
    e.setflags(write=False)  # shared by every path through the cache
    weights.setflags(write=False)
    return e, weights


def _default_snapshot_steps(grid: GridSpec, n_out: int = 8):
    stride = max(grid.n_steps // n_out, 1)
    return tuple(range(stride, grid.n_steps + 1, stride))


def simulate_path(
    params: DiffusionParams,
    kernel: KernelSpec,
    grid: GridSpec,
    seed: int,
    snapshot_steps=None,
    force: bool = False,
    policy: EvalPolicy = DEFAULT_POLICY,
) -> SamplePath:
    """One sample path; snapshots at the requested step indices (default 8 times).

    Refuses non-mild parameter sets (with dim=1 semantics) unless force=True.
    """
    verdict = classify(params if params.dim == 1 else DiffusionParams(
        params.alpha, params.lam, params.mu, params.sigma, 1))
    if not verdict.mild and not force:
        raise NotMildError(
            f"not mild ({verdict.rule.value}): {verdict.detail}; "
            "pass force=True to simulate anyway"
        )
    if snapshot_steps is None:
        snapshot_steps = _default_snapshot_steps(grid)
    snapshot_steps = tuple(int(s) for s in snapshot_steps)
    if any(s < 1 or s > grid.n_steps for s in snapshot_steps):
        raise DomainError("snapshot steps must lie in 1..n_steps")

    n = grid.n_points
    phase = np.where(np.arange(n // 2 + 1) % 2 == 0, 1.0, -1.0)
    inv_scale = n / (2.0 * grid.half_length)
    dirac, weights = _kernel_tables(params, kernel, grid, policy)

    if params.sigma != 0.0:
        db = [_cell_increments(grid, seed, m) for m in range(max(snapshot_steps))]
        w_half = np.fft.rfft(db, axis=1)
    snapshots = []
    for step in snapshot_steps:
        z_half = np.zeros(n // 2 + 1, dtype=complex)
        if grid.ic == "dirac_spectral":
            z_half += phase * dirac[step]
        if params.sigma != 0.0:
            # lag of increment slab m (covering (tau_m, tau_{m+1})) is step - m
            z_half += params.sigma * np.sum(
                weights[step - 1 :: -1][: step] * w_half[:step], axis=0
            )
        snapshots.append((step * grid.dt, np.fft.irfft(z_half, n) * inv_scale))
    return SamplePath(grid=grid, snapshots=tuple(snapshots), seed=seed)


def _merge(a, b):
    """Chan-Golub-LeVeque merge of (count, mean, M2) summaries; M2 is the
    sum of squared deviations, so no mean^2 >> variance cancellation occurs."""
    (na, ma, qa), (nb, mb, qb) = a, b
    n, delta = na + nb, mb - ma
    return n, ma + delta * (nb / n), qa + qb + delta * delta * (na * nb / n)


def _pairwise_merge(stack, item):
    """Binary-counter pairwise reduction step; stack holds (level, summary)."""
    level = 0
    while stack and stack[-1][0] == level:
        item = _merge(stack.pop()[1], item)
        level += 1
    stack.append((level, item))


def ensemble_stats(
    params: DiffusionParams,
    kernel: KernelSpec,
    grid: GridSpec,
    n_samples: int,
    master_seed: int,
    snapshot_steps=None,
    force: bool = False,
    policy: EvalPolicy = DEFAULT_POLICY,
) -> EnsembleStats:
    """Monte Carlo mean and unbiased variance over n_samples independent paths.

    Per-sample seeds come from mix_seed(master_seed, i); (count, mean, M2)
    summaries are merged in a fixed pairwise tree, so the result is
    independent of any execution schedule.
    """
    if n_samples < 2:
        raise DomainError("ensemble_stats requires n_samples >= 2")
    if snapshot_steps is None:
        snapshot_steps = _default_snapshot_steps(grid)
    stack = []
    times = None
    for i in range(n_samples):
        path = simulate_path(
            params, kernel, grid, mix_seed(master_seed, i),
            snapshot_steps=snapshot_steps, force=force, policy=policy,
        )
        if times is None:
            times = tuple(t for t, _ in path.snapshots)
        fields = np.array([f for _, f in path.snapshots])
        _pairwise_merge(stack, (1, fields, 0.0))
    total = stack.pop()[1]
    while stack:
        total = _merge(stack.pop()[1], total)
    _, mean, m2 = total
    variance = m2 / (n_samples - 1)
    return EnsembleStats(
        grid=grid,
        n_samples=n_samples,
        times=times,
        positions=grid.positions(),
        mean=mean,
        variance=variance,
        master_seed=master_seed,
    )


def stats_to_profiles(stats: EnsembleStats):
    """Export ensemble mean and variance as Profile objects."""
    pos = tuple(float(x) for x in stats.positions)
    meta = {"n_samples": stats.n_samples, "master_seed": stats.master_seed}
    return (
        Profile(stats.times, pos, stats.mean, "mc_ensemble_mean", meta),
        Profile(stats.times, pos, stats.variance, "mc_ensemble_var", meta),
    )


def compare_to_analytic(stats: EnsembleStats, reference: Profile) -> dict:
    """Pointwise z-scores of the ensemble estimate against a reference profile.

    For mean-type references the standard error is sqrt(var/n); for
    variance-type references it is the Gaussian-theory var*sqrt(2/(n-1)).
    Reference positions must be a subset of the grid positions and times
    must match snapshot times.
    """
    is_var = reference.method in ("var_quadrature", "var_series", "var_closed",
                                  "mc_ensemble_var")
    try:
        t_idx = [stats.times.index(t) for t in reference.times]
    except ValueError as exc:
        raise GridMismatchError(f"reference time not among snapshots: {exc}")
    x_idx = []
    for x in reference.positions:
        j = np.argmin(np.abs(stats.positions - x))
        if abs(stats.positions[j] - x) > 1e-9 * max(1.0, abs(x)):
            raise GridMismatchError(f"reference position {x} not on the grid")
        x_idx.append(int(j))
    est = (stats.variance if is_var else stats.mean)[np.ix_(t_idx, x_idx)]
    ref = np.asarray(reference.values, dtype=float)
    if is_var:
        se = est * math.sqrt(2.0 / (stats.n_samples - 1))
    else:
        se = np.sqrt(stats.variance[np.ix_(t_idx, x_idx)] / stats.n_samples)
    se = np.where(se == 0.0, 1e-300, se)
    z = (est - ref) / se
    # exact agreement (self-comparison) yields exact zeros
    z = np.where(est == ref, 0.0, z)
    return {
        "z": z,
        "max_abs_z": float(np.max(np.abs(z))),
        "mean_abs_z": float(np.mean(np.abs(z))),
    }
