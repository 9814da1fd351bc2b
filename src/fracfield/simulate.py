"""Spectral Monte Carlo simulation of the stochastic field on a periodic box.

The field on [-L, L] with n equispaced points is represented by its DFT at
frequencies xi_k = pi k / L.  The scheme behind one sample path combines

  * the deterministic part E_alpha(-a(xi) t^alpha) (Dirac initial datum),
    aliased onto the band |xi| <= pi/dx so that it gives the exact mean at
    the grid points (see _aliased_row), and
  * the stochastic convolution  sigma sum_{m<s} Abar[s-1-m, k] dW_hat[m, k],

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

The Mittag-Leffler kernel is non-Markov, so no recursion in time exists;
but the scheme is linear and Gaussian, and the real and imaginary parts of
different modes are independent.  So each mode's values at the J snapshot
steps form a Gaussian vector whose covariance is a lag sum over the whole
history, and the engine samples that vector exactly (the spectral exact
sampler of Lord, Powell & Shardlow, An Introduction to Computational
Stochastic PDEs, CUP 2014, ch. 10): one cached J x J factor per mode and J
normal draws per real part, instead of a noise increment per time step.
The noise law of every snapshot is the scheme's own; only the realization
for a given seed differs from a time stepper's.  Everything is deterministic
given (params, kernel, grid, snapshots, seed): a counter-based generator
(Philox) keyed by the seed, and an ensemble that is the exact grid mean
plus sigma times the noise's own moments, summed path by path in seed
order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from .analytic_fields import Profile, _tail_coefficients, _tail_onset
from .errors import DomainError, GridMismatchError, NotMildError
from .mildness import classify
from .special_fn import MLOrder, gamma_fn, ml_eval
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


def noise_increments(grid: GridSpec, seed: int, step: int) -> np.ndarray:
    """DFT of one time slab of white-noise cell increments.

    Real-space increments are i.i.d. N(0, dt*dx) per cell, drawn from
    Philox(key=seed) advanced by step * 16 * n_points; the return value
    is dW_hat_k = sum_j exp(-i xi_k x_j) dB_j, Hermitian-symmetric with
    E|dW_hat_k|^2 = n_points * dt * dx.  This is the scheme's noise written
    out step by step; simulate_path samples its law at the snapshots
    directly and does not call it.
    """
    n = grid.n_points
    bg = np.random.Philox(key=seed)
    # fixed counter offset per step keeps draws of different steps disjoint
    bg.advance(step * 16 * n)
    db = np.random.Generator(bg).standard_normal(n) * math.sqrt(grid.dt * grid.dx)
    half = np.fft.rfft(db)
    # assemble the full spectrum by explicit mirroring so Hermitian symmetry
    # holds bit-exactly, with real DC and Nyquist entries
    half[[0, -1]] = half[[0, -1]].real
    out = np.concatenate([half, np.conj(half[-2:0:-1])])
    phase = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    # exp(-i xi_k x_j) = (-1)^k exp(-2 pi i j k / n) since x_j starts at -L
    return phase * out


def _aliased_row(params, kernel, grid, t, row):
    """E_alpha(-a(xi) t^alpha) aliased onto the grid's band |xi| <= K = pi/dx:
    row[k] + the sum over integers m != 0 of E_alpha(-a(xi_k + 2Km) t^alpha).

    exp(2iKm x_j) = 1 at every grid point, so by Poisson summation the
    synthesis of this row is exactly the mean field periodized with period
    2L at the grid points, not only its band-limited part.  Copies with
    |m| <= M are evaluated; the rest lie beyond _tail_onset, where the
    k^(-2p) terms of _tail_coefficients sum in closed form to Hurwitz zeta
    values: sum_{m>M} (2Km +- xi)^(-2p) = (2K)^(-2p) zeta(2p, M+1 +- xi/2K).
    """
    xi = grid.frequencies()[: grid.n_points // 2 + 1]
    band = math.pi / grid.dx
    m_max = max(0, math.ceil((_tail_onset(params.alpha, params.lam, t) / band - 1.0) / 2.0))
    shift = 2.0 * band * np.arange(1, m_max + 1)[:, None]
    a = symbol_a(params, kernel, np.concatenate([xi + shift, xi - shift]))
    copies = ml_eval(MLOrder(params.alpha, 1.0), -a * t**params.alpha)
    q = xi / (2.0 * band)
    rest = sum(b * (2.0 * band) ** (-2 * p)
               * (special.zeta(2 * p, m_max + 1 + q) + special.zeta(2 * p, m_max + 1 - q))
               for p, b in enumerate(
                   _tail_coefficients(params.alpha, params.lam, params.mu, t), 1))
    return row + (copies.sum(axis=0) + rest)


@functools.lru_cache(maxsize=8)
def _snapshot_tables(params: DiffusionParams, kernel: KernelSpec, grid: GridSpec,
                     steps: tuple):
    """(dirac, factor) for the sorted distinct snapshot steps s_1 < .. < s_J,
    on the half-spectrum k = 0..n/2.

    dirac[i], shape (J, n/2+1), is the phased Dirac part of snapshot i:
    (-1)^k times the row E_alpha(-a(xi_k) T_{s_i}^alpha) aliased onto the band
    (_aliased_row), whose synthesis is the exact mean on the grid; zero for a
    zero initial condition.  At lambda = 0 (forced runs only) E does not
    decay, no pointwise mean exists and the row stays band-limited.  factor[k], shape (J, J), is the
    R factor of W_k^T = Q R scaled by sqrt(c_k), where
    W_k[i, m] = Abar[s_i-1-m, k] for m < s_i (else 0) and Abar[l, k] is the
    exact cell average of Lambda at lag l+1:
    (E_alpha(-a T_l^alpha) - E_alpha(-a T_{l+1}^alpha)) / (a dt), or for a = 0
    the limit (T_{l+1}^alpha - T_l^alpha) / (Gamma(alpha+1) dt).  c_k is the
    variance of one real part of the rfft of the cell increments:
    n dt dx / 2 inside, n dt dx at k = 0 and n/2.  So factor[k]^T factor[k]
    is the covariance of the real (or imaginary) part of mode k's noise at
    the J snapshots (sigma = 1), c_k W_k W_k^T, computed without forming
    the Gram matrix; QR works for any step list.
    """
    n = grid.n_points
    a = symbol_a(params, kernel, grid.frequencies()[: n // 2 + 1])
    t_alpha = (grid.dt * np.arange(steps[-1] + 1)) ** params.alpha
    e = ml_eval(MLOrder(params.alpha, 1.0), -np.outer(t_alpha, a))
    zero = a == 0.0
    a_safe = np.where(zero, 1.0, a)
    weights = (e[:-1] - e[1:]) / (a_safe[None, :] * grid.dt)
    if np.any(zero):
        limit = (t_alpha[1:] - t_alpha[:-1]) / (gamma_fn(params.alpha + 1.0) * grid.dt)
        weights[:, zero] = limit[:, None]
    lag = np.array(steps)[None, :] - 1 - np.arange(steps[-1])[:, None]
    w_t = weights.T[:, np.maximum(lag, 0)]  # (n/2+1, s_J, J)
    w_t[:, lag < 0] = 0.0
    c = np.full(n // 2 + 1, 0.5 * n * grid.dt * grid.dx)
    c[[0, -1]] *= 2.0
    factor = np.linalg.qr(w_t, mode="r") * np.sqrt(c)[:, None, None]
    phase = np.where(np.arange(n // 2 + 1) % 2 == 0, 1.0, -1.0)
    dirac = np.zeros((len(steps), n // 2 + 1))
    if grid.ic == "dirac_spectral":
        for i, s in enumerate(steps):
            row = e[s]
            if params.lam > 0:
                row = _aliased_row(params, kernel, grid, s * grid.dt, row)
            dirac[i] = phase * row
    dirac.setflags(write=False)  # shared by every path through the cache
    factor.setflags(write=False)
    return dirac, factor


def _prepare(params, kernel, grid, snapshot_steps, force):
    """Refuse non-mild parameter sets unless forced, check the snapshot steps
    (default 8 times) and look up the tables of their sorted distinct steps.
    Returns the steps, the table row of each, and (dirac, factor)."""
    verdict = classify(replace(params, dim=1))
    if not verdict.mild and not force:
        raise NotMildError(
            f"not mild ({verdict.rule.value}): {verdict.detail}; "
            "pass force=True to simulate anyway"
        )
    if snapshot_steps is None:
        stride = max(grid.n_steps // 8, 1)
        snapshot_steps = range(stride, grid.n_steps + 1, stride)
    snapshot_steps = tuple(int(s) for s in snapshot_steps)
    if any(s < 1 or s > grid.n_steps for s in snapshot_steps):
        raise DomainError("snapshot steps must lie in 1..n_steps")
    steps = tuple(sorted(set(snapshot_steps)))
    # nothing in the tables depends on sigma, so every sigma shares them
    tables = _snapshot_tables(replace(params, sigma=1.0), kernel, grid, steps)
    return snapshot_steps, [steps.index(s) for s in snapshot_steps], tables


def _mode_noise(factor, seed):
    """sigma = 1 noise of every mode for one seed, shape (2, J, n/2+1): the
    real parts R_k^T g[0, k] and the imaginary parts R_k^T g[1, k]."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    g = rng.standard_normal((2,) + factor.shape[:2])
    return np.swapaxes((g[:, :, None, :] @ factor)[:, :, 0, :], 1, 2)


def _synthesize(z_half, grid):
    """Fields at the grid points from half-spectrum rows: (n/2L) irfft."""
    return np.fft.irfft(z_half, grid.n_points, axis=1) * (
        grid.n_points / (2.0 * grid.half_length))


def simulate_path(
    params: DiffusionParams,
    kernel: KernelSpec,
    grid: GridSpec,
    seed: int,
    snapshot_steps=None,
    force: bool = False,
) -> SamplePath:
    """One sample path; snapshots at the requested step indices (default 8 times).

    Steps may come in any order and repeat; a repeated step repeats its
    field bit for bit.  The noise is drawn as follows, and this layout is
    part of the reproducibility contract, like mix_seed: with s_1 < .. < s_J
    the distinct steps, one Generator(Philox(key=seed)) makes one
    standard_normal draw g of shape (2, n/2+1, J).  Mode k's snapshot noise
    is sigma * (R_k^T g[0, k] + i R_k^T g[1, k]), where R_k is the cached
    factor of _snapshot_tables, so that R_k^T R_k is the scheme's covariance
    of one real part of mode k at the J steps.  irfft discards the
    imaginary part at k = 0 and n/2, so g[1, 0] and g[1, n/2] are unused.

    Refuses non-mild parameter sets (with dim=1 semantics) unless force=True.
    """
    snapshot_steps, rows, (dirac, factor) = _prepare(
        params, kernel, grid, snapshot_steps, force)
    z_half = dirac.astype(complex)
    if params.sigma != 0.0:
        noise = params.sigma * _mode_noise(factor, seed)
        z_half.real += noise[0]
        z_half.imag += noise[1]
    fields = _synthesize(z_half, grid)
    snapshots = tuple((s * grid.dt, fields[i]) for s, i in zip(snapshot_steps, rows))
    return SamplePath(grid=grid, snapshots=snapshots, seed=seed)


def ensemble_stats(
    params: DiffusionParams,
    kernel: KernelSpec,
    grid: GridSpec,
    n_samples: int,
    master_seed: int,
    snapshot_steps=None,
    force: bool = False,
) -> EnsembleStats:
    """Monte Carlo mean and unbiased variance over n_samples independent paths.

    Path i is simulate_path's for seed mix_seed(master_seed, i): the exact
    grid mean, the synthesized Dirac rows, plus sigma times a noise field
    f_i.  With S1 and S2 the sums of f_i and f_i^2, taken in seed order,
    mean = synth(dirac) + sigma S1 / N and variance =
    sigma^2 (S2 - S1^2 / N) / (N - 1).  The noise has mean zero, so no
    mean^2 >> variance cancellation occurs, and a power-of-two sigma scales
    the variance exactly.
    """
    if n_samples < 2:
        raise DomainError("ensemble_stats requires n_samples >= 2")
    snapshot_steps, rows, (dirac, factor) = _prepare(
        params, kernel, grid, snapshot_steps, force)
    s1, s2 = np.zeros((2, len(dirac), grid.n_points))
    if params.sigma != 0.0:
        z_half = np.empty(dirac.shape, complex)
        for i in range(n_samples):
            z_half.real, z_half.imag = _mode_noise(factor, mix_seed(master_seed, i))
            f = _synthesize(z_half, grid)
            s1 += f
            s2 += f * f
    mean = _synthesize(dirac, grid) + params.sigma * s1 / n_samples
    variance = params.sigma**2 * np.maximum(s2 - s1 * s1 / n_samples, 0.0) / (n_samples - 1)
    return EnsembleStats(
        grid=grid,
        n_samples=n_samples,
        times=tuple(s * grid.dt for s in snapshot_steps),
        positions=grid.positions(),
        mean=mean[rows],
        variance=variance[rows],
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
