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
The law of every snapshot is the scheme's own (snapshot_law); only the
realization for a given seed differs from a time stepper's.  Everything is
deterministic given (params, kernel, grid, snapshots, seed): a counter-based
generator (Philox) keyed by the seed, and an ensemble that is the exact grid
mean plus sigma times the noise's own moments, summed path by path in seed
order.  A path's noise field depends on its seed alone, so the ensemble
computes the fields on w lanes: w = FRACFIELD_THREADS, or every usable CPU
when it is 0 (the default), capped at the usable CPUs and at the ceil(N/8)
blocks of 8 consecutive seeds that one thread takes, so N <= 8 paths run
serially.  With w > 1 the blocks hold 4 seeds, and lane j is a thread that
computes blocks j, j + w, .. into its own workspace, which the calling
thread allocates, and adds each block to the sums when every earlier block
has been added.  The result is bit-identical for any thread count.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from .analytic_fields import (
    Profile,
    _matern_terms,
    _tail_coefficients,
    _tail_onset,
    _uniform_transform,
)
from .errors import DomainError, NotMildError
from .mildness import classify
from .special_fn import MLOrder, _hurwitz_zeta, gamma_fn, ml_eval
from .symbol import DiffusionParams, KernelSpec, j_hat, symbol_a

__all__ = [
    "GridSpec",
    "SnapshotLaw",
    "noise_increments",
    "snapshot_law",
    "simulate_path",
    "ensemble_stats",
    "mix_seed",
]

_MASK64 = (1 << 64) - 1
_BLOCK = 8  # consecutive seeds per block on one thread; w is capped at the blocks
_LANE_BLOCK = 4  # consecutive seeds per block on each of w > 1 ensemble lanes
_MODE_BLOCK = 64  # modes per lag gather and QR in _snapshot_tables
_FOLD_CELLS = 1 << 16  # samples of the uniform kernel's leading term per side, at most


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
        if not (0 < self.half_length < math.inf and 0 < self.t_end < math.inf):
            raise DomainError("half_length and t_end must be positive and finite")
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
    |m| <= M are evaluated; the rest lie beyond _tail_onset and
    sqrt(5 mu/lam), where the k^(-2p) terms of _tail_coefficients sum in
    closed form to Hurwitz zeta values:
    sum_{m>M} (2Km +- xi)^(-2p) = (2K)^(-2p) zeta(2p, M+1 +- xi/2K).
    Those terms take a(k) = lam k^2 + mu.  For the uniform kernel the row
    and the copies less mean_fourier's leading j_hat term
    g(k) = d_1 m j_hat(k) (k^2 + c^2)^-2 are summed, and g's sum over every
    copy is added: by Poisson summation it is dx sum_j G(j dx) exp(-i xi j dx),
    where G = d_1 m _uniform_transform decays as exp(-c(|x| - scale)); G is
    sampled out to 40/c beyond scale, folded mod n and rfft'd.  A c below
    c' = 40 / (_FOLD_CELLS dx) is raised to c', which moves g beyond K by
    less than c'^6 j_hat k^-6, as |d_1| m <= c^4 there; c'/K < 2e-4.
    """
    n = grid.n_points
    xi = grid.frequencies()[: n // 2 + 1]
    band = math.pi / grid.dx
    onset = max(_tail_onset(params, kernel, t), math.sqrt(5.0 * params.mu / params.lam))
    m_max = max(0, math.ceil((onset / band - 1.0) / 2.0))
    shift = 2.0 * band * np.arange(1, m_max + 1)[:, None]
    k = np.concatenate([xi + shift, xi - shift])
    a = symbol_a(params, kernel, k)
    copies = ml_eval(MLOrder(params.alpha, 1.0), -a * t**params.alpha)
    q = xi / (2.0 * band)
    rest = sum(b * (2.0 * band) ** (-2 * p)
               * (_hurwitz_zeta(2 * p, m_max + 1 + q) + _hurwitz_zeta(2 * p, m_max + 1 - q))
               for p, b in enumerate(_tail_coefficients(
                   params.alpha, params.lam, params.mu, t, (2 * m_max + 1) * band), 1))
    if kernel.kind == "uniform" and params.mu > 0:
        c, d = _matern_terms(params.alpha, params.lam, params.mu, t)
        lead = d[0] * params.mu / params.lam
        c = max(c, 40.0 / (_FOLD_CELLS * grid.dx))
        span = math.ceil((kernel.scale + 40.0 / c) / grid.dx)
        j = np.arange(-span, span + 1)
        g_x = lead * _uniform_transform(c, kernel.scale, np.abs(j * grid.dx))
        row = (row + grid.dx * np.fft.rfft(np.bincount(j % n, g_x, n)).real
               - lead * j_hat(kernel, xi) / (xi * xi + c * c) ** 2)
        copies = copies - lead * j_hat(kernel, k) / (k * k + c * c) ** 2
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
    c = np.full(n // 2 + 1, 0.5 * n * grid.dt * grid.dx)
    c[[0, -1]] *= 2.0
    # the layout a batched qr returns; only one block's (b, s_J, J) lag
    # gather, and qr's copy of it, is alive at a time
    factor = np.empty((len(steps), len(steps), n // 2 + 1)).transpose(2, 0, 1)
    for lo in range(0, n // 2 + 1, _MODE_BLOCK):
        w_t = weights.T[lo:lo + _MODE_BLOCK, np.maximum(lag, 0)]
        w_t[:, lag < 0] = 0.0
        factor[lo:lo + _MODE_BLOCK] = (np.linalg.qr(w_t, mode="r")
                                       * np.sqrt(c[lo:lo + _MODE_BLOCK])[:, None, None])
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


@dataclass(frozen=True, eq=False)
class SnapshotLaw:
    """The scheme's Gaussian law of the field at the requested snapshots:
    snapshot r, at times[r], is row rows[r] of _snapshot_tables' read-only
    (dirac, factor) at sigma = 1 for the sorted distinct steps."""

    grid: GridSpec
    sigma: float
    times: tuple
    rows: list
    dirac: np.ndarray
    factor: np.ndarray

    def mean(self) -> np.ndarray:
        """The synthesized Dirac rows, the exact grid mean, shape (len(times), n)."""
        return _synthesize(self.dirac, self.grid)[self.rows]

    def variance(self) -> np.ndarray:
        """The exact pointwise variance at each snapshot (the noise is
        stationary in x): with v_k = ||column i of factor[k]||^2 the variance
        of one part of mode k at step s_i, the synthesis (n/2L) irfft gives
        sigma^2 (2L)^-2 [v_0 + v_(n/2) + 4 sum_(0<k<n/2) v_k]."""
        v = np.square(self.factor).sum(axis=1)
        total = v[0] + v[-1] + 4.0 * v[1:-1].sum(axis=0)
        return self.sigma**2 * total[self.rows] / (2.0 * self.grid.half_length) ** 2


def snapshot_law(params: DiffusionParams, kernel: KernelSpec, grid: GridSpec,
                 snapshot_steps=None, force: bool = False) -> SnapshotLaw:
    """The SnapshotLaw of the requested steps (default 8 times), in the
    order given, repeats kept.  Refuses dim != 1 (the engine is
    one-dimensional) and steps outside 1..n_steps with DomainError, and
    non-mild parameter sets with NotMildError unless force=True."""
    if params.dim != 1:
        raise DomainError(f"the simulator is one-dimensional, got dim={params.dim}")
    verdict = classify(params)
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
    dirac, factor = _snapshot_tables(replace(params, sigma=1.0), kernel, grid, steps)
    return SnapshotLaw(grid, params.sigma, tuple(s * grid.dt for s in snapshot_steps),
                       [steps.index(s) for s in snapshot_steps], dirac, factor)


class _Workspace:
    """Noise buffers for up to `size` seeds at a time: the draws
    (size, 2, n/2+1, J), the spectra (size, J, n/2+1), the fields (size, J, n)
    and one Philox generator.  The thread that makes it allocates them, so a
    thread that only fills it allocates no array."""

    def __init__(self, law, size):
        half, j = law.factor.shape[:2]
        self.bits = np.random.Philox(0)  # re-keyed before every draw
        self.normals = np.random.Generator(self.bits).standard_normal
        self.draws = np.empty((size, 2, half, j))
        self.spectra = np.empty((size, j, half), complex)
        self.fields = np.empty((size, j, law.grid.n_points))

    def draw(self, seed, out):
        """Fill out with the first normals of Generator(Philox(key=seed)).
        The generator is reset to the state Philox(key=seed) starts from,
        which skips the OS entropy read of a new Philox."""
        self.bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [seed & _MASK64, seed >> 64]},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        self.normals(out=out)


def _mode_noise(law, seeds, ws):
    """sigma = 1 noise spectra of a run of seeds in ws, shape
    (len(seeds), J, n/2+1): the real parts R_k^T g[b, 0, k] and the imaginary
    parts R_k^T g[b, 1, k] of seed b, each product written straight into the
    complex array."""
    g, z = ws.draws[:len(seeds)], ws.spectra[:len(seeds)]
    for b, seed in enumerate(seeds):
        ws.draw(seed, g[b])
    for part, out in enumerate((z.real, z.imag)):
        np.matmul(g[:, part, :, None, :], law.factor, out=out.swapaxes(1, 2)[:, :, None, :])
    return z


def _synthesize(z_half, grid, out=None):
    """Fields at the grid points from half-spectrum rows (last axis): (n/2L) irfft."""
    fields = np.fft.irfft(z_half, grid.n_points, axis=-1, out=out)
    fields *= grid.n_points / (2.0 * grid.half_length)
    return fields


def _noise_fields(law, seeds, ws):
    """sigma = 1 noise fields of a block of seeds, written into ws: a view of
    shape (len(seeds), J, n) that the next call on ws overwrites."""
    return _synthesize(_mode_noise(law, seeds, ws), law.grid, ws.fields[:len(seeds)])


def simulate_path(
    params: DiffusionParams,
    kernel: KernelSpec,
    grid: GridSpec,
    seed: int,
    snapshot_steps=None,
    force: bool = False,
) -> Profile:
    """One sample path as a "sample_path" Profile with meta {"seed": seed}:
    row i is the field at the i-th requested step (default 8 times).

    Steps may come in any order and repeat; a repeated step repeats its
    field bit for bit.  The noise is drawn as follows, and this layout is
    part of the reproducibility contract, like mix_seed: with s_1 < .. < s_J
    the distinct steps, one Generator(Philox(key=seed)) makes one
    standard_normal draw g of shape (2, n/2+1, J).  Mode k's snapshot noise
    is sigma * (R_k^T g[0, k] + i R_k^T g[1, k]), where R_k is the cached
    factor of _snapshot_tables, so that R_k^T R_k is the scheme's covariance
    of one real part of mode k at the J steps.  irfft discards the
    imaginary part at k = 0 and n/2, so g[1, 0] and g[1, n/2] are unused.

    Refuses what snapshot_law refuses; a field that is not finite raises
    DomainError.
    """
    law = snapshot_law(params, kernel, grid, snapshot_steps, force)
    z_half = law.dirac.astype(complex)
    if params.sigma != 0.0:
        noise = _mode_noise(law, [seed], _Workspace(law, 1))[0]
        z_half.real += params.sigma * noise.real
        z_half.imag += params.sigma * noise.imag
    fields = _synthesize(z_half, grid)
    return Profile(law.times, tuple(grid.positions().tolist()), fields[law.rows],
                   "sample_path", {"seed": seed})


def _threads() -> int:
    """FRACFIELD_THREADS as a thread count; 0, the default, means every usable CPU."""
    raw = os.environ.get("FRACFIELD_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        raise DomainError(f"FRACFIELD_THREADS must be an integer, got {raw!r}")
    if n < 0:
        raise DomainError("FRACFIELD_THREADS must be >= 0")
    return n


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):  # absent on macOS and Windows
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _add_moments(fields, s1, s2):
    """Add each field f of a block, in turn, to s1 and f^2 to s2.  f is
    squared in place, so no array is allocated."""
    for f in fields:
        s1 += f
        f *= f
        s2 += f


def _add_noise_moments(law, seeds, w, s1, s2):
    """Add the sigma = 1 noise field f of each seed to s1 and f^2 to s2, path
    by path in seed order.

    The fields are computed in blocks of consecutive seeds (_noise_fields)
    on w lanes: lane 0 is the calling thread and lanes 1 .. w - 1 are
    threads started here.  With w = 1 the blocks hold _BLOCK seeds and lane
    0 runs them all; with w > 1 they hold _LANE_BLOCK seeds.  The calling
    thread first makes one workspace per lane, and no lane allocates another
    array.  Lane j computes blocks j, j + w, j + 2w, .. into its own
    workspace; after computing block i it waits until blocks 0 .. i - 1
    have been added, adds block i and passes the turn on.  So a workspace
    is rewritten only after its fields were added, and the sums do not
    depend on w.  Once a block fails, every lane stops at its next turn; by
    then each block before the failed one has been computed, so the first
    failing block in seed order is among the failures, and it is re-raised
    once every thread has been joined.
    """
    # one thread keeps 8-seed blocks: with 4, perfbench's mc_sub round_s
    # read 8% slower (10 of 10 pairs), though a bare loop of calls read equal;
    # 8-seed blocks on two lanes read mc_super 8% slower in process
    size = _BLOCK if w == 1 else _LANE_BLOCK
    blocks = [seeds[i:i + size] for i in range(0, len(seeds), size)]
    spaces = [_Workspace(law, len(blocks[0])) for _ in range(w)]
    turn = threading.Condition()
    added = 0  # blocks added so far
    failed = {}  # block index -> its exception

    def add_in_turn(i, fields):
        """Add block i's fields once it is next in seed order; False when a
        block has failed."""
        nonlocal added
        with turn:
            turn.wait_for(lambda: added == i or failed)
            if failed:
                return False
            _add_moments(fields, s1, s2)
            added += 1
            turn.notify_all()
        return True

    def lane(j):
        try:
            for i in range(j, len(blocks), w):
                if not add_in_turn(i, _noise_fields(law, blocks[i], spaces[j])):
                    return
        except BaseException as exc:  # re-raised by the calling thread below
            with turn:
                failed[i] = exc
                turn.notify_all()

    lanes = [threading.Thread(target=lane, args=(j,)) for j in range(1, w)]
    for thread in lanes:
        thread.start()
    lane(0)
    for thread in lanes:
        thread.join()
    if failed:
        raise failed[min(failed)]


def ensemble_stats(
    params: DiffusionParams,
    kernel: KernelSpec,
    grid: GridSpec,
    n_samples: int,
    master_seed: int,
    snapshot_steps=None,
    force: bool = False,
) -> tuple:
    """Monte Carlo mean and unbiased variance over n_samples independent paths,
    as the Profiles "mc_ensemble_mean" and "mc_ensemble_var" on simulate_path's
    axes, both with meta {"n_samples": n_samples, "master_seed": master_seed}.

    Path i is simulate_path's for seed mix_seed(master_seed, i): the exact
    grid mean, the synthesized Dirac rows, plus sigma times a noise field
    f_i.  With S1 and S2 the sums of f_i and f_i^2, taken in seed order,
    mean = synth(dirac) + sigma S1 / N and variance =
    sigma^2 (S2 - S1^2 / N) / (N - 1).  The noise has mean zero, so no
    mean^2 >> variance cancellation occurs, and a power-of-two sigma scales
    the variance exactly.

    The f_i are computed on w lanes, each a thread that adds its blocks of
    consecutive seeds to S1 and S2 in seed order: w is FRACFIELD_THREADS,
    or the number of usable CPUs when it is 0, capped at the usable CPUs
    and at the ceil(N/8) blocks of 8 seeds that one thread takes, so N <= 8
    runs on the calling thread alone; w > 1 lanes take blocks of 4.  The
    result is bit for bit the same for every w.
    Refuses what snapshot_law refuses, and raises DomainError when
    FRACFIELD_THREADS is not a non-negative integer, or when a mean or
    variance is not finite.
    """
    if n_samples < 2:
        raise DomainError("ensemble_stats requires n_samples >= 2")
    cpus = _usable_cpus()
    w = min(_threads() or cpus, cpus, -(-n_samples // _BLOCK))
    law = snapshot_law(params, kernel, grid, snapshot_steps, force)
    s1, s2 = np.zeros((2, len(law.dirac), grid.n_points))
    if params.sigma != 0.0:
        seeds = [mix_seed(master_seed, i) for i in range(n_samples)]
        _add_noise_moments(law, seeds, w, s1, s2)
    mean = law.mean() + params.sigma * s1[law.rows] / n_samples
    variance = params.sigma**2 * np.maximum(s2 - s1 * s1 / n_samples, 0.0) / (n_samples - 1)
    positions = tuple(grid.positions().tolist())
    meta = {"n_samples": n_samples, "master_seed": master_seed}
    return (Profile(law.times, positions, mean, "mc_ensemble_mean", meta),
            Profile(law.times, positions, variance[law.rows], "mc_ensemble_var", meta))
