"""Tests for the spectral Monte Carlo simulator."""

import math
import threading

import numpy as np
import pytest

from fracfield.analytic_fields import heat_kernel, mean_fourier
from fracfield.errors import DomainError, NotMildError
from fracfield.simulate import (
    GridSpec,
    ensemble_stats,
    mix_seed,
    noise_increments,
    simulate_path,
    snapshot_law,
)
from fracfield.symbol import DiffusionParams, KernelSpec

GAUSS = KernelSpec("gaussian", 1.0)
SMALL = GridSpec(half_length=5.0, n_points=64, n_steps=16, t_end=1.0)
SMALL_ZERO = GridSpec(half_length=5.0, n_points=64, n_steps=16, t_end=1.0, ic="zero")


def params(alpha, lam=1.0, mu=0.0, sigma=1.0):
    return DiffusionParams(alpha=alpha, lam=lam, mu=mu, sigma=sigma, dim=1)


def scheme_weights(prm, grid):
    """Abar[l, k] on all n frequencies, written out: the cell average of
    Lambda at lag l+1, (E(T_l) - E(T_{l+1})) / (a dt) with its a = 0 limit."""
    from fracfield.special_fn import MLOrder, gamma_fn, ml_eval
    from fracfield.symbol import symbol_a

    alpha, dt = prm.alpha, grid.dt
    a = symbol_a(prm, GAUSS, grid.frequencies())
    t_alpha = (dt * np.arange(grid.n_steps + 1)) ** alpha
    e = ml_eval(MLOrder(alpha, 1.0), -np.outer(t_alpha, a))
    abar = (e[:-1] - e[1:]) / (np.where(a == 0, 1.0, a) * dt)
    limit = (t_alpha[1:] - t_alpha[:-1]) / (gamma_fn(alpha + 1.0) * dt)
    abar[:, a == 0] = limit[:, None]
    return abar


def engine_covariance(prm, grid, steps):
    """Per-mode covariance R^T R of the engine's factor over the distinct
    steps, shape (n/2+1, J, J), and the noise variance c_k of one real part
    of the rfft of the cell increments (n dt dx / 2; n dt dx at DC, Nyquist)."""
    from fracfield.simulate import _snapshot_tables

    _, factor = _snapshot_tables(prm, GAUSS, grid, tuple(sorted(set(steps))))
    n = grid.n_points
    c = np.full(n // 2 + 1, 0.5 * n * grid.dt * grid.dx)
    c[[0, -1]] *= 2.0
    return np.einsum("kji,kjl->kil", factor, factor), c


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            GridSpec(n_points=100)  # not a power of two
        with pytest.raises(DomainError):
            GridSpec(n_points=32)
        with pytest.raises(DomainError):
            GridSpec(n_steps=8)
        with pytest.raises(DomainError):
            GridSpec(half_length=0.0)
        with pytest.raises(DomainError):
            GridSpec(ic="plateau")

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("field", ["half_length", "t_end"])
    def test_lengths_finite(self, field, value):
        # an infinite box ran until a ZeroDivisionError
        with pytest.raises(DomainError, match="finite"):
            GridSpec(**{field: value})

    def test_geometry(self):
        g = GridSpec(half_length=10.0, n_points=128, n_steps=64, t_end=2.0)
        assert g.dx == pytest.approx(20.0 / 128)
        assert g.dt == pytest.approx(2.0 / 64)
        x = g.positions()
        assert x[0] == -10.0 and len(x) == 128
        assert np.allclose(np.diff(x), g.dx)
        xi = g.frequencies()
        assert xi[0] == 0.0
        assert xi[1] == pytest.approx(math.pi / 10.0)


class TestMixSeed:
    def test_deterministic_and_spread(self):
        a = mix_seed(12345, 0)
        assert a == mix_seed(12345, 0)
        seeds = {mix_seed(12345, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert mix_seed(12345, 0) != mix_seed(12346, 0)


class TestNoiseIncrements:
    def test_hermitian_bit_exact(self):
        w = noise_increments(SMALL, seed=7, step=3)
        n = SMALL.n_points
        # phase factor (-1)^k is real, so Hermitian symmetry must survive it
        phase = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        raw = w * phase
        assert raw[0].imag == 0.0
        assert raw[n // 2].imag == 0.0
        assert np.array_equal(raw[1 : n // 2], np.conj(raw[n // 2 + 1 :][::-1]))

    def test_step_determinism_and_independence(self):
        w1 = noise_increments(SMALL, seed=7, step=3)
        w2 = noise_increments(SMALL, seed=7, step=3)
        assert np.array_equal(w1, w2)
        assert not np.array_equal(w1, noise_increments(SMALL, seed=7, step=4))
        assert not np.array_equal(w1, noise_increments(SMALL, seed=8, step=3))

    def test_spectral_variance(self):
        # E |dW_hat_k|^2 = n dt dx for every k
        n_draws = 4000
        n = SMALL.n_points
        acc = np.zeros(n)
        for i in range(n_draws):
            w = noise_increments(SMALL, seed=1000 + i, step=0)
            acc += np.abs(w) ** 2
        acc /= n_draws
        expected = n * SMALL.dt * SMALL.dx
        # 4000 draws: relative SE about sqrt(2/4000) ~ 2.2%; allow 5 sigma
        assert np.max(np.abs(acc / expected - 1.0)) < 0.12
        assert abs(np.mean(acc) / expected - 1.0) < 0.02


class TestSimulatePath:
    def test_refuses_non_mild(self):
        with pytest.raises(NotMildError):
            simulate_path(params(0.5), GAUSS, SMALL, seed=1)
        # force=True overrides
        p = simulate_path(params(0.5), GAUSS, SMALL, seed=1, force=True)
        assert len(p.times) == 8

    def test_zero_ic_zero_noise_is_zero(self):
        p = simulate_path(params(1.0, sigma=0.0), GAUSS, SMALL_ZERO, seed=1)
        for _, f in zip(p.times, p.values):
            assert np.all(f == 0.0)

    def test_fields_are_real_float(self):
        p = simulate_path(params(1.0), GAUSS, SMALL, seed=3)
        for t, f in zip(p.times, p.values):
            assert f.dtype == np.float64
            assert np.all(np.isfinite(f))

    def test_seed_determinism_bitwise(self):
        p1 = simulate_path(params(1.5), GAUSS, SMALL, seed=42)
        p2 = simulate_path(params(1.5), GAUSS, SMALL, seed=42)
        for (t1, f1), (t2, f2) in zip(zip(p1.times, p1.values), zip(p2.times, p2.values)):
            assert t1 == t2
            assert np.array_equal(f1, f2)

    def test_sigma_linearity_bit_exact(self):
        # the noise enters linearly and doubling sigma is a power-of-two
        # scaling, which commutes exactly with every rounding step
        one = simulate_path(params(1.0, sigma=1.0), GAUSS, SMALL_ZERO, seed=5)
        two = simulate_path(params(1.0, sigma=2.0), GAUSS, SMALL_ZERO, seed=5)
        for f1, f2 in zip(one.values, two.values):
            assert np.array_equal(f2, 2.0 * f1)

    def test_dirac_alpha_one_matches_heat_kernel(self):
        # deterministic part at alpha=1 is the heat kernel on the box
        grid = GridSpec(half_length=20.0, n_points=1024, n_steps=16, t_end=1.0)
        p = simulate_path(params(1.0, sigma=0.0), GAUSS, grid, seed=1,
                          snapshot_steps=[16])
        t, f = p.times[0], p.values[0]
        ref = heat_kernel(t, grid.positions(), 1.0)
        sel = ref > 1e-8
        assert np.max(np.abs(f[sel] - ref[sel]) / ref[sel]) < 1e-6

    def test_alpha_one_covariance_closed_form(self):
        # at alpha=1 the scheme is exponential Euler, Abar[l] = phi e^{-a dt l}
        # with phi = (1-e^{-a dt})/(a dt), so the covariance of one real part
        # of mode k at steps s_i <= s_j sums a geometric series:
        # c_k phi^2 e^{-a dt (s_j-s_i)} (1-e^{-2 a dt s_i}) / (1-e^{-2 a dt})
        from fracfield.symbol import symbol_a

        grid, prm, steps = SMALL_ZERO, params(1.0), (1, 2, 5, 16)
        n, dt = grid.n_points, grid.dt
        cov, c = engine_covariance(prm, grid, steps)
        a = symbol_a(prm, GAUSS, grid.frequencies()[: n // 2 + 1])[:, None, None]
        pos = a > 0
        ad = np.where(pos, a * dt, 1.0)
        phi = np.where(pos, -np.expm1(-ad) / ad, 1.0)
        s = np.array(steps, dtype=float)
        lo, hi = np.minimum.outer(s, s), np.maximum.outer(s, s)
        series = np.where(pos, np.expm1(-2 * ad * lo) / np.expm1(-2 * ad), lo)
        ref = c[:, None, None] * phi**2 * np.exp(-np.where(pos, ad, 0.0) * (hi - lo)) * series
        scale = np.sqrt(np.einsum("kii->ki", ref))
        assert np.all(np.abs(cov - ref) <= 1e-12 * scale[:, :, None] * scale[:, None, :])

    @pytest.mark.parametrize("alpha,steps", [
        (0.8, (1, 5, 16)),
        (1.5, (1, 5, 16)),
        (0.8, tuple(range(1, 17))),
        (1.5, (16, 3, 3)),
        (0.5, (2, 4, 6, 8, 10, 12, 14, 16)),  # not mild: reached with force=True
    ], ids=["0.8", "1.5", "0.8-every-step", "1.5-duplicates", "0.5-forced"])
    def test_covariance_matches_written_out_scheme(self, alpha, steps):
        # the engine's per-mode factor against the full-width scheme written
        # out: tables on all n frequencies and the lag sum over past steps,
        # sum_{m < min(s_i, s_j)} Abar[s_i-1-m, k] Abar[s_j-1-m, k]
        prm, grid = params(alpha, mu=0.5), SMALL
        n = grid.n_points
        abar = scheme_weights(prm, grid)
        distinct = sorted(set(steps))
        ref = np.array([[
            sum(abar[si - 1 - m] * abar[sj - 1 - m] for m in range(min(si, sj)))
            for sj in distinct] for si in distinct])  # (J, J, n)
        cov, c = engine_covariance(prm, grid, steps)
        half = np.minimum(np.arange(n), n - np.arange(n))  # a(xi) is even
        got = np.moveaxis(cov / c[:, None, None], 0, -1)[:, :, half]
        scale = np.sqrt(np.einsum("iik->ik", ref))
        assert np.all(np.abs(got - ref) <= 1e-13 * scale[:, None, :] * scale[None, :, :])

    def test_duplicate_and_unsorted_steps(self):
        # a snapshot's field depends only on the seed and the set of distinct
        # steps, so duplicates are bit-identical and order does not matter
        prm = params(1.5, mu=0.5)
        mixed = simulate_path(prm, GAUSS, SMALL, seed=9, snapshot_steps=[16, 3, 3])
        plain = simulate_path(prm, GAUSS, SMALL, seed=9, snapshot_steps=[3, 16])
        assert list(mixed.times) == [1.0, 3 * SMALL.dt, 3 * SMALL.dt]
        f16, f3a, f3b = mixed.values
        assert np.array_equal(f3a, f3b)
        assert np.array_equal(f3a, plain.values[0])
        assert np.array_equal(f16, plain.values[1])

    def test_every_step(self):
        steps = range(1, SMALL.n_steps + 1)
        p = simulate_path(params(0.8), GAUSS, SMALL, seed=4, snapshot_steps=steps)
        assert list(p.times) == [s * SMALL.dt for s in steps]
        assert all(np.all(np.isfinite(f)) for f in p.values)

    @pytest.mark.parametrize("alpha", [0.8, 1.5])
    def test_dirac_part_is_table_row(self, alpha):
        # the Dirac part of a snapshot is its cached row, the spectrum aliased
        # onto the grid's band, whose synthesis is the exact mean on the grid:
        # against mean_fourier where the 2L-periodic images are negligible
        prm = params(alpha, mu=0.5, sigma=0.0)
        grid = GridSpec(half_length=20.0, n_points=256, n_steps=16)
        path = simulate_path(prm, GAUSS, grid, seed=1, snapshot_steps=[4, 16])
        x = grid.positions()
        near = np.abs(x) <= 5.0
        for t, f in zip(path.times, path.values):
            ref = mean_fourier(prm, GAUSS, t, x[near])
            assert np.max(np.abs(f[near] - ref)) <= 1e-11 * np.max(ref)

    @pytest.mark.parametrize("mu", [0.5, 10.0, 1000.0])
    def test_uniform_kernel_row_against_mean_fourier(self, mu):
        # the uniform kernel's j_hat falls only as 1/k: the row sums its
        # copies less mean_fourier's leading j_hat term and adds that term's
        # sum over every copy in closed form (2.5e-12 to 1.2e-10 of the peak
        # with the Gaussian kernel's copies and no such term); at mu = 1000
        # the mean is wide, so the box is L = 80 and the reference holds the
        # images at +-2L (6e-10 of the peak at t = 1); t = 1/8 .. 1
        prm = params(0.8, mu=mu, sigma=0.0)
        kernel = KernelSpec("uniform", 1.0)
        half_length, bound = (80.0, 1e-12) if mu > 100.0 else (20.0, 1e-13)
        grid = GridSpec(half_length=half_length, n_points=1024, n_steps=16)
        path = simulate_path(prm, kernel, grid, seed=1, snapshot_steps=[2, 4, 8, 16])
        x = grid.positions()
        near = np.abs(x) <= 5.0
        for t, f in zip(path.times, path.values):
            ref = sum(mean_fourier(prm, kernel, t, x[near] + 2.0 * half_length * image)
                      for image in (-1, 0, 1))
            assert np.max(np.abs(f[near] - ref)) <= bound * np.max(ref), t

    def test_large_mu_row_against_mean_fourier(self):
        # the zeta tail re-expands (lam k^2 + mu)^-j in k^-2, which converges
        # by mu/(lam k^2) per term: it starts at sqrt(5 mu/lam) or later and
        # keeps terms while they matter (three terms from k = 100 left
        # 1.6e-5 of the peak)
        prm = params(1.5, mu=1000.0, sigma=0.0)
        grid = GridSpec(half_length=80.0, n_points=1024, n_steps=16)
        path = simulate_path(prm, GAUSS, grid, seed=1, snapshot_steps=[2, 4, 8, 16])
        x = grid.positions()
        near = np.abs(x) <= 3.0
        for t, f in zip(path.times, path.values):
            ref = mean_fourier(prm, GAUSS, t, x[near])
            assert np.max(np.abs(f[near] - ref)) <= 1e-11 * np.max(ref), t

    @pytest.mark.parametrize("alpha", [0.8, 1.5])
    @pytest.mark.parametrize("mu", [1.0, 100.0])
    def test_narrow_gaussian_kernel_row_against_mean_fourier(self, mu, alpha):
        # at scale 0.01 j_hat is still 0.6 at k = 100, where the zeta tail
        # (which takes a(k) = lam k^2 + mu) would begin at t = 1; the copies
        # must reach k = sqrt(2 ln 1e17) / scale = 885 (1.8e-8 of the peak
        # at mu = 100 without them)
        prm = params(alpha, mu=mu, sigma=0.0)
        kernel = KernelSpec("gaussian", 0.01)
        grid = GridSpec(half_length=20.0, n_points=1024, n_steps=16)
        path = simulate_path(prm, kernel, grid, seed=1, snapshot_steps=[2, 8, 16])
        x = grid.positions()
        near = np.abs(x) <= 3.0
        for t, f in zip(path.times, path.values):
            ref = mean_fourier(prm, kernel, t, x[near])
            assert np.max(np.abs(f[near] - ref)) <= 1e-13 * np.max(ref), t

    @pytest.mark.parametrize("alpha", [0.8, 1.5, 1.9])
    def test_dirac_peak_closed_form_at_first_step(self, alpha):
        # at t = dt most of the mean's spectrum lies beyond Nyquist (the
        # band-limited row alone is 30-60% off); the aliased row recovers the
        # peak 1 / (2 Gamma(1 - alpha/2) sqrt(lam t^alpha)) at mu = 0
        prm = params(alpha, sigma=0.0)
        path = simulate_path(prm, GAUSS, SMALL, seed=1, snapshot_steps=[1])
        t, f = path.times[0], path.values[0]
        peak = 1.0 / (2.0 * math.gamma(1.0 - alpha / 2.0) * math.sqrt(t**alpha))
        assert f[SMALL.n_points // 2] == pytest.approx(peak, rel=1e-13)

    @pytest.mark.parametrize("force", [False, True], ids=["plain", "forced"])
    def test_dim_other_than_one_rejected(self, force):
        # the engine is one-dimensional; alpha = 1.5 is mild at N = 2, so
        # only the dimension can refuse it
        prm = DiffusionParams(alpha=1.5, dim=2)
        with pytest.raises(DomainError, match="one-dimensional"):
            simulate_path(prm, GAUSS, SMALL, seed=1, force=force)
        with pytest.raises(DomainError, match="one-dimensional"):
            ensemble_stats(prm, GAUSS, SMALL, 2, master_seed=1, force=force)

    def test_forced_lambda_zero_keeps_band_limited_mean(self):
        # without diffusion E does not decay and no pointwise mean exists;
        # a forced run still gives the band-limited Dirac part
        prm = params(0.8, lam=0.0, mu=0.5, sigma=0.0)
        with pytest.raises(NotMildError):
            simulate_path(prm, GAUSS, SMALL, seed=1)
        p = simulate_path(prm, GAUSS, SMALL, seed=1, force=True)
        assert all(np.all(np.isfinite(f)) for f in p.values)

    def test_returns_sample_path_profile(self):
        p = simulate_path(params(1.5, mu=0.5), GAUSS, SMALL, seed=9, snapshot_steps=[16, 3, 3])
        assert p.method == "sample_path" and p.meta == {"seed": 9}
        assert p.times == (1.0, 3 * SMALL.dt, 3 * SMALL.dt)
        assert p.positions == tuple(SMALL.positions().tolist())
        assert p.values.shape == (3, SMALL.n_points)

    def test_snapshot_step_validation(self):
        with pytest.raises(DomainError):
            simulate_path(params(1.0), GAUSS, SMALL, seed=1, snapshot_steps=[0])
        with pytest.raises(DomainError):
            simulate_path(params(1.0), GAUSS, SMALL, seed=1, snapshot_steps=[17])


class TestSnapshotTables:
    def test_blocked_factor_is_one_batch_qr(self):
        # the factors are gathered and factored 64 modes at a time; one QR of
        # the whole (n/2+1, s_J, J) lag batch gives the same bits and layout
        from fracfield import simulate

        prm, steps = params(0.8, mu=0.5), (2, 5, 16)
        grid = GridSpec(half_length=5.0, n_points=256, n_steps=16)  # 129 modes, 3 blocks
        half = grid.n_points // 2 + 1
        lag = np.array(steps)[None, :] - 1 - np.arange(steps[-1])[:, None]
        w_t = scheme_weights(prm, grid).T[:half, np.maximum(lag, 0)]
        w_t[:, lag < 0] = 0.0
        c = np.full(half, 0.5 * grid.n_points * grid.dt * grid.dx)
        c[[0, -1]] *= 2.0
        whole = np.linalg.qr(w_t, mode="r") * np.sqrt(c)[:, None, None]
        _, factor = simulate._snapshot_tables(prm, GAUSS, grid, steps)
        assert simulate._MODE_BLOCK < half
        assert np.array_equal(factor, whole)
        assert factor.strides == whole.strides == (8, 3 * half * 8, half * 8)

    def test_build_peak_memory(self):
        # at the default grid the whole lag batch is 8.4 MB and a batched QR
        # copies it (a 19 MB traced peak); in blocks the build stays below 6 MB
        import tracemalloc

        from fracfield import simulate

        simulate._snapshot_tables.cache_clear()
        tracemalloc.start()
        try:
            simulate._snapshot_tables(params(0.8, mu=0.5), GAUSS, GridSpec(),
                                      tuple(range(32, 257, 32)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            simulate._snapshot_tables.cache_clear()
        assert peak <= 6e6

    @pytest.mark.parametrize("mu,most", [(10.0, 2), (1000.0, 5)])
    def test_uniform_kernel_copies(self, monkeypatch, mu, most):
        # the uniform kernel's copies end at _tail_onset, as the Gaussian
        # kernel's do; bounding its leading j_hat term instead took up to 19
        # and 61 copies per side
        from fracfield import simulate
        from fracfield.special_fn import ml_eval

        sizes = []

        def counting(order, x):
            sizes.append(np.size(x))
            return ml_eval(order, x)

        monkeypatch.setattr(simulate, "ml_eval", counting)
        grid, steps = GridSpec(), tuple(range(32, 257, 32))
        simulate._snapshot_tables.cache_clear()
        try:
            simulate._snapshot_tables(params(0.8, mu=mu), KernelSpec("uniform", 1.0), grid, steps)
        finally:
            simulate._snapshot_tables.cache_clear()
        half = grid.n_points // 2 + 1
        table, *copies = sizes
        assert table == (steps[-1] + 1) * half and len(copies) == len(steps)
        assert max(copies) <= 2 * most * half

    def test_uniform_fold_raises_a_small_c(self, monkeypatch):
        # at lam t^alpha = 2e6 and mu/lam = 5e-7, c = 1.2e-3 would take
        # 40 / (c dx) = 2e5 samples of G per side; c raised to
        # 40 / (_FOLD_CELLS dx) = 3.9e-3 moves the rows by rounding only
        from fracfield import simulate

        prm, kernel = params(1.5, lam=2e6, mu=1.0), KernelSpec("uniform", 1.0)
        rows = []
        for cells in (simulate._FOLD_CELLS, 1 << 21):
            monkeypatch.setattr(simulate, "_FOLD_CELLS", cells)
            simulate._snapshot_tables.cache_clear()
            rows.append(simulate._snapshot_tables(prm, kernel, SMALL, (1, 16))[0])
        simulate._snapshot_tables.cache_clear()
        assert np.max(np.abs(rows[0] - rows[1])) <= 1e-15 * np.max(np.abs(rows[1]))


class TestSnapshotLaw:
    @pytest.mark.parametrize("alpha,v1", [
        (0.7, 0.737916), (0.8, 0.548721), (0.9, 0.449169),
        (1.0, 0.393310), (1.2, 0.336318), (1.5, 0.292248)])
    def test_variance_matches_scheme_oracle(self, alpha, v1):
        # the exact variance of the noise at snapshot s against the weights
        # written out: V(s) = sigma^2 dt dx (n/2L)^2 (1/n) sum_k P_k with
        # P_k = sum_{l<s} Abar[l, k]^2 over all n frequencies
        grid, prm = GridSpec(), params(alpha)
        n = grid.n_points
        law = snapshot_law(prm, GAUSS, grid)
        steps = np.arange(32, 257, 32)
        p_k = np.cumsum(scheme_weights(prm, grid) ** 2, axis=0)[steps - 1]
        oracle = grid.dt * grid.dx * (n / (2 * grid.half_length)) ** 2 / n * p_k.sum(axis=1)
        variance = law.variance()
        assert np.all(np.abs(variance / oracle - 1.0) <= 1e-13)
        assert round(float(variance[-1]), 6) == v1
        # sigma^2 scales it; repeated and unsorted steps keep the request order
        small = snapshot_law(params(alpha, sigma=2.0**-3), GAUSS, grid).variance()
        assert np.array_equal(small, 2.0**-6 * variance)
        mixed = snapshot_law(prm, GAUSS, grid, snapshot_steps=[256, 32, 32, 128])
        assert mixed.times == (1.0, 0.125, 0.125, 0.5)
        assert np.allclose(mixed.variance(), variance[[7, 0, 0, 3]], rtol=1e-13, atol=0.0)

    def test_mean_is_the_noiseless_path(self):
        # the synthesized Dirac rows, in the request order, are a sigma = 0
        # path bit for bit
        prm, steps = params(1.5, mu=0.5), [16, 3, 3, 9]
        law = snapshot_law(prm, GAUSS, SMALL, snapshot_steps=steps)
        path = simulate_path(params(1.5, mu=0.5, sigma=0.0), GAUSS, SMALL, seed=1,
                             snapshot_steps=steps)
        assert np.array_equal(law.mean(), path.values)
        assert law.times == path.times

    def test_refinement_table(self):
        # the scheme's V(1) as it is: at a fixed step, refining n converges
        # even where the continuum diverges (alpha <= 2/3); the divergence
        # shows in dt, and at lam = 0 in n
        cases = {
            (0.8, 1.0, 0.0): [0.5125, 0.5133, 0.5133, 0.4911, 0.5307, 0.5573],
            (0.6, 1.0, 0.0): [0.8740, 0.8748, 0.8748, 0.7662, 0.9891, 1.2419],
            (0.45, 1.0, 0.0): [1.5838, 1.5846, 1.5846, 1.2394, 2.0148, 3.2286],
            (0.8, 0.0, 1.0): [3.6164, 13.8049, 54.5591, 3.5907, 3.6322, 3.6485],
        }
        grids = [(256, 64), (1024, 64), (4096, 64), (256, 32), (256, 128), (256, 512)]
        for (alpha, lam, mu), table in cases.items():
            got = [round(float(snapshot_law(
                params(alpha, lam=lam, mu=mu), GAUSS, GridSpec(n_points=n, n_steps=s),
                snapshot_steps=[s], force=True).variance()[0]), 4) for n, s in grids]
            assert got == table, (alpha, lam, mu)


class TestWorkspace:
    @pytest.mark.parametrize("seed", [0, 7, 2**63 + 5, 2**64 - 1, 2**100 + 1])
    def test_reset_generator_draws_as_fresh(self, seed):
        # a workspace re-keys one Philox per seed; its draws equal those of
        # Generator(Philox(key=seed)), also after it has drawn other values
        # (uint32 draws leave half a word buffered).  The CLI's seeds are
        # below 2^64; simulate_path takes any 128-bit Philox key
        from fracfield import simulate

        fresh = np.random.Generator(np.random.Philox(key=seed)).standard_normal((2, 513, 8))
        ws = simulate._Workspace(snapshot_law(params(1.5), GAUSS, GridSpec()), 1)
        for before in (lambda: None, lambda: ws.normals(5),
                       lambda: np.random.Generator(ws.bits).integers(9, size=3, dtype=np.uint32)):
            before()
            out = np.empty((2, 513, 8))
            ws.draw(seed, out)
            assert np.array_equal(out, fresh)

    def test_block_allocates_no_array(self):
        # the fields of 8 seeds at the default grid are written into the
        # workspace's 1.6 MB of buffers; what the call itself allocates is
        # a few small objects (about 1 MB of arrays before workspaces)
        import tracemalloc

        from fracfield import simulate

        law = snapshot_law(params(1.5), GAUSS, GridSpec())
        ws = simulate._Workspace(law, 8)
        seeds = [mix_seed(5, i) for i in range(8)]
        tracemalloc.start()
        try:
            fields = simulate._noise_fields(law, seeds, ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.shares_memory(fields, ws.fields) and fields.shape == (8, 8, 1024)
        assert peak <= 16384


class TestEnsemble:
    def test_determinism(self):
        mean1, var1 = ensemble_stats(params(1.0), GAUSS, SMALL_ZERO, 8, master_seed=1)
        mean2, var2 = ensemble_stats(params(1.0), GAUSS, SMALL_ZERO, 8, master_seed=1)
        assert np.array_equal(mean1.values, mean2.values)
        assert np.array_equal(var1.values, var2.values)

    def test_requires_two_samples(self):
        with pytest.raises(DomainError):
            ensemble_stats(params(1.0), GAUSS, SMALL_ZERO, 1, master_seed=1)

    def test_variance_scales_with_sigma_squared(self):
        # Dirac initial condition: mean^2 >> variance at small sigma, where a
        # sum-of-squares accumulation loses the variance to cancellation
        sigma = 2.0**-20
        _, one = ensemble_stats(params(0.8), GAUSS, SMALL, 16, master_seed=4, force=True)
        _, small = ensemble_stats(params(0.8, sigma=sigma), GAUSS, SMALL, 16,
                                  master_seed=4, force=True)
        ref = sigma**2 * one.values
        assert np.max(np.abs(small.values - ref)) <= 1e-8 * np.max(ref)

    @pytest.mark.parametrize("alpha", [0.8, 1.5])
    def test_variance_matches_scheme_oracle(self, alpha):
        # the scheme's exact variance at every snapshot from a zero initial
        # state: V(s) = sigma^2 dt dx (n/2L)^2 (1/n) sum_k P_k with
        # P_k = sum_{l<s} Abar[l, k]^2 over all n frequencies.  The field is
        # stationary in x, so the spatial mean of the sample variance
        # estimates V.  For N Gaussian paths Cov(s2(x), s2(y)) = 2 C(x-y)^2/(N-1),
        # so by Parseval that mean has relative standard error
        # sqrt(2/(N-1) * sum_k P_k^2 / (sum_k P_k)^2); allow 5 of them.
        grid, n_paths = GridSpec(ic="zero"), 2000
        n = grid.n_points
        prm = params(alpha)
        _, variance = ensemble_stats(prm, GAUSS, grid, n_paths, master_seed=12345)
        steps = np.round(np.array(variance.times) / grid.dt).astype(int)
        p_k = np.cumsum(scheme_weights(prm, grid) ** 2, axis=0)[steps - 1]
        oracle = grid.dt * grid.dx * (n / (2 * grid.half_length)) ** 2 / n * p_k.sum(axis=1)
        rel_se = np.sqrt(2.0 / (n_paths - 1) * (p_k**2).sum(axis=1) / p_k.sum(axis=1) ** 2)
        rel_err = variance.values.mean(axis=1) / oracle - 1.0
        assert np.all(np.abs(rel_err) <= 5.0 * rel_se), (rel_err / rel_se, oracle)

    def test_variance_growth(self):
        # accumulated noise: variance at the box center grows with time
        for alpha in (0.8, 1.0, 1.5):
            _, variance = ensemble_stats(
                params(alpha), GAUSS, SMALL_ZERO, 64, master_seed=9, force=True
            )
            center = SMALL_ZERO.n_points // 2
            v = variance.values[:, center]
            assert v[0] < v[-1]
            assert np.all(v > 0)

    @pytest.mark.parametrize("ic", ["dirac_spectral", "zero"])
    @pytest.mark.parametrize("n_samples", [2, 3, 17])
    def test_matches_long_double_two_pass(self, n_samples, ic):
        # the oracle stacks simulate_path's fields for the same seeds and takes
        # the textbook two-pass mean and variance in long double
        grid = GridSpec(half_length=5.0, n_points=64, n_steps=16, ic=ic)
        prm, steps = params(0.8, mu=0.5), [16, 3, 3, 9]
        got_mean, got_var = ensemble_stats(prm, GAUSS, grid, n_samples, master_seed=21,
                                           snapshot_steps=steps)
        fields = np.array([simulate_path(
            prm, GAUSS, grid, mix_seed(21, i), snapshot_steps=steps).values
            for i in range(n_samples)], dtype=np.longdouble)
        mean = fields.mean(axis=0)
        variance = ((fields - mean) ** 2).sum(axis=0) / (n_samples - 1)
        assert got_mean.times == tuple(s * grid.dt for s in steps)
        for got, ref in ((got_mean.values, mean), (got_var.values, variance)):
            scale = np.max(np.abs(ref), axis=1, keepdims=True)
            assert np.all(np.abs(got - ref) <= 1e-14 * scale)

    def test_variance_scales_with_sigma_squared_exactly(self):
        # the variance is sigma^2 times a moment of the sigma = 1 noise, so a
        # power-of-two sigma scales it bit for bit, Dirac mean or not
        _, one = ensemble_stats(params(0.8), GAUSS, SMALL, 16, master_seed=4)
        _, small = ensemble_stats(params(0.8, sigma=2.0**-20), GAUSS, SMALL, 16, master_seed=4)
        assert np.array_equal(small.values, 2.0**-40 * one.values)

    def test_tables_shared_across_sigma(self):
        from fracfield.simulate import _snapshot_tables

        grid = GridSpec(half_length=6.0, n_points=64, n_steps=16)  # used nowhere else
        before = _snapshot_tables.cache_info().misses
        for sigma in (0.0, 2.0**-20, 1.0, 3.0):
            ensemble_stats(params(1.5, sigma=sigma), GAUSS, grid, 2, master_seed=1)
            simulate_path(params(1.5, sigma=sigma), GAUSS, grid, seed=1)
        assert _snapshot_tables.cache_info().misses == before + 1

    @pytest.mark.parametrize("n_samples", [2, 3])
    def test_variance_nonnegative(self, n_samples):
        for master_seed in range(20):
            for grid in (SMALL, SMALL_ZERO):
                _, variance = ensemble_stats(params(0.8, mu=0.5), GAUSS, grid, n_samples,
                                             master_seed, snapshot_steps=range(1, 17))
                assert np.all(variance.values >= 0.0)

    def test_sigma_zero_is_exact_mean(self):
        # no noise: the mean is the synthesized Dirac rows, simulate_path's
        # field bit for bit, and the variance is exactly zero
        prm = params(1.5, mu=0.5, sigma=0.0)
        mean, variance = ensemble_stats(prm, GAUSS, SMALL, 5, master_seed=8)
        path = simulate_path(prm, GAUSS, SMALL, seed=0)
        assert np.array_equal(mean.values, path.values)
        assert np.all(variance.values == 0.0)

    def test_profiles_export(self):
        mean_p, var_p = ensemble_stats(params(1.0), GAUSS, SMALL_ZERO, 4, master_seed=2)
        assert mean_p.method == "mc_ensemble_mean"
        assert var_p.method == "mc_ensemble_var"
        assert mean_p.values.shape == (8, SMALL_ZERO.n_points)
        assert mean_p.meta["n_samples"] == 4
        assert var_p.meta == {"n_samples": 4, "master_seed": 2}
        assert var_p.times == mean_p.times == tuple(s * SMALL_ZERO.dt for s in range(2, 17, 2))
        assert var_p.positions == mean_p.positions == tuple(SMALL_ZERO.positions().tolist())


class TestEnsembleThreads:
    """ensemble_stats computes blocks of 4 seeds on FRACFIELD_THREADS lanes
    (8 on one thread) and sums them in seed order, so nothing it returns
    depends on the count."""

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    @pytest.mark.parametrize("n_samples", [2, 8, 9, 19, 37])
    def test_sums_in_seed_order(self, monkeypatch, n_samples, threads):
        # with a zero initial condition and sigma = 1 the mean is S1 / N and
        # the variance (S2 - S1^2 / N) / (N - 1), S1 and S2 summed over
        # simulate_path's fields one seed after another.  37 paths end in a
        # partial block, written into a workspace a full block used before:
        # an extra lane's on 2 threads, the caller's on 3
        from fracfield import simulate

        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 3)
        monkeypatch.setenv("FRACFIELD_THREADS", threads)
        prm = params(1.5)
        mean, variance = ensemble_stats(prm, GAUSS, SMALL_ZERO, n_samples, master_seed=5)
        s1 = s2 = 0.0
        for i in range(n_samples):
            path = simulate_path(prm, GAUSS, SMALL_ZERO, mix_seed(5, i))
            f = path.values
            s1 = s1 + f
            s2 = s2 + f * f
        assert np.array_equal(mean.values, s1 / n_samples)
        assert np.array_equal(variance.values,
                              np.maximum(s2 - s1 * s1 / n_samples, 0.0) / (n_samples - 1))

    @pytest.mark.parametrize("raw", ["many", "-1"])
    def test_bad_thread_env(self, monkeypatch, raw):
        monkeypatch.setenv("FRACFIELD_THREADS", raw)
        with pytest.raises(DomainError, match="FRACFIELD_THREADS"):
            ensemble_stats(params(1.5), GAUSS, SMALL_ZERO, 2, master_seed=1)

    @pytest.mark.parametrize("threads,n_samples,blocks", [
        ("7", 64, 8), ("0", 19, 3), ("2", 64, 8), ("1", 64, 8), ("0", 8, 1)])
    def test_thread_count(self, monkeypatch, threads, n_samples, blocks):
        # w = FRACFIELD_THREADS (0: every usable CPU), capped at the usable
        # CPUs and the blocks; the calling thread is one of the w, and every
        # other one has been joined when the call returns
        from fracfield.simulate import _usable_cpus

        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread) or start(thread))
        monkeypatch.setenv("FRACFIELD_THREADS", threads)
        before = threading.active_count()
        ensemble_stats(params(1.5), GAUSS, SMALL_ZERO, n_samples, master_seed=1)
        cpus = _usable_cpus()
        assert len(started) == min(int(threads) or cpus, cpus, blocks) - 1
        assert threading.active_count() == before

    def test_stress_more_threads_than_cpus(self, monkeypatch):
        # four threads on at most two CPUs, switching every microsecond, must
        # give the sums of one thread: a block's fields filed under another
        # block's index would move them
        import sys

        from fracfield import simulate

        monkeypatch.setenv("FRACFIELD_THREADS", "1")
        serial = ensemble_stats(params(1.5), GAUSS, SMALL_ZERO, 37, master_seed=11)
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 4)
        monkeypatch.setenv("FRACFIELD_THREADS", "4")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                stats, exc = _in_thread(lambda: ensemble_stats(
                    params(1.5), GAUSS, SMALL_ZERO, 37, master_seed=11))
                assert exc is None
                assert np.array_equal(stats[0].values, serial[0].values)
                assert np.array_equal(stats[1].values, serial[1].values)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("threads,block,n_samples", [
        pytest.param(2, 1, 32, id="pool-lane"),
        pytest.param(2, 2, 32, id="calling-lane"),
        pytest.param(2, 8, 36, id="calling-lane-last-block"),
        pytest.param(1, 2, 32, id="one-thread")])
    def test_block_failure_surfaces(self, monkeypatch, threads, block, n_samples):
        # two lanes of 4-seed blocks; in the third case block 8 is the
        # calling thread's and the extra lane has no block left.  On one
        # thread the calling lane runs every 8-seed block and none starts
        from fracfield import simulate

        failing = mix_seed(3, (4 if threads > 1 else 8) * block)
        real = simulate._noise_fields

        def fail_one(law, seeds, ws):
            if seeds[0] == failing:
                raise RuntimeError(f"block {block}")
            return real(law, seeds, ws)

        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread.name) or start(thread))
        monkeypatch.setattr(simulate, "_noise_fields", fail_one)
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
        monkeypatch.setenv("FRACFIELD_THREADS", str(threads))
        before = threading.active_count()
        _, exc = _in_thread(lambda: ensemble_stats(
            params(1.5), GAUSS, SMALL_ZERO, n_samples, 3))
        assert isinstance(exc, RuntimeError) and str(exc) == f"block {block}"
        assert len(started) == threads  # the "caller" of _in_thread and w - 1 lanes
        assert threading.active_count() == before

    def test_caller_makes_every_workspace(self, monkeypatch):
        # the calling thread allocates the w workspaces, one per lane, and no
        # lane thread makes one
        from fracfield import simulate

        real, makers = simulate._Workspace, []

        def recorded(*args):
            makers.append(threading.current_thread().name)
            return real(*args)

        monkeypatch.setattr(simulate, "_Workspace", recorded)
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 3)
        monkeypatch.setenv("FRACFIELD_THREADS", "3")
        _, exc = _in_thread(lambda: ensemble_stats(params(1.5), GAUSS, SMALL_ZERO, 37, 3))
        assert exc is None
        assert makers == ["caller"] * 3

    def test_extra_thread_failure_surfaces(self, monkeypatch):
        # the calling thread holds its first block until the extra thread has
        # failed on one, so the exception crosses threads every time
        from fracfield import simulate

        real = simulate._noise_fields
        failed = threading.Event()

        def fail_off_caller(law, seeds, ws):
            if threading.current_thread().name == "caller":
                assert failed.wait(timeout=30)
                return real(law, seeds, ws)
            failed.set()
            raise RuntimeError("extra thread")

        monkeypatch.setattr(simulate, "_noise_fields", fail_off_caller)
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
        monkeypatch.setenv("FRACFIELD_THREADS", "2")
        before = threading.active_count()
        _, exc = _in_thread(lambda: ensemble_stats(params(1.5), GAUSS, SMALL_ZERO, 32, 3))
        assert isinstance(exc, RuntimeError) and str(exc) == "extra thread"
        assert threading.active_count() == before

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_fields_held_at_once(self, monkeypatch, threads):
        # fewer than w blocks' fields are alive whenever a block starts, so
        # at most w are held at once, the new one included
        import weakref

        from fracfield import simulate

        real = simulate._noise_fields
        results, alive = [], []

        def tracked(law, seeds, ws):
            alive.append(sum(ref() is not None for ref in results))
            fields = real(law, seeds, ws)
            results.append(weakref.ref(fields))
            return fields

        monkeypatch.setattr(simulate, "_noise_fields", tracked)
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 4)
        monkeypatch.setenv("FRACFIELD_THREADS", str(threads))
        _, exc = _in_thread(lambda: ensemble_stats(params(1.5), GAUSS, SMALL_ZERO, 75, 3))
        assert exc is None
        assert len(alive) == (10 if threads == 1 else 19) and max(alive) < threads, alive

    @pytest.mark.parametrize("threads,fail_after", [
        pytest.param(3, {0: {1, 2}}, id="caller-fails-while-pool-lanes-wait"),
        pytest.param(2, {1: set(), 0: {1}}, id="caller-fails-after-pool-lane"),
        pytest.param(3, {5: set(), 4: {5}}, id="pool-lanes-fail-out-of-order")])
    def test_first_failure_in_seed_order(self, monkeypatch, threads, fail_after):
        # block b of fail_after fails once the blocks it names have been
        # computed or have failed; blocks 1 and 2 then wait on their turn,
        # or the later failure in seed order happens first.  The call
        # returns, re-raises the first failing block in seed order and
        # leaves no thread alive
        from fracfield import simulate

        real = simulate._noise_fields
        block_of = {mix_seed(3, 4 * b): b for b in range(9)}
        done, changed = set(), threading.Condition()

        def fail_late(law, seeds, ws):
            b = block_of[seeds[0]]
            try:
                if b not in fail_after:
                    return real(law, seeds, ws)
                with changed:
                    assert changed.wait_for(lambda: fail_after[b] <= done, timeout=30)
                raise RuntimeError(f"block {b}")
            finally:
                with changed:
                    done.add(b)
                    changed.notify_all()

        monkeypatch.setattr(simulate, "_noise_fields", fail_late)
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: threads)
        monkeypatch.setenv("FRACFIELD_THREADS", str(threads))
        before = threading.active_count()
        _, exc = _in_thread(lambda: ensemble_stats(params(1.5), GAUSS, SMALL_ZERO, 36, 3))
        assert isinstance(exc, RuntimeError) and str(exc) == f"block {min(fail_after)}"
        assert set(fail_after) <= done
        assert threading.active_count() == before

    @pytest.mark.parametrize("threads", [2, 3])
    def test_extra_lanes_ahead_of_caller(self, monkeypatch, threads):
        # the calling thread starts block i only once the extra lanes have
        # computed their blocks up to i + w - 1, which then wait for it; the
        # sums must still be those of one thread, added in seed order
        from fracfield import simulate

        n_samples, n_blocks = 37, 10
        monkeypatch.setenv("FRACFIELD_THREADS", "1")
        serial = ensemble_stats(params(1.5), GAUSS, SMALL_ZERO, n_samples, 3)
        real = simulate._noise_fields
        block_of = {mix_seed(3, 4 * b): b for b in range(n_blocks)}
        computed, changed = [], threading.Condition()

        def caller_last(law, seeds, ws):
            b = block_of[seeds[0]]
            if threading.current_thread().name == "caller":
                ahead = set(range(b + 1, min(b + threads, n_blocks)))
                with changed:
                    assert changed.wait_for(lambda: ahead <= set(computed), timeout=30)
            fields = real(law, seeds, ws)
            with changed:
                computed.append(b)
                changed.notify_all()
            return fields

        monkeypatch.setattr(simulate, "_noise_fields", caller_last)
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: threads)
        monkeypatch.setenv("FRACFIELD_THREADS", str(threads))
        stats, exc = _in_thread(lambda: ensemble_stats(
            params(1.5), GAUSS, SMALL_ZERO, n_samples, 3))
        assert exc is None
        assert sorted(computed[:threads - 1]) == list(range(1, threads))
        assert computed[threads - 1] == 0
        assert np.array_equal(stats[0].values, serial[0].values)
        assert np.array_equal(stats[1].values, serial[1].values)

    def test_extra_lane_adds_without_allocating(self, monkeypatch):
        # an extra lane squares its fields in place: adding a block of 4 paths
        # of 8 x 1024 fields (a 64 KB square each) traces only a few objects.
        # The caller holds its next block until the extra lane has added, so
        # nothing else runs meanwhile
        import tracemalloc

        from fracfield import simulate

        real_fields, real_add = simulate._noise_fields, simulate._add_moments
        extra_added, grown = threading.Event(), []

        def caller_waits(law, seeds, ws):
            if threading.current_thread().name == "caller" and seeds[0] == mix_seed(3, 8):
                assert extra_added.wait(timeout=30)
            return real_fields(law, seeds, ws)

        def traced_add(fields, s1, s2):
            if threading.current_thread().name == "caller":
                return real_add(fields, s1, s2)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            real_add(fields, s1, s2)
            grown.append(tracemalloc.get_traced_memory()[1] - before)
            extra_added.set()

        monkeypatch.setattr(simulate, "_noise_fields", caller_waits)
        monkeypatch.setattr(simulate, "_add_moments", traced_add)
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
        monkeypatch.setenv("FRACFIELD_THREADS", "2")
        grid = GridSpec(half_length=5.0, n_points=1024, n_steps=16, ic="zero")
        tracemalloc.start()
        try:
            _, exc = _in_thread(lambda: ensemble_stats(params(1.5), GAUSS, grid, 16, 3))
        finally:
            tracemalloc.stop()
        assert exc is None
        assert len(grown) == 2 and max(grown) <= 16384, grown


def _in_thread(call):
    """(value, exception) of call() run on a daemon thread named "caller",
    waited for at most 60 s, so that a hang fails the test instead of
    stalling the run."""
    outcome = []

    def run():
        try:
            outcome.append((call(), None))
        except Exception as exc:
            outcome.append((None, exc))

    caller = threading.Thread(target=run, name="caller", daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive(), "ensemble_stats did not return within 60 s"
    return outcome[0]
