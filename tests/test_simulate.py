"""Tests for the spectral Monte Carlo simulator."""

import math

import numpy as np
import pytest

from fracfield.analytic_fields import heat_kernel, make_profile
from fracfield.errors import DomainError, GridMismatchError, NotMildError
from fracfield.simulate import (
    GridSpec,
    compare_to_analytic,
    ensemble_stats,
    mix_seed,
    noise_increments,
    simulate_path,
    stats_to_profiles,
)
from fracfield.symbol import DiffusionParams, KernelSpec

GAUSS = KernelSpec("gaussian", 1.0)
SMALL = GridSpec(half_length=5.0, n_points=64, n_steps=16, t_end=1.0)
SMALL_ZERO = GridSpec(half_length=5.0, n_points=64, n_steps=16, t_end=1.0, ic="zero")


def params(alpha, lam=1.0, mu=0.0, sigma=1.0):
    return DiffusionParams(alpha=alpha, lam=lam, mu=mu, sigma=sigma, dim=1)


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
        assert len(p.snapshots) == 8

    def test_zero_ic_zero_noise_is_zero(self):
        p = simulate_path(params(1.0, sigma=0.0), GAUSS, SMALL_ZERO, seed=1)
        for _, f in p.snapshots:
            assert np.all(f == 0.0)

    def test_fields_are_real_float(self):
        p = simulate_path(params(1.0), GAUSS, SMALL, seed=3)
        for t, f in p.snapshots:
            assert f.dtype == np.float64
            assert np.all(np.isfinite(f))

    def test_seed_determinism_bitwise(self):
        p1 = simulate_path(params(1.5), GAUSS, SMALL, seed=42)
        p2 = simulate_path(params(1.5), GAUSS, SMALL, seed=42)
        for (t1, f1), (t2, f2) in zip(p1.snapshots, p2.snapshots):
            assert t1 == t2
            assert np.array_equal(f1, f2)

    def test_sigma_linearity_bit_exact(self):
        # the noise enters linearly and doubling sigma is a power-of-two
        # scaling, which commutes exactly with every rounding step
        one = simulate_path(params(1.0, sigma=1.0), GAUSS, SMALL_ZERO, seed=5)
        two = simulate_path(params(1.0, sigma=2.0), GAUSS, SMALL_ZERO, seed=5)
        for (_, f1), (_, f2) in zip(one.snapshots, two.snapshots):
            assert np.array_equal(f2, 2.0 * f1)

    def test_dirac_alpha_one_matches_heat_kernel(self):
        # deterministic part at alpha=1 is the heat kernel on the box
        grid = GridSpec(half_length=20.0, n_points=1024, n_steps=16, t_end=1.0)
        p = simulate_path(params(1.0, sigma=0.0), GAUSS, grid, seed=1,
                          snapshot_steps=[16])
        t, f = p.snapshots[0]
        ref = heat_kernel(t, grid.positions(), 1.0)
        sel = ref > 1e-8
        assert np.max(np.abs(f[sel] - ref[sel]) / ref[sel]) < 1e-6

    def test_alpha_one_exponential_euler_recursion(self):
        # at alpha=1 the history sum collapses to the exact recursion
        # z_n = e^{-a dt} z_{n-1} + phi(a dt) dW_n with phi = (1-e^{-a dt})/(a dt)
        from fracfield.symbol import symbol_a

        grid = SMALL_ZERO
        prm = params(1.0)
        seed = 11
        a = symbol_a(prm, GAUSS, grid.frequencies())
        dt = grid.dt
        phi = np.where(a > 0, -np.expm1(-a * dt) / np.where(a > 0, a * dt, 1.0), 1.0)
        z = np.zeros(grid.n_points, dtype=complex)
        for m in range(grid.n_steps):
            z = z * np.exp(-a * dt) + phi * noise_increments(grid, seed, m)
        path = simulate_path(prm, GAUSS, grid, seed=seed,
                             snapshot_steps=[grid.n_steps])
        phase = np.where(np.arange(grid.n_points) % 2 == 0, 1.0, -1.0)
        ref = np.real(np.fft.ifft(phase * z)) * grid.n_points / (2 * grid.half_length)
        _, f = path.snapshots[0]
        assert np.max(np.abs(f - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))

    @pytest.mark.parametrize("alpha", [0.8, 1.5])
    def test_dirac_part_is_table_row(self, alpha):
        # the Dirac part of a snapshot at step l is row l of the cached table,
        # bit for bit what a per-path evaluation of that row would give
        from fracfield.special_fn import MLOrder, ml_eval
        from fracfield.symbol import symbol_a

        prm = params(alpha, mu=0.5, sigma=0.0)
        a = symbol_a(prm, GAUSS, SMALL.frequencies())
        t_alpha = (SMALL.dt * np.arange(SMALL.n_steps + 1)) ** alpha
        steps = [1, 5, 16]
        path = simulate_path(prm, GAUSS, SMALL, seed=1, snapshot_steps=steps, force=True)
        n = SMALL.n_points
        phase = np.where(np.arange(n // 2 + 1) % 2 == 0, 1.0, -1.0)
        for step, (_, f) in zip(steps, path.snapshots):
            z_hat = np.zeros(SMALL.n_points, dtype=complex)
            z_hat += ml_eval(MLOrder(alpha, 1.0), -a * t_alpha[step])
            ref = np.fft.irfft(phase * z_hat[: n // 2 + 1], n) * (n / (2 * SMALL.half_length))
            assert np.array_equal(f, ref)

    @pytest.mark.parametrize("alpha", [0.8, 1.5])
    def test_matches_full_spectrum_reference(self, alpha):
        # the half-spectrum engine against the full-width scheme written out:
        # tables on all n frequencies, per-step noise_increments, phased ifft
        from fracfield.special_fn import MLOrder, gamma_fn, ml_eval
        from fracfield.symbol import symbol_a

        prm = params(alpha, mu=0.5)
        grid, seed = SMALL, 21
        n, dt = grid.n_points, grid.dt
        a = symbol_a(prm, GAUSS, grid.frequencies())
        t_alpha = (dt * np.arange(grid.n_steps + 1)) ** alpha
        e = ml_eval(MLOrder(alpha, 1.0), -np.outer(t_alpha, a))
        abar = (e[:-1] - e[1:]) / (np.where(a == 0, 1.0, a) * dt)
        limit = (t_alpha[1:] - t_alpha[:-1]) / (gamma_fn(alpha + 1.0) * dt)
        abar[:, a == 0] = limit[:, None]
        w_hat = np.array([noise_increments(grid, seed, m) for m in range(grid.n_steps)])
        phase = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        steps = [1, 5, 16]
        path = simulate_path(prm, GAUSS, grid, seed=seed, snapshot_steps=steps, force=True)
        for step, (_, f) in zip(steps, path.snapshots):
            z_hat = e[step] + sum(abar[step - 1 - m] * w_hat[m] for m in range(step))
            ref = np.real(np.fft.ifft(phase * z_hat)) * n / (2 * grid.half_length)
            assert np.max(np.abs(f - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_snapshot_step_validation(self):
        with pytest.raises(DomainError):
            simulate_path(params(1.0), GAUSS, SMALL, seed=1, snapshot_steps=[0])
        with pytest.raises(DomainError):
            simulate_path(params(1.0), GAUSS, SMALL, seed=1, snapshot_steps=[17])


class TestEnsemble:
    def test_determinism(self):
        s1 = ensemble_stats(params(1.0), GAUSS, SMALL_ZERO, 8, master_seed=1)
        s2 = ensemble_stats(params(1.0), GAUSS, SMALL_ZERO, 8, master_seed=1)
        assert np.array_equal(s1.mean, s2.mean)
        assert np.array_equal(s1.variance, s2.variance)

    def test_requires_two_samples(self):
        with pytest.raises(DomainError):
            ensemble_stats(params(1.0), GAUSS, SMALL_ZERO, 1, master_seed=1)

    def test_variance_scales_with_sigma_squared(self):
        # Dirac initial condition: mean^2 >> variance at small sigma, where a
        # sum-of-squares accumulation loses the variance to cancellation
        sigma = 2.0**-20
        one = ensemble_stats(params(0.8), GAUSS, SMALL, 16, master_seed=4, force=True)
        small = ensemble_stats(params(0.8, sigma=sigma), GAUSS, SMALL, 16,
                               master_seed=4, force=True)
        ref = sigma**2 * one.variance
        assert np.max(np.abs(small.variance - ref)) <= 1e-8 * np.max(ref)

    def test_variance_growth(self):
        # accumulated noise: variance at the box center grows with time
        for alpha in (0.8, 1.0, 1.5):
            stats = ensemble_stats(
                params(alpha), GAUSS, SMALL_ZERO, 64, master_seed=9, force=True
            )
            center = SMALL_ZERO.n_points // 2
            v = stats.variance[:, center]
            assert v[0] < v[-1]
            assert np.all(v > 0)

    def test_profiles_export(self):
        stats = ensemble_stats(params(1.0), GAUSS, SMALL_ZERO, 4, master_seed=2)
        mean_p, var_p = stats_to_profiles(stats)
        assert mean_p.method == "mc_ensemble_mean"
        assert var_p.method == "mc_ensemble_var"
        assert mean_p.values.shape == (8, SMALL_ZERO.n_points)
        assert mean_p.meta["n_samples"] == 4


class TestCompare:
    def test_self_comparison_zero(self):
        stats = ensemble_stats(params(1.0), GAUSS, SMALL_ZERO, 8, master_seed=3)
        mean_p, var_p = stats_to_profiles(stats)
        for ref in (mean_p, var_p):
            out = compare_to_analytic(stats, ref)
            assert out["max_abs_z"] == 0.0

    def test_grid_mismatch(self):
        stats = ensemble_stats(params(1.0), GAUSS, SMALL_ZERO, 4, master_seed=3)
        bad_time = make_profile([0.123], [0.0], lambda t, x: 0.0, "fourier")
        with pytest.raises(GridMismatchError):
            compare_to_analytic(stats, bad_time)
        t0 = stats.times[0]
        bad_pos = make_profile([t0], [0.03], lambda t, x: 0.0, "fourier")
        with pytest.raises(GridMismatchError):
            compare_to_analytic(stats, bad_pos)
