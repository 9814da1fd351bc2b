"""Tests for the spectral Monte Carlo simulator."""

import math

import numpy as np
import pytest

from fracfield.analytic_fields import heat_kernel, make_profile, mean_fourier
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
        assert [t for t, _ in mixed.snapshots] == [1.0, 3 * SMALL.dt, 3 * SMALL.dt]
        (_, f16), (_, f3a), (_, f3b) = mixed.snapshots
        assert np.array_equal(f3a, f3b)
        assert np.array_equal(f3a, plain.snapshots[0][1])
        assert np.array_equal(f16, plain.snapshots[1][1])

    def test_every_step(self):
        steps = range(1, SMALL.n_steps + 1)
        p = simulate_path(params(0.8), GAUSS, SMALL, seed=4, snapshot_steps=steps)
        assert [t for t, _ in p.snapshots] == [s * SMALL.dt for s in steps]
        assert all(np.all(np.isfinite(f)) for _, f in p.snapshots)

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
        for t, f in path.snapshots:
            ref = mean_fourier(prm, GAUSS, t, x[near])
            assert np.max(np.abs(f[near] - ref)) <= 1e-11 * np.max(ref)

    @pytest.mark.parametrize("alpha", [0.8, 1.5, 1.9])
    def test_dirac_peak_closed_form_at_first_step(self, alpha):
        # at t = dt most of the mean's spectrum lies beyond Nyquist (the
        # band-limited row alone is 30-60% off); the aliased row recovers the
        # peak 1 / (2 Gamma(1 - alpha/2) sqrt(lam t^alpha)) at mu = 0
        prm = params(alpha, sigma=0.0)
        t, f = simulate_path(prm, GAUSS, SMALL, seed=1, snapshot_steps=[1]).snapshots[0]
        peak = 1.0 / (2.0 * math.gamma(1.0 - alpha / 2.0) * math.sqrt(t**alpha))
        assert f[SMALL.n_points // 2] == pytest.approx(peak, rel=1e-13)

    def test_forced_lambda_zero_keeps_band_limited_mean(self):
        # without diffusion E does not decay and no pointwise mean exists;
        # a forced run still gives the band-limited Dirac part
        prm = params(0.8, lam=0.0, mu=0.5, sigma=0.0)
        with pytest.raises(NotMildError):
            simulate_path(prm, GAUSS, SMALL, seed=1)
        p = simulate_path(prm, GAUSS, SMALL, seed=1, force=True)
        assert all(np.all(np.isfinite(f)) for _, f in p.snapshots)

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
        stats = ensemble_stats(prm, GAUSS, grid, n_paths, master_seed=12345)
        steps = np.round(np.array(stats.times) / grid.dt).astype(int)
        p_k = np.cumsum(scheme_weights(prm, grid) ** 2, axis=0)[steps - 1]
        oracle = grid.dt * grid.dx * (n / (2 * grid.half_length)) ** 2 / n * p_k.sum(axis=1)
        rel_se = np.sqrt(2.0 / (n_paths - 1) * (p_k**2).sum(axis=1) / p_k.sum(axis=1) ** 2)
        rel_err = stats.variance.mean(axis=1) / oracle - 1.0
        assert np.all(np.abs(rel_err) <= 5.0 * rel_se), (rel_err / rel_se, oracle)

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

    @pytest.mark.parametrize("ic", ["dirac_spectral", "zero"])
    @pytest.mark.parametrize("n_samples", [2, 3, 17])
    def test_matches_long_double_two_pass(self, n_samples, ic):
        # the oracle stacks simulate_path's fields for the same seeds and takes
        # the textbook two-pass mean and variance in long double
        grid = GridSpec(half_length=5.0, n_points=64, n_steps=16, ic=ic)
        prm, steps = params(0.8, mu=0.5), [16, 3, 3, 9]
        stats = ensemble_stats(prm, GAUSS, grid, n_samples, master_seed=21,
                               snapshot_steps=steps)
        fields = np.array([[f for _, f in simulate_path(
            prm, GAUSS, grid, mix_seed(21, i), snapshot_steps=steps).snapshots]
            for i in range(n_samples)], dtype=np.longdouble)
        mean = fields.mean(axis=0)
        variance = ((fields - mean) ** 2).sum(axis=0) / (n_samples - 1)
        assert stats.times == tuple(s * grid.dt for s in steps)
        for got, ref in ((stats.mean, mean), (stats.variance, variance)):
            scale = np.max(np.abs(ref), axis=1, keepdims=True)
            assert np.all(np.abs(got - ref) <= 1e-14 * scale)

    def test_variance_scales_with_sigma_squared_exactly(self):
        # the variance is sigma^2 times a moment of the sigma = 1 noise, so a
        # power-of-two sigma scales it bit for bit, Dirac mean or not
        one = ensemble_stats(params(0.8), GAUSS, SMALL, 16, master_seed=4)
        small = ensemble_stats(params(0.8, sigma=2.0**-20), GAUSS, SMALL, 16, master_seed=4)
        assert np.array_equal(small.variance, 2.0**-40 * one.variance)

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
                stats = ensemble_stats(params(0.8, mu=0.5), GAUSS, grid, n_samples,
                                       master_seed, snapshot_steps=range(1, 17))
                assert np.all(stats.variance >= 0.0)

    def test_sigma_zero_is_exact_mean(self):
        # no noise: the mean is the synthesized Dirac rows, simulate_path's
        # field bit for bit, and the variance is exactly zero
        prm = params(1.5, mu=0.5, sigma=0.0)
        stats = ensemble_stats(prm, GAUSS, SMALL, 5, master_seed=8)
        path = simulate_path(prm, GAUSS, SMALL, seed=0)
        assert np.array_equal(stats.mean, np.array([f for _, f in path.snapshots]))
        assert np.all(stats.variance == 0.0)

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
