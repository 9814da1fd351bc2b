"""Tests for the analytic mean and variance field routes."""

import io
import math
import tracemalloc
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import integrate

from fracfield import analytic_fields
from fracfield.analytic_fields import (
    Profile,
    beta_coeff,
    columns_to_csv,
    crosscheck_to_csv,
    heat_kernel,
    make_profile,
    mean_fourier,
    mean_mainardi,
    profile_csv_parts,
    resonance_set,
    var_classical_closed,
    var_classical_quadrature,
    var_frac_quadrature,
    var_series,
)
from fracfield.errors import (
    DomainError,
    NonIntegrableSymbolError,
    ResonanceError,
)
from fracfield.special_fn import MLOrder, gamma_fn, ml_eval
from fracfield.symbol import DiffusionParams, KernelSpec
from ml_oracle import mainardi_oracle

# QUADPACK's accuracy warnings fail the test: a reference that warns is no
# reference
pytestmark = pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")

GAUSS = KernelSpec("gaussian", 1.0)


def local_params(alpha, lam=1.0):
    return DiffusionParams(alpha=alpha, lam=lam, mu=0.0, sigma=1.0, dim=1)


class TestHeatKernel:
    def test_peak_value(self):
        assert heat_kernel(1.0, 0.0, 1.0) == pytest.approx(
            1.0 / math.sqrt(4.0 * math.pi), rel=1e-12
        )

    def test_normalization(self):
        x = np.linspace(-30, 30, 4001)
        for t, lam in [(0.5, 1.0), (2.0, 0.3)]:
            mass = np.trapezoid(heat_kernel(t, x, lam), x)
            assert mass == pytest.approx(1.0, abs=1e-8)

    def test_evenness(self):
        assert heat_kernel(1.0, 2.0, 1.0) == heat_kernel(1.0, -2.0, 1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            heat_kernel(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            heat_kernel(1.0, 1.0, 0.0)


class TestMeanFourier:
    def test_alpha_one_matches_heat_kernel(self):
        p = local_params(1.0)
        for t in (0.5, 1.0, 2.0):
            for x in (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0):
                ref = heat_kernel(t, x, 1.0)
                got = mean_fourier(p, GAUSS, t, x)
                assert got == pytest.approx(ref, rel=1e-6)

    def test_mass_conservation(self):
        # integral over x equals mean_hat at xi=0, which is 1
        from scipy.integrate import simpson

        # composite Simpson with an even point at x=0: the mean has a cusp
        # there, and keeping it on a pair boundary preserves the O(h^4) rate
        p = local_params(0.6)
        x = np.linspace(-12.0, 12.0, 161)
        vals = np.array([mean_fourier(p, GAUSS, 1.0, float(xx)) for xx in x])
        assert simpson(vals, x=x) == pytest.approx(1.0, abs=1e-4)

    def test_evenness(self):
        p = local_params(0.6)
        for x in (0.5, 1.5):
            assert mean_fourier(p, GAUSS, 1.0, x) == pytest.approx(
                mean_fourier(p, GAUSS, 1.0, -x), rel=1e-10
            )

    def test_lambda_zero_rejected(self):
        p = DiffusionParams(alpha=0.6, lam=0.0, mu=1.0, sigma=1.0, dim=1)
        with pytest.raises(NonIntegrableSymbolError):
            mean_fourier(p, GAUSS, 1.0, 0.0)

    def test_dirac_concentration(self):
        p = local_params(0.6)
        peaks = [mean_fourier(p, GAUSS, t, 0.0) for t in (1.0, 0.1, 0.01)]
        assert peaks[0] < peaks[1] < peaks[2]

    def test_subdiffusive_self_similarity(self):
        # peak ratio Z0(4,0)/Z0(1,0) = 4^{-alpha/2} for mu=0
        p = local_params(0.6)
        ratio = mean_fourier(p, GAUSS, 4.0, 0.0) / mean_fourier(p, GAUSS, 1.0, 0.0)
        assert ratio == pytest.approx(4.0 ** (-0.3), abs=1e-4)

    @pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9, 1.2, 1.5, 1.8])
    def test_peak_closed_form(self, alpha):
        # mu = 0: Z0(t, 0) = 1 / (2 Gamma(1 - alpha/2) sqrt(lam t^alpha)); the
        # frequency tail beyond the cutoff is algebraic on both sides of alpha = 1,
        # and the cutoff's floor 240 / sqrt(lam t^alpha) is in units of the
        # field's width (an absolute 240 left 1.4e-13 at alpha = 1.8)
        for lam in (1e-4, 1.0, 1e4):
            p = local_params(alpha, lam)
            for t in 2.0 ** np.arange(-3, 4):
                ref = 1.0 / (2.0 * gamma_fn(1.0 - alpha / 2.0) * math.sqrt(lam * t**alpha))
                assert mean_fourier(p, GAUSS, float(t), 0.0) == pytest.approx(ref, rel=1e-14)

    @pytest.mark.parametrize("kind", ["gaussian", "uniform"])
    @pytest.mark.parametrize("mu", [0.0, 0.5, 10.0])
    def test_length_law_bit_for_bit(self, kind, mu):
        # x and the kernel scale times c, lambda times c^2: for c a power of
        # two every node and weight scales exactly, and the mean by 1/c
        x = np.linspace(0.0, 4.0, 9)
        for alpha in (0.8, 1.5):
            ref = mean_fourier(DiffusionParams(alpha, 1.0, mu, 1.0, 1), KernelSpec(kind, 1.0),
                               1.0, x)
            for c in (2.0, 2.0**10):
                p = DiffusionParams(alpha, c * c, mu, 1.0, 1)
                got = mean_fourier(p, KernelSpec(kind, c), 1.0, c * x)
                assert (got * c).tobytes() == ref.tobytes(), (alpha, c)

    @pytest.mark.parametrize("alpha", [0.6, 1.2, 1.5])
    def test_against_mainardi_oracle(self, alpha):
        # mu = 0: Z0(t, x) = M_{alpha/2}(|x| / sqrt(lam t^alpha)) / (2 sqrt(lam t^alpha))
        # (Mainardi, Mura & Pagnini 2010), summed in mpmath
        p = local_params(alpha)
        xs = np.array([0.0, 0.5, -0.5, 1.0, 2.0])
        for t in (0.5, 1.0):
            scale = math.sqrt(t**alpha)
            for x, got in zip(xs, mean_fourier(p, GAUSS, t, xs)):
                ref = mainardi_oracle(alpha / 2.0, abs(x) / scale) / (2.0 * scale)
                err = abs(got - ref) / (abs(ref) if abs(ref) > 1e-3 else 1.0)
                assert err <= 1e-10, (t, x, got, ref)

    @pytest.mark.parametrize("kind, mu, scale", [
        pytest.param("gaussian", 0.5, 1.0, id="gaussian"),
        pytest.param("uniform", 0.5, 1.0, id="uniform"),
        pytest.param("gaussian", 1000.0, 1.0, id="gaussian-mu1000"),
        pytest.param("gaussian", 1.0, 0.01, id="gaussian-scale0.01"),
        pytest.param("gaussian", 100.0, 0.01, id="gaussian-scale0.01-mu100"),
        pytest.param("gaussian", 100.0, 0.003, id="gaussian-scale0.003-mu100"),
        pytest.param("uniform", 1000.0, 1.0, id="uniform-mu1000")])
    def test_mu_tail_against_long_quadrature(self, kind, mu, scale):
        # mu > 0: Gauss-Legendre over [0, 2e4] plus a QUADPACK tail of the exact
        # integrand; the default cutoff's analytic tail must carry the mu part,
        # also where mu/lam is large, and a narrow Gaussian kernel's j_hat must
        # have died out by the cutoff (at scale 0.003 it reaches 1e-17 only at
        # k = 2950); what the uniform kernel's mu sin(k)/k leaves beyond its
        # own cutoff must be negligible, also within 1/K of |x| = scale,
        # where sin(k) cos(kx) beats slowly.
        from scipy import integrate

        from fracfield.special_fn import MLOrder, ml_eval
        from fracfield.symbol import symbol_a

        p = DiffusionParams(alpha=0.8, lam=1.0, mu=mu, sigma=1.0, dim=1)
        kernel = KernelSpec(kind, scale)
        cutoff = 2e4
        u, w = np.polynomial.legendre.leggauss(32)
        edges = np.concatenate([np.arange(0.0, 64.0, 0.25), np.arange(64.0, cutoff + 1.0, 8.0)])
        lo, hi = edges[:-1, None], edges[1:, None]
        k = (0.5 * (hi - lo) * u + 0.5 * (hi + lo)).ravel()
        wk = (0.5 * (hi - lo) * w).ravel()
        for t in (0.25, 0.5):
            def mean_hat(kk):
                return ml_eval(MLOrder(p.alpha, 1.0), -symbol_a(p, kernel, kk) * t**p.alpha)

            head = wk * mean_hat(k)
            for x in (0.0, 0.999, 1.0, 1.001):
                if x == 0.0:
                    tail = integrate.quad(mean_hat, cutoff, np.inf, epsabs=1e-16)[0]
                else:
                    tail = integrate.quad(mean_hat, cutoff, np.inf, weight="cos",
                                          wvar=x, epsabs=1e-16)[0]
                ref = (np.sum(head * np.cos(k * x)) + tail) / math.pi
                assert abs(mean_fourier(p, kernel, t, x) - ref) <= 1e-12, (t, x)

    @pytest.mark.parametrize("alpha, t", [(1.2, 0.25), (1.5, 0.125), (1.9, 1 / 16)])
    def test_far_field_vanishes(self, alpha, t):
        # mu = 0: the true mean is below 1e-100 on x >= 12; there every digit
        # left is rounding of the oscillatory sum over [0, K], at Kx >= 2880
        xs = np.linspace(12.0, 80.0, 69)
        assert np.abs(mean_fourier(local_params(alpha), GAUSS, t, xs)).max() <= 1e-12

    def test_near_field_hole_vanishes(self):
        # mu = 0: the true mean is below 1e-40 on [1, 1.78] at t = 0.1, so all
        # that shows there is rounding
        xs = np.linspace(1.0, 1.78, 7)
        assert np.abs(mean_fourier(local_params(1.5), GAUSS, 0.1, xs)).max() <= 1e-14

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_matern_transform_against_quadosc(self, n):
        # (1/pi) int_0^inf cos(kx) (k^2 + c^2)^(-n-1) dk in 20-digit arithmetic
        from fracfield.analytic_fields import _matern_transform

        for c, xs in ((0.3, [0.0, 5.0]), (1.0, [0.5, 2.0]), (31.7, [0.0, 0.5])):
            got = _matern_transform(n, c, np.array(xs))
            with mp.workdps(20):
                f = lambda k: (k * k + c * c) ** (-n - 1)
                ref = [mp.quad(f, [0, mp.inf]) if x == 0 else
                       mp.quadosc(lambda k: mp.cos(k * x) * f(k), [0, mp.inf], omega=x)
                       for x in map(mp.mpf, xs)]
            ref = np.array([float(v / mp.pi) for v in ref])
            np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("alpha, mu, t", [(0.6, 0.0, 1.0), (1.5, 0.5, 0.1),
                                              (0.8, 1000.0, 2.0)])
    def test_matern_terms_match_expansion(self, alpha, mu, t):
        # sum_p d_p (k^2 + c^2)^(-p) - sum_j e_j (k^2 + mu/lam)^(-j) is
        # (e_1 delta^3 + 3 e_2 delta^2 + 3 e_3 delta) (k^2 + c^2)^(-4) + O(k^-10)
        from fracfield.analytic_fields import _matern_terms

        lam = 0.7
        c, d = _matern_terms(alpha, lam, mu, t)
        with mp.workdps(40):
            ta = lam * mp.mpf(t) ** alpha
            e = [(-1) ** (j + 1) * mp.rgamma(1 - j * mp.mpf(alpha)) / ta**j for j in (1, 2, 3)]
            delta = 2 / ta
            assert c * c == pytest.approx(float(mu / mp.mpf(lam) + delta), rel=1e-15)
            # the re-expansion in 40 digits, so that rounding of d does not
            # swamp the k^-8 remainder
            dm = [e[0], e[1] + delta * e[0], e[2] + 2 * delta * e[1] + delta**2 * e[0]]
            np.testing.assert_allclose(d, [float(v) for v in dm], rtol=1e-13)
            lead = e[0] * delta**3 + 3 * e[1] * delta**2 + 3 * e[2] * delta
            for k in (1e3, 1e4, 1e5):
                q = mp.mpf(k) ** 2 + mp.mpf(c) ** 2
                diff = (sum(ej * (q - delta) ** -(j + 1) for j, ej in enumerate(e))
                        - sum(dp * q ** -(p + 1) for p, dp in enumerate(dm)))
                assert float(diff * q**4 / lead) == pytest.approx(1.0, abs=4 * abs(delta) / q)

    def test_nonnegative_without_jumps(self):
        # mu = 0: the mean is a Mainardi scaling form, a probability density;
        # what shows below zero (7.7e-14 of the peak) is rounding of the
        # frequency sum
        xs = np.linspace(0.0, 12.0, 121)
        for alpha in (0.3, 0.9, 1.5, 1.95):
            for t in (0.1, 1.0):
                v = mean_fourier(local_params(alpha), GAUSS, t, xs)
                assert v.min() >= -1e-12 * v.max(), (alpha, t)

    def test_negative_near_alpha_two_with_jumps(self):
        # mu > 0 keeps no sign near alpha = 2: at mu = 2, t = 2, x = 1.6 the
        # mean is +0.036 at alpha = 1.8, -0.066 at 1.9 and -0.167 at 1.95.
        # QUADPACK on the same integrand over [0, 400] leaves out a tail of
        # about 1e-8
        from fracfield.symbol import symbol_a

        p = DiffusionParams(alpha=1.95, lam=1.0, mu=2.0, sigma=1.0, dim=1)
        t, x = 2.0, 1.6

        def mean_hat(k):
            return ml_eval(MLOrder(p.alpha, 1.0), -symbol_a(p, GAUSS, k) * t**p.alpha)

        ref = integrate.quad(mean_hat, 0.0, 400.0, weight="cos", wvar=x, limit=400)[0] / math.pi
        got = mean_fourier(p, GAUSS, t, x)
        assert got < -0.16
        assert abs(got - ref) <= 1e-6

    def test_array_matches_pointwise(self):
        # per-point calls pick their own panel width from |x|
        p = DiffusionParams(alpha=0.8, lam=1.0, mu=0.5, sigma=1.0, dim=1)
        xs = np.linspace(-12.0, 12.0, 25)
        pts = [mean_fourier(p, GAUSS, 0.7, float(x)) for x in xs]
        np.testing.assert_allclose(mean_fourier(p, GAUSS, 0.7, xs), pts, rtol=0, atol=1e-14)


class TestMainardiRoutes:
    def test_mainardi_peak(self):
        ref = 1.0 / (math.sqrt(4.0 * math.pi) * gamma_fn(0.5))
        assert mean_mainardi(1.0, 0.0, 0.5, 1.0) == pytest.approx(ref, rel=1e-10)

    def test_mainardi_even(self):
        assert mean_mainardi(2.0, 1.3, 0.6, 1.0) == pytest.approx(
            mean_mainardi(2.0, -1.3, 0.6, 1.0), rel=1e-12
        )

    def test_routes_cross_reported_not_reconciled(self):
        # the two printed routes for the mean disagree away from x=0; the
        # package reports the ratio instead of asserting agreement
        p = local_params(0.5)
        rows = []
        for x in (0.5, 1.0):
            va = mean_mainardi(1.0, x, 0.5, 1.0)
            vb = mean_fourier(p, GAUSS, 1.0, x)
            rows.append((1.0, x, "mainardi", va, "fourier", vb))
            assert va > 0 and vb > 0
        csv = crosscheck_to_csv(rows)
        assert csv.splitlines()[0] == "t,x,method_a,value_a,method_b,value_b,ratio"
        assert len(csv.splitlines()) == 3


class TestClassicalVariance:
    def test_quadrature_value(self):
        # sigma^2 sqrt(t / (2 pi lambda))
        v = var_classical_quadrature(1.0, 0.0, 1.0, 1.0)
        assert v == pytest.approx(math.sqrt(1.0 / (2.0 * math.pi)), rel=1e-6)

    def test_x_independence(self):
        v0 = var_classical_quadrature(1.0, 0.0, 1.0, 1.0)
        v3 = var_classical_quadrature(1.0, 3.0, 1.0, 1.0)
        assert v3 == pytest.approx(v0, abs=1e-8)

    def test_sqrt_t_scaling(self):
        v1 = var_classical_quadrature(1.0, 0.0, 1.0, 1.0)
        v4 = var_classical_quadrature(4.0, 0.0, 1.0, 1.0)
        assert v4 == pytest.approx(2.0 * v1, rel=1e-6)

    def test_equals_closed_variance_integral(self):
        # QUADPACK on the stated (tau, y) integrand, y split at x, against the
        # value in closed form; the inner integral leaves (t - tau)^(-1/2) at tau = t
        def direct(t, x, lam, sigma):
            def inner(tau):
                s = t - tau

                def density(y):
                    return math.exp(-(x - y) ** 2 / (2.0 * lam * s)) / (4.0 * math.pi * lam * s)

                return sum(integrate.quad(density, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                           for a, b in ((-math.inf, x), (x, math.inf)))

            return sigma * sigma * integrate.quad(inner, 0.0, t, epsabs=0.0, epsrel=1e-12,
                                                  limit=200)[0]

        for t in (0.25, 1.0, 4.0):
            for lam in (0.5, 2.0):
                for sigma, x in ((1.0, 0.0), (3.0, 2.5)):
                    got = var_classical_quadrature(t, x, lam, sigma)
                    assert got == pytest.approx(direct(t, x, lam, sigma), rel=1e-10), (t, lam, sigma)

    def test_array_x_identical(self):
        xs = np.linspace(-10.0, 10.0, 41)
        v = var_classical_quadrature(1.0, xs, 1.0, 1.0)
        assert v.shape == xs.shape
        assert np.all(v == var_classical_quadrature(1.0, 0.0, 1.0, 1.0))

    def test_closed_form_examples(self):
        assert var_classical_closed(1.0, 0.0, 1.0, 1.0) == pytest.approx(
            1.0 / (4.0 * math.sqrt(math.pi)), rel=1e-12
        )
        vals = [var_classical_closed(1.0, x, 1.0, 1.0) for x in (0.0, 1.0, 3.0, 10.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert var_classical_closed(1.0, 60.0, 1.0, 1.0) < 1e-20

    def test_routes_disagree_by_design(self):
        # the printed integral's value and the printed closed form do not
        # coincide; both are exposed, consumers see the cross-check
        vq = var_classical_quadrature(1.0, 0.0, 1.0, 1.0)
        vc = var_classical_closed(1.0, 0.0, 1.0, 1.0)
        assert vq > 0 and vc > 0
        assert abs(vq / vc - 1.0) > 0.5


def fluct_kernel(s, d, alpha, lam):
    """The paper's first fluctuation kernel at sigma = 1, time lag s > 0 and
    separation d (scalar or array):

    (4 pi lam s^alpha)^(-1/2) E_{alpha,alpha}(-d^2 / (4 lam s^alpha)).
    """
    w = 4.0 * lam * s**alpha
    d = np.asarray(d, dtype=float)
    return ml_eval(MLOrder(alpha, alpha), -(d * d) / w) / math.sqrt(math.pi * w)


class TestFluctKernel:
    def test_at_coincidence(self):
        ref = 1.0 / (math.sqrt(4.0 * math.pi) * gamma_fn(0.5))
        assert fluct_kernel(1.0, 0.0, 0.5, 1.0) == pytest.approx(ref, rel=1e-10)

    def test_alpha_one_heat_kernel_reduction(self):
        s = 1.5
        for dx in (0.0, 0.7, 2.0):
            ref = math.exp(-dx * dx / (4.0 * s)) / math.sqrt(4.0 * math.pi * s)
            assert fluct_kernel(s, dx, 1.0, 1.0) == pytest.approx(ref, rel=1e-10)


class TestFracVariance:
    def test_anchor_value(self):
        v = var_frac_quadrature(1.0, 1.0, 0.6, 1.0, 1.0)
        assert v == pytest.approx(0.046873949677921, rel=1e-4)

    def test_x_zero(self):
        assert var_frac_quadrature(1.0, 0.0, 0.6, 1.0, 1.0) == 0.0

    def test_monotone_in_t(self):
        vals = [
            var_frac_quadrature(t, 1.0, 0.6, 1.0, 1.0)
            for t in (0.5, 1.0, 2.0)
        ]
        assert vals[0] < vals[1] < vals[2]

    def test_sigma_scaling_exact(self):
        v1 = var_frac_quadrature(1.0, 1.0, 0.6, 1.0, 1.0)
        v2 = var_frac_quadrature(1.0, 1.0, 0.6, 1.0, 2.0)
        assert v2 == 4.0 * v1

    def test_array_matches_pointwise(self):
        xs = np.array([0.0, 0.3, 1.0, 2.5])
        pts = [var_frac_quadrature(1.0, float(x), 0.6, 1.0, 1.0) for x in xs]
        arr = var_frac_quadrature(1.0, xs, 0.6, 1.0, 1.0)
        np.testing.assert_allclose(arr, pts, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("alpha,x", [(0.6, 1e-20), (0.9, 1e-300)])
    def test_small_x_limit(self, alpha, x):
        # var / x -> sigma^2 t^(1-alpha) / (4 pi lam Gamma(alpha)^2 (1-alpha))
        t, lam, sigma = 2.0, 0.5, 1.5
        ref = sigma**2 * t ** (1.0 - alpha) / (
            4.0 * math.pi * lam * gamma_fn(alpha) ** 2 * (1.0 - alpha))
        got = var_frac_quadrature(t, x, alpha, lam, sigma) / x
        assert got == pytest.approx(ref, rel=1e-12, abs=0)

    def test_large_x_limit(self):
        # var -> sigma^2 t^(1-alpha/2) I / (pi sqrt(lam) (2-alpha)) with
        # I = int_0^inf E_{alpha,alpha}(-u^2)^2 du from an adaptive rule
        alpha, t, lam, sigma = 0.8, 2.0, 0.5, 1.5
        e = lambda u: ml_eval(MLOrder(alpha, alpha), -u * u) ** 2
        cuts = [0.0, 1.0, 2.0, 4.0, 8.0]
        i_alpha = sum(integrate.quad(e, a, b, epsabs=0, epsrel=1e-13)[0]
                      for a, b in zip(cuts, cuts[1:]))
        i_alpha += integrate.quad(e, cuts[-1], np.inf, epsabs=0, epsrel=1e-13)[0]
        assert i_alpha == pytest.approx(0.414525, abs=1e-6)
        ref = sigma**2 * t ** (1.0 - alpha / 2.0) * i_alpha / (
            math.pi * math.sqrt(lam) * (2.0 - alpha))
        got = var_frac_quadrature(t, 1e4, alpha, lam, sigma)
        assert got == pytest.approx(ref, rel=1e-12, abs=0)

    @pytest.mark.parametrize("alpha,x", [(0.6, 1.0), (0.9, 2.0)])
    def test_nested_quadrature_reference(self, alpha, x):
        # the stated double integral with s = t - tau = w^(2/(2-alpha)), which
        # makes the integrand bounded at w = 0, and y -> (x-y)/sqrt(4 lam s^alpha)
        t, lam, sigma = 1.3, 0.7, 1.0
        e = lambda u: ml_eval(MLOrder(alpha, alpha), -u * u) ** 2

        def outer(w):
            s = w ** (2.0 / (2.0 - alpha))
            c = 2.0 * math.sqrt(lam * s**alpha)
            inner = integrate.quad(e, 0.0, x / c, epsabs=0, epsrel=1e-13, limit=200)[0]
            return 2.0 / (2.0 - alpha) * s ** (-alpha / 2.0) * c * inner

        top = t ** (1.0 - alpha / 2.0)
        ref = sigma**2 / (4.0 * math.pi * lam) * integrate.quad(
            outer, 0.0, top, epsabs=0, epsrel=1e-13, limit=200)[0]
        got = var_frac_quadrature(t, x, alpha, lam, sigma)
        assert got == pytest.approx(ref, rel=1e-12, abs=0)

    @pytest.mark.parametrize("alpha", [0.1, 0.6, 0.9])
    def test_finite_at_tiny_x(self, alpha):
        v = var_frac_quadrature(1.0, np.array([1e-300, 1e-20]), alpha, 1.0, 1.0)
        assert np.all(np.isfinite(v)) and np.all(v > 0)

    def test_domain(self):
        with pytest.raises(DomainError):
            var_frac_quadrature(1.0, 1.0, 1.2, 1.0, 1.0)
        with pytest.raises(DomainError):
            var_frac_quadrature(1.0, -1.0, 0.6, 1.0, 1.0)


class TestSeriesRoute:
    def test_beta_examples(self):
        assert beta_coeff(0, 0.6) == pytest.approx(1.0 / gamma_fn(0.6), rel=1e-12)
        ref1 = 1.0 / (gamma_fn(2.0) * gamma_fn(0.6)) + 1.0 / (
            gamma_fn(1.0) * gamma_fn(1.2)
        )
        assert beta_coeff(1, 0.6) == pytest.approx(ref1, rel=1e-12)
        assert all(beta_coeff(m, 0.6) > 0 for m in range(20))

    def test_resonance_sets(self):
        assert resonance_set(0.5, 30) == [1]
        assert resonance_set(0.25, 30) == [3]
        assert resonance_set(0.6, 30) == []

    def test_resonance_error(self):
        with pytest.raises(ResonanceError) as ei:
            var_series(1.0, 1.0, 0.5, 1.0, 1.0)
        assert ei.value.m == 1

    def test_value_and_x_zero(self):
        v = var_series(1.0, 1.0, 0.6, 1.0, 1.0)
        assert v == pytest.approx(0.1891523459595271, rel=1e-10)
        assert var_series(1.0, 0.0, 0.6, 1.0, 1.0) == 0.0

    def test_series_and_quadrature_both_finite(self):
        # agreement between the two fractional variance routes is an open
        # question; only finiteness/positivity is asserted, the ratio is data
        vs = var_series(1.0, 1.0, 0.6, 1.0, 1.0)
        vq = var_frac_quadrature(1.0, 1.0, 0.6, 1.0, 1.0)
        assert vs > 0 and vq > 0 and math.isfinite(vs / vq)


@pytest.mark.parametrize(
    "route",
    [
        lambda t, x: heat_kernel(t, x, 1.0),
        lambda t, x: mean_mainardi(t, x, 0.6, 1.0),
        lambda t, x: var_series(t, x, 0.6, 1.0, 1.0),
        lambda t, x: var_classical_closed(t, x, 1.0, 1.0),
        lambda t, x: var_classical_quadrature(t, x, 1.0, 1.0),
    ],
    ids=["heat_kernel", "mainardi", "var_series", "var_closed", "var_quadrature"],
)
def test_routes_accept_arrays(route):
    xs = np.linspace(-3.0, 3.0, 7)
    pts = [route(1.0, float(x)) for x in xs]
    np.testing.assert_allclose(route(1.0, xs), pts, rtol=1e-14, atol=0)


@pytest.mark.parametrize(
    "route",
    [lambda x: fluct_kernel(1.3, x - 0.3, 0.6, 0.8)],
    ids=["fluct_kernel_frac"],
)
def test_closed_kernels_array_matches_scalar_bitwise(route):
    xs = np.linspace(-6.0, 6.0, 121)
    assert np.array_equal(route(xs), [route(float(x)) for x in xs])


def _profile_csv(profile):
    """The CSV the CLI prints for the one profile."""
    return "".join(profile_csv_parts([profile]))


class TestProfiles:
    def test_fn_called_once_per_time(self):
        shapes = []

        def fn(t, xs):
            shapes.append(np.shape(xs))
            return heat_kernel(t, xs, 1.0)

        prof = make_profile([0.5, 1.0], [-1.0, 0.0, 1.0], fn, "heat_kernel")
        assert shapes == [(3,), (3,)]
        assert prof.values[1, 2] == heat_kernel(1.0, 1.0, 1.0)

    def test_method_tag_validated(self):
        with pytest.raises(DomainError):
            make_profile([1.0], [0.0], lambda t, x: 1.0, "nonsense")

    def test_shape_and_finiteness_validated(self):
        with pytest.raises(DomainError):
            Profile((1.0,), (0.0, 1.0), np.zeros((1, 3)), "fourier")
        with pytest.raises(DomainError):
            Profile((1.0,), (0.0,), np.array([[math.nan]]), "fourier")

    def test_csv_round_trip(self):
        prof = make_profile(
            [0.5, 1.0],
            [-1.0, 0.0, 1.0],
            lambda t, x: heat_kernel(t, x, 1.0),
            "heat_kernel",
        )
        text = _profile_csv(prof)
        lines = text.strip().splitlines()
        assert lines[0] == "t,x,value,method"
        assert len(lines) == 1 + 2 * 3
        for line, (i, j) in zip(lines[1:], [(i, j) for i in range(2) for j in range(3)]):
            t_s, x_s, v_s, m_s = line.split(",")
            assert float(t_s) == prof.times[i]
            assert float(x_s) == prof.positions[j]
            # 17 significant digits round-trip exactly through decimal
            assert float(v_s) == prof.values[i, j]
            assert m_s == "heat_kernel"

    def test_crosscheck_rows(self):
        csv = crosscheck_to_csv([(1.0, 0.0, "a", 2.0, "b", 4.0)])
        lines = csv.strip().splitlines()
        assert lines[1].endswith(",0.5")


# finite doubles; hypothesis draws -0.0, subnormals and values near the
# largest double by default, and the examples below pin them
_doubles = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                    max_size=12)
_EDGES = [-0.0, 5e-324, -2.5e-310, 1.7e308, -1.7e308, 0.1, 1.0 / 3.0]


def _check_cell(cell, v):
    assert cell == format(float(v), ".17g")
    assert float(cell) == v
    assert math.copysign(1.0, float(cell)) == math.copysign(1.0, v)


def _kernel_cells(values):
    """analytic_fields._g17's text of each value, _CHUNK values per call."""
    values = np.asarray(values, dtype=float)
    step = analytic_fields._CHUNK
    return [bytes(row).replace(b"\0", b"").decode()
            for i in range(0, values.size, step)
            for row in analytic_fields._g17(values[i : i + step])]


def _formatted(values):
    return [format(v, ".17g") for v in np.asarray(values, dtype=float).tolist()]


def _both_paths(write):
    """write()'s text as tables of these sizes print it, and as a table of
    at least _VECTOR_MIN cells, whose values _g17 formats, would."""
    texts = [write()]
    with mock.patch.object(analytic_fields, "_VECTOR_MIN", 0):
        texts.append(write())
    return texts


class TestWriter:
    """Every number any CSV writer emits is format(v, ".17g") and reads back as v."""

    @given(_doubles, _doubles)
    @example(_EDGES, [0.0, -0.0])
    def test_profile_cells(self, positions, times):
        values = np.array([np.roll(positions, i + 1) for i in range(len(times))])
        for text in _both_paths(lambda: _profile_csv(
                Profile(tuple(times), tuple(positions), values, "fourier"))):
            rows = [r.split(",") for r in text.splitlines()[1:]]
            assert len(rows) == values.size
            for (t_s, x_s, v_s, tag), (i, j) in zip(rows, np.ndindex(values.shape)):
                _check_cell(t_s, times[i])
                _check_cell(x_s, positions[j])
                _check_cell(v_s, values[i, j])
                assert tag == "fourier"

    @given(_doubles)
    @example(_EDGES)
    def test_column_cells(self, xs):
        for text in _both_paths(lambda: columns_to_csv("a,b", xs, xs[::-1])):
            rows = [r.split(",") for r in text.splitlines()[1:]]
            assert len(rows) == len(xs)
            for (a, b), x, y in zip(rows, xs, xs[::-1]):
                _check_cell(a, x)
                _check_cell(b, y)

    @given(_doubles)
    @example(_EDGES)
    def test_crosscheck_cells(self, xs):
        rows = [(abs(x), x, "a", x, "b", y) for x, y in zip(xs, xs[::-1])]
        lines = crosscheck_to_csv(rows).splitlines()[1:]
        assert len(lines) == len(rows)
        for line, (t, x, _, va, _, vb) in zip(lines, rows):
            cells = line.split(",")
            for cell, v in zip([cells[i] for i in (0, 1, 3, 5)], (t, x, va, vb)):
                _check_cell(cell, v)
            ratio = 1.0 if va == vb else (va / vb if vb != 0 else math.inf)
            assert cells[6] == format(ratio, ".17g")

    @pytest.mark.parametrize("va,vb", [(2.0, 0.0), (-2.0, 0.0), (1.7e308, 1e-10)],
                             ids=["zero_b", "negative_over_zero", "overflow"])
    def test_crosscheck_infinite_ratio(self, va, vb):
        line = crosscheck_to_csv([(1.0, 0.5, "a", va, "b", vb)]).splitlines()[1]
        assert line.split(",")[6] == "inf"

    def test_empty_column(self):
        assert columns_to_csv("zero", []) == "zero\n"

    def test_kernel_random_bit_patterns(self):
        # every sign, exponent and mantissa, nan and inf included
        bits = np.random.default_rng(25).integers(0, 2**64, 200_000, dtype=np.uint64)
        values = bits.view(np.float64)
        assert np.count_nonzero(values < 0) > 90_000
        assert _kernel_cells(values) == _formatted(values)

    def test_kernel_powers_of_ten(self):
        # log10 is off by one next to a power of ten; D = 10^17 rounds up a decade
        tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
        values = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])
        values = np.concatenate([values, -values])
        assert _kernel_cells(values) == _formatted(values)

    def test_kernel_integers_near_17_digits(self):
        steps = np.arange(-2000.0, 2001.0)
        values = np.concatenate([1e16 + steps, 1e17 + 16.0 * steps, 2.0**53 + steps])
        assert _kernel_cells(values) == _formatted(values)

    def test_kernel_special_values(self):
        values = [1125899906842624.25, 1125899906842624.75, 0.0, -0.0, 5e-324,
                  1.7976931348623157e308, math.inf, -math.inf, math.nan, 1e16, 0.1, 1e-5,
                  1e-4, 123.0, 100.5]
        cells = _kernel_cells(values)
        assert cells == _formatted(values)
        # exact ties of the 17th digit round to even, down and up
        assert cells[:9] == ["1125899906842624.2", "1125899906842624.8", "0", "-0",
                             "4.9406564584124654e-324", "1.7976931348623157e+308", "inf",
                             "-inf", "nan"]

    @given(arrays(np.float64, st.integers(0, 3 * analytic_fields._CHUNK)))
    def test_kernel_any_array(self, values):
        assert _kernel_cells(values) == _formatted(values)

    def test_kernel_tables_paths_agree(self):
        # tables above _VECTOR_MIN cells, over several _CHUNKs, print the template's bytes
        rng = np.random.default_rng(3)
        positions = tuple(np.linspace(-20.0, 20.0, 1025)[:-1].tolist())
        profiles = [Profile((0.125, 0.5, 1.0), positions, rng.standard_normal((3, 1024)) * scale,
                            "mc_ensemble_mean") for scale in (1e-3, 10.0)]
        columns = [rng.standard_normal(3000), rng.uniform(-1e5, 1e5, 3000)]

        def write():
            return "".join(profile_csv_parts(profiles)), columns_to_csv("a,b", *columns)

        fast = write()
        with mock.patch.object(analytic_fields, "_VECTOR_MIN", math.inf):
            assert write() == fast

    def test_signed_zero_axes_print_their_own_sign(self):
        # -0.0 == 0.0 and both hash alike, yet print -0 and 0: the cached
        # "t,x," cells of one sign must not stand in for the other's
        values = np.arange(512.0).reshape(2, 256)

        def profile(zero):
            positions = np.linspace(-1.0, 1.0, 257)[:-1]
            positions[128] = zero
            return Profile((zero, 1.0), tuple(positions.tolist()), values, "fourier")

        for zero in (-0.0, 0.0, -0.0):
            with mock.patch.object(analytic_fields, "_VECTOR_MIN", math.inf):
                template = _profile_csv(profile(zero))
            assert _profile_csv(profile(zero)) == template
            assert ("-0," in template) == (math.copysign(1.0, zero) < 0)

    def test_cached_t_x_cells_are_read_only(self):
        times, positions = (0.5, 1.0), tuple(np.linspace(-3.0, 3.0, 300).tolist())
        _profile_csv(Profile(times, positions, np.zeros((2, 300)), "fourier"))
        head = analytic_fields._t_x(np.array(times).tobytes(), np.array(positions).tobytes())
        assert head.shape[0] == 600
        assert not head.flags.writeable
        with pytest.raises(ValueError):
            head[0, 0] = 0
        assert analytic_fields._t_x.cache_info().maxsize == 2

    def test_two_default_grid_blocks_trace_below_template_text(self):
        # the mean and variance blocks of a default-grid ensemble, 2 x 8192
        # rows: one _CHUNK of text and temporaries at a time, where joining
        # the two blocks' template text traced 1.9 MB
        rng = np.random.default_rng(5)
        positions = tuple(np.linspace(-20.0, 20.0, 1025)[:-1].tolist())
        times = tuple(np.arange(1, 9) / 8.0)
        profiles = [Profile(times, positions, rng.uniform(0.0, 2.0, (8, 1024)), method)
                    for method in ("mc_ensemble_mean", "mc_ensemble_var")]
        assert sum(map(len, profile_csv_parts(profiles))) > 800_000
        tracemalloc.start()
        try:
            size = sum(map(len, profile_csv_parts(profiles)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size > 800_000
        assert peak < 1.9e6
