"""Tests for the analytic mean and variance field routes."""

import io
import math

import numpy as np
import pytest

from fracfield.analytic_fields import (
    Profile,
    QuadSpec,
    VarianceSeriesSpec,
    beta_coeff,
    crosscheck_to_csv,
    fluct_kernel_frac,
    heat_kernel,
    make_profile,
    mean_fourier,
    mean_half_closed,
    mean_mainardi,
    profile_to_csv,
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
from fracfield.special_fn import gamma_fn
from fracfield.symbol import DiffusionParams, KernelSpec
from ml_oracle import mainardi_oracle

GAUSS = KernelSpec("gaussian", 1.0)
FAST_QUAD = QuadSpec(rel_tol=1e-6)


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

    @pytest.mark.parametrize("alpha", [0.6, 1.2, 1.5, 1.8])
    def test_peak_closed_form(self, alpha):
        # mu = 0: Z0(t, 0) = 1 / (2 Gamma(1 - alpha/2) sqrt(lam t^alpha)); the
        # frequency tail beyond the cutoff is algebraic on both sides of alpha = 1
        p = local_params(alpha)
        for t in (0.5, 1.0):
            ref = 1.0 / (2.0 * gamma_fn(1.0 - alpha / 2.0) * math.sqrt(t**alpha))
            assert mean_fourier(p, GAUSS, t, 0.0) == pytest.approx(ref, rel=1e-9)

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

    @pytest.mark.parametrize("kind", ["gaussian", "uniform"])
    def test_mu_tail_against_long_quadrature(self, kind):
        # mu > 0: Gauss-Legendre over [0, 2e4] plus a QUADPACK tail of the exact
        # integrand; the default cutoff's analytic tail must carry the mu part
        from scipy import integrate

        from fracfield.special_fn import MLOrder, ml_eval
        from fracfield.symbol import symbol_a

        p = DiffusionParams(alpha=0.8, lam=1.0, mu=0.5, sigma=1.0, dim=1)
        kernel = KernelSpec(kind, 1.0)
        cutoff = 2e4
        u, w = np.polynomial.legendre.leggauss(32)
        edges = np.concatenate([np.arange(0.0, 64.0), np.arange(64.0, cutoff + 1.0, 8.0)])
        lo, hi = edges[:-1, None], edges[1:, None]
        k = (0.5 * (hi - lo) * u + 0.5 * (hi + lo)).ravel()
        wk = (0.5 * (hi - lo) * w).ravel()
        for t in (0.25, 0.5):
            def mean_hat(kk):
                return ml_eval(MLOrder(p.alpha, 1.0), -symbol_a(p, kernel, kk) * t**p.alpha)

            head = wk * mean_hat(k)
            for x in (0.0, 1.0):
                if x == 0.0:
                    tail = integrate.quad(mean_hat, cutoff, np.inf, epsabs=1e-16)[0]
                else:
                    tail = integrate.quad(mean_hat, cutoff, np.inf, weight="cos",
                                          wvar=x, epsabs=1e-16)[0]
                ref = (np.sum(head * np.cos(k * x)) + tail) / math.pi
                assert abs(mean_fourier(p, kernel, t, x) - ref) <= 1e-12, (t, x)

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

    def test_half_closed_peak(self):
        assert mean_half_closed(1.0, 0.0, 1.0) == pytest.approx(
            1.0 / math.sqrt(4.0 * math.pi), rel=1e-12
        )

    def test_half_closed_even(self):
        assert mean_half_closed(2.0, 1.3, 1.0) == pytest.approx(
            mean_half_closed(2.0, -1.3, 1.0), rel=1e-12
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

    def test_closed_form_examples(self):
        assert var_classical_closed(1.0, 0.0, 1.0, 1.0) == pytest.approx(
            1.0 / (4.0 * math.sqrt(math.pi)), rel=1e-12
        )
        vals = [var_classical_closed(1.0, x, 1.0, 1.0) for x in (0.0, 1.0, 3.0, 10.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert var_classical_closed(1.0, 60.0, 1.0, 1.0) < 1e-20

    def test_routes_disagree_by_design(self):
        # quadrature of the printed integral and the printed closed form do
        # not coincide; both are exposed, consumers see the cross-check
        vq = var_classical_quadrature(1.0, 0.0, 1.0, 1.0)
        vc = var_classical_closed(1.0, 0.0, 1.0, 1.0)
        assert vq > 0 and vc > 0
        assert abs(vq / vc - 1.0) > 0.5


class TestFluctKernel:
    def test_at_coincidence(self):
        ref = 1.0 / (math.sqrt(4.0 * math.pi) * gamma_fn(0.5))
        assert fluct_kernel_frac(1.0, 0.0, 0.0, 0.0, 0.5, 1.0, 1.0) == pytest.approx(
            ref, rel=1e-10
        )

    def test_even_in_separation(self):
        a = fluct_kernel_frac(2.0, 0.5, 1.0, 0.0, 0.6, 1.0, 1.0)
        b = fluct_kernel_frac(2.0, 0.5, -1.0, 0.0, 0.6, 1.0, 1.0)
        assert a == pytest.approx(b, rel=1e-12)

    def test_alpha_one_heat_kernel_reduction(self):
        s = 1.5
        for dx in (0.0, 0.7, 2.0):
            got = fluct_kernel_frac(s, 0.0, dx, 0.0, 1.0, 1.0, 1.0)
            ref = math.exp(-dx * dx / (4.0 * s)) / math.sqrt(4.0 * math.pi * s)
            assert got == pytest.approx(ref, rel=1e-10)

    def test_ordering(self):
        with pytest.raises(DomainError):
            fluct_kernel_frac(1.0, 1.0, 0.0, 0.0, 0.5, 1.0, 1.0)


class TestFracVariance:
    def test_anchor_value(self):
        v = var_frac_quadrature(1.0, 1.0, 0.6, 1.0, 1.0, FAST_QUAD)
        assert v == pytest.approx(0.046873949677921, rel=1e-4)

    def test_x_zero(self):
        assert var_frac_quadrature(1.0, 0.0, 0.6, 1.0, 1.0) == 0.0

    def test_monotone_in_t(self):
        vals = [
            var_frac_quadrature(t, 1.0, 0.6, 1.0, 1.0, FAST_QUAD)
            for t in (0.5, 1.0, 2.0)
        ]
        assert vals[0] < vals[1] < vals[2]

    def test_sigma_scaling_exact(self):
        v1 = var_frac_quadrature(1.0, 1.0, 0.6, 1.0, 1.0, FAST_QUAD)
        v2 = var_frac_quadrature(1.0, 1.0, 0.6, 1.0, 2.0, FAST_QUAD)
        assert v2 == 4.0 * v1

    def test_array_matches_pointwise(self):
        xs = np.array([0.0, 0.3, 1.0, 2.5])
        pts = [var_frac_quadrature(1.0, float(x), 0.6, 1.0, 1.0, FAST_QUAD) for x in xs]
        arr = var_frac_quadrature(1.0, xs, 0.6, 1.0, 1.0, FAST_QUAD)
        np.testing.assert_allclose(arr, pts, rtol=FAST_QUAD.rel_tol, atol=0)

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
        vq = var_frac_quadrature(1.0, 1.0, 0.6, 1.0, 1.0, FAST_QUAD)
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
        text = profile_to_csv(prof)
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
