"""Tests for the Fourier-side description of the spatial generator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracfield.errors import DomainError
from fracfield.symbol import (
    DiffusionParams,
    KernelSpec,
    j_hat,
    kernel_from_json,
    kernel_to_json,
    symbol_a,
)
from fracfield.special_fn import MLOrder, gamma_fn, ml_eval

# QUADPACK's accuracy warnings fail the test: a reference that warns is no
# reference
pytestmark = pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")


GAUSS = KernelSpec("gaussian", 1.0)
UNIF = KernelSpec("uniform", math.pi)


class TestKernelSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            KernelSpec("triangular", 1.0)
        with pytest.raises(DomainError):
            KernelSpec("gaussian", 0.0)
        with pytest.raises(DomainError):
            DiffusionParams(alpha=2.0)
        with pytest.raises(DomainError):
            DiffusionParams(alpha=0.5, lam=-1.0)
        with pytest.raises(DomainError):
            DiffusionParams(alpha=0.5, dim=0)


    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["alpha", "lam", "mu", "sigma"])
    def test_params_refuse_non_finite(self, field, value):
        # nan passed every comparison, and an infinite lambda or mu reached
        # an OverflowError deep in the mean's quadrature
        with pytest.raises(DomainError):
            DiffusionParams(**{"alpha": 0.8, field: value})

    @pytest.mark.parametrize("dim", [math.inf, math.nan, 1.5, 0, -2])
    def test_dim_positive_integer(self, dim):
        # int(inf) raised OverflowError and int(nan) ValueError before
        with pytest.raises(DomainError, match="dim"):
            DiffusionParams(alpha=0.8, dim=dim)

    @pytest.mark.parametrize("scale", [math.inf, math.nan, -math.inf])
    def test_kernel_scale_finite(self, scale):
        with pytest.raises(DomainError, match="scale"):
            KernelSpec("gaussian", scale)


class TestJHat:
    def test_density_normalization(self):
        assert j_hat(GAUSS, 0.0) == 1.0
        assert j_hat(UNIF, 0.0) == 1.0

    def test_gaussian_closed_form(self):
        assert j_hat(GAUSS, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_gaussian_vs_quadrature(self):
        # independent check of the closed form against direct quadrature of
        # the transform integral for the standard normal density
        from scipy.integrate import quad

        for xi in (0.5, 1.7, 3.0):
            ref, _ = quad(
                lambda x: math.cos(x * xi)
                * math.exp(-0.5 * x * x)
                / math.sqrt(2 * math.pi),
                -12,
                12,
                limit=200,
            )
            assert j_hat(GAUSS, xi) == pytest.approx(ref, rel=1e-10)

    def test_uniform_sinc_zero(self):
        assert abs(j_hat(UNIF, 1.0)) <= 1e-15

    def test_range(self):
        xi = np.linspace(-50, 50, 501)
        for k in (GAUSS, UNIF):
            v = j_hat(k, xi)
            assert np.all(v <= 1.0 + 1e-15) and np.all(v >= -1.0 - 1e-15)


class TestSymbolA:
    def test_pure_laplacian(self):
        p = DiffusionParams(alpha=0.5, lam=1.0, mu=0.0)
        assert symbol_a(p, GAUSS, 2.0) == pytest.approx(4.0, rel=1e-14)

    def test_zero_frequency(self):
        p = DiffusionParams(alpha=0.5, lam=0.0, mu=3.0)
        assert symbol_a(p, GAUSS, 0.0) == 0.0

    def test_nonlocal_saturation_value(self):
        p = DiffusionParams(alpha=0.5, lam=0.0, mu=3.0)
        assert symbol_a(p, GAUSS, 10.0) == pytest.approx(
            3.0 * (1.0 - math.exp(-50.0)), rel=1e-14
        )

    def test_high_frequency_regime(self):
        # lambda > 0: the local part dominates at |xi| = 1e3
        for kernel in (GAUSS, UNIF):
            p = DiffusionParams(alpha=0.5, lam=2.0, mu=10.0)
            ratio = symbol_a(p, kernel, 1e3) / (p.lam * 1e6)
            assert 0.99 <= ratio <= 1.01

    def test_saturation_regime(self):
        p = DiffusionParams(alpha=0.5, lam=0.0, mu=7.0)
        v = symbol_a(p, GAUSS, 1e3)
        assert 0.99 * p.mu <= v <= p.mu

    def test_uniform_dim_error(self):
        p = DiffusionParams(alpha=0.5, lam=1.0, mu=1.0, dim=2)
        with pytest.raises(DomainError):
            symbol_a(p, UNIF, 1.0)

    @settings(max_examples=50, deadline=None)
    @given(
        lam=st.floats(0.0, 10.0),
        mu=st.floats(0.0, 10.0),
        xi=st.floats(-1e4, 1e4),
        scale=st.floats(0.01, 10.0),
        kind=st.sampled_from(["gaussian", "uniform"]),
    )
    def test_nonnegativity_property(self, lam, mu, xi, scale, kind):
        p = DiffusionParams(alpha=0.5, lam=lam, mu=mu)
        assert symbol_a(p, KernelSpec(kind, scale), xi) >= 0.0


def lambda_kernel(p, kernel, t, xi):
    """The solution formula's time kernel t^(alpha-1) E_{alpha,alpha}(-t^alpha a(xi))."""
    a = symbol_a(p, kernel, xi)
    return t ** (p.alpha - 1.0) * ml_eval(MLOrder(p.alpha, p.alpha), -(t**p.alpha) * a)


def mean_hat(p, kernel, t, xi):
    """The Dirac mean's transform E_alpha(-a(xi) t^alpha)."""
    return ml_eval(MLOrder(p.alpha, 1.0), -(t**p.alpha) * symbol_a(p, kernel, xi))


class TestLambdaKernel:
    def test_zero_symbol(self):
        p = DiffusionParams(alpha=0.5, lam=1.0, mu=0.0)
        v = lambda_kernel(p, GAUSS, 1.0, 0.0)
        assert v == pytest.approx(1.0 / gamma_fn(0.5), rel=1e-12)

    def test_alpha_one_collapse(self):
        # Lambda(t, xi) = e^{-a(xi) t} at alpha = 1, to 1e-12 relative
        p = DiffusionParams(alpha=1.0, lam=0.7, mu=2.0)
        xi = np.linspace(0.0, 10.0, 81)
        for t in (0.25, 1.0, 3.0):
            a = symbol_a(p, GAUSS, xi)
            got = lambda_kernel(p, GAUSS, t, xi)
            ref = np.exp(-a * t)
            assert np.max(np.abs(got - ref) / ref) <= 1e-12

    def test_large_symbol_asymptotic(self):
        # t^{alpha-1} E_{alpha,alpha}(-a) ~ kappa_alpha / a^2 for a >> 1;
        # at alpha = 1/2 the constant is Gamma(1.5) / pi
        p = DiffusionParams(alpha=0.5, lam=1.0, mu=0.0)
        v = lambda_kernel(p, GAUSS, 1.0, 100.0)  # a = 1e4
        ref = gamma_fn(1.5) / math.pi * 1e-8
        assert v == pytest.approx(ref, rel=1e-3)


class TestMeanHat:
    def test_alpha_one_heat_symbol(self):
        p = DiffusionParams(alpha=1.0, lam=1.0, mu=0.0)
        assert mean_hat(p, GAUSS, 2.0, 1.0) == pytest.approx(
            math.exp(-2.0), rel=1e-12
        )

    def test_subdiffusive_tail(self):
        # E_alpha(-a) ~ 1/(Gamma(1-alpha) a) for a >> 1
        p = DiffusionParams(alpha=0.5, lam=1.0, mu=0.0)
        v = mean_hat(p, GAUSS, 1.0, 100.0)  # a = 1e4
        assert v == pytest.approx(1.0 / (gamma_fn(0.5) * 1e4), rel=1e-3)


class TestKernelJson:
    def test_round_trip(self):
        for k in (KernelSpec("gaussian", 2.5), KernelSpec("uniform", 0.75)):
            assert kernel_from_json(kernel_to_json(k)) == k

    def test_schema_keys(self):
        assert kernel_to_json(KernelSpec("gaussian", 2.0)) == {
            "type": "gaussian",
            "scale": 2.0,
        }
        assert kernel_to_json(KernelSpec("uniform", 0.5)) == {
            "type": "uniform",
            "half_width": 0.5,
        }

    def test_unknown_keys_rejected(self):
        with pytest.raises(DomainError):
            kernel_from_json({"type": "gaussian", "scale": 1.0, "cutoff": 3})
        with pytest.raises(DomainError):
            kernel_from_json({"type": "uniform", "scale": 1.0})
        with pytest.raises(DomainError):
            kernel_from_json({"type": "cauchy"})
        with pytest.raises(DomainError):
            kernel_from_json({"type": ["gaussian"]})
        with pytest.raises(DomainError):
            kernel_from_json(["gaussian"])
