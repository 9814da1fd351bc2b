"""Special-function unit tests against independent high-precision oracles."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracfield.errors import DomainError, NoConvergenceError
from fracfield.special_fn import (
    DEFAULT_POLICY,
    EvalPolicy,
    MLOrder,
    erfc,
    gamma_fn,
    kappa_alpha,
    mainardi_half_closed,
    mainardi_series,
    ml_asymptotic_neg,
    ml_bounds,
    ml_bounds_two,
    ml_dominant_identity_residual,
    ml_eval,
    ml_real_zeros,
    ml_series,
)

from ml_oracle import ml_oracle

mp.mp.dps = 50


class TestGammaErfc:
    def test_gamma_trivials(self):
        assert gamma_fn(1.0) == 1.0
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        assert gamma_fn(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-12)

    def test_gamma_accuracy_range(self):
        for x in [-19.5, -7.3, 0.1, 1.7, 25.0, 170.0]:
            assert gamma_fn(x) == pytest.approx(float(mp.gamma(x)), rel=1e-12)

    def test_gamma_pole(self):
        for x in (0.0, -1.0, -7.0):
            with pytest.raises(DomainError):
                gamma_fn(x)

    def test_erfc_values(self):
        assert erfc(0.0) == 1.0
        assert erfc(1.0) == pytest.approx(float(mp.erfc(1)), rel=1e-12)
        assert erfc(-0.7) == pytest.approx(2.0 - erfc(0.7), rel=1e-12)
        for x in np.linspace(-10, 10, 41):
            assert erfc(float(x)) == pytest.approx(float(mp.erfc(float(x))), rel=1e-12)


class TestSeries:
    def test_trivials(self):
        assert ml_series(MLOrder(0.7, 1.0), 0.0) == 1.0
        assert ml_series(MLOrder(1.0, 1.0), 1.0) == pytest.approx(math.e, rel=1e-12)
        assert ml_series(MLOrder(0.5, 0.5), 0.0) == pytest.approx(
            1.0 / math.sqrt(math.pi), rel=1e-12
        )

    def test_no_convergence(self):
        tight = EvalPolicy(rel_tol=1e-12, max_terms=10)
        with pytest.raises(NoConvergenceError):
            ml_series(MLOrder(0.5, 1.0), 40.0, tight)


class TestEval:
    def test_exponential_identity(self):
        z = np.linspace(-30, 30, 61)
        vals = np.array([ml_eval(MLOrder(1.0, 1.0), float(v)) for v in z])
        assert np.max(np.abs(vals - np.exp(z)) / np.exp(z)) <= 1e-10

    def test_cosh_identity(self):
        for x in np.linspace(0, 100, 41):
            ref = math.cosh(math.sqrt(x))
            assert abs(ml_eval(MLOrder(2.0, 1.0), float(x)) - ref) <= 1e-10 * ref
        for x in np.linspace(-100, 0, 41):
            ref = math.cos(math.sqrt(-x))
            assert abs(ml_eval(MLOrder(2.0, 1.0), float(x)) - ref) <= 1e-10

    def test_cos_zero(self):
        assert abs(ml_eval(MLOrder(2.0, 1.0), -((math.pi / 2) ** 2))) <= 1e-10

    def test_erfc_identity(self):
        for x in np.linspace(0, 5, 26):
            ref = float(mp.exp(x * x) * mp.erfc(x))
            assert ml_eval(MLOrder(0.5, 1.0), -float(x)) == pytest.approx(
                ref, rel=1e-8
            )

    def test_normalization(self):
        for alpha, beta in [(0.3, 1.0), (0.9, 0.9), (1.5, 1.5), (0.7, 1.7), (1.0, 2.0)]:
            assert ml_eval(MLOrder(alpha, beta), 0.0) == pytest.approx(
                1.0 / gamma_fn(beta), rel=1e-12
            )

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("beta_kind", ["one", "alpha"])
    def test_against_oracle_subdiffusive(self, alpha, beta_kind):
        beta = 1.0 if beta_kind == "one" else alpha
        # tolerance covers the oracle's own floor on its optimally truncated
        # algebraic route (used when the series would need >600 digits)
        for x in [0.3, 2.0, 9.0, 60.0, 400.0, 1e4]:
            ref = ml_oracle(alpha, beta, -x)
            assert ml_eval(MLOrder(alpha, beta), -x) == pytest.approx(ref, rel=5e-7)

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.9])
    @pytest.mark.parametrize("beta_kind", ["one", "alpha"])
    def test_against_oracle_superdiffusive(self, alpha, beta_kind):
        beta = 1.0 if beta_kind == "one" else alpha
        for x in [3.0, 10.0, 30.0, 48.0, 49.5, 50.0, 51.0, 80.0, 200.0]:
            ref = ml_oracle(alpha, beta, -x)
            assert ml_eval(MLOrder(alpha, beta), -x) == pytest.approx(
                ref, rel=1e-9, abs=1e-12
            )

    def test_beta_alpha_plus_one_recurrence(self):
        # E_{alpha,alpha+1}(-x) = (1 - E_alpha(-x)) / x
        for alpha in (0.5, 0.8, 1.5):
            for x in (10.0, 500.0):
                lhs = ml_eval(MLOrder(alpha, alpha + 1.0), -x)
                rhs = (1.0 - ml_eval(MLOrder(alpha, 1.0), -x)) / x
                assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_far_negative_general_beta(self):
        ref = ml_oracle(0.5, 1.7, -1e6)
        assert ml_eval(MLOrder(0.5, 1.7), -1e6) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_oracle_sweep(self):
        # alpha on both sides of 1, beta off {1, alpha, alpha+1}, both signs of
        # x, wherever the oracle's series reaches (the full 11-order sweep
        # takes minutes; this subset keeps its extremes)
        worst = 0.0
        for alpha in (0.1, 0.7, 1.05, 1.5, 1.95):
            for beta in (1.0, alpha, alpha + 1.0, 0.5, 1.7):
                for x in np.logspace(-3, 4, 8):
                    for z in (-float(x), float(x)):
                        if abs(z) ** (1.0 / alpha) > 600:
                            continue  # oracle needs > 260 extra digits, or overflow
                        ref = ml_oracle(alpha, beta, z)
                        err = abs(ml_eval(MLOrder(alpha, beta), z) - ref)
                        # relative where |ref| > 1e-3, absolute below
                        worst = max(worst, err / (abs(ref) if abs(ref) > 1e-3 else 1.0))
        assert worst <= 1e-11

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
    def test_subdiffusive_large_argument(self, alpha):
        for beta in (1.0, alpha):
            for x in (1e3, 1e4, 1e5, 1e6):
                ref = ml_oracle(alpha, beta, -x)
                assert ml_eval(MLOrder(alpha, beta), -x) == pytest.approx(
                    ref, rel=1e-12, abs=0.0
                )

    def test_positive_axis_beyond_series(self):
        for alpha, beta, x in [(0.6, 1.0, 20.0), (0.8, 0.8, 60.0), (1.5, 0.5, 300.0)]:
            ref = ml_oracle(alpha, beta, x)
            assert ml_eval(MLOrder(alpha, beta), x) == pytest.approx(ref, rel=1e-12, abs=0.0)
        assert ml_eval(MLOrder(0.6, 1.0), 20.0) == pytest.approx(1.66e64, rel=1e-2)
        assert ml_eval(MLOrder(0.8, 0.8), 60.0) == pytest.approx(1.16e73, rel=1e-2)

    @pytest.mark.parametrize("alpha,beta", [(0.8, 1.0), (0.6, 0.6), (1.5, 1.0), (1.05, 0.5),
                                            (0.3, 2.4), (1.9, 1.9)])
    def test_array_matches_scalar_bitwise(self, alpha, beta):
        rng = np.random.default_rng(7)
        x = np.concatenate([-np.exp(rng.uniform(-7.0, 9.0, 300)),
                            np.exp(rng.uniform(-7.0, 2.0, 60)), [0.0, 0.5, -0.5]])
        order = MLOrder(alpha, beta)
        vals = ml_eval(order, x)
        assert np.array_equal(vals, [ml_eval(order, float(v)) for v in x])
        assert np.array_equal(vals[::-1], ml_eval(order, x[::-1].reshape(-1, 3)).ravel())

    def test_complete_monotonicity_proxy(self):
        for alpha in (0.3, 0.5, 0.8):
            x = np.linspace(0, 50, 200)
            vals = ml_eval(MLOrder(alpha, 1.0), -x)
            assert np.all(vals > 0)
            assert np.all(np.diff(vals) < 0)

    def test_regime_continuity(self):
        # hand-off between internal branches stays below 1e-3 relative
        for alpha in (0.3, 0.5, 0.7):
            for beta in (1.0, alpha):
                for x in (2.0, 12.0, 16.5, 49.0, 51.0):
                    ref = ml_oracle(alpha, beta, -x)
                    assert ml_eval(MLOrder(alpha, beta), -x) == pytest.approx(
                        ref, rel=1e-3
                    )


class TestBoundsAsymptotics:
    def test_bounds_examples(self):
        assert ml_bounds(0.5, 0.0) == (1.0, 1.0)
        lo, hi = ml_bounds(0.5, 1.0)
        assert lo == pytest.approx(1.0 / (1.0 + math.sqrt(math.pi)), rel=1e-9)
        assert hi == pytest.approx(1.0 / (1.0 + 1.0 / gamma_fn(1.5)), rel=1e-9)
        assert lo <= ml_eval(MLOrder(0.5, 1.0), -1.0) <= hi

    def test_bracketing_grid(self):
        alphas = np.linspace(0.05, 0.95, 20)
        xs = np.linspace(0.0, 100.0, 20)
        for alpha in alphas:
            vals1 = ml_eval(MLOrder(float(alpha), 1.0), -xs)
            lo, hi = ml_bounds(float(alpha), xs)
            assert np.all(lo <= vals1 + 1e-14) and np.all(vals1 <= hi + 1e-14)
            vals2 = gamma_fn(float(alpha)) * ml_eval(MLOrder(float(alpha), float(alpha)), -xs)
            lo2, hi2 = ml_bounds_two(float(alpha), xs)
            assert np.all(lo2 <= vals2 * (1 + 1e-9) + 1e-12)
            assert np.all(vals2 <= hi2 * (1 + 1e-9) + 1e-12)

    def test_bounds_domain_errors(self):
        with pytest.raises(DomainError):
            ml_bounds(1.2, 1.0)
        with pytest.raises(DomainError):
            ml_bounds(0.5, -1.0)

    def test_kappa(self):
        assert kappa_alpha(1.0) == pytest.approx(0.0, abs=1e-15)
        assert kappa_alpha(0.5) == pytest.approx(gamma_fn(1.5) / math.pi, rel=1e-12)
        assert kappa_alpha(1.5) == pytest.approx(-gamma_fn(2.5) / math.pi, rel=1e-12)
        assert kappa_alpha(0.3) > 0 and kappa_alpha(1.7) < 0

    def test_asymptotic_leading_terms(self):
        x = 1e4
        assert ml_asymptotic_neg(MLOrder(0.5, 1.0), x) == pytest.approx(
            1.0 / (gamma_fn(0.5) * x), rel=1e-12
        )
        # two-parameter tail: kappa_alpha / x^2 (consistent with the exact
        # erfc reduction at alpha = 1/2)
        assert ml_asymptotic_neg(MLOrder(0.5, 0.5), x) == pytest.approx(
            kappa_alpha(0.5) / x**2, rel=1e-12
        )

    def test_asymptotic_consistency(self):
        x = 1e4
        for alpha in (0.3, 0.5, 0.7):
            for beta in (1.0, alpha):
                ratio = ml_eval(MLOrder(alpha, beta), -x) / ml_asymptotic_neg(
                    MLOrder(alpha, beta), x
                )
                assert 0.95 <= ratio <= 1.05

    def test_asymptotic_alpha_one_rejected(self):
        with pytest.raises(DomainError):
            ml_asymptotic_neg(MLOrder(1.0, 1.0), 100.0)

    def test_superdiffusive_envelope(self):
        for alpha in (1.3, 1.5, 1.8):
            for x in (1e3, 1e4):
                env = (2.0 / alpha) * math.exp(
                    x ** (1.0 / alpha) * math.cos(math.pi / alpha)
                )
                assert abs(ml_asymptotic_neg(MLOrder(alpha, 1.0), x)) <= env * (1 + 1e-12)


class TestResidualIdentity:
    def test_alpha_one_exact(self):
        assert ml_dominant_identity_residual(1.0, 5.0) == pytest.approx(0.0, abs=1e-8)

    def test_at_zero(self):
        assert ml_dominant_identity_residual(0.5, 0.0) == pytest.approx(
            kappa_alpha(0.5), rel=1e-12
        )

    def test_decay_sweep(self):
        # residual is O(1/|z|) on the negative axis once the exponential term
        # decays (cos(pi/alpha) < 0, i.e. alpha > 2/3)
        scaled = [
            abs(ml_dominant_identity_residual(0.8, -x)) * x
            for x in (1e2, 1e3, 1e4)
        ]
        assert max(scaled) < 10.0


class TestZeros:
    def test_cosh_zeros(self):
        zl = ml_real_zeros(2.0, -30.0, 1e-10)
        expected = [-((math.pi / 2 + n * math.pi) ** 2) for n in (1, 0)]
        assert len(zl.zeros) == 2
        for z, e in zip(zl.zeros, sorted(expected)):
            assert abs(z - e) <= 1e-8

    def test_monotone_empty(self):
        assert ml_real_zeros(0.8, -100.0, 1e-10).zeros == ()
        assert ml_real_zeros(1.0, -100.0, 1e-10).zeros == ()

    def test_count_nondecreasing(self):
        counts = [len(ml_real_zeros(a, -200.0, 1e-10).zeros) for a in (1.2, 1.5, 1.9)]
        assert counts == sorted(counts)
        assert counts[0] >= 1

    def test_zeros_are_zeros(self):
        for a in (1.2, 1.5):
            for z in ml_real_zeros(a, -100.0, 1e-10).zeros:
                assert abs(ml_eval(MLOrder(a, 1.0), z)) <= 1e-9


class TestMainardi:
    def test_series_at_zero(self):
        assert mainardi_series(0.5, 0.0) == pytest.approx(
            1.0 / gamma_fn(0.5), rel=1e-12
        )
        assert mainardi_series(0.6, 0.0) == pytest.approx(
            1.0 / gamma_fn(0.4), rel=1e-12
        )

    def test_half_closed(self):
        assert mainardi_half_closed(0.0) == pytest.approx(
            1.0 / math.sqrt(math.pi), rel=1e-12
        )
        assert mainardi_half_closed(1.0) == pytest.approx(
            2.0 * math.exp(-0.25) / math.sqrt(math.pi), rel=1e-12
        )
        assert mainardi_half_closed(20.0) < 1e-40

    def test_series_vs_closed_documented_mismatch(self):
        # the two printed formulas agree at u=0 and disagree away from it;
        # both are exposed as printed and cross-reported downstream
        s = mainardi_series(0.5, 1.0)
        c = mainardi_half_closed(1.0)
        assert abs(mainardi_series(0.5, 0.0) - mainardi_half_closed(0.0)) < 1e-12
        assert abs(s - c) > 0.1

    def test_domain(self):
        with pytest.raises(DomainError):
            mainardi_series(1.5, 1.0)
        with pytest.raises(DomainError):
            mainardi_series(0.5, -1.0)


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        alpha=st.floats(min_value=0.1, max_value=0.9),
        x=st.floats(min_value=0.0, max_value=80.0),
    )
    def test_bracket_property(self, alpha, x):
        lo, hi = ml_bounds(alpha, x)
        v = ml_eval(MLOrder(alpha, 1.0), -x)
        assert lo - 1e-12 <= v <= hi + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(
        alpha=st.floats(min_value=0.1, max_value=1.9),
        beta=st.floats(min_value=0.2, max_value=2.0),
    )
    def test_normalization_property(self, alpha, beta):
        assert ml_eval(MLOrder(alpha, beta), 0.0) == pytest.approx(
            1.0 / gamma_fn(beta), rel=1e-10
        )

    @settings(max_examples=20, deadline=None)
    @given(
        alpha=st.floats(min_value=0.15, max_value=0.95),
        x=st.floats(min_value=0.0, max_value=40.0),
        y=st.floats(min_value=0.0, max_value=40.0),
    )
    def test_monotone_property(self, alpha, x, y):
        lo, hi = sorted((x, y))
        assert ml_eval(MLOrder(alpha, 1.0), -hi) <= ml_eval(
            MLOrder(alpha, 1.0), -lo
        ) + 1e-12
