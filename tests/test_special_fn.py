"""Special-function unit tests against independent high-precision oracles."""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracfield import special_fn
from fracfield.errors import DomainError, NoConvergenceError
from fracfield.special_fn import (
    MLOrder,
    erfc,
    gamma_fn,
    kappa_alpha,
    mainardi_series,
    ml_asymptotic_neg,
    ml_bounds,
    ml_bounds_two,
    ml_eval,
    ml_real_zeros,
    _hurwitz_zeta,
    _ml_coef,
    _rgamma,
    _series,
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


def _assert_close(got, ref, rel, floor=0.0):
    """|got - ref| <= rel * max(|ref|, floor), element-wise, with subnormal slack."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    err = np.abs(got - ref)
    bound = rel * np.maximum(np.abs(ref), floor) + 1e-320
    worst = int(np.argmax(err - bound))
    assert np.all(err <= bound), (worst, got.flat[worst], ref.flat[worst])


class TestElementaryOracles:
    """The numpy/math replacements of Gamma, erfc and the Hurwitz zeta function."""

    def test_rgamma(self):
        x = np.concatenate([
            np.linspace(-5.0, 1000.0, 1501),
            np.arange(-5.0, 1.0),  # the poles, where 1/Gamma is exactly 0
            np.linspace(170.0, 180.0, 101),  # Gamma overflows past 171.6
            np.arange(-5.0, 1.0) + 1e-9,
            np.arange(-5.0, 1.0) - 1e-9,
            [1e-310, -1e-310, 0.5, 1.0, 2.0],
        ])
        ref = [float(mp.rgamma(mp.mpf(float(v)))) for v in x]
        got = [_rgamma(float(v)) for v in x]
        _assert_close(got, ref, 1e-15)
        assert [_rgamma(float(v)) for v in range(-5, 1)] == [0.0] * 6

    def test_erfc(self):
        x = np.linspace(-3.0, 27.0, 601)
        _assert_close(erfc(x), [float(mp.erfc(float(v))) for v in x], 1e-15)
        assert isinstance(erfc(0.5), float)
        assert erfc(np.zeros((2, 3))).shape == (2, 3)

    def test_hurwitz_zeta(self):
        q = np.geomspace(0.5, 1e3, 17)
        for s in (2, 4, 6, *np.linspace(1.1, 12.0, 7)):
            ref = [float(mp.zeta(float(s), float(v))) for v in q]
            _assert_close(_hurwitz_zeta(s, q), ref, 4e-15)

    def test_series_coefficients_cached(self):
        coef = _ml_coef(0.6, 1.0)
        assert coef is _ml_coef(0.6, 1.0)
        assert not coef.flags.writeable
        assert coef.tolist() == [_rgamma(0.6 * k + 1.0) for k in range(coef.size)]


def _ml_series(alpha, beta, z):
    """The power series of E_{alpha,beta} at the one point z, as ml_eval's
    disc sums it."""
    return float(_series(_ml_coef(alpha, beta), np.array([z]))[0])


class TestSeries:
    def test_trivials(self):
        assert _ml_series(0.7, 1.0, 0.0) == 1.0
        assert _ml_series(1.0, 1.0, 1.0) == pytest.approx(math.e, rel=1e-12)
        assert _ml_series(0.5, 0.5, 0.0) == pytest.approx(
            1.0 / math.sqrt(math.pi), rel=1e-12
        )

    def test_no_convergence(self):
        # at u = 1e4 the Mainardi series runs at z = -u^2 = -1e8, whose terms
        # overflow before they shrink; the overflowed partial sum must not
        # pass for converged
        with pytest.raises(NoConvergenceError):
            mainardi_series(0.5, 1e4)

    # (alpha, beta, reach): a typical order, slow orders near the disc edge, and
    # beta > alpha + 1.75, which the series serves up to |z| = 1
    @pytest.mark.parametrize("alpha,beta,reach", [(0.8, 0.8, 0.5), (0.1, 1.0, 0.5),
                                                  (0.1, 0.1, 0.5), (0.1, 2.0, 1.0),
                                                  (0.5, 4.0, 1.0), (0.3, 8.0, 1.0)])
    def test_block_size_sets_work_not_values(self, monkeypatch, alpha, beta, reach):
        # every point stops at its own first stop index, so the number of
        # terms per pass must not move a single bit
        z = np.concatenate((np.linspace(-reach, reach, 1601),
                            reach * (1.0 - np.geomspace(1e-9, 0.1, 400))))
        coef = _ml_coef(alpha, beta)
        ref = _series(coef, z)
        for block in (8, 64):
            monkeypatch.setattr(special_fn, "_SERIES_BLOCK", block)
            assert _series(coef, z).tobytes() == ref.tobytes()


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

    def test_large_beta_near_unit_circle(self):
        # beta > alpha + 1.75 steps beta down through a division by z, which
        # amplifies rounding at |z| < 1; the series serves the unit disc there
        worst = 0.0
        for alpha in (0.1, 0.3):
            for beta in (5.0, 8.0):
                for x in (0.51, 0.7, 0.9, 1.01):
                    for z in (-x, x):
                        ref = ml_oracle(alpha, beta, z)
                        err = abs(ml_eval(MLOrder(alpha, beta), z) - ref)
                        worst = max(worst, err / (abs(ref) if abs(ref) > 1e-3 else 1.0))
        assert worst <= 1e-11

    @pytest.mark.parametrize("beta", [20.0, 30.0, 100.0])
    def test_large_beta_relative(self, beta):
        # graded relative: these values lie far below 1e-3, where an absolute
        # grade passes anything.  The step down in beta amplified rounding
        # up to 1e137 at beta = 100 when the series stopped at |z| = 1
        worst = 0.0
        for alpha in (0.1, 0.5, 1.5):
            for x in (0.3, 1.01, 1.63, 3.2, 24.3, 259.0, 1000.0):
                for z in (-x, x):
                    if x ** (1.0 / alpha) > 600:
                        continue  # beyond the oracle series' reach
                    ref = ml_oracle(alpha, beta, z)
                    err = abs(ml_eval(MLOrder(alpha, beta), z) - ref) / abs(ref)
                    worst = max(worst, err)
        assert worst <= 5e-11

    def test_few_steps_beat_the_series(self):
        # just outside |z| = 1 a few steps down in beta lose little, while
        # the series at alpha = 0.1 stops on a slowly decaying tail
        # (2e-12 here), so the steps keep that ring
        worst = 0.0
        for beta in (2.5, 5.0):
            for x in (1.01, 1.05, 1.1):
                for z in (-x, x):
                    ref = ml_oracle(0.1, beta, z)
                    worst = max(worst, abs(ml_eval(MLOrder(0.1, beta), z) - ref) / abs(ref))
        assert worst <= 1e-13

    def test_many_steps_in_beta(self):
        # beta = 101 at alpha = 0.1 takes 993 steps down from z = -5 (a
        # RecursionError when each step was a call); the oracle sums the
        # algebraic expansion there
        for x in (5.0, 10.0, 40.0):
            ref = ml_oracle(0.1, 101.0, -x)
            assert ml_eval(MLOrder(0.1, 101.0), -x) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_step_cap(self):
        # beta = 1e300 would never step down to the contour: off the series
        # disc it is refused; on it, 1/Gamma(beta) underflows to 0
        order = MLOrder(0.1, 1e300)
        assert ml_eval(order, np.array([-0.5, 0.0, 0.5])).tolist() == [0.0, 0.0, 0.0]
        with pytest.raises(DomainError, match="steps"):
            ml_eval(order, -5.0)

    @pytest.mark.parametrize("alpha,beta", [(math.nan, 1.0), (math.inf, 1.0), (0.5, math.nan),
                                            (0.5, math.inf), (0.0, 1.0), (0.5, -1.0)])
    def test_order_domain(self, alpha, beta):
        with pytest.raises(DomainError):
            MLOrder(alpha, beta)

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

    @pytest.mark.parametrize("alpha", [0.6, 0.8, 1.5, 1.9])
    @pytest.mark.parametrize("beta_is_alpha", [False, True])
    def test_huge_and_special_arguments(self, alpha, beta_is_alpha):
        # Both arrays hold a NaN next to the huge points, so the contour's
        # clamp must be decided without a max(); the second has no z > 0, so
        # for alpha <= 1 it takes the pole-free path.
        beta = alpha if beta_is_alpha else 1.0
        order = MLOrder(alpha, beta)
        huge = [-1e151, -1e200, -1e300, -1.7e308]
        special = huge + [-np.inf, np.nan, 0.0, -0.0]
        for x in (np.array([-3.0, -0.3, -40.0, 2.0, np.inf] + special),
                  np.array([-3.0, -1e4] + special + [-0.7])):
            with np.errstate(all="ignore"):
                vals = ml_eval(order, x)
                scalars = np.array([ml_eval(order, float(v)) for v in x])
            assert vals.tobytes() == scalars.tobytes()
            for z in huge + ([-np.inf] if alpha <= 1.0 else []):
                v = vals[list(x).index(z)]
                if beta_is_alpha:  # -1 / (Gamma(-alpha) z^2), zero where it underflows
                    lead = -1.0 / math.gamma(-alpha) / z / z
                    rel = 2.5e-13
                else:
                    lead = -(1.0 / math.gamma(beta - alpha)) / z
                    rel = 1.5e-14
                if lead == 0.0:
                    assert v == 0.0
                else:
                    assert v == pytest.approx(lead, rel=rel, abs=0.0)

    @pytest.mark.parametrize("alpha,beta", [(0.8, 1.0), (1.5, 1.5), (1.0, 1.0), (2.0, 1.0)])
    def test_blocks_do_not_move_values(self, monkeypatch, alpha, beta):
        x = -np.geomspace(1e-3, 1e4, 2000).reshape(40, 50)
        x[::3] *= -0.01
        ref = ml_eval(MLOrder(alpha, beta), x)
        for name, value in [("_EVAL_BLOCK", 7), ("_CHUNK_ELEMS", 37), ("_CHUNK_ELEMS", 1 << 10)]:
            with monkeypatch.context() as m:
                m.setattr(special_fn, name, value)
                assert ml_eval(MLOrder(alpha, beta), x).tobytes() == ref.tobytes()

    def test_temporaries_do_not_scale_with_input(self):
        # blocks of _EVAL_BLOCK points: a 256k-point call allocates its 2 MB
        # output and about 1 MB more, not several input-sized arrays
        x = -np.geomspace(1e-3, 1e4, 1 << 18)
        order = MLOrder(0.8, 1.0)
        ml_eval(order, x[:: 1 << 8])  # fill the node caches
        tracemalloc.start()
        try:
            ml_eval(order, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - x.nbytes < 2e6

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

    def test_superdiffusive_two_parameter_term(self):
        # E_{alpha,alpha}(-x) for 1 < alpha < 2 is the oscillatory term plus
        # the algebraic tail, led by -x^-2 / Gamma(-alpha); without that tail
        # the evaluator must match the oscillatory term
        alpha = 1.8
        for x in (40.0, 80.0, 160.0):
            oscillatory = ml_eval(MLOrder(alpha, alpha), -x) + x**-2 / math.gamma(-alpha)
            assert ml_asymptotic_neg(MLOrder(alpha, alpha), x) == pytest.approx(
                oscillatory, rel=8e-4)

    def test_superdiffusive_envelope(self):
        for alpha in (1.3, 1.5, 1.8):
            for x in (1e3, 1e4):
                env = (2.0 / alpha) * math.exp(
                    x ** (1.0 / alpha) * math.cos(math.pi / alpha)
                )
                assert abs(ml_asymptotic_neg(MLOrder(alpha, 1.0), x)) <= env * (1 + 1e-12)


def _dominant_residual(alpha, z):
    """alpha z E_alpha(z) - (z exp(z^(1/alpha)) - kappa_alpha), real part.

    z^(1/alpha) is taken on the principal branch.  The identity is O(1/z) on
    the positive axis and, for negative z, only where cos(pi/alpha) < 0
    (alpha in (2/3, 2)).
    """
    zc = complex(z)
    dominant = zc * np.exp(zc ** (1.0 / alpha)) - kappa_alpha(alpha)
    return float((alpha * z * ml_eval(MLOrder(alpha, 1.0), z) - dominant).real)


class TestResidualIdentity:
    def test_alpha_one_exact(self):
        assert _dominant_residual(1.0, 5.0) == pytest.approx(0.0, abs=1e-8)

    def test_at_zero(self):
        assert _dominant_residual(0.5, 0.0) == pytest.approx(kappa_alpha(0.5), rel=1e-12)

    def test_decay_sweep(self):
        # residual is O(1/|z|) on the negative axis once the exponential term
        # decays (cos(pi/alpha) < 0, i.e. alpha > 2/3)
        scaled = [abs(_dominant_residual(0.8, -x)) * x for x in (1e2, 1e3, 1e4)]
        assert max(scaled) < 10.0


class TestZeros:
    def test_cosh_zeros(self):
        zl = ml_real_zeros(2.0, -30.0)
        expected = [-((math.pi / 2 + n * math.pi) ** 2) for n in (1, 0)]
        assert len(zl.zeros) == 2
        for z, e in zip(zl.zeros, sorted(expected)):
            assert abs(z - e) <= 1e-8

    def test_cos_zeros_to_200(self):
        zl = ml_real_zeros(2.0, -200.0)
        k = np.arange(len(zl.zeros))[::-1]
        assert len(zl.zeros) == 5
        np.testing.assert_allclose(zl.zeros, -((math.pi / 2 + k * math.pi) ** 2),
                                   rtol=1e-13, atol=0)

    def test_monotone_empty(self):
        assert ml_real_zeros(0.8, -100.0).zeros == ()
        assert ml_real_zeros(1.0, -100.0).zeros == ()

    def test_count_nondecreasing(self):
        counts = [len(ml_real_zeros(a, -200.0).zeros) for a in (1.2, 1.5, 1.9)]
        assert counts == sorted(counts)
        assert counts[0] >= 1

    def test_zeros_are_zeros(self):
        for a in (1.2, 1.5):
            for z in ml_real_zeros(a, -100.0).zeros:
                assert abs(ml_eval(MLOrder(a, 1.0), z)) <= 1e-9


class TestMainardi:
    def test_series_at_zero(self):
        assert mainardi_series(0.5, 0.0) == pytest.approx(
            1.0 / gamma_fn(0.5), rel=1e-12
        )
        assert mainardi_series(0.6, 0.0) == pytest.approx(
            1.0 / gamma_fn(0.4), rel=1e-12
        )

    def test_series_vs_closed_documented_mismatch(self):
        # the printed order-1/2 closed form (1 + u) exp(-u^2/4) / sqrt(pi)
        # agrees with the printed series at u = 0 and not away from it
        def closed(u):
            return (1.0 + u) * math.exp(-u * u / 4.0) / math.sqrt(math.pi)

        assert abs(mainardi_series(0.5, 0.0) - closed(0.0)) < 1e-12
        assert abs(mainardi_series(0.5, 1.0) - closed(1.0)) > 0.1

    @pytest.mark.parametrize("u", [60.0, 80.0, 100.0])
    def test_cancellation_raises(self, u):
        # the alternating terms cancel: against a 500-digit sum the result was
        # 2.5e-4 off at u = 60 and of the wrong sign at u = 80, with no error;
        # the sum also refuses inside an array
        with pytest.raises(NoConvergenceError, match="cancellation"):
            mainardi_series(0.5, u)
        with pytest.raises(NoConvergenceError, match="cancellation"):
            mainardi_series(0.5, np.array([[0.0, 1.0], [2.0, u]]))

    @pytest.mark.parametrize("alpha", [0.5, 0.9])
    def test_accepted_values_against_60_digits(self, alpha):
        # the sum rounds once per term, so its error follows the sum of the
        # terms' magnitudes: a bound on the largest term alone accepted
        # 2.1e-12 (alpha = 0.5, u = 14.8) and 2.4e-12 (alpha = 0.9,
        # u = 21.35) of max(|sum|, peak) on this grid
        peak, worst, refused = 1.0 / math.gamma(1.0 - alpha), 0.0, []
        with mp.workdps(60):
            a, coef = mp.mpf(alpha), []
            while not coef or coef[-1] * mp.mpf(900) ** (len(coef) - 1) > mp.mpf(10) ** -40:
                k = len(coef)
                coef.append(1 / (mp.gamma(a * k + 1 - a) * mp.factorial(2 * k)))
            for u in np.arange(601) * 0.05:
                try:
                    value = mainardi_series(alpha, u)
                except NoConvergenceError:
                    refused.append(u)
                    continue
                z, ref = -mp.mpf(u) ** 2, mp.mpf(0)
                for c in reversed(coef):
                    ref = ref * z + c
                worst = max(worst, abs(value - float(ref)) / max(abs(float(ref)), peak))
        assert worst <= 1e-12
        assert min(refused) > 8.0

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
