"""Tests for the exact mildness classification and the numerical probes."""

import json
import math

import numpy as np
import pytest

from fracfield import cli, mildness
from fracfield.errors import DegenerateParametersError, DomainError
from fracfield.mildness import (
    Rule,
    classify,
    lemma_b_condition,
    lemma_lp_condition,
    probe_m1,
    probe_m2,
    probe_to_json,
    prop_superdiffusive_condition,
    verdict_to_json,
)
from fracfield.special_fn import MLOrder, gl_panels, ml_eval
from fracfield.symbol import DiffusionParams, KernelSpec, symbol_a

GAUSS = KernelSpec("gaussian", 1.0)


def params(alpha, lam, mu, dim):
    return DiffusionParams(alpha=alpha, lam=lam, mu=mu, sigma=1.0, dim=dim)


class TestClassify:
    # (alpha, lam, mu, dim) -> (mild, rule)
    TABLE = [
        ((0.7, 0.0, 1.0, 1), (False, Rule.LAMBDA_ZERO_NOT_MILD)),
        ((1.5, 0.0, 2.0, 2), (False, Rule.LAMBDA_ZERO_NOT_MILD)),
        ((0.8, 1.0, 2.0, 1), (True, Rule.SUBDIFFUSIVE_N1)),
        ((0.5, 1.0, 5.0, 1), (False, Rule.NOT_MILD_OTHERWISE)),
        ((2.0 / 3.0, 1.0, 0.0, 1), (False, Rule.NOT_MILD_OTHERWISE)),
        ((0.9, 1.0, 0.0, 2), (False, Rule.NOT_MILD_OTHERWISE)),
        ((1.0, 1.0, 0.0, 1), (True, Rule.ALPHA_ONE_N1)),
        ((1.0, 1.0, 3.0, 2), (False, Rule.NOT_MILD_OTHERWISE)),
        ((1.5, 1.0, 0.0, 2), (True, Rule.SUPERDIFFUSIVE_N12)),
        ((1.5, 1.0, 0.0, 3), (False, Rule.NOT_MILD_OTHERWISE)),
        # N < 4 - 2/alpha decides at the last bit on either side of the
        # boundaries 2/3 (N = 1), 1 (N = 2) and 2 (N = 3)
        ((float(np.nextafter(2.0 / 3.0, 1.0)), 1.0, 0.0, 1), (True, Rule.SUBDIFFUSIVE_N1)),
        ((float(np.nextafter(2.0 / 3.0, 0.0)), 1.0, 0.0, 1), (False, Rule.NOT_MILD_OTHERWISE)),
        ((1.0, 1.0, 0.0, 2), (False, Rule.NOT_MILD_OTHERWISE)),
        ((float(np.nextafter(1.0, 2.0)), 1.0, 0.0, 2), (True, Rule.SUPERDIFFUSIVE_N12)),
        ((float(np.nextafter(2.0, 0.0)), 1.0, 0.0, 2), (True, Rule.SUPERDIFFUSIVE_N12)),
        ((float(np.nextafter(2.0, 0.0)), 1.0, 0.0, 3), (False, Rule.NOT_MILD_OTHERWISE)),
    ]

    @pytest.mark.parametrize("case,expected", TABLE)
    def test_truth_table(self, case, expected):
        v = classify(params(*case))
        assert (v.mild, v.rule) == expected
        assert isinstance(v.detail, str) and v.detail

    def test_degenerate(self):
        with pytest.raises(DegenerateParametersError):
            classify(params(0.5, 0.0, 0.0, 1))

    def test_composition_with_lemmas(self):
        # classify must agree with the conjunction of the lemma predicates
        for alpha in np.arange(0.1, 2.0, 0.1):
            alpha = round(float(alpha), 10)
            for n in range(1, 6):
                mild = classify(params(alpha, 1.0, 0.0, n)).mild
                if alpha < 1.0:
                    expected = lemma_lp_condition(
                        alpha, n, 1.0, "E_alpha"
                    ) and lemma_b_condition(alpha, n)
                elif alpha == 1.0:
                    expected = n == 1
                else:
                    expected = prop_superdiffusive_condition(alpha, n)
                assert mild == expected, (alpha, n)

    def test_mu_independence(self):
        for alpha in (0.5, 0.8, 1.0, 1.5):
            for n in (1, 2, 3):
                verdicts = {
                    classify(params(alpha, 1.0, mu, n)).mild for mu in (0.0, 1.0, 10.0)
                }
                assert len(verdicts) == 1

    def test_json(self):
        obj = verdict_to_json(classify(params(0.8, 1.0, 2.0, 1)))
        assert obj["mild"] is True
        assert obj["rule"] == "SubdiffusiveN1AlphaAboveTwoThirds"
        assert isinstance(obj["detail"], str)


class TestLemmas:
    def test_lp_examples(self):
        assert lemma_lp_condition(0.5, 1, 1.0, "E_alpha") is True
        assert lemma_lp_condition(0.5, 2, 1.0, "E_alpha") is False
        assert lemma_lp_condition(0.5, 3, 1.0, "E_alpha_alpha") is True
        assert lemma_lp_condition(0.5, 4, 1.0, "E_alpha_alpha") is False
        assert lemma_lp_condition(1.5, 7, 1.0, "E_alpha") is True
        assert lemma_lp_condition(1.5, 7, 1.0, "E_alpha_alpha") is True

    def test_lp_domain(self):
        with pytest.raises(DomainError):
            lemma_lp_condition(2.5, 1, 1.0, "E_alpha")
        with pytest.raises(DomainError):
            lemma_lp_condition(0.5, 1, 1.0, "E_beta")

    def test_b_examples(self):
        assert lemma_b_condition(0.8, 1) is True
        assert lemma_b_condition(0.6, 1) is False
        assert lemma_b_condition(2.0 / 3.0, 1) is False
        assert lemma_b_condition(float(np.nextafter(2.0 / 3.0, 1.0)), 1) is True
        assert lemma_b_condition(0.9, 2) is False
        with pytest.raises(DomainError):
            lemma_b_condition(1.2, 1)

    def test_superdiffusive_examples(self):
        assert prop_superdiffusive_condition(1.5, 2) is True
        assert prop_superdiffusive_condition(1.1, 3) is False
        assert prop_superdiffusive_condition(1.0 + 1e-9, 1) is True
        with pytest.raises(DomainError):
            prop_superdiffusive_condition(0.9, 1)


class TestProbeM1:
    def test_local_converges(self):
        rep = probe_m1(params(0.5, 1.0, 0.0, 1), GAUSS, 1.0)
        assert rep.quantity == "M1_L1_tail"
        assert rep.diverges is False
        assert rep.status == "converges"
        assert len(rep.values) == len(rep.cutoffs) == 3

    def test_lambda_zero_diverges_linearly(self):
        # the integrand saturates at E_alpha(-mu t^alpha) > 0, so the
        # truncated integral grows ~ K (log-log slope ~ 1)
        rep = probe_m1(params(0.5, 0.0, 1.0, 1), GAUSS, 1.0)
        assert rep.diverges is True
        assert rep.status == "diverges"
        assert rep.tail_exponent_fit == pytest.approx(1.0, abs=0.1)

    def test_superdiffusive_n2_diverges_logarithmically(self):
        # for alpha != 1, E_alpha(-x) ~ x^-1 / Gamma(1 - alpha), so in 2-D
        # int_{|xi|<=K} E_alpha(-lam |xi|^2 t^alpha) dxi grows like
        # 2 pi ln(K) / (Gamma(1 - alpha) lam t^alpha): a fixed increment per decade
        alpha = 1.5
        rep = probe_m1(params(alpha, 1.0, 0.0, 2), GAUSS, 1.0)
        assert rep.diverges is True
        assert rep.status == "diverges"
        assert rep.limit is None
        per_decade = 2.0 * math.pi * math.log(10.0) / math.gamma(1.0 - alpha)
        assert per_decade == pytest.approx(-4.0812258, abs=1e-7)
        for lo, hi in zip(rep.values, rep.values[1:]):
            assert hi - lo == pytest.approx(per_decade, abs=1e-6)

    def test_alpha_one_settles_to_the_last_bit(self):
        # exp(-|xi|^2) is below rounding long before K = 100: the values agree
        # exactly, the limit is the Gaussian integral and no exponent is read
        rep = probe_m1(params(1.0, 1.0, 0.0, 1), GAUSS, 1.0)
        assert rep.values[0] == rep.values[1] == rep.values[2]
        assert rep.status == "converges"
        assert rep.limit == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert rep.tail_exponent_fit is None

    def test_schedule_validation(self):
        p = params(0.5, 1.0, 0.0, 1)
        with pytest.raises(DomainError):
            probe_m1(p, GAUSS, 1.0, cutoff_schedule=(10.0, 100.0))
        with pytest.raises(DomainError):
            probe_m1(p, GAUSS, 1.0, cutoff_schedule=(10.0, 100.0, 100.0))
        with pytest.raises(DomainError):
            probe_m1(p, GAUSS, 0.0)
        # cut-offs are integer powers of ten >= 1 (in units of 1/l), so that
        # every entry's grid is a prefix of the finest one
        for ks in ((50.0, 333.0, 1e3, 2e4), (0.1, 1.0, 10.0), (1e2, 1e3, math.inf)):
            with pytest.raises(DomainError, match="powers of ten"):
                probe_m1(p, GAUSS, 0.7, cutoff_schedule=ks)


class TestProbeM2:
    def test_mild_case_not_diverging(self):
        rep = probe_m2(params(1.5, 1.0, 0.0, 1), GAUSS, 1.0)
        assert rep.quantity == "M2_spacetime"
        assert rep.diverges is False

    def test_time_singularity_diverges(self):
        # alpha = 1/2 makes s^{2 alpha - 2} = 1/s non-integrable at 0
        rep = probe_m2(params(0.5, 1.0, 0.0, 1), GAUSS, 1.0)
        assert rep.diverges is True

    def test_lambda_zero_diverges_in_k(self):
        rep = probe_m2(params(0.5, 0.0, 1.0, 1), GAUSS, 1.0)
        assert rep.diverges is True

    # V(1) at lam = sigma = 1, mu = 0, N = 1, from the closed form
    # t^(3 alpha/2 - 1) I_alpha / (pi (3 alpha/2 - 1) sqrt(lam)),
    # I_alpha = int_0^inf E_{alpha,alpha}(-u^2)^2 du
    V_TABLE = [(0.7, 2.027838), (0.8, 0.6597378), (0.9, 0.4712405),
               (1.2, 0.3369799), (1.5, 0.2923775)]

    @pytest.mark.parametrize("alpha, v", V_TABLE)
    def test_limit_matches_v(self, alpha, v):
        # at alpha = 0.7 the tail shrinks by only 10^-0.05 per step, and the
        # values (0.417, 0.592, 0.748) are far from V; the extrapolation is not
        rep = probe_m2(params(alpha, 1.0, 0.0, 1), GAUSS, 1.0)
        assert rep.status == "converges"
        assert rep.limit == pytest.approx(v, rel=1e-6)

    def test_limit_at_alpha_one(self):
        rep = probe_m2(params(1.0, 1.0, 0.0, 1), GAUSS, 1.0)
        assert abs(rep.limit - 1.0 / math.sqrt(2.0 * math.pi)) <= 1e-12
        assert rep.tail_exponent_fit == pytest.approx(-0.5, abs=1e-12)

    def test_diverging_has_no_limit(self):
        rep = probe_m2(params(0.5, 1.0, 0.0, 1), GAUSS, 1.0)
        assert rep.limit is None
        assert probe_to_json(rep)["limit"] is None

    def test_schedule_validation(self):
        p = params(1.5, 1.0, 0.0, 1)
        with pytest.raises(DomainError):
            probe_m2(p, GAUSS, 1.0, cutoff_schedule=((1e2, 1e-2), (1e3, 1e-3)))
        with pytest.raises(DomainError):
            probe_m2(
                p,
                GAUSS,
                1.0,
                cutoff_schedule=((1e2, 1e-2), (1e1, 1e-3), (1e3, 1e-4)),
            )
        # K >= 1 and eps <= 0.1, integer powers of ten (in units of 1/l and t)
        for sched in (((1e2, 1e-2), (3e2, 1e-2), (3e2, 3e-3), (1e4, 1e-5)),
                      ((1e2, 1.0), (1e3, 1e-1), (1e4, 1e-2)),
                      ((0.1, 1e-2), (1e3, 1e-3), (1e4, 1e-4))):
            with pytest.raises(DomainError, match="powers of ten"):
                probe_m2(p, GAUSS, 0.3, cutoff_schedule=sched)

    def test_json_shape(self):
        rep = probe_m2(params(1.5, 1.0, 0.0, 1), GAUSS, 1.0)
        obj = probe_to_json(rep)
        assert obj["quantity"] == "M2_spacetime"
        assert len(obj["cutoffs"]) == len(obj["values"]) == 3
        assert all(len(c) == 2 for c in obj["cutoffs"])
        assert isinstance(obj["diverges"], bool)
        assert obj["status"] in ("diverges", "converges")
        assert obj["limit"] == rep.limit
        assert isinstance(obj["tail_exponent_fit"], float)


# alpha on a 0.05 grid at (lam, mu) = (1, 0), on a 0.1 grid at (1, 0.5) and
# (0, 1); N in {1, 2, 3} each
_FINE = [round(0.3 + 0.05 * i, 2) for i in range(34)]  # 0.3 ... 1.95
_COARSE = [round(0.3 + 0.1 * i, 1) for i in range(17)]  # 0.3 ... 1.9
_SWEEP = ([(a, 1.0, 0.0) for a in _FINE] + [(a, 1.0, 0.5) for a in _COARSE]
          + [(a, 0.0, 1.0) for a in _COARSE])


@pytest.fixture(scope="module")
def sweep():
    """(alpha, lam, mu, N) -> (classify verdict, probe_m1, probe_m2) over _SWEEP.

    The probes' ml_eval tables do not depend on N, and ml_eval is pointwise
    and deterministic, so each (alpha, lam, mu) evaluates its tables once and
    the three dimensions reuse them.
    """
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        for alpha, lam, mu in _SWEEP:
            memo = {}

            def once(order, x, memo=memo):
                key = (order, x.tobytes())
                if key not in memo:
                    memo[key] = ml_eval(order, x)
                return memo[key]

            mp.setattr(mildness, "ml_eval", once)
            for n in (1, 2, 3):
                p = params(alpha, lam, mu, n)
                out[alpha, lam, mu, n] = (
                    classify(p).mild, probe_m1(p, GAUSS, 1.0), probe_m2(p, GAUSS, 1.0))
    return out


class TestRegimeSweep:
    """The probes against the paper's sharp characterization across regimes."""

    # probe_m1 reads these divergent integrals as convergent: for alpha near 2,
    # E_alpha(-x) still oscillates with the slowly damped factor
    # exp(x^(1/alpha) cos(pi/alpha)) at K = 100, and its x^-1 tail, which makes
    # the integral diverge for N >= 2, has not taken over
    M1_PRE_ASYMPTOTIC = {
        (1.9, 1.0, 0.0, 2), (1.95, 1.0, 0.0, 2), (1.95, 1.0, 0.0, 3),
        (1.9, 1.0, 0.5, 2),
    }

    def test_m2_verdict_is_classify(self, sweep):
        wrong = [(cell, rep.values) for cell, (mild, _, rep) in sweep.items()
                 if rep.diverges == mild]
        assert not wrong

    def test_m2_tail_exponent(self, sweep):
        # the eps-tail dominates: the truncated integral misses about
        # eps^((alpha/2)(4 - 2/alpha - N)), alpha/2 times classify's margin
        gaps = {cell: rep.tail_exponent_fit + (cell[0] / 2) * (4 - 2 / cell[0] - cell[3])
                for cell, (_, _, rep) in sweep.items() if cell[1] > 0}
        worst = max(gaps, key=lambda c: abs(gaps[c]))
        assert abs(gaps[worst]) <= 0.06, (worst, gaps[worst])

    def test_m1_verdict(self, sweep):
        # int E_alpha(-a |xi|^2 t^alpha) dxi is finite iff lam > 0 and either
        # alpha = 1 (exp) or N = 1 (the x^-1 tail is integrable only in 1-D)
        wrong = {cell for cell, (_, rep, _) in sweep.items()
                 if rep.diverges == (cell[1] > 0 and (cell[0] == 1.0 or cell[3] == 1))}
        assert wrong == self.M1_PRE_ASYMPTOTIC


def _radial_grid(k, ell):
    """10 Gauss-Legendre nodes on [0, 1] and on each quarter decade up to k,
    in units of ell."""
    edges = np.geomspace(1.0, k, 4 * round(math.log10(k)) + 1)
    r, w = gl_panels(np.concatenate(([0.0], edges)), 10)
    return r / ell, w / ell


def _time_grid(eps, t):
    """10 Gauss-Legendre nodes on each quarter decade from eps up to 1, in units of t."""
    s, w = gl_panels(np.geomspace(eps, 1.0, 4 * round(-math.log10(eps)) + 1), 10)
    return t * s, t * w


def _m1_per_entry(p, kernel, t, ks):
    """probe_m1's values with one ml_eval call per cutoff, on its own grid."""
    values = []
    for k in ks:
        r, w = _radial_grid(k, math.sqrt(p.lam * t**p.alpha))
        t_alpha = np.array([t]) ** p.alpha
        e = ml_eval(MLOrder(p.alpha, 1.0), -np.outer(t_alpha, symbol_a(p, kernel, r)))
        values.append(float(mildness._surface_factor(p.dim) * ((e * r ** (p.dim - 1)) @ w)[0]))
    return values


def _m2_per_entry(p, kernel, t, sched):
    """probe_m2's values with one ml_eval call per (K, eps), on its own grid."""
    values = []
    for k, eps in sched:
        s, ws = _time_grid(eps, t)
        r, w = _radial_grid(k, math.sqrt(p.lam * t**p.alpha))
        e = ml_eval(MLOrder(p.alpha, p.alpha), -np.outer(s**p.alpha, symbol_a(p, kernel, r)))
        radial = mildness._surface_factor(p.dim) * ((e**2 * r ** (p.dim - 1)) @ w)
        total = float(np.dot(ws, s ** (2.0 * p.alpha - 2.0) * radial))
        values.append(p.sigma**2 * (2.0 * math.pi) ** (-p.dim) * total)
    return values


class TestPooledNodes:
    """The schedule entries share one table on the finest grid, each summing
    its corner; each value must equal the per-entry evaluation bit for bit."""

    # (schedule, t, lambda): every t and every lambda, each pair with a unit
    # of length l != 1
    M2_CASES = [
        *((((1e2, 1e-2), (1e3, 1e-3), (1e4, 1e-4)), t, lam)  # the default
          for t, lam in ((0.3, 1.0), (1.0, 1e6), (2.0, 1.0))),
        (((1e4, 1e-2), (1e4, 1e-3), (1e4, 1e-4)), 2.0, 1e6),  # criterion 6's eps-only
        # steps in K only and in eps only
        (((1.0, 1e-1), (1e1, 1e-1), (1e3, 1e-2), (1e3, 1e-4)), 0.3, 1e6),
    ]
    M1_CASES = [((1e2, 1e3, 1e4), 0.3, 1e6), ((1.0, 1e1, 1e3, 1e5), 2.0, 1.0)]

    @pytest.mark.parametrize("alpha", [0.5, 0.8, 1.5])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("mu", [0.0, 0.5])
    def test_equal_to_per_entry_evaluation(self, alpha, dim, mu):
        for sched, t, lam in self.M2_CASES:
            p = params(alpha, lam, mu, dim)
            got = probe_m2(p, GAUSS, t, sched).values
            assert np.array_equal(got, _m2_per_entry(p, GAUSS, t, sched)), (sched, t, lam)
        for ks, t, lam in self.M1_CASES:
            p = params(alpha, lam, mu, dim)
            got = probe_m1(p, GAUSS, t, ks).values
            assert np.array_equal(got, _m1_per_entry(p, GAUSS, t, ks)), (ks, t, lam)

    def test_each_table_point_evaluated_once(self, monkeypatch):
        # the default schedules are nested at every t: 160 s-nodes x 170
        # r-nodes for M2 (the per-entry grids hold 7,200 + 15,600 + 27,200
        # points), in ml_eval calls of at most _TABLE_BLOCK points, and 170
        # r-nodes for M1 (90 + 130 + 170)
        sizes = []

        def counting(order, x):
            sizes.append(np.size(x))
            return ml_eval(order, x)

        monkeypatch.setattr(mildness, "ml_eval", counting)
        for t in (1.0, 2.0):
            sizes.clear()
            probe_m2(params(0.8, 1.0, 0.0, 1), GAUSS, t)
            assert sum(sizes) == 27_200 and max(sizes) <= mildness._TABLE_BLOCK
            sizes.clear()
            probe_m1(params(0.8, 1.0, 0.0, 1), GAUSS, t)
            assert sizes == [170]


def _values_and_reading(rep):
    return rep.values, (rep.status, rep.tail_exponent_fit)


class TestScalingLaws:
    """The symbol enters only through a t^alpha, and the cut-offs are read in
    units of l = sqrt(lambda t^alpha) and t, so the probes obey the model's
    scaling laws."""

    @pytest.mark.parametrize("alpha", [0.8, 1.5])
    @pytest.mark.parametrize("mu", [0.0, 0.5])
    def test_length_law_bit_for_bit(self, alpha, mu):
        # x, l and the kernel scale times c (lambda times c^2): a power of two
        # scales every node and weight exactly, and each value by c^-N
        for dim in (1, 2, 3):
            ref = params(alpha, 1.0, mu, dim)
            base = [_values_and_reading(probe(ref, GAUSS, 1.0)) for probe in (probe_m1, probe_m2)]
            for c in (2.0**-10, 2.0, 2.0**10):
                p = params(alpha, c * c, mu, dim)
                kernel = KernelSpec("gaussian", c)
                for probe, (values, reading) in zip((probe_m1, probe_m2), base):
                    got, got_reading = _values_and_reading(probe(p, kernel, 1.0))
                    assert [v * c**dim for v in got] == list(values), (dim, c, probe)
                    assert got_reading == reading

    @pytest.mark.parametrize("alpha", [0.8, 1.5])
    @pytest.mark.parametrize("mu", [0.0, 0.5])
    def test_time_law(self, alpha, mu):
        # t times 2 with lambda and mu times 2^-alpha: a t^alpha is unchanged,
        # so M1 is, and M2 gains s^(2 alpha - 2) ds, a factor 2^(2 alpha - 1)
        c = 2.0 ** -alpha
        for dim in (1, 2, 3):
            p, q = params(alpha, 1.0, mu, dim), params(alpha, c, mu * c, dim)
            for probe, gain in ((probe_m1, 1.0), (probe_m2, 2.0 ** (2 * alpha - 1))):
                ref, got = probe(p, GAUSS, 1.0).values, probe(q, GAUSS, 2.0).values
                assert got == pytest.approx([v * gain for v in ref], rel=1e-15, abs=0.0)

    def test_large_and_small_lambda(self, capsys):
        # the limits are V / sqrt(lambda); with absolute cut-offs probe_m2 read
        # "diverges" at lambda = 1e6 and converged to 4525.7 at 1e-6
        def limits(lam):
            assert cli.main(["mild", "--alpha", "0.8", "--lambda", lam, "--probe"]) == 0
            obj = json.loads(capsys.readouterr().out)
            assert obj["probe_m1"]["status"] == obj["probe_m2"]["status"] == "converges"
            return obj["probe_m1"]["limit"], obj["probe_m2"]["limit"]

        ref = limits("1")
        for lam in ("1e-6", "1e6", "1e8"):
            got = [v * math.sqrt(float(lam)) for v in limits(lam)]
            assert got == pytest.approx(ref, rel=1e-12, abs=0.0), lam

    def test_degenerate_and_out_of_range(self):
        with pytest.raises(DegenerateParametersError):
            probe_m1(params(0.8, 0.0, 0.0, 1), GAUSS, 1.0)
        with pytest.raises(DegenerateParametersError):
            probe_m2(params(0.8, 0.0, 0.0, 1), GAUSS, 1.0)
        # values scale as l^-N: past the float range at both ends
        with pytest.raises(DomainError, match="floating-point range"):
            probe_m2(params(1.5, 1e-200, 0.0, 3), GAUSS, 1.0)
        with pytest.raises(DomainError, match="floating-point range"):
            probe_m1(params(0.8, 1e300, 0.0, 3), GAUSS, 1.0)
