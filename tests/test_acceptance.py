"""Acceptance gate: the thirteen primary criteria, one test each.

Every test prints a single ``[criterion N] PASS/FAIL — detail`` line before
asserting, so a transcript of this module is the acceptance report.
Criterion 10 contains two sub-claims about the decay of the beta_m series
coefficients that direct computation contradicts; the test asserts the
claims as stated and therefore fails honestly (see the README's known
limitations and the variance-series docstrings).
"""

import json
import math
import sys

import numpy as np
import pytest
from scipy.special import rgamma

from fracfield import (
    DiffusionParams,
    GridSpec,
    KernelSpec,
    MLOrder,
    beta_coeff,
    classify,
    ensemble_stats,
    gamma_fn,
    heat_kernel,
    lemma_b_condition,
    lemma_lp_condition,
    make_profile,
    mean_fourier,
    ml_asymptotic_neg,
    ml_bounds,
    ml_bounds_two,
    ml_eval,
    ml_real_zeros,
    probe_m1,
    probe_m2,
    prop_superdiffusive_condition,
    resonance_set,
    var_classical_closed,
    var_classical_quadrature,
    var_series,
)
from fracfield.errors import ResonanceError
from fracfield.simulate import compare_to_analytic

GAUSS = KernelSpec("gaussian", 1.0)


def report(n, ok, detail):
    line = f"[criterion {n}] {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    print(line, file=sys.stderr)
    assert ok, line


def test_criterion_01_identities():
    worst = 0.0
    z = np.linspace(-30.0, 30.0, 121)
    worst = max(worst, float(np.max(np.abs(
        np.array([ml_eval(MLOrder(1.0, 1.0), float(v)) for v in z]) - np.exp(z)
    ) / np.exp(z))))
    ok_exp = worst <= 1e-10
    worst_cosh = 0.0
    for x in np.linspace(0.0, 100.0, 51):
        ref = math.cosh(math.sqrt(x))
        worst_cosh = max(worst_cosh, abs(ml_eval(MLOrder(2.0, 1.0), float(x)) - ref) / ref)
    ok_cosh = worst_cosh <= 1e-10
    worst_erfc = 0.0
    for x in np.linspace(0.0, 5.0, 26):
        ref = math.exp(x * x) * math.erfc(x)
        worst_erfc = max(worst_erfc, abs(ml_eval(MLOrder(0.5, 1.0), -float(x)) - ref) / ref)
    ok_erfc = worst_erfc <= 1e-8
    worst_norm = 0.0
    for a, b in [(0.3, 1.0), (0.7, 0.7), (1.5, 1.5), (1.0, 2.0), (0.5, 1.5)]:
        worst_norm = max(worst_norm, abs(ml_eval(MLOrder(a, b), 0.0) * gamma_fn(b) - 1.0))
    ok_norm = worst_norm <= 1e-12
    report(
        1,
        ok_exp and ok_cosh and ok_erfc and ok_norm,
        f"exp {worst:.1e}, cosh {worst_cosh:.1e}, erfc {worst_erfc:.1e}, "
        f"norm {worst_norm:.1e}",
    )


def test_criterion_02_sharp_bounds():
    alphas = np.linspace(0.05, 0.95, 20)
    xs = np.linspace(0.0, 100.0, 20)
    violations = 0
    for a in alphas:
        a = float(a)
        v1 = ml_eval(MLOrder(a, 1.0), -xs)
        lo1, hi1 = ml_bounds(a, xs)
        violations += int(np.sum(~((lo1 - 1e-12 <= v1) & (v1 <= hi1 + 1e-12))))
        v2 = gamma_fn(a) * ml_eval(MLOrder(a, a), -xs)
        lo2, hi2 = ml_bounds_two(a, xs)
        violations += int(np.sum(~((lo2 - 1e-12 <= v2) & (v2 <= hi2 + 1e-12))))
        b = a + 1.0
        v3 = gamma_fn(b) * ml_eval(MLOrder(a, b), -xs)
        lo3, hi3 = ml_bounds_two(a, xs, beta=b)
        violations += int(np.sum(~((lo3 - 1e-12 <= v3) & (v3 <= hi3 + 1e-12))))
    report(2, violations == 0, f"400-point grid x 3 brackets, {violations} violations")


def test_criterion_03_asymptotics():
    worst = 0.0
    x = 1e4
    for a in (0.3, 0.5, 0.7):
        for b in (1.0, a):
            ratio = ml_eval(MLOrder(a, b), -x) / ml_asymptotic_neg(MLOrder(a, b), x)
            worst = max(worst, abs(ratio - 1.0))
    ok_sub = worst <= 0.05
    # superdiffusive magnitude-envelope: |E - algebraic part| is bounded by
    # the (2/alpha) exponential envelope of the oscillatory leading term
    ok_env = True
    details = []
    x = 1e3
    for a in (1.3, 1.5, 1.8):
        env = (2.0 / a) * math.exp(x ** (1.0 / a) * math.cos(math.pi / a))
        # optimally truncated algebraic series
        alg = 0.0
        prev = math.inf
        for j in range(1, 200):
            t = (-1.0) ** (j + 1) * x ** (-j) * float(rgamma(1.0 - a * j))
            if t == 0.0:
                continue
            if abs(t) > prev:
                break
            alg += t
            prev = abs(t)
        v = ml_eval(MLOrder(a, 1.0), -x)
        ok_env = ok_env and abs(v - alg) <= 1.05 * env + 1e-12
        details.append(f"a={a}: |E-alg|={abs(v - alg):.2e} env={env:.2e}")
    report(
        3,
        ok_sub and ok_env,
        f"subdiffusive worst ratio dev {worst:.2e}; " + "; ".join(details),
    )


def test_criterion_04_zeros():
    zl = ml_real_zeros(2.0, -30.0)
    expected = [-((0.5 + k) * math.pi) ** 2 for k in range(2)]
    ok_two = len(zl.zeros) == 2 and all(
        abs(g - e) <= 1e-8 for g, e in zip(sorted(zl.zeros), sorted(expected))
    )
    ok_empty = len(ml_real_zeros(0.8, -100.0).zeros) == 0
    counts = [len(ml_real_zeros(a, -100.0).zeros) for a in (1.2, 1.5, 1.9)]
    ok_mono = all(c1 <= c2 for c1, c2 in zip(counts, counts[1:]))
    report(
        4,
        ok_two and ok_empty and ok_mono,
        f"cos zeros {list(zl.zeros)}, alpha=0.8 empty={ok_empty}, counts {counts}",
    )


def test_criterion_05_truth_table():
    cases = [
        ((0.5, 0.0, 1.0, 1), False),
        ((0.5, 0.0, 1.0, 3), False),
        ((1.0, 1.0, 0.0, 1), True),
        ((1.0, 1.0, 0.0, 2), False),
        ((0.5, 1.0, 0.0, 1), False),
        ((0.8, 1.0, 0.0, 1), True),
        ((1.5, 1.0, 0.0, 1), True),
        ((1.5, 1.0, 0.0, 2), True),
        ((1.5, 1.0, 0.0, 3), False),
        ((0.8, 0.0, 2.0, 1), False),
    ]
    wrong = []
    for (a, lam, mu, n), mild in cases:
        got = classify(DiffusionParams(a, lam, mu, 1.0, n)).mild
        if got != mild:
            wrong.append((a, lam, mu, n))
    comp_ok = True
    for a in np.arange(0.1, 2.0, 0.1):
        a = round(float(a), 10)
        for n in range(1, 6):
            mild = classify(DiffusionParams(a, 1.0, 0.0, 1.0, n)).mild
            if a < 1.0:
                want = lemma_lp_condition(a, n, 1.0, "E_alpha") and lemma_b_condition(a, n)
            elif a == 1.0:
                want = n == 1
            else:
                want = prop_superdiffusive_condition(a, n)
            comp_ok = comp_ok and (mild == want)
    report(
        5,
        not wrong and comp_ok,
        f"10-case table wrong={wrong}, lemma composition agree={comp_ok}",
    )


def test_criterion_06_probe_soundness():
    cases = [
        (0.5, 0.0, 1.0, 1, False),  # branch (i), lambda=0
        (1.5, 0.0, 1.0, 1, False),
        (1.0, 1.0, 0.0, 1, True),   # branch (ii)(a)
        (0.8, 1.0, 0.0, 1, True),   # branch (ii)(b)
        (0.5, 1.0, 0.0, 1, False),
        (1.5, 1.0, 0.0, 3, False),  # branch (ii)(c)
    ]
    mismatches = []
    for a, lam, mu, n, mild in cases:
        p = DiffusionParams(a, lam, mu, 1.0, n)
        rep = probe_m2(p, GAUSS, 1.0)
        if rep.diverges != (not mild):
            mismatches.append((a, lam, mu, n, rep.status))
    # lambda=0 diverges in K with slope ~ 1 already in the M1 integral
    m1 = probe_m1(DiffusionParams(0.5, 0.0, 1.0, 1.0, 1), GAUSS, 1.0)
    ok_m1 = m1.diverges and abs(m1.tail_exponent_fit - 1.0) < 0.1
    # alpha=0.5 with lambda>0 diverges through the time floor epsilon
    eps_only = ((1e4, 1e-2), (1e4, 1e-3), (1e4, 1e-4))
    m2_eps = probe_m2(DiffusionParams(0.5, 1.0, 0.0, 1.0, 1), GAUSS, 1.0, eps_only)
    ok_eps = m2_eps.diverges
    report(
        6,
        not mismatches and ok_m1 and ok_eps,
        f"m2 flag mismatches={mismatches}, lambda0 m1 slope "
        f"{m1.tail_exponent_fit:.2f}, eps-divergence={ok_eps}",
    )


def test_criterion_07_classical_mean():
    p = DiffusionParams(1.0, 1.0, 0.0, 1.0, 1)
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        for x in np.linspace(-3.0, 3.0, 121):
            ref = heat_kernel(t, float(x), 1.0)
            worst = max(worst, abs(mean_fourier(p, GAUSS, t, float(x)) - ref) / ref)
    xg = np.linspace(-15.0, 15.0, 121)
    vals = np.array([mean_fourier(p, GAUSS, 1.0, float(x)) for x in xg])
    mass = float(np.trapezoid(vals, xg))
    ok = worst <= 1e-6 and abs(mass - 1.0) <= 1e-4
    report(7, ok, f"max rel dev {worst:.2e}, mass {mass:.6f}")


def test_criterion_08_self_similarity():
    p = DiffusionParams(0.6, 1.0, 0.0, 1.0, 1)
    ratio = mean_fourier(p, GAUSS, 4.0, 0.0) / mean_fourier(p, GAUSS, 1.0, 0.0)
    dev = abs(ratio - 4.0 ** (-0.3))
    report(8, dev <= 1e-4, f"peak ratio {ratio:.8f} vs 4^-0.3, dev {dev:.2e}")


def test_criterion_09_classical_variance():
    ref = math.sqrt(1.0 / (2.0 * math.pi))
    v0 = var_classical_quadrature(1.0, 0.0, 1.0, 1.0)
    v3 = var_classical_quadrature(1.0, 3.0, 1.0, 1.0)
    closed = var_classical_closed(1.0, 0.0, 1.0, 1.0)
    ratio = v0 / closed
    ok = abs(v0 / ref - 1.0) <= 1e-3 and abs(v3 - v0) <= 1e-8
    report(
        9,
        ok,
        f"value {v0:.7f} (target {ref:.7f}), |v(3)-v(0)|={abs(v3 - v0):.1e}, "
        f"quadrature/closed ratio {ratio:.4f} (documented discrepancy, recorded)",
    )


def test_criterion_10_beta_series():
    alpha = 0.6
    b = [beta_coeff(m, alpha) for m in range(16)]
    ok_pos = all(v > 0 for v in b)
    decreasing_from_2 = all(b[m + 1] < b[m] for m in range(2, 15))
    decay_claim = b[15] / b[0] < 1e-10
    total = var_series(1.0, 1.0, alpha, 1.0, 1.0)
    m = 29
    last = (
        (-1.0) ** m * beta_coeff(m, alpha) * 1.0 ** (2 * m + 1)
        / (4.0 ** m * (2 * m + 1) * (1.0 - (m + 1) * alpha))
    )
    ok_last = abs(last) < 1e-10 * abs(total)
    try:
        var_series(1.0, 1.0, 0.5, 1.0, 1.0)
        ok_resonance = False
    except ResonanceError as exc:
        ok_resonance = exc.m == 1
    ok = ok_pos and decreasing_from_2 and decay_claim and ok_last and ok_resonance
    report(
        10,
        ok,
        f"positive={ok_pos}, decreasing(m>=2)={decreasing_from_2} "
        f"(beta_2={b[2]:.6f} < beta_3={b[3]:.6f}: claim contradicted), "
        f"beta_15/beta_0={b[15] / b[0]:.2e} (claim <1e-10 contradicted), "
        f"last-term ratio {abs(last) / abs(total):.1e}, resonance(m=1)={ok_resonance}",
    )


def test_criterion_11_mc_classical():
    p = DiffusionParams(1.0, 1.0, 0.0, 1.0, 1)
    grid = GridSpec(half_length=20.0, n_points=1024, n_steps=256, t_end=1.0, ic="zero")
    _, variance = ensemble_stats(p, GAUSS, grid, 2000, master_seed=12345, snapshot_steps=[256])
    pos = np.array(variance.positions)
    sel = np.abs(pos) <= 10.0
    ref = math.sqrt(1.0 / (2.0 * math.pi))  # variance is flat in x at alpha=1
    dev = np.max(np.abs(variance.values[0, sel] / ref - 1.0))
    ok_var = dev <= 0.10
    # ensemble mean from a Dirac initial state against the Fourier route
    grid_d = GridSpec(half_length=20.0, n_points=1024, n_steps=256, t_end=1.0,
                      ic="dirac_spectral")
    stats_d = ensemble_stats(p, GAUSS, grid_d, 500, master_seed=12345,
                             snapshot_steps=[256])
    xs = [0.0, 0.625, -0.625, 1.25, -1.25, 2.5, -2.5, 5.0, -5.0]
    ref_prof = make_profile([1.0], xs, lambda t, x: mean_fourier(p, GAUSS, t, x),
                            "fourier")
    z = compare_to_analytic(stats_d, ref_prof)["max_abs_z"]
    ok_mean = z <= 4.0
    report(
        11,
        ok_var and ok_mean,
        f"variance max dev {dev:.3f} (tol 0.10, 2000 samples), "
        f"mean max |z| {z:.2f} (tol 4, 500 samples)",
    )


def test_criterion_12_mc_fractional():
    p = DiffusionParams(0.8, 1.0, 0.0, 1.0, 1)
    grid = GridSpec(half_length=20.0, n_points=512, n_steps=128, t_end=1.0,
                    ic="dirac_spectral")
    steps = [32, 64, 96, 128]
    stats = ensemble_stats(p, GAUSS, grid, 600, master_seed=12345,
                           snapshot_steps=steps)
    xs = [0.0, 0.625, -0.625, 1.25, -1.25, 2.5, -2.5]
    times = [s * grid.dt for s in steps]
    ref_prof = make_profile(times, xs, lambda t, x: mean_fourier(p, GAUSS, t, x),
                            "fourier")
    z = compare_to_analytic(stats, ref_prof)["max_abs_z"]
    ok_mean = z <= 4.0
    variance = stats[1]
    center = np.argmin(np.abs(np.array(variance.positions)))
    v = variance.values[:, center]
    ok_var = bool(np.all(np.isfinite(variance.values)) and np.all(np.diff(v) >= 0))
    report(
        12,
        ok_mean and ok_var,
        f"mean max |z| {z:.2f} (tol 4, 600 samples), center variance "
        f"{[float(f'{u:.4f}') for u in v]} non-decreasing={ok_var}",
    )


def test_criterion_13_determinism(tmp_path, monkeypatch, capsys):
    from fracfield.cli import main

    # one sample path, and a 19-path ensemble whose blocks of 4 seeds the
    # engine spreads over its lanes
    argvs = (
        ["simulate", "--alpha", "1", "--half-length", "5",
         "--n-points", "64", "--n-steps", "16", "--seed", "42"],
        ["simulate", "--alpha", "1.5", "--samples", "19",
         "--n-points", "64", "--n-steps", "16", "--seed", "7"],
    )
    ok, sizes = True, []
    for argv in argvs:
        outputs = []
        for threads in ("0", "1", "7"):
            monkeypatch.setenv("FRACFIELD_THREADS", threads)
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 0
            outputs.append(captured.out.encode())
        ok = ok and outputs[0] == outputs[1] == outputs[2]
        sizes.append(len(outputs[0]))
    report(13, ok, f"2 commands x 3 runs, {sizes} bytes each, byte-identical={ok}")
