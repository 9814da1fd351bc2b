"""End-to-end tests of the command-line interface (in-process)."""

import ast
import importlib
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import fracfield
from fracfield.analytic_fields import (
    heat_kernel,
    mean_fourier,
    mean_mainardi,
    var_frac_quadrature,
)
from fracfield.cli import (
    EXIT_NOT_MILD,
    EXIT_OK,
    EXIT_RESONANCE,
    EXIT_USAGE,
    build_parser,
    main,
)
from fracfield.special_fn import MLOrder, ml_asymptotic_neg, ml_bounds, ml_eval
from fracfield.symbol import DiffusionParams, KernelSpec, kernel_from_json


GOLDEN_PATH_SHA256 = "cddb572cf5cdcac02a4886eaaf5c47c6aa36731aeb4a535283f8e93a9369a2df"

# stdout digest of a noise-free ensemble: its mean is the synthesized Dirac
# rows and its variance zero, so no ensemble reduction may move a bit of it
GOLDEN_ENSEMBLE_SIGMA0_SHA256 = (
    ["simulate", "--n-points", "64", "--n-steps", "16", "--samples", "4", "--seed", "3",
     "--sigma", "0"],
    "5deef8669906f549e06f3fd5c189ce5c6a619788fb31e2b57b319277f87c8652")

# stdout digest of a 19-path ensemble, two full blocks of 8 seeds and a
# partial one, as the serial engine printed it: no thread count may move it
GOLDEN_ENSEMBLE_19_SHA256 = (
    ["simulate", "--alpha", "1.5", "--samples", "19", "--n-points", "64", "--n-steps", "16",
     "--seed", "7"],
    "8b1b1d4ab5cecfe993ef949022d3ef6b885bbdcd028b8b02c2a744e11b0df5cb")

# stdout digests of analytic commands, pinned so that refactors of the
# evaluators behind them move no output bit
GOLDEN_ANALYTIC_SHA256 = {
    "ml_alpha_0.6": (
        ["ml", "--alpha", "0.6", "--x-range=-40:2:85", "--bounds"],
        "cbe00e147846e306ac358537c210dc79f79c5c389f6db37f5c714bdfa471cc46"),
    "ml_alpha_beta_1.8": (
        ["ml", "--alpha", "1.8", "--beta", "1.8", "--x-range=-40:2:85"],
        "c7bcdf3b36fcdb47b2c1e506c38d1187fc95bc40887f4a7907f179f98ca2f90d"),
    "mean_fourier": (
        ["mean", "--method", "fourier", "--alpha", "1.5", "--t-list", "0.5,1",
         "--x-range=0:2:5"],
        "2a357e2f3dfd2e7bb30f70a2f3e244c7c252f5d4cc2b18be07ce97c3535e4ba6"),
    "variance_quadrature": (
        ["variance", "--method", "quadrature", "--alpha", "0.6", "--t", "1",
         "--x-range=0:3:7"],
        "9302b549915977ac338d70cecae86789e8c355011c80289efe7b08ec53ed026d"),
    "variance_fig5": (
        ["variance", "--preset", "fig5"],
        "327380a95dbc1df69ac668e6ce1e46df876d34c634449172794e25863f927ad0"),
    "mild_probe": (
        ["mild", "--alpha", "0.8", "--probe"],
        "6b34bbb125ffa1af58fac697bf9af6fe7abdf998aed5b96022e97b8df4e5429e"),
}

_EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

# (argv, stdout digest, stderr digest) of every CSV writer the CLI has: the
# ensemble CSV (both blocks), a cross-check report, the ml columns, the
# beta table and the zeros list; and both ensembles of the benchmark at the
# default 1024 x 256 grid, whose 2 x 8192 cells the vectorized _g17 prints
GOLDEN_WRITER_SHA256 = {
    "simulate_samples_4": (
        ["simulate", "--n-points", "64", "--n-steps", "16", "--samples", "4",
         "--seed", "3"],
        "a65493cfe3c3615d2eb788303347ca6956bb3ecfe86f67bd1f1f2a78a9dd9b35",
        _EMPTY_SHA256),
    "simulate_default_grid_sub": (
        ["simulate", "--alpha", "0.8", "--mu", "0.5", "--samples", "8", "--seed", "5"],
        "edfde63732675309562a8a86d4dec11bc457cf29df21d22c41387d95fc5a12a1",
        _EMPTY_SHA256),
    "simulate_default_grid_super": (
        ["simulate", "--alpha", "1.5", "--samples", "64", "--seed", "5"],
        "354594b7106d725169cc31dacb5d8259b80e267c58fb5756c7f2ffe472c99e22",
        _EMPTY_SHA256),
    "variance_closed_crosscheck": (
        ["variance", "--method", "closed", "--alpha", "1", "--x-range=-3:3:13"],
        "43121223312ebe4f54e9e184d7bdaeeed971db26606739422dd90fcf63e88254",
        "c8322a26dc158ca5cacaa6c55eb39ef47f359f57ebef5e339ccdbf713fbe2024"),
    "ml_bounds_asymptotic": (
        ["ml", "--alpha", "0.5", "--x-range=-10:-1:10", "--bounds", "--asymptotic"],
        "d605482620162b046223f93b362a3b09d0187d4b3b3f78de00f4ad99624f4b4b",
        _EMPTY_SHA256),
    "variance_fig4": (
        ["variance", "--preset", "fig4"],
        "c4a64be3baadf7332d44d9f0f1e8cf58a9b2fdf79ebbbcf50df88d212d0e8883",
        _EMPTY_SHA256),
    "ml_zeros": (
        ["ml", "--alpha", "1.5", "--zeros"],
        "1197be7f9c8b6cf20aae8c7d61c0ff36cba8acaa34f83a601a46db40db11aa1b",
        _EMPTY_SHA256),
}


def _fresh_stdout(*args):
    """stdout of python args in a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(fracfield.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout


def _fresh_python(probe):
    """stdout of probe run in a fresh interpreter, stripped."""
    return _fresh_stdout("-c", probe).strip()


def test_import_loads_no_scipy():
    # every CLI process pays the import; a fresh interpreter shows what it loads
    probe = ("import sys, fracfield.cli; "
             "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert _fresh_python(probe) == "[]"


def test_commands_load_no_numpy_ma():
    # np.unique imports numpy.ma on first use, 11-14 ms and 1.3 MB per process;
    # the ensemble's lanes are plain threads, so even a run on two of them
    # loads no concurrent.futures (which imports logging); fractions (which
    # imports decimal) no module needs
    argvs = [
        ["ml", "--alpha", "0.6", "--x-range=-40:2:85", "--bounds", "--asymptotic"],
        ["mean", "--method", "fourier", "--alpha", "0.6", "--x-range=0:2:9"],
        ["variance", "--method", "quadrature", "--alpha", "0.6", "--t", "1", "--x", "1"],
        ["variance", "--preset", "fig5"],
        ["mild", "--alpha", "0.8", "--probe"],
        ["simulate", "--n-points", "64", "--n-steps", "16", "--samples", "4", "--alpha", "0.8",
         "--mu", "0.5"],
        ["simulate", "--n-points", "64", "--n-steps", "16", "--samples", "19"],
    ]
    probe = ("import contextlib, io, os, sys\n"
             "os.environ['FRACFIELD_THREADS'] = '1'\n"
             "from fracfield.cli import main\n"
             f"for argv in {argvs!r}:\n"
             "    with contextlib.redirect_stdout(io.StringIO()):\n"
             "        assert main(argv) == 0, argv\n"
             "from fracfield import simulate\n"
             "os.environ['FRACFIELD_THREADS'] = '2'\n"
             "simulate._usable_cpus = lambda: 2\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             f"    assert main({argvs[-1]!r}) == 0\n"
             "print('numpy.ma' in sys.modules, 'concurrent.futures' in sys.modules,\n"
             "      'logging' in sys.modules, 'fractions' in sys.modules,\n"
             "      'decimal' in sys.modules)")
    assert _fresh_python(probe) == "False False False False False"


def test_commands_run_without_scipy():
    # None in sys.modules makes any scipy import raise ImportError
    argvs = [
        ["ml", "--alpha", "0.6", "--x-range=-40:2:85", "--bounds"],
        ["ml", "--alpha", "0.6", "--x-range=-40:2:85", "--bounds", "--asymptotic"],
        ["mean", "--method", "fourier", "--alpha", "1.5", "--x-range=0:8:5"],
        ["mean", "--method", "fourier", "--alpha", "0.6", "--mu", "1000", "--t", "0.1",
         "--x-range=0:3:7"],
        ["mean", "--preset", "fig3"],
        ["mean", "--method", "mainardi", "--alpha", "0.6"],
        ["mean", "--method", "heat_kernel"],
        ["variance", "--method", "quadrature", "--alpha", "1"],
        ["variance", "--preset", "fig5"],
        ["mild", "--alpha", "0.8", "--probe"],
        ["simulate", "--n-points", "64", "--n-steps", "16", "--samples", "4"],
        ["simulate", "--n-points", "64", "--n-steps", "16", "--samples", "4", "--alpha", "0.8",
         "--mu", "0.5"],
    ]
    probe = ("import contextlib, io, sys; sys.modules['scipy'] = None\n"
             "from fracfield.cli import main\n"
             "codes = []\n"
             f"for argv in {argvs!r}:\n"
             "    with contextlib.redirect_stdout(io.StringIO()), "
             "contextlib.redirect_stderr(io.StringIO()):\n"
             "        codes.append(main(argv))\n"
             "print(codes)")
    assert _fresh_python(probe) == str([EXIT_OK] * len(argvs))


def test_numpy_only_modules_import_without_the_oracles():
    # these three modules run with numpy and pytest alone, the other four
    # take scipy, mpmath and hypothesis as oracles
    probe = ("import sys\n"
             "for name in ('scipy', 'mpmath', 'hypothesis'):\n"
             "    sys.modules[name] = None\n"
             f"sys.path.insert(0, {os.path.dirname(__file__)!r})\n"
             "import test_cli, test_mildness, test_simulate\n"
             "print('imported')")
    assert _fresh_python(probe) == "imported"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


@pytest.mark.parametrize("argv,digest", list(GOLDEN_ANALYTIC_SHA256.values()),
                         ids=list(GOLDEN_ANALYTIC_SHA256))
def test_golden_analytic_output(capsys, argv, digest):
    import hashlib

    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,out_digest,err_digest", list(GOLDEN_WRITER_SHA256.values()),
                         ids=list(GOLDEN_WRITER_SHA256))
def test_golden_writer_output(capsys, argv, out_digest, err_digest):
    import hashlib

    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == out_digest
    assert hashlib.sha256(err.encode()).hexdigest() == err_digest


def test_parser_reused_across_calls(capsys):
    # one parser serves every call of a process; no call may leak into the
    # next, a usage error and a preset (its arguments parsed after the given
    # ones) included
    assert build_parser() is build_parser()
    sequence = [
        ["mean", "--x", "1"],
        ["mean"],
        ["variance", "--bogus"],
        ["variance", "--preset", "fig5"],
        ["variance", "--method", "quadrature", "--alpha", "0.6"],
        ["simulate", "--samples", "1"],
        ["variance", "--preset", "fig4", "--alpha", "1"],
        ["variance", "--alpha", "1", "--t", "1", "--x", "0"],
    ]
    alone = []
    for argv in sequence:
        build_parser.cache_clear()
        alone.append(run(capsys, *argv))
    build_parser.cache_clear()
    parser = build_parser()
    assert [run(capsys, *argv) for argv in sequence] == alone
    assert build_parser() is parser
    assert alone[2][0] == EXIT_USAGE
    assert all(code == EXIT_OK for code, _, _ in alone[:2] + alone[3:])


class TestMl:
    def test_exponential_row_values(self, capsys):
        code, out, _ = run(
            capsys, "ml", "--alpha", "1", "--beta", "1", "--x-range", "-1:1:3"
        )
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["x", "value"]
        vals = [float(r[1]) for r in rows]
        assert vals[0] == pytest.approx(math.exp(-1.0), rel=1e-10)
        assert vals[1] == pytest.approx(1.0, rel=1e-12)
        assert vals[2] == pytest.approx(math.e, rel=1e-10)

    def test_bounds_and_asymptotic_columns(self, capsys):
        code, out, _ = run(
            capsys,
            "ml",
            "--alpha", "0.5",
            "--x-range", "-10:-1:4",
            "--bounds",
            "--asymptotic",
        )
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["x", "value", "lower", "upper", "asymptotic"]
        for r in rows:
            x, v, lo, hi, asym = (float(c) for c in r)
            assert lo <= v <= hi

    @pytest.mark.parametrize("x_range", ["-2:1:4", "0:0:1", "-10:-1:4"])
    def test_asymptotic_nan_where_argument_nonnegative(self, capsys, x_range):
        # the expansion is for E(-x) at large x > 0; the rest of the sweep stays
        code, out, _ = run(capsys, "ml", "--alpha", "0.5", f"--x-range={x_range}",
                           "--asymptotic")
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["x", "value", "asymptotic"]
        order = MLOrder(0.5, 1.0)
        for r in rows:
            x, v = float(r[0]), float(r[1])
            assert v == ml_eval(order, x)
            if x < 0:
                assert float(r[2]) == ml_asymptotic_neg(order, -x)
            else:
                assert r[2] == "nan"

    def test_bounds_match_pointwise(self, capsys):
        code, out, _ = run(
            capsys, "ml", "--alpha", "0.7", "--x-range", "-20:2:12", "--bounds"
        )
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        order = MLOrder(0.7, 1.0)
        for r in rows:
            x, v, lo, hi = (float(c) for c in r)
            assert v == ml_eval(order, x)
            assert (lo, hi) == ml_bounds(0.7, max(-x, 0.0))

    def test_cos_zeros(self, capsys):
        code, out, _ = run(
            capsys, "ml", "--alpha", "2", "--zeros", "--interval", "-30:0"
        )
        assert code == EXIT_OK
        zeros = [float(line) for line in out.strip().splitlines()[1:]]
        # E_2(z) = cos(sqrt(-z)): zeros at -(pi/2 + k pi)^2
        expected = [-((0.5 + k) * math.pi) ** 2 for k in range(10)]
        expected = [z for z in expected if z >= -30]
        assert len(zeros) == len(expected)
        for got, ref in zip(sorted(zeros), sorted(expected)):
            assert got == pytest.approx(ref, abs=1e-8)

    def test_zeros_interval_upper_end(self, capsys):
        code, out, _ = run(
            capsys, "ml", "--alpha", "2", "--zeros", "--interval", "-30:-5"
        )
        assert code == EXIT_OK
        zeros = [float(line) for line in out.strip().splitlines()[1:]]
        assert zeros == pytest.approx([-((1.5 * math.pi) ** 2)], abs=1e-8)

    @pytest.mark.parametrize("interval,message", [
        ("-5:-30", "lo < hi"), ("-5:-5", "lo < hi"),
        ("1", "invalid _interval value: '1'"), ("a:b", "invalid _interval value: 'a:b'"),
    ], ids=["-5:-30", "-5:-5", "1", "a:b"])
    def test_zeros_empty_interval(self, capsys, interval, message):
        code, out, err = run(
            capsys, "ml", "--alpha", "2", "--zeros", "--interval", interval
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "argument --interval: " in err and message in err

    def test_far_beta_value(self, capsys):
        # beta = 101 is far above alpha + 1.75 at alpha = 0.1; stepping beta
        # down to reach it once died of a RecursionError
        code, out, _ = run(capsys, "ml", "--alpha", "0.1", "--beta", "101", "--x-range=-5:-5:1")
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["x", "value"]
        assert math.isfinite(float(rows[0][1]))
        assert float(rows[0][1]) == ml_eval(MLOrder(0.1, 101.0), -5.0)

    def test_usage_error(self, capsys):
        for x_range in ("oops", "0:1", "0:1:2:3", "a:1:3", "0:1:n"):
            code, out, err = run(capsys, "ml", "--alpha", "0.5", "--x-range", x_range)
            assert code == EXIT_USAGE
            assert out == ""
            assert f"argument --x-range: invalid _positions value: '{x_range}'" in err


class TestMild:
    def test_mild_exit_zero(self, capsys):
        code, out, _ = run(capsys, "mild", "--alpha", "0.8", "--lambda", "1")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["mild"] is True
        assert obj["rule"] == "SubdiffusiveN1AlphaAboveTwoThirds"

    def test_not_mild_exit_three(self, capsys):
        code, out, _ = run(capsys, "mild", "--alpha", "0.5", "--lambda", "1")
        assert code == EXIT_NOT_MILD
        assert json.loads(out)["mild"] is False

    def test_degenerate_exit_two(self, capsys):
        code, _, err = run(
            capsys, "mild", "--alpha", "0.8", "--lambda", "0", "--mu", "0"
        )
        assert code == EXIT_USAGE
        assert "error" in err

    @pytest.mark.parametrize("argv", [
        ["mild", "--alpha", "0.8", "--lambda", "nan"],
        ["mild", "--alpha", "0.8", "--mu", "nan"],
        ["mild", "--alpha", "0.8", "--lambda", "inf"],
        ["mean", "--alpha", "0.6", "--lambda", "inf", "--x", "1"],
        ["simulate", "--alpha", "1.5", "--half-length", "inf", "--n-points", "64",
         "--n-steps", "16"],
        ["ml", "--alpha", "0.5", "--beta", "inf", "--x-range=-2:2:3"],
    ], ids=["mild-lambda-nan", "mild-mu-nan", "mild-lambda-inf", "mean-lambda-inf",
            "simulate-half-length-inf", "ml-beta-inf"])
    def test_non_finite_parameters_exit_two(self, capsys, argv):
        # mild printed "mild": true for a nan lambda; mean and simulate died
        # of an OverflowError and a ZeroDivisionError
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert "finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["mean", "--alpha", "0.6", "--lambda", "1e200", "--x", "1"],
        ["mean", "--alpha", "0.6", "--t", "1e300", "--x", "1"],
        ["mean", "--alpha", "1.5", "--lambda", "1e-300", "--x", "1"],
        ["variance", "--method", "series", "--alpha", "0.6", "--t", "1e-300", "--x", "1"],
        '{"version": 1, "params": {"alpha": 1.5, "lambda": %s}}',
        '{"version": 1, "params": {"alpha": 1.5}, "kernel": {"type": "uniform", "half_width": %s}}',
    ], ids=["mean-lambda-1e200", "mean-t-1e300", "mean-lambda-1e-300", "variance-t-1e-300",
            "config-lambda-1e400", "config-half-width-1e400"])
    def test_extreme_finite_inputs_exit_two(self, capsys, tmp_path, argv):
        # each died of an OverflowError or a ZeroDivisionError, exit 1; a
        # config's integer 1e400 is exact in JSON and beyond every float
        if isinstance(argv, str):
            path = tmp_path / "big.json"
            path.write_text(argv % ("1" + "0" * 400))
            argv = ["simulate", "--config", str(path)]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_probe_payload(self, capsys):
        code, out, _ = run(
            capsys, "mild", "--alpha", "1.5", "--lambda", "1", "--probe"
        )
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["probe_m1"]["quantity"] == "M1_L1_tail"
        assert obj["probe_m2"]["quantity"] == "M2_spacetime"
        assert obj["probe_m1"]["diverges"] is False
        assert obj["probe_m2"]["status"] == "converges"
        assert obj["probe_m2"]["limit"] == pytest.approx(0.2923775, rel=1e-6)


class TestMeanVariance:
    def test_mean_fourier_alpha_one_matches_heat_kernel(self, capsys):
        code, out, _ = run(
            capsys,
            "mean",
            "--method", "fourier",
            "--alpha", "1",
            "--t-list", "1",
            "--x-range", "-2:2:5",
        )
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        for r in rows:
            t, x, v = float(r[0]), float(r[1]), float(r[2])
            assert v == pytest.approx(heat_kernel(t, x, 1.0), rel=1e-6)
            assert r[3] == "fourier"

    def test_mean_heat_kernel_matches_fourier(self, capsys):
        # at alpha = 1, mu = 0 the Fourier route inverts the heat kernel's
        # transform: they agree to a few ulps of the peak
        argv = ["--t-list", "0.5,1,2", "--x-range", "-3:3:13"]
        code, out, _ = run(capsys, "mean", "--method", "heat_kernel", *argv)
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        _, fourier = parse_csv(run(capsys, "mean", "--method", "fourier", *argv)[1])
        assert [r[3] for r in rows] == ["heat_kernel"] * 39
        peak = max(float(r[2]) for r in rows)
        for r, f in zip(rows, fourier):
            assert r[:2] == f[:2]
            assert float(r[2]) == heat_kernel(float(r[0]), float(r[1]), 1.0)
            assert abs(float(r[2]) - float(f[2])) <= 5e-15 * peak

    def test_mean_mainardi_emits_crosscheck(self, capsys, tmp_path):
        # the printed Mainardi form, reported against the Fourier route: on
        # stderr without --out, next to the output file with it
        argv = ["mean", "--method", "mainardi", "--alpha", "0.6", "--t-list", "0.5,1",
                "--x-range", "-2:2:5"]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert [r[3] for r in rows] == ["mainardi"] * 10
        # the report, then one line on the printed values that are negative
        *report, warning = err.splitlines(keepends=True)
        report = "".join(report)
        negative = [float(r[2]) for r in rows if float(r[2]) < 0.0]
        assert len(negative) == 8
        header, checks = parse_csv(report)
        assert header == ["t", "x", "method_a", "value_a", "method_b", "value_b", "ratio"]
        assert len(checks) == 10
        # and each time's trapezoid mass over x of both routes: the Fourier
        # mean's is below its total of 1 on [-2, 2], the printed form's is negative
        xs = [float(r[1]) for r in rows[:5]]
        masses = [(np.trapezoid([float(r[2]) for r in rows[i : i + 5]], xs),
                   np.trapezoid([float(c[5]) for c in checks[i : i + 5]], xs)) for i in (0, 5)]
        assert all(m < 0.0 < f < 1.0 for m, f in masses)
        assert warning == (
            f"warning: 8 negative mainardi values, minimum {min(negative):.17g}; "
            f"trapezoid mass over x at t=0.5: mainardi {masses[0][0]:.17g}, "
            f"fourier {masses[0][1]:.17g}; at t=1: mainardi {masses[1][0]:.17g}, "
            f"fourier {masses[1][1]:.17g}\n")
        params = DiffusionParams(alpha=0.6)
        for r, c in zip(rows, checks):
            t, x = float(r[0]), float(r[1])
            assert float(r[2]) == pytest.approx(mean_mainardi(t, x, 0.6, 1.0), rel=1e-15)
            assert c[:5] == [r[0], r[1], "mainardi", r[2], "fourier"]
            assert float(c[5]) == pytest.approx(
                mean_fourier(params, KernelSpec(), t, x), rel=1e-15)
        out_path = tmp_path / "mean.csv"
        code, out_file, err_file = run(capsys, *argv, "--out", str(out_path))
        assert (code, out_file, err_file) == (EXIT_OK, "", warning)
        assert out_path.read_text() == out
        assert (tmp_path / "mean.crosscheck.csv").read_text() == report

    def test_mean_has_no_sigma(self, capsys):
        # no mean route reads sigma: the flag is refused, not ignored
        code, out, err = run(capsys, "mean", "--sigma", "5")
        assert code == EXIT_USAGE
        assert out == ""
        assert "--sigma" in err

    def test_variance_quadrature_alpha_one_is_flat(self, capsys):
        # at alpha = 1 the quadrature is the classical integral, whose value
        # sigma^2 sqrt(t / (2 pi lambda)) does not depend on x
        code, out, _ = run(capsys, "variance", "--method", "quadrature", "--alpha", "1",
                           "--t", "0.5", "--x-range", "-3:3:7")
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert [r[2:] for r in rows] == [["0.28209479177387814", "var_quadrature"]] * 7
        assert float(rows[0][2]) == pytest.approx(math.sqrt(0.5 / (2.0 * math.pi)),
                                                  rel=1e-15)
        _, scaled = parse_csv(run(capsys, "variance", "--method", "quadrature", "--alpha",
                                  "1", "--t", "0.5", "--x", "1", "--sigma", "2")[1])
        assert float(scaled[0][2]) == 4.0 * float(rows[0][2])
        # at the defaults t = lambda = sigma = 1: the double nearest 1/sqrt(2 pi)
        code, out, _ = run(capsys, "variance", "--method", "quadrature", "--alpha", "1")
        assert code == EXIT_OK
        assert out.splitlines()[1] == "1,-3,0.3989422804014327,var_quadrature"

    def test_variance_series_resonance_exit_four(self, capsys):
        code, _, err = run(
            capsys,
            "variance",
            "--method", "series",
            "--alpha", "0.5",
            "--t-list", "1",
            "--x-range", "0:1:3",
        )
        assert code == EXIT_RESONANCE
        assert "error" in err

    def test_fig4_beta_table(self, capsys):
        # the table is at the preset's alpha = 0.6, which wins over --alpha
        code, out, _ = run(capsys, "variance", "--preset", "fig4")
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["m", "beta_m"]
        assert len(rows) == 31
        vals = [float(r[1]) for r in rows]
        assert vals[0] == pytest.approx(1.0 / math.gamma(0.6), rel=1e-15)
        assert vals[2] == pytest.approx(2.498548, abs=1e-6)
        assert vals[3] == pytest.approx(2.535194, abs=1e-6)
        assert all(v > 0 for v in vals)
        # the large-m coefficients do decrease (the small-m ones do not)
        tail = vals[10:]
        assert all(a > b for a, b in zip(tail, tail[1:]))
        assert run(capsys, "variance", "--preset", "fig4", "--alpha", "1")[1] == out

    @pytest.mark.parametrize("command, preset, owner", [
        ("mean", "fig2", "variance"), ("mean", "fig4", "variance"),
        ("mean", "fig5", "variance"), ("variance", "fig1", "mean"),
        ("variance", "fig3", "mean")])
    def test_preset_of_other_command_rejected(self, capsys, command, preset, owner):
        code, out, err = run(capsys, command, "--preset", preset)
        assert code == EXIT_USAGE
        assert out == ""
        assert f"preset {preset} belongs to the {owner} command" in err

    def test_closed_variance_emits_crosscheck(self, capsys, tmp_path):
        out_path = tmp_path / "var.csv"
        code, _, _ = run(
            capsys,
            "variance",
            "--method", "closed",
            "--alpha", "1",
            "--t-list", "1",
            "--x-range", "0:1:2",
            "--out", str(out_path),
        )
        assert code == EXIT_OK
        cc = tmp_path / "var.crosscheck.csv"
        assert cc.exists()
        header, rows = parse_csv(cc.read_text())
        assert header == ["t", "x", "method_a", "value_a", "method_b", "value_b", "ratio"]
        assert rows and rows[0][2] == "var_closed"

    def test_series_variance_emits_crosscheck(self, capsys):
        # no --out: the report goes to stderr, the quadrature as method_b
        code, _, err = run(
            capsys,
            "variance",
            "--method", "series",
            "--alpha", "0.6",
            "--t-list", "1",
            "--x-range", "-1:1:3",
        )
        assert code == EXIT_OK
        header, rows = parse_csv(err)
        assert header == ["t", "x", "method_a", "value_a", "method_b", "value_b", "ratio"]
        assert [r[2] for r in rows] == ["var_series"] * 3
        assert [r[4] for r in rows] == ["var_quadrature"] * 3
        assert float(rows[0][5]) == var_frac_quadrature(1.0, 1.0, 0.6, 1.0, 1.0)

    @pytest.mark.filterwarnings("error")
    def test_exact_limits_warn_nothing(self, capsys):
        # x^2 / (4 t) overflows at t = 1e-310, where the kernel is exactly 0;
        # at t = 1e-309 the closed variance over the quadrature's is beyond
        # the float range, so the ratio is inf
        code, out, err = run(capsys, "mean", "--method", "heat_kernel", "--t", "1e-310",
                             "--x-range=0:1:3")
        assert (code, err) == (EXIT_OK, "")
        assert [r[2] for r in parse_csv(out)[1]] == ["2.8209479177387872e+154", "0", "0"]
        code, _, err = run(capsys, "variance", "--method", "closed", "--alpha", "1", "--t",
                           "1e-309", "--x=0")
        assert code == EXIT_OK
        assert err == ("t,x,method_a,value_a,method_b,value_b,ratio\n"
                       "1.0000000000000019e-309,0,var_closed,4.4603102903819224e+153,"
                       "var_quadrature,1.2615662610100721e-155,inf\n")

    def test_crosscheck_exact_zeros_have_ratio_one(self, capsys):
        code, _, err = run(capsys, "variance", "--method", "series", "--alpha", "0.6",
                           "--t-list", "1", "--x-range", "0:1:2")
        assert code == EXIT_OK
        _, rows = parse_csv(err)
        assert rows[0][1:] == ["0", "var_series", "0", "var_quadrature", "0", "1"]
        assert float(rows[1][6]) == float(rows[1][3]) / float(rows[1][5])

    @pytest.mark.parametrize("argv", [
        ["mean", "--method", "mainardi", "--alpha", "0.6"],
        ["mean", "--method", "heat_kernel"],
        ["variance", "--method", "quadrature", "--alpha", "0.8"],
        ["variance", "--method", "series", "--alpha", "0.6"],
        ["variance", "--method", "closed"],
        ["variance", "--preset", "fig5"],
    ], ids=["mainardi", "heat_kernel", "var_quadrature", "var_series", "var_closed",
            "var_preset"])
    def test_mu_zero_routes_reject_mu(self, capsys, argv):
        # these routes are mu = 0 formulas; printing their value for mu = 3
        # would pass it off as the mu = 3 field
        code, out, err = run(capsys, *argv, "--mu", "3", "--x", "1")
        assert code == EXIT_USAGE
        assert out == ""
        assert "mu=0" in err


@pytest.mark.parametrize("argv,line", [
    (["ml", "--alpha", "0.5", "--x-range=-inf:0:3"], "--x-range: must be finite, got '-inf:0:3'"),
    (["variance", "--alpha", "0.6", "--x", "nan"], "--x: must be finite, got 'nan'"),
    (["mean", "--alpha", "0.6", "--t-list", "0.5,inf", "--x", "1"],
     "--t-list/--t: must be finite, got '0.5,inf'"),
    (["mean", "--alpha", "0.6", "--t", "nan", "--x", "1"], "--t-list/--t: must be finite, got 'nan'"),
    (["ml", "--alpha", "1.5", "--zeros", "--interval=-inf:0"],
     "--interval: must be finite, got '-inf:0'"),
    (["mild", "--alpha", "0.8", "--probe", "--t", "nan"], "--t: must be finite, got 'nan'"),
], ids=["x-range", "x", "t-list", "t", "interval", "mild-t"])
def test_non_finite_positions_and_times_exit_two(capsys, argv, line):
    # the x-range printed nan rows with exit 0; the others failed later, on
    # a message that named no flag
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.splitlines()[-1] == f"fracfield {argv[0]}: error: argument {line}"


@pytest.mark.parametrize("argv,message", [
    (["mean", "--x-range=0:1:0"], "range point count must be >= 1"),
    (["variance", "--x-range", "0:1:0"], "range point count must be >= 1"),
    (["mean", "--t-list", ""], "empty time list"),
    (["variance", "--t-list", ","], "empty time list"),
    (["mean", "--method", "bogus"], "unknown mean method 'bogus'"),
    (["variance", "--method", "bogus"], "unknown variance method 'bogus'"),
    (["variance", "--method", "closed", "--alpha", "0.6"],
     "closed variance route has alpha=1 semantics"),
    (["mean", "--method", "heat_kernel", "--alpha", "0.6"],
     "heat_kernel route has alpha=1, mu=0 semantics"),
], ids=["x_range_zero_points", "var_x_range_zero_points", "empty_t_list", "var_empty_t_list",
        "unknown_mean_method", "unknown_variance_method", "closed_alpha", "heat_kernel_alpha"])
def test_profile_input_checks(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert message in err


@pytest.mark.parametrize("argv,message", [
    (["ml", "--alpha", "2.5", "--x-range=-3:-1:3"],
     "E_(2.5,1.0) off the series disc needs alpha <= 2"),
    (["ml", "--alpha", "1.5", "--zeros", "--interval=1:2"], "x_min must be negative"),
    (["ml", "--alpha", "0.8", "--beta", "0.5", "--asymptotic", "--x-range=-3:-1:3"],
     "asymptotics only for beta in {1, alpha}"),
    (["mean", "--x-range=0:1e6:2"], "frequency cutoff 240 needs 7500000 panels"),
    (["mean", "--t", "0"], "mean_fourier requires t > 0"),
    (["mean", "--method", "mainardi", "--alpha", "0.6", "--t", "0"],
     "mean_mainardi requires t > 0 and lambda > 0"),
    (["mean", "--method", "mainardi", "--alpha", "0.5", "--x-range=80:100:2"],
     "mainardi_series loses its digits to cancellation at u=80.0"),
    (["variance", "--t", "0"], "var_classical_quadrature requires t > 0 and lambda > 0"),
    (["variance", "--method", "series", "--alpha", "0.6", "--t", "0"],
     "var_series requires t > 0 and lambda > 0"),
], ids=["ml_alpha_above_2", "zeros_positive_interval", "asymptotic_beta", "mean_panels",
        "mean_t0", "mainardi_t0", "mainardi_cancellation", "variance_t0", "series_t0"])
def test_error_exits(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: {message}\n"


class TestSimulateCli:
    ARGS = [
        "simulate",
        "--alpha", "1",
        "--half-length", "5",
        "--n-points", "64",
        "--n-steps", "16",
        "--seed", "42",
    ]

    def test_thread_env_does_not_change_output(self, capsys, monkeypatch):
        outputs = []
        for threads in ("0", "1", "4"):
            monkeypatch.setenv("FRACFIELD_THREADS", threads)
            code, out, _ = run(capsys, *self.ARGS)
            assert code == EXIT_OK
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_thread_env_does_not_change_ensemble(self, capsys, monkeypatch):
        import hashlib

        argv, digest = GOLDEN_ENSEMBLE_19_SHA256
        for threads in ("0", "1", "2", "3"):
            monkeypatch.setenv("FRACFIELD_THREADS", threads)
            code, out, _ = run(capsys, *argv)
            assert code == EXIT_OK
            assert hashlib.sha256(out.encode()).hexdigest() == digest, threads

    def test_uneven_lanes_do_not_change_ensemble(self, capsys, monkeypatch):
        # 37 paths make nine full 4-seed blocks and a partial one, which two
        # to four lanes share unevenly
        from fracfield import simulate

        argv = ["simulate", "--samples", "37", "--n-points", "64", "--n-steps", "16",
                "--seed", "7"]
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 4)
        outputs = []
        for threads in ("1", "2", "3", "4"):
            monkeypatch.setenv("FRACFIELD_THREADS", threads)
            code, out, _ = run(capsys, *argv)
            assert code == EXIT_OK
            outputs.append(out)
        assert outputs[1:] == outputs[:1] * 3

    def test_default_grid_ensemble_on_one_to_three_threads(self, capsys, monkeypatch):
        # three lanes take the 16 blocks 6, 5 and 5
        import hashlib

        from fracfield import simulate

        argv, digest, _ = GOLDEN_WRITER_SHA256["simulate_default_grid_super"]
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 3)
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("FRACFIELD_THREADS", threads)
            code, out, _ = run(capsys, *argv)
            assert code == EXIT_OK
            assert hashlib.sha256(out.encode()).hexdigest() == digest, threads

    def test_bad_thread_env(self, capsys, monkeypatch):
        monkeypatch.setenv("FRACFIELD_THREADS", "many")
        code, _, err = run(capsys, *self.ARGS)
        assert code == EXIT_USAGE
        assert "FRACFIELD_THREADS" in err

    def test_not_mild_exit(self, capsys):
        code, _, err = run(
            capsys,
            "simulate",
            "--alpha", "0.5",
            "--n-points", "64",
            "--n-steps", "16",
        )
        assert code == EXIT_NOT_MILD
        assert "force" in err

    def test_meta_out(self, capsys, tmp_path):
        meta_path = tmp_path / "meta.json"
        code, out, _ = run(capsys, *self.ARGS, "--meta-out", str(meta_path))
        assert code == EXIT_OK
        meta = json.loads(meta_path.read_text())
        assert meta["seed"] == 42
        assert meta["grid"]["n_points"] == 64
        assert "wall_time_s" in meta
        # timing lives only in the metadata; the CSV stays byte-stable
        assert "wall_time" not in out

    def test_no_meta_out_writes_no_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, *self.ARGS)
        assert code == EXIT_OK and out
        assert list(tmp_path.iterdir()) == []

    def test_meta_out_records_versions(self, capsys, tmp_path):
        # a replay on another numpy can tell why its bytes differ; --config
        # ignores both versions, and still refuses any other key
        meta_path = tmp_path / "meta.json"
        code, out, _ = run(capsys, *self.ARGS, "--samples", "3", "--meta-out", str(meta_path))
        assert code == EXIT_OK
        meta = json.loads(meta_path.read_text())
        assert meta["fracfield_version"] == fracfield.__version__
        assert meta["numpy_version"] == np.__version__
        code, replay, _ = run(capsys, "simulate", "--config", str(meta_path))
        assert (code, replay) == (EXIT_OK, out)
        meta_path.write_text(json.dumps({**meta, "python_version": "3"}))
        code, _, err = run(capsys, "simulate", "--config", str(meta_path))
        assert code == EXIT_USAGE
        assert "unknown config keys: ['python_version']" in err

    def test_grids_in_one_process_print_fresh_process_bytes(self, capsys):
        # a process keeps the "t,x," cells of its two last used grids: the
        # 256-point run evicts the 64-point cells, which the last run rebuilds
        from fracfield import analytic_fields

        fresh = {}
        for n in ("64", "128", "256", "64"):
            argv = ["simulate", "--samples", "2", "--n-points", n, "--n-steps", "16",
                    "--seed", "9"]
            if n not in fresh:
                fresh[n] = _fresh_stdout("-m", "fracfield.cli", *argv)
            code, out, _ = run(capsys, *argv)
            assert code == EXIT_OK
            assert out == fresh[n], n
        assert analytic_fields._t_x.cache_info().currsize == 2

    def test_meta_out_wall_time_survives_clock_step(self, capsys, tmp_path, monkeypatch):
        # a wall clock that steps backwards mid-run must not give a negative duration
        monkeypatch.setattr(time, "time", lambda: 1e9 - time.perf_counter())
        meta_path = tmp_path / "meta.json"
        code, _, _ = run(capsys, *self.ARGS, "--meta-out", str(meta_path))
        assert code == EXIT_OK
        assert json.loads(meta_path.read_text())["wall_time_s"] >= 0.0

    @pytest.mark.parametrize("extra", [["--samples", "4"], ["--alpha", "0.5", "--force"]],
                             ids=["samples", "forced"])
    def test_meta_out_replays(self, capsys, tmp_path, extra):
        # the manifest is a version-1 config: feeding it back repeats the run
        meta_path = tmp_path / "m.json"
        code, out, _ = run(capsys, *self.ARGS, *extra, "--meta-out", str(meta_path))
        assert code == EXIT_OK
        meta = json.loads(meta_path.read_text())
        assert meta["version"] == 1
        code, replay, _ = run(capsys, "simulate", "--config", str(meta_path))
        assert code == EXIT_OK
        assert replay == out

    def test_golden_sample_path(self, capsys):
        # pins the noise realization: the seeded draw layout of simulate_path
        # and the Dirac rows, at alpha=0.8, mu=0.5 on the 64 x 16 grid
        import hashlib

        code, out, _ = run(capsys, "simulate", "--alpha", "0.8", "--mu", "0.5",
                           "--half-length", "5", "--n-points", "64", "--n-steps", "16",
                           "--seed", "42")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_PATH_SHA256

    def test_golden_ensemble_sigma_zero(self, capsys):
        import hashlib

        argv, digest = GOLDEN_ENSEMBLE_SIGMA0_SHA256
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_config_file(self, capsys, tmp_path):
        cases = [
            ({"version": 1,
              "params": {"alpha": 1.0, "lambda": 1.0, "sigma": 1.0},
              "kernel": {"type": "gaussian", "scale": 1.0},
              "grid": {"half_length": 5.0, "n_points": 64, "n_steps": 16},
              "seed": 42},
             self.ARGS, {"alpha": 1.0, "lambda": 1.0, "mu": 0.0, "sigma": 1.0, "dim": 1}),
            ({"version": 1,
              "params": {"alpha": 0.8, "mu": 0.5},
              "grid": {"half_length": 5, "n_points": 64, "n_steps": 16},
              "samples": 3, "seed": 42},
             ["simulate", "--alpha", "0.8", "--mu", "0.5", "--half-length", "5", "--n-points",
              "64", "--n-steps", "16", "--samples", "3", "--seed", "42"],
             {"alpha": 0.8, "lambda": 1.0, "mu": 0.5, "sigma": 1.0, "dim": 1}),
        ]
        # the flags are read as the config they stand for: the same bytes
        # and the same manifest, up to its wall time
        path = tmp_path / "run.json"
        for cfg, flags, params in cases:
            path.write_text(json.dumps(cfg))
            runs = []
            for i, argv in enumerate([["simulate", "--config", str(path)], flags]):
                meta_path = tmp_path / f"meta{i}.json"
                code, out, err = run(capsys, *argv, "--meta-out", str(meta_path))
                assert (code, err) == (EXIT_OK, "")
                meta = json.loads(meta_path.read_text())
                del meta["wall_time_s"]
                runs.append((out, meta))
            assert runs[0] == runs[1]
            assert runs[0][1]["params"] == params

    def test_meta_out_kernel_round_trip(self, capsys, tmp_path):
        cfg = {
            "version": 1,
            "params": {"alpha": 1.0, "lambda": 1.0, "mu": 0.5, "sigma": 1.0},
            "kernel": {"type": "uniform", "half_width": 2.0},
            "grid": {"half_length": 5.0, "n_points": 64, "n_steps": 16},
            "seed": 42,
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        meta_path = tmp_path / "meta.json"
        code, _, _ = run(capsys, "simulate", "--config", str(path), "--meta-out", str(meta_path))
        assert code == EXIT_OK
        meta = json.loads(meta_path.read_text())
        assert meta["kernel"] == cfg["kernel"]
        assert kernel_from_json(meta["kernel"]) == KernelSpec("uniform", 2.0)

    def test_config_unknown_key(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 1, "params": {"alpha": 1.0}, "extra": 1}))
        code, _, err = run(capsys, "simulate", "--config", str(path))
        assert code == EXIT_USAGE
        assert "unknown config keys" in err

    @pytest.mark.parametrize("key", ["quad", "series"])
    def test_config_unread_keys_rejected(self, capsys, tmp_path, key):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 1, "params": {"alpha": 1.0}, key: {}}))
        code, _, err = run(capsys, "simulate", "--config", str(path))
        assert code == EXIT_USAGE
        assert "unknown config keys" in err

    @pytest.mark.parametrize("samples", [0, -3])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_samples_below_one_rejected(self, capsys, tmp_path, source, samples):
        meta_path = tmp_path / "meta.json"
        if source == "flag":
            argv = [*self.ARGS, "--samples", str(samples)]
        else:
            path = tmp_path / "run.json"
            path.write_text(json.dumps({"version": 1, "params": {"alpha": 1.0},
                                        "samples": samples}))
            argv = ["simulate", "--config", str(path)]
        code, out, err = run(capsys, *argv, "--meta-out", str(meta_path))
        assert code == EXIT_USAGE
        assert out == ""
        assert "samples" in err
        assert not meta_path.exists()

    def test_config_missing_alpha(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 1, "params": {}}))
        code, out, err = run(capsys, "simulate", "--config", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert "alpha" in err and "Traceback" not in err

    @pytest.mark.parametrize("section", ["params", "grid"])
    def test_config_section_not_an_object(self, capsys, tmp_path, section):
        cfg = {"version": 1, "params": {"alpha": 1.0}}
        cfg[section] = []
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, "simulate", "--config", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert f'"{section}" must be a JSON object' in err

    @pytest.mark.parametrize("value", [1.5, True], ids=["float", "bool"])
    @pytest.mark.parametrize("section,key", [
        (None, "seed"), (None, "samples"), ("params", "dim"),
        ("grid", "n_points"), ("grid", "n_steps"),
    ])
    def test_config_integer_keys_refuse_non_integers(self, capsys, tmp_path, section,
                                                    key, value):
        # a truncating int() would run seed 1.5 as seed 1
        cfg = {"version": 1, "params": {"alpha": 1.0},
               "grid": {"half_length": 5.0, "n_points": 64, "n_steps": 16}}
        (cfg[section] if section else cfg)[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, "simulate", "--config", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        name = f"{section}.{key}" if section else key
        assert f'"{name}" must be a JSON integer' in err

    def test_manifest_blocks_are_the_dataclass_fields(self, capsys, tmp_path):
        # the params and grid blocks are written from the objects the run
        # used, so every field reaches the replay record and --config reads
        # each one back: a manifest with no default value replays itself
        import dataclasses

        from fracfield.simulate import GridSpec
        from fracfield.symbol import DiffusionParams

        def names(cls):
            return ["lambda" if f.name == "lam" else f.name for f in dataclasses.fields(cls)]

        cfg = {"version": 1,
               "params": {"alpha": 1.5, "lambda": 0.5, "mu": 0.25, "sigma": 2.0, "dim": 1},
               "grid": {"half_length": 4.0, "n_points": 128, "n_steps": 32, "t_end": 0.5,
                        "ic": "zero"},
               "seed": 11, "samples": 2}
        assert list(cfg["params"]) == names(DiffusionParams)
        assert list(cfg["grid"]) == names(GridSpec)
        path, meta_path = tmp_path / "run.json", tmp_path / "meta.json"
        path.write_text(json.dumps(cfg))
        code, _, _ = run(capsys, "simulate", "--config", str(path), "--meta-out",
                         str(meta_path))
        assert code == EXIT_OK
        meta = json.loads(meta_path.read_text())
        assert meta["params"] == cfg["params"] and list(meta["params"]) == names(DiffusionParams)
        assert meta["grid"] == cfg["grid"] and list(meta["grid"]) == names(GridSpec)

    @pytest.mark.parametrize("force", [False, True], ids=["plain", "forced"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_dim_other_than_one_rejected(self, capsys, tmp_path, source, force):
        # the engine is one-dimensional: a dim 2 run would print the dim 1
        # fields under a manifest that says dim 2
        meta_path = tmp_path / "meta.json"
        if source == "flag":
            argv = [*self.ARGS, "--alpha", "1.5", "--dim", "2"]
            if force:
                argv.append("--force")
        else:
            path = tmp_path / "run.json"
            path.write_text(json.dumps({"version": 1, "params": {"alpha": 1.5, "dim": 2},
                                        "force": force}))
            argv = ["simulate", "--config", str(path)]
        code, out, err = run(capsys, *argv, "--meta-out", str(meta_path))
        assert code == EXIT_USAGE
        assert out == ""
        assert ("--dim 2" if source == "flag" else "one-dimensional, got dim=2") in err
        assert not meta_path.exists()

    @pytest.mark.parametrize("cfg,message", [
        ([1], "config must be a JSON object"),
        ({"version": 1, "params": {"alpha": 1.0, "beta": 2.0}}, "unknown params keys: ['beta']"),
        ({"version": 1, "params": {"alpha": 1.0}, "grid": {"width": 3}},
         "unknown grid keys: ['width']"),
        ({"version": 1, "params": {"alpha": 1.0}, "force": 1},
         'config "force" must be true or false'),
    ], ids=["not_object", "params_key", "grid_key", "force_not_bool"])
    def test_config_checks(self, capsys, tmp_path, cfg, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, "simulate", "--config", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_config_non_finite_numbers(self, capsys, tmp_path, monkeypatch, text):
        # json reads NaN and Infinity, and 1e999 as inf; each is refused
        # before any table is built
        from fracfield import simulate

        def no_tables(*args):
            raise AssertionError("tables built for a refused config")

        monkeypatch.setattr(simulate, "snapshot_law", no_tables)
        path = tmp_path / "bad.json"
        path.write_text('{"version": 1, "params": {"alpha": 1.5, "lambda": %s}}' % text)
        code, out, err = run(capsys, "simulate", "--config", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert "finite" in err

    def test_config_bad_version(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 2, "params": {"alpha": 1.0}}))
        code, _, err = run(capsys, "simulate", "--config", str(path))
        assert code == EXIT_USAGE
        assert "version" in err

    @pytest.mark.parametrize("version", [True, 1.0], ids=["bool", "float"])
    def test_config_version_must_be_integer_one(self, capsys, tmp_path, version):
        # true == 1 and 1.0 == 1 in Python, yet neither is the JSON integer 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": version, "params": {"alpha": 1.0}}))
        code, out, err = run(capsys, "simulate", "--config", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert '"version": 1' in err

    @pytest.mark.parametrize("value", ["2", True, 0, -1.5], ids=["str", "bool", "zero", "neg"])
    @pytest.mark.parametrize("kind,key", [("gaussian", "scale"), ("uniform", "half_width")])
    def test_config_kernel_scale_positive_number(self, capsys, tmp_path, kind, key, value):
        # float() would run "2" as scale 2 and true as scale 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 1, "params": {"alpha": 1.0},
                                    "kernel": {"type": kind, key: value}}))
        code, out, err = run(capsys, "simulate", "--config", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert f'"kernel.{key}" must be a positive JSON number' in err

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_seed_outside_uint64_rejected(self, capsys, tmp_path, source, seed):
        # per-sample seeds are mixed mod 2^64, so seed 2^64 would alias seed 0
        meta_path = tmp_path / "meta.json"
        if source == "flag":
            argv = [*self.ARGS, "--seed", str(seed)]
        else:
            path = tmp_path / "run.json"
            path.write_text(json.dumps({"version": 1, "params": {"alpha": 1.0},
                                        "seed": seed}))
            argv = ["simulate", "--config", str(path)]
        code, out, err = run(capsys, *argv, "--meta-out", str(meta_path))
        assert code == EXIT_USAGE
        assert out == ""
        assert "seed must be in [0, 2^64)" in err
        assert not meta_path.exists()


def test_traced_names_resolve():
    # perfbench/tracer.py wraps each (module, name) of its TARGETS in a
    # --trace 1 run, which an untraced benchmark never makes; read them
    # without importing perfbench
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    targets, = [ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]]
    assert targets
    for module, name, _ in targets:
        assert callable(getattr(importlib.import_module(module), name, None)), (module, name)
