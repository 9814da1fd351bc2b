"""End-to-end tests of the command-line interface (in-process)."""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import fracfield
from fracfield.analytic_fields import heat_kernel, var_frac_quadrature
from fracfield.cli import (
    EXIT_NOT_MILD,
    EXIT_OK,
    EXIT_RESONANCE,
    EXIT_USAGE,
    build_parser,
    main,
)
from fracfield.special_fn import MLOrder, ml_asymptotic_neg, ml_bounds, ml_eval
from fracfield.symbol import KernelSpec, kernel_from_json


GOLDEN_PATH_SHA256 = "cddb572cf5cdcac02a4886eaaf5c47c6aa36731aeb4a535283f8e93a9369a2df"

# stdout digest of a noise-free ensemble: its mean is the synthesized Dirac
# rows and its variance zero, so no ensemble reduction may move a bit of it
GOLDEN_ENSEMBLE_SIGMA0_SHA256 = (
    ["simulate", "--n-points", "64", "--n-steps", "16", "--samples", "4", "--seed", "3",
     "--sigma", "0"],
    "5deef8669906f549e06f3fd5c189ce5c6a619788fb31e2b57b319277f87c8652")

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
# beta table and the zeros list
GOLDEN_WRITER_SHA256 = {
    "simulate_samples_4": (
        ["simulate", "--n-points", "64", "--n-steps", "16", "--samples", "4",
         "--seed", "3"],
        "a65493cfe3c3615d2eb788303347ca6956bb3ecfe86f67bd1f1f2a78a9dd9b35",
        _EMPTY_SHA256),
    "variance_closed_crosscheck": (
        ["variance", "--method", "closed", "--alpha", "1", "--x-range=-3:3:13"],
        "43121223312ebe4f54e9e184d7bdaeeed971db26606739422dd90fcf63e88254",
        "987c8fefd5d6cd2ca51cef2a64deb3e06f17f42ca23f6fbd6208d2d0ea1b348d"),
    "ml_bounds_asymptotic": (
        ["ml", "--alpha", "0.5", "--x-range=-10:-1:10", "--bounds", "--asymptotic"],
        "d605482620162b046223f93b362a3b09d0187d4b3b3f78de00f4ad99624f4b4b",
        _EMPTY_SHA256),
    "variance_fig4": (
        ["variance", "--preset", "fig4"],
        "a435aa1f4e5f980dde8379f8ee699b51d081e6728ccbbbf51d3ebb330f6a3f76",
        _EMPTY_SHA256),
    "ml_zeros": (
        ["ml", "--alpha", "1.5", "--zeros"],
        "1197be7f9c8b6cf20aae8c7d61c0ff36cba8acaa34f83a601a46db40db11aa1b",
        _EMPTY_SHA256),
}


def _fresh_python(probe):
    """stdout of probe run in a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(fracfield.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout.strip()


def test_import_loads_no_scipy():
    # every CLI process pays the import; a fresh interpreter shows what it loads
    probe = ("import sys, fracfield.cli; "
             "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert _fresh_python(probe) == "[]"


def test_commands_load_no_numpy_ma():
    # np.unique imports numpy.ma on first use, 11-14 ms and 1.3 MB per process
    argvs = [
        ["ml", "--alpha", "0.6", "--x-range=-40:2:85", "--bounds", "--asymptotic"],
        ["mean", "--method", "fourier", "--alpha", "0.6", "--x-range=0:2:9"],
        ["variance", "--method", "quadrature", "--alpha", "0.6", "--t", "1", "--x", "1"],
        ["variance", "--preset", "fig5"],
        ["mild", "--alpha", "0.8", "--probe"],
        ["simulate", "--n-points", "64", "--n-steps", "16", "--samples", "4", "--alpha", "0.8",
         "--mu", "0.5"],
    ]
    probe = ("import contextlib, io, sys\n"
             "from fracfield.cli import main\n"
             f"for argv in {argvs!r}:\n"
             "    with contextlib.redirect_stdout(io.StringIO()):\n"
             "        assert main(argv) == 0, argv\n"
             "print('numpy.ma' in sys.modules)")
    assert _fresh_python(probe) == "False"


def test_commands_run_without_scipy():
    # None in sys.modules makes any scipy import raise ImportError
    argvs = [
        ["ml", "--alpha", "0.6", "--x-range=-40:2:85", "--bounds", "--asymptotic"],
        ["mean", "--method", "fourier", "--alpha", "1.5", "--x-range=0:8:5"],
        ["variance", "--preset", "fig5"],
        ["mild", "--alpha", "0.8", "--probe"],
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
    # next, a usage error and a preset (which rewrites its arguments) included
    assert build_parser() is build_parser()
    sequence = [
        ["mean", "--x", "1"],
        ["mean"],
        ["variance", "--bogus"],
        ["variance", "--preset", "fig5"],
        ["variance", "--method", "quadrature", "--alpha", "0.6"],
        ["simulate", "--samples", "1"],
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

    @pytest.mark.parametrize("interval", ["-5:-30", "-5:-5"])
    def test_zeros_empty_interval(self, capsys, interval):
        code, _, err = run(
            capsys, "ml", "--alpha", "2", "--zeros", "--interval", interval
        )
        assert code == EXIT_USAGE
        assert "lo < hi" in err

    def test_usage_error(self, capsys):
        code, _, _ = run(capsys, "ml", "--alpha", "0.5", "--x-range", "oops")
        assert code == EXIT_USAGE


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
        code, out, _ = run(capsys, "variance", "--preset", "fig4")
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["m", "beta_m"]
        assert len(rows) == 31
        vals = [float(r[1]) for r in rows]
        assert all(v > 0 for v in vals)
        # the large-m coefficients do decrease (the small-m ones do not)
        tail = vals[10:]
        assert all(a > b for a, b in zip(tail, tail[1:]))

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
        cfg = {
            "version": 1,
            "params": {"alpha": 1.0, "lambda": 1.0, "sigma": 1.0},
            "kernel": {"type": "gaussian", "scale": 1.0},
            "grid": {"half_length": 5.0, "n_points": 64, "n_steps": 16},
            "seed": 42,
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        code, out_cfg, _ = run(capsys, "simulate", "--config", str(path))
        assert code == EXIT_OK
        _, out_flags, _ = run(capsys, *self.ARGS)
        assert out_cfg == out_flags

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
               "params": {"alpha": 1.5, "lambda": 0.5, "mu": 0.25, "sigma": 2.0, "dim": 2},
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
