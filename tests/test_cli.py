"""End-to-end tests of the command-line interface (in-process)."""

import json
import math

import numpy as np
import pytest

from fracfield.analytic_fields import heat_kernel
from fracfield.cli import EXIT_NOT_MILD, EXIT_OK, EXIT_RESONANCE, EXIT_USAGE, main
from fracfield.special_fn import MLOrder, ml_bounds, ml_eval
from fracfield.symbol import KernelSpec, kernel_from_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


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

    def test_config_bad_version(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 2, "params": {"alpha": 1.0}}))
        code, _, err = run(capsys, "simulate", "--config", str(path))
        assert code == EXIT_USAGE
        assert "version" in err
