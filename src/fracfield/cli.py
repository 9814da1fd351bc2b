"""Command-line interface.

Subcommands:

  ml        evaluate Mittag-Leffler values (optionally bounds/asymptotics/zeros)
  mild      classify mildness of a parameter set, optionally with probes
  mean      mean-field profiles (fourier / mainardi / heat_kernel routes)
  variance  variance profiles (quadrature / series / closed routes)
  simulate  spectral Monte Carlo runs

Exit codes: 0 success (and "mild" for `mild`), 2 usage or domain errors,
3 not-mild, 4 variance-series resonance.  All tabular output is CSV with
17-significant-digit decimals.  FRACFIELD_THREADS caps internal worker
count (0 = auto); the current engine runs serially, so any value yields
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import analytic_fields as af
from . import mildness, simulate, special_fn
from .analytic_fields import _fmt
from .errors import (
    DegenerateParametersError,
    DomainError,
    FracfieldError,
    NotMildError,
    ResonanceError,
)
from .symbol import DiffusionParams, KernelSpec, kernel_from_json, kernel_to_json

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_MILD = 3
EXIT_RESONANCE = 4


def _threads() -> int:
    raw = os.environ.get("FRACFIELD_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        raise DomainError(f"FRACFIELD_THREADS must be an integer, got {raw!r}")
    if n < 0:
        raise DomainError("FRACFIELD_THREADS must be >= 0")
    return n


def _parse_range(spec: str) -> np.ndarray:
    """Parse 'a:b:n' into n equispaced values from a to b."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise DomainError(f"range must be a:b:n, got {spec!r}")
    a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    if n < 1:
        raise DomainError("range point count must be >= 1")
    return np.linspace(a, b, n)


def _parse_tlist(spec: str):
    ts = [float(v) for v in spec.split(",") if v]
    if not ts:
        raise DomainError("empty time list")
    return ts


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# ml


def cmd_ml(args) -> int:
    if args.zeros:
        lo, hi = (float(v) for v in args.interval.split(":"))
        zl = special_fn.ml_real_zeros(args.alpha, lo, 1e-10)
        lines = ["zero"] + [_fmt(z) for z in zl.zeros]
        _emit("\n".join(lines) + "\n", args.out)
        return EXIT_OK
    xs = _parse_range(args.x_range)
    order = special_fn.MLOrder(args.alpha, args.beta)
    header = ["x", "value"]
    if args.bounds:
        header += ["lower", "upper"]
    if args.asymptotic:
        header.append("asymptotic")
    lines = [",".join(header)]
    values = special_fn.ml_eval(order, xs)
    if args.bounds:
        lower, upper = special_fn.ml_bounds(args.alpha, np.maximum(-xs, 0.0))
    for i, x in enumerate(xs):
        row = [_fmt(x), _fmt(values[i])]
        if args.bounds:
            row += [_fmt(lower[i]), _fmt(upper[i])]
        if args.asymptotic:
            row.append(_fmt(special_fn.ml_asymptotic_neg(order, -float(x))))
        lines.append(",".join(row))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# mild


def cmd_mild(args) -> int:
    params = DiffusionParams(
        alpha=args.alpha, lam=args.lam, mu=args.mu, sigma=1.0, dim=args.dim
    )
    verdict = mildness.classify(params)
    out = mildness.verdict_to_json(verdict)
    if args.probe:
        kernel = KernelSpec()
        out["probe_m1"] = mildness.probe_to_json(
            mildness.probe_m1(params, kernel, args.t)
        )
        out["probe_m2"] = mildness.probe_to_json(
            mildness.probe_m2(params, kernel, args.t)
        )
    _emit(json.dumps(out, indent=2) + "\n", args.out)
    return EXIT_OK if verdict.mild else EXIT_NOT_MILD


# ---------------------------------------------------------------------------
# mean / variance

_PRESETS = {
    "fig1": dict(kind="mean", method="fourier", alpha=1.0,
                 t_list=[0.5, 1.0, 2.0], x_range="-3:3:121"),
    "fig2": dict(kind="variance", method="closed", alpha=1.0,
                 t_list=[0.5, 1.0, 2.0], x_range="-3:3:121"),
    "fig3": dict(kind="mean", method="fourier", alpha=0.6,
                 t_list=[0.5, 1.0, 2.0], x_range="-3:3:121"),
    "fig4": dict(kind="beta", alpha=0.6, max_m=30),
    "fig5": dict(kind="variance", method="series", alpha=0.6,
                 t_list=[0.5, 1.0, 2.0], x_range="-3:3:121"),
}


def _apply_preset(args):
    preset = _PRESETS[args.preset]
    if preset.get("kind") == "beta":
        return preset
    args.method = preset["method"]
    args.alpha = preset["alpha"]
    args.t_list = ",".join(str(t) for t in preset["t_list"])
    args.x_range = preset["x_range"]
    return None


def _crosscheck_path(out_path):
    if not out_path:
        return None
    root, ext = os.path.splitext(out_path)
    return root + ".crosscheck" + (ext or ".csv")


def _emit_crosscheck(profile, check, out_path):
    """Cross-check two profiles on one grid: next to out_path, else to stderr."""
    text = af.crosscheck_to_csv([
        (t, x, profile.method, profile.values[i, j], check.method, check.values[i, j])
        for i, t in enumerate(profile.times)
        for j, x in enumerate(profile.positions)
    ])
    target = _crosscheck_path(out_path)
    if target:
        with open(target, "w") as fh:
            fh.write(text)
    else:
        sys.stderr.write(text)


def cmd_mean(args) -> int:
    if args.preset:
        beta_preset = _apply_preset(args)
        if beta_preset is not None:
            raise DomainError("preset fig4 belongs to the variance command")
    params = DiffusionParams(args.alpha, args.lam, args.mu, args.sigma, 1)
    kernel = KernelSpec()
    ts = _parse_tlist(args.t_list)
    xs = _parse_range(args.x_range)
    if args.method == "fourier":
        fn = lambda t, x: af.mean_fourier(params, kernel, t, x)
        tag = "fourier"
    elif args.method == "mainardi":
        fn = lambda t, x: af.mean_mainardi(t, x, args.alpha, args.lam)
        tag = "mainardi"
    elif args.method == "heat_kernel":
        if args.alpha != 1.0:
            raise DomainError("heat_kernel route has alpha=1 semantics")
        fn = lambda t, x: af.heat_kernel(t, x, args.lam)
        tag = "heat_kernel"
    else:
        raise DomainError(f"unknown mean method {args.method!r}")
    profile = af.make_profile(ts, xs, fn, tag, {"alpha": args.alpha})
    _emit(af.profile_to_csv(profile), args.out)
    if tag == "mainardi":
        check = af.make_profile(ts, xs, lambda t, x: af.mean_fourier(params, kernel, t, x),
                                "fourier")
        _emit_crosscheck(profile, check, args.out)
    return EXIT_OK


def cmd_variance(args) -> int:
    if args.preset:
        beta_preset = _apply_preset(args)
        if beta_preset is not None:
            lines = ["m,beta_m"]
            for m in range(beta_preset["max_m"] + 1):
                lines.append(f"{m},{_fmt(af.beta_coeff(m, args.alpha))}")
            _emit("\n".join(lines) + "\n", args.out)
            return EXIT_OK
    params = DiffusionParams(args.alpha, args.lam, args.mu, args.sigma, 1)
    ts = _parse_tlist(args.t_list)
    xs = _parse_range(args.x_range)
    quad = af.QuadSpec()
    series = af.VarianceSeriesSpec()
    crosscheck = None
    if args.method == "quadrature":
        if args.alpha == 1.0:
            fn = lambda t, x: af.var_classical_quadrature(t, x, args.lam, args.sigma, quad)
        else:
            fn = lambda t, x: af.var_frac_quadrature(
                t, np.abs(x), args.alpha, args.lam, args.sigma, quad
            )
        tag = "var_quadrature"
    elif args.method == "closed":
        if args.alpha != 1.0:
            raise DomainError("closed variance route has alpha=1 semantics")
        fn = lambda t, x: af.var_classical_closed(t, x, args.lam, args.sigma)
        tag = "var_closed"
        crosscheck = lambda t, x: af.var_classical_quadrature(
            t, x, args.lam, args.sigma, quad
        )
    elif args.method == "series":
        fn = lambda t, x: af.var_series(t, x, args.alpha, args.lam, args.sigma, series)
        tag = "var_series"
    else:
        raise DomainError(f"unknown variance method {args.method!r}")
    profile = af.make_profile(ts, xs, fn, tag, {"alpha": args.alpha})
    _emit(af.profile_to_csv(profile), args.out)
    if crosscheck is not None:
        check = af.make_profile(ts, xs, crosscheck, "var_quadrature")
        _emit_crosscheck(profile, check, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate


def _load_config(path):
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise DomainError("config must be a JSON object")
    if cfg.get("version") != 1:
        raise DomainError("config requires \"version\": 1")
    allowed = {"version", "params", "kernel", "grid", "quad", "series", "seed"}
    extra = set(cfg) - allowed
    if extra:
        raise DomainError(f"unknown config keys: {sorted(extra)}")
    return cfg


def _params_from_cfg(obj):
    allowed = {"alpha", "lambda", "mu", "sigma", "dim"}
    extra = set(obj) - allowed
    if extra:
        raise DomainError(f"unknown params keys: {sorted(extra)}")
    return DiffusionParams(
        alpha=float(obj["alpha"]),
        lam=float(obj.get("lambda", 1.0)),
        mu=float(obj.get("mu", 0.0)),
        sigma=float(obj.get("sigma", 1.0)),
        dim=int(obj.get("dim", 1)),
    )


def _grid_from_cfg(obj):
    allowed = {"half_length", "n_points", "n_steps", "t_end", "ic"}
    extra = set(obj) - allowed
    if extra:
        raise DomainError(f"unknown grid keys: {sorted(extra)}")
    return simulate.GridSpec(
        half_length=float(obj.get("half_length", 20.0)),
        n_points=int(obj.get("n_points", 1024)),
        n_steps=int(obj.get("n_steps", 256)),
        t_end=float(obj.get("t_end", 1.0)),
        ic=obj.get("ic", "dirac_spectral"),
    )


def cmd_simulate(args) -> int:
    _threads()  # validate the env var contract even though the engine is serial
    if args.config:
        cfg = _load_config(args.config)
        params = _params_from_cfg(cfg.get("params", {}))
        kernel = kernel_from_json(cfg.get("kernel", {"type": "gaussian", "scale": 1.0}))
        grid = _grid_from_cfg(cfg.get("grid", {}))
        seed = int(cfg.get("seed", args.seed))
    else:
        params = DiffusionParams(args.alpha, args.lam, args.mu, args.sigma, args.dim)
        kernel = KernelSpec()
        grid = simulate.GridSpec(
            half_length=args.half_length,
            n_points=args.n_points,
            n_steps=args.n_steps,
            t_end=args.t_end,
            ic=args.ic,
        )
        seed = args.seed

    t0 = time.time()
    if args.samples > 1:
        stats = simulate.ensemble_stats(
            params, kernel, grid, args.samples, seed, force=args.force
        )
        mean_p, var_p = simulate.stats_to_profiles(stats)
        body = af.profile_to_csv(mean_p) + af.profile_to_csv(var_p)
    else:
        path = simulate.simulate_path(params, kernel, grid, seed, force=args.force)
        lines = ["t,x,value,method"]
        pos = grid.positions()
        for t, f in path.snapshots:
            for x, v in zip(pos, f):
                lines.append(f"{_fmt(t)},{_fmt(x)},{_fmt(v)},sample_path")
        body = "\n".join(lines) + "\n"
    _emit(body, args.out)
    meta = {
        "params": {"alpha": params.alpha, "lambda": params.lam, "mu": params.mu,
                   "sigma": params.sigma, "dim": params.dim},
        "kernel": kernel_to_json(kernel),
        "grid": {"half_length": grid.half_length, "n_points": grid.n_points,
                 "n_steps": grid.n_steps, "t_end": grid.t_end, "ic": grid.ic},
        "seed": seed,
        "samples": args.samples,
        "wall_time_s": time.time() - t0,
    }
    if args.meta_out:
        with open(args.meta_out, "w") as fh:
            json.dump(meta, fh, indent=2)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fracfield", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    ml = sub.add_parser("ml", help="Mittag-Leffler evaluation")
    ml.add_argument("--alpha", type=float, required=True)
    ml.add_argument("--beta", type=float, default=1.0)
    ml.add_argument("--x-range", default="0:0:1")
    ml.add_argument("--bounds", action="store_true")
    ml.add_argument("--asymptotic", action="store_true")
    ml.add_argument("--zeros", action="store_true")
    ml.add_argument("--interval", default="-30:0")
    ml.add_argument("--out")
    ml.set_defaults(fn=cmd_ml)

    mild = sub.add_parser("mild", help="mildness classification")
    mild.add_argument("--alpha", type=float, required=True)
    mild.add_argument("--dim", type=int, default=1)
    mild.add_argument("--lambda", dest="lam", type=float, default=1.0)
    mild.add_argument("--mu", type=float, default=0.0)
    mild.add_argument("--probe", action="store_true")
    mild.add_argument("--t", type=float, default=1.0)
    mild.add_argument("--out")
    mild.set_defaults(fn=cmd_mild)

    for name, fn in (("mean", cmd_mean), ("variance", cmd_variance)):
        c = sub.add_parser(name, help=f"{name} profiles")
        c.add_argument("--method", default="fourier" if name == "mean" else "quadrature")
        c.add_argument("--alpha", type=float, default=1.0)
        c.add_argument("--lambda", dest="lam", type=float, default=1.0)
        c.add_argument("--mu", type=float, default=0.0)
        c.add_argument("--sigma", type=float, default=1.0)
        c.add_argument("--t-list", default="1", help="comma-separated times")
        c.add_argument("--t", type=float, help="single time (overrides --t-list)")
        c.add_argument("--x-range", default="-3:3:121")
        c.add_argument("--x", type=float, help="single position (overrides --x-range)")
        c.add_argument("--preset", choices=sorted(_PRESETS))
        c.add_argument("--out")
        c.set_defaults(fn=fn)

    sim = sub.add_parser("simulate", help="spectral Monte Carlo")
    sim.add_argument("--config")
    sim.add_argument("--alpha", type=float, default=1.0)
    sim.add_argument("--lambda", dest="lam", type=float, default=1.0)
    sim.add_argument("--mu", type=float, default=0.0)
    sim.add_argument("--sigma", type=float, default=1.0)
    sim.add_argument("--dim", type=int, default=1)
    sim.add_argument("--half-length", type=float, default=20.0)
    sim.add_argument("--n-points", type=int, default=1024)
    sim.add_argument("--n-steps", type=int, default=256)
    sim.add_argument("--t-end", type=float, default=1.0)
    sim.add_argument("--ic", default="dirac_spectral")
    sim.add_argument("--samples", type=int, default=1)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--force", action="store_true")
    sim.add_argument("--out")
    sim.add_argument("--meta-out")
    sim.set_defaults(fn=cmd_simulate)
    return p


def _join_negative_values(argv):
    """Fuse '--x-range -1:1:3' style pairs into '--x-range=-1:1:3'.

    argparse would otherwise mistake the leading dash of the value for an
    option name.
    """
    value_flags = {"--x-range", "--interval", "--t-list", "--x", "--t"}
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in value_flags and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(tok + "=" + argv[i + 1])
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_negative_values(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    if getattr(args, "t", None) is not None:
        args.t_list = str(args.t)
    if getattr(args, "x", None) is not None and args.fn in (cmd_mean, cmd_variance):
        args.x_range = f"{args.x}:{args.x}:1"
    try:
        return args.fn(args)
    except ResonanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESONANCE
    except NotMildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_MILD
    except (DegenerateParametersError, DomainError, FracfieldError, OSError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
