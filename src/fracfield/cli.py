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
import dataclasses
import functools
import json
import os
import sys
import time

import numpy as np

from . import analytic_fields as af
from . import mildness, simulate, special_fn
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
        if not lo < hi:
            raise DomainError(f"--interval lo:hi needs lo < hi, got {args.interval!r}")
        zl = special_fn.ml_real_zeros(args.alpha, lo)
        _emit(af.columns_to_csv("zero", [z for z in zl.zeros if z <= hi]), args.out)
        return EXIT_OK
    xs = _parse_range(args.x_range)
    order = special_fn.MLOrder(args.alpha, args.beta)
    header = ["x", "value"]
    columns = [xs, special_fn.ml_eval(order, xs)]
    if args.bounds:
        header += ["lower", "upper"]
        columns += special_fn.ml_bounds(args.alpha, np.maximum(-xs, 0.0))
    if args.asymptotic:
        # the expansion is for E(-x) at large x > 0: nan where the argument is >= 0
        header.append("asymptotic")
        columns.append([special_fn.ml_asymptotic_neg(order, -x) if x < 0 else np.nan
                        for x in xs.tolist()])
    _emit(af.columns_to_csv(",".join(header), *columns), args.out)
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
        if args.mu != 0.0:
            raise DomainError("mainardi route has mu=0 semantics")
        fn = lambda t, x: af.mean_mainardi(t, x, args.alpha, args.lam)
        tag = "mainardi"
    elif args.method == "heat_kernel":
        if args.alpha != 1.0 or args.mu != 0.0:
            raise DomainError("heat_kernel route has alpha=1, mu=0 semantics")
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
    if args.mu != 0.0:
        raise DomainError("variance routes have mu=0 semantics")
    if args.preset:
        beta_preset = _apply_preset(args)
        if beta_preset is not None:
            ms = range(beta_preset["max_m"] + 1)
            betas = [af.beta_coeff(m, args.alpha) for m in ms]
            _emit(af.columns_to_csv("m,beta_m", ms, betas), args.out)
            return EXIT_OK
    params = DiffusionParams(args.alpha, args.lam, args.mu, args.sigma, 1)
    ts = _parse_tlist(args.t_list)
    xs = _parse_range(args.x_range)
    frac_quadrature = lambda t, x: af.var_frac_quadrature(
        t, np.abs(x), args.alpha, args.lam, args.sigma
    )
    crosscheck = None
    if args.method == "quadrature":
        if args.alpha == 1.0:
            fn = lambda t, x: af.var_classical_quadrature(t, x, args.lam, args.sigma)
        else:
            fn = frac_quadrature
        tag = "var_quadrature"
    elif args.method == "closed":
        if args.alpha != 1.0:
            raise DomainError("closed variance route has alpha=1 semantics")
        fn = lambda t, x: af.var_classical_closed(t, x, args.lam, args.sigma)
        tag = "var_closed"
        crosscheck = lambda t, x: af.var_classical_quadrature(t, x, args.lam, args.sigma)
    elif args.method == "series":
        fn = lambda t, x: af.var_series(t, x, args.alpha, args.lam, args.sigma)
        tag = "var_series"
        crosscheck = frac_quadrature
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
    # a --meta-out manifest is a valid config; its wall_time_s is ignored
    allowed = {"version", "params", "kernel", "grid", "seed", "samples", "force",
               "wall_time_s"}
    extra = set(cfg) - allowed
    if extra:
        raise DomainError(f"unknown config keys: {sorted(extra)}")
    return cfg


# The params and grid blocks of a config or manifest are the fields of
# DiffusionParams and GridSpec, with lam spelled "lambda".
_JSON_NAMES = {"lam": "lambda"}
_JSON_TYPES = {"float": ((int, float), "number"), "int": (int, "integer"),
               "str": (str, "string")}


def _checked(value, kind, name):
    """value as a field of type kind; a JSON bool is no number."""
    types, noun = _JSON_TYPES[kind]
    if not isinstance(value, types) or isinstance(value, bool):
        raise DomainError(f"config \"{name}\" must be a JSON {noun}, got {value!r}")
    return float(value) if kind == "float" else value


def _to_json(obj) -> dict:
    return {_JSON_NAMES.get(k, k): v for k, v in dataclasses.asdict(obj).items()}


def _from_json(cls, obj, section):
    """cls from a config block; absent keys take the field defaults."""
    if not isinstance(obj, dict):
        raise DomainError(f"config \"{section}\" must be a JSON object")
    fields = {_JSON_NAMES.get(f.name, f.name): f for f in dataclasses.fields(cls)}
    extra = set(obj) - set(fields)
    if extra:
        raise DomainError(f"unknown {section} keys: {sorted(extra)}")
    missing = [k for k, f in fields.items() if k not in obj and f.default is dataclasses.MISSING]
    if missing:
        raise DomainError(f"config \"{section}\" needs {missing}")
    return cls(**{f.name: _checked(obj[k], f.type, f"{section}.{k}")
                  for k, f in fields.items() if k in obj})


def cmd_simulate(args) -> int:
    _threads()  # validate the env var contract even though the engine is serial
    if args.config:
        cfg = _load_config(args.config)
        params = _from_json(DiffusionParams, cfg.get("params", {}), "params")
        kernel = kernel_from_json(cfg.get("kernel", {"type": "gaussian", "scale": 1.0}))
        grid = _from_json(simulate.GridSpec, cfg.get("grid", {}), "grid")
        seed = _checked(cfg.get("seed", args.seed), "int", "seed")
        samples = _checked(cfg.get("samples", args.samples), "int", "samples")
        force = cfg.get("force", False)
        if not isinstance(force, bool):
            raise DomainError("config \"force\" must be true or false")
        force = force or args.force
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
        seed, samples, force = args.seed, args.samples, args.force
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")

    t0 = time.perf_counter()
    if samples > 1:
        stats = simulate.ensemble_stats(params, kernel, grid, samples, seed, force=force)
        profiles = simulate.stats_to_profiles(stats)
    else:
        path = simulate.simulate_path(params, kernel, grid, seed, force=force)
        times, fields = zip(*path.snapshots)
        profiles = [af.Profile(times, tuple(grid.positions().tolist()), np.array(fields),
                               "sample_path")]
    _emit("".join(af.profile_to_csv(p) for p in profiles), args.out)
    meta = {
        "version": 1,
        "params": _to_json(params),
        "kernel": kernel_to_json(kernel),
        "grid": _to_json(grid),
        "seed": seed,
        "samples": samples,
        "force": force,
        "wall_time_s": time.perf_counter() - t0,
    }
    if args.meta_out:
        with open(args.meta_out, "w") as fh:
            json.dump(meta, fh, indent=2)
    return EXIT_OK


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args leaves it unchanged."""
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
