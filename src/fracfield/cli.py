"""Command-line interface.

Subcommands:

  ml        evaluate Mittag-Leffler values (optionally bounds/asymptotics/zeros)
  mild      classify mildness of a parameter set, optionally with probes
  mean      mean-field profiles (fourier / mainardi / heat_kernel routes)
  variance  variance profiles (quadrature / series / closed routes)
  simulate  spectral Monte Carlo runs

Exit codes: 0 success (and "mild" for `mild`), 2 usage or domain errors,
3 not-mild, 4 variance-series resonance.  All tabular output is CSV with
17-significant-digit decimals.  FRACFIELD_THREADS sets w, the number of
threads a `simulate --samples N` ensemble computes its paths on: the
usable CPUs when 0 (the default), and never more than the usable CPUs or
the ceil(N/8) blocks of 8 paths, so an ensemble of at most 8 paths stays
on one thread.  Any value yields byte-identical output; a value that is
not a non-negative integer exits 2.
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

from . import __version__
from . import analytic_fields as af
from . import mildness, simulate, special_fn
from .errors import (
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


# A colon spec with the wrong number of parts, or a part that is no number,
# fails to unpack or convert: argparse reports the ValueError as "argument
# --flag: invalid <type function> value: 'spec'" and exits 2.  So does an
# ArgumentTypeError, with its own message.
def _finite(spec: str, values):
    """values, the numbers that spec stands for, if each one is finite."""
    if not np.isfinite(values).all():
        raise argparse.ArgumentTypeError(f"must be finite, got {spec!r}")
    return values


def _positions(spec: str) -> np.ndarray:
    """--x-range 'a:b:n' as n equispaced values from a to b."""
    a, b, n = spec.split(":")
    if int(n) < 1:
        raise argparse.ArgumentTypeError("range point count must be >= 1")
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # b - a may overflow
            return _finite(spec, np.linspace(float(a), float(b), int(n)))
    except MemoryError as exc:  # argparse reports only ArgumentTypeError, TypeError, ValueError
        raise argparse.ArgumentTypeError(f"{int(n)} points do not fit in memory ({exc})")


def _point(spec: str) -> np.ndarray:
    """--x X as the one-point range X:X:1."""
    x = _finite(spec, float(spec))
    return np.linspace(x, x, 1)


def _interval(spec: str) -> tuple:
    """--interval 'lo:hi' as the pair (lo, hi), lo < hi."""
    lo, hi = _finite(spec, [float(v) for v in spec.split(":")])
    if not lo < hi:
        raise argparse.ArgumentTypeError(f"lo:hi needs lo < hi, got {spec!r}")
    return lo, hi


def _times(spec: str) -> list:
    """--t-list 't1,t2,...' (or --t T) as a list of floats."""
    ts = _finite(spec, [float(v) for v in spec.split(",") if v])
    if not ts:
        raise argparse.ArgumentTypeError("empty time list")
    return ts


def _time(spec: str) -> float:
    """mild --t T as a float."""
    return _finite(spec, float(spec))


def _emit(texts, out_path, stream="stdout"):
    """Each of texts in turn into the file out_path, else onto sys.stdout (or
    sys.stderr)."""
    if out_path:
        with open(out_path, "w") as fh:
            fh.writelines(texts)
    else:
        getattr(sys, stream).writelines(texts)


# ---------------------------------------------------------------------------
# ml


def cmd_ml(args) -> int:
    if args.zeros:
        lo, hi = args.interval
        zl = special_fn.ml_real_zeros(args.alpha, lo)
        _emit([af.columns_to_csv("zero", [z for z in zl.zeros if z <= hi])], args.out)
        return EXIT_OK
    xs = args.x_range
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
    _emit([af.columns_to_csv(",".join(header), *columns)], args.out)
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
    _emit([json.dumps(out, indent=2) + "\n"], args.out)
    return EXIT_OK if verdict.mild else EXIT_NOT_MILD


# ---------------------------------------------------------------------------
# mean / variance

# Each preset: its command, and the arguments it stands for, which are parsed
# after the given ones so that they win.  fig4 prints the beta_m table at its
# alpha instead of a profile.
_PRESETS = {
    "fig1": ("mean", "--method=fourier --alpha=1 --t-list=0.5,1,2 --x-range=-3:3:121"),
    "fig2": ("variance", "--method=closed --alpha=1 --t-list=0.5,1,2 --x-range=-3:3:121"),
    "fig3": ("mean", "--method=fourier --alpha=0.6 --t-list=0.5,1,2 --x-range=-3:3:121"),
    "fig4": ("variance", "--alpha=0.6"),
    "fig5": ("variance", "--method=series --alpha=0.6 --t-list=0.5,1,2 --x-range=-3:3:121"),
}


def _emit_crosscheck(profile, check, out_path):
    """Cross-check two profiles on one grid: next to out_path, else to stderr."""
    text = af.crosscheck_to_csv([
        (t, x, profile.method, profile.values[i, j], check.method, check.values[i, j])
        for i, t in enumerate(profile.times)
        for j, x in enumerate(profile.positions)
    ])
    root, ext = os.path.splitext(out_path or "")
    _emit([text], out_path and root + ".crosscheck" + (ext or ".csv"), "stderr")


def _routes(args, params):
    """Each method of args.command: (refusal or None, tag, fn of (t, x), the
    method that cross-checks it or None).  A refusal is the domain error the
    method raises at these arguments."""
    alpha, lam, mu = args.alpha, args.lam, args.mu
    if args.command == "mean":
        kernel = KernelSpec()
        return {
            "fourier": (None, "fourier", lambda t, x: af.mean_fourier(params, kernel, t, x),
                        None),
            "mainardi": ("mainardi route has mu=0 semantics" if mu != 0.0 else None,
                         "mainardi", lambda t, x: af.mean_mainardi(t, x, alpha, lam),
                         "fourier"),
            "heat_kernel": ("heat_kernel route has alpha=1, mu=0 semantics"
                            if alpha != 1.0 or mu != 0.0 else None,
                            "heat_kernel", lambda t, x: af.heat_kernel(t, x, lam), None),
        }
    sigma = args.sigma
    quadrature = ((lambda t, x: af.var_classical_quadrature(t, x, lam, sigma)) if alpha == 1.0
                  else lambda t, x: af.var_frac_quadrature(t, np.abs(x), alpha, lam, sigma))
    return {  # every variance route is a mu = 0 formula: cmd_profile refuses mu first
        "quadrature": (None, "var_quadrature", quadrature, None),
        "closed": ("closed variance route has alpha=1 semantics" if alpha != 1.0 else None,
                   "var_closed", lambda t, x: af.var_classical_closed(t, x, lam, sigma),
                   "quadrature"),
        "series": (None, "var_series", lambda t, x: af.var_series(t, x, alpha, lam, sigma),
                   "quadrature"),
    }


def cmd_profile(args) -> int:
    """mean and variance: the profile of args.method on the t_list x x_range
    grid, then its cross-check report, if the method has one."""
    if args.command == "variance" and args.mu != 0.0:
        raise DomainError("variance routes have mu=0 semantics")
    if args.preset:
        owner = _PRESETS[args.preset][0]
        if owner != args.command:
            raise DomainError(f"preset {args.preset} belongs to the {owner} command")
        if args.preset == "fig4":
            ms = range(31)  # beta_0 .. beta_30
            betas = [af.beta_coeff(m, args.alpha) for m in ms]
            _emit([af.columns_to_csv("m,beta_m", ms, betas)], args.out)
            return EXIT_OK
    params = DiffusionParams(args.alpha, args.lam, args.mu, getattr(args, "sigma", 1.0))
    routes = _routes(args, params)
    if args.method not in routes:
        raise DomainError(f"unknown {args.command} method {args.method!r}")
    refusal, tag, fn, crosscheck = routes[args.method]
    if refusal:
        raise DomainError(refusal)
    profile = af.make_profile(args.t_list, args.x_range, fn, tag, {"alpha": args.alpha})
    _emit(af.profile_csv_parts([profile]), args.out)
    if crosscheck:
        _, check_tag, check_fn, _ = routes[crosscheck]
        check = af.make_profile(args.t_list, args.x_range, check_fn, check_tag)
        _emit_crosscheck(profile, check, args.out)
        negative = profile.values[profile.values < 0.0]
        if negative.size:  # the Mainardi series, printed verbatim, is negative in places
            # a Dirac start's mean has mass 1: each time's trapezoid mass over the
            # printed positions, of the profile and of its cross-check
            xs = np.array(profile.positions)
            masses = "; ".join(
                f"at t={t:.17g}: {tag} {np.trapezoid(v, xs):.17g}, "
                f"{check_tag} {np.trapezoid(c, xs):.17g}"
                for t, v, c in zip(profile.times, profile.values, check.values))
            sys.stderr.write(f"warning: {negative.size} negative {tag} values, "
                             f"minimum {negative.min():.17g}; trapezoid mass over x {masses}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate


def _non_finite(name):
    """json's hook for NaN, Infinity and -Infinity, which no config field takes."""
    raise DomainError(f"config numbers must be finite, got {name}")


def _load_config(path):
    with open(path) as fh:
        cfg = json.load(fh, parse_constant=_non_finite)
    if not isinstance(cfg, dict):
        raise DomainError("config must be a JSON object")
    version = cfg.get("version")
    if type(version) is not int or version != 1:  # true and 1.0 are no version 1
        raise DomainError(f"config requires \"version\": 1, got {version!r}")
    # a --meta-out manifest is a valid config; its wall time and versions are ignored
    allowed = {"version", "params", "kernel", "grid", "seed", "samples", "force",
               "wall_time_s", "fracfield_version", "numpy_version"}
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
    """value as a field of type kind; a JSON bool is no number, and an
    integer beyond the float range no float."""
    types, noun = _JSON_TYPES[kind]
    if not isinstance(value, types) or isinstance(value, bool):
        raise DomainError(f"config \"{name}\" must be a JSON {noun}, got {value!r}")
    try:
        return float(value) if kind == "float" else value
    except OverflowError:
        raise DomainError(f"config \"{name}\" must be a finite number, "
                          "got an integer beyond the float range")


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


def _flag_block(cls, args) -> dict:
    """The config block that the flags stand for: each field of cls that has one."""
    return {_JSON_NAMES.get(f.name, f.name): getattr(args, f.name)
            for f in dataclasses.fields(cls) if hasattr(args, f.name)}


def cmd_simulate(args) -> int:
    simulate._threads()  # a bad FRACFIELD_THREADS fails single paths too
    # without --config the flags are the params and grid of a version-1 config
    cfg = _load_config(args.config) if args.config else {
        "params": _flag_block(DiffusionParams, args),
        "grid": _flag_block(simulate.GridSpec, args)}
    params = _from_json(DiffusionParams, cfg.get("params", {}), "params")
    kernel = kernel_from_json(cfg.get("kernel", {"type": "gaussian", "scale": 1.0}))
    grid = _from_json(simulate.GridSpec, cfg.get("grid", {}), "grid")
    seed = _checked(cfg.get("seed", args.seed), "int", "seed")
    samples = _checked(cfg.get("samples", args.samples), "int", "samples")
    force = cfg.get("force", False)
    if not isinstance(force, bool):
        raise DomainError("config \"force\" must be true or false")
    force = force or args.force
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    if not 0 <= seed < 1 << 64:  # mix_seed works mod 2^64: larger seeds would alias
        raise DomainError(f"seed must be in [0, 2^64), got {seed}")

    t0 = time.perf_counter()
    if samples > 1:
        profiles = simulate.ensemble_stats(params, kernel, grid, samples, seed, force=force)
    else:
        profiles = [simulate.simulate_path(params, kernel, grid, seed, force=force)]
    _emit(af.profile_csv_parts(profiles), args.out)
    if args.meta_out:
        meta = {
            "version": 1,
            "params": _to_json(params),
            "kernel": kernel_to_json(kernel),
            "grid": _to_json(grid),
            "seed": seed,
            "samples": samples,
            "force": force,
            "wall_time_s": time.perf_counter() - t0,
            "fracfield_version": __version__,
            "numpy_version": np.__version__,
        }
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
    ml.add_argument("--x-range", type=_positions, default="0:0:1")
    ml.add_argument("--bounds", action="store_true")
    ml.add_argument("--asymptotic", action="store_true")
    ml.add_argument("--zeros", action="store_true")
    ml.add_argument("--interval", type=_interval, default="-30:0")
    ml.add_argument("--out")
    ml.set_defaults(fn=cmd_ml)

    mild = sub.add_parser("mild", help="mildness classification")
    mild.add_argument("--alpha", type=float, required=True)
    mild.add_argument("--dim", type=int, default=1)
    mild.add_argument("--lambda", dest="lam", type=float, default=1.0)
    mild.add_argument("--mu", type=float, default=0.0)
    mild.add_argument("--probe", action="store_true")
    mild.add_argument("--t", type=_time, default=1.0)
    mild.add_argument("--out")
    mild.set_defaults(fn=cmd_mild)

    for name in ("mean", "variance"):
        c = sub.add_parser(name, help=f"{name} profiles")
        c.add_argument("--method", default="fourier" if name == "mean" else "quadrature")
        c.add_argument("--alpha", type=float, default=1.0)
        c.add_argument("--lambda", dest="lam", type=float, default=1.0)
        c.add_argument("--mu", type=float, default=0.0)
        if name == "variance":  # no mean route reads sigma
            c.add_argument("--sigma", type=float, default=1.0)
        # --t T is --t-list T and --x X is --x-range X:X:1; the last one given wins
        c.add_argument("--t-list", "--t", dest="t_list", type=_times, default="1",
                       help="comma-separated times")
        c.add_argument("--x-range", type=_positions, default="-3:3:121")
        c.add_argument("--x", dest="x_range", type=_point, help="single position")
        c.add_argument("--preset", choices=sorted(_PRESETS),
                       help="a paper figure's arguments, which win over the given ones")
        c.add_argument("--out")
        c.set_defaults(fn=cmd_profile)

    sim = sub.add_parser("simulate", help="spectral Monte Carlo")
    sim.add_argument("--config")
    sim.add_argument("--alpha", type=float, default=1.0)
    sim.add_argument("--lambda", dest="lam", type=float, default=1.0)
    sim.add_argument("--mu", type=float, default=0.0)
    sim.add_argument("--sigma", type=float, default=1.0)
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
    argv = _join_negative_values(list(sys.argv[1:] if argv is None else argv))
    try:
        args = parser.parse_args(argv)
        if getattr(args, "preset", None):
            args = parser.parse_args(argv + _PRESETS[args.preset][1].split())
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ResonanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESONANCE
    except NotMildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_MILD
    except (FracfieldError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:  # finite inputs whose arithmetic leaves the float range
        print(f"error: the inputs leave the floating-point range ({type(exc).__name__})",
              file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
