"""Mildness classification and numerical integrability probes.

A parameter set (alpha, lambda, mu, N) admits a mild solution exactly when

    lambda > 0  and  N < 4 - 2/alpha,

the condition under which the variance V(t) is finite.  Read in the three
regimes of alpha in (0, 2), the inequality says:

  * 0 < alpha < 1: 4 - 2/alpha < 2, so only N = 1, and only for
    alpha > 2/3 (strict: at alpha = 2/3 the bound is 1);
  * alpha = 1: the bound is 2, so N = 1;
  * 1 < alpha < 2: the bound lies in (2, 3), so N in {1, 2}.

With lambda = 0 the symbol saturates at mu for high frequencies, the
relevant Fourier integrals diverge, and no dimension is mild.

`classify` decides by the inequality and labels the verdict by its regime;
`probe_m1` / `probe_m2` evaluate the truncated integrals behind it on a
refining cutoff schedule and read their limit by Aitken's delta^2 process.
The cut-offs are powers of ten in the model's own units (K in units of
1/l, l = sqrt(lambda t^alpha), and eps in units of t), so the values obey
the model's scaling laws and the verdict does not move with lambda or t.
The probes are numerical evidence, not proof.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateParametersError, DomainError
from .special_fn import MLOrder, gl_panels, ml_eval
from .symbol import DiffusionParams, KernelSpec, symbol_a

__all__ = [
    "Rule",
    "MildnessVerdict",
    "ProbeReport",
    "classify",
    "lemma_lp_condition",
    "lemma_b_condition",
    "prop_superdiffusive_condition",
    "probe_m1",
    "probe_m2",
    "verdict_to_json",
    "probe_to_json",
]


class Rule(enum.Enum):
    LAMBDA_ZERO_NOT_MILD = "LambdaZeroNotMild"
    ALPHA_ONE_N1 = "AlphaOneN1"
    SUBDIFFUSIVE_N1 = "SubdiffusiveN1AlphaAboveTwoThirds"
    SUPERDIFFUSIVE_N12 = "SuperdiffusiveN12"
    NOT_MILD_OTHERWISE = "NotMildOtherwise"


@dataclass(frozen=True)
class MildnessVerdict:
    mild: bool
    rule: Rule
    detail: str


@dataclass(frozen=True)
class ProbeReport:
    """Truncated-integral values along a refining cutoff schedule.

    `status` is "converges" or "diverges", and `diverges` says the same as a
    boolean.  `limit` is the Aitken extrapolation of the values (None when
    they diverge); `tail_exponent_fit` is the power of the cutoff scale that
    their last steps shrink or grow by (None when the last step is rounding).
    """

    quantity: str  # "M1_L1_tail" or "M2_spacetime"
    cutoffs: tuple
    values: tuple
    tail_exponent_fit: float | None
    diverges: bool
    status: str
    limit: float | None


# (regime, mild) -> (rule, detail); the regime is -1, 0 or 1 as alpha is
# below, at or above 1
_READINGS = {
    (-1, True): (Rule.SUBDIFFUSIVE_N1, "N=1 and alpha={a} > 2/3"),
    (-1, False): (Rule.NOT_MILD_OTHERWISE, "subdiffusive range requires N=1 and "
                  "alpha > 2/3 (strict); got alpha={a}, N={n}"),
    (0, True): (Rule.ALPHA_ONE_N1, "alpha=1 with N=1"),
    (0, False): (Rule.NOT_MILD_OTHERWISE, "alpha=1 requires N=1, got N={n}"),
    (1, True): (Rule.SUPERDIFFUSIVE_N12, "1<alpha<2 with N={n} in {{1,2}}"),
    (1, False): (Rule.NOT_MILD_OTHERWISE, "1<alpha<2 requires N in {{1,2}}, got N={n}"),
}


def classify(params: DiffusionParams) -> MildnessVerdict:
    """Exact mildness decision: lambda > 0 and N < 4 - 2/alpha."""
    a, n = params.alpha, params.dim
    if params.lam == 0 and params.mu == 0:
        raise DegenerateParametersError("lambda = mu = 0 leaves no spatial operator")
    if params.lam == 0:
        return MildnessVerdict(
            False,
            Rule.LAMBDA_ZERO_NOT_MILD,
            "lambda=0: the symbol saturates at mu, the frequency integral "
            "diverges for every dimension",
        )
    mild = n < 4.0 - 2.0 / a
    rule, detail = _READINGS[(a > 1.0) - (a < 1.0), mild]
    return MildnessVerdict(mild, rule, detail.format(a=a, n=n))


def lemma_lp_condition(alpha: float, n: int, p: float, which: str) -> bool:
    """L^p membership of the Mittag-Leffler frequency profiles.

    For 0 < alpha < 1: E_alpha(-|xi|^2) is in L^p iff N < 2p, and
    E_{alpha,alpha}(-|xi|^2) iff N < 4p.  For 1 <= alpha < 2 this returns
    True for every N and p, as the paper states; that holds only at
    alpha = 1 (exp).  For 1 < alpha < 2 the profiles keep the algebraic
    tails x^-1 / Gamma(1 - alpha) and -x^-2 / Gamma(-alpha), so the same
    bounds apply: probe_m1 measures the L^1 norm growing like log K at N = 2.
    """
    if not 0 < alpha < 2:
        raise DomainError("alpha must lie in (0, 2)")
    if which not in ("E_alpha", "E_alpha_alpha"):
        raise DomainError(f"unknown profile {which!r}")
    if alpha >= 1:
        return True
    bound = 2 * p if which == "E_alpha" else 4 * p
    return n < bound


def lemma_b_condition(alpha: float, n: int) -> bool:
    """Finiteness of the subdiffusive space-time integral: N < 4 - 2/alpha,
    which below alpha = 1 means N = 1 and alpha > 2/3."""
    if not 0 < alpha < 1:
        raise DomainError("lemma_b_condition requires 0 < alpha < 1")
    return n < 4.0 - 2.0 / alpha


def prop_superdiffusive_condition(alpha: float, n: int) -> bool:
    """Finiteness in the superdiffusive range: N < 4 - 2/alpha."""
    if not 1 < alpha < 2:
        raise DomainError("prop_superdiffusive_condition requires 1 < alpha < 2")
    return n < 4.0 - 2.0 / alpha


# ---------------------------------------------------------------------------
# numerical probes
#
# The cut-offs are integer powers of ten in the model's own units: K in units
# of 1/l, l = sqrt(lambda t^alpha) (kernel.scale sqrt(mu t^alpha) at
# lambda = 0, where nothing decays), and eps in units of t.  The rules in
# those units are fixed, 10 Gauss-Legendre nodes on [0, 1] and on each
# quarter decade up to K (10 + 40 log10 K nodes), and on each quarter decade
# from eps up to 1 (-40 log10 eps), so every schedule entry's grid is a
# prefix in r and a suffix in s of the finest entry's grid, whatever t,
# lambda, mu and the kernel.

# Table points per ml_eval call in _radial: its arguments and values stay at
# 32 KiB, below glibc's 128 KiB mmap and trim threshold, from which a
# long-lived process would fault in fresh pages for them on every probe.
_TABLE_BLOCK = 1 << 12
# a step ratio of at least this reads as divergent: a tail that shrinks by
# less than 4.3e-4 decades per decade of the cutoff is not told from none
_RATIO_MAX = 1.0 - 1e-3
# a last step below this fraction of the values is rounding, not a tail
_ROUNDING = 1e-12
# 10^d -> d for every power of ten a float holds
_DECADES = {float(f"1e{d}"): d for d in range(-323, 309)}


@functools.lru_cache(maxsize=None)
def _rule(lo, hi):
    """Gauss-Legendre nodes and weights, 10 per panel, on the quarter decades
    from 10^lo to 10^hi, after the panel [0, 1] when lo = 0 (the radial rule)."""
    edges = 10.0 ** (np.arange(4 * lo, 4 * hi + 1) / 4)
    return gl_panels(np.concatenate(([0.0], edges)) if lo == 0 else edges, 10)


def _surface_factor(n: int) -> float:
    """Surface measure of the unit sphere in R^n (2 for n=1)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # _report refuses the result
def _radial(params, kernel, t, order, power, s, entries):
    """omega_{N-1} * int_0^K (E_order(-s^alpha a(r)))^power r^(N-1) dr for each
    entry (m, d): K = 10^d / l and the times s[m:].

    One table holds the integrand E^power r^(N-1) on the finest grid, filled
    by ml_eval in blocks of _TABLE_BLOCK points, and each entry sums its
    corner table[m:, :n] (its n = 10 + 40 d radial nodes) as one matrix.
    ml_eval is pointwise, so every sum equals that of an evaluation on the
    entry's grid alone.
    """
    if not t > 0:
        raise DomainError("the probes require t > 0")
    if params.lam == 0 and params.mu == 0:
        raise DegenerateParametersError("lambda = mu = 0 leaves no spatial operator")
    ell = math.sqrt((params.lam or params.mu * kernel.scale**2) * t**params.alpha)
    s_alpha = s**params.alpha
    rho, omega = _rule(0, entries[-1][1])
    r, w = rho / ell, omega / ell
    a, r_power = symbol_a(params, kernel, r), r ** (params.dim - 1)
    table = np.empty((s_alpha.size, r.size))
    rows = max(1, _TABLE_BLOCK // r.size)
    for lo in range(0, s_alpha.size, rows):
        e = ml_eval(order, -np.outer(s_alpha[lo : lo + rows], a))
        np.multiply(e**power, r_power, out=table[lo : lo + rows])
    return [_surface_factor(params.dim) * (table[m:, : 10 + 40 * d] @ w[: 10 + 40 * d])
            for m, d in entries]


def _report(quantity, cutoffs, scales, values):
    """ProbeReport of values that refine on a geometric schedule of scales.

    A tail c * scale^p shrinks by the same ratio r = d2/d1 at every step, d1
    and d2 being the last two increments, so Aitken's delta^2 process gives
    the limit v3 + d2 r / (1 - r) and the exponent p = log|r| / log(q), q
    being the scales' ratio per step (the geometric mean of the last two).
    The values converge when |r| < _RATIO_MAX, or when d2 is at rounding
    level (then the limit is v3 and no exponent can be read).  The values
    scale as l^-N; where one or the limit leaves the range of normal
    floats, DomainError.
    """
    v1, v2, v3 = values[-3:]
    d1, d2 = v2 - v1, v3 - v2
    if abs(d2) <= _ROUNDING * max(abs(v1), abs(v2), abs(v3)):
        limit, fit = v3, None
    else:
        r = d2 / d1 if d1 else math.inf
        fit = math.log(abs(r)) / (0.5 * math.log(scales[-1] / scales[-3]))
        limit = v3 + d2 * r / (1.0 - r) if abs(r) < _RATIO_MAX else None
    if not all(sys.float_info.min <= abs(v) < math.inf for v in (*values, limit or 1.0)):
        raise DomainError(f"{quantity} leaves the floating-point range: {values}, limit {limit}")
    status = "diverges" if limit is None else "converges"
    return ProbeReport(quantity, tuple(cutoffs), tuple(values), fit, limit is None, status, limit)


def probe_m1(
    params: DiffusionParams,
    kernel: KernelSpec,
    t: float,
    cutoff_schedule=(1e2, 1e3, 1e4),
) -> ProbeReport:
    """Truncated first-moment frequency integral int_{|xi|<=K} E_alpha(-a t^alpha) dxi,
    K in units of 1/l."""
    ks = [float(k) for k in cutoff_schedule]
    ds = [_DECADES.get(k, -1) for k in ks]
    if len(ks) < 3 or any(b <= a for a, b in zip(ks, ks[1:])) or min(ds) < 0:
        raise DomainError("cutoffs must be >= 3 increasing powers of ten, K >= 1 (units of 1/l)")
    radial = _radial(params, kernel, t, MLOrder(params.alpha, 1.0), 1, np.array([t]),
                     [(0, d) for d in ds])
    return _report("M1_L1_tail", ks, ks, [float(v[0]) for v in radial])


def probe_m2(
    params: DiffusionParams,
    kernel: KernelSpec,
    t: float,
    cutoff_schedule=((1e2, 1e-2), (1e3, 1e-3), (1e4, 1e-4)),
) -> ProbeReport:
    """Truncated second-moment space-time integral.

    sigma^2 (2 pi)^(-N) int_eps^t s^(2 alpha - 2)
        int_{|xi|<=K} (E_{alpha,alpha}(-s^alpha a(xi)))^2 dxi ds,
    evaluated on a jointly refining (K, eps) schedule, K in units of 1/l and
    eps in units of t, with quarter-decade time panels accumulating at s = 0.
    The coarser entries' nodes are among the finest entry's, so the default
    schedule costs one evaluation of its finest 160 x 170 grid at every t.
    """
    sched = [(float(k), float(e)) for k, e in cutoff_schedule]
    ds = [(_DECADES.get(k, -1), _DECADES.get(e, 0)) for k, e in sched]
    if len(ds) < 3 or min(d for d, _ in ds) < 0 or max(e for _, e in ds) > -1 or any(
            d1 < d0 or e1 > e0 or (d1, e1) == (d0, e0) for (d0, e0), (d1, e1) in zip(ds, ds[1:])):
        raise DomainError("schedule must refine through >= 3 powers of ten: K >= 1 (in units "
                          "of 1/l) nondecreasing, eps <= 0.1 (in units of t) nonincreasing")
    s, ws = (t * a for a in _rule(ds[-1][1], 0))
    entries = [(40 * (e - ds[-1][1]), d) for d, e in ds]
    radial = _radial(params, kernel, t, MLOrder(params.alpha, params.alpha), 2, s, entries)
    norm = params.sigma**2 * (2.0 * math.pi) ** (-params.dim)
    values = [norm * float(np.dot(ws[m:], s[m:] ** (2.0 * params.alpha - 2.0) * rad))
              for (m, _), rad in zip(entries, radial)]
    # the scale of the tail: K when it refines, otherwise 1/eps
    k_refines = sched[-1][0] > sched[0][0]
    scales = [k if k_refines else 1.0 / e for k, e in sched]
    return _report("M2_spacetime", sched, scales, values)


def verdict_to_json(verdict: MildnessVerdict) -> dict:
    return {"mild": verdict.mild, "rule": verdict.rule.value, "detail": verdict.detail}


def probe_to_json(report: ProbeReport) -> dict:
    return {
        "quantity": report.quantity,
        "cutoffs": [list(c) if isinstance(c, tuple) else c for c in report.cutoffs],
        "values": list(report.values),
        "diverges": report.diverges,
        "status": report.status,
        "tail_exponent_fit": report.tail_exponent_fit,
        "limit": report.limit,
    }
