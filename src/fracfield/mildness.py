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
The probes are numerical evidence, not proof.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateParametersError, DomainError
from .special_fn import MLOrder, _distinct, gl_panels, ml_eval
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

_PANELS_PER_DECADE = 4
# a step ratio of at least this reads as divergent: a tail that shrinks by
# less than 4.3e-4 decades per decade of the cutoff is not told from none
_RATIO_MAX = 1.0 - 1e-3
# a last step below this fraction of the values is rounding, not a tail
_ROUNDING = 1e-12


def _geometric_edges(lo: float, hi: float):
    """Panel edges geometric between lo and hi (lo > 0), 4 panels per decade."""
    decades = math.log10(hi / lo)
    n = max(int(math.ceil(decades * _PANELS_PER_DECADE)), 4)
    return np.geomspace(lo, hi, n + 1)


def _surface_factor(n: int) -> float:
    """Surface measure of the unit sphere in R^n (2 for n=1)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def _pooled(arrays):
    """Sorted distinct values of several 1-d arrays, and each array's indices
    into them."""
    pool = _distinct(np.concatenate(arrays))
    return pool, [np.searchsorted(pool, a) for a in arrays]


def _radial(params, kernel, order, power, s_alphas, cutoffs):
    """omega_{N-1} * int_0^K (E_order(-s^alpha a(r)))^power r^(N-1) dr per s^alpha,
    for each cutoff K and its array of s^alpha values.

    Radial Gauss-Legendre nodes on [0, min(1, K)] plus geometric panels up
    to K.  The entries pool their nodes: one ml_eval call covers every
    (s^alpha, r) pair some entry needs, once, and each entry sums its own
    sub-grid of that table.  For cutoffs that are powers of ten the r-edges
    step by a quarter decade from 1, so a schedule whose s-nodes nest too
    has its coarser grids inside the finest one, at no extra evaluation.
    ml_eval is pointwise, so every sum equals that of an evaluation on the
    entry's grid alone, nested or not.
    """
    grids = [gl_panels(np.concatenate(([0.0], _geometric_edges(min(1.0, k), k))), 10)
             for k in cutoffs]
    r_pool, r_index = _pooled([r for r, _ in grids])
    s_pool, s_index = _pooled(s_alphas)
    need = np.zeros((s_pool.size, r_pool.size), dtype=bool)
    for si, ri in zip(s_index, r_index):
        need[np.ix_(si, ri)] = True
    table = np.empty(need.shape)
    table[need] = ml_eval(order, -np.outer(s_pool, symbol_a(params, kernel, r_pool))[need])
    return [_surface_factor(params.dim)
            * ((table[np.ix_(si, ri)] ** power * r ** (params.dim - 1)) @ w)
            for (r, w), ri, si in zip(grids, r_index, s_index)]


def _report(quantity, cutoffs, scales, values):
    """ProbeReport of values that refine on a geometric schedule of scales.

    A tail c * scale^p shrinks by the same ratio r = d2/d1 at every step, d1
    and d2 being the last two increments, so Aitken's delta^2 process gives
    the limit v3 + d2 r / (1 - r) and the exponent p = log|r| / log(q), q
    being the scales' ratio per step (the geometric mean of the last two).
    The values converge when |r| < _RATIO_MAX, or when d2 is at rounding
    level (then the limit is v3 and no exponent can be read).
    """
    v1, v2, v3 = values[-3:]
    d1, d2 = v2 - v1, v3 - v2
    if abs(d2) <= _ROUNDING * max(abs(v1), abs(v2), abs(v3)):
        limit, fit = v3, None
    else:
        r = d2 / d1 if d1 else math.inf
        fit = math.log(abs(r)) / (0.5 * math.log(scales[-1] / scales[-3]))
        limit = v3 + d2 * r / (1.0 - r) if abs(r) < _RATIO_MAX else None
    status = "diverges" if limit is None else "converges"
    return ProbeReport(quantity, tuple(cutoffs), tuple(values), fit, limit is None, status, limit)


def probe_m1(
    params: DiffusionParams,
    kernel: KernelSpec,
    t: float,
    cutoff_schedule=(1e2, 1e3, 1e4),
) -> ProbeReport:
    """Truncated first-moment frequency integral int_{|xi|<=K} E_alpha(-a t^alpha) dxi."""
    if not t > 0:
        raise DomainError("probe_m1 requires t > 0")
    ks = [float(k) for k in cutoff_schedule]
    if len(ks) < 3 or any(b <= a for a, b in zip(ks, ks[1:])):
        raise DomainError("cutoff schedule must be >= 3 strictly increasing values")
    t_alpha = np.array([t**params.alpha])
    radial = _radial(params, kernel, MLOrder(params.alpha, 1.0), 1, [t_alpha] * len(ks), ks)
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
    evaluated on a jointly refining (K, eps) schedule with geometric time
    panels accumulating at s = 0.  Where t and every eps are powers of ten the
    time edges step by a quarter decade down from t, so the coarser entries'
    s-nodes are among the finest entry's; _radial pools them, and at t = 1
    the default schedule costs one ml_eval call on its finest 160 x 170 grid.
    """
    if not t > 0:
        raise DomainError("probe_m2 requires t > 0")
    sched = [(float(k), float(e)) for k, e in cutoff_schedule]
    if len(sched) < 3:
        raise DomainError("cutoff schedule must have length >= 3")
    for (k0, e0), (k1, e1) in zip(sched, sched[1:]):
        if k1 < k0 or e1 > e0 or (k1 == k0 and e1 == e0):
            raise DomainError("schedule must refine: K nondecreasing, eps nonincreasing")

    grids = [gl_panels(_geometric_edges(eps, t), 10) for _, eps in sched]
    radial = _radial(params, kernel, MLOrder(params.alpha, params.alpha), 2,
                     [s**params.alpha for s, _ in grids], [k for k, _ in sched])
    norm = params.sigma**2 * (2.0 * math.pi) ** (-params.dim)
    values = [norm * float(np.dot(w, s ** (2.0 * params.alpha - 2.0) * rad))
              for (s, w), rad in zip(grids, radial)]
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
