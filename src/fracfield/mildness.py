"""Mildness classification and numerical integrability probes.

A parameter set (alpha, lambda, mu, N) admits a mild solution exactly when
lambda > 0 and one of the following holds:

  * alpha = 1 and N = 1,
  * 2/3 < alpha < 1 and N = 1,
  * 1 < alpha < 2 and N in {1, 2}.

With lambda = 0 the symbol saturates at mu for high frequencies, the
relevant Fourier integrals diverge, and no dimension is mild.  The boundary
alpha = 2/3 is classified not mild (the subdiffusive criterion is strict).

`classify` encodes the decision exactly; `probe_m1` / `probe_m2` evaluate
the truncated integrals behind it on a refining cutoff schedule and report
a divergence trend.  The probes are numerical evidence, not proof.
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

    `status` is "diverges", "converges" or "inconclusive"; `diverges` is the
    boolean used by callers (True only for a clear divergence trend).
    """

    quantity: str  # "M1_L1_tail" or "M2_spacetime"
    cutoffs: tuple
    values: tuple
    tail_exponent_fit: float
    diverges: bool
    status: str
    tol_used: float


def classify(params: DiffusionParams) -> MildnessVerdict:
    """Exact mildness decision for (alpha, lambda, mu, dim)."""
    a, lam, mu, n = params.alpha, params.lam, params.mu, params.dim
    if lam == 0 and mu == 0:
        raise DegenerateParametersError("lambda = mu = 0 leaves no spatial operator")
    if lam == 0:
        return MildnessVerdict(
            False,
            Rule.LAMBDA_ZERO_NOT_MILD,
            "lambda=0: the symbol saturates at mu, the frequency integral "
            "diverges for every dimension",
        )
    if a == 1.0:
        if n == 1:
            return MildnessVerdict(True, Rule.ALPHA_ONE_N1, "alpha=1 with N=1")
        return MildnessVerdict(
            False, Rule.NOT_MILD_OTHERWISE, f"alpha=1 requires N=1, got N={n}"
        )
    if a < 1.0:
        if n == 1 and a > 2.0 / 3.0:
            return MildnessVerdict(
                True, Rule.SUBDIFFUSIVE_N1, f"N=1 and alpha={a} > 2/3"
            )
        return MildnessVerdict(
            False,
            Rule.NOT_MILD_OTHERWISE,
            "subdiffusive range requires N=1 and alpha > 2/3 (strict); "
            f"got alpha={a}, N={n}",
        )
    # 1 < alpha < 2
    if n in (1, 2):
        return MildnessVerdict(
            True, Rule.SUPERDIFFUSIVE_N12, f"1<alpha<2 with N={n} in {{1,2}}"
        )
    return MildnessVerdict(
        False, Rule.NOT_MILD_OTHERWISE, f"1<alpha<2 requires N in {{1,2}}, got N={n}"
    )


def lemma_lp_condition(alpha: float, n: int, p: float, which: str) -> bool:
    """L^p membership of the Mittag-Leffler frequency profiles.

    For 0 < alpha < 1: E_alpha(-|xi|^2) is in L^p iff N < 2p, and
    E_{alpha,alpha}(-|xi|^2) iff N < 4p.  For 1 <= alpha < 2 both profiles
    decay fast enough that membership holds for every N and p.
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
    """Finiteness of the subdiffusive space-time integral: N=1 and alpha>2/3."""
    if not 0 < alpha < 1:
        raise DomainError("lemma_b_condition requires 0 < alpha < 1")
    return n == 1 and alpha > 2.0 / 3.0


def prop_superdiffusive_condition(alpha: float, n: int) -> bool:
    """Finiteness in the superdiffusive range: N < 4 - 2/alpha."""
    if not 1 < alpha < 2:
        raise DomainError("prop_superdiffusive_condition requires 1 < alpha < 2")
    return n < 4.0 - 2.0 / alpha


# ---------------------------------------------------------------------------
# numerical probes

_PANELS_PER_DECADE = 4
_TREND_TOL = 0.05  # relative growth per refinement that counts as a trend


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


def _trend(cutoff_scales, values):
    """Three-state divergence verdict per the refinement rule: "diverges" when
    the last two refinements each grow the value by more than _TREND_TOL and
    the log-log slope exceeds 0.1, "converges" when both change it by less
    than _TREND_TOL / 10."""
    v = np.asarray(values, dtype=float)
    x = np.asarray(cutoff_scales, dtype=float)
    slope = float(np.polyfit(np.log(x[-3:]), np.log(np.maximum(v[-3:], 1e-300)), 1)[0])
    rel = (v[1:] - v[:-1]) / v[1:]
    growing = bool(np.all(rel[-2:] > _TREND_TOL)) and slope > 0.1
    settled = bool(np.all(np.abs(rel[-2:]) < _TREND_TOL / 10.0))
    if growing:
        status = "diverges"
    elif settled:
        status = "converges"
    else:
        status = "inconclusive"
    return slope, status


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
    values = [float(v[0]) for v in radial]
    slope, status = _trend(ks, values)
    return ProbeReport(
        quantity="M1_L1_tail",
        cutoffs=tuple(ks),
        values=tuple(values),
        tail_exponent_fit=slope,
        diverges=(status == "diverges"),
        status=status,
        tol_used=_TREND_TOL,
    )


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
    values = []
    for (s, w), rad in zip(grids, radial):
        total = float(np.dot(w, s ** (2.0 * params.alpha - 2.0) * rad))
        values.append(
            params.sigma**2 * (2.0 * math.pi) ** (-params.dim) * total
        )
    # trend scale: use K when it refines, otherwise 1/eps
    if sched[-1][0] > sched[0][0]:
        scales = [k for k, _ in sched]
    else:
        scales = [1.0 / e for _, e in sched]
    slope, status = _trend(scales, values)
    return ProbeReport(
        quantity="M2_spacetime",
        cutoffs=tuple(sched),
        values=tuple(values),
        tail_exponent_fit=slope,
        diverges=(status == "diverges"),
        status=status,
        tol_used=_TREND_TOL,
    )


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
        "tol_used": report.tol_used,
    }
