"""Analytic mean and variance fields of the fractional diffusion model.

The mean field started from a Dirac mass admits several evaluation routes:

  * Fourier inversion of E_alpha(-a(k) t^alpha)  (the authoritative route),
  * the Mainardi-function closed form for the local operator (mu = 0),
  * the Gaussian heat kernel at alpha = 1.

The variance field likewise: direct space-time quadrature of the
fluctuation-kernel integral, an erfc closed form at alpha = 1, and a power
series in |x| with coefficients beta_m for 0 < alpha < 1.

The closed forms are implemented exactly as printed in their sources even
where direct quadrature of the corresponding integral disagrees with them;
every consumer-facing output can attach a cross-check report so the
discrepancy stays measurable instead of hidden.  Fourier convention:
f_hat(k) = integral e^{-ikx} f(x) dx, inversion carries 1/(2 pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, special

from .errors import (
    DomainError,
    NonIntegrableSymbolError,
    QuadratureError,
    ResonanceError,
)
from .special_fn import (
    DEFAULT_POLICY,
    EvalPolicy,
    MLOrder,
    erfc,
    gamma_fn,
    gl_panels,
    mainardi_series,
    ml_eval,
)
from .symbol import DiffusionParams, KernelSpec, symbol_a

__all__ = [
    "QuadSpec",
    "Profile",
    "VarianceSeriesSpec",
    "heat_kernel",
    "mean_fourier",
    "mean_mainardi",
    "mean_half_closed",
    "var_classical_quadrature",
    "var_classical_closed",
    "fluct_kernel_frac",
    "var_frac_quadrature",
    "beta_coeff",
    "var_series",
    "resonance_set",
    "make_profile",
    "profile_to_csv",
    "crosscheck_to_csv",
]


@dataclass(frozen=True)
class QuadSpec:
    """Precision contract for the adaptive quadratures."""

    panels: int = 16
    rel_tol: float = 1e-8
    max_refinements: int = 8

    def __post_init__(self):
        if self.panels < 8:
            raise DomainError("panels must be >= 8")
        if not 0 < self.rel_tol < 1e-2:
            raise DomainError("rel_tol must lie in (0, 1e-2)")


DEFAULT_QUAD = QuadSpec()


@dataclass(frozen=True)
class VarianceSeriesSpec:
    max_terms: int = 30
    resonance_guard: float = 1e-9

    def __post_init__(self):
        if self.max_terms < 5:
            raise DomainError("max_terms must be >= 5")
        if not self.resonance_guard > 0:
            raise DomainError("resonance_guard must be positive")


DEFAULT_SERIES = VarianceSeriesSpec()

_METHOD_TAGS = (
    "fourier",
    "mainardi",
    "heat_kernel",
    "var_quadrature",
    "var_series",
    "var_closed",
    "mc_ensemble_mean",
    "mc_ensemble_var",
)


@dataclass(frozen=True)
class Profile:
    """A sampled space-time field: values[i, j] at (times[i], positions[j])."""

    times: tuple
    positions: tuple
    values: np.ndarray
    method: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in _METHOD_TAGS:
            raise DomainError(f"unknown method tag {self.method!r}")
        v = np.asarray(self.values)
        if v.shape != (len(self.times), len(self.positions)):
            raise DomainError("values shape does not match axes")
        if not np.all(np.isfinite(v)):
            raise DomainError("profile values must be finite")


_CHUNK_ELEMS = 1 << 20  # bounds the (points x nodes) temporaries to 8 MB


def heat_kernel(t: float, x, lam: float):
    """Gaussian heat kernel (4 pi lam t)^(-1/2) exp(-x^2/(4 lam t))."""
    if not t > 0:
        raise DomainError("heat_kernel requires t > 0")
    if not lam > 0:
        raise DomainError("heat_kernel requires lambda > 0")
    x = np.asarray(x, dtype=float)
    out = np.exp(-(x * x) / (4.0 * lam * t)) / math.sqrt(4.0 * math.pi * lam * t)
    return float(out) if out.ndim == 0 else out


def _fourier_tail(alpha: float, lam: float, mu: float, t: float, x, cutoff: float):
    """Analytic tail (1/pi) int_K^inf cos(kx) E_alpha(-a(k) t^alpha) dk, x >= 0.

    Keeps three terms of E_alpha(-u) ~ sum_j (-1)^(j+1) u^(-j) / Gamma(1 - j alpha)
    with a(k) ~ lam k^2 + mu, each (lam k^2 + mu)^(-j) expanded in k^(-2) up to
    k^(-6); a term vanishes where 1 - j alpha is a pole of Gamma, so alpha = 1
    has no tail.  C_m = int_K^inf cos(kx) k^(-m) dk and its sine twin S_m
    follow by parts from C_1 = -Ci(Kx), S_1 = pi/2 - Si(Kx).
    """
    kx = cutoff * x
    si, ci = special.sici(kx)
    c_m, s_m = np.where(kx > 0, -ci, 0.0), 0.5 * math.pi - si  # x C_1 -> 0 as x -> 0
    ta, ratio = lam * t**alpha, mu / lam
    total = 0.0
    for m in range(2, 7):
        edge = cutoff ** (1 - m)
        c_m, s_m = ((np.cos(kx) * edge - x * s_m) / (m - 1),
                    (np.sin(kx) * edge + x * c_m) / (m - 1))
        if m % 2 == 0:
            # coefficient of k^(-m): binom(-j, r) = (-1)^r binom(j+r-1, r), r = m/2 - j
            coef = sum((-1) ** (j + 1) * special.rgamma(1.0 - j * alpha) / ta**j
                       * (-ratio) ** (m // 2 - j) * math.comb(m // 2 - 1, j - 1)
                       for j in range(1, m // 2 + 1))
            total = total + coef * c_m
    return total / math.pi


def mean_fourier(
    params: DiffusionParams,
    kernel: KernelSpec,
    t: float,
    x,
    policy: EvalPolicy = DEFAULT_POLICY,
):
    """Mean field by Fourier inversion, (1/pi) int_0^inf cos(kx) E_alpha(-a(k) t^alpha) dk.

    Even-symmetry reduction of the full inverse transform, for scalar or
    array x: E_alpha is evaluated once on a Gauss-Legendre grid over [0, K]
    and an analytic tail covers k > K.  K >= 240 makes u = lam K^2 t^alpha
    >= 1e4, where the tail's first omitted term is ~u^-4 of it; for alpha > 1
    it also lets the poles' residue pair, which the tail omits, decay by 40
    e-folds: exp(r cos(pi/alpha)), r = u^(1/alpha), and a(k) >= lam k^2.
    """
    if not t > 0:
        raise DomainError("mean_fourier requires t > 0")
    if params.lam == 0:
        raise NonIntegrableSymbolError(
            "lambda=0: the mean's Fourier transform is not integrable, "
            "no pointwise mean field exists"
        )
    alpha, lam, ta = params.alpha, params.lam, t**params.alpha
    u = 1e4
    if alpha > 1.0:
        u = max(u, (40.0 / abs(math.cos(math.pi / alpha))) ** alpha)
    cutoff = max(240.0, math.sqrt(u / (lam * ta)))
    ax = np.abs(np.asarray(x, dtype=float))
    # a 32-node panel spans at most 4 widths of E near k = 0, 32 radians of
    # cos(kx) and 4 widths of the kernel's transform
    rate = max(math.sqrt((lam + params.mu * kernel.scale**2) * ta),
               ax.max(initial=0.0) / 8.0, kernel.scale if params.mu > 0 else 0.0)
    panels = math.ceil(cutoff * rate / 4.0)
    if panels > 1 << 16:
        raise QuadratureError(f"frequency cutoff {cutoff:.3g} needs {panels} panels")
    k, w = gl_panels(np.linspace(0.0, cutoff, panels + 1), 32)
    wf = w * ml_eval(MLOrder(alpha, 1.0), -symbol_a(params, kernel, k) * ta, policy)
    flat, step = ax.ravel(), max(1, _CHUNK_ELEMS // k.size)
    val = np.concatenate([np.cos(np.outer(flat[i : i + step], k)) @ wf
                          for i in range(0, flat.size, step)])
    tail = _fourier_tail(alpha, lam, params.mu, t, ax, cutoff)
    out = val.reshape(ax.shape) / math.pi + tail
    if not np.all(np.isfinite(out)):
        raise QuadratureError("frequency quadrature failed")
    return float(out) if out.ndim == 0 else out


def mean_mainardi(
    t: float,
    x,
    alpha: float,
    lam: float,
    policy: EvalPolicy = DEFAULT_POLICY,
):
    """Mean field via the Mainardi scaling form (local operator, mu = 0):

    (4 pi lam t^alpha)^(-1/2) M_alpha(|x| / sqrt(lam t^alpha)), scalar or array x.
    """
    if not t > 0 or not lam > 0:
        raise DomainError("mean_mainardi requires t > 0 and lambda > 0")
    u = np.abs(x) / math.sqrt(lam * t**alpha)
    return mainardi_series(alpha, u, policy) / math.sqrt(4.0 * math.pi * lam * t**alpha)


def mean_half_closed(t: float, x: float, lam: float) -> float:
    """Closed-form mean at alpha = 1/2:

    (4 pi lam sqrt(t))^(-1/2) (1 + |x|/sqrt(4 lam sqrt(t))) exp(-x^2/(4 lam sqrt(t))).
    """
    if not t > 0 or not lam > 0:
        raise DomainError("mean_half_closed requires t > 0 and lambda > 0")
    w = 4.0 * lam * math.sqrt(t)
    u = abs(x) / math.sqrt(w)
    return (1.0 + u) * math.exp(-(x * x) / w) / math.sqrt(math.pi * w)


def var_classical_quadrature(
    t: float,
    x,
    lam: float,
    sigma: float,
    quad: QuadSpec = DEFAULT_QUAD,
):
    """Variance at alpha = 1 by direct quadrature of

    sigma^2 int_0^t int_R (4 pi lam (t-tau))^(-1) exp(-(x-y)^2/(2 lam (t-tau))) dy dtau.

    The substitution v = sqrt(t - tau) removes the endpoint singularity of
    the outer integral; the inner integral runs over the whole line, so the
    value does not depend on x and is computed once for scalar or array x.
    """
    if not t > 0 or not lam > 0:
        raise DomainError("var_classical_quadrature requires t > 0 and lambda > 0")

    def inner(v):
        s = v * v  # s = t - tau, dtau = 2 v dv
        val, _ = integrate.quad(
            lambda u: math.exp(-(u * u) / (2.0 * lam * s)) / (4.0 * math.pi * lam * s),
            -np.inf,
            np.inf,
            epsabs=1e-14,
            epsrel=1e-11,
        )
        return 2.0 * v * val

    val, err = integrate.quad(
        inner, 0.0, math.sqrt(t), epsabs=1e-13, epsrel=quad.rel_tol * 1e-2
    )
    if not math.isfinite(val):
        raise QuadratureError("classical variance quadrature failed")
    out = np.full(np.shape(x), sigma * sigma * val)
    return float(out) if out.ndim == 0 else out


def var_classical_closed(t: float, x, lam: float, sigma: float):
    """Closed-form variance expression at alpha = 1:

    sigma^2 / (4 lam sqrt(pi t)) * erfc(|x| / (4 sqrt(lam t))).

    Reproduced verbatim for figure regeneration; direct quadrature of the
    variance integral gives a different (x-independent) value, so consumers
    should always look at the attached cross-check.
    """
    if not t > 0 or not lam > 0:
        raise DomainError("var_classical_closed requires t > 0 and lambda > 0")
    return (
        sigma
        * sigma
        / (4.0 * lam * math.sqrt(math.pi * t))
        * erfc(np.abs(x) / (4.0 * math.sqrt(lam * t)))
    )


def fluct_kernel_frac(
    t: float,
    t1: float,
    x: float,
    x1: float,
    alpha: float,
    lam: float,
    sigma: float,
    policy: EvalPolicy = DEFAULT_POLICY,
) -> float:
    """First fluctuation kernel:

    sigma (4 pi lam (t-t1)^alpha)^(-1/2) E_{alpha,alpha}(-(x-x1)^2/(4 lam (t-t1)^alpha)).
    """
    if not t > t1 >= 0:
        raise DomainError("fluct_kernel_frac requires t > t1 >= 0")
    s = (t - t1) ** alpha
    arg = -((x - x1) ** 2) / (4.0 * lam * s)
    return (
        sigma
        * float(ml_eval(MLOrder(alpha, alpha), arg, policy))
        / math.sqrt(4.0 * math.pi * lam * s)
    )


def _var_frac_once(t, x, alpha, lam, panels, policy):
    """One evaluation of the fractional variance integral at fixed panel count.

    Time variable s = t - tau on geometric panels accumulating at s = 0
    (resolves s^{-alpha}); for each s the inner y-integral is rescaled to
    u = (x - y)/sqrt(4 lam s^alpha), where the squared kernel decays
    algebraically, and runs to u_max = x / sqrt(4 lam s^alpha).  With the
    u_max of every (s, x) pair and the edges 0, 1, 4, 16, ... sorted into
    one grid, a 32-node panel per gap and a cumulative sum give all inner
    integrals.  Returns one value per x, without sigma^2 / (4 pi lam).
    """
    s, ws = gl_panels(np.geomspace(t * 1e-12, t, panels), 32)
    c = np.sqrt(4.0 * lam * s**alpha)
    u_max = (x[:, None] / c).ravel()
    whole = 4.0 ** np.arange(math.ceil(math.log(max(u_max.max(), 1.0), 4.0)) + 1)
    edges = np.sort(np.concatenate(([0.0], whole, u_max)))
    gaps = np.empty(edges.size - 1)
    step = 128  # gaps per ml_eval call
    for i in range(0, gaps.size, step):
        u, w = gl_panels(edges[i : i + step + 1], 32)
        e = ml_eval(MLOrder(alpha, alpha), -(u * u), policy)
        gaps[i : i + step] = (e * e * w).reshape(-1, 32).sum(axis=1)
    inner = np.concatenate(([0.0], np.cumsum(gaps)))[np.searchsorted(edges, u_max)]
    return (inner.reshape(x.size, -1) * (ws * s ** (-alpha) * c)).sum(axis=1)


def var_frac_quadrature(
    t: float,
    x,
    alpha: float,
    lam: float,
    sigma: float,
    quad: QuadSpec = DEFAULT_QUAD,
    policy: EvalPolicy = DEFAULT_POLICY,
):
    """Fractional variance integral (0 < alpha < 1), scalar or array x >= 0:

    sigma^2/(4 pi lam) int_0^t int_0^x (t-tau)^(-alpha)
        [E_{alpha,alpha}(-(x-y)^2/(4 lam (t-tau)^alpha))]^2 dy dtau,

    self-refined until the relative change drops below quad.rel_tol at
    every x.
    """
    if not t > 0 or not lam > 0:
        raise DomainError("var_frac_quadrature requires t > 0 and lambda > 0")
    if not 0 < alpha < 1:
        raise DomainError("var_frac_quadrature requires 0 < alpha < 1")
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0):
        raise DomainError("var_frac_quadrature requires x >= 0")
    flat = xa.ravel()
    panels = quad.panels
    prev = _var_frac_once(t, flat, alpha, lam, panels, policy)
    for _ in range(quad.max_refinements):
        panels *= 2
        cur = _var_frac_once(t, flat, alpha, lam, panels, policy)
        if np.all(np.abs(cur - prev) <= quad.rel_tol * np.abs(cur)):
            out = (sigma * sigma / (4.0 * math.pi * lam) * cur).reshape(xa.shape)
            return float(out) if out.ndim == 0 else out
        prev = cur
    raise QuadratureError(
        f"fractional variance quadrature did not self-converge at {panels} panels"
    )


def beta_coeff(m: int, alpha: float) -> float:
    """beta_m = sum_{k=0}^m 1 / (Gamma(m-k+1) Gamma(alpha (k+1)))."""
    if m < 0:
        raise DomainError("beta_coeff requires m >= 0")
    return float(
        sum(1.0 / (gamma_fn(m - k + 1.0) * gamma_fn(alpha * (k + 1))) for k in range(m + 1))
    )


def resonance_set(
    alpha: float, max_m: int, guard: float = DEFAULT_SERIES.resonance_guard
) -> list:
    """All m <= max_m with alpha within guard of 1/(m+1)."""
    return [m for m in range(max_m + 1) if abs(alpha - 1.0 / (m + 1)) <= guard]


def var_series(
    t: float,
    x,
    alpha: float,
    lam: float,
    sigma: float,
    spec: VarianceSeriesSpec = DEFAULT_SERIES,
):
    """Variance power series in |x| (0 < alpha < 1), scalar or array x:

    sigma^2/(4 pi lam) sum_m (-1)^m beta_m |x|^(2m+1) t^(1-(m+1) alpha)
        / (4^m (2m+1) (1 - (m+1) alpha)).

    Raises a resonance error when alpha sits on (or within the guard of)
    1/(m+1) for some m below the truncation order: the corresponding
    denominator vanishes and the variance diverges.
    """
    if not t > 0 or not lam > 0:
        raise DomainError("var_series requires t > 0 and lambda > 0")
    if not 0 < alpha < 1:
        raise DomainError("var_series requires 0 < alpha < 1")
    res = resonance_set(alpha, spec.max_terms - 1, spec.resonance_guard)
    if res:
        raise ResonanceError(res[0], alpha)
    ax = np.abs(x)
    total = 0.0
    for m in range(spec.max_terms):
        term = (
            (-1.0) ** m
            * beta_coeff(m, alpha)
            * ax ** (2 * m + 1)
            * t ** (1.0 - (m + 1) * alpha)
            / (4.0**m * (2 * m + 1) * (1.0 - (m + 1) * alpha))
        )
        total += term
    return sigma * sigma / (4.0 * math.pi * lam) * total


# ---------------------------------------------------------------------------
# profile assembly and serialization


def make_profile(times, positions, fn, method: str, meta: dict | None = None) -> Profile:
    """Sample fn over the grid into a Profile.

    fn(t, xs) is called once per time with the array of all positions and
    returns their values; a scalar return is broadcast across the positions.
    """
    times = tuple(float(t) for t in times)
    positions = tuple(float(x) for x in positions)
    xs = np.array(positions)
    values = np.array([np.broadcast_to(fn(t, xs), xs.shape) for t in times], dtype=float)
    return Profile(times, positions, values, method, meta or {})


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def profile_to_csv(profile: Profile) -> str:
    lines = ["t,x,value,method"]
    for i, t in enumerate(profile.times):
        for j, x in enumerate(profile.positions):
            lines.append(
                f"{_fmt(t)},{_fmt(x)},{_fmt(profile.values[i, j])},{profile.method}"
            )
    return "\n".join(lines) + "\n"


def crosscheck_to_csv(rows) -> str:
    """Serialize cross-check rows (t, x, method_a, value_a, method_b, value_b)."""
    lines = ["t,x,method_a,value_a,method_b,value_b,ratio"]
    for t, x, ma, va, mb, vb in rows:
        ratio = va / vb if vb != 0 else math.inf
        lines.append(
            f"{_fmt(t)},{_fmt(x)},{ma},{_fmt(va)},{mb},{_fmt(vb)},{_fmt(ratio)}"
        )
    return "\n".join(lines) + "\n"
