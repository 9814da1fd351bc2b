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

from .errors import (
    DomainError,
    NonIntegrableSymbolError,
    QuadratureError,
    ResonanceError,
)
from .special_fn import (
    MLOrder,
    _distinct,
    _rgamma,
    erfc,
    gamma_fn,
    gl_panels,
    mainardi_series,
    ml_eval,
)
from .symbol import DiffusionParams, KernelSpec, symbol_a

__all__ = [
    "Profile",
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
    "columns_to_csv",
]


_VAR_SERIES_TERMS = 30
_RESONANCE_GUARD = 1e-9

_METHOD_TAGS = (
    "fourier",
    "mainardi",
    "heat_kernel",
    "var_quadrature",
    "var_series",
    "var_closed",
    "mc_ensemble_mean",
    "mc_ensemble_var",
    "sample_path",
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


def _tail_coefficients(alpha: float, lam: float, mu: float, t: float):
    """b_1, b_2, b_3 of E_alpha(-a(k) t^alpha) ~ sum_p b_p k^(-2p) for large k.

    Keeps three terms of E_alpha(-u) ~ sum_j (-1)^(j+1) u^(-j) / Gamma(1 - j alpha)
    with a(k) ~ lam k^2 + mu, each (lam k^2 + mu)^(-j) expanded in k^(-2) up to
    k^(-6); a term vanishes where 1 - j alpha is a pole of Gamma, so alpha = 1
    has none.
    """
    ta, ratio = lam * t**alpha, mu / lam
    # coefficient of k^(-2p): binom(-j, r) = (-1)^r binom(j+r-1, r), r = p - j
    return [sum((-1) ** (j + 1) * _rgamma(1.0 - j * alpha) / ta**j
                * (-ratio) ** (p - j) * math.comb(p - 1, j - 1)
                for j in range(1, p + 1))
            for p in (1, 2, 3)]


def _tail_onset(alpha: float, lam: float, t: float) -> float:
    """Wavenumber beyond which _tail_coefficients' expansion is accurate.

    There u = lam k^2 t^alpha >= 1e4, where the first omitted term is ~u^-4
    of it; for alpha > 1 the poles' residue pair, which the expansion omits,
    has also decayed by 40 e-folds: exp(r cos(pi/alpha)), r = u^(1/alpha),
    and a(k) >= lam k^2.
    """
    u = 1e4
    if alpha > 1.0:
        u = max(u, (40.0 / abs(math.cos(math.pi / alpha))) ** alpha)
    return math.sqrt(u / (lam * t**alpha))


def _matern_terms(alpha: float, lam: float, mu: float, t: float):
    """c and (d_1, d_2, d_3) of S(k) = sum_p d_p (k^2 + c^2)^(-p).

    For large k, E_alpha(-a(k) t^alpha) ~ sum_{j<=3} e_j (k^2 + mu/lam)^(-j)
    with e_j = (-1)^(j+1) / (Gamma(1 - j alpha) (lam t^alpha)^j); S is that
    sum re-expanded about c^2 = mu/lam + delta, equal to it up to O(k^-8).
    delta = 2/(lam t^alpha) keeps c > 0 at mu = 0, on the scale of E's
    width; the k^-8 remainder grows as delta^3.
    """
    e1, e2, e3 = _tail_coefficients(alpha, lam, 0.0, t)  # at mu = 0 they are the e_j
    delta = 2.0 / (lam * t**alpha)
    c = math.sqrt(mu / lam + delta)
    return c, (e1, e2 + delta * e1, e3 + 2.0 * delta * e2 + delta * delta * e1)


def _matern_transform(n: int, c: float, x):
    """(1/pi) int_0^inf cos(kx) (k^2 + c^2)^(-n-1) dk for x >= 0, c > 0:

    e^(-cx) / (2^(2n+1) n! c^(2n+1)) sum_{i<=n} (2n-i)! / (i! (n-i)!) (2cx)^i,
    the Matern correlation of smoothness n + 1/2.
    """
    poly = sum(math.factorial(2 * n - i) / (math.factorial(i) * math.factorial(n - i))
               * (2.0 * c * x) ** i for i in range(n + 1))
    return np.exp(-c * x) * poly / (2 ** (2 * n + 1) * math.factorial(n) * c ** (2 * n + 1))


def mean_fourier(params: DiffusionParams, kernel: KernelSpec, t: float, x):
    """Mean field by Fourier inversion, (1/pi) int_0^inf cos(kx) E_alpha(-a(k) t^alpha) dk.

    Even-symmetry reduction of the full inverse transform, for scalar or
    array x, by Kummer subtraction: S(k) = sum_p d_p (k^2 + c^2)^(-p)
    (_matern_terms) matches E = E_alpha(-a(k) t^alpha) up to O(k^-8) for
    large k.  E - S is integrated on a Gauss-Legendre grid over [0, K],
    K = max(240, _tail_onset), with E_alpha evaluated once, and the
    transform of S over [0, inf) is added in closed form
    (_matern_transform); the O(k^-8) remainder of E - S beyond K is left out.
    S takes a(k) = lam k^2 + mu, so where mu > 0 a Gaussian kernel's j_hat
    must have fallen below 1e-17 by K: K >= sqrt(2 ln 1e17) / scale.
    """
    if not t > 0:
        raise DomainError("mean_fourier requires t > 0")
    if params.lam == 0:
        raise NonIntegrableSymbolError(
            "lambda=0: the mean's Fourier transform is not integrable, "
            "no pointwise mean field exists"
        )
    alpha, lam, ta = params.alpha, params.lam, t**params.alpha
    cutoff = max(240.0, _tail_onset(alpha, lam, t))
    if params.mu > 0 and kernel.kind == "gaussian":
        cutoff = max(cutoff, math.sqrt(2.0 * math.log(1e17)) / kernel.scale)
    ax = np.abs(np.asarray(x, dtype=float))
    # a 32-node panel spans at most 4 widths of E near k = 0, 32 radians of
    # cos(kx) and 4 widths of the kernel's transform
    rate = max(math.sqrt((lam + params.mu * kernel.scale**2) * ta),
               ax.max(initial=0.0) / 8.0, kernel.scale if params.mu > 0 else 0.0)
    panels = math.ceil(cutoff * rate / 4.0)
    if panels > 1 << 16:
        raise QuadratureError(f"frequency cutoff {cutoff:.3g} needs {panels} panels")
    k, w = gl_panels(np.linspace(0.0, cutoff, panels + 1), 32)
    c, d = _matern_terms(alpha, lam, params.mu, t)
    q = 1.0 / (k * k + c * c)
    subtracted = q * (d[0] + q * (d[1] + q * d[2]))
    wf = w * (ml_eval(MLOrder(alpha, 1.0), -symbol_a(params, kernel, k) * ta) - subtracted)
    flat, step = ax.ravel(), max(1, _CHUNK_ELEMS // k.size)
    val = np.concatenate([np.cos(np.outer(flat[i : i + step], k)) @ wf
                          for i in range(0, flat.size, step)])
    out = val.reshape(ax.shape) / math.pi + sum(
        dp * _matern_transform(n, c, ax) for n, dp in enumerate(d))
    if not np.all(np.isfinite(out)):
        raise QuadratureError("frequency quadrature failed")
    return float(out) if out.ndim == 0 else out


def mean_mainardi(t: float, x, alpha: float, lam: float):
    """Mean field via the Mainardi scaling form (local operator, mu = 0):

    (4 pi lam t^alpha)^(-1/2) M_alpha(|x| / sqrt(lam t^alpha)), scalar or array x.
    """
    if not t > 0 or not lam > 0:
        raise DomainError("mean_mainardi requires t > 0 and lambda > 0")
    u = np.abs(x) / math.sqrt(lam * t**alpha)
    return mainardi_series(alpha, u) / math.sqrt(4.0 * math.pi * lam * t**alpha)


def mean_half_closed(t: float, x, lam: float):
    """Closed-form mean at alpha = 1/2, scalar or array x:

    (4 pi lam sqrt(t))^(-1/2) (1 + |x|/sqrt(4 lam sqrt(t))) exp(-x^2/(4 lam sqrt(t))).
    """
    if not t > 0 or not lam > 0:
        raise DomainError("mean_half_closed requires t > 0 and lambda > 0")
    w = 4.0 * lam * math.sqrt(t)
    x = np.asarray(x, dtype=float)
    out = (1.0 + np.abs(x) / math.sqrt(w)) * np.exp(-(x * x) / w) / math.sqrt(math.pi * w)
    return float(out) if out.ndim == 0 else out


def var_classical_quadrature(t: float, x, lam: float, sigma: float):
    """Variance at alpha = 1 by direct quadrature of

    sigma^2 int_0^t int_R (4 pi lam (t-tau))^(-1) exp(-(x-y)^2/(2 lam (t-tau))) dy dtau.

    The substitutions s = t - tau = v^2 (dtau = 2 v dv) and
    y - x = u sqrt(2 lam s) turn it into a smooth integrand on
    [0, sqrt(t)] x [-8, 8] (exp(-u^2) < 1e-27 beyond), which fixed
    Gauss-Legendre panels integrate exactly to rounding; the result equals
    sigma^2 sqrt(t / (2 pi lam)).  It does not depend on x, so it is
    computed once for scalar or array x.
    """
    if not t > 0 or not lam > 0:
        raise DomainError("var_classical_quadrature requires t > 0 and lambda > 0")
    v, wv = gl_panels([0.0, math.sqrt(t)], 32)
    u, wu = gl_panels(np.arange(-8.0, 9.0), 32)
    s = (v * v)[:, None]
    dens = np.exp(-(u * u)) / (4.0 * math.pi * lam * s)
    val = (2.0 * v * wv) @ (dens * np.sqrt(2.0 * lam * s)) @ wu
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


def fluct_kernel_frac(t: float, t1: float, x, x1, alpha: float, lam: float, sigma: float):
    """First fluctuation kernel, scalar or array x and x1:

    sigma (4 pi lam (t-t1)^alpha)^(-1/2) E_{alpha,alpha}(-(x-x1)^2/(4 lam (t-t1)^alpha)).
    """
    if not t > t1 >= 0:
        raise DomainError("fluct_kernel_frac requires t > t1 >= 0")
    s = (t - t1) ** alpha
    d = np.subtract(x, x1, dtype=float)
    arg = -(d * d) / (4.0 * lam * s)
    return sigma * ml_eval(MLOrder(alpha, alpha), arg) / math.sqrt(4.0 * math.pi * lam * s)


_TINY_U = 2.0**-30  # below it e(u) = e(0) (1 + O(u^2)) is constant to rounding
_TOP_U = 2.0**8  # the integral of e beyond it is below 1e-18 of I_alpha


def var_frac_quadrature(t: float, x, alpha: float, lam: float, sigma: float):
    """Fractional variance integral (0 < alpha < 1), scalar or array x >= 0:

    sigma^2/(4 pi lam) int_0^t int_0^x (t-tau)^(-alpha)
        [E_{alpha,alpha}(-(x-y)^2/(4 lam (t-tau)^alpha))]^2 dy dtau.

    With s = t - tau and y -> (x - y)/sqrt(4 lam s^alpha) the inner integral
    is a running integral of e(u) = E_{alpha,alpha}(-u^2)^2 up to
    x/sqrt(4 lam s^alpha); swapping the order of integration (Fubini) does
    the s-integral exactly.  With U = x/(2 sqrt(lam) t^(alpha/2)) and
    p = 2/alpha - 1,

    var = sigma^2 t^(1-alpha/2) / (pi sqrt(lam) (2-alpha))
          * [int_0^U e(u) du + int_U^inf e(u) (U/u)^p du].

    Both integrals run over one set of panels with edges 0, every x's U and
    the powers of 2 from the smallest positive U (clamped to [2^-30, 1]) to
    max(U, 2^8): 32 Gauss-Legendre nodes and one ml_eval call for all
    panels above 2^-30, e = e(0) in closed form below.  A forward cumulative
    sum gives the first integral.  The second, T_k at edge U_k, follows from
    T_k = B_k + (U_k/U_(k+1))^p T_(k+1) with B_k the panel integral of
    e(u) (U_k/u)^p, so no power of a tiny U is ever formed.
    """
    if not t > 0 or not lam > 0:
        raise DomainError("var_frac_quadrature requires t > 0 and lambda > 0")
    if not 0 < alpha < 1:
        raise DomainError("var_frac_quadrature requires 0 < alpha < 1")
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0):
        raise DomainError("var_frac_quadrature requires x >= 0")
    p = 2.0 / alpha - 1.0
    u_x = xa.ravel() / (2.0 * math.sqrt(lam) * t ** (alpha / 2.0))
    lo = max(u_x.min(initial=1.0, where=u_x > 0), _TINY_U)
    hi = max(u_x.max(initial=0.0), _TOP_U)
    octaves = 2.0 ** np.arange(math.floor(math.log2(lo)), math.ceil(math.log2(hi)) + 1)
    edges = _distinct(np.concatenate(([0.0], octaves, u_x)))
    n = np.count_nonzero(edges[1:] <= _TINY_U)  # panels where e = e(0) to rounding
    u, w = gl_panels(edges[n:], 32)
    ew = (w * ml_eval(MLOrder(alpha, alpha), -(u * u)) ** 2).reshape(-1, 32)
    ratio = edges[:-1] / edges[1:]
    e0 = gamma_fn(alpha) ** -2
    head = np.concatenate((e0 * np.diff(edges[: n + 1]), ew.sum(axis=1)))  # int e
    body = np.concatenate((  # int e (left/u)^p
        e0 * edges[:n] * (1.0 - ratio[:n] ** (p - 1.0)) / (p - 1.0),
        (ew * (edges[n:-1, None] / u.reshape(-1, 32)) ** p).sum(axis=1)))
    shrink = ratio**p
    tail = np.zeros(edges.size)
    for k in range(edges.size - 2, -1, -1):
        tail[k] = body[k] + shrink[k] * tail[k + 1]
    total = np.concatenate(([0.0], np.cumsum(head))) + tail
    scale = t ** (1.0 - alpha / 2.0) / (math.pi * math.sqrt(lam) * (2.0 - alpha))
    out = sigma * sigma * (scale * total[np.searchsorted(edges, u_x)]).reshape(xa.shape)
    return float(out) if out.ndim == 0 else out


def beta_coeff(m: int, alpha: float) -> float:
    """beta_m = sum_{k=0}^m 1 / (Gamma(m-k+1) Gamma(alpha (k+1)))."""
    if m < 0:
        raise DomainError("beta_coeff requires m >= 0")
    return float(
        sum(1.0 / (gamma_fn(m - k + 1.0) * gamma_fn(alpha * (k + 1))) for k in range(m + 1))
    )


def resonance_set(alpha: float, max_m: int) -> list:
    """All m <= max_m with alpha within 1e-9 of 1/(m+1)."""
    return [m for m in range(max_m + 1) if abs(alpha - 1.0 / (m + 1)) <= _RESONANCE_GUARD]


def var_series(t: float, x, alpha: float, lam: float, sigma: float):
    """Variance power series in |x| (0 < alpha < 1), scalar or array x:

    sigma^2/(4 pi lam) sum_{m<30} (-1)^m beta_m |x|^(2m+1) t^(1-(m+1) alpha)
        / (4^m (2m+1) (1 - (m+1) alpha)).

    Raises a resonance error when alpha lies within 1e-9 of 1/(m+1) for
    some m below the truncation order: the corresponding denominator
    vanishes and the variance diverges.
    """
    if not t > 0 or not lam > 0:
        raise DomainError("var_series requires t > 0 and lambda > 0")
    if not 0 < alpha < 1:
        raise DomainError("var_series requires 0 < alpha < 1")
    res = resonance_set(alpha, _VAR_SERIES_TERMS - 1)
    if res:
        raise ResonanceError(res[0], alpha)
    ax = np.abs(x)
    total = 0.0
    for m in range(_VAR_SERIES_TERMS):
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


_CELL = "%.17g"  # the one number format: 17 significant digits round-trip any double


def _csv(header: str, body: str, cells) -> str:
    """The header line, then body, a %-template of whole rows, filled with cells.

    Every CSV the package writes goes through here, one % per table; _CELL is
    the same C routine as format(float(v), ".17g").
    """
    return header + "\n" + body % tuple(cells)


def columns_to_csv(header: str, *columns) -> str:
    """CSV of equal-length numeric columns under a comma-separated header."""
    row = ",".join([_CELL] * len(columns)) + "\n"
    return _csv(header, row * len(columns[0]), np.column_stack(columns).ravel().tolist())


def profile_to_csv(profile: Profile) -> str:
    """CSV t,x,value,method, time-major; each time and position is formatted once."""
    tails = [f",{_CELL % x},{_CELL},{profile.method}\n" for x in profile.positions]
    # each row is its time's cell followed by a tail: t + tail_0 + t + tail_1 + ...
    body = "".join(t + t.join(tails) for t in (_CELL % t for t in profile.times))
    return _csv("t,x,value,method", body, profile.values.ravel().tolist())


def crosscheck_to_csv(rows) -> str:
    """Serialize cross-check rows (t, x, method_a, value_a, method_b, value_b)."""
    rows = list(rows)
    # two routes that agree exactly, zeros included, have ratio 1
    cells = [c for t, x, ma, va, mb, vb in rows
             for c in (t, x, ma, va, mb, vb,
                       1.0 if va == vb else (va / vb if vb != 0 else math.inf))]
    row = f"{_CELL},{_CELL},%s,{_CELL},%s,{_CELL},{_CELL}\n"
    return _csv("t,x,method_a,value_a,method_b,value_b,ratio", row * len(rows), cells)
