"""Analytic mean and variance fields of the fractional diffusion model.

The mean field started from a Dirac mass admits several evaluation routes:

  * Fourier inversion of E_alpha(-a(k) t^alpha)  (the authoritative route),
  * the Mainardi-function closed form for the local operator (mu = 0),
  * the Gaussian heat kernel at alpha = 1.

The variance field likewise: the space-time fluctuation-kernel integral
itself (by quadrature for 0 < alpha < 1; at alpha = 1 its exact value,
which does not depend on x), an erfc closed form at alpha = 1, and a power
series in |x| with coefficients beta_m for 0 < alpha < 1.

The closed forms are implemented exactly as printed in their sources even
where direct quadrature of the corresponding integral disagrees with them;
every consumer-facing output can attach a cross-check report so the
discrepancy stays measurable instead of hidden.  Fourier convention:
f_hat(k) = integral e^{-ikx} f(x) dx, inversion carries 1/(2 pi).
"""

from __future__ import annotations

import functools
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
from .symbol import DiffusionParams, KernelSpec, j_hat, symbol_a

__all__ = [
    "Profile",
    "heat_kernel",
    "mean_fourier",
    "mean_mainardi",
    "var_classical_quadrature",
    "var_classical_closed",
    "var_frac_quadrature",
    "beta_coeff",
    "var_series",
    "resonance_set",
    "make_profile",
    "profile_csv_parts",
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
    with np.errstate(over="ignore"):  # -inf for a tiny t, and exp(-inf) is the exact 0
        out = np.exp(-(x * x) / (4.0 * lam * t)) / math.sqrt(4.0 * math.pi * lam * t)
    return float(out) if out.ndim == 0 else out


def _tail_coefficients(alpha: float, lam: float, mu: float, t: float, k0: float = math.inf):
    """b_1, b_2, .. of E_alpha(-a(k) t^alpha) ~ sum_p b_p k^(-2p) for k >= k0.

    Keeps three terms of E_alpha(-u) ~ sum_j (-1)^(j+1) u^(-j) / Gamma(1 - j alpha)
    with a(k) ~ lam k^2 + mu, each (lam k^2 + mu)^(-j) expanded in k^(-2); a
    term vanishes where 1 - j alpha is a pole of Gamma, so alpha = 1 has none.
    That expansion converges by mu / (lam k^2) per term, so k0 must be at
    least sqrt(5 mu / lam).  Three terms are kept, and more while the next
    one's part beyond k0 of the mean's Fourier integral, below
    |b_p| k0^(1-2p), may exceed 1e-14.
    """
    ta, ratio = lam * t**alpha, mu / lam

    def b(p):  # binom(-j, r) = (-1)^r binom(j+r-1, r), r = p - j
        return sum((-1) ** (j + 1) * _rgamma(1.0 - j * alpha) / ta**j
                   * (-ratio) ** (p - j) * math.comb(p - 1, j - 1)
                   for j in range(1, min(p, 3) + 1))

    out = [b(1), b(2), b(3)]
    while abs(b(len(out) + 1)) * k0 ** (-1 - 2 * len(out)) > 1e-14:
        out.append(b(len(out) + 1))
    return out


def _tail_onset(params: DiffusionParams, kernel: KernelSpec, t: float) -> float:
    """Wavenumber K beyond which _tail_coefficients' expansion is accurate;
    both mean_fourier and the simulator's aliased rows read it.

    There u = lam k^2 t^alpha >= 1e4, where the first omitted term is ~u^-4
    of it; for alpha > 1 the poles' residue pair, which the expansion omits,
    has also decayed by 40 e-folds: exp(r cos(pi/alpha)), r = u^(1/alpha),
    and a(k) >= lam k^2.  The expansion takes a(k) = lam k^2 + mu, so where
    mu > 0 a Gaussian kernel's j_hat must have fallen below 1e-17 there as
    well: k >= sqrt(2 ln 1e17) / scale.  The uniform kernel's j_hat falls
    only as 1/k, so both consumers subtract E's leading j_hat term
    d_1 m j_hat(k) (k^2 + c^2)^-2 (m = mu/lam, c and d_p of _matern_terms)
    and add it back in closed form (_uniform_transform).  What is left of
    j_hat beyond K is 2 d_2 m j_hat k^-6 + d_1 m^2 j_hat^2 k^-6 to leading
    order, and |j_hat| <= 1/(scale k) bounds their transforms over [K, inf)
    at every x by |d_2| m / (3 pi scale K^6) and |d_1| m^2 / (7 pi scale^2 K^7);
    K makes each 1e-14.
    """
    alpha, lam = params.alpha, params.lam
    u = 1e4
    if alpha > 1.0:
        u = max(u, (40.0 / abs(math.cos(math.pi / alpha))) ** alpha)
    onset = math.sqrt(u / (lam * t**alpha))
    if params.mu > 0 and kernel.kind == "gaussian":
        onset = max(onset, math.sqrt(2.0 * math.log(1e17)) / kernel.scale)
    if params.mu > 0 and kernel.kind == "uniform":
        m, scale = params.mu / lam, kernel.scale
        _, d = _matern_terms(alpha, lam, params.mu, t)
        onset = max(onset, (abs(d[1]) * m / (3.0 * math.pi * scale * 1e-14)) ** (1 / 6),
                    (abs(d[0]) * m * m / (7.0 * math.pi * scale**2 * 1e-14)) ** (1 / 7))
    return onset


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


def _uniform_transform(c: float, scale: float, x):
    """(1/pi) int_0^inf cos(kx) j_hat(k) (k^2 + c^2)^-2 dk for x >= 0, c > 0 and
    the uniform kernel's j_hat(k) = sin(scale k) / (scale k):

    (I(scale + x) + I(scale - x)) / (2 pi scale), where
    I(w) = int_0^inf sin(wk) / (k (k^2 + c^2)^2) dk
         = sign(w) pi ((1 - e^(-c|w|)) / (2 c^4) - |w| e^(-c|w|) / (4 c^3)).
    """
    def half(w):
        aw = np.abs(w)
        return np.sign(w) * (-np.expm1(-c * aw) / (2.0 * c**4)
                             - aw * np.exp(-c * aw) / (4.0 * c**3))

    return (half(scale + x) + half(scale - x)) / (2.0 * scale)


def mean_fourier(params: DiffusionParams, kernel: KernelSpec, t: float, x):
    """Mean field by Fourier inversion, (1/pi) int_0^inf cos(kx) E_alpha(-a(k) t^alpha) dk.

    Even-symmetry reduction of the full inverse transform, for scalar or
    array x, by Kummer subtraction: S(k) = sum_p d_p (k^2 + c^2)^(-p)
    (_matern_terms) matches E = E_alpha(-a(k) t^alpha) up to O(k^-8) for
    large k.  E - S is integrated on a Gauss-Legendre grid over [0, K],
    K = max(240, _tail_onset), with E_alpha evaluated once, and the
    transform of S over [0, inf) is added in closed form
    (_matern_transform); the O(k^-8) remainder of E - S beyond K is left out.
    S takes a(k) = lam k^2 + mu, so where mu > 0 the kernel's j_hat is left
    out beyond K, which _tail_onset places for either kernel.  For the
    uniform kernel, with m = mu/lam, d_1 m j_hat(k) (k^2 + c^2)^-2 is
    subtracted as well and added back in closed form (_uniform_transform):
    E's leading j_hat term, re-expanded about c^2 like S, so that it stays
    bounded as mu -> 0.
    """
    if not t > 0:
        raise DomainError("mean_fourier requires t > 0")
    if params.lam == 0:
        raise NonIntegrableSymbolError(
            "lambda=0: the mean's Fourier transform is not integrable, "
            "no pointwise mean field exists"
        )
    alpha, lam, ta = params.alpha, params.lam, t**params.alpha
    c, d = _matern_terms(alpha, lam, params.mu, t)
    cutoff = max(240.0, _tail_onset(params, kernel, t))
    m = params.mu / lam
    ax = np.abs(np.asarray(x, dtype=float))
    # a 32-node panel spans at most 4 widths of E near k = 0, 32 radians of
    # cos(kx) and 4 widths of the kernel's transform
    rate = max(math.sqrt((lam + params.mu * kernel.scale**2) * ta),
               ax.max(initial=0.0) / 8.0, kernel.scale if params.mu > 0 else 0.0)
    panels = math.ceil(cutoff * rate / 4.0)
    if panels > 1 << 16:
        raise QuadratureError(f"frequency cutoff {cutoff:.3g} needs {panels} panels")
    k, w = gl_panels(np.linspace(0.0, cutoff, panels + 1), 32)
    q = 1.0 / (k * k + c * c)
    subtracted = q * (d[0] + q * (d[1] + q * d[2]))
    if kernel.kind == "uniform":
        subtracted += d[0] * m * j_hat(kernel, k) * q * q
    wf = w * (ml_eval(MLOrder(alpha, 1.0), -symbol_a(params, kernel, k) * ta) - subtracted)
    flat, step = ax.ravel(), max(1, _CHUNK_ELEMS // k.size)
    val = np.concatenate([np.cos(np.outer(flat[i : i + step], k)) @ wf
                          for i in range(0, flat.size, step)])
    out = val.reshape(ax.shape) / math.pi + sum(
        dp * _matern_transform(n, c, ax) for n, dp in enumerate(d))
    if kernel.kind == "uniform":
        out += d[0] * m * _uniform_transform(c, kernel.scale, ax)
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


def var_classical_quadrature(t: float, x, lam: float, sigma: float):
    """Variance at alpha = 1, the exact value of

    sigma^2 int_0^t int_R (4 pi lam (t-tau))^(-1) exp(-(x-y)^2/(2 lam (t-tau))) dy dtau.

    The substitutions s = t - tau = v^2 (dtau = 2 v dv) and
    y - x = u sqrt(2 lam s) turn it into
    sigma^2 int_0^sqrt(t) int_R exp(-u^2) / (sqrt(2 lam) pi) du dv, and
    int_R exp(-u^2) du = sqrt(pi) leaves sigma^2 sqrt(t / (2 pi lam)).  It
    does not depend on x, so it is broadcast over scalar or array x.
    """
    if not t > 0 or not lam > 0:
        raise DomainError("var_classical_quadrature requires t > 0 and lambda > 0")
    out = np.full(np.shape(x), sigma * sigma * math.sqrt(t / (2.0 * math.pi * lam)))
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
_VECTOR_MIN = 512  # cells: a smaller table is one % on a template of whole rows
_CHUNK = 2048  # cells per _g17 call in a table, which bounds its temporaries
_X_MIN, _X_MAX = -324, 308  # decimal exponents of the nonzero finite doubles


@functools.cache
def _g17_tables():
    """_g17's lookup tables, built from exact integers on its first call.

    h, l, lo, s: 10^(16 - X) = (h + l + lo) 2^(s - 1023) for the row
      _X_MAX - X, X in [_X_MIN, _X_MAX]: h + l in [1, 2) the nearest double,
      split into 26 and 27 bits (Veltkamp), lo the nearest double to the rest.
    group: the ASCII of 0000 ... 9999, four bytes little-endian in a uint64.
    sig: the digits of a group up to its last nonzero one (-99 for 0000).
    mask[w, b], dot[w, b]: word w of a 24-byte string in three little-endian
      words, holding its bytes below b, or a '.' at byte b (24: none).
    head[2 (X - _X_MIN) + negative], tail[X - _X_MIN]: the sign and the 0.000
      prefix of a value of exponent X, and its e+XX suffix from byte 2 on.
    lead[X - _X_MIN], dot_at[X - _X_MIN]: the digits always written, and
      the dot's byte among the digits (24: none).
    """
    pow10 = np.empty((4, _X_MAX - _X_MIN + 1))
    for i, k in enumerate(range(16 - _X_MAX, 17 - _X_MIN)):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        s = num.bit_length() - den.bit_length()  # floor(log2(num/den)) or one above
        s -= num << max(-s, 0) < den << max(s, 0)
        num, den = num << max(-s, 0) + 64, den << max(s, 0) + 64  # num/den in [1, 2)
        hi = num / den  # int / int rounds correctly
        h = 134217729.0 * hi
        h -= h - hi
        pow10[:, i] = h, hi - h, (num * 2**52 - int(hi * 2**52) * den) / (den * 2**52), s + 1023
    digits = np.arange(10000, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], np.int16)
    digits = (digits % 10).astype(np.uint8)
    group = (digits + 48).view("<u4").ravel().astype(np.uint64)
    sig = np.where(digits.any(1), 4 - np.argmax(digits[:, ::-1] != 0, 1), -99).astype(np.int8)
    byte = np.arange(25) - 8 * np.arange(3)[:, None]
    shift = 8 * np.clip(byte, 0, 7).astype(np.uint64)
    mask = np.where(byte > 7, ~np.uint64(0), (np.uint64(1) << shift) - np.uint64(1))
    dot = np.where((byte >= 0) & (byte < 8), np.uint64(46) << shift, np.uint64(0))
    exps = range(_X_MIN, _X_MAX + 1)
    head = [int.from_bytes(b"\0" + (b"0." + b"0" * (-x - 1) if -4 <= x < 0 else b""), "little")
            for x in exps]
    tail = [int.from_bytes(b"\0\0e%+03d" % x if not -4 <= x <= 16 else b"", "little")
            for x in exps]
    x = np.arange(_X_MIN, _X_MAX + 1)
    fixed = (x >= 0) & (x <= 16)
    return (*pow10[:3], pow10[3].astype(np.int64), group, sig, mask, dot,
            (np.array(head, np.uint64)[:, None] | np.array([0, 45], np.uint64)).ravel(),
            np.array(tail, np.uint64), np.where(fixed, x + 1, 1),
            np.where(fixed, x + 1, np.where((x >= -4) & (x < 0), 24, 1)))


def _g17(values) -> np.ndarray:
    """The %.17g text of each value: an (n, 32) uint8 matrix whose row i,
    with its NUL bytes dropped, is format(values[i], ".17g").

    Fast, then verified (as in Grisu, Loitsch 2010): with |v| = m 2^e and
    X = floor(log10 |v|), the 17 digits D round m 2^e 10^(16 - X), whose
    integer part and fraction come from Dekker's exact product (1971) of m
    with the head h + l of 10^(16 - X), plus m lo; the fraction is off by
    less than 2^-45.  A value whose fraction lies within 2^-30 of 1/2
    (every exact tie), whose integer part is not 17 digits long (log10 off
    next to a power of ten), or which is 0, -0, inf or nan is formatted by
    format() instead.  A row is four words: the sign and the 0.000 prefix;
    the digits, looked up four at a time, in two words and a byte, with the
    bytes from the dot's on moved up one and those past the text cleared;
    and the e+XX suffix.  Temporaries take about 300 bytes per value, so
    callers pass at most _CHUNK values at a time.
    """
    v = np.asarray(values, dtype=float).ravel()
    h_t, l_t, lo_t, s_t, group, sig, mask, dot, head, tail, lead, dot_at = _g17_tables()
    av = np.abs(v)
    ok = (av > 0) & (av < np.inf)
    av[~ok] = 1.0
    x = np.floor(np.log10(av)).astype(np.int64)
    k = _X_MAX - x
    m, e = np.frexp(av)
    h, l = h_t[k], l_t[k]
    p = m * (h + l)
    mh = 134217729.0 * m
    mh -= mh - m
    ml = m - mh
    err = ((mh * h - p) + mh * l + ml * h) + ml * l  # p + err = m (h + l)
    scale = ((e + s_t[k]) << 52).view(np.float64)  # 2^(e + s - 1023): p scale < 2^57
    rest = (err + m * lo_t[k]) * scale
    whole = np.floor(rest)
    frac = rest - whole
    floor = (p * scale).astype(np.int64) + whole.astype(np.int64)
    d = floor + (frac > 0.5)
    ok &= (np.abs(frac - 0.5) > 2.0**-30) & (floor >= 10**16) & (d < 10**17)
    # D = a1 a2 b1 b2 d16: four groups of four digits and one digit
    d10 = d // 10
    a = d10 // 10**8
    b = d10 - a * 10**8
    a1, b1 = a // 10**4, b // 10**4
    a2, b2 = a - a1 * 10**4, b - b1 * 10**4
    d16 = d - d10 * 10
    sig_digits = np.maximum(np.maximum(sig[a1], sig[a2] + 4), np.maximum(sig[b1] + 8, sig[b2] + 12))
    sig_digits[d16 != 0] = 17
    words = (group[a1] | group[a2] << np.uint64(32), group[b1] | group[b2] << np.uint64(32),
             d16.view(np.uint64) + np.uint64(48))
    xi = x - _X_MIN
    has_dot = sig_digits > dot_at[xi]
    at = np.where(has_dot, dot_at[xi], 24)
    length = np.maximum(sig_digits, lead[xi]) + has_dot
    out = np.empty((v.size, 4), "<u8")
    out[:, 0] = head[2 * xi + (v < 0)]
    carry = np.uint64(0)
    for w, word in enumerate(words):
        low = word & mask[w][at]
        high = word ^ low
        out[:, w + 1] = (low | high << np.uint64(8) | carry | dot[w][at]) & mask[w][length]
        carry = high >> np.uint64(56)
    out[:, 3] |= tail[xi]
    out = out.view(np.uint8)
    slow = np.flatnonzero(~ok)
    if slow.size:
        out[slow] = np.array([format(c, ".17g") for c in v[slow].tolist()], "S32").view(
            np.uint8).reshape(-1, 32)
    return out


def _text_rows(pieces) -> str:
    """One text line per row of the pieces put side by side, NULs dropped.

    A piece is a uint8 matrix of the rows' height, or one row of bytes that
    every row repeats.
    """
    n = max(len(p) for p in pieces if p.ndim == 2)
    rows = np.concatenate([p if p.ndim == 2 else np.broadcast_to(p, (n, p.size))
                           for p in pieces], axis=1)
    return rows.tobytes().translate(None, b"\0").decode("ascii")


def _csv(header: str, body: str, cells) -> str:
    """The header line, then body, a %-template of whole rows, filled with cells.

    The small tables go through here, one % per table; _CELL is the same C
    routine as format(float(v), ".17g").
    """
    return header + "\n" + body % tuple(cells)


def columns_to_csv(header: str, *columns) -> str:
    """CSV of equal-length numeric columns under a comma-separated header."""
    cells, n, k = np.column_stack(columns), len(columns[0]), len(columns)
    if n * k < _VECTOR_MIN:
        return _csv(header, (",".join([_CELL] * k) + "\n") * n, cells.ravel().tolist())
    seps = np.array([","] * (k - 1) + ["\n"], "S1").view(np.uint8)[:, None]  # after each cell
    step = max(1, _CHUNK // k)
    parts = [header + "\n"]
    for i in range(0, n, step):
        row = _g17(cells[i : i + step]).reshape(-1, k, 32)
        parts.append(_text_rows([p for j in range(k) for p in (row[:, j], seps[j])]))
    return "".join(parts)


@functools.lru_cache(maxsize=2)
def _t_x(t_bits: bytes, x_bits: bytes) -> np.ndarray:
    """The "t,x," cells of a table's rows, time-major, as a read-only
    NUL-padded uint8 matrix, for the axes whose float64 bytes are given.

    Keyed by the bits, not by the floats: -0.0 == 0.0 hashes alike, yet
    prints -0.  The two pairs of axes last used are kept, so a process that
    prints many tables on one grid formats its cells once.
    """
    t, x = (np.array([_CELL % v + "," for v in np.frombuffer(bits).tolist()], "S")
            for bits in (t_bits, x_bits))
    head = np.concatenate((np.repeat(t, x.size).view(np.uint8).reshape(t.size * x.size, -1),
                           np.tile(x, t.size).view(np.uint8).reshape(t.size * x.size, -1)),
                          axis=1)
    head.flags.writeable = False
    return head


def profile_csv_parts(profiles):
    """The CSV of each profile in turn (t,x,value,method, time-major), as an
    iterator of text parts whose concatenation is the text.

    A profile of at least _VECTOR_MIN cells has its values formatted by
    _g17, _CHUNK at a time, so that only one chunk's text and temporaries
    are alive at once, and its "t,x," cells taken from _t_x.
    """
    for profile in profiles:
        values = profile.values.ravel()
        if values.size < _VECTOR_MIN:
            tails = [f",{_CELL % x},{_CELL},{profile.method}\n" for x in profile.positions]
            # each row is its time's cell followed by a tail: t + tail_0 + t + tail_1 + ...
            body = "".join(t + t.join(tails) for t in (_CELL % t for t in profile.times))
            yield _csv("t,x,value,method", body, values.tolist())
            continue
        head = _t_x(*(np.array(axis, float).tobytes()
                      for axis in (profile.times, profile.positions)))
        tail = np.frombuffer(f",{profile.method}\n".encode(), np.uint8)
        yield "t,x,value,method\n"
        for i in range(0, values.size, _CHUNK):
            yield _text_rows([head[i : i + _CHUNK], _g17(values[i : i + _CHUNK]), tail])


def crosscheck_to_csv(rows) -> str:
    """Serialize cross-check rows (t, x, method_a, value_a, method_b, value_b)."""
    rows = list(rows)
    # two routes that agree exactly, zeros included, have ratio 1; a ratio
    # beyond the float range is inf, as it is for value_b = 0
    with np.errstate(over="ignore"):
        cells = [c for t, x, ma, va, mb, vb in rows
                 for c in (t, x, ma, va, mb, vb,
                           1.0 if va == vb else (va / vb if vb != 0 else math.inf))]
    row = f"{_CELL},{_CELL},%s,{_CELL},%s,{_CELL},{_CELL}\n"
    return _csv("t,x,method_a,value_a,method_b,value_b,ratio", row * len(rows), cells)
