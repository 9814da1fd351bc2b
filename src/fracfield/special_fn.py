"""Real-line evaluation of Gamma, erfc, Hurwitz zeta, Mittag-Leffler and
Mainardi functions, with numpy and the standard library only.

The two-parameter Mittag-Leffler function E_{alpha,beta}(z) has one
evaluator with two paths: the power series for |z| <= 0.5 (a larger disc
when beta > alpha + 1.75, see _series_radius), and everywhere else the
trapezoid rule on a parabolic Bromwich contour for the inverse Laplace
transform of s^(alpha-beta) / (s^alpha - z), plus the residues of the poles
s^alpha = z that lie right of the contour.  It covers 0 < alpha <= 2, every
finite beta > 0 and both signs of z; beta > alpha + 1.75 reaches the contour
through a recurrence in beta of at most 10,000 steps.

Against the mpmath series oracle (tests/ml_oracle.py) on 11 orders alpha in
[0.1, 1.95], beta in {1, alpha, alpha+1, 0.5, 1.7} and 29 log-spaced |z| in
[1e-3, 1e4] (2522 points the oracle series reaches, both signs), the
largest error is 2.6e-13, relative where |E| > 1e-3 and absolute below.
For beta > alpha + 1.75 the error is graded relative, as such values are
often far below 1e-3: on alpha in {0.1, 0.3, 0.5, 0.8, 1.2, 1.5, 1.9}, beta
in {2.5, 3, 4, 5, 8, 12, 20, 30, 100} and |z| in [0.3, 1000] (both signs,
where the oracle series reaches) it is at most 3.2e-12 for beta <= 30
(alpha = 0.1, beta = 8, z = 1.16) and 1.8e-11 at beta = 100 (alpha = 1.5,
z = -1000).

Gamma and erfc are the standard library's.  Against mpmath on 20,000
random points per range: 1/Gamma (_rgamma, 0 at the poles) is within
9.4e-16 relative on [-5, 1000] where the result is a normal double; erfc is
within 4.2e-16 relative on [-3, 27].  The Hurwitz zeta function
(_hurwitz_zeta, Euler-Maclaurin) is within 1.2e-15 relative for s in
[1.1, 12] and q in [0.5, 1e3].

All functions are pure and deterministic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoConvergenceError, UnsupportedOrderError

__all__ = [
    "MLOrder",
    "ZeroList",
    "gamma_fn",
    "erfc",
    "kappa_alpha",
    "ml_asymptotic_neg",
    "ml_eval",
    "ml_bounds",
    "ml_bounds_two",
    "ml_real_zeros",
    "mainardi_series",
    "gl_panels",
]


@dataclass(frozen=True)
class MLOrder:
    """Order pair (alpha, beta) of the two-parameter Mittag-Leffler function."""

    alpha: float
    beta: float = 1.0

    def __post_init__(self):
        if not (0 < self.alpha < math.inf and 0 < self.beta < math.inf):
            raise DomainError(f"MLOrder requires finite alpha, beta > 0, got {self}")


@dataclass(frozen=True)
class ZeroList:
    """Real zeros of E_alpha found on a search interval [x_min, 0]."""

    alpha: float
    zeros: tuple
    search_interval: tuple

    def __len__(self):
        return len(self.zeros)


def gamma_fn(x: float) -> float:
    """Gamma function on the real line, rejecting the poles at 0, -1, -2, ...

    inf past x = 171.6, where Gamma exceeds the largest double.
    """
    xf = float(x)
    if xf <= 0 and xf == math.floor(xf):
        raise DomainError(f"gamma_fn pole at non-positive integer x={xf}")
    try:
        return math.gamma(xf)
    except OverflowError:  # x > 171.6, or |x| < 5.6e-309 where Gamma(x) = 1/x
        return math.copysign(math.inf, xf)


def _rgamma(x: float) -> float:
    """1/Gamma(x) on the real line, 0 at the poles 0, -1, -2, ..."""
    if x <= 0 and x == math.floor(x):
        return 0.0
    try:
        g = math.gamma(x)
    except OverflowError:  # x > 171.6, or |x| < 5.6e-309 where 1/Gamma(x) = x
        return math.exp(-math.lgamma(x)) if x > 1.0 else x
    return 1.0 / g if g else math.copysign(math.inf, g)  # Gamma underflows below -178


def erfc(x):
    """Complementary error function, (2/sqrt(pi)) int_x^inf exp(-t^2) dt,
    for scalar or array x."""
    arr = np.asarray(x, dtype=float)
    out = np.array([math.erfc(v) for v in arr.ravel().tolist()]).reshape(arr.shape)
    return float(out) if out.ndim == 0 else out


def kappa_alpha(alpha: float) -> float:
    """sin(pi*alpha) * Gamma(1+alpha) / pi; changes sign at alpha = 1."""
    if not (0 < alpha < 2):
        raise DomainError(f"kappa_alpha requires alpha in (0,2), got {alpha}")
    return math.sin(math.pi * alpha) * math.gamma(1 + alpha) / math.pi


# ---------------------------------------------------------------------------
# Hurwitz zeta

_ZETA_DIRECT = 9
# B_2j / (2j)! for j = 1..12, the Euler-Maclaurin correction coefficients; int / int
# true division rounds the exact quotient once
_ZETA_EM = [n / (d * math.factorial(2 * j)) for j, (n, d) in enumerate(
    ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510),
     (43867, 798), (-174611, 330), (854513, 138), (-236364091, 2730)), 1)]


def _hurwitz_zeta(s: float, q):
    """Hurwitz zeta sum_k (k + q)^(-s) for real s > 1 and an array of q > 0.

    Euler-Maclaurin summation as in Cephes' zeta.c: nine direct terms, the
    integral and half-term of the rest from w = q + 9 on, and twelve
    Bernoulli corrections B_2j/(2j)! s(s+1)...(s+2j-2) w^(-s-2j+1).
    """
    q = np.asarray(q, dtype=float)
    w = q + _ZETA_DIRECT
    total = sum((q + k) ** -s for k in range(_ZETA_DIRECT))
    b = w**-s
    total = total + b * w / (s - 1.0) + 0.5 * b
    rising = 1.0
    for j, coef in enumerate(_ZETA_EM):
        rising *= s + 2 * j
        b = b / w
        total = total + coef * rising * b
        rising *= s + 2 * j + 1
        b = b / w
    return total


# ---------------------------------------------------------------------------
# power series, |z| <= _SERIES_RADIUS

_SERIES_RADIUS = 0.5
_SERIES_TOL = 1e-12
_SERIES_MAX_TERMS = 500
# Each point stops at its first stop index whatever the block, so these sizes
# set only the work: 24 terms end most points at |z| <= 0.5 in one pass, and a
# 512 x 24 temporary (98 KB) stays under glibc's 128 KB mmap threshold, so a
# repeated call reuses heap pages instead of faulting in fresh ones.
_SERIES_BLOCK = 24
_SERIES_CHUNK = 512


def _series(coef, z):
    """Partial sums of sum_k c_k z^k for a 1-d array z, with the coefficients
    c_0..c_{_SERIES_MAX_TERMS-1} in the array coef.

    A point stops once three consecutive terms fall below _SERIES_TOL times
    its finite running sum (guards alternating near-cancellation), so its
    value does not depend on the other points.  Points still running after a
    block of terms are redone with twice as many, up to _SERIES_MAX_TERMS; a
    point whose partial sum overflows never stops and so ends in
    NoConvergenceError.  Long inputs run in chunks, which bounds the
    (points x terms) temporaries.
    """
    if z.size > _SERIES_CHUNK:
        return np.concatenate([_series(coef, z[i : i + _SERIES_CHUNK])
                               for i in range(0, z.size, _SERIES_CHUNK)])
    out = np.empty_like(z)
    todo = np.arange(z.size)
    n = _SERIES_BLOCK
    while todo.size:
        steps = np.empty((todo.size, n))
        steps[:, 0] = 1.0
        steps[:, 1:] = z[todo, None]
        # Three (points x n) arrays, worked in place.  Where the allocator
        # returns freed heap to the system between calls, every page of every
        # fresh temporary faults again; with twice the temporaries that was
        # ~45% of a repeated `mild --probe` call.
        with np.errstate(over="ignore", invalid="ignore"):
            terms = np.cumprod(steps, axis=1, out=steps)
            terms *= coef[:n]
            acc = np.cumsum(terms, axis=1)
            scale = np.abs(acc)
            np.maximum(scale, 1e-300, out=scale)
            scale *= _SERIES_TOL
            small = np.abs(terms, out=terms) <= scale
        stop = small[:, :-2] & small[:, 1:-1] & small[:, 2:]
        done = np.nonzero(stop.any(axis=1))[0]
        val = acc[done, stop[done].argmax(axis=1) + 2]
        # inf terms pass for small against an inf sum; an overflowed sum stays
        # inf or nan, so such a point never converges
        ok = np.isfinite(val)
        done = done[ok]
        out[todo[done]] = val[ok]
        todo = np.delete(todo, done)
        if todo.size and n == _SERIES_MAX_TERMS:
            raise NoConvergenceError(
                f"power series did not converge within {n} terms at z={z[todo[0]]}"
            )
        n = min(2 * n, _SERIES_MAX_TERMS)
    return out


def _frozen(values):
    out = np.array(values)
    out.setflags(write=False)  # shared by every caller through the cache
    return out


@functools.lru_cache(maxsize=256)
def _ml_coef(alpha, beta):
    """1 / Gamma(alpha k + beta), k < _SERIES_MAX_TERMS."""
    return _frozen([_rgamma(alpha * k + beta) for k in range(_SERIES_MAX_TERMS)])


# ---------------------------------------------------------------------------
# Bromwich contour, |z| > _SERIES_RADIUS
#
# E_{a,b}(z) = (1/2 pi i) int e^s s^(a-b) / (s^a - z) ds, by the trapezoid rule
# on the parabola s(u) = mu (1 + iu)^2, with mu, step h and node count from
# Garrappa's rules (SIAM J. Numer. Anal. 53 (2015) 1350-1369).  The parabola
# through a point s has mu = phi(s) = (Re s + |s|) / 2, so phi measures where a
# pole s* (s*^a = z) sits relative to the contour.  There is one real pole for
# z > 0 and a conjugate pair for z < 0 when a > 1, with phi = r (1 + c) / 2,
# r = |z|^(1/a), c = 1 or cos(pi/a); for z < 0 and a <= 1 there is none.  Node
# sets depend on phi only through halving bins below _PHI_CAP, each designed
# for the bin edge nearest its poles.

_LOG_TOL = math.log(1e-15)
_LOG_MACH = math.log(np.finfo(float).eps)
_PHI_CAP = 4.0 * (_LOG_TOL - _LOG_MACH)  # ~6.02; round-off caps the contour there
_N_BINS = 50
_BIN_EDGES = _PHI_CAP * 2.0 ** np.arange(1.0 - _N_BINS, 1.0)
# Bounds the (points x nodes) temporaries to 64 KiB, below glibc's default
# 128 KiB mmap and trim threshold: temporaries of that size are mapped (or
# trimmed) afresh, so a long-lived process faults their pages in on most
# calls, where smaller ones reuse its heap pages.
_CHUNK_ELEMS = 1 << 13
# beyond it _step_down steps beta down by E_{a,b}(z) = (E_{a,b-a}(z) - 1/Gamma(b-a)) / z,
# which multiplies rounding by about Gamma(b) / (Gamma(b-a) |z|) per step, so the
# series serves the disc of _series_radius, and at most _MAX_BETA_STEPS steps run.
# Measured on 1 < |z| <= Gamma(alpha+beta)/Gamma(beta), alpha in [0.1, 0.8], beta in
# [2, 12]: where the steps' gain at |z| = 1 was at most 130 they were within 1e-13 of
# the oracle, and 5 to 5000 times closer than the series for alpha <= 0.5; near 5000
# the two were within a factor 3 (13 at alpha = 0.8); from 3.6e5 on the series won by
# 20 to 3000 times.  _STEP_GAIN splits them.
_MAX_BETA_GAP = 1.75
_MAX_BETA_STEPS = 10_000
_STEP_GAIN = 1000.0


def _params_left_of_pole(phi, p):
    """(N, mu, h) for a contour between the origin (singular with strength p)
    and a pole at phi <= _PHI_CAP: Garrappa's OptimalParam_RB."""
    f_max = math.exp(_LOG_TOL - _LOG_MACH)
    sq1 = math.sqrt(phi)
    if p == 0.0:
        f_bar = 1.01 + 1.01 / f_max * (f_max - 1.01)
        sq0, sq1 = 0.0, 2.0 * sq1 / (2.0 + 1.0 / f_bar)
    else:
        f_min = 1.01 * sq1 ** (1.0 - max(p, 1.0))
        if f_min >= f_max:
            return math.inf, 0.0, 0.0
        f_min = max(f_min, 1.5)
        f_bar = f_min + f_min / f_max * (f_max - f_min)
        fp, fq = f_bar ** (-1.0 / p), 1.0 / f_bar
        w = -phi / _LOG_TOL
        den = 2.0 + w - (1.0 + w) * fp + fq
        sq0, sq1 = fp * sq1 / den, (2.0 + w - (1.0 + w) * fp) * sq1 / den
    log_tol = _LOG_TOL - math.log(f_bar)
    w = -sq1 * sq1 / log_tol
    mu = (((1.0 + w) * sq0 + sq1) / (2.0 + w)) ** 2
    h = -2.0 * math.pi / log_tol * (sq1 - sq0) / ((1.0 + w) * sq0 + sq1)
    return math.ceil(math.sqrt(1.0 - log_tol / mu) / h), mu, h


def _params_right_of(phi, p):
    """(N, mu, h) for a contour right of a singularity at phi of strength p:
    Garrappa's OptimalParam_RU."""
    sq0 = math.sqrt(phi)
    phib = phi * 1.01 if phi > 0 else 0.01
    for _ in range(100):
        ratio = _LOG_TOL / phib
        n = math.ceil(phib / math.pi * (1.0 - 1.5 * ratio + math.sqrt(1.0 - 2.0 * ratio)))
        a = math.pi * n / phib
        sq_mu = math.sqrt(phib) * abs(4.0 - a) / abs(7.0 - math.sqrt(1.0 + 12.0 * a))
        if p == 0.0 or 1.0 < ((math.sqrt(phib) - sq0) / sq_mu) ** (-p) < 10.0:
            break
        phib = (5.0 ** (-1.0 / p) * sq_mu + sq0) ** 2
    mu = sq_mu * sq_mu
    h = (-3.0 * a - 2.0 + 2.0 * math.sqrt(1.0 + 12.0 * a)) / (4.0 - a) / n
    mu_max = _LOG_TOL - _LOG_MACH
    if mu > mu_max:  # keep round-off from exp(mu) under control
        q = 0.0 if p == 0.0 else 5.0 ** (-1.0 / p) * math.sqrt(mu)
        phib = (q + sq0) ** 2
        if phib >= mu_max:
            return math.inf, 0.0, 0.0
        w = math.sqrt(_LOG_MACH / (_LOG_MACH - _LOG_TOL))
        u = math.sqrt(-phib / _LOG_MACH)
        mu = mu_max
        n = math.ceil(w * _LOG_TOL / (2.0 * math.pi) / (u * w - 1.0))
        h = w / n
    return n, mu, h


@functools.lru_cache(maxsize=256)
def _nodes(alpha, beta, bin_):
    """Trapezoid weights w_k and values g_k = s_k^alpha in the real form the
    sum uses, and whether the bin's poles lie right of the contour (their
    residues are then added).

    bin_ < 0: no pole; 0: phi >= _PHI_CAP; j: phi in [_PHI_CAP 2^-j, _PHI_CAP 2^(1-j)).
    Conjugate symmetry folds nodes -N..N onto 0..N (weights doubled for k >= 1).
    """
    p0 = max(0.0, 2.0 * (beta - alpha - 1.0))  # strength of the origin singularity
    if bin_ < 0:
        cands = [_params_right_of(0.0, p0) + (False,)]
    else:
        cands = [_params_left_of_pole(_PHI_CAP * 2.0**-bin_, p0) + (True,)]
        if bin_ > 0:
            cands.append(_params_right_of(_PHI_CAP * 2.0 ** (1 - bin_), 1.0) + (False,))
    n, mu, h, residues = min(cands)
    if not math.isfinite(n):
        raise NoConvergenceError(f"no admissible contour for alpha={alpha}, beta={beta}")
    u = h * np.arange(n + 1)
    s = mu * (1.0 + 1j * u) ** 2
    w = (h * mu / math.pi) * (1.0 + 1j * u) * np.exp(s) * s ** (alpha - beta)
    w[1:] *= 2.0
    g = s**alpha
    # Re(w / (g - z)) = (w.re d + w.im g.im) / (d^2 + g.im^2) with d = g.re - z
    arrays = (w.real.copy(), g.real.copy(), w.imag * g.imag, g.imag * g.imag)
    for a in arrays:
        a.setflags(write=False)  # shared by every caller through the cache
    return arrays, residues


def _step_down(alpha, beta, z):
    """E_{alpha,beta}(z) for beta > alpha + _MAX_BETA_GAP, where the contour's
    origin singularity s^(alpha-beta) would need too many nodes: beta steps
    down by alpha to b <= alpha + _MAX_BETA_GAP, and E_{alpha,b} climbs back
    up through E_{a,c+a}(z) = (E_{a,c}(z) - 1/Gamma(c)) / z.  More than
    _MAX_BETA_STEPS steps raise DomainError."""
    if beta - alpha - _MAX_BETA_GAP > _MAX_BETA_STEPS * alpha:
        raise DomainError(f"E_({alpha},{beta}) off the series disc needs more than "
                          f"{_MAX_BETA_STEPS} steps down in beta")
    betas = [beta]
    while betas[-1] > alpha + _MAX_BETA_GAP:
        betas.append(betas[-1] - alpha)
    out = _contour(alpha, betas[-1], z)
    for c in reversed(betas[1:]):
        out = (out - _rgamma(c)) / z
    return out


def _contour(alpha, beta, z):
    """E_{alpha,beta}(z) for a 1-d array z of nonzero reals, 0 < alpha <= 2.

    The pole bins (r = |z|^(1/alpha), c, phi and a bin search per point) are
    formed only when a pole can lie right of the contour, that is when
    alpha > 1 or some z > 0; otherwise every point takes bin -1.
    """
    if beta > alpha + _MAX_BETA_GAP:
        return _step_down(alpha, beta, z)
    # At large |z| the leading terms of the direct sum cancel for beta = alpha;
    # E_{a,a}(z) = E_{a,0}(z) / z keeps the relative accuracy.
    b = 0.0 if beta == alpha else beta
    pos = z > 0
    if alpha > 1.0 or pos.any():
        with np.errstate(over="ignore"):
            r = np.abs(z) ** (1.0 / alpha)
        c = np.where(pos, 1.0, math.cos(math.pi / alpha))
        phi = np.where(pos | (alpha > 1.0), 0.5 * r * (1.0 + c), 0.0)
        bins = np.where(phi > 0.0, _N_BINS - np.searchsorted(_BIN_EDGES, phi, side="right"), -1)
    else:
        bins = np.full(z.size, -1)
    # Beyond |z| = 1e150 every node sum equals -sum(w.re) / z to double
    # precision; evaluating it at the clamped point and rescaling keeps d^2
    # finite.  any() and not max(), which a NaN anywhere in z would poison.
    huge = (np.abs(z) > 1e150).any()
    zc = np.clip(z, -1e150, 1e150) if huge else z
    out = np.empty_like(z)
    for bin_ in np.flatnonzero(np.bincount(bins + 1)) - 1:
        (wr, gr, wg, gi2), residues = _nodes(alpha, b, int(bin_))
        sel = np.nonzero(bins == bin_)[0]
        chunk = max(1, _CHUNK_ELEMS // gr.size)
        for lo in range(0, sel.size, chunk):
            i = sel[lo : lo + chunk]
            d = gr - zc[i, None]  # two temporaries, in place as in _series
            num = wr * d
            num += wg
            d *= d
            d += gi2
            num /= d
            v = num.sum(axis=1)
            if huge:
                v *= zc[i] / z[i]
            out[i] = v
        if residues:  # s*^(1-b) e^(s*) / a summed over s* = r (z > 0) or r e^(+-i pi/a) (z < 0)
            p, ri = pos[sel], r[sel]
            with np.errstate(over="ignore", invalid="ignore"):
                amp = ri ** (1.0 - b) * np.exp(ri * c[sel]) / alpha
                pair = 2.0 * np.cos(ri * math.sin(math.pi / alpha) + (1.0 - b) * math.pi / alpha)
                out[sel] += amp * np.where(p, 1.0, pair)
    return out if b == beta else out / z


# Points per pass of ml_eval.  Its masks, copies and the contour's per-point
# arrays then stay near 1 MB in all, where on a 132k-point table they took
# 9 MB; smaller blocks cost time in the contour's per-bin loop.
_EVAL_BLOCK = 8192


def ml_eval(order: MLOrder, x):
    """Evaluate E_{alpha,beta}(x) on the real line (scalar or array).

    The power series serves |x| <= 0.5 (the disc of _series_radius where
    beta > alpha + 1.75), the Bromwich contour every other x (0 < alpha <= 2).  Each
    value depends only on its own argument, so array and scalar calls agree
    bit for bit, and the input is walked in blocks of _EVAL_BLOCK points, so
    only the output scales with it.  alpha=1 (beta=1) short-circuits to exp,
    alpha=2 (beta=1) to cosh/cos.
    """
    arr = np.asarray(x, dtype=float)
    z = arr.reshape(-1)
    out = np.empty_like(z)
    for lo in range(0, z.size, _EVAL_BLOCK):
        _ml_block(order.alpha, order.beta, z[lo : lo + _EVAL_BLOCK], out[lo : lo + _EVAL_BLOCK])
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


@functools.lru_cache(maxsize=256)
def _series_radius(alpha, beta):
    """|z| up to which ml_eval sums the series when beta > alpha + _MAX_BETA_GAP.

    _step_down's n steps to b = beta - n alpha multiply rounding by about
    Gamma(beta) / (Gamma(b) |z|^n).  Where that is at most _STEP_GAIN at
    |z| = 1 the series serves |z| <= 1; else it serves
    |z| <= Gamma(alpha + beta) / Gamma(beta), on which its terms shrink from
    the first one on.
    """
    steps = math.ceil((beta - alpha - _MAX_BETA_GAP) / alpha)
    if (steps <= _MAX_BETA_STEPS
            and math.lgamma(beta) - math.lgamma(beta - steps * alpha) <= math.log(_STEP_GAIN)):
        return 1.0
    return max(1.0, math.exp(math.lgamma(alpha + beta) - math.lgamma(beta)))


def _ml_block(alpha, beta, z, out):
    """ml_eval of the 1-d array z into out."""
    if alpha == 1.0 and beta == 1.0:
        np.exp(z, out=out)
    elif alpha == 2.0 and beta == 1.0:
        neg = z < 0
        out[neg] = np.cos(np.sqrt(-z[neg]))
        out[~neg] = np.cosh(np.sqrt(z[~neg]))
    else:
        near = np.abs(z) <= (_series_radius(alpha, beta) if beta > alpha + _MAX_BETA_GAP
                             else _SERIES_RADIUS)
        out[near] = _series(_ml_coef(alpha, beta), z[near])
        if not near.all():
            if alpha > 2.0:
                raise DomainError(f"E_({alpha},{beta}) off the series disc needs alpha <= 2")
            out[~near] = _contour(alpha, beta, z[~near])


_BETA_TOL = 1e-12


def ml_asymptotic_neg(order: MLOrder, x: float) -> float:
    """Leading large-argument term of E_{alpha,beta}(-x), beta in {1, alpha}.

    For 0 < alpha < 1 the algebraic leading term; for 1 < alpha < 2 the
    signed oscillatory-exponential leading term. alpha = 1 is rejected
    (Gamma(1-alpha) pole); callers route it to exp.
    """
    alpha, beta = order.alpha, order.beta
    beta_is_one = abs(beta - 1.0) <= _BETA_TOL
    beta_is_alpha = abs(beta - alpha) <= _BETA_TOL
    if not (beta_is_one or beta_is_alpha):
        raise UnsupportedOrderError("asymptotics only for beta in {1, alpha}")
    if alpha == 1.0:
        raise DomainError("alpha=1 has no algebraic asymptotic; use exp directly")
    if x <= 0:
        raise DomainError("ml_asymptotic_neg expects large positive x (argument -x)")
    if 0 < alpha < 1:
        if beta_is_one:
            return _rgamma(1.0 - alpha) / x
        # two-parameter tail constant: kappa_alpha, the coefficient consistent
        # with both the exact erfc reduction at alpha=1/2 and the sharp bounds
        return kappa_alpha(alpha) / (x * x)
    if 1 < alpha < 2:
        w = x ** (1.0 / alpha)
        damp = math.exp(w * math.cos(math.pi / alpha))
        phase = w * math.sin(math.pi / alpha)
        if beta_is_one:
            return (2.0 / alpha) * damp * math.cos(phase)
        shift = math.pi * (1.0 - alpha) / alpha
        return (2.0 / alpha) * x ** ((1.0 - alpha) / alpha) * damp * math.cos(phase + shift)
    raise DomainError(f"alpha={alpha} outside (0,2)")


def ml_bounds(alpha: float, x):
    """Two-sided sharp bracket for E_alpha(-x), 0 < alpha < 1, x >= 0."""
    if not (0 < alpha < 1):
        raise DomainError(f"ml_bounds requires alpha in (0,1), got {alpha}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("ml_bounds requires x >= 0")
    lower = 1.0 / (1.0 + math.gamma(1.0 - alpha) * x)
    upper = 1.0 / (1.0 + x / math.gamma(1.0 + alpha))
    return lower, upper


def ml_bounds_two(alpha: float, x, beta: float | None = None):
    """Sharp bracket for Gamma(beta) * E_{alpha,beta}(-x).

    beta=None means beta=alpha (squared-denominator bracket); beta > alpha
    uses the first-order bracket.
    """
    if not (0 < alpha < 1):
        raise DomainError(f"ml_bounds_two requires alpha in (0,1), got {alpha}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("ml_bounds_two requires x >= 0")
    if beta is None:
        g1m, g1p, g2p = (math.gamma(v) for v in (1 - alpha, 1 + alpha, 1 + 2 * alpha))
        lower = 1.0 / (1.0 + math.sqrt(g1m / g1p) * x) ** 2
        upper = 1.0 / (1.0 + math.sqrt(g1p / g2p) * x) ** 2
        return lower, upper
    if not beta > alpha:
        raise DomainError("the beta-variant bracket requires beta > alpha")
    gb, gbm, gbp = (gamma_fn(v) for v in (beta, beta - alpha, beta + alpha))
    lower = 1.0 / (1.0 + (gbm / gb) * x)
    upper = 1.0 / (1.0 + (gb / gbp) * x)
    return lower, upper


_ZERO_SCAN_STEP = 0.05
_ZERO_TOL = 1e-10


def ml_real_zeros(alpha: float, x_min: float) -> ZeroList:
    """Locate all real zeros of E_alpha on [x_min, 0] by scan plus bisection.

    Completely monotone orders alpha <= 1 return an empty list without
    scanning.  The scan steps by 0.05; a scan point where E_alpha is exactly
    0 is a zero.  Every sign change between scan points is bisected, all
    brackets in the same ml_eval call, until its ends are adjacent floats.
    The end with the smaller |E_alpha| is a zero if that value is at most
    max(1e-10, 1e-9 |f_a - f_b|), with f_a, f_b the scan values at the
    bracket's ends.
    """
    if x_min >= 0:
        raise DomainError("x_min must be negative")
    if alpha <= 1.0:
        return ZeroList(alpha, (), (x_min, 0.0))
    if alpha > 2.0:
        raise DomainError("zero finding supported for alpha in (1, 2] only")

    order = MLOrder(alpha, 1.0)
    grid = np.arange(x_min, 0.0, _ZERO_SCAN_STEP)
    if grid[-1] < -_ZERO_SCAN_STEP / 2:
        grid = np.append(grid, -_ZERO_SCAN_STEP / 2)
    vals = ml_eval(order, grid)
    fa, fb = vals[:-1], vals[1:]
    cross = np.nonzero(fa * fb < 0)[0]
    lo, hi, f_lo, f_hi = grid[cross], grid[cross + 1], fa[cross], fb[cross]
    while True:
        mid = 0.5 * (lo + hi)
        i = np.nonzero((lo < mid) & (mid < hi))[0]
        if not i.size:
            break
        f_mid = ml_eval(order, mid[i])
        right = f_mid * f_lo[i] > 0  # the sign change lies in [mid, hi]
        lo[i[right]], f_lo[i[right]] = mid[i[right]], f_mid[right]
        hi[i[~right]], f_hi[i[~right]] = mid[i[~right]], f_mid[~right]
    root = np.where(np.abs(f_lo) <= np.abs(f_hi), lo, hi)
    ok = np.minimum(np.abs(f_lo), np.abs(f_hi)) <= np.maximum(
        _ZERO_TOL, 1e-9 * np.abs(fa[cross] - fb[cross]))
    zeros = np.sort(np.concatenate((grid[:-1][fa == 0.0], root[ok])))
    return ZeroList(alpha, tuple(float(z) for z in zeros), (x_min, 0.0))


@functools.lru_cache(maxsize=256)
def _mainardi_coef(alpha):
    """1 / (Gamma(alpha k + 1 - alpha) (2k)!), k < _SERIES_MAX_TERMS."""
    return _frozen([_rgamma(alpha * k + 1.0 - alpha) * _rgamma(2.0 * k + 1.0)
                    for k in range(_SERIES_MAX_TERMS)])


def mainardi_series(alpha: float, u):
    """sum_n (-1)^n u^(2n) / ((2n)! Gamma(alpha n - alpha + 1)), scalar or array u.

    For alpha in (0,1) the Gamma argument alpha(n-1)+1 is never a
    non-positive integer, so each term is well defined.  The alternating
    terms cancel, and the sum rounds once per term: where 2^-51 times the sum
    of the terms' magnitudes exceeds 1e-12 of |sum| (of the peak
    1/Gamma(1 - alpha) where |sum| is smaller), the digits are lost and
    NoConvergenceError is raised, from u = 10.8 at alpha = 0.5.
    """
    if not (0 < alpha < 1):
        raise DomainError(f"mainardi_series requires alpha in (0,1), got {alpha}")
    u = np.asarray(u, dtype=float)
    if np.any(u < 0):
        raise DomainError("mainardi_series requires u >= 0")

    coef, u2 = _mainardi_coef(alpha), (u * u).ravel()
    try:
        # every coefficient is positive, so the series at +u^2 sums the
        # terms' magnitudes; the error reached 1.12 times 2^-52 of that on a
        # 60-digit reference grid (alpha 0.5 and 0.9, u <= 30), hence 2^-51
        out, size = _series(coef, -u2), _series(coef, u2)
        lost = size * 2.0**-51 > np.maximum(np.abs(out), coef[0]) * _SERIES_TOL
    except NoConvergenceError:
        # u^(2k) overflows before the terms shrink, at the largest u first,
        # far beyond where the digits were lost
        lost = u2 == u2.max()
    if np.any(lost):
        raise NoConvergenceError(
            f"mainardi_series loses its digits to cancellation at u={math.sqrt(u2[lost][0])}")
    out = out.reshape(u.shape)
    return float(out) if out.ndim == 0 else out


def _distinct(values):
    """Sorted distinct values of a 1-d array: np.unique by sort and mask,
    without the numpy.ma import np.unique pays on first use."""
    v = np.sort(values)
    return v[np.concatenate(([True], v[1:] != v[:-1]))]


@functools.lru_cache(maxsize=None)
def _leggauss(n):
    return np.polynomial.legendre.leggauss(n)


def gl_panels(edges, n: int):
    """Gauss-Legendre rule of order n on each panel [edges[i], edges[i+1]].

    Returns the nodes and weights of all panels, flattened in panel order.
    """
    nodes, weights = _leggauss(n)
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * nodes).ravel(), (half * weights).ravel()
