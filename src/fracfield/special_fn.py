"""Real-line evaluation of Gamma, erfc, Hurwitz zeta, Mittag-Leffler and
Mainardi functions, with numpy and the standard library only.

The two-parameter Mittag-Leffler function E_{alpha,beta}(z) has one
evaluator with two paths: the power series for |z| <= 0.5, summed by
Horner's rule over a table of terms fixed per order, and everywhere else
the trapezoid rule on a parabolic Bromwich contour for the inverse
Laplace transform of s^(alpha-beta) / (s^alpha - z), plus the residues of
the poles s^alpha = z that lie right of the contour.  It covers
0 < alpha <= 2, every finite beta > 0 and both signs of z.  Up to
beta = alpha + 1.75 the contour follows Garrappa's rules; beyond, it passes
through the saddle point s = beta - alpha of e^s s^(alpha-beta).

Against the mpmath series oracle (tests/ml_oracle.py) on 11 orders alpha in
[0.1, 1.95], beta in {1, alpha, alpha+1, 0.5, 1.7} and 29 log-spaced |z| in
[1e-3, 1e4] (2522 points the oracle series reaches, both signs), the
largest error is 2.6e-13, relative where |E| > 1e-3 and absolute below.
For beta > alpha + 1.75 the error is graded relative, as such values are
often far below 1e-3: on alpha in {0.1, 0.3, 0.5, 0.8, 1.2, 1.5, 1.9}, beta
in {2.5, 3, 4, 5, 8, 12, 20, 30, 100} and |z| in [0.3, 1000] (both signs,
where the oracle series reaches) it is at most 1.5e-13 for beta <= 30
(alpha = 0.8, beta = 4, z = 131.6) and 1.2e-13 at beta = 100 (alpha = 1.5,
z = 1000).  On the disc alone, for alpha in [0.1, 3], beta in {1, alpha,
0.1, 0.5, 1.7, alpha+1, alpha+1.8, 5, 20} and 40 log-spaced |z| in
[1e-10, 0.5] (both signs), it is at most 1.3e-14 (alpha = 0.3, beta = 0.1,
z = -0.5), graded as the first grid.

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
_SERIES_MAX_TERMS = 500  # coefficients computed before a table is cut to length


def _series(coef, z):
    """sum_k c_k z^k for a 1-d array z, by Horner's rule over every
    coefficient in the array coef, so each value depends on its own z only."""
    out = np.full_like(z, coef[-1])
    for c in coef[-2::-1]:
        out *= z
        out += c
    return out


def _frozen(values):
    out = np.array(values)
    out.setflags(write=False)  # shared by every caller through the cache
    return out


@functools.lru_cache(maxsize=256)
def _ml_coef(alpha, beta):
    """1 / Gamma(alpha k + beta), up to the first k past which every term
    c_k 0.5^k on the disc is below 2^-60 of the largest (53 terms at
    alpha = 0.1, beta = 1; 12 at alpha = 1.5, beta = 1)."""
    coef = np.array([_rgamma(alpha * k + beta) for k in range(_SERIES_MAX_TERMS)])
    terms = np.abs(coef) * _SERIES_RADIUS ** np.arange(coef.size)
    return _frozen(coef[: np.flatnonzero(terms >= 2.0**-60 * terms.max())[-1] + 1])


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
#
# Beyond beta = alpha + _MAX_BETA_GAP the origin singularity s^(a-b) defeats
# those rules (no admissible contour, or thousands of nodes), so the parabola
# passes through the saddle point s = q = b - a of e^s s^-q instead, where that
# factor is smallest along the real axis (Schmelzer and Trefethen, SIAM J.
# Numer. Anal. 45 (2007)): mu on the rung q (1 + d)^(2k), k in
# {-1, 0, 1}, d = min(0.5, q^-1/2), step h = pi d / ln 1e15 and nodes up to
# u = sqrt(ln 1e15 / mu), where e^s has fallen by 1e15.  A pole lies
# 1 - sqrt(phi/mu) off a rung in u and costs the sum about
# exp(-2 pi |1 - sqrt(phi/mu)| / h), 1e-15 at d/2: a point whose pole lies
# within d/2 of the saddle rung takes the outer rung farther from the pole.

_LOG_TOL = math.log(1e-15)
_LOG_MACH = math.log(np.finfo(float).eps)
_FLOAT_MAX = np.finfo(float).max
_PHI_CAP = 4.0 * (_LOG_TOL - _LOG_MACH)  # ~6.02; round-off caps the contour there
_N_BINS = 50
_BIN_EDGES = _PHI_CAP * 2.0 ** np.arange(1.0 - _N_BINS, 1.0)
# Bounds the (points x nodes) temporaries to 64 KiB, below glibc's default
# 128 KiB mmap and trim threshold: temporaries of that size are mapped (or
# trimmed) afresh, so a long-lived process faults their pages in on most
# calls, where smaller ones reuse its heap pages.
_CHUNK_ELEMS = 1 << 13
_MAX_BETA_GAP = 1.75  # Garrappa's rules up to beta = alpha + 1.75, saddle rungs beyond


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
    sum uses, and the phi beyond which a pole lies right of the contour (its
    residue is then added).

    For beta <= alpha + _MAX_BETA_GAP, Garrappa's bins: bin_ < 0: no pole;
    0: phi >= _PHI_CAP; j: phi in [_PHI_CAP 2^-j, _PHI_CAP 2^(1-j)), and the
    poles of a bin lie all right of its contour (phi 0) or none (phi inf).
    Beyond, bin_ in {-1, 0, 1} is the saddle rung k.  Conjugate symmetry
    folds nodes -N..N onto 0..N (weights doubled for k >= 1).
    """
    saddle = beta > alpha + _MAX_BETA_GAP
    if saddle:
        d = min(0.5, (beta - alpha) ** -0.5)
        mu, h = (beta - alpha) * (1.0 + d) ** (2 * bin_), math.pi * d / -_LOG_TOL
        n, right_of = math.ceil(math.sqrt(-_LOG_TOL / mu) / h), mu
    else:
        p0 = max(0.0, 2.0 * (beta - alpha - 1.0))  # strength of the origin singularity
        if bin_ < 0:
            cands = [_params_right_of(0.0, p0) + (math.inf,)]
        else:
            cands = [_params_left_of_pole(_PHI_CAP * 2.0**-bin_, p0) + (0.0,)]
            if bin_ > 0:
                cands.append(_params_right_of(_PHI_CAP * 2.0 ** (1 - bin_), 1.0) + (math.inf,))
        n, mu, h, right_of = min(cands)
        if not math.isfinite(n):
            raise NoConvergenceError(f"no admissible contour for alpha={alpha}, beta={beta}")
    u = h * np.arange(n + 1)
    s = mu * (1.0 + 1j * u) ** 2
    # On a saddle rung e^s and s^(a-b) each leave the float range long before
    # their product, and s^a does too past q = 1e154 (a = 2), where every
    # weight is 0.
    with np.errstate(over="ignore"):
        if saddle:
            w = (h * mu / math.pi) * (1.0 + 1j * u) * np.exp(s + (alpha - beta) * np.log(s))
        else:
            w = (h * mu / math.pi) * (1.0 + 1j * u) * np.exp(s) * s ** (alpha - beta)
        g = s**alpha
    g[w == 0.0] = 0.0  # a node of zero weight adds nothing, whatever its s^a
    w[1:] *= 2.0
    # Re(w / (g - z)) = (w.re d + w.im g.im) / (d^2 + g.im^2) with d = g.re - z
    arrays = (w.real.copy(), g.real.copy(), w.imag * g.imag, g.imag * g.imag)
    for a in arrays:
        a.setflags(write=False)  # shared by every caller through the cache
    return arrays, right_of


def _contour(alpha, beta, z):
    """E_{alpha,beta}(z) for a 1-d array z of nonzero reals, 0 < alpha <= 2.

    For beta <= alpha + _MAX_BETA_GAP the pole bins (r = |z|^(1/alpha), c,
    phi and a bin search per point) are formed only when a pole can lie right
    of the contour, that is when alpha > 1 or some z > 0; otherwise every
    point takes bin -1.  Beyond, every point takes the saddle rung 0 unless
    its pole lies within d/2 of it in u, and then the outer rung farther from
    the pole; the residue of a pole right of its rung is added in log form.
    """
    saddle = beta > alpha + _MAX_BETA_GAP
    # At large |z| the leading terms of the direct sum cancel for beta = alpha;
    # E_{a,a}(z) = E_{a,0}(z) / z keeps the relative accuracy.
    b = 0.0 if beta == alpha else beta
    pos = z > 0
    if alpha > 1.0 or pos.any() or saddle:
        with np.errstate(over="ignore"):
            r = np.abs(z) ** (1.0 / alpha)
        c = np.where(pos, 1.0, math.cos(math.pi / alpha))
        phi = np.where(pos | (alpha > 1.0), 0.5 * r * (1.0 + c), 0.0)
        if saddle:
            off = 1.0 - np.sqrt(phi / (beta - alpha))
            near = np.abs(off) < 0.5 * min(0.5, (beta - alpha) ** -0.5)
            bins = np.where(near, np.where(off > 0.0, 1, -1), 0)
        else:
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
        (wr, gr, wg, gi2), right_of = _nodes(alpha, b, int(bin_))
        sel = np.nonzero(bins == bin_)[0]
        chunk = max(1, _CHUNK_ELEMS // gr.size)
        for lo in range(0, sel.size, chunk):
            i = sel[lo : lo + chunk]
            d = gr - zc[i, None]  # two temporaries, worked in place
            num = wr * d
            num += wg
            d *= d
            d += gi2
            num /= d
            v = num.sum(axis=1)
            if huge:
                v *= zc[i] / z[i]
            out[i] = v
        # s*^(1-b) e^(s*) / a summed over s* = r (z > 0) or r e^(+-i pi/a) (z < 0)
        if right_of < math.inf:
            sel = sel[phi[sel] > right_of]
            p, ri = pos[sel], r[sel]
            with np.errstate(over="ignore", invalid="ignore"):
                amp = (np.exp(ri * c[sel] + (1.0 - b) * np.log(ri)) if saddle
                       else ri ** (1.0 - b) * np.exp(ri * c[sel])) / alpha
                pair = 2.0 * np.cos(ri * math.sin(math.pi / alpha) + (1.0 - b) * math.pi / alpha)
                term = amp * np.where(p, 1.0, pair)
            # 0 * inf or cos(inf) where r or e^(r c) leaves the float range:
            # e^(r c) decides, +inf for z > 0 and 0 for z < 0 below alpha = 2
            lost = np.isnan(term) & (p | (alpha < 2.0))
            term[lost] = np.where(p[lost], math.inf, 0.0)
            out[sel] += term
    # at z = +-inf out is already the limit (inf or 0), and so is its quotient
    # by the largest float, where out / z would be inf / inf
    return out if b == beta else out / np.clip(z, -_FLOAT_MAX, _FLOAT_MAX)


# Points per pass of ml_eval.  Its masks, copies and the contour's per-point
# arrays then stay near 1 MB in all, where on a 132k-point table they took
# 9 MB; smaller blocks cost time in the contour's per-bin loop.
_EVAL_BLOCK = 8192


def ml_eval(order: MLOrder, x):
    """Evaluate E_{alpha,beta}(x) on the real line (scalar or array).

    The power series serves |x| <= 0.5, the Bromwich contour every other x
    (0 < alpha <= 2; through the saddle point of e^s s^(alpha-beta) where
    beta > alpha + 1.75).  Each value depends only on its own argument, so
    array and scalar calls agree bit for bit, and the input is walked in
    blocks of _EVAL_BLOCK points, so only the output scales with it.
    alpha=1 (beta=1) short-circuits to exp, alpha=2 (beta=1) to cosh/cos.
    """
    arr = np.asarray(x, dtype=float)
    z = arr.reshape(-1)
    out = np.empty_like(z)
    for lo in range(0, z.size, _EVAL_BLOCK):
        _ml_block(order.alpha, order.beta, z[lo : lo + _EVAL_BLOCK], out[lo : lo + _EVAL_BLOCK])
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _ml_block(alpha, beta, z, out):
    """ml_eval of the 1-d array z into out."""
    if alpha == 1.0 and beta == 1.0:
        np.exp(z, out=out)
    elif alpha == 2.0 and beta == 1.0:
        neg = z < 0
        out[neg] = np.cos(np.sqrt(-z[neg]))
        out[~neg] = np.cosh(np.sqrt(z[~neg]))
    else:
        near = np.abs(z) <= _SERIES_RADIUS
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
    """1 / (Gamma(alpha k + 1 - alpha) (2k)!) up to the last that is nonzero:
    1/(2k)! underflows, at k = 79 for alpha = 0.5."""
    coef = np.array([_rgamma(alpha * k + 1.0 - alpha) * _rgamma(2.0 * k + 1.0)
                     for k in range(_SERIES_MAX_TERMS)])
    return _frozen(coef[: np.flatnonzero(coef)[-1] + 1])


def mainardi_series(alpha: float, u):
    """sum_n (-1)^n u^(2n) / ((2n)! Gamma(alpha n - alpha + 1)), scalar or array u.

    For alpha in (0,1) the Gamma argument alpha(n-1)+1 is never a
    non-positive integer, so each term is well defined.  The alternating
    terms cancel, and the sum rounds once per term: where 2^-51 times the sum
    of the terms' magnitudes exceeds 1e-12 of |sum| (of the peak
    1/Gamma(1 - alpha) where |sum| is smaller), the digits are lost and
    NoConvergenceError is raised, from u = 10.8 at alpha = 0.5.  It is
    raised too where either sum leaves the float range, and where the
    table's last term is not below 2^-53 of the magnitudes' sum, so that
    the table cuts the series short.
    """
    if not (0 < alpha < 1):
        raise DomainError(f"mainardi_series requires alpha in (0,1), got {alpha}")
    u = np.asarray(u, dtype=float)
    if np.any(u < 0):
        raise DomainError("mainardi_series requires u >= 0")

    coef, u2 = _mainardi_coef(alpha), (u * u).ravel()
    # every coefficient is positive, so the series at +u^2 sums the terms'
    # magnitudes; the error reached 0.94 times 2^-52 of that on a 60-digit
    # reference grid (alpha 0.5 and 0.9, u <= 30), hence 2^-51
    with np.errstate(over="ignore", invalid="ignore"):
        out, size = _series(coef, -u2), _series(coef, u2)
        last = coef[-1] * u2 ** (coef.size - 1)
    lost = ~(np.isfinite(out) & np.isfinite(size) & (last < 2.0**-53 * size))
    lost |= size * 2.0**-51 > np.maximum(np.abs(out), coef[0]) * 1e-12
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
