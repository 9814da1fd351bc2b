"""Real-line evaluation of Gamma, erfc, Mittag-Leffler and Mainardi functions.

The two-parameter Mittag-Leffler function E_{alpha,beta}(z) has one
evaluator with two paths: the power series for |z| <= 0.5, and everywhere
else the trapezoid rule on a parabolic Bromwich contour for the inverse
Laplace transform of s^(alpha-beta) / (s^alpha - z), plus the residues of
the poles s^alpha = z that lie right of the contour.  It covers
0 < alpha <= 2, every beta > 0 and both signs of z.

Against the mpmath series oracle (tests/ml_oracle.py) on 11 orders alpha in
[0.1, 1.95], beta in {1, alpha, alpha+1, 0.5, 1.7} and 29 log-spaced |z| in
[1e-3, 1e4] (2522 points the oracle series reaches, both signs), the
largest error is 2.6e-13, relative where |E| > 1e-3 and absolute below.
beta > alpha + 1.75 goes through the recurrence in beta, which loses digits
near |z| = 1 when it takes many steps (5e-11 at alpha = 0.1, beta = 5,
z = -0.7).

All functions are pure and deterministic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize, special

from .errors import DomainError, NoConvergenceError, UnsupportedOrderError

__all__ = [
    "MLOrder",
    "EvalPolicy",
    "ZeroList",
    "DEFAULT_POLICY",
    "gamma_fn",
    "erfc",
    "kappa_alpha",
    "ml_series",
    "ml_asymptotic_neg",
    "ml_eval",
    "ml_bounds",
    "ml_bounds_two",
    "ml_dominant_identity_residual",
    "ml_real_zeros",
    "mainardi_series",
    "mainardi_half_closed",
    "gl_panels",
]


@dataclass(frozen=True)
class MLOrder:
    """Order pair (alpha, beta) of the two-parameter Mittag-Leffler function."""

    alpha: float
    beta: float = 1.0

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0):
            raise DomainError(f"MLOrder requires alpha, beta > 0, got {self}")


@dataclass(frozen=True)
class EvalPolicy:
    """Precision contract for the power series: stopping tolerance and term cap."""

    rel_tol: float = 1e-12
    max_terms: int = 500

    def __post_init__(self):
        if not (0 < self.rel_tol < 1):
            raise DomainError("rel_tol must lie in (0, 1)")
        if self.max_terms < 10:
            raise DomainError("max_terms must be >= 10")


DEFAULT_POLICY = EvalPolicy()


@dataclass(frozen=True)
class ZeroList:
    """Real zeros of E_alpha found on a search interval [x_min, 0]."""

    alpha: float
    zeros: tuple
    search_interval: tuple

    def __len__(self):
        return len(self.zeros)


def gamma_fn(x: float) -> float:
    """Gamma function on the real line, rejecting the poles at 0, -1, -2, ..."""
    xf = float(x)
    if xf <= 0 and xf == math.floor(xf):
        raise DomainError(f"gamma_fn pole at non-positive integer x={xf}")
    return float(special.gamma(xf))


def erfc(x):
    """Complementary error function, (2/sqrt(pi)) int_x^inf exp(-t^2) dt."""
    return special.erfc(x)


def kappa_alpha(alpha: float) -> float:
    """sin(pi*alpha) * Gamma(1+alpha) / pi; changes sign at alpha = 1."""
    if not (0 < alpha < 2):
        raise DomainError(f"kappa_alpha requires alpha in (0,2), got {alpha}")
    return math.sin(math.pi * alpha) * float(special.gamma(1 + alpha)) / math.pi


# ---------------------------------------------------------------------------
# power series, |z| <= _SERIES_RADIUS

_SERIES_RADIUS = 0.5
_SERIES_BLOCK = 64
_SERIES_CHUNK = 256


def _series(coef, z, policy):
    """Partial sums of sum_k c_k z^k for a 1-d array z; coef(n) gives c_0..c_{n-1}.

    A point stops once three consecutive terms fall below rel_tol times its
    running sum (guards alternating near-cancellation), so its value does not
    depend on the other points.  Points still running after a block of terms
    are redone with twice as many, up to max_terms.  Long inputs run in
    chunks, which bounds the (points x terms) temporaries.
    """
    if z.size > _SERIES_CHUNK:
        return np.concatenate([_series(coef, z[i : i + _SERIES_CHUNK], policy)
                               for i in range(0, z.size, _SERIES_CHUNK)])
    out = np.empty_like(z)
    todo = np.arange(z.size)
    n = min(_SERIES_BLOCK, policy.max_terms)
    while todo.size:
        steps = np.empty((todo.size, n))
        steps[:, 0] = 1.0
        steps[:, 1:] = z[todo, None]
        with np.errstate(over="ignore", invalid="ignore"):
            terms = np.cumprod(steps, axis=1) * coef(n)
            acc = np.cumsum(terms, axis=1)
            small = np.abs(terms) <= policy.rel_tol * np.maximum(np.abs(acc), 1e-300)
        stop = small[:, :-2] & small[:, 1:-1] & small[:, 2:]
        done = np.nonzero(stop.any(axis=1))[0]
        out[todo[done]] = acc[done, stop[done].argmax(axis=1) + 2]
        todo = np.delete(todo, done)
        if todo.size and n == policy.max_terms:
            raise NoConvergenceError(
                f"power series did not converge within {n} terms at z={z[todo[0]]}"
            )
        n = min(2 * n, policy.max_terms)
    return out


def _ml_coef(alpha, beta):
    return lambda n: special.rgamma(alpha * np.arange(n) + beta)


def ml_series(order: MLOrder, z: float, policy: EvalPolicy = DEFAULT_POLICY) -> float:
    """Partial sum of sum_k z^k / Gamma(alpha k + beta).

    Stops once three consecutive terms fall below rel_tol times the running
    sum; raises NoConvergenceError if max_terms is exhausted first.
    """
    return float(_series(_ml_coef(order.alpha, order.beta), np.array([float(z)]), policy)[0])


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
_CHUNK_ELEMS = 1 << 14  # bounds the (points x nodes) temporaries to 128 KB


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


def _contour(alpha, beta, z):
    """E_{alpha,beta}(z) for a 1-d array z of nonzero reals, 0 < alpha <= 2."""
    if beta > alpha + 1.75:  # the origin singularity s^(alpha-beta) would need too many nodes
        return (_contour(alpha, beta - alpha, z) - special.rgamma(beta - alpha)) / z
    # At large |z| the leading terms of the direct sum cancel for beta = alpha;
    # E_{a,a}(z) = E_{a,0}(z) / z keeps the relative accuracy.
    b = 0.0 if beta == alpha else beta
    pos = z > 0
    with np.errstate(over="ignore"):
        r = np.abs(z) ** (1.0 / alpha)
    c = np.where(pos, 1.0, math.cos(math.pi / alpha))
    phi = np.where(pos | (alpha > 1.0), 0.5 * r * (1.0 + c), 0.0)
    bins = np.where(phi > 0.0, _N_BINS - np.searchsorted(_BIN_EDGES, phi, side="right"), -1)
    # Beyond |z| = 1e150 every node sum equals -sum(w.re) / z to double
    # precision; evaluating it at the clamped point and rescaling keeps d^2 finite.
    zc = np.clip(z, -1e150, 1e150)
    out = np.empty_like(z)
    for bin_ in np.unique(bins):
        (wr, gr, wg, gi2), residues = _nodes(alpha, b, int(bin_))
        sel = np.nonzero(bins == bin_)[0]
        chunk = min(4096, _CHUNK_ELEMS // gr.size)
        for lo in range(0, sel.size, chunk):
            i = sel[lo : lo + chunk]
            d = gr - zc[i, None]
            out[i] = ((wr * d + wg) / (d * d + gi2)).sum(axis=1) * (zc[i] / z[i])
        if residues:  # s*^(1-b) e^(s*) / a summed over s* = r (z > 0) or r e^(+-i pi/a) (z < 0)
            p, ri = pos[sel], r[sel]
            with np.errstate(over="ignore", invalid="ignore"):
                amp = ri ** (1.0 - b) * np.exp(ri * c[sel]) / alpha
                pair = 2.0 * np.cos(ri * math.sin(math.pi / alpha) + (1.0 - b) * math.pi / alpha)
                out[sel] += amp * np.where(p, 1.0, pair)
    return out if b == beta else out / z


def ml_eval(order: MLOrder, x, policy: EvalPolicy = DEFAULT_POLICY):
    """Evaluate E_{alpha,beta}(x) on the real line (scalar or array).

    The power series serves |x| <= 0.5, the Bromwich contour every other x
    (0 < alpha <= 2, any beta > 0).  Each value depends only on its own
    argument, so array and scalar calls agree bit for bit.  alpha=1 (beta=1)
    short-circuits to exp, alpha=2 (beta=1) to cosh/cos.
    """
    alpha, beta = order.alpha, order.beta
    arr = np.asarray(x, dtype=float)
    z = np.atleast_1d(arr)
    out = np.empty_like(z)
    if alpha == 1.0 and beta == 1.0:
        out = np.exp(z)
    elif alpha == 2.0 and beta == 1.0:
        neg = z < 0
        out[neg] = np.cos(np.sqrt(-z[neg]))
        out[~neg] = np.cosh(np.sqrt(z[~neg]))
    else:
        near = np.abs(z) <= _SERIES_RADIUS
        out[near] = _series(_ml_coef(alpha, beta), z[near], policy)
        if not near.all():
            if alpha > 2.0:
                raise DomainError(f"E_({alpha},{beta}) beyond |x| = 0.5 needs alpha <= 2")
            out[~near] = _contour(alpha, beta, z[~near])
    return float(out[0]) if arr.ndim == 0 else out


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
            return float(special.rgamma(1.0 - alpha)) / x
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
    lower = 1.0 / (1.0 + float(special.gamma(1.0 - alpha)) * x)
    upper = 1.0 / (1.0 + x / float(special.gamma(1.0 + alpha)))
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
        g1m, g1p, g2p = (float(special.gamma(v)) for v in (1 - alpha, 1 + alpha, 1 + 2 * alpha))
        lower = 1.0 / (1.0 + math.sqrt(g1m / g1p) * x) ** 2
        upper = 1.0 / (1.0 + math.sqrt(g1p / g2p) * x) ** 2
        return lower, upper
    if not beta > alpha:
        raise DomainError("the beta-variant bracket requires beta > alpha")
    gb, gbm, gbp = (float(special.gamma(v)) for v in (beta, beta - alpha, beta + alpha))
    lower = 1.0 / (1.0 + (gbm / gb) * x)
    upper = 1.0 / (1.0 + (gb / gbp) * x)
    return lower, upper


def ml_dominant_identity_residual(
    alpha: float, z: float, policy: EvalPolicy = DEFAULT_POLICY
) -> float:
    """alpha*z*E_alpha(z) - (z*exp(z^(1/alpha)) - kappa_alpha).

    z^(1/alpha) is taken on the principal branch; the real part of the
    residual is returned. The identity is O(1/z) on the positive axis and,
    for negative z, only where cos(pi/alpha) < 0 (alpha in (2/3, 2)).
    """
    e_ml = ml_eval(MLOrder(alpha, 1.0), z, policy)
    zc = complex(z)
    e_alpha = zc * np.exp(zc ** (1.0 / alpha)) - kappa_alpha(alpha)
    return float((alpha * z * e_ml - e_alpha).real)


def ml_real_zeros(
    alpha: float,
    x_min: float,
    zero_tol: float = 1e-10,
    scan_step: float = 0.05,
    policy: EvalPolicy = DEFAULT_POLICY,
) -> ZeroList:
    """Locate all real zeros of E_alpha on [x_min, 0] by scan plus bisection.

    Completely monotone orders alpha <= 1 return an empty list without
    scanning. Zeros are refined until |E_alpha| <= zero_tol (or the bracket
    collapses to machine width).
    """
    if x_min >= 0:
        raise DomainError("x_min must be negative")
    if alpha <= 1.0:
        return ZeroList(alpha, (), (x_min, 0.0))
    if alpha > 2.0:
        raise DomainError("zero finding supported for alpha in (1, 2] only")

    order = MLOrder(alpha, 1.0)
    grid = np.arange(x_min, 0.0, scan_step)
    if grid[-1] < -scan_step / 2:
        grid = np.append(grid, -scan_step / 2)
    vals = ml_eval(order, grid, policy)

    def f(z):
        return ml_eval(order, float(z), policy)

    zeros = []
    for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if fa == 0.0:
            zeros.append(float(a))
            continue
        if fa * fb < 0:
            root = optimize.brentq(f, a, b, xtol=1e-13, rtol=4 * np.finfo(float).eps)
            if abs(f(root)) <= max(zero_tol, 1e-9 * abs(fa - fb)):
                zeros.append(float(root))
    return ZeroList(alpha, tuple(sorted(zeros)), (x_min, 0.0))


def mainardi_series(alpha: float, u, policy: EvalPolicy = DEFAULT_POLICY):
    """sum_n (-1)^n u^(2n) / ((2n)! Gamma(alpha n - alpha + 1)), scalar or array u.

    For alpha in (0,1) the Gamma argument alpha(n-1)+1 is never a
    non-positive integer, so each term is well defined.
    """
    if not (0 < alpha < 1):
        raise DomainError(f"mainardi_series requires alpha in (0,1), got {alpha}")
    u = np.asarray(u, dtype=float)
    if np.any(u < 0):
        raise DomainError("mainardi_series requires u >= 0")

    def coef(n):
        k = np.arange(n)
        return special.rgamma(alpha * k + 1.0 - alpha) * special.rgamma(2.0 * k + 1.0)

    out = _series(coef, -(u * u).ravel(), policy).reshape(u.shape)
    return float(out) if out.ndim == 0 else out


def mainardi_half_closed(u) -> float:
    """Closed form (1+u) exp(-u^2/4) / sqrt(pi) for the order-1/2 kernel."""
    u = np.asarray(u, dtype=float)
    if np.any(u < 0):
        raise DomainError("mainardi_half_closed requires u >= 0")
    out = (1.0 + u) * np.exp(-u * u / 4.0) / math.sqrt(math.pi)
    return float(out) if out.ndim == 0 else out


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
