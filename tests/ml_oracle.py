"""Independent high-precision Mittag-Leffler oracle for the tests.

Two routes, both independent of the library under test:

  * the defining power series at adaptive mpmath precision (the precision
    follows the cancellation scale exp(|z|^(1/alpha)) on the negative axis);
  * for subdiffusive orders at very large |z|, the optimally truncated
    algebraic expansion sum_j (-1)^(j+1) |z|^(-j) / Gamma(beta - alpha j),
    whose truncation error at the optimal order is far below float64.
"""

import mpmath as mp


def _series(alpha, beta, z, need):
    with mp.workdps(60 + need):
        a = mp.mpf(alpha)
        b = mp.mpf(beta)
        zc = mp.mpf(z)
        s = mp.mpf(0)
        k = 0
        peak = abs(zc) ** (1.0 / alpha)
        while True:
            t = mp.power(zc, k) / mp.gamma(a * k + b)
            s += t
            k += 1
            if k > peak + 10 and abs(t) < mp.mpf(10) ** (-(mp.mp.dps - 8)) * max(
                abs(s), mp.mpf(1)
            ):
                return float(s)
            if k > 500000:
                raise RuntimeError("oracle series did not converge")


def _asymptotic(alpha, beta, x):
    with mp.workdps(60):
        a = mp.mpf(alpha)
        b = mp.mpf(beta)
        xm = mp.mpf(x)
        s = mp.mpf(0)
        prev = mp.inf
        for j in range(1, 300):
            t = (-1) ** (j + 1) * mp.power(xm, -j) * mp.rgamma(b - a * j)
            if t == 0:
                continue  # reciprocal-gamma pole: the term vanishes identically
            if abs(t) > prev:
                break
            s += t
            prev = abs(t)
        return float(s)


def ml_oracle(alpha: float, beta: float, z: float) -> float:
    """E_{alpha,beta}(z) for real z to well beyond float64 accuracy."""
    if z >= 0 or (-z) ** (1.0 / alpha) * 0.4343 <= 600:
        need = 0 if z >= 0 else int((-z) ** (1.0 / alpha) * 0.4343)
        return _series(alpha, beta, z, need)
    if alpha >= 1:
        raise RuntimeError("oracle asymptotic route is for 0 < alpha < 1")
    return _asymptotic(alpha, beta, -z)


def mainardi_oracle(nu: float, z: float) -> float:
    """M-Wright function M_nu(z) = sum_n (-z)^n / (n! Gamma(1 - nu - nu n)), 0 < nu < 1.

    The terms grow far beyond the sum before they cancel, so the working
    precision is raised until it covers the largest term with 25 digits to
    spare.  1/Gamma vanishes at its poles, so single terms can be exactly
    zero; the sum stops only after several consecutive negligible terms.
    """
    dps = 40
    while True:
        with mp.workdps(dps):
            zm, num = mp.mpf(z), mp.mpf(nu)
            total, power, peak, n, quiet = mp.mpf(0), mp.mpf(1), mp.mpf(0), 0, 0
            while quiet < 6 or n < 10:
                term = power * mp.rgamma(1 - num - num * n)
                total += term
                peak = max(peak, abs(term))
                tiny = abs(term) < mp.mpf(10) ** (5 - dps) * max(abs(total), 1)
                quiet = quiet + 1 if tiny else 0
                n += 1
                power *= -zm / n
                if n > 20000:
                    raise RuntimeError("oracle M-Wright series did not converge")
            need = int(mp.log10(peak / abs(total))) + 25 if total else dps + 40
        if need <= dps:
            return float(total)
        dps = need + 10
