"""Independent references for the benchmark's correctness checks.

* Mittag-Leffler values: ``tests/ml_oracle.py`` (mpmath, adaptive precision).
* Mean field at mu = 0: the Mainardi function of order nu = alpha/2,
  G(x, t) = M_nu(|x| / sqrt(lam t^alpha)) / (2 sqrt(lam t^alpha)), summed in
  mpmath.  This is not the package's ``mean_mainardi``, which implements a
  printed order-alpha form that is documented to disagree.

References are computed outside the timed region and kept in a JSON cache
under the benchmark's directory, keyed by their exact inputs.  Only these
independent references are cached, never an output of the package.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import os

import mpmath as mp


class RefCache:
    """Reference values by key, stored as JSON.

    The file records a digest of the code that computed the values (this
    file and the oracle); when that code changes, the old values are dropped.
    """

    def __init__(self, path, sources):
        self.path = path
        h = hashlib.sha256()
        for src in sources:
            with open(src, "rb") as fh:
                h.update(fh.read())
        self.digest = h.hexdigest()
        self.data = {}
        self.dirty = False
        if os.path.exists(path):
            with open(path) as fh:
                stored = json.load(fh)
            if stored.get("digest") == self.digest:
                self.data = stored["values"]

    def get(self, key, compute):
        if key not in self.data:
            self.data[key] = float(compute())
            self.dirty = True
        return self.data[key]

    def save(self):
        if not self.dirty:
            return
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump({"digest": self.digest, "values": self.data}, fh)
        os.replace(tmp, self.path)
        self.dirty = False


def load_ml_oracle(root):
    path = os.path.join(root, "tests", "ml_oracle.py")
    spec = importlib.util.spec_from_file_location("bench_ml_oracle", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.ml_oracle


def mainardi(nu: float, z: float) -> float:
    """M_nu(z) = sum_n (-z)^n / (n! Gamma(1 - nu - nu n)), 0 < nu < 1.

    The terms grow far beyond the sum before they decay (by ~1e110 at
    nu = 0.75, z = 7), so the working precision is raised until it covers
    the largest term with 25 digits to spare.  1/Gamma vanishes at its
    poles, so single terms can be exactly zero; the sum stops only after
    several consecutive negligible terms.
    """
    dps = 40
    while True:
        with mp.workdps(dps):
            zm, num = mp.mpf(z), mp.mpf(nu)
            total, term_pow, peak, n, quiet = mp.mpf(0), mp.mpf(1), mp.mpf(0), 0, 0
            while quiet < 6 or n < 10:
                term = term_pow * mp.rgamma(1 - num - num * n)
                total += term
                peak = max(peak, abs(term))
                tiny = abs(term) < mp.mpf(10) ** (5 - dps) * max(abs(total), 1)
                quiet = quiet + 1 if tiny else 0
                n += 1
                term_pow *= -zm / n
                if n > 20000:
                    raise RuntimeError("Mainardi series did not converge")
            need = int(mp.log10(peak / abs(total))) + 25 if total else dps + 40
        if need <= dps:
            return float(total)
        dps = need + 10


def mean_reference(alpha: float, lam: float, t: float, x: float) -> float:
    """Mean field from a Dirac mass at mu = 0, 0 < alpha < 2."""
    scale = math.sqrt(lam * t**alpha)
    return mainardi(alpha / 2.0, abs(x) / scale) / (2.0 * scale)
