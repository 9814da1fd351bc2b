"""Fourier-side description of the spatial generator.

The operator acting on the field is lambda * Laplacian + mu * (J * I - I),
where J is a radial probability density.  Its Fourier symbol is

    a(xi) = lambda |xi|^2 + mu (1 - j_hat(xi)) >= 0,

with the convention  j_hat(xi) = integral e^{-i x.xi} J(x) dx,  so that
j_hat(0) = 1.  The time kernel of the solution formula is

    Lambda(t, xi) = t^(alpha-1) E_{alpha,alpha}(-t^alpha a(xi)),

and the deterministic part of the Fourier-transformed field started from a
Dirac mass is  E_alpha(-a(xi) t^alpha).

All evaluators are vectorized over frequency: ``xi`` may be a scalar or an
ndarray of radial frequencies |xi| (every kernel in the menu is radial, so
only the magnitude matters).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "KernelSpec",
    "DiffusionParams",
    "j_hat",
    "symbol_a",
    "kernel_to_json",
    "kernel_from_json",
]


@dataclass(frozen=True)
class KernelSpec:
    """Jump kernel J with a closed-form Fourier transform.

    kind="gaussian": radial Gaussian density with standard deviation `scale`
    per coordinate, any dimension; j_hat = exp(-scale^2 |xi|^2 / 2).
    kind="uniform": uniform density on [-scale, scale], one dimension only;
    j_hat = sin(scale xi)/(scale xi).
    """

    kind: str = "gaussian"
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "uniform"):
            raise DomainError(f"unknown kernel kind {self.kind!r}")
        if not 0 < self.scale < math.inf:
            raise DomainError("kernel scale must be positive and finite")


@dataclass(frozen=True)
class DiffusionParams:
    """Model coefficients and spatial dimension."""

    alpha: float
    lam: float = 1.0
    mu: float = 0.0
    sigma: float = 1.0
    dim: int = 1

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise DomainError("alpha must lie in (0, 2)")
        if not all(math.isfinite(v) for v in (self.lam, self.mu, self.sigma)):
            raise DomainError("lambda, mu and sigma must be finite")
        if self.lam < 0 or self.mu < 0:
            raise DomainError("lambda and mu must be nonnegative")
        if not (self.dim >= 1 and float(self.dim).is_integer()):
            raise DomainError("dim must be a positive integer")


def j_hat(kernel: KernelSpec, xi):
    """Fourier transform of the jump density at radial frequency |xi|.

    Vectorized; values lie in [-1, 1] with j_hat(0) = 1.  The uniform
    kernel is one-dimensional by construction.
    """
    r = np.abs(np.asarray(xi, dtype=float))
    if kernel.kind == "gaussian":
        out = np.exp(-0.5 * (kernel.scale * r) ** 2)
    else:
        out = np.sinc(kernel.scale * r / math.pi)
    if np.ndim(xi) == 0:
        return float(out)
    return out


def symbol_a(params: DiffusionParams, kernel: KernelSpec, xi):
    """Symbol a(xi) = lambda |xi|^2 + mu (1 - j_hat(xi)), vectorized."""
    if kernel.kind == "uniform" and params.dim != 1:
        raise DomainError("uniform kernel is defined for dim=1 only")
    r = np.abs(np.asarray(xi, dtype=float))
    out = params.lam * r * r + params.mu * (1.0 - j_hat(kernel, r))
    # guard against -0.0 / tiny negative round-off in the nonlocal part
    out = np.maximum(out, 0.0)
    if np.ndim(xi) == 0:
        return float(out)
    return out


# the run-config name of each kernel kind's scale
_SCALE_KEY = {"gaussian": "scale", "uniform": "half_width"}


def kernel_to_json(kernel: KernelSpec) -> dict:
    """Serialize to the run-config schema."""
    return {"type": kernel.kind, _SCALE_KEY[kernel.kind]: kernel.scale}


def kernel_from_json(obj: dict) -> KernelSpec:
    """Parse the run-config kernel object; unknown keys are rejected, and the
    scale must be a positive JSON number (a bool or a string is none) that
    a float holds."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise DomainError("kernel config must be an object with a 'type' field")
    kind = obj["type"]
    if not isinstance(kind, str) or kind not in _SCALE_KEY:
        raise DomainError(f"unknown kernel type {kind!r}")
    key = _SCALE_KEY[kind]
    extra = set(obj) - {"type", key}
    if extra:
        raise DomainError(f"unknown kernel config keys: {sorted(extra)}")
    scale = obj.get(key, 1.0)
    if (isinstance(scale, bool) or not isinstance(scale, (int, float))
            or not 0 < scale <= sys.float_info.max):  # an int may exceed the float range
        raise DomainError(f"config \"kernel.{key}\" must be a positive JSON number, "
                          f"got {scale!r}")
    return KernelSpec(kind=kind, scale=float(scale))
