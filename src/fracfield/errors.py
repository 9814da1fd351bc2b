"""Exception types shared across the package."""


class FracfieldError(Exception):
    """Base class for all package-specific errors."""


class DomainError(FracfieldError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NoConvergenceError(FracfieldError, ArithmeticError):
    """A series or iteration failed to reach the requested tolerance."""


class UnsupportedOrderError(DomainError):
    """The (alpha, beta) pair is not supported on the requested branch."""


class DegenerateParametersError(DomainError):
    """Model parameters describe no spatial operator (lambda = mu = 0)."""


class QuadratureError(FracfieldError, ArithmeticError):
    """A quadrature needs more panels than it allows, or returned a non-finite value."""


class NonIntegrableSymbolError(FracfieldError, ValueError):
    """The requested integral is known to diverge for these parameters."""


class ResonanceError(FracfieldError, ValueError):
    """The variance series denominator vanishes at alpha = 1/(m+1)."""

    def __init__(self, m: int, alpha: float):
        self.m = m
        self.alpha = alpha
        super().__init__(
            f"variance series resonance: alpha={alpha} is within guard of 1/(m+1) for m={m}"
        )


class NotMildError(FracfieldError, ValueError):
    """Simulation of a non-mild parameter set was requested without force."""
