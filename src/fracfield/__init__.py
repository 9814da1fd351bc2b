"""Numerics for a time-space fractional stochastic diffusion model.

Special functions (Mittag-Leffler, Mainardi), the Fourier symbol of the
mixed local/nonlocal generator, exact mildness classification with
numerical integrability probes, analytic mean/variance fields by several
routes, and spectral Monte Carlo simulation on a 1-D periodic grid.
"""

from .analytic_fields import (
    Profile,
    beta_coeff,
    crosscheck_to_csv,
    heat_kernel,
    make_profile,
    mean_fourier,
    mean_mainardi,
    resonance_set,
    var_classical_closed,
    var_classical_quadrature,
    var_frac_quadrature,
    var_series,
)
from .errors import (
    DegenerateParametersError,
    DomainError,
    FracfieldError,
    NoConvergenceError,
    NonIntegrableSymbolError,
    NotMildError,
    QuadratureError,
    ResonanceError,
    UnsupportedOrderError,
)
from .mildness import (
    MildnessVerdict,
    ProbeReport,
    Rule,
    classify,
    lemma_b_condition,
    lemma_lp_condition,
    probe_m1,
    probe_m2,
    prop_superdiffusive_condition,
)
from .simulate import (
    GridSpec,
    SnapshotLaw,
    ensemble_stats,
    mix_seed,
    noise_increments,
    simulate_path,
    snapshot_law,
)
from .special_fn import (
    MLOrder,
    ZeroList,
    erfc,
    gamma_fn,
    kappa_alpha,
    mainardi_series,
    ml_asymptotic_neg,
    ml_bounds,
    ml_bounds_two,
    ml_eval,
    ml_real_zeros,
)
from .symbol import (
    DiffusionParams,
    KernelSpec,
    j_hat,
    symbol_a,
)

__version__ = "0.1.0"
