"""Entropic structure of the one-dimensional Darboux III quantum oscillator.

A numerics library for the position-dependent-mass oscillator with mass
profile 1 + lam * x^2: exact spectra and eigenstates, closed-form entropic
moments and Rényi/Tsallis entropies in position space, quadrature-based
momentum-space entropies via the numerical Fourier transform, entropic
uncertainty functions, and the large-nonlinearity approximation machinery.
"""

from .model import (
    ModelParams,
    density_position,
    effective_frequency,
    energy,
    norm_constant,
    wavefunction,
)
from .position_entropy import (
    BudgetExceededError,
    ExpansionCoefficients,
    entropic_moment,
    entropic_moment_special,
    expansion_coefficients,
    parity_nu,
)
from .quadrature import (
    GridSpec,
    MomentumProfile,
    entropic_moment_numeric,
    fourier_transform,
    momentum_profile,
    shannon_numeric,
)
from .specfun import (
    dawson_vec,
    hermite,
)
from .strong_nonlinear import (
    CriticalPoint,
    DensitySplit,
    approx_momentum_closed,
    approx_wavefunction,
    bifurcation_threshold,
    density_critical_points,
    g_series_transform,
    harmonic_weight,
)
from .uncertainty import (
    XiResult,
    conjugate_order,
    entropy,
    entropy_from_log_moment,
    log_moments,
    xi_renyi,
    xi_tsallis,
)

__version__ = "0.1.0"
