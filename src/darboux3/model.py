"""Darboux III oscillator model: parameters, spectrum and position-space states.

The one-dimensional Darboux III oscillator is a position-dependent-mass
deformation of the harmonic oscillator, mass profile mu(x) = 1 + lam * x^2.
In units with hbar = 1 its bound states have

    E_n      = -lam (n + 1/2)^2 + (n + 1/2) sqrt(lam^2 (n + 1/2)^2 + omega^2)
             = (n + 1/2) Omega_n
    Omega_n  = sqrt(omega^2 - 2 lam E_n)            (effective frequency)
    Psi_n(x) = N sqrt(1 + lam x^2) exp(-Omega x^2 / 2) H_n(sqrt(Omega) x)

with N the normalisation constant.  Setting lam = 0 recovers the harmonic
oscillator through the same code path; there is no special branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import hermite_sign_logabs

__all__ = [
    "ModelParams",
    "energy",
    "effective_frequency",
    "log_norm_constant",
    "norm_constant",
    "wavefunction",
    "density_position",
]

_LOG_UNDERFLOW = -745.0  # exp() underflows to 0 below this


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the oscillator.

    Parameters
    ----------
    omega : float
        Oscillator frequency, must be positive.
    lam : float
        Nonlinearity (mass-profile) parameter, must be non-negative.
        Negative values are rejected; they change the spectral problem
        qualitatively and are out of scope here.

    Units have hbar = 1 throughout.
    """

    omega: float = 1.0
    lam: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.omega) and self.omega > 0.0):
            raise ValueError(f"omega must be positive and finite, got {self.omega}")
        if not (math.isfinite(self.lam) and self.lam >= 0.0):
            raise ValueError(f"lam must be non-negative and finite, got {self.lam}")


def _check_level(n: int) -> None:
    if n < 0 or n != int(n):
        raise ValueError(f"quantum number must be a non-negative integer, got {n}")


def energy(params: ModelParams, n: int) -> float:
    """Energy eigenvalue E_n = (n + 1/2) Omega_n (module docstring); like
    Omega_n, free of the textbook form's cancellation at large lam * n."""
    return (n + 0.5) * effective_frequency(params, n)


def effective_frequency(params: ModelParams, n: int) -> float:
    """Effective frequency Omega_n = sqrt(omega^2 - 2 lam E_n).

    The radicand is the perfect square (sqrt(lam^2 m^2 + omega^2) - lam m)^2
    with m = n + 1/2, so Omega_n = omega^2 / (sqrt(lam^2 m^2 + omega^2)
    + lam m) exactly; that stable form is used here, and where it overflows
    (omega > 1.34e154) at (omega, lam) 2^-k, omega 2^-k in [1/2, 1), times 2^k.
    """
    _check_level(n)
    m = n + 0.5
    try:
        den = math.sqrt((params.lam * m) ** 2 + params.omega**2) + params.lam * m
    except OverflowError:  # a square past the double range
        den = math.inf
    if den < math.inf:
        return params.omega**2 / den
    k = math.frexp(params.omega)[1]
    om, lam_m = math.ldexp(params.omega, -k), math.ldexp(params.lam * m, -k)
    return math.ldexp(om**2 / (math.sqrt(lam_m**2 + om**2) + lam_m), k)


def log_norm_constant(params: ModelParams, n: int) -> float:
    """ln N for the state ``n``; assembled fully in log space."""
    _check_level(n)
    om = effective_frequency(params, n)
    m = n + 0.5
    return (
        0.25 * math.log(om / math.pi)
        - 0.5 * (n * math.log(2.0) + math.lgamma(n + 1.0))
        - 0.5 * math.log1p(m * params.lam / om)
    )


def norm_constant(params: ModelParams, n: int) -> float:
    """Normalisation constant N of Psi_n; exponentiated only at the end."""
    return math.exp(log_norm_constant(params, n))


def _state_power(params: ModelParams, n: int, x, k: int) -> float | np.ndarray:
    """Psi_n(x)^k for k = 1 or 2, as sign(H_n) exp(ln|Psi_n|) or
    exp(2 ln|Psi_n|), and exactly 0 where that underflows: densities below
    1e-300 are irrelevant to every integral at this package's tolerances."""
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    om = effective_frequency(params, n)  # checks the level
    # |x| <= 1e100 keeps sqrt(Omega) x and x^2 finite, and Psi_n = 0 beyond
    # it for any Omega > 1e-190; infinite x stays so that the Hermite
    # recurrence rejects it (as it does NaN)
    xc = np.clip(xa, -1e100, 1e100)
    sign, log_h = hermite_sign_logabs(n, math.sqrt(om) * (xc if np.isfinite(xa).all() else xa))
    log_out = (
        log_norm_constant(params, n)
        + 0.5 * np.log1p(params.lam * xc * xc)
        - 0.5 * om * xc * xc
        + log_h
    )
    if k == 2:
        log_out *= 2.0
    mag = np.exp(np.minimum(log_out, 700.0))
    out = np.where((sign != 0) & (log_out > _LOG_UNDERFLOW), sign * mag if k == 1 else mag, 0.0)
    return float(out[0]) if np.asarray(x).ndim == 0 else out


def wavefunction(params: ModelParams, n: int, x) -> float | np.ndarray:
    """Position-space eigenfunction Psi_n(x); parity (-1)^n under x -> -x."""
    return _state_power(params, n, x, 1)


def density_position(params: ModelParams, n: int, x) -> float | np.ndarray:
    """Position-space probability density rho_n(x) = |Psi_n(x)|^2."""
    return _state_power(params, n, x, 2)
