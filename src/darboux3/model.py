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

omega is the unit: Psi_n(x; omega, lam) = omega^(1/4) Psi_n(sqrt(omega) x;
1, kappa), kappa = lam / omega.  The numerics run at that twin
(:func:`unit_twin`) and scale once: Omega_n and E_n by omega, lengths by
omega^(-1/2), momenta by omega^(1/2), entropies by :func:`log_unit`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import hermite_sign_logabs

__all__ = [
    "ModelParams",
    "kappa_of",
    "unit_twin",
    "log_unit",
    "energy",
    "effective_frequency",
    "log_norm_constant",
    "norm_constant",
    "wavefunction",
    "density_position",
]

_LOG_UNDERFLOW = -745.0  # exp() underflows to 0 below this
_TINY = np.finfo(float).tiny  # the least normal double


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


def kappa_of(omega: float, lam: float) -> float:
    """lam / omega, the twin's lam; an infinite one raises ``ArithmeticError``."""
    if (k := lam / omega) == math.inf:
        raise ArithmeticError(f"lam/omega overflows at omega={omega}, lam={lam}")
    return k


def unit_twin(params: ModelParams) -> ModelParams:
    """The twin (1, kappa) of ``params``, kappa = lam / omega (:func:`kappa_of`)."""
    return params if params.omega == 1.0 else ModelParams(1.0, kappa_of(params.omega, params.lam))


def log_unit(omega: float, space: str) -> float:
    """ln of the length unit of ``space``, omega^(-1/2) (position) or omega^(1/2)
    (momentum): a Shannon or Rényi entropy shifts by it, ln W_alpha by (1 - alpha) times it."""
    return (0.5 if space == "momentum" else -0.5) * math.log(omega)


def _out_of_range(value: float, what: str, params: ModelParams):
    """Raise ``ArithmeticError`` for ``what``, a ``value`` that is not a finite
    normal double: 0, subnormal (digits lost) or past the double range."""
    fault = "overflows to {:g}" if value > 1 else "is subnormal ({:g})" if value > 0 else "underflows to {:g}"
    raise ArithmeticError(f"{what} {fault.format(value)} at omega={params.omega}, lam={params.lam}")


def energy(params: ModelParams, n: int) -> float:
    """Energy eigenvalue E_n = (n + 1/2) Omega_n (module docstring); like
    Omega_n, free of the textbook form's cancellation at large lam * n.
    An E_n outside the normal double range raises ``ArithmeticError``."""
    e = (n + 0.5) * effective_frequency(params, n)
    return e if _TINY <= e < math.inf else _out_of_range(e, f"energy E_{n}", params)


def effective_frequency(params: ModelParams, n: int) -> float:
    """Effective frequency Omega_n = sqrt(omega^2 - 2 lam E_n).

    The radicand is the perfect square (sqrt(lam^2 m^2 + omega^2) - lam m)^2
    with m = n + 1/2, so Omega_n = omega / (sqrt((kappa m)^2 + 1) + kappa m)
    exactly, kappa = lam / omega; that stable form is used here.  An Omega_n
    outside the normal double range, or a (kappa m)^2 past it, raises
    ``ArithmeticError``.
    """
    _check_level(n)
    k = kappa_of(params.omega, params.lam)
    try:
        den = math.sqrt((k * (n + 0.5)) ** 2 + 1.0) + k * (n + 0.5)
    except OverflowError:
        raise ArithmeticError(f"(lam/omega (n + 1/2))^2 overflows at lam/omega={k}, n={n}") from None
    om = params.omega / den
    return om if _TINY <= om < math.inf else _out_of_range(om, f"effective frequency Omega_{n}", params)


def log_norm_constant(params: ModelParams, n: int) -> float:
    """ln N for the state ``n``; assembled fully in log space."""
    unit = unit_twin(params)
    om = effective_frequency(unit, n)
    m = n + 0.5
    return (
        0.25 * math.log(om / math.pi)
        - 0.5 * (n * math.log(2.0) + math.lgamma(n + 1.0))
        - 0.5 * math.log1p(m * unit.lam / om)
    ) + 0.25 * math.log(params.omega)


def norm_constant(params: ModelParams, n: int) -> float:
    """Normalisation constant N of Psi_n; exponentiated only at the end."""
    return math.exp(log_norm_constant(params, n))


def _state_power(params: ModelParams, n: int, x, k: int) -> float | np.ndarray:
    """Psi_n(x)^k for k = 1 or 2: omega^(k/4) times the twin's power at
    y = sqrt(omega) x, sign(H_n) exp(ln|Psi_n|) or exp(2 ln|Psi_n|), and
    exactly 0 where that underflows: densities below 1e-300 are irrelevant
    to every integral at this package's tolerances."""
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    unit = unit_twin(params)
    om = effective_frequency(unit, n)  # checks the level
    # |y| <= 1e100, y = sqrt(omega) x, keeps sqrt(Omega) y and y^2 finite, and
    # Psi_n = 0 beyond it, as the twin's Omega > 3.7e-155 (kappa m < 1.34e154);
    # an infinite or NaN x stays so that the Hermite recurrence rejects it
    root = math.sqrt(params.omega)
    yc = root * np.clip(xa, -1e100 / root, 1e100 / root)
    sign, log_h = hermite_sign_logabs(n, math.sqrt(om) * (yc if np.isfinite(xa).all() else xa))
    log_out = (
        log_norm_constant(unit, n)
        + 0.5 * np.log1p(unit.lam * yc * yc)
        - 0.5 * om * yc * yc
        + log_h
    )
    if k == 2:
        log_out *= 2.0
    mag = np.exp(np.minimum(log_out, 700.0))
    out = np.where((sign != 0) & (log_out > _LOG_UNDERFLOW), sign * mag if k == 1 else mag, 0.0)
    out *= params.omega ** (0.25 * k)
    return float(out[0]) if np.asarray(x).ndim == 0 else out


def wavefunction(params: ModelParams, n: int, x) -> float | np.ndarray:
    """Position-space eigenfunction Psi_n(x); parity (-1)^n under x -> -x."""
    return _state_power(params, n, x, 1)


def density_position(params: ModelParams, n: int, x) -> float | np.ndarray:
    """Position-space probability density rho_n(x) = |Psi_n(x)|^2."""
    return _state_power(params, n, x, 2)
