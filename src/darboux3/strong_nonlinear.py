"""Large-nonlinearity machinery.

The position density splits exactly into a harmonic-like part and a
mass-profile-induced part,

    rho_n = rho_n^(0) + lam * rho_n^(2),     rho_n^(m) = N^2 x^m e^(-Omega x^2) H_n^2,

with weights f = 1 / (1 + (n + 1/2) lam / Omega) and 1 - f.  When f is
small the wave function is well approximated by the induced part alone,

    phi_n(x) = sqrt(lam) N |x| e^(-Omega x^2 / 2) H_n(sqrt(Omega) x),

whose Fourier transform has Dawson-function closed forms for n = 0..3
(:func:`approx_momentum_closed`).  :func:`g_series_transform` computes it
for any n with the package's one transform kernel,
:func:`~darboux3.quadrature._ft_component`, over half-line Gauss-Legendre
panels on [0, L] (L as for the momentum engine's nodes), each spanning at
most pi of phase p x.  The |x| factor gives phi_n a kink at x = 0, so the
trapezoid rule on its even or odd extension would converge only like h^2;
on x > 0 phi_n is smooth and the panels converge spectrally.

The paper's general-n g-series (Dawson values times polynomials of degree
n + 1 in P = p / sqrt(Omega), so floating point loses accuracy like
P^(n+2)) is kept as a test oracle, ``published_g_series`` in
``tests/conftest.py``.

This module also provides the density critical points and the exact
maximum-splitting thresholds lam_c = omega/sqrt(2) (n = 0) and
lam_c = 5 omega/sqrt(26) (n = 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    ModelParams,
    density_position,
    effective_frequency,
    wavefunction,
)
from .quadrature import (
    _SQRT_2_OVER_PI,
    _ft_component,
    _panel_nodes,
    _split,
    position_half_width,
)
from .specfun import bisect_sign_change, dawson_vec, hermite, hermite_zeros

__all__ = [
    "DensitySplit",
    "CriticalPoint",
    "harmonic_weight",
    "approx_wavefunction",
    "approx_momentum_closed",
    "g_series_transform",
    "density_critical_points",
    "bifurcation_threshold",
]


@dataclass(frozen=True)
class DensitySplit:
    """Probability carried by the harmonic-like part (f) and the rest."""

    f: float
    complement: float


@dataclass(frozen=True)
class CriticalPoint:
    """Stationary point of the position density."""

    x: float
    kind: str  # "maximum" | "minimum" | "undulation"


def harmonic_weight(params: ModelParams, n: int) -> DensitySplit:
    """Exact split f = 1 / (1 + (n + 1/2) lam / Omega); f = 1 at lam = 0."""
    om = effective_frequency(params, n)
    f = 1.0 / (1.0 + (n + 0.5) * params.lam / om)
    return DensitySplit(f=f, complement=1.0 - f)


def approx_wavefunction(params: ModelParams, n: int, x) -> float | np.ndarray:
    """Large-nonlinearity approximant phi_n; integrates to 1 - f, not 1.

    phi_n = sqrt(lam) |x| Psi_n / sqrt(1 + lam x^2), so it inherits the
    log-space assembly of :func:`wavefunction` and stays finite at large n.
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    out = (
        math.sqrt(params.lam) * np.abs(xa) * wavefunction(params, n, xa)
        / np.sqrt(1.0 + params.lam * xa * xa)
    )
    return float(out[0]) if np.asarray(x).ndim == 0 else out


# --------------------------------------------------------------------------
# closed-form transforms of phi_n for n = 0..3
# --------------------------------------------------------------------------

def approx_momentum_closed(params: ModelParams, n: int, p) -> complex | np.ndarray:
    """Dawson-function closed forms of FT phi_n for n in {0, 1, 2, 3}.

    Real for even n, purely imaginary for odd n.
    """
    if n not in (0, 1, 2, 3):
        raise ValueError(f"closed forms exist for n = 0..3 only, got {n}")
    pa = np.atleast_1d(np.asarray(p, dtype=float))
    lam = params.lam
    om = effective_frequency(params, n)
    F = dawson_vec(pa / math.sqrt(2.0 * om))
    pi34 = math.pi ** 0.75
    if n == 0:
        amp = 2.0 * math.sqrt(lam * om**1.5 / (lam + 2.0 * om)) / (pi34 * om**1.5)
        out = amp * (math.sqrt(om) - math.sqrt(2.0) * pa * F) + 0j
    elif n == 1:
        amp = -2.0j * math.sqrt(lam * om**1.5 / (3.0 * lam + 2.0 * om)) / (pi34 * om**2)
        out = amp * (2.0 * (om - pa**2) * F + math.sqrt(2.0) * pa * math.sqrt(om))
    elif n == 2:
        amp = math.sqrt(lam * om**1.5 / (10.0 * lam + 4.0 * om)) / pi34
        out = amp * (
            2.0 * math.sqrt(2.0) * (2.0 * pa**3 - 5.0 * pa * om) * F / om**2.5
            + (6.0 * om - 4.0 * pa**2) / om**2
        ) + 0j
    else:
        amp = -2.0j * math.sqrt(lam * om**1.5 / (21.0 * lam + 6.0 * om)) / (pi34 * om**3)
        out = amp * (
            math.sqrt(2.0) * (2.0 * pa**4 - 9.0 * pa**2 * om + 3.0 * om**2) * F
            + pa * math.sqrt(om) * (7.0 * om - 2.0 * pa**2)
        )
    return out if np.asarray(p).ndim else complex(out[0])


# --------------------------------------------------------------------------
# transform of phi_n for any n
# --------------------------------------------------------------------------

def g_series_transform(params: ModelParams, n: int, p):
    """FT of phi_n for any n >= 0, real for even n and imaginary for odd n.

    The kernel sum over half-line Gauss-Legendre panels (module docstring);
    agrees with :func:`approx_momentum_closed` for n <= 3 to 1e-10 relative.
    """
    om = effective_frequency(params, n)
    pa = np.atleast_1d(np.asarray(p, dtype=float))
    p_max = float(np.max(np.abs(pa))) if len(pa) else 0.0
    L = position_half_width(params, n, 1.0, tail_log=88.0)
    width = min(0.7 / math.sqrt(om), math.pi / max(p_max, 1.0))  # phase <= pi per panel
    x, w = _panel_nodes([(a, b, 0) for a, b in _split(0.0, L, width)])
    g = _SQRT_2_OVER_PI * _ft_component(n, x, w * approx_wavefunction(params, n, x), pa)
    out = g + 0j if n % 2 == 0 else -1j * g + 0.0  # + 0.0: odd n gives +0j at p = 0
    return out if np.asarray(p).ndim else complex(out[0])


# --------------------------------------------------------------------------
# density critical points and thresholds
# --------------------------------------------------------------------------

def _second_derivative_density(params: ModelParams, n: int, x: float, h: float) -> float:
    """Five-point central second derivative of rho_n at x."""
    f = lambda t: density_position(params, n, t)
    return (
        -f(x + 2 * h) + 16.0 * f(x + h) - 30.0 * f(x) + 16.0 * f(x - h) - f(x - 2 * h)
    ) / (12.0 * h * h)


def _classify(params: ModelParams, n: int, x: float) -> str:
    om = effective_frequency(params, n)
    h = 0.02 / math.sqrt(om)
    d2 = _second_derivative_density(params, n, x, h)
    scale = density_position(params, n, x) * om + abs(d2)
    if abs(d2) <= 1e-7 * max(scale, 1e-300):
        return "undulation"
    return "maximum" if d2 < 0.0 else "minimum"


def _classify_origin(params: ModelParams, n: int) -> str:
    """At x = 0 the sign of rho'' is the sign of lam - Omega (n = 0) or
    lam - 5 Omega (n = 2), read off the exact second-derivative formulas."""
    om = effective_frequency(params, n)
    disc = params.lam - om if n == 0 else params.lam - 5.0 * om
    if abs(disc) <= 5e-12 * (params.lam + om):
        return "undulation"
    return "minimum" if disc > 0.0 else "maximum"


def density_critical_points(
    params: ModelParams, n: int, *, numeric: bool = False
) -> list[CriticalPoint]:
    """Critical points of rho_n, sorted by position.

    Closed forms for n in {0, 2} (the origin plus the splitting pair and,
    for n = 2, the outer maxima); ``numeric=True`` enables bracketed
    root-finding on the extremum polynomial for any n (Hermite zeros, which
    are density minima, are appended directly).
    """
    if numeric:
        return _critical_points_numeric(params, n)
    if n not in (0, 2):
        raise ValueError("closed-form critical points exist for n in {0, 2}; use numeric=True")
    lam = params.lam
    om = effective_frequency(params, n)
    pts = [CriticalPoint(0.0, _classify_origin(params, n))]
    if n == 0:
        if lam > 0.0 and lam > om:
            xr = math.sqrt((lam - om) / (lam * om))
            pts = [CriticalPoint(-xr, _classify(params, n, xr))] + pts + [
                CriticalPoint(xr, _classify(params, n, xr))
            ]
        return pts
    root = math.sqrt(41.0 * lam * lam + 12.0 * lam * om + 4.0 * om * om)
    outer_sq = 0.25 * (7.0 / om - (2.0 / lam if lam > 0.0 else 0.0) + (root / (lam * om) if lam > 0.0 else 0.0))
    if lam == 0.0:
        outer_sq = 0.25 * (7.0 / om + 3.0 / om)  # lam -> 0 limit of the pair
    inner_sq = 0.25 * (7.0 / om - 2.0 / lam - root / (lam * om)) if lam > 0.0 else -1.0
    x_out = math.sqrt(outer_sq)
    pts = [CriticalPoint(-x_out, _classify(params, n, x_out))] + pts + [
        CriticalPoint(x_out, _classify(params, n, x_out))
    ]
    if inner_sq > 0.0:
        x_in = math.sqrt(inner_sq)
        pts = (
            [pts[0]]
            + [CriticalPoint(-x_in, _classify(params, n, x_in))]
            + [pts[1]]
            + [CriticalPoint(x_in, _classify(params, n, x_in))]
            + [pts[2]]
        )
    return sorted(pts, key=lambda c: c.x)


def _extremum_function(params: ModelParams, n: int, x):
    """4 n sqrt(Om) (lam x^2 + 1) H_(n-1) - 2 x (lam (x^2 Om - 1) + Om) H_n,
    whose roots are the density critical points with Hermite zeros removed."""
    lam = params.lam
    om = effective_frequency(params, n)
    s = math.sqrt(om)
    h_n = hermite(n, s * x)
    h_nm1 = hermite(n - 1, s * x) if n >= 1 else 0.0
    return 4.0 * n * s * (lam * x * x + 1.0) * h_nm1 - 2.0 * x * (
        lam * (x * x * om - 1.0) + om
    ) * h_n


def _critical_points_numeric(params: ModelParams, n: int) -> list[CriticalPoint]:
    om = effective_frequency(params, n)
    reach = (math.sqrt(2.0 * n + 1.0) + 4.0) / math.sqrt(om)
    m_pts = 400 * (n + 2)
    grid = np.linspace(0.5 * reach / m_pts, reach, m_pts)  # x = 0 handled separately
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _extremum_function(params, n, grid)
    bad = int(np.count_nonzero(~np.isfinite(vals)))
    if bad:
        raise ArithmeticError(
            f"critical-point scan for n={n} has {bad} non-finite samples (Hermite overflow)"
        )
    hz = set(np.round(np.abs(hermite_zeros(n)) / math.sqrt(om), 9))
    found = []
    for i in np.flatnonzero(vals[:-1] * vals[1:] < 0.0):
        r = bisect_sign_change(
            lambda t: _extremum_function(params, n, t),
            float(grid[i]), float(grid[i + 1]), float(vals[i]),
        )
        if round(r, 9) not in hz and r > 1e-9:
            found.append(r)
    pts = [CriticalPoint(0.0, _classify(params, n, 0.0))]
    for r in found:
        k = _classify(params, n, r)
        pts.append(CriticalPoint(r, k))
        pts.append(CriticalPoint(-r, k))
    for z in sorted(hz):
        if z > 1e-9:
            pts.append(CriticalPoint(float(z), "minimum"))
            pts.append(CriticalPoint(-float(z), "minimum"))
    return sorted(pts, key=lambda c: c.x)


def bifurcation_threshold(params: ModelParams, n: int) -> float:
    """Nonlinearity lam_c where the central maximum of rho_n degenerates.

    Closed forms omega/sqrt(2) (n = 0) and 5 omega/sqrt(26) (n = 2), always
    cross-checked against a bisection on the sign of the numerically
    differentiated rho''(0); both must agree to 1e-10.
    """
    if n not in (0, 2):
        raise ValueError(f"thresholds are known for n in {{0, 2}}, got {n}")
    closed = params.omega / math.sqrt(2.0) if n == 0 else 5.0 * params.omega / math.sqrt(26.0)

    def curvature(lam: float) -> float:
        q = ModelParams(params.omega, lam)
        om = effective_frequency(q, n)
        h = 0.01 / math.sqrt(om)
        d2a = _second_derivative_density(q, n, 0.0, h)
        d2b = _second_derivative_density(q, n, 0.0, h / 2.0)
        return (16.0 * d2b - d2a) / 15.0  # Richardson: O(h^6) residual

    lo, hi = 0.05 * params.omega, 4.0 * params.omega
    c_lo = curvature(lo)
    if not c_lo < 0.0 < curvature(hi):
        raise ArithmeticError("threshold bracket failed; curvature signs unexpected")
    bisected = bisect_sign_change(curvature, lo, hi, c_lo, xtol=1e-12 * params.omega)
    if abs(bisected - closed) > 1e-10 * (1.0 + closed):
        raise ArithmeticError(
            f"threshold mismatch: closed {closed!r} vs bisected {bisected!r}"
        )
    return closed
