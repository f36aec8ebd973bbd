"""Large-nonlinearity machinery.

The position density splits exactly into a harmonic-like part and a
mass-profile-induced part,

    rho_n = rho_n^(0) + lam * rho_n^(2),     rho_n^(m) = N^2 x^m e^(-Omega x^2) H_n^2,

with weights f = 1 / (1 + (n + 1/2) lam / Omega) and 1 - f.  When f is
small the wave function is well approximated by the induced part alone,

    phi_n(x) = sqrt(lam) N |x| e^(-Omega x^2 / 2) H_n(sqrt(Omega) x),

whose Fourier transform has Dawson-function closed forms for n = 0..3
(:func:`approx_momentum_closed`).  :func:`g_series_transform` computes it
for any n with the package's one transform assembly,
:func:`~darboux3.quadrature._lattice_transform`, over equal half-line
Gauss-Legendre panels on [0, L] (L as for the momentum engine's nodes),
each spanning at most pi of phase p x and each one block of the kernel's
lattice.  The |x| factor gives phi_n a kink at x = 0, so the
trapezoid rule on its even or odd extension would converge only like h^2;
on x > 0 phi_n is smooth and the panels converge spectrally.

The paper's general-n g-series (Dawson values times polynomials of degree
n + 1 in P = p / sqrt(Omega), so floating point loses accuracy like
P^(n+2)) is kept as a test oracle, ``published_g_series`` in
``tests/conftest.py``.

:func:`density_critical_points` picks its engine: closed forms for n in
{0, 2}, else (or with ``numeric=True``) the roots of the exact derivative

    rho_n'(x) = N^2 e^(-Omega x^2) H_n(sqrt(Omega) x) E(x),
    E(x) = 4 n sqrt(Omega) (lam x^2 + 1) H_(n-1) - 2 x (lam (Omega x^2 - 1) + Omega) H_n,

with no finite differences.  The zeros of H_n bracket the roots of E: at a
zero z, E(z) = A H_(n-1)(z) with A > 0, and the zeros of H_(n-1) interlace
those of H_n (Szego, Orthogonal Polynomials, ch. 3), so E changes sign
across each gap between consecutive zeros, 0 included for odd n, and past
the last.  E has degree n + 3 (n + 1 at lam = 0) and parity (-1)^(n+1), so
each of those gaps holds exactly one root, and for even n, where E(0) = 0,
the gap (0, z_1) holds one exactly when the origin is a minimum (below).
The scan of E takes the zeros, 16 equal cells in each gap, cells of the
last gap's width out to four oscillator lengths past the classical turning
point and, past the splitting, 16 points halving toward 0; a scan that
brackets another number of roots raises ``ArithmeticError``, and a scan
value of exactly 0 is a root.  :func:`~darboux3.specfun.bracketed_newton`
refines the roots all at once with E' in closed form from the same Hermite
pair, until |E| is within the rounding bound of its uncancelled terms.
The kinds:

* The zeros of H_n are density zeros, hence minima.
* At a simple root r of E, rho''(r) has the sign of H_n E'(r), and E'
  has the sign opposite to E at the left end of the root's bracket, so r
  is a maximum exactly when H_n(sqrt(Omega) r) and E there agree in sign.
  H_n has the sign (-1)^k at r, k the number of its zeros right of r.
* At x = 0 and even n, rho''(0) = 2 N^2 H_n(0)^2 (lam - (2n + 1) Omega),
  so the origin is a maximum below lam = (2n + 1) Omega_n(lam) and a
  minimum above.  For n = 0 and 2 that equation is solved by the
  maximum-splitting thresholds lam_c = omega/sqrt(2) and 5 omega/sqrt(26).
  Omega_n falls as lam grows, so lam - (2n + 1) Omega_n(lam) has slope
  >= 1: its root is unique, and within a closed form's residual of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, effective_frequency, wavefunction
from .quadrature import _gl_blocks, _lattice_transform, _momenta, position_half_width
from .specfun import bracketed_newton, dawson_vec, hermite_pair_scaled, hermite_zeros

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
    """FT of phi_n for any n >= 0, real for even n and imaginary for odd n,
    in the shape of ``p`` (complex for scalar ``p``).

    The kernel sum over half-line Gauss-Legendre panels (module docstring);
    agrees with :func:`approx_momentum_closed` for n <= 3 to 1e-10 relative.
    A NaN or infinite momentum raises ``ValueError``.
    """
    om = effective_frequency(params, n)
    pa, p_max = _momenta(p)
    L = position_half_width(params, n, 1.0, tail_log=88.0)
    width = min(0.7 / math.sqrt(om), math.pi / max(p_max, math.sqrt(params.omega)))  # phase <= pi
    lattice = _gl_blocks(0.0, L, math.ceil(L / width))
    return _lattice_transform(n, lambda x: approx_wavefunction(params, n, x), lattice, pa, p)


# --------------------------------------------------------------------------
# density critical points and thresholds
# --------------------------------------------------------------------------

def _origin_kind(params: ModelParams, n: int) -> str:
    """Kind of the critical point x = 0 (module docstring): a density zero
    for odd n, else the sign of rho''(0), that is of lam - (2n + 1) Omega."""
    if n % 2:
        return "minimum"
    om = effective_frequency(params, n)
    disc = params.lam - (2 * n + 1) * om
    if abs(disc) <= 5e-12 * (params.lam + (2 * n + 1) * om):
        return "undulation"
    return "minimum" if disc > 0.0 else "maximum"


def _symmetric_points(params: ModelParams, n: int, positive) -> list[CriticalPoint]:
    """The origin, every (x, kind) of ``positive`` (x > 0) with its mirror
    image, and the density zeros x = +-y_k / sqrt(Omega) at the Hermite
    zeros y_k, which are minima; sorted by position."""
    y = hermite_zeros(n)  # exactly antisymmetric, with an exact 0 for odd n
    zeros = y[y > 0.0] / math.sqrt(effective_frequency(params, n))
    positive = positive + [(float(z), "minimum") for z in zeros]
    pts = [CriticalPoint(0.0, _origin_kind(params, n))]
    for x, kind in positive:
        pts += [CriticalPoint(x, kind), CriticalPoint(-x, kind)]
    return sorted(pts, key=lambda c: c.x)


def density_critical_points(
    params: ModelParams, n: int, *, numeric: bool = False
) -> list[CriticalPoint]:
    """Critical points of rho_n, sorted by position.

    Closed forms for n in {0, 2}; every other n, and any n with
    ``numeric=True``, refines the roots of the extremum function E by
    bracketed Newton steps.  Kinds as in the module docstring.
    """
    if numeric or n not in (0, 2):
        return _critical_points_numeric(params, n)
    lam = params.lam
    om = effective_frequency(params, n)
    if n == 0:
        maxima = [math.sqrt((lam - om) / (lam * om))] if lam > om else []
        return _symmetric_points(params, n, [(x, "maximum") for x in maxima])
    if lam == 0.0:
        maxima = [math.sqrt(0.25 * (7.0 / om + 3.0 / om))]  # lam -> 0 limit of the pair
    else:
        root = math.sqrt(41.0 * lam * lam + 12.0 * lam * om + 4.0 * om * om)
        outer_sq = 0.25 * (7.0 / om - 2.0 / lam + root / (lam * om))
        inner_sq = 0.25 * (7.0 / om - 2.0 / lam - root / (lam * om))
        maxima = [math.sqrt(outer_sq)] + ([math.sqrt(inner_sq)] if inner_sq > 0.0 else [])
    return _symmetric_points(params, n, [(x, "maximum") for x in maxima])


def _extremum_function(params: ModelParams, n: int, x: np.ndarray, *, newton: bool = False):
    """E(x), or with ``newton`` E, E' and a rounding bound on |E|, each
    times 2^(-e) elementwise, e from
    :func:`~darboux3.specfun.hermite_pair_scaled`, where E = A H_(n-1) - B H_n,
    A = 4 n sqrt(Om) (lam x^2 + 1) and B = 2 x (lam (Om x^2 - 1) + Om).

    With y = sqrt(Om) x, d/dx H_k(y) = 2 k sqrt(Om) H_(k-1)(y) and
    2 (n - 1) H_(n-2) = 2 y H_(n-1) - H_n (for n = 1 as well), so
    E' = (A' + 2 Om x A - 2 n sqrt(Om) B) H_(n-1) - (sqrt(Om) A + B') H_n.
    The bound is 4 (n + 2) eps times the uncancelled terms,
    |A H_(n-1)| + 2 |x| (lam (Om x^2 + 1) + Om) |H_n|.
    """
    lam = params.lam
    om = effective_frequency(params, n)
    s = math.sqrt(om)
    h_nm1, h_n, _ = hermite_pair_scaled(n, s * x)
    x2 = x * x
    a = 4.0 * n * s * (lam * x2 + 1.0)
    b = 2.0 * x * (lam * (x2 * om - 1.0) + om)
    extremum = a * h_nm1 - b * h_n
    if not newton:
        return extremum
    slope = (8.0 * n * s * lam * x + 2.0 * om * x * a - 2.0 * n * s * b) * h_nm1 - (
        s * a + 2.0 * (lam * (3.0 * om * x2 - 1.0) + om)
    ) * h_n
    terms = np.abs(a * h_nm1) + 2.0 * np.abs(x) * (lam * (om * x2 + 1.0) + om) * np.abs(h_n)
    return extremum, slope, 4.0 * (n + 2) * np.finfo(float).eps * terms


_CELLS = 16  # equal scan cells per gap between Hermite zeros
_HALVINGS = 16  # scan points halving toward x = 0 past the splitting


def _reach(om: float, n: int) -> float:
    """Scan end: four oscillator lengths past the classical turning point."""
    return (math.sqrt(2.0 * n + 1.0) + 4.0) / math.sqrt(om)


def _scan_grid(om: float, n: int, knots: np.ndarray, split: bool) -> np.ndarray:
    """Scan points for the roots of E (module docstring) from ``knots``, 0
    and the positive zeros; for even n no point at 0, with ``split`` the
    points halving toward it.  With no gap (n <= 1) the cells past the last
    knot are 1 / (16 sqrt(Omega)) wide."""
    gaps = np.diff(knots)
    step = (gaps[-1] if len(gaps) else 1.0 / math.sqrt(om)) / _CELLS
    outer = knots[-1] + step * np.arange(1, math.ceil((_reach(om, n) - knots[-1]) / step) + 1)
    cells = knots[:-1, None] + gaps[:, None] * (np.arange(_CELLS) / _CELLS)
    grid = np.concatenate([cells.ravel(), knots[-1:], outer])
    if n % 2:
        return grid
    halved = grid[1] * 2.0 ** -np.arange(_HALVINGS, 0, -1) if split else []
    return np.concatenate([halved, grid[1:]])


def _critical_points_numeric(params: ModelParams, n: int) -> list[CriticalPoint]:
    om = effective_frequency(params, n)
    y = hermite_zeros(n)
    zeros = y[y > 0.0] / math.sqrt(om)
    split = n % 2 == 0 and _origin_kind(params, n) == "minimum"
    grid = _scan_grid(om, n, np.concatenate([[0.0], zeros]), split)
    vals = _extremum_function(params, n, grid)
    # a flip of sign, or an exact zero at the right end, brackets a root
    i = np.flatnonzero((np.sign(vals[:-1]) * np.sign(vals[1:]) < 0.0) | (vals[1:] == 0.0))
    expected = len(zeros) + n % 2 + split
    if len(i) != expected:
        raise ArithmeticError(
            f"scan bracketed {len(i)} roots of the extremum function, not {expected}, "
            f"for omega={params.omega}, lam={params.lam}, n={n}"
        )
    # H_n has the sign (-1)^k between its zeros, k of them to the right
    h_sign = 1 - 2 * ((len(zeros) - np.searchsorted(zeros, grid[i], side="right")) % 2)
    kinds = np.where(h_sign == np.sign(vals[i]), "maximum", "minimum")
    roots = bracketed_newton(
        lambda t: _extremum_function(params, n, t, newton=True),
        grid[i], grid[i + 1], vals[i], vals[i + 1], "density critical points",
    )
    return _symmetric_points(params, n, list(zip(roots.tolist(), kinds.tolist())))


def bifurcation_threshold(params: ModelParams, n: int) -> float:
    """Nonlinearity lam_c where the central maximum of rho_n degenerates.

    Closed forms omega/sqrt(2) (n = 0) and 5 omega/sqrt(26) (n = 2), each
    checked by the residual of lam - (2n + 1) Omega_n(lam), the sign of
    rho''(0).  That expression is homogeneous of degree 1 in (lam, omega), so
    it is evaluated at omega = 1 and lam = lam_c / omega, where the residual
    must be within 1e-10 lam: one relative bound at every omega.
    """
    if n not in (0, 2):
        raise ValueError(f"thresholds are known for n in {{0, 2}}, got {n}")
    num, den = (1.0, 2.0) if n == 0 else (5.0, 26.0)
    k = 3 if params.omega > 1.0 else 0  # 5 omega / 8 cannot overflow; powers of two are exact
    closed = math.ldexp(num * math.ldexp(params.omega, -k) / math.sqrt(den), k)
    normal = np.finfo(float).tiny <= closed < math.inf  # a subnormal closed form has lost digits
    lam = closed / params.omega
    excess = lambda: lam - (2 * n + 1) * effective_frequency(ModelParams(1.0, lam), n)
    if not (normal and abs(excess()) <= 1e-10 * lam):
        raise ArithmeticError(f"threshold {closed!r} fails its normal-range or residual check")
    return closed
