"""Numerical integration backbone.

Position-space entropic moments for arbitrary real order, the numerical
Fourier transform to momentum space, tabulated momentum densities, and
entropic moments and Shannon entropies in either space.

Scheme
------
Position-space integrals use composite Gauss-Legendre panels.  Densities
raised to a non-integer power have algebraic cusps |x - x0|^(2 alpha) at
the density zeros, so panels are split exactly at the zeros and the two
panels touching each zero get a cubic endpoint map (x = x0 + w u^3), which
restores spectral convergence.  One routine, :func:`_panel_grid`, lays out
every panel grid of the package with array operations.  In momentum space the zeros of the
transform are located first (one FFT scan of a uniform momentum grid plus
bisection, each bisection probe a single kernel sum); the momentum panels
are laid out the same way, and entropy integrals reuse the profile nodes
directly with no interpolation.

Fourier transform
-----------------
Psi_n has parity (-1)^n, so its transform (2 pi)^(-1/2) integral
e^(-ipx) Psi_n(x) dx is the cos transform for even n and -i times the sin
transform for odd n.  One kernel, :func:`_ft_component`, computes the
parity-allowed trig sum; :func:`fourier_transform`, the momentum profile
and the strong-nonlinearity transform of phi_n all call it, so a transform
is exactly real (even n) or exactly imaginary (odd n) by construction.

The sum runs over half-line trapezoid nodes x_j = j h (weight h, h/2 at
x = 0).  Psi_n is analytic in the strip |Im x| < 1/sqrt(lam), so the rule
converges exponentially (Trefethen & Weideman, SIAM Rev. 56, 2014): by
Poisson summation its error at p is the transform at the first alias
2 pi / h - p, and h puts that alias beyond the momentum where the
transform is below rounding.  On these nodes the kernel sums at the
momenta k dp, dp = 2 pi / (M h), are one real FFT of the weighted
wavefunction folded modulo M; the profile's zero scan is that FFT.
Truncation half-widths are chosen so the integrand envelope at the cut is
below ~1e-18 of its peak, with a probing pass on the momentum side to
cover the slowly decaying large-lam tails.

Both spaces integrate even densities on the half line; one dispatch,
:func:`_half_line_density`, supplies the weights and the density for
:func:`entropic_moment_numeric` and :func:`shannon_numeric`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial.legendre import leggauss

from .model import (
    ModelParams,
    density_position,
    effective_frequency,
    log_norm_constant,
    wavefunction,
)
from .specfun import bisect_sign_change, hermite_zeros

__all__ = [
    "GridSpec",
    "MomentumProfile",
    "grid_nodes",
    "integrate",
    "position_half_width",
    "entropic_moment_numeric",
    "shannon_numeric",
    "fourier_transform",
    "momentum_profile",
]

_ORDER = 16          # Gauss-Legendre points per panel
_TAIL_LOG = 42.0     # envelope at the cut below e^-42 ~ 5.7e-19 of peak
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_FT_CHUNK_BYTES = 4 * 2**20  # the kernel's one (momenta x nodes) phase buffer


@dataclass(frozen=True)
class GridSpec:
    """Gauss-Legendre panel grid on the symmetric interval [-L, L]."""

    half_width: float
    points: int

    def __post_init__(self):
        if not (self.half_width > 0.0 and math.isfinite(self.half_width)):
            raise ValueError(f"half_width must be positive, got {self.half_width}")
        if self.points < 32:
            raise ValueError(f"points must be at least 32, got {self.points}")


@lru_cache(maxsize=8)
def _gl_unit(order: int):
    """Gauss-Legendre nodes/weights on [0, 1]."""
    x, w = leggauss(order)
    return (x + 1.0) / 2.0, w / 2.0


def _panel_grid(bounds, counts, cusps=()):
    """Nodes/weights of Gauss-Legendre panels, built as arrays.

    Segment s, [bounds[s], bounds[s + 1]] = [A, B], is cut into counts[s]
    equal pieces with edges i ((B - A) / k) + A and the last edge B, as
    ``np.linspace`` places them.  The first piece of a segment that starts
    at one of the ``cusps`` gets the cubic endpoint map x = a + h u^3, the
    last piece of one that ends at a cusp x = b - h u^3; a single piece
    with cusps at both ends keeps the map at a.
    """
    bounds = np.asarray(bounds, dtype=float)
    counts = np.asarray(counts).astype(np.intp)
    seg = np.repeat(np.arange(len(counts)), counts)
    first = np.cumsum(counts) - counts
    last = first + counts - 1
    lo = (np.arange(len(seg)) - first[seg]) * (np.diff(bounds) / counts)[seg] + bounds[seg]
    hi = np.empty_like(lo)
    hi[:-1] = lo[1:]
    hi[last] = bounds[1:]
    cusp = np.isin(bounds, cusps)
    at_a = np.zeros(len(lo), dtype=bool)
    at_a[first] = cusp[:-1]
    at_b = np.zeros(len(lo), dtype=bool)
    at_b[last] = cusp[1:]
    at_b &= ~at_a  # map at a wins
    u, wu = _gl_unit(_ORDER)
    h = (hi - lo)[:, None]
    x = lo[:, None] + h * u
    w = h * wu
    x[at_a] = lo[at_a, None] + h[at_a] * u**3
    x[at_b] = hi[at_b, None] - h[at_b] * u**3
    w[at_a | at_b] = 3.0 * h[at_a | at_b] * u**2 * wu
    return x.ravel(), w.ravel()


def _grow_split(a: float, b: float, width: float, grow: float) -> list[float]:
    """Edges of pieces of [a, b] starting at ``width`` and growing by ``grow``."""
    edges = [a]
    while edges[-1] + width < b:
        edges.append(edges[-1] + width)
        width *= grow
    edges.append(b)
    return edges


def grid_nodes(grid: GridSpec):
    """Nodes and weights realising a :class:`GridSpec` on [-L, L]."""
    L, pts = grid.half_width, grid.points
    return _panel_grid([-L, L], [max(2, pts // _ORDER)])


def integrate(f, grid: GridSpec) -> float:
    """Integrate ``f`` over [-L, L]; ``f`` maps the node array elementwise."""
    x, w = grid_nodes(grid)
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        raise ValueError(f"integrand returned shape {y.shape} for nodes of shape {x.shape}")
    if not np.all(np.isfinite(y)):
        bad = x[~np.isfinite(y)][0]
        raise ValueError(f"non-finite integrand sample at x={bad}")
    return float(w @ y)


# --------------------------------------------------------------------------
# position space
# --------------------------------------------------------------------------

def position_half_width(
    params: ModelParams, n: int, alpha_min: float = 0.5, tail_log: float = _TAIL_LOG
) -> float:
    """Half-width L with density^alpha envelope below e^-tail_log of peak."""
    om = effective_frequency(params, n)
    a = min(alpha_min, 1.0) if alpha_min > 0 else 0.5
    L2 = tail_log / (a * om) + (2 * n + 1) / om
    for _ in range(8):
        L = math.sqrt(L2)
        L2 = (
            tail_log / a
            + math.log1p(params.lam * L * L)
            + 2.0 * n * math.log1p(2.0 * math.sqrt(om) * L)
        ) / om
    return 1.1 * math.sqrt(L2)


def _position_moment_nodes(
    params: ModelParams, n: int, alpha: float, refine: int
) -> tuple[np.ndarray, np.ndarray]:
    """Panel nodes/weights on [0, L] for integrating rho^alpha (even integrand)."""
    om = effective_frequency(params, n)
    L = position_half_width(params, n, min(alpha, 1.0))
    zeros = hermite_zeros(n) / math.sqrt(om)  # increasing
    zeros = zeros[(zeros > 0.0) & (zeros < 0.999 * L)]
    bounds = np.unique(np.concatenate([[0.0, L], zeros]))
    k_osc = 2.0 * max(alpha, 1.0) * math.sqrt((2 * n + 1) * om)
    width = min(0.7 / math.sqrt(om), math.pi / (2.0 * k_osc), L / 6.0) / refine
    # fractional powers leave |x - x0|^(2 alpha) cusps at the density zeros
    cusps = () if float(alpha).is_integer() else np.append(zeros, 0.0) if n % 2 else zeros
    return _panel_grid(bounds, np.ceil(np.diff(bounds) / width), cusps)


# --------------------------------------------------------------------------
# momentum space
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentumProfile:
    """Tabulated momentum density gamma(p) = |FT Psi|^2 on quadrature nodes."""

    params: ModelParams
    n: int
    grid: GridSpec
    p: np.ndarray
    gamma: np.ndarray
    weights: np.ndarray


def _gaussian_cut(n: int, om: float) -> float:
    """Momentum beyond which the Gaussian part of the transform is below
    e^-(2 _TAIL_LOG) of its peak."""
    return 1.3 * math.sqrt((_TAIL_LOG * 2.0 + 3.0 * (2 * n + 1)) * om) + 1.0


def _ft_x_nodes(params: ModelParams, n: int, p_max: float, refine: int = 1):
    """Half-line trapezoid nodes x_j = j h on [0, L] (weight h, h/2 at 0).

    By Poisson summation the rule's error at p is the transform at the
    first alias 2 pi / h - p, so h puts that alias beyond ``band``, where
    the transform is below rounding: the branch-point tail
    e^(-p / sqrt(lam)) has fallen by e^-40 past 40 sqrt(lam), and the
    Gaussian part is cut by :func:`_gaussian_cut`.
    """
    om = effective_frequency(params, n)
    L = position_half_width(params, n, 1.0, tail_log=88.0)
    band = max(40.0 * math.sqrt(params.lam), _gaussian_cut(n, om))
    h = 2.0 * math.pi / ((band + p_max) * refine)
    x = h * np.arange(int(math.ceil(L / h)) + 1)
    w = np.full(len(x), h)
    w[0] = 0.5 * h
    return x, w


def _ft_component(n: int, x: np.ndarray, fw: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The package's one transform kernel: sum_j trig(p x_j) fw_j at the
    momenta ``p`` (1-d), with cos for even n and sin for odd n (the
    parity-allowed part).

    ``fw`` holds quadrature weights times Psi_n (or phi_n) at ``x``; the sum
    is unscaled, and callers apply the normalisation and the factor -i of
    odd n.  Momenta are taken in chunks whose phase matrix fills one
    buffer of ``_FT_CHUNK_BYTES``, reused in place, so memory stays bounded
    whatever the node count.
    """
    out = np.empty(len(p))
    trig = np.cos if n % 2 == 0 else np.sin
    chunk = max(1, _FT_CHUNK_BYTES // (8 * len(x)))
    buf = np.empty((min(chunk, len(p)), len(x)))
    for i in range(0, len(p), chunk):
        phase = buf[: len(p[i : i + chunk])]
        np.outer(p[i : i + chunk], x, out=phase)
        out[i : i + chunk] = trig(phase, out=phase) @ fw
    return out


def _fft_scan(n: int, fw: np.ndarray, h: float, p_max: float, step: float):
    """The :func:`_ft_component` sum over trapezoid nodes x_j = j h at the
    momenta p_k = k dp, 0 <= k <= ceil(p_max / dp), with dp <= ``step``.

    With dp = 2 pi / (M h) the phase p_k x_j = 2 pi k j / M is periodic in
    j and in k with period M, so ``fw`` folded modulo M and one real FFT
    give every sum exactly: the real part for cos, minus the imaginary part
    for sin (negated again for k mod M past M / 2).
    """
    m = 1 << (int(math.ceil(2.0 * math.pi / (h * step))) - 1).bit_length()  # FFT-friendly
    dp = 2.0 * math.pi / (m * h)
    p_index = np.arange(int(math.ceil(p_max / dp)) + 1)
    if len(fw) > m:
        fw = np.pad(fw, (0, -len(fw) % m)).reshape(-1, m).sum(axis=0)
    f = np.fft.rfft(fw, m)  # zero-pads a shorter fw to M
    k = p_index % m
    r = np.minimum(k, m - k)
    if n % 2 == 0:
        vals = f.real[r]
    else:
        vals = np.where(k == r, -1.0, 1.0) * f.imag[r]
    return dp * p_index, vals


def _transform_zeros(n: int, x: np.ndarray, fw: np.ndarray, L_p: float, p_feat: float):
    """Zeros of the transform in (0, 0.999 L_p), sorted, from the kernel
    sum over the trapezoid nodes ``x`` with weighted wavefunction ``fw``.

    One FFT scans a uniform momentum grid as fine as a dense scan of the
    structured region [0, p_feat] (48 (n + 2) points) and of the tail
    (600 points); bisection with the direct kernel sum refines each sign
    change.  Sign flips whose neighbourhood sits at the quadrature noise
    floor are underflow artefacts, not zeros.
    """
    comp = lambda q: _SQRT_2_OVER_PI * float(_ft_component(n, x, fw, np.array([q]))[0])
    step = min(p_feat / (48 * (n + 2) - 1), (L_p - p_feat) / 599)
    scan, vals = _fft_scan(n, fw, float(x[1]), L_p, step)
    vals *= _SQRT_2_OVER_PI
    noise = max(1e-13 * float(np.max(np.abs(vals))), 50.0 * 1e-16 * float(np.sum(np.abs(fw))))
    sgn = np.sign(vals)
    flips = np.flatnonzero(sgn[:-1] * sgn[1:] < 0)
    near = sliding_window_view(np.pad(np.abs(vals), (2, 3)), 6)[flips]  # |vals[i-2 : i+4]|
    zero_list = [
        bisect_sign_change(comp, float(scan[i]), float(scan[i + 1]), float(vals[i]))
        for i in flips[near.max(axis=1, initial=0.0) > noise]
    ]
    zeros = np.array(sorted(z for z in zero_list if 1e-12 < z < 0.999 * L_p))
    if len(zeros) > 1:  # drop duplicates from brackets straddling one root
        zeros = np.concatenate([[zeros[0]], zeros[1:][np.diff(zeros) > 1e-9]])
    return zeros


def _momentum_tail_start(params: ModelParams, n: int) -> float:
    om = effective_frequency(params, n)
    return math.sqrt((2 * n + 1) * om) + 4.0 * math.sqrt(om)


@lru_cache(maxsize=512)
def _profile_cached(omega: float, lam: float, n: int, refine: int) -> MomentumProfile:
    params = ModelParams(omega, lam)
    om = effective_frequency(params, n)

    # momentum cut: Gaussian-envelope estimate plus the branch-point tail
    # e^(-2p/sqrt(lam)) with its actual amplitude, then probe the real tail
    L_p = _gaussian_cut(n, om)
    if lam > 0.0:
        y0 = math.sqrt(om / lam)
        g_prev, g = 1.0, 2.0 * y0  # G_k = |H_k(i y0)|, positive recurrence
        for k in range(1, n):
            g, g_prev = 2.0 * y0 * g + 2.0 * k * g_prev, g
        g_n = g_prev if n == 0 else g
        log_amp = (
            2.0 * log_norm_constant(params, n)
            + math.log(lam)
            + 2.0 * math.log(max(g_n, 1e-300))
            + om / lam
            + math.log(10.0)
        )
        L_b = 0.5 * math.sqrt(lam) * _TAIL_LOG
        for _ in range(4):
            L_b = 0.5 * math.sqrt(lam) * max(
                1.0, _TAIL_LOG + log_amp - 3.0 * math.log(max(L_b, 1.0))
            )
        L_p = max(L_p, L_b)

    bulk = np.array([0.0, 0.5 * math.sqrt((2 * n + 1) * om)])
    scale = float((np.abs(fourier_transform(params, n, None, bulk)) ** 2).max())
    for _ in range(40):
        tail = float((np.abs(fourier_transform(params, n, None, np.array([L_p]))) ** 2)[0])
        if tail * (1.0 + L_p) ** 2 <= math.exp(-_TAIL_LOG) * max(scale, 1e-300):
            break
        L_p *= 1.25

    x, wx = _ft_x_nodes(params, n, L_p, refine)
    fw = wx * np.asarray(wavefunction(params, n, x))
    p_feat = _momentum_tail_start(params, n)  # below the Gaussian cut, so below L_p
    zeros = _transform_zeros(n, x, fw, L_p, p_feat)

    # panels: boundaries at 0, the zeros and the feature edge; cubic maps at
    # every zero (and at 0 for odd n) so fractional powers stay spectral
    width = 0.45 * math.sqrt(om) / refine
    bulk = np.unique(np.concatenate([[0.0, p_feat], zeros[zeros < p_feat]]))
    # monotone tail: panels grow geometrically, each one a segment of its own
    tail = np.unique(np.concatenate([[p_feat, L_p], zeros[zeros >= p_feat]]))
    tail_edges = [
        e for a, b in zip(tail[:-1], tail[1:]) for e in _grow_split(a, b, 2.0 * width, 1.35)[1:]
    ]
    p_nodes, p_w = _panel_grid(
        np.concatenate([bulk, tail_edges]),
        np.concatenate([np.ceil(np.diff(bulk) / width), np.ones(len(tail_edges))]),
        zeros if n % 2 == 0 else np.append(zeros, 0.0),
    )
    g = _SQRT_2_OVER_PI * _ft_component(n, x, fw, p_nodes)
    gamma = g * g
    norm = 2.0 * float(p_w @ gamma)
    if abs(norm - 1.0) > 5e-6:
        raise ArithmeticError(
            f"momentum density normalisation off by {norm - 1.0:.2e} "
            f"for omega={omega}, lam={lam}, n={n}"
        )
    grid = GridSpec(half_width=float(L_p), points=max(32, len(p_nodes)))
    for arr in (p_nodes, p_w, gamma):
        arr.setflags(write=False)
    return MomentumProfile(params=params, n=n, grid=grid, p=p_nodes, gamma=gamma, weights=p_w)


def momentum_profile(params: ModelParams, n: int, refine: int = 1) -> MomentumProfile:
    """Half-line momentum profile (p >= 0 nodes; densities are even in p)."""
    return _profile_cached(params.omega, params.lam, n, refine)


def fourier_transform(params: ModelParams, n: int, grid_x: GridSpec | None, p):
    """(2 pi)^(-1/2) integral e^(-ipx) Psi_n(x) dx by quadrature.

    Exactly real for even n and exactly imaginary for odd n: the kernel
    sums only the parity-allowed part.  With ``grid_x`` None the sum runs
    over the half-line trapezoid nodes that are alias-free up to max |p|
    (at least 1); an explicit
    :class:`GridSpec` integrates over its full line [-L, L] and warns when
    it underresolves the phase.
    """
    pa = np.atleast_1d(np.asarray(p, dtype=float))
    p_max = float(np.max(np.abs(pa))) if len(pa) else 0.0
    if grid_x is None:
        x, wx = _ft_x_nodes(params, n, max(p_max, 1.0))
        scale = _SQRT_2_OVER_PI
    else:
        x, wx = grid_nodes(grid_x)
        scale = 1.0 / _SQRT_2PI
        if p_max * grid_x.half_width / grid_x.points > 0.5:
            warnings.warn(
                "momentum grid underresolves the e^(-ipx) phase: "
                f"p*L/points = {p_max * grid_x.half_width / grid_x.points:.2f} > 0.5",
                stacklevel=2,
            )
    fw = wx * np.asarray(wavefunction(params, n, x))
    return _with_parity_phase(n, scale * _ft_component(n, x, fw, pa), p)


def _with_parity_phase(n: int, g: np.ndarray, p):
    """The transform from its parity-allowed part ``g``: g for even n, -i g
    for odd n, with +0 (not -0) as the zero part; complex for scalar ``p``."""
    out = g + 0j if n % 2 == 0 else -1j * g + 0.0  # -1j * 0.0 has imaginary part -0.0
    return out if np.asarray(p).ndim else complex(out[0])


# --------------------------------------------------------------------------
# numeric moments and Shannon entropy
# --------------------------------------------------------------------------

def _half_line_density(
    params: ModelParams, n: int, space: str, refine: int, alpha: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Half-line weights and density in ``space`` (both densities are even);
    the position nodes resolve density^alpha."""
    if space == "position":
        x, w = _position_moment_nodes(params, n, alpha, refine)
        return w, np.asarray(density_position(params, n, x))
    if space == "momentum":
        prof = momentum_profile(params, n, refine)
        return prof.weights, prof.gamma
    raise ValueError(f"space must be 'position' or 'momentum', got {space!r}")


def entropic_moment_numeric(
    params: ModelParams, n: int, alpha: float, space: str = "position", refine: int = 1
) -> float:
    """W = integral density^alpha over the grid, either space, any finite alpha > 0."""
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    w, rho = _half_line_density(params, n, space, refine, float(alpha))
    return 2.0 * float(w @ np.power(rho, alpha))


def shannon_numeric(params: ModelParams, n: int, space: str = "position", refine: int = 1) -> float:
    """Shannon entropy -integral density ln density (0 ln 0 taken as 0)."""
    w, rho = _half_line_density(params, n, space, refine)
    val = np.where(rho > 0.0, rho * np.log(np.where(rho > 0.0, rho, 1.0)), 0.0)
    return -2.0 * float(w @ val)
