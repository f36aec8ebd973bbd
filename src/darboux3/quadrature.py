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
restores spectral convergence.  :func:`_panel_grid` lays out these panels,
the momentum profile's and the equal ones of :func:`grid_log_moment`; :func:`_gl_blocks`
lays out the equal-panel lattices of the phi_n transform and of
:func:`fourier_transform` on a :class:`GridSpec` (:func:`_lattice_transform`
sums them).  Both use array operations.  Every layout is that of the
twin (1, kappa), kappa = lam / omega (:func:`~darboux3.model.unit_twin`):
values at omega follow by the model's scalings, applied once.  Position
moments integrate in y = sqrt(Omega) x, where
rho_n(x) dx = [(1 + c y^2) / (1 + m c)] h_n(y)^2 dy (c = kappa / Omega,
m = n + 1/2, h_n the normalised harmonic function): kappa
enters only through that factor and the cut, so the panels up to the last
Hermite zero and h_n on them depend only on (n, order class, refine).
Each class among the (kappa, alpha) cells of one n's CLI grid or table row
gets one half line, its head and one tail to its cells' largest cut, read
whole by each; passes of bounded size lay whole lines out as segments of
one :func:`_panel_grid` call and one Hermite pass; tail panels grow
geometrically past the last lobe of h_n as the momentum tail's do
(:func:`_position_log_density`).  In momentum space the zeros of
the transform are located first: a scan brackets them (one FFT of a
uniform momentum grid, or where that FFT would be long, the kernel on the
dense head [0, p_feat] and a short FFT on the tail), and Newton's method,
kept inside each bracket, refines all of them together
(:func:`~darboux3.specfun.bracketed_newton`, which refines the density's
critical points too), with g and g' from one kernel call per step (two or
three calls at every tested profile).  The momentum panels are laid out
the same way, and entropy integrals reuse the profile nodes directly with
no interpolation.

Fourier transform
-----------------
Psi_n has parity (-1)^n, so its transform (2 pi)^(-1/2) integral
e^(-ipx) Psi_n(x) dx is the cos transform for even n and -i times the sin
transform for odd n.  One kernel, :func:`_ft_component`, computes the
parity-allowed trig sum: the momentum profile calls it for the head band of
a long zero scan, its zero refinement and its final sum, and the one
assembly, :func:`_lattice_transform`, for :func:`fourier_transform` and the
transform of phi_n, so a transform is exactly real (even n) or exactly
imaginary (odd n) by construction.

The kernel sums over a separable node lattice x = X_J + d_b, the index split
j = J B + b of Cooley & Tukey (Math. Comp. 19, 1965), and splits each side
once more into two levels, X_J = a_c + a_f and d_b = b_c + b_f.  Angle
addition, e^(ip(a + b)) = e^(ipa) e^(ipb), turns the P N cosines of a
direct sum at P momenta over N nodes into cosines and sines of the level
entries, about 4 P N^(1/4) of them, products of unit complex numbers for
the side tables e^(ip d_b) and e^(ip X_J), one matrix product of the
weights with the first and an elementwise combine with the second, with
no approximation; the first table is dropped before the second is built.
The momenta are levels too: a progression p = Q_c + q_f (the zero scan's
head band) takes e^(ixp) = e^(ixQ) e^(ixq) from about 2 sqrt(P) phases per
level entry, one more unit product.  Each phase p x keeps the rounding
error of its product (Dekker's exact two-product), so the sum is within
eps ((B + J) / 2 + 12) sum |fw| of the exact sum over its nodes (+ 22 for
two momentum levels), whatever the size of p x, and a few eps sum |fw| in
practice.

The transform of Psi_n sums over half-line trapezoid nodes x_j = j h
(weight h, h/2 at x = 0) in blocks of B = ceil(sqrt(N)), which minimises
the P (B + N / B) entries of the side tables; those of phi_n and of an
explicit :class:`GridSpec` sum over equal Gauss-Legendre panels, one panel
per block, whose 16 offsets are one level.  Psi_n is analytic in
the strip |Im x| < 1/sqrt(lam), so the trapezoid rule converges
exponentially (Trefethen & Weideman, SIAM Rev. 56, 2014): by
Poisson summation its error at p is the transform at the first alias
2 pi / h - p, and h puts that alias beyond the momentum where the
transform is below rounding.  On these nodes the kernel sums at the
momenta k dp, dp = 2 pi / (M h), are one real FFT of the weighted
wavefunction zero-padded to M; the profile's zero scan is that FFT, or
on a long scan its tail band (:func:`_zero_scan`).

Truncation
----------
Position half-widths put the integrand envelope at the cut below ~1e-18
of its peak.  The momentum cut, :func:`_momentum_cut`, is the Gaussian cut
below the saddle crossover p_c = Omega / sqrt(lam) (a shifted-line bound)
and past it follows from the branch-point tail law of the transform
(W_1/2 loses at most 1e-11), so a profile builds its nodes and Psi_n once.
A profile is its twin's, momenta and weights times sqrt(omega) and
densities over it, and the twin's is cached on (kappa, n, refine).

Both spaces integrate even densities on the half line (a user's grid,
:func:`grid_log_moment`, spans [-L, L]): :func:`entropic_moment_numeric` and
:func:`shannon_numeric` take ln rho on the position nodes and gamma on the profile nodes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np
from numpy.polynomial.legendre import leggauss

from .model import (ModelParams, density_position, effective_frequency, log_norm_constant, log_unit,
                    unit_twin, wavefunction)
from .specfun import bracketed_newton, hermite_sign_logabs, hermite_zeros

__all__ = [
    "GridSpec",
    "MomentumProfile",
    "position_half_width",
    "entropic_moment_numeric",
    "shannon_numeric",
    "position_moments",
    "position_shannons",
    "grid_log_moment",
    "fourier_transform",
    "momentum_profile",
]

_ORDER = 16          # Gauss-Legendre points per panel
_TAIL_LOG = 42.0     # envelope at the cut below e^-42 ~ 5.7e-19 of peak
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_FT_CHUNK_BYTES = 4 * 2**20  # the kernel's arrays for one chunk of momenta
_W_HALF_TAIL = 1e-11  # share of momentum W_1/2 the cut may leave out
_NORM_TOL = 5e-6  # |norm - 1| a momentum density may show
_GROW = 1.35  # width ratio of successive tail panels, in either space
_PASS_NODES = 2**16  # position head and tail nodes one Hermite pass takes at most
_LOG_MAX = math.log(np.finfo(float).max)  # e^x overflows past it

_GL_U, _GL_W = leggauss(_ORDER)
_GL_U, _GL_W = (_GL_U + 1.0) / 2.0, _GL_W / 2.0  # Gauss-Legendre nodes/weights on [0, 1]
_GL_U.setflags(write=False)
_GL_W.setflags(write=False)


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


def _panel_grid(a, b, counts, cusps=()):
    """Nodes/weights of Gauss-Legendre panels, built as arrays.

    Segment s, [a[s], b[s]] = [A, B], is cut into k = counts[s] equal
    pieces with edges i ((B - A) / k) + A and the last edge B, as
    ``np.linspace`` places them; the segments need not touch.  The first
    piece of a segment that starts at one of the ``cusps`` gets the cubic
    endpoint map x = A + h u^3, the last piece of one that ends at a cusp
    x = B - h u^3.  A piece maps one end only, so a segment with cusps at
    both ends is cut into two pieces at least.
    """
    a, b, cusps = (np.asarray(v, dtype=float) for v in (a, b, cusps))
    # np.isin(a, cusps), without its set-up cost on a few points
    cusp_a, cusp_b = ((v[:, None] == cusps).any(axis=1) for v in (a, b))
    counts = np.maximum(np.asarray(counts).astype(np.intp), 1 + (cusp_a & cusp_b))
    seg = np.repeat(np.arange(len(counts)), counts)
    first = np.cumsum(counts) - counts
    last = first + counts - 1
    lo = (np.arange(len(seg)) - first[seg]) * ((b - a) / counts)[seg] + a[seg]
    hi = np.empty_like(lo)
    hi[:-1] = lo[1:]
    hi[last] = b
    at_a = first[cusp_a]
    at_b = last[cusp_b]
    u, wu = _GL_U, _GL_W
    h = (hi - lo)[:, None]
    x = lo[:, None] + h * u
    w = h * wu
    x[at_a] = lo[at_a, None] + h[at_a] * u**3
    x[at_b] = hi[at_b, None] - h[at_b] * u**3
    mapped = np.concatenate([at_a, at_b])
    w[mapped] = 3.0 * h[mapped] * u**2 * wu
    return x.ravel(), w.ravel()


def _grow_split(a: float, b: float, width: float, grow: float) -> list[float]:
    """Edges of pieces of [a, b] starting at ``width`` and growing by ``grow``."""
    edges = [a]
    while edges[-1] + width < b:
        edges.append(edges[-1] + width)
        width *= grow
    edges.append(b)
    return edges


# --------------------------------------------------------------------------
# position space
# --------------------------------------------------------------------------

def position_half_width(
    params: ModelParams, n: int, alpha: float, tail_log: float = _TAIL_LOG
) -> float:
    """Half-width L with the density^alpha envelope below e^-tail_log of its
    peak, the twin's over sqrt(omega); orders alpha > 1 take the order-1 width."""
    unit = unit_twin(params)
    om = effective_frequency(unit, n)
    a = min(alpha, 1.0)
    L2 = tail_log / (a * om) + (2 * n + 1) / om
    for _ in range(8):
        L = math.sqrt(L2)
        L2 = (
            tail_log / a
            + math.log1p(unit.lam * L * L)
            + 2.0 * n * math.log1p(2.0 * math.sqrt(om) * L)
        ) / om
    return 1.1 * math.sqrt(L2) / math.sqrt(params.omega)


def _position_log_density(cells, n: int, refine: int):
    """For each (kappa, alpha) of ``cells``, its index in ``cells``, alpha
    and the half-line nodes y = sqrt(Omega) x of the twin (1, kappa), their
    weights in x and ln rho_n there, for integrating rho_n^alpha (an even
    integrand); every alpha must be finite and > 0.  The cells come class by
    class (see below).

    rho_n(x) dx = [(1 + c y^2) / (1 + m c)] h_n(y)^2 dy with c = kappa /
    Omega, m = n + 1/2 and h_n the normalised harmonic function, so
    ln rho_n = 2 ln N + ln(1 + c y^2) + 2 ln|H_n(y)| - y^2.
    The panels split at the positive Hermite zeros, each at most
    width = min(0.7, pi / (4 max(alpha, 1) sqrt(2n + 1))) / refine wide, and
    run out to the cut sqrt(Omega) L, L the :func:`position_half_width`;
    every zero lies inside, since (sqrt(Omega) L)^2 > 1.21 (42 + 5.2 n) > 2n + 1.
    So the head [0, zeros..., z_last] depends only on the layout class
    (n, max(alpha, 1), whether alpha is fractional, ``refine``).  Each class
    of the call gets one half line, its head and then one tail to the
    largest cut among its cells, and each of its cells reads that whole
    line, adding only its ln(1 + c y^2) and ln N: past its own cut a
    cell's integrand is below e^-42 of its peak.  The lines go, fractional
    classes first (only they map the cusps at the zeros), into passes of
    one kind, each one :func:`_panel_grid` call and one Hermite pass that
    closes once it holds ``_PASS_NODES`` nodes.  Nothing is kept between
    calls, and every value is elementwise: a class of one cell, and the cell
    that sets its class's cut, get what a call of their own gives, bit for
    bit, and a call's values depend on its set of cells only.

    The tail has no zeros.  The last lobe of h_n ends within one Airy
    length (2 sqrt(2n + 1))^(-1/3) < 1 of the turning point sqrt(2n + 1),
    so the tail keeps equal pieces of width d <= width through
    y_g = sqrt(2n + 1) + 1, and past y_g each piece is ``_GROW`` times the
    one before it, as in the momentum tail.  Such a piece [a, a + w] has
    a / w >= min(y_g / (_GROW d), 1 / (_GROW - 1)) > 2.1, so the branch
    points +-i / sqrt(c) of (1 + c y^2)^alpha lie outside its
    Bernstein ellipse rho = t + sqrt(t^2 - 1), t = 1 + 2 a / w > 5.2,
    whatever c: the 16-point rule's error bound scales as rho^-32 < 1e-32.
    """
    classes = {}  # (integer, max(alpha, 1)): [largest cut, its cells]
    for index, (kappa, alpha) in enumerate(cells):
        _check_order(alpha := float(alpha))
        params = ModelParams(1.0, kappa)
        om = effective_frequency(params, n)
        line = classes.setdefault((alpha.is_integer(), max(alpha, 1.0)), [0.0, []])
        line[0] = max(line[0], math.sqrt(om) * position_half_width(params, n, alpha))
        line[1].append((index, alpha, params, om))
    lines = sorted(classes.items())  # fractional classes first
    zeros = hermite_zeros(n)[n // 2 :]  # z >= 0, with 0 for odd n
    z_last = float(zeros[-1]) if n else 0.0
    y_g = math.sqrt(2 * n + 1) + 1.0  # past the last lobe
    head = np.concatenate([[0.0], zeros[n % 2 :]])  # 0, ..., z_last
    i = 0
    while i < len(lines):
        # fractional powers leave |y - z|^(2 alpha) cusps at the density zeros
        integer = lines[i][0][0]
        batch, segments, nodes = [], [], 0
        while i < len(lines) and lines[i][0][0] == integer and nodes < _PASS_NODES:
            (_, order), (L, members) = lines[i]
            i += 1
            width = min(0.7, math.pi / (4.0 * order * math.sqrt(2 * n + 1))) / refine
            d = (L - z_last) / math.ceil((L - z_last) / width)
            equal = np.arange(math.floor((y_g - z_last) / d) + 1) * d + z_last
            edges = np.concatenate([head, equal[1:], _grow_split(float(equal[-1]), L, d, _GROW)[1:]])
            counts = np.concatenate([np.ceil(np.diff(head) / width), np.ones(len(edges) - len(head))])
            segments.append((edges[:-1], edges[1:], counts))
            start, nodes = nodes, nodes + _ORDER * int(counts.sum())
            batch.append((slice(start, nodes), members))
        starts, ends, counts = (np.concatenate(parts) for parts in zip(*segments))
        y, w = _panel_grid(starts, ends, counts, () if integer else zeros)
        log_h = 2.0 * hermite_sign_logabs(n, y)[1] - y * y  # -inf at an exact zero of H_n
        for at, members in batch:
            y_t, w_t, h_t = y[at], w[at], log_h[at]
            for index, alpha, params, om in members:
                log_rho = np.multiply(y_t, y_t)  # ln(1 + c y^2) + 2 ln|H_n(y)| - y^2 + 2 ln N
                log_rho *= params.lam / om
                np.log1p(log_rho, out=log_rho)
                log_rho += h_t
                log_rho += 2.0 * log_norm_constant(params, n)
                yield index, alpha, y_t, w_t / math.sqrt(om), log_rho


# --------------------------------------------------------------------------
# momentum space
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentumProfile:
    """Tabulated momentum density gamma(p) = |FT Psi|^2 on quadrature nodes."""

    grid: GridSpec
    p: np.ndarray
    gamma: np.ndarray
    weights: np.ndarray


def _gaussian_cut(n: int, om: float) -> float:
    """Momentum beyond which the Gaussian part of the twin's transform is
    below e^-(2 _TAIL_LOG) of its peak, with a margin of one unit."""
    return 1.3 * math.sqrt((_TAIL_LOG * 2.0 + 3.0 * (2 * n + 1)) * om) + 1.0


def _ft_x_nodes(params: ModelParams, n: int, p_max: float, refine: int = 1, scan_step: float = 0.0):
    """Half-line trapezoid nodes x_j = j h on [0, L] (weight h, h/2 at 0) of
    the twin ``params`` (omega = 1), as the lattice (origins, offsets,
    weights) of :func:`_ft_component`.

    By Poisson summation the rule's error at p is the transform at the
    first alias 2 pi / h - p, so h puts that alias beyond ``band``, where
    the transform is below rounding: the branch-point tail
    e^(-p / sqrt(lam)) has fallen by e^-40 past 40 sqrt(lam), and the
    Gaussian part is cut by :func:`_gaussian_cut`.  The N nodes split as
    j = J B + b (Cooley & Tukey, Math. Comp. 19, 1965) with B = ceil(sqrt N)
    offsets b h, which minimises the P (B + N / B) entries of the kernel's
    side tables; the nodes that pad the last block have weight 0.  Each
    side is an arithmetic progression, given as two levels
    (:func:`_progression`), so the kernel takes the cos and sin of about
    2 (sqrt J + sqrt B) phases per momentum: 31 for N = 3192.

    Before allocating, it raises ``ArithmeticError`` where N, or the length
    M of one zero-scan FFT at ``scan_step`` (:func:`_zero_scan`), passes what
    lam / Omega = 1e3, n = 50 need at refine 1: N = 1,993,744 and M = 2^27.
    At lam = 1e6, n = 2 they would be 2.2e8 and 2^32.
    """
    om = effective_frequency(params, n)
    L = position_half_width(params, n, 1.0, tail_log=88.0)
    band = max(40.0 * math.sqrt(params.lam), _gaussian_cut(n, om))
    h = 2.0 * math.pi / ((band + p_max) * refine)
    count = int(math.ceil(L / h)) + 1
    b = math.isqrt(count - 1) + 1  # ceil(sqrt(count)) for count >= 1
    size, m = -(-count // b) * b, _fft_length(h, scan_step) if scan_step else 0
    if size > 1_993_744 or m > 2**27:
        raise ArithmeticError(
            f"momentum transform at omega={params.omega}, lam={params.lam}, n={n} needs"
            f" N = {_count(size)} nodes and M = {_count(m)} scan points, more than lam/omega = 1e3,"
            " n = 50 need"
        )
    w = np.full(size, h)
    w[0] = 0.5 * h
    w[count:] = 0.0
    return _progression(0.0, b * h, size // b), _progression(0.0, h, b), w.reshape(-1, b)


def _count(k: int) -> str:
    """A count in full, or past 10^15 in %.3e form."""
    return str(k) if k < 10**15 else f"{k:.3e}"


def _progression(start: float, step: float, count: int):
    """start + i step for i < count as the two levels of a lattice side,
    start + c F step for c < ceil(count / F) and f step for f < F =
    ceil(sqrt(count)): the fewest level entries whose outer sum lists it."""
    fine = math.isqrt(count - 1) + 1  # ceil(sqrt(count)) for count >= 1
    return start + step * np.arange(0, count, fine), step * np.arange(fine)


def _gl_blocks(a: float, b: float, panels: int):
    """``panels`` equal Gauss-Legendre panels on [a, b] as the lattice
    (origins, offsets, weights) of :func:`_ft_component`."""
    width = (b - a) / panels
    return _progression(a, width, panels), (width * _GL_U,), np.tile(width * _GL_W, (panels, 1))


def _ft_component(n, origins, offsets, fw: np.ndarray, momenta):
    """The package's one transform kernel: sum_(J, b) trig(p x) fw[..., J, b]
    over the node lattice x = X_J + d_b, at the momenta p, with cos for even
    n and sin for odd n (the parity-allowed part).

    ``fw`` holds quadrature weights times Psi_n (or phi_n) at the nodes, one
    row per origin; a leading axis stacks several such functions, each
    with its own entry of ``n``.  Each side, ``origins`` X_J and ``offsets``
    d_b, is a tuple of levels (:func:`_side`; one level is the side itself),
    and so are the ``momenta``: the sums come at all of their levels' outer
    sum, flattened.  The sum is unscaled, and callers apply the
    normalisation and the factor -i of odd n.  Angle addition,
    e^(ip(a + b)) = e^(ipa) e^(ipb), turns the P J B trig calls of a direct
    sum into cos/sin passes over the level entries of the nodes (31 at
    J B = 3192) times those of the momenta (about 2 sqrt(P) for two levels),
    products of unit numbers for the side tables, one matrix product and a
    combine, with no approximation: the real (even n) or imaginary (odd n)
    part of sum_J e^(ipX_J) sum_b e^(ipd_b) fw.

    Each phase keeps the rounding error of its product (:func:`_unit_phases`),
    so a level entry's cos and sin are within eps, and a product of unit
    numbers adds sqrt(5) eps / 2 at most.  With two levels a side and m
    momentum levels, a term's factor takes 4 m phases and 4 m - 1 products,
    within (4 sqrt(2) m + sqrt(5) (4 m - 1) / 2) eps <= 10 m eps, and the
    sums of B and of J terms add (B + J) eps / 2: the sum is within
    eps ((B + J) / 2 + 2 + 10 m) sum |fw| of the exact sum over the lattice
    (:func:`_rounding_bound`), and a few eps sum |fw| in practice.
    """
    fw = np.asarray(fw, dtype=float)
    rows, (blocks, width) = fw.shape[:-2], fw.shape[-2:]
    f = fw.reshape(-1, width)  # (K J, B)
    k = f.shape[0] // blocks
    odd = [m % 2 == 1 for m in (n if rows else [n])]
    first, fine = momenta[0], momenta[1:]
    per = math.prod(map(len, fine))  # momenta per entry of the first level
    levels = (*offsets, *origins)
    x = np.concatenate(levels)
    x_split = _split(x)
    fine_phases = [_unit_phases(x, x_split, q, _split(q)) for q in fine]
    edges = list(accumulate(map(len, levels), initial=0))
    # the chunk budget counts, per momentum, 3 complex entries per level entry,
    # 2 per side-table entry and the block sums, more than is live (the level
    # phases and one side table at a time, beside the block sums); it stays, as
    # the matrix product's rounding depends on the chunk's column count
    chunk = max(1, _FT_CHUNK_BYTES // (16 * (3 * len(x) + 2 * (blocks + width) + k * blocks)))
    step = max(1, chunk // per)  # entries of the first level per chunk
    out = np.empty((k, len(first) * per))
    for i in range(0, len(first), step):
        q = first[i : i + step]
        e = _unit_phases(x, x_split, q, _split(q))
        for table in fine_phases:  # e^(ix(Q + q)) = e^(ixQ) e^(ixq)
            e = (e[:, :, None] * table[:, None, :]).reshape(len(x), -1)
        tables = [e[a:b] for a, b in zip(edges, edges[1:])]
        # sum_b e^(ipd_b) fw: the offsets' table goes with the product, before
        # the origins' table e^(ipX_J) is built
        ed = _side(tables[: len(offsets)], width, np.multiply)
        g = (f @ ed.view(float)).view(complex).reshape(k, blocks, -1)
        del ed
        g *= _side(tables[len(offsets) :], blocks, np.multiply)
        total = g.sum(axis=1)
        for r in range(k):
            out[r, i * per : i * per + total.shape[1]] = total[r].imag if odd[r] else total[r].real
    return out.reshape(rows + (out.shape[1],)) + 0.0  # + 0.0: the odd sum at p = 0 is +0


def _lattice_nodes(origins, offsets, shape) -> np.ndarray:
    """The nodes X_J + d_b of a :func:`_ft_component` lattice whose weights
    have ``shape`` (J, B)."""
    return _side(origins, shape[0])[:, None] + _side(offsets, shape[1])


def _side(levels, count: int, op=np.add) -> np.ndarray:
    """A lattice side from its levels: their outer sum, flattened and cut to
    ``count``.  With ``op`` np.multiply and each level's e^(ipx) table (a row
    of momenta per entry) in its place, the side's table, since
    e^(ip(a + b)) = e^(ipa) e^(ipb)."""
    x = levels[0]
    for level in levels[1:]:
        x = op(x[:, None], level).reshape((-1,) + level.shape[1:])
    return x[:count]


def _split(a: np.ndarray):
    """Dekker's split a = hi + lo, each half with at most 26 significant bits."""
    t = 134217729.0 * a  # 2^27 + 1
    hi = t - (t - a)
    return hi, a - hi


def _unit_phases(x: np.ndarray, x_split, q: np.ndarray, q_split) -> np.ndarray:
    """e^(i x_l q_k), (len(x), len(q)) complex, each part to within
    rounding of the exact product, from x and q and their :func:`_split`
    halves: the product's own rounding error e, from Dekker's two-product,
    enters as cos(t + e) = cos t - e sin t and sin(t + e) = sin t + e cos t.
    (x_lo q is rounded, but only at 2^-26 of e.)"""
    (xh, xl), (qh, ql) = x_split, q_split
    t = np.multiply.outer(x, q)
    e = np.multiply.outer(xh, qh)
    e -= t
    part = np.multiply.outer(xh, ql)
    e += part
    e += np.multiply.outer(xl, q, out=part)
    out = np.empty(t.shape, dtype=complex)
    c, s = out.real, out.imag
    np.cos(t, out=c)
    np.sin(t, out=s)
    es = np.multiply(e, s, out=t)
    e *= c
    c -= es
    s += e
    return out


def _fft_scan(n: int, fw: np.ndarray, h: float, p_max: float, step: float):
    """The :func:`_ft_component` sum over trapezoid nodes x_j = j h at the
    momenta p_k = k dp, 0 <= k <= ceil(p_max / dp), with dp <= ``step``.

    With dp = 2 pi / (M h) the phase p_k x_j = 2 pi k j / M is periodic in
    k with period M, so one real FFT of ``fw`` zero-padded to M gives every
    sum exactly: the real part for cos, minus the imaginary part for sin
    (negated again for k past M / 2).  M is at least the node count (an
    rfft shorter than ``fw`` would drop its last nodes), and k stays below
    M: k / M <= p_max h / (2 pi) <= 1/2 up to the ceiling while a profile's
    cut L_p is within the band, as 2 pi / h = (band + L_p) refine.  Over
    kappa in [0, 1e4], n <= 100 and refine <= 4, L_p is within the band and k / M at 0.5005 or less.
    """
    m = _fft_length(h, step, len(fw))
    dp = 2.0 * math.pi / (m * h)
    k = np.arange(int(math.ceil(p_max / dp)) + 1)
    f = np.fft.rfft(fw, m)  # zero-pads fw to M
    r = np.minimum(k, m - k)
    if n % 2 == 0:
        vals = f.real[r]
    else:
        vals = np.where(k == r, -1.0, 1.0) * f.imag[r]
    return dp * k, vals


def _fft_length(h: float, step: float, nodes: int = 1) -> int:
    """:func:`_fft_scan`'s length M, the least power of two with
    2 pi / (M h) <= step and M >= ``nodes``."""
    return 1 << (max(int(math.ceil(2.0 * math.pi / (h * step))), nodes) - 1).bit_length()


def _scan_steps(n: int, p_feat: float, L_p: float) -> tuple[float, float]:
    """The zero scan's steps on its head [0, p_feat], 48 (n + 2) points,
    and on its tail [p_feat, L_p], 600 points."""
    return p_feat / (48 * (n + 2) - 1), (L_p - p_feat) / 599


def _zero_scan(n: int, origins, offsets, fw, p_feat: float, L_p: float):
    """The momenta of the zero scan over [0, L_p], increasing, and the
    :func:`_ft_component` sums there, over the trapezoid lattice ``origins``
    + ``offsets`` (step h, the second entry of the offsets' fine level) with
    weighted wavefunction ``fw``.

    The scan takes the :func:`_scan_steps`.  One FFT at the finer of them
    is M = :func:`_fft_length` long, and it is the scan while it costs less
    than two bands: the head band's P = 48 (n + 2) momenta k step_head, up
    to p_feat, through the kernel, and the tail band through an FFT at the
    tail step, read past the last head point, where the two runs of values
    meet.  The tail FFT is as long as N or the tail step needs, far shorter
    than M at large lam n, where the head step is the finer by far: M is
    2^24 at lam = 1000, n = 6, and the tail FFT 2^19.

    The head band's momenta go to the kernel as the two levels of their
    progression (:func:`_progression`), about 2 sqrt(P) trig phases per
    level entry of the nodes in place of P, within the rounding bound of two
    momentum levels; the third value is the head band's length (0: one FFT).

    Two bands run from M = 2^16 on.  Measured on a 2-vCPU x86-64 VM (numpy
    2.4, OpenBLAS on one thread), the least of 7 alternating cold builds of
    each of 886 profiles (lam in [0.2, 100], n <= 20) in one long-lived
    process took with two bands a median 1.13-1.18 times the single-FFT
    time at M <= 2^14 (less at 2 of 271), 1.02 at 2^15 (0.90-1.38, less at
    59 of 158), 0.87 at 2^16 (0.67-1.01, less at 153 of 156), 0.65 at 2^17
    and 0.48 at 2^18.
    """
    h = float(offsets[-1][1])
    head_step, tail_step = _scan_steps(n, p_feat, L_p)
    step = min(head_step, tail_step)
    count = round(p_feat / head_step) + 1
    if _fft_length(h, step) < 2**16:
        return (*_fft_scan(n, fw.ravel(), h, L_p, step), 0)
    momenta = _progression(0.0, head_step, count)
    head = _side(momenta, count)
    p, vals = _fft_scan(n, fw.ravel(), h, L_p, tail_step)
    tail = p > head[-1]
    return (
        np.concatenate([head, p[tail]]),
        np.concatenate([_ft_component(n, origins, offsets, fw, momenta)[:count], vals[tail]]),
        count,
    )


def _transform_zeros(n: int, origins, offsets, fw, p_feat: float, L_p: float):
    """Zeros of the transform in (0, 0.999 L_p), increasing, from the
    kernel sum over the trapezoid lattice ``origins`` + ``offsets`` with
    weighted wavefunction ``fw``, bracketed by the :func:`_zero_scan`.

    A sign flip of the scan's kernel sums g is kept where some |g| near it
    passes the kernel's rounding bound, eps ((B + J) / 2 + 12) sum |fw|
    (:func:`_rounding_bound`; eps ((B + J) / 2 + 22) sum |fw| on a two-band
    scan, whose head band sums at two momentum levels), and 1e-13 max |g|,
    which drops real far-tail sign changes of no weight.  Every kept bracket is refined at once by
    :func:`~darboux3.specfun.bracketed_newton`, with g and
    g' = -+ sum x fw sin/cos(p x) from one kernel call per step, until |g|
    is within the rounding bound.  The brackets are disjoint scan cells in
    order, none at p = 0 (g(0) = 0 exactly for odd n), and a root leaves
    its bracket only by its last step, at most bound / |g'|: the zeros come
    out positive and increasing.  The cut keeps L_p the last layout bound.
    """
    scan, vals, head = _zero_scan(n, origins, offsets, fw, p_feat, L_p)
    bound = _rounding_bound(fw)
    floor = _rounding_bound(fw, 2) if head else bound  # a head band sums at two momentum levels
    i = _sign_flips(vals, max(1e-13 * float(np.max(np.abs(vals))), floor))
    pair = np.stack([fw, _lattice_nodes(origins, offsets, fw.shape) * fw])
    slope_sign = 1.0 if n % 2 else -1.0  # g' = -+ the kernel sum of x fw

    def g_slope_bound(z):
        g, dg = _ft_component((n, n + 1), origins, offsets, pair, (z,))
        return g, slope_sign * dg, bound

    z = bracketed_newton(
        g_slope_bound, scan[i], scan[i + 1], vals[i], vals[i + 1], "momentum zeros"
    )
    return z[z < 0.999 * L_p]


def _rounding_bound(fw: np.ndarray, momentum_levels: int = 1) -> float:
    """:func:`_ft_component`'s rounding bound on a lattice of two levels a
    side with weights ``fw`` (J, B): eps ((B + J) / 2 + 2 + 10 m) sum |fw|
    for m ``momentum_levels``."""
    terms = 0.5 * sum(fw.shape) + 2.0 + 10.0 * momentum_levels
    return np.finfo(float).eps * terms * float(np.sum(np.abs(fw)))


def _sign_flips(vals: np.ndarray, noise: float) -> np.ndarray:
    """The indices i where ``vals`` changes sign between i and i + 1 and
    some |vals| in i - 2 .. i + 3 passes ``noise`` (the window is cut at
    the ends)."""
    sgn = np.sign(vals)
    flips = np.flatnonzero(sgn[:-1] * sgn[1:] < 0)
    padded = np.zeros(len(vals) + 5)
    padded[2:-3] = np.abs(vals)
    near = padded[flips[:, None] + np.arange(6)]  # |vals[i-2 : i+4]|
    return flips[near.max(axis=1, initial=0.0) > noise]


def _momentum_tail_start(params: ModelParams, n: int) -> float:
    om = effective_frequency(params, n)
    return math.sqrt((2 * n + 1) * om) + 4.0 * math.sqrt(om)


def _log_tail_amplitude(params: ModelParams, n: int) -> float:
    """ln(gamma(p) p^3 e^(2p/sqrt(lam))) as p -> infinity, lam > 0.

    The branch point of sqrt(1 + lam x^2) at x = -i/sqrt(lam) fixes the
    transform's tail (Watson's lemma on the cut): gamma(p) ~ sqrt(lam) N^2
    e^(Omega/lam) |H_n(i y)|^2 p^-3 e^(-2p/sqrt(lam)), y = sqrt(Omega/lam).
    ln|H_n(i y)| sums ln t_k over the positive ratios t_k = |H_k / H_(k-1)|,
    t_1 = 2y, t_(k+1) = 2y + 2k / t_k, so no order overflows.
    """
    lam = params.lam
    om = effective_frequency(params, n)
    y = math.sqrt(om / lam)
    log_h, t = 0.0, 2.0 * y
    for k in range(1, n + 1):
        log_h += math.log(t)
        t = 2.0 * y + 2.0 * k / t
    return 2.0 * log_norm_constant(params, n) + om / lam + 2.0 * log_h + 0.5 * math.log(lam)


def _position_second_moment(params: ModelParams, n: int) -> float:
    """<x^2> of rho_n, from the Hermite moments of y^2 and y^4."""
    om = effective_frequency(params, n)
    m = n + 0.5
    quartic = 0.75 * (2 * n * n + 2 * n + 1) / (om * om)
    return (m / om + params.lam * quartic) / (1.0 + m * params.lam / om)


def _momentum_cut(params: ModelParams, n: int) -> float:
    """The profile's momentum cut L_p, sqrt(omega) times the twin's (1,
    kappa): :func:`_gaussian_cut`, or beyond it and past the saddle
    crossover p_c = Omega / sqrt(lam) the branch-point tail law cut for
    W_1/2, lam and Omega the twin's.

    Psi_n is analytic in the strip |Im x| < 1/sqrt(lam), so moving the line
    of integration to Im x = -c inside it gives the shifted-line bound
    |g(p)| <= (2 pi)^(-1/2) e^(-p c) integral |Psi_n(x - ic)| dx, where the
    integral is e^(Omega c^2 / 2) times factors polynomial in c.  With
    c = p / Omega, inside the strip for p < p_c, the bound is the Gaussian
    decay e^(-p^2 / (2 Omega)) the Gaussian cut is built on (as at lam = 0),
    and taken with c = L / Omega over all of [L, inf) it bounds the whole
    tail past L.  So a Gaussian cut below p_c is the cut; the law, which
    holds for p >> p_c only, would put it near p_c / 2 there.

    Past p_c, under the law of :func:`_log_tail_amplitude`, gamma^(1/2) = B p^(-3/2)
    e^(-p/s) with s = sqrt(lam), so the two tails of W_1/2 past L hold
    2 integral_L^inf gamma^(1/2) dp <= 2 B s L^(-3/2) e^(-L/s).  A
    normalised density has W_1/2 >= 1 / sqrt(max gamma), and max gamma <=
    ||Psi||_1^2 / (2 pi) <= <x^2>^(1/2) (Cauchy-Schwarz with the weight
    1 + x^2 / <x^2>), so L_p is the root of
    L/s + 1.5 ln L = ln(2 B s / _W_HALF_TAIL) + ln<x^2> / 4, past which
    W_1/2 loses at most _W_HALF_TAIL of itself.  The left side is
    increasing and concave in L, so Newton's iterates from below the root
    rise monotonically to it.
    """
    unit = unit_twin(params)
    om = effective_frequency(unit, n)
    L = _gaussian_cut(n, om)
    s = math.sqrt(unit.lam)
    if L * s >= om:  # past the crossover, so lam > 0
        k = (
            0.5 * _log_tail_amplitude(unit, n)
            + math.log(2.0 * s / _W_HALF_TAIL)
            + 0.25 * math.log(_position_second_moment(unit, n))
        )
        for _ in range(50):
            step = (k - L / s - 1.5 * math.log(L)) / (1.0 / s + 1.5 / L)
            if step <= 1e-12 * L:
                break
            L += step
    return math.sqrt(params.omega) * L


@lru_cache(maxsize=512)
def _profile_cached(kappa: float, n: int, refine: int) -> MomentumProfile:
    params = ModelParams(1.0, kappa)
    om = effective_frequency(params, n)
    L_p = _momentum_cut(params, n)
    p_feat = _momentum_tail_start(params, n)  # below the Gaussian cut, so below L_p
    lattice = _ft_x_nodes(params, n, L_p, refine, min(_scan_steps(n, p_feat, L_p)))
    fw = _lattice_values(lambda x: wavefunction(params, n, x), *lattice)
    zeros = _transform_zeros(n, *lattice[:2], fw, p_feat, L_p)

    # panels: boundaries at 0, the zeros and the feature edge; cubic maps at
    # every zero (and at 0 for odd n) so fractional powers stay spectral
    width = 0.45 * math.sqrt(om) / refine
    # the zeros are positive, increasing and below L_p, so no sort is needed
    # (np.unique would import numpy.ma on its first call: 9-14 ms)
    bulk = np.concatenate([[0.0], zeros[zeros < p_feat], [p_feat]])
    # monotone tail: panels grow geometrically, each one a segment of its own
    tail = np.concatenate([[p_feat], zeros[zeros > p_feat], [L_p]])
    tail_edges = [
        e for a, b in zip(tail[:-1], tail[1:]) for e in _grow_split(a, b, 2.0 * width, _GROW)[1:]
    ]
    bounds = np.concatenate([bulk, tail_edges])
    counts = np.concatenate([np.ceil(np.diff(bulk) / width), np.ones(len(tail_edges))])
    cusps = zeros if n % 2 == 0 else np.append(zeros, 0.0)
    p_nodes, p_w = _panel_grid(bounds[:-1], bounds[1:], counts, cusps)
    g = _SQRT_2_OVER_PI * _ft_component(n, *lattice[:2], fw, (p_nodes,))
    gamma = g * g
    norm = 2.0 * float(p_w @ gamma)
    if abs(norm - 1.0) > _NORM_TOL:
        raise ArithmeticError(
            f"momentum density normalisation off by {norm - 1.0:.2e} "
            f"for omega=1.0, lam={kappa}, n={n}"
        )
    # the cut's guarantee, checked on the computed transform: W_1/2's tail
    # past the last node, |g| there times the decay length sqrt(lam) +
    # Omega / p of the branch-point and Gaussian tails, stays within ten
    # times the design share (it is below the share itself at every tested cut)
    tail_share = abs(g[-1]) * (math.sqrt(kappa) + om / L_p) / float(p_w @ np.abs(g))
    if tail_share > 10.0 * _W_HALF_TAIL:
        raise ArithmeticError(
            f"momentum cut {L_p:.6g} short: W_1/2 tail {tail_share:.2e} of the total "
            f"for omega=1.0, lam={kappa}, n={n}"
        )
    grid = GridSpec(half_width=float(L_p), points=len(p_nodes))
    for arr in (p_nodes, p_w, gamma):
        arr.setflags(write=False)
    return MomentumProfile(grid=grid, p=p_nodes, gamma=gamma, weights=p_w)


def momentum_profile(params: ModelParams, n: int, refine: int = 1) -> MomentumProfile:
    """Half-line momentum profile (p >= 0 nodes; densities are even in p):
    the twin's, cached, with momenta and weights times sqrt(omega) and
    densities over it."""
    prof = _profile_cached(unit_twin(params).lam, n, refine)
    if params.omega == 1.0:
        return prof
    root = math.sqrt(params.omega)
    grid = GridSpec(root * prof.grid.half_width, prof.grid.points)
    return MomentumProfile(grid, root * prof.p, prof.gamma / root, root * prof.weights)


def fourier_transform(params: ModelParams, n: int, grid_x: GridSpec | None, p):
    """(2 pi)^(-1/2) integral e^(-ipx) Psi_n(x) dx by quadrature, in the
    shape of ``p`` (complex for scalar ``p``).

    Exactly real for even n and exactly imaginary for odd n: the kernel
    sums only the parity-allowed part.  With ``grid_x`` None the sum runs
    over the half-line trapezoid nodes that are alias-free up to max |p|
    (the first alias lies a band past it, at any max |p|); an explicit
    :class:`GridSpec` integrates over its full line [-L, L] and warns when
    it underresolves the phase.  A NaN or infinite momentum raises
    ``ValueError``.
    """
    pa, p_max = _momenta(p)
    if grid_x is None:  # the twin's transform at p / sqrt(omega), times omega^(-1/4)
        unit, root = unit_twin(params), math.sqrt(params.omega)
        lattice = _ft_x_nodes(unit, n, p_max / root)
        scale = _SQRT_2_OVER_PI / params.omega**0.25
        return _lattice_transform(n, lambda x: wavefunction(unit, n, x), lattice, pa / root, p, scale)
    L = grid_x.half_width
    if p_max * L / grid_x.points > 0.5:
        warnings.warn(
            "momentum grid underresolves the e^(-ipx) phase: "
            f"p*L/points = {p_max * L / grid_x.points:.2f} > 0.5",
            stacklevel=2,
        )
    lattice = _gl_blocks(-L, L, max(2, grid_x.points // _ORDER))
    return _lattice_transform(n, lambda x: wavefunction(params, n, x), lattice, pa, p, 1.0 / _SQRT_2PI)


def _lattice_transform(n: int, f, lattice, pa: np.ndarray, p, scale: float = _SQRT_2_OVER_PI):
    """The one transform assembly: g = ``scale`` ((2 pi)^(-1/2), doubled on a half line) times
    the kernel sum of ``f`` on ``lattice`` at the :func:`_momenta` ``pa``, and g (even n) or
    -i g (odd n), +0 as the zero part, in the shape of ``p`` (complex for scalar ``p``)."""
    fw = _lattice_values(f, *lattice)
    g = scale * _ft_component(n, *lattice[:2], fw, (pa,))
    out = g + 0j if n % 2 == 0 else -1j * g + 0.0  # -1j * 0.0 has imaginary part -0.0
    return out.reshape(np.shape(p)) if np.ndim(p) else complex(out[0])


def _lattice_values(f, origins, offsets, weights):
    """weights times ``f`` at the nodes X_J + d_b of a :func:`_ft_component` lattice."""
    x = _lattice_nodes(origins, offsets, weights.shape).ravel()
    return weights * np.asarray(f(x)).reshape(weights.shape)


def _momenta(p) -> tuple[np.ndarray, float]:
    """The momenta ``p`` as a flat float array for the kernel, and their
    largest |p| (0 for none); a NaN or infinite momentum raises ``ValueError``."""
    pa = np.asarray(p, dtype=float).ravel()
    bad = pa[~np.isfinite(pa)]
    if len(bad):
        raise ValueError(f"momentum must be finite, got p={bad[0]}")
    return pa, float(np.max(np.abs(pa), initial=0.0))


# --------------------------------------------------------------------------
# numeric moments and Shannon entropy
# --------------------------------------------------------------------------

def _momentum_density(
    params: ModelParams, n: int, space: str, refine: int
) -> tuple[np.ndarray, np.ndarray]:
    """Half-line weights and momentum density (even in p); any ``space``
    but position or momentum raises."""
    if space != "momentum":
        raise ValueError(f"space must be 'position' or 'momentum', got {space!r}")
    prof = momentum_profile(params, n, refine)
    return prof.weights, prof.gamma


def _check_order(alpha: float) -> None:
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")


def position_moments(cells, n: int, refine: int = 1) -> list[float]:
    """W = integral rho_n^alpha dx of the twin (1, kappa) for each
    (kappa, alpha) of ``cells`` (any iterable), in their order, at one
    (n, refine), any finite alpha > 0, the cells laid out and evaluated
    together (:func:`_position_log_density`)."""
    with np.errstate(over="ignore"):  # a W past the double range fails in _normal_moment
        values = {
            i: 2.0 * float(w @ np.exp(alpha * log_rho))
            for i, alpha, _, w, log_rho in _position_log_density(cells, n, refine)
        }
    return [values[i] for i in range(len(values))]


def position_shannons(kappas, n: int, refine: int = 1) -> list[float]:
    """The position Shannon entropy -integral rho_n ln rho_n dx (0 ln 0
    taken as 0) of the twin (1, kappa) for each kappa of ``kappas``, as
    :func:`position_moments`."""
    values = {}
    for i, _, _, w, log_rho in _position_log_density(((kappa, 1.0) for kappa in kappas), n, refine):
        rho = np.exp(log_rho)
        values[i] = -2.0 * float(w @ (rho * np.where(rho > 0.0, log_rho, 0.0)))
    return [values[i] for i in range(len(values))]


def entropic_moment_numeric(
    params: ModelParams, n: int, alpha: float, space: str = "position", refine: int = 1
) -> float:
    """W = integral density^alpha over the grid, either space, any finite
    alpha > 0: the twin's W times e^((1 - alpha) u), u the :func:`log_unit`;
    a W of 0 or inf stays so."""
    unit = unit_twin(params)
    with np.errstate(over="ignore"):
        if space == "position":
            w = position_moments([(unit.lam, alpha)], n, refine)[0]
        else:
            _check_order(alpha)
            weights, gamma = _momentum_density(unit, n, space, refine)
            w = 2.0 * float(weights @ np.power(gamma, alpha))
        factor = float(np.exp((1.0 - alpha) * log_unit(params.omega, space)))
    return w * factor if 0.0 < w < math.inf else w


def shannon_numeric(params: ModelParams, n: int, space: str = "position", refine: int = 1) -> float:
    """Shannon entropy -integral density ln density (0 ln 0 taken as 0):
    the twin's plus the :func:`log_unit`."""
    unit = unit_twin(params)
    if space == "position":
        h = position_shannons([unit.lam], n, refine)[0]
    else:
        w, gamma = _momentum_density(unit, n, space, refine)
        val = np.where(gamma > 0.0, gamma * np.log(np.where(gamma > 0.0, gamma, 1.0)), 0.0)
        h = -2.0 * float(w @ val)
    return h + log_unit(params.omega, space)


def grid_log_moment(params: ModelParams, n: int, alpha: float, space: str, points: int,
                    half_width: float | None) -> float:
    """ln W, W = integral density^alpha in ``space``, on max(2, points // 16) equal Gauss-Legendre
    panels on [-L, L] (not split at the density zeros), L the ``half_width`` or the space's cut;
    a density whose integral there misses 1 by more than ``_NORM_TOL`` raises ``ArithmeticError``."""
    _check_order(alpha)
    if space not in ("position", "momentum"):
        raise ValueError(f"space must be 'position' or 'momentum', got {space!r}")
    L = half_width
    if L is None:
        L = position_half_width(params, n, alpha) if space == "position" else _momentum_cut(params, n)
    elif not 0.0 < 2.0 * L < math.inf:  # the grid spans [-L, L]
        raise ValueError(f"half_width must be positive and finite, and so must 2 half_width, got {L}")
    x, w = _panel_grid([-L], [L], [max(2, points // _ORDER)])
    if space == "position":
        dens = density_position(params, n, x)
    else:
        dens = np.abs(fourier_transform(params, n, None, x)) ** 2
    norm = float(w @ dens)
    if abs(norm - 1.0) > _NORM_TOL:
        raise ArithmeticError(f"{space} density normalisation off by {norm - 1.0:.2e}")
    with np.errstate(over="ignore"):
        return math.log(_normal_moment(float(w @ np.power(dens, alpha)), alpha, params.lam, n))


def _exp_moment(log_w: float, alpha: float, lam: float | None = None, n: int | None = None) -> float:
    """W = e^(ln W) by :func:`_normal_moment`'s rule, ln W past ln(max double) an overflow; without
    ``lam`` and ``n`` (Tsallis) a W below the normal range passes and an overflow names the order."""
    w = math.exp(log_w) if log_w <= _LOG_MAX else math.inf
    return w if lam is None and w < math.inf else _normal_moment(w, alpha, lam, n)


def _normal_moment(w: float, alpha: float, lam: float | None = None, n: int | None = None) -> float:
    """The moment ``w`` if it is a finite normal double; ``ArithmeticError`` if it
    is 0 (no logarithm), subnormal (digits lost) or past the double range."""
    if np.finfo(float).tiny <= w < math.inf:
        return w
    fault = f"overflows to {w:g}" if w > 1 else f"is subnormal ({w:g})" if w > 0 else f"underflows to {w:g}"
    at = "" if lam is None else f" at lam={lam}, n={n}"
    raise ArithmeticError(f"entropic moment of order {alpha} {fault}{at}")
