import math

import numpy as np
import pytest

from darboux3 import (
    ModelParams,
    effective_frequency,
    entropic_moment_numeric,
    entropy_from_log_moment,
    norm_constant,
)
from darboux3.specfun import dawson_vec


@pytest.fixture(scope="session")
def harmonic():
    return ModelParams(omega=1.0, lam=0.0)


@pytest.fixture(scope="session")
def deformed():
    return ModelParams(omega=1.0, lam=0.4)


def gauss_hermite_nodes(half_width, points):
    """Gauss-Hermite rule for integrals over R as nodes and plain weights
    w_i e^(x_i^2), scaled so the outermost node sits at ``half_width``
    (test oracle)."""
    from numpy.polynomial.hermite import hermgauss

    x0, w0 = hermgauss(points)
    s = half_width / float(x0[-1])
    return s * x0, s * np.exp(np.log(w0) + x0 * x0)


def gauss_tail_nodes(a, b, panels=400, order=24):
    """Nodes and weights of a dense composite Gauss-Legendre rule on [a, b]
    (test oracle)."""
    from numpy.polynomial.legendre import leggauss

    x0, w0 = leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half[:, None] * x0).ravel(), (half[:, None] * w0).ravel()


def gauss_tail_quad(f, a, b, panels=400, order=24):
    """Dense composite Gauss-Legendre reference integrator (test oracle);
    ``f`` maps the node array elementwise."""
    x, w = gauss_tail_nodes(a, b, panels, order)
    return float(w @ f(x))


def quadrature_entropy(params, n, alpha, space, kind="renyi"):
    """Rényi or Tsallis entropy from the quadrature moment at every order.

    ``entropy`` takes the closed form at integer position orders; checks
    that compare quadrature against another engine use this instead, so
    they keep comparing two engines.
    """
    log_w = math.log(entropic_moment_numeric(params, n, alpha, space))
    return entropy_from_log_moment(log_w, alpha, kind)


def phi_transform_exact(params, n, ps, dps=60):
    """FT of the approximant phi_n in mpmath at ``dps`` digits (test oracle).

    With u = sqrt(Omega) x, phi_n = sqrt(lam) N Omega^(-1/2) u e^(-u^2/2) H_n(u)
    on x > 0.  u H_n(u) is expanded exactly in integer coefficients, and
    each monomial's half-line transform is a Gamma times a 1F1:

        int_0^inf u^m e^(-u^2/2) cos(P u) du
            = 2^((m-1)/2) Gamma((m+1)/2) 1F1((m+1)/2; 1/2; -P^2/2),
        int_0^inf u^m e^(-u^2/2) sin(P u) du
            = P 2^(m/2) Gamma((m+2)/2) 1F1((m+2)/2; 3/2; -P^2/2),

    with P = p / sqrt(Omega).  Omega and N come from their closed forms in
    mpmath, not from the package.
    """
    import mpmath as mp

    # u H_n(u) = sum c_m u^m with m = n + 1 - 2k, from the explicit sum for H_n
    coeffs = {
        n + 1 - 2 * k: (-1) ** k * 2 ** (n - 2 * k) * math.factorial(n)
        // (math.factorial(k) * math.factorial(n - 2 * k))
        for k in range(n // 2 + 1)
    }
    out = []
    with mp.workdps(dps):
        lam, omega = mp.mpf(params.lam), mp.mpf(params.omega)
        level = n + mp.mpf(1) / 2
        om = omega**2 / (mp.sqrt((lam * level) ** 2 + omega**2) + lam * level)
        n_sq = mp.sqrt(om) / (mp.sqrt(mp.pi) * 2**n * mp.factorial(n) * (1 + level * lam / om))
        amp = mp.sqrt(2 / mp.pi) * mp.sqrt(lam * n_sq) / om
        half = mp.mpf(1) / 2
        for pv in np.atleast_1d(ps):
            big_p = mp.mpf(float(pv)) / mp.sqrt(om)
            z = -big_p * big_p / 2
            total = mp.mpf(0)
            for m, c in coeffs.items():
                if n % 2 == 0:
                    a = (m + 1) * half
                    total += c * 2 ** (a - 1) * mp.gamma(a) * mp.hyp1f1(a, half, z)
                else:
                    a = (m + 2) * half
                    total += c * big_p * 2 ** (a - 1) * mp.gamma(a) * mp.hyp1f1(a, 3 * half, z)
            out.append(complex(amp * total) if n % 2 == 0 else complex(0, -amp * total))
    return np.array(out)


def published_g_series(params, n, ps):
    """FT of phi_n by the paper's general-n g-series, in floating point
    (test oracle for the published formula).

        FT phi_n = sqrt(lam / 2 pi) (N / Omega) e^(-P^2/2) *
                   Par[ sum_k C(n,k) 2^(n-k) H_k(-iP) g_(n,k)(P) ],

    P = p / sqrt(Omega), where Par[.] keeps twice the real part (even n) or
    i times twice the imaginary part (odd n), and g_(n,k) = I_(n-k+1) -
    iP I_(n-k) with half-line moments I_m = int_(iP)^inf u^m e^(-u^2/2) du.
    The moments follow I_m = (iP)^(m-1) e^(P^2/2) + (m-1) I_(m-2) from
    I_0 (a Dawson term) and I_1 (a Gaussian), carried here with the
    e^(P^2/2) factor removed.  The published form omits the 2^(n-k) factor
    of the Hermite translation identity; it is restored here, and with it
    the series agrees with the closed forms for n <= 3.  Each term is a
    rounded Dawson value times a polynomial of degree n + 1 in P, so the
    relative error grows like eps P^(n+2): use it at moderate P only.
    """
    om = effective_frequency(params, n)
    amp = math.sqrt(params.lam / (2.0 * math.pi)) * norm_constant(params, n) / om
    big_ps = np.atleast_1d(np.asarray(ps, dtype=float)) / math.sqrt(om)
    out = []
    for big_p, f in zip(big_ps.tolist(), dawson_vec(big_ps / math.sqrt(2.0)).tolist()):
        ip = 1j * big_p
        moments = [math.sqrt(math.pi / 2.0) * math.exp(-0.5 * big_p**2) - 1j * math.sqrt(2.0) * f,
                   1.0 + 0j]
        for m in range(2, n + 2):
            moments.append(ip ** (m - 1) + (m - 1) * moments[m - 2])
        herms = [1.0 + 0j, -2.0 * ip]  # H_k(-iP)
        for k in range(1, n):
            herms.append(-2.0 * ip * herms[k] - 2.0 * k * herms[k - 1])
        total = sum(
            math.comb(n, k) * 2.0 ** (n - k) * herms[k]
            * (moments[n - k + 1] - ip * moments[n - k])
            for k in range(n + 1)
        )
        out.append(amp * (2.0 * total.real if n % 2 == 0 else 2j * total.imag))
    return np.array(out)


# --------------------------------------------------------------------------
# the per-panel layout the package used before its panels were built as
# arrays, kept as the reference that the array routine must reproduce bit
# for bit
# --------------------------------------------------------------------------

def reference_panel_nodes(panels, order=16):
    """Nodes/weights for panels (a, b, map_end), one panel at a time;
    map_end = -1 applies the cubic endpoint map at a, +1 at b, 0 none."""
    from darboux3.quadrature import _gl_unit

    u, wu = _gl_unit(order)
    xs = []
    ws = []
    for a, b, map_end in panels:
        h = b - a
        if map_end == 0:
            xs.append(a + h * u)
            ws.append(h * wu)
        elif map_end < 0:
            xs.append(a + h * u**3)
            ws.append(3.0 * h * u**2 * wu)
        else:
            xs.append(b - h * u**3)
            ws.append(3.0 * h * u**2 * wu)
    return np.concatenate(xs), np.concatenate(ws)


def reference_split(a, b, width):
    """Equal pieces of [a, b], each at most ``width`` wide."""
    k = max(1, int(math.ceil((b - a) / width)))
    edges = np.linspace(a, b, k + 1)
    return list(zip(edges[:-1], edges[1:]))


def reference_segment_panels(boundaries, split, cusp_points):
    """Subdivide [boundaries] into the panels ``split(a, b)`` returns for
    each segment; panels whose endpoint is a cusp get the cubic map on
    that side."""
    panels = []
    cusps = set(float(c) for c in cusp_points)
    for a, b in zip(boundaries[:-1], boundaries[1:]):
        pieces = split(float(a), float(b))
        for i, (pa, pb) in enumerate(pieces):
            m = 0
            if i == 0 and float(a) in cusps:
                m = -1
            if i == len(pieces) - 1 and float(b) in cusps:
                m = +1 if m == 0 else m  # single-piece segment: map at a wins
            panels.append((pa, pb, m))
    return panels


def reference_position_nodes(params, n, alpha, refine):
    """``quadrature._position_moment_nodes`` on the per-panel layout."""
    from darboux3.quadrature import position_half_width
    from darboux3.specfun import hermite_zeros

    om = effective_frequency(params, n)
    L = position_half_width(params, n, min(alpha, 1.0))
    zeros = hermite_zeros(n) / math.sqrt(om)
    zeros = np.array(sorted(z for z in zeros if 0.0 < z < 0.999 * L))
    bounds = np.unique(np.concatenate([[0.0, L], zeros]))
    k_osc = 2.0 * max(alpha, 1.0) * math.sqrt((2 * n + 1) * om)
    width = min(0.7 / math.sqrt(om), math.pi / (2.0 * k_osc), L / 6.0) / refine
    cusp = not float(alpha).is_integer()
    cusp_pts = np.concatenate([zeros, [0.0]]) if n % 2 else zeros
    panels = reference_segment_panels(
        bounds, lambda a, b: reference_split(a, b, width), cusp_pts if cusp else np.array([])
    )
    return reference_panel_nodes(panels)


def reference_profile_nodes(params, n, refine=1):
    """The p nodes and weights of ``momentum_profile`` on the per-panel
    layout, from the profile's own cut L_p and transform zeros."""
    from darboux3.model import wavefunction
    from darboux3.quadrature import (
        _ft_x_nodes,
        _grow_split,
        _momentum_tail_start,
        _transform_zeros,
        momentum_profile,
    )

    om = effective_frequency(params, n)
    L_p = momentum_profile(params, n, refine).grid.half_width
    x, wx = _ft_x_nodes(params, n, L_p, refine)
    fw = wx * np.asarray(wavefunction(params, n, x))
    p_feat = _momentum_tail_start(params, n)
    zeros = _transform_zeros(n, x, fw, L_p, p_feat)
    width = 0.45 * math.sqrt(om) / refine
    bounds = np.unique(np.concatenate([[0.0, p_feat], zeros[zeros < p_feat]]))
    panels = reference_segment_panels(
        bounds,
        lambda a, b: reference_split(a, b, width),
        zeros if n % 2 == 0 else np.concatenate([zeros, [0.0]]),
    )
    tail_bounds = np.unique(np.concatenate([[p_feat, L_p], zeros[zeros >= p_feat]]))

    def grow(a, b):
        edges = _grow_split(a, b, 2.0 * width, 1.35)
        return list(zip(edges[:-1], edges[1:]))

    panels += reference_segment_panels(tail_bounds, grow, zeros)
    return reference_panel_nodes(panels)


def reference_expansion(n, alpha, j_max):
    """c_0..c_(j_max) of ``position_entropy.expansion_coefficients`` by
    ``Fraction`` arithmetic at every step (test oracle)."""
    from fractions import Fraction

    from darboux3.position_entropy import _poch_frac

    nu = n & 1
    m_cap = (n - nu) // 2
    conv_len = 2 * alpha * m_cap + 1
    half = Fraction(1, 2)
    v = [
        _poch_frac(Fraction(-m_cap), t)
        / (_poch_frac(nu + half, t) * math.factorial(t) * Fraction(alpha) ** t)
        for t in range(m_cap + 1)
    ]
    conv = [Fraction(1)]
    for _ in range(2 * alpha):
        out = [Fraction(0)] * (len(conv) + m_cap)
        for i, ci in enumerate(conv):
            if ci:
                for t, vt in enumerate(v):
                    out[i + t] += ci * vt
        conv = out
    base = alpha * nu + half
    r_max = (conv_len - 1) + j_max
    poch_base = [Fraction(1)] * (r_max + 1)
    for r in range(1, r_max + 1):
        poch_base[r] = poch_base[r - 1] * (base + (r - 1))
    big_t = [
        sum((conv[J] * poch_base[J + c] for J in range(conv_len)), Fraction(0))
        for c in range(j_max + 1)
    ]
    top = Fraction(n + nu - 1, 2)
    binom = Fraction(1)
    for i in range(m_cap):
        binom *= top - i
    binom /= math.factorial(m_cap)
    pref = _poch_frac(half, alpha * nu) * binom ** (2 * alpha)
    return tuple(
        pref * sum(
            (_poch_frac(Fraction(-j), cc) / (_poch_frac(half, cc) * math.factorial(cc)) * big_t[cc]
             for cc in range(j + 1)),
            Fraction(0),
        )
        for j in range(j_max + 1)
    )


def reference_moment_polynomial(n, alpha):
    """P_0..P_alpha of ``position_entropy._moment_polynomial`` from the c_j of
    ``reference_expansion``: P_k = pref C(alpha, k) (1/2)_k
    sum_j (-1)^j C(k, j) c_j, pref = A / (alpha^(alpha nu) (2^n n!)^alpha)
    (test oracle)."""
    from fractions import Fraction

    from darboux3.position_entropy import _poch_frac

    nu = n & 1
    big_a = 2 ** (2 * alpha * n) * math.factorial((n - nu) // 2) ** (2 * alpha)
    pref = Fraction(big_a, alpha ** (alpha * nu) * (2**n * math.factorial(n)) ** alpha)
    c = reference_expansion(n, alpha, alpha)
    return tuple(
        pref
        * math.comb(alpha, k)
        * _poch_frac(Fraction(1, 2), k)
        * sum(((-1) ** j * math.comb(k, j) * c[j] for j in range(k + 1)), Fraction(0))
        for k in range(alpha + 1)
    )
