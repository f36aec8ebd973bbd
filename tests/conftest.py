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
    x, w = np.polynomial.legendre.leggauss(order)
    u, wu = (x + 1.0) / 2.0, w / 2.0
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


def reference_split(a, b, width, pieces=1):
    """Equal pieces of [a, b], each at most ``width`` wide, and at least
    ``pieces`` of them."""
    k = max(pieces, int(math.ceil((b - a) / width)))
    edges = np.linspace(a, b, k + 1)
    return list(zip(edges[:-1], edges[1:]))


def reference_segment_panels(starts, ends, split, cusp_points):
    """Subdivide the segments [starts[s], ends[s]] into the panels
    ``split(a, b)`` returns for each; panels whose endpoint is a cusp get
    the cubic map on that side (a panel maps one end only, so none may
    touch two cusps)."""
    panels = []
    cusps = set(float(c) for c in cusp_points)
    for a, b in zip(starts, ends):
        pieces = split(float(a), float(b))
        for i, (pa, pb) in enumerate(pieces):
            m = 0
            if i == 0 and float(a) in cusps:
                m = -1
            if i == len(pieces) - 1 and float(b) in cusps:
                assert m == 0, f"panel [{pa}, {pb}] touches a cusp at both ends"
                m = +1
            panels.append((pa, pb, m))
    return panels


def reference_position_tail(a, b, width, y_g, graded=True):
    """Edges of the position tail [a, b], a the last Hermite zero: equal
    pieces at most ``width`` wide, as ``np.linspace`` places them, through
    ``y_g``, then pieces growing by 1.35 (all equal unless ``graded``)."""
    from darboux3.quadrature import _grow_split

    k = int(math.ceil((b - a) / width))
    edges = np.linspace(a, b, k + 1)
    if not graded:
        return edges
    j = math.floor((y_g - a) / ((b - a) / k))
    return np.concatenate([edges[: j + 1], _grow_split(float(edges[j]), b, (b - a) / k, 1.35)[1:]])


def _position_layout(params, n, alpha, refine, graded=True):
    """(bulk bounds [0, zeros..., z_last], tail edges [z_last, ..., L], the
    bulk panel width, the cusps) of the position moment layout in x."""
    from darboux3.quadrature import position_half_width
    from darboux3.specfun import hermite_zeros

    om = effective_frequency(params, n)
    L = position_half_width(params, n, alpha)
    zeros = hermite_zeros(n) / math.sqrt(om)  # increasing
    zeros = zeros[(zeros > 0.0) & (zeros < 0.999 * L)]
    head = np.concatenate([[0.0], zeros])
    k_osc = 2.0 * max(alpha, 1.0) * math.sqrt((2 * n + 1) * om)
    width = min(0.7 / math.sqrt(om), math.pi / (2.0 * k_osc), L / 6.0) / refine
    y_g = (math.sqrt(2 * n + 1) + 1.0) / math.sqrt(om)
    tail = reference_position_tail(float(head[-1]), L, width, y_g, graded)
    cusps = () if float(alpha).is_integer() else np.append(zeros, 0.0) if n % 2 else zeros
    return head, tail, width, cusps


def reference_position_nodes(params, n, alpha, refine):
    """:func:`reference_position_moment_nodes` on the per-panel layout."""
    head, tail, width, cusps = _position_layout(params, n, alpha, refine)
    L = tail[-1]

    def split(a, b):  # the tail [z_last, L] on its own edges
        return list(zip(tail[:-1], tail[1:])) if b == L else reference_split(a, b, width)

    bounds = np.append(head, L)
    panels = reference_segment_panels(bounds[:-1], bounds[1:], split, cusps)
    return reference_panel_nodes(panels)


def reference_position_moment_nodes(params, n, alpha, refine, graded=True):
    """The position moment nodes and weights on [0, L] in x, as the library
    lays them out in y = sqrt(Omega) x (array-built, bit-equal to
    :func:`reference_position_nodes`): equal panels between the Hermite
    zeros, and the tail of :func:`reference_position_tail` (with
    ``graded`` False, the equal tail the layout had before)."""
    from darboux3.quadrature import _panel_grid

    head, tail, width, cusps = _position_layout(params, n, alpha, refine, graded)
    counts = np.concatenate([np.ceil(np.diff(head) / width), np.ones(len(tail) - 1)])
    bounds = np.concatenate([head, tail[1:]])
    return _panel_grid(bounds[:-1], bounds[1:], counts, cusps)


def reference_position_moment(params, n, alpha, refine=1, graded=True):
    """W_alpha by the x-grid path: ``density_position`` on
    :func:`reference_position_moment_nodes` (test oracle)."""
    from darboux3 import density_position

    x, w = reference_position_moment_nodes(params, n, alpha, refine, graded)
    return 2.0 * float(w @ np.power(density_position(params, n, x), alpha))


def reference_position_shannon(params, n, refine=1):
    """Position Shannon entropy by the x-grid path (test oracle)."""
    from darboux3 import density_position

    x, w = reference_position_moment_nodes(params, n, 1.0, refine)
    rho = np.asarray(density_position(params, n, x))
    val = np.where(rho > 0.0, rho * np.log(np.where(rho > 0.0, rho, 1.0)), 0.0)
    return -2.0 * float(w @ val)


def reference_hermite_pair_scaled(n, x):
    """(H_(n-1), H_n) 2^(-e) and e with the overflow check on every step,
    as ``specfun.hermite_pair_scaled`` ran before its majorant gate (test
    oracle; the same arithmetic, so equal bit for bit)."""
    from darboux3.specfun import _SCALE_BITS

    xa = np.atleast_1d(np.asarray(x, dtype=float))
    x_max = float(np.max(np.abs(xa), initial=1.0))
    lowest = math.ldexp(1.0, _SCALE_BITS - math.frexp(x_max)[1])
    e = np.zeros(xa.shape, dtype=int)
    h_prev, h = np.zeros_like(xa), np.ones_like(xa)
    t = np.empty_like(xa)
    for k in range(n):
        if np.abs(h, out=t).max(initial=0.0) > lowest:
            cap = _SCALE_BITS - np.frexp(np.maximum(np.abs(xa), 1.0))[1]
            top = np.frexp(np.maximum(t, np.abs(h_prev)))[1]
            shift = np.where(t > np.ldexp(1.0, cap), top - cap + _SCALE_BITS // 2, 0)
            h, h_prev = np.ldexp(h, -shift), np.ldexp(h_prev, -shift)
            e += shift
        np.multiply(xa, h, out=t)
        t *= 2.0
        h_prev *= 2.0 * k
        np.subtract(t, h_prev, out=h_prev)
        h, h_prev = h_prev, h
    return h_prev, h, e


def profile_zeros(params, n, refine=1):
    """A momentum profile's cut L_p, feature edge p_feat and the transform
    zeros it lays its panels out at, from its own lattice."""
    from darboux3.model import wavefunction
    from darboux3.quadrature import (
        _ft_x_nodes,
        _lattice_values,
        _momentum_tail_start,
        _transform_zeros,
        momentum_profile,
    )

    L_p = momentum_profile(params, n, refine).grid.half_width
    origins, offsets, wx = _ft_x_nodes(params, n, L_p, refine)
    fw = _lattice_values(lambda x: wavefunction(params, n, x), origins, offsets, wx)
    p_feat = _momentum_tail_start(params, n)
    return L_p, p_feat, _transform_zeros(n, origins, offsets, fw, p_feat, L_p)


def reference_profile_nodes(params, n, refine=1):
    """The p nodes and weights of ``momentum_profile`` on the per-panel
    layout, from the profile's own cut L_p and transform zeros."""
    from darboux3.quadrature import _grow_split

    om = effective_frequency(params, n)
    L_p, p_feat, zeros = profile_zeros(params, n, refine)
    width = 0.45 * math.sqrt(om) / refine
    cusps = zeros if n % 2 == 0 else np.concatenate([zeros, [0.0]])

    def pieces(a, b):  # a segment between two cusps takes two panels at least
        return 2 if a in cusps and b in cusps else 1

    bounds = np.unique(np.concatenate([[0.0, p_feat], zeros[zeros < p_feat]]))
    panels = reference_segment_panels(
        bounds[:-1], bounds[1:], lambda a, b: reference_split(a, b, width, pieces(a, b)), cusps
    )
    tail_bounds = np.unique(np.concatenate([[p_feat, L_p], zeros[zeros >= p_feat]]))

    def grow(a, b):
        edges = _grow_split(a, b, 2.0 * width, 1.35)
        if len(edges) < pieces(a, b) + 1:
            edges = np.linspace(a, b, 3)
        return list(zip(edges[:-1], edges[1:]))

    panels += reference_segment_panels(tail_bounds[:-1], tail_bounds[1:], grow, cusps)
    return reference_panel_nodes(panels)


def reference_scan_steps(params, n, L_p):
    """The steps of a momentum profile's zero scan: 48 (n + 2) points on
    the head [0, p_feat] and 600 on the tail [p_feat, L_p]."""
    from darboux3.quadrature import _momentum_tail_start

    p_feat = _momentum_tail_start(params, n)
    return p_feat / (48 * (n + 2) - 1), (L_p - p_feat) / 599


def reference_scan_step(params, n, L_p):
    """The finer of the two :func:`reference_scan_steps`: the step of a
    single-FFT scan over [0, L_p], whose length decides the scan's path."""
    return min(reference_scan_steps(params, n, L_p))


def scan_size(params, n, refine=1):
    """(padded node count N, single-FFT length M, FFT length and top
    momentum index of the scan that runs, head band momenta, kernel phases
    per momentum) of a momentum profile's zero scan, from the layout rules
    of ``_ft_x_nodes``, the profile's scan steps and ``_fft_scan``, without
    building the lattice.

    The N nodes form J origins and B offsets, B = ceil(sqrt N), and each
    side of length K is listed by two levels of F = ceil(sqrt K) and
    ceil(K / F) entries, so the kernel takes the cos and sin of that many
    phases per momentum over both sides.

    M is the length one FFT at the finer step would take.  That FFT is the
    scan below M = 2^16 or while M log2 M < 28 P (B + J), with P = 48 (n + 2)
    head momenta and a lattice of B offsets and J origins; past that the
    head band takes the P kernel momenta and the tail an FFT at the tail
    step, at least N long."""
    from darboux3.quadrature import _gaussian_cut, _momentum_cut, position_half_width

    om = effective_frequency(params, n)
    L_p = _momentum_cut(params, n)
    L = position_half_width(params, n, 1.0, tail_log=88.0)
    band = max(40.0 * math.sqrt(params.lam), _gaussian_cut(params, n, om))
    h = 2.0 * math.pi / ((band + L_p) * refine)
    count = int(math.ceil(L / h)) + 1
    b = math.isqrt(count - 1) + 1
    nodes = -(-count // b) * b
    head_step, tail_step = reference_scan_steps(params, n, L_p)

    def length(step, at_least=1):
        return 1 << (max(int(math.ceil(2.0 * math.pi / (h * step))), at_least) - 1).bit_length()

    m, head = length(min(head_step, tail_step)), 48 * (n + 2)
    if m < 2**16 or m * math.log2(m) < 28.0 * head * (b + nodes // b):
        run, head = m, 0
    else:
        run = length(tail_step, nodes)

    def levels(count):
        fine = math.isqrt(count - 1) + 1
        return fine + -(-count // fine)

    phases = levels(nodes // b) + levels(b)
    return nodes, m, run, int(math.ceil(L_p / (2.0 * math.pi / (run * h)))), head, phases


def reference_fft_scan(n, fw, h, p_max, step):
    """The zero scan as one FFT over [0, p_max], as the package ran every
    profile's scan before it had two bands (test oracle): the kernel sums
    over x_j = j h at p_k = k dp, dp = 2 pi / (M h) with M the least power
    of two for which dp <= ``step``, from one rfft of ``fw`` padded to M."""
    m = 1 << (int(math.ceil(2.0 * math.pi / (h * step))) - 1).bit_length()
    dp = 2.0 * math.pi / (m * h)
    k = np.arange(int(math.ceil(p_max / dp)) + 1)
    f = np.fft.rfft(fw, m)
    r = np.minimum(k, m - k)
    vals = f.real[r] if n % 2 == 0 else np.where(k == r, -1.0, 1.0) * f.imag[r]
    return dp * k, vals


# --------------------------------------------------------------------------
# the transform kernel's references: the direct (momenta x nodes) sum the
# package used before its angle-addition kernel, and the same sum in long
# double
# --------------------------------------------------------------------------

def lattice_nodes(origins, offsets, shape, dtype=float):
    """The nodes X_J + d_b of a kernel lattice with weights of ``shape``
    (J, B), flattened.  Each side is a tuple of levels: X_J is the J-th
    entry of the levels' flattened outer sum, and so is d_b.  Every sum is
    taken in ``dtype`` (long double rounds it at 2^-64 relative, and keeps
    it exact where the terms are multiples of one power of two and their
    sum fits 64 bits)."""

    return (lattice_side(origins, shape[0], dtype)[:, None] + lattice_side(offsets, shape[1], dtype)).ravel()


def lattice_side(levels, count, dtype=float):
    """The first ``count`` entries of the levels' flattened outer sum, in ``dtype``."""
    x = np.zeros(1, dtype=dtype)
    for level in levels:
        x = (x[:, None] + np.asarray(level, dtype=dtype)).ravel()
    assert count <= len(x)
    return x[:count]


def reference_ft_sum(n, x, fw, p, dtype=float):
    """sum_j trig(p x_j) fw_j, cos for even n and sin for odd n, as one
    (momenta x nodes) phase matrix per chunk of 64 momenta, in ``dtype``
    (test oracle; ``np.longdouble`` rounds the phases p x_j 2^11 times more
    finely than double)."""
    x, fw = np.asarray(x, dtype=dtype), np.asarray(fw, dtype=dtype).ravel()
    p = np.asarray(p, dtype=dtype)
    trig = np.cos if n % 2 == 0 else np.sin
    out = np.empty(len(p), dtype=dtype)
    for i in range(0, len(p), 64):
        out[i : i + 64] = trig(np.multiply.outer(p[i : i + 64], x)) @ fw
    return out


def _long_double_split(a):
    """a = hi + lo in long double, each with at most 32 significant bits
    (Dekker's split for a 64-bit significand)."""
    c = np.longdouble(2**32 + 1) * a
    hi = c - (c - a)
    return hi, a - hi


def reference_ft_sum_dd(n, origins, offsets, fw, p):
    """:func:`reference_ft_sum` with phases in double-double (test oracle).
    Each node X_J + d_b is the long-double two-sum x + x_lo of its sides'
    sums, exact where those are (one level of doubles, or entries on one
    grid as in ``lattice_nodes``).  Each p x is Dekker's exact two-product
    h + e in long double, p and x split in halves of 32 bits, so the phase
    is h + c, c = e + p x_lo, |c| <= 2^-63 |p x|, and trig(h + c) is taken
    as trig(h) -+ trig'(h) c: long-double cos and sin reduce h exactly, and
    the c^2 / 2 left out is below 1e-28 at |p x| < 1e5."""
    ld = np.longdouble
    shape = np.shape(fw)
    X, d = lattice_side(origins, shape[0], ld)[:, None], lattice_side(offsets, shape[1], ld)
    x = X + d
    b = x - X
    x_lo = ((X - (x - b)) + (d - b)).ravel()  # Knuth's two-sum: X + d = x + x_lo
    x = x.ravel()
    xh, xl = _long_double_split(x)
    fw, p = np.asarray(fw, dtype=ld).ravel(), np.asarray(p, dtype=ld)
    trig, slope = (np.cos, lambda t: -np.sin(t)) if n % 2 == 0 else (np.sin, np.cos)
    out = np.empty(len(p), dtype=ld)
    for i in range(0, len(p), 64):
        q = p[i : i + 64, None]
        qh, ql = _long_double_split(q)
        h = q * x
        c = (((qh * xh - h) + qh * xl + ql * xh) + ql * xl) + q * x_lo
        out[i : i + 64] = (trig(h) + slope(h) * c) @ fw
    return out


def reference_hermite_power(n, alpha):
    """q_0..q_(alpha n) of ``position_entropy._hermite_power``: the integer
    Hermite recurrence, then 2 alpha schoolbook convolutions (test oracle)."""
    # coefficients of y^0..y^k of H_k from H_(k+1) = 2y H_k - 2k H_(k-1)
    h_prev, h = [], [1]
    for k in range(n):
        h, h_prev = [2 * a - 2 * k * b for a, b in zip([0] + h, h_prev + [0, 0])], h
    nu = n & 1
    h = h[nu::2]  # H_n = y^nu sum_i h_i y^(2i)
    power = [1]
    for _ in range(2 * alpha):
        out = [0] * (len(power) + len(h) - 1)
        for i, p_i in enumerate(power):
            for t, h_t in enumerate(h):
                out[i + t] += p_i * h_t
        power = out
    return (0,) * (alpha * nu) + tuple(power)


def reference_log_entropic_moment(params, n, alpha, poly):
    """``position_entropy.log_entropic_moment`` with the moment polynomial
    ``poly`` (P_0..P_alpha as ``Fraction``s) summed by ``Fraction`` Horner
    at r = Fraction(lam / (alpha Omega)) (test oracle)."""
    from fractions import Fraction

    from darboux3.position_entropy import _log_of_fraction

    om = effective_frequency(params, n)
    r = Fraction(params.lam / (alpha * om))
    total = Fraction(0)
    for p_k in reversed(poly):
        total = total * r + p_k
    return (
        0.5 * math.log(math.pi / (alpha * om))
        + 0.5 * alpha * math.log(om / math.pi)
        - alpha * math.log1p((n + 0.5) * params.lam / om)
        + _log_of_fraction(total)
    )


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


# --------------------------------------------------------------------------
# the command line's reference parser: the tree of fourteen subparsers the
# CLI built on every call before it built one command's parser alone
# --------------------------------------------------------------------------

def reference_build_parser():
    """The whole subparser tree, every command with its flags (test oracle;
    ``threshold`` still takes the ``--lambda`` it never read)."""
    from darboux3.cli import _Parser

    def common_flags(sp, alpha=False, space=False, grid=False):
        sp.add_argument("--omega", type=float, default=1.0)
        sp.add_argument("--lambda", dest="lam", type=str, default="0")
        sp.add_argument("--n", type=str, default="0")
        if alpha:
            sp.add_argument("--alpha", type=str, default="2")
        if space:
            sp.add_argument("--space", choices=("position", "momentum"), default="position")
        if grid:
            sp.add_argument("--grid-points", type=int, default=None)
            sp.add_argument("--half-width", type=float, default=None)
        sp.add_argument("--out", type=str, default=None)

    ap = _Parser(prog="darboux3")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("energy", "omega", "disequilibrium", "weight-f"):
        common_flags(sub.add_parser(name))
    for name in ("renyi", "tsallis", "moment"):
        common_flags(sub.add_parser(name), alpha=True, space=True, grid=True)
    common_flags(sub.add_parser("shannon"), space=True)
    for name in ("xi-renyi", "xi-tsallis"):
        common_flags(sub.add_parser(name), alpha=True)
    for name in ("threshold", "critical-points"):
        common_flags(sub.add_parser(name))
    sp = sub.add_parser("profile")
    sp.add_argument("kind", choices=("density-position", "density-momentum", "approx-momentum"))
    common_flags(sp, grid=True)
    sp = sub.add_parser("table")
    sp.add_argument("table", type=str)
    sp.add_argument("--tolerance", type=float, default=None)
    sp.add_argument("--out", type=str, default=None)
    return ap


def reference_parse_grid(text, kind=float):
    """The grid parser that built every value list at once, before its
    flag checks and the grid-size check ran (test oracle; usage errors
    raise ``ValueError`` with the CLI's message)."""
    from darboux3.cli import MAX_RANGE_VALUES

    if ":" in text:
        start, stop, step = (float(t) for t in text.split(":"))
        if not (0 < step < math.inf and start <= stop):
            raise ValueError(f"bad range {text!r}")
        steps = (stop - start) / step
        if not steps < MAX_RANGE_VALUES:
            raise ValueError(f"range {text!r} holds more than {MAX_RANGE_VALUES} values")
        vals = [round(start + k * step, 12) for k in range(int(round(steps)) + 1)]
        vals = [v for v in vals if v <= stop + 1e-12]
    else:
        vals = [float(t) for t in text.split(",")]
    if kind is int and not all(v.is_integer() for v in vals):
        raise ValueError(f"expected integers, got {text!r}")
    return [kind(v) for v in vals]


# --------------------------------------------------------------------------
# root finding: the scalar bisection the package ran on a single bracket
# --------------------------------------------------------------------------

def reference_bisect(f, a, b, fa):
    """Root of ``f`` in the single bracket [a, b], f(a) = ``fa``, halved on
    floats until ``f`` is exactly zero at the midpoint or the bracket is
    narrower than rounding (1e-15 relative) (test oracle)."""
    for _ in range(200):
        m = 0.5 * (a + b)
        if b - a < 1e-15 * max(1.0, abs(m)):
            return m
        fm = f(m)
        if fm == 0.0:
            return m
        if (fa < 0.0) != (fm < 0.0):
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def extremum_roots(params, n):
    """The roots x > 0 of the extremum function E among the numeric critical
    points (every positive one that is not a density zero), and the rounding
    width of each, its bound on |E| over |E'|: no float evaluation of E
    places a root closer than that.  The width is above 1e-13 x only next to
    the splitting of the central maximum, where lam - (2n + 1) Omega cancels."""
    from darboux3 import density_critical_points, strong_nonlinear
    from darboux3.specfun import hermite_zeros

    y = hermite_zeros(n)
    zeros = set((y[y > 0.0] / math.sqrt(effective_frequency(params, n))).tolist())
    x = np.array([c.x for c in density_critical_points(params, n, numeric=True)
                  if c.x > 0.0 and c.x not in zeros])
    _, slope, bound = strong_nonlinear._extremum_function(params, n, x, newton=True)
    return x, bound / np.abs(slope)


def dense_scan_brackets(params, n):
    """Brackets (a, b, kind) of the roots x > 0 of the extremum function E
    from the scan the package ran before its grid was sized by the Hermite
    zeros: 400 (n + 2) equal steps out to (sqrt(2n + 1) + 4) / sqrt(Omega),
    the first at half a step (test oracle).  The kind comes from the sign of
    rho' = N^2 e^(-Omega x^2) H_n E at both ends, H_n from the plain
    recurrence: "maximum" for + to -, "minimum" for - to +, else "mixed"."""
    from darboux3 import strong_nonlinear
    from darboux3.specfun import hermite

    om = effective_frequency(params, n)
    reach = (math.sqrt(2.0 * n + 1.0) + 4.0) / math.sqrt(om)
    m_pts = 400 * (n + 2)
    grid = np.linspace(0.5 * reach / m_pts, reach, m_pts)
    vals = strong_nonlinear._extremum_function(params, n, grid)
    i = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0.0)
    slope = np.sign(vals) * np.sign(hermite(n, math.sqrt(om) * grid))
    kinds = np.select(
        [(slope[i] > 0) & (slope[i + 1] < 0), (slope[i] < 0) & (slope[i + 1] > 0)],
        ["maximum", "minimum"], "mixed",
    )
    return list(zip(grid[i].tolist(), grid[i + 1].tolist(), kinds.tolist()))


def batch_tolerances(omega, cells, n):
    """For each (lam, alpha) of ``cells``, the relative distance the position
    batch contract allows between the W (or the Shannon entropy at alpha = 1)
    that one call over all ``cells`` at ``n`` gives it and the one a call of
    its own gives.  A layout class, (alpha integer, max(alpha, 1)), reads one
    half line out to its largest cut sqrt(Omega) L, so a cell whose cut that
    is, as every class of one cell, is exact (0).  The others integrate past
    their cut: 1e-13, but for cells README's Known limits and ROADMAP item 1
    mark as under-resolved at refine 1, position Shannon (5e-9) and orders
    below 1 at n <= 1 and lam / omega >= 1 (5e-7)."""
    from darboux3.quadrature import position_half_width

    keys, cuts = [], []
    for lam, alpha in cells:
        params = ModelParams(omega, lam)
        keys.append((float(alpha).is_integer(), max(alpha, 1.0)))
        cuts.append(math.sqrt(effective_frequency(params, n)) * position_half_width(params, n, alpha))
    longest = {}
    for key, cut in zip(keys, cuts):
        longest[key] = max(longest.get(key, 0.0), cut)
    return [
        0.0 if cut == longest[key]
        else 5e-9 if alpha == 1.0
        else 5e-7 if n <= 1 and alpha < 1.0 and lam >= omega
        else 1e-13
        for (lam, alpha), key, cut in zip(cells, keys, cuts)
    ]


def assert_batch_contract(got, want, tolerances, spread=None):
    """Each of ``got`` equals its ``want`` where its tolerance is 0, and lies
    within the tolerance of it elsewhere: relative, or with a ``spread``
    absolute and ``spread`` times as wide (a quantity that moves by at most
    ``spread`` per relative move of W, such as ln W (1) or an entropy).
    ``spread`` is one number or one per value (None: relative)."""
    spreads = spread if isinstance(spread, list) else [spread] * len(got)
    assert len(got) == len(want) == len(tolerances) == len(spreads)
    for g, w, tol, spread in zip(got, want, tolerances, spreads):
        if tol == 0.0:
            assert g == w
        elif spread is None:
            assert g == pytest.approx(w, rel=tol, abs=0.0)
        else:
            assert g == pytest.approx(w, rel=0.0, abs=spread * tol)
