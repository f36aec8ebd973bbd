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


def gauss_tail_quad(f, a, b, panels=400, order=24):
    """Dense composite Gauss-Legendre reference integrator (test oracle)."""
    from numpy.polynomial.legendre import leggauss

    x0, w0 = leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        total += half * float(w0 @ f(mid + half * x0))
    return total


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
