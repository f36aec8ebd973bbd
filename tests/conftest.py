import math

import numpy as np
import pytest

from darboux3 import ModelParams, entropic_moment_numeric, entropy_from_log_moment


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
