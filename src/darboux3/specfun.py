"""Self-contained special-function kernel.

Hermite polynomials (plain and sign/log-magnitude scaled) and their zeros,
Dawson's F function and the package's one sign-change bisection.  Everything here is deterministic, pure and free of external
dependencies beyond numpy, so the rest of the package can treat these as
exact primitives.  Exact rational work (the entropic-moment polynomial and
its Pochhammer symbols) lives with its one user in ``position_entropy``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss

__all__ = [
    "hermite",
    "hermite_sign_logabs",
    "hermite_zeros",
    "dawson_vec",
    "bisect_sign_change",
]


# --------------------------------------------------------------------------
# Hermite polynomials (physicists' convention)
# --------------------------------------------------------------------------

def hermite(n: int, x):
    """Evaluate the physicists' Hermite polynomial H_n(x).

    Uses the three-term recurrence H_{k+1} = 2 x H_k - 2 k H_{k-1}.
    Accepts scalars or arrays; overflow for very large ``n`` returns inf
    (callers that need large orders use :func:`hermite_sign_logabs`).
    """
    if n < 0:
        raise ValueError("Hermite order must be non-negative")
    xa = np.asarray(x, dtype=float)
    h_prev = np.ones_like(xa)
    if n == 0:
        return float(h_prev) if xa.ndim == 0 else h_prev
    h = 2.0 * xa
    for k in range(1, n):
        h, h_prev = 2.0 * xa * h - 2.0 * k * h_prev, h
    return float(h) if xa.ndim == 0 else h


def hermite_sign_logabs(n: int, x) -> tuple[np.ndarray, np.ndarray]:
    """Sign and log|H_n(x)| elementwise, recurrence with per-step rescaling.

    Stable for orders far beyond the overflow point of :func:`hermite`.
    Returns ``(sign, log_abs)`` with ``log_abs = -inf`` at exact zeros;
    a NaN or infinite x raises ``ValueError``.
    """
    if n < 0:
        raise ValueError("Hermite order must be non-negative")
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.isfinite(xa).all():
        raise ValueError(f"non-finite Hermite argument at x={xa[~np.isfinite(xa)][0]}")
    h_prev = np.ones_like(xa)
    log_scale = np.zeros_like(xa)
    if n == 0:
        h = h_prev
    else:
        two_x = 2.0 * xa
        h = two_x
        for k in range(1, n):
            h, h_prev = two_x * h - 2.0 * k * h_prev, h
            # |h_prev| <= 1e120 after the previous step, so only h can be big
            big = np.abs(h) > 1e120
            if big.any():
                scale = np.where(big, np.maximum(np.abs(h), np.abs(h_prev)), 1.0)
                h = h / scale
                h_prev = h_prev / scale
                log_scale = log_scale + np.where(big, np.log(scale), 0.0)
    sign = np.sign(h).astype(int)
    with np.errstate(divide="ignore"):
        log_abs = np.where(h != 0.0, np.log(np.abs(np.where(h != 0.0, h, 1.0))), -np.inf)
    return sign, log_abs + log_scale


@lru_cache(maxsize=64)
def hermite_zeros(n: int) -> np.ndarray:
    """Zeros of H_n in increasing order (empty for n = 0); cached, read-only."""
    z = hermgauss(n)[0] if n else np.array([])
    z.setflags(write=False)
    return z


# --------------------------------------------------------------------------
# Dawson F function
# --------------------------------------------------------------------------

# Sampling step for Rybicki's exponentially convergent expansion; the
# truncation error scales like exp(-(pi / (2 h))^2) ~ 7e-18 for h = 0.25.
_DAWSON_H = 0.25
_DAWSON_CUT = 7.0
# Odd offsets j of the sampled sum around the even sample 2m nearest to
# y / h: every term left out has |y - (2m + j) h| >= 8, so it is below e^-64.
_DAWSON_OFFSETS = np.arange(-31, 32, 2)


def dawson_vec(x):
    """Dawson's integral F(x) = e^(-x^2) * integral_0^x e^(t^2) dt, elementwise.

    Odd in x by construction; absolute error below 1e-12 everywhere.  Below
    |x| = 7 it is Rybicki's sampled sum (1/sqrt(pi)) sum_(k odd)
    e^(-(y - k h)^2) / k, y = |x|, over a fixed window of k around y / h,
    summed in ascending k; above, the asymptotic series
    (1/2y) sum_k (2k-1)!! / (2 y^2)^k.  Returns a float for 0-d input and
    an array otherwise.
    """
    xa = np.asarray(x, dtype=float)
    flat = xa.ravel()
    y = np.abs(flat)
    out = np.where(np.isnan(y), np.nan, 0.0)

    near = np.flatnonzero((y > 0.0) & (y <= _DAWSON_CUT))
    if near.size:
        yn = y[near]
        m = 2.0 * np.round(yn / (2.0 * _DAWSON_H)) + _DAWSON_OFFSETS[:, None]
        d = yn - m * _DAWSON_H
        out[near] = np.sum(np.exp(-d * d) / m, axis=0) / math.sqrt(math.pi)

    far = np.flatnonzero(y > _DAWSON_CUT)
    if far.size:
        with np.errstate(over="ignore"):  # y^2 = inf gives the right limit 0
            inv = 1.0 / (2.0 * y[far] ** 2)
        term = np.ones_like(inv)
        total = np.ones_like(inv)
        live = np.ones(inv.shape, dtype=bool)
        for k in range(1, 60):
            term = term * (2 * k - 1) * inv
            total = total + np.where(live, term, 0.0)
            live &= term >= 1e-18 * total
            if not live.any():
                break
        out[far] = total / (2.0 * y[far])

    out = np.copysign(out, flat).reshape(xa.shape)
    return float(out) if xa.ndim == 0 else out


# --------------------------------------------------------------------------
# root finding
# --------------------------------------------------------------------------

def bisect_sign_change(f, a: float, b: float, fa: float, xtol: float = 0.0) -> float:
    """Root of ``f`` in [a, b], where f(a) = ``fa`` and f(b) differ in sign.

    Halves the bracket until ``f`` is exactly zero at the midpoint or the
    bracket is narrower than ``xtol`` or than rounding (1e-15 relative).
    """
    for _ in range(200):
        m = 0.5 * (a + b)
        if b - a < max(xtol, 1e-15 * max(1.0, abs(m))):
            return m
        fm = f(m)
        if fm == 0.0:
            return m
        if (fa < 0.0) != (fm < 0.0):
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)
