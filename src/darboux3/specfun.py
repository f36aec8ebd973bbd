"""Self-contained special-function kernel.

Hermite polynomials (plain and sign/log-magnitude scaled) and their zeros,
log-gamma, Pochhammer symbols, the Dawson F function and the package's one
sign-change bisection.  Everything here is deterministic, pure and free of
external dependencies beyond numpy, so the rest of the package can treat
these as exact primitives.

Combinatorially large factors (2^(2*alpha*n), Gamma powers, factorials,
Pochhammer products) are carried across module boundaries as
:class:`ScaledValue` sign/log-magnitude pairs; conversion back to a plain
float happens only when same-scale terms are finally summed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np
from numpy.polynomial.hermite import hermgauss

__all__ = [
    "ScaledValue",
    "scaled_sum",
    "hermite",
    "hermite_sign_logabs",
    "hermite_zeros",
    "log_gamma",
    "pochhammer",
    "dawson",
    "dawson_vec",
    "bisect_sign_change",
]


# --------------------------------------------------------------------------
# sign / log-magnitude arithmetic
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ScaledValue:
    """A real number stored as a sign and the natural log of its magnitude.

    ``sign`` is -1, 0 or +1; ``sign == 0`` if and only if the represented
    value is exactly zero, in which case ``log_mag`` carries no meaning.
    """

    sign: int
    log_mag: float

    @staticmethod
    def from_log(sign: int, log_mag: float) -> "ScaledValue":
        if sign == 0:
            return ScaledValue(0, float("-inf"))
        if sign not in (-1, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {sign}")
        return ScaledValue(sign, float(log_mag))

    def to_real(self) -> float:
        if self.sign == 0:
            return 0.0
        # exp may overflow; +/-inf is the honest answer then
        if self.log_mag > 709.0:
            return math.inf * self.sign
        return self.sign * math.exp(self.log_mag)


def scaled_sum(values: Iterable[ScaledValue]) -> ScaledValue:
    """Sum ScaledValues: factor out the largest magnitude, then compensated
    (Kahan) summation of the rescaled signed terms."""
    vals = [v for v in values if v.sign != 0]
    if not vals:
        return ScaledValue(0, float("-inf"))
    m = max(v.log_mag for v in vals)
    total = 0.0
    comp = 0.0
    for v in vals:
        term = v.sign * math.exp(v.log_mag - m)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    if total == 0.0:
        return ScaledValue(0, float("-inf"))
    return ScaledValue(1 if total > 0 else -1, m + math.log(abs(total)))


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
    Returns ``(sign, log_abs)`` with ``log_abs = -inf`` at exact zeros.
    """
    if n < 0:
        raise ValueError("Hermite order must be non-negative")
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    h_prev = np.ones_like(xa)
    log_scale = np.zeros_like(xa)
    if n == 0:
        h = h_prev
    else:
        h = 2.0 * xa
        for k in range(1, n):
            h, h_prev = 2.0 * xa * h - 2.0 * k * h_prev, h
            m = np.maximum(np.abs(h), np.abs(h_prev))
            big = m > 1e120
            if np.any(big):
                scale = np.where(big, m, 1.0)
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
# log-gamma (Lanczos, g = 7, 9 coefficients)
# --------------------------------------------------------------------------

_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0, absolute error below 1e-13 at desk scale."""
    if not (x > 0.0) or not math.isfinite(x):
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    if x < 0.5:
        # reflection keeps full accuracy as x -> 0+
        return math.log(math.pi / math.sin(math.pi * x)) - log_gamma(1.0 - x)
    z = x - 1.0
    s = _LANCZOS_COEF[0]
    for k, c in enumerate(_LANCZOS_COEF[1:], start=1):
        s += c / (z + k)
    t = z + _LANCZOS_G + 0.5
    return _LOG_SQRT_TWO_PI + (z + 0.5) * math.log(t) - t + math.log(s)


# --------------------------------------------------------------------------
# Pochhammer symbol
# --------------------------------------------------------------------------

def pochhammer(z: float, a: int) -> ScaledValue:
    """Rising factorial (z)_a = z (z+1) ... (z+a-1) as a ScaledValue.

    (z)_0 = 1.  Exactly zero when z is a non-positive integer with -z < a
    (one of the factors vanishes).  Valid for any real z, including the
    negative non-integer values that appear in alternating sums.
    """
    if a < 0:
        raise ValueError("Pochhammer offset must be a non-negative integer")
    if a == 0:
        return ScaledValue(1, 0.0)
    if z <= 0.0 and z == math.floor(z) and -z < a:
        return ScaledValue(0, float("-inf"))
    sign = 1
    log_mag = 0.0
    for i in range(a):
        f = z + i
        if f < 0.0:
            sign = -sign
        log_mag += math.log(abs(f))
    return ScaledValue(sign, log_mag)


# --------------------------------------------------------------------------
# Dawson F function
# --------------------------------------------------------------------------

# Sampling step for the exponentially convergent expansion; the truncation
# error scales like exp(-(pi / (2 h))^2) ~ 7e-18 for h = 0.25.
_DAWSON_H = 0.25
_DAWSON_CUT = 7.0


def _dawson_sampled(y: float) -> float:
    """Rybicki's sampled expansion, valid for moderate positive y."""
    h = _DAWSON_H
    n_lo = int(math.floor((y - 7.5) / h))
    n_hi = int(math.ceil((y + 7.5) / h))
    total = 0.0
    for m in range(n_lo, n_hi + 1):
        if m % 2 == 0:
            continue
        d = y - m * h
        total += math.exp(-d * d) / m
    return total / math.sqrt(math.pi)


def _dawson_asymptotic(y: float) -> float:
    """F(y) ~ (1/2y) sum_k (2k-1)!! / (2 y^2)^k for large positive y."""
    inv = 1.0 / (2.0 * y * y)
    term = 1.0
    total = 1.0
    for k in range(1, 60):
        term *= (2 * k - 1) * inv
        total += term
        if term < 1e-18 * total:
            break
    return total / (2.0 * y)


def dawson(x: float) -> float:
    """Dawson's integral F(x) = e^(-x^2) * integral_0^x e^(t^2) dt.

    Odd in x by construction; absolute error below 1e-12 everywhere.
    """
    if x == 0.0:
        return 0.0
    y = abs(x)
    value = _dawson_asymptotic(y) if y > _DAWSON_CUT else _dawson_sampled(y)
    return math.copysign(value, x)


def dawson_vec(x) -> np.ndarray:
    """Vectorized :func:`dawson` for array arguments."""
    xa = np.asarray(x, dtype=float)
    out = np.empty_like(xa)
    flat_in = xa.ravel()
    flat_out = out.ravel()
    for i, v in enumerate(flat_in):
        flat_out[i] = dawson(float(v))
    return out if xa.ndim else float(flat_out[0])


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
