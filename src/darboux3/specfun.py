"""Self-contained special-function kernel.

Hermite polynomials (plain, and one power-of-two-scaled recurrence that
serves every runtime caller) and their zeros, Dawson's F function and the
package's one root refinement, Newton's method kept inside each of an
array of brackets.
Everything here is deterministic, pure and free of external dependencies
beyond numpy, so the rest of the package can treat these as exact
primitives.  Exact rational work (the entropic-moment polynomial and its
Pochhammer symbols) lives with its one user in ``position_entropy``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "hermite",
    "hermite_pair_scaled",
    "hermite_sign_logabs",
    "hermite_zeros",
    "dawson_vec",
    "bracketed_newton",
]


# --------------------------------------------------------------------------
# Hermite polynomials (physicists' convention)
# --------------------------------------------------------------------------

def hermite(n: int, x):
    """Evaluate the physicists' Hermite polynomial H_n(x).

    Uses the three-term recurrence H_{k+1} = 2 x H_k - 2 k H_{k-1}.
    Accepts scalars or arrays; overflow for very large ``n`` returns inf.
    The package itself calls :func:`hermite_pair_scaled`; this plain form
    is the test suite's independent oracle.
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


_SCALE_BITS = 512  # |x H_k| < 2^512: far from overflow even times strong_nonlinear's factors


def hermite_pair_scaled(n: int, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(H_(n-1)(x), H_n(x)) 2^(-e) and the integer exponents e, elementwise.

    The recurrence H_(k+1) = 2 x H_k - 2 k H_(k-1) from H_(-1) = 0, H_0 = 1,
    rescaled by exact powers of two whenever |x H_k| (|H_k| for |x| < 1)
    would pass 2^512, so no finite x and no order overflows.  Where no
    rescale fires, e = 0 and the pair is the plain recurrence's, bit for
    bit.  A NaN or infinite x raises ``ValueError``.  Returns 1-d arrays.

    The array check for a rescale waits for the scalar majorant
    b_k = |H_k(i x_max)| >= |H_k(x)|, b_(k+1) = 2 x_max b_k + 2 k b_(k-1),
    to pass half the smallest limit (the half covers the rounding of both
    recurrences), and from then on runs every step; a step before it is
    four array passes.
    """
    if n < 0:
        raise ValueError("Hermite order must be non-negative")
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    x_max = float(np.max(np.abs(xa), initial=1.0))  # NaN if any x is NaN
    if not math.isfinite(x_max):
        raise ValueError(f"non-finite Hermite argument at x={xa[~np.isfinite(xa)][0]}")
    lowest = math.ldexp(1.0, _SCALE_BITS - math.frexp(x_max)[1])  # the smallest limit
    e = np.zeros(xa.shape, dtype=int)
    h_prev, h = np.zeros_like(xa), np.ones_like(xa)
    t = np.empty_like(xa)
    b_prev, b, checking = 0.0, 1.0, False
    for k in range(n):
        if not checking:
            checking = not b <= 0.5 * lowest  # an inf or NaN majorant checks too
            b_prev, b = b, 2.0 * x_max * b + 2.0 * k * b_prev
        if checking and np.abs(h, out=t).max(initial=0.0) > lowest:
            # where |h| passes its limit 2^cap, bring max(|h|, |h_prev|) to ~2^(cap - 256)
            cap = _SCALE_BITS - np.frexp(np.maximum(np.abs(xa), 1.0))[1]
            top = np.frexp(np.maximum(t, np.abs(h_prev)))[1]
            shift = np.where(t > np.ldexp(1.0, cap), top - cap + _SCALE_BITS // 2, 0)
            h, h_prev = np.ldexp(h, -shift), np.ldexp(h_prev, -shift)
            e += shift
        np.multiply(xa, h, out=t)  # 2 x h - 2 k h_prev, into h_prev's buffer
        t *= 2.0
        h_prev *= 2.0 * k
        np.subtract(t, h_prev, out=h_prev)
        h, h_prev = h_prev, h
    return h_prev, h, e


def hermite_sign_logabs(n: int, x) -> tuple[np.ndarray, np.ndarray]:
    """Float sign and log|H_n(x)| elementwise from :func:`hermite_pair_scaled`;
    ``log_abs = -inf`` at exact zeros, a NaN or infinite x raises."""
    _, h, e = hermite_pair_scaled(n, x)
    with np.errstate(divide="ignore"):
        return np.sign(h), np.log(np.abs(h)) + e * math.log(2.0)


@lru_cache(maxsize=64)
def hermite_zeros(n: int) -> np.ndarray:
    """Zeros of H_n in increasing order (empty for n = 0); cached, read-only:
    ``hermgauss(n)[0]`` bit for bit, without the weights.  ``ArithmeticError``
    before anything is allocated from n = 741 on, where some are not finite."""
    if n > 740:  # the Newton step overflows to inf or NaN there
        raise ArithmeticError(f"Hermite zeros of order n={n} are not finite")
    z = np.array([])
    if n:
        s = np.sqrt(0.5 * np.arange(1, n))  # sqrt(k / 2), as ``hermcompanion`` builds it
        with np.errstate(all="ignore"):  # its products overflow from n = 730 on
            x = np.linalg.eigvalsh(np.diag(s, 1) + np.diag(s, -1))  # the Jacobi matrix
            x -= _normed_hermite(x, n) / (_normed_hermite(x, n - 1) * math.sqrt(2 * n))
            z = (x - x[::-1]) / 2
    z.setflags(write=False)
    return z


def _normed_hermite(x: np.ndarray, n: int):
    """H_n(x) / sqrt(2^n n! sqrt(pi)) by ``hermgauss``'s recurrence, step for step."""
    c0, c1, nd = 0.0, 1.0 / math.sqrt(math.sqrt(math.pi)), float(n)
    for _ in range(n - 1):
        c0, c1 = -c1 * math.sqrt((nd - 1.0) / nd), c0 + c1 * x * math.sqrt(2.0 / nd)
        nd -= 1.0
    return c0 + c1 * x * math.sqrt(2) if n else c1


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
    (1/2y) sum_k (2k-1)!! / (2 y^2)^k to k = 30, whose terms from k = 25 on
    are below 1e-18 of the sum at every y > 7.  Returns a float for 0-d
    input and an array otherwise.
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
        with np.errstate(over="ignore"):  # y^2 = inf and 2 y = inf give the right limit 0
            inv = 1.0 / (2.0 * y[far] ** 2)
            term = np.ones_like(inv)
            total = np.ones_like(inv)
            for k in range(1, 31):
                term = term * (2 * k - 1) * inv
                total = total + term
            out[far] = total / (2.0 * y[far])

    out = np.copysign(out, flat).reshape(xa.shape)
    return float(out) if xa.ndim == 0 else out


# --------------------------------------------------------------------------
# root finding
# --------------------------------------------------------------------------

_NEWTON_CALLS = 8  # calls of f a root refinement may make


def bracketed_newton(f, a, b, fa, fb, what: str) -> np.ndarray:
    """Roots of ``f`` in the brackets [a, b] (equal-length arrays), where
    f(a) = ``fa`` and f(b) = ``fb`` differ in sign.

    ``f(z)`` returns f, f' and a rounding bound on |f| at the points z.
    Every bracket starts at its regula falsi point and all take Newton
    steps at once, one call of ``f`` per step; a step that leaves its
    bracket bisects the bracket instead.  A root is done when |f| is within
    its bound and takes one last Newton step from there.  Returns once every
    root is done at the same call; raises ``ArithmeticError``, naming the
    roots ``what``, if that takes more than ``_NEWTON_CALLS`` calls.
    """
    a, b, fa, fb = (np.asarray(v, dtype=float) for v in (a, b, fa, fb))
    z = a - fa * (b - a) / (fb - fa)
    converged = not len(z)
    for _ in range(_NEWTON_CALLS):
        if converged:
            break
        g, dg, bound = f(z)
        right = (g < 0.0) == (fa < 0.0)  # the root lies right of z
        a, b = np.where(right, z, a), np.where(right, b, z)
        newton = z - g / dg
        done = np.abs(g) <= bound
        z = np.where(done | (a < newton) & (newton < b), newton, 0.5 * (a + b))
        converged = done.all()
    if not converged:
        raise ArithmeticError(
            f"{np.count_nonzero(~done)} of {len(z)} {what} did not reach their rounding bound "
            f"in {_NEWTON_CALLS} calls"
        )
    return z
