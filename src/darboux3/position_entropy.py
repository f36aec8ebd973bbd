"""Closed-form entropic moments and entropies in position space.

For integer order alpha >= 1 the alpha-th entropic moment
W = integral rho_n(x)^alpha dx of a Darboux III eigenstate has a finite
closed form: the 2*alpha-th power of the Hermite polynomial in the density
is expanded as a series of even Hermite polynomials,

    H_n(sqrt(Omega) x)^(2 alpha)
        = A * alpha^(-alpha*nu) * sum_j c_j / ((-1)^j 2^(2j) j!)
              * H_(2j)(sqrt(alpha*Omega) x),

and the Gaussian-weighted moments of H_(2j) reduce the integral to

    W = sqrt(pi / (alpha Omega)) (Omega/pi)^(alpha/2)
        (1 + (n + 1/2) lam / Omega)^(-alpha) * sum_(k=0..alpha) P_k r^k,

a polynomial in r = lam / (alpha Omega) with

    P_k = A / (alpha^(alpha nu) (2^n n!)^alpha) * C(alpha, k) (1/2)_k
          * sum_(j<=k) (-1)^j C(k, j) c_j.

Every ingredient is exact: A = 2^(2 alpha n) ((n - nu)/2)!^(2 alpha) is an
integer, each c_j is rational and Gamma(k + 1/2) = sqrt(pi) (1/2)_k, so the
P_k are exact rationals, built once per (n, alpha).  r is taken exactly
from its double and the sum is exact too; the sum is rounded only when its
logarithm is taken, so the large, alternating terms cause no cancellation
error.

The coefficient c_j is defined through a (2*alpha+1)-fold nested sum whose
inner 2*alpha indices enter only through their total J; the nested sum is
therefore evaluated as an iterated convolution of a single weight vector,
which reorders but does not alter the finite sum.  The weights share one
denominator, so the convolution runs on integers.  ``uncertainty.entropy``
turns ln W into Rényi and Tsallis entropies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .model import ModelParams, effective_frequency

__all__ = [
    "ExpansionCoefficients",
    "BudgetExceededError",
    "parity_nu",
    "expansion_coefficients",
    "entropic_moment",
    "log_entropic_moment",
    "entropic_moment_special",
]

#: Work-unit budget for a single coefficient evaluation (convolution and
#: projection multiply-accumulates).  Guards against absurd inputs; the
#: factored evaluation needs ~(2 alpha M)^2 + j_max * (2 alpha M) units.
DEFAULT_TERM_BUDGET = 10**8


class BudgetExceededError(RuntimeError):
    """Raised when a coefficient evaluation would exceed its work budget."""


def parity_nu(n: int) -> int:
    """Parity indicator nu = (1 - (-1)^n) / 2: 0 for even n, 1 for odd."""
    if n < 0:
        raise ValueError("quantum number must be non-negative")
    return n & 1


@dataclass(frozen=True)
class ExpansionCoefficients:
    """Hermite-power expansion data for H_n^(2 alpha).

    ``A`` is the integer prefactor 2^(2 alpha n) ((n - nu)/2)!^(2 alpha) and
    ``c_exact`` holds c_j for j = 0..j_max as exact rationals.
    """

    n: int
    alpha: int
    nu: int
    A: int
    c_exact: tuple


def _check_alpha_int(alpha) -> int:
    if isinstance(alpha, float) and not alpha.is_integer():
        raise ValueError(f"analytic path requires integer alpha >= 1, got {alpha}")
    a = int(alpha)
    if a < 1:
        raise ValueError(f"analytic path requires integer alpha >= 1, got {alpha}")
    return a


def _poch_frac(z: Fraction, a: int) -> Fraction:
    """Exact rising factorial (z)_a for rational z."""
    out = Fraction(1)
    for i in range(a):
        out *= z + i
    return out


def _log_of_fraction(q: Fraction) -> float:
    """ln q of a positive rational of any size: q = m 2^e with m the
    correctly rounded quotient in [1/2, 2], so nothing overflows."""
    num, den = q.numerator, q.denominator
    e = num.bit_length() - den.bit_length()
    m = (num << -e) / den if e < 0 else num / (den << e)
    return math.log(m) + e * math.log(2.0)


@lru_cache(maxsize=512)
def _expansion_cached(n: int, alpha: int, j_max: int, budget: int) -> ExpansionCoefficients:
    nu = parity_nu(n)
    m_cap = (n - nu) // 2
    conv_len = 2 * alpha * m_cap + 1
    work = conv_len * conv_len * 2 * alpha + (j_max + 1) * (j_max + conv_len)
    if work > budget:
        raise BudgetExceededError(
            f"coefficient evaluation for n={n}, alpha={alpha}, j_max={j_max} "
            f"needs ~{work} work units, budget is {budget}"
        )

    # Per-index weight v[t] = (-M)_t / ((nu+1/2)_t t!) * alpha^-t, t = 0..M:
    # the terminating series coefficients of the confluent form of H_n.
    # All share the denominator D = (2nu+1)(2nu+3)..(2nu+2M-1) M! alpha^M, and
    # v[t+1] / v[t] = 2 (t - M) / ((2nu+1+2t)(t+1) alpha) divides exactly.
    denom = math.prod(range(2 * nu + 1, 2 * nu + 2 * m_cap, 2)) * math.factorial(m_cap)
    denom *= alpha**m_cap
    v_num = [denom]
    for t in range(m_cap):
        v_num.append(v_num[-1] * 2 * (t - m_cap) // ((2 * nu + 1 + 2 * t) * (t + 1) * alpha))

    # V[J] = sum over the 2*alpha inner indices with total J: an iterated
    # self-convolution, in integers over the denominator D^(2 alpha)
    conv = [1]
    for _ in range(2 * alpha):
        out = [0] * (len(conv) + m_cap)
        for i, ci in enumerate(conv):
            if ci:
                for t, vt in enumerate(v_num):
                    out[i + t] += ci * vt
        conv = out

    # T[c] = sum_J V[J] * (alpha*nu + 1/2)_(J+c), with the integers
    # q[r] = 2^r_max (alpha*nu + 1/2)_r
    r_max = (conv_len - 1) + j_max
    q = [1 << r_max]
    for r in range(r_max):
        q.append(q[-1] * (2 * alpha * nu + 1 + 2 * r) // 2)
    t_den = denom ** (2 * alpha) << r_max
    big_t = [
        Fraction(sum(conv[J] * q[J + c] for J in range(conv_len)), t_den)
        for c in range(j_max + 1)
    ]

    # prefactor (1/2)_(alpha*nu) * binom((n+nu-1)/2, M)^(2*alpha); the
    # generalized binomial is a falling factorial of M terms over M!
    half = Fraction(1, 2)
    top = Fraction(n + nu - 1, 2)
    binom = Fraction(1)
    for i in range(m_cap):
        binom *= top - i
    binom /= math.factorial(m_cap)
    pref = _poch_frac(half, alpha * nu) * binom ** (2 * alpha)

    # c_j = pref * sum_c (-j)_c / ((1/2)_c c!) * T[c]
    c_exact = []
    for j in range(j_max + 1):
        s = Fraction(0)
        for cc in range(j + 1):
            s += (
                _poch_frac(Fraction(-j), cc)
                / (_poch_frac(half, cc) * math.factorial(cc))
                * big_t[cc]
            )
        c_exact.append(pref * s)

    big_a = 2 ** (2 * alpha * n) * math.factorial(m_cap) ** (2 * alpha)
    return ExpansionCoefficients(n=n, alpha=alpha, nu=nu, A=big_a, c_exact=tuple(c_exact))


def expansion_coefficients(
    n: int, alpha: int, j_max: int, *, budget: int = DEFAULT_TERM_BUDGET
) -> ExpansionCoefficients:
    """Coefficients c_0..c_(j_max) and prefactor A of the Hermite-power
    expansion of H_n^(2 alpha).

    ``j_max = alpha`` suffices for the entropic moments (only j <= k <= alpha
    terms survive); larger ``j_max`` supports the pointwise reconstruction
    of the density power itself.
    """
    if n < 0:
        raise ValueError("quantum number must be non-negative")
    if j_max < 0:
        raise ValueError("j_max must be non-negative")
    return _expansion_cached(n, _check_alpha_int(alpha), int(j_max), int(budget))


def _moment_prefactor(coeffs: ExpansionCoefficients) -> Fraction:
    """A / (alpha^(alpha nu) (2^n n!)^alpha), the exact rational part of
    every P_k."""
    n, a = coeffs.n, coeffs.alpha
    return Fraction(coeffs.A, a ** (a * coeffs.nu) * (2**n * math.factorial(n)) ** a)


@lru_cache(maxsize=512)
def _moment_polynomial(n: int, alpha: int) -> tuple[Fraction, ...]:
    """Exact coefficients P_0..P_alpha of the moment polynomial in r."""
    coeffs = expansion_coefficients(n, alpha, alpha)
    pref = _moment_prefactor(coeffs)
    half = Fraction(1, 2)
    return tuple(
        pref
        * math.comb(alpha, k)
        * _poch_frac(half, k)
        * sum(
            ((-1) ** j * math.comb(k, j) * coeffs.c_exact[j] for j in range(k + 1)),
            Fraction(0),
        )
        for k in range(alpha + 1)
    )


def log_entropic_moment(params: ModelParams, n: int, alpha) -> float:
    """ln W for integer alpha >= 1: the exact moment polynomial at
    r = lam / (alpha Omega), rounded only when its logarithm is taken."""
    a = _check_alpha_int(alpha)
    poly = _moment_polynomial(n, a)
    om = effective_frequency(params, n)
    r = Fraction(params.lam / (a * om))
    total = Fraction(0)
    for p_k in reversed(poly):
        total = total * r + p_k
    if total <= 0:
        raise ArithmeticError(
            f"entropic moment bracket is non-positive for n={n}, alpha={a}"
        )
    return (
        0.5 * math.log(math.pi / (a * om))
        + 0.5 * a * math.log(om / math.pi)
        - a * math.log1p((n + 0.5) * params.lam / om)
        + _log_of_fraction(total)
    )


def entropic_moment(params: ModelParams, n: int, alpha) -> float:
    """Closed-form entropic moment W = integral rho_n^alpha dx, alpha integer >= 1."""
    return math.exp(log_entropic_moment(params, n, alpha))


def entropic_moment_special(params: ModelParams, n: int, alpha, case: str) -> float:
    """Reduced closed forms for the harmonic (lam = 0), ground-state (n = 0)
    and doubly-special cases; independent oracles for :func:`entropic_moment`.
    """
    a = _check_alpha_int(alpha)
    if case == "both":
        if params.lam != 0.0 or n != 0:
            raise ValueError("case 'both' requires lam = 0 and n = 0")
        return (params.omega / math.pi) ** ((a - 1) / 2.0) / math.sqrt(a)
    if case == "ground":
        if n != 0:
            raise ValueError("case 'ground' requires n = 0")
        om = effective_frequency(params, 0)
        total = 0.0
        for k in range(a + 1):
            total += (
                math.comb(a, k)
                * (params.lam / (a * om)) ** k
                * math.sqrt(math.pi)
                * float(_poch_frac(Fraction(1, 2), k))  # Gamma(k + 1/2)
            )
        return (
            (om / math.pi) ** ((a - 1) / 2.0)
            * (1.0 + 0.5 * params.lam / om) ** (-a)
            / math.sqrt(a * math.pi)
            * total
        )
    if case == "harmonic":
        if params.lam != 0.0:
            raise ValueError("case 'harmonic' requires lam = 0")
        coeffs = expansion_coefficients(n, a, a)
        log_w = (
            ((a - 1) / 2.0) * math.log(params.omega / math.pi)
            - 0.5 * math.log(a)
            + _log_of_fraction(_moment_prefactor(coeffs) * coeffs.c_exact[0])
        )
        return math.exp(log_w)
    raise ValueError(f"unknown case {case!r}; expected 'harmonic', 'ground' or 'both'")
