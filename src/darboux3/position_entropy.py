"""Closed-form entropic moments and entropies in position space.

For integer order alpha >= 1 the alpha-th entropic moment
W = integral rho_n(x)^alpha dx of a Darboux III eigenstate has a finite
closed form: the 2*alpha-th power of the Hermite polynomial in the density
is expanded as a series of even Hermite polynomials,

    H_n(sqrt(Omega) x)^(2 alpha)
        = A * alpha^(-alpha*nu) * sum_j c_j / ((-1)^j 2^(2j) j!)
              * H_(2j)(sqrt(alpha*Omega) x),

and the Gaussian-weighted moments of H_(2j) reduce the integral to a short
double sum over k = 0..alpha, j = 0..k.  The expansion prefactor A and the
coefficients c_j involve combinatorially large factors, so every product is
assembled in sign/log-magnitude form and only same-scale terms are summed
in linear space (compensated summation after factoring out the largest
magnitude).

The coefficient c_j is defined through a (2*alpha+1)-fold nested sum whose
inner 2*alpha indices enter only through their total J; the nested sum is
therefore evaluated as an iterated convolution of a single weight vector,
which reorders but does not alter the finite sum.  Every quantity entering
c_j is rational, so the accumulation is done in exact rational arithmetic;
the alternating signs of the weight vector and of the (-j)_i factors then
cause no cancellation error at all.  ``uncertainty.entropy`` turns log W
into Rényi and Tsallis entropies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .model import ModelParams, effective_frequency, log_norm_constant
from .specfun import ScaledValue, log_gamma, pochhammer, scaled_sum

__all__ = [
    "EntropyOrder",
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


@dataclass(frozen=True)
class EntropyOrder:
    """Entropic order alpha plus its analytic eligibility.

    The closed-form path exists only for integer alpha >= 1 (the expansion
    above needs an integer 2*alpha-fold nesting); every other positive
    order is served by quadrature.
    """

    alpha: float
    analytic_eligible: bool

    @staticmethod
    def of(alpha: float) -> "EntropyOrder":
        if not (alpha > 0.0) or not math.isfinite(alpha):
            raise ValueError(f"entropic order must be positive, got {alpha}")
        return EntropyOrder(float(alpha), alpha >= 1.0 and float(alpha).is_integer())


def parity_nu(n: int) -> int:
    """Parity indicator nu = (1 - (-1)^n) / 2: 0 for even n, 1 for odd."""
    if n < 0:
        raise ValueError("quantum number must be non-negative")
    return n & 1


@dataclass(frozen=True)
class ExpansionCoefficients:
    """Hermite-power expansion data for H_n^(2 alpha).

    ``c`` holds c_j for j = 0..j_max as plain floats; ``c_sign``/``c_log``
    carry the same values in sign/log-magnitude form for overflow-free
    downstream assembly and ``c_exact`` the underlying exact rationals.
    ``log_A`` is the prefactor A as a ScaledValue.
    """

    n: int
    alpha: int
    nu: int
    log_A: ScaledValue
    c: np.ndarray
    c_sign: np.ndarray
    c_log: np.ndarray
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


def _log_of_fraction(q: Fraction) -> tuple[int, float]:
    """(sign, ln|q|) of a rational; exact-integer logs, no overflow."""
    if q == 0:
        return 0, float("-inf")
    sign = 1 if q > 0 else -1
    return sign, math.log(abs(q.numerator)) - math.log(q.denominator)


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
    half = Fraction(1, 2)
    v = [
        _poch_frac(Fraction(-m_cap), t)
        / (_poch_frac(nu + half, t) * math.factorial(t) * Fraction(alpha) ** t)
        for t in range(m_cap + 1)
    ]

    # V[J] = sum over the 2*alpha inner indices with total J: an iterated
    # self-convolution; exact rationals, so the sign alternation is harmless
    conv = [Fraction(1)]
    for _ in range(2 * alpha):
        out = [Fraction(0)] * (len(conv) + m_cap)
        for i, ci in enumerate(conv):
            if ci:
                for t, vt in enumerate(v):
                    out[i + t] += ci * vt
        conv = out

    # T[c] = sum_J V[J] * (alpha*nu + 1/2)_(J+c)
    base = alpha * nu + half
    r_max = (conv_len - 1) + j_max
    poch_base = [Fraction(1)] * (r_max + 1)
    for r in range(1, r_max + 1):
        poch_base[r] = poch_base[r - 1] * (base + (r - 1))
    big_t = [
        sum((conv[J] * poch_base[J + c] for J in range(conv_len)), Fraction(0))
        for c in range(j_max + 1)
    ]

    # prefactor (1/2)_(alpha*nu) * binom((n+nu-1)/2, M)^(2*alpha); the
    # generalized binomial is a falling factorial of M terms over M!
    top = Fraction(n + nu - 1, 2)
    binom = Fraction(1)
    for i in range(m_cap):
        binom *= top - i
    binom /= math.factorial(m_cap)
    pref = _poch_frac(half, alpha * nu) * binom ** (2 * alpha)

    # c_j = pref * sum_c (-j)_c / ((1/2)_c c!) * T[c]
    c_sign = np.zeros(j_max + 1, dtype=int)
    c_log = np.full(j_max + 1, -np.inf)
    c_vals = np.zeros(j_max + 1)
    c_exact = []
    for j in range(j_max + 1):
        s = Fraction(0)
        for cc in range(j + 1):
            s += (
                _poch_frac(Fraction(-j), cc)
                / (_poch_frac(half, cc) * math.factorial(cc))
                * big_t[cc]
            )
        cj = pref * s
        c_exact.append(cj)
        sign, log_mag = _log_of_fraction(cj)
        c_sign[j] = sign
        c_log[j] = log_mag
        if sign != 0:
            with np.errstate(over="ignore"):
                c_vals[j] = sign * math.exp(min(log_mag, 709.0))

    log_A = ScaledValue.from_log(
        1, 2 * alpha * n * math.log(2.0) + 2 * alpha * log_gamma((n - nu) / 2.0 + 1.0)
    )
    for arr in (c_vals, c_sign, c_log):
        arr.setflags(write=False)
    return ExpansionCoefficients(
        n=n, alpha=alpha, nu=nu, log_A=log_A, c=c_vals, c_sign=c_sign,
        c_log=c_log, c_exact=tuple(c_exact),
    )


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


def _eta_terms(params: ModelParams, n: int, alpha: int) -> list[ScaledValue]:
    """The k = 0..alpha bracket terms of the moment formula, scaled."""
    coeffs = expansion_coefficients(n, alpha, alpha)
    om = effective_frequency(params, n)
    ratio = params.lam / (alpha * om)
    log_ratio = math.log(ratio) if ratio > 0.0 else -math.inf
    terms: list[ScaledValue] = []
    for k in range(alpha + 1):
        if k > 0 and params.lam == 0.0:
            break  # (lam / (alpha Omega))^k kills every k > 0 term
        inner = []
        for j in range(k + 1):
            pj = pochhammer(float(-k), j)
            if pj.sign == 0 or coeffs.c_sign[j] == 0:
                continue
            inner.append(
                ScaledValue.from_log(
                    int(coeffs.c_sign[j]) * pj.sign,
                    coeffs.c_log[j] + pj.log_mag - log_gamma(j + 1.0),
                )
            )
        bracket = scaled_sum(inner)
        if bracket.sign == 0:
            continue
        log_binomial = log_gamma(alpha + 1.0) - log_gamma(k + 1.0) - log_gamma(alpha - k + 1.0)
        log_power = k * log_ratio if k else 0.0
        terms.append(
            ScaledValue.from_log(
                bracket.sign,
                log_binomial + log_power + log_gamma(k + 0.5) + bracket.log_mag,
            )
        )
    return terms


def log_entropic_moment(params: ModelParams, n: int, alpha) -> float:
    """ln W for integer alpha >= 1, assembled entirely in log space."""
    a = _check_alpha_int(alpha)
    coeffs = expansion_coefficients(n, a, a)
    om = effective_frequency(params, n)
    bracket = scaled_sum(_eta_terms(params, n, a))
    if bracket.sign <= 0:
        raise ArithmeticError(
            f"entropic moment bracket is non-positive for n={n}, alpha={a}"
        )
    return (
        2.0 * a * log_norm_constant(params, n)
        + coeffs.log_A.log_mag
        - a * coeffs.nu * math.log(a)
        - 0.5 * math.log(a * om)
        + bracket.log_mag
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
                * math.exp(log_gamma(k + 0.5))
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
            - a * (n * math.log(2.0) + log_gamma(n + 1.0))
            + coeffs.log_A.log_mag
            - a * coeffs.nu * math.log(a)
            + coeffs.c_log[0]
        )
        return coeffs.c_sign[0] * math.exp(log_w)
    raise ValueError(f"unknown case {case!r}; expected 'harmonic', 'ground' or 'both'")

