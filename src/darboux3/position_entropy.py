"""Closed-form entropic moments and entropies in position space.

For integer order alpha >= 1 the alpha-th entropic moment
W = integral rho_n(x)^alpha dx of a Darboux III eigenstate is a
Gaussian-moment sum of one integer polynomial.  H_n has integer
coefficients, so with y = sqrt(Omega) x

    H_n(y)^(2 alpha) = sum_(m=0..alpha n) q_m y^(2m),   q_m integers,

and rho_n^alpha is (1 + lam x^2)^alpha e^(-alpha Omega x^2) times that
polynomial.  Expanding (1 + lam x^2)^alpha binomially and integrating each
monomial against the Gaussian, with
integral y^(2r) e^(-alpha y^2) dy = sqrt(pi) (1/2)_r alpha^(-r - 1/2), gives

    W = sqrt(pi / (alpha Omega)) (Omega/pi)^(alpha/2)
        (1 + (n + 1/2) lam / Omega)^(-alpha) * sum_(k=0..alpha) P_k r^k,

a polynomial in r = lam / (alpha Omega) with

    P_k = C(alpha, k) / (2^n n!)^alpha
          * sum_m q_m (1/2)_(m+k) alpha^(-m).

The sum runs over Python integers on one denominator, since
2^r (1/2)_r = (2r - 1)!!, so the P_k = N_k / D are exact rationals, built
once per (n, alpha).  r = a / b is taken exactly from its double and
sum_k N_k a^k b^(alpha - k) is summed on integers; it is rounded only when
its logarithm is taken, so the large, alternating terms cause no
cancellation error.

The q_m come from one big-integer power (Kronecker substitution; von zur
Gathen & Gerhard, Modern Computer Algebra).  The coefficients h_i of H_n
in y^2 alternate in sign, so (sum_i |h_i| t^i)^(2 alpha) has coefficients
(-1)^m q_m >= 0, none above (sum_i |h_i|)^(2 alpha); at t = 2^w, with w
bits for that bound, they sit in disjoint w-bit slots of one integer.

The same q_m give the even-Hermite expansion of the power,

    H_n(y)^(2 alpha) = A alpha^(-alpha nu)
        * sum_j c_j / ((-1)^j 2^(2j) j!) H_(2j)(sqrt(alpha) y),

with the integer A = 2^(2 alpha n) ((n - nu)/2)!^(2 alpha): inverting
y^(2m) into H_(2j)(sqrt(alpha) y) yields

    c_j = (-4)^j j! alpha^(alpha nu) / A
          * sum_(m>=j) q_m (2m)! / ((4 alpha)^m (m - j)! (2j)!),

which vanishes for j > alpha n.  ``uncertainty.entropy`` turns ln W into
Rényi and Tsallis entropies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .model import ModelParams, effective_frequency, log_unit, unit_twin
from .quadrature import _exp_moment

__all__ = [
    "ExpansionCoefficients",
    "BudgetExceededError",
    "parity_nu",
    "expansion_coefficients",
    "entropic_moment",
    "log_entropic_moment",
    "entropic_moment_special",
]

#: Input-size guard for one moment polynomial or coefficient evaluation,
#: checked before H_n^(2 alpha) is built.  With M = floor(n/2) the size is
#: (2 alpha M + 1)^2 2 alpha + (j_max + 1)(j_max + 2 alpha M + 1) units,
#: with j_max = alpha for the moment polynomial: the operation count of a
#: schoolbook Hermite power, kept as a measure of (n, alpha, j_max) so the
#: same inputs are refused.
_TERM_BUDGET = 10**8


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
    if (isinstance(alpha, float) and not alpha.is_integer()) or int(alpha) < 1:
        raise ValueError(f"analytic path requires integer alpha >= 1, got {alpha}")
    return int(alpha)


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


def _check_budget(n: int, alpha: int, j_max: int) -> None:
    """Raise :class:`BudgetExceededError` when the size of the input, as
    measured by ``_TERM_BUDGET``'s comment, exceeds it."""
    conv_len = 2 * alpha * (n // 2) + 1
    work = conv_len * conv_len * 2 * alpha + (j_max + 1) * (j_max + conv_len)
    if work > _TERM_BUDGET:
        raise BudgetExceededError(
            f"coefficient evaluation for n={n}, alpha={alpha}, j_max={j_max} "
            f"needs ~{work} work units, budget is {_TERM_BUDGET}"
        )


def _hermite_power(n: int, alpha: int) -> tuple[int, ...]:
    """Integers q_0..q_(alpha n) with H_n(y)^(2 alpha) = sum_m q_m y^(2m)."""
    # H_n = y^nu sum_i h_i y^(2i) with h_(M-m) = (-1)^m n! 2^(n-2m) / (m! (n-2m)!);
    # the |h_i| from the ratio of consecutive coefficients, largest power first
    nu = parity_nu(n)
    h = [1 << n]
    for m in range((n - nu) // 2):
        h.append(h[-1] * (n - 2 * m) * (n - 2 * m - 1) // (4 * (m + 1)))
    h.reverse()
    # (sum_i |h_i| t^i)^(2 alpha) at t = 2^(8 width) (module docstring):
    # slots of ``width`` bytes hold (-1)^m q_m <= (sum_i |h_i|)^(2 alpha)
    width = (2 * alpha * sum(h).bit_length() + 7) // 8
    packed = int.from_bytes(b"".join(h_i.to_bytes(width, "little") for h_i in h), "little")
    slots = 2 * alpha * (len(h) - 1) + 1
    digits = (packed ** (2 * alpha)).to_bytes(slots * width, "little")
    return (0,) * (alpha * nu) + tuple(
        (-1) ** m * int.from_bytes(digits[m * width : (m + 1) * width], "little")
        for m in range(slots)
    )


def expansion_coefficients(n: int, alpha: int, j_max: int) -> ExpansionCoefficients:
    """Coefficients c_0..c_(j_max) and prefactor A of the Hermite-power
    expansion of H_n^(2 alpha).

    The harmonic case of :func:`entropic_moment_special` reads c_0; larger
    ``j_max`` supports the pointwise reconstruction of the density power
    itself.
    """
    if n < 0:
        raise ValueError("quantum number must be non-negative")
    if j_max < 0:
        raise ValueError("j_max must be non-negative")
    alpha, j_max = _check_alpha_int(alpha), int(j_max)
    _check_budget(n, alpha, j_max)
    nu = parity_nu(n)
    q = _hermite_power(n, alpha)
    top = alpha * n
    fact = [1]
    for i in range(1, 2 * top + 1):
        fact.append(fact[-1] * i)
    big_a = 2 ** (2 * alpha * n) * fact[(n - nu) // 2] ** (2 * alpha)
    # c_j over the denominator A (4 alpha)^(alpha n): every term is an integer
    den = big_a * (4 * alpha) ** top
    c_exact = []
    for j in range(j_max + 1):
        s = sum(
            q[m] * (fact[2 * m] // (fact[m - j] * fact[2 * j])) * (4 * alpha) ** (top - m)
            for m in range(j, top + 1)
        )
        c_exact.append(Fraction((-4) ** j * math.factorial(j) * alpha ** (alpha * nu) * s, den))
    return ExpansionCoefficients(n=n, alpha=alpha, nu=nu, A=big_a, c_exact=tuple(c_exact))


@lru_cache(maxsize=512)
def _moment_polynomial(n: int, alpha: int) -> tuple[tuple[int, ...], int]:
    """Integers N_0..N_alpha and D with P_k = N_k / D, the coefficients of
    the moment polynomial in r."""
    _check_budget(n, alpha, alpha)
    q = _hermite_power(n, alpha)
    top = alpha * n + alpha  # largest m + k
    # 2^top alpha^(alpha n) (1/2)_(m+k) alpha^(-m)
    #     = (2(m+k) - 1)!! 2^(top-m-k) alpha^(alpha n - m), an integer
    dfact = [1]
    for r in range(top):
        dfact.append(dfact[-1] * (2 * r + 1))
    scaled = [q_m * alpha ** (alpha * n - m) for m, q_m in enumerate(q)]
    den = (2**n * math.factorial(n)) ** alpha * alpha ** (alpha * n) << top
    nums = tuple(
        math.comb(alpha, k)
        * sum(s_m * dfact[m + k] << (top - m - k) for m, s_m in enumerate(scaled))
        for k in range(alpha + 1)
    )
    return nums, den


def log_entropic_moment(params: ModelParams, n: int, alpha) -> float:
    """ln W for integer alpha >= 1: the twin's exact moment polynomial at
    r = kappa / (alpha Omega), rounded only when its logarithm is taken, plus
    (1 - alpha) times the :func:`~darboux3.model.log_unit`."""
    a = _check_alpha_int(alpha)
    nums, den = _moment_polynomial(n, a)
    unit = unit_twin(params)
    om = effective_frequency(unit, n)
    r_num, r_den = (unit.lam / (a * om)).as_integer_ratio()
    # D r_den^alpha sum_k P_k r^k, by Horner on integers
    total = 0
    for k, n_k in enumerate(reversed(nums)):
        total = total * r_num + n_k * r_den**k
    if total <= 0:
        raise ArithmeticError(
            f"entropic moment bracket is non-positive for n={n}, alpha={a}"
        )
    return (
        0.5 * math.log(math.pi / (a * om))
        + 0.5 * a * math.log(om / math.pi)
        - a * math.log1p((n + 0.5) * unit.lam / om)
        + _log_of_fraction(Fraction(total, den * r_den**a))
    ) + (1 - a) * log_unit(params.omega, "position")


def entropic_moment(params: ModelParams, n: int, alpha) -> float:
    """Closed-form entropic moment W = integral rho_n^alpha dx, alpha integer >= 1;
    a W outside the normal double range raises ``ArithmeticError`` (:func:`_exp_moment`)."""
    return _exp_moment(log_entropic_moment(params, n, alpha), alpha, params.lam, n)


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
        # P_0 = A c_0 / (alpha^(alpha nu) (2^n n!)^alpha), through the c_j
        coeffs = expansion_coefficients(n, a, a)
        p_0 = coeffs.c_exact[0] * Fraction(
            coeffs.A, a ** (a * coeffs.nu) * (2**n * math.factorial(n)) ** a
        )
        log_w = (
            ((a - 1) / 2.0) * math.log(params.omega / math.pi)
            - 0.5 * math.log(a)
            + _log_of_fraction(p_0)
        )
        return math.exp(log_w)
    raise ValueError(f"unknown case {case!r}; expected 'harmonic', 'ground' or 'both'")
