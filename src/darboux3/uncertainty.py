"""Entropic uncertainty functions for Fourier-conjugate order pairs.

The Rényi uncertainty function is the slack of the Zozor-Portesi-Vignat
inequality,

    xi[R] = R_alpha[rho] + R_beta[gamma] - ln(pi alpha^(1/(2 alpha - 2))
                                               beta^(1/(2 beta - 2))),

and the Tsallis one is the slack of the Sobolev inequality written through
the Tsallis entropies,

    xi[T] = (alpha/pi)^(1/4 alpha) ((1-alpha) T_alpha[rho] + 1)^(1/2 alpha)
          - (beta/pi)^(1/4 beta) ((1-beta) T_beta[gamma] + 1)^(1/2 beta),

both with 1/alpha + 1/beta = 2; the Tsallis form additionally requires
1/2 < alpha <= 1.  Zero slack means the state saturates the inequality
(the harmonic ground state does; the deformed one does not).

Both sides take their entropic moments from :func:`log_moment`, the
one-lambda case of :func:`log_moments`, which holds the package's one rule
for choosing the closed form or quadrature;
the result records which engine produced the position side.
:func:`entropy` turns the same ln W into Rényi and Tsallis entropies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import ModelParams
from .position_entropy import log_entropic_moment
from .quadrature import entropic_moment_numeric, position_moments, shannon_numeric

__all__ = [
    "XiResult",
    "conjugate_order",
    "entropy",
    "entropy_from_log_moment",
    "log_moment",
    "log_moments",
    "xi_renyi",
    "xi_tsallis",
]

#: inequality slack below this is treated as a numerical failure, not physics
_NEGATIVE_TOL = 1e-9


@dataclass(frozen=True)
class XiResult:
    """Uncertainty-function value plus the engine used for the position side."""

    value: float
    position_method: str  # "analytic" or "quadrature"


def conjugate_order(alpha: float) -> float:
    """The order beta with 1/alpha + 1/beta = 2, beta = alpha / (2 alpha - 1);
    requires alpha > 1/2."""
    if not (alpha > 0.5) or not math.isfinite(alpha):
        raise ValueError(f"conjugate order requires alpha > 1/2, got {alpha}")
    return alpha / (2.0 * alpha - 1.0)


def log_moments(
    omega: float, lams, n: int, alpha: float, space: str
) -> tuple[list[float], str]:
    """ln W, W = integral density^alpha in ``space``, for each lambda of
    ``lams``, and the engine used.

    This is the package's one engine rule.  Position space at integer
    alpha >= 1 takes the exact closed form (:func:`log_entropic_moment`,
    engine "analytic") at each lambda; every other position order takes the
    quadrature of the whole sweep at once (:func:`position_moments`), and
    momentum space one profile per lambda (:func:`entropic_moment_numeric`),
    both engine "quadrature"; quadrature rejects orders that are not
    positive and finite.
    """
    params = (ModelParams(omega, lam) for lam in lams)
    if space == "position" and alpha >= 1.0 and float(alpha).is_integer():
        return [log_entropic_moment(p, n, int(alpha)) for p in params], "analytic"
    if space == "position":
        return [math.log(w) for w in position_moments(omega, lams, n, alpha)], "quadrature"
    return [math.log(entropic_moment_numeric(p, n, alpha, space)) for p in params], "quadrature"


def log_moment(params: ModelParams, n: int, alpha: float, space: str) -> tuple[float, str]:
    """ln W and the engine at one lambda: :func:`log_moments`' one-lambda case."""
    log_w, engine = log_moments(params.omega, [params.lam], n, alpha, space)
    return log_w[0], engine


def entropy_from_log_moment(log_w: float, alpha: float, kind: str) -> float:
    """Rényi or Tsallis entropy of order ``alpha`` != 1 from ln W; see :func:`entropy`."""
    if alpha == 1.0:
        raise ValueError("order 1 is the Shannon limit; it has no ln W form")
    if kind == "renyi":
        return log_w / (1.0 - alpha)
    if kind == "tsallis":
        return (1.0 - math.exp(log_w)) / (alpha - 1.0)
    raise ValueError(f"kind must be 'renyi' or 'tsallis', got {kind!r}")


def entropy(params: ModelParams, n: int, alpha: float, space: str, kind: str) -> float:
    """Rényi or Tsallis entropy of order ``alpha`` in ``space``.

    With W = integral density^alpha (from :func:`log_moment`),

        Rényi   R_alpha = ln W / (1 - alpha),
        Tsallis T_alpha = (1 - W) / (alpha - 1).

    Both tend to the Shannon entropy as alpha -> 1, so alpha = 1 returns
    :func:`shannon_numeric` for either kind.
    """
    if kind not in ("renyi", "tsallis"):
        raise ValueError(f"kind must be 'renyi' or 'tsallis', got {kind!r}")
    if alpha == 1.0:
        return shannon_numeric(params, n, space)
    return entropy_from_log_moment(log_moment(params, n, alpha, space)[0], alpha, kind)


def _check_slack(value: float, what: str) -> float:
    if value < -_NEGATIVE_TOL:
        raise ArithmeticError(
            f"{what} slack {value:.3e} below -{_NEGATIVE_TOL}: quadrature failure"
        )
    return value


def xi_renyi(params: ModelParams, n: int, alpha: float) -> XiResult:
    """Slack of the Rényi uncertainty relation at position order ``alpha``."""
    beta = conjugate_order(alpha)
    if alpha == 1.0:
        raise ValueError("alpha = 1 is the Shannon case; the Rényi slack needs alpha != 1")
    log_w_pos, method = log_moment(params, n, alpha, "position")
    r_pos = entropy_from_log_moment(log_w_pos, alpha, "renyi")
    r_mom = entropy_from_log_moment(log_moment(params, n, beta, "momentum")[0], beta, "renyi")
    bound = (
        math.log(math.pi)
        + math.log(alpha) / (2.0 * alpha - 2.0)
        + math.log(beta) / (2.0 * beta - 2.0)
    )
    return XiResult(_check_slack(r_pos + r_mom - bound, "Rényi"), method)


def xi_tsallis(params: ModelParams, n: int, alpha: float) -> XiResult:
    """Slack of the Tsallis (Sobolev) uncertainty relation, 1/2 < alpha <= 1.

    Written directly through the entropic moments: (1 - a) T_a + 1 = W_a.
    At alpha = 1 both sides coincide and the slack is exactly zero.
    """
    if not (0.5 < alpha <= 1.0):
        raise ValueError(f"Tsallis slack requires 1/2 < alpha <= 1, got {alpha}")
    if alpha == 1.0:
        return XiResult(0.0, "analytic")
    beta = conjugate_order(alpha)
    log_w_pos, method = log_moment(params, n, alpha, "position")
    log_w_mom = log_moment(params, n, beta, "momentum")[0]
    left = (alpha / math.pi) ** (1.0 / (4.0 * alpha)) * math.exp(log_w_pos / (2.0 * alpha))
    right = (beta / math.pi) ** (1.0 / (4.0 * beta)) * math.exp(log_w_mom / (2.0 * beta))
    return XiResult(_check_slack(left - right, "Tsallis"), method)
