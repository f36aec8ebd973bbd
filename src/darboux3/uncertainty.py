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

Both sides take their entropic moments from :func:`log_moments`, the
package's one rule for choosing the closed form or quadrature; the result
records which engine produced the position side.  :func:`entropy` turns
the same ln W into Rényi and Tsallis entropies.  Each is the one-cell case
of a helper that takes a list of (lam, alpha) cells at one n, a CLI grid's
or a table row's, and its ln W from one :func:`log_moments` call per side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import ModelParams, kappa_of, log_unit
from .position_entropy import log_entropic_moment
from .quadrature import (_exp_moment, _normal_moment, entropic_moment_numeric, position_moments,
                         position_shannons, shannon_numeric)

__all__ = [
    "XiResult",
    "conjugate_order",
    "entropy",
    "entropy_from_log_moment",
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


def log_moments(omega: float, cells, n: int, space: str) -> list[tuple[float, str]]:
    """ln W, W = integral density^alpha in ``space``, and the engine used,
    for each (lam, alpha) of ``cells``: a CLI grid, a table row or one cell.

    This is the package's one engine rule.  Position space at integer
    alpha >= 1 takes the exact closed form (:func:`log_entropic_moment`,
    engine "analytic"); the other position cells share one quadrature
    pass (:func:`position_moments`), and momentum space takes one profile
    per lambda (:func:`entropic_moment_numeric`), both engine "quadrature";
    quadrature rejects orders that are not positive and finite, and a W
    outside the normal double range raises ``ArithmeticError``.

    Each engine runs at the twin (1, lam / omega), and its ln W shifts by
    (1 - alpha) times the :func:`log_unit`; the range rule applies to the twin's W.
    """
    cells = list(cells)
    kappas = [kappa_of(omega, lam) for lam, _ in cells]
    exact = [space == "position" and a >= 1.0 and float(a).is_integer() for _, a in cells]
    rest = [(k, a) for k, (_, a), e in zip(kappas, cells, exact) if not e]
    numeric = iter(position_moments(rest, n) if space == "position"
                   else [entropic_moment_numeric(ModelParams(1.0, k), n, a, space) for k, a in rest])
    unit = log_unit(omega, space)
    return [
        (log_entropic_moment(ModelParams(1.0, k), n, int(a)) + (1.0 - a) * unit, "analytic") if e
        else (math.log(_normal_moment(next(numeric), a, lam, n)) + (1.0 - a) * unit, "quadrature")
        for k, (lam, a), e in zip(kappas, cells, exact)
    ]


def entropy_from_log_moment(log_w: float, alpha: float, kind: str) -> float:
    """Rényi or Tsallis entropy of order ``alpha`` != 1 from ln W; see :func:`entropy`."""
    if alpha == 1.0:
        raise ValueError("order 1 is the Shannon limit; it has no ln W form")
    if kind == "renyi":
        return log_w / (1.0 - alpha)
    if kind == "tsallis":
        return (1.0 - _exp_moment(log_w, alpha)) / (alpha - 1.0)
    raise ValueError(f"kind must be 'renyi' or 'tsallis', got {kind!r}")


def entropy(params: ModelParams, n: int, alpha: float, space: str, kind: str) -> float:
    """Rényi ln W / (1 - alpha) or Tsallis (1 - W) / (alpha - 1) entropy in
    ``space``, W = integral density^alpha (from :func:`log_moments`).  Both
    tend to the Shannon entropy as alpha -> 1, so alpha = 1 returns the
    Shannon entropy for either kind."""
    return _entropies(params.omega, [(params.lam, alpha)], n, space, kind)[0]


def _entropies(omega: float, cells: list, n: int, space: str, kind: str) -> list[float]:
    """:func:`entropy` at each (lam, alpha) of ``cells``: one :func:`log_moments` call,
    and order 1 from one :func:`position_shannons` pass or one profile per lambda, at
    the twins (1, lam / omega) and shifted by the :func:`log_unit`."""
    if kind not in ("renyi", "tsallis"):
        raise ValueError(f"kind must be 'renyi' or 'tsallis', got {kind!r}")
    log_ws = iter(log_moments(omega, [cell for cell in cells if cell[1] != 1.0], n, space))
    kappas = [kappa_of(omega, lam) for lam, a in cells if a == 1.0]
    shannons = iter(position_shannons(kappas, n) if space == "position"
                    else [shannon_numeric(ModelParams(1.0, k), n, space) for k in kappas])
    unit = log_unit(omega, space)
    return [
        next(shannons) + unit if a == 1.0 else entropy_from_log_moment(next(log_ws)[0], a, kind)
        for _, a in cells
    ]


def _check_slack(value: float, what: str) -> float:
    if value < -_NEGATIVE_TOL:
        raise ArithmeticError(
            f"{what} slack {value:.3e} below -{_NEGATIVE_TOL}: quadrature failure"
        )
    return value


def xi_renyi(params: ModelParams, n: int, alpha: float) -> XiResult:
    """Slack of the Rényi uncertainty relation at position order ``alpha``."""
    return _xi_slacks(params.omega, [(params.lam, alpha)], n, "renyi")[0]


def xi_tsallis(params: ModelParams, n: int, alpha: float) -> XiResult:
    """Slack of the Tsallis (Sobolev) uncertainty relation, 1/2 < alpha <= 1,
    through the entropic moments: (1 - a) T_a + 1 = W_a.  At alpha = 1 both
    sides coincide and the slack is exactly zero."""
    return _xi_slacks(params.omega, [(params.lam, alpha)], n, "tsallis")[0]


def _xi_slacks(omega: float, cells: list, n: int, kind: str) -> list[XiResult]:
    """The Rényi or Tsallis slack at each (lam, alpha) of ``cells``, alpha
    the position order: each side's ln W from one :func:`log_moments` call."""
    for _, alpha in cells:  # every order is checked before any is computed
        if kind == "renyi" and alpha == 1.0:
            raise ValueError("alpha = 1 is the Shannon case; the Rényi slack needs alpha != 1")
        if kind == "tsallis" and not (0.5 < alpha <= 1.0):
            raise ValueError(f"Tsallis slack requires 1/2 < alpha <= 1, got {alpha}")
        conjugate_order(alpha)  # raises for alpha <= 1/2
    live = [cell for cell in cells if cell[1] != 1.0]  # at alpha = 1 the Tsallis sides coincide
    position = log_moments(omega, live, n, "position")
    momentum = log_moments(omega, [(lam, conjugate_order(a)) for lam, a in live], n, "momentum")
    slacks = (_slack(a, *pos, mom[0], kind) for (_, a), pos, mom in zip(live, position, momentum))
    return [XiResult(0.0, "analytic") if a == 1.0 else next(slacks) for _, a in cells]


def _slack(alpha: float, log_w_pos: float, method: str, log_w_mom: float, kind: str) -> XiResult:
    """The slack at one order from its position ln W and engine and the conjugate momentum ln W."""
    beta = conjugate_order(alpha)
    if kind == "tsallis":
        left = (alpha / math.pi) ** (1.0 / (4.0 * alpha)) * math.exp(log_w_pos / (2.0 * alpha))
        right = (beta / math.pi) ** (1.0 / (4.0 * beta)) * math.exp(log_w_mom / (2.0 * beta))
        return XiResult(_check_slack(left - right, "Tsallis"), method)
    r_pos = entropy_from_log_moment(log_w_pos, alpha, "renyi")
    r_mom = entropy_from_log_moment(log_w_mom, beta, "renyi")
    bound = (
        math.log(math.pi)
        + math.log(alpha) / (2.0 * alpha - 2.0)
        + math.log(beta) / (2.0 * beta - 2.0)
    )
    return XiResult(_check_slack(r_pos + r_mom - bound, "Rényi"), method)
