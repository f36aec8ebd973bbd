"""Exact omega scaling: rho(x; omega, lam) = sqrt(omega) rho(sqrt(omega) x; 1, lam/omega).

Energies and effective frequencies therefore scale by omega, position
entropies shift by -ln(omega)/2 and momentum entropies by +ln(omega)/2.
"""

import math

import pytest

from darboux3 import (
    ModelParams,
    effective_frequency,
    energy,
    entropy,
    shannon_numeric,
)

TOL = 1e-12


@pytest.fixture(params=[(2.5, 0.7, 1), (0.4, 0.3, 3)], ids=["omega2.5", "omega0.4"])
def pair(request):
    omega, lam, n = request.param
    return ModelParams(omega, lam), ModelParams(1.0, lam / omega), n, 0.5 * math.log(omega)


def test_spectrum_scales_by_omega(pair):
    params, unit, n, _ = pair
    assert energy(params, n) == pytest.approx(params.omega * energy(unit, n), abs=TOL)
    assert effective_frequency(params, n) == pytest.approx(
        params.omega * effective_frequency(unit, n), abs=TOL
    )


def test_position_renyi_shift(pair):
    params, unit, n, half_log = pair
    for alpha in (2, 1.5):  # closed form, then quadrature
        assert entropy(params, n, alpha, "position", "renyi") == pytest.approx(
            entropy(unit, n, alpha, "position", "renyi") - half_log, abs=TOL
        )


def test_momentum_entropy_shift(pair):
    params, unit, n, half_log = pair
    assert entropy(params, n, 0.7, "momentum", "renyi") == pytest.approx(
        entropy(unit, n, 0.7, "momentum", "renyi") + half_log, abs=TOL
    )
    assert shannon_numeric(params, n, "momentum") == pytest.approx(
        shannon_numeric(unit, n, "momentum") + half_log, abs=TOL
    )
