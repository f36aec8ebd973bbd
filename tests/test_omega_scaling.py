"""Exact omega scaling: rho(x; omega, lam) = sqrt(omega) rho(sqrt(omega) x; 1, lam/omega).

Energies and effective frequencies therefore scale by omega, position
entropies shift by -ln(omega)/2, momentum entropies by +ln(omega)/2, and
the density's critical points scale as x_c(omega, lam) = x_c(1, lam/omega) / sqrt(omega).
"""

import math

import pytest

from conftest import extremum_roots

from darboux3 import (
    ModelParams,
    density_critical_points,
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


@pytest.mark.parametrize("omega", [0.4, 2.5, 7.0])
def test_critical_points_scale(omega):
    # 1e-13 relative, widened by the rounding widths of roots of E next to
    # the splitting of the central maximum (lam / omega = 1 at omega = 0.4)
    root = math.sqrt(omega)
    for n in range(31):
        for lam in (0.0, 0.05, 0.4, 3.0, 40.0):
            params, unit = ModelParams(omega, lam), ModelParams(1.0, lam / omega)
            got = density_critical_points(params, n, numeric=True)
            want = density_critical_points(unit, n, numeric=True)
            assert [c.kind for c in got] == [c.kind for c in want], (n, lam)
            width = dict(zip(*extremum_roots(params, n)))
            unit_width = dict(zip(*extremum_roots(unit, n)))
            for c, d in zip(got, want):
                tol = 1e-13 * abs(c.x) + width.get(abs(c.x), 0.0)
                tol += unit_width.get(abs(d.x), 0.0) / root
                assert abs(c.x - d.x / root) <= tol, (n, lam, c, d)
