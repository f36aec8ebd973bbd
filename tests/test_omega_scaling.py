"""Exact omega scaling: rho(x; omega, lam) = sqrt(omega) rho(sqrt(omega) x; 1, lam/omega).

Energies and effective frequencies therefore scale by omega, position
entropies shift by -ln(omega)/2, momentum entropies by +ln(omega)/2, and
the density's critical points scale as x_c(omega, lam) = x_c(1, lam/omega) / sqrt(omega).

Every length of the momentum layout (the cut, the trapezoid step, the panel
widths) is a multiple of sqrt(omega) at fixed (kappa, n), kappa = lam / omega,
so a profile at (omega, omega kappa) has the nodes of its (1, kappa) twin
times sqrt(omega), and its entropies and transforms follow the twin's to a
few roundings: 1e-13 for the orders tested here.
"""

import math

import numpy as np
import pytest

from conftest import extremum_roots

from darboux3 import (
    ModelParams,
    density_critical_points,
    effective_frequency,
    energy,
    entropy,
    fourier_transform,
    g_series_transform,
    momentum_profile,
    shannon_numeric,
)

TOL = 1e-13


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


TWIN_OMEGAS = (1e-3, 0.37, 0.4, 2.5, 16.0, 1e4)
TWIN_MOMENTA = np.array([0.0, 0.3, 1.1, 2.7, 5.0])  # in units of sqrt(omega)


@pytest.mark.parametrize("kappa", [0.0, 0.05, 0.7, 2.0, 30.0])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 7])
def test_momentum_layout_is_the_twins_scaled(n, kappa):
    # (omega, omega kappa) against its (1, kappa) twin: the same node count,
    # the cut and the nodes scaled by sqrt(omega), the momentum entropies
    # shifted by ln(omega) / 2 and the transforms scaled by omega^(-1/4)
    unit = ModelParams(1.0, kappa)
    twin = momentum_profile(unit, n)
    cut = twin.grid.half_width
    alphas = (0.5, 0.7, 2.0, 3.0)
    renyi = [entropy(unit, n, a, "momentum", "renyi") for a in alphas]
    shannon = shannon_numeric(unit, n, "momentum")
    ft = fourier_transform(unit, n, None, TWIN_MOMENTA)
    series = g_series_transform(unit, n, TWIN_MOMENTA) if kappa > 0.0 else None
    for omega in TWIN_OMEGAS:
        params, root, half_log = ModelParams(omega, omega * kappa), math.sqrt(omega), 0.5 * math.log(omega)
        prof = momentum_profile(params, n)
        assert len(prof.p) == len(twin.p), omega
        assert prof.grid.half_width / root == pytest.approx(cut, rel=1e-15, abs=0.0), omega
        assert np.max(np.abs(prof.p / root - twin.p)) <= 1e-11 * cut, omega
        for a, want in zip(alphas, renyi):
            assert abs(entropy(params, n, a, "momentum", "renyi") - want - half_log) <= TOL, (omega, a)
        assert abs(shannon_numeric(params, n, "momentum") - shannon - half_log) <= TOL, omega
        p = root * TWIN_MOMENTA
        assert np.max(np.abs(omega**0.25 * fourier_transform(params, n, None, p) - ft)) <= 1e-14, omega
        if series is not None:
            got = omega**0.25 * g_series_transform(params, n, p)
            assert np.max(np.abs(got - series)) <= 1e-14, omega
