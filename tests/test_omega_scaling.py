"""Exact omega scaling: rho(x; omega, lam) = sqrt(omega) rho(sqrt(omega) x; 1, lam/omega).

The library computes every quantity at the twin (1, kappa), kappa = lam / omega,
and scales it once: energies and effective frequencies by omega, densities by
sqrt(omega) at y = sqrt(omega) x, transforms by omega^(-1/4) at p / sqrt(omega),
critical points by omega^(-1/2), position entropies by -ln(omega)/2 and momentum
entropies by +ln(omega)/2.  So each quantity at omega equals its twin's times
the factor to within the rounding of the scaling itself: ``ULPS`` units in the
last place for a product or quotient, and for a shifted logarithm a few
roundings of the shift and of the twin's value (``_shift_tol``).  The ends of
the double range, omega = 1e-300, 1e300 and 1.7e308, hold the same way.
"""

import math

import numpy as np
import pytest

from darboux3 import (
    ModelParams,
    density_critical_points,
    density_position,
    effective_frequency,
    energy,
    entropic_moment_numeric,
    entropy,
    fourier_transform,
    g_series_transform,
    momentum_profile,
    shannon_numeric,
    wavefunction,
)
from darboux3 import quadrature

EPS = np.finfo(float).eps
ULPS = 4  # the scaled value is formed in its own order: a few roundings of one factor


def _assert_scaled(got, factor, twin):
    """``got`` is ``factor`` times ``twin`` to within ``ULPS`` roundings."""
    want = factor * np.asarray(twin)
    assert np.all(np.abs(got - want) <= ULPS * EPS * np.abs(want)), (got, want)


def _shift_tol(twin, shift):
    """A few roundings of a logarithm's twin value and its shift."""
    return ULPS * EPS * (abs(twin) + abs(shift))


@pytest.fixture(params=[(2.5, 0.7, 1), (0.4, 0.3, 3), (1e-300, 3e-301, 2), (1e300, 2e300, 2)],
                ids=["omega2.5", "omega0.4", "omega1e-300", "omega1e300"])
def pair(request):
    omega, lam, n = request.param
    return ModelParams(omega, lam), ModelParams(1.0, lam / omega), n, 0.5 * math.log(omega)


def test_spectrum_scales_by_omega(pair):
    params, unit, n, _ = pair
    _assert_scaled(energy(params, n), params.omega, energy(unit, n))
    _assert_scaled(effective_frequency(params, n), params.omega, effective_frequency(unit, n))


def test_states_scale_at_the_scaled_coordinate(pair):
    params, unit, n, _ = pair
    root = math.sqrt(params.omega)
    y = np.array([0.0, 0.3, 1.1, 2.7, 5.0, 9.0])
    x = y / root
    _assert_scaled(wavefunction(params, n, x), params.omega**0.25, wavefunction(unit, n, root * x))
    _assert_scaled(density_position(params, n, x), root, density_position(unit, n, root * x))


def test_position_renyi_shift(pair):
    params, unit, n, half_log = pair
    for alpha in (2, 1.5):  # closed form, then quadrature
        twin = entropy(unit, n, alpha, "position", "renyi")
        got = entropy(params, n, alpha, "position", "renyi")
        assert abs(got - (twin - half_log)) <= _shift_tol(twin, half_log), alpha


def test_momentum_entropy_shift(pair):
    params, unit, n, half_log = pair
    twin = entropy(unit, n, 0.7, "momentum", "renyi")
    assert abs(entropy(params, n, 0.7, "momentum", "renyi") - (twin + half_log)) <= _shift_tol(twin, half_log)
    twin = shannon_numeric(unit, n, "momentum")
    assert abs(shannon_numeric(params, n, "momentum") - (twin + half_log)) <= _shift_tol(twin, half_log)


@pytest.mark.parametrize("omega", [0.4, 2.5, 7.0, 1e300])
def test_critical_points_scale(omega):
    # the twin's points over sqrt(omega), bit for bit
    root = math.sqrt(omega)
    for n in range(31):
        for kappa in (0.0, 0.05, 0.4, 3.0, 40.0):
            got = density_critical_points(ModelParams(omega, omega * kappa), n, numeric=True)
            want = density_critical_points(ModelParams(1.0, omega * kappa / omega), n, numeric=True)
            assert [(c.x, c.kind) for c in got] == [(d.x / root, d.kind) for d in want], (n, kappa)


TWIN_OMEGAS = (1e-3, 0.37, 0.4, 2.5, 16.0, 1e4)
TWIN_MOMENTA = np.array([0.0, 0.3, 1.1, 2.7, 5.0])  # in units of sqrt(omega)


@pytest.mark.parametrize("kappa", [0.0, 0.05, 0.7, 2.0, 30.0])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 7])
def test_momentum_layout_is_the_twins_scaled(n, kappa):
    # (omega, omega kappa) against its (1, kappa) twin: the twin's profile,
    # nodes and weights times sqrt(omega) and densities over it; the
    # momentum entropies shifted by ln(omega) / 2 and the transforms scaled
    # by omega^(-1/4) at p / sqrt(omega)
    for omega in TWIN_OMEGAS:
        params = ModelParams(omega, omega * kappa)
        unit, root, half_log = ModelParams(1.0, params.lam / omega), math.sqrt(omega), 0.5 * math.log(omega)
        twin, prof = momentum_profile(unit, n), momentum_profile(params, n)
        assert prof.grid.points == twin.grid.points and prof.grid.half_width == root * twin.grid.half_width
        assert np.array_equal(prof.p, root * twin.p) and np.array_equal(prof.weights, root * twin.weights)
        assert np.array_equal(prof.gamma, twin.gamma / root)
        for a in (0.5, 0.7, 2.0, 3.0):
            want = entropy(unit, n, a, "momentum", "renyi")
            got = entropy(params, n, a, "momentum", "renyi")
            assert abs(got - want - half_log) <= _shift_tol(want, half_log), (omega, a)
        want = shannon_numeric(unit, n, "momentum")
        assert abs(shannon_numeric(params, n, "momentum") - want - half_log) <= _shift_tol(want, half_log)
        p = root * TWIN_MOMENTA
        _assert_scaled(fourier_transform(params, n, None, p), omega**-0.25, fourier_transform(unit, n, None, p / root))
        if kappa > 0.0:
            _assert_scaled(g_series_transform(params, n, p), omega**-0.25, g_series_transform(unit, n, p / root))


class TestEndsOfTheDoubleRange:
    """Values at omega = 1e-300 ... 1.7e308 are their twins' scaled, where the
    unscaled numerics lost them."""

    def test_density_at_small_omega(self):
        # y = sqrt(omega) x = 5.5: rho = sqrt(omega / pi) e^-30.25 ~ 4.11e-164,
        # where a clip of x at 1e100 gave the density at the origin
        got = density_position(ModelParams(1e-300, 0.0), 0, 5.5e150)
        assert got == pytest.approx(math.sqrt(1e-300 / math.pi) * math.exp(-30.25), rel=1e-13)

    @pytest.mark.parametrize("omega, lam, n, alpha, space", [
        (1.7e308, 0.0, 0, 2.0, "momentum"),
        (1e308, 0.0, 0, 2.0, "position"),
        (1e308, 0.0, 0, 2.5, "position"),
        (1e-300, 1e-300, 3, 0.7, "momentum"),
    ])
    def test_renyi_shift(self, omega, lam, n, alpha, space):
        shift = (0.5 if space == "momentum" else -0.5) * math.log(omega)
        twin = entropy(ModelParams(1.0, lam / omega), n, alpha, space, "renyi")
        got = entropy(ModelParams(omega, lam), n, alpha, space, "renyi")
        assert abs(got - (twin + shift)) <= _shift_tol(twin, shift)

    @pytest.mark.parametrize("omega, lam, n, alpha", [
        (1e-200, 0.0, 0, 2.0), (1e-266, 0.0, 0, 0.5), (1e-250, 1e-250, 2, 0.7),
    ])
    def test_momentum_moment(self, omega, lam, n, alpha):
        # W_alpha scales by omega^((1 - alpha) / 2); the twin's profile
        # integrates to 1 where the scaled-down one missed it by 3.85 and 11
        twin = entropic_moment_numeric(ModelParams(1.0, lam / omega), n, alpha, "momentum")
        got = entropic_moment_numeric(ModelParams(omega, lam), n, alpha, "momentum")
        assert got == pytest.approx(twin * omega ** ((1.0 - alpha) / 2.0), rel=1e-13)
        assert entropy(ModelParams(omega, lam), n, alpha, "momentum", "tsallis") == pytest.approx(
            (1.0 - got) / (alpha - 1.0), rel=1e-13)

    def test_critical_points(self):
        # Newton at omega = lam = 1e300 met no rounding bound; the twin's does
        got = density_critical_points(ModelParams(1e300, 1e300), 3)
        want = density_critical_points(ModelParams(1.0, 1.0), 3)
        assert [(c.x, c.kind) for c in got] == [(d.x / 1e150, d.kind) for d in want]


def test_omega_sweep_shares_one_profile():
    # lam / omega = 0.75 exactly at each omega: one profile, cached on kappa
    quadrature._profile_cached.cache_clear()
    try:
        for omega in (0.25, 0.5, 1.0, 2.0, 4.0, 1024.0):
            entropy(ModelParams(omega, 0.75 * omega), 2, 0.6, "momentum", "renyi")
        info = quadrature._profile_cached.cache_info()
    finally:
        quadrature._profile_cached.cache_clear()
    assert (info.misses, info.hits) == (1, 5)
