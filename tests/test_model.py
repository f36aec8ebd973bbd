import math
import warnings

import numpy as np
import pytest

from darboux3 import (
    ModelParams,
    density_position,
    effective_frequency,
    energy,
    norm_constant,
    wavefunction,
)
from darboux3.quadrature import entropic_moment_numeric
from darboux3.specfun import hermite


class TestParams:
    def test_rejects_bad_omega(self):
        with pytest.raises(ValueError):
            ModelParams(omega=0.0)
        with pytest.raises(ValueError):
            ModelParams(omega=-1.0)

    def test_rejects_negative_lam(self):
        with pytest.raises(ValueError):
            ModelParams(lam=-0.1)


class TestEnergy:
    def test_harmonic_limit(self, harmonic):
        assert energy(harmonic, 3) == pytest.approx(3.5, abs=1e-14)

    def test_published_values(self):
        assert energy(ModelParams(1.0, 0.1), 0) == pytest.approx(0.47562, abs=1e-5)
        assert energy(ModelParams(1.0, 0.3), 2) == pytest.approx(1.25, abs=1e-12)

    def test_increasing_in_n(self):
        for lam in (0.0, 0.1, 0.7, 2.0):
            p = ModelParams(1.0, lam)
            es = [energy(p, n) for n in range(31)]
            assert all(a < b for a, b in zip(es[:-1], es[1:]))


class TestEffectiveFrequency:
    def test_harmonic(self, harmonic):
        for n in (0, 4, 17):
            assert effective_frequency(harmonic, n) == 1.0

    def test_published_values(self):
        assert effective_frequency(ModelParams(1.0, 0.2), 2) == pytest.approx(0.61803, abs=1e-5)
        assert effective_frequency(ModelParams(1.0, 0.3), 2) == pytest.approx(0.5, abs=1e-12)

    def test_consistency_with_energy(self):
        for lam in np.arange(0.0, 2.01, 0.1):
            p = ModelParams(1.0, float(lam))
            for n in range(31):
                om = effective_frequency(p, n)
                resid = om * om + 2.0 * p.lam * energy(p, n) - p.omega**2
                assert abs(resid) < 1e-14 * p.omega**2

    def test_decreasing_in_n_and_lam(self):
        lams = [0.1, 0.5, 1.0, 2.0]
        for lam in lams:
            p = ModelParams(1.0, lam)
            oms = [effective_frequency(p, n) for n in range(31)]
            assert all(a > b for a, b in zip(oms[:-1], oms[1:]))
        for n in (0, 3, 15):
            oms = [effective_frequency(ModelParams(1.0, lam), n) for lam in lams]
            assert all(a > b for a, b in zip(oms[:-1], oms[1:]))

    def test_small_lam_limit(self):
        # leading deviation is lam (n + 1/2)^2 ~ 3e-13 here
        p = ModelParams(1.0, 1e-14)
        assert energy(p, 5) == pytest.approx(5.5, abs=1e-12)
        assert effective_frequency(p, 5) == pytest.approx(1.0, abs=1e-12)

    def test_bounded_by_omega(self):
        for lam in (0.0, 0.4, 3.0):
            p = ModelParams(2.0, lam)
            om = effective_frequency(p, 4)
            assert om <= p.omega + 1e-15
            assert (om == p.omega) == (lam == 0.0)
            assert energy(p, 4) == (4.5 * p.omega if lam == 0.0 else energy(p, 4))


    def test_past_the_square_range(self):
        # omega^2 overflows above about 1.34e154; there Omega is taken at
        # omega 2^-k in [1/2, 1) and scaled back by 2^k: omega itself at
        # lam = 0, and homogeneous of degree 1 in (omega, lam) to within the
        # rounding of the platform's pow
        assert effective_frequency(ModelParams(1e200, 0.0), 0) == 1e200
        assert energy(ModelParams(1e200, 0.0), 0) == 5e199
        for lam, n in [(0.4, 3), (30.0, 7), (1.6170604092478382, 44)]:
            want = effective_frequency(ModelParams(1.0, lam), n)
            for k in (512, 600, 1000):
                big = effective_frequency(ModelParams(math.ldexp(1.0, k), math.ldexp(lam, k)), n)
                assert abs(math.ldexp(big, -k) / want - 1.0) <= 2.0 * np.finfo(float).eps


class TestNormalisation:
    def test_gaussian_ground_state(self, harmonic):
        assert norm_constant(harmonic, 0) == pytest.approx(math.pi**-0.25, rel=1e-14)

    def test_harmonic_excited(self, harmonic):
        expect = math.pi**-0.25 / math.sqrt(2.0**4 * math.factorial(4))
        assert norm_constant(harmonic, 4) == pytest.approx(expect, rel=1e-14)

    def test_density_normalisation_quadrature(self):
        for lam in (0.0, 0.4, 2.0):
            p = ModelParams(1.0, lam)
            for n in (0, 1, 4, 11, 20):
                total = entropic_moment_numeric(p, n, 1.0, "position")
                assert total == pytest.approx(1.0, abs=1e-10)

    def test_lam04_ground_state_normalised(self, deformed):
        assert entropic_moment_numeric(deformed, 0, 1.0, "position") == pytest.approx(
            1.0, abs=1e-10
        )


class TestWavefunction:
    def test_odd_state_node(self, deformed):
        assert wavefunction(deformed, 1, 0.0) == 0.0

    def test_ground_state_at_origin(self, harmonic):
        assert wavefunction(harmonic, 0, 0.0) == pytest.approx(math.pi**-0.25, rel=1e-14)

    def test_componentwise_recomputation(self, deformed):
        n, x = 2, 1.3
        om = effective_frequency(deformed, n)
        expect = (
            norm_constant(deformed, n)
            * math.sqrt(1.0 + deformed.lam * x * x)
            * math.exp(-0.5 * om * x * x)
            * hermite(n, math.sqrt(om) * x)
        )
        assert wavefunction(deformed, n, x) == pytest.approx(expect, rel=1e-12)

    def test_parity(self, deformed):
        xs = np.linspace(0.1, 6.0, 23)
        for n in (0, 1, 2, 5):
            left = wavefunction(deformed, n, -xs)
            right = wavefunction(deformed, n, xs)
            np.testing.assert_array_equal(left, (-1.0) ** n * right)

    def test_underflow_is_exact_zero(self, harmonic):
        assert wavefunction(harmonic, 0, 60.0) == 0.0

    @pytest.mark.parametrize("x", [1.7e308, -1.7e308, 1e200])
    def test_overflowing_hermite_argument_is_exact_zero(self, x):
        # sqrt(Omega) x = 2 x passes the double range at 1.7e308
        params = ModelParams(4.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert wavefunction(params, 3, x) == 0.0
            assert density_position(params, 3, x) == 0.0
            vals = wavefunction(params, 3, np.array([x, 0.3]))
        assert vals[0] == 0.0 and vals[1] == wavefunction(params, 3, 0.3) != 0.0

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_argument_raises(self, x):
        params = ModelParams(4.0, 0.0)
        for f in (wavefunction, density_position):
            with pytest.raises(ValueError, match="non-finite"):
                f(params, 3, x)
            with pytest.raises(ValueError, match="non-finite"):
                f(params, 3, np.array([0.5, x]))


class TestDensity:
    def test_ground_state_origin(self, harmonic):
        assert density_position(harmonic, 0, 0.0) == pytest.approx(
            1.0 / math.sqrt(math.pi), rel=1e-14
        )

    def test_node(self, deformed):
        assert density_position(deformed, 1, 0.0) == 0.0

    def test_even(self, deformed):
        xs = np.linspace(0.2, 5.0, 17)
        np.testing.assert_array_equal(
            density_position(deformed, 3, xs), density_position(deformed, 3, -xs)
        )

    def test_zero_at_scaled_hermite_zeros(self, deformed):
        om = effective_frequency(deformed, 2)
        z = math.sqrt(0.5)  # H_2 zero
        val = density_position(deformed, 2, z / math.sqrt(om))
        peak = density_position(deformed, 2, 0.0)
        assert val < 1e-28 * peak

    def test_level_bounds(self, deformed):
        assert 0.0 < effective_frequency(deformed, 3) <= deformed.omega
        assert energy(deformed, 3) < 3.5
