import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from darboux3.specfun import (
    ScaledValue,
    bisect_sign_change,
    dawson,
    hermite,
    hermite_sign_logabs,
    hermite_zeros,
    log_gamma,
    pochhammer,
    scaled_sum,
)

from conftest import gauss_hermite_nodes

mp.mp.dps = 30


def _scaled(x: float) -> ScaledValue:
    sign = 0 if x == 0.0 else (1 if x > 0 else -1)
    return ScaledValue.from_log(sign, math.log(abs(x)) if x else 0.0)


class TestScaledValue:
    def test_zero_round_trip(self):
        assert _scaled(0.0).sign == 0
        assert _scaled(0.0).to_real() == 0.0

    @pytest.mark.parametrize("x", [1e-120, -3.7, 1.0, 0.02, -7.3e99])
    def test_round_trip(self, x):
        assert _scaled(x).to_real() == pytest.approx(x, rel=1e-14)

    @pytest.mark.parametrize("x", [1e-300, 2.5e299, -1e300])
    def test_round_trip_extreme(self, x):
        # |ln x| ~ 690 pins the float log at ~8e-14 relative; 1e-13 is the
        # attainable faithful bound at the edges of the double range
        assert _scaled(x).to_real() == pytest.approx(x, rel=1e-13)

    def test_scaled_sum_cancellation(self):
        vals = [_scaled(v) for v in (1e120, -1e120, 3.25)]
        assert scaled_sum(vals).to_real() == pytest.approx(3.25, rel=1e-10)


class TestHermite:
    def test_h0(self):
        assert hermite(0, 3.7) == 1.0

    def test_h1(self):
        assert hermite(1, 2.0) == 4.0

    def test_h3_via_recurrence_oracle(self):
        # explicit expansion 8 x^3 - 12 x at x = 1
        assert hermite(3, 1.0) == pytest.approx(8.0 - 12.0, rel=1e-14)

    def test_recurrence_identity(self):
        rng = np.random.default_rng(11)
        xs = rng.uniform(-10, 10, 40)
        for n in range(1, 30):
            lhs = hermite(n + 1, xs) - 2 * xs * hermite(n, xs) + 2 * n * hermite(n - 1, xs)
            scale = np.maximum(np.abs(hermite(n + 1, xs)), 1.0)
            assert np.max(np.abs(lhs) / scale) < 1e-12

    def test_orthogonality_gauss_hermite(self):
        x, w = gauss_hermite_nodes(8.0, 64)
        for m in range(13):
            for n in range(m, 13):
                val = float(w @ (hermite(m, x) * hermite(n, x) * np.exp(-x * x)))
                expect = math.sqrt(math.pi) * 2.0**n * math.factorial(n) if m == n else 0.0
                norm = math.sqrt(math.pi) * 2.0**n * math.factorial(n)
                assert abs(val - expect) / norm < 1e-10


class TestHermiteScaled:
    """hermite_sign_logabs: the recurrence rescaled at every step."""

    def test_h0(self):
        sign, log_abs = hermite_sign_logabs(0, 0.0)
        assert (sign[0], log_abs[0]) == (1, 0.0)

    def test_h2_at_zero(self):
        sign, log_abs = hermite_sign_logabs(2, 0.0)
        assert sign[0] == -1
        assert log_abs[0] == pytest.approx(math.log(2.0), abs=1e-15)

    def test_matches_plain_at_order_25(self):
        sign, log_abs = hermite_sign_logabs(25, 1.5)
        assert sign[0] * math.exp(log_abs[0]) == pytest.approx(hermite(25, 1.5), rel=1e-12)

    @pytest.mark.parametrize("n,x", [(50, 0.3), (50, 4.2), (80, 2.0)])
    def test_large_order_against_mpmath(self, n, x):
        sign, log_abs = hermite_sign_logabs(n, x)
        ref = mp.hermite(n, mp.mpf(x))
        assert sign[0] == int(mp.sign(ref))
        assert log_abs[0] == pytest.approx(float(mp.log(abs(ref))), rel=1e-12)


class TestLogGamma:
    def test_at_one(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_at_half(self):
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-14)

    def test_factorial(self):
        assert log_gamma(11.0) == pytest.approx(math.log(3628800.0), abs=1e-13)

    def test_accuracy_grid(self):
        for x in np.concatenate([np.linspace(0.05, 3, 40), np.linspace(3, 40, 40)]):
            assert abs(log_gamma(float(x)) - float(mp.loggamma(x))) < 1e-13

    def test_domain(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-2.5)


class TestPochhammer:
    def test_vanishing_rule(self):
        assert pochhammer(-3.0, 5).sign == 0

    def test_empty_product(self):
        for z in (-7.0, 0.0, 2.31):
            assert pochhammer(z, 0) == ScaledValue(1, 0.0)

    def test_direct_product(self):
        assert pochhammer(0.5, 3).to_real() == pytest.approx(0.5 * 1.5 * 2.5, rel=1e-14)

    def test_negative_integer_boundary(self):
        # (-5)_5 = (-5)(-4)(-3)(-2)(-1): the zero rule only bites for -z < a
        assert pochhammer(-5.0, 5).to_real() == pytest.approx(-120.0, rel=1e-12)

    def test_composition(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            z = rng.uniform(-10, 10)
            a, b = rng.integers(0, 21), rng.integers(0, 21)
            lhs = pochhammer(z, int(a + b))
            left, right = pochhammer(z, int(a)), pochhammer(z + a, int(b))
            assert lhs.sign == left.sign * right.sign
            if lhs.sign != 0:
                assert lhs.log_mag == pytest.approx(left.log_mag + right.log_mag, abs=1e-10)


class TestHermiteZeros:
    @pytest.mark.parametrize("n", [0, 1, 6, 25])
    def test_sorted_read_only_sign_changes(self, n):
        z = hermite_zeros(n)
        assert len(z) == n and not z.flags.writeable
        assert np.all(np.diff(z) > 0.0)
        below = np.sign(hermite(n, z - 1e-9 * np.maximum(np.abs(z), 1.0)))
        above = np.sign(hermite(n, z + 1e-9 * np.maximum(np.abs(z), 1.0)))
        assert np.all(below * above < 0.0)


class TestBisectSignChange:
    def test_converges_to_rounding(self):
        assert bisect_sign_change(math.cos, 0.0, 3.0, 1.0) == pytest.approx(
            math.pi / 2.0, abs=2e-15
        )

    def test_stops_at_xtol(self):
        root = bisect_sign_change(math.cos, 0.0, 3.0, 1.0, xtol=1e-3)
        assert abs(root - math.pi / 2.0) < 1e-3

    def test_exact_zero_at_midpoint(self):
        calls = []

        def f(x):
            calls.append(x)
            return x - 1.0

        assert bisect_sign_change(f, 0.0, 2.0, -1.0) == 1.0
        assert calls == [1.0]


class TestDawson:
    def test_at_zero(self):
        assert dawson(0.0) == 0.0

    def test_odd(self):
        for x in (0.3, 1.7, 6.9, 12.0):
            assert dawson(-x) == -dawson(x)

    def test_argmax_against_integral_oracle(self):
        # maximise the defining-integral quadrature over a fine grid
        def oracle(x):
            val, _ = quad(lambda t: math.exp(t * t), 0.0, x, limit=200)
            return math.exp(-x * x) * val

        grid = np.linspace(0.87, 0.98, 221)
        vals = [oracle(float(x)) for x in grid]
        k = int(np.argmax(vals))
        assert grid[k] == pytest.approx(0.9241388730, abs=1e-3)
        # the true maximum is flat: a 5e-4 grid undershoots it by <= 5e-8
        assert vals[k] == pytest.approx(0.5410442246, abs=5e-8)
        assert dawson(float(grid[k])) == pytest.approx(vals[k], abs=1e-12)
        assert dawson(0.9241388730) == pytest.approx(0.5410442246, abs=1e-9)

    def test_against_mpmath_grid(self):
        for x in np.linspace(-10, 10, 101):
            ref = float(0.5 * mp.sqrt(mp.pi) * mp.exp(-x * x) * mp.erfi(x))
            assert abs(dawson(float(x)) - ref) < 1e-12

    def test_ode_residual(self):
        h = 1e-5
        for x in np.linspace(-4, 4, 41):
            deriv = (dawson(float(x + h)) - dawson(float(x - h))) / (2 * h)
            assert abs(deriv - (1.0 - 2.0 * x * dawson(float(x)))) < 1e-8
