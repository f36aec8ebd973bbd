import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from darboux3 import ModelParams, density_position, wavefunction
from darboux3.position_entropy import _poch_frac
from darboux3.specfun import (
    bisect_sign_change,
    dawson_vec,
    hermite,
    hermite_sign_logabs,
    hermite_zeros,
)

from conftest import gauss_hermite_nodes

mp.mp.dps = 30


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

    def test_rescaled_and_unscaled_elements_together(self):
        # |H_k| passes 1e120 at a different step k for each x, so in one
        # array some elements are rescaled while the others are not
        x = np.array([0.5, 12.0, 30.0])
        sign, log_abs = hermite_sign_logabs(300, x)
        assert np.all(log_abs > math.log(1e120))
        for s, la, xv in zip(sign, log_abs, x):
            ref = mp.hermite(300, mp.mpf(float(xv)))
            assert s == int(mp.sign(ref))
            assert la == pytest.approx(float(mp.log(abs(ref))), rel=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 5])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_argument_rejected(self, n, bad):
        with pytest.raises(ValueError, match="non-finite Hermite argument"):
            hermite_sign_logabs(n, bad)
        with pytest.raises(ValueError, match=f"x={bad}"):
            hermite_sign_logabs(n, np.array([0.5, bad, 2.0]))
        p = ModelParams(1.0, 0.4)
        for f in (wavefunction, density_position):
            with pytest.raises(ValueError, match="non-finite"):
                f(p, n, bad)
            with pytest.raises(ValueError, match="non-finite"):
                f(p, n, np.array([0.0, bad]))


class TestPochhammer:
    """_poch_frac, the package's one (exact) rising factorial."""

    def test_vanishing_rule(self):
        assert _poch_frac(Fraction(-3), 5) == 0

    def test_empty_product(self):
        for z in (Fraction(-7), Fraction(0), Fraction(231, 100)):
            assert _poch_frac(z, 0) == 1

    def test_direct_product(self):
        assert _poch_frac(Fraction(1, 2), 3) == Fraction(1, 2) * Fraction(3, 2) * Fraction(5, 2)

    def test_negative_integer_boundary(self):
        # (-5)_5 = (-5)(-4)(-3)(-2)(-1): the zero rule only bites for -z < a
        assert _poch_frac(Fraction(-5), 5) == -120

    def test_composition(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            z = Fraction(int(rng.integers(-1000, 1001)), 100)
            a, b = int(rng.integers(0, 21)), int(rng.integers(0, 21))
            assert _poch_frac(z, a + b) == _poch_frac(z, a) * _poch_frac(z + a, b)


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
        assert dawson_vec(0.0) == 0.0
        assert dawson_vec(np.array([0.0, -0.0])).tolist() == [0.0, 0.0]

    def test_odd(self):
        x = np.array([0.3, 1.7, 6.9, 12.0])
        assert np.array_equal(dawson_vec(-x), -dawson_vec(x))
        for v in x:
            assert dawson_vec(-v) == -dawson_vec(v)

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
        assert dawson_vec(float(grid[k])) == pytest.approx(vals[k], abs=1e-12)
        assert dawson_vec(0.9241388730) == pytest.approx(0.5410442246, abs=1e-9)

    def test_against_mpmath_grid(self):
        xs = np.linspace(-10, 10, 101)
        ref = [float(0.5 * mp.sqrt(mp.pi) * mp.exp(-x * x) * mp.erfi(x)) for x in xs]
        assert np.max(np.abs(dawson_vec(xs) - ref)) < 1e-12
        for x, r in zip(xs, ref):  # 0-d input takes the same path
            assert abs(dawson_vec(float(x)) - r) < 1e-12

    def test_ode_residual(self):
        h = 1e-5
        for x in np.linspace(-4, 4, 41):
            deriv = (dawson_vec(float(x + h)) - dawson_vec(float(x - h))) / (2 * h)
            assert abs(deriv - (1.0 - 2.0 * x * dawson_vec(float(x)))) < 1e-8
