import math
import time
from fractions import Fraction

import numpy as np
import pytest

from darboux3 import (
    ModelParams,
    effective_frequency,
    entropic_moment,
    entropic_moment_special,
    entropy,
    expansion_coefficients,
    parity_nu,
)
from darboux3.position_entropy import (
    BudgetExceededError,
    _expansion_cached,
    _hermite_power,
    _moment_polynomial,
)
from darboux3.quadrature import entropic_moment_numeric
from darboux3.specfun import hermite

from conftest import gauss_hermite_nodes, reference_expansion, reference_moment_polynomial


class TestParity:
    @pytest.mark.parametrize("n,expect", [(0, 0), (7, 1), (12, 0), (1, 1)])
    def test_values(self, n, expect):
        assert parity_nu(n) == expect


def _hermite_even_rational(order, y_sq):
    """H_order(z) for even order with z^2 = y_sq, exact rational arithmetic."""
    g_prev, g = Fraction(1), Fraction(2)  # H_0; H_1 / z
    if order == 0:
        return g_prev
    for k in range(1, order):
        if k % 2 == 0:
            g_prev, g = g, 2 * g - 2 * k * g_prev
        else:
            g_prev, g = g, 2 * y_sq * g - 2 * k * g_prev
    return g


def _hermite_reduced_rational(n, y_sq):
    """H_n(z) = z^(n mod 2) * G_n(z^2); returns the rational G_n."""
    g_prev, g = Fraction(1), Fraction(2)
    if n == 0:
        return g_prev
    for k in range(1, n):
        if k % 2 == 0:
            g_prev, g = g, 2 * g - 2 * k * g_prev
        else:
            g_prev, g = g, 2 * y_sq * g - 2 * k * g_prev
    return g


class TestHermitePower:
    @pytest.mark.parametrize("n", range(0, 13))
    @pytest.mark.parametrize("alpha", [1, 2, 3])
    def test_reproduces_hermite_power(self, n, alpha):
        """sum_m q_m y^(2m) equals H_n(y)^(2 alpha) exactly at rational y^2."""
        q = _hermite_power(n, alpha)
        assert len(q) == alpha * n + 1
        assert all(isinstance(q_m, int) for q_m in q)
        rng = np.random.default_rng(7 + 13 * n + alpha)
        for _ in range(20):
            y_sq = Fraction(int(rng.integers(1, 500)), int(rng.integers(1, 20)))
            if n % 2 == 0:
                target = _hermite_even_rational(n, y_sq) ** (2 * alpha)
            else:
                target = y_sq**alpha * _hermite_reduced_rational(n, y_sq) ** (2 * alpha)
            assert sum(q_m * y_sq**m for m, q_m in enumerate(q)) == target


class TestMomentPolynomial:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 33, 60])
    @pytest.mark.parametrize("alpha", [1, 2, 3, 5])
    def test_moment_polynomial_matches_expansion_route(self, n, alpha):
        # the Gaussian-moment sum and the route through the c_j agree exactly
        got = _moment_polynomial(n, alpha)
        assert got == reference_moment_polynomial(n, alpha)
        assert all(isinstance(p_k, Fraction) for p_k in got)


class TestBudgetGuard:
    def test_moment_path_rejects_large_n_fast(self):
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            entropic_moment(ModelParams(1.0, 0.4), 3000, 2)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("n,alpha", [(3000, 2), (1000, 5)])
    def test_both_paths_reject_the_same_input(self, n, alpha):
        with pytest.raises(BudgetExceededError):
            _moment_polynomial(n, alpha)
        with pytest.raises(BudgetExceededError):
            expansion_coefficients(n, alpha, alpha)


class TestExpansionCoefficients:
    def test_ground_state_is_delta(self):
        co = expansion_coefficients(0, 3, 3)
        assert co.nu == 0
        assert co.c_exact == (1, 0, 0, 0)

    def test_first_excited_reproduces_square(self):
        # H_1(y)^2 = 4 y^2 exactly: coefficients (1/2, -1)
        co = expansion_coefficients(1, 1, 1)
        assert co.c_exact == (Fraction(1, 2), -1)
        assert co.A == 4

    def test_projection_oracle_n3_alpha2(self):
        # project H_3(sqrt(Om) x)^4 onto H_(2j)(sqrt(2 Om) x) by Gauss-Hermite
        params = ModelParams(1.0, 0.4)
        om = effective_frequency(params, 3)
        alpha = 2
        co = expansion_coefficients(3, alpha, 6)
        x, w = gauss_hermite_nodes(9.0, 120)
        t = x * math.sqrt(alpha * om)  # integration variable of the projection
        target = hermite(3, math.sqrt(om) * x) ** (2 * alpha)
        amp = co.A * alpha ** (-alpha * co.nu)
        for j in range(7):
            h = hermite(2 * j, t)
            num = float(w @ (target * h * np.exp(-t * t) * math.sqrt(alpha * om)))
            den = math.sqrt(math.pi) * 2.0 ** (2 * j) * math.factorial(2 * j)
            series_coeff = num / den
            expect = amp * float(co.c_exact[j]) / ((-1.0) ** j * 2.0 ** (2 * j) * math.factorial(j))
            assert series_coeff == pytest.approx(expect, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("n", range(0, 7))
    @pytest.mark.parametrize("alpha", [1, 2, 3])
    def test_reconstruction_exact(self, n, alpha):
        """The truncated series with j_max = alpha n + 5 reproduces
        H_n(y)^(2 alpha) identically (exact rational evaluation; the series
        terminates at j = alpha n)."""
        co = expansion_coefficients(n, alpha, alpha * n + 5)
        nu = co.nu
        m_cap = (n - nu) // 2
        rng = np.random.default_rng(42 + n + alpha)
        # exact rational c_j: rebuild via the same contract values
        a_exact = Fraction(2) ** (2 * alpha * n) * Fraction(math.factorial(m_cap)) ** (
            2 * alpha
        )
        for _ in range(50):
            y_sq = Fraction(int(rng.integers(1, 500)), int(rng.integers(1, 20)))
            if n % 2 == 0:
                target = _hermite_even_rational(n, y_sq) ** (2 * alpha)
            else:
                target = y_sq**alpha * _hermite_reduced_rational(n, y_sq) ** (2 * alpha)
            # series: A alpha^(-alpha nu) sum_j c_j/((-1)^j 2^(2j) j!) H_2j(sqrt(alpha) y)
            total = Fraction(0)
            for j in range(len(co.c_exact)):
                h2j = _hermite_even_rational(2 * j, alpha * y_sq)
                coeff = Fraction((-1) ** j) * Fraction(2) ** (2 * j) * math.factorial(j)
                total += co.c_exact[j] / coeff * h2j
            series = a_exact * total / Fraction(alpha) ** (alpha * nu)
            rel = abs(float(series - target)) / max(abs(float(target)), 1e-300)
            assert rel < 1e-8

    def test_termination(self):
        co = expansion_coefficients(4, 2, 13)
        assert all(c == 0 for c in co.c_exact[9:])

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            expansion_coefficients(20, 3, 60, budget=10)

    def test_cache_transparency(self):
        a = expansion_coefficients(5, 2, 7)
        _expansion_cached.cache_clear()
        b = expansion_coefficients(5, 2, 7)
        assert a.c_exact == b.c_exact
        assert a.A == b.A

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 33, 60])
    @pytest.mark.parametrize("alpha", [1, 2, 3, 5])
    def test_integer_arithmetic_matches_fraction_loop(self, n, alpha):
        # one common denominator, the same exact rationals
        for j_max in (alpha, alpha + 4):
            got = expansion_coefficients(n, alpha, j_max).c_exact
            assert got == reference_expansion(n, alpha, j_max)
            assert all(isinstance(c, Fraction) for c in got)


class TestEntropicMoment:
    def test_order_one_is_normalisation(self):
        for lam in (0.0, 0.4, 1.9):
            for n in (0, 2, 9):
                assert entropic_moment(ModelParams(1.0, lam), n, 1) == pytest.approx(
                    1.0, abs=1e-13
                )

    def test_ground_state_harmonic_disequilibrium(self, harmonic):
        assert entropic_moment(harmonic, 0, 2) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), rel=1e-14
        )

    def test_quadrature_oracle_sample(self, deformed):
        for n, alpha in [(0, 2), (3, 2), (3, 3), (8, 3)]:
            w_num = entropic_moment_numeric(deformed, n, alpha, "position")
            assert entropic_moment(deformed, n, alpha) == pytest.approx(w_num, rel=1e-9)
        for n in (30, 60):
            for lam in (0.0, 30.0, 1000.0):
                p = ModelParams(1.0, lam)
                for alpha in (2, 3):
                    w_num = entropic_moment_numeric(p, n, alpha, "position")
                    assert entropic_moment(p, n, alpha) == pytest.approx(w_num, rel=1e-11)

    def test_rejects_non_integer(self, deformed):
        with pytest.raises(ValueError):
            entropic_moment(deformed, 2, 1.5)


class TestSpecialCases:
    def test_both_closed_form(self, harmonic):
        assert entropic_moment_special(harmonic, 0, 3, "both") == pytest.approx(
            1.0 / (math.pi * math.sqrt(3.0)), rel=1e-14
        )

    def test_ground_matches_general(self, deformed):
        assert entropic_moment_special(deformed, 0, 2, "ground") == pytest.approx(
            entropic_moment(deformed, 0, 2), rel=1e-12
        )

    def test_harmonic_matches_general(self, harmonic):
        assert entropic_moment_special(harmonic, 2, 2, "harmonic") == pytest.approx(
            entropic_moment(harmonic, 2, 2), rel=1e-12
        )

    def test_case_consistency_guards(self, deformed, harmonic):
        with pytest.raises(ValueError):
            entropic_moment_special(deformed, 0, 2, "both")
        with pytest.raises(ValueError):
            entropic_moment_special(deformed, 1, 2, "ground")
        with pytest.raises(ValueError):
            entropic_moment_special(deformed, 1, 2, "harmonic")
        with pytest.raises(ValueError):
            entropic_moment_special(harmonic, 1, 2, "nonsense")

    @pytest.mark.parametrize("alpha", [2, 3, 4])
    def test_general_collapses_to_special(self, alpha):
        p0 = ModelParams(1.0, 0.0)
        for n in (0, 1, 4, 9):
            assert entropic_moment(p0, n, alpha) == pytest.approx(
                entropic_moment_special(p0, n, alpha, "harmonic"), rel=1e-12
            )
        pd = ModelParams(1.0, 0.7)
        assert entropic_moment(pd, 0, alpha) == pytest.approx(
            entropic_moment_special(pd, 0, alpha, "ground"), rel=1e-12
        )


def _renyi_expanded(params, n, alpha):
    """The published four-term Rényi expansion, assembled independently of
    the log-moment implementation (test-side formula)."""
    om = effective_frequency(params, n)
    co = expansion_coefficients(n, alpha, alpha)
    m = n + 0.5
    eta_sum = 0.0
    for k in range(alpha + 1):
        # (-k)_j = (-1)^j k! / (k - j)!
        inner = sum(
            float(co.c_exact[j])
            * (-1) ** j * math.factorial(k) / math.factorial(k - j)
            / math.factorial(j)
            for j in range(k + 1)
        )
        eta_sum += (
            math.comb(alpha, k)
            * (params.lam / (alpha * om)) ** k
            * math.exp(math.lgamma(k + 0.5))
            * inner
        )
    log_a = math.log(co.A)
    return (
        0.5 * math.log(math.pi / om)
        + (alpha * n * math.log(2.0) + 0.5 * math.log(alpha)) / (alpha - 1.0)
        + alpha / (alpha - 1.0) * math.log1p(m * params.lam / om)
        + (
            log_a
            - alpha * math.log(math.factorial(n))
            - 0.5 * math.log(math.pi)
            - alpha * co.nu * math.log(alpha)
            + math.log(eta_sum)
        )
        / (1.0 - alpha)
    )


class TestRenyiTsallis:
    def test_harmonic_ground_published(self, harmonic):
        assert entropy(harmonic, 0, 2, "position", "renyi") == pytest.approx(0.919, abs=1.5e-3)
        exact = 0.5 * math.log(math.pi) + 0.5 * math.log(2.0)
        assert entropy(harmonic, 0, 2, "position", "renyi") == pytest.approx(exact, abs=1e-14)

    def test_deformed_ground_published(self, deformed):
        assert entropy(deformed, 0, 2, "position", "renyi") == pytest.approx(1.201, abs=1.5e-3)

    @pytest.mark.parametrize("lam,n,alpha", [(0.0, 0, 2), (0.4, 0, 2), (0.4, 7, 3), (1.3, 12, 2)])
    def test_matches_expanded_form(self, lam, n, alpha):
        p = ModelParams(1.0, lam)
        assert entropy(p, n, alpha, "position", "renyi") == pytest.approx(
            _renyi_expanded(p, n, alpha), abs=1e-12
        )

    def test_tsallis_published(self, harmonic, deformed):
        assert entropy(harmonic, 0, 2, "position", "tsallis") == pytest.approx(
            1.0 - 1.0 / math.sqrt(2.0 * math.pi), rel=1e-13
        )
        assert entropy(deformed, 0, 2, "position", "tsallis") == pytest.approx(0.699, abs=1.5e-3)
        assert entropy(deformed, 20, 2, "position", "tsallis") == pytest.approx(0.942, abs=1.5e-3)

    def test_tsallis_consistent_with_moment(self, deformed):
        for n, alpha in [(0, 2), (5, 3)]:
            w = entropic_moment(deformed, n, alpha)
            assert entropy(deformed, n, alpha, "position", "tsallis") == pytest.approx(
                (1.0 - w) / (alpha - 1.0), rel=1e-13
            )

    def test_order_monotonicity(self):
        for lam in (0.0, 0.5, 2.0):
            p = ModelParams(1.0, lam)
            for n in range(21):
                for kind in ("renyi", "tsallis"):
                    assert entropy(p, n, 2, "position", kind) >= entropy(p, n, 3, "position", kind)

    def test_tsallis_bounded(self):
        for lam in (0.0, 0.4, 2.0, 20.0):
            p = ModelParams(1.0, lam)
            for n in (0, 3, 15):
                for alpha in (2, 3, 4):
                    assert entropy(p, n, alpha, "position", "tsallis") < 1.0 / (alpha - 1.0)


class TestDisequilibrium:
    def test_harmonic_ground(self, harmonic):
        assert entropic_moment(harmonic, 0, 2) == pytest.approx(
            math.sqrt(1.0 / (2.0 * math.pi)), rel=1e-14
        )

    def test_ground_closed_form_and_quadrature(self, deformed):
        lam = deformed.lam
        om = effective_frequency(deformed, 0)
        closed = (
            math.sqrt(om)
            * (3 * lam**2 + 8 * lam * om + 16 * om**2)
            / (4.0 * math.sqrt(2.0 * math.pi) * (lam + 2 * om) ** 2)
        )
        assert entropic_moment(deformed, 0, 2) == pytest.approx(closed, rel=1e-13)
        assert entropic_moment(deformed, 0, 2) == pytest.approx(
            entropic_moment_numeric(deformed, 0, 2.0, "position"), rel=1e-9
        )

    def test_harmonic_first_excited_quadrature(self, harmonic):
        assert entropic_moment(harmonic, 1, 2) == pytest.approx(
            entropic_moment_numeric(harmonic, 1, 2.0, "position"), rel=1e-10
        )

    def test_alpha2_closed_form(self, deformed):
        # dedicated closed form with c_(0,2), c_(1,2), c_(2,2)
        for n in (0, 1, 4, 9):
            om = effective_frequency(deformed, n)
            co = expansion_coefficients(n, 2, 2)
            c = [float(cj) for cj in co.c_exact]
            lam = deformed.lam
            ratio = lam / om
            closed = (
                math.sqrt(om / math.pi)
                / (2.0**n * math.factorial(n)) ** 2
                / (1.0 + (n + 0.5) * ratio) ** 2
                * co.A
                / 2.0 ** (2 * co.nu + 0.5)
                * (
                    c[0]
                    + ratio * (c[0] - c[1]) / 2.0
                    + ratio**2 * 3.0 * (c[0] - 2.0 * c[1] + c[2]) / 16.0
                )
            )
            assert entropic_moment(deformed, n, 2) == pytest.approx(closed, rel=1e-12)


class TestNonMonotoneDip:
    @pytest.mark.parametrize("n", [13, 20])
    def test_interior_local_minimum(self, n):
        """Entropy vs lam decreases before increasing again: an interior
        local minimum exists on (0, 0.3) for n >= 13 (for n < 16 it sits
        above the lam = 0 value; the phenomenon is local)."""
        lams = np.linspace(0.0, 0.3, 121)
        vals = np.array(
            [entropy(ModelParams(1.0, float(l)), n, 2, "position", "renyi") for l in lams]
        )
        d = np.diff(vals)
        falls = np.where(d < 0)[0]
        assert falls.size > 0, "no decreasing segment found"
        k = falls[-1] + 1  # end of the last decreasing run
        assert 0 < k < len(vals) - 1
        assert vals[k] < vals[k - 1]
        assert np.max(vals[k:]) > vals[k]
