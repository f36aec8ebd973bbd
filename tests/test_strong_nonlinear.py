import math

import numpy as np
import pytest

from darboux3 import (
    ModelParams,
    approx_momentum_closed,
    approx_wavefunction,
    bifurcation_threshold,
    density_critical_points,
    effective_frequency,
    g_series_transform,
    harmonic_weight,
    momentum_profile,
    norm_constant,
)
from darboux3.specfun import hermite
from conftest import gauss_tail_nodes, gauss_tail_quad, phi_transform_exact, published_g_series


def _phi_transform_reference(params, n, ps):
    """Numeric FT of the approximant phi_n: dense-panel trig quadrature
    oracle, independent of the closed forms, as one (momenta x nodes)
    phase-matrix sum."""
    om = effective_frequency(params, n)
    L = math.sqrt((95.0 + 2.0 * n * math.log(2.0 + 60.0)) / om)
    trig = np.cos if n % 2 == 0 else np.sin
    x, w = gauss_tail_nodes(0.0, L, panels=700)
    vals = trig(np.outer(ps, x)) @ (w * approx_wavefunction(params, n, x))
    vals *= math.sqrt(2.0 / math.pi)
    return vals + 0j if n % 2 == 0 else -1j * vals


class TestHarmonicWeight:
    def test_lam_zero(self, harmonic):
        for n in (0, 3, 11):
            split = harmonic_weight(harmonic, n)
            assert split.f == 1.0
            assert split.complement == 0.0

    def test_published_ground_value(self, deformed):
        om = effective_frequency(deformed, 0)
        assert harmonic_weight(deformed, 0).f == pytest.approx(
            1.0 / (1.0 + 0.2 / om), rel=1e-14
        )
        assert harmonic_weight(deformed, 0).f == pytest.approx(0.80391, abs=1e-4)

    def test_exact_split_against_quadrature(self):
        for lam in (0.1, 1.0, 10.0):
            p = ModelParams(1.0, lam)
            for n in (0, 3, 10):
                om = effective_frequency(p, n)
                nsq = norm_constant(p, n) ** 2
                L = math.sqrt((95.0 + 4.0 * n * math.log(2.0 + 40.0)) / om)
                part0 = 2.0 * gauss_tail_quad(
                    lambda x: nsq * np.exp(-om * x * x) * hermite(n, math.sqrt(om) * x) ** 2,
                    0.0, L, panels=600,
                )
                part2 = 2.0 * lam * gauss_tail_quad(
                    lambda x: nsq * x * x * np.exp(-om * x * x)
                    * hermite(n, math.sqrt(om) * x) ** 2,
                    0.0, L, panels=600,
                )
                split = harmonic_weight(p, n)
                assert part0 == pytest.approx(split.f, abs=1e-9)
                assert part2 == pytest.approx(split.complement, abs=1e-9)

    def test_monotone_decreasing_in_n_and_lam(self):
        lams = (0.2, 0.6, 1.5, 4.0)
        for lam in lams:
            fs = [harmonic_weight(ModelParams(1.0, lam), n).f for n in range(12)]
            assert all(a > b for a, b in zip(fs[:-1], fs[1:]))
        for n in (0, 2, 8):
            fs = [harmonic_weight(ModelParams(1.0, lam), n).f for lam in lams]
            assert all(a > b for a, b in zip(fs[:-1], fs[1:]))


class TestApproxWavefunction:
    def test_zero_at_origin(self, deformed):
        assert approx_wavefunction(deformed, 4, 0.0) == 0.0

    def test_norm_equals_complement(self):
        for lam, n in ((0.5, 0), (10.0, 2), (100.0, 3), (2.0, 200)):
            p = ModelParams(1.0, lam)
            om = effective_frequency(p, n)
            L = math.sqrt((95.0 + 4.0 * n * math.log(42.0)) / om)
            val = 2.0 * gauss_tail_quad(
                lambda x: approx_wavefunction(p, n, x) ** 2, 0.0, L, panels=600
            )
            assert val == pytest.approx(harmonic_weight(p, n).complement, abs=1e-10)

    def test_l2_error_improves_with_lam(self):
        def l2_err(lam):
            p = ModelParams(1.0, lam)
            om = effective_frequency(p, 0)
            L = math.sqrt(95.0 / om)
            return 2.0 * gauss_tail_quad(
                lambda x: (
                    np.asarray(
                        __import__("darboux3").density_position(p, 0, x)
                    )
                    - approx_wavefunction(p, 0, x) ** 2
                )
                ** 2,
                0.0, L, panels=600,
            )

        assert l2_err(100.0) < l2_err(10.0)


class TestClosedMomentumForms:
    def test_odd_vanishes_at_zero(self, deformed):
        assert approx_momentum_closed(deformed, 1, 0.0) == 0.0

    def test_unsupported_order(self, deformed):
        with pytest.raises(ValueError):
            approx_momentum_closed(deformed, 4, 0.5)

    @pytest.mark.parametrize("lam,n", [(100.0, 0), (10.0, 1), (10.0, 2), (10.0, 3)])
    def test_matches_numeric_transform_of_phi(self, lam, n):
        p = ModelParams(1.0, lam)
        om = effective_frequency(p, n)
        ps = np.linspace(0.0, 4.0 * math.sqrt(om) + 2.0, 40)
        closed = np.atleast_1d(approx_momentum_closed(p, n, ps))
        ref = _phi_transform_reference(p, n, ps)
        scale = np.max(np.abs(closed))
        assert np.max(np.abs(closed - ref)) / scale < 1e-6

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_parity_purity(self, n):
        p = ModelParams(1.0, 10.0)
        ps = np.linspace(-3.0, 3.0, 31)
        vals = np.atleast_1d(approx_momentum_closed(p, n, ps))
        if n % 2 == 0:
            assert np.max(np.abs(vals.imag)) == 0.0
        else:
            assert np.max(np.abs(vals.real)) == 0.0

    def test_density_squared_matches_gamma_at_strong_coupling(self):
        # |closed form|^2 tracks the exact momentum density within a few
        # percent relative L1 error once f is small
        p = ModelParams(1.0, 10.0)
        prof = momentum_profile(p, 2)
        approx = np.abs(np.atleast_1d(approx_momentum_closed(p, 2, prof.p))) ** 2
        l1 = float(prof.weights @ np.abs(prof.gamma - approx))
        assert l1 / float(prof.weights @ prof.gamma) < 0.05


class TestSeriesEngine:
    def test_consistency_at_origin(self, deformed):
        a = g_series_transform(deformed, 0, 0.0)
        b = approx_momentum_closed(deformed, 0, 0.0)
        assert abs(a - b) <= 1e-12 * abs(b)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_matches_closed_forms(self, n):
        p = ModelParams(1.0, 10.0)
        om = effective_frequency(p, n)
        ps = np.linspace(0.0, 4.0 * math.sqrt(om) + 2.0, 25)
        closed = np.atleast_1d(approx_momentum_closed(p, n, ps))
        series = np.atleast_1d(g_series_transform(p, n, ps))
        scale = np.max(np.abs(closed))
        assert np.max(np.abs(closed - series)) / scale < 1e-10

    def test_example_point(self):
        p = ModelParams(1.0, 10.0)
        a = g_series_transform(p, 2, 1.1)
        b = approx_momentum_closed(p, 2, 1.1)
        assert abs(a - b) <= 1e-10 * abs(b)

    def test_n5_against_exact_oracle(self):
        p = ModelParams(1.0, 10.0)
        om = effective_frequency(p, 5)
        ps = np.linspace(0.0, 4.0 * math.sqrt(om) + 2.0, 25)
        series = np.atleast_1d(g_series_transform(p, 5, ps))
        ref = phi_transform_exact(p, 5, ps)
        assert np.max(np.abs(series - ref)) / np.max(np.abs(ref)) < 1e-13

    @pytest.mark.parametrize("n", [0, 1, 3, 8, 20, 50])
    def test_wide_domain_against_exact_oracle(self, n):
        # P = p / sqrt(Omega); the sign of two momenta checks the parity
        big_p = np.array([0, 0.5, 1, 2, 3, 5, 7, 9, 12, -15, 20, 30, 45, -74, 100.0])
        inner = np.abs(big_p) <= 12.0
        for lam in (0.05, 10.0, 1000.0):
            p = ModelParams(1.0, lam)
            ps = big_p * math.sqrt(effective_frequency(p, n))
            got = np.atleast_1d(g_series_transform(p, n, ps))
            ref = phi_transform_exact(p, n, ps)
            err = np.abs(got - ref)
            assert np.max(err[inner]) <= 1e-13 * np.max(np.abs(ref[inner]))
            assert np.max(err[~inner] / np.abs(ref[~inner])) <= 2e-9

    @pytest.mark.parametrize("lam", [0.05, 10.0, 1000.0])
    def test_matches_published_series(self, lam):
        p = ModelParams(1.0, lam)
        for n in range(9):
            ps = np.linspace(-6.0, 6.0, 25) * math.sqrt(effective_frequency(p, n))
            got = np.atleast_1d(g_series_transform(p, n, ps))
            ref = published_g_series(p, n, ps)
            assert np.max(np.abs(got - ref)) <= 1e-8 * np.max(np.abs(ref))

    def test_odd_order_is_positive_zero_at_origin(self, deformed):
        v = g_series_transform(deformed, 5, 0.0)
        assert v == 0.0 and math.copysign(1.0, v.imag) == 1.0

    def test_negative_order(self, deformed):
        with pytest.raises(ValueError):
            g_series_transform(deformed, -1, 0.3)


class TestApproximationConvergence:
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_l1_error_strictly_decreasing_in_lam(self, n):
        errs = []
        for lam in (5.0, 10.0, 50.0, 100.0):
            p = ModelParams(1.0, lam)
            prof = momentum_profile(p, n)
            approx = np.abs(np.atleast_1d(approx_momentum_closed(p, n, prof.p))) ** 2
            errs.append(float(prof.weights @ np.abs(prof.gamma - approx)))
        assert all(a > b for a, b in zip(errs[:-1], errs[1:]))


class TestCriticalPoints:
    def test_single_maximum_below_threshold(self):
        pts = density_critical_points(ModelParams(1.0, 0.5), 0)
        assert [(c.x, c.kind) for c in pts] == [(0.0, "maximum")]

    def test_splitting_above_threshold(self):
        pts = density_critical_points(ModelParams(1.0, 1.0), 0)
        kinds = [c.kind for c in pts]
        assert kinds == ["maximum", "minimum", "maximum"]
        om = effective_frequency(ModelParams(1.0, 1.0), 0)
        expect = math.sqrt((1.0 - om) / om)
        assert pts[-1].x == pytest.approx(expect, rel=1e-12)

    def test_undulation_at_threshold_n2(self):
        lam_c = 5.0 / math.sqrt(26.0)
        pts = density_critical_points(ModelParams(1.0, lam_c), 2)
        origin = [c for c in pts if c.x == 0.0][0]
        assert origin.kind == "undulation"

    def test_n2_above_threshold_structure(self):
        pts = density_critical_points(ModelParams(1.0, 2.0), 2)
        kinds = [c.kind for c in pts]
        assert kinds == ["maximum", "maximum", "minimum", "maximum", "maximum"]

    def test_numeric_matches_closed_form(self):
        closed = density_critical_points(ModelParams(1.0, 2.0), 2)
        numeric = density_critical_points(ModelParams(1.0, 2.0), 2, numeric=True)
        closed_x = sorted(c.x for c in closed)
        numeric_x = sorted(c.x for c in numeric if c.kind != "minimum" or c.x == 0.0)
        for cx in closed_x:
            assert min(abs(cx - nx) for nx in numeric_x) < 1e-8

    def test_unsupported_order_needs_numeric(self, deformed):
        with pytest.raises(ValueError):
            density_critical_points(deformed, 1)
        pts = density_critical_points(deformed, 1, numeric=True)
        assert any(c.kind == "maximum" for c in pts)

    def test_maxima_count_jumps_at_threshold(self):
        lam_c = bifurcation_threshold(ModelParams(1.0, 0.0), 0)
        below = density_critical_points(ModelParams(1.0, lam_c * (1.0 - 1e-9)), 0)
        above = density_critical_points(ModelParams(1.0, lam_c * (1.0 + 1e-9)), 0)
        assert sum(c.kind == "maximum" for c in below) == 1
        assert sum(c.kind == "maximum" for c in above) == 2


class TestThresholds:
    def test_n0(self):
        assert bifurcation_threshold(ModelParams(1.0, 0.0), 0) == pytest.approx(
            1.0 / math.sqrt(2.0), abs=1e-10
        )

    def test_n2(self):
        assert bifurcation_threshold(ModelParams(1.0, 0.0), 2) == pytest.approx(
            5.0 / math.sqrt(26.0), abs=1e-10
        )

    def test_omega_scaling(self):
        assert bifurcation_threshold(ModelParams(2.0, 0.0), 0) == pytest.approx(
            math.sqrt(2.0), abs=1e-10
        )

    def test_unsupported(self, deformed):
        with pytest.raises(ValueError):
            bifurcation_threshold(deformed, 1)
