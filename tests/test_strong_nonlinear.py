import math
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest

from darboux3 import (
    ModelParams,
    approx_momentum_closed,
    approx_wavefunction,
    bifurcation_threshold,
    density_critical_points,
    density_position,
    effective_frequency,
    g_series_transform,
    harmonic_weight,
    momentum_profile,
    norm_constant,
)
from darboux3 import cli, specfun, strong_nonlinear
from darboux3.specfun import hermite, hermite_zeros
from conftest import (
    dense_scan_brackets,
    extremum_roots,
    gauss_tail_nodes,
    gauss_tail_quad,
    phi_transform_exact,
    published_g_series,
    reference_bisect,
)


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
        # outer maxima, density zeros at +-1/sqrt(2 Omega), split inner maxima
        p = ModelParams(1.0, 2.0)
        pts = density_critical_points(p, 2)
        kinds = [c.kind for c in pts]
        assert kinds == ["maximum", "minimum", "maximum", "minimum", "maximum", "minimum", "maximum"]
        zero = 1.0 / math.sqrt(2.0 * effective_frequency(p, 2))
        assert pts[-2].x == pytest.approx(zero, abs=1e-9)
        assert pts[1].x == -pts[-2].x

    def test_numeric_matches_closed_form(self):
        for lam in (0.0, 0.4, 2.0, 30.0):
            closed = density_critical_points(ModelParams(1.0, lam), 2)
            numeric = density_critical_points(ModelParams(1.0, lam), 2, numeric=True)
            assert [c.kind for c in numeric] == [c.kind for c in closed]
            for c, d in zip(closed, numeric):
                assert abs(c.x - d.x) < 1e-8

    @pytest.mark.parametrize("lam", [0.0, 0.4, 30.0])
    def test_density_zeros_are_scaled_hermite_zeros(self, lam):
        # the minima at density zeros are y_k / sqrt(Omega) exactly, with no
        # rounding, for the closed form (n = 2) and the numeric path
        params = ModelParams(1.0, lam)
        for n, numeric in ((2, False), (2, True), (5, True), (8, True)):
            y = hermite_zeros(n)
            want = y[y > 0.0] / math.sqrt(effective_frequency(params, n))
            pts = density_critical_points(params, n, numeric=numeric)
            got = [c.x for c in pts if c.x > 0.0 and c.kind == "minimum"]
            zeros = [x for x in got if np.min(np.abs(want - x)) == 0.0]
            assert zeros == sorted(want.tolist())
            assert [c.x for c in pts if c.x < 0.0 and c.x in -want] == sorted((-want).tolist())

    @pytest.mark.parametrize("omega", [1.0, 0.37, 2.5])
    def test_library_picks_the_engine(self, omega, monkeypatch):
        # the numeric engine for every n but 0 and 2, which have closed forms
        cases = [ModelParams(omega, lam) for lam in (0.0, 0.05, 0.4, 2.0, 30.0)]
        for params in cases:
            for n in (1, 3, 4, 5, 7, 12):
                want = density_critical_points(params, n, numeric=True)
                assert density_critical_points(params, n) == want, (params, n)

        def numeric(params, n):
            raise AssertionError(f"numeric engine for n = {n}")

        monkeypatch.setattr(strong_nonlinear, "_critical_points_numeric", numeric)
        for params in cases:
            for n in (0, 2):
                assert any(c.kind == "maximum" for c in density_critical_points(params, n))
        with pytest.raises(AssertionError, match="numeric engine for n = 2"):
            density_critical_points(cases[0], 2, numeric=True)

    def test_maxima_count_jumps_at_threshold(self):
        lam_c = bifurcation_threshold(ModelParams(1.0, 0.0), 0)
        below = density_critical_points(ModelParams(1.0, lam_c * (1.0 - 1e-9)), 0)
        above = density_critical_points(ModelParams(1.0, lam_c * (1.0 + 1e-9)), 0)
        assert sum(c.kind == "maximum" for c in below) == 1
        assert sum(c.kind == "maximum" for c in above) == 2


def _rho_second_derivative_mp(omega, lam, n, x, dps=50):
    """rho_n''(x) / N^2 by 50-digit mpmath differentiation of
    (1 + lam x^2) e^(-Omega x^2) H_n(sqrt(Omega) x)^2."""
    with mp.workdps(dps):
        m = mp.mpf(n) + mp.mpf(1) / 2
        lam_m, omega_m = mp.mpf(lam), mp.mpf(omega)
        om = omega_m**2 / (mp.sqrt((lam_m * m) ** 2 + omega_m**2) + lam_m * m)
        rho = lambda t: (1 + lam_m * t * t) * mp.exp(-om * t * t) * mp.hermite(n, mp.sqrt(om) * t) ** 2
        return mp.diff(rho, mp.mpf(x), 2)


def _richardson_curvature(omega, lam, n):
    """Five-point central rho''(0), Richardson-extrapolated in the step."""
    q = ModelParams(omega, lam)
    h = 0.01 / math.sqrt(effective_frequency(q, n))

    def d2(s):
        f = lambda t: density_position(q, n, t)
        return (-f(2 * s) + 16.0 * f(s) - 30.0 * f(0.0) + 16.0 * f(-s) - f(-2 * s)) / (12.0 * s * s)

    return (16.0 * d2(h / 2.0) - d2(h)) / 15.0


class TestCriticalPointKinds:
    """Kinds against independent oracles: mpmath rho'' and the ordering."""

    def test_origin_at_24_is_minimum(self):
        # lam = 1 > 49 Omega_24: rho''(0) > 0 although maxima sit at +-0.0177
        pts = density_critical_points(ModelParams(1.0, 1.0), 24, numeric=True)
        i = [c.x for c in pts].index(0.0)
        assert [c.kind for c in pts[i - 1 : i + 2]] == ["maximum", "minimum", "maximum"]
        assert pts[i + 1].x == pytest.approx(0.01767, abs=1e-5)
        assert _rho_second_derivative_mp(1.0, 1.0, 24, 0) > 0
        assert _rho_second_derivative_mp(1.0, 1.0, 24, pts[i + 1].x) < 0

    def test_seeded_points_against_mpmath(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            n = int(rng.integers(1, 16))
            lam = float(10.0 ** rng.uniform(-1.5, 1.5))
            pts = [c for c in density_critical_points(ModelParams(1.0, lam), n, numeric=True)
                   if c.x > 0.0]
            c = pts[int(rng.integers(len(pts)))]
            d2 = _rho_second_derivative_mp(1.0, lam, n, c.x)
            assert (d2 < 0) == (c.kind == "maximum"), (n, lam, c)

    @pytest.mark.parametrize("lam", [0.05, 0.4, 1.0, 2.0, 10.0, 30.0])
    def test_kinds_alternate_outermost_maximum(self, lam):
        for n in range(31):
            pts = density_critical_points(ModelParams(1.0, lam), n, numeric=True)
            kinds = [c.kind for c in pts if c.x >= 0.0]
            assert kinds[-1] == "maximum", n
            assert all(a != b for a, b in zip(kinds, kinds[1:])), (n, kinds)
            assert "undulation" not in kinds

    @pytest.mark.parametrize("omega", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [0, 2])
    def test_finite_difference_curvature_flips_at_threshold(self, omega, n):
        lam_c = bifurcation_threshold(ModelParams(omega, 0.0), n)
        assert _richardson_curvature(omega, lam_c * (1.0 - 1e-6), n) < 0.0
        assert _richardson_curvature(omega, lam_c * (1.0 + 1e-6), n) > 0.0


def _extremum_mp(omega, lam, n, x):
    """E(x) of the module docstring at 40 digits, Omega included."""
    with mp.workdps(40):
        m = mp.mpf(n) + mp.mpf(1) / 2
        lam_m, omega_m, x = mp.mpf(lam), mp.mpf(omega), mp.mpf(x)
        om = omega_m**2 / (mp.sqrt((lam_m * m) ** 2 + omega_m**2) + lam_m * m)
        s = mp.sqrt(om)
        h_nm1 = mp.hermite(n - 1, s * x) if n else 0
        return 4 * n * s * (lam_m * x * x + 1) * h_nm1 - 2 * x * (
            lam_m * (om * x * x - 1) + om
        ) * mp.hermite(n, s * x)


class TestCriticalPointRefinement:
    """The roots of E from bracketed Newton steps (strong_nonlinear module
    docstring) against 40-digit roots, the rounding bound and the bisection
    the package ran before."""

    @pytest.mark.parametrize("omega", [1.0, 2.5])
    @pytest.mark.parametrize("lam", [0.05, 1.0, 30.0, 1000.0])
    @pytest.mark.parametrize("n", [1, 5, 15, 30, 60])
    def test_roots_and_bound_against_mpmath(self, n, lam, omega):
        params = ModelParams(omega, lam)
        roots, width = extremum_roots(params, n)
        assert len(roots)
        e, _, bound = strong_nonlinear._extremum_function(params, n, roots, newton=True)
        _, _, scale = strong_nonlinear.hermite_pair_scaled(
            n, math.sqrt(effective_frequency(params, n)) * roots
        )
        for x, w, e_x, b_x, k in zip(roots, width, e, bound, scale.tolist()):
            with mp.workdps(40):
                r = mp.findroot(lambda t: _extremum_mp(omega, lam, n, t), mp.mpf(x), verify=False)
                exact = _extremum_mp(omega, lam, n, x) * mp.ldexp(1, -k)
            # 1e-13 relative, or the root's rounding width near the splitting
            assert abs(float(r) - x) <= max(1e-13 * x, w), (x, float(r))
            # E's float error at the float root, the rounding of Omega included
            assert abs(float(exact - e_x)) <= b_x, (x, e_x, float(exact), b_x)

    def test_sweep_converges_within_budget(self, monkeypatch):
        # past the budget the refinement raises; every case here takes at
        # most 6 of its 8 calls of E
        calls = []
        newton = strong_nonlinear.bracketed_newton

        def counted(f, *args):
            calls.append(0)

            def f_counted(z):
                calls[-1] += 1
                return f(z)

            return newton(f_counted, *args)

        monkeypatch.setattr(strong_nonlinear, "bracketed_newton", counted)
        for omega in (1.0, 0.37, 2.5):
            for lam in (0.01, 0.4, 1.0, 10.0, 1000.0):
                for n in range(61):
                    density_critical_points(ModelParams(omega, lam), n, numeric=True)
        assert len(calls) == 3 * 5 * 61 and max(calls) <= 6

    def test_spent_budget_names_the_critical_points(self, monkeypatch):
        monkeypatch.setattr(specfun, "_NEWTON_CALLS", 1)
        with pytest.raises(ArithmeticError, match="density critical points did not reach"):
            density_critical_points(ModelParams(1.0, 1.0), 5, numeric=True)

    @pytest.mark.parametrize("lam", [0.05, 1.0, 30.0])
    def test_agrees_with_reference_bisect(self, lam):
        for n in (1, 4, 9, 20, 40):
            params = ModelParams(1.0, lam)
            roots, width = extremum_roots(params, n)
            e = lambda t: float(strong_nonlinear._extremum_function(params, n, np.array([t]))[0])
            for x, w in zip(roots, width):
                a, b = x * (1.0 - 1e-7), x * (1.0 + 1e-7)
                assert e(a) * e(b) < 0.0
                assert abs(reference_bisect(e, a, b, e(a)) - x) <= max(1e-13 * x, w), (n, x)


SWEEP_OMEGAS = (1.0, 0.37, 2.5)


def _split_lams(omega):
    """Both splitting thresholds (n = 0 and 2) times 1 -+ 1e-9, as
    (lam, n, lam is past the threshold) triples."""
    return [(bifurcation_threshold(ModelParams(omega, 0.0), n) * (1.0 + s * 1e-9), n, s > 0)
            for n in (0, 2) for s in (-1, 1)]


@lru_cache(maxsize=None)
def _sweep(omega):
    """(lam, n, knots, critical points) over ten lam in [0, 1000], the
    splitting thresholds among them, and n <= 60; knots are 0 and the
    positive scaled Hermite zeros."""
    lams = [0.0, 0.05, 0.4, 2.0, 30.0, 1000.0] + [lam for lam, _, _ in _split_lams(omega)]
    out = []
    for lam in lams:
        params = ModelParams(omega, lam)
        for n in range(61):
            y = hermite_zeros(n)
            knots = np.append(0.0, y[y > 0.0] / math.sqrt(effective_frequency(params, n)))
            out.append((lam, n, knots, density_critical_points(params, n, numeric=True)))
    return out


class TestScanGrid:
    """The scan of E sized by the Hermite zeros (strong_nonlinear module
    docstring): one root per gap, the dense scan's counts and kinds, exact
    zeros on the scan and the count check."""

    def test_grid_holds_the_zeros(self):
        params = ModelParams(1.0, 0.4)
        om = effective_frequency(params, 7)
        y = hermite_zeros(7)
        knots = y[y >= 0.0] / math.sqrt(om)
        grid = strong_nonlinear._scan_grid(om, 7, knots, False)
        assert np.all(np.diff(grid) > 0.0) and grid[-1] >= strong_nonlinear._reach(om, 7)
        assert np.isin(knots, grid).all()
        assert np.diff(np.searchsorted(grid, knots)).tolist() == [16] * 3

    @pytest.mark.parametrize("omega", SWEEP_OMEGAS)
    def test_one_root_per_gap(self, omega):
        # every gap between knots and the outer gap hold one root; (0, z_1)
        # for even n holds one exactly when the origin is a minimum
        for lam, n, knots, pts in _sweep(omega):
            roots = [c.x for c in pts if c.x > 0.0 and c.x not in knots]
            counts = np.histogram(roots, np.append(knots, np.inf))[0]
            origin = strong_nonlinear._origin_kind(ModelParams(omega, lam), n)
            first = int(n % 2 == 1 or origin == "minimum")
            assert counts.tolist() == [first] + [1] * (len(knots) - 1), (lam, n)

    @pytest.mark.parametrize("omega", SWEEP_OMEGAS)
    def test_counts_and_kinds_match_dense_scan(self, omega):
        # the dense scan starts at half of one of its 400 (n + 2) steps, so
        # it misses the inner maxima just past a splitting, at ~4e-5 / sqrt(Omega)
        past_split = {(lam, n) for lam, n, past in _split_lams(omega) if past}
        for lam, n, knots, pts in _sweep(omega):
            got = [(c.x, c.kind) for c in pts if c.x > 0.0 and c.x not in knots]
            want = dense_scan_brackets(ModelParams(omega, lam), n)
            if (lam, n) in past_split:
                x, kind = got.pop(0)
                om = effective_frequency(ModelParams(omega, lam), n)
                assert kind == "maximum" and x * math.sqrt(om) < 1e-4, (lam, n)
                assert all(x < a for a, _, _ in want), (lam, n)
            assert [k for _, k in got] == [k for _, _, k in want], (lam, n)
            assert all(a < x < b for (x, _), (a, b, _) in zip(got, want)), (lam, n)

    def test_exact_zero_on_the_scan_is_a_root(self):
        # at lam = 0, n = 1 the maximum x = 1 is a scan point where E is exactly 0
        params = ModelParams(1.0, 0.0)
        grid = strong_nonlinear._scan_grid(1.0, 1, np.array([0.0]), False)
        assert strong_nonlinear._extremum_function(params, 1, grid)[grid == 1.0].tolist() == [0.0]
        pts = density_critical_points(params, 1, numeric=True)
        assert [(c.x, c.kind) for c in pts] == [(-1.0, "maximum"), (0.0, "minimum"), (1.0, "maximum")]

    def test_short_scan_raises(self, monkeypatch, capsys):
        # a scan that stops at the last zero misses the outer maximum
        monkeypatch.setattr(strong_nonlinear, "_reach", lambda om, n: 0.0)
        with pytest.raises(ArithmeticError, match=r"1 roots .* not 2, for omega=1.0, lam=0.4, n=3$"):
            density_critical_points(ModelParams(1.0, 0.4), 3, numeric=True)
        assert cli.main(["critical-points", "--lambda", "0.4", "--n", "3"]) == 3
        assert "numeric failure in darboux3.strong_nonlinear: scan bracketed 1 roots" in (
            capsys.readouterr().err
        )


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

    @pytest.mark.parametrize("n", [0, 2])
    def test_residual_below_rounding_over_omega_decades(self, n):
        # lam - (2n + 1) Omega_n(lam) has slope >= 1, so |lam_c - root| is
        # at most the residual, which stays at rounding (<= 6.6e-16 lam_c)
        for e in range(-150, 151):
            omega = 10.0**e
            lam_c = bifurcation_threshold(ModelParams(omega, 0.0), n)
            residual = lam_c - (2 * n + 1) * effective_frequency(ModelParams(omega, lam_c), n)
            assert abs(residual) <= 1e-15 * lam_c, (omega, residual)

    def test_tiny_omega(self):
        # omega^2 underflows here, but the residual is taken at omega = 1
        assert bifurcation_threshold(ModelParams(1e-200, 0.0), 0) == 1e-200 / math.sqrt(2.0)

    @pytest.mark.parametrize("omega", [1.0, 1e-200, 1e150])
    @pytest.mark.parametrize("n", [0, 2])
    def test_perturbed_frequency_fails_the_residual(self, monkeypatch, n, omega):
        exact = strong_nonlinear.effective_frequency
        monkeypatch.setattr(
            strong_nonlinear, "effective_frequency", lambda p, m: exact(p, m) * (1.0 + 1e-8)
        )
        with pytest.raises(ArithmeticError, match="residual check"):
            bifurcation_threshold(ModelParams(omega, 0.0), n)

    @pytest.mark.parametrize("omega, n", [(1e-310, 0), (2e-308, 2)])
    def test_closed_form_outside_normal_range_is_a_numeric_failure(self, omega, n):
        # omega / sqrt(2) and 5 omega / sqrt(26) are subnormal there, so not
        # to full precision
        with pytest.raises(ArithmeticError, match="normal-range"):
            bifurcation_threshold(ModelParams(omega, 0.0), n)

    def test_no_overflow_at_the_largest_omega(self):
        # 5 omega overflows from omega ~ 3.6e307 on; the power-of-two
        # prescale keeps every bit of 5 omega / sqrt(26) where it did not
        big = np.finfo(float).max
        lam_c = bifurcation_threshold(ModelParams(big, 0.0), 2)
        assert lam_c == pytest.approx(big * (5.0 / math.sqrt(26.0)), rel=5e-16)
        for omega in 10.0 ** np.linspace(0.0, 307.0, 401):
            want = 5.0 * omega / math.sqrt(26.0)
            assert bifurcation_threshold(ModelParams(float(omega), 0.0), 2) == want
