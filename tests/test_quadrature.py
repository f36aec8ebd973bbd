import math
import tracemalloc

import numpy as np
import pytest

from darboux3 import (
    GridSpec,
    ModelParams,
    density_position,
    effective_frequency,
    entropic_moment,
    entropic_moment_numeric,
    fourier_transform,
    integrate,
    entropy,
    entropy_from_log_moment,
    momentum_profile,
    shannon_numeric,
    wavefunction,
)

from darboux3 import quadrature
from darboux3.quadrature import _fft_scan, _ft_component, _ft_x_nodes, _panel_grid
from darboux3.specfun import hermite_zeros

from conftest import (
    quadrature_entropy,
    reference_panel_nodes,
    reference_position_nodes,
    reference_profile_nodes,
    reference_segment_panels,
    reference_split,
)

TABLE_ALPHAS = (0.5, 4.0 / 7.0, 2.0 / 3.0, 0.8, 1.25, 1.5, 1.75, 2.0)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(half_width=-1.0, points=64)
        with pytest.raises(ValueError):
            GridSpec(half_width=5.0, points=16)


class TestIntegrate:
    def test_gaussian(self):
        val = integrate(lambda x: np.exp(-x * x), GridSpec(8.0, 320))
        assert val == pytest.approx(math.sqrt(math.pi), abs=1e-12)

    def test_odd_integrand(self):
        val = integrate(lambda x: x * np.exp(-x * x), GridSpec(8.0, 320))
        assert abs(val) < 1e-14

    def test_density_normalisation(self, deformed):
        val = integrate(lambda x: density_position(deformed, 0, x), GridSpec(14.0, 480))
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_doubling_convergence(self):
        a = integrate(lambda x: np.exp(-x * x) * np.cos(3 * x), GridSpec(8.0, 320))
        b = integrate(lambda x: np.exp(-x * x) * np.cos(3 * x), GridSpec(8.0, 640))
        assert abs(a - b) <= 1e-10 * abs(b)

    def test_nonfinite_sample_rejected(self):
        def f(x):  # NaN on every negative node
            with np.errstate(invalid="ignore", divide="ignore"):
                return np.log(x)

        with pytest.raises(ValueError, match="non-finite"):
            integrate(f, GridSpec(8.0, 320))

    def test_unvectorised_integrand_rejected(self):
        with pytest.raises(ValueError, match=r"shape \(\) for nodes of shape \(320,\)"):
            integrate(lambda x: 1.0, GridSpec(8.0, 320))


#: the 13 momentum-cold stratum midpoints and four corners, as (lam, n)
PROFILE_PAIRS = [
    (0.0628, 4), (0.0992, 0), (0.157, 7), (0.247, 3), (0.391, 10), (0.617, 6),
    (0.975, 2), (1.54, 9), (2.43, 5), (3.84, 1), (6.06, 8), (9.57, 4), (15.1, 0),
    (30.0, 0), (0.0, 5), (10.0, 20), (100.0, 6),
]


def _assert_same(got, want):
    assert len(got) == len(want) == 2
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


class TestPanelGrid:
    """The array-built panels reproduce the per-panel layout bit for bit."""

    @pytest.mark.parametrize("cusps", [[0.0, 1.0, 1.5], [1.5], [0.0, 3.0]])
    def test_cusp_maps(self, cusps):
        # [0, 1] and [1, 1.5] are single pieces: with cusps at both ends the
        # map goes at a; [1.5, 3] is two pieces, one map at each cusp end
        bounds = np.array([0.0, 1.0, 1.5, 3.0])
        want = reference_panel_nodes(
            reference_segment_panels(bounds, lambda a, b: reference_split(a, b, 1.0), cusps)
        )
        _assert_same(_panel_grid(bounds, np.ceil(np.diff(bounds) / 1.0), cusps), want)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 17, 33, 60])
    def test_position_nodes(self, n):
        for lam in (0.0, 0.4, 10.0, 1000.0):
            for alpha in (0.3, 1.0, 2.0, 2.197, 3.5):
                for refine in (1, 2):
                    params = ModelParams(1.0, lam)
                    _assert_same(
                        quadrature._position_moment_nodes(params, n, alpha, refine),
                        reference_position_nodes(params, n, alpha, refine),
                    )

    @pytest.mark.parametrize("lam,n", PROFILE_PAIRS)
    def test_momentum_profile_nodes(self, lam, n):
        params = ModelParams(1.0, lam)
        prof = momentum_profile(params, n)
        _assert_same((prof.p, prof.weights), reference_profile_nodes(params, n))

    @pytest.mark.parametrize("half_width,points", [(8.0, 320), (3.3, 33), (12.7, 1001)])
    def test_grid_nodes(self, half_width, points):
        edges = np.linspace(-half_width, half_width, max(2, points // 16) + 1)
        want = reference_panel_nodes([(a, b, 0) for a, b in zip(edges[:-1], edges[1:])])
        _assert_same(quadrature.grid_nodes(GridSpec(half_width, points)), want)

    @pytest.mark.parametrize("lam", [0.05, 10.0, 1000.0])
    def test_phi_transform_nodes(self, lam, monkeypatch):
        from darboux3 import strong_nonlinear

        grids = []

        def spy(*args):
            grids.append(_panel_grid(*args))
            return grids[-1]

        monkeypatch.setattr(strong_nonlinear, "_panel_grid", spy)
        params = ModelParams(1.0, lam)
        for n in (0, 1, 8, 20):
            for p_max in (0.5, 12.0, 40.0):
                strong_nonlinear.g_series_transform(params, n, np.array([0.0, p_max]))
                om = effective_frequency(params, n)
                L = quadrature.position_half_width(params, n, 1.0, tail_log=88.0)
                width = min(0.7 / math.sqrt(om), math.pi / max(p_max, 1.0))
                want = reference_panel_nodes(
                    [(a, b, 0) for a, b in reference_split(0.0, L, width)]
                )
                _assert_same(grids.pop(), want)


class TestMomentNumeric:
    def test_disequilibrium_value(self, harmonic):
        assert entropic_moment_numeric(harmonic, 0, 2.0, "position") == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), rel=1e-12
        )

    def test_normalisation_both_spaces(self, deformed):
        for space in ("position", "momentum"):
            assert entropic_moment_numeric(deformed, 3, 1.0, space) == pytest.approx(
                1.0, abs=1e-8
            )

    @pytest.mark.parametrize("lam", [0.0, 0.4, 1.0])
    @pytest.mark.parametrize("alpha", [2, 3])
    def test_cross_oracle_with_analytic(self, lam, alpha):
        p = ModelParams(1.0, lam)
        for n in (0, 5, 12):
            w_a = entropic_moment(p, n, alpha)
            w_q = entropic_moment_numeric(p, n, float(alpha), "position")
            assert abs(w_a - w_q) / w_a < 1e-9

    @pytest.mark.parametrize(
        "lam,n,alpha,space",
        [
            (0.4, 0, 2.0, "position"),
            (0.4, 13, 0.5, "position"),
            (0.0, 5, 2.0 / 3.0, "momentum"),
            (0.4, 20, 2.0, "momentum"),
            (1.5, 2, 0.5, "momentum"),
        ],
    )
    def test_grid_doubling_stability(self, lam, n, alpha, space):
        p = ModelParams(1.0, lam)
        w1 = entropic_moment_numeric(p, n, alpha, space, refine=1)
        w2 = entropic_moment_numeric(p, n, alpha, space, refine=2)
        r1 = math.log(w1) / (1.0 - alpha)
        r2 = math.log(w2) / (1.0 - alpha)
        assert abs(r1 - r2) < 1e-8

    def test_rejects_bad_inputs(self, deformed):
        with pytest.raises(ValueError):
            entropic_moment_numeric(deformed, 0, -1.0, "position")
        with pytest.raises(ValueError):
            entropic_moment_numeric(deformed, 0, 2.0, "phase-space")
        for space in ("position", "momentum"):
            for alpha in (math.inf, math.nan):
                with pytest.raises(ValueError, match="alpha"):
                    entropic_moment_numeric(deformed, 0, alpha, space)


class TestEntropiesNumeric:
    def test_published_position_value(self, harmonic):
        assert entropy(harmonic, 0, 0.5, "position", "renyi") == pytest.approx(1.266, abs=1.5e-3)

    def test_published_momentum_values(self, deformed):
        assert entropy(deformed, 0, 2.0, "momentum", "renyi") == pytest.approx(0.670, abs=1.5e-3)
        assert entropy(ModelParams(1.0, 0.5), 0, 2.0, "momentum", "renyi") == pytest.approx(
            0.6207, abs=1e-4
        )

    def test_alpha_one_rejected(self):
        # order 1 has no ln W form; entropy() serves it as Shannon instead
        for kind in ("renyi", "tsallis"):
            with pytest.raises(ValueError):
                entropy_from_log_moment(0.0, 1.0, kind)

    @pytest.mark.parametrize("space", ["position", "momentum"])
    def test_alpha_limit_brackets_shannon(self, deformed, space):
        s = shannon_numeric(deformed, 3, space)
        hi = entropy(deformed, 3, 1.0 - 1e-4, space, "renyi")
        lo = entropy(deformed, 3, 1.0 + 1e-4, space, "renyi")
        assert lo <= s <= hi
        assert hi - lo < 1e-3

    def test_shannon_harmonic_ground_exact(self, harmonic):
        expect = 0.5 * (1.0 + math.log(math.pi))
        for space in ("position", "momentum"):
            assert shannon_numeric(harmonic, 0, space) == pytest.approx(expect, abs=1e-10)


class TestFourierTransform:
    def test_gaussian_self_transform(self, harmonic):
        for p in (0.0, 0.7, 2.3):
            val = fourier_transform(harmonic, 0, None, p)
            expect = math.pi**-0.25 * math.exp(-0.5 * p * p)
            assert val.real == pytest.approx(expect, rel=1e-12)
            assert abs(val.imag) < 1e-14

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 6, 7, 20, 50])
    def test_hermite_functions_are_eigenfunctions(self, harmonic, n):
        # at lam = 0 the transform is exactly (-i)^n psi_n(p)
        p = np.linspace(0.0, momentum_profile(harmonic, n).grid.half_width, 64)
        val = fourier_transform(harmonic, n, None, p)
        expect = (-1j) ** n * wavefunction(harmonic, n, p)
        assert np.max(np.abs(val - expect)) <= 1e-13

    @pytest.mark.parametrize("n", [0, 1])
    def test_fft_scan_is_the_kernel_sum(self, n):
        # M = 16 here: 64 nodes fold four times, and the momenta run past
        # M / 2 and past one period M; folding is exact in both
        rng = np.random.default_rng(7)
        fw = rng.standard_normal(64)
        h, step = 0.05, 8.0
        x = h * np.arange(len(fw))
        p_max = 2.5 * 2.0 * np.pi / h
        p, vals = _fft_scan(n, fw, h, p_max, step)
        assert p[1] - p[0] <= step and p[-1] >= p_max
        assert np.max(np.abs(vals - _ft_component(n, x, fw, p))) < 1e-11

    @pytest.mark.parametrize("lam,n", [(0.4, 3), (10.0, 20), (100.0, 0), (100.0, 6)])
    def test_trapezoid_alias_bound(self, lam, n):
        # the step puts the first Poisson alias beyond the transform's band,
        # so halving it changes nothing on the profile's own nodes
        params = ModelParams(1.0, lam)
        prof = momentum_profile(params, n)
        gammas = []
        for refine in (1, 2):
            x, w = _ft_x_nodes(params, n, prof.grid.half_width, refine)
            g = _ft_component(n, x, w * wavefunction(params, n, x), prof.p)
            gammas.append(2.0 / np.pi * g * g)
        assert np.max(np.abs(gammas[0] - gammas[1])) <= 1e-13 * np.max(prof.gamma)
        assert np.max(np.abs(gammas[0] - prof.gamma)) <= 1e-13 * np.max(prof.gamma)

    def test_grid_refinement_oracle(self, deformed):
        base = fourier_transform(deformed, 0, None, 0.0)
        fine = fourier_transform(
            deformed, 0, GridSpec(half_width=16.0, points=4096), 0.0
        )
        assert abs(base - fine) / abs(fine) < 1e-9

    def test_oscillation_warning(self, deformed):
        with pytest.warns(UserWarning, match="underresolve"):
            fourier_transform(deformed, 0, GridSpec(half_width=12.0, points=64), 40.0)

    def test_kernel_memory_bounded(self):
        # the phase matrix lives in one buffer of bounded size; chunks of
        # 256 rows over all nodes took about 400 MB here
        x = np.linspace(0.0, 40.0, 100_000)
        fw = np.exp(-0.5 * x * x) * (x[1] - x[0])
        p = np.linspace(0.0, 8.0, 300)
        tracemalloc.start()
        try:
            out = _ft_component(0, x, fw, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20
        expect = np.sqrt(np.pi / 2.0) * np.exp(-0.5 * p * p) + 0.5 * (x[1] - x[0])
        assert np.max(np.abs(out - expect)) < 1e-12

    def test_parity_structure(self, deformed):
        # the kernel sums only the parity-allowed part: the other is exactly 0
        p = np.array([0.0, 0.9, 2.5])
        for grid in (None, GridSpec(half_width=14.0, points=1024)):
            for n in range(8):
                val = fourier_transform(deformed, n, grid, p)
                allowed, off = (val.real, val.imag) if n % 2 == 0 else (val.imag, val.real)
                assert np.all(off == 0.0)
                assert np.max(np.abs(allowed)) > 0.0


    def test_odd_transform_zero_part_is_plus_zero(self, deformed):
        # -1j * 0.0 is -0j, which prints as -0.000000e+00j; both transforms
        # give +0 imaginary at p = 0, for scalar and array input
        from darboux3.strong_nonlinear import g_series_transform

        for n in (1, 3):
            for ft in (
                lambda p: fourier_transform(deformed, n, None, p),
                lambda p: fourier_transform(deformed, n, GridSpec(14.0, 1024), p),
                lambda p: g_series_transform(deformed, n, p),
            ):
                assert math.copysign(1.0, ft(0.0).imag) == 1.0
                assert math.copysign(1.0, ft(np.array([0.0, 0.7]))[0].imag) == 1.0
                assert math.copysign(1.0, ft(0.0).real) == 1.0


class TestMomentumDensity:
    def test_harmonic_ground_gaussian(self, harmonic):
        prof = momentum_profile(harmonic, 0)
        expect = np.exp(-prof.p**2) / math.sqrt(math.pi)
        assert np.max(np.abs(prof.gamma - expect)) < 1e-13

    def test_localisation_variance_ordering(self, harmonic, deformed):
        def variance(prof):
            return 2.0 * float(prof.weights @ (prof.p**2 * prof.gamma))

        v0 = variance(momentum_profile(harmonic, 0))
        v4 = variance(momentum_profile(deformed, 0))
        assert v4 < v0

    def test_strong_coupling_side_maxima(self):
        prof = momentum_profile(ModelParams(1.0, 100.0), 0)
        g, p = prof.gamma, prof.p
        body = (p > 1e-3) & (p < 0.9 * prof.grid.half_width)
        dg = np.diff(g[body])
        has_interior_min_then_max = np.any((dg[:-1] < 0) & (dg[1:] > 0))
        assert has_interior_min_then_max

    @pytest.mark.parametrize("lam", [0.0, 0.4, 1.0, 2.0])
    def test_parseval(self, lam):
        p = ModelParams(1.0, lam)
        for n in (0, 1, 7, 20) + ((50,) if lam in (0.0, 1.0) else ()):
            prof = momentum_profile(p, n)
            assert 2.0 * float(prof.weights @ prof.gamma) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("n", [0, 6])
    def test_parseval_large_lam(self, n):
        for lam in (100.0, 1000.0) if n == 0 else (100.0,):
            prof = momentum_profile(ModelParams(1.0, lam), n)
            assert 2.0 * float(prof.weights @ prof.gamma) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("n", [5, 20, 50])
    def test_harmonic_zeros_found(self, harmonic, n, monkeypatch):
        # the FFT scan brackets every zero of psi_n(p), the transform at lam = 0
        found = []

        def spy(*args):
            found.append(zeros_of(*args))
            return found[-1]

        zeros_of = quadrature._transform_zeros
        monkeypatch.setattr(quadrature, "_transform_zeros", spy)
        quadrature._profile_cached.cache_clear()
        momentum_profile(harmonic, n)
        expect = hermite_zeros(n)[hermite_zeros(n) > 0.0]
        assert len(found) == 1 and len(found[0]) == len(expect)
        assert np.max(np.abs(found[0] - expect)) <= 1e-12


class TestSelfDuality:
    def test_harmonic_position_equals_momentum(self, harmonic):
        for n in (0, 1, 4, 9, 20):
            for alpha in TABLE_ALPHAS:
                r_pos = quadrature_entropy(harmonic, n, alpha, "position")
                r_mom = quadrature_entropy(harmonic, n, alpha, "momentum")
                assert abs(r_pos - r_mom) < 1e-9


class TestLambdaLocalisation:
    def test_momentum_renyi_strictly_decreasing(self):
        lams = np.round(np.arange(0.0, 1.5001, 0.05), 10)
        for n in (0, 1, 2):
            vals = [
                entropy(ModelParams(1.0, float(lam)), n, 2.0, "momentum", "renyi")
                for lam in lams
            ]
            assert all(a > b for a, b in zip(vals[:-1], vals[1:]))
