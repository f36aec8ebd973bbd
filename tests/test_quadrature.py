import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

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
    entropy,
    entropy_from_log_moment,
    g_series_transform,
    harmonic_weight,
    momentum_profile,
    norm_constant,
    shannon_numeric,
    wavefunction,
)

from darboux3 import quadrature
from darboux3.quadrature import (
    _fft_scan,
    _ft_component,
    _ft_x_nodes,
    _lattice_values,
    _panel_grid,
    _progression,
)
from darboux3.specfun import hermite_zeros

from conftest import (
    assert_batch_contract,
    batch_tolerances,
    lattice_nodes,
    lattice_side,
    level_entries,
    quadrature_entropy,
    reference_fft_scan,
    reference_ft_sum,
    reference_ft_sum_dd,
    reference_panel_nodes,
    reference_position_moment,
    reference_position_moment_nodes,
    reference_position_nodes,
    reference_position_shannon,
    reference_profile_nodes,
    reference_scan_step,
    reference_scan_steps,
    reference_segment_panels,
    reference_split,
    scan_size,
)

TABLE_ALPHAS = (0.5, 4.0 / 7.0, 2.0 / 3.0, 0.8, 1.25, 1.5, 1.75, 2.0)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(half_width=-1.0, points=64)
        with pytest.raises(ValueError):
            GridSpec(half_width=5.0, points=16)


def _grid_nodes(monkeypatch, half_width, points):
    """The nodes and weights :func:`grid_log_moment` integrates over, taken
    from its :func:`_panel_grid` call on the harmonic ground state."""
    grids = []

    def spy(*args):
        grids.append(_panel_grid(*args))
        return grids[-1]

    monkeypatch.setattr(quadrature, "_panel_grid", spy)
    quadrature.grid_log_moment(ModelParams(1.0, 0.0), 0, 1.0, "position", points, half_width)
    monkeypatch.undo()
    (grid,) = grids
    return grid


def _grid_integral(monkeypatch, f, half_width, points):
    x, w = _grid_nodes(monkeypatch, half_width, points)
    return float(w @ f(x))


class TestGridNodes:
    def test_gaussian(self, monkeypatch):
        val = _grid_integral(monkeypatch, lambda x: np.exp(-x * x), 8.0, 320)
        assert val == pytest.approx(math.sqrt(math.pi), abs=1e-12)

    def test_odd_integrand(self, monkeypatch):
        val = _grid_integral(monkeypatch, lambda x: x * np.exp(-x * x), 8.0, 320)
        assert abs(val) < 1e-14

    def test_density_normalisation(self, deformed, monkeypatch):
        val = _grid_integral(monkeypatch, lambda x: density_position(deformed, 0, x), 14.0, 480)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_doubling_convergence(self, monkeypatch):
        a = _grid_integral(monkeypatch, lambda x: np.exp(-x * x) * np.cos(3 * x), 8.0, 320)
        b = _grid_integral(monkeypatch, lambda x: np.exp(-x * x) * np.cos(3 * x), 8.0, 640)
        assert abs(a - b) <= 1e-10 * abs(b)


class TestGridLogMoment:
    @pytest.mark.parametrize("space", ["position", "momentum"])
    @pytest.mark.parametrize("alpha", [2.0, 3.0])
    def test_matches_the_library_value(self, deformed, space, alpha):
        # integer orders have no cusps, so the equal panels converge spectrally
        want = math.log(entropic_moment_numeric(deformed, 3, alpha, space))
        assert quadrature.grid_log_moment(deformed, 3, alpha, space, 512, None) == pytest.approx(
            want, abs=1e-9
        )

    @pytest.mark.parametrize(
        "space, n, points, half_width",
        [("position", 0, 512, 0.5), ("position", 3, 32, None), ("momentum", 0, 64, 2.0)],
    )
    def test_normalisation_checked_in_either_space(self, deformed, space, n, points, half_width):
        with pytest.raises(ArithmeticError, match=f"^{space} density normalisation off by -"):
            quadrature.grid_log_moment(deformed, n, 2.0, space, points, half_width)

    @pytest.mark.parametrize(
        "half_width", [0.0, -3.0, math.inf, math.nan, 1e308, math.nextafter(sys.float_info.max / 2.0, math.inf)]
    )
    def test_width_not_positive_and_finite_raises(self, deformed, half_width):
        for space in ("position", "momentum"):
            with pytest.raises(ValueError, match="half_width must be positive and finite"):
                quadrature.grid_log_moment(deformed, 0, 2.0, space, 512, half_width)

    def test_largest_width_reaches_the_numeric_checks(self, deformed):
        # the grid spans 2 L, finite up to half the largest double, where the
        # density misses normalisation (position) or the lattice its bound
        for space in ("position", "momentum"):
            with pytest.raises(ArithmeticError):
                quadrature.grid_log_moment(deformed, 0, 2.0, space, 512, sys.float_info.max / 2.0)

    def test_rejects_bad_space_and_order(self, deformed):
        with pytest.raises(ValueError, match="space"):
            quadrature.grid_log_moment(deformed, 0, 2.0, "energy", 512, None)
        with pytest.raises(ValueError, match="alpha"):
            quadrature.grid_log_moment(deformed, 0, 0.0, "momentum", 512, None)


#: the 13 momentum-cold stratum midpoints and four corners, as (lam, n)
PROFILE_PAIRS = [
    (0.0628, 4), (0.0992, 0), (0.157, 7), (0.247, 3), (0.391, 10), (0.617, 6),
    (0.975, 2), (1.54, 9), (2.43, 5), (3.84, 1), (6.06, 8), (9.57, 4), (15.1, 0),
    (30.0, 0), (0.0, 5), (10.0, 20), (100.0, 6),
]


def _spy(monkeypatch, name):
    """Record the arguments of every call of ``quadrature.<name>``."""
    calls = []
    original = getattr(quadrature, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(quadrature, name, spy)
    return calls


def _log_density(params, n, alpha, refine):
    """``_position_log_density``'s (y, w, ln rho) for the one cell (kappa = lam / omega of
    ``params``, ``alpha``): the nodes, weights and ln rho of the twin (1, kappa)."""
    cells = [(params.lam / params.omega, alpha)]
    [(index, _, *nodes)] = quadrature._position_log_density(cells, n, refine)
    assert index == 0
    return nodes


def _assert_same(got, want):
    assert len(got) == len(want) == 2
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


class TestPanelGrid:
    """The array-built panels reproduce the per-panel layout bit for bit."""

    @pytest.mark.parametrize("cusps", [[0.0, 2.0, 4.0], [2.5], [0.0, 2.5], [2.0, 2.5]])
    def test_cusp_maps(self, cusps):
        # [0, 2] and [2.5, 4] are two pieces, one map at each cusp end;
        # [2, 2.5] is given one piece, and cusps at both its ends make it two
        a, b = np.array([0.0, 2.0, 2.5]), np.array([2.0, 2.5, 4.0])
        counts = np.ceil((b - a) / 1.0)
        split = _reference_pieces(a, b, counts, cusps)
        want = reference_panel_nodes(reference_segment_panels(a, b, split, cusps))
        _assert_same(_panel_grid(a, b, counts, cusps), want)

    @pytest.mark.parametrize(
        "cusps", [[], [0.0, 9.0], [2.0, 3.7], [5.0, 6.0], [0.0, 2.0, 3.0, 3.7, 5.0, 6.0, 9.0]]
    )
    def test_disjoint_segments(self, cusps):
        # segments that touch, and segments with gaps between them, in one
        # call: the separate calls' nodes and weights, concatenated, bit for
        # bit, with the cusp maps at either end ([3, 3.7] and [5, 6] take
        # two pieces when both ends are cusps)
        a = np.array([0.0, 2.0, 3.0, 5.0, 6.5])
        b = np.array([2.0, 2.7, 3.7, 6.0, 9.0])
        counts = np.array([2, 1, 1, 1, 3])
        one = _panel_grid(a, b, counts, cusps)
        parts = [_panel_grid([s], [e], [k], cusps) for s, e, k in zip(a, b, counts)]
        _assert_same(one, [np.concatenate(part) for part in zip(*parts)])
        split = _reference_pieces(a, b, counts, cusps)
        _assert_same(one, reference_panel_nodes(reference_segment_panels(a, b, split, cusps)))

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 17, 33, 60])
    def test_position_nodes(self, n):
        # the x layout is the per-panel one bit for bit; the y layout maps
        # onto it panel for panel, with the rounding of the scale sqrt(Omega):
        # nodes within eps L, weights within eps max(w) L / width, the
        # rounding of the per-panel widths b - a
        eps = np.finfo(float).eps
        for lam in (0.0, 0.4, 10.0, 1000.0):
            for alpha in (0.3, 1.0, 2.0, 2.197, 3.5):
                for refine in (1, 2):
                    params = ModelParams(1.0, lam)
                    x, w = reference_position_moment_nodes(params, n, alpha, refine)
                    _assert_same((x, w), reference_position_nodes(params, n, alpha, refine))
                    y, w_y, _ = _log_density(params, n, alpha, refine)
                    s = math.sqrt(effective_frequency(params, n))
                    assert len(y) == len(x)
                    L, panels = float(x[-1]), len(x) // 16
                    assert np.max(np.abs(y / s - x)) <= 4.0 * eps * L
                    assert np.max(np.abs(w_y - w)) <= 4.0 * eps * np.max(w) * panels

    @pytest.mark.parametrize("lam,n", PROFILE_PAIRS)
    def test_momentum_profile_nodes(self, lam, n):
        params = ModelParams(1.0, lam)
        prof = momentum_profile(params, n)
        _assert_same((prof.p, prof.weights), reference_profile_nodes(params, n))

    @pytest.mark.parametrize("half_width,points", [(8.0, 320), (3.3, 33), (12.7, 1001)])
    def test_grid_nodes(self, half_width, points, monkeypatch):
        edges = np.linspace(-half_width, half_width, max(2, points // 16) + 1)
        want = reference_panel_nodes([(a, b, 0) for a, b in zip(edges[:-1], edges[1:])])
        _assert_same(_grid_nodes(monkeypatch, half_width, points), want)

    @pytest.mark.parametrize("lam", [0.05, 10.0, 1000.0])
    def test_phi_transform_nodes(self, lam, monkeypatch):
        # the phi_n transform sums over equal Gauss-Legendre panels on
        # [0, L], one lattice block each: the per-panel nodes and weights
        # to rounding
        from darboux3 import strong_nonlinear

        lattices = []

        def spy(n, origins, offsets, fw, p):
            lattices.append((origins, offsets, fw))
            return _ft_component(n, origins, offsets, fw, p)

        monkeypatch.setattr(quadrature, "_ft_component", spy)
        params = ModelParams(1.0, lam)
        for n in (0, 1, 8, 20):
            for p_max in (0.5, 12.0, 40.0):
                strong_nonlinear.g_series_transform(params, n, np.array([0.0, p_max]))
                om = effective_frequency(params, n)
                L = quadrature.position_half_width(params, n, 1.0, tail_log=88.0)
                width = min(0.7 / math.sqrt(om), math.pi / max(p_max, 1.0))
                x, w = reference_panel_nodes(
                    [(a, b, 0) for a, b in reference_split(0.0, L, width)]
                )
                origins, offsets, fw = lattices.pop()
                # the nodes the kernel sums over: its levels' sums, exact in long double
                x_ld = lattice_nodes(origins, offsets, fw.shape, np.longdouble)
                assert np.max(np.abs(x_ld - x)) <= 4e-16 * L
                # the per-panel widths b - a carry the rounding of the edges,
                # eps L / width relative; the lattice width does not
                phi = strong_nonlinear.approx_wavefunction(params, n, x)
                tol = 4e-16 * (L / width) * np.max(np.abs(w * phi))
                assert np.max(np.abs(fw.ravel() - w * phi)) <= tol


def _has_double_cusp_piece(starts, ends, counts, cusps=()):
    """Whether a ``_panel_grid`` layout has a one-piece segment with a cusp
    at both ends."""
    at_cusp = np.isin(starts, cusps) & np.isin(ends, cusps)
    return bool(np.any((np.asarray(counts) == 1) & at_cusp))


def _reference_pieces(starts, ends, counts, cusps):
    """``reference_segment_panels``' split for the ``_panel_grid`` layout
    (starts, ends, counts, cusps): counts[s] equal pieces, as
    ``np.linspace`` places them, and two at least between two cusps."""
    pieces = {}
    for a, b, k in zip(starts, ends, counts):
        k = max(int(k), 2 if a in cusps and b in cusps else 1)
        edges = np.linspace(a, b, k + 1)
        pieces[float(a), float(b)] = list(zip(edges[:-1], edges[1:]))
    return lambda a, b: pieces[a, b]


class TestCuspLayout:
    """A panel maps one end only, so no panel touches a cusp at both ends:
    position layouts never give ``_panel_grid`` a one-piece segment between
    two cusps, and ``_panel_grid`` cuts the momentum layout's in two."""

    def test_position_layout(self, monkeypatch):
        # Hermite zeros lie at least pi / sqrt(2n + 1) apart: four panels or more
        grids = _spy(monkeypatch, "_panel_grid")
        for n in range(61):
            for alpha in (0.3, 1.0, 2.197, 3.5):
                for lam in (0.0, 0.4, 30.0, 1000.0):
                    for refine in (1, 2):
                        _log_density(ModelParams(1.0, lam), n, alpha, refine)
        assert len(grids) == 61 * 4 * 4 * 2
        assert not any(_has_double_cusp_piece(*args) for args in grids)

    @pytest.mark.parametrize("lam", [0.0, 0.05, 0.4, 3.0])
    def test_momentum_layout(self, monkeypatch, lam):
        # from n = 24 at lam = 0 some zeros lie closer than a panel width;
        # the per-panel reference asserts that no panel touches two cusps
        grids = _spy(monkeypatch, "_panel_grid")
        quadrature._profile_cached.cache_clear()
        for n in range(51):
            momentum_profile(ModelParams(1.0, lam), n)
        assert len(grids) == 51
        assert any(_has_double_cusp_piece(*args) for args in grids)
        for starts, ends, counts, cusps in grids:
            assert np.array_equal(starts[1:], ends[:-1])  # one chain of segments
            split = _reference_pieces(starts, ends, counts, cusps)
            want = reference_panel_nodes(reference_segment_panels(starts, ends, split, cusps))
            _assert_same(_panel_grid(starts, ends, counts, cusps), want)


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


#: the orders of the y-path check: fractional below and above 1, and integers
SCALED_ORDERS = (0.3, 0.5, 0.714, 1.0, 1.5, 2.0, 2.567, 3.456)


class TestScaledPosition:
    """Position moments in y = sqrt(Omega) x."""

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 30, 60])
    def test_against_x_grid(self, n):
        for refine in (1, 2):
            for lam in np.linspace(0.0, 7.0, 16):
                params = ModelParams(1.0, float(lam))
                for alpha in SCALED_ORDERS:
                    got = entropic_moment_numeric(params, n, alpha, "position", refine)
                    want = reference_position_moment(params, n, alpha, refine)
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
                got = shannon_numeric(params, n, "position", refine)
                want = reference_position_shannon(params, n, refine)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_cell_builds_one_grid(self, monkeypatch):
        # the head between 0 and the three positive zeros of H_7, then the
        # tail edges, one panel each
        grids = _spy(monkeypatch, "_panel_grid")
        hermite = _spy(monkeypatch, "hermite_sign_logabs")
        params = ModelParams(1.0, 0.4)
        y, _, _ = _log_density(params, 7, 2.5, 1)
        assert len(grids) == len(hermite) == 1
        starts, ends, counts = grids[0][:3]
        assert np.array_equal(starts[1:], ends[:-1])  # the head runs on into the tail
        assert np.array_equal(starts[:4], np.append(0.0, hermite_zeros(7)[4:]))
        assert np.all(counts[:3] > 1) and np.all(counts[3:] == 1)
        assert np.array_equal(hermite[0][1], y)

    @pytest.mark.xfail(
        strict=True,
        reason="fractional orders under-resolve the branch points of "
        "(1 + lam x^2)^alpha at x = +-i/sqrt(lam): refine 1 is off by 4.5e-7 "
        "here (README, Known limits)",
    )
    def test_large_lambda_fractional_order_converged(self):
        params = ModelParams(1.0, 100.0)
        w1 = entropic_moment_numeric(params, 0, 0.3, "position", refine=1)
        w8 = entropic_moment_numeric(params, 0, 0.3, "position", refine=8)
        assert w1 == pytest.approx(w8, rel=1e-9, abs=0.0)


#: 16 lambdas in [0, 1e3], 0 among them
SWEEP_LAMS = [0.0] + [float(v) for v in np.geomspace(1e-3, 1e3, 15)]


class TestSweepBatch:
    """A lambda sweep's class reads one half line, laid out by one
    ``_panel_grid`` call and evaluated by one Hermite pass, and every value
    keeps the batch contract (``conftest.batch_tolerances``) against the one
    a call of its own gives."""

    @pytest.mark.parametrize("omega", [1.0, 0.37])
    @pytest.mark.parametrize("n", [0, 1, 6, 33, 60, 200])
    def test_batch_equals_cells(self, n, omega):
        # the sweep evaluates one half line, out to the cut of the kappa
        # that sets it: that cell is exact, the others integrate past their
        # own cut.  At n = 200 the Hermite recurrence rescales.  The sweep
        # runs at the twins (1, lam / omega) of the lambdas at omega.
        kappas = [lam / omega for lam in SWEEP_LAMS]
        for refine in (1, 2):
            for alpha in (0.3, 0.714, 1.0, 2.567, 3.0):
                column = [(kappa, alpha) for kappa in kappas]
                sweep = list(quadrature.position_moments(column, n, refine))
                cells = [
                    entropic_moment_numeric(ModelParams(1.0, kappa), n, alpha, "position", refine)
                    for kappa in kappas
                ]
                assert_batch_contract(sweep, cells, batch_tolerances(1.0, column, n))
            sweep = list(quadrature.position_shannons(kappas, n, refine))
            cells = [
                shannon_numeric(ModelParams(1.0, kappa), n, "position", refine)
                for kappa in kappas
            ]
            column = [(kappa, 1.0) for kappa in kappas]
            assert_batch_contract(sweep, cells, batch_tolerances(1.0, column, n))

    @pytest.mark.parametrize("n", [0, 1, 6, 33])
    def test_column_evaluates_one_line(self, monkeypatch, n):
        # a 16-lambda column's one Hermite pass takes its class's head and
        # one tail: the nodes a call of its own gives the lambda whose cut
        # is the largest
        column = [(lam, 0.714) for lam in SWEEP_LAMS]
        [owner] = [lam for (lam, _), tol in zip(column, batch_tolerances(1.0, column, n)) if tol == 0.0]
        hermite = _spy(monkeypatch, "hermite_sign_logabs")
        grids = _spy(monkeypatch, "_panel_grid")
        quadrature.position_moments(column, n)
        assert len(hermite) == len(grids) == 1
        y = hermite[0][1]
        assert np.count_nonzero(grids[0][0] == 0.0) == 1  # one head
        assert np.count_nonzero(grids[0][0] == (float(hermite_zeros(n)[-1]) if n else 0.0)) == 1  # one tail
        assert np.array_equal(y, _log_density(ModelParams(1.0, owner), n, 0.714, 1)[0])

    @pytest.mark.parametrize("n", [0, 7])
    def test_sweeps_take_an_iterator(self, monkeypatch, n):
        # a generator of lambdas, read a few tails at a time, gives the list's values
        monkeypatch.setattr(quadrature, "_PASS_NODES", 500)
        sweeps = [
            (lambda cells: quadrature.position_moments(cells, n), [(lam, 0.714) for lam in SWEEP_LAMS]),
            (lambda lams: quadrature.position_shannons(lams, n), SWEEP_LAMS),
        ]
        for sweep, cells in sweeps:
            assert sweep(cell for cell in cells) == sweep(cells)

    @pytest.mark.parametrize("command", ["renyi", "tsallis", "moment"])
    def test_cli_sweep_makes_one_hermite_pass(self, monkeypatch, capsys, command):
        # a 16-lambda column at one fractional order: the head leads all 16
        # tails into one pass, on every call
        from darboux3 import cli

        argv = [command, "--alpha", "0.714", "--lambda", "0:1.5:0.1", "--n", "6"]
        hermite = _spy(monkeypatch, "hermite_sign_logabs")
        grids = _spy(monkeypatch, "_panel_grid")
        assert cli.main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 17
        assert len(hermite) == len(grids) == 1
        assert cli.main(argv) == 0  # nothing is kept: the head leads again
        assert len(hermite) == len(grids) == 2
        assert grids[1][0][0] == 0.0

    @pytest.mark.parametrize("command", ["xi-renyi", "renyi"])
    @pytest.mark.parametrize("ns", ["3", "0,3,7"])
    def test_cli_grid_makes_one_pass_per_n(self, monkeypatch, capsys, command, ns):
        # 16 lambdas x 4 fractional orders: each n's 64 position cells share
        # one cold pass (xi-renyi made one per cell, renyi one per order)
        from darboux3 import cli

        argv = [command, "--alpha", "0.6,0.7,0.8,1.5", "--lambda", "0:1.5:0.1", "--n", ns]
        hermite = _spy(monkeypatch, "hermite_sign_logabs")
        assert cli.main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 64 * len(ns.split(","))
        assert len(hermite) == len(ns.split(","))

    def test_chunks_give_the_same_bytes(self, monkeypatch, capsys):
        # a node budget of 500 holds one class's half line or two: each n's
        # grid goes through in several passes, each line whole in one, with
        # the same output.  A pass closes once it holds 500 nodes, so it
        # holds fewer than 500 and one line, no longer than a cell's own.
        from darboux3 import cli

        argv = ["renyi", "--alpha", "0.3,0.714,2.567", "--lambda", "0:30:2", "--n", "0,7"]
        assert cli.main(argv) == 0
        whole = capsys.readouterr().out
        hermite = _spy(monkeypatch, "hermite_sign_logabs")
        for n in (0, 7):
            for lam in range(0, 32, 2):
                for alpha in (0.3, 0.714, 2.567):
                    _log_density(ModelParams(1.0, lam), n, alpha, 1)
        cell = max(len(args[1]) for args in hermite)  # the largest head and tail
        hermite.clear()
        monkeypatch.setattr(quadrature, "_PASS_NODES", 500)
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == whole
        assert len(hermite) > 2  # 2 n, each with two classes
        assert max(len(args[1]) for args in hermite) < 500 + cell


#: a table row's orders: below 1 (one layout class), and one class each above 1
ROW_ORDERS = (0.3, 0.5, 4.0 / 7.0, 0.714, 0.8, 1.25, 1.5, 1.75, 2.567)


class TestRowPass:
    """The (lam, alpha) cells of a table row share one ``_panel_grid`` call
    and one Hermite pass, whatever their layout classes, and every value
    keeps the batch contract against the one a call of its own gives."""

    @pytest.mark.parametrize("omega", [1.0, 0.37])
    @pytest.mark.parametrize("n", [0, 1, 6, 33, 60, 200])
    def test_row_equals_cells(self, monkeypatch, n, omega):
        # each class's half line is laid out once; a budget of 500 nodes or 1
        # splits the row into several passes, and the reversed row gives
        # the same values, bit for bit.  The orders below 1 share a class.
        kappa = 0.4 / omega  # the twin of lam = 0.4 at omega
        row = [(kappa, alpha) for alpha in ROW_ORDERS]
        for refine in (1, 2):
            cells = [
                entropic_moment_numeric(ModelParams(1.0, kappa), n, alpha, "position", refine)
                for alpha in ROW_ORDERS
            ]
            values = []
            for budget in (2**16, 500, 1):
                monkeypatch.setattr(quadrature, "_PASS_NODES", budget)
                values.append(quadrature.position_moments(row, n, refine))
            values.append(quadrature.position_moments(row[::-1], n, refine)[::-1])
            assert values[1] == values[2] == values[3] == values[0]
            assert_batch_contract(values[0], cells, batch_tolerances(1.0, row, n))

    @pytest.mark.parametrize("n", [0, 7])
    def test_row_makes_one_pass(self, monkeypatch, n):
        # five layout classes, each head in front of its first tail
        grids = _spy(monkeypatch, "_panel_grid")
        hermite = _spy(monkeypatch, "hermite_sign_logabs")
        quadrature.position_moments([(0.4, alpha) for alpha in ROW_ORDERS], n)
        assert len(grids) == len(hermite) == 1
        if n:  # the heads start at 0 (at n = 0 they are empty and the tails start there)
            assert np.count_nonzero(grids[0][0] == 0.0) == 5

    def test_interleaved_classes_lead_once(self, monkeypatch):
        # 20 classes interleaved lambda by lambda, as a CLI grid lists them:
        # each class's half line is evaluated once in the call, so the pass
        # takes the Hermite points of 20 columns, every value is its
        # column's, and within the batch contract of its one-cell value
        orders = [1.05 + 0.1 * k for k in range(20)]
        lams = [0.0, 0.25, 0.5, 0.75, 1.0]
        hermite = _spy(monkeypatch, "hermite_sign_logabs")
        columns = [quadrature.position_moments([(lam, a) for lam in lams], 6) for a in orders]
        points = sum(len(args[1]) for args in hermite)
        hermite.clear()
        grid = [(lam, a) for lam in lams for a in orders]
        values = quadrature.position_moments(grid, 6)
        assert len(hermite) == 1 and len(hermite[0][1]) == points
        assert values == [column[j] for j in range(len(lams)) for column in columns]
        cells = [entropic_moment_numeric(ModelParams(1.0, lam), 6, a) for lam, a in grid]
        assert_batch_contract(values, cells, batch_tolerances(1.0, grid, 6))

    @pytest.mark.parametrize("n", [0, 3, 7])
    def test_mixed_kinds_give_the_cells(self, monkeypatch, n):
        # integer orders map no cusps: the fractional classes take one pass
        # and the integer ones another, whatever the order of the cells
        orders = [0.5, 1.0, 2.0, 1.5, 3.0, 0.714, 2.567, 4.0]
        row = [(0.4, a) for a in orders]
        cells = [entropic_moment_numeric(ModelParams(1.0, 0.4), n, a, "position") for a in orders]
        hermite = _spy(monkeypatch, "hermite_sign_logabs")
        values = quadrature.position_moments(row, n)
        assert len(hermite) == 2
        assert quadrature.position_moments(row[::-1], n)[::-1] == values
        assert_batch_contract(values, cells, batch_tolerances(1.0, row, n))

    def test_small_budget_leads_each_class_once_per_pass(self, monkeypatch):
        # 10 classes of both kinds, interleaved lambda by lambda as a CLI grid
        # lists them, under a budget of 3000 nodes: the passes take the
        # classes' half lines whole, each laid out once in the call (a head
        # from 0 and one tail from z_last), with the unsplit values
        n, lams = 6, [0.0, 0.4, 3.0, 30.0]
        orders = [0.3, 2.0, 1.25, 0.8, 3.0, 1.5, 2.567, 1.0, 4.0, 1.05, 3.5, 0.6]
        grid = [(lam, a) for lam in lams for a in orders]
        whole = quadrature.position_moments(grid, n)
        grids = _spy(monkeypatch, "_panel_grid")
        monkeypatch.setattr(quadrature, "_PASS_NODES", 3000)
        assert quadrature.position_moments(grid, n) == whole
        z_last = float(hermite_zeros(n)[-1])
        heads = [np.count_nonzero(starts == 0.0) for starts, *_ in grids]
        tails = [np.count_nonzero(starts == z_last) for starts, *_ in grids]
        assert heads == tails and sum(heads) == len({(a.is_integer(), max(a, 1.0)) for a in orders})
        assert len(grids) > 2  # more passes than kinds

    def test_calls_keep_nothing(self, monkeypatch):
        # a second call lays out and evaluates the first call's panels again
        row = [(lam, a) for lam in (0.0, 0.4) for a in ROW_ORDERS]
        grids = _spy(monkeypatch, "_panel_grid")
        hermite = _spy(monkeypatch, "hermite_sign_logabs")
        first = quadrature.position_moments(row, 7)
        assert quadrature.position_moments(row, 7) == first
        assert len(grids) == len(hermite) == 2
        assert all(np.array_equal(a, b) for a, b in zip(*grids))
        assert np.array_equal(hermite[0][1], hermite[1][1])

    def test_memory_is_one_pass(self):
        # k orders above 1 are k layout classes, and nothing of a pass
        # outlives it: a pass holds fewer than _PASS_NODES nodes and one cell
        # more, and its arrays (nodes, weights, ln|H_n|, the recurrence's work
        # arrays) are 16 of that length at most, whatever k
        n, peaks = 60, []
        cell = len(_log_density(ModelParams(1.0, 0.4), n, 2.99, 1)[0])  # the largest class's
        for k in (100, 300):
            cells = [(0.4, 1.0 + 2.0 * (j + 0.5) / k) for j in range(k)]
            tracemalloc.start()
            try:
                quadrature.position_moments(cells, n)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 16 * 8 * (quadrature._PASS_NODES + cell)
        assert peaks[1] < 1.1 * peaks[0]

    def test_position_table_makes_two_passes_per_row(self, monkeypatch, capsys, tmp_path):
        # each of the 21 rows: its 7 fractional orders in one pass, Shannon in
        # another (order 2 takes the closed form); one of each per cell before
        from darboux3 import cli

        grids = _spy(monkeypatch, "_panel_grid")
        hermite = _spy(monkeypatch, "hermite_sign_logabs")
        assert cli.main(["table", "renyi_pos_d", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.endswith("table renyi_pos_d: PASS\n")
        assert len(grids) == len(hermite) == 42


class TestGradedTail:
    """Past y_g = sqrt(2n + 1) + 1 the position tail's panels grow by 1.35."""

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 13, 30, 47, 60])
    def test_integer_orders_against_closed_form(self, n):
        for lam in (0.0, 0.4, 7.0, 100.0, 1000.0):
            params = ModelParams(1.0, lam)
            for alpha in (2, 3):
                got = entropic_moment_numeric(params, n, float(alpha), "position")
                assert got == pytest.approx(entropic_moment(params, n, alpha), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 12, 20, 33, 47, 60])
    def test_fractional_orders_against_equal_tail(self, n):
        # the x-grid path on the equal tail the layout had before; at lam = 30
        # and n = 0 the branch points +-i / sqrt(kappa) lie within one panel
        # width of the origin
        for refine in (1, 2):
            for lam in (0.0, 0.5, 2.0, 8.0, 30.0):
                params = ModelParams(1.0, lam)
                for alpha in (0.3, 0.5, 0.75, 1.5, 2.197, 3.4):
                    got = entropic_moment_numeric(params, n, alpha, "position", refine)
                    want = reference_position_moment(params, n, alpha, refine, graded=False)
                    assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_panel_count_is_logarithmic(self, monkeypatch):
        # the pieces through y_g keep the equal width d; past it each is 1.35
        # times the one before (the last is cut at L), so they number about
        # log(1 + 0.35 (L - y_g) / d) / log(1.35), not (L - y_g) / d
        grids = _spy(monkeypatch, "_panel_grid")
        for n in range(0, 61, 4):
            y_g = math.sqrt(2 * n + 1) + 1.0
            z_last = float(hermite_zeros(n)[-1]) if n else 0.0
            for alpha in (0.3, 1.0, 3.4):
                for lam in (0.0, 1.0, 1000.0):
                    for refine in (1, 2):
                        params = ModelParams(1.0, lam)
                        _log_density(params, n, alpha, refine)
                        starts, ends = grids[-1][:2]
                        assert np.array_equal(starts[1:], ends[:-1])
                        tail = np.append(starts[starts >= z_last], ends[-1])  # past the head
                        L, widths = tail[-1], np.diff(tail)
                        d, past = widths[0], tail[:-1] > y_g
                        assert widths[~past] == pytest.approx(d, rel=1e-10)
                        assert np.allclose(widths[past][1:-1] / widths[past][:-2], 1.35, rtol=1e-10)
                        assert widths[past][-1] < 1.35 * widths[past][-2]
                        grown = np.count_nonzero(past)
                        assert grown <= 1 + math.log(1 + 0.35 * (L - y_g) / d) / math.log(1.35)
                        assert len(widths) - grown <= (y_g - tail[0]) / d + 1


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
        # the step asks for M = 16 here: 9 nodes are zero-padded to M and
        # 16 fill it, and 25 nodes take M = 32, as the short FFT of a
        # two-band scan must (an rfft of 16 points would drop 9 of them);
        # the momenta run past M / 2 but stay inside one period M, as a
        # profile's do (test_scan_nodes_fit_one_fft_length)
        rng = np.random.default_rng(7)
        h, step = 0.05, 8.0
        p_max = 0.9 * 2.0 * np.pi / h
        for blocks, m in ((3, 16), (4, 16), (5, 32)):
            fw = rng.standard_normal((blocks, blocks))
            p, vals = _fft_scan(n, fw.ravel(), h, p_max, step)
            assert p[1] - p[0] == pytest.approx(2.0 * np.pi / (m * h), rel=1e-15)
            assert p[1] - p[0] <= step and p[-1] >= p_max
            lattice = _progression(0.0, blocks * h, blocks), _progression(0.0, h, blocks)
            kernel = _ft_component(n, *lattice, fw, (p,))
            assert np.max(np.abs(vals - kernel)) < 1e-11

    @pytest.mark.parametrize("lam,n", [(30.0, 1), (100.0, 0)])
    def test_two_band_scan_is_the_kernel_sum(self, lam, n):
        # the head band is the kernel at 48 (n + 2) momenta k step_head up
        # to p_feat, given as the two levels of their progression, and the
        # tail band the short FFT past the last head point, every step
        # within the tail step, out to L_p
        params = ModelParams(1.0, lam)
        L_p = quadrature._momentum_cut(params, n)
        p_feat = quadrature._momentum_tail_start(params, n)
        lattice = _ft_x_nodes(params, n, L_p)
        fw = _lattice_values(lambda x: wavefunction(params, n, x), *lattice)
        head_step, tail_step = reference_scan_steps(params, n, L_p)
        head = 48 * (n + 2)
        assert scan_size(params, n)[4] == head  # two bands run here
        p, vals, count = quadrature._zero_scan(n, *lattice[:2], fw, p_feat, L_p)
        levels = _progression(0.0, head_step, head)
        assert count == head and np.array_equal(p[:head], lattice_side(levels, head))
        assert p[:head] == pytest.approx(head_step * np.arange(head), rel=1e-15)
        assert p[head - 1] == pytest.approx(p_feat, rel=1e-14)
        assert np.all(np.diff(p[head - 1 :]) > 0.0)
        assert np.all(np.diff(p[head - 1 :]) <= tail_step) and p[-1] >= L_p
        assert np.array_equal(vals[:head], _ft_component(n, *lattice[:2], fw, levels)[:head])
        picks = np.arange(head, len(p), 7)
        kernel = _ft_component(n, *lattice[:2], fw, (p[picks],))
        assert np.max(np.abs(vals[picks] - kernel)) <= 1e-13 * np.abs(fw).sum()

    def test_scan_nodes_fit_one_fft_length(self, monkeypatch):
        # the scan zero-pads fw to M and reads the FFT at k without a
        # reduction mod M, so it needs padded N <= M and k < M: the oracle
        # matches the live scan, its FFT and its head band, on small
        # profiles and on two-band ones, then sweeps the domain, where k
        # stays within M / 2 up to the ceiling.  A single FFT holds N nodes
        # with room to spare; a two-band scan runs only where the head step
        # binds, so its FFT is shorter than the single one
        sizes = []

        def spy(n, fw, h, p_max, step):
            p, vals = scan(n, fw, h, p_max, step)
            sizes[-1] = (len(fw), round(2.0 * math.pi / ((p[1] - p[0]) * h)), len(p) - 1)
            return p, vals

        def zero_scan_spy(*args):
            p, vals, heads[-1] = zero_scan(*args)
            return p, vals, heads[-1]

        scan, zero_scan = quadrature._fft_scan, quadrature._zero_scan
        monkeypatch.setattr(quadrature, "_fft_scan", spy)
        monkeypatch.setattr(quadrature, "_zero_scan", zero_scan_spy)
        quadrature._profile_cached.cache_clear()
        cases, heads = [], []
        for om in (1e-3, 1.0, 1e4):
            for lam, n in ((0.0, 3), (0.4, 20), (30.0, 1), (100.0, 6)):
                for refine in (1, 2):
                    cases.append((ModelParams(om, lam * om), n, refine))
                    sizes.append(None)
                    heads.append(0)
                    quadrature._profile_cached.cache_clear()  # the omega twins share one profile
                    momentum_profile(*cases[-1])
        quadrature._profile_cached.cache_clear()
        want = [scan_size(*case) for case in cases]
        assert [(nodes, run, top) for nodes, _, run, top, _, _ in want] == sizes
        assert [head for *_, head, _ in want] == heads and 0 < heads.count(0) < len(heads)
        worst, bands = 0.0, 0
        for om in (1e-3, 0.03, 1.0, 31.6, 1e4):
            for lam in [0.0] + [10.0 ** (k / 4) for k in range(-16, 17)]:
                for n in range(101):
                    for refine in (1, 2, 4):
                        nodes, m, run, top, head, _ = scan_size(ModelParams(om, lam * om), n, refine)
                        assert nodes <= run and top <= run // 2 + 1
                        if head:
                            bands += 1
                            assert run < m
                        else:
                            worst = max(worst, nodes / m)
        assert worst < 0.1 and bands > 0

    def test_lattice_past_the_supported_corner_raises(self):
        # lam / omega = 1e3, n = 50 at refine 1 needs N = 1,993,744 nodes and
        # M = 2^27 scan points whatever omega, and is built; refine 2 there
        # needs more, and raises before allocating
        for om in (1e-3, 0.37, 1.0, 1e4):
            params = ModelParams(om, 1e3 * om)
            L_p = quadrature._momentum_cut(params, 50)
            step = reference_scan_step(params, 50, L_p)
            assert scan_size(params, 50)[:2] == (1_993_744, 2**27)
            assert quadrature._ft_x_nodes(params, 50, L_p, 1, step)[2].size == 1_993_744
            with pytest.raises(ArithmeticError, match="N = 3988009 nodes and M = 268435456 "):
                quadrature._ft_x_nodes(params, 50, L_p, 2, step)

    @pytest.mark.parametrize("lam,n", [(0.4, 3), (10.0, 20), (100.0, 0), (100.0, 6)])
    def test_trapezoid_alias_bound(self, lam, n):
        # the step puts the first Poisson alias beyond the transform's band,
        # so halving it changes nothing on the profile's own nodes
        params = ModelParams(1.0, lam)
        prof = momentum_profile(params, n)
        gammas = []
        for refine in (1, 2):
            lattice = _ft_x_nodes(params, n, prof.grid.half_width, refine)
            fw = _lattice_values(lambda x: wavefunction(params, n, x), *lattice)
            g = _ft_component(n, *lattice[:2], fw, (prof.p,))
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
        # the kernel's arrays fill one chunk of bounded size; chunks of
        # 256 momenta over all nodes took about 400 MB here
        h = 40.0 / 99_999
        origins, offsets = _progression(0.0, 317 * h, 316), _progression(0.0, h, 317)
        x = lattice_nodes(origins, offsets, (316, 317))  # the 100,000 nodes j h, and 172 more
        fw = (np.exp(-0.5 * x * x) * h).reshape(316, 317)
        p = np.linspace(0.0, 8.0, 300)
        tracemalloc.start()
        try:
            out = _ft_component(0, origins, offsets, fw, (p,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20
        expect = np.sqrt(np.pi / 2.0) * np.exp(-0.5 * p * p) + 0.5 * h
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


    @pytest.mark.parametrize(
        "p", [0.7, [], [[0.3], [1.2]], [[0.3, 1.2]], [[0.3, 1.2], [2.0, 0.0]], [[[0.5]]]]
    )
    def test_momentum_shape_kept(self, deformed, p):
        # every transform returns the shape of p: the flat sums, reshaped
        from darboux3.strong_nonlinear import g_series_transform

        for n in (2, 3):
            for ft in (
                lambda q: fourier_transform(deformed, n, None, q),
                lambda q: fourier_transform(deformed, n, GridSpec(14.0, 1024), q),
                lambda q: g_series_transform(deformed, n, q),
            ):
                val = ft(p)
                if np.ndim(p) == 0:
                    assert isinstance(val, complex)
                    continue
                assert val.shape == np.shape(p)
                assert np.array_equal(val.ravel(), ft(np.ravel(p)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_momentum_rejected(self, deformed, bad):
        from darboux3.strong_nonlinear import g_series_transform

        for p in (bad, [0.5, bad], [[bad], [1.0]]):
            for ft in (
                lambda q: fourier_transform(deformed, 0, None, q),
                lambda q: fourier_transform(deformed, 1, GridSpec(14.0, 1024), q),
                lambda q: g_series_transform(deformed, 2, q),
            ):
                with pytest.raises(ValueError, match=f"momentum must be finite, got p={bad}"):
                    ft(p)

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


class TestTransformKernel:
    """The angle-addition kernel against the direct sum it replaced and
    against the same sum in long double, its phases in double-double."""

    EPS = np.finfo(float).eps

    @pytest.mark.parametrize("seed", range(6))
    def test_random_lattices_against_oracles(self, seed):
        # one level a side: the kernel is within 4 eps sum|fw| of the
        # long-double sum of exact phases (|p x| reaches 5e4, where a
        # long-double product p x alone is off by up to 2.7e-15); the direct
        # double sum also rounds each phase p x, by up to eps |p x|
        rng = np.random.default_rng(seed)
        blocks, width = rng.integers(1, 50, size=2)
        scale = 10.0 ** rng.uniform(-1.0, 3.0)
        origins = (np.sort(rng.uniform(-scale, scale, blocks)),)
        offsets = (rng.uniform(0.0, scale / blocks, width),)
        fw, p, sums = self._against_long_double(rng, seed, origins, offsets, (blocks, width))
        x = lattice_nodes(origins, offsets, (blocks, width))
        for row, (n, g) in enumerate(sums):
            abs_fw = np.abs(fw[row]).ravel()
            direct = reference_ft_sum(n, x, fw[row], p)
            bound = self.EPS * (4.0 * abs_fw.sum() + np.abs(np.multiply.outer(p, x)) @ abs_fw)
            assert np.all(np.abs(g - direct) <= bound)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_multilevel_lattices_against_oracles(self, seed):
        # sides of one to three random levels, each cut anywhere past its
        # last level's first row, within 4 eps sum|fw| of the long-double
        # sum over the levels' outer sums
        rng = np.random.default_rng(100 + seed)
        self._against_long_double(rng, seed, *self._random_sides(rng))

    @pytest.mark.parametrize("seed", range(12))
    def test_two_level_momenta(self, seed):
        # momenta given as the two levels of a progression, start + c F step
        # and f step, on random sides of two levels: the sums at their outer
        # sums agree with the same momenta given as one level, and both with
        # the double-double oracle, within the rounding bound of their m
        # momentum levels, eps ((B + J) / 2 + 2 + 10 m) sum|fw|.  The step
        # and start are multiples of 2^-16, so every momentum is exact
        rng = np.random.default_rng(300 + seed)
        origins, offsets, shape = self._random_sides(rng, depth=2)
        fw = rng.standard_normal(shape) * np.exp(rng.uniform(-3, 3, (shape[0], 1)))
        count = int(rng.integers(1, 200))
        step = round(rng.uniform(0.05, 2.5) * 2.0**16) / 2.0**16
        start = round(rng.uniform(-60.0, 10.0) * 2.0**16) / 2.0**16
        momenta = _progression(start, step, count)
        p = lattice_side(momenta, count)
        assert np.array_equal(p, start + step * np.arange(count))
        oracle = reference_ft_sum_dd(seed, origins, offsets, fw, p)
        two = _ft_component(seed, origins, offsets, fw, momenta)
        one = _ft_component(seed, origins, offsets, fw, (p,))
        assert two.shape == (len(momenta[0]) * len(momenta[1]),)
        bounds = [quadrature._rounding_bound(fw, m) for m in (1, 2)]
        assert np.max(np.abs(one - oracle)) <= bounds[0]
        assert np.max(np.abs(two[:count] - oracle)) <= bounds[1]
        assert np.max(np.abs(two[:count] - one)) <= sum(bounds)

    @staticmethod
    def _random_sides(rng, depth=None):
        """Origins and offsets of ``depth`` random levels each (one to three,
        drawn, for None) and the weights' shape, each side cut anywhere past
        its last level's first row.  The level entries are multiples of
        2^-52 of a power of two past them all, so that every node, a sum of
        up to six of them, is exact in long double, as the double-double
        phases need."""
        scale = 10.0 ** rng.uniform(-1.0, 1.0)
        quantum = 2.0 ** (math.ceil(math.log2(scale)) - 52)
        sides, shape = [], []
        for span in (scale, scale / 8.0):
            levels = tuple(
                np.round(rng.uniform(-span, span, rng.integers(1, 9)) / quantum) * quantum
                for _ in range(depth or rng.integers(1, 4))
            )
            full = math.prod(len(level) for level in levels)
            sides.append(levels)
            shape.append(int(rng.integers(full - len(levels[-1]) + 1, full + 1)))
        return (*sides, tuple(shape))

    def _against_long_double(self, rng, seed, origins, offsets, shape):
        """Random weights and momenta on the lattice; each row's kernel
        sum, alone and stacked, against the long-double sum with exact
        phases.  Returns the weights, the momenta and each row's (n, sum)."""
        fw = rng.standard_normal((2,) + shape) * np.exp(rng.uniform(-3, 3, (shape[0], 1)))
        p = np.concatenate([[0.0], rng.uniform(-50.0, 50.0, 40)])
        stacked = _ft_component((seed, seed + 1), origins, offsets, fw, (p,))
        sums = []
        for row, n in enumerate((seed, seed + 1)):
            g = _ft_component(n, origins, offsets, fw[row], (p,))
            oracle = reference_ft_sum_dd(n, origins, offsets, fw[row], p)
            for got in (g, stacked[row]):
                assert np.max(np.abs(got - oracle)) <= 4.0 * self.EPS * np.abs(fw[row]).sum()
            if n % 2:  # the odd sum at p = 0 is +0
                assert g[0] == 0.0 and math.copysign(1.0, g[0]) == 1.0
            sums.append((n, g))
        return fw, p, sums

    def test_empty_momenta(self):
        origins, offsets = (np.arange(3.0),), _progression(0.0, 0.25, 4)
        assert _ft_component(0, origins, offsets, np.ones((3, 4)), (np.array([]),)).shape == (0,)
        pair = _ft_component((0, 1), origins, offsets, np.ones((2, 3, 4)), (np.array([]),))
        assert pair.shape == (2, 0)

    @pytest.mark.parametrize("lam,n", PROFILE_PAIRS)
    def test_profile_against_long_double(self, lam, n):
        # on the profile's own lattice and momenta (every k-th, so that each
        # case sums at most ~2e6 long-double terms), the transform is within
        # 4 eps sum|fw| of the long-double sum
        params = ModelParams(1.0, lam)
        prof = momentum_profile(params, n)
        lattice = _ft_x_nodes(params, n, prof.grid.half_width)
        fw = _lattice_values(lambda x: wavefunction(params, n, x), *lattice)
        p = prof.p[:: max(1, fw.size * len(prof.p) // 2_000_000)]
        g = _ft_component(n, *lattice[:2], fw, (p,))
        x = lattice_nodes(*lattice[:2], fw.shape, np.longdouble)
        oracle = reference_ft_sum(n, x, fw, p, np.longdouble)
        assert np.max(np.abs(g - oracle)) <= 4.0 * self.EPS * np.abs(fw).sum()

    def test_trig_pass_takes_the_level_entries(self, monkeypatch):
        # each side of the profile lattice is two levels, so the kernel's
        # one cos/sin pass per chunk takes the level entries, not the J + B
        # side entries: 31 phases per momentum at (9.36, 4), where N = 3192
        # and J + B = 113, in every Newton step and the final sum.  The head
        # band's 288 momenta are two levels of 17 entries, a pass each, so
        # it takes 31 (17 + 17) = 1054 phases where one level took
        # 31 * 288 = 8928
        passes = []  # (the kernel's caller, level entries, momenta) of each pass

        def spy(x, x_split, q, q_split):
            passes.append((caller[0], len(x), len(q)))
            return unit_phases(x, x_split, q, q_split)

        def kernel_spy(*args):
            caller[0] = sys._getframe(1).f_code.co_name
            return kernel(*args)

        caller, unit_phases, kernel = [None], quadrature._unit_phases, quadrature._ft_component
        monkeypatch.setattr(quadrature, "_unit_phases", spy)
        monkeypatch.setattr(quadrature, "_ft_component", kernel_spy)
        params = ModelParams(1.0, 9.36)
        quadrature._profile_cached.cache_clear()
        try:
            prof = momentum_profile(params, 4)
        finally:
            quadrature._profile_cached.cache_clear()
        nodes, *_, head, levels = scan_size(params, 4)
        assert (nodes, head, levels, level_entries(head)) == (3192, 288, 31, 34)
        phases = {}
        for name, entries, momenta in passes:
            phases[name] = phases.get(name, 0) + entries * momenta
        assert phases["_zero_scan"] == levels * level_entries(head)
        assert phases["_profile_cached"] == levels * len(prof.p)
        assert phases["g_slope_bound"] % levels == 0
        assert {entries for _, entries, _ in passes} == {levels}

    def test_every_transform_calls_the_kernel(self, deformed, monkeypatch):
        from darboux3 import strong_nonlinear

        callers = []  # the kernel's caller and the function that called it

        def spy(*args):
            frame = sys._getframe(1)
            callers.append((frame.f_code.co_name, frame.f_back.f_code.co_name))
            return _ft_component(*args)

        monkeypatch.setattr(quadrature, "_ft_component", spy)
        quadrature._profile_cached.cache_clear()
        try:
            momentum_profile(deformed, 3)
        finally:
            quadrature._profile_cached.cache_clear()
        # g_slope_bound: the function _transform_zeros hands to bracketed_newton
        assert callers[0][0] == "g_slope_bound" and callers[-1][0] == "_profile_cached"
        assert {caller for caller, _ in callers} == {"g_slope_bound", "_profile_cached"}
        # both transforms through the one assembly
        for grid in (None, GridSpec(14.0, 1024)):
            callers.clear()
            fourier_transform(deformed, 3, grid, np.array([0.0, 1.5]))
            assert callers == [("_lattice_transform", "fourier_transform")]
        callers.clear()
        strong_nonlinear.g_series_transform(deformed, 3, np.array([0.0, 1.5]))
        assert callers == [("_lattice_transform", "g_series_transform")]

    @pytest.mark.parametrize("lam,n", PROFILE_PAIRS)
    def test_zero_refinement(self, lam, n, monkeypatch):
        # every zero in at most 8 kernel calls, whatever the zero count, and
        # within 1e-13 relative of long-double Newton steps from it: as close
        # as the kernel's rounding, 4 eps sum|fw|, lets a root of g be.  The
        # brackets are ordered, disjoint and none at p = 0, so the zeros come
        # out increasing inside (0, 0.999 L_p) with no sort and no merge
        calls = []

        def spy(*args):
            calls.append(len(args[-1][0]))
            return _ft_component(*args)

        params = ModelParams(1.0, lam)
        L_p = quadrature._momentum_cut(params, n)
        lattice = _ft_x_nodes(params, n, L_p)
        fw = _lattice_values(lambda x: wavefunction(params, n, x), *lattice)
        monkeypatch.setattr(quadrature, "_ft_component", spy)
        p_feat = quadrature._momentum_tail_start(params, n)
        zeros = quadrature._transform_zeros(n, *lattice[:2], fw, p_feat, L_p)
        assert len(zeros) and len(calls) <= 8
        assert zeros[0] > 0.0 and np.all(np.diff(zeros) > 0.0) and zeros[-1] < 0.999 * L_p
        x = lattice_nodes(*lattice[:2], fw.shape, np.longdouble)
        z = zeros.astype(np.longdouble)
        for _ in range(3):
            g = reference_ft_sum(n, x, fw, z, np.longdouble)
            dg = reference_ft_sum(n + 1, x, x * fw.ravel(), z, np.longdouble)
            z -= g / (dg if n % 2 else -dg)
        assert np.max(np.abs(zeros / z - 1.0)) <= 1e-13
        slack = 4.0 * self.EPS * np.abs(fw).sum() / np.abs(dg)
        assert np.all(np.abs(zeros - z) <= slack + 2.0 * self.EPS * zeros)


class TestSignFlips:
    def test_window_is_the_padded_sliding_window(self):
        # the noise filter's window |vals[i-2 : i+4]| around each sign flip,
        # cut at the ends, read from a zero-padded copy: the same kept flips
        # as np.pad and sliding_window_view give, with flips at both ends
        from numpy.lib.stride_tricks import sliding_window_view

        rng = np.random.default_rng(11)
        for size in (2, 3, 4, 7, 50, 600):
            for _ in range(25):
                vals = rng.standard_normal(size) * 10.0 ** rng.uniform(-20.0, 0.0, size)
                vals[rng.random(size) < 0.05] = 0.0
                vals[0], vals[1] = abs(vals[0]), -abs(vals[1])
                vals[-2], vals[-1] = abs(vals[-2]), -abs(vals[-1])
                noise = 10.0 ** rng.uniform(-20.0, 0.0)
                sgn = np.sign(vals)
                flips = np.flatnonzero(sgn[:-1] * sgn[1:] < 0)
                near = sliding_window_view(np.pad(np.abs(vals), (2, 3)), 6)[flips]
                want = flips[near.max(axis=1, initial=0.0) > noise]
                assert np.array_equal(quadrature._sign_flips(vals, noise), want)


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

    def test_first_profile_imports_no_masked_arrays(self):
        # numpy's unique imports numpy.ma on its first call: 9-14 ms in a one-shot request
        code = (
            "import sys\n"
            "from darboux3 import ModelParams, momentum_profile\n"
            "momentum_profile(ModelParams(1, 2), 3)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")

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


def _cold_strata():
    """The (lam, n) of the benchmark's momentum-cold strata at the ends and
    the middle of each one's jittered quarter: 13 log-equal strata of
    [0.05, 30] (14 with the pinned corner lam = 30, n = 0), stratum i at
    n = (7 i + 4) mod 11, drawn from the middle quarter of the stratum."""
    step = math.log(30.0 / 0.05) / 14
    return {
        (i, u): (0.05 * math.exp((i + u) * step), (7 * i + 4) % 11)
        for i in range(13)
        for u in (0.375, 0.5, 0.625)
    }


class TestMomentumIdentities:
    """Momentum values against identities that share no layout with the profile."""

    @pytest.mark.parametrize("lam,n", [(0.0, 0), (0.0, 3), (0.4, 0), (0.4, 7), (2.0, 3), (10.0, 3), (30.0, 0)])
    def test_discrete_parseval(self, lam, n):
        # W_2 = integral gamma^2 dp = (1 / 2 pi) integral C(u)^2 du with the
        # autocorrelation C(u) = integral Psi(x) Psi(x + u) dx, whose
        # transform is 2 pi gamma: both integrals by the trapezoid rule at
        # one step h of the test's own.  The rule's error is the spectrum
        # at 2 pi / h, put past the Gaussian extent of the transform's
        # convolution square and 40 decay lengths sqrt(lam) of its
        # branch-point tail; [-L, L] holds Psi to e^-40 of its peak
        params = ModelParams(1.0, lam)
        om = effective_frequency(params, n)
        L = (math.sqrt(2 * n + 1) + 9.0) / math.sqrt(om)
        h = 2.0 * math.pi / (9.0 * math.sqrt((2 * n + 1) * om) + 40.0 * math.sqrt(lam) + 10.0)
        x = h * np.arange(-math.ceil(L / h), math.ceil(L / h) + 1)
        psi = wavefunction(params, n, x)
        c = h * np.correlate(psi, psi, "full")
        w_2 = h * float(c @ c) / (2.0 * math.pi)
        assert w_2 == pytest.approx(entropic_moment_numeric(params, n, 2.0, "momentum"), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("lam,n", [(0.05, 7), (0.4, 0), (2.0, 1), (10.0, 3), (30.0, 5)])
    def test_plancherel_bound(self, lam, n):
        # Psi - phi_n = N e^(-Omega x^2 / 2) H_n (sqrt(1 + lam x^2) - sqrt(lam) |x|)
        # and the last factor lies in (0, 1], so ||Psi - phi_n||^2 <= f, the
        # harmonic weight; by Plancherel so is ||g - g_phi||^2, here on the
        # profile's nodes (0.35, 0.54, 0.029, 6.7e-4 and 4.9e-5 of f)
        params = ModelParams(1.0, lam)
        prof = momentum_profile(params, n)
        g = fourier_transform(params, n, None, prof.p)
        g_phi = g_series_transform(params, n, prof.p)
        assert 2.0 * float(prof.weights @ np.abs(g - g_phi) ** 2) <= harmonic_weight(params, n).f


class TestTwoBandScan:
    # a zero scan whose single FFT would be 2^16 points or more takes two bands
    EPS = np.finfo(float).eps

    @staticmethod
    def _zeros(lam, n, omega=1.0):
        params = ModelParams(omega, lam)
        L_p = quadrature._momentum_cut(params, n)
        lattice = _ft_x_nodes(params, n, L_p)
        fw = _lattice_values(lambda x: wavefunction(params, n, x), *lattice)
        p_feat = quadrature._momentum_tail_start(params, n)
        return lattice, fw, quadrature._transform_zeros(n, *lattice[:2], fw, p_feat, L_p)

    @pytest.mark.parametrize("lam,n", [
        (6.06, 8), (9.57, 4), (30.0, 0), (30.0, 1), (30.0, 10), (100.0, 0), (100.0, 6),
        (6.0, 20), (20.0, 15), (100.0, 12), (1.778, 12), (2.371, 8), (3.162, 20),
    ])
    def test_two_bands_match_one_fft(self, lam, n, monkeypatch):
        # against the single FFT (the oracle's scan in place of the switch):
        # the same zero count, each zero within Newton's stopping bound over
        # |g'| of the other, and W_1/2 and W_2 within 1e-15 relative
        params = ModelParams(1.0, lam)
        assert scan_size(params, n)[4]  # two bands run here

        def one_fft(n, origins, offsets, fw, p_feat, L_p):
            step = reference_scan_step(params, n, L_p)
            return (*reference_fft_scan(n, fw.ravel(), float(offsets[-1][1]), L_p, step), 0)

        runs = []
        for scan in (quadrature._zero_scan, one_fft):
            monkeypatch.setattr(quadrature, "_zero_scan", scan)
            quadrature._profile_cached.cache_clear()
            moments = [entropic_moment_numeric(params, n, a, "momentum") for a in (0.5, 2.0)]
            runs.append((self._zeros(lam, n), moments))
        quadrature._profile_cached.cache_clear()
        ((lattice, fw, two), w_two), ((_, _, one), w_one) = runs
        assert len(two) == len(one) > 0
        x = lattice_nodes(*lattice[:2], fw.shape).reshape(fw.shape)
        slope = _ft_component(n + 1, *lattice[:2], x * fw, (one,))
        bound = self.EPS * (0.5 * sum(fw.shape) + 12.0) * np.abs(fw).sum()
        assert np.all(np.abs(two - one) <= bound / np.abs(slope))
        assert w_two == pytest.approx(w_one, rel=1e-15)

    def test_zeros_against_the_recorded_table(self):
        # every profile of a sweep, lam in [0, 30] at omega = 1 and twins at
        # omega = 1e-3, 0.37 and 1e4, n <= 20, keeps its zero count, and each
        # zero lies within Newton's stopping bound over |g'| of the one in
        # momentum_zeros.json ("omega,lam,n": the zeros as float.hex), taken
        # when the head band summed its momenta as one level and ran only
        # where also M log2 M >= 28 P (B + J)
        table = json.loads((Path(__file__).parent / "momentum_zeros.json").read_text())
        bands = 0
        for key, recorded in table.items():
            omega, lam, n = (float(v) for v in key.split(","))
            lattice, fw, zeros = self._zeros(lam, int(n), omega)
            want = np.array([float.fromhex(z) for z in recorded.split()])
            assert len(zeros) == len(want), key
            x = lattice_nodes(*lattice[:2], fw.shape).reshape(fw.shape)
            slope = _ft_component(int(n) + 1, *lattice[:2], x * fw, (want,))
            assert np.all(np.abs(zeros - want) <= quadrature._rounding_bound(fw) / np.abs(slope)), key
            bands += scan_size(ModelParams(omega, lam), int(n))[4] > 0
        assert len(table) == 609 and bands > 0

    def test_tables_and_cold_requests_take_one_fft(self, monkeypatch):
        # every profile of the momentum tables (lam = 0 and 0.4, n <= 20),
        # the benchmark's harmonic requests and its cold strata but two
        # scan with the one FFT they took before two bands existed, bit for
        # bit; strata 10 (n = 8) and 11 (n = 4) and the corner (30, 0) take
        # two bands
        scans = []

        def spy(n, origins, offsets, fw, p_feat, L_p):
            p, vals, head = zero_scan(n, origins, offsets, fw, p_feat, L_p)
            scans.append((p, vals))
            step = reference_scan_step(ModelParams(1.0, lam), n, L_p)
            want.append(reference_fft_scan(n, fw.ravel(), float(offsets[-1][1]), L_p, step))
            return p, vals, head

        zero_scan = quadrature._zero_scan
        monkeypatch.setattr(quadrature, "_zero_scan", spy)
        strata = _cold_strata()
        cases = [(lam, n) for lam in (0.0, 0.4) for n in range(21)]
        cases += [case for (i, u), case in strata.items() if i not in (10, 11)]
        quadrature._profile_cached.cache_clear()
        try:
            for lam, n in cases:
                want = []
                momentum_profile(ModelParams(1.0, lam), n)
                (p, vals), ((p_want, vals_want),) = scans.pop(), want
                assert np.array_equal(p, p_want) and np.array_equal(vals, vals_want), (lam, n)
            for lam, n in [strata[i, u] for i in (10, 11) for u in (0.375, 0.5, 0.625)] + [(30.0, 0)]:
                assert scan_size(ModelParams(1.0, lam), n)[4] == 48 * (n + 2), (lam, n)
        finally:
            quadrature._profile_cached.cache_clear()

    def test_large_profile_memory(self):
        # the single FFT at lam = 1000, n = 6 was 2^24 points, and the
        # profile peaked at 450 MB; two bands keep it under 64 MB
        quadrature._profile_cached.cache_clear()
        tracemalloc.start()
        try:
            prof = momentum_profile(ModelParams(1.0, 1000.0), 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            quadrature._profile_cached.cache_clear()
        assert 2.0 * float(prof.weights @ prof.gamma) == pytest.approx(1.0, abs=1e-6)
        assert peak < 64 * 2**20


def _tail_law(params, n, p):
    """ln of the branch-point tail law of gamma at momenta ``p`` (test oracle:
    |H_n(i y)| from numpy's Hermite series at a complex argument)."""
    from numpy.polynomial.hermite import hermval

    lam, om = params.lam, effective_frequency(params, n)
    h = abs(hermval(1j * math.sqrt(om / lam), [0.0] * n + [1.0]))
    const = 2.0 * math.log(norm_constant(params, n)) + om / lam + 2.0 * math.log(h)
    return const + 0.5 * math.log(lam) - 3.0 * np.log(p) - 2.0 * p / math.sqrt(lam)


def _shifted_line_tail(params, n, L):
    """The shifted-line bound on both tails of W_1/2 past L (test oracle):
    |g(p)| <= (2 pi)^(-1/2) e^(-p c) M(c), M(c) = integral |Psi_n(x - ic)| dx,
    with c = L / Omega, integrated over p in [L, inf), twice.  Psi_n(x - ic)
    = (1 + (n + 1/2) lam / Omega)^(-1/2) sqrt(1 + lam (x - ic)^2)
    Omega^(1/4) h_n(sqrt(Omega) (x - ic)), with the normalised Hermite
    function h_n from its complex recurrence, summed by the trapezoid rule."""
    om = effective_frequency(params, n)
    c = L / om
    assert c * math.sqrt(params.lam) < 1.0  # the line stays in the strip
    reach = (12.0 + math.sqrt(2 * n + 1)) / math.sqrt(om)
    x = np.linspace(-reach, reach, 4001)
    z = math.sqrt(om) * (x - 1j * c)
    h_prev, h = np.zeros_like(z), math.pi**-0.25 * np.exp(-0.5 * z * z)
    for k in range(n):
        h, h_prev = math.sqrt(2.0 / (k + 1)) * z * h - math.sqrt(k / (k + 1)) * h_prev, h
    psi = np.sqrt(1.0 + params.lam * (x - 1j * c) ** 2) * om**0.25 * h
    psi /= math.sqrt(1.0 + (n + 0.5) * params.lam / om)
    m = float(np.sum(np.abs(psi))) * (x[1] - x[0])
    return 2.0 * math.exp(-L * c) * m / (c * math.sqrt(2.0 * math.pi))


class TestMomentumCut:
    """The cut is the root of the order-1/2 tail bound under the branch-point
    law, and the profile is built from it in one pass."""

    @pytest.mark.parametrize(
        "lam,n", [(0.4, 0), (1.0, 5), (2.0, 3), (10.0, 0), (30.0, 0), (30.0, 6), (100.0, 0)]
    )
    def test_tail_law_oracle_at_last_node(self, lam, n):
        # the law is the leading term: its 1/p corrections and the kernel's
        # phase rounding (a few 1e-3 at large lam) leave -0.01 to +0.36 in
        # ln gamma at these cuts
        params = ModelParams(1.0, lam)
        prof = momentum_profile(params, n)
        gap = math.log(prof.gamma[-1]) - _tail_law(params, n, prof.p[-1])
        assert -0.05 <= gap <= 0.4

    @pytest.mark.parametrize(
        "lam,n", [(0.4, 0), (1.0, 5), (10.0, 0), (30.0, 0), (30.0, 6), (100.0, 0)]
    )
    def test_half_order_tail_below_design(self, lam, n):
        # both tails of the law's gamma^(1/2) past L_p hold at most 1e-11 of W_1/2
        from scipy.integrate import quad

        params = ModelParams(1.0, lam)
        prof = momentum_profile(params, n)
        L = prof.grid.half_width
        tail, _ = quad(
            lambda p: math.exp(0.5 * _tail_law(params, n, p)), L, L + 80.0 * math.sqrt(lam),
            epsrel=1e-10, epsabs=0.0,
        )
        w_half = 2.0 * float(prof.weights @ np.sqrt(prof.gamma))
        assert 2.0 * tail <= 1e-11 * w_half

    @pytest.mark.parametrize("lam", [0.0, 0.05, 0.4, 2.0, 30.0, 1000.0])
    def test_second_moment_and_half_order_floor(self, lam):
        # <x^2> in closed form against quadrature, and the floor
        # W_1/2 >= <x^2>^(-1/4) the cut's margin rests on
        params = ModelParams(1.0, lam)
        for n in (0, 1, 4, 9):
            y, w, log_rho = _log_density(params, n, 1.0, 2)
            x2 = 2.0 * float(w @ (y * y * np.exp(log_rho))) / effective_frequency(params, n)
            assert quadrature._position_second_moment(params, n) == pytest.approx(x2, rel=1e-12)
            if lam <= 30.0:
                w_half = entropic_moment_numeric(params, n, 0.5, "momentum")
                assert w_half >= x2**-0.25

    @pytest.mark.parametrize("lam,n", PROFILE_PAIRS)
    def test_profile_cut_is_the_derived_cut(self, lam, n):
        params = ModelParams(1.0, lam)
        cut = quadrature._momentum_cut(params, n)
        assert momentum_profile(params, n).grid.half_width == cut
        gauss = quadrature._gaussian_cut(n, effective_frequency(params, n))
        assert cut >= gauss
        if cut > gauss:  # the root of L/s + 1.5 ln L = k, to rounding
            s = math.sqrt(lam)
            k = (
                0.5 * quadrature._log_tail_amplitude(params, n)
                + math.log(2.0 * s / quadrature._W_HALF_TAIL)
                + 0.25 * math.log(quadrature._position_second_moment(params, n))
            )
            assert cut / s + 1.5 * math.log(cut) == pytest.approx(k, rel=1e-13)

    @pytest.mark.parametrize("lam", [1e-12, 1e-6, 1e-4, 1e-3])
    @pytest.mark.parametrize("n", [0, 5])
    def test_gaussian_cut_below_crossover(self, lam, n):
        # below p_c = Omega / sqrt(lam) the cut is the Gaussian cut, as at
        # lam = 0 (the branch-point law put it at 5e5 for lam = 1e-12); the
        # shifted-line bound holds W_1/2's tails past it within 1e-11, and
        # W_1/2 and W_2 move from their lam = 0 values by O(lam)
        params, harmonic = ModelParams(1.0, lam), ModelParams(1.0, 0.0)
        om = effective_frequency(params, n)
        cut = quadrature._momentum_cut(params, n)
        assert cut == quadrature._gaussian_cut(n, om) < om / math.sqrt(lam)
        prof = momentum_profile(params, n)
        assert prof.grid.half_width == cut
        w_half = 2.0 * float(prof.weights @ np.sqrt(prof.gamma))
        assert _shifted_line_tail(params, n, cut) <= 1e-11 * w_half
        for alpha, at_zero in (
            (0.5, entropic_moment_numeric(harmonic, n, 0.5, "position")),
            (2.0, entropic_moment(harmonic, n, 2)),
        ):
            w = entropic_moment_numeric(params, n, alpha, "momentum")
            assert abs(w / at_zero - 1.0) <= (n + 1) * lam + 1e-12

    @pytest.mark.parametrize("lam,n", [(0.4, 0), (2.0, 3), (30.0, 6), (1.0, 50)])
    def test_tail_amplitude_against_complex_hermite(self, lam, n):
        params = ModelParams(1.0, lam)
        want = _tail_law(params, n, 1.0) + 2.0 / math.sqrt(lam)  # the law at p = 1
        assert quadrature._log_tail_amplitude(params, n) == pytest.approx(want, rel=1e-13)

    def test_one_pass_no_fourier_transform(self, monkeypatch):
        calls = {"ft": 0, "psi": 0}
        psi = quadrature.wavefunction

        def ft_spy(*args, **kwargs):
            calls["ft"] += 1
            return fourier_transform(*args, **kwargs)

        def psi_spy(*args, **kwargs):
            calls["psi"] += 1
            return psi(*args, **kwargs)

        monkeypatch.setattr(quadrature, "fourier_transform", ft_spy)
        monkeypatch.setattr(quadrature, "wavefunction", psi_spy)
        quadrature._profile_cached.cache_clear()
        for lam, n in ((0.0, 2), (0.4, 0), (2.0, 3), (30.0, 6)):
            calls.update(ft=0, psi=0)
            momentum_profile(ModelParams(1.0, lam), n)
            assert calls == {"ft": 0, "psi": 1}
        quadrature._profile_cached.cache_clear()

    @pytest.mark.parametrize("lam,n", [(0.4, 0), (1.0, 5), (30.0, 6)])
    def test_short_cut_raises(self, lam, n, monkeypatch):
        cut = quadrature._momentum_cut
        monkeypatch.setattr(quadrature, "_momentum_cut", lambda p, k: 0.5 * cut(p, k))
        quadrature._profile_cached.cache_clear()
        try:
            with pytest.raises(ArithmeticError, match="momentum cut .* short"):
                momentum_profile(ModelParams(1.0, lam), n)
        finally:
            quadrature._profile_cached.cache_clear()


class TestSelfDuality:
    def test_harmonic_position_equals_momentum(self, harmonic):
        for n in (0, 1, 4, 9, 20):
            for alpha in TABLE_ALPHAS:
                r_pos = quadrature_entropy(harmonic, n, alpha, "position")
                r_mom = quadrature_entropy(harmonic, n, alpha, "momentum")
                assert abs(r_pos - r_mom) < 1e-9


class TestCloseMomentumZeros:
    """Past n = 23 the profile splits segments between close zeros in two."""

    @pytest.mark.parametrize("n", [24, 25, 30, 40, 50])
    def test_harmonic_against_closed_form(self, harmonic, n):
        # self-duality: at omega = 1 the momentum density is the position one
        for alpha in (2, 3):
            got = entropic_moment_numeric(harmonic, n, alpha, "momentum")
            assert got == pytest.approx(entropic_moment(harmonic, n, alpha), rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("lam,n", [(0.4, 30), (3.0, 50)])
    def test_orders_against_refined_panels(self, lam, n):
        params = ModelParams(1.0, lam)
        for alpha in (0.3, 0.8, 1.3, 1.8, 2.3, 2.8, 3.3):
            got = entropic_moment_numeric(params, n, alpha, "momentum")
            want = entropic_moment_numeric(params, n, alpha, "momentum", refine=4)
            assert got == pytest.approx(want, rel=1e-9, abs=0.0)


class TestLambdaLocalisation:
    def test_momentum_renyi_strictly_decreasing(self):
        lams = np.round(np.arange(0.0, 1.5001, 0.05), 10)
        for n in (0, 1, 2):
            vals = [
                entropy(ModelParams(1.0, float(lam)), n, 2.0, "momentum", "renyi")
                for lam in lams
            ]
            assert all(a > b for a, b in zip(vals[:-1], vals[1:]))
