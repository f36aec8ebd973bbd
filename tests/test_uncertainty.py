import argparse
import math

import numpy as np
import pytest

from darboux3 import (
    ModelParams,
    conjugate_order,
    entropic_moment,
    entropy,
    entropy_from_log_moment,
    log_moments,
    xi_renyi,
    xi_tsallis,
)
from darboux3 import cli, uncertainty
from darboux3.quadrature import entropic_moment_numeric, grid_log_moment, shannon_numeric
from darboux3.uncertainty import _entropies, _xi_slacks

from conftest import assert_batch_contract, batch_tolerances

RENYI_TABLE_ALPHAS = (0.6, 0.7, 0.8, 0.9, 1.125, 4.0 / 3.0, 1.75, 3.0)


class TestLogMoment:
    @pytest.mark.parametrize(
        "alpha, space, engine",
        [
            (1.0, "position", "analytic"),
            (2.0, "position", "analytic"),
            (3.0, "position", "analytic"),
            (2.5, "position", "quadrature"),
            (1.75, "position", "quadrature"),
            (0.5, "position", "quadrature"),
            (2.0, "momentum", "quadrature"),
        ],
    )
    def test_engine_rule(self, deformed, alpha, space, engine):
        [(log_w, used)] = log_moments(deformed.omega, [(deformed.lam, alpha)], 2, space)
        assert used == engine
        numeric = math.log(entropic_moment_numeric(deformed, 2, alpha, space))
        assert log_w == pytest.approx(numeric, abs=1e-10)

    @pytest.mark.parametrize("space", ["position", "momentum"])
    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_order_not_positive_and_finite(self, deformed, alpha, space):
        with pytest.raises(ValueError, match="alpha"):
            log_moments(deformed.omega, [(deformed.lam, alpha)], 2, space)


    @pytest.mark.parametrize("space", ["position", "momentum"])
    @pytest.mark.parametrize("omega", [1.0, 0.37])
    def test_sweep_equals_cells(self, omega, space):
        # every cell of a sweep has the engine of a one-cell call and its
        # ln W: to the bit in momentum space (one profile per lambda), and
        # in position space within the batch contract (ln W moves by the
        # relative move of W)
        lams = [0.0, 0.05, 0.4, 2.0, 7.5] + ([30.0, 1e3] if space == "position" else [])
        for n in (0, 1, 6):
            for alpha in (0.3, 0.714, 1.0, 2.0, 2.567, 3.0):
                column = [(lam, alpha) for lam in lams]
                log_ws = log_moments(omega, column, n, space)
                cells = [log_moments(omega, [cell], n, space)[0] for cell in column]
                assert [e for _, e in log_ws] == [e for _, e in cells]
                tolerances = batch_tolerances(omega, column, n) if space == "position" else [0.0] * len(lams)
                assert_batch_contract([v for v, _ in log_ws], [v for v, _ in cells], tolerances, spread=1.0)

    @pytest.mark.parametrize("space", ["position", "momentum"])
    def test_sweep_rejects_bad_order(self, space):
        for alpha in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="alpha"):
                log_moments(1.0, [(0.0, alpha), (0.4, alpha)], 2, space)

    @pytest.mark.parametrize("space, alpha", [("position", 2000.5), ("momentum", 5000.5)])
    def test_underflowing_moment_raises(self, space, alpha):
        # W underflows to 0 (the momentum peak is higher) and has no
        # logarithm; the closed form at 2000 gives ln W itself
        message = f"entropic moment of order {alpha} underflows to 0 at lam=0.4, n=0"
        with pytest.raises(ArithmeticError, match=message):
            log_moments(1.0, [(0.0, 2.0), (0.4, alpha)], 0, space)
        with pytest.raises(ArithmeticError, match=message):
            grid_log_moment(ModelParams(1.0, 0.4), 0, alpha, space, 512, None)
        [(log_w, engine)] = log_moments(1.0, [(0.4, 2000.0)], 0, "position")
        assert engine == "analytic" and log_w / (1.0 - 2000.0) == pytest.approx(0.891853528008)

    @pytest.mark.parametrize("space, omega", [("position", 1e4), ("momentum", 1e-4)])
    def test_overflowing_moment_raises(self, space, omega):
        # the density peaks near 56 (omega^(1/2) / pi^(1/2) in position
        # space, omega^(-1/2) / pi^(1/2) in momentum space), so W_200.5 is
        # about 1e348: past the double range, though ln W is not.  It fails
        # as an underflow does, on the library's grid and a user's, with no
        # overflow warning; the closed form at 200 gives ln W itself
        message = r"^entropic moment of order 200\.5 overflows to inf at lam=0\.0, n=0$"
        with pytest.raises(ArithmeticError, match=message):
            log_moments(omega, [(0.0, 2.0), (0.0, 200.5)], 0, space)
        with pytest.raises(ArithmeticError, match=message):
            grid_log_moment(ModelParams(omega, 0.0), 0, 200.5, space, 512, None)
        [(log_w, engine)] = log_moments(1e4, [(0.0, 200.0)], 0, "position")
        assert engine == "analytic" and log_w / (1.0 - 200.0) == pytest.approx(-4.01949288787)

    def test_overflowing_closed_form_raises(self):
        # W_200 ~ 1e346 at omega = 1e4: the closed form's ln W is finite,
        # and W from it fails by the quadrature's rule, naming the order
        # (and lam and n where they are known); a W below the range leaves
        # the Tsallis entropy (1 - W) / (alpha - 1) at 1 / 199
        params = ModelParams(1e4, 0.0)
        with pytest.raises(ArithmeticError, match=r"^entropic moment of order 200 overflows to inf at lam=0\.0, n=0$"):
            entropic_moment(params, 0, 200)
        with pytest.raises(ArithmeticError, match=r"^entropic moment of order 200\.0 overflows to inf$"):
            entropy(params, 0, 200.0, "position", "tsallis")
        assert entropy(ModelParams(1e-4, 0.0), 0, 200.0, "position", "tsallis") == 1.0 / 199.0

    @pytest.mark.parametrize("space, alpha", [("position", 800.5), ("momentum", 2150.0)])
    def test_subnormal_moment_raises(self, space, alpha):
        # 0 < W < 2.2e-308 holds fewer than 53 significant bits (3.7e-311
        # and 3.7e-313 here), so it fails as a subnormal threshold does; a
        # W in the normal range next to it keeps its logarithm
        message = rf"^entropic moment of order {alpha} is subnormal \(3\.[0-9]+e-31[13]\) at lam=0\.4, n=0$"
        with pytest.raises(ArithmeticError, match=message):
            log_moments(1.0, [(0.4, alpha)], 0, space)
        with pytest.raises(ArithmeticError, match=message):
            grid_log_moment(ModelParams(1.0, 0.4), 0, alpha, space, 512, None)
        [(log_w, _)] = log_moments(1.0, [(0.4, 2000.0)], 0, "momentum")
        assert math.exp(log_w) == pytest.approx(1.88992879932e-291, rel=1e-11)


class TestEntropy:
    @pytest.mark.parametrize("space", ["position", "momentum"])
    @pytest.mark.parametrize("alpha", [0.5, 2.0, 3.0])
    def test_harmonic_ground_closed_form(self, harmonic, space, alpha):
        # W_alpha = pi^((1 - alpha)/2) / sqrt(alpha) in both spaces (self-dual)
        w = math.pi ** ((1.0 - alpha) / 2.0) / math.sqrt(alpha)
        assert entropy(harmonic, 0, alpha, space, "renyi") == pytest.approx(
            math.log(w) / (1.0 - alpha), abs=1e-10
        )
        assert entropy(harmonic, 0, alpha, space, "tsallis") == pytest.approx(
            (1.0 - w) / (alpha - 1.0), abs=1e-10
        )

    @pytest.mark.parametrize("space", ["position", "momentum"])
    def test_order_one_is_shannon(self, deformed, space):
        shannon = shannon_numeric(deformed, 2, space)
        for kind in ("renyi", "tsallis"):
            assert entropy(deformed, 2, 1.0, space, kind) == shannon

    def test_unknown_kind_rejected(self, deformed):
        for alpha in (1.0, 2.0):
            with pytest.raises(ValueError, match="kind"):
                entropy(deformed, 0, alpha, "position", "shannon")
        with pytest.raises(ValueError, match="kind"):
            entropy_from_log_moment(0.0, 2.0, "shannon")


class TestCellLists:
    """A list of (lam, alpha) cells at one n gives each cell its one-cell
    engine and value, whatever the mix of engines in the list: to the bit
    but for position quadrature cells, which keep the batch contract
    (``conftest.batch_tolerances``) on their W."""

    @pytest.mark.parametrize("omega", [1.0, 0.37])
    @pytest.mark.parametrize("kind", ["renyi", "tsallis"])
    def test_slacks_equal_one_cell_calls(self, omega, kind):
        # integer orders take the closed form, fractional ones the quadrature,
        # and the Tsallis alpha = 1 is exactly 0
        orders = (0.6, 2.0, 0.75, 3.0, 1.25) if kind == "renyi" else (0.6, 1.0, 0.75, 0.9, 1.0)
        one = xi_renyi if kind == "renyi" else xi_tsallis
        cells = [(lam, a) for lam in (0.0, 0.4, 2.0, 7.0) for a in orders]
        args = argparse.Namespace(omega=omega, command=f"xi-{kind}")
        # a relative move e of the position W moves a Rényi slack by
        # e / |1 - alpha| <= 4 e, and a Tsallis slack by
        # (alpha / pi)^(1 / (4 alpha)) W^(1 / (2 alpha)) e / (2 alpha) < 2 e here
        for n in (0, 3):
            want = [one(ModelParams(omega, lam), n, a) for lam, a in cells]
            got = _xi_slacks(omega, cells, n, kind)
            assert [r.position_method for r in got] == [r.position_method for r in want]
            tolerances = batch_tolerances(omega, cells, n)
            assert_batch_contract([r.value for r in got], [r.value for r in want], tolerances, spread=4.0)
            assert cli._xi_block(args, n, cells) == [[[r.value, r.position_method]] for r in got]

    @pytest.mark.parametrize("omega", [1.0, 0.37])
    @pytest.mark.parametrize("space", ["position", "momentum"])
    def test_shannon_block_equals_one_cell_calls(self, omega, space, monkeypatch):
        # the shannon command's order-1 cells: one position pass per n, or
        # one profile per lambda, each cell the value of its own call
        passes = []
        batch = uncertainty.position_shannons
        monkeypatch.setattr(uncertainty, "position_shannons", lambda *a: passes.append(a) or batch(*a))
        lams = (0.0, 0.4, 2.0, 7.0)
        args = argparse.Namespace(omega=omega, space=space)
        for n in (0, 3):
            want = [shannon_numeric(ModelParams(omega, lam), n, space) for lam in lams]
            passes.clear()
            rows = cli._shannon_block(args, n, [(lam, None) for lam in lams])
            assert [row[0][0] for row in rows] == [space] * len(lams)
            tolerances = batch_tolerances(omega, [(lam, 1.0) for lam in lams], n)
            assert_batch_contract([row[0][1] for row in rows], want, tolerances if space == "position"
                                  else [0.0] * len(lams))
            assert len(passes) == (space == "position")

    @pytest.mark.parametrize("omega", [1.0, 0.37])
    @pytest.mark.parametrize("space", ["position", "momentum"])
    def test_entropies_equal_one_cell_calls(self, omega, space):
        cells = [(lam, a) for lam in (0.0, 0.4, 2.0) for a in (0.6, 1.0, 2.0, 2.5)]
        for n in (0, 3):
            want = [entropy(ModelParams(omega, lam), n, a, space, "tsallis") for lam, a in cells]
            tolerances = batch_tolerances(omega, cells, n) if space == "position" else [0.0] * len(cells)
            # a relative move e of W moves (1 - W) / (alpha - 1) by W e / |alpha - 1|;
            # Shannon (order 1) keeps its relative bound
            spread = [None if a == 1.0 else abs(1.0 / (a - 1.0) - t) for (_, a), t in zip(cells, want)]
            assert_batch_contract(_entropies(omega, cells, n, space, "tsallis"), want, tolerances, spread)


class TestConjugateOrder:
    def test_fixed_point(self):
        assert conjugate_order(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_two_maps_to_two_thirds(self):
        assert conjugate_order(2.0) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_point_six_maps_to_three(self):
        assert conjugate_order(0.6) == pytest.approx(3.0, rel=1e-12)

    def test_involution(self):
        for alpha in (0.51, 0.6, 0.9, 1.4, 2.0, 7.0):
            back = conjugate_order(conjugate_order(alpha))
            assert back == pytest.approx(alpha, abs=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            conjugate_order(0.5)
        with pytest.raises(ValueError):
            conjugate_order(0.2)


class TestXiRenyi:
    def test_harmonic_ground_saturates(self, harmonic):
        for alpha in RENYI_TABLE_ALPHAS:
            assert abs(xi_renyi(harmonic, 0, alpha).value) <= 1e-7

    def test_deformed_ground_does_not_saturate(self, deformed):
        assert xi_renyi(deformed, 0, 3.0).value > 1e-3

    def test_published_values(self, deformed):
        assert xi_renyi(deformed, 0, 3.0).value == pytest.approx(0.027, abs=1.5e-3)
        assert xi_renyi(deformed, 0, 2.0).value == pytest.approx(0.01796345, abs=1e-5)

    def test_path_metadata(self, deformed):
        assert xi_renyi(deformed, 0, 2.0).position_method == "analytic"
        assert xi_renyi(deformed, 0, 0.9).position_method == "quadrature"

    def test_alpha_one_rejected(self, deformed):
        with pytest.raises(ValueError):
            xi_renyi(deformed, 0, 1.0)

    def test_matches_component_assembly(self, deformed):
        # independent assembly from the component entropies and the bound
        alpha = 2.0
        beta = 2.0 / 3.0
        expect = (
            entropy(deformed, 1, 2, "position", "renyi")
            + entropy(deformed, 1, beta, "momentum", "renyi")
            - math.log(math.pi * alpha ** (1 / (2 * alpha - 2)) * beta ** (1 / (2 * beta - 2)))
        )
        assert xi_renyi(deformed, 1, alpha).value == pytest.approx(expect, abs=1e-13)

    def test_nonnegative_sweep(self):
        for lam in (0.0, 0.7, 3.0):
            p = ModelParams(1.0, lam)
            for n in range(0, 11, 2):
                for alpha in (0.6, 0.9, 2.0, 3.0):
                    assert xi_renyi(p, n, alpha).value >= -1e-9


class TestXiTsallis:
    def test_harmonic_ground_saturates(self, harmonic):
        for alpha in (0.6, 0.7, 0.8, 0.9):
            assert abs(xi_tsallis(harmonic, 0, alpha).value) <= 1e-7

    def test_alpha_one_degenerates(self, deformed):
        assert xi_tsallis(deformed, 0, 1.0).value == 0.0

    def test_domain(self, deformed):
        for alpha in (0.5, 0.4, 1.2, 2.0):
            with pytest.raises(ValueError):
                xi_tsallis(deformed, 0, alpha)

    def test_published_values_at_demonstrated_accuracy(self, harmonic, deformed):
        # the published 4-decimal Tsallis-slack cells carry up to ~5e-4 of
        # their own quadrature error (see the decisions record); compare at
        # that demonstrated accuracy and pin the true values via the oracle
        assert xi_tsallis(harmonic, 2, 0.6).value == pytest.approx(0.2110, abs=6e-4)
        assert xi_tsallis(deformed, 0, 0.8).value == pytest.approx(0.00022, abs=2e-5)

    def test_oracle_harmonic_value(self, harmonic):
        # semi-analytic oracle: both sides reduce to moments of the exact
        # harmonic densities, here evaluated from the position quadrature
        alpha, beta = 0.6, 3.0
        w_a = entropic_moment_numeric(harmonic, 1, alpha, "position")
        w_b = entropic_moment_numeric(harmonic, 1, beta, "position")
        left = (alpha / math.pi) ** (1 / (4 * alpha)) * w_a ** (1 / (2 * alpha))
        right = (beta / math.pi) ** (1 / (4 * beta)) * w_b ** (1 / (2 * beta))
        assert xi_tsallis(harmonic, 1, alpha).value == pytest.approx(
            left - right, abs=1e-9
        )

    def test_nonnegative_sweep(self):
        for lam in (0.0, 1.0, 3.0):
            p = ModelParams(1.0, lam)
            for n in range(0, 11, 2):
                for alpha in (0.55, 2.0 / 3.0, 0.9):
                    assert xi_tsallis(p, n, alpha).value >= -1e-9

    def test_interior_maximum_in_lam(self):
        """Tsallis slack at order 2/3 vs lam rises then falls for n = 1:
        the maximum over [0, 1.5] is attained strictly inside."""
        lams = np.round(np.arange(0.0, 1.5001, 0.1), 10)
        vals = [xi_tsallis(ModelParams(1.0, float(l)), 1, 2.0 / 3.0).value for l in lams]
        k = int(np.argmax(vals))
        assert 0 < k < len(vals) - 1
        assert vals[k] > vals[0]
        assert vals[k] > vals[-1]
