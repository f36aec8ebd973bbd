import math
import re
import subprocess
import sys

import numpy as np
import pytest

from darboux3 import ModelParams, density_critical_points
from darboux3.cli import main
from darboux3.tables import TABLE_IDS, load_reference, verify_table


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestComputeCommands:
    def test_energy_row(self, capsys):
        code, out, _ = run_cli(capsys, "energy", "--omega", "1", "--lambda", "0.1", "--n", "0")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,lambda,energy"
        n, lam, e = lines[1].split(",")
        assert (n, lam) == ("0", "0.1")
        assert float(e) == pytest.approx(0.47562, abs=1e-5)

    def test_renyi_analytic_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "renyi", "--space", "position", "--alpha", "2", "--lambda", "0", "--n", "0"
        )
        assert code == 0
        val = float(out.splitlines()[1].split(",")[-1])
        assert val == pytest.approx(0.9189385, abs=1e-6)

    def test_xi_renyi_saturation(self, capsys):
        code, out, _ = run_cli(capsys, "xi-renyi", "--alpha", "2", "--lambda", "0", "--n", "0")
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert abs(float(row[3])) < 1e-7
        assert row[4] == "analytic"

    def test_ordering_n_outer_lambda_middle_alpha_inner(self, capsys):
        code, out, _ = run_cli(
            capsys, "renyi", "--alpha", "2,3", "--lambda", "0,0.4", "--n", "0,1",
            "--space", "position",
        )
        assert code == 0
        rows = [l.split(",")[:3] for l in out.splitlines()[1:]]
        expect = [
            [n, lam, a]
            for n in ("0", "1")
            for lam in ("0", "0.4")
            for a in ("2", "3")
        ]
        assert rows == expect

    def test_range_syntax(self, capsys):
        code, out, _ = run_cli(capsys, "omega", "--lambda", "0:0.4:0.1", "--n", "2")
        assert code == 0
        assert len(out.splitlines()) == 6  # header + 5 lambda values

    def test_significant_digits(self, capsys):
        _, out, _ = run_cli(capsys, "energy", "--lambda", "0.1", "--n", "0")
        value = out.splitlines()[1].split(",")[-1]
        digits = re.sub(r"[^0-9]", "", value).lstrip("0")
        assert len(digits) >= 11

    def test_lf_line_endings_and_byte_stability(self, capsys):
        _, out1, _ = run_cli(capsys, "tsallis", "--alpha", "2", "--lambda", "0.4", "--n", "0:4:1")
        _, out2, _ = run_cli(capsys, "tsallis", "--alpha", "2", "--lambda", "0.4", "--n", "0:4:1")
        assert out1 == out2
        assert "\r" not in out1

    def test_custom_grid_flags(self, capsys):
        code, out, _ = run_cli(
            capsys, "renyi", "--alpha", "2", "--lambda", "0", "--n", "0",
            "--space", "position", "--grid-points", "1024", "--half-width", "12",
        )
        assert code == 0
        assert float(out.splitlines()[1].split(",")[-1]) == pytest.approx(
            0.9189385332, abs=1e-9
        )

    def test_custom_grid_momentum_normalisation(self, capsys):
        code, out, _ = run_cli(
            capsys, "moment", "--space", "momentum", "--alpha", "1", "--lambda", "0.4",
            "--n", "0", "--grid-points", "640", "--half-width", "10",
        )
        assert code == 0
        assert float(out.splitlines()[1].split(",")[-1]) == pytest.approx(1.0, abs=1e-8)

    def test_shannon_and_moment(self, capsys):
        code, out, _ = run_cli(capsys, "shannon", "--lambda", "0", "--n", "0")
        assert code == 0
        assert float(out.splitlines()[1].split(",")[-1]) == pytest.approx(
            0.5 * (1 + math.log(math.pi)), abs=1e-9
        )
        code, out, _ = run_cli(capsys, "moment", "--alpha", "1", "--lambda", "0.7", "--n", "3")
        assert float(out.splitlines()[1].split(",")[-1]) == pytest.approx(1.0, abs=1e-10)

    def test_weight_threshold_critical(self, capsys):
        code, out, _ = run_cli(capsys, "weight-f", "--lambda", "0.4", "--n", "0")
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert float(row[2]) + float(row[3]) == pytest.approx(1.0, abs=1e-14)
        code, out, _ = run_cli(capsys, "threshold", "--n", "0,2")
        vals = [float(l.split(",")[-1]) for l in out.splitlines()[1:]]
        assert vals[0] == pytest.approx(1 / math.sqrt(2), abs=1e-10)
        assert vals[1] == pytest.approx(5 / math.sqrt(26), abs=1e-10)
        code, out, _ = run_cli(capsys, "critical-points", "--lambda", "1", "--n", "0")
        kinds = [l.split(",")[-1] for l in out.splitlines()[1:]]
        assert kinds == ["maximum", "minimum", "maximum"]

    def test_numeric_critical_points(self, capsys):
        code, out, _ = run_cli(capsys, "critical-points", "--lambda", "0.4,2", "--n", "1,3")
        assert code == 0
        rows = [l.split(",") for l in out.splitlines()[1:]]
        expect = [
            [str(n), lam, f"{c.x:.12g}", c.kind]
            for n in (1, 3)
            for lam in ("0.4", "2")
            for c in density_critical_points(ModelParams(1.0, float(lam)), n, numeric=True)
        ]
        assert rows == expect

    def test_critical_points_overflow_is_numeric_failure(self, capsys):
        code, out, err = run_cli(capsys, "critical-points", "--lambda", "0.4", "--n", "200")
        assert code == 3
        assert out == ""
        assert "non-finite" in err

    def test_moment_budget_is_numeric_failure(self, capsys):
        code, _, err = run_cli(capsys, "disequilibrium", "--n", "3000")
        assert code == 3
        assert "budget" in err


class TestExitCodes:
    def test_usage_error_bad_omega(self, capsys):
        code, _, err = run_cli(capsys, "energy", "--omega", "-1", "--n", "0")
        assert code == 2
        assert err.strip().count("\n") == 0  # single-line diagnostic

    def test_usage_error_negative_lambda(self, capsys):
        code, _, _ = run_cli(capsys, "energy", "--lambda", "-0.3", "--n", "0")
        assert code == 2

    def test_usage_error_alpha_one(self, capsys):
        code, _, _ = run_cli(capsys, "renyi", "--alpha", "1", "--n", "0")
        assert code == 2

    @pytest.mark.parametrize("command", ["renyi", "tsallis", "moment"])
    @pytest.mark.parametrize("space", ["position", "momentum"])
    def test_usage_error_infinite_alpha(self, capsys, command, space):
        code, out, err = run_cli(
            capsys, command, "--space", space, "--alpha", "inf", "--lambda", "0.4", "--n", "0"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("usage error:") and "alpha" in err

    @pytest.mark.parametrize("n", ["1.5", "0:2:0.5"])
    def test_usage_error_non_integer_n(self, capsys, n):
        code, out, err = run_cli(capsys, "energy", "--lambda", "0.4", "--n", n)
        assert code == 2
        assert out == ""
        assert err.startswith("usage error:")

    @pytest.mark.parametrize(
        "flags",
        [
            ["--half-width", "0"],
            ["--half-width", "-3"],
            ["--half-width", "inf"],
            ["--half-width", "nan"],
            ["--grid-points", "0"],
            ["--grid-points", "-64"],
        ],
        ids=lambda flags: f"{flags[0].lstrip('-')}={flags[1]}",
    )
    @pytest.mark.parametrize("command", ["moment", "profile"])
    def test_usage_error_bad_grid_flags(self, capsys, tmp_path, command, flags):
        out_file = tmp_path / "profile.csv"
        argv = (
            ["moment", "--space", "position", "--alpha", "2", "--grid-points", "64"]
            if command == "moment"
            else ["profile", "density-position", "--out", str(out_file)]
        )
        code, out, err = run_cli(capsys, *argv, "--lambda", "0.4", "--n", "0", *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("usage error:")
        assert not out_file.exists()

    def test_usage_error_unknown_table(self, capsys):
        code, _, _ = run_cli(capsys, "table", "not_a_table")
        assert code == 2

    def test_entry_point_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "darboux3.cli", "energy", "--n", "0"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("n,lambda,energy")


class TestProfiles:
    def test_density_position_profile(self, tmp_path, capsys):
        out = tmp_path / "rho.csv"
        code, _, _ = run_cli(
            capsys, "profile", "density-position", "--lambda", "0.4", "--n", "2",
            "--out", str(out),
        )
        assert code == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        dens = data[:, 1]
        interior = (
            (dens[1:-1] > dens[:-2]) & (dens[1:-1] > dens[2:])
        )
        assert int(np.sum(interior)) == 3  # three maxima at lam = 0.4, n = 2
        np.testing.assert_allclose(dens, dens[::-1], atol=1e-18)

    def test_density_momentum_side_lobes(self, tmp_path, capsys):
        out = tmp_path / "gamma.csv"
        code, _, _ = run_cli(
            capsys, "profile", "density-momentum", "--lambda", "100", "--n", "0",
            "--half-width", "3", "--grid-points", "601", "--out", str(out),
        )
        assert code == 0
        dens = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1]
        interior = (dens[1:-1] > dens[:-2]) & (dens[1:-1] > dens[2:])
        assert int(np.sum(interior)) >= 3  # central peak plus side lobes

    def test_approx_momentum_profile(self, tmp_path, capsys):
        out = tmp_path / "approx.csv"
        code, _, _ = run_cli(
            capsys, "profile", "approx-momentum", "--lambda", "10", "--n", "3",
            "--out", str(out),
        )
        assert code == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        from darboux3 import ModelParams, approx_momentum_closed

        expect = np.abs(np.atleast_1d(
            approx_momentum_closed(ModelParams(1.0, 10.0), 3, data[:, 0])
        )) ** 2
        # the 12-digit coordinates reshuffle the cancellation remainder at
        # the ~1e-14 far-tail floor; compare against the density scale
        np.testing.assert_allclose(
            data[:, 1], expect, rtol=1e-9, atol=1e-12 * float(np.max(expect))
        )

    def test_profile_requires_out(self, capsys):
        code, _, _ = run_cli(capsys, "profile", "density-position", "--n", "0")
        assert code == 2


class TestTables:
    def test_energy_table_passes(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "table", "energy", "--out", str(tmp_path))
        assert code == 0
        assert "30/30" in out
        assert (tmp_path / "energy_recomputed.csv").exists()

    def test_tolerance_override_can_fail(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "table", "energy", "--tolerance", "1e-9", "--out", str(tmp_path)
        )
        assert code == 1
        assert "FAILED" in out

    def test_nongating_table_reports_but_passes(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "table", "xi_vs_lambda_b", "--out", str(tmp_path))
        assert code == 0
        assert "info" in out

    def test_coverage_counter(self):
        """Every embedded reference cell is touched by the table commands."""
        total_ref = 0
        total_checked = 0
        for tid in TABLE_IDS:
            header, rows = load_reference(tid)
            total_ref += sum(len(r) - 1 for r in rows)
            total_checked += len(verify_table(tid).cells)
        assert total_checked == total_ref
        assert total_ref == 2088
