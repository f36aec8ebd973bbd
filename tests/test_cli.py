import argparse
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from conftest import reference_build_parser, reference_parse_grid
from darboux3 import ModelParams, cli, density_critical_points, effective_frequency, quadrature
from darboux3.cli import MAX_GRID_POINTS, MAX_RANGE_VALUES, _parse_args, _parse_grid, _UsageError, main
from darboux3.specfun import hermite_zeros
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

    def test_critical_points_print_twelve_digits(self, capsys):
        code, out, _ = run_cli(capsys, "critical-points", "--lambda", "0.4", "--n", "2")
        zero = hermite_zeros(2)[1] / math.sqrt(effective_frequency(ModelParams(1.0, 0.4), 2))
        assert code == 0 and f"2,0.4,{zero:.12g},minimum" in out.splitlines()
        assert "2,0.4,1.09868411347,minimum" in out.splitlines()

    def test_critical_points_order_200(self, capsys):
        code, out, err = run_cli(capsys, "critical-points", "--lambda", "0.4", "--n", "200")
        assert (code, err) == (0, "")
        rows = [l.split(",") for l in out.splitlines()[1:]]
        xs = [float(r[2]) for r in rows]
        kinds = [r[3] for r in rows]
        assert xs == sorted(xs) and xs == [-x for x in reversed(xs)]
        assert kinds == kinds[::-1]
        assert kinds[0] == "maximum"
        assert all(a != b for a, b in zip(kinds, kinds[1:]))

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
            ["--half-width", "1e308"],  # finite, but the grid's 2 L is not
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
        assert err.startswith(f"usage error: {flags[0]} must be")
        assert not out_file.exists()

    @pytest.mark.parametrize("command", ["renyi", "tsallis", "moment"])
    def test_usage_error_names_grid_points_flag(self, capsys, command):
        # a GridSpec takes 32 points at least; the message names the flag
        code, out, err = run_cli(capsys, command, "--grid-points", "20")
        assert (code, out) == (2, "")
        assert err == "usage error: --grid-points must be at least 32, got 20\n"

    @pytest.mark.parametrize(
        "argv",
        [["renyi", "--alpha", "0.5"], ["profile", "density-position", "--out", "{out}"]],
        ids=lambda argv: argv[0],
    )
    def test_usage_error_grid_points_past_the_cap(self, capsys, tmp_path, argv):
        # one flag sized a panel grid or a profile of any length
        out_file = tmp_path / "p.csv"
        argv = [str(out_file) if a == "{out}" else a for a in argv]
        code, out, err = run_cli(capsys, *argv, "--grid-points", str(MAX_GRID_POINTS + 1))
        assert (code, out) == (2, "")
        assert err == f"usage error: --grid-points must be at most {MAX_GRID_POINTS}, got 1000001\n"
        assert not out_file.exists()

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "inf", "-inf"])
    def test_usage_error_bad_tolerance(self, capsys, tmp_path, tolerance):
        # a negative or non-finite tolerance failed or passed every gating cell
        # (--tolerance=-inf: argparse takes a bare -inf for a flag)
        code, out, err = run_cli(
            capsys, "table", "energy", f"--tolerance={tolerance}", "--out", str(tmp_path)
        )
        assert (code, out) == (2, "")
        assert err.startswith("usage error: --tolerance must be non-negative and finite")
        assert not list(tmp_path.iterdir())
        with pytest.raises(ValueError, match="tolerance"):
            verify_table("energy", tolerance_override=float(tolerance))

    def test_zero_tolerance_is_legal(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "table", "energy", "--tolerance", "0", "--out", str(tmp_path))
        assert code in (0, 1) and out.startswith("table energy:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["renyi", "--n", "800", "--alpha", "0.5", "--lambda", "0.4"],
            ["shannon", "--n", "800", "--lambda", "0.4"],
            ["critical-points", "--n", "800"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_non_finite_hermite_zeros_are_numeric_failure(self, capsys, argv):
        # hermgauss leaves NaN zeros from n = 741 on
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == (
            "numeric failure in darboux3.specfun: Hermite zeros of order n=800 are not finite\n"
        )

    @pytest.mark.parametrize(
        "argv, space",
        [
            (["renyi", "--alpha", "2", "--lambda", "0.4", "--n", "0", "--half-width", "0.5"], "position"),
            (["moment", "--alpha", "1", "--lambda", "0.4", "--n", "3", "--grid-points", "32"], "position"),
            (["moment", "--alpha", "2", "--half-width", "1e300"], "position"),
            (["renyi", "--space", "momentum", "--alpha", "2", "--lambda", "0.4", "--n", "0",
              "--grid-points", "64", "--half-width", "2"], "momentum"),
        ],
        ids=["narrow", "coarse", "huge", "momentum"],
    )
    def test_user_grid_missing_normalisation_exits_3(self, capsys, argv, space):
        # either space: a grid of the user's that misses the density's
        # normalisation prints no value
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith(f"numeric failure in darboux3.quadrature: {space} density normalisation off by -")

    @pytest.mark.parametrize("command", ["renyi", "tsallis", "moment"])
    @pytest.mark.parametrize("grid", [[], ["--grid-points", "4096"]], ids=["library", "user-grid"])
    def test_underflowing_moment_exits_3(self, capsys, command, grid):
        code, out, err = run_cli(capsys, command, "--alpha", "2000.5", "--lambda", "0.4", "--n", "0", *grid)
        assert (code, out) == (3, "")
        assert err == (
            "numeric failure in darboux3.quadrature: "
            "entropic moment of order 2000.5 underflows to 0 at lam=0.4, n=0\n"
        )

    def test_subnormal_moment_exits_3(self, capsys):
        # W = 3.7e-313 holds about 36 significant bits: no value is printed
        code, out, err = run_cli(capsys, "moment", "--space", "momentum", "--alpha", "2150", "--lambda", "0.4",
                                 "--n", "0")
        assert (code, out) == (3, "")
        assert err == (
            "numeric failure in darboux3.quadrature: "
            "entropic moment of order 2150.0 is subnormal (3.70516e-313) at lam=0.4, n=0\n"
        )

    @pytest.mark.parametrize(
        "argv, at",
        [
            (["tsallis", "--omega", "1e4"], ""),
            (["moment", "--omega", "1e4"], " at lam=0.0, n=0"),
            (["renyi", "--omega", "1e4", "--grid-points", "512"], " at lam=0.0, n=0"),
        ],
        ids=["tsallis", "moment", "user-grid"],
    )
    def test_overflowing_moment_exits_3(self, capsys, argv, at):
        # W_200.5 is about 1e348, past the double range: a command that needs
        # W prints no value and one stderr line (an overflow RuntimeWarning
        # would be an error under the suite's filter, and print another)
        code, out, err = run_cli(capsys, *argv, "--alpha", "200.5", "--lambda", "0", "--n", "0")
        assert (code, out) == (3, "")
        assert err == f"numeric failure in darboux3.quadrature: entropic moment of order 200.5 overflows to inf{at}\n"

    @pytest.mark.parametrize(
        "space, omega, want",
        [("position", "1e4", "-4.01951999432"), ("momentum", "1e-4", "-4.01951999432")],
    )
    def test_renyi_past_the_moment_range(self, capsys, space, omega, want):
        # the Rényi entropy comes from ln W, the twin's shifted by
        # (1 - alpha) ln(omega^-+1/2): finite where W_200.5 ~ 1e348 is not,
        # the twin's value 0.585650... minus ln(1e4) / 2, as the closed
        # form at order 200 prints its entropy
        twin = run_cli(capsys, "renyi", "--space", space, "--alpha", "200.5", "--lambda", "0", "--n", "0")[1]
        assert float(twin.splitlines()[1].split(",")[-1]) - 0.5 * math.log(1e4) == pytest.approx(float(want), abs=1e-11)
        argv = ["renyi", "--space", space, "--omega", omega, "--alpha", "200.5", "--lambda", "0", "--n", "0"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (0, f"n,lambda,alpha,space,renyi\n0,0,200.5,{space},{want}\n", "")
        code, out, err = run_cli(capsys, "renyi", "--omega", "1e4", "--alpha", "200", "--lambda", "0", "--n", "0")
        assert (code, out, err) == (0, "n,lambda,alpha,space,renyi\n0,0,200,position,-4.01949288787\n", "")

    @pytest.mark.parametrize("command, at", [("moment", " at lam=0.0, n=0"), ("tsallis", "")])
    def test_overflowing_closed_form_exits_3(self, capsys, command, at):
        # W_200 ~ 1e346 from the closed form's ln W: one stderr line that
        # names the order, while a W below the range leaves Tsallis 1 / 199
        code, out, err = run_cli(capsys, command, "--omega", "1e4", "--alpha", "200", "--lambda", "0", "--n", "0")
        assert (code, out) == (3, "")
        assert err == f"numeric failure in darboux3.quadrature: entropic moment of order 200.0 overflows to inf{at}\n"
        code, out, err = run_cli(capsys, "tsallis", "--omega", "1e-4", "--alpha", "200", "--lambda", "0", "--n", "0")
        assert (code, out, err) == (0, "n,lambda,alpha,space,tsallis\n0,0,200,position,0.00502512562814\n", "")

    def test_omega_past_the_square_range(self, capsys):
        # omega^2 overflows at 1e200, and Omega = omega is taken scaled
        code, out, err = run_cli(capsys, "energy", "--omega", "1e200", "--lambda", "0", "--n", "0")
        assert (code, out, err) == (0, "n,lambda,energy\n0,0,5e+199\n", "")

    @pytest.mark.parametrize("omega, want", [("1e-160", "5e-161"), ("1e-200", "5e-201")])
    def test_omega_below_the_square_range(self, capsys, omega, want):
        # omega^2 is subnormal at 1e-160 and 0 at 1e-200: Omega is taken scaled
        code, out, err = run_cli(capsys, "energy", "--omega", omega, "--lambda", "0", "--n", "0")
        assert (code, out, err) == (0, f"n,lambda,energy\n0,0,{want}\n", "")

    @pytest.mark.parametrize("argv, err", [
        ("energy --omega 5e-324 --lambda 0 --n 0,3",
         "effective frequency Omega_0 is subnormal (4.94066e-324) at omega=5e-324, lam=0.0"),
        ("omega --omega 1e-320 --lambda 0 --n 0",
         "effective frequency Omega_0 is subnormal (9.99989e-321) at omega=1e-320, lam=0.0"),
        ("energy --omega 1 --lambda 1e160 --n 0", "(lam/omega (n + 1/2))^2 overflows at lam/omega=1e+160, n=0"),
        ("weight-f --omega 1e-300 --lambda 1 --n 0",
         "(lam/omega (n + 1/2))^2 overflows at lam/omega=9.999999999999999e+299, n=0"),
    ], ids=["energy-subnormal", "omega-subnormal", "energy-kappa", "weight-kappa"])
    def test_double_range_failures_name_the_quantity(self, capsys, argv, err):
        # a subnormal Omega_n (digits lost) or a (kappa (n + 1/2))^2 past the
        # double range: exit 3 with the quantity named, not a value or errno
        code, out, got = run_cli(capsys, *argv.split())
        assert (code, out, got) == (3, "", f"numeric failure in darboux3.model: {err}\n")

    @pytest.mark.parametrize("argv, omega, scale", [
        ("renyi --space momentum --omega 1.7e308 --lambda 0 --n 0 --alpha 2", 1.7e308, "shift"),
        ("renyi --omega 1e308 --lambda 0 --n 0 --alpha 2,2.5", 1e308, "shift"),
        ("moment --space momentum --omega 1e-200 --lambda 0 --n 0 --alpha 2", 1e-200, "moment"),
        ("tsallis --space momentum --omega 1e-266 --lambda 0 --n 0 --alpha 0.5", 1e-266, "tsallis"),
        ("tsallis --space momentum --omega 1e-250 --lambda 1e-250 --n 2 --alpha 0.7", 1e-250, "tsallis"),
        ("critical-points --omega 1e300 --lambda 1e300 --n 3", 1e300, "length"),
    ], ids=["renyi-momentum", "renyi-position", "moment", "tsallis", "tsallis-kappa", "critical-points"])
    def test_double_range_lines_print_the_twin_scaled(self, capsys, argv, omega, scale):
        # each line prints its omega = 1 twin's values scaled (they exited 3
        # or printed a wrong value when the numerics ran at omega)
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, err) == (0, "")
        words = argv.split()
        at = words.index("--lambda") + 1
        words[at] = repr(float(words[at]) / omega)
        words[words.index("--omega") + 1] = "1"
        twin = run_cli(capsys, *words)[1]
        space = "--space" in words and words[words.index("--space") + 1] or "position"
        for row, twin_row in zip(out.splitlines()[1:], twin.splitlines()[1:]):
            value, want = row.split(",")[-1 - (scale == "length")], float(twin_row.split(",")[-1 - (scale == "length")])
            alpha = float(row.split(",")[2]) if scale != "length" else None
            if scale == "shift":
                want += (0.5 if space == "momentum" else -0.5) * math.log(omega)
            elif scale == "moment":
                want *= omega ** ((1.0 - alpha) / 2.0)
            elif scale == "tsallis":
                w = 1.0 - (alpha - 1.0) * want  # the twin's W
                want = (1.0 - w * omega ** ((1.0 - alpha) / 2.0)) / (alpha - 1.0)
            else:
                want /= math.sqrt(omega)
            assert float(value) == pytest.approx(want, rel=1e-11, abs=1e-300), (row, twin_row)

    def test_top_of_the_double_range_exits_3(self, capsys):
        # (n + 1/2) Omega passes the double range at omega = 1.7e308: a
        # numeric failure that names its module and quantity, not inf or a
        # usage error
        code, out, got = run_cli(capsys, "energy", "--n", "1", "--omega", "1.7e308", "--lambda", "0")
        err = "darboux3.model: energy E_1 overflows to inf at omega=1.7e+308, lam=0.0"
        assert (code, out, got) == (3, "", f"numeric failure in {err}\n")

    @pytest.mark.parametrize(
        "argv, row",
        [
            (["renyi", "--n", "0", "--alpha", "2"], "0,0,2,position,-353.944479913"),
            (["disequilibrium", "--n", "0"], "0,0,5.20157094786e+153"),
        ],
        ids=["renyi", "disequilibrium"],
    )
    def test_top_of_the_double_range_scales(self, capsys, argv, row):
        # the closed form runs at omega = 1 and scales: ln W_2 shifts by
        # ln(omega) / 2, so the Rényi entropy is the twin's minus ln(omega) / 2
        # and W_2 = sqrt(omega / (2 pi)) is a normal double
        code, out, err = run_cli(capsys, *argv, "--omega", "1.7e308", "--lambda", "0")
        assert (code, err) == (0, "") and out.splitlines()[1] == row
        assert float(row.split(",")[-1]) == pytest.approx(
            0.5 * math.log(2.0 * math.pi) - 0.5 * math.log(1.7e308) if argv[0] == "renyi"
            else math.sqrt(1.7e308 / (2.0 * math.pi)), rel=1e-11)  # 12 printed digits

    @pytest.mark.parametrize(
        "order, fault",
        [("800", "is subnormal (5.80785e-311)"), ("2000", "underflows to 0")],
        ids=["800", "2000"],
    )
    def test_closed_form_moment_out_of_normal_range_exits_3(self, capsys, order, fault):
        # an integer position order takes W from the closed form's ln W:
        # moment applies the quadrature's normal-range rule to exp(ln W),
        # while renyi prints its entropy from ln W itself
        code, out, err = run_cli(capsys, "moment", "--alpha", order, "--lambda", "0.4", "--n", "0")
        assert (code, out) == (3, "")
        assert err == (
            "numeric failure in darboux3.quadrature: "
            f"entropic moment of order {float(order)} {fault} at lam=0.4, n=0\n"
        )
        entropy = {"800": "0.894048501783", "2000": "0.891853528008"}[order]
        code, out, err = run_cli(capsys, "renyi", "--alpha", order, "--lambda", "0.4", "--n", "0")
        assert (code, out, err) == (0, f"n,lambda,alpha,space,renyi\n0,0.4,{order},position,{entropy}\n", "")

    def test_huge_lattice_refusal_is_short(self, capsys):
        # a momentum near 8e307 asks for about 1e308 nodes: the refusal
        # prints counts past 10^15 in %.3e form, not their 309 digits
        code, out, err = run_cli(capsys, "renyi", "--space", "momentum", "--alpha", "2", "--half-width", "8e307")
        assert (code, out) == (3, "")
        assert err.startswith("numeric failure in darboux3.quadrature: momentum transform at ")
        assert "N = 1.313e+308 nodes" in err and len(err.encode()) < 200

    def test_unwritable_out_is_io_error(self, capsys, tmp_path):
        # --out under a regular file: the directory cannot be made
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, out, err = run_cli(capsys, "table", "energy", "--out", str(blocker / "x"))
        assert (code, out) == (3, "")
        assert err.startswith("i/o error: ") and str(blocker) in err

    def test_short_momentum_cut_is_numeric_failure(self, capsys, monkeypatch):
        cut = quadrature._momentum_cut
        monkeypatch.setattr(quadrature, "_momentum_cut", lambda p, n: 0.5 * cut(p, n))
        quadrature._profile_cached.cache_clear()
        try:
            code, out, err = run_cli(
                capsys, "renyi", "--space", "momentum", "--alpha", "0.7", "--lambda", "1", "--n", "5"
            )
        finally:
            quadrature._profile_cached.cache_clear()
        assert code == 3 and out == ""
        assert "numeric failure in darboux3.quadrature: momentum cut" in err

    @pytest.mark.parametrize(
        "omega, row",
        [("1e-200", "0,1e-200,7.07106781187e-201"), ("1e200", "0,1e+200,7.07106781187e+199")],
    )
    def test_threshold_extreme_omega(self, capsys, omega, row):
        # omega^2 under- or overflows there; the residual is checked at omega = 1
        code, out, err = run_cli(capsys, "threshold", "--omega", omega, "--n", "0")
        assert (code, err) == (0, "")
        assert out == f"n,omega,lambda_c\n{row}\n"

    def test_threshold_largest_omega(self, capsys):
        # 5 omega overflows at omega = 1e308, but lam_c = 9.8e307 is a normal float
        code, out, err = run_cli(capsys, "threshold", "--omega", "1e308", "--n", "0,2")
        assert (code, err) == (0, "")
        assert out == "n,omega,lambda_c\n0,1e+308,7.07106781187e+307\n2,1e+308,9.80580675691e+307\n"

    def test_threshold_perturbed_frequency_exits_3(self, capsys, monkeypatch):
        from darboux3 import strong_nonlinear

        exact = strong_nonlinear.effective_frequency
        monkeypatch.setattr(
            strong_nonlinear, "effective_frequency", lambda p, m: exact(p, m) * (1.0 + 1e-8)
        )
        code, out, err = run_cli(capsys, "threshold", "--n", "0")
        assert (code, out) == (3, "")
        assert err.startswith("numeric failure in darboux3.strong_nonlinear: threshold ")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["energy", "--lambda", "0:999999:1", "--n", "0:999999:1"],
             f"grid holds {10**12} points, more than {MAX_GRID_POINTS}"),
            (["profile", "density-position", "--lambda", "0:999999:1"],
             "profile needs exactly one --lambda and one --n"),
            (["xi-renyi", "--n", "0:999999:1", "--lambda", "0:999999:1", "--alpha=-1:5:1"],
             "--alpha values must be positive and finite"),
        ],
    )
    def test_oversized_grid_builds_no_value_list(self, capsys, monkeypatch, argv, message):
        # the sizes and the lower bounds are read off each flag's values: a
        # few reads at the two ends of a range, not its 10^6 values
        reads = []
        getitem = cli._Range.__getitem__
        monkeypatch.setattr(cli._Range, "__getitem__", lambda r, i: reads.append(i) or getitem(r, i))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"usage error: {message}\n")
        assert len(reads) <= 20

    def test_threshold_rejects_lambda(self, capsys):
        # the output is lambda_c itself, so no --lambda is read
        code, out, err = run_cli(capsys, "threshold", "--n", "0", "--lambda", "5")
        assert (code, out) == (2, "")
        assert err == "usage error: unrecognized arguments: --lambda 5\n"

    @pytest.mark.parametrize(
        "flags",
        [
            ["--n", "0:3:1e-9"],
            ["--lambda", "0:1e9:1e-3"],
            ["--n", f"0:{MAX_RANGE_VALUES}:1"],
            ["--lambda", "0:inf:1"],
        ],
        ids=lambda flags: f"{flags[0].lstrip('-')}={flags[1]}",
    )
    def test_usage_error_range_too_large(self, capsys, flags):
        # sized before any value is built: the first two hold 3e9 and 1e12 values
        code, out, err = run_cli(capsys, "energy", *flags)
        assert (code, out) == (2, "")
        assert err == (
            f"usage error: range {flags[1]!r} holds more than {MAX_RANGE_VALUES} values\n"
        )

    @pytest.mark.parametrize(
        "largest, too_large",
        [("0:9:1", "0:10:1"), ("0:0.9:0.1", "0:1:0.1"), ("0:9.4:1", "0:10.4:1")],
    )
    def test_range_limit_boundary(self, monkeypatch, largest, too_large):
        monkeypatch.setattr(cli, "MAX_RANGE_VALUES", 10)
        assert len(_parse_grid(largest)) == 10
        with pytest.raises(_UsageError, match="holds more than 10 values"):
            _parse_grid(too_large)

    def test_usage_error_grid_too_large(self, capsys):
        # each flag is within its limit; the product (10^7 rows) is not
        code, out, err = run_cli(capsys, "energy", "--lambda", "0:9999:1", "--n", "0:999:1")
        assert (code, out) == (2, "")
        assert err == f"usage error: grid holds {10**7} points, more than {MAX_GRID_POINTS}\n"

    @pytest.mark.parametrize(
        "argv, points",
        [
            (["energy", "--lambda", "0:4:1", "--n", "0,1"], 10),
            (["renyi", "--lambda", "0,1", "--n", "0", "--alpha", "1.5:3.5:0.5"], 10),
            (["xi-renyi", "--lambda", "0", "--n", "0:4:1", "--alpha", "0.75,2"], 10),
        ],
    )
    def test_grid_limit_boundary(self, capsys, monkeypatch, argv, points):
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", points)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and len(out.splitlines()) == points + 1
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", points - 1)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"usage error: grid holds {points} points, more than {points - 1}\n"

    @pytest.mark.parametrize(
        "text", ["0:nan:1", "nan:1:1", "0:1:nan", "0:1:0", "1:0:1", "0:1:inf", "0:inf:inf"]
    )
    def test_usage_error_bad_range(self, capsys, text):
        code, out, err = run_cli(capsys, "energy", "--lambda", text)
        assert (code, out) == (2, "")
        assert err == f"usage error: bad range {text!r}\n"

    def test_usage_error_unknown_table(self, capsys):
        code, _, _ = run_cli(capsys, "table", "not_a_table")
        assert code == 2

    def test_high_order_zeros_print_no_warning(self):
        # hermgauss's weights overflow from n = 371 on; the zeros do not
        proc = subprocess.run(
            [sys.executable, "-m", "darboux3.cli", "renyi", "--n", "380", "--alpha", "0.5",
             "--lambda", "0.4"],
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("n,lambda,alpha,space,renyi\n380,0.4,0.5,position,")

    def test_high_order_zeros_refused_before_allocating(self):
        # n = 1e5 would diagonalise a dense 1e5 x 1e5 matrix (75 GiB) and then
        # find its zeros not finite; under a 1 GiB address-space cap a
        # regression fails here rather than exhausting the machine's memory
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
            "from darboux3.cli import main\n"
            "from darboux3.specfun import hermite_zeros\n"
            "try:\n"
            "    hermite_zeros(10**5)\n"
            "except ArithmeticError as exc:\n"
            "    print(exc)\n"
            "sys.exit(main(['renyi', '--alpha', '0.5', '--n', '100000']))\n"
        )
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}  # one thread's buffers under the cap
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        message = "Hermite zeros of order n=100000 are not finite"
        assert (proc.returncode, proc.stdout) == (3, message + "\n")
        assert proc.stderr == f"numeric failure in darboux3.specfun: {message}\n"

    def test_lambda_past_the_supported_lattice_exits_3(self):
        # lam = 1e6 would need N = 2.2e8 transform nodes and a scan of M = 2^32
        # points; under a 1 GiB address-space cap a regression fails here
        # rather than exhausting the machine's memory
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
            "from darboux3.cli import main\n"
            "sys.exit(main(['xi-tsallis', '--alpha', '0.75', '--lambda', '1e6', '--n', '2']))\n"
        )
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}  # one thread's buffers under the cap
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr.startswith(
            "numeric failure in darboux3.quadrature: momentum transform at omega=1.0, "
            "lam=1000000.0, n=2 needs N = 216457656 nodes and M = 4294967296 scan points"
        )

    def test_entry_point_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "darboux3.cli", "energy", "--n", "0"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("n,lambda,energy")


COMMANDS = [
    "energy", "omega", "disequilibrium", "weight-f", "renyi", "tsallis", "moment", "shannon",
    "xi-renyi", "xi-tsallis", "threshold", "critical-points", "profile", "table",
]

# every command with every flag it takes, in both --flag value and --flag=value
# forms and with abbreviations; threshold takes no --lambda
PARSE_VALID = [
    ["energy"],
    ["energy", "--omega", "2", "--lambda", "0:0.4:0.1", "--n", "0,1", "--out", "e.csv"],
    ["omega", "--omega=0.5", "--lambda=0.4", "--n=3"],
    ["disequilibrium", "--lam", "0.4", "--n", "2"],
    ["weight-f", "--lambda", "10", "--n", "0:10:1", "--ou=w.csv"],
    ["renyi", "--space", "momentum", "--alpha", "0.5,2", "--lambda", "0.4", "--n", "3"],
    ["renyi", "--alpha", "2", "--grid-p", "1024", "--half", "12", "--sp", "position"],
    ["tsallis", "--alpha=0.3", "--space=momentum", "--grid-points=512", "--half-width=9.5"],
    ["moment", "--space", "momentum", "--alpha", "1", "--lambda", "0.4", "--grid-points", "640",
     "--half-width", "10", "--omega", "3", "--out", "m.csv"],
    ["shannon", "--space", "momentum", "--lambda", "0.4", "--n", "2"],
    ["shannon", "--n", "0", "--lambda", "-0.3", "--out", "s.csv"],
    ["xi-renyi", "--alpha", "2", "--lambda", "0:3:0.1", "--n", "0,1,2"],
    ["xi-tsallis", "--al", "0.6,0.8", "--lambda", "0.4", "--n", "0:5:1", "--out", "x.csv"],
    ["threshold", "--n", "0,2"],
    ["threshold", "--omega", "2.5", "--n", "0:4:1", "--out", "t.csv"],
    ["critical-points", "--lambda", "0.4", "--n", "3", "--omega", "1.5", "--out", "c.csv"],
    ["profile", "density-position", "--lambda", "0.4", "--n", "2", "--out", "rho.csv"],
    ["profile", "density-momentum", "--lambda", "100", "--half-width", "3", "--grid-points",
     "601", "--out", "g.csv", "--omega", "2"],
    ["profile", "approx-momentum", "--lambda=10", "--n=3", "--out=a.csv"],
    ["table", "energy"],
    ["table", "renyi_mom_d", "--tolerance", "1e-9", "--out", "reports/"],
    ["table", "--tol=0.5", "not_a_table"],
]

# usage errors the parser itself reports
PARSE_INVALID = [
    [],
    ["foo"],
    ["ener"],
    ["foo", "--n", "0"],
    ["energy", "--bogus"],
    ["energy", "--bogus", "1", "--n", "0", "--more"],
    ["energy", "--n"],
    ["energy", "--omega", "x"],
    ["energy", "--o", "1"],
    ["energy", "--alpha", "2"],
    ["energy", "extra"],
    ["renyi", "--space", "both"],
    ["renyi", "--grid-points", "1.5"],
    ["profile"],
    ["profile", "density"],
    ["profile", "--out", "p.csv"],
    ["table"],
    ["table", "energy", "--tolerance"],
    ["table", "energy", "other"],
    ["--n", "0"],
    ["--bogus", "energy", "--n", "0"],
    ["--bogus", "energy", "--more"],
    ["--", "energy"],
]


def reference_usage_error(argv):
    try:
        reference_build_parser().parse_args(argv)
    except _UsageError as exc:
        return f"usage error: {exc}\n"
    raise AssertionError(f"the reference parser accepts {argv}")


# grid texts at the edges of the lazy range: rounding at either end, the
# stop filter, integer and non-integer steps, NaN, infinities and errors
GRID_TEXTS = [
    "0", "0.4", "0,0.1,0.2", "-1,2", "2,-1", "nan", "1,nan", "inf", "-0.0", "1e308,-1e308",
    "x", "1,,2", "0:1:0.1", "0:0.3:0.1", "0.1:0.7:0.2", "-1:1:0.5", "-0.5:0.5:0.25",
    "0:9.4:1", "0:9.6:1", "0:10.4:1", "1e-13:1:0.1", "0.9999999999995:2:1", "-5e-13:1:1", "-6e-13:1:1",
    "3:3:1", "0:3:1.0000000000001", "0:3:0.9999999999999", "0.5:4.5:1", "-3:3:1", "2:8:2",
    "0:5:2.5", "0:1.7e308:1e308", "4095.9999999999995:4095.9999999999995:1", "1e20:1e20:1",
    "9007199254740990:9007199254740999:1", "-1e-300:1:1", "0:0:1", "0:1e-12:1e-13",
    "1:0:1", "0:1:0", "0:1:nan", "0:inf:1", "0:1", "0:1:1:1",
]


class TestParser:
    @pytest.mark.parametrize("kind", [float, int])
    @pytest.mark.parametrize("text", GRID_TEXTS)
    def test_grid_matches_eager_parser(self, text, kind):
        # the same values, types and messages as building every value at once
        try:
            want = reference_parse_grid(text, kind)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                _parse_grid(text, kind)
            assert str(got.value) == str(exc)
            return
        got = _parse_grid(text, kind)
        assert len(got) == len(want)
        assert [(type(v), repr(v)) for v in got] == [(type(v), repr(v)) for v in want]
        for bad in (lambda v: v < 0, lambda v: not (v > 0 and math.isfinite(v))):
            try:
                _parse_grid(text, kind, bad, "bad value")
                caught = False
            except _UsageError as exc:
                caught = str(exc) == "bad value"
            assert caught == any(bad(v) for v in want)

    @pytest.mark.parametrize("argv", PARSE_VALID, ids=" ".join)
    def test_namespace_matches_subparser_tree(self, argv):
        expect = vars(reference_build_parser().parse_args(argv))
        if argv[0] == "threshold":
            del expect["lam"]
        assert vars(_parse_args(argv)) == expect

    def test_valid_corpus_covers_every_command(self):
        tree = reference_build_parser()._subparsers._group_actions[0]
        assert {argv[0] for argv in PARSE_VALID} == set(COMMANDS) == set(tree.choices)

    @pytest.mark.parametrize("argv", PARSE_INVALID, ids=" ".join)
    def test_usage_error_matches_subparser_tree(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == reference_usage_error(argv)

    @pytest.mark.parametrize(
        "argv",
        [[c] for c in COMMANDS[:9]]
        + [["xi-tsallis", "--alpha", "0.8"], ["threshold"], ["critical-points"],
           ["profile", "density-position", "--grid-points", "5", "--out", "rho.csv"],
           ["table", "energy"]],
        ids=" ".join,
    )
    def test_one_parser_per_call(self, capsys, tmp_path, monkeypatch, argv):
        built = self._spy_parsers(monkeypatch)
        monkeypatch.chdir(tmp_path)
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert built == [f"darboux3 {argv[0]}"]

    @pytest.mark.parametrize(
        "argv, progs",
        [
            ([], ["darboux3"]),
            (["foo"], ["darboux3"]),
            (["energy", "--bogus"], ["darboux3 energy"]),
            (["--bogus", "energy"], ["darboux3", "darboux3 energy"]),
        ],
        ids=["no command", "foo", "energy --bogus", "--bogus energy"],
    )
    def test_usage_error_parsers(self, capsys, monkeypatch, argv, progs):
        built = self._spy_parsers(monkeypatch)
        code, _, _ = run_cli(capsys, *argv)
        assert (code, built) == (2, progs)

    @staticmethod
    def _spy_parsers(monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        return built

    @pytest.mark.parametrize(
        "argv",
        [["renyi", "--space", "momentum", "--alpha", "0.7"], ["energy", "-h"]],
        ids=" ".join,
    )
    def test_one_terminal_size_query_per_parser(self, monkeypatch, capsys, argv):
        # every add_argument builds a help formatter; the width is read once
        sizes = []
        query = cli.shutil.get_terminal_size

        def spy(*args):
            sizes.append(args)
            return query(*args)

        monkeypatch.setattr(cli.shutil, "get_terminal_size", spy)
        try:
            _parse_args(argv)
        except SystemExit:  # -h
            pass
        capsys.readouterr()
        assert len(sizes) == 1

    def test_import_builds_no_parser(self):
        code = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def spy(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = spy\n"
            "import darboux3.cli\n"
            "print(len(built))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["renyi", "--help"]], ids=" ".join)
    def test_help(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "darboux3.cli", *argv], capture_output=True, text=True
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        if argv[0] == "renyi":
            assert proc.stdout.startswith("usage: darboux3 renyi [-h]")
            names = ["--omega", "--lambda", "--n", "--alpha", "--space", "--grid-points",
                     "--half-width", "--out"]
        else:
            assert proc.stdout.startswith("usage: darboux3 [-h]")
            names = COMMANDS
        assert all(name in proc.stdout for name in names)


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

    def test_momentum_half_width_skips_the_profile(self, tmp_path, capsys, monkeypatch):
        # the default momentum half-widths read the derived cut; they build
        # no momentum profile
        built = []
        cached = quadrature._profile_cached

        def spy(*args):
            built.append(args)
            return cached(*args)

        monkeypatch.setattr(quadrature, "_profile_cached", spy)
        cut = quadrature._momentum_cut(ModelParams(1.0, 0.4), 1)
        out = tmp_path / "gamma.csv"
        code, _, _ = run_cli(
            capsys, "profile", "density-momentum", "--lambda", "0.4", "--n", "1",
            "--grid-points", "33", "--out", str(out),
        )
        assert code == 0 and built == []
        assert out.read_text().splitlines()[1].split(",")[0] == f"{-0.75 * cut:.12g}"
        code, _, _ = run_cli(
            capsys, "moment", "--space", "momentum", "--alpha", "2", "--grid-points", "2048",
            "--lambda", "0.4", "--n", "1",
        )
        assert code == 0 and built == []
        code, _, _ = run_cli(
            capsys, "moment", "--space", "momentum", "--alpha", "2", "--lambda", "0.4", "--n", "1",
        )
        assert code == 0 and built == [(0.4, 1, 1)]  # the profile of kappa = 0.4

    def test_even_grid_points_round_up_to_odd(self, tmp_path, capsys):
        # an odd count puts a node at 0, so the symmetry check sees a mirror image
        out = tmp_path / "rho.csv"
        code, _, _ = run_cli(
            capsys, "profile", "density-position", "--lambda", "0.4", "--n", "1",
            "--grid-points", "200", "--out", str(out),
        )
        rows = out.read_text().splitlines()[1:]
        assert code == 0 and len(rows) == 201
        assert rows[100].split(",")[0] == "0"

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

    def test_unknown_table_id_raises_key_error(self):
        with pytest.raises(KeyError, match="unknown table id 'nope'"):
            verify_table("nope")

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
