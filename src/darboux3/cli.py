"""Command-line frontend.

Subcommands compute any library quantity over parameter grids and emit CSV
on stdout (header row, 12 significant digits, LF endings, rows in the
order :func:`_grid_command` sets).  ``profile`` writes plot-ready density
curves to a file and ``table`` replays one embedded reference table and
reports a pass/fail matrix.

Exit codes: 0 ok, 1 golden-table mismatch, 2 usage error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from pathlib import Path

import numpy as np

from .model import ModelParams, density_position, effective_frequency, energy
from .position_entropy import BudgetExceededError, entropic_moment
from .quadrature import (
    GridSpec,
    _momentum_cut,
    fourier_transform,
    grid_nodes,
    position_half_width,
    shannon_numeric,
)
from .strong_nonlinear import (
    approx_momentum_closed,
    bifurcation_threshold,
    density_critical_points,
    harmonic_weight,
)
from .tables import TABLE_IDS, verify_table
from .uncertainty import entropy_from_log_moment, log_moment, xi_renyi, xi_tsallis

USAGE_EXIT = 2
NUMERIC_EXIT = 3


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # single-line diagnostic, exit code 2
        raise _UsageError(message)


def _parse_grid(text: str, kind=float) -> list:
    """Parse '0.4' | '0,0.1,0.2' | 'start:stop:step' (inclusive range)."""
    if ":" in text:
        start, stop, step = (float(t) for t in text.split(":"))
        if step <= 0 or stop < start:
            raise _UsageError(f"bad range {text!r}")
        count = int(round((stop - start) / step)) + 1
        vals = [round(start + k * step, 12) for k in range(count)]
        vals = [v for v in vals if v <= stop + 1e-12]
    else:
        vals = [float(t) for t in text.split(",")]
    if kind is int and not all(v.is_integer() for v in vals):
        raise _UsageError(f"expected integers, got {text!r}")
    return [kind(v) for v in vals]


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _emit(header: list[str], rows: list[list], out_path: str | None) -> None:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_fmt(v) if isinstance(v, float) else str(v) for v in row])
    data = buf.getvalue()
    if out_path:
        Path(out_path).write_text(data)
    else:
        sys.stdout.write(data)


def _common_flags(sp, alpha=False, space=False, grid=False):
    sp.add_argument("--omega", type=float, default=1.0)
    sp.add_argument("--lambda", dest="lam", type=str, default="0")
    sp.add_argument("--n", type=str, default="0")
    if alpha:
        sp.add_argument("--alpha", type=str, default="2")
    if space:
        sp.add_argument("--space", choices=("position", "momentum"), default="position")
    if grid:
        sp.add_argument("--grid-points", type=int, default=None)
        sp.add_argument("--half-width", type=float, default=None)
    sp.add_argument("--out", type=str, default=None)


def _validated(args, need_alpha=False):
    if args.omega <= 0 or not math.isfinite(args.omega):
        raise _UsageError(f"--omega must be positive, got {args.omega}")
    lams = _parse_grid(args.lam)
    if any(l < 0 for l in lams):
        raise _UsageError("--lambda values must be non-negative")
    ns = _parse_grid(args.n, kind=int)
    if any(n < 0 for n in ns):
        raise _UsageError("--n values must be non-negative integers")
    alphas = None
    if need_alpha:
        alphas = _parse_grid(args.alpha)
        if not all(a > 0 and math.isfinite(a) for a in alphas):
            raise _UsageError("--alpha values must be positive and finite")
    points, half = getattr(args, "grid_points", None), getattr(args, "half_width", None)
    if points is not None and points < 1:
        raise _UsageError(f"--grid-points must be at least 1, got {points}")
    if half is not None and not (half > 0 and math.isfinite(half)):
        raise _UsageError(f"--half-width must be positive and finite, got {half}")
    return lams, ns, alphas


def _log_moment(args, params, n, alpha):
    """ln W for one cell: :func:`log_moment`, or quadrature on the user's
    grid when --grid-points or --half-width is given."""
    if args.grid_points is None and args.half_width is None:
        return log_moment(params, n, alpha, args.space)[0]
    points = 512 if args.grid_points is None else args.grid_points
    half = args.half_width
    if args.space == "position":
        if half is None:
            half = position_half_width(params, n, min(alpha, 1.0))
        x, w = grid_nodes(GridSpec(half_width=half, points=points))
        return math.log(float(w @ np.power(density_position(params, n, x), alpha)))
    if half is None:
        half = _momentum_cut(params, n)
    p, w = grid_nodes(GridSpec(half_width=half, points=points))
    gamma = np.abs(fourier_transform(params, n, None, p)) ** 2
    norm = float(w @ gamma)
    if abs(norm - 1.0) > 5e-6:
        raise ArithmeticError(f"momentum density normalisation off by {norm - 1.0:.2e}")
    return math.log(float(w @ np.power(gamma, alpha)))


def _grid_command(args, header, cells, need_alpha):
    """Emit one CSV over the parameter grid; the package's one row order.

    Rows run n outer, lambda middle and, with ``need_alpha``, alpha inner;
    each starts with those grid columns (n, lambda[, alpha]), followed by
    the ``header`` columns.  ``cells(args, params, n, alpha)`` returns the
    value columns of the rows of one grid point (several rows for critical
    points; ``alpha`` is None without ``need_alpha``).
    """
    lams, ns, alphas = _validated(args, need_alpha)
    rows = []
    for n in ns:
        for lam in lams:
            params = ModelParams(args.omega, lam)
            for a in alphas if need_alpha else [None]:
                grid = [n, lam, a] if need_alpha else [n, lam]
                rows += [grid + tail for tail in cells(args, params, n, a)]
    lead = ["n", "lambda", "alpha"] if need_alpha else ["n", "lambda"]
    _emit(lead + header, rows, args.out)


def _entropy_cells(args, params, n, a):
    if a == 1.0:
        raise _UsageError(f"{args.command} order 1 is Shannon; use the shannon command")
    log_w = _log_moment(args, params, n, a)
    return [[args.space, entropy_from_log_moment(log_w, a, args.command)]]


def _xi_cells(args, params, n, a):
    r = (xi_renyi if args.command == "xi-renyi" else xi_tsallis)(params, n, a)
    return [[r.value, r.position_method]]


def _weight_cells(args, params, n, a):
    s = harmonic_weight(params, n)
    return [[s.f, s.complement]]


def _critical_cells(args, params, n, a):
    # closed forms where they exist, bracketed root-finding elsewhere
    points = density_critical_points(params, n, numeric=n not in (0, 2))
    return [[c.x, c.kind] for c in points]


def _threshold_command(args):
    _, ns, _ = _validated(args)
    rows = [
        [n, args.omega, bifurcation_threshold(ModelParams(args.omega, 0.0), n)] for n in ns
    ]
    _emit(["n", "omega", "lambda_c"], rows, args.out)


def _profile_command(args):
    lams, ns, _ = _validated(args)
    if len(lams) != 1 or len(ns) != 1:
        raise _UsageError("profile needs exactly one --lambda and one --n")
    if not args.out:
        raise _UsageError("profile requires --out <path>")
    lam, n = lams[0], ns[0]
    params = ModelParams(args.omega, lam)
    points = 801 if args.grid_points is None else args.grid_points
    if points % 2 == 0:
        points += 1
    half = args.half_width
    if half is None and args.kind == "density-position":
        half = position_half_width(params, n, 1.0, tail_log=25.0)
    elif half is None:
        half = 0.75 * _momentum_cut(params, n)
    xs = np.linspace(-half, half, points)
    if args.kind == "density-position":
        dens = np.asarray(density_position(params, n, xs))
    elif args.kind == "density-momentum":
        dens = np.abs(fourier_transform(params, n, None, xs)) ** 2
    else:  # approx-momentum
        dens = np.abs(np.asarray(approx_momentum_closed(params, n, xs))) ** 2
    sym = np.max(np.abs(dens - dens[::-1]))
    if sym > 1e-10 * max(float(np.max(dens)), 1e-300):
        raise ArithmeticError(f"profile symmetry check failed: asymmetry {sym:.2e}")
    _emit(["coordinate", "density"], [[float(x), float(d)] for x, d in zip(xs, dens)], args.out)


def _table_command(args) -> int:
    if args.table not in TABLE_IDS:
        raise _UsageError(f"unknown table {args.table!r}; known: {', '.join(TABLE_IDS)}")
    report = verify_table(args.table, args.tolerance)
    out_dir = Path(args.out) if args.out else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    recomputed = [["row", "col", "reference", "computed", "tolerance", "pass", "gating"]]
    for c in report.cells:
        recomputed.append(
            [c.row, c.col, c.reference_text, _fmt(c.computed), _fmt(c.tolerance),
             "pass" if c.passed else "FAIL", "gating" if c.gating else "info"]
        )
    with open(out_dir / f"{args.table}_recomputed.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(recomputed)
    n_pass = sum(1 for c in report.cells if c.passed)
    print(f"table {args.table}: {n_pass}/{len(report.cells)} cells within tolerance")
    for c in report.cells:
        if not c.passed:
            tag = "FAIL" if c.gating else "info"
            print(
                f"  [{tag}] row {c.row} col {c.col}: reference {c.reference_text} "
                f"computed {_fmt(c.computed)} (tol {_fmt(c.tolerance)})"
            )
    if not report.passed:
        print(f"table {args.table}: FAILED ({len(report.failures)} gating mismatches)")
        return 1
    print(f"table {args.table}: PASS")
    return 0


def build_parser() -> _Parser:
    ap = _Parser(prog="darboux3", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    for name in ("energy", "omega", "disequilibrium", "weight-f"):
        sp = sub.add_parser(name)
        _common_flags(sp)
    for name in ("renyi", "tsallis"):
        sp = sub.add_parser(name)
        _common_flags(sp, alpha=True, space=True, grid=True)
    sp = sub.add_parser("moment")
    _common_flags(sp, alpha=True, space=True, grid=True)
    sp = sub.add_parser("shannon")
    _common_flags(sp, space=True)
    for name in ("xi-renyi", "xi-tsallis"):
        sp = sub.add_parser(name)
        _common_flags(sp, alpha=True)
    sp = sub.add_parser("threshold")
    _common_flags(sp)
    sp = sub.add_parser("critical-points")
    _common_flags(sp)
    sp = sub.add_parser("profile")
    sp.add_argument("kind", choices=("density-position", "density-momentum", "approx-momentum"))
    _common_flags(sp, grid=True)
    sp = sub.add_parser("table")
    sp.add_argument("table", type=str)
    sp.add_argument("--tolerance", type=float, default=None)
    sp.add_argument("--out", type=str, default=None)
    return ap


# command: (value columns, cells(args, params, n, alpha), need_alpha)
_GRID_COMMANDS = {
    "energy": (["energy"], lambda a, p, n, al: [[energy(p, n)]], False),
    "omega": (["omega_eff"], lambda a, p, n, al: [[effective_frequency(p, n)]], False),
    "disequilibrium": (
        ["disequilibrium"], lambda a, p, n, al: [[entropic_moment(p, n, 2)]], False
    ),
    "weight-f": (["f", "complement"], _weight_cells, False),
    "renyi": (["space", "renyi"], _entropy_cells, True),
    "tsallis": (["space", "tsallis"], _entropy_cells, True),
    "moment": (
        ["space", "moment"],
        lambda a, p, n, al: [[a.space, math.exp(_log_moment(a, p, n, al))]],
        True,
    ),
    "shannon": (
        ["space", "shannon"],
        lambda a, p, n, al: [[a.space, shannon_numeric(p, n, a.space)]],
        False,
    ),
    "xi-renyi": (["xi", "position_method"], _xi_cells, True),
    "xi-tsallis": (["xi", "position_method"], _xi_cells, True),
    "critical-points": (["x", "kind"], _critical_cells, False),
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    try:
        if args.command == "table":
            return _table_command(args)
        if args.command == "threshold":
            _threshold_command(args)
        elif args.command == "profile":
            _profile_command(args)
        else:
            _grid_command(args, *_GRID_COMMANDS[args.command])
        return 0
    except ValueError as exc:  # _UsageError included
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (ArithmeticError, BudgetExceededError) as exc:
        origin = "darboux3"
        tb = exc.__traceback__
        while tb is not None:  # deepest package frame names the failing module
            mod = tb.tb_frame.f_globals.get("__name__", "")
            if mod.startswith("darboux3"):
                origin = mod
            tb = tb.tb_next
        print(f"numeric failure in {origin}: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    except Exception as exc:  # no traceback reaches the user
        print(f"numeric failure in darboux3 ({type(exc).__name__}): {exc}", file=sys.stderr)
        return NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
