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
import shutil
import sys
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from .model import ModelParams, density_position, effective_frequency, energy
from .position_entropy import BudgetExceededError, entropic_moment
from .quadrature import (
    _exp_moment,
    _momentum_cut,
    fourier_transform,
    grid_log_moment,
    position_half_width,
)
from .strong_nonlinear import (
    approx_momentum_closed,
    bifurcation_threshold,
    density_critical_points,
    harmonic_weight,
)
from .tables import TABLE_IDS, verify_table
from .uncertainty import _entropies, _xi_slacks, entropy_from_log_moment, log_moments

USAGE_EXIT = 2
NUMERIC_EXIT = 3
MAX_RANGE_VALUES = 10**6  # per grid flag
MAX_GRID_POINTS = 10**6  # n x lambda x alpha values per grid command, and --grid-points


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    _width = None  # the help width, read from the terminal once per parser

    def error(self, message):  # single-line diagnostic, exit code 2
        raise _UsageError(message)

    def _get_formatter(self):  # add_argument builds one per flag
        if self._width is None:
            self._width = shutil.get_terminal_size().columns - 2
        return self.formatter_class(prog=self.prog, width=self._width)


class _Range(Sequence):
    """value(k) for k in the range ``ks``, each computed when read."""

    def __init__(self, value, ks: range):
        self.value, self.ks = value, ks

    def __len__(self):
        return len(self.ks)

    def __getitem__(self, i):
        return _Range(self.value, self.ks[i]) if isinstance(i, slice) else self.value(self.ks[i])


def _parse_grid(text: str, kind=float, bad=None, error: str = "") -> Sequence:
    """Parse '0.4' | '0,0.1,0.2' | 'start:stop:step' (inclusive range) into
    values of ``kind``; a value where ``bad`` holds is the usage error ``error``.

    A range needs a finite positive step and is sized before any value is
    computed: one of more than ``MAX_RANGE_VALUES`` values is a usage error.
    Its values round(start + k step, 12) <= stop + 1e-12 rise with k, so its
    first alone meets ``bad`` (a lower bound), and an integer start and
    step give integers below 2^53; each is computed when read.
    """
    exact = False
    if ":" in text:
        start, stop, step = (float(t) for t in text.split(":"))
        if not (0 < step < math.inf and start <= stop):  # NaN fails both
            raise _UsageError(f"bad range {text!r}")
        steps = (stop - start) / step
        if not steps < MAX_RANGE_VALUES:  # inf and NaN (inf - inf) too
            raise _UsageError(f"range {text!r} holds more than {MAX_RANGE_VALUES} values")
        raw = _Range(lambda k: round(start + k * step, 12), range(int(round(steps)) + 1))
        while raw and raw[-1] > stop + 1e-12:
            raw = raw[:-1]
        exact = start.is_integer() and step.is_integer() and abs(start) + len(raw) * step < 2**53
    else:
        raw = [float(t) for t in text.split(",")]
    if kind is int and not (exact or all(v.is_integer() for v in raw)):
        raise _UsageError(f"expected integers, got {text!r}")
    vals = _Range(lambda k: kind(raw[k]), range(len(raw)))
    if bad and any(map(bad, vals[:1] if ":" in text else vals)):
        raise _UsageError(error)
    return vals


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _emit(header: list[str], rows: list[list], out_path: str | Path | None) -> None:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_fmt(v) if isinstance(v, float) else str(v) for v in row])
    data = buf.getvalue()
    if out_path:
        Path(out_path).write_text(data, newline="")
    else:
        sys.stdout.write(data)


def _validated(args):
    """Check the command's flags in one fixed order; return its lambda, n
    and alpha grids, None for a flag the command does not take."""
    if args.omega <= 0 or not math.isfinite(args.omega):
        raise _UsageError(f"--omega must be positive, got {args.omega}")
    lams = alphas = None
    if "lam" in args:
        lams = _parse_grid(args.lam, float, lambda l: l < 0, "--lambda values must be non-negative")
    ns = _parse_grid(args.n, int, lambda n: n < 0, "--n values must be non-negative integers")
    if "alpha" in args:
        bad = lambda a: not (a > 0 and math.isfinite(a))
        alphas = _parse_grid(args.alpha, float, bad, "--alpha values must be positive and finite")
    points, half = getattr(args, "grid_points", None), getattr(args, "half_width", None)
    if points is not None and points < 1:
        raise _UsageError(f"--grid-points must be at least 1, got {points}")
    if points is not None and points < 32 and "alpha" in args:  # two 16-point panels
        raise _UsageError(f"--grid-points must be at least 32, got {points}")
    if points is not None and points > MAX_GRID_POINTS:
        raise _UsageError(f"--grid-points must be at most {MAX_GRID_POINTS}, got {points}")
    if half is not None and not (half > 0 and math.isfinite(half)):
        raise _UsageError(f"--half-width must be positive and finite, got {half}")
    if half is not None and not math.isfinite(2.0 * half):  # the grid spans [-L, L]
        raise _UsageError(f"--half-width must be at most {sys.float_info.max / 2.0:.12g}, got {half}")
    return lams, ns, alphas


def _log_moments(args, n, cells):
    """ln W at each (lam, alpha) of ``cells``: :func:`log_moments`, or
    :func:`grid_log_moment` cell by cell when --grid-points or --half-width
    is given."""
    if args.grid_points is None and args.half_width is None:
        return [log_w for log_w, _ in log_moments(args.omega, cells, n, args.space)]
    points = 512 if args.grid_points is None else args.grid_points
    return [
        grid_log_moment(ModelParams(args.omega, lam), n, a, args.space, points, args.half_width)
        for lam, a in cells
    ]


def _grid_command(args, header, block):
    """Emit one CSV over the parameter grid; the package's one row order.

    Rows run n outer, lambda middle and, for a command that takes
    ``--alpha``, alpha inner; each starts with those grid columns
    (n, lambda[, alpha]), followed by the ``header`` columns.
    ``block(args, n, cells)`` computes one n's grid points, the
    (lam, alpha) ``cells`` in row order (alpha None without ``--alpha``),
    and returns the value columns of each point's rows (several rows for
    critical points).  A grid of more than ``MAX_GRID_POINTS`` points is a
    usage error before any row is computed.
    """
    lams, ns, alphas = _validated(args)
    points = len(ns) * len(lams) * len(alphas or [None])
    if points > MAX_GRID_POINTS:
        raise _UsageError(f"grid holds {points} points, more than {MAX_GRID_POINTS}")
    inner = list(alphas or [None])  # each value computed once
    cells = [(lam, a) for lam in lams for a in inner]
    rows = []
    for n in ns:
        for (lam, a), tails in zip(cells, block(args, n, cells)):
            grid = [n, lam] if a is None else [n, lam, a]
            rows += [grid + tail for tail in tails]
    lead = ["n", "lambda"] if alphas is None else ["n", "lambda", "alpha"]
    _emit(lead + header, rows, args.out)


def _each(point):  # the block of a command that computes point(params, n) point by point
    return lambda args, n, cells: [point(ModelParams(args.omega, lam), n) for lam, _ in cells]


def _entropy_block(args, n, cells):
    if any(a == 1.0 for _, a in cells):
        raise _UsageError(f"{args.command} order 1 is Shannon; use the shannon command")
    log_ws = _log_moments(args, n, cells)
    return [
        [[args.space, entropy_from_log_moment(v, a, args.command)]]
        for v, (_, a) in zip(log_ws, cells)
    ]


def _moment_block(args, n, cells):
    return [
        [[args.space, _exp_moment(v, a, lam, n)]]
        for v, (lam, a) in zip(_log_moments(args, n, cells), cells)
    ]


def _shannon_block(args, n, cells):
    values = _entropies(args.omega, [(lam, 1.0) for lam, _ in cells], n, args.space, "renyi")
    return [[[args.space, s]] for s in values]


def _xi_block(args, n, cells):
    slacks = _xi_slacks(args.omega, cells, n, args.command.removeprefix("xi-"))
    return [[[r.value, r.position_method]] for r in slacks]


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
    if args.tolerance is not None and not 0.0 <= args.tolerance < math.inf:
        raise _UsageError(f"--tolerance must be non-negative and finite, got {args.tolerance}")
    report = verify_table(args.table, args.tolerance)
    out_dir = Path(args.out) if args.out else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [
        [c.row, c.col, c.reference_text, _fmt(c.computed), _fmt(c.tolerance),
         "pass" if c.passed else "FAIL", "gating" if c.gating else "info"]
        for c in report.cells
    ]
    header = ["row", "col", "reference", "computed", "tolerance", "pass", "gating"]
    _emit(header, rows, out_dir / f"{args.table}_recomputed.csv")
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


# add_argument keywords of every flag and positional
_FLAGS = {
    "kind": dict(choices=("density-position", "density-momentum", "approx-momentum")),
    "table": dict(type=str),
    "--omega": dict(type=float, default=1.0),
    "--lambda": dict(dest="lam", type=str, default="0"),
    "--n": dict(type=str, default="0"),
    "--alpha": dict(type=str, default="2"),
    "--space": dict(choices=("position", "momentum"), default="position"),
    "--grid-points": dict(type=int, default=None),
    "--half-width": dict(type=float, default=None),
    "--tolerance": dict(type=float, default=None),
    "--out": dict(type=str, default=None),
}
_MOMENT_FLAGS = "--omega --lambda --n --alpha --space --grid-points --half-width --out"
# command: the flags it reads, in the order its help and usage errors list
# them; those of the top level list the commands in this order
_COMMANDS = {
    "energy": "--omega --lambda --n --out",
    "omega": "--omega --lambda --n --out",
    "disequilibrium": "--omega --lambda --n --out",
    "weight-f": "--omega --lambda --n --out",
    "renyi": _MOMENT_FLAGS,
    "tsallis": _MOMENT_FLAGS,
    "moment": _MOMENT_FLAGS,
    "shannon": "--omega --lambda --n --space --out",
    "xi-renyi": "--omega --lambda --n --alpha --out",
    "xi-tsallis": "--omega --lambda --n --alpha --out",
    "threshold": "--omega --n --out",
    "critical-points": "--omega --lambda --n --out",
    "profile": "kind --omega --lambda --n --grid-points --half-width --out",
    "table": "table --tolerance --out",
}


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse one command line, building the parser of its command alone.

    Whatever does not start with a command (nothing, an unknown command,
    ``-h`` or a flag before the command) first goes through a top-level
    parser whose positional takes the command and the rest of the line, as
    a subparser would, so errors and help read as from a subparser tree.
    """
    extras = []
    if not argv or argv[0] not in _COMMANDS:
        top = _Parser(prog="darboux3", description=__doc__)
        top.add_argument("command", choices=_COMMANDS, nargs=argparse.PARSER)
        top_args, extras = top.parse_known_args(argv)
        argv = top_args.command
    command = argv[0]
    parser = _Parser(prog=f"darboux3 {command}")
    for flag in _COMMANDS[command].split():
        parser.add_argument(flag, **_FLAGS[flag])
    args, unknown = parser.parse_known_args(argv[1:])
    if extras or unknown:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras + unknown)}")
    args.command = command
    return args


# command: (value columns, block(args, n, cells))
_GRID_COMMANDS = {
    "energy": (["energy"], _each(lambda p, n: [[energy(p, n)]])),
    "omega": (["omega_eff"], _each(lambda p, n: [[effective_frequency(p, n)]])),
    "disequilibrium": (["disequilibrium"], _each(lambda p, n: [[entropic_moment(p, n, 2)]])),
    "weight-f": (["f", "complement"], _each(lambda p, n: [[(w := harmonic_weight(p, n)).f, w.complement]])),
    "renyi": (["space", "renyi"], _entropy_block),
    "tsallis": (["space", "tsallis"], _entropy_block),
    "moment": (["space", "moment"], _moment_block),
    "shannon": (["space", "shannon"], _shannon_block),
    "xi-renyi": (["xi", "position_method"], _xi_block),
    "xi-tsallis": (["xi", "position_method"], _xi_block),
    "critical-points": (
        ["x", "kind"],
        _each(lambda p, n: [[c.x, c.kind] for c in density_critical_points(p, n)]),
    ),
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
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
