"""Digest the command line's output over a fixed list of command lines.

Runs every command line of :func:`_argvs` in-process, one after another,
through ``darboux3.cli.main`` and prints one line per command line:

    <sha256 over stdout, stderr and the files written>  <exit code>  <argv>

An ``{out}`` in a command line becomes a path in a fresh temporary
directory, and every file written there enters the digest under its name.
Two checkouts print the same lines exactly when their CLI bytes and exit
codes agree, so comparing the outputs of

    PYTHONPATH=src python tools/cli_digest.py > new.txt
    PYTHONPATH=/path/to/other/checkout/src python tools/cli_digest.py > old.txt

with ``diff`` lists every command line whose output moved.  The whole list
takes a few seconds on one core.  ``tests/cli_digest.txt`` is this output
under a header, and the test suite diffs the live digest against it.

With ``--rows`` it prints each command line's output itself instead:

    <argv>  |  exit <code>
    <argv>  |  <stdout, stderr or a written file's name>  |  <one row>

so ``diff`` of two checkouts' ``--rows`` output lists the rows that moved.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ORDERS = "0.3,0.5,0.714,1.5,2,2.567,3.456"
LAMBDAS = "0,0.05,0.4,1,3.84,10,30"


def _argvs() -> list[str]:
    from darboux3.tables import TABLE_IDS

    lines = [
        # spectrum, weights and closed-form moments
        "energy --lambda 0:1:0.1 --n 0:10:1",
        "energy --omega 2.5 --lambda 0,0.4,100 --n 0,5,50 --out {out}/e.csv",
        "omega --lambda 0:2:0.25 --n 0:6:1",
        "disequilibrium --lambda 0,0.4,3 --n 0:8:1",
        "weight-f --omega 0.7 --lambda 0.01,0.4,10,1000 --n 0:5:1",
        # position rows: fractional orders on the quadrature, integer ones closed
        f"renyi --n 0:10:1 --lambda {LAMBDAS} --alpha {ORDERS}",
        f"renyi --n 20,30,45,60 --lambda 0,0.4,3.84 --alpha {ORDERS}",
        f"tsallis --n 0,1,2,7,30 --lambda {LAMBDAS} --alpha 0.6,0.8,1.5,3",
        f"moment --n 0,3,8 --lambda {LAMBDAS} --alpha {ORDERS},1",
        "moment --omega 2.5 --n 0,4 --lambda 0.4,5 --alpha 0.75,1,2.5",
        "shannon --n 0:6:1 --lambda 0,0.05,0.4,2,30",
        # momentum rows
        "renyi --space momentum --n 0:4:1 --lambda 0,0.4,2 --alpha 0.5,0.75,2",
        "tsallis --space momentum --n 0,5 --lambda 0.4,9.57 --alpha 0.6,3",
        "moment --space momentum --n 0,1,6 --lambda 0.1,1,30 --alpha 1,2.5",
        "shannon --space momentum --n 0:3:1 --lambda 0,0.4,5",
        # zeros closer than a panel width, from n = 24 at lam = 0
        "renyi --space momentum --n 24,30,50 --lambda 0,0.4,10 --alpha 0.3,2,3",
        # slacks
        "xi-renyi --n 0:3:1 --lambda 0,0.05,0.4,2,30 --alpha 0.75,1.25,2",
        "xi-tsallis --n 0,2,6 --lambda 0,0.4,7 --alpha 0.6,0.8,1",
        # --grid-points and --half-width
        "renyi --alpha 0.5,2 --lambda 0.4 --n 0:3:1 --grid-points 1024",
        "moment --alpha 1.5 --lambda 0.4 --n 2 --grid-points 2048 --half-width 12",
        "tsallis --space momentum --alpha 0.8 --lambda 0.4 --n 0,1 --grid-points 4096",
        "renyi --space momentum --alpha 2 --lambda 3 --n 1 --grid-points 800 --half-width 30",
        # strong nonlinearity
        "critical-points --lambda 0,0.4,1,2,10 --n 0:8:1",
        "critical-points --omega 3 --lambda 0.05,40 --n 0,2,15",
        "profile density-position --lambda 0.4 --n 2 --out {out}/rho.csv",
        "profile density-momentum --lambda 1 --n 3 --grid-points 301 --out {out}/g.csv",
        "profile approx-momentum --omega 2 --lambda 20 --n 1 --half-width 9 --out {out}/a.csv",
        "threshold --n 0,2",
        "threshold --omega 2.5 --n 0,2 --out {out}/t.csv",
        # usage errors (exit 2)
        "",
        "bogus",
        "energy --bogus 1",
        "energy --lambda -0.5",
        "energy --lambda 0:1:0",
        "energy --lambda 0:1:inf",
        "energy --n 0.5",
        "energy --n 0:3:0.5",
        "energy --n 0:1000000:1",
        "energy --lambda 0:9999:1 --n 0:999:1",
        "energy --lambda 0:999999:1 --n 0:999999:1",
        "energy --lambda=-1:999998:1 --n 0:999999:1",
        "energy --omega 0",
        "renyi --alpha 1",
        "renyi --alpha 0,2",
        "renyi --grid-points 0",
        "renyi --half-width -3",
        "xi-renyi --alpha 0.4",
        "xi-tsallis --alpha 1.5",
        "critical-points --n 1 --lambda nan",
        "threshold --n 1",
        "threshold --n 0 --lambda 5",
        "profile density-position --lambda 0:999999:1",
        "profile density-position --n 0,1 --out {out}/p.csv",
        "profile density-position --n 0",
        "table not_a_table",
        "energy -h",
        # numeric failures (exit 3)
        "renyi --space momentum --alpha 2 --lambda 0.4 --n 0 --grid-points 64 --half-width 2",
        # the largest omega decade, where 5 omega would overflow
        "threshold --omega 1e308 --n 0,2",
        "threshold --omega 1e308 --n 2",
    ]
    lines += [f"table {t} --out {{out}}" for t in TABLE_IDS]
    # thresholds by decades of omega, and the n = 0 overflow edge
    lines += [f"threshold --omega 1e{e} --n 0,2" for e in range(-320, 309)]
    lines += [f"threshold --omega 1e{e} --n 0" for e in range(150, 156)]
    # one n's grid of (lam, alpha) cells: slacks, and orders of mixed kinds
    lines += [
        "xi-renyi --alpha 0.6,0.7,0.8,1.5 --lambda 0:1.5:0.1 --n 3",
        "renyi --alpha 0.5,2,2.5 --lambda 0:1.5:0.1 --n 3",
    ]
    # an order scan over several lambdas whose cells fill several passes
    lines += ["moment --alpha 0.52:3.02:0.02 --lambda 0,0.4,3,30 --n 40"]
    # momentum profiles large enough for the two-band zero scan
    lines += ["renyi --space momentum --n 6 --lambda 100,1000 --alpha 0.5,2"]
    # position grids of the user's that miss normalisation, and a W that
    # underflows next to its closed-form neighbour (exit 3 but the last)
    lines += [
        "renyi --alpha 2 --lambda 0.4 --n 0 --half-width 0.5",
        "moment --alpha 1 --lambda 0.4 --n 3 --grid-points 32",
        "moment --alpha 2 --half-width 1e300",
        "renyi --alpha 2000.5 --lambda 0.4 --n 0",
        "renyi --alpha 2000 --lambda 0.4 --n 0",
    ]
    # a half-width whose double overflows (exit 2), and a subnormal W (exit 3)
    lines += [
        "renyi --alpha 2 --half-width 1e308",
        "renyi --space momentum --alpha 2 --half-width 1e308",
        "profile density-position --half-width 1e308 --out {out}/f.csv",
        "moment --space momentum --alpha 2150 --lambda 0.4 --n 0",
    ]
    # momentum values at omega != 1, at lam = omega kappa for kappa = 0, 0.05, 2
    for omega, lams in (("1e-3", "0,5e-05,0.002"), ("0.37", "0,0.0185,0.74"),
                        ("2.5", "0,0.125,5"), ("1e4", "0,500,20000")):
        lines += [
            f"renyi --space momentum --omega {omega} --lambda {lams} --n 0,2 --alpha 0.5,2",
            f"shannon --space momentum --omega {omega} --lambda {lams} --n 0:3:1",
            f"xi-tsallis --omega {omega} --lambda {lams} --n 0,2 --alpha 0.6,0.8",
            f"profile density-momentum --omega {omega} --lambda {lams.rsplit(',', 1)[1]} --n 2"
            " --grid-points 301 --out {out}/g.csv",
        ]
    return lines


def _run(argv: str) -> tuple[int, list[tuple[str, bytes]]]:
    """Run one command line in-process: its exit code, and its stdout,
    stderr and every file written, by name, as (name, bytes)."""
    from darboux3 import cli

    with tempfile.TemporaryDirectory() as tmp:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv.replace("{out}", tmp).split())
            except SystemExit as exc:  # --help
                code = exc.code
        parts = [(name, text.getvalue().replace(tmp, "{out}").encode()) for name, text in
                 (("stdout", out), ("stderr", err))]
        parts += [(path.relative_to(tmp).as_posix(), path.read_bytes()) for path in sorted(Path(tmp).rglob("*"))]
    return code, parts


def digest_line(argv: str) -> str:
    """Run one command line in-process; its digest, exit code and argv."""
    code, parts = _run(argv)
    h = hashlib.sha256()
    for i, (name, data) in enumerate(parts):  # stdout and stderr, then the files
        h.update(data + b"\0" if i < 2 else name.encode() + b"\0" + data)
    return f"{h.hexdigest()}  {code}  {argv}"


def row_lines(argv: str) -> list[str]:
    """Run one command line in-process; its exit code and output rows, each
    prefixed by the command line and where it was written."""
    code, parts = _run(argv)
    rows = [f"{argv}  |  exit {code}"]
    for name, data in parts:
        rows += [f"{argv}  |  {name}  |  {row}" for row in data.decode(errors="replace").splitlines()]
    return rows


def main(args: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", action="store_true", help="print the output rows instead of their digest")
    rows = parser.parse_args(args).rows
    for argv in _argvs():
        print("\n".join(row_lines(argv)) if rows else digest_line(argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
