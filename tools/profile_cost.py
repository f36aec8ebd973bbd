"""Stage times and peak memory of cold momentum profiles, one fresh process each.

    PYTHONPATH=src python tools/profile_cost.py 30,0 1000,6 --runs 3 [--json out.json]

For every ``lam,n`` (omega = 1, refine 1) and each of ``--runs`` runs, a
child process (with OPENBLAS_NUM_THREADS=1 unless it is set) imports the
package, builds ``momentum_profile`` once and reports, in seconds:

- ``lattice``: the trapezoid nodes and the weighted wavefunction
  (``_ft_x_nodes``, ``_lattice_values``);
- ``scan``: the zero scan (``_zero_scan``: its FFT and any head band
  summed by the kernel; ``_fft_scan`` in a checkout without it);
- ``refine``: the rest of ``_transform_zeros``, the Newton steps on the
  brackets;
- ``panels``: the momentum panel layout (``_panel_grid``);
- ``final``: the kernel sum on the profile nodes;
- ``total``: the whole ``momentum_profile`` call;

the kernel's trig phases by stage, ``phases``: the phase count (entries
times momenta) of every cos/sin pass of the kernel (``_unit_phases``;
``_cos_sin_outer`` in a checkout without it), summed over the head band
of a two-band scan (``head``), the Newton steps (``newton``) and the
final sum (``final``); and ``peak_rss_mb`` (``resource.getrusage``, the
child's peak, imports included), the scan path (``one fft`` or ``two bands``), the zero count
and the node counts, and the zeros themselves as ``float.hex`` strings
(``zeros_hex``), so that a ``diff`` of two checkouts' records shows any
zero that moved by one bit.  The parent prints one line per run, and with
``--json`` writes every record to a file.  A checkout other than this one
is measured by putting its ``src`` on ``PYTHONPATH``.  Standard library
and numpy only; Linux (``ru_maxrss`` in KiB).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time


def measure(lam: float, n: int) -> dict:
    """One cold profile in this process, with each stage timed by a wrapper."""
    from darboux3 import ModelParams, quadrature

    spent = {"lattice": 0.0, "scan": 0.0, "zeros": 0.0, "panels": 0.0, "final": 0.0}
    phases = {"head": 0, "newton": 0, "final": 0}
    paths, current = [], []  # current: the stage of the running kernel call

    def timed(stage, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[stage] += time.perf_counter() - t0
        return wrapper

    kernel = quadrature._ft_component
    callers = {"_zero_scan": "head", "_profile_cached": "final"}  # any other caller refines zeros

    def ft_component(*args):
        caller = sys._getframe(1).f_code.co_name
        if caller == "_zero_scan":  # the head band of a two-band scan
            paths.append("two bands")
        current[:] = [callers.get(caller, "newton")]
        if caller == "_profile_cached":
            return timed("final", kernel)(*args)
        return kernel(*args)

    # a checkout from before the level tables takes its phases in _cos_sin_outer
    trig_name = "_unit_phases" if hasattr(quadrature, "_unit_phases") else "_cos_sin_outer"
    trig = getattr(quadrature, trig_name)

    def counted_trig(x, x_split, q, q_split):
        phases[current[0]] += len(x) * len(q)
        return trig(x, x_split, q, q_split)

    quadrature._ft_component = ft_component
    setattr(quadrature, trig_name, counted_trig)
    # a checkout from before the two-band scan has no _zero_scan: its scan is _fft_scan
    scan = "_zero_scan" if hasattr(quadrature, "_zero_scan") else "_fft_scan"
    for name, stage in (("_ft_x_nodes", "lattice"), ("_lattice_values", "lattice"),
                        (scan, "scan"), ("_transform_zeros", "zeros"),
                        ("_panel_grid", "panels")):
        setattr(quadrature, name, timed(stage, getattr(quadrature, name)))
    zeros = []
    transform_zeros = quadrature._transform_zeros

    def keep_zeros(*args):
        zeros.append(transform_zeros(*args))
        return zeros[-1]

    quadrature._transform_zeros = keep_zeros
    t0 = time.perf_counter()
    prof = quadrature.momentum_profile(ModelParams(1.0, lam), n)
    total = time.perf_counter() - t0
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "lam": lam,
        "n": n,
        "path": paths[0] if paths else "one fft",
        "lattice": spent["lattice"],
        "scan": spent["scan"],
        # _transform_zeros' time holds its scan (the FFT and any head band)
        "refine": spent["zeros"] - spent["scan"],
        "panels": spent["panels"],
        "final": spent["final"],
        "total": total,
        "phases": phases,
        "peak_rss_mb": peak_kib / 1024.0,
        "zeros": len(zeros[0]),
        "zeros_hex": [float(z).hex() for z in zeros[0]],
        "p_nodes": len(prof.p),
    }


def run_child(lam: float, n: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    proc = subprocess.run(
        [sys.executable, __file__, "--child", f"{lam!r},{n}"],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _case(text: str) -> tuple[float, int]:
    lam, n = text.split(",")
    return float(lam), int(n)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("cases", nargs="+", type=_case, help="lam,n pairs")
    ap.add_argument("--runs", type=int, default=1, help="fresh processes per case")
    ap.add_argument("--json", help="write every record to this file")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(measure(*args.cases[0])))
        return 0
    records = []
    for _ in range(args.runs):
        for lam, n in args.cases:
            rec = run_child(lam, n)
            records.append(rec)
            print(
                f"({lam:g}, {n}) {rec['path']}: scan {rec['scan']:.4f} refine {rec['refine']:.4f} "
                f"panels {rec['panels']:.4f} final {rec['final']:.4f} total {rec['total']:.4f} s, "
                "trig phases head {head} newton {newton} final {final}, ".format(**rec["phases"])
                + f"peak RSS {rec['peak_rss_mb']:.1f} MB, {rec['zeros']} zeros, {rec['p_nodes']} p nodes",
                flush=True,
            )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(records, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
