"""Cache traffic and position Hermite passes over one perfbench round.

    PYTHONPATH=src python tools/cache_traffic.py [--seed N] [--json] [WORKLOAD ...]

Builds one seeded round of each named workload (all four by default) with
``perfbench/workloads.py``, which it imports and does not change, and
serves its requests in turn, untimed and unchecked, the way
``perfbench/run.py`` does: every ``cache_clear`` found on a darboux3 module
or on one of its classes is called before each request.  It prints, per
workload, the hits and misses every darboux3 ``lru_cache`` recorded over
the round (read after each request and summed) and the number of position
Hermite passes, the calls of ``quadrature.hermite_sign_logabs``, with the
points they evaluated.  With ``--json`` it prints one JSON object instead,
{workload: {"caches": {name: [hits, misses]}, "hermite_passes": count,
"hermite_points": count}}.  Running it against two checkouts' ``src``
shows whether a change moved either; ``tools/bench_pairs.py`` does so.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import pkgutil
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _modules() -> dict:
    """Every darboux3 module, by short name, as perfbench/run.py names them."""
    import darboux3

    modules = {"darboux3": darboux3}
    for info in pkgutil.walk_packages(darboux3.__path__, "darboux3."):
        modules[info.name.rsplit(".", 1)[1]] = importlib.import_module(info.name)
    return modules


def _caches(modules: dict) -> dict:
    """Qualified name -> every lru_cache on a darboux3 module or its classes."""
    found = {}
    for module in modules.values():
        for value in vars(module).values():
            holders = [value]
            if isinstance(value, type) and value.__module__.startswith("darboux3"):
                holders += list(vars(value).values())
            for obj in holders:
                if callable(getattr(obj, "cache_info", None)):
                    found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return found


def _workloads():
    """perfbench/workloads.py, imported as perfbench/run.py imports it."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    return importlib.import_module("workloads")


def traffic(workload: str, seed: int) -> dict:
    """{"caches": {name: [hits, misses]}, "hermite_passes": count,
    "hermite_points": count} over one round."""
    modules = _modules()
    caches = _caches(modules)
    workloads = _workloads()
    quadrature = modules["quadrature"]
    passes = []  # the points of each pass
    hermite = quadrature.hermite_sign_logabs

    def counted(n, y):
        passes.append(len(y))
        return hermite(n, y)

    totals = {name: [0, 0] for name in caches}
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    quadrature.hermite_sign_logabs = counted
    try:
        with tempfile.TemporaryDirectory() as tmp:
            ctx = workloads.Context(tmp=Path(tmp), reference=reference)
            for req in workloads.make_round(workload, seed, ctx):
                for cache in caches.values():
                    cache.cache_clear()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    if req.argv is not None:
                        modules["cli"].main(list(req.argv))
                    else:
                        for m, f, a, k in req.calls:
                            getattr(modules[m], f)(*a, **k)
                for name, cache in caches.items():
                    info = cache.cache_info()
                    totals[name][0] += info.hits
                    totals[name][1] += info.misses
    finally:
        quadrature.hermite_sign_logabs = hermite
    return {"caches": totals, "hermite_passes": len(passes), "hermite_points": sum(passes)}


def main(argv: list[str] | None = None) -> int:
    workloads = _workloads()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", nargs="*", help=f"any of {', '.join(workloads.WORKLOADS)}")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--json", action="store_true", help="print one JSON object")
    args = ap.parse_args(argv)
    for workload in args.workload:
        if workload not in workloads.WORKLOADS:
            ap.error(f"unknown workload {workload!r}")
    results = {workload: traffic(workload, args.seed) for workload in args.workload or workloads.WORKLOADS}
    if args.json:
        print(json.dumps(results))
        return 0
    for workload, result in results.items():
        print(
            f"{workload} seed {args.seed}: {result['hermite_passes']} position Hermite passes"
            f" over {result['hermite_points']} points"
        )
        for name, (hits, misses) in sorted(result["caches"].items()):
            print(f"  {name}: {hits} hits, {misses} misses")
    return 0


if __name__ == "__main__":
    sys.exit(main())
