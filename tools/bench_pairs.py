"""Alternating before/after perfbench pairs, written as a BENCH record pair.

    python tools/bench_pairs.py --parent DIR --change DIR \\
        --workloads table-replay position-grid --seeds 1-10 --name NAME

For each workload, ``tools/cache_traffic.py --json`` once per checkout at
the first seed, with that checkout's ``src``; then one traced pair at the
first seed (``--trace 1``), then for each seed in turn one timed pair, runs
``perfbench/run.py --workload W --seed S --seconds 30 --trace T`` from the
root of each checkout, one run after the other, the change first on odd
pairs, with OPENBLAS_NUM_THREADS=1.  ``BENCH_NAME.json`` (the change) and
``BENCH_NAME_parent.json`` are written to the current directory; each run
keeps its order in the whole sequence, its ``trace`` and its last stdout
line as ``result``, and each record keeps its checkout's cache traffic
under ``cache_traffic``, by workload.  Then, for each workload and
end-to-end metric, it prints the parent's median [quartiles], the change's
median and the pairs the change won, over the timed runs; each per-layer
count of the traced runs (``*.calls``, ``*.points``, the profiles'
``p_nodes_*``) that differs between the trees; and each ``lru_cache``'s
hits and misses and the position Hermite passes and points that differ,
so a time that moved can be told from work that moved.  Standard library
only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds 30 --trace T"
CACHE_TRAFFIC = Path(__file__).resolve().parent / "cache_traffic.py"


def machine(root: Path) -> dict:
    """The machine and the source tree a checkout's runs ran on."""
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        names = [line for line in cpuinfo.read_text().splitlines() if line.startswith("model name")]
        cpu = names[0].split(":", 1)[1].strip() if names else cpu
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True).stdout.strip()
    src = b"".join(p.read_bytes() for p in sorted((root / "src" / "darboux3").glob("*.py")))
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy, "src_sha256_of": "src/darboux3/*.py, concatenated in sorted order",
            "src_sha256": hashlib.sha256(src).hexdigest()}


def run(root: Path, workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "30", "--trace", str(trace)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def traffic(root: Path, workload: str, seed: int) -> dict:
    """One round's cache traffic (tools/cache_traffic.py) with the checkout's src."""
    argv = [sys.executable, str(CACHE_TRAFFIC), "--json", "--seed", str(seed), workload]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(root / "src"))
    out = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, check=True)
    return {"seed": seed, **json.loads(out.stdout)[workload]}


def _traffic_counts(traffic: dict) -> dict:
    """A cache_traffic result as flat counts: Hermite passes and points, and
    each cache's hits and misses."""
    counts = {"hermite_passes": traffic["hermite_passes"], "hermite_points": traffic["hermite_points"]}
    for name, (hits, misses) in traffic["caches"].items():
        counts[f"{name} hits"], counts[f"{name} misses"] = hits, misses
    return counts


def _is_count(metric: str) -> bool:
    """A per-layer metric that counts work rather than timing it."""
    return metric.endswith((".calls", ".points")) or metric.startswith(
        "quadrature.momentum_profile.p_nodes_")


def _moved_counts(workload: str, source: str, seed: int, old: dict, new: dict) -> list[str]:
    """Each of the counts ``old`` (parent) and ``new`` (change) that differs,
    or one line saying all are equal."""
    moved = [k for k in dict.fromkeys([*old, *new]) if old.get(k) != new.get(k)]
    if not moved:
        return [f"{workload}: all {len(old)} {source} counts equal"]
    show = lambda counts, k: f"{counts[k]:.15g}" if k in counts else "absent"
    return [f"{workload} {k} ({source}, seed {seed}): {show(old, k)} -> {show(new, k)}" for k in moved]


def summary(change: dict, parent: dict, better: dict) -> list[str]:
    """Per workload and metric: parent median [quartiles] -> change median,
    and the pairs (same workload and seed) the change won, over the timed
    runs; then each count of the traced runs, and each count of the
    records' ``cache_traffic``, that differs between the trees."""
    def runs(record, workload, trace):
        return sorted((r for r in record["runs"] if r["workload"] == workload
                       and r.get("trace", 0) == trace), key=lambda r: r["seed"])

    def values(record, workload, metric):
        return [r["result"]["metrics"][metric]["value"] for r in runs(record, workload, 0)]

    lines = []
    for workload in dict.fromkeys(r["workload"] for r in parent["runs"]):
        for metric, direction in better.items():
            old, new = values(parent, workload, metric), values(change, workload, metric)
            q1, q2, q3 = statistics.quantiles(old, n=4) if len(old) > 1 else old * 3
            med = statistics.median(new)
            won = sum((b < a) if direction == "lower" else (b > a) for a, b in zip(old, new))
            lines.append(f"{workload} {metric}: {q2:.6g} [{q1:.6g}, {q3:.6g}] -> {med:.6g} "
                         f"({100.0 * (med / q2 - 1.0):+.1f} %), change better in {won}/{len(old)}")
        traced = [runs(record, workload, 1) for record in (parent, change)]
        if all(traced):
            lines += _moved_counts(workload, "traced", traced[0][0]["seed"], *(
                {m: v["value"] for m, v in t[0]["result"]["metrics"].items() if _is_count(m)} for t in traced))
        traffic = [record.get("cache_traffic", {}).get(workload) for record in (parent, change)]
        if all(traffic):
            lines += _moved_counts(workload, "cache_traffic", traffic[0]["seed"], *map(_traffic_counts, traffic))
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", required=True, help="A-B, inclusive")
    ap.add_argument("--name", required=True)
    args = ap.parse_args(argv)
    first, last = (int(s) for s in args.seeds.split("-"))
    trees = {"change": args.change.resolve(), "parent": args.parent.resolve()}
    records = {side: {"command": COMMAND + " (run from the checkout root, OPENBLAS_NUM_THREADS=1)",
                      "machine": machine(root), "cache_traffic": {}, "runs": []}
               for side, root in trees.items()}
    order = 0
    for workload in args.workloads:
        for side, root in trees.items():
            records[side]["cache_traffic"][workload] = traffic(root, workload, first)
        for trace, seed in [(1, first)] + [(0, seed) for seed in range(first, last + 1)]:
            pair = order // 2 + 1
            for side in ("change", "parent") if pair % 2 else ("parent", "change"):
                order += 1
                result = run(trees[side], workload, seed, trace)
                records[side]["runs"].append({"order": order, "workload": workload, "seed": seed,
                                              "trace": trace, "result": result})
                print(f"{order} {side} {workload} seed {seed} trace {trace}: {json.dumps(result)}",
                      flush=True)
                for name, suffix in (("change", ""), ("parent", "_parent")):  # after every run
                    Path(f"BENCH_{args.name}{suffix}.json").write_text(json.dumps(records[name], indent=1))
    bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    print("\n".join(summary(records["change"], records["parent"], better)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
