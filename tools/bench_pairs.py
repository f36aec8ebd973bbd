"""Alternating before/after perfbench pairs, written as a BENCH record pair.

    python tools/bench_pairs.py --parent DIR --change DIR \\
        --workloads table-replay position-grid --seeds 1-10 --name NAME

For each workload, one traced pair at the first seed (``--trace 1``), then
for each seed in turn one timed pair, runs
``perfbench/run.py --workload W --seed S --seconds 30 --trace T`` from the
root of each checkout, one run after the other, the change first on odd
pairs, with OPENBLAS_NUM_THREADS=1.  ``BENCH_NAME.json`` (the change) and
``BENCH_NAME_parent.json`` are written to the current directory; each run
keeps its order in the whole sequence, its ``trace`` and its last stdout
line as ``result``.  Then, for each workload and end-to-end metric, it
prints the parent's median [quartiles], the change's median and the pairs
the change won, over the timed runs; and each per-layer count of the
traced runs (``*.calls``, ``*.points``, the profiles' ``p_nodes_*``) that
differs between the trees, so a time that moved can be told from work
that moved.  Standard library only.
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


def _is_count(metric: str) -> bool:
    """A per-layer metric that counts work rather than timing it."""
    return metric.endswith((".calls", ".points")) or metric.startswith(
        "quadrature.momentum_profile.p_nodes_")


def summary(change: dict, parent: dict, better: dict) -> list[str]:
    """Per workload and metric: parent median [quartiles] -> change median,
    and the pairs (same workload and seed) the change won, over the timed
    runs; then each count of the traced runs that differs between the trees."""
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
            old, new = ({m: v["value"] for m, v in t[0]["result"]["metrics"].items() if _is_count(m)}
                        for t in traced)
            moved = [m for m in dict.fromkeys([*old, *new]) if old.get(m) != new.get(m)]
            for metric in moved:
                before, after = (f"{v[metric]:.6g}" if metric in v else "absent" for v in (old, new))
                lines.append(f"{workload} {metric} (traced, seed {traced[0][0]['seed']}): "
                             f"{before} -> {after}")
            if not moved:
                lines.append(f"{workload}: all {len(old)} traced counts equal")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", required=True, help="A-B, inclusive")
    ap.add_argument("--name", required=True)
    args = ap.parse_args()
    first, last = (int(s) for s in args.seeds.split("-"))
    trees = {"change": args.change.resolve(), "parent": args.parent.resolve()}
    records = {side: {"command": COMMAND + " (run from the checkout root, OPENBLAS_NUM_THREADS=1)",
                      "machine": machine(root), "runs": []} for side, root in trees.items()}
    order = 0
    for workload in args.workloads:
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
