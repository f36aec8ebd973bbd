"""Alternating before/after perfbench pairs, written as a BENCH record pair.

    python tools/bench_pairs.py --parent DIR --change DIR \\
        --workloads table-replay position-grid --seeds 1-10 --name NAME

For each workload and each seed in turn, one pair runs
``perfbench/run.py --workload W --seed S --seconds 30 --trace 0`` from the
root of each checkout, one run after the other, the change first on odd
pairs, with OPENBLAS_NUM_THREADS=1.  ``BENCH_NAME.json`` (the change) and
``BENCH_NAME_parent.json`` are written to the current directory; each run
keeps its order in the whole sequence and its last stdout line as
``result``.  Then, for each workload and metric, it prints the parent's
median [quartiles], the change's median and the pairs the change won.
Standard library only.
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

COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds 30 --trace 0"


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


def run(root: Path, workload: str, seed: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "30", "--trace", "0"]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(change: dict, parent: dict, better: dict) -> list[str]:
    """Per workload and metric: parent median [quartiles] -> change median,
    and the pairs (same workload and seed) the change won."""
    def values(record, workload, metric):
        runs = sorted((r for r in record["runs"] if r["workload"] == workload), key=lambda r: r["seed"])
        return [r["result"]["metrics"][metric]["value"] for r in runs]

    lines = []
    for workload in dict.fromkeys(r["workload"] for r in parent["runs"]):
        for metric, direction in better.items():
            old, new = values(parent, workload, metric), values(change, workload, metric)
            q1, q2, q3 = statistics.quantiles(old, n=4) if len(old) > 1 else old * 3
            med = statistics.median(new)
            won = sum((b < a) if direction == "lower" else (b > a) for a, b in zip(old, new))
            lines.append(f"{workload} {metric}: {q2:.6g} [{q1:.6g}, {q3:.6g}] -> {med:.6g} "
                         f"({100.0 * (med / q2 - 1.0):+.1f} %), change better in {won}/{len(old)}")
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
        for seed in range(first, last + 1):
            pair = order // 2 + 1
            for side in ("change", "parent") if pair % 2 else ("parent", "change"):
                order += 1
                result = run(trees[side], workload, seed)
                records[side]["runs"].append({"order": order, "workload": workload, "seed": seed,
                                              "trace": 0, "result": result})
                print(f"{order} {side} {workload} seed {seed}: {json.dumps(result)}", flush=True)
                for name, suffix in (("change", ""), ("parent", "_parent")):  # after every run
                    Path(f"BENCH_{args.name}{suffix}.json").write_text(json.dumps(records[name], indent=1))
    bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    print("\n".join(summary(records["change"], records["parent"], better)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
