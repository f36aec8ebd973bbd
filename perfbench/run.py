"""darboux3 benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all --seed N [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record-reference

Run from the root of a checkout; the package is imported from ``src/``.
One process serves one workload: a closed loop from a single client that
sends requests one at a time and starts no threads.  Every request is cold:
every ``cache_clear`` found on a ``darboux3`` module or class is called
before it.  A run is one seeded round of requests, timed and checked, then
timed again in further passes while they fit in ``--seconds``.  With
``--trace 1`` there is one pass, in which every request runs untraced and
then traced.  The last line of stdout is one
JSON object with the run's metrics; everything else goes to
``.perfbench/`` in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import os

#: BLAS threads for this process and every process it starts; 1 <= nproc
#: keeps the momentum transform's matrix-vector products off a shared core
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import gc
import gzip
import hashlib
import importlib
import io
import json
import math
import pickle
import platform
import pkgutil
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
#: a run is one round.  After its first pass, timed and checked, the round
#: runs again, cold and timed only, cheapest request first, up to MAX_PASSES
#: passes in all; a pass skips a request whose fastest time so far would take
#: it past --seconds.  Each timed run is pinned to the next allowed CPU in
#: turn.
MAX_PASSES = 5
#: the speed of a shared machine drifts: on the 2-vCPU VM the benchmark was
#: built on, by up to 2x over seconds and by a third between whole runs, as
#: other tenants load the host.  So probe() runs on the request's CPU just
#: before and just after every timed request, and a request's time is
#: PROBE_REF_S times the median, over its passes, of its time over the mean
#: probe time: the time it takes on that VM when the probe takes PROBE_REF_S,
#: its typical time there during a run.
PROBE_REF_S = 0.0075
#: fresh interpreters timed per run for setup_s, after one warm-up, spread
#: evenly over the run: spawn times there switch between two levels 1.5x
#: apart that last for seconds, so spawns made back to back all share one.
#: Each is paired with a spawn that imports only numpy, the bulk of the
#: set-up, and setup_s is SETUP_REF_S times the median ratio of the two: on
#: the 2-vCPU VM the medians of raw spawn times moved by a quarter between
#: runs an hour apart, those of the ratio by a tenth.
SETUP_SPAWNS = 11
SETUP_REF_S = 0.150       # a numpy-only spawn's typical time on that VM

def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package() -> dict:
    """Import darboux3 from the checkout's src/; short name -> module."""
    if not (SRC / "darboux3" / "__init__.py").is_file():
        _fail(f"no darboux3 package under {SRC}; run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import darboux3

    if Path(darboux3.__file__).resolve().parent != (SRC / "darboux3").resolve():
        _fail(f"imported darboux3 from {darboux3.__file__}, not from {SRC}")
    modules = {"darboux3": darboux3}
    for info in pkgutil.walk_packages(darboux3.__path__, "darboux3."):
        modules[info.name.rsplit(".", 1)[1]] = importlib.import_module(info.name)
    return modules


def find_caches(modules: dict) -> list:
    """Every object with cache_clear on a darboux3 module or on its classes."""
    found = {}
    for module in modules.values():
        for value in vars(module).values():
            holders = [value]
            if isinstance(value, type) and value.__module__.startswith("darboux3"):
                holders += list(vars(value).values())
            for obj in holders:
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj
    return list(found.values())


class SetupClock:
    """Wall times of fresh interpreters importing darboux3.cli, spread over a run."""

    CMD = [sys.executable, "-c",
           "import sys; sys.path.insert(0, sys.argv[1]); import darboux3.cli", str(SRC)]
    REF_CMD = [sys.executable, "-c", "import numpy"]

    def __init__(self, start: float, seconds: float):
        self.due = [start + seconds * j / SETUP_SPAWNS for j in range(SETUP_SPAWNS)]
        self.times: list[float] = []
        self.ref_times: list[float] = []
        self._spawn(self.CMD)  # the first spawn writes the bytecode cache in a fresh checkout

    @staticmethod
    def _spawn(cmd: list[str]) -> float:
        t0 = time.perf_counter()
        # no timeout: Popen.wait with a timeout polls in 50 ms steps
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0

    def poll(self, finish: bool = False) -> None:
        """Make every spawn pair that is due; with ``finish``, every one left."""
        while self.due and (finish or time.perf_counter() >= self.due[0]):
            self.due.pop(0)
            self.times.append(self._spawn(self.CMD))
            self.ref_times.append(self._spawn(self.REF_CMD))

    def setup_s(self) -> float:
        return SETUP_REF_S * statistics.median(
            t / r for t, r in zip(self.times, self.ref_times))


#: the probe's inputs and work buffers, made once
_PROBE_X = np.linspace(0.0, 8.0, 1500)
_PROBE_P = np.linspace(-4.0, 4.0, 200)
_PROBE_W = np.exp(-0.5 * _PROBE_X * _PROBE_X)
_PROBE_GRID = np.empty((200, 1500))
_PROBE_OUT = np.empty(200)


def probe() -> float:
    """Seconds for a fixed computation like the program's own (about 6 ms).

    Trig matrix-vector products, as in the momentum transform.  They work in
    place in buffers made once, so no allocation ties the probe's time to
    the state the program left the allocator in.
    """
    t0 = time.perf_counter()
    for _ in range(2):
        np.multiply.outer(_PROBE_P, _PROBE_X, out=_PROBE_GRID)
        np.cos(_PROBE_GRID, out=_PROBE_GRID)
        np.matmul(_PROBE_GRID, _PROBE_W, out=_PROBE_OUT)
    return time.perf_counter() - t0


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        dll = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(dll, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts(seed: int) -> dict:
    import numpy as np

    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines() if line.startswith("model name")),
               platform.processor())
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "darboux3").rglob("*")):
        if path.suffix in (".py", ".csv"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": int(BLAS_THREADS),
        "blas_threads": _blas_threads(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


class Runner:
    """Executes requests cold, times them, and checks their outputs."""

    def __init__(self, modules: dict, workloads):
        self.modules = modules
        self.workloads = workloads
        self.caches = find_caches(modules)
        OUT.mkdir(exist_ok=True)
        (OUT / "tmp").mkdir(exist_ok=True)
        self.ctx = workloads.Context(tmp=OUT / "tmp", reference=load_reference())

    def execute(self, req):
        out = self.workloads.Outcome()
        try:
            if req.argv is not None:
                so, se = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
                    out.code = self.modules["cli"].main(list(req.argv))
                out.stdout, out.stderr = so.getvalue(), se.getvalue()
            else:
                out.values = [getattr(self.modules[m], f)(*a, **k) for m, f, a, k in req.calls]
        except Exception as exc:  # a request that raises is a failed request
            out.error = f"{type(exc).__name__}: {exc}"
        return out

    def timed(self, req, tracer=None, request_id=None, cpu=None):
        """One cold request, pinned to ``cpu`` when given.

        Returns (seconds, mean seconds of the probes just before and after, outcome).
        """
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        probe_s = probe()
        if req.out_file is not None:
            req.out_file.unlink(missing_ok=True)
        for cache in self.caches:
            cache.cache_clear()
        gc.collect()
        if tracer is not None:
            tracer.install(request_id)
        try:
            t0 = time.perf_counter()
            out = self.execute(req)
            seconds = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        probe_s = 0.5 * (probe_s + probe())
        if req.out_file is not None:
            out.text = req.out_file.read_text() if req.out_file.exists() else ""
        else:
            out.text = out.stdout
        return seconds, probe_s, out

    @staticmethod
    def check(req, out):
        try:
            return req.check(out)
        except Exception as exc:  # a check that cannot run fails the request
            return 0, [f"check raised {type(exc).__name__}: {exc}"]


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def quantile(times: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile; q = 1 gives the maximum.

    A Beta((n+1)q, (n+1)(1-q))-weighted mean of the order statistics.  It
    estimates the same quantile as one order statistic, but with a few tens
    of requests of unequal cost it scatters less from run to run.
    """
    x = np.sort(np.asarray(times, dtype=float))
    n = len(x)
    if q >= 1.0 or n == 1:
        return float(x[-1])
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    edges = np.linspace(0.0, 1.0, 20001)
    mid = 0.5 * (edges[1:] + edges[:-1])
    logpdf = (a - 1.0) * np.log(mid) + (b - 1.0) * np.log1p(-mid)
    cdf = np.concatenate([[0.0], np.cumsum(np.exp(logpdf - logpdf.max()))])
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, edges, cdf))
    return float(weights @ x)


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond it.

    Below 50 samples that percentile would sit under p80, and below 20 under
    the median, so p80 is reported instead.  p80 of a round is a weighted
    mean of its costliest requests, which scatters less than their maximum.
    """
    n = len(times)
    q = max(0.8, (n - 10) / n)
    return quantile(times, q), 100.0 * q


def _fingerprint(out) -> tuple:
    values = hashlib.sha256(pickle.dumps(out.values)).hexdigest()
    return out.code, out.error, out.text, values


def run_workload(args, modules, workloads) -> dict:
    runner = Runner(modules, workloads)
    facts = machine_facts(args.seed)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(modules)
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    setup = SetupClock(start, args.seconds)
    reqs = workloads.make_round(args.workload, args.seed, runner.ctx)
    records, outputs = [], []
    for i, req in enumerate(reqs):
        seconds, probe_s, out = runner.timed(req, cpu=cpus[i % len(cpus)])
        rows, problems = runner.check(req, out)
        rec = {"label": req.label, "argv": req.argv, "passes": [seconds], "probes": [probe_s],
               "rows": rows, "problems": problems}
        if tracer is not None:
            traced_s, _, traced_out = runner.timed(req, tracer, request_id=i)
            _, traced_problems = runner.check(req, traced_out)
            rec["traced_seconds"] = traced_s
            rec["problems"] = problems + [f"traced: {p}" for p in traced_problems]
        records.append(rec)
        outputs.append(_fingerprint(out))
        setup.poll()
    deadline = start + args.seconds
    for _ in range(MAX_PASSES - 1 if tracer is None else 0):
        ran = False
        # cheapest first, so the short requests that vary most get the passes
        for i in sorted(range(len(reqs)), key=lambda k: min(records[k]["passes"])):
            rec = records[i]
            if time.perf_counter() + min(rec["passes"]) > deadline:
                continue
            seconds, probe_s, out = runner.timed(
                reqs[i], cpu=cpus[(i + len(rec["passes"])) % len(cpus)])
            rec["passes"].append(seconds)
            rec["probes"].append(probe_s)
            ran = True
            if _fingerprint(out) != outputs[i]:
                rec["problems"].append("output differs from the first pass")
            setup.poll()
        if not ran:
            break
    os.sched_setaffinity(0, cpus)
    setup.poll(finish=True)
    for rec in records:
        ratios = [t / p for t, p in zip(rec["passes"], rec["probes"])]
        rec["seconds"] = PROBE_REF_S * statistics.median(ratios)
        rec["unscaled_seconds"] = min(rec["passes"])

    times = [r["seconds"] for r in records]
    unscaled = [r["unscaled_seconds"] for r in records]
    tail_s, tail_pct = tail(times)
    failed = [r for r in records if r["problems"]]
    attempted = len(records) * (2 if tracer is not None else 1)
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": facts,
        "passes": sorted({len(r["passes"]) for r in records}),
        "tail_percentile": tail_pct,
        "setup_spawns_s": setup.times,
        "numpy_spawns_s": setup.ref_times,
        # the same metrics unscaled: each request's fastest pass, the raw spawn times
        "unscaled": {"request_p50_s": quantile(unscaled, 0.5),
                     "request_tail_s": tail(unscaled)[0],
                     "rows_per_s": sum(r["rows"] for r in records) / sum(unscaled),
                     "setup_s": statistics.median(setup.times)},
        "attempted": attempted, "failed": len(failed),
        "failed_frac": len(failed) / len(records),
        "failed_requests": [{"argv": r["argv"] or r["label"], "problems": r["problems"]}
                            for r in failed],
    }
    if tracer is None:
        result["metrics"] = {
            "request_p50_s": quantile(times, 0.5),
            "request_tail_s": tail_s,
            "rows_per_s": sum(r["rows"] for r in records) / sum(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup.setup_s(),
        }
    else:
        import tracing

        cli_rows = sum(r["rows"] for r in records if r["argv"] is not None)
        result["metrics"] = tracing.layer_metrics(
            tracer, [r["traced_seconds"] for r in records], unscaled, cli_rows)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        with gzip.open(spans, "wt") as fh:
            for span in tracer.records():
                fh.write(json.dumps(span) + "\n")
        result["spans_file"] = str(spans.relative_to(ROOT))
    result["requests"] = records
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1))
    return result


def print_result(result: dict, bench: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{len(result['requests'])} requests, passes per request {result['passes']}")
    if result["trace"]:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for name, value in result["metrics"].items():
        note = ""
        if name == "request_tail_s":
            note = f"  (p{result['tail_percentile']:.4g} of {len(result['requests'])} requests)"
        print(f"  {name} {value:.6g} {units.get(name, '')}{note}")
    if not result["trace"]:
        print("  unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in result["unscaled"].items()))
    print(f"  failed_frac {result['failed_frac']:.6g} ({result['failed']}/{result['attempted']})")
    for f in result["failed_requests"]:
        print(f"  FAILED {f['argv']}: {'; '.join(f['problems'])[:500]}")
    m = result["machine"]
    print(f"  machine: {m['nproc']} cpus, {m['cpu_model']}, python {m['python']}, numpy "
          f"{m['numpy']}, {m['blas']} threads {m['blas_threads']}, commit {m['git_commit']}")


def summary_line(result: dict, bench: dict) -> str:
    names = [m["name"] for m in bench["per_layer" if result["trace"] else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in bench["per_layer"] + bench["end_to_end"]}
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        raise KeyError(f"metrics missing from the run: {missing}")
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": result["metrics"][n], "unit": units[n]} for n in names},
    })


def perturb(out, shift: float = 1e-6):
    """Copy of an outcome with one output value moved by ``shift`` relative."""
    import copy

    import numpy as np

    bad = copy.deepcopy(out)
    if bad.values:
        first = bad.values[0]
        if isinstance(first, np.ndarray):  # transform: move its largest value
            first = first.copy()
            first[np.argmax(np.abs(first))] *= 1.0 + shift
        elif isinstance(first, list):  # critical points: move one off the origin
            k = next(i for i, c in enumerate(first) if c.x != 0.0)
            first = list(first)
            first[k] = type(first[k])(first[k].x * (1.0 + shift), first[k].kind)
        elif isinstance(first, float):  # threshold
            first *= 1.0 + shift
        else:  # harmonic weight split
            first = type(first)(first.f * (1.0 + shift), first.complement)
        bad.values[0] = first
        return bad
    lines = bad.text.splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    # the value column: "computed" in table reports, else the last numeric one
    col = (header.index("computed") if "computed" in header
           else max(j for j, c in enumerate(rows[0]) if _is_number(c)))
    i = max(range(len(rows)), key=lambda k: abs(float(rows[k][col])))
    rows[i][col] = f"{float(rows[i][col]) * (1.0 + shift):.12g}"
    bad.text = "\n".join(",".join(r) for r in [header] + rows) + "\n"
    return bad


def _is_number(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def self_test(modules, workloads, per_workload: int = 3) -> bool:
    """Each checked output passes; the same output moved by ``req.shift`` fails."""
    runner = Runner(modules, workloads)
    ok = True
    for name in workloads.WORKLOADS:
        reqs = [r for r in workloads.make_round(name, 0, runner.ctx) if r.oracle]
        for req in reqs[:per_workload]:
            _, _, out = runner.timed(req)
            _, clean = runner.check(req, out)
            _, moved = runner.check(req, perturb(out, req.shift))
            good = not clean and bool(moved)
            ok &= good
            print(f"self-test {name}: {'ok' if good else 'BROKEN'}  {req.label[:90]}")
            if clean:
                print(f"    unperturbed output failed: {clean[:2]}")
            if not moved:
                print("    perturbed output passed its check")
    return ok


def record_reference(modules, workloads) -> None:
    """Write the baseline outputs that have no independent oracle."""
    runner = Runner(modules, workloads)
    ref = {"momentum-cold": {}, "table-replay": {}}
    _, _, out = runner.timed(workloads.Request("corner", argv=list(workloads.MC_CORNER)))
    ref["momentum-cold"]["corner"] = [float(r.split(",")[3]) for r in out.text.splitlines()[1:]]
    for tid in modules["tables"].TABLE_IDS:
        _, _, out = runner.timed(workloads.table_request(tid, runner.ctx))
        rows = [r.split(",") for r in out.text.splitlines()[1:]]
        ref["table-replay"][tid] = [[r[0], r[1], float(r[3])] for r in rows]
        print(f"recorded table {tid}: {len(rows)} cells")
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")


def run_all(args, bench) -> int:
    """Self-test, then every workload in its own fresh process."""
    ok = subprocess.run([sys.executable, __file__, "--self-test"], cwd=ROOT).returncode == 0
    for workload in bench_workloads(bench):
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        sys.stderr.write(proc.stderr)
        ok &= proc.returncode == 0 and json.loads(proc.stdout.splitlines()[-1])["correct"]
    return 0 if ok else 1


def bench_workloads(bench: dict) -> list[str]:
    return [w["name"] for w in bench["workloads"]]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=bench_workloads(bench))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true", help="self-test and every workload")
    mode.add_argument("--self-test", action="store_true", help="checks catch a perturbed value")
    mode.add_argument("--record-reference", action="store_true",
                      help="rewrite reference.json from this checkout")
    args = ap.parse_args()
    if args.all:
        return run_all(args, bench)
    modules = import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    if args.self_test:
        return 0 if self_test(modules, workloads) else 1
    if args.record_reference:
        record_reference(modules, workloads)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    result = run_workload(args, modules, workloads)
    print_result(result, bench)
    print(summary_line(result, bench))
    return 0


if __name__ == "__main__":
    sys.exit(main())
