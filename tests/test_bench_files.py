"""The committed benchmark records at the repository root: each parses, says
how it was run and on what, holds its runs, and has its partner (a change's
record and its ``_parent`` record come in pairs).  And the tools under
``tools/`` that summarise records and count cache traffic."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(p.name for p in ROOT.glob("BENCH_*.json"))


def test_records_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("name", BENCH_FILES)
def test_record(name):
    record = json.loads((ROOT / name).read_text())
    assert isinstance(record, dict)
    assert isinstance(record.get("command"), str) and record["command"]
    assert isinstance(record.get("machine"), dict) and record["machine"]
    assert isinstance(record.get("runs"), list) and record["runs"]
    stem = name.removesuffix(".json")
    partner = stem.removesuffix("_parent") if stem.endswith("_parent") else stem + "_parent"
    assert f"{partner}.json" in BENCH_FILES


def _tool(name):
    """tools/<name>.py, loaded as a module."""
    path = ROOT / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _canned(p50s, rows):
    """A record of one workload's runs, seeds 1, 2, ... in the order given."""
    runs = [
        {"order": 2 * seed, "workload": "table-replay", "seed": seed, "trace": 0,
         "result": {"correct": True, "attempted": 14, "failed": 0, "metrics": {
             "request_p50_s": {"value": p50, "unit": "s"},
             "rows_per_s": {"value": rate, "unit": "1/s"}}}}
        for seed, (p50, rate) in enumerate(zip(p50s, rows), start=1)
    ]
    return {"command": "canned", "machine": {"nproc": 1}, "runs": runs[::-1]}


def test_bench_pairs_summary(monkeypatch):
    # medians, the parent's quartiles and the pairs won, from two canned
    # records; no benchmark is started
    bench_pairs = _tool("bench_pairs")
    monkeypatch.setattr(bench_pairs, "run", lambda *args: pytest.fail("started a run"))
    parent = _canned([0.030, 0.028, 0.032, 0.029, 0.031], [4000.0, 4300.0, 4100.0, 4200.0, 3900.0])
    change = _canned([0.024, 0.029, 0.025, 0.023, 0.026], [5000.0, 4200.0, 5100.0, 5300.0, 4900.0])
    better = {"request_p50_s": "lower", "rows_per_s": "higher"}
    assert bench_pairs.summary(change, parent, better) == [
        "table-replay request_p50_s: 0.03 [0.0285, 0.0315] -> 0.025 (-16.7 %), "
        "change better in 4/5",
        "table-replay rows_per_s: 4100 [3950, 4250] -> 5000 (+22.0 %), change better in 4/5",
    ]


def _traced(metrics):
    """A traced run of table-replay at seed 1 with the per-layer ``metrics``."""
    return {"order": 1, "workload": "table-replay", "seed": 1, "trace": 1,
            "result": {"correct": True, "attempted": 28, "failed": 0,
                       "metrics": {k: {"value": v, "unit": "count"} for k, v in metrics.items()}}}


def test_bench_pairs_summary_with_a_traced_pair(monkeypatch):
    # the medians come from the timed runs only; of the traced run's
    # metrics, the counts that differ are printed and timings are not
    bench_pairs = _tool("bench_pairs")
    monkeypatch.setattr(bench_pairs, "run", lambda *args: pytest.fail("started a run"))
    parent = _canned([0.030, 0.028, 0.032], [4000.0, 4300.0, 4100.0])
    change = _canned([0.031, 0.027, 0.033], [4000.0, 4400.0, 4000.0])
    common = {"quadrature.momentum_profile.calls": 42.0, "model.wavefunction.points": 9.0e5,
              "quadrature.momentum_profile.p_nodes_max": 1024.0}
    parent["runs"].append(_traced({**common, "specfun.hermite_sign_logabs.points": 7.2e5,
                                   "quadrature.shannon_numeric.self_s": 0.05}))
    change["runs"].append(_traced({**common, "specfun.hermite_sign_logabs.points": 7.3e5,
                                   "quadrature.shannon_numeric.self_s": 0.01}))
    better = {"request_p50_s": "lower"}
    timed = ["table-replay request_p50_s: 0.03 [0.028, 0.032] -> 0.031 (+3.3 %), change better in 1/3"]
    assert bench_pairs.summary(change, parent, better) == timed + [
        "table-replay specfun.hermite_sign_logabs.points (traced, seed 1): 720000 -> 730000",
    ]
    change["runs"][-1] = _traced({**common, "specfun.hermite_sign_logabs.points": 7.2e5})
    assert bench_pairs.summary(change, parent, better) == timed + [
        "table-replay: all 4 traced counts equal",
    ]


def _traffic(passes, misses):
    """A cache_traffic result at seed 1: two caches and the Hermite passes."""
    return {"seed": 1, "hermite_passes": passes, "hermite_points": 1000 * passes,
            "caches": {"darboux3.specfun.hermite_zeros": [0, misses], "darboux3.quadrature._profile_cached": [3, 7]}}


def test_bench_pairs_summary_with_cache_traffic(monkeypatch):
    # each hit, miss, pass and point count that differs between the trees'
    # cache_traffic is printed, or one line when all are equal
    bench_pairs = _tool("bench_pairs")
    monkeypatch.setattr(bench_pairs, "traffic", lambda *args: pytest.fail("started a round"))
    parent = _canned([0.030, 0.028, 0.032], [4000.0, 4300.0, 4100.0])
    change = _canned([0.031, 0.027, 0.033], [4000.0, 4400.0, 4000.0])
    parent["cache_traffic"] = {"table-replay": _traffic(48, 48)}
    change["cache_traffic"] = {"table-replay": _traffic(12, 12)}
    better = {"request_p50_s": "lower"}
    timed = ["table-replay request_p50_s: 0.03 [0.028, 0.032] -> 0.031 (+3.3 %), change better in 1/3"]
    assert bench_pairs.summary(change, parent, better) == timed + [
        "table-replay hermite_passes (cache_traffic, seed 1): 48 -> 12",
        "table-replay hermite_points (cache_traffic, seed 1): 48000 -> 12000",
        "table-replay darboux3.specfun.hermite_zeros misses (cache_traffic, seed 1): 48 -> 12",
    ]
    change["cache_traffic"] = {"table-replay": _traffic(48, 48)}
    assert bench_pairs.summary(change, parent, better) == timed + [
        "table-replay: all 6 cache_traffic counts equal",
    ]


def test_bench_pairs_takes_cache_traffic_once_per_tree(tmp_path, monkeypatch, capsys):
    # one round per checkout and workload, at the first seed and with that
    # checkout's root, kept in both records; the pairs run as before
    bench_pairs = _tool("bench_pairs")
    trees = {side: tmp_path / side for side in ("change", "parent")}
    for root in trees.values():
        root.mkdir()
    (trees["change"] / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "request_p50_s", "better": "lower"}]}))
    rounds = []
    monkeypatch.setattr(bench_pairs, "machine", lambda root: {"nproc": 1})
    monkeypatch.setattr(bench_pairs, "run", lambda root, workload, seed, trace: {
        "metrics": {"request_p50_s": {"value": 0.03, "unit": "s"}}})
    monkeypatch.setattr(bench_pairs, "traffic", lambda root, workload, seed: rounds.append(
        (root.name, workload, seed)) or _traffic(48, 48))
    monkeypatch.chdir(tmp_path)
    assert bench_pairs.main(["--parent", str(trees["parent"]), "--change", str(trees["change"]),
                             "--workloads", "table-replay", "--seeds", "3-4", "--name", "canned"]) == 0
    assert rounds == [("change", "table-replay", 3), ("parent", "table-replay", 3)]
    for name in ("BENCH_canned.json", "BENCH_canned_parent.json"):
        record = json.loads((tmp_path / name).read_text())
        assert record["cache_traffic"] == {"table-replay": _traffic(48, 48)}
        assert [(r["seed"], r["trace"]) for r in record["runs"]] == [(3, 1), (3, 0), (4, 0)]
    assert capsys.readouterr().out.endswith("table-replay: all 6 cache_traffic counts equal\n")


def test_cache_traffic_json(monkeypatch, capsys):
    # --json prints one object keyed by workload, in place of the text
    cache_traffic = _tool("cache_traffic")
    monkeypatch.setattr(cache_traffic, "traffic", lambda workload, seed: {"seed": seed, "workload": workload})
    assert cache_traffic.main(["--json", "--seed", "5", "position-grid", "table-replay"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "position-grid": {"seed": 5, "workload": "position-grid"},
        "table-replay": {"seed": 5, "workload": "table-replay"},
    }


def test_cache_traffic_counts_one_round():
    # position-grid's seed-1 round: 48 of its requests make one position
    # pass each, and compute the Hermite zeros once, since every cache is
    # cleared before each request
    traffic = _tool("cache_traffic").traffic("position-grid", 1)
    assert traffic["hermite_passes"] == 48
    assert traffic["caches"]["darboux3.specfun.hermite_zeros"] == [0, 48]


def test_profile_cost_reports_stages_and_path(tmp_path, monkeypatch, capsys):
    # one fresh child process per case: a small profile scans with one
    # FFT, (30, 0) in two bands, and each record holds its stage times, its
    # minor page faults by stage and its kernel phases by stage, the level
    # entries of the lattice times the momentum entries: the two levels of
    # the 48 (n + 2) head momenta in the head band, every profile node in
    # the final sum, one or more steps of one momentum per zero in Newton;
    # the zeros come back bit for bit, as float.hex strings
    from conftest import level_entries, profile_zeros, scan_size

    from darboux3 import ModelParams

    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    out = tmp_path / "cost.json"
    assert _tool("profile_cost").main(["0.4,3", "30,0", "--json", str(out)]) == 0
    small, corner = json.loads(out.read_text())
    assert (small["path"], small["zeros"], corner["path"], corner["zeros"]) == ("one fft", 2, "two bands", 1)
    for rec in (small, corner):
        stages = [rec[k] for k in ("lattice", "scan", "refine", "panels", "final")]
        assert min(stages) > 0.0 and sum(stages) < rec["total"] and rec["peak_rss_mb"] > 0.0
        levels = scan_size(ModelParams(1.0, rec["lam"]), rec["n"])[5]
        phases = rec["phases"]
        assert phases["head"] == (level_entries(96) * levels if rec is corner else 0)
        faults = rec["faults"]
        assert set(faults) == {"lattice", "scan", "refine", "panels", "final", "total"}
        assert all(count >= 0 for count in faults.values())
        assert faults["total"] >= sum(faults[k] for k in ("lattice", "scan", "refine", "panels", "final"))
        assert phases["final"] == rec["p_nodes"] * levels
        assert phases["newton"] % (rec["zeros"] * levels) == 0 and phases["newton"] > 0
        zeros = profile_zeros(ModelParams(1.0, rec["lam"]), rec["n"])[2]
        assert rec["zeros_hex"] == [float(z).hex() for z in zeros] and len(zeros) == rec["zeros"]
    assert capsys.readouterr().out.startswith("(0.4, 3) one fft: scan ")
