"""The scripts under ``scripts/`` run against this checkout and say what they
should.

Each runs in a fresh interpreter with this checkout's ``src`` on the path.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import yaml

from rclab.scenario import corpus_names, corpus_path, load_scenario

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_verify_topologies():
    assert "all claims verified" in run_script("verify_topologies.py")


def test_necessity_replay_pins_s():
    out = run_script("necessity_replay.py", "--topology", "net15", "--r", "3", "--l", "1", "--f", "2")
    assert "S pinned at 0.0: True" in out


def test_run_corpus_prints_every_scenario():
    rows = run_script("run_corpus.py").splitlines()
    scenarios = [n for n in corpus_names()
                 if "algorithm" in yaml.safe_load(corpus_path(n).read_text())]
    assert scenarios
    for name in scenarios:
        fingerprint = load_scenario(corpus_path(name)).fingerprint()
        assert any(row.split()[:2] == [name, f"fingerprint={fingerprint}"] for row in rows), name


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def synthetic_result(run_ref, work_per_ref, failed=0):
    return {"correct": failed == 0, "attempted": 10, "failed": failed, "metrics": {
        "run_ref": {"value": run_ref, "unit": "ref"},
        "work_per_ref": {"value": work_per_ref, "unit": "1/ref"}}}


def test_bench_pairs_alternates_sides():
    bp = load_bench_pairs()
    assert [bp.pair_order(i) for i in range(3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]


def test_bench_pairs_summary_on_synthetic_runs():
    bp = load_bench_pairs()
    parent = [100.0, 102.0, 104.0, 106.0, 108.0, 110.0, 112.0, 114.0, 116.0, 118.0]
    change = [80.0, 82.0, 84.0, 86.0, 88.0, 90.0, 92.0, 94.0, 96.0, 120.0]
    pairs = [{"parent": synthetic_result(a, 1 / a), "change": synthetic_result(b, 1 / b)}
             for a, b in zip(parent, change)]
    pairs[3]["change"] = synthetic_result(86.0, 1 / 86.0, failed=1)
    out = bp.summarize(pairs, {"run_ref": "lower", "work_per_ref": "higher", "setup_s": "lower"})
    assert out["pairs"] == 10 and out["all_correct"] is False
    assert out["failed"] == {"parent": 0, "change": 1}
    assert out["attempted"] == {"parent": 100, "change": 100}
    assert "setup_s" not in out["metrics"]
    rr = out["metrics"]["run_ref"]
    assert (rr["parent_q1"], rr["parent_median"], rr["parent_q3"]) == (104.5, 109.0, 113.5)
    assert rr["parent_iqr"] == 9.0
    assert (rr["change_q1"], rr["change_median"], rr["change_q3"]) == (84.5, 89.0, 93.5)
    assert rr["change_pct"] == round(100 * (89.0 - 109.0) / 109.0, 2)
    assert rr["change_wins"] == 9 and rr["clear_gain"] is True
    wr = out["metrics"]["work_per_ref"]
    assert wr["better"] == "higher" and wr["change_wins"] == 9 and wr["clear_gain"] is True
    # Eight wins in ten, or a gain inside the parent's IQR, is not clear.
    pairs[0]["change"] = synthetic_result(101.0, 1 / 101.0)
    assert bp.summarize(pairs, {"run_ref": "lower"})["metrics"]["run_ref"]["clear_gain"] is False
    close = [{"parent": synthetic_result(a, 1.0), "change": synthetic_result(a - 1, 1.0)}
             for a in parent]
    rr = bp.summarize(close, {"run_ref": "lower"})["metrics"]["run_ref"]
    assert rr["change_wins"] == 10 and rr["clear_gain"] is False


def test_bench_pairs_reads_the_wall_times_run_py_prints(capsys):
    bp = load_bench_pairs()
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run_py = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_py)
    names = [*run_py.END_TO_END, *run_py.WALL_CLOCK]
    for workload in ("sim-deep", "check-fails"):
        res = {"workload": workload, "seed": 0, "ops": ["a", "b"], "passes": 2,
               "setup_samples": 12, "attempted": 4, "failed": 0, "failures": [],
               "end_to_end": {name: 0.125 * (k + 1) for k, name in enumerate(names)},
               "per_layer": None}
        run_py._report(res)
        got = bp.wall_clock(capsys.readouterr().out)
        assert got == {name: {"value": res["end_to_end"][name], "unit": "s"}
                       for name in ("run_s", "op_s.p50", "op_s.max", "probe_s")}, workload
    better = bp.directions(json.loads((ROOT / "BENCHMARK.json").read_text()))
    assert {name: better.pop(name) for name in bp.WALL_CLOCK} == dict.fromkeys(bp.WALL_CLOCK, "lower")
    assert sorted(better) == sorted(run_py.END_TO_END)
    pairs = [{"parent": {"correct": True, "attempted": 1, "failed": 0,
                         "metrics": {"run_s": {"value": 1.0 + k, "unit": "s"}}},
              "change": {"correct": True, "attempted": 1, "failed": 0,
                         "metrics": {"run_s": {"value": 2.0 + k, "unit": "s"}}}}
             for k in range(10)]
    rs = bp.summarize(pairs, bp.directions({"end_to_end": []}))["metrics"]["run_s"]
    assert rs["better"] == "lower" and rs["change_wins"] == 0 and rs["change_pct"] > 0
    # The probe gets each side's levels, and no winner: it is neither better nor worse.
    for k, p in enumerate(pairs):
        p["parent"]["metrics"]["probe_s"] = {"value": 0.004 * (k + 1), "unit": "s"}
        p["change"]["metrics"]["probe_s"] = {"value": 0.008 * (k + 1), "unit": "s"}
    out = bp.summarize(pairs, bp.directions({"end_to_end": []}))
    assert "probe_s" not in out["metrics"]
    assert out["probe_s"] == {"parent_median": 0.022, "parent_q1": 0.013, "parent_q3": 0.031,
                              "parent_iqr": 0.018, "change_median": 0.044, "change_q1": 0.026,
                              "change_q3": 0.062, "change_iqr": 0.036}
