"""Tests of the benchmark itself: seeded inputs, the output gate and the
tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run as bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from rclab.engine import run as simulate  # noqa: E402
from rclab.robustness import (  # noqa: E402
    Certificate,
    RobustnessQuery,
    RobustnessVerdict,
    is_jointly_robust_following,
    jointly_reachable,
    necessary_conditions,
)
from rclab.scenario import corpus_path, load_scenario, load_topology  # noqa: E402


def _files(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def _op(manifest: dict, prefix: str) -> dict:
    return next(op for op in manifest["ops"] if op["name"].startswith(prefix))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    a = workloads.generate(workload, 7, tmp_path / "a")
    b = workloads.generate(workload, 7, tmp_path / "b")
    workloads.generate(workload, 8, tmp_path / "c")
    assert a == b
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


@pytest.mark.parametrize("workload", ["sim-deep", "sim-shallow"])
def test_seed0_fingerprints_equal_corpus(tmp_path, workload):
    manifest = workloads.generate(workload, 0, tmp_path)
    for op in manifest["ops"]:
        want = load_scenario(corpus_path(op["name"])).fingerprint()
        assert load_scenario(tmp_path / op["scenario"]).fingerprint() == want
        assert op["pinned"]["fingerprint"] == want


def test_seed0_claim_topologies_equal_corpus(tmp_path):
    workloads.generate("check-holds", 0, tmp_path)
    for name in ("net9", "net9_aug", "net15"):
        assert load_topology(tmp_path / f"{name}.yaml") == load_topology(corpus_path(name))


@pytest.mark.parametrize("seed", range(0, 40, 4))
def test_planted_traps_violate_by_construction(tmp_path, seed):
    """Independent of the exhaustive search: no trap node is jointly
    r-reachable with F empty, and every generated file loads."""
    manifest = workloads.generate("check-fails", seed, tmp_path)
    traps = [op for op in manifest["ops"] if op.get("trap")]
    assert traps
    for op in traps:
        schedule, _ = load_topology(tmp_path / op["topology"])
        assert not set(op["trap"]) & set(op["boundary"])
        for interval in schedule.intervals():
            for i in op["trap"]:
                assert not jointly_reachable(
                    schedule, interval, frozenset(op["trap"]), i, op["r"], op["l"]
                )[0]


@pytest.mark.parametrize("seed", range(0, 40, 4))
def test_layered_circulants_peel_completely(tmp_path, seed):
    """The sufficient condition behind "holds": followers can be ordered so
    that each has r + f in-neighbours among leaders and earlier followers."""
    manifest = workloads.generate("check-holds", seed, tmp_path)
    for op in manifest["ops"]:
        if not op["name"].startswith("layered"):
            continue
        schedule, leaders = load_topology(tmp_path / op["topology"])
        g = schedule.graphs[-1]
        done = set(leaders)
        rest = set(g.nodes) - done
        while rest:
            ready = [i for i in rest if len(g.in_neighbors(i) & done) >= op["r"] + op["f"]]
            assert ready, f"{op['name']}: peeling stuck at {sorted(rest)}"
            done |= set(ready)
            rest -= set(ready)


# -- the gate can fail -------------------------------------------------------


def test_perturbed_digest_fails(tmp_path):
    manifest = workloads.generate("sim-shallow", 0, tmp_path)
    op = _op(manifest, "secure_leader")
    result = simulate(load_scenario(tmp_path / op["scenario"]))
    digests = [gate.trace_digest(t) for t in result.traces]
    assert gate.check_simulation(op, result, digests) == []
    bad = [digests[0][:-1] + ("0" if digests[0][-1] != "0" else "1")]
    assert gate.check_simulation(op, result, bad)


def test_wrong_classification_fails(tmp_path):
    manifest = workloads.generate("sim-shallow", 0, tmp_path)
    op = dict(_op(manifest, "secure_leader"), classification=["stalled"], pinned=None)
    result = simulate(load_scenario(tmp_path / op["scenario"]))
    assert gate.check_simulation(op, result, [])


def _net9_failing(tmp_path):
    manifest = workloads.generate("check-fails", 0, tmp_path)
    op = _op(manifest, "net9 ")
    schedule, leaders = load_topology(tmp_path / op["topology"])
    q = RobustnessQuery(schedule, leaders, op["r"], op["l"], op["f"])
    return op, q, is_jointly_robust_following(q), necessary_conditions(q)


def test_certificate_with_reachable_node_fails(tmp_path):
    op, q, verdict, conds = _net9_failing(tmp_path)
    assert gate.check_query(op, q, verdict, conds) == []
    cert = verdict.certificate
    interval = q.schedule.intervals()[cert.interval_index]
    candidates = sorted(set(range(1, q.schedule.n + 1)) - q.leaders - cert.F - cert.S)
    reachable = [
        j for j in candidates
        if jointly_reachable(q.schedule, interval, cert.S | {j}, j, q.r, q.l, forbidden=cert.F)[0]
    ]
    assert reachable
    grown = Certificate(cert.F, cert.S | {reachable[0]}, cert.interval_index)
    assert gate.check_query(op, q, RobustnessVerdict(False, grown), conds)


def test_non_local_certificate_fails(tmp_path):
    op, q, verdict, conds = _net9_failing(tmp_path)
    cert = verdict.certificate
    everyone_else = frozenset(range(1, q.schedule.n + 1)) - cert.S
    bad = Certificate(everyone_else, cert.S, cert.interval_index)
    assert gate.check_query(op, q, RobustnessVerdict(False, bad), conds)


def test_flipped_verdict_fails(tmp_path):
    op, q, verdict, conds = _net9_failing(tmp_path)
    assert gate.check_query(op, q, RobustnessVerdict(True), conds)
    assert gate.check_query(dict(op, holds=True), q, verdict, conds)


def test_holds_on_trap_or_failed_condition_fails(tmp_path):
    manifest = workloads.generate("check-fails", 0, tmp_path)
    trap = dict(_op(manifest, "trap0"), holds=True)
    schedule, leaders = load_topology(tmp_path / trap["topology"])
    q = RobustnessQuery(schedule, leaders, trap["r"], trap["l"], trap["f"])
    passing = [("leader-count", True)]
    assert gate.check_query(trap, q, RobustnessVerdict(True), passing)
    holds = dict(trap, trap=None)
    assert gate.check_query(holds, q, RobustnessVerdict(True), passing) == []
    assert gate.check_query(holds, q, RobustnessVerdict(True), [("leader-count", False)])


# -- tracer -----------------------------------------------------------------


def test_tracer_counts_and_restores(tmp_path):
    _, q, _, _ = _net9_failing(tmp_path)
    import rclab.robustness as rob

    original = rob._max_disjoint_paths
    tr = tracer.Tracer()
    tr.install()
    try:
        rob.is_jointly_robust_following(q)
    finally:
        tr.uninstall()
    assert rob._max_disjoint_paths is original
    m = tr.metrics(0.0, 1.0, 0)
    assert m["robustness.f_sets"] > 0
    assert m["robustness.interval_checks"] > 0
    assert m["messaging.cover.calls"] == 0


def test_missing_name_is_reported_missing_not_zero(tmp_path):
    tr = tracer.Tracer(targets=[
        ("robustness.disjoint_search", "rclab.robustness", "_no_such_function", "fn"),
    ])
    tr.install()
    tr.uninstall()
    m = tr.metrics(0.0, 1.0, 0)
    assert m["robustness.disjoint_search.calls"] is None
    assert m["robustness.disjoint_search.hit_ratio"] is None


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (unit, _, _) in tracer.LAYER_METRICS.items()
    }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_outputs_that_differ_between_passes_fail():
    one = {"outputs": {"fig4b_3hop": ["a"]}, "layers": None}
    other = {"outputs": {"fig4b_3hop": ["b"]}, "layers": None}
    assert bench._consistency([one, dict(one)], []) == []
    assert bench._consistency([one, other], [])
