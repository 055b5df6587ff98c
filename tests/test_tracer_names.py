"""The benchmark tracer finds every rclab name it wraps.

``perfbench/tracer.py`` patches functions at the names their callers look
them up by. An import renamed or aliased there would turn the benchmark's
per-layer metrics null while every other test still passes. So this test
runs one simulation with CSV output, one short multi-hop simulation and one
checker query under the tracer, and requires every metric.
"""

import dataclasses
import importlib.util
from pathlib import Path
from time import perf_counter

from rclab import engine, robustness, scenario

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_and_every_metric_is_reported(tmp_path):
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        run_start = perf_counter()
        secure = scenario.load_scenario(scenario.corpus_path("secure_leader"))
        engine.run(secure, tmp_path)
        deep = scenario.load_scenario(scenario.corpus_path("fig4b_3hop"))
        engine.run(dataclasses.replace(deep, max_rounds=20))
        schedule, leaders = scenario.load_topology(scenario.corpus_path("net9"))
        query = robustness.RobustnessQuery(schedule, leaders, 2, 1, 1)
        robustness.is_jointly_robust_following(query)
        robustness.necessary_conditions(query)
        run_s = perf_counter() - run_start
    finally:
        tracer.uninstall()
    trace_bytes = sum(p.stat().st_size for p in tmp_path.iterdir())
    metrics = tracer.metrics(run_start, run_s, trace_bytes)
    assert tracer.missing == set()
    assert [name for name, value in metrics.items() if value is None] == []
    for counted in ("messaging.relay.calls", "agents.trim.calls", "robustness.interval_checks"):
        assert metrics[counted] > 0, counted
