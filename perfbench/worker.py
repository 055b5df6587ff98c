"""One pass of a workload, in a fresh process.

    python3 perfbench/worker.py WORKDIR [--setup-only] [--trace 0|1] [--spans FILE]

WORKDIR holds the inputs and ``manifest.json`` written by ``workloads.py``.
The pass imports rclab, loads and validates every input (set-up), runs every
operation (timed, one after the other), then checks every output. It prints
one JSON object. A fresh process per pass keeps every in-process cache of
rclab cold, as it is for one CLI call.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
PROBE_ITERATIONS = 3000
SAMPLE_INTERVAL_S = 0.05
PROBE_MARGIN_S = 0.15


def _setup(op: dict, workdir: Path, scenario_mod, robustness_mod):
    path = workdir / (op["scenario"] if op["kind"] == "simulate" else op["topology"])
    if op["kind"] == "simulate":
        sc = scenario_mod.load_scenario(path)
        sc.validate()
        sc.fingerprint()
        return sc
    schedule, leaders = scenario_mod.load_topology(path)
    return robustness_mod.RobustnessQuery(schedule, leaders, op["r"], op["l"], op["f"])


def probe() -> float:
    """Time of a fixed piece of pure-Python work (tuples, dict and frozenset
    operations, like rclab's hot loops), about 2 ms on a 2.1 GHz Xeon."""
    t0 = perf_counter()
    seen: dict = {}
    acc = 0
    for i in range(PROBE_ITERATIONS):
        key = (i % 97, i % 89)
        seen[key] = seen.get(key, 0) + 1
        acc += len(frozenset((i & 7, i & 11, i & 13)))
    return perf_counter() - t0


class SpeedSampler:
    """Times ``probe`` every SAMPLE_INTERVAL_S of wall time, from a SIGALRM
    handler, while the operations run. run.py divides each operation's time
    by the mean probe time around it, which cancels the drift of machine
    speed (the mean, not the median, because an operation's time integrates
    slow stretches too); the handler's own time is subtracted from the
    operation."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.samples.append((t0, probe()))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self._tick(None, None)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(None, None)

    def during(self, start: float, end: float, margin: float = 0.0) -> list[float]:
        return [d for t, d in self.samples if start - margin <= t < end + margin]


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("workdir", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args()

    t0 = perf_counter()
    import rclab
    from rclab import engine, robustness, scenario
    import_s = perf_counter() - t0
    if Path(rclab.__file__).resolve().parent != ROOT / "src" / "rclab":
        print(f"rclab imported from {rclab.__file__}, not from this checkout", file=sys.stderr)
        return 2

    import gate

    workdir = args.workdir
    ops = json.loads((workdir / "manifest.json").read_text())["ops"]
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    t0 = perf_counter()
    inputs = [_setup(op, workdir, scenario, robustness) for op in ops]
    setup_s = import_s + perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    out_root = workdir / f"out-{args.trace}"
    results, op_s, op_probe_s, errors = [], [], [], {}
    sampler = SpeedSampler() if tracer is None else None
    run_start = perf_counter()
    with sampler or contextlib.nullcontext():
        for op, inp in zip(ops, inputs):
            t0 = perf_counter()
            try:
                if op["kind"] == "simulate":
                    out_dir = out_root / op["name"] if op["out_dir"] else None
                    results.append(engine.run(inp, out_dir))
                else:
                    verdict = robustness.is_jointly_robust_following(inp)
                    results.append((verdict, robustness.necessary_conditions(inp)))
            except Exception:  # a failing operation is counted, the pass goes on
                errors[op["name"]] = traceback.format_exc(limit=3)
                results.append(None)
            t1 = perf_counter()
            inside = sampler.during(t0, t1) if sampler else []
            op_s.append(t1 - t0 - sum(inside))
            if sampler:
                around = sampler.during(t0, t1, PROBE_MARGIN_S) or [d for _, d in sampler.samples]
                op_probe_s.append(statistics.fmean(around))
    run_s = sum(op_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers = None
    if tracer is not None:
        tracer.uninstall()
        trace_bytes = _dir_bytes(out_root) if out_root.exists() else 0
        layers = tracer.metrics(run_start, run_s, trace_bytes)
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            tracer.write(args.spans)
    shutil.rmtree(out_root, ignore_errors=True)

    failures, outputs, work = [], {}, 0
    for op, inp, res in zip(ops, inputs, results):
        if res is None:
            failures.append(f"{op['name']}: raised\n{errors[op['name']]}")
            continue
        if op["kind"] == "simulate":
            digests = [gate.trace_digest(t) for t in res.traces]
            outputs[op["name"]] = digests
            work += sum(t.rounds for t in res.traces)
            errs = gate.check_simulation(op, res, digests)
        else:
            verdict, conditions = res
            cert = verdict.certificate
            outputs[op["name"]] = [verdict.holds] + (
                [sorted(cert.F), sorted(cert.S), cert.interval_index] if cert else []
            )
            work += 1
            errs = gate.check_query(op, inp, verdict, conditions)
        failures += errs
        if errs:
            errors[op["name"]] = errs
    print(json.dumps({
        "setup_s": setup_s,
        "run_s": run_s,
        "op_s": op_s,
        "op_probe_s": op_probe_s,
        "work": work,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": len(errors),
        "failures": failures,
        "outputs": outputs,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
