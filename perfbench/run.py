"""Benchmark of rclab's simulator and exact robustness checker.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; rclab is imported from ``src/``. Workloads
(see ``BENCHMARK.json`` for why each was chosen):

* ``sim-deep``     fig4b_3hop and fig5_staircase: net15, l=3, f=2.
* ``sim-shallow``  fig4a, fig7a, fig7b, fig8, formation and secure_leader,
                   writing trace and message CSVs as ``simulate --out-dir``.
* ``check-holds``  checker queries that hold (corpus claims and layered
                   circulants): the search walks every subset.
* ``check-fails``  checker queries that fail (corpus claims and planted
                   traps): the search exits early with a certificate.

Load is closed-loop from one process and one thread. The seed generates the
inputs (``workloads.py``); seed 0 is the shipped corpus. Each pass runs in a
fresh worker process (``worker.py``), which times set-up and the operations,
then checks every output (``gate.py``). Passes repeat until ``--seconds``
have gone by; at least one always runs. Set-up is also sampled by a
set-up-only worker before each pass, and by more after the last pass until
there are at least 12 samples.

End-to-end metrics (``--trace 0``), each the median over passes:

* ``setup_s``      import of rclab plus load, parse and validation of every
                   input (YAML, f-locality, fingerprint, RobustnessQuery).
* ``run_s``        wall time of all simulate or check calls of one pass.
* ``work_per_s``   rounds simulated per second (summed over axes) on sim-*;
                   verdicts per second on check-*.
* ``op_s.p50``, ``op_s.max``
                   median and largest time of one operation: one scenario on
                   sim-*; one query (verdict plus necessary conditions, as
                   the CLI prints both) on check-*. Each operation's time is
                   first reduced to its median over passes.
* ``peak_rss_mb``  peak resident memory of the worker after the run.

On a shared 2-vCPU 2.1 GHz Xeon VM the wall-clock speed drifts by 10-30%
over tens of seconds (a fixed pure-Python loop shows it too), more than any
run length averages out. So ``run_s``, ``work_per_s`` and ``op_s.*`` are
also reported in machine-independent form, which is what BENCHMARK.json
bounds: ``run_ref``, ``work_per_ref`` and ``op_ref.*`` divide each
operation's time by the mean time of a fixed pure-Python probe
(``worker.probe``) sampled every 50 ms during and around it (unit ``ref``:
one probe's time). This cancels most of the drift; both forms are printed.

``fail_ratio`` (failed over attempted operations) is printed and carried by
the ``attempted`` and ``failed`` fields; it is not a metric because it is 0.

``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics of ``tracer.py`` (medians over traced passes), the tracing overhead
and the unattributed remainder. Spans of the last traced pass are written to
``perfbench/_out/``.

The last line of standard output is the JSON result. The exit code is 0
when a result was printed, whether or not every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_SETUP_SAMPLES = 12
WORKER_TIMEOUT_S = 150

# The metrics BENCHMARK.json bounds, reported in the JSON line.
END_TO_END = {
    "setup_s": "s",
    "run_ref": "ref",
    "work_per_ref": "1/ref",
    "op_ref.p50": "ref",
    "op_ref.max": "ref",
    "peak_rss_mb": "MB",
}
# Their wall-clock forms, printed only.
WALL_CLOCK = {
    "run_s": "s",
    "work_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.max": "s",
    "probe_s": "s",
}
ALIASES = {
    "sim": {"work_per_s": "rounds_per_s", "op_s.p50": "scenario_s.p50",
            "op_s.max": "scenario_s.max", "work_per_ref": "rounds_per_ref"},
    "check": {"work_per_s": "verdicts_per_s", "op_s.p50": "verdict_s.p50",
              "op_s.max": "verdict_s.max", "work_per_ref": "verdicts_per_ref",
              "op_ref.p50": "verdict_ref.p50", "op_ref.max": "verdict_ref.max"},
}


class BenchError(RuntimeError):
    pass


def _worker(workdir: Path, *extra: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(workdir), *extra],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _ref(p: dict) -> list[float]:
    """Operation times of a pass in units of the probe time around them."""
    return [t / probe for t, probe in zip(p["op_s"], p["op_probe_s"])]


def _end_to_end(passes: list[dict], setups: list[float]) -> dict:
    """Gated metrics and their wall-clock forms, in print order."""
    wall = [p["op_s"] for p in passes]
    ref = [_ref(p) for p in passes]
    wall_ops = [median(times) for times in zip(*wall)]
    ref_ops = [median(times) for times in zip(*ref)]
    return {
        "setup_s": median(setups + [p["setup_s"] for p in passes]),
        "run_s": median([sum(ops) for ops in wall]),
        "run_ref": median([sum(ops) for ops in ref]),
        "work_per_s": median([p["work"] / sum(ops) for p, ops in zip(passes, wall)]),
        "work_per_ref": median([p["work"] / sum(ops) for p, ops in zip(passes, ref)]),
        "op_s.p50": median(wall_ops),
        "op_ref.p50": median(ref_ops),
        "op_s.max": max(wall_ops),
        "op_ref.max": max(ref_ops),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
        "probe_s": median([t for p in passes for t in p["op_probe_s"]]),
    }


def _per_layer(traced: list[dict], untraced_run_s: float) -> dict:
    out = {}
    for name in tracer.LAYER_METRICS:
        if name == "trace.overhead_s":
            continue
        values = [p["layers"].get(name) for p in traced]
        out[name] = None if any(v is None for v in values) else median(values)
    out["trace.overhead_s"] = out["trace.run_s"] - untraced_run_s
    return out


def _consistency(passes: list[dict], traced: list[dict]) -> list[str]:
    """Outputs must repeat exactly between passes, and so must the work
    counts of traced passes."""
    failures = []
    first = passes[0]["outputs"]
    for k, p in enumerate(passes[1:] + traced, start=1):
        for name, out in p["outputs"].items():
            if name in first and out != first[name]:
                failures.append(f"pass {k}: output of {name} differs from pass 0")
    for k, p in enumerate(traced[1:], start=1):
        for name in tracer.COUNT_METRICS:
            if p["layers"].get(name) != traced[0]["layers"].get(name):
                failures.append(f"traced pass {k}: count {name} differs from traced pass 0")
    return failures


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    workdir = HERE / "_work" / f"{workload}-{seed}-{os.getpid()}"
    try:
        manifest = workloads.generate(workload, seed, workdir)
        _worker(workdir, "--setup-only")  # warm-up: byte-compiles rclab
        setups, passes, traced = [], [], []
        start = perf_counter()
        while not passes or perf_counter() - start < seconds:
            setups.append(_worker(workdir, "--setup-only")["setup_s"])
            passes.append(_worker(workdir))
            if trace:
                spans = HERE / "_out" / f"{workload}-seed{seed}.spans"
                traced.append(_worker(workdir, "--trace", "1", "--spans", str(spans)))
        while len(setups) + len(passes) < MIN_SETUP_SAMPLES:
            setups.append(_worker(workdir, "--setup-only")["setup_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    consistency = _consistency(passes, traced)
    everything = passes + traced
    return {
        "workload": workload,
        "seed": seed,
        "ops": [op["name"] for op in manifest["ops"]],
        "passes": len(passes),
        "setup_samples": len(setups) + len(passes),
        "attempted": sum(p["attempted"] for p in everything) + len(consistency),
        "failed": sum(p["failed"] for p in everything) + len(consistency),
        "failures": [f for p in everything for f in p["failures"]] + consistency,
        "end_to_end": _end_to_end(passes, setups),
        "per_layer": _per_layer(traced, median([p["run_s"] for p in passes])) if trace else None,
    }


def _report(res: dict) -> None:
    kind = res["workload"].split("-")[0]
    print(f"workload {res['workload']}  seed {res['seed']}  passes {res['passes']}  "
          f"set-up samples {res['setup_samples']}  operations per pass {len(res['ops'])}")
    for name, value in res["end_to_end"].items():
        alias = ALIASES[kind].get(name)
        label = f"{name} ({alias})" if alias else name
        unit = END_TO_END.get(name) or WALL_CLOCK[name]
        print(f"  {label:36s} {value:14.6g} {unit}")
    print(f"  {'op_s.* sample count':36s} {len(res['ops']):14d} operations")
    print(f"  {'fail_ratio':36s} {res['failed'] / res['attempted']:14.6g} "
          f"({res['failed']}/{res['attempted']})")
    for line in res["failures"][:20]:
        print(f"  FAIL {line}")
    if res["per_layer"] is not None:
        print("  per-layer (traced passes)            value          unit   moves  on")
        for name, value in res["per_layer"].items():
            unit, moves, where = tracer.LAYER_METRICS[name]
            shown = "missing" if value is None else f"{value:.6g}"
            print(f"  {name:36s} {shown:>14s} {unit:6s} {moves:22s} {where}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "rclab" / "__init__.py").is_file():
        print(f"no rclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    _report(res)
    if args.trace:
        metrics = {k: {"value": v, "unit": tracer.LAYER_METRICS[k][0]}
                   for k, v in res["per_layer"].items()}
    else:
        metrics = {k: {"value": res["end_to_end"][k], "unit": unit}
                   for k, unit in END_TO_END.items()}
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
