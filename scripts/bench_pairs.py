"""Benchmark a change against its parent in alternating pairs, into one JSON file.

    python3 scripts/bench_pairs.py --parent TREE --change TREE --out BENCH_N.json \\
        --pair sim-deep:0 --pair sim-deep:9 [--traced sim-deep:0] [--gate-seeds 0 1 2]

Each tree is a checkout with ``perfbench/``, ``src/`` and ``BENCHMARK.json``;
every run calls that tree's own ``perfbench/run.py`` from its root, for the
``run_seconds`` that the change's ``BENCHMARK.json`` sets. For each
``--pair WORKLOAD:SEED``, ten pairs run; pair i runs the parent first when i
is even and the change first when i is odd, so a drift of the machine's
speed falls on both sides alike. The output holds:

* ``runs``: every raw result line of ``perfbench/run.py``;
* ``summary``: per workload and seed, and per end-to-end metric, each side's
  median, quartiles (``statistics.quantiles(n=4, method='inclusive')``) and
  IQR, the change in per cent of the parent's median, the number of pairs the
  change wins (strictly better, in the direction BENCHMARK.json gives), and
  ``clear_gain``: it wins at least nine pairs in ten and its median is
  better by more than the parent's IQR. The end-to-end metrics are those of
  BENCHMARK.json and the raw wall times ``run_s``, ``op_s.p50`` and
  ``op_s.max`` (lower is better, no bound), which ``perfbench/run.py``
  prints but leaves out of its JSON line; each run's ``metrics`` gains them.
  They show when ``run_ref`` moves only because the probe it divides by did.
  So does ``probe_s``, the probe's own time, which gets each side's median,
  quartiles and IQR only: a slower probe is neither better nor worse;
* ``traced``: one ``--trace 1`` run per side for each ``--traced`` workload
  and seed, with the count of metrics reported as null;
* ``gate``: one 1-second run per side, workload (all four) and gate seed:
  whether every output passed, and the failed and attempted operations.

The file is rewritten after every run, so an interrupted call keeps what
it measured. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import quantiles

SIDES = ("parent", "change")
WORKLOADS = ("sim-deep", "sim-shallow", "check-holds", "check-fails")
PAIRS = 10
GATE_SECONDS = 1
RUN_TIMEOUT_S = 1800
# perfbench/run.py's wall-clock forms of run_ref and op_ref.*, read from the
# lines it prints.
WALL_CLOCK = ("run_s", "op_s.p50", "op_s.max")
# The median time of one probe around the operations, which run_ref divides by.
PROBE = "probe_s"


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The JSON result line of one ``perfbench/run.py`` call in ``tree``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        # Each tree imports rclab from its own src/, whatever the caller's path.
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    if proc.returncode != 0:
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "error": proc.stderr[-2000:]}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not trace:
        result["metrics"].update(wall_clock(proc.stdout))
    return result


def wall_clock(stdout: str) -> dict:
    """The ``WALL_CLOCK`` metrics and ``PROBE`` of ``perfbench/run.py``'s
    printed lines (``  NAME [(ALIAS)]  VALUE UNIT``), in the form of its JSON
    metrics."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if parts and parts[0] in (*WALL_CLOCK, PROBE):
            out[parts[0]] = {"value": float(parts[-2]), "unit": parts[-1]}
    return out


def directions(bench: dict) -> dict[str, str]:
    """Each summarized metric -> "lower" or "higher": BENCHMARK.json's
    end-to-end metrics, then the wall times."""
    return {**{m["name"]: m["better"] for m in bench["end_to_end"]},
            **dict.fromkeys(WALL_CLOCK, "lower")}


def pair_order(pair: int) -> tuple[str, str]:
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def _quartiles(values: list[float]) -> list[float]:
    return quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def _values(pairs: list[dict], name: str) -> list[tuple[float, float]]:
    """(parent, change) values of metric ``name``, over the pairs that have both."""
    both = [(p["parent"]["metrics"].get(name), p["change"]["metrics"].get(name))
            for p in pairs]
    return [(a["value"], b["value"]) for a, b in both
            if a and b and a["value"] is not None and b["value"] is not None]


def _levels(parent: list[float], change: list[float]) -> dict:
    """Each side's quartiles and IQR, to 6 decimals (a probe takes about 2 ms)."""
    pq1, pmed, pq3 = _quartiles(parent)
    cq1, cmed, cq3 = _quartiles(change)
    return {k: round(v, 6) for k, v in (
        ("parent_median", pmed), ("parent_q1", pq1), ("parent_q3", pq3),
        ("parent_iqr", pq3 - pq1), ("change_median", cmed), ("change_q1", cq1),
        ("change_q3", cq3), ("change_iqr", cq3 - cq1))}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per-metric statistics of ``pairs``, each ``{"parent": result,
    "change": result}``; ``better`` maps each metric to "lower" or "higher".
    ``PROBE``, if the runs report it, gets each side's levels only."""
    out = {
        "pairs": len(pairs),
        "all_correct": all(p[s]["correct"] for p in pairs for s in SIDES),
        "failed": {s: sum(p[s]["failed"] for p in pairs) for s in SIDES},
        "attempted": {s: sum(p[s]["attempted"] for p in pairs) for s in SIDES},
        "metrics": {},
    }
    for name, direction in better.items():
        both = _values(pairs, name)
        if not both:
            continue
        parent, change = zip(*both)
        sign = 1 if direction == "lower" else -1
        pq1, pmed, pq3 = _quartiles(list(parent))
        cmed = _quartiles(list(change))[1]
        wins = sum(sign * (b - a) < 0 for a, b in both)
        out["metrics"][name] = {
            **_levels(list(parent), list(change)),
            "change_pct": round(100 * (cmed - pmed) / pmed, 2) if pmed else None,
            "change_wins": wins,
            "better": direction,
            "clear_gain": 10 * wins >= 9 * len(both) and sign * (pmed - cmed) > pq3 - pq1,
        }
    probe = _values(pairs, PROBE)
    if probe:
        out[PROBE] = _levels(*map(list, zip(*probe)))
    return out


def _workload_seed(text: str) -> tuple[str, int]:
    workload, _, seed = text.partition(":")
    if workload not in WORKLOADS or not seed.isdigit():
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEED, got {text!r}")
    return workload, int(seed)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--pair", type=_workload_seed, action="append", default=[])
    ap.add_argument("--traced", type=_workload_seed, action="append", default=[])
    ap.add_argument("--gate-seeds", type=int, nargs="*", default=[])
    args = ap.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    better = directions(bench)
    seconds = bench["run_seconds"]
    doc = {
        "description": (
            f"Alternating parent/change pairs of `python3 perfbench/run.py --workload W "
            f"--seed S --seconds {seconds} --trace 0`, each side run from its own tree; "
            "pairs 0, 2, 4, ... run the parent first, pairs 1, 3, 5, ... the change first. "
            "Made by scripts/bench_pairs.py; its docstring defines every field."),
        "machine": f"{platform.platform()}, {os.cpu_count()} CPUs, "
                   f"{platform.python_implementation()} {platform.python_version()}",
        "summary": [], "traced": [], "gate": [], "runs": [],
    }

    def record(side, pair, workload, seed, seconds, trace):
        result = run_bench(trees[side], workload, seed, seconds, trace)
        doc["runs"].append({"side": side, "pair": pair, "workload": workload, "seed": seed,
                            "trace": trace, "seconds": seconds, "result": result})
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"{side:6s} {workload}:{seed} pair {pair} trace {trace} "
              f"correct {result['correct']}", file=sys.stderr, flush=True)
        return result

    for workload, seed in args.pair:
        pairs = []
        for i in range(PAIRS):
            pair = {}
            for side in pair_order(i):
                pair[side] = record(side, i, workload, seed, seconds, 0)
            pairs.append(pair)
        doc["summary"].append({"workload": workload, "seed": seed, **summarize(pairs, better)})
    for workload, seed in args.traced:
        for side in SIDES:
            res = record(side, None, workload, seed, seconds, 1)
            values = {k: m["value"] for k, m in res["metrics"].items()}
            doc["traced"].append({
                "side": side, "workload": workload, "seed": seed, "correct": res["correct"],
                "null_metrics": sum(v is None for v in values.values()), **values})
    for workload in WORKLOADS:
        for seed in args.gate_seeds:
            for side in SIDES:
                res = record(side, None, workload, seed, GATE_SECONDS, 0)
                doc["gate"].append({"side": side, "workload": workload, "seed": seed,
                                    "correct": res["correct"], "failed": res["failed"],
                                    "attempted": res["attempted"]})
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
