#!/usr/bin/env python3
"""Run every shipped scenario and print its convergence report.

Each scenario line carries its fingerprint and wall time; each axis line
carries a SHA-256 of every round's x (and v) values, so two checkouts give
bit-identical traces exactly when their printed lines match (wall times
aside). Pass --out-dir to also write per-axis trace and message CSV files.
"""

import argparse
import hashlib
from time import perf_counter

from rclab.engine import run
from rclab.scenario import corpus_names, corpus_path, load_scenario


def trace_digest(trace) -> str:
    """SHA-256 of the per-round x (and v) values of every node, as repr."""
    h = hashlib.sha256()
    for k in range(trace.rounds):
        row = trace.x[k]
        h.update(" ".join(repr(row[i]) for i in sorted(row)).encode())
        if trace.second_order:
            row = trace.v[k]
            h.update(b"|" + " ".join(repr(row[i]) for i in sorted(row)).encode())
        h.update(b"\n")
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default=None)
    ap.add_argument("names", nargs="*", help="scenario names (default: all)")
    args = ap.parse_args()

    names = args.names or [
        n for n in corpus_names() if not n.startswith("net")
    ]
    for name in names:
        scenario = load_scenario(corpus_path(name))
        t0 = perf_counter()
        result = run(scenario, args.out_dir)
        elapsed = perf_counter() - t0
        for axis, report in enumerate(result.reports):
            tag = f"{name}[{axis}]" if scenario.axes > 1 else name
            trace = result.traces[axis]
            print(
                f"{tag:35s} {report.classification:17s} "
                f"residual={report.residual:.2e} "
                f"rounds={trace.rounds} sha256={trace_digest(trace)}"
            )
        print(
            f"{name:35s} fingerprint={scenario.fingerprint()} "
            f"wall time {elapsed:.2f}s"
        )


if __name__ == "__main__":
    main()
