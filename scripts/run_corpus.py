#!/usr/bin/env python3
"""Run every shipped scenario and print its convergence report.

Pass --out-dir to also write per-axis trace and message CSV files.
"""

import argparse
from time import perf_counter

from rclab.engine import run
from rclab.scenario import corpus_names, corpus_path, load_scenario


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
            print(
                f"{tag:35s} {report.classification:17s} "
                f"residual={report.residual:.2e} "
                f"rounds={result.traces[axis].rounds}"
            )
        print(f"{name:35s} wall time {elapsed:.2f}s")


if __name__ == "__main__":
    main()
