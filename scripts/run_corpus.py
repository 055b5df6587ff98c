#!/usr/bin/env python3
"""Run every shipped scenario and print its convergence report.

Each scenario line carries its fingerprint and wall time. Each axis line
carries a SHA-256 per per-round trace series: x (and v), V, V_hat, residual
and retained_mean, every value as repr. Two checkouts give
bit-identical traces exactly when their printed lines match (wall times
aside). Pass --out-dir to also write per-axis trace and message CSV files;
each axis line then also carries the SHA-256 of both files.
"""

import argparse
import hashlib
from pathlib import Path
from time import perf_counter

from rclab.engine import run
from rclab.scenario import corpus_names, corpus_path, load_scenario


def _row(values) -> str:
    if isinstance(values, dict):
        return " ".join(repr(values[i]) for i in sorted(values))
    return repr(values)


def series_digest(*series) -> str:
    """SHA-256 of per-round series taken round by round: one line per round,
    the series joined by '|', a {node: value} map as its values in node
    order, every value as repr."""
    h = hashlib.sha256()
    for rows in zip(*series):
        h.update(("|".join(_row(r) for r in rows) + "\n").encode())
    return h.hexdigest()


def trace_digests(trace) -> dict[str, str]:
    xv = (trace.x, trace.v) if trace.second_order else (trace.x,)
    return {
        "x/v": series_digest(*xv),
        "V": series_digest(trace.V),
        "V_hat": series_digest(trace.V_hat),
        "residual": series_digest(trace.residual),
        "retained_mean": series_digest(trace.retained_mean),
    }


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
            digests = trace_digests(trace)
            if args.out_dir is not None:
                for kind in ("trace", "messages"):
                    csv_path = Path(args.out_dir) / f"{scenario.name}_axis{axis}_{kind}.csv"
                    digests[f"{kind}.csv"] = hashlib.sha256(csv_path.read_bytes()).hexdigest()
            digests = " ".join(f"{key}={d[:16]}" for key, d in digests.items())
            print(
                f"{tag:35s} {report.classification:17s} "
                f"residual={report.residual:.2e} rounds={trace.rounds} {digests}"
            )
        print(
            f"{name:35s} fingerprint={scenario.fingerprint()} "
            f"wall time {elapsed:.2f}s"
        )


if __name__ == "__main__":
    main()
