"""Regenerate ``pinned.json``: the scenario fingerprints, classifications
and trace digests of the simulator workloads for the pinned seeds, as the
current rclab produces them.

    PYTHONPATH=src python3 perfbench/pin.py

The gate compares every pass of a pinned seed against these values, so
rerun this only for a change that is meant to alter the traces.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import workloads  # noqa: E402
from rclab.engine import run  # noqa: E402
from rclab.scenario import load_scenario  # noqa: E402

PINNED_SEEDS = (0, 1, 2)


def main() -> None:
    data: dict = {}
    for workload in ("sim-deep", "sim-shallow"):
        for seed in PINNED_SEEDS:
            entry = data.setdefault(workload, {}).setdefault(str(seed), {})
            with tempfile.TemporaryDirectory(dir=HERE) as tmp:
                manifest = workloads.generate(workload, seed, Path(tmp))
                for op in manifest["ops"]:
                    scenario = load_scenario(Path(tmp) / op["scenario"])
                    result = run(scenario)
                    entry[op["name"]] = {
                        "fingerprint": scenario.fingerprint(),
                        "classification": [r.classification for r in result.reports],
                        "digests": [gate.trace_digest(t) for t in result.traces],
                    }
                    print(workload, seed, op["name"], entry[op["name"]]["classification"])
    workloads.PINNED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
