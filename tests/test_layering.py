"""The checker and the simulator load only the modules they run.

Each case imports in a fresh interpreter, with this checkout's ``src`` on
the path, and lists the modules it loaded: a package facade or a stray
import between the layers would load the others as well.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SIMULATOR = {"rclab.scenario", "rclab.engine", "rclab.messaging", "rclab.agents", "yaml"}

CHECK_ROBUSTNESS = """
from rclab.cli import main
try:
    main(["check-robustness", "--topology", "net9", "--r", "2", "--l", "2", "--f", "1"])
except SystemExit as e:
    assert e.code == 0, e.code
"""


def loaded_modules(code: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    return set(json.loads(out.splitlines()[-1]))


@pytest.mark.parametrize(
    "code, absent",
    [
        ("import rclab.robustness", SIMULATOR | {"rclab.adversary", "rclab.cli", "click"}),
        ("import rclab.engine", {"rclab.robustness"}),
        (CHECK_ROBUSTNESS, {"rclab.engine", "rclab.agents", "rclab.messaging"}),
        ("import rclab.scenario",
         {"rclab.agents", "rclab.messaging", "rclab.engine", "rclab.robustness"}),
    ],
    ids=["checker", "simulator", "check-robustness", "scenario"],
)
def test_layer_loads_no_other(code, absent):
    assert loaded_modules(code) & absent == set()

