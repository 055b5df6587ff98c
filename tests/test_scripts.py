"""The scripts under ``scripts/`` run against this checkout and say what they
should.

Each runs in a fresh interpreter with this checkout's ``src`` on the path.
"""

import os
import subprocess
import sys
from pathlib import Path

import yaml

from rclab.scenario import corpus_names, corpus_path, load_scenario

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_verify_topologies():
    assert "all claims verified" in run_script("verify_topologies.py")


def test_necessity_replay_pins_s():
    out = run_script("necessity_replay.py", "--topology", "net15", "--r", "3", "--l", "1", "--f", "2")
    assert "S pinned at 0.0: True" in out


def test_run_corpus_prints_every_scenario():
    rows = run_script("run_corpus.py").splitlines()
    scenarios = [n for n in corpus_names()
                 if "algorithm" in yaml.safe_load(corpus_path(n).read_text())]
    assert scenarios
    for name in scenarios:
        fingerprint = load_scenario(corpus_path(name)).fingerprint()
        assert any(row.split()[:2] == [name, f"fingerprint={fingerprint}"] for row in rows), name
