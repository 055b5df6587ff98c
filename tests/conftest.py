import importlib.util
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from rclab.graphs import DiGraph
from rclab.scenario import corpus_path, load_scenario, load_topology

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")


WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    """The benchmark's input generator, loaded by file path and only read."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_digraph(rng: random.Random, n: int, p: float = 0.4) -> DiGraph:
    edges = [
        (j, i)
        for j in range(1, n + 1)
        for i in range(1, n + 1)
        if j != i and rng.random() < p
    ]
    return DiGraph.from_edges(n, edges)


@pytest.fixture(scope="session")
def net9():
    return load_topology(corpus_path("net9"))


@pytest.fixture(scope="session")
def net9_aug():
    return load_topology(corpus_path("net9_aug"))


@pytest.fixture(scope="session")
def net15():
    return load_topology(corpus_path("net15"))


@pytest.fixture(scope="session")
def net7_secure():
    return load_topology(corpus_path("net7_secure"))


def scenario(name):
    return load_scenario(corpus_path(name))
