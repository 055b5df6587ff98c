import importlib.util
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from rclab.graphs import DiGraph
from rclab.messaging import MessageError, _hit_prefix
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


def reference_trim(ms, own, f):
    """The trim per path, the reference for ``mw_msr_trim``: each side of
    own, sorted most extreme value first (stable), loses its longest prefix
    that at most f nodes hit; a side of at most f messages goes whole. The
    retained messages are the given objects in the given order, and ``ms``
    itself if none is removed."""
    removed = set()
    for upper in (True, False):
        side = [m for m in ms if (m.value > own if upper else m.value < own)]
        if len(side) > f:
            side.sort(key=lambda m: m.value, reverse=upper)
            side = side[:_hit_prefix([m.path.mask for m in side], f)[0]]
        removed.update(map(id, side))
    if not removed:
        return ms
    return tuple(m for m in ms if id(m) not in removed)


def mmc_brute_force_oracle(ms) -> int:
    """Exhaustive minimum-cover cardinality; refuses > 20 candidate nodes."""
    if not ms:
        raise MessageError("mmc_brute_force_oracle requires a nonempty message set")
    cand_sets = [set(m.path.nodes[:-1]) for m in ms]
    universe = sorted(set().union(*cand_sets))
    if len(universe) > 20:
        raise MessageError(f"oracle size cap exceeded: {len(universe)} candidates > 20")
    for size in range(1, len(universe) + 1):
        for combo in itertools.combinations(universe, size):
            chosen = set(combo)
            if all(c & chosen for c in cand_sets):
                return size
    raise AssertionError("unreachable: the full universe is always a cover")


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
