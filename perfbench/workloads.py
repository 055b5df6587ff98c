"""Seeded inputs for the four benchmark workloads.

``generate(workload, seed, dest)`` writes every input file of one workload
into ``dest`` together with ``manifest.json``, which lists the operations a
pass runs and what each must produce. Only ``random.Random(seed)`` feeds the
generator, so one seed always gives byte-identical files.

Seed 0 reproduces the shipped corpus scenarios byte for byte and the claims
of ``scripts/verify_topologies.py`` exactly. Every seed (0 included) adds
schedules drawn from two families whose verdict is known by construction:

* layered circulants, which hold: the followers are ordered so that each has
  at least r + f direct in-neighbours among the leaders and the followers
  before it in one graph of the interval. For any S the first follower of S
  in that order keeps r of them after removing any f-local F, so the
  property holds for every l.
* planted traps, which fail: a follower set whose only in-edges from outside
  come from r - 1 boundary nodes, so with F empty every path into it passes
  through one of them, for every l.
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "src" / "rclab" / "corpus"
PINNED = Path(__file__).resolve().parent / "pinned.json"

WORKLOADS = ("sim-deep", "sim-shallow", "check-holds", "check-fails")

# Scenario families and the classification each axis must reach on every
# seed. The gate reads "stalled" as "not converged": a seeded run may end
# "budget-exhausted" instead.
SIM_DEEP = {
    "fig4b_3hop": ["converged"],
    "fig5_staircase": ["converged"],
}
SIM_SHALLOW = {
    "fig4a_1hop": ["stalled"],
    "fig7a_1hop_second_order": ["stalled", "stalled"],
    "fig7b_2hop_second_order": ["converged", "converged"],
    "fig8_aug_1hop_second_order": ["converged", "converged"],
    "formation_2hop_second_order": ["converged", "converged"],
    "secure_leader": ["converged"],
}

# Largest move of a seeded initial value or waveform centre (see _vary_scenario).
JITTER = 0.1

# The RobustnessQuery claims of scripts/verify_topologies.py:
# (name, topology file stem, r, l, f).
CLAIMS_HOLD = [
    ("net9", "net9", 2, 2, 1),
    ("net9_aug", "net9_aug", 2, 1, 1),
    ("net9_aug_union", "net9_aug_union", 2, 1, 1),
    ("net15", "net15", 3, 3, 2),
    ("net7_secure_reduced", "net7_secure_reduced", 2, 1, 1),
]
CLAIMS_FAIL = [
    ("net9", "net9", 2, 1, 1),
    ("net15", "net15", 3, 1, 2),
]

# Shapes of the generated schedules: (followers m, leaders, r, l, f, offset
# span d of the follower circulant). The seed draws labels and leader edges;
# the shape is fixed, and drawn nine times, so that the cost of a pass and
# its median operation (order statistics of nine independent draws, each
# cheaper than the net15 l=3 claim) barely move between seeds. One draw's
# cost still varies by about a tenth, and by a quarter at l = 2, so the
# generated schedules use l = 1; the corpus claims cover l = 2 and l = 3.
HOLD_SHAPES = [(11, 4, 2, 1, 1, 3)] * 9

# Trap shapes: (followers m, leaders, r, l, f, d, trap size t).
TRAP_SHAPES = [
    (18, 5, 3, 1, 2, 5, 8),
    (18, 4, 2, 2, 1, 3, 8),
    (15, 4, 2, 3, 1, 3, 6),
]


def _pinned(workload: str, seed: int) -> dict:
    data = json.loads(PINNED.read_text()) if PINNED.is_file() else {}
    return data.get(workload, {}).get(str(seed), {})


def _dump(path: Path, data: dict) -> None:
    path.write_text(yaml.safe_dump(data, sort_keys=False))


# ---------------------------------------------------------------------------
# Simulator workloads


def _vary_scenario(data: dict, rng: random.Random) -> dict:
    """Move every follower's initial position and every adversary waveform
    centre by up to +-JITTER from the shipped value. Redrawing them freely
    can undo a stall (fig7a converged on one of 40 draws from [1, 5]), and
    large moves change the number of rounds; small ones keep each family's
    dichotomy and the work of a pass within 1% between seeds, while every
    trace still changes."""
    for node, raw in (data.get("init") or {}).items():
        if isinstance(raw, list):
            data["init"][node] = [[_jitter(rng, ax[0]), *ax[1:]] for ax in raw]
        else:
            data["init"][node] = _jitter(rng, raw)
    for spec in data.get("adversaries") or []:
        emit = spec["emit"]
        for wf in [emit.get("default", emit)] + list(emit.get("groups", [])):
            wf["center"] = _jitter(rng, wf["center"])
    return data


def _jitter(rng: random.Random, value: float) -> float:
    return round(value + rng.uniform(-JITTER, JITTER), 3)


def _sim_ops(workload: str, seed: int, dest: Path) -> list[dict]:
    families = SIM_DEEP if workload == "sim-deep" else SIM_SHALLOW
    rng = random.Random(seed)
    pinned = _pinned(workload, seed)
    ops = []
    for name, classes in families.items():
        src = CORPUS / f"{name}.yaml"
        out = dest / f"{name}.yaml"
        if seed == 0:
            shutil.copyfile(src, out)
        else:
            _dump(out, _vary_scenario(yaml.safe_load(src.read_text()), rng))
        ops.append({
            "kind": "simulate",
            "name": name,
            "scenario": out.name,
            "out_dir": workload == "sim-shallow",
            "classification": classes,
            "pinned": pinned.get(name),
        })
    return ops


# ---------------------------------------------------------------------------
# Checker workloads


def _graph_spec(edges: set[tuple[int, int]]) -> dict:
    return {"edges": [list(e) for e in sorted(edges)]}


def _topology(n: int, leaders: list[int], graphs: list[set], intervals: list[int]) -> dict:
    names = [f"g{k}" for k in range(len(graphs))]
    return {
        "n": n,
        "leaders": sorted(leaders),
        "graphs": {nm: _graph_spec(g) for nm, g in zip(names, graphs)},
        "schedule": names,
        "intervals": intervals,
    }


def _layered_edges(order: list[int], leaders: list[int], rng: random.Random,
                   r: int, f: int, d: int) -> list[set]:
    m = len(order)
    ring = set()
    for j, v in enumerate(order):
        for o in range(1, d + 1):
            w = order[(j + o) % m]
            ring |= {(v, w), (w, v)}
    feed = set()
    for j, v in enumerate(order):
        for u in rng.sample(leaders, max(r + f - min(j, d), 0)):
            feed.add((u, v))
    return [ring, feed, ring | feed]


def layered_circulant(rng: random.Random, m: int, n_leaders: int, r: int, f: int, d: int):
    """A follower-circulant / leader / combined schedule that holds.

    Returns (n, leaders, [A, B, A | B]). A is the circulant over a random
    order of the followers with offsets 1..d in both directions. In A | B
    follower number j of the order has min(j - 1, d) in-neighbours before it
    and at least r + f - min(j - 1, d) leader in-neighbours.
    """
    if d < r + f or n_leaders < r + f:
        raise ValueError("shape cannot satisfy the layering condition")
    n = m + n_leaders
    labels = rng.sample(range(1, n + 1), n)
    leaders, order = labels[:n_leaders], labels[n_leaders:]
    return n, leaders, _layered_edges(order, leaders, rng, r, f, d)


def planted_trap(rng: random.Random, m: int, n_leaders: int, r: int, f: int,
                 d: int, t: int):
    """A layered circulant with a trap planted on t consecutive followers of
    the circulant, which carry the t highest follower labels (so the search
    meets the trap last among sets of its size). Every edge into the trap
    from outside it is removed unless it comes from one of r - 1 boundary
    nodes, each of which feeds the whole trap in the combined graph.

    Returns (n, leaders, trap, boundary, graphs).
    """
    n = m + n_leaders
    labels = rng.sample(range(1, n + 1), n)
    leaders = labels[:n_leaders]
    ranked = sorted(labels[n_leaders:])
    trap, rest = ranked[-t:], ranked[:-t]
    rng.shuffle(trap)
    rng.shuffle(rest)
    # The first r + f followers of the order carry the leader edges; keeping
    # them out of the trap keeps the leader graph nonempty after the cut.
    start = rng.randrange(r + f, m - t + 1)
    order = rest[:start] + trap + rest[start:]
    graphs = _layered_edges(order, leaders, rng, r, f, d)
    outside = [v for v in range(1, n + 1) if v not in trap]
    boundary = sorted(rng.sample(outside, r - 1))
    graphs[-1] |= {(b, i) for b in boundary for i in trap}
    keep = set(trap) | set(boundary)
    cut = [{(j, i) for (j, i) in g if i not in trap or j in keep} for g in graphs]
    return n, leaders, sorted(trap), boundary, cut


def _corpus_topology_files(dest: Path) -> None:
    """The claim topologies, including the two derived schedules of
    verify_topologies.py, written out as topology files."""
    for name in ("net9", "net9_aug", "net15"):
        shutil.copyfile(CORPUS / f"{name}.yaml", dest / f"{name}.yaml")
    net9a = yaml.safe_load((CORPUS / "net9_aug.yaml").read_text())
    union = set()
    for spec in net9a["graphs"].values():
        union |= {tuple(e) for e in spec.get("edges", [])}
        for a, b in spec.get("undirected_edges", []):
            union |= {(a, b), (b, a)}
    _dump(dest / "net9_aug_union.yaml",
          _topology(net9a["n"], net9a["leaders"], [union], [1]))
    # Secure-leader reduction of net7_secure: drop leader 1, relabel 2..7 to
    # 1..6; the virtual leaders 2, 3, 4 become 1, 2, 3.
    net7 = yaml.safe_load((CORPUS / "net7_secure.yaml").read_text())
    kept = [i for i in range(1, net7["n"] + 1) if i not in net7["leaders"]]
    relabel = {old: new for new, old in enumerate(kept, start=1)}
    reduced = {
        (relabel[j], relabel[i])
        for j, i in net7["graphs"]["main"]["edges"]
        if j in relabel and i in relabel
    }
    _dump(dest / "net7_secure_reduced.yaml",
          _topology(len(kept), [relabel[i] for i in (2, 3, 4)], [reduced], [1]))


def _check_ops(workload: str, seed: int, dest: Path) -> list[dict]:
    rng = random.Random(seed)
    _corpus_topology_files(dest)
    ops = []

    def add(name, topo, r, l, f, holds, **extra):
        ops.append({"kind": "check", "name": name, "topology": topo,
                    "r": r, "l": l, "f": f, "holds": holds, **extra})

    if workload == "check-holds":
        for name, topo, r, l, f in CLAIMS_HOLD:
            add(f"{name} r={r} l={l} f={f}", f"{topo}.yaml", r, l, f, True)
        for idx, (m, nl, r, l, f, d) in enumerate(HOLD_SHAPES):
            n, leaders, graphs = layered_circulant(rng, m, nl, r, f, d)
            fname = f"layered{idx}.yaml"
            _dump(dest / fname, _topology(n, leaders, graphs, [len(graphs)]))
            add(f"layered{idx} r={r} l={l} f={f}", fname, r, l, f, True)
    else:
        for name, topo, r, l, f in CLAIMS_FAIL:
            add(f"{name} r={r} l={l} f={f}", f"{topo}.yaml", r, l, f, False)
        for idx, (m, nl, r, l, f, d, t) in enumerate(TRAP_SHAPES):
            n, leaders, trap, boundary, graphs = planted_trap(rng, m, nl, r, f, d, t)
            fname = f"trap{idx}.yaml"
            _dump(dest / fname, _topology(n, leaders, graphs, [len(graphs)]))
            add(f"trap{idx} r={r} l={l} f={f}", fname, r, l, f, False,
                trap=trap, boundary=boundary)
    return ops


def generate(workload: str, seed: int, dest: Path) -> dict:
    """Write the inputs of one workload for one seed; return the manifest."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    if workload.startswith("sim-"):
        ops = _sim_ops(workload, seed, dest)
    else:
        ops = _check_ops(workload, seed, dest)
    manifest = {"workload": workload, "seed": seed, "ops": ops}
    (dest / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
    return manifest
