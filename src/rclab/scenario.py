"""Scenario and topology files: parsing, cross-validation, canonical
serialization, and access to the shipped corpus.

Topology files describe a named set of graphs, a cyclic schedule over them,
and the leader set. Scenario files bind a topology to an algorithm, its
parameters, initial states, and attack scripts.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path as FsPath

import yaml

from .adversary import AttackScript, Waveform, validate_f_local
from .graphs import DiGraph, GraphError, TopologySchedule, direct_leader_followers


class ScenarioError(ValueError):
    """Invalid topology or scenario file."""


ALGORITHMS = ("mw-msr", "mdp-msr", "mw-msr-secure")

# What a malformed value raises while it is converted or walked.
_PARSE_ERRORS = (KeyError, TypeError, AttributeError, ValueError, OverflowError)


@contextmanager
def _field(name: str):
    """Re-raise a malformed value's error as a ScenarioError naming the field."""
    try:
        yield
    except ScenarioError:
        raise
    except _PARSE_ERRORS as e:
        detail = f"missing key {e}" if isinstance(e, KeyError) else str(e)
        raise ScenarioError(f"malformed {name!r}: {detail}") from e


def _scalar(data: dict, key: str, conv, default=None):
    """``conv(data[key])``, or ``default`` when the key is absent."""
    if key not in data:
        return default
    with _field(key):
        return conv(data[key])


def _int(value) -> int:
    """``value`` if it is an int; a float or a bool is refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _float(value) -> float:
    """``float(value)`` if it is an int or a float; a bool or a string is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _pair(value) -> list:
    """``value`` if it is a two-item list; a mapping is not unpacked into its keys."""
    if not isinstance(value, list) or len(value) != 2:
        raise TypeError(f"expected a pair [a, b], got {value!r}")
    return value


def _list(value) -> list:
    """``value`` if it is a list; a string or a mapping is not iterated as one."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {value!r}")
    return value


def _require(data, what: str, keys: tuple[str, ...], optional: tuple[str, ...] = ()) -> None:
    """``data`` is a mapping with every key of ``keys`` and no other but ``optional``."""
    if not isinstance(data, dict):
        raise ScenarioError(f"{what} must be a mapping")
    for key in keys:
        if key not in data:
            raise ScenarioError(f"{what} missing required field {key!r}")
    unknown = sorted(set(data) - set(keys) - set(optional), key=str)
    if unknown:
        raise ScenarioError(f"{what} has unknown field(s) {', '.join(map(repr, unknown))}")


def _exponent_loader(base: type) -> type:
    """``base`` with one more implicit float: YAML 1.1 needs a dot in a float
    and a sign in its exponent, so without it ``1e-6`` and ``1.5e3`` would be
    read as strings."""

    class Loader(base):
        pass

    Loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?([0-9]+\.?[0-9]*|\.[0-9]+)[eE][-+]?[0-9]+$"),
        list("-+.0123456789"),
    )
    return Loader


# libyaml's parser when PyYAML is built with it. Both loaders build the data
# with the same Python constructor and resolver, so they give the same values.
_LOADER = _exponent_loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader))


def _load_mapping(path: FsPath | str, what: str) -> dict:
    # Bytes, so that YAML's reader decodes them (UTF-8, or UTF-16 with a BOM)
    # and reports invalid ones as malformed YAML.
    with open(path, "rb") as fh:
        try:
            data = yaml.load(fh, Loader=_LOADER)
        except yaml.YAMLError as e:
            raise ScenarioError(f"{path}: malformed YAML: {e}") from e
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: {what} file must be a mapping")
    return data


# ---------------------------------------------------------------------------
# Topology files


def _parse_graph(n: int, name: str, spec: dict) -> DiGraph:
    _require(spec, f"graph {name!r}", (), ("edges", "undirected_edges"))
    edges: list[tuple[int, int]] = []
    with _field(f"graphs.{name}.edges"):
        for j, i in map(_pair, _list(spec.get("edges", []))):
            edges.append((_int(j), _int(i)))
    with _field(f"graphs.{name}.undirected_edges"):
        for a, b in map(_pair, _list(spec.get("undirected_edges", []))):
            edges += [(_int(a), _int(b)), (_int(b), _int(a))]
    if not edges:
        raise ScenarioError(f"graph {name!r} has no edges")
    try:
        return DiGraph.from_edges(n, edges)
    except GraphError as e:
        raise ScenarioError(f"graph {name!r}: {e}") from e


def parse_topology(data: dict) -> tuple[TopologySchedule, frozenset[int]]:
    _require(data, "topology", ("n", "leaders", "graphs", "schedule", "intervals"))
    n = _scalar(data, "n", _int)
    with _field("leaders"):
        leaders = frozenset(_int(d) for d in _list(data["leaders"]))
    with _field("graphs"):
        graphs = {
            name: _parse_graph(n, name, spec) for name, spec in data["graphs"].items()
        }
    with _field("schedule"):
        try:
            ordered = tuple(graphs[name] for name in _list(data["schedule"]))
        except KeyError as e:
            raise ScenarioError(f"schedule references unknown graph {e.args[0]!r}") from e
    with _field("intervals"):
        intervals = tuple(_int(x) for x in _list(data["intervals"]))
    try:
        schedule = TopologySchedule(ordered, intervals)
    except GraphError as e:
        raise ScenarioError(str(e)) from e
    if any(d < 1 or d > n for d in leaders):
        raise ScenarioError(f"leader ids outside 1..{n}: {sorted(leaders)}")
    return schedule, leaders


def load_topology(path: FsPath | str) -> tuple[TopologySchedule, frozenset[int]]:
    return parse_topology(_load_mapping(path, "topology"))


# ---------------------------------------------------------------------------
# Corpus access


def corpus_names() -> list[str]:
    root = resources.files("rclab") / "corpus"
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".yaml"))


def corpus_path(name: str) -> FsPath:
    p = resources.files("rclab") / "corpus" / f"{name}.yaml"
    if not p.is_file():
        raise ScenarioError(
            f"unknown corpus entry {name!r}; available: {', '.join(corpus_names())}"
        )
    return FsPath(str(p))


def resolve_file(ref: str, base: FsPath | None = None) -> FsPath:
    """A file path or corpus name. With ``base``, the directory of the
    referring file, a path relative to it comes before one relative to the
    working directory."""
    if base is not None and (base / ref).is_file():
        return base / ref
    if FsPath(ref).is_file():
        return FsPath(ref)
    return corpus_path(ref.removesuffix(".yaml"))


# ---------------------------------------------------------------------------
# Scenario files


@dataclass(frozen=True)
class ReferenceFunction:
    """Piecewise-constant (staircase) reference: list of (start_round, value)."""

    pieces: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if not self.pieces:
            raise ScenarioError("reference needs at least one piece")
        if self.pieces[0][0] != 0:
            raise ScenarioError("first reference piece must start at round 0")
        starts = [s for s, _ in self.pieces]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ScenarioError(f"reference piece starts must strictly increase: {starts}")
        if any(not math.isfinite(v) for _, v in self.pieces):
            raise ScenarioError("reference values must be finite")

    @staticmethod
    def constant(value: float) -> "ReferenceFunction":
        return ReferenceFunction(((0, float(value)),))

    def value_at(self, k: int) -> float:
        if k < 0:
            raise ScenarioError(f"round index must be >= 0, got {k}")
        out = self.pieces[0][1]
        for start, value in self.pieces:
            if start <= k:
                out = value
        return out

    def segments(self, horizon: int) -> list[tuple[range, float]]:
        """Constant segments within [0, horizon)."""
        out = []
        for idx, (start, value) in enumerate(self.pieces):
            end = self.pieces[idx + 1][0] if idx + 1 < len(self.pieces) else horizon
            if start < horizon:
                out.append((range(start, min(end, horizon)), value))
        return out


@dataclass(frozen=True)
class ControlParams:
    """Second-order gains; the sampling/damping pair must satisfy the
    stability window 1 + T^2/2 <= beta*T <= 2 - T^2/2."""

    T: float
    beta: float

    def __post_init__(self):
        # Above 1 the window is empty; checked first, so a huge T is not squared.
        if not 0 < self.T <= 1:
            raise ScenarioError(f"sampling period T must be in (0, 1], got {self.T}")
        lo, hi = 1 + self.T**2 / 2, 2 - self.T**2 / 2
        bt = self.beta * self.T
        if not (lo <= bt <= hi):
            raise ScenarioError(
                f"beta*T = {bt:.6g} outside stability window [{lo:.6g}, {hi:.6g}]"
            )


def _parse_waveform(spec: dict, what: str, extra: tuple[str, ...] = ()) -> Waveform:
    """A waveform mapping; ``extra`` names the other keys it may hold."""
    _require(spec, f"{what} waveform", ("center",), ("amplitude", "period", "waveform") + extra)
    return Waveform(
        center=_float(spec["center"]),
        amplitude=_float(spec.get("amplitude", Waveform.amplitude)),
        period=_int(spec.get("period", Waveform.period)),
        kind=str(spec.get("waveform", Waveform.kind)),
    )


def _parse_script(node: int, spec: dict) -> AttackScript:
    what = f"adversary {node}"
    _require(spec, what, ("emit",), ("node", "model", "relay"))
    emit = spec["emit"]
    if isinstance(emit, dict) and "default" in emit:  # else emit is the default waveform
        _require(emit, f"{what} emit", ("default",), ("groups",))
        default = _parse_waveform(emit["default"], what)
    else:
        default = _parse_waveform(emit, what, ("groups",))
    groups = tuple(
        (
            frozenset(_int(r) for r in _list(grp["receivers"])),
            _parse_waveform(grp, f"{what} group", ("receivers",)),
        )
        for grp in _list(emit.get("groups", []))
    )
    return AttackScript(
        default=default,
        groups=groups,
        model=str(spec.get("model", AttackScript.model)),
        relay_mode=str(spec.get("relay", AttackScript.relay_mode)),
    )


def _parse_axis_values(raw, axes: int, what: str) -> tuple[tuple[float, ...], ...]:
    """Normalize per-node init/offset entries to one tuple per axis."""
    if axes == 1:
        vals = raw if isinstance(raw, list) else [raw]
        return (tuple(_float(v) for v in vals),)
    if not (isinstance(raw, list) and len(raw) == axes):
        raise ScenarioError(f"{what}: need one entry per axis, got {raw!r}")
    out = []
    for ax in raw:
        vals = ax if isinstance(ax, list) else [ax]
        out.append(tuple(_float(v) for v in vals))
    return tuple(out)


@dataclass(frozen=True)
class Scenario:
    name: str
    schedule: TopologySchedule
    leaders: frozenset[int]
    algorithm: str
    f: int
    l: int
    reference: ReferenceFunction
    axes: int = 1
    params: ControlParams | None = None  # second-order only
    init: dict[int, tuple[tuple[float, ...], ...]] = field(default_factory=dict)
    delta: dict[int, tuple[float, ...]] = field(default_factory=dict)
    scripts: dict[int, AttackScript] = field(default_factory=dict)
    tol: float = 1e-6
    window: int = 50
    max_rounds: int = 2000

    @property
    def second_order(self) -> bool:
        return self.algorithm == "mdp-msr"

    @property
    def adversaries(self) -> frozenset[int]:
        return frozenset(self.scripts)

    @property
    def followers(self) -> frozenset[int]:
        return frozenset(self.schedule.graphs[0].nodes) - self.leaders

    @property
    def normal_followers(self) -> frozenset[int]:
        return self.followers - self.adversaries

    @property
    def anchors(self) -> frozenset[int]:
        """Normal nodes that adopt the reference each round: the leaders and,
        in secure mode, the virtual leaders."""
        if self.algorithm == "mw-msr-secure":
            return (self.leaders | self.secure_virtual_leaders()) - self.adversaries
        return self.leaders - self.adversaries

    def secure_virtual_leaders(self) -> frozenset[int]:
        """Followers adjacent to a leader at some step of the schedule."""
        return frozenset().union(
            *(direct_leader_followers(g, self.leaders) for g in self.schedule.graphs)
        )

    def secure_reduced(self) -> tuple[TopologySchedule, frozenset[int]]:
        """The leaderless follower schedule and its virtual leader set, as
        used by the secure-leader variant. Followers are relabeled to 1..m in
        id order, by one map for every graph."""
        new = {old: k for k, old in enumerate(sorted(self.followers), start=1)}
        graphs = tuple(
            DiGraph(len(new), frozenset(
                (new[j], new[i]) for j, i in g.edges if j in new and i in new
            ))
            for g in self.schedule.graphs
        )
        virtual = frozenset(map(new.__getitem__, self.secure_virtual_leaders()))
        return TopologySchedule(graphs, self.schedule.interval_lengths), virtual

    def validation_errors(self) -> list[str]:
        errors: list[str] = []
        n = self.schedule.n
        if self.algorithm not in ALGORITHMS:
            errors.append(f"unknown algorithm {self.algorithm!r}")
        if self.f < 0 or self.l < 1:
            errors.append(f"need f >= 0 and l >= 1, got f={self.f} l={self.l}")
        if self.axes not in (1, 2):
            errors.append(f"axes must be 1 or 2, got {self.axes}")
        if not 0 < self.tol < math.inf:
            errors.append(f"tolerance must be positive and finite, got {self.tol}")
        if self.window < 1 or self.max_rounds < 1:
            errors.append("window and max_rounds must be >= 1")
        values = {
            f"init[{i}]": [v for vals in per_axis for v in vals]
            for i, per_axis in self.init.items()
        }
        values.update((f"delta[{i}]", offsets) for i, offsets in self.delta.items())
        for i, script in self.scripts.items():
            waves = [script.default] + [w for _, w in script.groups]
            vals = [x for w in waves for x in (w.center, w.amplitude)]
            # A square or sinusoid reaches center +- amplitude, which may overflow.
            vals += [w.center + s * w.amplitude
                     for w in waves if w.kind != "constant" for s in (1.0, -1.0)]
            values[f"adversary {i}"] = vals
        bad = [name for name, vals in values.items() if not all(map(math.isfinite, vals))]
        if bad:
            errors.append(f"non-finite values in {', '.join(bad)}")
        if not self.leaders:
            errors.append("at least one leader required")
        ids = set(self.init) | set(self.delta) | set(self.scripts) | self.leaders
        ids.update(r for s in self.scripts.values() for members, _ in s.groups for r in members)
        for i in sorted(ids):
            if not (1 <= i <= n):
                errors.append(f"node id {i} outside 1..{n}")
        missing = sorted(self.normal_followers - self.anchors - set(self.init))
        if missing:
            errors.append(f"missing initial values for followers {missing}")
        if self.second_order and self.params is None:
            errors.append("second-order scenario requires T and beta")
        for i, per_axis in self.init.items():
            if len(per_axis) != self.axes:
                errors.append(f"init for node {i} has {len(per_axis)} axes, need {self.axes}")
            if not self.second_order and any(len(vals) != 1 for vals in per_axis):
                errors.append(f"first-order init for node {i} must be a scalar")
            elif any(len(vals) not in (1, 2) for vals in per_axis):
                errors.append(f"second-order init for node {i} must be [x] or [x, v] per axis")
        if self.f >= 0 and self.l >= 1:  # else reported above, with nothing to check
            report = validate_f_local(self.adversaries, self.schedule, self.l, self.f)
            if not report.f_local:
                i, k = report.witness
                errors.append(
                    f"adversary set is not {self.f}-local: node {i} has more than "
                    f"{self.f} adversaries within {self.l} hops at step {k}"
                )
        if self.algorithm == "mw-msr-secure" and self.adversaries & self.leaders:
            errors.append(
                "secure-leader mode contradicts adversarial leaders "
                f"{sorted(self.adversaries & self.leaders)}"
            )
        return errors

    def validate(self) -> None:
        errors = self.validation_errors()
        if errors:
            raise ScenarioError("; ".join(errors))

    def fingerprint(self) -> str:
        """Stable digest of everything that determines the trace."""
        blob = json.dumps(
            {
                "name": self.name,
                "graphs": [sorted(g.edges) for g in self.schedule.graphs],
                "intervals": list(self.schedule.interval_lengths),
                "leaders": sorted(self.leaders),
                "algorithm": self.algorithm,
                "f": self.f,
                "l": self.l,
                "axes": self.axes,
                "T": self.params.T if self.params else None,
                "beta": self.params.beta if self.params else None,
                "reference": list(self.reference.pieces),
                "init": {i: self.init[i] for i in sorted(self.init)},
                "delta": {i: self.delta[i] for i in sorted(self.delta)},
                "scripts": {
                    i: [
                        s.model,
                        s.relay_mode,
                        [s.default.center, s.default.amplitude, s.default.period, s.default.kind],
                        [
                            [sorted(members)]
                            + [[w.center, w.amplitude, w.period, w.kind]]
                            for members, w in s.groups
                        ],
                    ]
                    for i, s in sorted(self.scripts.items())
                },
                "tol": self.tol,
                "window": self.window,
                "max_rounds": self.max_rounds,
                # A constant: the key stays so that pinned fingerprints stay valid.
                "budget": None,
            },
            sort_keys=True,
            default=list,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def parse_scenario(data: dict, name: str, base: FsPath | None = None) -> Scenario:
    optional = ("axes", "init", "delta", "adversaries", "tol", "window", "max_rounds")
    if isinstance(data, dict) and data.get("algorithm") == "mdp-msr":
        optional += ("T", "beta")  # only the second-order algorithm reads them
    _require(data, "scenario", ("topology", "algorithm", "f", "l", "reference"), optional)
    schedule, leaders = load_topology(resolve_file(str(data["topology"]), base))
    algorithm = str(data["algorithm"])
    if algorithm not in ALGORITHMS:
        raise ScenarioError(f"unknown algorithm {algorithm!r}")
    f_param, l_param = _scalar(data, "f", _int), _scalar(data, "l", _int)
    axes = _scalar(data, "axes", _int, Scenario.axes)

    with _field("reference"):
        ref_raw = data["reference"]
        if isinstance(ref_raw, list):
            reference = ReferenceFunction(tuple((_int(s), _float(v)) for s, v in map(_pair, ref_raw)))
        else:
            reference = ReferenceFunction.constant(_float(ref_raw))

    params = None
    if algorithm == "mdp-msr":
        if "T" not in data or "beta" not in data:
            raise ScenarioError("mdp-msr requires 'T' and 'beta'")
        params = ControlParams(T=_scalar(data, "T", _float), beta=_scalar(data, "beta", _float))

    with _field("init"):
        init = {
            _int(i): _parse_axis_values(raw, axes, f"init[{i}]")
            for i, raw in (data.get("init") or {}).items()
        }
    delta = {}
    with _field("delta"):
        for i, raw in (data.get("delta") or {}).items():
            vals = raw if isinstance(raw, list) else [raw]
            if len(vals) != axes:
                raise ScenarioError(f"delta[{i}]: need one offset per axis")
            delta[_int(i)] = tuple(_float(v) for v in vals)

    scripts = {}
    with _field("adversaries"):
        raw = data.get("adversaries")
        for spec in _list([] if raw is None else raw):
            node = _int(spec["node"])
            if node in scripts:
                raise ScenarioError(f"duplicate adversary entry for node {node}")
            scripts[node] = _parse_script(node, spec)

    return Scenario(
        name=name,
        schedule=schedule,
        leaders=leaders,
        algorithm=algorithm,
        f=f_param,
        l=l_param,
        reference=reference,
        axes=axes,
        params=params,
        init=init,
        delta=delta,
        scripts=scripts,
        tol=_scalar(data, "tol", _float, Scenario.tol),
        window=_scalar(data, "window", _int, Scenario.window),
        max_rounds=_scalar(data, "max_rounds", _int, Scenario.max_rounds),
    )


def load_scenario(path: FsPath | str) -> Scenario:
    path = FsPath(path)
    return parse_scenario(_load_mapping(path, "scenario"), path.stem, path.parent)
