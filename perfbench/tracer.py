"""Span tracing of rclab's layers from outside the package.

Each traced function is replaced, at the name its caller looks it up by,
with a wrapper that records a span: name, parent span, start and end. The
spans stay in memory in flat arrays and are written out once, when the pass
ends. Counters are taken in post-call hooks on the arguments and results;
the hooks run inside spans of their own (layer ``perfbench``) so that their
cost is not charged to the caller's self time.

If a wrapped name no longer exists, its span never appears and every metric
that needs it is reported as missing (``None``), never as zero.
"""

from __future__ import annotations

import importlib
import json
import statistics
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# (span name, module, attribute path, kind). The attribute is the name the
# calling code looks up at call time: a module global of the caller, or a
# class attribute for methods.
TARGETS = [
    ("scenario.load", "rclab.scenario", "load_scenario", "fn"),
    ("scenario.load", "rclab.scenario", "load_topology", "fn"),
    ("scenario.validate", "rclab.scenario", "Scenario.validate", "fn"),
    ("adversary.validate_f_local", "rclab.scenario", "validate_f_local", "fn"),
    ("graphs.in_neighbors", "rclab.graphs", "DiGraph.in_neighbors", "fn"),
    ("graphs.induced", "rclab.graphs", "DiGraph.induced", "fn"),
    ("graphs.in_neighbors_l", "rclab.graphs", "in_neighbors_l", "fn"),
    ("graphs.in_neighbors_l", "rclab.robustness", "in_neighbors_l", "fn"),
    ("graphs.in_neighbors_l", "rclab.adversary", "in_neighbors_l", "fn"),
    ("graphs.all_paths_into", "rclab.engine", "all_paths_into", "fn"),
    ("graphs.all_paths_into", "rclab.robustness", "all_paths_into", "fn"),
    ("graphs.all_paths_into", "rclab.messaging", "all_paths_into", "fn"),
    ("engine.run", "rclab.engine", "run", "fn"),
    ("engine.run_axis", "rclab.engine", "run_axis", "fn"),
    ("engine.trace_write", "rclab.engine", "write_trace_csv", "fn"),
    ("engine.trace_write", "rclab.engine", "_MessageLog.record", "fn"),
    ("messaging.relay_round", "rclab.engine", "relay_round", "fn"),
    ("messaging.cover", "rclab.agents", "mmc_cardinality", "fn"),
    ("adversary.emit", "rclab.adversary", "AttackScript.emit", "fn"),
    ("adversary.relay", "rclab.adversary", "AttackScript.relay", "fn"),
    ("agents.trim", "rclab.engine", "mw_msr_trim", "fn"),
    ("agents.update", "rclab.engine", "mw_msr_update", "fn"),
    ("agents.update", "rclab.engine", "mdp_msr_control", "fn"),
    ("agents.update", "rclab.engine", "second_order_step", "fn"),
    ("robustness.check", "rclab.robustness", "is_jointly_robust_following", "fn"),
    ("robustness.necessary_conditions", "rclab.robustness", "necessary_conditions", "fn"),
    ("robustness.f_local_sets", "rclab.robustness", "f_local_sets", "gen"),
    ("robustness.interval_violation", "rclab.robustness", "_interval_violation", "fn"),
    ("robustness.disjoint_search", "rclab.robustness", "_max_disjoint_paths", "fn"),
]

POST = "perfbench.post"

# Per-layer metric -> (unit, end-to-end metric it should move, workloads).
LAYER_METRICS = {
    "scenario.load_s": ("s", "setup_s", "all"),
    "scenario.validate_s": ("s", "setup_s", "all"),
    "scenario.validate.calls": ("count", "setup_s", "all"),
    "adversary.validate_f_local_s": ("s", "setup_s", "all"),
    "graphs.in_neighbors.calls": ("count", "op_ref.* / setup_s", "check-* / sim-*"),
    "graphs.in_neighbors_s": ("s", "op_ref.* / setup_s", "check-* / sim-*"),
    "graphs.in_neighbors_l_s": ("s", "op_ref.* / setup_s", "check-* / sim-*"),
    "graphs.all_paths_into.calls": ("count", "op_ref.*", "check-*"),
    "graphs.all_paths_into_s": ("s", "op_ref.*", "check-*"),
    "graphs.paths": ("count", "op_ref.*", "check-*"),
    "graphs.induced.calls": ("count", "op_ref.*", "check-*"),
    "messaging.cover.calls": ("count", "work_per_ref", "sim-deep, then sim-shallow"),
    "messaging.cover_s": ("s", "work_per_ref", "sim-deep, then sim-shallow"),
    "messaging.cover.msgs_mean": ("count", "work_per_ref", "sim-deep, then sim-shallow"),
    "messaging.cover.distinct_ratio": ("ratio", "work_per_ref", "sim-deep, then sim-shallow"),
    "messaging.relay.calls": ("count", "work_per_ref", "sim-*"),
    "messaging.relay.self_s": ("s", "work_per_ref", "sim-*, mostly sim-shallow"),
    "messaging.messages": ("count", "work_per_ref", "sim-*"),
    "messaging.messages_tampered": ("count", "work_per_ref", "sim-*"),
    "adversary.emit.calls": ("count", "work_per_ref", "sim-*"),
    "adversary.relay.calls": ("count", "work_per_ref", "sim-*"),
    "adversary.hooks_s": ("s", "work_per_ref", "sim-*, mostly sim-shallow"),
    "agents.trim.calls": ("count", "work_per_ref", "sim-*"),
    "agents.trim.self_s": ("s", "work_per_ref", "sim-*"),
    "agents.trimmed.upper": ("count", "work_per_ref", "sim-*"),
    "agents.trimmed.lower": ("count", "work_per_ref", "sim-*"),
    "agents.update_s": ("s", "work_per_ref", "sim-shallow"),
    "engine.run_s": ("s", "run_ref", "sim-*"),
    "engine.self_s": ("s", "work_per_ref / run_ref", "sim-shallow"),
    "engine.round_ms.p50": ("ms", "work_per_ref / run_ref", "sim-shallow"),
    "engine.round_ms.p99": ("ms", "work_per_ref / run_ref", "sim-shallow"),
    "engine.trace_write_s": ("s", "work_per_ref / run_ref", "sim-shallow"),
    "engine.trace_bytes": ("bytes", "work_per_ref / run_ref", "sim-shallow"),
    "robustness.f_sets": ("count", "op_ref.*", "check-holds, check-fails"),
    "robustness.f_enum_s": ("s", "op_ref.*", "check-holds, check-fails"),
    "robustness.interval_checks": ("count", "op_ref.*", "check-holds, check-fails"),
    "robustness.interval_check.self_s": ("s", "op_ref.*", "check-holds"),
    "robustness.disjoint_search.calls": ("count", "op_ref.*", "check-*"),
    "robustness.disjoint_search_s": ("s", "op_ref.*", "check-*"),
    "robustness.disjoint_search.hit_ratio": ("ratio", "op_ref.*", "check-*"),
    "robustness.necessary_conditions_s": ("s", "op_ref.*", "check-*"),
    "share.scenario": ("ratio", "run_ref", "all"),
    "share.graphs": ("ratio", "run_ref", "all"),
    "share.messaging": ("ratio", "run_ref", "sim-*"),
    "share.adversary": ("ratio", "run_ref", "sim-*"),
    "share.agents": ("ratio", "run_ref", "sim-*"),
    "share.engine": ("ratio", "run_ref", "sim-*"),
    "share.robustness": ("ratio", "run_ref", "check-*"),
    "share.unattributed": ("ratio", "run_ref", "all"),
    "trace.run_s": ("s", "run_ref", "all"),
    "trace.overhead_s": ("s", "run_ref", "all"),
    "trace.unattributed_s": ("s", "run_ref", "all"),
    "trace.post_s": ("s", "run_ref", "all"),
}

# Metrics that are counts of work; they must repeat exactly between passes.
COUNT_METRICS = [k for k, (unit, _, _) in LAYER_METRICS.items() if unit in ("count", "bytes")]

LAYERS = ("scenario", "graphs", "messaging", "adversary", "agents", "engine", "robustness")


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.span_names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.distinct_covers: set = set()
        self.missing: set[str] = set()
        self._patches: list = []

    def _id(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.span_names)
            self.span_names.append(span)
        return self._ids[span]

    def _begin(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def _finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def _post(self, hook, span, a, kw, out) -> None:
        idx = self._begin(self._id(POST))
        try:
            hook(self, a, kw, out)
        except (AttributeError, TypeError, KeyError, IndexError, ValueError):
            self.missing.add(span)
        finally:
            self._finish(idx)

    def _wrap_fn(self, fn, span: str):
        nid = self._id(span)
        hook = POST_HOOKS.get(span)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack

        def wrapper(*a, **kw):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                out = fn(*a, **kw)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                self._post(hook, span, a, kw, out)
            return out

        return wrapper

    def _wrap_gen(self, fn, span: str):
        nid = self._id(span)

        def wrapper(*a, **kw):
            it = fn(*a, **kw)
            while True:
                idx = self._begin(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._finish(idx)
                self.counts[span + ".items"] += 1
                yield item

        return wrapper

    def install(self) -> None:
        for span, module, attr, kind in self.targets:
            try:
                owner, name = _resolve(module, attr)
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                self.missing.add(span)
                continue
            wrap = self._wrap_gen if kind == "gen" else self._wrap_fn
            self._patches.append((owner, name, original))
            setattr(owner, name, wrap(original, span))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans as one JSON header line followed by the four raw arrays."""
        with open(path, "wb") as fh:
            header = {"names": self.span_names, "spans": len(self.name),
                      "arrays": ["name:i", "parent:i", "start:d", "end:d"]}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)

    def metrics(self, run_start: float, run_s: float, trace_bytes: int | None) -> dict:
        """Per-layer metrics of one traced pass (timings in seconds)."""
        names, parent, start, end = self.name, self.parent, self.start, self.end
        n = len(names)
        dur = [end[i] - start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        nm = self.span_names
        calls = Counter()
        incl_top = defaultdict(float)  # excluding spans nested in the same name
        self_s = defaultdict(float)
        layer_self = defaultdict(float)
        root_run = 0.0
        emit_direct = 0
        hooks_s = 0.0
        gaps: dict[int, list[float]] = defaultdict(list)
        relay_id = self._ids.get("messaging.relay_round")
        for i in range(n):
            s = nm[names[i]]
            p = parent[i]
            ps = nm[names[p]] if p >= 0 else None
            calls[s] += 1
            if ps != s:
                incl_top[s] += dur[i]
            self_s[s] += dur[i] - child[i]
            if start[i] >= run_start:
                layer_self[s.split(".")[0]] += dur[i] - child[i]
                if p < 0:
                    root_run += dur[i]
            if s.startswith("adversary.") and s != "adversary.validate_f_local":
                if ps not in ("adversary.emit", "adversary.relay"):
                    hooks_s += dur[i]
                    if s == "adversary.emit":
                        emit_direct += 1
            if names[i] == relay_id:
                gaps[p].append(start[i])

        round_ms = [
            (b - a) * 1e3 for starts in gaps.values() for a, b in zip(starts, starts[1:])
        ]

        def need(value, *spans):
            return None if any(sp in self.missing for sp in spans) else value

        c = self.counts
        cover_calls = calls["messaging.cover"]
        ds_calls = calls["robustness.disjoint_search"]
        unattributed = run_s - root_run
        out = {
            "scenario.load_s": need(incl_top["scenario.load"], "scenario.load"),
            "scenario.validate_s": need(incl_top["scenario.validate"], "scenario.validate"),
            "scenario.validate.calls": need(calls["scenario.validate"], "scenario.validate"),
            "adversary.validate_f_local_s": need(
                incl_top["adversary.validate_f_local"], "adversary.validate_f_local"),
            "graphs.in_neighbors.calls": need(calls["graphs.in_neighbors"], "graphs.in_neighbors"),
            "graphs.in_neighbors_s": need(incl_top["graphs.in_neighbors"], "graphs.in_neighbors"),
            "graphs.in_neighbors_l_s": need(
                incl_top["graphs.in_neighbors_l"], "graphs.in_neighbors_l"),
            "graphs.all_paths_into.calls": need(
                calls["graphs.all_paths_into"], "graphs.all_paths_into"),
            "graphs.all_paths_into_s": need(
                incl_top["graphs.all_paths_into"], "graphs.all_paths_into"),
            "graphs.paths": need(c["graphs.paths"], "graphs.all_paths_into"),
            "graphs.induced.calls": need(calls["graphs.induced"], "graphs.induced"),
            "messaging.cover.calls": need(cover_calls, "messaging.cover"),
            "messaging.cover_s": need(incl_top["messaging.cover"], "messaging.cover"),
            "messaging.cover.msgs_mean": need(
                c["messaging.cover.msgs"] / cover_calls if cover_calls else 0.0,
                "messaging.cover"),
            "messaging.cover.distinct_ratio": need(
                len(self.distinct_covers) / cover_calls if cover_calls else 0.0,
                "messaging.cover"),
            "messaging.relay.calls": need(
                calls["messaging.relay_round"], "messaging.relay_round"),
            "messaging.relay.self_s": need(
                self_s["messaging.relay_round"], "messaging.relay_round"),
            "messaging.messages": need(c["messaging.messages"], "messaging.relay_round"),
            "messaging.messages_tampered": need(
                c["messaging.messages_tampered"], "messaging.relay_round"),
            "adversary.emit.calls": need(emit_direct, "adversary.emit"),
            "adversary.relay.calls": need(calls["adversary.relay"], "adversary.relay"),
            "adversary.hooks_s": need(hooks_s, "adversary.emit", "adversary.relay"),
            "agents.trim.calls": need(calls["agents.trim"], "agents.trim"),
            "agents.trim.self_s": need(self_s["agents.trim"], "agents.trim"),
            "agents.trimmed.upper": need(c["agents.trimmed.upper"], "agents.trim"),
            "agents.trimmed.lower": need(c["agents.trimmed.lower"], "agents.trim"),
            "agents.update_s": need(incl_top["agents.update"], "agents.update"),
            "engine.run_s": need(incl_top["engine.run"], "engine.run"),
            "engine.self_s": need(
                self_s["engine.run"] + self_s["engine.run_axis"], "engine.run", "engine.run_axis"),
            "engine.round_ms.p50": need(_quantile(round_ms, 0.50), "messaging.relay_round"),
            "engine.round_ms.p99": need(_quantile(round_ms, 0.99), "messaging.relay_round"),
            "engine.trace_write_s": need(incl_top["engine.trace_write"], "engine.trace_write"),
            "engine.trace_bytes": trace_bytes,
            "robustness.f_sets": need(
                c["robustness.f_local_sets.items"], "robustness.f_local_sets"),
            "robustness.f_enum_s": need(
                incl_top["robustness.f_local_sets"], "robustness.f_local_sets"),
            "robustness.interval_checks": need(
                calls["robustness.interval_violation"], "robustness.interval_violation"),
            "robustness.interval_check.self_s": need(
                self_s["robustness.interval_violation"], "robustness.interval_violation"),
            "robustness.disjoint_search.calls": need(ds_calls, "robustness.disjoint_search"),
            "robustness.disjoint_search_s": need(
                incl_top["robustness.disjoint_search"], "robustness.disjoint_search"),
            "robustness.disjoint_search.hit_ratio": need(
                c["robustness.disjoint_search.hits"] / ds_calls if ds_calls else 0.0,
                "robustness.disjoint_search"),
            "robustness.necessary_conditions_s": need(
                incl_top["robustness.necessary_conditions"], "robustness.necessary_conditions"),
            "trace.run_s": run_s,
            "trace.unattributed_s": unattributed,
        }
        for layer in LAYERS:
            out[f"share.{layer}"] = layer_self[layer] / run_s if run_s else 0.0
        out["share.unattributed"] = unattributed / run_s if run_s else 0.0
        out["trace.post_s"] = layer_self["perfbench"]
        return out


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1] if q < 1 else max(values)


# -- post-call hooks: counters taken from arguments and results ------------


def _arg(a, kw, pos, key, default=None):
    if key in kw:
        return kw[key]
    return a[pos] if len(a) > pos else default


def _post_paths(tr, a, kw, out):
    tr.counts["graphs.paths"] += len(out)


def _post_cover(tr, a, kw, out):
    messages = list(_arg(a, kw, 0, "messages"))
    tr.counts["messaging.cover.msgs"] += len(messages)
    key = []
    for m in messages:
        mask = 0
        for v in m.path.nodes[:-1]:
            mask |= 1 << v
        key.append(mask)
    tr.distinct_covers.add(frozenset(key))


def _post_relay(tr, a, kw, out):
    senders = _arg(a, kw, 1, "senders")
    hooks = _arg(a, kw, 4, "hooks") or {}
    total = tampered = 0
    for ms in out.values():
        for m in ms:
            total += 1
            src = m.path.nodes[0]
            if src in hooks or m.value != senders[src]:
                tampered += 1
    tr.counts["messaging.messages"] += total
    tr.counts["messaging.messages_tampered"] += tampered


def _post_trim(tr, a, kw, out):
    ms = _arg(a, kw, 0, "ms")
    own = _arg(a, kw, 1, "own")
    kept = {id(m) for m in out}
    for m in ms:
        if id(m) not in kept:
            side = "upper" if m.value > own else "lower"
            tr.counts[f"agents.trimmed.{side}"] += 1


def _post_disjoint(tr, a, kw, out):
    target = _arg(a, kw, 1, "target")
    if target is not None and out >= target:
        tr.counts["robustness.disjoint_search.hits"] += 1


POST_HOOKS = {
    "graphs.all_paths_into": _post_paths,
    "messaging.cover": _post_cover,
    "messaging.relay_round": _post_relay,
    "agents.trim": _post_trim,
    "robustness.disjoint_search": _post_disjoint,
}
