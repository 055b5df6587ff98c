"""Synchronous round-based simulation loop, convergence detection, and
trace-level oracles for the consensus guarantees.

Each round: leaders publish the reference, values travel over the
round's graph (with adversarial corruption), normal followers trim and
average, and the error envelopes are recorded.
"""

from __future__ import annotations

import gc
from array import array
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import islice
from operator import add
from pathlib import Path as FsPath
from typing import NamedTuple

from .agents import (
    mdp_msr_control,
    mw_msr_trim,
    mw_msr_update,
    second_order_step,
    trim_route,
)
from .graphs import DiGraph, TopologySchedule, all_paths_into
from .messaging import RelayPlan, relay_plan, relay_round, slot_values
from .scenario import Scenario


class EngineError(ValueError):
    """Invalid simulation request."""


@dataclass
class Rows:
    """A per-round series of one value per key (node), kept as one flat
    array of doubles: round k's values are ``data[k * w:(k + 1) * w]``, in
    ``keys`` order, for w = len(keys). Reading round k returns a new plain
    {key: value} dict."""

    keys: tuple[int, ...]
    data: array = field(default_factory=partial(array, "d"))
    rounds: int = 0

    def append(self, values: list[float]) -> None:
        """Record the next round: one value per key, in key order."""
        self.data.fromlist(values)
        self.rounds += 1

    def __len__(self) -> int:
        return self.rounds

    def __getitem__(self, k: int) -> dict[int, float]:
        if k < 0:
            k += self.rounds
        if not 0 <= k < self.rounds:
            raise IndexError("round index out of range")
        w = len(self.keys)
        return dict(zip(self.keys, self.data[k * w:(k + 1) * w]))


@dataclass
class Trace:
    """Per-round scalars of one simulated axis of ``scenario``.

    ``x`` holds the consensus variable (position offset for second order)
    and ``v`` the velocity (second order only) of every node.
    ``retained_mean`` stores, for each normal follower, the average of its
    retained values at each exchanged round — enough to replay the update
    identities. ``V``, ``V_hat`` (second order only) and ``residual`` hold one
    value per round. ``exchange`` is the schedule values travel over: secure
    mode exchanges them among the followers only.
    """

    scenario: Scenario
    x: Rows = field(init=False)
    v: Rows = field(init=False)
    retained_mean: Rows = field(init=False)
    V: array = field(init=False, default_factory=partial(array, "d"))
    V_hat: array = field(init=False, default_factory=partial(array, "d"))
    residual: array = field(init=False, default_factory=partial(array, "d"))
    exchange: TopologySchedule = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        scenario = self.scenario
        nodes = tuple(range(1, scenario.schedule.n + 1))
        self.x, self.v = Rows(nodes), Rows(nodes)
        self.retained_mean = Rows(tuple(sorted(scenario.normal_followers)))
        self.exchange = scenario.schedule
        if scenario.algorithm == "mw-msr-secure":
            self.exchange = scenario.schedule.induced(scenario.followers)

    @property
    def rounds(self) -> int:
        return len(self.x)

    @property
    def second_order(self) -> bool:
        return self.scenario.second_order

    @property
    def normal_followers(self) -> frozenset[int]:
        return self.scenario.normal_followers

    @property
    def normal_nodes(self) -> frozenset[int]:
        return frozenset(range(1, self.scenario.schedule.n + 1)) - self.scenario.adversaries


@dataclass(frozen=True)
class SegmentReport:
    """Convergence within one constant-reference segment."""

    start: int
    end: int  # exclusive
    value: float
    round_of_convergence: int | None
    residual: float  # at segment end

    @property
    def converged(self) -> bool:
        return self.round_of_convergence is not None


@dataclass(frozen=True)
class ConvergenceReport:
    round_of_convergence: int | None
    residual: float
    velocity_residual: float | None
    classification: str  # converged | stalled | budget-exhausted
    segments: tuple[SegmentReport, ...] = ()

    @property
    def converged(self) -> bool:
        return self.round_of_convergence is not None


@dataclass(frozen=True)
class SimulationResult:
    scenario: Scenario
    traces: tuple[Trace, ...]
    reports: tuple[ConvergenceReport, ...]

    @property
    def converged(self) -> bool:
        return all(r.converged for r in self.reports)

    @property
    def residual(self) -> float:
        return max(r.residual for r in self.reports)


@lru_cache(maxsize=64)
def _paths_for(g: DiGraph, l: int):
    return {i: tuple(all_paths_into(g, i, l)) for i in g.nodes}


class _LogRows(NamedTuple):
    """A message log's rows over one exchange graph, built before its first
    round.

    ``plan`` covers every node, in id order. ``heads`` holds each row's
    ``src,dst,path,`` head, in plan order, and ``rows`` each row's index
    into ``keys``, the distinct (plan slot, source) pairs: a row's value is
    its slot's and its tampered flag is 1 if its source is an adversary or
    that value is unequal (``!=``) to the source's own, so both depend on
    its key alone.
    """

    plan: RelayPlan
    heads: tuple[str, ...]
    rows: tuple[int, ...]
    keys: tuple[tuple[int, int], ...]


def _log_rows(paths, scripts) -> _LogRows:
    plan = relay_plan({i: paths[i] for i in sorted(paths)}, scripts)
    heads, rows, keys = [], [], {}
    for s, p in zip(plan.slots, plan.paths):
        nodes = p.nodes
        heads.append(f"{nodes[0]},{nodes[-1]},{'-'.join(map(str, nodes))},")
        rows.append(keys.setdefault((s, nodes[0]), len(keys)))
    return _LogRows(plan, tuple(heads), tuple(rows), tuple(keys))


class _MessageLog:
    """The messages every node of the exchange graph receives each round,
    written after the run from the recorded states.

    Rows are csv excel-dialect text (CRLF line ends); no field ever needs
    quoting. They are written from a plan over every node (``_LogRows``),
    one per exchange graph: each round reads the plan's value table, reprs
    each emission once, takes each honest source's repr from the round's
    trace rows and writes the round in one call. A row is tampered (1) if
    its source is an adversary or its value is unequal (``!=``) to the
    source's own. The table evaluates the round's emissions a second time,
    which ``AttackScript.emit``, pure by contract, allows.
    """

    def __init__(self, fh, trace: Trace):
        self.fh = fh
        self.scripts = trace.scenario.scripts
        graphs = trace.exchange.graphs
        by_graph = {g: _log_rows(_paths_for(g, trace.scenario.l), self.scripts)
                    for g in dict.fromkeys(graphs)}
        # Round k reads position k % period of the exchange schedule.
        self.phases = [by_graph[g] for g in graphs]
        fh.write("round,src,dst,path,value,tampered\r\n")

    def record(self, k, senders, reprs):
        """Round k's rows; ``reprs[j]`` is ``repr(senders[j])``."""
        log_rows = self.phases[k % len(self.phases)]
        plan, scripts = log_rows.plan, self.scripts
        table = slot_values(plan, senders, k, scripts)
        values = list(map(reprs.__getitem__, plan.sources))
        values += map(repr, islice(table, len(values), None))
        tails = [values[s] + (",1\r\n" if src in scripts or table[s] != senders[src] else ",0\r\n")
                 for s, src in log_rows.keys]
        # Each row is the prefix, its head and its tail; no rows write "".
        rows = map(add, log_rows.heads, map(tails.__getitem__, log_rows.rows))
        self.fh.write(f"{k},".join(["", *rows]))


def _initial_axis_state(scenario: Scenario, axis: int):
    """Initial (x, v) lists for one axis, indexed by node (index 0 unused); x
    holds the consensus variable. A node without init is at rest: at its
    script's value if it is an adversary but not a leader, else (a leader or
    virtual leader) at the reference."""
    ref0 = scenario.reference.value_at(0)
    n = scenario.schedule.n
    x = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    for i in range(1, n + 1):
        if i in scenario.init:
            vals = scenario.init[i][axis]
            x[i] = vals[0]
            v[i] = vals[1] if len(vals) > 1 else 0.0
        elif i in scenario.scripts and i not in scenario.leaders:
            x[i] = scenario.scripts[i].default.value(0)
        else:
            x[i] = ref0
    return x, v


def _envelope(states, nodes) -> tuple[float, float]:
    """(min, max) of ``states`` at the indices ``nodes``."""
    vals = list(map(states.__getitem__, nodes))
    return min(vals), max(vals)


def run_axis(scenario: Scenario, axis: int) -> Trace:
    """Simulate one axis until it converges or reaches ``max_rounds``.

    Node roles are fixed before the loop. The anchors (``Scenario.anchors``)
    adopt the reference each round; the other normal followers trim and
    average; adversaries follow their scripts.

    The round loop runs with the cyclic garbage collector off. Each round
    builds one tuple per delivered message, and they are still alive while
    the next round's are built, so the collector would otherwise run every
    few rounds and find nothing: the loop makes no reference cycles, and
    plain reference counting frees every round. The collector is
    process-wide, so it is turned back on after the loop, also when a round
    raises, unless it was already off when the loop began.
    """
    second = scenario.second_order
    scripts = scenario.scripts
    anchors = scenario.anchors
    f, l, params = scenario.f, scenario.l, scenario.params
    tol, window = scenario.tol, scenario.window
    ref = scenario.reference
    trace = Trace(scenario)
    trimming = scenario.normal_followers - anchors
    # Only the trimming followers receive: one plan per exchange graph, and
    # one trim route per (graph, trimming follower), built before round 0.
    # Round k reads position k % period of the exchange schedule.
    tables = {}
    for g in dict.fromkeys(trace.exchange.graphs):
        paths = _paths_for(g, l)
        plan = relay_plan({i: paths[i] for i in trimming}, scripts)
        tables[g] = g, plan, {i: trim_route(plan.slots[a:b], plan.paths[a:b])
                              for i, (a, b) in plan.spans.items()}
    phases = [tables[g] for g in trace.exchange.graphs]
    period = len(phases)
    scripted = [(a, scripts[a].default.value) for a in scripts]
    # Second order: anchors and adversaries are at rest after every round.
    at_rest = tuple(anchors | scenario.adversaries)

    # State lists are indexed by node; each round's values are copied into
    # the trace's arrays.
    x, v = _initial_axis_state(scenario, axis)
    # The frozenset's own order, so that a tie of 0.0 and -0.0 resolves as
    # it always has.
    metric_nodes = tuple(trace.normal_nodes)
    followers = trace.retained_mean.keys
    max_rounds = scenario.max_rounds
    last_piece_start = ref.pieces[-1][0]
    run_length = 0
    # V_hat spans rounds k-1 and k; at round 0 it spans round 0 alone.
    prev_lo, prev_hi = _envelope(x, metric_nodes)

    enabled = gc.isenabled()
    gc.disable()
    try:
        for k in range(max_rounds + 1):
            # Metrics on the state at round k. The largest |x_i - r| is
            # max(x) - r or r - min(x), bit for bit, since rounding is
            # monotone and fl(r - b) = -fl(b - r); abs makes a zero +0.0.
            lo, hi = _envelope(x, metric_nodes)
            r_now = ref.value_at(k)
            fx = list(map(x.__getitem__, followers)) or [r_now]
            res = abs(max(max(fx) - r_now, r_now - min(fx)))
            trace.x.append(x[1:])
            trace.V.append(hi - lo)
            if second:
                trace.v.append(v[1:])
                trace.V_hat.append(max(hi, prev_hi) - min(lo, prev_lo))
                prev_lo, prev_hi = lo, hi
                res = max(res, max(map(abs, map(v.__getitem__, followers)), default=0.0))
            trace.residual.append(res)

            # Counted within the last reference segment, as convergence_report does.
            run_length = run_length + 1 if res <= tol and k >= last_piece_start else 0
            if run_length >= window:
                break
            if k == max_rounds:
                break

            # Exchange over the round's graph.
            g, plan, routes = phases[k % period]
            delivered = relay_round(g, x, l, k, scripts, plan)

            # Anchored followers average nothing; they record their own value.
            means = x.copy()
            next_x = x.copy()
            next_v = v.copy() if second else v  # first order neither reads nor records v
            for i in trimming:
                means[i] = mw_msr_update(mw_msr_trim(delivered[i], x[i], f, routes[i]), x[i])
                if second:
                    u = mdp_msr_control(means[i], x[i], v[i], params)
                    next_x[i], next_v[i] = second_order_step(x[i], v[i], u, params.T)
                else:
                    next_x[i] = means[i]
            trace.retained_mean.append(list(map(means.__getitem__, followers)))

            for d in anchors:
                next_x[d] = r_now
            for a, value in scripted:
                next_x[a] = value(k + 1)
            if second:
                for d in at_rest:
                    next_v[d] = 0.0

            x, v = next_x, next_v
    finally:
        if enabled:
            gc.enable()

    return trace


def run(scenario: Scenario, out_dir: FsPath | str | None = None) -> SimulationResult:
    """Validate, simulate every axis, and optionally write each axis's trace
    and message files once it has run, so an axis that fails writes neither."""
    scenario.validate()
    out = FsPath(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    traces = []
    for axis in range(scenario.axes):
        trace = run_axis(scenario, axis)
        traces.append(trace)
        if out is not None:
            stem = f"{scenario.name}_axis{axis}"
            write_trace_csv(trace, out / f"{stem}_trace.csv", out / f"{stem}_messages.csv")
    reports = tuple(convergence_report(t) for t in traces)
    return SimulationResult(scenario, tuple(traces), reports)


def convergence_report(trace: Trace) -> ConvergenceReport:
    """Windowed residual test with the scenario's ``tol`` and ``window``,
    re-applied within each reference segment."""
    tol, window = trace.scenario.tol, trace.scenario.window
    if tol <= 0:
        raise EngineError(f"tolerance must be positive, got {tol}")
    rounds = trace.rounds
    segments = []
    for seg_range, value in trace.scenario.reference.segments(rounds):
        run_len, conv_round = 0, None
        for k in seg_range:
            run_len = run_len + 1 if trace.residual[k] <= tol else 0
            if run_len >= window and conv_round is None:
                conv_round = k - window + 1
        segments.append(SegmentReport(seg_range.start, seg_range.stop, value, conv_round,
                                      trace.residual[seg_range.stop - 1]))

    last = segments[-1]
    # A run that ends before the last reference step has not tracked it.
    reached = last.start == trace.scenario.reference.pieces[-1][0]
    converged = reached and last.converged
    final_res = trace.residual[-1]
    vel = None
    if trace.second_order:
        vel = max((abs(trace.v[-1][i]) for i in trace.normal_followers), default=0.0)
    if converged:
        classification = "converged"
    elif not reached:
        classification = "budget-exhausted"
    else:
        plateau = False
        if rounds > window:
            v_now, v_then = trace.V[-1], trace.V[-1 - window]
            plateau = abs(v_now - v_then) <= 1e-12 * max(abs(v_then), 1.0)
        classification = "stalled" if plateau else "budget-exhausted"
    return ConvergenceReport(
        round_of_convergence=last.round_of_convergence if converged else None,
        residual=final_res,
        velocity_residual=vel,
        classification=classification,
        segments=tuple(segments),
    )


# ---------------------------------------------------------------------------
# Trace oracles


def envelope_nesting_holds(trace: Trace) -> bool:
    """Within each constant-reference segment the normal-node envelope never
    widens (exact comparisons; the updates are convex combinations)."""
    xs, n = trace.x.data, len(trace.x.keys)
    offsets = [i - 1 for i in trace.normal_nodes]  # node i's offset in a row
    two_step = trace.second_order
    for seg_range, _ in trace.scenario.reference.segments(trace.rounds):
        # Leaders move to the new reference one round after a step change,
        # so start nesting once the envelope actually contains it.
        start = seg_range.start + 1 if seg_range.start > 0 else 0
        last = prev = None  # round k-1's envelope, and the nested one
        for k in range(start, seg_range.stop):
            lo, hi = now = _envelope(xs[k * n:(k + 1) * n], offsets)
            if two_step and last is not None:
                lo, hi = min(lo, last[0]), max(hi, last[1])
            if prev is not None and (lo < prev[0] or hi > prev[1]):
                return False
            last, prev = now, (lo, hi)
    return True


def contraction_oracle(trace: Trace) -> bool:
    """Contraction of the consensus error over every contraction period:
    from the round after the last reference step, the envelope V (V_hat for
    second-order traces) sampled every (w + 1) * K rounds strictly decreases
    from one sample to the next while it is above 0.
    """
    period = (len(trace.normal_followers) + 1) * trace.scenario.schedule.max_interval_length
    series = trace.V_hat if trace.second_order else trace.V
    k1 = trace.scenario.reference.pieces[-1][0]
    if k1 > 0:
        k1 += 1  # leaders adopt a step change one round later
    elif trace.second_order:
        k1 = 1  # the two-step envelope needs a predecessor round
    samples = series[k1::period]
    return all(b < a for a, b in zip(samples, samples[1:]) if a > 0)


def two_step_identity_deviation(trace: Trace) -> float:
    """Max deviation from the eliminated-velocity two-step recursion of the
    second-order update; should vanish to rounding error."""
    if not trace.second_order:
        raise EngineError("two-step identity applies to second-order traces")
    T, beta = trace.scenario.params.T, trace.scenario.params.beta
    means = trace.retained_mean
    worst = 0.0
    if len(means) < 2:
        return worst
    xs, n = trace.x.data, len(trace.x.keys)
    ms, w = means.data, len(means.keys)
    # Follower j of a means row is node keys[j], at offset keys[j] - 1 of an x row.
    pairs = [(j, i - 1) for j, i in enumerate(means.keys)]
    x_prev, x_k, m_prev = xs[:n], xs[n:2 * n], ms[:w]
    for k in range(1, len(means)):
        m_k, x_next = ms[k * w:(k + 1) * w], xs[(k + 1) * n:(k + 2) * n]
        for j, o in pairs:
            d_k = m_k[j] - x_k[o]
            d_prev = m_prev[j] - x_prev[o]
            predicted = (
                (2 - T * beta) * x_k[o]
                + (T**2 / 2) * (d_k + d_prev)
                - (1 - T * beta) * x_prev[o]
            )
            worst = max(worst, abs(x_next[o] - predicted))
        x_prev, x_k, m_prev = x_k, x_next, m_k
    return worst


# ---------------------------------------------------------------------------
# Trace output


def write_trace_csv(trace: Trace, path: FsPath | str, messages_path: FsPath | str) -> None:
    """One row per (round, node) to ``path``, and the message log of every
    exchanged round to ``messages_path`` (``_MessageLog``): csv
    excel-dialect text (CRLF line ends; no field needs quoting), one write
    per round and file. Each round's x values are repr'd once, for both."""
    second = trace.second_order
    scenario = trace.scenario
    n = scenario.schedule.n
    heads = []
    for i in range(1, n + 1):
        if i in scenario.adversaries:
            role = "adversary"
        elif i in scenario.leaders:
            role = "leader"
        else:
            role = "follower"
        heads.append((i, f",{i},{role},"))
    xs, vs, V, V_hat = trace.x.data, trace.v.data, trace.V, trace.V_hat
    last = trace.rounds - 1
    with open(path, "w", newline="") as fh, open(messages_path, "w", newline="") as log_fh:
        log = _MessageLog(log_fh, trace)
        fh.write(f"round,node,role,x,{'v,' if second else ''}V,V_hat\r\n")
        for k in range(trace.rounds):
            # Node-indexed: reprs[i] is repr of node i's x.
            row = xs[k * n:(k + 1) * n]
            reprs = [None, *map(repr, row)]
            if second:
                v_reprs = [None, *map(repr, vs[k * n:(k + 1) * n])]
                tail = f",{V[k]!r},{V_hat[k]!r}\r\n"
                fh.write("".join([f"{k}{head}{reprs[i]},{v_reprs[i]}{tail}" for i, head in heads]))
            else:
                tail = f",{V[k]!r},\r\n"
                fh.write("".join([f"{k}{head}{reprs[i]}{tail}" for i, head in heads]))
            if k < last:
                log.record(k, [None, *row], reprs)
