"""Synchronous round-based simulation loop, convergence detection, and
trace-level oracles for the consensus guarantees.

Each round: leaders publish the reference, values are relayed over the
round's graph (with adversarial corruption), normal followers trim and
average, and the error envelopes are recorded.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path as FsPath

from .agents import (
    ControlParams,
    ReferenceFunction,
    mdp_msr_control,
    mw_msr_trim,
    mw_msr_update,
    second_order_step,
)
from .graphs import DiGraph, Path, all_paths_into
from .messaging import Message, relay_round
from .scenario import Scenario


class EngineError(ValueError):
    """Invalid simulation request."""


@dataclass
class Trace:
    """Per-round scalars of one simulated axis.

    ``x`` holds the consensus variable (position offset for second order).
    ``retained_mean`` stores, for each normal follower, the average of its
    retained values at each round — enough to replay the update identities.
    """

    scenario_name: str
    fingerprint: str
    axis: int
    second_order: bool
    n: int
    leaders: frozenset[int]
    adversaries: frozenset[int]
    reference: ReferenceFunction
    K: int
    params: ControlParams | None = None
    x: list[dict[int, float]] = field(default_factory=list)
    v: list[dict[int, float]] = field(default_factory=list)
    retained_mean: list[dict[int, float]] = field(default_factory=list)
    V: list[float] = field(default_factory=list)
    V_hat: list[float] = field(default_factory=list)
    residual: list[float] = field(default_factory=list)
    max_msgset: int = 1

    @property
    def rounds(self) -> int:
        return len(self.x)

    @property
    def normal_followers(self) -> frozenset[int]:
        return (
            frozenset(range(1, self.n + 1)) - self.leaders - self.adversaries
        )

    @property
    def normal_nodes(self) -> frozenset[int]:
        return frozenset(range(1, self.n + 1)) - self.adversaries


@dataclass(frozen=True)
class SegmentReport:
    """Convergence within one constant-reference segment."""

    start: int
    end: int  # exclusive
    value: float
    converged: bool
    round_of_convergence: int | None
    residual: float  # at segment end


@dataclass(frozen=True)
class ConvergenceReport:
    converged: bool
    round_of_convergence: int | None
    residual: float
    velocity_residual: float | None
    classification: str  # converged | stalled | budget-exhausted
    segments: tuple[SegmentReport, ...] = ()

    def __post_init__(self):
        if self.converged and self.round_of_convergence is None:
            raise EngineError("converged report requires a round")


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


class _MessageLog:
    """Optional streaming sink for per-round delivered messages."""

    def __init__(self, fh):
        self.writer = csv.writer(fh)
        self.writer.writerow(["round", "src", "dst", "path", "value", "tampered"])

    def record(self, k, delivered, senders, adversaries):
        for i in sorted(delivered):
            for m in delivered[i]:
                nodes = m.path.nodes
                src = nodes[0]
                tampered = src in adversaries or m.value != senders[src]
                self.writer.writerow(
                    [k, src, i, "-".join(map(str, nodes)), repr(m.value), int(tampered)]
                )


def _initial_axis_state(scenario: Scenario, axis: int):
    """Initial (x, v) maps for one axis; x holds the consensus variable."""
    ref0 = scenario.reference.value_at(0)
    x: dict[int, float] = {}
    v: dict[int, float] = {}
    for i in scenario.schedule.graphs[0].nodes:
        if i in scenario.init:
            vals = scenario.init[i][axis]
            x[i] = vals[0]
            v[i] = vals[1] if len(vals) > 1 else 0.0
        elif i in scenario.leaders:
            x[i] = ref0
            v[i] = 0.0
        elif i in scenario.scripts:
            x[i] = scenario.scripts[i].default.value(0)
            v[i] = 0.0
        else:
            # Followers without init are virtual leaders in secure mode.
            x[i] = ref0
            v[i] = 0.0
    return x, v


def _envelope(states: dict[int, float], nodes: frozenset[int]) -> tuple[float, float]:
    vals = [states[i] for i in nodes]
    return min(vals), max(vals)


def run_axis(scenario: Scenario, axis: int, message_log: _MessageLog | None = None) -> Trace:
    """Simulate one axis to convergence or budget exhaustion.

    Node roles are fixed before the loop. Anchors (the normal leaders, and in
    secure mode the normal virtual leaders) adopt the reference each round;
    the other normal followers trim and average; adversaries follow their
    scripts.
    """
    schedule = scenario.schedule
    second = scenario.second_order
    scripts = scenario.scripts
    adversaries = scenario.adversaries
    normal_followers = scenario.normal_followers
    ref = scenario.reference
    anchors = scenario.normal_leaders
    # Secure mode exchanges values among the followers only.
    exchange = schedule
    if scenario.algorithm == "mw-msr-secure":
        anchors |= scenario.secure_virtual_leaders() & normal_followers
        exchange = schedule.induced(scenario.followers)
    anchor_followers = anchors & normal_followers
    trimming = normal_followers - anchors
    self_paths = {i: Path((i,)) for i in trimming}

    x, v = _initial_axis_state(scenario, axis)
    trace = Trace(
        scenario_name=scenario.name,
        fingerprint=scenario.fingerprint(),
        axis=axis,
        second_order=second,
        n=schedule.n,
        leaders=scenario.leaders,
        adversaries=adversaries,
        reference=ref,
        K=schedule.max_interval_length,
        params=scenario.params,
    )
    metric_nodes = trace.normal_nodes
    budget = scenario.max_rounds if scenario.budget is None else scenario.budget
    last_piece_start = ref.pieces[-1][0]
    run_length = 0
    # V_hat spans rounds k-1 and k; at round 0 it spans round 0 alone.
    prev_lo, prev_hi = _envelope(x, metric_nodes)

    for k in range(budget + 1):
        # Metrics on the state at round k.
        lo, hi = _envelope(x, metric_nodes)
        r_now = ref.value_at(k)
        res = max((abs(x[i] - r_now) for i in normal_followers), default=0.0)
        trace.x.append(dict(x))
        trace.V.append(hi - lo)
        if second:
            trace.v.append(dict(v))
            trace.V_hat.append(max(hi, prev_hi) - min(lo, prev_lo))
            prev_lo, prev_hi = lo, hi
            res = max(res, max((abs(v[i]) for i in normal_followers), default=0.0))
        trace.residual.append(res)

        run_length = run_length + 1 if res <= scenario.tol else 0
        if run_length >= scenario.window and k >= last_piece_start:
            break
        if k == budget:
            break

        # Exchange over the round's graph.
        g = exchange.graph_at(k)
        paths = _paths_for(g, scenario.l)
        delivered = relay_round(g, x, scenario.l, k, scripts, paths)
        if message_log is not None:
            message_log.record(k, delivered, x, adversaries)

        # Anchored followers average nothing; they record their own value.
        means = {i: x[i] for i in anchor_followers}
        next_x, next_v = dict(x), dict(v)
        for i in trimming:
            ms = delivered[i] + (Message(x[i], self_paths[i]),)
            trace.max_msgset = max(trace.max_msgset, len(ms))
            means[i] = mw_msr_update(mw_msr_trim(ms, x[i], scenario.f))
            if second:
                u = mdp_msr_control(means[i], x[i], v[i], scenario.params)
                next_x[i], next_v[i] = second_order_step(x[i], v[i], u, scenario.params.T)
            else:
                next_x[i] = means[i]
        trace.retained_mean.append(means)

        for d in anchors:
            next_x[d] = r_now
            next_v[d] = 0.0
        for a in adversaries:
            next_x[a] = scripts[a].default.value(k + 1)
            next_v[a] = 0.0

        x, v = next_x, next_v

    return trace


def run(scenario: Scenario, out_dir: FsPath | str | None = None) -> SimulationResult:
    """Validate, simulate every axis, and optionally write trace files."""
    scenario.validate()
    out = FsPath(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    traces = []
    for axis in range(scenario.axes):
        log_fh = None
        log = None
        if out is not None:
            log_fh = open(out / f"{scenario.name}_axis{axis}_messages.csv", "w", newline="")
            log = _MessageLog(log_fh)
        try:
            trace = run_axis(scenario, axis, log)
        finally:
            if log_fh is not None:
                log_fh.close()
        traces.append(trace)
        if out is not None:
            write_trace_csv(trace, out / f"{scenario.name}_axis{axis}_trace.csv")
    reports = tuple(
        convergence_report(t, scenario.tol, scenario.window) for t in traces
    )
    return SimulationResult(scenario, tuple(traces), reports)


def convergence_report(trace: Trace, tol: float, window: int) -> ConvergenceReport:
    """Windowed residual test, re-applied within each reference segment."""
    if tol <= 0:
        raise EngineError(f"tolerance must be positive, got {tol}")
    rounds = trace.rounds
    segments = []
    for seg_range, value in trace.reference.segments(rounds):
        run_len, conv_round = 0, None
        for k in seg_range:
            run_len = run_len + 1 if trace.residual[k] <= tol else 0
            if run_len >= window and conv_round is None:
                conv_round = k - window + 1
        segments.append(
            SegmentReport(
                seg_range.start, seg_range.stop, value,
                conv_round is not None, conv_round, trace.residual[seg_range.stop - 1],
            )
        )

    last = segments[-1]
    # A run that ends before the last reference step has not tracked it.
    reached = last.start == trace.reference.pieces[-1][0]
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
        converged=converged,
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
    nodes = trace.normal_nodes
    two_step = trace.second_order
    for seg_range, _ in trace.reference.segments(trace.rounds):
        ks = [k for k in seg_range]
        # Leaders move to the new reference one round after a step change,
        # so start nesting once the envelope actually contains it.
        start = ks[0] + 1 if ks[0] > 0 else 0
        prev = None
        for k in range(start, ks[-1] + 1):
            lo, hi = _envelope(trace.x[k], nodes)
            if two_step and k > start:
                plo, phi = _envelope(trace.x[k - 1], nodes)
                lo, hi = min(lo, plo), max(hi, phi)
            if prev is not None:
                plo_e, phi_e = prev
                if lo < plo_e or hi > phi_e:
                    return False
            prev = (lo, hi)
    return True


def contraction_oracle(trace: Trace, k1: int | None = None) -> bool:
    """Geometric decay of the consensus error at contraction-period samples.

    Uses the weight lower bound alpha = 1/(max message-set size) for
    first-order traces and the two-step coefficient bound (T^2/2) * alpha
    for second-order ones.
    """
    w = len(trace.normal_followers)
    period = (w + 1) * trace.K
    alpha = 1.0 / trace.max_msgset
    if trace.second_order:
        alpha *= trace.params.T ** 2 / 2
        series = trace.V_hat
    else:
        series = trace.V
    if k1 is None:
        k1 = trace.reference.pieces[-1][0]
        if k1 > 0:
            k1 += 1  # leaders adopt a step change one round later
        elif trace.second_order:
            k1 = 1  # the two-step envelope needs a predecessor round
    rate = 1.0 - alpha**period
    v1 = series[k1]
    delta = 0
    while k1 + (delta + 1) * period < trace.rounds:
        delta += 1
        if series[k1 + delta * period] > rate**delta * v1:
            return False
    return True


def two_step_identity_deviation(trace: Trace) -> float:
    """Max deviation from the eliminated-velocity two-step recursion of the
    second-order update; should vanish to rounding error."""
    if not trace.second_order:
        raise EngineError("two-step identity applies to second-order traces")
    T, beta = trace.params.T, trace.params.beta
    worst = 0.0
    for k in range(1, len(trace.retained_mean)):
        for i in trace.normal_followers:
            d_k = trace.retained_mean[k][i] - trace.x[k][i]
            d_prev = trace.retained_mean[k - 1][i] - trace.x[k - 1][i]
            predicted = (
                (2 - T * beta) * trace.x[k][i]
                + (T**2 / 2) * (d_k + d_prev)
                - (1 - T * beta) * trace.x[k - 1][i]
            )
            worst = max(worst, abs(trace.x[k + 1][i] - predicted))
    return worst


# ---------------------------------------------------------------------------
# Trace output


def write_trace_csv(trace: Trace, path: FsPath | str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["round", "node", "role", "x"]
        if trace.second_order:
            header.append("v")
        header += ["V", "V_hat"]
        writer.writerow(header)
        for k in range(trace.rounds):
            for i in range(1, trace.n + 1):
                if i in trace.adversaries:
                    role = "adversary"
                elif i in trace.leaders:
                    role = "leader"
                else:
                    role = "follower"
                row = [k, i, role, repr(trace.x[k][i])]
                if trace.second_order:
                    row.append(repr(trace.v[k][i]))
                row += [
                    repr(trace.V[k]),
                    repr(trace.V_hat[k]) if trace.second_order else "",
                ]
                writer.writerow(row)
