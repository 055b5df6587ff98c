"""Output checks. Each function returns a list of failure messages; an
operation with any failure counts as failed.

Simulations: pinned trace digests and classifications (for pinned seeds),
the classification every seed of the family must reach, envelope nesting on
converged axes and the two-step identity on second-order axes.

Checker queries: the verdict known by construction or by the corpus claim,
re-verification of every certificate through public calls, and consistency
with the necessary conditions.
"""

from __future__ import annotations

import hashlib

from rclab.adversary import validate_f_local
from rclab.engine import envelope_nesting_holds, two_step_identity_deviation
from rclab.robustness import jointly_reachable

TWO_STEP_TOL = 1e-10
NOT_CONVERGED = ("stalled", "budget-exhausted")


def trace_digest(trace) -> str:
    """SHA-256 of the per-round x (and v) values of every node, as repr."""
    h = hashlib.sha256()
    for k in range(trace.rounds):
        row = trace.x[k]
        h.update(" ".join(repr(row[i]) for i in sorted(row)).encode())
        if trace.second_order:
            row = trace.v[k]
            h.update(b"|" + " ".join(repr(row[i]) for i in sorted(row)).encode())
        h.update(b"\n")
    return h.hexdigest()


def check_simulation(op: dict, result, digests: list[str]) -> list[str]:
    """``op`` is the manifest entry; ``digests`` are the traces' digests."""
    name = op["name"]
    failures = []
    classes = [r.classification for r in result.reports]
    family = op["classification"]
    for axis, (got, want) in enumerate(zip(classes, family)):
        ok = got == "converged" if want == "converged" else got in NOT_CONVERGED
        if not ok:
            failures.append(f"{name} axis {axis}: classification {got}, family expects {want}")
    if len(classes) != len(family):
        failures.append(f"{name}: {len(classes)} axes, expected {len(family)}")
    pinned = op.get("pinned")
    if pinned is not None:
        if result.scenario.fingerprint() != pinned["fingerprint"]:
            failures.append(f"{name}: scenario fingerprint differs from the pinned one")
        if digests != pinned["digests"]:
            failures.append(f"{name}: trace digests differ from the pinned ones")
        if classes != pinned["classification"]:
            failures.append(f"{name}: classification {classes} != pinned {pinned['classification']}")
    for axis, (trace, report) in enumerate(zip(result.traces, result.reports)):
        if report.converged and not envelope_nesting_holds(trace):
            failures.append(f"{name} axis {axis}: envelope nesting violated")
        if trace.second_order:
            dev = two_step_identity_deviation(trace)
            if not dev <= TWO_STEP_TOL:
                failures.append(f"{name} axis {axis}: two-step identity deviation {dev:.3g}")
    return failures


def check_query(op: dict, query, verdict, conditions) -> list[str]:
    """``op`` is the manifest entry of a RobustnessQuery with its expected
    verdict (``holds``) and, for planted traps, the trap set."""
    name = op["name"]
    failures = []
    if verdict.holds != op["holds"]:
        failures.append(f"{name}: verdict holds={verdict.holds}, expected {op['holds']}")
    if verdict.holds:
        if op.get("trap"):
            failures.append(f"{name}: holds although a trap {op['trap']} is planted")
        failed = [c for c, ok in conditions if not ok]
        if failed and query.r >= query.f + 1:
            failures.append(f"{name}: holds although necessary conditions fail: {failed}")
        return failures
    failures += check_certificate(name, query, verdict.certificate)
    return failures


def check_certificate(name: str, query, cert) -> list[str]:
    """A certificate (F, S, interval) is valid when F is f-local, S is a
    nonempty set of surviving followers, and no node of S is jointly
    r-reachable in the interval once F is removed."""
    schedule = query.schedule
    intervals = schedule.intervals()
    if cert is None:
        return [f"{name}: failing verdict without certificate"]
    if not 0 <= cert.interval_index < len(intervals):
        return [f"{name}: certificate interval {cert.interval_index} out of range"]
    followers = set(range(1, schedule.n + 1)) - query.leaders - cert.F
    if not cert.S or not cert.S <= followers:
        return [f"{name}: certificate S={sorted(cert.S)} is not a set of surviving followers"]
    failures = []
    if not validate_f_local(cert.F, schedule, query.l, query.f).f_local:
        failures.append(f"{name}: certificate F={sorted(cert.F)} is not {query.f}-local")
    interval = intervals[cert.interval_index]
    for i in sorted(cert.S):
        reachable, _ = jointly_reachable(
            schedule, interval, cert.S, i, query.r, query.l,
            forbidden=cert.F, relays_inside_s=query.relays_inside_s,
        )
        if reachable:
            failures.append(f"{name}: node {i} of certificate S is jointly {query.r}-reachable")
    return failures
