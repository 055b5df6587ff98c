#!/usr/bin/env python3
"""Machine-verify the robustness claims of every shipped corpus topology.

Any authored topology failing its claim would be rejected from the corpus;
this script is the audit trail for the claims baked into the YAML comments.
Each verdict line ends with the time the verdict took (``time.perf_counter``).
"""

import time

from rclab.graphs import union_graph
from rclab.robustness import (
    RobustnessQuery,
    is_jointly_robust_following,
    is_robust_following_static,
    necessary_conditions,
    strongly_robust_wrt_leaders,
)
from rclab.scenario import corpus_path, load_scenario, load_topology


def check(label, got, want, seconds=None):
    status = "OK " if got == want else "FAIL"
    timing = "" if seconds is None else f"  [{seconds:.3f}s]"
    print(f"{status:5s}{label}: {got}{timing}")
    return got == want


def timed(fn, *args):
    """(fn(*args), seconds it took)."""
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def main():
    ok = True
    t0 = time.perf_counter()

    sched9, l9 = load_topology(corpus_path("net9"))
    v, s = timed(is_jointly_robust_following, RobustnessQuery(sched9, l9, r=2, l=1, f=1))
    ok &= check("net9 r=2 l=1 f=1", v.holds, False, s)
    ok &= check("  certificate F", set(v.certificate.F), {5})
    ok &= check("  certificate S", set(v.certificate.S), {1, 2, 3, 6})
    v, s = timed(is_jointly_robust_following, RobustnessQuery(sched9, l9, r=2, l=2, f=1))
    ok &= check("net9 r=2 l=2 f=1", v.holds, True, s)

    sched9a, _ = load_topology(corpus_path("net9_aug"))
    v, s = timed(is_jointly_robust_following, RobustnessQuery(sched9a, l9, r=2, l=1, f=1))
    ok &= check("net9_aug r=2 l=1 f=1", v.holds, True, s)
    u = union_graph(sched9a)
    strong, s = timed(strongly_robust_wrt_leaders, u, l9, 3)
    ok &= check("union(net9_aug) strongly 3-robust wrt leaders", strong, False, s)
    v, s = timed(is_robust_following_static, u, l9, 2, 1, 1)
    ok &= check("union(net9_aug) robust following r=2 l=1 f=1", v.holds, True, s)

    sched15, l15 = load_topology(corpus_path("net15"))
    v, s = timed(is_jointly_robust_following, RobustnessQuery(sched15, l15, r=3, l=1, f=2))
    ok &= check("net15 r=3 l=1 f=2", v.holds, False, s)
    ok &= check("  certificate F", set(v.certificate.F), {7, 8})
    v, s = timed(is_jointly_robust_following, RobustnessQuery(sched15, l15, r=3, l=3, f=2))
    ok &= check("net15 r=3 l=3 f=2", v.holds, True, s)

    # Strict relays (relays outside S too) count only one-hop paths, so the
    # relay gain above rests on the default reading.
    for name, sched, leaders, (r, l, f), want in [
        ("net9", sched9, l9, (2, 2, 1), ({5}, {1, 2, 3, 6}, 0)),
        ("net15", sched15, l15, (3, 3, 2), ({7, 8}, {1, 2, 3, 4, 5, 6, 9, 10}, 0)),
    ]:
        q = RobustnessQuery(sched, leaders, r, l, f, relays_inside_s=False)
        v, s = timed(is_jointly_robust_following, q)
        ok &= check(f"{name} r={r} l={l} f={f} strict relays", v.holds, False, s)
        if v.certificate is not None:
            cert = v.certificate
            ok &= check("  certificate (F, S, interval)",
                        (set(cert.F), set(cert.S), cert.interval_index), want)

    # Period 6: the net9 or net15 graphs twice, so the partition into
    # intervals alone decides the verdict.
    for name, (r, l, f), want in [
        ("net9_intervals_3_3", (2, 2, 1), None),
        ("net9_intervals_2_2_2", (2, 2, 1), (set(), {1, 2, 3, 6}, 0)),
        ("net15_intervals_2_2_2", (3, 3, 2), (set(), {1, 2, 3, 4, 5, 6, 9, 10}, 0)),
    ]:
        sched, leaders = load_topology(corpus_path(name))
        v, s = timed(is_jointly_robust_following, RobustnessQuery(sched, leaders, r, l, f))
        ok &= check(f"{name} r={r} l={l} f={f}", v.holds, want is None, s)
        if want is not None and v.certificate is not None:
            cert = v.certificate
            ok &= check("  certificate (F, S, interval)",
                        (set(cert.F), set(cert.S), cert.interval_index), want)

    reduced, virtual = load_scenario(corpus_path("secure_leader")).secure_reduced()
    v, s = timed(is_jointly_robust_following, RobustnessQuery(reduced, virtual, r=2, l=1, f=1))
    ok &= check("net7_secure reduced r=2 l=1 f=1", v.holds, True, s)

    for name, sched, leaders, (r, l, f) in [
        ("net9", sched9, l9, (2, 2, 1)),
        ("net9_aug", sched9a, l9, (2, 1, 1)),
        ("net15", sched15, l15, (3, 3, 2)),
        ("net7_secure(reduced)", reduced, virtual, (2, 1, 1)),
    ]:
        conds, s = timed(necessary_conditions, RobustnessQuery(sched, leaders, r, l, f))
        ok &= check(f"{name} necessary conditions", all(p for _, p in conds), True, s)

    print(f"total {time.perf_counter() - t0:.2f}s — {'all claims verified' if ok else 'CLAIM MISMATCH'}")
    raise SystemExit(0 if ok else 1)


if __name__ == "__main__":
    main()
