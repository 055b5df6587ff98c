#!/usr/bin/env python3
"""Turn a robustness-checker certificate into a stalling attack and replay it.

Given a corpus topology and parameters where the property fails, the checker
yields a witness (F, S). The generated attack makes every node of F Byzantine
(reporting the stall value into S and the reference elsewhere); with S
initialized at the stall value, nodes in S can never tell the false sources
from honest ones and remain exactly where they started.
"""

import argparse

from rclab.adversary import necessity_attack
from rclab.engine import run
from rclab.robustness import RobustnessQuery, is_jointly_robust_following
from rclab.scenario import ReferenceFunction, Scenario, load_topology, resolve_file


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--topology", default="net9")
    ap.add_argument("--r", type=int, default=2)
    ap.add_argument("--l", type=int, default=1)
    ap.add_argument("--f", type=int, default=1)
    ap.add_argument("--reference", type=float, default=1.0)
    ap.add_argument("--stall", type=float, default=0.0)
    ap.add_argument("--rounds", type=int, default=1000)
    args = ap.parse_args()

    schedule, leaders = load_topology(resolve_file(args.topology))
    verdict = is_jointly_robust_following(
        RobustnessQuery(schedule, leaders, args.r, args.l, args.f)
    )
    if verdict.holds:
        print("property holds; nothing to replay")
        raise SystemExit(0)
    cert = verdict.certificate
    print(f"certificate: F={sorted(cert.F)} S={sorted(cert.S)}")

    scripts, stalled = necessity_attack(cert, args.reference, args.stall)
    others = sorted(set(range(1, schedule.n + 1)) - leaders - cert.F - cert.S)
    values = {**stalled, **dict.fromkeys(others, args.reference)}
    init = {i: ((v,),) for i, v in values.items()}  # one axis, x only
    scenario = Scenario(
        name="necessity-replay",
        schedule=schedule,
        leaders=leaders,
        algorithm="mw-msr",
        f=args.f,
        l=args.l,
        reference=ReferenceFunction.constant(args.reference),
        init=init,
        scripts=scripts,
        max_rounds=args.rounds,
    )
    result = run(scenario)
    trace = result.traces[0]
    stuck = all(
        trace.x[k][i] == args.stall for k in range(trace.rounds) for i in cert.S
    )
    print(
        f"rounds={trace.rounds - 1} classification={result.reports[0].classification} "
        f"residual={result.reports[0].residual} S pinned at {args.stall}: {stuck}"
    )


if __name__ == "__main__":
    main()
