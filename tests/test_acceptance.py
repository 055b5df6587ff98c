"""End-to-end acceptance checks. Each test prints one PASS/FAIL line."""

import hashlib
import importlib.util
import json
import random
import time
from pathlib import Path as FsPath

from rclab import agents
from rclab.adversary import necessity_attack
from rclab.engine import (
    contraction_oracle,
    envelope_nesting_holds,
    run,
    two_step_identity_deviation,
)
from rclab.graphs import DiGraph, Path, TopologySchedule, all_paths_into, union_graph
from rclab.messaging import Message, mmc_cardinality
from rclab.robustness import (
    RobustnessQuery,
    is_jointly_robust_following,
    is_robust_following_static,
    necessary_conditions,
    strongly_robust_wrt_leaders,
)
from rclab.scenario import (
    ControlParams,
    ReferenceFunction,
    Scenario,
    corpus_path,
    load_scenario,
    load_topology,
)
from oracles import mmc_brute_force_oracle

SCENARIOS = (
    "fig4a_1hop",
    "fig4b_3hop",
    "fig5_staircase",
    "fig7a_1hop_second_order",
    "fig7b_2hop_second_order",
    "fig8_aug_1hop_second_order",
    "formation_2hop_second_order",
    "secure_leader",
)

OPERATING_POINTS = {
    "net9": (2, 2, 1),
    "net9_aug": (2, 1, 1),
    "net15": (3, 3, 2),
}

# The benchmark's pinned seed-0 traces are the shipped corpus scenarios.
PINNED = FsPath(__file__).resolve().parents[1] / "perfbench" / "pinned.json"

_RESULTS = {}


def corpus_run(name):
    if name not in _RESULTS:
        _RESULTS[name] = run(load_scenario(corpus_path(name)))
    return _RESULTS[name]


def check(num, description, condition):
    verdict = "PASS" if condition else "FAIL"
    print(f"criterion {num:2d} {verdict}: {description}")
    assert condition, f"criterion {num}: {description}"


def test_criterion_01_nine_node_schedule():
    schedule, leaders = load_topology(corpus_path("net9"))
    t0 = time.perf_counter()
    fail = is_jointly_robust_following(RobustnessQuery(schedule, leaders, 2, 1, 1))
    hold = is_jointly_robust_following(RobustnessQuery(schedule, leaders, 2, 2, 1))
    elapsed = time.perf_counter() - t0
    ok = (
        not fail.holds
        and fail.certificate.F == frozenset({5})
        and fail.certificate.S == frozenset({1, 2, 3, 6})
        and hold.holds
        and elapsed < 10.0
    )
    check(1, f"9-node verdicts with certificate in {elapsed:.2f}s", ok)


def test_criterion_02_fifteen_node_schedule():
    schedule, leaders = load_topology(corpus_path("net15"))
    t0 = time.perf_counter()
    fail = is_jointly_robust_following(RobustnessQuery(schedule, leaders, 3, 1, 2))
    hold = is_jointly_robust_following(RobustnessQuery(schedule, leaders, 3, 3, 2))
    elapsed = time.perf_counter() - t0
    ok = (
        not fail.holds
        and fail.certificate.F == frozenset({7, 8})
        and hold.holds
        and elapsed < 60.0
    )
    check(2, f"15-node verdicts with certificate in {elapsed:.2f}s", ok)


def test_criterion_03_strong_robustness_implication():
    rng = random.Random(20240817)
    f = 1
    counterexamples = 0
    implications = 0
    for _ in range(500):
        n = rng.randint(4, 8)
        edges = [
            (j, i)
            for j in range(1, n + 1)
            for i in range(1, n + 1)
            if j != i and rng.random() < 0.55
        ]
        if not edges:
            continue
        g = DiGraph.from_edges(n, edges)
        leaders = frozenset(rng.sample(range(1, n + 1), rng.randint(1, n - 1)))
        if not strongly_robust_wrt_leaders(g, leaders, 2 * f + 1):
            continue
        implications += 1
        if not is_robust_following_static(g, leaders, f + 1, 1, f).holds:
            counterexamples += 1

    schedule, leaders = load_topology(corpus_path("net9_aug"))
    union = union_graph(schedule)
    converse = (
        is_robust_following_static(union, leaders, 2, 1, 1).holds
        and not strongly_robust_wrt_leaders(union, leaders, 3)
    )
    ok = counterexamples == 0 and implications > 0 and converse
    check(
        3,
        f"implication on 500 random digraphs ({implications} hits, "
        f"{counterexamples} counterexamples) and the converse failure",
        ok,
    )


def test_criterion_04_first_order_dichotomy():
    one_hop = corpus_run("fig4a_1hop")
    three_hop = corpus_run("fig4b_3hop")
    ok = (
        not one_hop.converged
        and one_hop.residual > 0.1
        and three_hop.converged
        and three_hop.residual < 1e-6
    )
    check(
        4,
        f"1-hop stalls (residual {one_hop.residual:.3f}), "
        f"3-hop converges (residual {three_hop.residual:.2e})",
        ok,
    )


def test_criterion_05_staircase_tracking():
    result = corpus_run("fig5_staircase")
    segments = result.reports[0].segments
    ok = (
        len(segments) == 2
        and all(s.converged for s in segments)
        and all(s.residual < 1e-6 for s in segments)
    )
    check(
        5,
        "both reference segments re-converge below 1e-6: "
        + ", ".join(f"{s.residual:.2e}" for s in segments),
        ok,
    )


def test_criterion_06_second_order_dichotomy():
    p = ControlParams(T=0.8, beta=1.65)
    lo, hi = 1 + p.T**2 / 2, 2 - p.T**2 / 2
    gate = abs(p.beta * p.T - 1.32) < 1e-12 and lo <= p.beta * p.T <= hi and (lo, hi) == (1.32, 1.68)

    one_hop = corpus_run("fig7a_1hop_second_order")
    two_hop = corpus_run("fig7b_2hop_second_order")
    augmented = corpus_run("fig8_aug_1hop_second_order")
    ok = (
        gate
        and not one_hop.converged
        and two_hop.converged
        and all(
            r.residual < 1e-6 and r.velocity_residual < 1e-6
            for r in two_hop.reports
        )
        and augmented.converged
    )
    check(
        6,
        "damping gate at the boundary, 1-hop fails, 2-hop converges on both "
        "axes, augmented graph converges at 1 hop",
        ok,
    )


def test_criterion_07_trace_oracles():
    checked = 0
    ok = True
    for name in SCENARIOS:
        result = corpus_run(name)
        for trace, report in zip(result.traces, result.reports):
            if not report.converged:
                continue
            checked += 1
            ok = ok and envelope_nesting_holds(trace)
            ok = ok and contraction_oracle(trace)
            if trace.second_order:
                ok = ok and two_step_identity_deviation(trace) <= 1e-10
    check(7, f"envelope, contraction, and two-step oracles on {checked} converging traces", ok)


def stall_replay(topology, f, rounds=1000):
    schedule, leaders = load_topology(corpus_path(topology))
    verdict = is_jointly_robust_following(RobustnessQuery(schedule, leaders, f + 1, 1, f))
    assert not verdict.holds
    cert = verdict.certificate
    scripts, stall_init = necessity_attack(cert, reference_value=1.0, stall_value=0.0)
    init = {i: ((v,),) for i, v in stall_init.items()}
    followers = frozenset(schedule.graphs[0].nodes) - leaders
    for i in followers - cert.F - cert.S:
        init[i] = ((1.0,),)
    scenario = Scenario(
        name=f"{topology}_stall",
        schedule=schedule,
        leaders=leaders,
        algorithm="mw-msr",
        f=f,
        l=1,
        reference=ReferenceFunction.constant(1.0),
        init=init,
        scripts=scripts,
        max_rounds=rounds,
    )
    trace = run(scenario).traces[0]
    pinned = all(
        trace.x[k][i] == 0.0 for k in range(trace.rounds) for i in cert.S
    )
    constant = len(set(trace.residual)) == 1
    return trace.rounds, pinned and constant


def test_criterion_08_necessity_replays():
    rounds9, ok9 = stall_replay("net9", f=1)
    rounds15, ok15 = stall_replay("net15", f=2)
    ok = ok9 and ok15 and rounds9 > 1000 and rounds15 > 1000
    check(
        8,
        f"certificate attacks pin the trapped sets exactly for {rounds9 - 1} "
        f"and {rounds15 - 1} rounds",
        ok,
    )


def test_criterion_09_cover_solver_matches_oracle():
    rng = random.Random(991)
    compared = 0
    ok = True
    while compared < 1000:
        n = rng.randint(3, 10)
        edges = [
            (j, i)
            for j in range(1, n + 1)
            for i in range(1, n + 1)
            if j != i and rng.random() < 0.4
        ]
        g = DiGraph.from_edges(n, edges)
        dst = rng.randint(1, n)
        paths = all_paths_into(g, dst, rng.randint(1, 3))
        if not paths:
            continue
        picked = rng.sample(paths, min(len(paths), rng.randint(1, 6)))
        ms = tuple(Message(float(i), p) for i, p in enumerate(picked))
        ok = ok and mmc_cardinality(ms, len(ms)) == mmc_brute_force_oracle(ms)
        compared += 1
    check(9, f"exact cover cardinality on {compared} random message sets", ok)


def test_criterion_10_necessary_condition_filters():
    ok = True
    for name, (r, l, f) in OPERATING_POINTS.items():
        schedule, leaders = load_topology(corpus_path(name))
        q = RobustnessQuery(schedule, leaders, r, l, f)
        ok = ok and is_jointly_robust_following(q).holds
        ok = ok and all(flag for _, flag in necessary_conditions(q))

    secure = load_scenario(corpus_path("secure_leader"))
    reduced, virtual = secure.secure_reduced()
    q = RobustnessQuery(reduced, virtual, 2, 1, 1)
    ok = ok and is_jointly_robust_following(q).holds
    ok = ok and all(flag for _, flag in necessary_conditions(q))

    def cond(graph, leaders, name, r=2, l=1, f=1):
        q = RobustnessQuery(TopologySchedule.static(graph), frozenset(leaders), r, l, f)
        return dict(necessary_conditions(q))[name]

    complete6 = DiGraph.from_edges(
        6, [(a, b) for a in range(1, 7) for b in range(1, 7) if a != b]
    )
    violations = (
        not cond(complete6, {1, 2}, "leader-count"),
        not cond(
            DiGraph.from_edges(5, [(1, 4), (2, 5), (4, 5), (5, 4)]),
            {1, 2, 3},
            "leader-coverage",
        ),
        not cond(
            DiGraph.from_edges(5, [(1, 4), (2, 4), (3, 4), (1, 5), (4, 5)]),
            {1, 2, 3},
            "follower-in-degree",
        ),
    )
    ok = ok and all(violations)
    check(
        10,
        "all three necessary conditions pass on every shipped operating point and each "
        "synthetic violation is rejected",
        ok,
    )


def trace_digest(trace):
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


def test_criterion_11_corpus_traces_bit_identical_to_pinned():
    pinned = {}
    for seeds in json.loads(PINNED.read_text()).values():
        pinned.update(seeds["0"])
    ok = sorted(pinned) == sorted(SCENARIOS)
    for name in SCENARIOS:
        result = corpus_run(name)
        want = pinned.get(name, {})
        ok = ok and result.scenario.fingerprint() == want.get("fingerprint")
        ok = ok and [trace_digest(t) for t in result.traces] == want.get("digests")
    check(11, f"{len(SCENARIOS)} corpus traces bit-identical to the pinned x/v digests", ok)


# SHA-256 of every trace and message CSV that ``run(scenario, out_dir)``
# writes for the corpus scenarios, as ``scripts/run_corpus.py --out-dir``
# prints them. A writer change that moves one byte fails here.
CSV_SHA256 = {
    "fig4a_1hop_axis0_messages.csv":
        "cbc4e2aa87176dd0ee4420e856449d321cee0c65281a52a65ee6d416f3328063",
    "fig4a_1hop_axis0_trace.csv":
        "eef7693689d2288d47a798b2adec386360757f508f3e335bfa66956ec7811814",
    "fig4b_3hop_axis0_messages.csv":
        "3a67705bd60b756415890e58e2958e3a5d769b0013727928fbc25ffad0a8d7ea",
    "fig4b_3hop_axis0_trace.csv":
        "9a26e95835838b8a37dc9b9ae584fc8442ebf82ba087299c73eaaec361a74d77",
    "fig5_staircase_axis0_messages.csv":
        "8b0c2334b6b95636e1b0c5f459dbe02464fdade85af7c71ab9bf6e8e8f304213",
    "fig5_staircase_axis0_trace.csv":
        "6eb1d479d7bf94fe6a27646e9bf1811b42e753e543465857bba44155cae9b812",
    "fig7a_1hop_second_order_axis0_messages.csv":
        "2767d42504f359a13a0de5727cd3cf1dbde698daae2a8aef9c136812710c44b9",
    "fig7a_1hop_second_order_axis0_trace.csv":
        "c17282a6b73b40fed217223c4bcfa9aa652a9916ba02af562f750cf08f1b12ae",
    "fig7a_1hop_second_order_axis1_messages.csv":
        "20bdac2563caf99266c2556822f61a57545a3041807d8d4d962b673f53ad0d23",
    "fig7a_1hop_second_order_axis1_trace.csv":
        "fed7449c789df5fa6b3eedc772ae7363ed76fd15a5a7b7e3c0bba10e51013120",
    "fig7b_2hop_second_order_axis0_messages.csv":
        "9a8fbb350f779b43dda68392357aa5076fb3e90b665050fdf009237b45277799",
    "fig7b_2hop_second_order_axis0_trace.csv":
        "a73037a007e6a9db24df09e5da5fe9e985e9c4404008b0d20d636145dbf538f3",
    "fig7b_2hop_second_order_axis1_messages.csv":
        "ba63af052644f7c1571743f37946cf1f42af1d8a4a4887200741971e6e1cbf6e",
    "fig7b_2hop_second_order_axis1_trace.csv":
        "c1be522160cfaea762d20e926fea0b63eb6b9559dbe249cf6c9502cb12368e77",
    "fig8_aug_1hop_second_order_axis0_messages.csv":
        "ebc70544ab90e2fe1f8d846c938846cec6b631b404e21a20e9996b7d8d22e4b2",
    "fig8_aug_1hop_second_order_axis0_trace.csv":
        "85d8060b935dff118d5fe4ba6e9cebd6b631bd85da333e20bbcceb634bd4810e",
    "fig8_aug_1hop_second_order_axis1_messages.csv":
        "b53462ff6295a2773c2b7d014d9a04bfb9877d9c6751fbe37e923dcf913cd24a",
    "fig8_aug_1hop_second_order_axis1_trace.csv":
        "bafefe1cfad5df57b4c522d94709ea0efe71bc110d07bcbccdab9bf4be54ecab",
    "formation_2hop_second_order_axis0_messages.csv":
        "9a8fbb350f779b43dda68392357aa5076fb3e90b665050fdf009237b45277799",
    "formation_2hop_second_order_axis0_trace.csv":
        "a73037a007e6a9db24df09e5da5fe9e985e9c4404008b0d20d636145dbf538f3",
    "formation_2hop_second_order_axis1_messages.csv":
        "ba63af052644f7c1571743f37946cf1f42af1d8a4a4887200741971e6e1cbf6e",
    "formation_2hop_second_order_axis1_trace.csv":
        "c1be522160cfaea762d20e926fea0b63eb6b9559dbe249cf6c9502cb12368e77",
    "secure_leader_axis0_messages.csv":
        "d6e762ba946967059e22cf3bf36872893249c89448afd7c43e478d5e96211cc9",
    "secure_leader_axis0_trace.csv":
        "e7c8ad029a452c060b8024c22df51d97d955739f21e7ca8487d540ab6d299a6e",
}


def test_corpus_csv_bytes_pinned(tmp_path):
    for name in SCENARIOS:
        run(load_scenario(corpus_path(name)), tmp_path)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert len(got) == 24
    assert got == CSV_SHA256


# SHA-256 of the residual and retained_mean series of each axis, as
# ``scripts/run_corpus.py``'s ``series_digest`` takes them. The x/v digests
# are pinned in ``perfbench/pinned.json`` and V, V_hat by the trace CSVs.
SERIES_SHA256 = {
    "fig4a_1hop": [
        ("ce6cda47bd79970cca354eaf676b6b9f2ce72e349d79b18c54340c32c8f2abc5",
         "2a85a990e9604dd4e8595947f3d9dc76403369ac5180add058369a315a28b5a2"),
    ],
    "fig4b_3hop": [
        ("249cb3cca961c3c8fa61cf389ead4232aa77471a099e958829610a84772eeea1",
         "785c94a45e830a564d157438236a3f6bc040cae3a3313416738bd2234e19ee0c"),
    ],
    "fig5_staircase": [
        ("7e38f84b3da5cec4141192d7610ec23fca20e20bbe8fa0fa02510f8280d14d8a",
         "feb63fc7ce8df5dd784c716c9bfb4a510a8ce67370377ccf33f1f665406fdc36"),
    ],
    "fig7a_1hop_second_order": [
        ("875aeb79cb88a05197ba889764ccc9a3bbd1f997d809000412c3d1d764d06ba5",
         "952178a1edee1e0327a1af7bb22d15210a6d15f059dd9f663ac4f07cd7f741cd"),
        ("87f3bc531af3d6d288049f5980635f968cae266d91cb396a8af669adb47e4d7e",
         "dc692f48b7ddef89772b39258d07e03547a784c9e21aa67497cae070e121e1a2"),
    ],
    "fig7b_2hop_second_order": [
        ("a213afa0159a2d1f704cf8d7553737865803418786b534de09d07da436229e6d",
         "3606a876bfcd463b0f636fd02e9cf815b57dc2dbe1cb2a547ccd03a535898805"),
        ("f4dff4670240f427416bb7c19703b5b9827246e706e1960dcc1bb13ea65e99ba",
         "2b1f1532e49d02d7a5954dc03c5d624327517a0ce5734fe30fd46c110c0f4075"),
    ],
    "fig8_aug_1hop_second_order": [
        ("bfdef244f33ce3accfd7c8559b8972d77800a2a7b2b38bf3b3739a7d0455ceaa",
         "4abdd4f617d0cc1ad059240ab7ba1ad90b9159dac50045a95f7c61ad465e1b38"),
        ("eca26b3a20ab95f172fc4903dd945eeb25ef70d747c80efd219d694aebc73e70",
         "8b99d185681034af27e537cf6ca34b90b5dea6256cc50fc8bf31333828b57c9f"),
    ],
    "formation_2hop_second_order": [
        ("a213afa0159a2d1f704cf8d7553737865803418786b534de09d07da436229e6d",
         "3606a876bfcd463b0f636fd02e9cf815b57dc2dbe1cb2a547ccd03a535898805"),
        ("f4dff4670240f427416bb7c19703b5b9827246e706e1960dcc1bb13ea65e99ba",
         "2b1f1532e49d02d7a5954dc03c5d624327517a0ce5734fe30fd46c110c0f4075"),
    ],
    "secure_leader": [
        ("8ac2ccd7274e81530d75d2096120dfd3e56a84ddc859be245893f49a2c87bd5c",
         "c1a5933114842e8babeceed7363101e938f0930982ee7efe4c47f034ccee8f20"),
    ],
}


def test_corpus_residual_and_retained_mean_pinned():
    path = FsPath(__file__).resolve().parents[1] / "scripts" / "run_corpus.py"
    spec = importlib.util.spec_from_file_location("run_corpus", path)
    run_corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_corpus)
    assert sorted(SERIES_SHA256) == sorted(SCENARIOS)
    for name in SCENARIOS:
        got = [(run_corpus.series_digest(t.residual), run_corpus.series_digest(t.retained_mean))
               for t in corpus_run(name).traces]
        assert got == SERIES_SHA256[name], name


def test_trim_memo_is_per_run():
    # fig5_staircase and fig4b_3hop share net15 and f, so a trim memo kept
    # across runs would answer the second from the first's cuts. Each must
    # still match its pinned digest, and the memo must live with the run.
    pinned = json.loads(PINNED.read_text())["sim-deep"]["0"]
    for name in ("fig5_staircase", "fig4b_3hop"):
        result = run(load_scenario(corpus_path(name)))
        assert [trace_digest(t) for t in result.traces] == pinned[name]["digests"], name
    module_state = [name for name, value in vars(agents).items()
                    if not name.startswith("__") and isinstance(value, (dict, list, set))]
    assert module_state == []
