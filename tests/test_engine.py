import csv
import dataclasses
import gc
import math
import random
import tracemalloc
from collections import Counter

import pytest

from rclab import engine
from rclab.adversary import AttackScript, Waveform, necessity_attack, validate_f_local
from rclab.agents import AgentError
from rclab.engine import (
    EngineError,
    _paths_for,
    Trace,
    contraction_oracle,
    convergence_report,
    envelope_nesting_holds,
    run,
    run_axis,
    two_step_identity_deviation,
    write_trace_csv,
)
from rclab.graphs import DiGraph, TopologySchedule, union_graph
from rclab.robustness import RobustnessQuery, is_jointly_robust_following, necessary_conditions
from rclab.scenario import (
    ALGORITHMS,
    ControlParams,
    ReferenceFunction,
    Scenario,
    ScenarioError,
    corpus_names,
    corpus_path,
    load_topology,
    parse_scenario,
)

from conftest import random_digraph, scenario as corpus_scenario
from oracles import reference_metrics, reference_run, walk_relay_round


def complete_graph(n):
    return DiGraph.from_edges(
        n, [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
    )


def make_scenario(**kw):
    defaults = dict(
        name="test",
        schedule=TopologySchedule.static(complete_graph(4)),
        leaders=frozenset({1}),
        algorithm="mw-msr",
        f=0,
        l=1,
        reference=ReferenceFunction.constant(1.0),
        init={2: ((3.0,),), 3: ((5.0,),), 4: ((2.0,),)},
        tol=1e-9,
        window=5,
        max_rounds=300,
    )
    defaults.update(kw)
    return Scenario(**defaults)


class TestRun:
    def test_plain_averaging_reaches_reference(self):
        result = run(make_scenario())
        assert result.converged
        assert result.residual <= 1e-9
        assert result.traces[0].rounds <= 200

    def test_determinism(self):
        a = run(make_scenario())
        b = run(make_scenario())
        assert a.traces[0].x == b.traces[0].x
        assert a.traces[0].scenario.fingerprint() == b.traces[0].scenario.fingerprint()

    def test_validation_failures_abort(self):
        bad = make_scenario(tol=-1.0)
        with pytest.raises(Exception):
            run(bad)

    @pytest.mark.parametrize("kw, error", [
        (dict(axes=2), "init for node 2 has 1 axes, need 2"),
        (dict(init={2: ((3.0,),), 3: ((5.0,), (1.0,)), 4: ((2.0,),)}),
         "init for node 3 has 2 axes, need 1"),
        (dict(leaders=frozenset({1, 99})), "node id 99 outside 1..4"),
    ], ids=["fewer-axes", "more-axes", "leader-id"])
    def test_invalid_scenario_is_reported_before_the_run(self, kw, error):
        # Unchecked, each reaches the loop: an init with too few axes and a
        # leader id past n raise IndexError there, and an extra axis is ignored.
        bad = make_scenario(**kw)
        with pytest.raises(ScenarioError, match=error):
            bad.validate()
        with pytest.raises(ScenarioError, match=error):
            run(bad)

    def test_isolated_follower_keeps_state(self):
        g = DiGraph.from_edges(3, [(1, 2)])
        sc = make_scenario(
            schedule=TopologySchedule.static(g),
            init={2: ((4.0,),), 3: ((2.5,),)},
            max_rounds=10,
        )
        trace = run(sc).traces[0]
        assert all(trace.x[k][3] == 2.5 for k in range(trace.rounds))

    def test_leader_follows_staircase(self):
        sc = make_scenario(
            reference=ReferenceFunction(((0, 1.0), (20, 3.0))),
            max_rounds=120,
            tol=1e-7,
            window=10,
        )
        trace = run(sc).traces[0]
        assert trace.x[20][1] == 1.0  # step published at 20 lands at 21
        assert trace.x[21][1] == 3.0

    def test_init_defaults_for_leaders(self):
        trace = run(make_scenario()).traces[0]
        assert trace.x[0][1] == 1.0


class TestMetrics:
    def test_consensus_error_zero_when_equal(self):
        sc = make_scenario(init={2: ((1.0,),), 3: ((1.0,),), 4: ((1.0,),)})
        trace = run(sc).traces[0]
        assert {trace.x[0][i] for i in trace.normal_nodes} == {1.0}
        assert trace.V[0] == 0.0

    def test_consensus_error_spread(self):
        sc = make_scenario(init={2: ((5.0,),), 3: ((1.0,),), 4: ((1.0,),)})
        trace = run(sc).traces[0]
        assert trace.V[0] == 4.0

    def test_v_hat_uses_two_rounds(self):
        sc = second_order_scenario()
        trace = run(sc).traces[0]
        for k in range(1, trace.rounds):
            lo = min(min(trace.x[k][i], trace.x[k - 1][i]) for i in trace.normal_nodes)
            hi = max(max(trace.x[k][i], trace.x[k - 1][i]) for i in trace.normal_nodes)
            assert trace.V_hat[k] == hi - lo

    def test_residual_of_signed_zeros_is_positive_zero(self):
        # Every follower holds -0.0 and the reference is 0.0: max(x) - r is
        # -0.0, while each |x_i - r| is +0.0.
        sc = make_scenario(reference=ReferenceFunction.constant(0.0),
                           init={i: ((-0.0,),) for i in (2, 3, 4)})
        trace = run_axis(sc, 0)
        assert math.copysign(1.0, trace.residual[0]) == 1.0


def second_order_scenario(**kw):
    defaults = dict(
        name="so",
        schedule=TopologySchedule.static(complete_graph(4)),
        leaders=frozenset({1}),
        algorithm="mdp-msr",
        f=0,
        l=1,
        reference=ReferenceFunction.constant(1.0),
        params=ControlParams(T=0.8, beta=1.65),
        init={2: ((3.0, 0.0),), 3: ((5.0, 0.0),), 4: ((2.0, 0.0),)},
        tol=1e-8,
        window=5,
        max_rounds=500,
    )
    defaults.update(kw)
    return Scenario(**defaults)


class TestSecondOrderRun:
    def test_converges_with_velocity(self):
        result = run(second_order_scenario())
        assert result.converged
        assert result.reports[0].velocity_residual <= 1e-8

    def test_oracles_hold(self):
        trace = run(second_order_scenario()).traces[0]
        assert envelope_nesting_holds(trace)
        assert contraction_oracle(trace)

    def test_two_step_identity_needs_second_order(self):
        assert two_step_identity_deviation(run(second_order_scenario()).traces[0]) <= 1e-10
        with pytest.raises(EngineError, match="applies to second-order traces"):
            two_step_identity_deviation(run(make_scenario()).traces[0])


class TestContractionOracle:
    @pytest.mark.parametrize("name", ["fig4a_1hop", "fig7a_1hop_second_order"])
    def test_fails_on_stalled_traces(self, name):
        result = run(corpus_scenario(name))
        assert [r.classification for r in result.reports] == ["stalled"] * len(result.traces)
        assert not any(contraction_oracle(t) for t in result.traces)


class TestEnvelopeOracle:
    def test_fails_when_the_envelope_widens_inside_a_segment(self):
        sc = make_scenario(reference=ReferenceFunction(((0, 1.0), (20, 3.0))), tol=1e-7)
        result = run(sc)
        trace = result.traces[0]
        assert result.converged and envelope_nesting_holds(trace)
        segment, _ = sc.reference.segments(trace.rounds)[-1]
        k = segment[len(segment) // 2]
        assert segment[0] + 1 < k  # nesting starts the round after the step
        # Node 3's value at round k, in the flat array of node-ordered rows.
        trace.x.data[k * sc.schedule.n + 2] = max(trace.x[k - 1][i] for i in trace.normal_nodes) + 1.0
        assert not envelope_nesting_holds(trace)


class TestConvergenceReport:
    def test_already_converged_round_zero(self):
        sc = make_scenario(init={2: ((1.0,),), 3: ((1.0,),), 4: ((1.0,),)})
        result = run(sc)
        assert result.reports[0].round_of_convergence == 0

    def test_run_cut_before_last_step_is_not_converged(self):
        ref = ReferenceFunction(((0, 1.0), (300, 2.0)))
        trace = run(make_scenario(reference=ref, max_rounds=200)).traces[0]
        report = convergence_report(trace)
        assert [seg.converged for seg in report.segments] == [True]
        assert not report.converged
        assert report.round_of_convergence is None
        assert report.classification == "budget-exhausted"

    def test_rejects_bad_tolerance(self):
        trace = run(make_scenario()).traces[0]
        trace.scenario = dataclasses.replace(trace.scenario, tol=-1.0)
        with pytest.raises(EngineError):
            convergence_report(trace)

    def test_stalled_classification(self, net9):
        schedule, leaders = net9
        verdict = is_jointly_robust_following(RobustnessQuery(schedule, leaders, 2, 1, 1))
        scripts, init = necessity_attack(verdict.certificate, 1.0)
        full = {i: ((v,),) for i, v in init.items()}
        for i in set(range(1, 10)) - leaders - verdict.certificate.F - set(init):
            full[i] = ((1.0,),)
        sc = Scenario(
            name="stall",
            schedule=schedule,
            leaders=leaders,
            algorithm="mw-msr",
            f=1,
            l=1,
            reference=ReferenceFunction.constant(1.0),
            init=full,
            scripts=scripts,
            max_rounds=200,
        )
        result = run(sc)
        assert not result.converged
        assert result.reports[0].classification == "stalled"

    @pytest.mark.parametrize("second", [False, True], ids=["first-order", "second-order"])
    def test_no_normal_followers(self, second):
        g = DiGraph.from_edges(2, [(1, 2), (2, 1)])
        build = second_order_scenario if second else make_scenario
        sc = build(
            schedule=TopologySchedule.static(g),
            f=1,
            init={},
            scripts={2: AttackScript(Waveform(3.0))},
        )
        report = run(sc).reports[0]
        assert report.classification == "converged"
        assert report.residual == 0.0

    @pytest.mark.parametrize(
        "step, init",
        [(1.0, 1.0), (1.0 + 1e-7, None)],
        ids=["constant-step-at-rest", "step-below-tol"],
    )
    def test_stop_rule_counts_within_last_segment(self, step, init):
        # The residual is within tol across the step at round 100 or 300, so
        # the loop must not stop there: the report counts its window within
        # the last segment only, and would find that segment too short.
        base = corpus_scenario("fig4b_3hop")
        start = 100 if init is not None else 300
        sc = dataclasses.replace(
            base,
            reference=ReferenceFunction(((0, 1.0), (start, step))),
            init=base.init if init is None else {i: ((init,),) for i in base.init},
        )
        result = run(sc)
        report = result.reports[0]
        assert report.classification == "converged"
        assert result.traces[0].rounds == start + sc.window
        assert report.round_of_convergence == start

    def test_staircase_segments(self):
        sc = make_scenario(
            reference=ReferenceFunction(((0, 1.0), (100, 3.0))),
            tol=1e-7,
            window=10,
            max_rounds=300,
        )
        report = run(sc).reports[0]
        assert len(report.segments) == 2
        assert all(seg.converged for seg in report.segments)


class TestBudget:
    def test_capped_by_max_rounds(self):
        sc = make_scenario(max_rounds=50)
        assert run(sc).traces[0].rounds == 51

    def test_equal_start_still_simulates_reference_step(self):
        sc = make_scenario(
            reference=ReferenceFunction(((0, 1.0), (100, 3.0))),
            init={2: ((1.0,),), 3: ((1.0,),), 4: ((1.0,),)},
            tol=1e-7,
            window=10,
        )
        report = run(sc).reports[0]
        assert len(report.segments) == 2
        assert all(seg.converged for seg in report.segments)

    def test_equal_positions_with_velocities_converge(self):
        sc = second_order_scenario(
            init={2: ((1.0, 0.5),), 3: ((1.0, -0.3),), 4: ((1.0, 0.2),)},
            window=10,
        )
        report = run(sc).reports[0]
        assert report.classification == "converged"


class TestAdversarialRun:
    def scenario(self):
        g = complete_graph(5)
        return make_scenario(
            schedule=TopologySchedule.static(g),
            leaders=frozenset({1, 2, 3}),
            f=1,
            init={4: ((3.0,),)},
            scripts={
                5: AttackScript(Waveform(4.0, 0.3, 2, "square"))
            },
            tol=1e-7,
            max_rounds=400,
            window=20,
        )

    def test_trimming_defeats_single_attacker(self):
        result = run(self.scenario())
        assert result.converged

    def test_envelope_never_widens_under_attack(self):
        trace = run(self.scenario()).traces[0]
        assert envelope_nesting_holds(trace)
        assert contraction_oracle(trace)


class TestTraceOutput:
    def test_csv_columns(self, tmp_path):
        trace = run(make_scenario()).traces[0]
        out = tmp_path / "trace.csv"
        write_trace_csv(trace, out, tmp_path / "messages.csv")
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["round", "node", "role", "x", "V", "V_hat"]
        assert len(rows) == 1 + trace.rounds * trace.scenario.schedule.n
        roles = {r[2] for r in rows[1:]}
        assert roles == {"leader", "follower"}

    def test_run_writes_files(self, tmp_path):
        sc = make_scenario()
        run(sc, tmp_path)
        assert (tmp_path / "test_axis0_trace.csv").exists()
        assert (tmp_path / "test_axis0_messages.csv").exists()

    def test_messages_csv_flags_tampering(self, tmp_path):
        sc = self_attack = TestAdversarialRun().scenario()
        run(sc, tmp_path)
        with open(tmp_path / "test_axis0_messages.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        src_idx = header.index("src")
        tam_idx = header.index("tampered")
        assert any(r[src_idx] == "5" and r[tam_idx] == "1" for r in body)
        assert all(r[tam_idx] == "0" for r in body if r[src_idx] != "5")


# Reference writers: the csv.writer implementations the engine's writers
# must match byte for byte.


class ReferenceMessageLog:
    def __init__(self, fh):
        self.writer = csv.writer(fh)
        self.writer.writerow(["round", "src", "dst", "path", "value", "tampered"])

    def record(self, k, delivered, senders, adversaries):
        """``delivered``: destination -> (path nodes, value) pairs in
        delivery order, as ``walk_relay_round`` returns them."""
        for i in sorted(delivered):
            for nodes, value in delivered[i]:
                src = nodes[0]
                tampered = src in adversaries or value != senders[src]
                self.writer.writerow(
                    [k, src, i, "-".join(map(str, nodes)), repr(value), int(tampered)]
                )


def reference_write_trace_csv(trace, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["round", "node", "role", "x"]
        if trace.second_order:
            header.append("v")
        header += ["V", "V_hat"]
        writer.writerow(header)
        scenario = trace.scenario
        for k in range(trace.rounds):
            for i in range(1, scenario.schedule.n + 1):
                if i in scenario.adversaries:
                    role = "adversary"
                elif i in scenario.leaders:
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


def reference_exchange_graph(sc, k):
    """Round k's exchange graph, built from the edges: secure mode keeps
    only the edges among the followers."""
    g = sc.schedule.graph_at(k)
    if sc.algorithm == "mw-msr-secure":
        g = DiGraph(g.n, frozenset((j, i) for j, i in g.edges if {j, i} <= sc.followers))
    return g


def reference_write_messages_csv(trace, path):
    """``ReferenceMessageLog`` fed after the run: for each exchanged round k,
    what ``walk_relay_round`` delivers from ``trace.x[k]``, hop by hop and
    with no plan, to every node of the round's exchange graph."""
    sc = trace.scenario
    with open(path, "w", newline="") as fh:
        log = ReferenceMessageLog(fh)
        for k in range(trace.rounds - 1):
            g = reference_exchange_graph(sc, k)
            senders = trace.x[k]
            log.record(k, walk_relay_round(g, senders, sc.l, k, sc.scripts), senders, sc.adversaries)


def assert_writers_match_reference(trace, tmp_path):
    """Both files of ``write_trace_csv`` equal the reference writers' byte
    for byte; returns the message file's bytes."""
    got = {kind: tmp_path / f"{kind}.csv" for kind in ("trace", "messages")}
    want = {kind: tmp_path / f"ref_{kind}.csv" for kind in got}
    write_trace_csv(trace, got["trace"], got["messages"])
    reference_write_trace_csv(trace, want["trace"])
    reference_write_messages_csv(trace, want["messages"])
    for kind in got:
        assert got[kind].read_bytes() == want[kind].read_bytes(), kind
    return got["messages"].read_bytes()


class TestWritersMatchReference:
    @pytest.mark.parametrize(
        "name",
        [
            "fig4a_1hop",  # first order
            "fig7b_2hop_second_order",  # v and V_hat columns
            "fig4b_3hop",  # adversaries, tampered rows
            "secure_leader",  # induced exchange graph
        ],
    )
    def test_bytes_equal(self, name, tmp_path):
        sc = corpus_scenario(name)
        sc.validate()
        for axis in range(sc.axes):
            trace = run_axis(sc, axis)
            assert assert_writers_match_reference(trace, tmp_path).count(b"\r\n") > trace.rounds


def recorded_trace(sc, x, rounds):
    """A first-order trace of ``sc`` holding ``x`` (one value per node, in
    node order) and V = 1.0 at each of ``rounds`` rounds."""
    trace = Trace(sc)
    for _ in range(rounds):
        trace.x.append(x)
        trace.V.append(1.0)
    return trace


class TestMessageLogValues:
    def test_signed_zero_and_equal_values(self, tmp_path):
        sender = 0.1
        equal = float(repr(sender))
        assert equal == sender and equal is not sender
        scripts = {
            6: AttackScript(Waveform.constant(-0.0)),  # equal to 1's 0.0, but signed
            7: AttackScript(Waveform.constant(equal)),  # equal value, another float object
            4: AttackScript(Waveform.constant(2.5)),
        }
        g = DiGraph.from_edges(7, [(1, 6), (6, 5), (3, 7), (7, 5), (4, 2), (2, 5)])
        sc = make_scenario(schedule=TopologySchedule.static(g), l=2, scripts=scripts)
        # Nodes 1-7 in order; adversary 4 holds the value it emits.
        trace = recorded_trace(sc, [0.0, 1.0, sender, 2.5, 1.0, 1.0, 1.0], 2)
        write_trace_csv(trace, tmp_path / "trace.csv", tmp_path / "messages.csv")
        header, *rows, end = (tmp_path / "messages.csv").read_bytes().decode().split("\r\n")
        assert (header, end) == ("round,src,dst,path,value,tampered", "")
        assert [r for r in rows if r.split(",")[3] in ("1-6-5", "3-7-5", "4-2-5")] == [
            "0,1,5,1-6-5,-0.0,0",
            "0,3,5,3-7-5,0.1,0",
            "0,4,5,4-2-5,2.5,1",
        ]

    def test_round_without_paths_writes_no_row(self, tmp_path):
        # A graph with no edges delivers nothing: the rounds add no line.
        sc = make_scenario(schedule=TopologySchedule.static(DiGraph(4, frozenset())))
        trace = recorded_trace(sc, [0.0, 1.0, 1.0, 1.0], 3)
        write_trace_csv(trace, tmp_path / "trace.csv", tmp_path / "messages.csv")
        assert (tmp_path / "messages.csv").read_bytes() == b"round,src,dst,path,value,tampered\r\n"


class TestTraceStorage:
    """Each series is stored as flat doubles; a round of x, v or
    retained_mean reads back as a new plain {node: value} dict."""

    def test_long_run_retains_about_one_double_per_value(self):
        sc = corpus_scenario("fig8_aug_1hop_second_order")
        run(sc)  # fills the path cache, so only the result stays traced
        gc.collect()
        tracemalloc.start()
        try:
            result = run(sc)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        n, nf = sc.schedule.n, len(sc.normal_followers)
        values = sum(2 * t.rounds * n + len(t.retained_mean) * nf
                     + len(t.V) + len(t.V_hat) + len(t.residual) for t in result.traces)
        assert [t.rounds for t in result.traces] == [1136, 1128]
        # 8 B per double plus the arrays' over-allocation.
        assert retained <= 12 * values + 64 * 1024, (retained, values)

    def test_rows_read_back_as_fresh_dicts(self):
        trace = run(corpus_scenario("fig7b_2hop_second_order")).traces[0]
        nodes = set(range(1, trace.scenario.schedule.n + 1))
        for series, keys in ((trace.x, nodes), (trace.v, nodes),
                             (trace.retained_mean, trace.normal_followers)):
            row = series[3]
            assert type(row) is dict and set(row) == keys
            row[min(keys)] = 99.0
            assert series[3] != row and series[3] is not series[3]
            assert series[-1] == series[len(series) - 1]
            assert series[-len(series)] == series[0]
            for k in (len(series), -len(series) - 1):
                with pytest.raises(IndexError):
                    series[k]

    @pytest.mark.parametrize("name", ["fig4a_1hop", "fig7b_2hop_second_order"])
    def test_every_series_has_one_entry_per_round(self, name):
        # v and V_hat are second order only; retained_mean is recorded for
        # each exchanged round, every round but the last.
        trace = run(corpus_scenario(name)).traces[0]
        second = trace.rounds if trace.second_order else 0
        assert len(trace.x) == len(trace.V) == len(trace.residual) == trace.rounds > 1
        assert len(trace.v) == len(trace.V_hat) == second
        assert len(trace.retained_mean) == trace.rounds - 1


@pytest.fixture
def collector():
    """Restores the cyclic collector's state after a test that sets it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def verify_topologies_queries():
    """Every query that ``scripts/verify_topologies.py`` checks; its static
    union-graph queries as one-graph schedules."""
    topo = {name: load_topology(corpus_path(name)) for name in (
        "net9", "net9_aug", "net15", "net9_intervals_3_3", "net9_intervals_2_2_2",
        "net15_intervals_2_2_2")}
    reduced, virtual = corpus_scenario("secure_leader").secure_reduced()
    union = TopologySchedule.static(union_graph(topo["net9_aug"][0]))
    leaders9 = topo["net9"][1]
    return [RobustnessQuery(sched, leaders, r, l, f) for sched, leaders, (r, l, f) in (
        (*topo["net9"], (2, 1, 1)), (*topo["net9"], (2, 2, 1)), (*topo["net9_aug"], (2, 1, 1)),
        (union, leaders9, (3, 1, 0)), (union, leaders9, (2, 1, 1)),
        (*topo["net15"], (3, 1, 2)), (*topo["net15"], (3, 3, 2)),
        (*topo["net9_intervals_3_3"], (2, 2, 1)), (*topo["net9_intervals_2_2_2"], (2, 2, 1)),
        (*topo["net15_intervals_2_2_2"], (3, 3, 2)), (reduced, virtual, (2, 1, 1)),
    )] + [RobustnessQuery(*topo["net9"], 2, 2, 1, relays_inside_s=False),
          RobustnessQuery(*topo["net15"], 3, 3, 2, relays_inside_s=False)]


class TestCollector:
    """The round loop runs with the cyclic garbage collector off, which is
    safe only while neither the simulator nor the checker makes reference
    cycles."""

    def test_runs_leave_no_cyclic_garbage(self, collector, tmp_path):
        scenarios = [corpus_scenario(name) for name in corpus_names()
                     if not name.startswith("net")]
        queries = verify_topologies_queries()
        _paths_for.cache_clear()  # so every path walk runs again
        gc.disable()
        gc.collect()  # what loading made
        for sc in scenarios:
            run(sc, tmp_path / sc.name)
        for q in queries:
            is_jointly_robust_following(q)
            necessary_conditions(q)
        assert gc.collect() == 0

    def test_run_axis_leaves_the_collector_as_it_found_it(self, collector):
        sc = make_scenario()
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            run_axis(sc, 0)
            assert gc.isenabled() is enabled

    def test_run_axis_turns_the_collector_back_on_after_a_raise(self, collector):
        sc = parse_scenario({"topology": "net7_secure", "algorithm": "mw-msr", "f": 0, "l": 1,
                             "reference": 1.0, "init": {i: 1.7e308 for i in range(2, 8)}},
                            "overflow")
        gc.enable()
        with pytest.raises(AgentError, match="retained values overflow their sum"):
            run_axis(sc, 0)
        assert gc.isenabled()

    def test_the_collector_is_off_inside_the_loop(self, collector, monkeypatch):
        seen, original = [], engine.relay_round

        def relay_round(*args):
            seen.append(gc.isenabled())
            return original(*args)

        monkeypatch.setattr(engine, "relay_round", relay_round)
        gc.enable()
        trace = run_axis(make_scenario(), 0)
        assert seen == [False] * (trace.rounds - 1) and gc.isenabled()


class TestDeliveryScope:
    @pytest.mark.parametrize("name", ["fig4b_3hop", "fig7b_2hop_second_order", "secure_leader"])
    def test_message_log_changes_no_trace_series(self, name, tmp_path):
        # The CSVs are written after each axis has run, from its recorded
        # states; writing them changes no series.
        sc = corpus_scenario(name)
        quiet, written = run(sc), run(sc, tmp_path)
        assert len(list(tmp_path.iterdir())) == 2 * sc.axes
        for a, b in zip(quiet.traces, written.traces, strict=True):
            assert a.rounds > 1
            for series in ("x", "v", "V", "V_hat", "residual", "retained_mean"):
                assert repr(getattr(a, series)) == repr(getattr(b, series)), series


# Values the random scenarios draw from: a small set, so that values of
# different origins tie.
LEVELS = (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0)


def random_script(rng, node, n):
    """A Byzantine script: up to two receiver groups, either relay mode."""
    def wave():
        kind = rng.choice(["square", "sinusoid", "constant"])
        return Waveform(rng.choice(LEVELS), rng.choice([0.0, 0.5, 1.5]), rng.randint(1, 3), kind)

    receivers = [i for i in range(1, n + 1) if i != node]
    rng.shuffle(receivers)
    cuts = sorted(rng.sample(range(len(receivers) + 1), 2))
    groups = tuple((frozenset(receivers[a:b]), wave())
                   for a, b in ((0, cuts[0]), (cuts[0], cuts[1])) if a < b and rng.random() < 0.6)
    return AttackScript(wave(), groups, relay_mode=rng.choice(["same", "identity"]))


def random_scenario(rng):
    """A valid scenario of 30-40 rounds: n 5-9, a schedule of 1-3 graphs in
    one or two intervals, l 1-3, f 0-2, any algorithm, and an f-local
    adversary set. Initial values, reference and emissions share ``LEVELS``."""
    n, period = rng.randint(5, 9), rng.randint(1, 3)
    graphs = tuple(random_digraph(rng, n, rng.uniform(0.3, 0.6)) for _ in range(period))
    cut = rng.randint(1, period)
    schedule = TopologySchedule(graphs, (cut, period - cut) if cut < period else (period,))
    algorithm = rng.choice(ALGORITHMS)
    l, f = rng.randint(1, 3), rng.randint(0, 2)
    leaders = frozenset(rng.sample(range(1, n + 1), rng.randint(1, 3)))
    pool = [i for i in range(1, n + 1) if algorithm != "mw-msr-secure" or i not in leaders]
    adversaries = ()
    for _ in range(10):
        drawn = rng.sample(pool, rng.randint(1, f + 1))
        if validate_f_local(drawn, schedule, l, f).f_local:
            adversaries = drawn
            break
    second = algorithm == "mdp-msr"
    init = {}
    for i in range(1, n + 1):
        # Normal followers always get an initial state; leaders and
        # adversaries may go without one.
        if i not in leaders and i not in adversaries or rng.random() < 0.6:
            state = [rng.choice(LEVELS)] + ([rng.choice(LEVELS)] if second and rng.random() < 0.7 else [])
            init[i] = (tuple(state),)
    max_rounds = rng.randint(30, 40)
    steps = sorted(rng.sample(range(1, max_rounds), rng.randint(0, 2)))
    T = rng.uniform(0.3, 1.0)
    return Scenario(
        name="random",
        schedule=schedule,
        leaders=leaders,
        algorithm=algorithm,
        f=f,
        l=l,
        reference=ReferenceFunction(tuple((k, rng.choice(LEVELS)) for k in [0, *steps])),
        params=ControlParams(T, 1.5 / T) if second else None,  # mid-window beta * T
        init=init,
        scripts={a: random_script(rng, a, n) for a in adversaries},
        window=max_rounds + 1,  # never converged early: every round runs
        max_rounds=max_rounds,
    )


def random_runs():
    """TestReferenceRun's 60 scenarios."""
    rng = random.Random(1789)
    for _ in range(60):
        sc = random_scenario(rng)
        sc.validate()
        rng.random()  # a draw the seeded sequence has always made; keeps the 60 the same
        yield sc


def reprs(states):
    return [{i: repr(s) for i, s in d.items()} for d in states]


class TestReferenceRun:
    """The engine against ``oracles.reference_run``, which relays hop by hop
    and trims by exhaustive search, with no plan, route or memo."""

    def test_matches_engine_on_random_scenarios(self):
        seen = Counter()
        for sc in random_runs():
            trace = run_axis(sc, 0)
            x, v, means = reference_run(sc, 0, sc.max_rounds)
            for name, got, want in (("x", trace.x, x), ("v", trace.v, v),
                                    ("retained_mean", trace.retained_mean, means)):
                assert reprs(got) == reprs(want), name
            seen.update([sc.algorithm, f"l={sc.l}", f"f={sc.f}",
                         f"intervals={len(sc.schedule.interval_lengths)}"])
            seen.update(s.relay_mode for s in sc.scripts.values())
            seen.update("groups" for s in sc.scripts.values() if s.groups)
        assert len(seen) == 14 and min(seen.values()) >= 3, seen

    def test_metric_series_match_their_definitions(self):
        # V, V_hat and the residual, recomputed from the reference states.
        for sc in random_runs():
            trace = run_axis(sc, 0)
            x, v, _ = reference_run(sc, 0, sc.max_rounds)
            for name, want in zip(("V", "V_hat", "residual"), reference_metrics(sc, x, v)):
                assert list(map(repr, getattr(trace, name))) == list(map(repr, want)), name

    def test_message_log_matches_reference_log(self, tmp_path):
        # Both CSVs of each run against the csv.writer references, the
        # message log fed by walk_relay_round, byte for byte. Every edge is a
        # one-hop path, so each exchanged round writes at least one row per
        # edge of its exchange graph, and a round without edges writes none.
        seen = Counter()
        for sc in random_runs():
            trace = run_axis(sc, 0)
            lines = assert_writers_match_reference(trace, tmp_path).split(b"\r\n")[1:-1]
            rows = Counter(int(line.split(b",", 1)[0]) for line in lines)
            edges = {k: len(reference_exchange_graph(sc, k).edges) for k in range(trace.rounds - 1)}
            assert {k for k, e in edges.items() if e} == set(rows), sc.name
            assert all(rows[k] >= e for k, e in edges.items()), sc.name
            seen.update(s.relay_mode for s in sc.scripts.values())
            seen.update("groups" for s in sc.scripts.values() if s.groups)
        assert min(seen[key] for key in ("same", "identity", "groups")) >= 3, seen


def assert_matches_reference(sc, tmp_path):
    """One axis of ``sc`` against ``reference_run``, and both of its CSVs
    against the reference writers; returns the trace."""
    sc.validate()
    trace = run_axis(sc, 0)
    x, v, means = reference_run(sc, 0, trace.rounds - 1)
    for name, got, want in (("x", trace.x, x), ("v", trace.v, v),
                            ("retained_mean", trace.retained_mean, means)):
        assert reprs(got) == reprs(want), name
    assert_writers_match_reference(trace, tmp_path)
    return trace


class TestRepeatedGraphSchedules:
    """Schedules that take a graph again at a position not next to its
    first: each round must read its position's plan and routes, and the
    message log its position's rows, not those of the graph's index among
    the distinct graphs."""

    def test_net9_taken_twice(self, tmp_path):
        sc = parse_scenario({
            "topology": "net9_intervals_3_3", "algorithm": "mw-msr", "f": 1, "l": 2,
            "reference": [[0, 1.0], [10, 2.0]],
            "init": {1: 4.6, 2: 2.3, 3: 3.8, 4: 2.9, 6: 4.1},
            "adversaries": [{"node": 5, "relay": "same", "emit": {
                "default": {"center": 2.6, "amplitude": 0.3, "period": 2, "waveform": "square"},
                "groups": [{"receivers": [1, 3, 6], "center": 4.2}]}}],
            "window": 31, "max_rounds": 30,
        }, "net9_twice")
        graphs = sc.schedule.graphs
        assert graphs[:3] == graphs[3:] and len(set(graphs)) == 3
        assert assert_matches_reference(sc, tmp_path).rounds == 31

    def test_random_a_b_a_schedules(self, tmp_path):
        rng = random.Random(4093)
        runs = 0
        while runs < 6:
            sc = random_scenario(rng)
            if sc.schedule.period < 2:
                continue
            a, b = sc.schedule.graphs[:2]
            assert a != b
            # Each step graph of (a, b, a) is one of the original schedule's,
            # so the adversary set stays f-local.
            intervals = rng.choice([(3,), (1, 2), (2, 1)])
            sc = dataclasses.replace(sc, schedule=TopologySchedule((a, b, a), intervals))
            assert_matches_reference(sc, tmp_path)
            runs += 1


class TestStoppingRule:
    """The loop's stop against its definition on random scenarios with
    reference steps, a short window and a loose tolerance."""

    def test_stops_at_first_full_window_of_last_segment(self):
        rng = random.Random(2029)
        early = 0
        for _ in range(40):
            sc = dataclasses.replace(random_scenario(rng), window=rng.randint(2, 5),
                                     tol=rng.choice([0.05, 0.5, 2.0]))
            sc.validate()
            x, v, means = reference_run(sc, 0, sc.max_rounds)
            nodes = sc.normal_followers
            res = []
            for k in range(sc.max_rounds + 1):
                r = sc.reference.value_at(k)
                dev = [abs(x[k][i] - r) for i in nodes] + [abs(v[k][i]) for i in nodes if v]
                res.append(max(dev, default=0.0))
            # The first round ending `window` rounds within tol, all of them
            # in the last reference segment.
            w, start = sc.window, sc.reference.pieces[-1][0]
            stop = next((k for k in range(start + w - 1, sc.max_rounds + 1)
                         if all(e <= sc.tol for e in res[k - w + 1:k + 1])), sc.max_rounds)
            trace = run_axis(sc, 0)
            assert trace.rounds == stop + 1
            for name, got, want in (("x", trace.x, x[:stop + 1]), ("v", trace.v, v[:stop + 1]),
                                    ("retained_mean", trace.retained_mean, means[:stop])):
                assert reprs(got) == reprs(want), name
            assert [repr(e) for e in trace.residual] == [repr(e) for e in res[:stop + 1]]
            early += stop < sc.max_rounds
        assert early >= 10, early
