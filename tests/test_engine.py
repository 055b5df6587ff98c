import csv

import pytest

from rclab.adversary import AttackScript, Waveform, necessity_attack
from rclab.agents import ReferenceFunction
from rclab.engine import (
    EngineError,
    contraction_oracle,
    convergence_report,
    envelope_nesting_holds,
    run,
    write_trace_csv,
)
from rclab.graphs import DiGraph, TopologySchedule
from rclab.robustness import RobustnessQuery, is_jointly_robust_following
from rclab.scenario import Scenario


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
        assert a.traces[0].fingerprint == b.traces[0].fingerprint

    def test_validation_failures_abort(self):
        bad = make_scenario(tol=-1.0)
        with pytest.raises(Exception):
            run(bad)

    def test_isolated_follower_keeps_state(self):
        g = DiGraph.from_edges(3, [(1, 2)])
        sc = make_scenario(
            schedule=TopologySchedule.static(g),
            init={2: ((4.0,),), 3: ((2.5,),)},
            max_rounds=10,
            budget=10,
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


def second_order_scenario(**kw):
    from rclab.agents import ControlParams

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


class TestConvergenceReport:
    def test_already_converged_round_zero(self):
        sc = make_scenario(init={2: ((1.0,),), 3: ((1.0,),), 4: ((1.0,),)})
        result = run(sc)
        assert result.reports[0].round_of_convergence == 0

    def test_run_cut_before_last_step_is_not_converged(self):
        ref = ReferenceFunction(((0, 1.0), (300, 2.0)))
        trace = run(make_scenario(reference=ref, max_rounds=200)).traces[0]
        report = convergence_report(trace, 1e-9, 5)
        assert [seg.converged for seg in report.segments] == [True]
        assert not report.converged
        assert report.round_of_convergence is None
        assert report.classification == "budget-exhausted"

    def test_rejects_bad_tolerance(self):
        trace = run(make_scenario()).traces[0]
        with pytest.raises(EngineError):
            convergence_report(trace, -1.0, 5)

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
            budget=200,
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
            scripts={2: AttackScript(2, Waveform(3.0))},
        )
        report = run(sc).reports[0]
        assert report.classification == "converged"
        assert report.residual == 0.0

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
    def test_explicit_budget_wins(self):
        sc = make_scenario(budget=17)
        assert run(sc).traces[0].rounds == 18

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
                5: AttackScript(5, Waveform(4.0, 0.3, 2, "square"))
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
        write_trace_csv(trace, out)
        rows = list(csv.reader(open(out)))
        assert rows[0] == ["round", "node", "role", "x", "V", "V_hat"]
        assert len(rows) == 1 + trace.rounds * trace.n
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
        rows = list(csv.reader(open(tmp_path / "test_axis0_messages.csv")))
        header, body = rows[0], rows[1:]
        src_idx = header.index("src")
        tam_idx = header.index("tampered")
        assert any(r[src_idx] == "5" and r[tam_idx] == "1" for r in body)
        assert all(r[tam_idx] == "0" for r in body if r[src_idx] != "5")
