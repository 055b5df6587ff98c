import copy
import dataclasses
import random
import re
import textwrap
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner
from conftest import load_workloads, random_digraph
from hypothesis import given, strategies as st

from rclab import scenario as scenario_mod
from rclab.cli import main
from rclab.graphs import DiGraph, TopologySchedule, direct_leader_followers, union_graph
from rclab.scenario import (
    ReferenceFunction,
    Scenario,
    ScenarioError,
    corpus_names,
    corpus_path,
    load_scenario,
    load_topology,
    parse_scenario,
    parse_topology,
    resolve_file,
)


MINI_TOPOLOGY = textwrap.dedent(
    """
    n: 4
    leaders: [1]
    graphs:
      g:
        edges: [[1, 2], [1, 3], [1, 4]]
        undirected_edges: [[2, 3], [3, 4], [2, 4]]
    schedule: [g]
    intervals: [1]
    """
)


def mini_scenario_yaml(**over):
    data = {
        "topology": "topo.yaml",
        "algorithm": "mw-msr",
        "f": "0",
        "l": "1",
        "reference": "1.0",
        "init": "{2: 3.0, 3: 5.0, 4: 2.0}",
    }
    data.update(over)
    return "\n".join(f"{k}: {v}" for k, v in data.items())


TOPOLOGY = yaml.safe_load(MINI_TOPOLOGY)
SCENARIO = {
    **yaml.safe_load(mini_scenario_yaml(f="1", init="{2: 3.0, 3: 5.0}")),
    "delta": {2: 0.5},
    "adversaries": [
        {"node": 4, "emit": {"default": {"center": 2.0},
                             "groups": [{"receivers": [2], "center": 1.0}]}},
    ],
}


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "topo.yaml").write_text(MINI_TOPOLOGY)
    return tmp_path


@pytest.fixture(params=["default", "fallback"])
def loader(request, monkeypatch):
    """Runs a test with the module's YAML loader (libyaml's when PyYAML has
    it) and again with the pure-Python one it falls back to."""
    if request.param == "fallback":
        monkeypatch.setattr(scenario_mod, "_LOADER", scenario_mod._exponent_loader(yaml.SafeLoader))


class TestTopologyParsing:
    def test_round_trip(self, workspace):
        schedule, leaders = load_topology(workspace / "topo.yaml")
        assert schedule.n == 4
        assert leaders == frozenset({1})
        assert (1, 2) in schedule.graphs[0].edges
        assert (2, 3) in schedule.graphs[0].edges and (3, 2) in schedule.graphs[0].edges

    def test_missing_field(self):
        with pytest.raises(ScenarioError, match="intervals"):
            parse_topology({"n": 3, "leaders": [1], "graphs": {}, "schedule": []})

    def test_unknown_graph_in_schedule(self):
        data = {
            "n": 3,
            "leaders": [1],
            "graphs": {"g": {"edges": [[1, 2]]}},
            "schedule": ["h"],
            "intervals": [1],
        }
        with pytest.raises(ScenarioError, match="unknown graph 'h'"):
            parse_topology(data)

    def test_leader_out_of_range(self):
        data = {
            "n": 3,
            "leaders": [9],
            "graphs": {"g": {"edges": [[1, 2]]}},
            "schedule": ["g"],
            "intervals": [1],
        }
        with pytest.raises(ScenarioError, match="leader ids"):
            parse_topology(data)

    def test_not_a_mapping(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("- just\n- a list\n")
        with pytest.raises(ScenarioError, match="mapping"):
            load_topology(p)


class TestScenarioParsing:
    def load(self, workspace, text, name="scn"):
        p = workspace / f"{name}.yaml"
        p.write_text(text)
        return load_scenario(p)

    def test_minimal(self, workspace):
        sc = self.load(workspace, mini_scenario_yaml())
        assert sc.name == "scn"
        assert sc.algorithm == "mw-msr"
        assert sc.reference.value_at(999) == 1.0
        assert sc.init[2] == ((3.0,),)
        assert not sc.validation_errors()

    def test_staircase_reference(self, workspace):
        sc = self.load(workspace, mini_scenario_yaml(reference="[[0, 1.0], [50, 3.0]]"))
        assert sc.reference.value_at(49) == 1.0
        assert sc.reference.value_at(50) == 3.0

    def test_missing_required_field(self, workspace):
        with pytest.raises(ScenarioError, match="'reference'"):
            parse_scenario({"topology": "net15", "algorithm": "mw-msr", "f": 0, "l": 1}, "x")

    def test_unknown_algorithm(self, workspace):
        with pytest.raises(ScenarioError, match="algorithm"):
            self.load(workspace, mini_scenario_yaml(algorithm="median"))

    def test_second_order_requires_gains(self, workspace):
        with pytest.raises(ScenarioError, match="'T' and 'beta'"):
            self.load(workspace, mini_scenario_yaml(algorithm="mdp-msr"))

    def test_damping_gate_rejected_at_parse(self, workspace):
        text = mini_scenario_yaml(
            algorithm="mdp-msr",
            T="0.8",
            beta="1.0",
            init="{2: [3.0, 0.0], 3: [5.0, 0.0], 4: [2.0, 0.0]}",
        )
        with pytest.raises(ScenarioError):
            self.load(workspace, text)

    def test_damping_gate_boundary_accepted(self, workspace):
        text = mini_scenario_yaml(
            algorithm="mdp-msr",
            T="0.8",
            beta="1.65",
            init="{2: [3.0, 0.0], 3: [5.0, 0.0], 4: [2.0, 0.0]}",
        )
        sc = self.load(workspace, text)
        assert sc.params.beta == 1.65
        assert not sc.validation_errors()

    def test_two_axes_init_shape(self, workspace):
        text = mini_scenario_yaml(
            axes="2",
            init="{2: [[3.0], [1.0]], 3: [[5.0], [2.0]], 4: [[2.0], [0.5]]}",
        )
        sc = self.load(workspace, text)
        assert sc.init[2] == ((3.0,), (1.0,))
        with pytest.raises(ScenarioError, match="per axis"):
            self.load(workspace, mini_scenario_yaml(axes="2"), name="bad")

    def test_duplicate_adversary(self, workspace):
        text = mini_scenario_yaml(
            f="1",
            adversaries=(
                "[{node: 4, emit: {center: 2.0}}, {node: 4, emit: {center: 3.0}}]"
            ),
        )
        with pytest.raises(ScenarioError, match="duplicate"):
            self.load(workspace, text)


class TestValidation:
    def load(self, workspace, text):
        p = workspace / "scn.yaml"
        p.write_text(text)
        return load_scenario(p)

    def test_missing_init_reported(self, workspace):
        sc = self.load(workspace, mini_scenario_yaml(init="{2: 3.0}"))
        errors = sc.validation_errors()
        assert any("missing initial values" in e and "[3, 4]" in e for e in errors)

    def test_adversaries_need_no_init(self, workspace):
        text = mini_scenario_yaml(
            f="1", init="{2: 3.0, 3: 5.0}",
            adversaries="[{node: 4, emit: {center: 2.0}}]",
        )
        assert not self.load(workspace, text).validation_errors()

    def test_f_local_violation_names_witness(self, workspace):
        text = mini_scenario_yaml(
            f="1", init="{4: 2.0}",
            adversaries=(
                "[{node: 2, emit: {center: 2.0}}, {node: 3, emit: {center: 2.0}}]"
            ),
        )
        errors = self.load(workspace, text).validation_errors()
        assert any("not 1-local" in e for e in errors)

    def test_negative_f_reported_once(self, workspace):
        # a negative f has no f-local adversary sets to check against
        errors = self.load(workspace, mini_scenario_yaml(f="-1")).validation_errors()
        assert errors == ["need f >= 0 and l >= 1, got f=-1 l=1"]

    def test_secure_mode_rejects_adversarial_leader(self, workspace):
        text = mini_scenario_yaml(
            algorithm="mw-msr-secure", f="1", init="{3: 5.0, 4: 2.0}",
            adversaries="[{node: 1, emit: {center: 2.0}}]",
        )
        errors = self.load(workspace, text).validation_errors()
        assert any("secure-leader mode" in e for e in errors)

    def test_secure_virtual_leaders_skip_init(self, workspace):
        # all followers touch the leader here, so none needs an init value
        text = mini_scenario_yaml(algorithm="mw-msr-secure", init="{}")
        sc = self.load(workspace, text)
        assert sc.secure_virtual_leaders() == frozenset({2, 3, 4})
        assert not sc.validation_errors()

    @pytest.mark.parametrize("call, error", [
        (lambda sc: dataclasses.replace(sc, algorithm="median").validate(),
         "unknown algorithm 'median'"),
        (lambda sc: dataclasses.replace(sc, axes=3).validate(), "axes must be 1 or 2, got 3"),
        (lambda sc: dataclasses.replace(sc, window=0).validate(),
         "window and max_rounds must be >= 1"),
        (lambda sc: dataclasses.replace(sc, max_rounds=0).validate(),
         "window and max_rounds must be >= 1"),
        (lambda sc: dataclasses.replace(sc, algorithm="mdp-msr").validate(),
         "second-order scenario requires T and beta"),
        (lambda sc: ReferenceFunction(()), "at least one piece"),
        (lambda sc: ReferenceFunction(((0, 1.0), (5, float("nan")))), "must be finite"),
        (lambda sc: sc.reference.value_at(-1), "round index must be >= 0, got -1"),
        (lambda sc: parse_topology({
            "n": 3, "leaders": [1], "graphs": {"g": {"edges": [[1, 2]]}},
            "schedule": ["g"], "intervals": [2],
        }), "intervals must exactly cover the schedule"),
    ], ids=["algorithm", "axes", "window", "max-rounds", "gains", "no-pieces",
            "non-finite-piece", "negative-round", "intervals"])
    def test_check_rejects_bad_value(self, call, error):
        sc = load_scenario(corpus_path("fig4a_1hop"))
        assert not sc.validation_errors()
        with pytest.raises(ScenarioError, match=error):
            call(sc)

    def test_vector_init_rejected_for_first_order(self, workspace):
        sc = self.load(
            workspace,
            mini_scenario_yaml(init="{2: [3.0, 1.0], 3: 5.0, 4: 2.0}"),
        )
        assert any("scalar" in e for e in sc.validation_errors())


class TestSecureReduced:
    @staticmethod
    def secure(schedule, leaders):
        return Scenario(name="secure", schedule=schedule, leaders=frozenset(leaders),
                        algorithm="mw-msr-secure", f=0, l=1,
                        reference=ReferenceFunction.constant(1.0))

    def test_relabel_preserves_structure(self):
        # leader 3 sits mid-range, so followers 4 and 5 move down to 3 and 4
        a = DiGraph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
        b = DiGraph.from_edges(5, [(3, 1), (5, 1), (2, 4)])
        reduced, virtual = self.secure(TopologySchedule((a, b), (1, 1)), {3}).secure_reduced()
        assert reduced.n == 4 and reduced.interval_lengths == (1, 1)
        assert reduced.graphs[0].edges == {(1, 2), (3, 4)}
        assert reduced.graphs[1].edges == {(4, 1), (2, 3)}
        assert virtual == frozenset({1, 3})

    def test_schedule_shares_one_map(self):
        """Every reduced graph is its graph's induced follower subgraph under
        one map, and the virtual leaders are the union graph's W_L, mapped."""
        rng = random.Random(24)
        for _ in range(300):
            n = rng.randint(3, 8)
            graphs = tuple(random_digraph(rng, n, 0.4) for _ in range(rng.randint(2, 4)))
            leaders = frozenset(rng.sample(range(1, n + 1), rng.randint(1, n - 1)))
            s = TopologySchedule(graphs, (len(graphs),))
            sc = self.secure(s, leaders)
            assert sc.secure_virtual_leaders() == direct_leader_followers(union_graph(s), leaders)
            reduced, virtual = sc.secure_reduced()
            old = dict(enumerate(sorted(sc.followers), start=1))
            for g, h in zip(graphs, reduced.graphs, strict=True):
                assert {(old[j], old[i]) for j, i in h.edges} == g.induced(sc.followers).edges
            assert {old[i] for i in virtual} == sc.secure_virtual_leaders()


class TestFingerprint:
    def test_stable_across_loads(self, workspace):
        (workspace / "scn.yaml").write_text(mini_scenario_yaml())
        a = load_scenario(workspace / "scn.yaml")
        b = load_scenario(workspace / "scn.yaml")
        assert a.fingerprint() == b.fingerprint()

    def test_sensitive_to_parameters(self, workspace):
        (workspace / "scn.yaml").write_text(mini_scenario_yaml())
        sc = load_scenario(workspace / "scn.yaml")
        assert sc.fingerprint() != dataclasses.replace(sc, tol=1e-9).fingerprint()
        assert sc.fingerprint() != dataclasses.replace(sc, f=1).fingerprint()

    def test_corpus_scenarios_fingerprint(self):
        for name in corpus_names():
            if name.startswith("net"):
                continue
            sc = load_scenario(corpus_path(name))
            assert len(sc.fingerprint()) == 16
            assert not sc.validation_errors()


class TestCorpus:
    def test_expected_entries(self):
        names = corpus_names()
        for expected in (
            "net9", "net9_aug", "net15", "net7_secure",
            "fig4a_1hop", "fig4b_3hop", "fig5_staircase",
            "fig7a_1hop_second_order", "fig7b_2hop_second_order",
            "fig8_aug_1hop_second_order", "formation_2hop_second_order",
            "secure_leader",
        ):
            assert expected in names

    def test_resolve_prefers_real_files(self, workspace):
        assert resolve_file(str(workspace / "topo.yaml")) == workspace / "topo.yaml"
        assert resolve_file("net15").name == "net15.yaml"

    def test_topology_next_to_scenario_wins_over_working_directory(self, tmp_path, monkeypatch):
        scenario_dir, elsewhere = tmp_path / "a", tmp_path / "b"
        scenario_dir.mkdir()
        elsewhere.mkdir()
        (scenario_dir / "topo.yaml").write_text(MINI_TOPOLOGY)
        (scenario_dir / "scen.yaml").write_text(mini_scenario_yaml())
        (elsewhere / "topo.yaml").write_text(MINI_TOPOLOGY.replace(", [1, 4]]", "]"))
        monkeypatch.chdir(scenario_dir)
        beside = load_scenario(scenario_dir / "scen.yaml")
        monkeypatch.chdir(elsewhere)
        away = load_scenario(scenario_dir / "scen.yaml")
        assert away.fingerprint() == beside.fingerprint()
        assert (1, 4) in away.schedule.graphs[0].edges
        assert resolve_file("topo.yaml") == Path("topo.yaml")  # no base: the working directory

    def test_unknown_corpus_name(self):
        with pytest.raises(ScenarioError, match="unknown corpus entry"):
            corpus_path("nonexistent")


class TestCli:
    def invoke(self, *args):
        return CliRunner().invoke(main, list(args))

    def test_check_robustness_pass(self):
        res = self.invoke("check-robustness", "--topology", "net9",
                          "--r", "2", "--l", "2", "--f", "1")
        assert res.exit_code == 0
        assert "VERDICT: jointly 2-robust" in res.output
        assert res.output.count("necessary-condition") == 3

    def test_check_robustness_conditions_pass_where_it_holds(self, tmp_path):
        # two leaders are r + f for r = f = 1
        topo = tmp_path / "complete5.yaml"
        topo.write_text(yaml.safe_dump({
            "n": 5, "leaders": [1, 2], "schedule": ["g"], "intervals": [1],
            "graphs": {"g": {"edges": [[a, b] for a in range(1, 6) for b in range(1, 6) if a != b]}},
        }))
        res = self.invoke("check-robustness", "--topology", str(topo),
                          "--r", "1", "--l", "1", "--f", "1")
        assert res.exit_code == 0
        assert "VERDICT: jointly 1-robust" in res.output and "FAIL" not in res.output

    def test_check_robustness_violation(self):
        res = self.invoke("check-robustness", "--topology", "net9",
                          "--r", "2", "--l", "1", "--f", "1")
        assert res.exit_code == 2
        assert "certificate: F=[5] S=[1, 2, 3, 6]" in res.output

    def test_check_robustness_bad_input(self, tmp_path):
        bad = tmp_path / "broken.yaml"
        bad.write_text("n: 3\n")
        res = self.invoke("check-robustness", "--topology", str(bad),
                          "--r", "1", "--l", "1", "--f", "0")
        assert res.exit_code == 1

    @pytest.mark.parametrize(
        "option, value, message",
        [("--r", "0", "r must be >= 1"), ("--l", "0", "l must be >= 1"),
         ("--f", "-1", "f must be >= 0")],
        ids=["r-zero", "l-zero", "f-negative"],
    )
    def test_check_robustness_rejects_parameter(self, option, value, message):
        params = {"--r": "1", "--l": "1", "--f": "0", option: value}
        res = self.invoke("check-robustness", "--topology", "net9",
                          *[x for pair in params.items() for x in pair])
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.exception
        assert res.stderr.startswith(f"error: {message}") and "Traceback" not in res.output

    @pytest.mark.parametrize(
        "args, message",
        [(("simulate", "--scenario", "secure_leader", "--max-rounds", "abc"),
          "Invalid value for '--max-rounds'"),
         (("check-robustness", "--topology", "net9", "--l", "1", "--f", "1"),
          "Missing option '--r'"),
         (("simulat",), "No such command 'simulat'"),
         (("--bogus",), "No such option '--bogus'")],
        ids=["simulate-bad-int", "check-robustness-missing-r", "unknown-command",
             "unknown-group-option"],
    )
    def test_usage_error_exits_1(self, args, message):
        # Exit 2 means a robustness violation, so a typo must not exit 2.
        res = self.invoke(*args)
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.exception
        assert message in res.stderr and "Traceback" not in res.output

    def test_simulate_convergent(self, tmp_path):
        res = self.invoke("simulate", "--scenario", "secure_leader",
                          "--out-dir", str(tmp_path))
        assert res.exit_code == 0
        assert "converged: True" in res.output
        assert (tmp_path / "secure_leader_axis0_trace.csv").exists()

    def test_simulate_nonconvergent_exit_3(self):
        res = self.invoke("simulate", "--scenario", "fig4a_1hop",
                          "--max-rounds", "400", "--summary")
        assert res.exit_code == 3
        assert "converged: False" in res.output

    def test_simulate_reports_rounds_run_not_states_recorded(self):
        # A run of k rounds records k + 1 states: the initial one and one per round.
        res = self.invoke("simulate", "--scenario", "fig4a_1hop", "--max-rounds", "5")
        assert res.exit_code == 3
        assert "rounds simulated: 5\n" in res.output

    def test_simulate_two_axes_reports_velocity_per_axis(self):
        res = self.invoke("simulate", "--scenario", "fig7b_2hop_second_order",
                          "--max-rounds", "5")
        assert res.exit_code == 3
        assert "axis 0: velocity residual: " in res.output
        assert "axis 1: velocity residual: " in res.output

    def test_simulate_cut_before_last_step_exit_3(self):
        # fig5_staircase steps to 3.0 at round 400, which 260 rounds never reach.
        res = self.invoke("simulate", "--scenario", "fig5_staircase",
                          "--max-rounds", "260", "--summary")
        assert res.exit_code == 3
        assert "classification: budget-exhausted" in res.output

    def test_simulate_overflowing_mean_exits_1(self, tmp_path):
        # Finite values that validate accepts, but whose sum overflows a float.
        data = yaml.safe_load(corpus_path("fig4a_1hop").read_text())
        data["init"].update({1: 1.0e308, 2: 1.0e308})
        p = tmp_path / "huge.yaml"
        p.write_text(yaml.safe_dump(data))
        assert self.invoke("validate", "--scenario", str(p)).exit_code == 0
        res = self.invoke("simulate", "--scenario", str(p))
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.exception
        assert "error:" in res.output and "Traceback" not in res.output

    def test_simulate_failing_axis_writes_no_csv(self, tmp_path):
        # The first update overflows, after round 0's exchange: the axis
        # leaves no CSV, whole or in part.
        data = {"topology": "net7_secure", "algorithm": "mw-msr", "f": 0, "l": 1,
                "reference": 1.0, "init": {i: 1.7e308 for i in range(2, 8)}}
        p = tmp_path / "huge.yaml"
        p.write_text(yaml.safe_dump(data))
        out = tmp_path / "out"
        res = self.invoke("simulate", "--scenario", str(p), "--out-dir", str(out))
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.exception
        assert "error: retained values overflow their sum" in res.output
        assert "Traceback" not in res.output
        assert list(out.glob("*_axis0_*.csv")) == []

    def test_simulate_unknown_scenario(self):
        res = self.invoke("simulate", "--scenario", "no_such_thing")
        assert res.exit_code == 1
        assert "error:" in res.output

    def test_validate_ok(self):
        res = self.invoke("validate", "--scenario", "fig4b_3hop")
        assert res.exit_code == 0
        assert "valid (fingerprint" in res.output

    def test_validate_rejects(self, workspace):
        p = workspace / "scn.yaml"
        p.write_text(mini_scenario_yaml(init="{2: 3.0}"))
        res = self.invoke("validate", "--scenario", str(p))
        assert res.exit_code == 1
        assert "missing initial values" in res.output

    def test_validate_rejects_empty_leaders(self, workspace):
        (workspace / "topo.yaml").write_text(MINI_TOPOLOGY.replace("leaders: [1]", "leaders: []"))
        p = workspace / "scn.yaml"
        p.write_text(mini_scenario_yaml(init="{1: 1.0, 2: 3.0, 3: 5.0, 4: 2.0}"))
        res = self.invoke("validate", "--scenario", str(p))
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.exception
        assert res.stderr == "invalid: at least one leader required\n"

    def test_validate_reports_hop_count(self, workspace):
        p = workspace / "scn.yaml"
        p.write_text(mini_scenario_yaml(l="0"))
        res = self.invoke("validate", "--scenario", str(p))
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
        assert "l >= 1" in res.output

    def test_yaml_syntax_error_exits_1(self, workspace):
        p = workspace / "scn.yaml"
        p.write_text("topology: [topo.yaml\n")
        res = self.invoke("validate", "--scenario", str(p))
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
        assert "malformed YAML" in res.output

    def test_corpus_list(self):
        res = self.invoke("corpus", "list")
        assert res.exit_code == 0
        assert "net15" in res.output.split()


MALFORMED = [
    ("topology", {"n": "x"}, "'n'"),
    ("topology", {"graphs": [{"edges": [[1, 2]]}]}, "'graphs'"),
    ("topology", {"graphs": {"g": {"edges": 5}}}, "'graphs.g.edges'"),
    # A mapping is refused where a pair is due, not unpacked into its keys.
    ("topology", {"graphs": {"g": {"edges": [{1: None, 2: None}]}}}, "'graphs.g.edges'"),
    ("topology", {"graphs": {"g": {"undirected_edges": [{1: 0, 2: 0}]}}},
     "'graphs.g.undirected_edges'"),
    ("scenario", {"init": [3.0, 5.0]}, "'init'"),
    ("scenario", {"reference": "abc"}, "'reference'"),
    ("scenario", {"reference": [{0: None, 1: None}]}, "'reference'"),
    ("scenario", {"adversaries": [{"emit": {"center": 2.0}}]}, "'adversaries'"),
    # A string or a mapping is refused where a list is due, not iterated.
    ("topology", {"graphs": {"g": {"edges": "23"}}},
     "'graphs.g.edges': expected a list, got '23'"),
    ("topology", {"graphs": {"g": {"edges": {2: 3}}}},
     "'graphs.g.edges': expected a list, got {2: 3}"),
    ("topology", {"graphs": {"g": {"undirected_edges": "23"}}},
     "'graphs.g.undirected_edges': expected a list, got '23'"),
    ("topology", {"graphs": {"g": {"undirected_edges": {2: 3}}}},
     "'graphs.g.undirected_edges': expected a list, got {2: 3}"),
    ("scenario", {"adversaries": "23"}, "'adversaries': expected a list, got '23'"),
    ("scenario", {"adversaries": {2: 3}}, "'adversaries': expected a list, got {2: 3}"),
    ("scenario", {"adversaries": ""}, "'adversaries': expected a list, got ''"),
    ("scenario", {"adversaries": {}}, "'adversaries': expected a list, got {}"),
    ("scenario", {"adversaries": [{"node": 4, "emit": {"center": 2.0, "groups": "23"}}]},
     "'adversaries': expected a list, got '23'"),
    ("scenario", {"adversaries": [{"node": 4, "emit": {"center": 2.0, "groups": {2: 3}}}]},
     "'adversaries': expected a list, got {2: 3}"),
    ("scenario", {"adversaries": [{"node": 4, "emit": {
        "center": 2.0, "groups": [{"receivers": "23", "center": 1.0}]}}]},
     "'adversaries': expected a list, got '23'"),
    ("scenario", {"adversaries": [{"node": 4, "emit": {
        "center": 2.0, "groups": [{"receivers": {2: 3}, "center": 1.0}]}}]},
     "'adversaries': expected a list, got {2: 3}"),
]

yaml_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 20) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.integers(-3, 20) | st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def mutated(draw, node):
    """``node`` with one value somewhere inside it replaced or removed."""
    if isinstance(node, (dict, list)) and node and draw(st.booleans()):
        out = dict(node) if isinstance(node, dict) else list(node)
        key = draw(st.sampled_from(list(out) if isinstance(out, dict) else range(len(out))))
        if isinstance(out, dict) and draw(st.integers(0, 4)) == 0:
            del out[key]
        else:
            out[key] = draw(mutated(node[key]))
        return out
    return draw(yaml_values)


def replaced(data, path, value):
    """A deep copy of ``data`` with the entry at ``path`` set to ``value``."""
    out = copy.deepcopy(data)
    *head, last = path
    node = out
    for key in head:
        node = node[key]
    node[last] = value
    return out


# (kind, path to a key's value, the misspelled or foreign key, its value)
UNKNOWN_KEYS = {
    "scenario": ("scenario", (), "max_round", 5),
    "topology": ("topology", (), "nodes", 4),
    "graph": ("topology", ("graphs", "g"), "edge", [[1, 2]]),
    "adversary": ("scenario", ("adversaries", 0), "modle", "malicious"),
    "emit": ("scenario", ("adversaries", 0, "emit"), "group", []),
    "default": ("scenario", ("adversaries", 0, "emit", "default"), "kind", "square"),
    "group": ("scenario", ("adversaries", 0, "emit", "groups", 0), "members", [3]),
    "emit-waveform": ("scenario", ("adversaries", 0, "emit"), "amp", 1.0),
    "first-order-T": ("scenario", (), "T", 0.1),
    "budget": ("scenario", (), "budget", 300),
}

# (kind, path, the field the error names); the value there becomes 1.9 or True.
INTEGER_FIELDS = {
    "n": ("topology", ("n",), "'n'"),
    "leaders": ("topology", ("leaders", 0), "'leaders'"),
    "intervals": ("topology", ("intervals", 0), "'intervals'"),
    "edges": ("topology", ("graphs", "g", "edges", 0, 1), "'graphs.g.edges'"),
    "undirected-edges": ("topology", ("graphs", "g", "undirected_edges", 0, 0),
                         "'graphs.g.undirected_edges'"),
    "f": ("scenario", ("f",), "'f'"),
    "l": ("scenario", ("l",), "'l'"),
    "axes": ("scenario", ("axes",), "'axes'"),
    "window": ("scenario", ("window",), "'window'"),
    "max_rounds": ("scenario", ("max_rounds",), "'max_rounds'"),
    "piece-start": ("scenario", ("reference", 1, 0), "'reference'"),
    "adversary-node": ("scenario", ("adversaries", 0, "node"), "'adversaries'"),
    "period": ("scenario", ("adversaries", 0, "emit", "default", "period"), "'adversaries'"),
    "receivers": ("scenario", ("adversaries", 0, "emit", "groups", 0, "receivers", 0),
                  "'adversaries'"),
}

# (path, the field the error names); the value there becomes True or "1.3".
FLOAT_FIELDS = {
    "tol": (("tol",), "'tol'"),
    "T": (("T",), "'T'"),
    "beta": (("beta",), "'beta'"),
    "reference-constant": (("reference",), "'reference'"),
    "reference-value": (("reference", 1, 1), "'reference'"),
    "init": (("init", 2), "'init'"),
    "delta": (("delta", 2), "'delta'"),
    "center": (("adversaries", 0, "emit", "default", "center"), "'adversaries'"),
    "amplitude": (("adversaries", 0, "emit", "default", "amplitude"), "'adversaries'"),
    "group-center": (("adversaries", 0, "emit", "groups", 0, "center"), "'adversaries'"),
    "group-amplitude": (("adversaries", 0, "emit", "groups", 0, "amplitude"),
                        "'adversaries'"),
}


# A two-axis second-order scenario on the mini topology, init aside.
SECOND_ORDER_2D = {"algorithm": "mdp-msr", "T": 0.8, "beta": 1.65, "axes": 2, "delta": {}}


class TestMalformedInput:
    @pytest.mark.parametrize(
        "kind, over, field", MALFORMED,
        ids=["n-text", "graphs-list", "edges-int", "edges-mapping", "undirected-mapping",
             "init-list", "reference-text", "reference-mapping", "no-node",
             "edges-text", "edges-dict", "undirected-text", "undirected-dict",
             "adversaries-text", "adversaries-dict", "adversaries-empty-text",
             "adversaries-empty-dict", "groups-text", "groups-dict", "receivers-text",
             "receivers-dict"],
    )
    def test_malformed_field_is_scenario_error(self, workspace, kind, over, field):
        with pytest.raises(ScenarioError, match=re.escape(field)):
            if kind == "topology":
                parse_topology({**TOPOLOGY, **over})
            else:
                parse_scenario({**SCENARIO, **over}, "scn", workspace)

    @pytest.mark.parametrize("where", UNKNOWN_KEYS)
    def test_unknown_key_is_named(self, workspace, where):
        kind, path, key, value = UNKNOWN_KEYS[where]
        data = TOPOLOGY if kind == "topology" else SCENARIO
        bad = replaced(data, path + (key,), value)
        with pytest.raises(ScenarioError, match=f"unknown field.*'{key}'"):
            if kind == "topology":
                parse_topology(bad)
            else:
                parse_scenario(bad, "scn", workspace)

    @pytest.mark.parametrize(
        "line, field, value",
        [("schedule: ab", "schedule", "'ab'"), ("schedule: a0", "schedule", "'a0'"),
         ('leaders: "12"', "leaders", "'12'"), ('intervals: "2"', "intervals", "'2'"),
         ("leaders: {1: 2}", "leaders", "{1: 2}")],
        ids=["schedule-of-graph-names", "schedule-unknown-char", "leaders-text",
             "intervals-text", "leaders-mapping"],
    )
    def test_topology_list_given_as_text_exits_1(self, tmp_path, line, field, value):
        """A string or a mapping is not read as the list of its characters or
        keys: ``schedule: ab`` with graphs a and b is an error, not [a, b]."""
        text = textwrap.dedent(
            """
            n: 3
            leaders: [1]
            graphs:
              a:
                edges: [[1, 2], [2, 3]]
              b:
                edges: [[1, 3], [3, 2]]
            schedule: [a, b]
            intervals: [2]
            """
        )
        p = tmp_path / "topo.yaml"
        args = ["check-robustness", "--topology", str(p), "--r", "1", "--l", "1", "--f", "0"]
        p.write_text(text)
        assert CliRunner().invoke(main, args).exit_code == 0
        p.write_text(re.sub(rf"(?m)^{field}: .*$", line, text))
        res = CliRunner().invoke(main, args)
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.exception
        assert f"malformed '{field}': expected a list, got {value}" in res.output

    def test_misspelled_max_rounds_fails_validate(self, tmp_path):
        data = yaml.safe_load(corpus_path("fig4a_1hop").read_text())
        data["max_round"] = data.pop("max_rounds")
        p = tmp_path / "scn.yaml"
        p.write_text(yaml.safe_dump(data))
        res = CliRunner().invoke(main, ["validate", "--scenario", str(p)])
        assert res.exit_code == 1 and "'max_round'" in res.output

    @pytest.mark.parametrize("bad", [1.9, True], ids=["float", "bool"])
    @pytest.mark.parametrize("where", INTEGER_FIELDS)
    def test_integer_field_is_not_truncated(self, workspace, where, bad):
        kind, path, field = INTEGER_FIELDS[where]
        scenario = {**SCENARIO, "axes": 1, "window": 50, "max_rounds": 100,
                    "reference": [[0, 1.0], [5, 2.0]]}
        data = TOPOLOGY if kind == "topology" else scenario
        with pytest.raises(ScenarioError, match=f"{re.escape(field)}.*expected an integer"):
            if kind == "topology":
                parse_topology(replaced(data, path, bad))
            else:
                parse_scenario(replaced(data, path, bad), "scn", workspace)

    @pytest.mark.parametrize("bad", [True, "1.3"], ids=["bool", "string"])
    @pytest.mark.parametrize("where", FLOAT_FIELDS)
    def test_float_field_refuses_bools_and_strings(self, workspace, where, bad):
        path, field = FLOAT_FIELDS[where]
        data = {**SCENARIO, "algorithm": "mdp-msr", "T": 0.8, "beta": 1.65, "tol": 1e-6,
                "reference": [[0, 1.0], [5, 2.0]]}
        with pytest.raises(ScenarioError, match=f"{re.escape(field)}.*expected a number"):
            parse_scenario(replaced(data, path, bad), "scn", workspace)

    def test_float_field_reads_an_integer_as_a_float(self, workspace):
        data = {**SCENARIO, "algorithm": "mdp-msr", "T": 0.8, "beta": 2, "tol": 1,
                "reference": 3, "init": {2: 3, 3: 5}, "delta": {2: -1},
                "adversaries": [{"node": 4, "emit": {"center": 2, "amplitude": 1}}]}
        sc = parse_scenario(data, "scn", workspace)
        wave = sc.scripts[4].default
        values = [sc.params.beta, sc.tol, sc.reference.pieces[0][1], sc.init[2][0][0],
                  sc.delta[2][0], wave.center, wave.amplitude]
        assert values == [2.0, 1.0, 3.0, 3.0, -1.0, 2.0, 1.0]
        assert all(type(v) is float for v in values)

    def test_integer_node_ids_are_not_truncated(self, workspace):
        for bad in (1.9, True):
            for key in ("init", "delta"):
                with pytest.raises(ScenarioError, match=f"'{key}'.*expected an integer"):
                    parse_scenario({**SCENARIO, key: {bad: 0.5}}, "scn", workspace)

    @pytest.mark.parametrize(
        "over, message",
        [
            ({"init": {2: float("nan"), 3: 5.0}}, "non-finite values in init[2]"),
            ({"delta": {2: float("inf")}}, "non-finite values in delta[2]"),
            ({"adversaries": [{"node": 4, "emit": {"center": float("inf")}}]},
             "non-finite values in adversary 4"),
            ({"adversaries": [{"node": 4, "emit": {
                "default": {"center": 2.0},
                "groups": [{"receivers": [2], "center": 1.0, "amplitude": float("nan")}],
            }}]}, "non-finite values in adversary 4"),
            ({"adversaries": [{"node": 4, "emit": {
                "center": 1.0e308, "amplitude": 1.0e308}}]}, "non-finite values in adversary 4"),
            ({"adversaries": [{"node": 4, "emit": {
                "center": -1.0e308, "amplitude": 1.0e308, "waveform": "sinusoid"}}]},
             "non-finite values in adversary 4"),
            ({"tol": float("nan")}, "tolerance must be positive and finite"),
            ({"tol": float("inf")}, "tolerance must be positive and finite"),
            ({**SECOND_ORDER_2D, "init": {2: [[], [2.4, 0.0]], 3: [5.0, 1.0]}},
             "second-order init for node 2 must be [x] or [x, v] per axis"),
            ({**SECOND_ORDER_2D, "init": {2: [[4.6, 0.0, 9.0], [2.4, 0.0]], 3: [5.0, 1.0]}},
             "second-order init for node 2 must be [x] or [x, v] per axis"),
            ({"adversaries": [{"node": 4, "emit": {
                "default": {"center": 2.0},
                "groups": [{"receivers": [99, 2], "center": 1.0}],
            }}]}, "node id 99 outside 1..4"),
            ({"algorithm": "mdp-msr", "T": 1.0e300, "beta": 1.65},
             "sampling period T must be in (0, 1], got 1e+300"),
            ({"delta": {2: [0.5, 0.5]}}, "error: delta[2]: need one offset per axis"),
            ({"adversaries": [{"node": 4, "emit": {"center": 2.0, "period": 0}}]},
             "error: malformed 'adversaries': waveform period must be >= 1, got 0"),
        ],
        ids=["init-nan", "delta-inf", "center-inf", "group-amplitude-nan",
             "square-swing-overflows", "sinusoid-swing-overflows",
             "tol-nan", "tol-inf", "second-order-init-empty-axis",
             "second-order-init-three-values", "receiver-outside", "huge-T",
             "delta-offset-count", "period-zero"],
    )
    def test_invalid_value_fails_validate_and_simulate(self, workspace, over, message):
        p = workspace / "scn.yaml"
        p.write_text(yaml.safe_dump({**SCENARIO, **over}))
        for command in ("validate", "simulate"):
            res = CliRunner().invoke(main, [command, "--scenario", str(p)])
            assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.exception
            assert message in res.output

    @given(st.booleans(), st.data())
    def test_only_scenario_error_escapes(self, tmp_path_factory, mutate_topology, data):
        topology, scenario = TOPOLOGY, SCENARIO
        if mutate_topology:
            topology = data.draw(mutated(TOPOLOGY))
        else:
            scenario = data.draw(mutated(SCENARIO))
        root = tmp_path_factory.getbasetemp()
        (root / "topo.yaml").write_text(yaml.safe_dump(topology))
        (root / "scn.yaml").write_text(yaml.safe_dump(scenario))
        try:
            parse_topology(topology)
            parse_scenario(scenario, "scn", root)
        except ScenarioError:
            res = CliRunner().invoke(main, ["validate", "--scenario", str(root / "scn.yaml")])
            assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.exception
            assert "Traceback" not in res.output


# Characters a mutation inserts or writes over: YAML indicators, whitespace,
# digits and letters.
MUTATION_CHARS = " \t\n:-[]{},#?&*!|>'\"%@`.0123456789eaxy"


def mutation(text: str, rng: random.Random) -> str:
    """``text`` with one to three characters inserted, deleted or replaced."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(chars))
        op = rng.choice(("insert", "delete", "replace"))
        if op == "delete":
            del chars[i]
        else:
            chars[i:i + (op == "replace")] = rng.choice(MUTATION_CHARS)
    return "".join(chars)


class TestLoader:
    def test_same_data_as_pure_python_loader(self, tmp_path):
        workloads = load_workloads()
        for name in workloads.WORKLOADS:
            for seed in (0, 1, 2):
                workloads.generate(name, seed, tmp_path / f"{name}-{seed}")
        files = sorted(tmp_path.glob("*/*.yaml")) + [corpus_path(n) for n in corpus_names()]
        assert len(files) > 90
        for path in files:
            data = scenario_mod._load_mapping(path, "input")
            expected = yaml.load(path.read_bytes(), Loader=yaml.SafeLoader)
            assert data == expected and repr(data) == repr(expected), path

    def test_dotless_exponent_is_a_float(self, loader, tmp_path):
        text = corpus_path("fig4a_1hop").read_text()
        cases = (("dot", "1.0e-6", "1.3"), ("dotless", "1e-6", "13e-1"), ("unsigned", "1.0e-6", "1.3e0"))
        for name, tol, init in cases:
            (tmp_path / name).mkdir()
            p = tmp_path / name / "fig4a_1hop.yaml"
            p.write_text(text.replace("tol: 1.0e-6", f"tol: {tol}").replace("  1: 1.3", f"  1: {init}"))
        dot, dotless, unsigned = (
            load_scenario(tmp_path / name / "fig4a_1hop.yaml") for name, _, _ in cases
        )
        assert dotless.tol == 1e-6 and dotless.init[1] == unsigned.init[1] == ((1.3,),)
        assert dotless.fingerprint() == unsigned.fingerprint() == dot.fingerprint()
        floats = {"a": "1E5", "b": "-2e+3", "c": "1.5e3", "d": "6.02e23", "e": "-2.5e10",
                  "f": ".5e3", "g": "1.e3", "h": "+1.5E-3"}
        data = yaml.load("".join(f"{k}: {v}\n" for k, v in floats.items()), Loader=scenario_mod._LOADER)
        assert data == {k: float(v) for k, v in floats.items()}
        others = "a: 5\nb: 0x1F\nc: 1_000\nd: .inf\ne: 1.5\nf: '1.5e3'\ng: '1e-6'\nh: 1.5e3x\n"
        data = yaml.load(others, Loader=scenario_mod._LOADER)
        assert data == {"a": 5, "b": 31, "c": 1000, "d": float("inf"), "e": 1.5,
                        "f": "1.5e3", "g": "1e-6", "h": "1.5e3x"}

    def test_pyyaml_loaders_are_unchanged(self):
        bases = [yaml.SafeLoader] + ([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])
        for base in bases:
            assert yaml.load("a: 1e-6", Loader=base) == {"a": "1e-6"}

    def test_invalid_bytes_are_malformed_yaml(self, loader, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_bytes(mini_scenario_yaml().encode() + b"\n# \xff\n")
        res = CliRunner().invoke(main, ["validate", "--scenario", str(p)])
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.exception
        assert "bad.yaml: malformed YAML" in res.output

    def test_utf16_with_bom_loads(self, loader, workspace):
        (workspace / "utf8.yaml").write_text(mini_scenario_yaml(), encoding="utf-8")
        (workspace / "utf16.yaml").write_text(mini_scenario_yaml(), encoding="utf-16")
        utf8, utf16 = (load_scenario(workspace / f"{n}.yaml") for n in ("utf8", "utf16"))
        assert dataclasses.replace(utf16, name="utf8").fingerprint() == utf8.fingerprint()

    def test_mutated_corpus_raises_only_scenario_error(self, loader, tmp_path):
        # libyaml accepts a few texts the pure-Python parser refuses (a tab
        # inside a plain scalar, '?' in a flow mapping); what they parse to
        # must then be refused by the key and type checks, or validate.
        rng = random.Random(13)
        names = corpus_names()
        texts = {name: corpus_path(name).read_text() for name in names}
        loaded = 0
        for k in range(200):
            name = names[k % len(names)]
            p = tmp_path / f"{name}.yaml"
            p.write_text(mutation(texts[name], rng))
            try:
                if name.startswith("net"):
                    load_topology(p)
                else:
                    load_scenario(p).validate()
                loaded += 1
            except ScenarioError:
                pass
        assert 0 < loaded < 200
