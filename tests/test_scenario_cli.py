import dataclasses
import re
import textwrap

import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, strategies as st

from rclab.cli import main
from rclab.scenario import (
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

    def test_vector_init_rejected_for_first_order(self, workspace):
        sc = self.load(
            workspace,
            mini_scenario_yaml(init="{2: [3.0, 1.0], 3: 5.0, 4: 2.0}"),
        )
        assert any("scalar" in e for e in sc.validation_errors())


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
        assert res.output.count("necessary-condition") == 4

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

    def test_simulate_cut_before_last_step_exit_3(self):
        # fig5_staircase steps to 3.0 at round 400, which 260 rounds never reach.
        res = self.invoke("simulate", "--scenario", "fig5_staircase",
                          "--max-rounds", "260", "--summary")
        assert res.exit_code == 3
        assert "classification: budget-exhausted" in res.output

    def test_max_rounds_caps_file_budget(self, tmp_path):
        p = tmp_path / "capped.yaml"
        p.write_text(corpus_path("fig4a_1hop").read_text() + "\nbudget: 300\n")
        res = self.invoke("simulate", "--scenario", str(p), "--max-rounds", "10")
        assert res.exit_code == 3
        assert "rounds simulated: 11" in res.output

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
    ("scenario", {"init": [3.0, 5.0]}, "'init'"),
    ("scenario", {"reference": "abc"}, "'reference'"),
    ("scenario", {"adversaries": [{"emit": {"center": 2.0}}]}, "'adversaries'"),
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


class TestMalformedInput:
    @pytest.mark.parametrize(
        "kind, over, field", MALFORMED,
        ids=["n-text", "graphs-list", "edges-int", "init-list", "reference-text", "no-node"],
    )
    def test_malformed_field_is_scenario_error(self, workspace, kind, over, field):
        with pytest.raises(ScenarioError, match=re.escape(field)):
            if kind == "topology":
                parse_topology({**TOPOLOGY, **over})
            else:
                parse_scenario({**SCENARIO, **over}, "scn", workspace)

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
            ({"tol": float("nan")}, "tolerance must be positive and finite"),
            ({"tol": float("inf")}, "tolerance must be positive and finite"),
            ({"budget": -1}, "budget must be >= 0"),
        ],
        ids=["init-nan", "delta-inf", "center-inf", "group-amplitude-nan",
             "tol-nan", "tol-inf", "budget-negative"],
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
