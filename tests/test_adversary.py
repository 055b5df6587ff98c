import dataclasses
import math
import random

import pytest

from rclab.adversary import (
    AdversaryError,
    AttackScript,
    LocalityReport,
    Waveform,
    necessity_attack,
    validate_f_local,
)
from rclab.graphs import DiGraph, TopologySchedule
from rclab.robustness import Certificate


class TestWaveform:
    def test_square_alternates(self):
        w = Waveform(4.0, amplitude=0.3, period=2, kind="square")
        assert [w.value(k) for k in range(4)] == [4.3, 3.7, 4.3, 3.7]

    def test_sinusoid(self):
        w = Waveform(1.0, amplitude=0.5, period=4, kind="sinusoid")
        assert w.value(0) == pytest.approx(1.0)
        assert w.value(1) == pytest.approx(1.5)
        assert w.value(3) == pytest.approx(0.5)

    def test_constant(self):
        w = Waveform.constant(2.5)
        assert {w.value(k) for k in range(10)} == {2.5}

    def test_deterministic_replay(self):
        w = Waveform(0.0, 1.0, 7, "sinusoid")
        assert [w.value(k) for k in range(20)] == [w.value(k) for k in range(20)]

    def test_rejects_unknown_kind(self):
        with pytest.raises(AdversaryError):
            Waveform(0.0, kind="sawtooth")


class TestAttackScript:
    def script(self):
        return AttackScript(
            default=Waveform.constant(1.0),
            groups=((frozenset({1, 2, 3}), Waveform.constant(3.5)),),
        )

    def test_emit_per_group(self):
        s = self.script()
        assert s.emit(0, 2) == 3.5
        assert s.emit(0, 4) == 1.0

    def test_relay_same_matches_emit(self):
        s = self.script()
        assert s.relay(77.0, 5, 1) == s.emit(5, 1)

    def test_relay_identity_passes_through(self):
        s = AttackScript(Waveform.constant(1.0), relay_mode="identity")
        assert s.relay(77.0, 5, 1) == 77.0

    def test_malicious_forbids_groups(self):
        with pytest.raises(AdversaryError):
            AttackScript(
                Waveform.constant(0.0),
                groups=((frozenset({2}), Waveform.constant(1.0)),),
                model="malicious",
            )

    def test_malicious_is_receiver_independent(self):
        s = AttackScript(Waveform(2.0, 0.3, 2, "square"), model="malicious")
        for k in range(6):
            assert len({s.emit(k, r) for r in range(2, 10)}) == 1

    def test_groups_must_be_disjoint(self):
        with pytest.raises(AdversaryError):
            AttackScript(
                Waveform.constant(0.0),
                groups=(
                    (frozenset({2, 3}), Waveform.constant(1.0)),
                    (frozenset({3, 4}), Waveform.constant(2.0)),
                ),
            )


def random_waveform(rng):
    kind = rng.choice(("square", "sinusoid", "constant"))
    return Waveform(rng.uniform(-5, 5), rng.uniform(0.1, 2), rng.randint(1, 5), kind)


def random_groups(rng, n):
    """0-3 disjoint receiver groups over 1..n, some maybe empty, each with
    its own waveform."""
    receivers = list(range(1, n + 1))
    rng.shuffle(receivers)
    groups = []
    for _ in range(rng.randint(0, 3)):
        take = rng.randint(0, len(receivers))
        groups.append((frozenset(receivers[:take]), random_waveform(rng)))
        del receivers[:take]
    return tuple(groups)


def defined_emit(script, k, receiver):
    """The waveform of the group holding the receiver, else the default."""
    for members, wf in script.groups:
        if receiver in members:
            return wf.value(k)
    return script.default.value(k)


class TestEmit:
    def test_matches_definition_on_random_scripts(self):
        rng = random.Random(41)
        grouped = defaulted = 0
        for _ in range(200):
            n = rng.randint(1, 9)
            s = AttackScript(random_waveform(rng), random_groups(rng, n))
            for r in range(1, n + 1):
                in_group = any(r in members for members, _ in s.groups)
                grouped += in_group
                defaulted += not in_group
                for k in range(6):
                    assert s.emit(k, r) == defined_emit(s, k, r), (s, k, r)
        assert grouped > 0 and defaulted > 0

    def test_replaced_groups_apply(self):
        rng = random.Random(43)
        changed = 0
        for _ in range(100):
            n = rng.randint(1, 9)
            s = AttackScript(random_waveform(rng), random_groups(rng, n))
            before = [s.emit(k, r) for r in range(1, n + 1) for k in range(4)]
            t = dataclasses.replace(s, groups=random_groups(rng, n))
            after = [t.emit(k, r) for r in range(1, n + 1) for k in range(4)]
            assert after == [defined_emit(t, k, r) for r in range(1, n + 1) for k in range(4)]
            # The original keeps its own groups.
            assert [s.emit(k, r) for r in range(1, n + 1) for k in range(4)] == before
            changed += after != before
        assert changed > 0


class TestValidateFLocal:
    def test_empty_set_always_local(self):
        g = DiGraph.from_edges(3, [(1, 2), (2, 3)])
        rep = validate_f_local(set(), TopologySchedule.static(g), 1, 0)
        assert rep.f_local and rep.witness is None

    def test_net15_pair_is_2_local(self, net15):
        schedule, _ = net15
        rep = validate_f_local({7, 8}, schedule, 3, 2)
        assert rep.f_local

    def test_crowded_neighborhood_detected(self):
        g = DiGraph.from_edges(4, [(1, 4), (2, 4), (3, 4)])
        rep = validate_f_local({1, 2, 3}, TopologySchedule.static(g), 1, 2)
        assert not rep.f_local
        assert rep.witness == (4, 0)

    def test_adversary_nodes_exempt_from_bound(self):
        g = DiGraph.from_edges(3, [(1, 3), (2, 3)])
        rep = validate_f_local({1, 2, 3}, TopologySchedule.static(g), 1, 0)
        assert rep.f_local  # no normal node has adversarial in-neighbors


class TestNecessityAttack:
    def test_scripts_and_init(self):
        cert = Certificate(frozenset({5}), frozenset({1, 2}), 0)
        scripts, init = necessity_attack(cert, reference_value=1.0, stall_value=0.5)
        assert set(scripts) == {5}
        s = scripts[5]
        assert s.emit(3, 1) == 0.5  # into the trapped set
        assert s.emit(3, 7) == 1.0  # everyone else hears the reference
        assert s.relay(42.0, 0, 2) == 0.5
        assert init == {1: 0.5, 2: 0.5}

    def test_stall_must_differ(self):
        cert = Certificate(frozenset({5}), frozenset({1}), 0)
        with pytest.raises(AdversaryError):
            necessity_attack(cert, 1.0, 1.0)

    def test_default_stall_value(self):
        cert = Certificate(frozenset({5}), frozenset({1}), 0)
        _, init = necessity_attack(cert, reference_value=1.0)
        assert init[1] == 0.0
