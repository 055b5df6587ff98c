import math
import random

import pytest
from hypothesis import given, strategies as st

from rclab.adversary import AttackScript, Waveform
from rclab.graphs import DiGraph, Path, all_paths_into
from rclab.messaging import (
    Message,
    MessageError,
    coverable_prefix,
    minimum_message_cover,
    mmc_brute_force_oracle,
    mmc_cardinality,
    relay_round,
)
from conftest import random_digraph


def ms(*specs):
    return tuple(Message(v, Path(p)) for v, p in specs)


class ConstHook:
    def __init__(self, emit_value, relay_value=None):
        self.emit_value = emit_value
        self.relay_value = relay_value

    def emit(self, k, receiver):
        return self.emit_value

    def relay(self, value, k, receiver):
        return value if self.relay_value is None else self.relay_value


class CountingHook(ConstHook):
    def __init__(self, emit_value):
        super().__init__(emit_value)
        self.emits = []

    def emit(self, k, receiver):
        self.emits.append(receiver)
        return self.emit_value


def walk_relay_round(g, senders, l, k, hooks):
    """Reference relay: every path walks every relay, one hop at a time."""
    out = {}
    for i in g.nodes:
        msgs = []
        for p in all_paths_into(g, i, l):
            hook = hooks.get(p.source)
            value = hook.emit(k, p.nodes[1]) if hook is not None else senders[p.source]
            for pos in range(1, p.hops):
                relay_hook = hooks.get(p.nodes[pos])
                if relay_hook is not None:
                    value = relay_hook.relay(value, k, p.nodes[pos + 1])
            msgs.append((p.nodes, value))
        out[i] = msgs
    return out


def random_script(rng, node, n, honest):
    """A Byzantine script with receiver groups, a pass-through relay, or an
    honest emitter that corrupts only what it relays."""
    kind = rng.choice(["groups", "identity", "relay-only"])
    if kind == "relay-only":
        return AttackScript(node, Waveform.constant(honest), relay_mode="same")
    receivers = [i for i in range(1, n + 1) if i != node]
    rng.shuffle(receivers)
    cut = rng.randint(0, len(receivers))
    groups = (
        (frozenset(receivers[:cut]), Waveform(rng.uniform(-5, 5), 1.0, 2)),
        (frozenset(receivers[cut:]), Waveform(rng.uniform(-5, 5), 0.5, 3)),
    )
    mode = "identity" if kind == "identity" else "same"
    return AttackScript(node, Waveform(100.0 + node), groups, relay_mode=mode)


class RecordingHook(ConstHook):
    """Identity relay that records each (value, receiver) it relays."""

    def __init__(self, emit_value):
        super().__init__(emit_value)
        self.relays = []

    def relay(self, value, k, receiver):
        self.relays.append((value, receiver))
        return value


class TestMessageTypes:
    def test_rejects_non_finite(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(MessageError):
                Message(bad, Path((1, 2)))

    def test_immutable(self):
        m = Message(1.0, Path((1, 2)))
        with pytest.raises(AttributeError):
            m.value = 2.0
        with pytest.raises(AttributeError):
            m.path = Path((3, 2))
        assert m == Message(1.0, Path((1, 2)))

    def test_equal_messages_hash_equal(self):
        a, b = Message(1.5, Path((1, 3, 2))), Message(1.5, Path((1, 3, 2)))
        assert a == b and hash(a) == hash(b)
        assert len({a, b, Message(1.5, Path((3, 2)))}) == 2
        assert (a.source, a.destination) == (1, 2)

    def test_replace_keeps_finiteness_check(self):
        m = Message(1.0, Path((1, 2)))
        assert m._replace(value=3.0) == Message(3.0, Path((1, 2)))
        with pytest.raises(MessageError):
            m._replace(value=float("nan"))


class TestRelayRound:
    def test_one_hop_values_are_sender_states(self):
        g = DiGraph.from_edges(3, [(1, 3), (2, 3)])
        out = relay_round(g, {1: 1.5, 2: 2.5, 3: 0.0}, l=1)
        got = {(m.source, m.value) for m in out[3]}
        assert got == {(1, 1.5), (2, 2.5)}

    def test_chain_two_hops_all_normal(self):
        g = DiGraph.from_edges(3, [(1, 2), (2, 3)])
        out = relay_round(g, {1: 10.0, 2: 20.0, 3: 0.0}, l=2)
        by_path = {m.path.nodes: m.value for m in out[3]}
        assert by_path == {(2, 3): 20.0, (1, 2, 3): 10.0}

    def test_adversarial_relay_corrupts_value_not_path(self):
        g = DiGraph.from_edges(3, [(1, 2), (2, 3)])
        hooks = {2: ConstHook(emit_value=99.0, relay_value=-1.0)}
        out = relay_round(g, {1: 10.0, 2: 20.0, 3: 0.0}, l=2, hooks=hooks)
        by_path = {m.path.nodes: m.value for m in out[3]}
        assert by_path == {(2, 3): 99.0, (1, 2, 3): -1.0}

    def test_adversarial_source_uses_emit(self):
        g = DiGraph.from_edges(2, [(1, 2)])
        out = relay_round(g, {1: 0.0, 2: 0.0}, l=1, hooks={1: ConstHook(7.0)})
        assert [m.value for m in out[2]] == [7.0]

    @given(st.integers(3, 6), st.integers(1, 3), st.randoms())
    def test_path_multiset_independent_of_adversaries(self, n, l, rng):
        g = random_digraph(random.Random(rng.randint(0, 10**9)), n)
        senders = {i: float(i) for i in g.nodes}
        clean = relay_round(g, senders, l)
        hooked = relay_round(g, senders, l, hooks={1: ConstHook(123.0, 321.0)})
        for i in g.nodes:
            assert [m.path for m in clean[i]] == [m.path for m in hooked[i]]

    def test_matches_per_hop_walk(self):
        rng = random.Random(2024)
        through_relay = 0
        for _ in range(150):
            n = rng.randint(3, 8)
            g = random_digraph(rng, n)
            l, k = rng.randint(1, 3), rng.randint(0, 5)
            senders = {i: rng.uniform(-10, 10) for i in g.nodes}
            adversaries = rng.sample(list(g.nodes), rng.randint(1, max(1, n // 2)))
            hooks = {a: random_script(rng, a, n, senders[a]) for a in adversaries}
            want = walk_relay_round(g, senders, l, k, hooks)
            got = relay_round(g, senders, l, k, hooks)
            assert sorted(got) == sorted(want)
            for i in g.nodes:
                assert [(m.path.nodes, m.value) for m in got[i]] == want[i]
                # Honest source, value changed by an adversarial relay.
                through_relay += sum(
                    1 for nodes, value in want[i]
                    if nodes[0] not in hooks and value != senders[nodes[0]]
                )
        assert through_relay > 0

    def test_emit_called_once_per_source_and_receiver(self):
        g = DiGraph.from_edges(4, [(1, 2), (1, 3), (2, 4), (3, 4), (2, 3)])
        hook = CountingHook(5.0)
        out = relay_round(g, {i: 0.0 for i in g.nodes}, l=3, hooks={1: hook})
        assert sorted(hook.emits) == [2, 3]
        assert {m.value for msgs in out.values() for m in msgs if m.source == 1} == {5.0}

    def test_relay_called_once_per_node_receiver_and_value(self):
        # Sources 1 and 2 send 1.0, source 5 sends 2.0, all through relay 3.
        g = DiGraph.from_edges(6, [(1, 3), (2, 3), (5, 3), (3, 4), (3, 6), (4, 6)])
        hook = RecordingHook(7.0)
        senders = {1: 1.0, 2: 1.0, 3: 0.0, 4: 0.0, 5: 2.0, 6: 0.0}
        out = relay_round(g, senders, l=3, hooks={3: hook})
        assert sorted(hook.relays) == [(1.0, 4), (1.0, 6), (2.0, 4), (2.0, 6)]
        want = walk_relay_round(g, senders, 3, 0, {3: ConstHook(7.0)})
        for i in g.nodes:
            assert [(m.path.nodes, m.value) for m in out[i]] == want[i]

    def test_identity_relay_keeps_the_sign_of_zero(self):
        # 0.0 == -0.0, yet an identity relay must deliver each one unchanged.
        g = DiGraph.from_edges(4, [(1, 3), (2, 3), (3, 4)])
        for first, second in ((0.0, -0.0), (-0.0, 0.0)):
            hook = AttackScript(3, Waveform.constant(5.0), relay_mode="identity")
            senders = {1: first, 2: second, 3: 0.0, 4: 0.0}
            out = relay_round(g, senders, l=2, hooks={3: hook})
            signs = {m.path.nodes: math.copysign(1.0, m.value) for m in out[4]}
            assert signs[(1, 3, 4)] == math.copysign(1.0, first)
            assert signs[(2, 3, 4)] == math.copysign(1.0, second)


class TestMinimumMessageCover:
    def test_single_message(self):
        cover, card = minimum_message_cover(ms((1.0, (1, 2))))
        assert card == 1 and cover == {1}

    def test_disjoint_paths_need_two(self):
        _, card = minimum_message_cover(ms((1.0, (1, 4)), (2.0, (2, 3, 4))))
        assert card == 2

    def test_shared_relay_covers_both(self):
        cover, card = minimum_message_cover(ms((1.0, (1, 3, 4)), (2.0, (2, 3, 4))))
        assert cover == {3} and card == 1

    def test_destination_never_in_cover(self):
        cover, _ = minimum_message_cover(ms((1.0, (1, 4)), (2.0, (2, 4))))
        assert 4 not in cover

    def test_self_path_is_domain_error(self):
        with pytest.raises(MessageError):
            minimum_message_cover((Message(1.0, Path((2,))),))

    def test_empty_set_rejected(self):
        with pytest.raises(MessageError):
            minimum_message_cover(())

    def test_cover_is_sound_and_minimal(self):
        rng = random.Random(7)
        for _ in range(100):
            g = random_digraph(rng, rng.randint(3, 8))
            dst = 1
            from rclab.graphs import all_paths_into

            paths = all_paths_into(g, dst, 3)
            if not paths:
                continue
            picked = rng.sample(paths, min(len(paths), rng.randint(1, 6)))
            s = tuple(Message(float(i), p) for i, p in enumerate(picked))
            cover, card = minimum_message_cover(s)
            assert len(cover) == card
            for m in s:
                assert cover & (set(m.path.nodes) - {dst})
            oracle = mmc_brute_force_oracle(s)
            assert card == oracle
            for cap in range(oracle + 2):
                assert mmc_cardinality(s, cap) == min(oracle, cap + 1)

    def test_cardinality_depends_on_mask_set_and_cap(self):
        rng = random.Random(31)
        deepest = 0
        for _ in range(150):
            g = random_digraph(rng, rng.randint(3, 8))
            paths = all_paths_into(g, 1, 3)
            if not paths:
                continue
            picked = rng.sample(paths, min(len(paths), rng.randint(1, 7)))
            base = [Message(float(i), p) for i, p in enumerate(picked)]
            oracle = mmc_brute_force_oracle(base)
            deepest = max(deepest, oracle)
            variants = (
                base,
                base[::-1],
                rng.sample(base, len(base)),
                base + rng.choices(base, k=3),
                [Message(-m.value, m.path) for m in base],
            )
            for cap in [*range(oracle + 2), *reversed(range(oracle + 2))]:
                for v in variants:
                    assert mmc_cardinality(v, cap) == min(oracle, cap + 1)
        assert deepest >= 2

    def test_cardinality_rejects_empty_and_self_path(self):
        s = ms((1.0, (1, 2)), (2.0, (3, 2)))
        assert mmc_cardinality(s, 2) == 2
        with pytest.raises(MessageError):
            mmc_cardinality(s + (Message(0.0, Path((2,))),), 2)
        with pytest.raises(MessageError):
            mmc_cardinality((), 2)

    def test_coverable_prefix_matches_oracle(self):
        rng = random.Random(17)
        short = 0
        for _ in range(200):
            side = []
            for _ in range(rng.randint(1, 10)):
                relays = rng.sample(range(1, 8), rng.randint(0, 2))
                path = (rng.randint(1, 7), *relays, 9)
                if len(set(path)) == len(path):
                    side.append(Message(rng.uniform(-3, 3), Path(path)))
            for k in (1, 2, 3):
                longest = max(
                    (p for p in range(1, len(side) + 1)
                     if mmc_brute_force_oracle(side[:p]) <= k),
                    default=0,
                )
                assert coverable_prefix(side, k) == longest
                short += longest < len(side)
        assert short > 100

    def test_coverable_prefix_is_not_the_first_leaf(self):
        # Branching on node 1 first hits one message; node 2 hits two.
        side = ms((3.0, (1, 2, 9)), (2.0, (2, 9)), (1.0, (3, 9)))
        assert coverable_prefix(side, 1) == 2
        assert coverable_prefix(side, 2) == 3

    def test_coverable_prefix_edges(self):
        assert coverable_prefix((), 2) == 0
        assert coverable_prefix(ms((1.0, (1, 2))), 0) == 0
        with pytest.raises(MessageError):
            coverable_prefix(ms((1.0, (1, 2)), (0.0, (2,))), 2)

    def test_oracle_refuses_large_universe(self):
        paths = [(i, i + 1, 25) for i in range(1, 24, 2)]
        s = tuple(Message(0.0, Path(p)) for p in paths)
        with pytest.raises(MessageError):
            mmc_brute_force_oracle(s)

    def test_cardinality_bounds(self):
        s = ms((1.0, (1, 2, 5)), (2.0, (3, 2, 5)), (3.0, (4, 5)))
        _, card = minimum_message_cover(s)
        assert 1 <= card <= len(s)
        assert card <= min(len(set(m.path.nodes)) - 1 for m in s) * len(s)
        assert mmc_cardinality(list(s), card) == card
