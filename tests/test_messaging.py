import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from rclab.adversary import AttackScript, Waveform
from rclab.graphs import DiGraph, GraphError, Path, all_paths_into, bit_nodes
from rclab.messaging import (
    Message,
    MessageError,
    _hit_prefix,
    mmc_cardinality,
    relay_plan,
    relay_round,
)
from rclab.scenario import corpus_names
from conftest import random_digraph, scenario as corpus_scenario
from oracles import mmc_brute_force_oracle, walk_relay_round

SIMULATING = [name for name in corpus_names() if not name.startswith("net")]


def ms(*specs):
    return tuple(Message(v, Path(p)) for v, p in specs)


def coverable(side, k):
    """Length of the longest prefix of a side whose paths <= k nodes hit."""
    return _hit_prefix([m.path.mask for m in side], k)[0]


def minimum_cover(side):
    """(nodes, cardinality) of a minimum cover: ``mmc_cardinality`` with a
    cap no cover exceeds, and the node mask ``_hit_prefix`` returns at that
    depth."""
    card = mmc_cardinality(side, len(side))
    p, mask = _hit_prefix([m.path.mask for m in side], card)
    assert p == len(side)
    return set(bit_nodes(mask)), card


def random_script(rng, node, n, honest):
    """A Byzantine script with receiver groups, a pass-through relay, or an
    honest emitter that corrupts only what it relays."""
    kind = rng.choice(["groups", "identity", "relay-only"])
    if kind == "relay-only":
        return AttackScript(Waveform.constant(honest), relay_mode="same")
    receivers = [i for i in range(1, n + 1) if i != node]
    rng.shuffle(receivers)
    cut = rng.randint(0, len(receivers))
    groups = (
        (frozenset(receivers[:cut]), Waveform(rng.uniform(-5, 5), 1.0, 2)),
        (frozenset(receivers[cut:]), Waveform(rng.uniform(-5, 5), 0.5, 3)),
    )
    mode = "identity" if kind == "identity" else "same"
    return AttackScript(Waveform(100.0 + node), groups, relay_mode=mode)


def last_rewriter(nodes, scripts):
    """(adversary, next receiver) of the last node on a path that rewrites
    its value, or None: an adversarial source, or a "same" relay."""
    origin = None
    for pos, node in enumerate(nodes[:-1]):
        script = scripts.get(node)
        if script is not None and (pos == 0 or script.relay_mode == "same"):
            origin = (node, nodes[pos + 1])
    return origin


class CallLog:
    """Delegates to node ``node``'s script and logs each call made to it, in order."""

    def __init__(self, node, hook, calls):
        self.node, self.hook, self.calls = node, hook, calls
        self.relay_mode = hook.relay_mode

    def emit(self, k, receiver):
        self.calls.append(("emit", self.node, k, receiver))
        return self.hook.emit(k, receiver)

    def relay(self, value, k, receiver):
        self.calls.append(("relay", self.node, value, k, receiver))
        return self.hook.relay(value, k, receiver)


class FixedScript:
    """A duck-typed script: one emission to every receiver."""

    def __init__(self, value, relay_mode="same"):
        self.value, self.relay_mode = value, relay_mode

    def emit(self, k, receiver):
        return self.value


class TestMessageTypes:
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
        assert a.value == 1.5 and a.path.nodes == (1, 3, 2)


class TestRelayRound:
    def test_one_hop_values_are_sender_states(self):
        g = DiGraph.from_edges(3, [(1, 3), (2, 3)])
        out = relay_round(g, {1: 1.5, 2: 2.5, 3: 0.0}, l=1)
        got = {(m.path.nodes[0], m.value) for m in out[3]}
        assert got == {(1, 1.5), (2, 2.5)}

    def test_chain_two_hops_all_normal(self):
        g = DiGraph.from_edges(3, [(1, 2), (2, 3)])
        out = relay_round(g, {1: 10.0, 2: 20.0, 3: 0.0}, l=2)
        by_path = {m.path.nodes: m.value for m in out[3]}
        assert by_path == {(2, 3): 20.0, (1, 2, 3): 10.0}

    def test_adversarial_relay_corrupts_value_not_path(self):
        g = DiGraph.from_edges(4, [(1, 2), (2, 3), (2, 4)])
        hooks = {2: AttackScript(Waveform.constant(99.0),
                              ((frozenset({4}), Waveform.constant(-1.0)),))}
        out = relay_round(g, {1: 10.0, 2: 20.0, 3: 0.0, 4: 0.0}, l=2, hooks=hooks)
        assert {m.path.nodes: m.value for m in out[3]} == {(2, 3): 99.0, (1, 2, 3): 99.0}
        assert {m.path.nodes: m.value for m in out[4]} == {(2, 4): -1.0, (1, 2, 4): -1.0}

    def test_adversarial_source_uses_emit(self):
        g = DiGraph.from_edges(2, [(1, 2)])
        hooks = {1: AttackScript(Waveform.constant(7.0), relay_mode="identity")}
        out = relay_round(g, {1: 0.0, 2: 0.0}, l=1, hooks=hooks)
        assert [m.value for m in out[2]] == [7.0]

    def test_last_same_relay_rewrites_and_identity_passes(self):
        # Honest 1 -> "same" relay 2 -> "identity" relay 3 -> 4. Every
        # candidate emission differs: taking 3 for a rewriter, or the
        # destination for 2's receiver, delivers another value.
        g = DiGraph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
        hooks = {
            2: AttackScript(Waveform.constant(22.0),
                         ((frozenset({3}), Waveform.constant(21.0)),)),
            3: AttackScript(Waveform.constant(32.0),
                         ((frozenset({4}), Waveform.constant(31.0)),),
                         relay_mode="identity"),
        }
        out = relay_round(g, {1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0}, l=3, hooks=hooks)
        by_path = {m.path.nodes: m.value for m in out[4]}
        assert by_path == {(1, 2, 3, 4): 21.0, (2, 3, 4): 21.0, (3, 4): 31.0}

    def test_last_rewriter_wins_over_adversarial_source(self):
        # Adversarial source 1 -> "same" relay 2 -> 3: 2's emission to 3
        # replaces 1's emission to 2.
        g = DiGraph.from_edges(3, [(1, 2), (2, 3)])
        hooks = {
            1: AttackScript(Waveform.constant(12.0),
                         ((frozenset({2}), Waveform.constant(11.0)),)),
            2: AttackScript(Waveform.constant(22.0),
                         ((frozenset({3}), Waveform.constant(21.0)),)),
        }
        out = relay_round(g, {1: 1.0, 2: 2.0, 3: 3.0}, l=2, hooks=hooks)
        assert {m.path.nodes: m.value for m in out[3]} == {(1, 2, 3): 21.0, (2, 3): 21.0}
        assert {m.path.nodes: m.value for m in out[2]} == {(1, 2): 11.0}

    @given(st.integers(3, 6), st.integers(1, 3), st.randoms())
    def test_path_multiset_independent_of_adversaries(self, n, l, rng):
        g = random_digraph(random.Random(rng.randint(0, 10**9)), n)
        senders = {i: float(i) for i in g.nodes}
        clean = relay_round(g, senders, l)
        hooks = {1: AttackScript(Waveform.constant(123.0),
                              ((frozenset({2}), Waveform.constant(321.0)),))}
        hooked = relay_round(g, senders, l, hooks=hooks)
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

    def test_matches_per_hop_walk_on_corpus(self):
        for name in SIMULATING:
            sc = corpus_scenario(name)
            for g in sc.schedule.graphs:
                senders = {i: 0.25 * i - 1.0 for i in g.nodes}
                for k in range(4):
                    want = walk_relay_round(g, senders, sc.l, k, sc.scripts)
                    got = relay_round(g, senders, sc.l, k, sc.scripts)
                    assert {i: [(m.path.nodes, m.value) for m in ms]
                            for i, ms in got.items()} == want, (name, k)

    def test_plan_for_shuffled_subset_matches_per_hop_walk(self):
        # A plan for some destinations, in any order, delivers to exactly
        # those, in that order, what the walk delivers to each.
        rng = random.Random(31)
        for _ in range(150):
            n = rng.randint(3, 8)
            g = random_digraph(rng, n)
            l, k = rng.randint(1, 3), rng.randint(0, 5)
            senders = {i: rng.uniform(-10, 10) for i in g.nodes}
            adversaries = rng.sample(list(g.nodes), rng.randint(0, max(1, n // 2)))
            hooks = {a: random_script(rng, a, n, senders[a]) for a in adversaries}
            dests = rng.sample(list(g.nodes), rng.randint(0, n))
            plan = relay_plan({i: all_paths_into(g, i, l) for i in dests}, hooks)
            want = walk_relay_round(g, senders, l, k, hooks)
            got = relay_round(g, senders, l, k, hooks, plan)
            assert list(got) == dests
            for i in dests:
                assert [(m.path.nodes, m.value) for m in got[i]] == want[i]

    def test_spans_partition_the_flat_arrays(self):
        # In plan order, each span starts where the one before stops, holds
        # its destination's paths, and the last stops at the end.
        rng = random.Random(37)
        for _ in range(100):
            n = rng.randint(3, 8)
            g = random_digraph(rng, n)
            l = rng.randint(1, 3)
            hooks = {a: random_script(rng, a, n, 0.0) for a in rng.sample(list(g.nodes), 1)}
            dests = rng.sample(list(g.nodes), rng.randint(0, n))
            paths = {i: all_paths_into(g, i, l) for i in dests}
            plan = relay_plan(paths, hooks)
            assert list(plan.spans) == dests
            assert len(plan.slots) == len(plan.paths)
            stop = 0
            for i, (a, b) in plan.spans.items():
                assert a == stop
                assert plan.paths[a:b] == tuple(paths[i])
                stop = b
            assert stop == len(plan.paths)

    def test_one_emit_per_origin_and_no_relay(self):
        rng = random.Random(7)
        shared = 0
        for _ in range(60):
            n = rng.randint(3, 8)
            g = random_digraph(rng, n)
            l, k = rng.randint(1, 3), rng.randint(0, 5)
            senders = {i: rng.uniform(-10, 10) for i in g.nodes}
            adversaries = rng.sample(list(g.nodes), rng.randint(1, max(1, n // 2)))
            scripts = {a: random_script(rng, a, n, senders[a]) for a in adversaries}
            calls = []
            relay_round(g, senders, l, k, {a: CallLog(a, s, calls) for a, s in scripts.items()})
            origins = [last_rewriter(p.nodes, scripts)
                       for i in g.nodes for p in all_paths_into(g, i, l)]
            want = {o for o in origins if o is not None}
            assert sorted(calls) == sorted(("emit", a, k, r) for a, r in want)
            shared += len(want) < sum(o is not None for o in origins)
        assert shared > 0

    def test_identity_relay_keeps_the_sign_of_zero(self):
        # 0.0 == -0.0, yet an identity relay must deliver each one unchanged.
        g = DiGraph.from_edges(4, [(1, 3), (2, 3), (3, 4)])
        for first, second in ((0.0, -0.0), (-0.0, 0.0)):
            hook = AttackScript(Waveform.constant(5.0), relay_mode="identity")
            senders = {1: first, 2: second, 3: 0.0, 4: 0.0}
            out = relay_round(g, senders, l=2, hooks={3: hook})
            signs = {m.path.nodes: math.copysign(1.0, m.value) for m in out[4]}
            assert signs[(1, 3, 4)] == math.copysign(1.0, first)
            assert signs[(2, 3, 4)] == math.copysign(1.0, second)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_honest_value_raises(self, bad):
        g = DiGraph.from_edges(3, [(1, 2), (2, 3)])
        hooks = {2: FixedScript(5.0, relay_mode="identity")}
        with pytest.raises(MessageError, match="non-finite message value"):
            relay_round(g, {1: bad, 2: 0.0, 3: 0.0}, l=2, hooks=hooks)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_emission_raises(self, bad):
        g = DiGraph.from_edges(3, [(1, 2), (2, 3)])
        with pytest.raises(MessageError, match="non-finite message value"):
            relay_round(g, {1: 1.0, 2: 0.0, 3: 0.0}, l=2, hooks={2: FixedScript(bad)})

    def test_non_finite_value_no_path_carries_is_not_checked(self):
        # Node 3 sends to no one, adversary 2's own state is never sent, and
        # the "same" relay 2 overwrites whatever 1 sends towards 3. With a
        # plan for node 3 alone, 1's value reaches no planned destination.
        g = DiGraph.from_edges(3, [(1, 2), (2, 3)])
        nan = float("nan")
        out = relay_round(g, {1: 1.0, 2: nan, 3: nan}, l=2, hooks={2: FixedScript(4.0)})
        assert {m.path.nodes: m.value for m in out[3]} == {(2, 3): 4.0, (1, 2, 3): 4.0}
        plan = relay_plan({3: all_paths_into(g, 3, 2)}, {2: FixedScript(4.0)})
        out = relay_round(g, {1: nan, 2: nan, 3: nan}, 2, 0, {2: FixedScript(4.0)}, plan)
        assert [m.value for m in out[3]] == [4.0, 4.0]


class TestMinimumMessageCover:
    def test_single_message(self):
        cover, card = minimum_cover(ms((1.0, (1, 2))))
        assert card == 1 and cover == {1}

    def test_disjoint_paths_need_two(self):
        _, card = minimum_cover(ms((1.0, (1, 4)), (2.0, (2, 3, 4))))
        assert card == 2

    def test_shared_relay_covers_both(self):
        cover, card = minimum_cover(ms((1.0, (1, 3, 4)), (2.0, (2, 3, 4))))
        assert cover == {3} and card == 1

    def test_destination_never_in_cover(self):
        cover, _ = minimum_cover(ms((1.0, (1, 4)), (2.0, (2, 4))))
        assert 4 not in cover

    def test_cover_is_sound_and_minimal(self):
        rng = random.Random(7)
        for _ in range(100):
            g = random_digraph(rng, rng.randint(3, 8))
            dst = 1
            paths = all_paths_into(g, dst, 3)
            if not paths:
                continue
            picked = rng.sample(paths, min(len(paths), rng.randint(1, 6)))
            s = tuple(Message(float(i), p) for i, p in enumerate(picked))
            cover, card = minimum_cover(s)
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
        with pytest.raises(GraphError):
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
                assert coverable(side, k) == longest
                short += longest < len(side)
        assert short > 100

    def test_coverable_prefix_is_not_the_first_leaf(self):
        # Branching on node 1 first hits one message; node 2 hits two.
        side = ms((3.0, (1, 2, 9)), (2.0, (2, 9)), (1.0, (3, 9)))
        assert coverable(side, 1) == 2
        assert coverable(side, 2) == 3

    def test_hit_prefix_mask_hits_the_prefix(self):
        rng = random.Random(11)
        nodes = range(1, 9)
        short = 0
        for _ in range(300):
            chosen = sum(1 << v for v in rng.sample(nodes, rng.randint(1, 2)))
            # Masks before ``start`` are hit by ``chosen``, as the search
            # assumes.
            start = rng.randint(0, 4)
            head = [chosen & -chosen | 1 << rng.choice(nodes) for _ in range(start)]
            tail = [sum(1 << v for v in rng.sample(nodes, rng.randint(1, 3)))
                    for _ in range(rng.randint(0, 8))]
            masks = head + tail
            for k in range(4):
                p, mask = _hit_prefix(masks, k, chosen, start)
                longest = max(
                    q for q in range(start, len(masks) + 1)
                    if any(all(m & (chosen | sum(1 << v for v in extra)) for m in masks[:q])
                           for extra in itertools.combinations(nodes, k))
                )
                assert p == longest
                assert mask & chosen == chosen
                assert all(m & mask for m in masks[:p])
                assert bin(mask & ~chosen).count("1") <= k
                short += p < len(masks)
        assert short > 100

    def test_coverable_prefix_edges(self):
        assert _hit_prefix([], 2) == (0, 0)
        assert coverable(ms((1.0, (1, 2))), 0) == 0

    def test_oracle_refuses_large_universe(self):
        paths = [(i, i + 1, 25) for i in range(1, 24, 2)]
        s = tuple(Message(0.0, Path(p)) for p in paths)
        with pytest.raises(MessageError):
            mmc_brute_force_oracle(s)

    def test_cardinality_bounds(self):
        s = ms((1.0, (1, 2, 5)), (2.0, (3, 2, 5)), (3.0, (4, 5)))
        _, card = minimum_cover(s)
        assert 1 <= card <= len(s)
        assert card <= min(len(set(m.path.nodes)) - 1 for m in s) * len(s)
        assert mmc_cardinality(list(s), card) == card
