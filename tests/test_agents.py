import math
import random

import pytest
from hypothesis import given, strategies as st

from rclab import agents
from rclab.agents import (
    _trim_side,
    AgentError,
    ControlParams,
    ReferenceFunction,
    mdp_msr_control,
    mw_msr_trim,
    mw_msr_update,
    second_order_step,
)
from rclab.graphs import Path
from rclab.messaging import (
    Message,
    MessageError,
    mmc_brute_force_oracle,
    mmc_cardinality,
)


def one_hop_set(own, pairs, dest=99):
    """Messages (source, value) plus the self-message, one hop each."""
    msgs = [Message(v, Path((s, dest))) for s, v in pairs]
    msgs.append(Message(own, Path((dest,))))
    return tuple(msgs)


def classical_wmsr_retained(own, values, f):
    above = sorted((v for v in values if v > own), reverse=True)[:f]
    below = sorted(v for v in values if v < own)[:f]
    keep = list(values)
    for v in above + below:
        keep.remove(v)
    return sorted(keep + [own])


class TestReferenceFunction:
    def test_staircase_semantics(self):
        ref = ReferenceFunction(((0, 1.0), (100, 3.0)))
        assert ref.value_at(0) == 1.0
        assert ref.value_at(99) == 1.0
        assert ref.value_at(100) == 3.0
        assert ref.value_at(250) == 3.0

    def test_single_piece(self):
        ref = ReferenceFunction.constant(1.0)
        assert ref.value_at(12345) == 1.0

    def test_must_start_at_zero(self):
        with pytest.raises(AgentError):
            ReferenceFunction(((5, 1.0),))

    def test_strictly_increasing_starts(self):
        with pytest.raises(AgentError):
            ReferenceFunction(((0, 1.0), (10, 2.0), (10, 3.0)))

    def test_segments(self):
        ref = ReferenceFunction(((0, 1.0), (10, 2.0)))
        assert ref.segments(15) == [(range(0, 10), 1.0), (range(10, 15), 2.0)]
        assert ref.segments(5) == [(range(0, 5), 1.0)]


class TestTrim:
    def test_f_zero_keeps_everything(self):
        s = one_hop_set(2.0, [(1, 1.0), (2, 3.0)])
        retained = mw_msr_trim(s, 2.0, 0)
        assert retained == s
        assert all(a is b for a, b in zip(retained, s))

    def test_negative_f_rejected(self):
        s = one_hop_set(2.0, [(1, 1.0)])
        with pytest.raises(AgentError):
            mw_msr_trim(s, 2.0, -1)

    def test_requires_self_message(self):
        s = (Message(1.0, Path((1, 2))),)
        with pytest.raises(MessageError):
            mw_msr_trim(s, 1.0, 1)

    def test_self_message_position_does_not_matter(self):
        others = [
            Message(5.0, Path((1, 3, 9))),
            Message(-2.0, Path((2, 9))),
            Message(4.0, Path((2, 3, 9))),
            Message(1.0, Path((4, 9))),
            Message(-3.0, Path((5, 9))),
        ]
        own = Message(0.5, Path((9,)))
        results = []
        for pos in (0, 2, len(others)):
            s = tuple(others[:pos] + [own] + others[pos:])
            retained = mw_msr_trim(s, 0.5, 1)
            assert own in retained
            results.append([m for m in retained if m is not own])
        assert results[0] == results[1] == results[2]
        assert [m.value for m in results[0]] == [-2.0, 1.0]
        with pytest.raises(MessageError):
            mw_msr_trim(tuple(others), 0.5, 1)

    def test_nothing_trimmed_returns_given_tuple(self):
        s = one_hop_set(2.0, [(1, 1.0), (2, 3.0)])
        assert mw_msr_trim(s, 2.0, 0) is s
        level = one_hop_set(2.0, [(1, 2.0), (2, 2.0)])
        assert mw_msr_trim(level, 2.0, 2) is level
        assert mw_msr_trim(s, 2.0, 1) == (s[2],)

    def test_self_message_always_retained(self):
        s = one_hop_set(9.0, [(i, float(i)) for i in range(1, 6)])
        retained = mw_msr_trim(s, 9.0, 2)
        assert any(m.path.hops == 0 for m in retained)

    def test_equal_values_never_removed(self):
        s = one_hop_set(2.0, [(1, 2.0), (2, 2.0), (3, 5.0)])
        retained = mw_msr_trim(s, 2.0, 1)
        assert sorted(m.value for m in retained) == [2.0, 2.0, 2.0]

    @given(st.randoms())
    def test_one_hop_matches_classical_wmsr(self, rng):
        n = rng.randint(1, 6)
        f = rng.randint(0, 3)
        values = rng.sample([x / 7 for x in range(-20, 21)], n)
        own = rng.choice([x / 7 for x in range(-20, 21)])
        s = one_hop_set(own, list(enumerate(values, start=1)))
        retained = mw_msr_trim(s, own, f)
        assert sorted(m.value for m in retained) == classical_wmsr_retained(own, values, f)

    def test_disjoint_extremes_removed_one_at_a_time(self):
        # two high values with node-disjoint paths: one adversary cannot
        # explain both, so only the single largest goes
        msgs = (
            Message(5.0, Path((1, 9))),
            Message(4.0, Path((2, 3, 9))),
            Message(0.0, Path((9,))),
        )
        retained = mw_msr_trim(msgs, 0.0, 1)
        assert sorted(m.value for m in retained) == [0.0, 4.0]

    def test_shared_cover_removes_group(self):
        # both high values route through node 3: one adversary explains both
        msgs = (
            Message(5.0, Path((1, 3, 9))),
            Message(4.0, Path((2, 3, 9))),
            Message(0.0, Path((9,))),
        )
        retained = mw_msr_trim(msgs, 0.0, 1)
        assert sorted(m.value for m in retained) == [0.0]

    def test_removed_sides_have_cover_at_most_f(self):
        rng = random.Random(11)
        for _ in range(200):
            f = rng.randint(1, 2)
            own = 0.0
            msgs = [Message(own, Path((9,)))]
            for s in range(1, rng.randint(2, 6)):
                relay = rng.choice([None, 7, 8])
                path = (s, relay, 9) if relay else (s, 9)
                msgs.append(Message(rng.uniform(-3, 3), Path(path)))
            retained = mw_msr_trim(tuple(msgs), own, f)
            removed = [m for m in msgs if m not in retained]
            upper = [m for m in removed if m.value > own]
            lower = [m for m in removed if m.value < own]
            for side in (upper, lower):
                if side:
                    assert mmc_cardinality(side, f) <= f

    def test_trim_side_matches_linear_scan(self):
        def linear_scan(side, f):
            # the prefix before the first one the oracle cannot cover with f
            for end in range(1, len(side) + 1):
                if mmc_brute_force_oracle(side[:end]) > f:
                    return side[: end - 1]
            return side

        rng = random.Random(5)
        for _ in range(300):
            f = rng.randint(1, 3)
            side = []
            for _ in range(rng.randint(1, 12)):
                relays = rng.sample(range(1, 8), rng.randint(0, 2))
                path = (rng.randint(1, 7), *relays, 9)
                if len(set(path)) == len(path):
                    side.append(Message(rng.uniform(-3, 3), Path(path)))
            assert _trim_side(side, f) == linear_scan(side, f)

    def test_trim_invariant_can_fail(self, monkeypatch):
        side = [Message(3.0, Path((1, 9))), Message(2.0, Path((2, 9))), Message(1.0, Path((3, 9)))]
        assert _trim_side(side, 2) == side[:2]
        real = agents.coverable_prefix
        monkeypatch.setattr(agents, "coverable_prefix", lambda s, f: real(s, f) - 1)
        with pytest.raises(AgentError):
            _trim_side(side, 2)


class TestUpdate:
    def test_self_only(self):
        s = (Message(2.0, Path((1,))),)
        assert mw_msr_update(s) == 2.0

    def test_mean(self):
        s = one_hop_set(2.0, [(1, 1.0), (2, 3.0)])
        assert mw_msr_update(s) == 2.0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8))
    def test_convexity(self, values):
        msgs = tuple(
            Message(v, Path((i, 99))) for i, v in enumerate(values[:-1], start=1)
        ) + (Message(values[-1], Path((99,))),)
        out = mw_msr_update(msgs)
        assert min(values) - 1e-9 <= out <= max(values) + 1e-9


class TestControlParams:
    def test_gate_accepts_boundary(self):
        p = ControlParams(T=0.8, beta=1.65)
        assert p.beta * p.T >= 1 + p.T**2 / 2

    def test_gate_rejects_low_damping(self):
        with pytest.raises(AgentError):
            ControlParams(T=0.8, beta=1.0)

    def test_gate_rejects_high_damping(self):
        with pytest.raises(AgentError):
            ControlParams(T=0.8, beta=2.2)

    def test_rejects_nonpositive_period(self):
        with pytest.raises(AgentError):
            ControlParams(T=0.0, beta=1.65)


class TestSecondOrder:
    params = ControlParams(T=0.8, beta=1.65)

    def test_equilibrium(self):
        assert mdp_msr_control(3.0, 3.0, 0.0, self.params) == 0.0

    def test_pure_damping(self):
        assert mdp_msr_control(3.0, 3.0, 2.0, self.params) == -self.params.beta * 2.0

    def test_step_at_rest(self):
        assert second_order_step(1.0, 0.0, 0.0, 0.8) == (1.0, 0.0)

    def test_step_coasting(self):
        x, v = second_order_step(1.0, 1.0, 0.0, 0.8)
        assert x == pytest.approx(1.8)
        assert v == 1.0

    @given(st.lists(st.floats(-5, 5), min_size=3, max_size=12))
    def test_two_step_recursion_identity(self, means):
        # drive a follower with arbitrary retained means and check that the
        # velocity-eliminated two-step recursion reproduces the trajectory
        T, beta = 0.8, 1.65
        xs, vs, ds = [2.0], [0.3], []
        for m in means:
            d = m - xs[-1]
            u = d - beta * vs[-1]
            x, v = second_order_step(xs[-1], vs[-1], u, T)
            ds.append(d)
            xs.append(x)
            vs.append(v)
        for k in range(1, len(means)):
            predicted = (
                (2 - T * beta) * xs[k]
                + (T**2 / 2) * (ds[k] + ds[k - 1])
                - (1 - T * beta) * xs[k - 1]
            )
            assert math.isclose(xs[k + 1], predicted, abs_tol=1e-9)


class TestSecureStep:
    def test_interior_follower_trims_and_averages(self):
        s = one_hop_set(2.0, [(1, 1.0), (2, 3.0), (3, 50.0)])
        out = mw_msr_update(mw_msr_trim(s, 2.0, 1))
        assert out == 2.5  # one extreme trimmed per side: mean of {2, 3}
