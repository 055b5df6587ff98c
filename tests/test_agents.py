import math
import random

import pytest
from hypothesis import given, strategies as st

from rclab import agents
from rclab.adversary import AttackScript, Waveform
from rclab.agents import (
    AgentError,
    mdp_msr_control,
    mw_msr_trim,
    mw_msr_update,
    second_order_step,
    trim_route,
)
from rclab.graphs import Path, all_paths_into
from rclab.messaging import Message, mmc_cardinality, relay_plan
from rclab.scenario import ControlParams, ReferenceFunction, ScenarioError
from conftest import random_digraph
from oracles import mmc_brute_force_oracle, reference_trim


def one_hop_set(pairs, dest=99):
    """Received messages (source, value), one hop each."""
    return tuple(Message(v, Path((s, dest))) for s, v in pairs)


def linear_scan(side, f):
    """The prefix before the first message the oracle cannot cover with f
    nodes."""
    for end in range(1, len(side) + 1):
        if mmc_brute_force_oracle(side[:end]) > f:
            return side[: end - 1]
    return side


def expected_trim(side, f, upper):
    """What the trim removes from one side, by the oracle: most extreme
    first, stable; a side of at most f goes whole."""
    ordered = sorted(side, key=lambda m: -m.value if upper else m.value)
    return side if len(side) <= f else linear_scan(ordered, f)


def route_of(ms):
    """The trim route of ``ms`` with one plan slot per message."""
    return trim_route(range(len(ms)), [m.path for m in ms])


def trim(ms, own, f):
    return mw_msr_trim(ms, own, f, route_of(ms))


def assert_same_objects(got, want, ms):
    """``got`` holds the objects of ``want`` in its order, and is ``ms``
    exactly when ``want`` is."""
    assert (got is ms) == (want is ms)
    assert len(got) == len(want)
    assert all(a is b for a, b in zip(got, want))


# Values drawn from few levels, so that slots tie and keys repeat; -0.0 ties
# 0.0.
LEVELS = (-2.0, -1.0, -0.0, 0.0, 1.0, 2.0)


def random_side(rng):
    side = []
    for _ in range(rng.randint(1, 12)):
        relays = rng.sample(range(1, 8), rng.randint(0, 2))
        path = (rng.randint(1, 7), *relays, 9)
        if len(set(path)) == len(path):
            side.append(Message(rng.uniform(-3, 3), Path(path)))
    return side


def classical_wmsr_retained(own, values, f):
    above = sorted((v for v in values if v > own), reverse=True)[:f]
    below = sorted(v for v in values if v < own)[:f]
    keep = list(values)
    for v in above + below:
        keep.remove(v)
    return sorted(keep)


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
        with pytest.raises(ScenarioError):
            ReferenceFunction(((5, 1.0),))

    def test_strictly_increasing_starts(self):
        with pytest.raises(ScenarioError):
            ReferenceFunction(((0, 1.0), (10, 2.0), (10, 3.0)))

    def test_segments(self):
        ref = ReferenceFunction(((0, 1.0), (10, 2.0)))
        assert ref.segments(15) == [(range(0, 10), 1.0), (range(10, 15), 2.0)]
        assert ref.segments(5) == [(range(0, 5), 1.0)]


class TestTrim:
    def test_f_zero_keeps_everything(self):
        s = one_hop_set([(1, 1.0), (2, 3.0)])
        retained = trim(s, 2.0, 0)
        assert retained == s
        assert all(a is b for a, b in zip(retained, s))

    def test_negative_f_rejected(self):
        s = one_hop_set([(1, 1.0)])
        with pytest.raises(AgentError):
            trim(s, 2.0, -1)

    def test_retained_keep_given_order(self):
        s = (
            Message(5.0, Path((1, 3, 9))),
            Message(-2.0, Path((2, 9))),
            Message(4.0, Path((2, 3, 9))),
            Message(1.0, Path((4, 9))),
            Message(-3.0, Path((5, 9))),
        )
        # node 3 explains 5.0 and 4.0 above own; one node explains -3.0 below
        assert trim(s, 0.5, 1) == (s[1], s[3])

    def test_nothing_trimmed_returns_given_tuple(self):
        s = one_hop_set([(1, 1.0), (2, 3.0)])
        assert trim(s, 2.0, 0) is s
        level = one_hop_set([(1, 2.0), (2, 2.0)])
        assert trim(level, 2.0, 2) is level
        assert trim(s, 2.0, 1) == ()

    def test_own_value_always_averaged(self):
        s = one_hop_set([(i, float(i)) for i in range(1, 6)])
        retained = trim(s, 9.0, 2)
        assert [m.value for m in retained] == [3.0, 4.0, 5.0]
        assert mw_msr_update(retained, 9.0) == (3.0 + 4.0 + 5.0 + 9.0) / 4

    def test_equal_values_never_removed(self):
        s = one_hop_set([(1, 2.0), (2, 2.0), (3, 5.0)])
        retained = trim(s, 2.0, 1)
        assert sorted(m.value for m in retained) == [2.0, 2.0]

    @given(st.randoms())
    def test_one_hop_matches_classical_wmsr(self, rng):
        n = rng.randint(1, 6)
        f = rng.randint(0, 3)
        values = rng.sample([x / 7 for x in range(-20, 21)], n)
        own = rng.choice([x / 7 for x in range(-20, 21)])
        s = one_hop_set(list(enumerate(values, start=1)))
        retained = trim(s, own, f)
        assert sorted(m.value for m in retained) == classical_wmsr_retained(own, values, f)

    def test_disjoint_extremes_removed_one_at_a_time(self):
        # two high values with node-disjoint paths: one adversary cannot
        # explain both, so only the single largest goes
        msgs = (
            Message(5.0, Path((1, 9))),
            Message(4.0, Path((2, 3, 9))),
        )
        retained = trim(msgs, 0.0, 1)
        assert retained == (msgs[1],)

    def test_shared_cover_removes_group(self):
        # both high values route through node 3: one adversary explains both
        msgs = (
            Message(5.0, Path((1, 3, 9))),
            Message(4.0, Path((2, 3, 9))),
        )
        assert trim(msgs, 0.0, 1) == ()

    def test_removed_sides_have_cover_at_most_f(self):
        rng = random.Random(11)
        for _ in range(200):
            f = rng.randint(1, 2)
            own = 0.0
            msgs = []
            for s in range(1, rng.randint(2, 6)):
                relay = rng.choice([None, 7, 8])
                path = (s, relay, 9) if relay else (s, 9)
                msgs.append(Message(rng.uniform(-3, 3), Path(path)))
            retained = trim(tuple(msgs), own, f)
            removed = [m for m in msgs if m not in retained]
            upper = [m for m in removed if m.value > own]
            lower = [m for m in removed if m.value < own]
            for side in (upper, lower):
                if side:
                    assert mmc_cardinality(side, f) <= f

    def test_short_side_counts_paths_not_slots(self):
        # One slot on two node-disjoint paths: one node cannot explain both,
        # so f = 1 removes only the first in path order.
        s = (Message(5.0, Path((1, 9))), Message(5.0, Path((2, 9))), Message(0.0, Path((3, 9))))
        route = trim_route((0, 0, 1), [m.path for m in s])
        assert mw_msr_trim(s, 0.0, 1, route) == s[1:]
        assert mw_msr_trim(s, 0.0, 1, route) == reference_trim(s, 0.0, 1)

    def test_route_must_match_the_messages(self):
        s = one_hop_set([(1, 1.0), (2, 3.0)])
        with pytest.raises(AgentError):
            mw_msr_trim(s[:1], 2.0, 1, route_of(s))

    def test_matches_path_level_trim_on_random_plans(self):
        # Slots from relay plans with "same" and "identity" relays; every
        # leader holds the reference, so slots tie. Each route is reused
        # over rounds, so its memo answers most of them.
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(4, 7)
            g = random_digraph(rng, n, rng.uniform(0.3, 0.6))
            l, f = rng.randint(1, 3), rng.randint(0, 3)
            nodes = range(1, n + 1)
            scripts = {a: AttackScript(Waveform.constant(0.0),
                                    relay_mode=rng.choice(("same", "identity")))
                       for a in rng.sample(nodes, rng.randint(0, 2))}
            leaders = set(rng.sample(nodes, 2))
            plan = relay_plan({i: all_paths_into(g, i, l) for i in nodes}, scripts)
            routes = {i: trim_route(plan.slots[a:b], plan.paths[a:b])
                      for i, (a, b) in plan.spans.items()}
            for _ in range(12):
                ref = rng.choice(LEVELS)
                table = [ref if o in leaders else rng.choice(LEVELS)
                         for o in plan.sources + plan.emissions]
                for i, (a, b) in plan.spans.items():
                    ms = tuple(Message(table[s], p)
                               for s, p in zip(plan.slots[a:b], plan.paths[a:b]))
                    own = rng.choice(LEVELS)
                    assert_same_objects(mw_msr_trim(ms, own, f, routes[i]),
                                        reference_trim(ms, own, f), ms)

    def test_matches_path_level_trim_on_arbitrary_slots(self):
        # Any grouping of paths whose members carry one value, even where no
        # one node hits a slot's paths.
        rng = random.Random(29)
        for _ in range(150):
            g = random_digraph(rng, rng.randint(4, 7), 0.5)
            paths = all_paths_into(g, 1, rng.randint(1, 3))
            f = rng.randint(0, 3)
            slots = [rng.randrange(max(1, len(paths) // 2)) for _ in paths]
            route = trim_route(slots, paths)
            for _ in range(12):
                table = [rng.choice(LEVELS) for _ in paths]
                ms = tuple(Message(table[s], p) for s, p in zip(slots, paths))
                own = rng.choice(LEVELS)
                assert_same_objects(mw_msr_trim(ms, own, f, route),
                                    reference_trim(ms, own, f), ms)

    def test_route_trim_matches_linear_scan(self, monkeypatch):
        rng = random.Random(5)
        cases = [(rng.randint(1, 3), tuple(random_side(rng))) for _ in range(300)]
        cases = [(f, side, route_of(side)) for f, side in cases]

        def expected(side, f, upper):
            removed = set(map(id, expected_trim(side, f, upper)))
            return tuple(m for m in side if id(m) not in removed)

        for f, side, route in cases:
            for own, upper in ((-10.0, True), (10.0, False)):
                assert mw_msr_trim(side, own, f, route) == expected(side, f, upper)

        # The same sides again: every cut now comes from the route's memo.
        def no_search(*args):
            raise AssertionError("memo miss on a side already seen")

        monkeypatch.setattr(agents, "_hit_prefix", no_search)
        monkeypatch.setattr(agents, "mmc_cardinality", no_search)
        for f, side, route in cases:
            for own, upper in ((-10.0, True), (10.0, False)):
                assert mw_msr_trim(side, own, f, route) == expected(side, f, upper)

    def test_trim_invariant_can_fail(self, monkeypatch):
        side = one_hop_set([(1, 3.0), (2, 2.0), (3, 1.0)])
        assert trim(side, 0.0, 2) == side[2:]
        real = agents._hit_prefix
        monkeypatch.setattr(agents, "_hit_prefix", lambda masks, k: (real(masks, k)[0] - 1, 0))
        # A fresh route, so the side is searched again rather than looked up.
        with pytest.raises(AgentError):
            trim(side, 0.0, 2)

    def test_failed_invariant_stores_no_cut(self, monkeypatch):
        real = agents._hit_prefix
        monkeypatch.setattr(agents, "_hit_prefix", lambda masks, k: (real(masks, k)[0] - 1, 0))
        side = one_hop_set([(1, 3.0), (2, 2.0), (3, 1.0)])
        route = route_of(side)
        for _ in range(2):
            with pytest.raises(AgentError):
                mw_msr_trim(side, 0.0, 2, route)
        assert route.kept == {}

    def test_same_slots_cut_by_f(self):
        # Three disjoint one-hop paths: f nodes explain the f most extreme.
        side = one_hop_set([(1, 3.0), (2, 2.0), (3, 1.0)])
        for order in ((1, 2), (2, 1)):
            route = route_of(side)
            for f in order:
                assert mw_msr_trim(side, 0.0, f, route) == side[f:]
            assert len(route.kept) == 2

    def test_memo_stays_bounded_and_exact(self, monkeypatch):
        monkeypatch.setattr(agents, "_MEMO_MAX", 8)
        rng = random.Random(17)
        paths = [m.path for m in random_side(rng) + random_side(rng)]
        route = trim_route(range(len(paths)), paths)
        cases = []
        for _ in range(80):
            ms = tuple(Message(rng.choice(LEVELS), p) for p in paths)
            cases.append((ms, rng.choice(LEVELS), rng.randint(1, 3)))
        keys = set()
        for ms, own, f in cases:
            mw_msr_trim(ms, own, f, route)
            keys.update(route.kept)
        assert len(keys) > 3 * 8
        for ms, own, f in cases:
            assert_same_objects(mw_msr_trim(ms, own, f, route), reference_trim(ms, own, f), ms)
            assert len(route.kept) <= 8


class TestUpdate:
    def test_self_only(self):
        assert mw_msr_update((), 2.0) == 2.0

    def test_mean(self):
        s = one_hop_set([(1, 1.0), (2, 3.0)])
        assert mw_msr_update(s, 2.0) == 2.0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8))
    def test_convexity(self, values):
        msgs = one_hop_set(enumerate(values[:-1], start=1))
        out = mw_msr_update(msgs, values[-1])
        assert min(values) - 1e-9 <= out <= max(values) + 1e-9

    @pytest.mark.parametrize("own", [math.nan, math.inf, -math.inf])
    def test_non_finite_own_rejected(self, own):
        with pytest.raises(AgentError):
            mw_msr_update(one_hop_set([(1, 1.0)]), own)

    def test_overflow_is_agent_error(self):
        with pytest.raises(AgentError):
            mw_msr_update(one_hop_set([(1, 1e308)]), 1e308)


class TestControlParams:
    def test_gate_accepts_boundary(self):
        p = ControlParams(T=0.8, beta=1.65)
        assert p.beta * p.T >= 1 + p.T**2 / 2

    def test_gate_rejects_low_damping(self):
        with pytest.raises(ScenarioError):
            ControlParams(T=0.8, beta=1.0)

    def test_gate_rejects_high_damping(self):
        with pytest.raises(ScenarioError):
            ControlParams(T=0.8, beta=2.2)

    def test_rejects_nonpositive_period(self):
        with pytest.raises(ScenarioError):
            ControlParams(T=0.0, beta=1.65)

    def test_window_closes_above_unit_period(self):
        ControlParams(T=1.0, beta=1.5)  # the window is the one point beta*T = 1.5
        with pytest.raises(ScenarioError, match="sampling period T"):
            ControlParams(T=math.nextafter(1.0, 2.0), beta=1.5)


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
        s = one_hop_set([(1, 1.0), (2, 3.0), (3, 50.0)])
        out = mw_msr_update(trim(s, 2.0, 1), 2.0)
        assert out == 2.5  # one extreme trimmed per side: mean of {2, 3}
