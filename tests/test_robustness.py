import itertools
import random
import time

import pytest
from conftest import load_workloads, random_digraph
from hypothesis import given, strategies as st

from rclab.graphs import (
    DiGraph,
    GraphError,
    TopologySchedule,
    all_paths_into,
    in_neighbors_l,
    nodes_bit,
)
from rclab import robustness
from rclab.scenario import corpus_path, load_topology
from rclab.robustness import (
    Certificate,
    RobustnessQuery,
    RobustnessVerdict,
    _interval_violation,
    _max_disjoint_paths,
    _path_masks,
    _walk_path_masks,
    f_local_sets,
    is_jointly_robust_following,
    is_robust_following_static,
    jointly_reachable,
    necessary_conditions,
    strongly_robust_wrt_leaders,
)


def brute_independent_paths(g, S, i, l, forbidden=frozenset(), relays_inside_s=True):
    """Exhaustive maximum set of pairwise-disjoint (except endpoint) paths
    into i from sources outside S."""
    cands = []
    for p in all_paths_into(g, i, l):
        if p.nodes[0] in S or any(v in forbidden for v in p.nodes):
            continue
        if not relays_inside_s and any(v in S for v in p.nodes[1:-1]):
            continue
        cands.append(set(p.nodes) - {i})
    best = 0
    for size in range(1, len(cands) + 1):
        for combo in itertools.combinations(cands, size):
            union = set().union(*combo)
            if len(union) == sum(len(c) for c in combo):
                best = max(best, size)
    return best


def oracle_f_local_sets(schedule, l, f):
    """Every F, by cardinality then lexicographically, kept when
    |N_i^{l-}[k] ∩ F| <= f for each node i outside F and step k; with f = 0
    (no adversary) only the empty F."""
    nodes = range(1, schedule.n + 1)
    table = {i: [in_neighbors_l(g, i, l) for g in schedule.graphs] for i in nodes}
    return [
        F
        for size in (range(schedule.n + 1) if f else [0])
        for F in map(frozenset, itertools.combinations(nodes, size))
        if all(len(nb & F) <= f for i in nodes if i not in F for nb in table[i])
    ]


def oracle_violations(q, F, interval):
    """Every nonempty follower subset S (by cardinality, then
    lexicographically) none of whose nodes has r independent paths from
    outside S in some graph of the interval once F is removed."""
    nodes = set(range(1, q.schedule.n + 1))
    followers = sorted(nodes - q.leaders - F)
    graphs = [q.schedule.graph_at(k).induced(nodes - F) for k in interval]
    paths = {
        (t, i): [p.nodes for p in all_paths_into(g, i, q.l)]
        for t, g in enumerate(graphs)
        for i in followers
    }

    def node_ok(i, S):
        for t in range(len(graphs)):
            masks = [
                nodes_bit(p[:-1])
                for p in paths[t, i]
                if p[0] not in S and (q.relays_inside_s or not S & set(p[1:-1]))
            ]
            if _max_disjoint_paths(masks, target=q.r) >= q.r:
                return True
        return False

    return [
        S
        for size in range(1, len(followers) + 1)
        for S in map(frozenset, itertools.combinations(followers, size))
        if not any(node_ok(i, S) for i in S)
    ]


def oracle_verdict(q):
    """The first failing (F, interval index) in search order with every
    violating S for it, or None when the property holds."""
    for F in oracle_f_local_sets(q.schedule, q.l, q.f):
        for t, interval in enumerate(q.schedule.intervals()):
            bad = oracle_violations(q, F, interval)
            if bad:
                return F, t, bad
    return None


def oracle_strongly_robust(g, leaders, r):
    rest = sorted(set(g.nodes) - leaders)
    return all(
        any(len(g.in_neighbors(i) - S) >= r for i in S)
        for size in range(1, len(rest) + 1)
        for S in map(frozenset, itertools.combinations(rest, size))
    )


def random_schedule(rng, n):
    """One to three random graphs on n nodes, in one or two intervals."""
    period = rng.randint(1, 3)
    p = rng.uniform(0.25, 0.75)
    graphs = tuple(random_digraph(rng, n, p) for _ in range(period))
    cut = rng.randint(1, period)
    return TopologySchedule(graphs, (cut, period - cut) if cut < period else (period,))


def reachable_r(g, S, i, l, forbidden=frozenset(), relays_inside_s=True):
    """Largest r for which ``jointly_reachable`` accepts i on the static
    schedule of g: the number of independent paths into i."""
    s = TopologySchedule.static(g)
    r = 0
    while jointly_reachable(s, range(1), S, i, r + 1, l, forbidden, relays_inside_s)[0]:
        r += 1
    return r


def count_f_sets(monkeypatch):
    """The list of every F that ``is_jointly_robust_following`` draws from
    ``f_local_sets`` from now on, in order."""
    drawn = []
    real = robustness.f_local_sets

    def counting(*args):
        for F in real(*args):
            drawn.append(F)
            yield F

    monkeypatch.setattr(robustness, "f_local_sets", counting)
    return drawn


@pytest.mark.parametrize("kw, error", [
    (dict(r=0), "r must be >= 1"),
    (dict(l=0), "l must be >= 1"),
    (dict(f=-1), "f must be >= 0"),
    (dict(leaders=frozenset({1, 4})), r"leader ids \[4\] outside node range"),
])
def test_query_rejects_bad_argument(kw, error):
    args = dict(schedule=TopologySchedule.static(DiGraph.from_edges(3, [(1, 2), (2, 3)])),
                leaders=frozenset({1}), r=1, l=1, f=0) | kw
    with pytest.raises(GraphError, match=error):
        RobustnessQuery(**args)


class TestIndependentPaths:
    def test_requires_membership(self):
        g = DiGraph.from_edges(3, [(1, 2)])
        with pytest.raises(GraphError):
            jointly_reachable(TopologySchedule.static(g), range(1), {3}, 2, 1, 1)

    def test_direct_neighbors(self):
        g = DiGraph.from_edges(4, [(1, 4), (2, 4), (3, 4)])
        assert reachable_r(g, {4}, 4, 1) == 3

    def test_shared_relay_counts_once(self):
        # two sources funneled through one relay: only one independent path
        g = DiGraph.from_edges(4, [(1, 3), (2, 3), (3, 4)])
        assert reachable_r(g, {4}, 4, 2) == 1

    def test_relay_inside_s_modes(self):
        # source 1 reaches 4 only through node 3, which sits inside S
        g = DiGraph.from_edges(4, [(1, 3), (3, 4)])
        assert reachable_r(g, {3, 4}, 4, 2, relays_inside_s=True) == 1
        assert reachable_r(g, {3, 4}, 4, 2, relays_inside_s=False) == 0

    def test_forbidden_node_is_never_reachable(self):
        g = DiGraph.from_edges(4, [(1, 4), (2, 4), (3, 4)])
        s = TopologySchedule.static(g)
        assert jointly_reachable(s, range(1), {4}, 4, 1, 1, forbidden={4}) == (False, None)
        assert jointly_reachable(s, range(1), {4}, 4, 3, 1, forbidden={1}) == (False, None)
        assert jointly_reachable(s, range(1), {4}, 4, 2, 1, forbidden={1}) == (True, 0)

    @given(st.integers(3, 6), st.integers(1, 4), st.randoms())
    def test_matches_brute_force(self, n, l, rng):
        edges = [
            (j, i)
            for j in range(1, n + 1)
            for i in range(1, n + 1)
            if j != i and rng.random() < 0.45
        ]
        g = DiGraph.from_edges(n, edges)
        members = {m for m in range(2, n + 1) if rng.random() < 0.5} | {1}
        S = frozenset(members)
        F = frozenset(m for m in range(2, n + 1) if rng.random() < 0.2)
        for mode in (True, False):
            got = reachable_r(g, S, 1, l, forbidden=F, relays_inside_s=mode)
            want = brute_independent_paths(g, S, 1, l, forbidden=F, relays_inside_s=mode)
            assert got == want

    def test_walk_matches_path_enumeration(self):
        """The peel's walk gives exactly the distinct (source, body) pairs of
        the ``Path`` enumeration, for every node, one of them with no
        in-edge, and every hop bound up to n."""
        rng = random.Random(4)
        for _ in range(200):
            n = rng.randint(1, 9)
            g = random_digraph(rng, n, rng.uniform(0.1, 0.5))
            cut = rng.randint(1, n)
            g = DiGraph(n, frozenset((j, i) for j, i in g.edges if i != cut))
            for i in g.nodes:
                for l in range(1, n + 1):
                    want = set(_path_masks(all_paths_into(g, i, l)))
                    assert _walk_path_masks(g, i, l) == want
                    assert bool(want) == bool(g.in_neighbors(i))


class TestStrictRelays:
    """Under strict relays each path's last hop is a one-hop path of its own,
    so a strict query is counted with one hop and never walks longer paths
    (see the ``rclab.robustness`` docstring)."""

    @pytest.fixture
    def no_walk(self, monkeypatch):
        def walked(*args):
            raise AssertionError("walked")

        monkeypatch.setattr(robustness, "_walk_path_masks", walked)

    def test_net9_fails_without_a_walk(self, net9, no_walk):
        schedule, leaders = net9
        # the default reading holds here, through relays inside S, so it walks
        with pytest.raises(AssertionError, match="walked"):
            is_jointly_robust_following(RobustnessQuery(schedule, leaders, 2, 2, 1))
        v = is_jointly_robust_following(
            RobustnessQuery(schedule, leaders, 2, 2, 1, relays_inside_s=False)
        )
        assert v.certificate == Certificate(frozenset({5}), frozenset({1, 2, 3, 6}), 0)

    def test_matches_exhaustive_oracle_without_a_walk(self, no_walk):
        rng = random.Random(41)
        outcomes = set()
        for _ in range(80):
            n = rng.randint(4, 7)
            leaders = frozenset(rng.sample(range(1, n + 1), rng.randint(1, n - 2)))
            q = RobustnessQuery(
                random_schedule(rng, n), leaders, r=rng.randint(1, 3),
                l=rng.randint(2, 4), f=rng.randint(0, 1), relays_inside_s=False,
            )
            v = is_jointly_robust_following(q)
            want = oracle_verdict(q)
            assert v.holds == (want is None)
            outcomes.add(v.holds)
            if want is not None:
                F, t, bad = want
                assert v.certificate == Certificate(F, frozenset().union(*bad), t)
        assert outcomes == {True, False}

    def test_jointly_reachable_enumerates_one_hop(self, monkeypatch):
        """At l = 2-4 the strict count is the largest set of disjoint l-hop
        paths whose bodies avoid S and F, which is i's in-degree outside
        S ∪ F; ``jointly_reachable`` finds it from one-hop paths alone."""
        bounds = []
        real = robustness.all_paths_into

        def recording(g, i, l):
            bounds.append(l)
            return real(g, i, l)

        monkeypatch.setattr(robustness, "all_paths_into", recording)
        rng = random.Random(43)
        relayed = 0
        for _ in range(300):
            n = rng.randint(3, 8)
            g = random_digraph(rng, n, rng.uniform(0.2, 0.6))
            S = frozenset({1} | {m for m in range(2, n + 1) if rng.random() < 0.4})
            F = frozenset(m for m in range(2, n + 1) if rng.random() < 0.15)
            l = rng.randint(2, 4)
            blocked = nodes_bit(S | F)
            strict = [p.mask for p in all_paths_into(g, 1, l) if not p.mask & blocked]
            want = _max_disjoint_paths(strict, target=n)
            assert want == len(g.in_neighbors(1) - S - F)
            assert reachable_r(g, S, 1, l, F, relays_inside_s=False) == want
            relayed += any(m.bit_count() > 1 for m in strict)
        assert set(bounds) == {1}
        assert relayed >= 100


class TestFLocalSets:
    def test_empty_set_first(self):
        s = TopologySchedule.static(DiGraph.from_edges(3, [(1, 2), (2, 3)]))
        sets = list(f_local_sets(s, 1, 1))
        assert sets[0] == frozenset()

    @pytest.mark.parametrize("f", [1, 2])
    def test_empty_set_before_any_setup(self, f, monkeypatch):
        def no_table(*args):
            raise AssertionError("neighborhood table built")

        monkeypatch.setattr(robustness, "_neighborhood_table", no_table)
        s = TopologySchedule.static(DiGraph.from_edges(3, [(1, 2), (2, 3)]))
        sets = f_local_sets(s, 1, f)
        assert next(sets) == frozenset()
        # the table is built only when a nonempty F is asked for
        with pytest.raises(AssertionError, match="neighborhood table built"):
            next(sets)

    def test_order_and_predicate(self):
        g = DiGraph.from_edges(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
        s = TopologySchedule.static(g)
        sets = list(f_local_sets(s, 1, 1))
        sizes = [len(F) for F in sets]
        assert sizes == sorted(sizes)
        # every node has exactly one in-neighbor, so any single node is
        # 1-local; pairs are also 1-local unless they crowd a neighborhood
        assert frozenset({1}) in sets

    def test_f_zero_only_empty(self):
        s = TopologySchedule.static(DiGraph.from_edges(3, [(1, 2), (2, 3)]))
        assert list(f_local_sets(s, 1, 0)) == [frozenset()]

    def test_locality_respected(self):
        # node 3 hears 1 and 2; {1,2} would exceed the 1-local bound
        g = DiGraph.from_edges(3, [(1, 3), (2, 3)])
        sets = list(f_local_sets(TopologySchedule.static(g), 1, 1))
        assert frozenset({1, 2}) not in sets
        assert frozenset({1, 3}) in sets  # 3 in F, predicate only binds outside

    def test_matches_combinations_filter(self):
        rng = random.Random(31)
        for _ in range(150):
            n = rng.randint(2, 9)
            s = random_schedule(rng, n)
            l, f = rng.randint(1, 3), rng.randint(0, 2)
            assert list(f_local_sets(s, l, f)) == oracle_f_local_sets(s, l, f)


class TestJointlyRobustFollowing:
    def test_leaderless_chain_fails(self):
        g = DiGraph.from_edges(3, [(1, 2), (2, 3)])
        v = is_robust_following_static(g, {1}, r=1, l=1, f=0)
        assert v.holds

    def test_r2_needs_two_disjoint_routes(self):
        g = DiGraph.from_edges(3, [(1, 2), (2, 3)])
        v = is_robust_following_static(g, {1}, r=2, l=1, f=0)
        assert not v.holds
        assert v.certificate.F == frozenset()

    def test_certificate_is_a_real_violation(self, net9):
        schedule, leaders = net9
        v = is_jointly_robust_following(RobustnessQuery(schedule, leaders, 2, 1, 1))
        assert not v.holds
        cert = v.certificate
        interval = schedule.intervals()[cert.interval_index]
        for i in cert.S:
            ok, _ = jointly_reachable(
                schedule, interval, cert.S, i, 2, 1, forbidden=cert.F
            )
            assert not ok

    def test_deterministic(self, net9):
        schedule, leaders = net9
        q = RobustnessQuery(schedule, leaders, 2, 1, 1)
        a = is_jointly_robust_following(q)
        b = is_jointly_robust_following(q)
        assert a.certificate == b.certificate

    def test_failing_verdict_requires_certificate(self):
        with pytest.raises(GraphError):
            RobustnessVerdict(False)

    @pytest.mark.parametrize("relays_inside_s", [True, False])
    def test_matches_exhaustive_oracle(self, relays_inside_s):
        """Verdict, F and interval as the subset walk finds them; S is the
        union of every violating subset for that F and interval."""
        rng = random.Random(7 + relays_inside_s)
        outcomes = set()
        for _ in range(200):
            n = rng.randint(4, 8)
            leaders = frozenset(rng.sample(range(1, n + 1), rng.randint(1, n - 2)))
            q = RobustnessQuery(
                random_schedule(rng, n), leaders, r=rng.randint(1, 3),
                l=rng.randint(1, 3), f=rng.randint(0, 1), relays_inside_s=relays_inside_s,
            )
            v = is_jointly_robust_following(q)
            want = oracle_verdict(q)
            assert v.holds == (want is None)
            if want is None:
                outcomes.add("holds")
                continue
            F, t, bad = want
            cert = v.certificate
            assert (cert.F, cert.interval_index) == (F, t)
            assert cert.S == frozenset().union(*bad)
            outcomes.add(("F" if F else "no F", "later interval" if t else "first interval"))
        assert len(outcomes) == 5

    @pytest.mark.parametrize("relays_inside_s", [True, False])
    def test_r_plus_f_prepass_is_sound(self, relays_inside_s, monkeypatch):
        """Whenever peeling every interval with target r + f at F = ∅
        empties, the property holds for every f-local F, and a holding query
        is decided after drawing that one F. Verdict and certificate match
        the oracle at f = 1 and at f = 2, so a pre-pass whose target falls
        short of r + f gives a false "holds" here."""
        drawn = count_f_sets(monkeypatch)
        rng = random.Random(20 + relays_inside_s)
        decided = 0
        for _ in range(500):
            n = rng.randint(4, 9)
            leaders = frozenset(rng.sample(range(1, n + 1), rng.randint(1, n - 2)))
            q = RobustnessQuery(
                random_schedule(rng, n), leaders, r=rng.randint(1, 3),
                l=rng.randint(1, 3), f=rng.randint(1, 2), relays_inside_s=relays_inside_s,
            )
            followers = sorted(set(range(1, n + 1)) - leaders)
            steps = [(g, {i: nodes_bit(g.in_neighbors(i)) for i in g.nodes}, {})
                     for g in q.schedule.graphs]
            empties = all(
                _interval_violation(
                    steps, iv, frozenset(), followers, q.r + q.f,
                    q.l if relays_inside_s else 1,
                ) is None
                for iv in q.schedule.intervals()
            )
            drawn.clear()
            v = is_jointly_robust_following(q)
            want = oracle_verdict(q)
            assert v.holds == (want is None)
            if want is None:
                decided += empties
                # every singleton is f-local, so a full search draws more
                assert (drawn == [frozenset()]) == empties
                continue
            assert not empties
            F, t, bad = want
            assert v.certificate == Certificate(F, frozenset().union(*bad), t)
        # 74 of 77 and 88 of 98 holding queries are decided at F = ∅
        assert decided >= 70

    def test_net15_r3_l3_f2_draws_only_the_empty_f(self, net15, monkeypatch):
        schedule, leaders = net15
        drawn = count_f_sets(monkeypatch)
        assert is_jointly_robust_following(RobustnessQuery(schedule, leaders, 3, 3, 2)).holds
        assert drawn == [frozenset()]

    def test_failing_f_larger_than_f_times_n_over_min_neighborhood(self):
        """Every node has an in-neighbor, so f * ceil(n / min |N_i^{l-}|) is
        2 here, yet the only failing F has 3 nodes: the enumeration must not
        stop at that bound. All three necessary conditions pass."""
        edges = [
            (1, 4), (1, 5), (1, 7), (2, 4), (2, 5), (2, 8), (3, 1), (3, 4),
            (3, 7), (4, 1), (4, 2), (4, 3), (4, 6), (4, 7), (4, 8), (5, 1),
            (5, 2), (5, 3), (5, 7), (6, 1), (6, 2), (6, 7), (7, 5), (7, 6),
            (7, 8), (8, 1), (8, 2), (8, 3), (8, 4), (8, 5), (8, 6), (8, 7),
        ]
        schedule = TopologySchedule.static(DiGraph.from_edges(8, edges))
        q = RobustnessQuery(schedule, frozenset({3, 5, 6}), r=2, l=1, f=1)
        assert all(flag for _, flag in necessary_conditions(q))
        v = is_jointly_robust_following(q)
        assert v.certificate == Certificate(frozenset({1, 5, 7}), frozenset({2, 4, 8}), 0)
        F, t, bad = oracle_verdict(q)
        assert (F, t, frozenset().union(*bad)) == (v.certificate.F, 0, v.certificate.S)
        for i in v.certificate.S:
            reachable, _ = jointly_reachable(
                schedule, range(1), v.certificate.S, i, 2, 1, forbidden=v.certificate.F
            )
            assert not reachable

    def test_multi_hop_strictly_weaker(self, net9):
        schedule, leaders = net9
        assert not is_jointly_robust_following(
            RobustnessQuery(schedule, leaders, 2, 1, 1)
        ).holds
        assert is_jointly_robust_following(
            RobustnessQuery(schedule, leaders, 2, 2, 1)
        ).holds


class TestStronglyRobust:
    def test_complete_graph(self):
        n = 5
        g = DiGraph.from_edges(
            n, [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
        )
        assert strongly_robust_wrt_leaders(g, {1, 2, 3}, 3)

    def test_sparse_fails(self):
        g = DiGraph.from_edges(4, [(1, 3), (2, 4), (3, 4)])
        assert not strongly_robust_wrt_leaders(g, {1, 2}, 2)

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(5)
        verdicts = set()
        for _ in range(300):
            n = rng.randint(2, 8)
            g = random_digraph(rng, n, rng.uniform(0.2, 0.9))
            leaders = frozenset(rng.sample(range(1, n + 1), rng.randint(0, n - 1)))
            r = rng.randint(1, 3)
            want = oracle_strongly_robust(g, leaders, r)
            assert strongly_robust_wrt_leaders(g, leaders, r) == want
            verdicts.add(want)
        assert verdicts == {True, False}

    @given(st.integers(3, 7), st.randoms())
    def test_implies_robust_following_one_hop(self, n, rng):
        f = 1
        edges = [
            (j, i)
            for j in range(1, n + 1)
            for i in range(1, n + 1)
            if j != i and rng.random() < 0.6
        ]
        g = DiGraph.from_edges(n, edges)
        leaders = frozenset(
            rng.sample(range(1, n + 1), rng.randint(1, max(1, n - 2)))
        )
        if strongly_robust_wrt_leaders(g, leaders, 2 * f + 1):
            assert is_robust_following_static(g, leaders, f + 1, 1, f).holds


def sched(g):
    return TopologySchedule.static(g)


def forward_reach(g, j, l):
    """Nodes that j reaches in 1..l hops, walking forward along out-edges."""
    seen, frontier = set(), {j}
    for _ in range(l):
        frontier = {i for a, i in g.edges if a in frontier} - seen
        seen |= frontier
    return seen - {j}


def oracle_necessary_conditions(q):
    """The three necessary conditions as defined, leaders within l hops
    found by walking forward from each leader and in-degrees counted on the
    edge sets."""
    schedule, leaders, r, f = q.schedule, q.leaders, q.r, q.f
    followers = sorted(set(range(1, schedule.n + 1)) - leaders)
    coverage = in_degree = True
    for interval in schedule.intervals():
        graphs = [schedule.graph_at(k) for k in interval]
        coverage &= any(
            sum(i in forward_reach(g, j, q.l) for j in leaders) >= r
            for g in graphs for i in followers
        )
        need = r + f if len(graphs) == 1 else r
        in_degree &= all(
            any(sum(e[1] == i for e in g.edges) >= need for g in graphs) for i in followers
        )
    return [
        ("leader-count", not followers or len(leaders) >= r + f),
        ("leader-coverage", not followers or coverage),
        ("follower-in-degree", in_degree),
    ]


def random_query(rng):
    """A query over 1-3 intervals of 1-3 random steps each, n 4-9 with at
    least one leader (all leaders at times), r and l at most 3, f at most 2,
    either relay reading."""
    n = rng.randint(4, 9)
    lengths = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
    p = rng.uniform(0.2, 0.9)
    graphs = tuple(random_digraph(rng, n, p) for _ in range(sum(lengths)))
    leaders = frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
    return RobustnessQuery(TopologySchedule(graphs, lengths), leaders, rng.randint(1, 3),
                           rng.randint(1, 3), rng.randint(0, 2), rng.random() < 0.5)


class TestNecessaryConditions:
    def as_dict(self, q):
        return dict(necessary_conditions(q))

    def test_leader_count_violation(self):
        g = DiGraph.from_edges(
            6, [(a, b) for a in range(1, 7) for b in range(1, 7) if a != b]
        )
        conds = self.as_dict(RobustnessQuery(sched(g), frozenset({1, 2}), 2, 1, 1))
        assert conds["leader-count"] is False

    def test_leader_coverage_violation(self):
        # each follower hears one leader
        edges = [(1, 4), (2, 5), (4, 5), (5, 4)]
        g = DiGraph.from_edges(5, edges)
        conds = self.as_dict(RobustnessQuery(sched(g), frozenset({1, 2, 3}), 2, 1, 1))
        assert conds["leader-count"] is True
        assert conds["leader-coverage"] is False

    def test_follower_in_degree_violation(self):
        # follower 5 has 2 in-neighbors in a one-step interval, short of r + f
        edges = [(1, 4), (2, 4), (3, 4), (1, 5), (4, 5)]
        g = DiGraph.from_edges(5, edges)
        conds = self.as_dict(RobustnessQuery(sched(g), frozenset({1, 2, 3}), 2, 1, 1))
        assert conds["follower-in-degree"] is False
        two_steps = TopologySchedule((g, g), (2,))
        conds = self.as_dict(RobustnessQuery(two_steps, frozenset({1, 2, 3}), 2, 1, 1))
        assert conds["follower-in-degree"] is True

    def test_all_pass_on_corpus_operating_point(self, net15):
        schedule, leaders = net15
        conds = self.as_dict(RobustnessQuery(schedule, leaders, 3, 3, 2))
        assert all(conds.values())

    def test_all_pass_without_followers(self):
        g = DiGraph.from_edges(2, [(1, 2)])
        assert all(self.as_dict(RobustnessQuery(sched(g), frozenset({1, 2}), 3, 1, 2)).values())

    def test_matches_definitions_on_random_schedules(self):
        rng = random.Random(23)
        failures = dict.fromkeys(["leader-count", "leader-coverage", "follower-in-degree"], 0)
        for _ in range(2000):
            q = random_query(rng)
            want = oracle_necessary_conditions(q)
            assert necessary_conditions(q) == want
            for name, ok in want:
                failures[name] += not ok
        assert all(failures.values()), failures

    def test_hold_wherever_the_property_holds(self):
        """Each condition names an F and S that violate when it fails, so a
        holding verdict passes them all; each still fails on some query."""
        rng = random.Random(2024)
        holding, failures = 0, {}
        for _ in range(2000):
            q = random_query(rng)
            holds = is_jointly_robust_following(q).holds
            holding += holds
            for name, ok in necessary_conditions(q):
                assert ok or not holds, (name, q)
                failures[name] = failures.get(name, 0) + (not ok)
        assert holding >= 500 and len(failures) == 3 and all(failures.values()), failures


def layered_circulant(rng, m, n_leaders, r, f, d):
    """A schedule that holds by construction (the layered circulant of the
    benchmark's inputs): graph A is a circulant over a random order of the
    m followers with offsets 1..d both ways, graph B feeds follower j of the
    order from r + f - min(j, d) leaders, and the third graph is A | B. There
    follower j has r + f in-neighbours among the leaders and the followers
    before it, so after any f-local removal the first follower of any S keeps
    r of them: the property holds for every l.

    Returns (n, leaders, order, [A, B, A | B])."""
    n = m + n_leaders
    labels = rng.sample(range(1, n + 1), n)
    leaders, order = labels[:n_leaders], labels[n_leaders:]
    ring = set()
    for j, v in enumerate(order):
        for o in range(1, d + 1):
            w = order[(j + o) % m]
            ring |= {(v, w), (w, v)}
    feed = {
        (u, v)
        for j, v in enumerate(order)
        for u in rng.sample(leaders, max(r + f - min(j, d), 0))
    }
    return n, leaders, order, [ring, feed, ring | feed]


def plant_trap(graphs, n, trap, boundary):
    """Cut every edge into ``trap`` from outside it except those from the
    r - 1 ``boundary`` nodes, which feed the whole trap in the last graph:
    every path into the trap then passes through the boundary."""
    graphs = [set(g) for g in graphs]
    graphs[-1] |= {(b, i) for b in boundary for i in trap}
    keep = set(trap) | set(boundary)
    return [{(j, i) for (j, i) in g if i not in trap or j in keep} for g in graphs]


class TestScale:
    """35 nodes: far beyond a walk over 2^30 follower subsets."""

    M, LEADERS, R, L, F, D = 30, 5, 2, 2, 1, 3

    def query(self, n, leaders, graphs):
        schedule = TopologySchedule(
            tuple(DiGraph.from_edges(n, g) for g in graphs), (len(graphs),)
        )
        return RobustnessQuery(schedule, frozenset(leaders), self.R, self.L, self.F)

    def circulant(self):
        """(n, leaders, order, graphs) of the layered circulant under test."""
        return layered_circulant(
            random.Random(11), self.M, self.LEADERS, self.R, self.F, self.D
        )

    def trap_query(self):
        """The circulant with eight consecutive followers of the order, past
        the first r + f (which alone carry leader edges), fed from r - 1
        boundary nodes; and the trap."""
        n, leaders, order, graphs = self.circulant()
        trap = order[10:18]
        boundary = order[:self.R - 1]
        return self.query(n, leaders, plant_trap(graphs, n, trap, boundary)), trap

    def test_layered_circulant_draws_only_the_empty_f(self, monkeypatch):
        n, leaders, _, graphs = self.circulant()
        drawn = count_f_sets(monkeypatch)
        assert is_jointly_robust_following(self.query(n, leaders, graphs)).holds
        assert drawn == [frozenset()]

    def test_planted_trap_fails_without_the_r_plus_f_peel(self, monkeypatch):
        """The trap fails at F = ∅ with target r, so the (r + f) pre-pass,
        which runs only once F = ∅ passes, costs it nothing."""
        targets = []
        real = robustness._interval_violation

        def recording(steps, interval, F, followers, r, *rest):
            targets.append(r)
            return real(steps, interval, F, followers, r, *rest)

        q, _ = self.trap_query()
        monkeypatch.setattr(robustness, "_interval_violation", recording)
        v = is_jointly_robust_following(q)
        assert not v.holds and v.certificate.F == frozenset()
        assert targets == [self.R]

    def test_layered_circulant_holds_and_planted_trap_fails(self):
        n, leaders, _, graphs = self.circulant()
        start = time.perf_counter()
        assert is_jointly_robust_following(self.query(n, leaders, graphs)).holds
        q, trap = self.trap_query()
        v = is_jointly_robust_following(q)
        elapsed = time.perf_counter() - start
        assert not v.holds
        cert = v.certificate
        assert cert.F == frozenset() and cert.S >= set(trap)
        interval = q.schedule.intervals()[cert.interval_index]
        for i in cert.S:
            reachable, _ = jointly_reachable(
                q.schedule, interval, cert.S, i, q.r, q.l, forbidden=cert.F
            )
            assert not reachable
        assert elapsed < 5.0


# (F, S, interval index) of every check-fails query of the benchmark, by
# seed and operation name. Both relay readings give the same certificates.
FAILS_CERTIFICATES = {
    seed: {
        "net9 r=2 l=1 f=1": ({5}, {1, 2, 3, 6}, 0),
        "net15 r=3 l=1 f=2": ({7, 8}, {1, 2, 3, 4, 5, 6, 9, 10}, 0),
        **traps,
    }
    for seed, traps in {
        0: {
            "trap0 r=3 l=1 f=2": (set(), {15, 16, 18, 19, 20, 21, 22, 23}, 0),
            "trap1 r=2 l=2 f=1": (set(), {12, 13, 14, 16, 17, 19, 21, 22}, 0),
            "trap2 r=2 l=3 f=1": (set(), {11, 13, 14, 17, 18, 19}, 0),
        },
        1: {
            "trap0 r=3 l=1 f=2": (set(), {15, 16, 17, 18, 20, 21, 22, 23}, 0),
            "trap1 r=2 l=2 f=1": (set(), {13, 14, 15, 16, 17, 18, 20, 22}, 0),
            "trap2 r=2 l=3 f=1": (set(), {12, 13, 14, 15, 16, 18}, 0),
        },
        2: {
            "trap0 r=3 l=1 f=2": (set(), {15, 16, 17, 18, 19, 20, 21, 23}, 0),
            "trap1 r=2 l=2 f=1": (set(), {11, 13, 14, 16, 18, 19, 20, 21}, 0),
            "trap2 r=2 l=3 f=1": (set(), {11, 13, 14, 15, 16, 18}, 0),
        },
    }.items()
}


class TestBenchmarkCertificates:
    """The benchmark accepts any valid certificate, so these pins are what
    keeps its check-fails certificates from changing unnoticed."""

    @pytest.mark.parametrize("seed", sorted(FAILS_CERTIFICATES))
    @pytest.mark.parametrize("relays_inside_s", [True, False])
    def test_check_fails_certificates_are_pinned(self, seed, relays_inside_s, tmp_path):
        ops = load_workloads().generate("check-fails", seed, tmp_path)["ops"]
        got = {}
        for op in ops:
            schedule, leaders = load_topology(tmp_path / op["topology"])
            q = RobustnessQuery(
                schedule, leaders, op["r"], op["l"], op["f"], relays_inside_s
            )
            v = is_jointly_robust_following(q)
            assert not v.holds
            got[op["name"]] = v.certificate
        want = {
            name: Certificate(frozenset(F), frozenset(S), t)
            for name, (F, S, t) in FAILS_CERTIFICATES[seed].items()
        }
        assert got == want


class TestSeveralIntervals:
    """The period-6 corpus topologies take the net9 or net15 graphs twice, so
    the interval partition alone decides the verdict."""

    @pytest.mark.parametrize("name, base, rlf, certificate", [
        ("net9_intervals_3_3", "net9", (2, 2, 1), None),
        ("net9_intervals_2_2_2", "net9", (2, 2, 1), ((), (1, 2, 3, 6), 0)),
        ("net15_intervals_2_2_2", "net15", (3, 3, 2), ((), (1, 2, 3, 4, 5, 6, 9, 10), 0)),
    ])
    def test_verdict_and_certificate_pinned(self, name, base, rlf, certificate):
        schedule, leaders = load_topology(corpus_path(name))
        base_schedule, base_leaders = load_topology(corpus_path(base))
        assert (schedule.graphs, leaders) == (base_schedule.graphs * 2, base_leaders)
        v = is_jointly_robust_following(RobustnessQuery(schedule, leaders, *rlf))
        if certificate is None:
            assert v.holds and v.certificate is None
        else:
            F, S, t = certificate
            assert not v.holds
            assert v.certificate == Certificate(frozenset(F), frozenset(S), t)
