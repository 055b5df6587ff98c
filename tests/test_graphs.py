import pytest
from hypothesis import given, strategies as st

from rclab.graphs import (
    DiGraph,
    GraphError,
    Path,
    TopologySchedule,
    all_paths_into,
    in_neighbors_l,
    union_graph,
)


def chain(n):
    return DiGraph.from_edges(n, [(i, i + 1) for i in range(1, n)])


def paths_to(g, src, dst, l):
    """All simple paths of at most l hops from src to dst, sorted by node
    sequence: an oracle for ``all_paths_into``, walking forward from src."""
    found = []

    def extend(prefix):
        if prefix[-1] == dst:
            found.append(prefix)
        elif len(prefix) <= l:
            for (j, i) in g.edges:
                if j == prefix[-1] and i not in prefix:
                    extend(prefix + (i,))

    extend((src,))
    return [Path(p) for p in sorted(found)]


class TestDiGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            DiGraph.from_edges(3, [(1, 1)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(GraphError):
            DiGraph.from_edges(3, [(1, 4)])

    def test_rejects_nonpositive_n(self):
        with pytest.raises(GraphError):
            DiGraph(0, frozenset())

    def test_neighbors(self):
        g = DiGraph.from_edges(4, [(1, 2), (3, 2), (2, 4)])
        assert g.in_neighbors(2) == {1, 3}
        assert g.in_neighbors(1) == frozenset()

    def test_induced_keeps_ids(self):
        g = DiGraph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
        sub = g.induced({2, 3})
        assert sub.edges == {(2, 3)}
        assert sub.n == 4


class TestLHopNeighborhoods:
    def test_chain_in_neighbors(self):
        g = chain(5)
        assert in_neighbors_l(g, 4, 1) == {3, 4}
        assert in_neighbors_l(g, 4, 2) == {2, 3, 4}
        assert in_neighbors_l(g, 4, 10) == {1, 2, 3, 4}

    def test_out_neighbors_mirror(self):
        # the nodes 2 reaches within 2 hops are those whose 2-hop
        # in-neighborhood holds 2
        g = chain(5)
        assert {i for i in g.nodes if 2 in in_neighbors_l(g, i, 2)} == {2, 3, 4}

    def test_includes_self(self):
        g = chain(3)
        assert 1 in in_neighbors_l(g, 1, 1)

    def test_rejects_bad_hop_count(self):
        with pytest.raises(GraphError):
            in_neighbors_l(chain(3), 1, 0)


class TestPaths:
    def test_path_requires_distinct_nodes(self):
        with pytest.raises(GraphError):
            Path((1, 2, 1))

    def test_path_needs_a_hop(self):
        with pytest.raises(GraphError):
            Path((1,))

    def test_paths_to_lexicographic(self):
        g = DiGraph.from_edges(4, [(1, 2), (1, 3), (2, 4), (3, 4), (1, 4)])
        ps = paths_to(g, 1, 4, 2)
        assert [p.nodes for p in ps] == [(1, 2, 4), (1, 3, 4), (1, 4)]

    def test_paths_respect_length_cap(self):
        g = chain(5)
        assert paths_to(g, 1, 5, 3) == []
        assert [p.nodes for p in paths_to(g, 1, 5, 4)] == [(1, 2, 3, 4, 5)]

    def test_all_paths_into_matches_per_source(self):
        g = DiGraph.from_edges(5, [(1, 2), (2, 3), (1, 3), (4, 3), (5, 4)])
        collected = []
        for src in g.nodes:
            if src != 3:
                collected += [p.nodes for p in paths_to(g, src, 3, 3)]
        assert sorted(collected) == [p.nodes for p in all_paths_into(g, 3, 3)]

    @given(st.integers(2, 6), st.integers(1, 3), st.randoms())
    def test_all_paths_are_simple_and_edge_valid(self, n, l, rng):
        edges = [
            (j, i)
            for j in range(1, n + 1)
            for i in range(1, n + 1)
            if j != i and rng.random() < 0.5
        ]
        g = DiGraph.from_edges(n, edges)
        for p in all_paths_into(g, 1, l):
            assert len(set(p.nodes)) == len(p.nodes)
            assert 2 <= len(p.nodes) <= l + 1
            assert p.nodes[-1] == 1
            for a, b in zip(p.nodes, p.nodes[1:]):
                assert (a, b) in g.edges


@pytest.mark.parametrize("call, error", [
    (lambda: TopologySchedule((), ()), "at least one graph"),
    (lambda: chain(3).in_neighbors(0), "invalid node id 0"),
    (lambda: chain(3).in_neighbors(4), "invalid node id 4"),
], ids=["empty-schedule", "node-0", "node-past-n"])
def test_rejects_bad_input(call, error):
    with pytest.raises(GraphError, match=error):
        call()


class TestTopologySchedule:
    def test_intervals_must_cover(self):
        g = chain(3)
        with pytest.raises(GraphError):
            TopologySchedule((g, g), (3,))
        with pytest.raises(GraphError):
            TopologySchedule((g, g), (1, 0, 1))

    def test_shared_node_set_required(self):
        with pytest.raises(GraphError):
            TopologySchedule((chain(3), chain(4)), (2,))

    def test_cyclic_replay(self):
        a, b = chain(3), DiGraph.from_edges(3, [(1, 2), (2, 3), (1, 3)])
        s = TopologySchedule((a, b), (2,))
        assert s.graph_at(0) is a
        assert s.graph_at(1) is b
        assert s.graph_at(2) is a
        assert s.graph_at(7) is b

    def test_intervals_ranges(self):
        s = TopologySchedule((chain(3),) * 5, (2, 3))
        assert s.intervals() == [range(0, 2), range(2, 5)]
        assert s.max_interval_length == 3

    def test_union_graph(self):
        a = DiGraph.from_edges(3, [(1, 2)])
        b = DiGraph.from_edges(3, [(2, 3)])
        s = TopologySchedule((a, b), (2,))
        assert union_graph(s).edges == {(1, 2), (2, 3)}
