"""Time-varying directed graphs and bounded-length path enumeration.

Node ids are 1-based integers. An edge (j, i) means node i receives from
node j. All graph values are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence


class GraphError(ValueError):
    """Invalid graph construction or query."""


@dataclass(frozen=True)
class DiGraph:
    """Directed graph on nodes 1..n with edge (j, i): i receives from j."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 1:
            raise GraphError(f"node count must be positive, got {self.n}")
        for (j, i) in self.edges:
            if j == i:
                raise GraphError(f"self-loop ({j},{i}) not allowed")
            if not (1 <= j <= self.n and 1 <= i <= self.n):
                raise GraphError(f"edge ({j},{i}) outside node range 1..{self.n}")

    @staticmethod
    def from_edges(n: int, edges: Iterable[Sequence[int]]) -> "DiGraph":
        return DiGraph(n, frozenset((int(j), int(i)) for j, i in edges))

    @property
    def nodes(self) -> range:
        return range(1, self.n + 1)

    def check_node(self, i: int) -> None:
        if not (1 <= i <= self.n):
            raise GraphError(f"invalid node id {i} (nodes are 1..{self.n})")

    @cached_property
    def _in_map(self) -> dict[int, frozenset[int]]:
        """Node -> direct in-neighbors, built once per graph."""
        inn: dict[int, set[int]] = {v: set() for v in self.nodes}
        for (j, i) in self.edges:
            inn[i].add(j)
        return {v: frozenset(js) for v, js in inn.items()}

    def in_neighbors(self, i: int) -> frozenset[int]:
        """Direct in-neighbors of i, excluding i itself."""
        self.check_node(i)
        return self._in_map[i]

    def induced(self, keep: Iterable[int]) -> "DiGraph":
        """Subgraph induced by a node set (node ids unchanged)."""
        keep = set(keep)
        return DiGraph(
            self.n, frozenset((j, i) for (j, i) in self.edges if j in keep and i in keep)
        )


def in_neighbors_l(g: DiGraph, i: int, l: int) -> frozenset[int]:
    """Nodes that can reach i via paths of at most l hops; includes i."""
    if l < 1:
        raise GraphError(f"hop count must be >= 1, got {l}")
    g.check_node(i)
    seen = {i}
    frontier = {i}
    for _ in range(l):
        frontier = {j for t in frontier for j in g.in_neighbors(t)} - seen
        if not frontier:
            break
        seen |= frontier
    return frozenset(seen)


@dataclass(frozen=True)
class Path:
    """A simple directed path (i_1, ..., i_{m}) of at least one hop; all
    nodes distinct."""

    nodes: tuple[int, ...]

    def __post_init__(self):
        if len(self.nodes) < 2:
            raise GraphError(f"a path needs at least two nodes: {self.nodes}")
        if len(set(self.nodes)) != len(self.nodes):
            raise GraphError(f"path nodes must be distinct: {self.nodes}")

    @cached_property
    def mask(self) -> int:
        """Bitmask of every node but the destination: the nodes that could
        have changed a value passed along the path."""
        return nodes_bit(self.nodes[:-1])


def all_paths_into(g: DiGraph, dst: int, l: int) -> list[Path]:
    """All simple paths of length 1..l ending at dst, from every source.

    Sorted lexicographically by node sequence.
    """
    g.check_node(dst)
    inn = g._in_map
    found: list[tuple[int, ...]] = []

    def back(suffix: list[int]):
        head = suffix[0]
        if len(suffix) > 1:
            found.append(tuple(suffix))
        if len(suffix) - 1 >= l:
            return
        for prev in inn[head]:
            if prev not in suffix:
                back([prev] + suffix)

    back([dst])
    del back  # back refers to itself: drop the cycle, so no collector is needed
    return [Path(p) for p in sorted(found)]


@dataclass(frozen=True)
class TopologySchedule:
    """A finite list of graphs on a shared node set, partitioned into intervals.

    ``interval_lengths`` are the lengths of the half-open index ranges
    [k_t, k_{t+1}) covering the list, starting at k_0 = 0. The schedule is
    replayed cyclically when a simulation outlives the list; the interval
    structure repeats with it.
    """

    graphs: tuple[DiGraph, ...]
    interval_lengths: tuple[int, ...]

    def __post_init__(self):
        if not self.graphs:
            raise GraphError("schedule must contain at least one graph")
        n = self.graphs[0].n
        if any(g.n != n for g in self.graphs):
            raise GraphError("all graphs in a schedule must share the node set")
        if not self.interval_lengths or any(x < 1 for x in self.interval_lengths):
            raise GraphError("interval lengths must be positive")
        if sum(self.interval_lengths) != len(self.graphs):
            raise GraphError(
                "intervals must exactly cover the schedule: "
                f"sum {sum(self.interval_lengths)} != {len(self.graphs)} graphs"
            )

    @property
    def n(self) -> int:
        return self.graphs[0].n

    @property
    def period(self) -> int:
        return len(self.graphs)

    @property
    def max_interval_length(self) -> int:
        """K: the uniform bound on interval lengths."""
        return max(self.interval_lengths)

    def graph_at(self, k: int) -> DiGraph:
        return self.graphs[k % self.period]

    def intervals(self) -> list[range]:
        """The interval index ranges of one period."""
        out, start = [], 0
        for length in self.interval_lengths:
            out.append(range(start, start + length))
            start += length
        return out

    def induced(self, keep: Iterable[int]) -> "TopologySchedule":
        keep = frozenset(keep)
        return TopologySchedule(
            tuple(g.induced(keep) for g in self.graphs), self.interval_lengths
        )

    @staticmethod
    def static(g: DiGraph) -> "TopologySchedule":
        """Single-graph schedule with a unit interval."""
        return TopologySchedule((g,), (1,))


def union_graph(s: TopologySchedule) -> DiGraph:
    """Union of the edge sets of every graph of the schedule."""
    return DiGraph(s.n, frozenset().union(*(g.edges for g in s.graphs)))


def direct_leader_followers(g: DiGraph, leaders) -> frozenset[int]:
    """W_L: followers with a direct in-edge from some leader."""
    leaders = frozenset(leaders)
    return frozenset(
        i for (j, i) in g.edges if j in leaders and i not in leaders
    )


# Bitmask helpers for the cover search and the checker.

def nodes_bit(nodes: Iterable[int]) -> int:
    m = 0
    for v in nodes:
        m |= 1 << v
    return m


def bit_nodes(mask: int) -> list[int]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out
