"""Exact verification of jointly robust following graphs.

A time-varying graph with leader set L is jointly r-robust following with
l hops (under the f-local model) when, for every f-local removal set F,
every nonempty follower subset S of the surviving graph contains, within
each bounded interval, at least one node with r independent paths of at
most l hops originating outside S.

Everything here is exact. The removal sets F are enumerated (a pruned
search over f-local sets) unless a holding query is decided at F = ∅ by
peeling with target r + f; the follower subsets S are not: for each F and
interval a peeling pass finds the largest violating S in time polynomial in
the number of followers. Independent paths are counted by branch and bound.

A path into i serves S when its source lies outside S: its relays may lie
inside S (the paper's footnote reading, the default). The strict reading
also keeps its relays outside S, and then the hop bound drops out of the
count. Each strict path's last hop w lies outside S ∪ F, so w → i is itself
a valid one-hop path, and disjoint paths have distinct last hops. So at any
l the largest number of disjoint strict paths into i is |N_i^- ∖ (S ∪ F)|,
the default count at l = 1, and a strict query is counted with one hop: l
reaches it only through the f-local family of F sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graphs import (
    DiGraph,
    GraphError,
    TopologySchedule,
    all_paths_into,
    bit_nodes,
    in_neighbors_l,
    nodes_bit,
)


@dataclass(frozen=True)
class RobustnessQuery:
    schedule: TopologySchedule
    leaders: frozenset[int]
    r: int
    l: int
    f: int
    # Whether relays may lie inside S: the footnote reading (the default), or
    # the strict one, which keeps them outside S too (see the module docstring).
    relays_inside_s: bool = True

    def __post_init__(self):
        if self.r < 1:
            raise GraphError(f"r must be >= 1, got {self.r}")
        if self.f < 0:
            raise GraphError(f"f must be >= 0, got {self.f}")
        if self.l < 1:
            raise GraphError(f"l must be >= 1, got {self.l}")
        bad = [d for d in self.leaders if d < 1 or d > self.schedule.n]
        if bad:
            raise GraphError(f"leader ids {bad} outside node range")


@dataclass(frozen=True)
class Certificate:
    """A witness of violation: under removal set F, no node of S is jointly
    r-reachable anywhere in the given interval.

    F and the interval are the first failing ones in search order; S is the
    largest trapped set for them (the union of every violating S)."""

    F: frozenset[int]
    S: frozenset[int]
    interval_index: int


@dataclass(frozen=True)
class RobustnessVerdict:
    holds: bool
    certificate: Certificate | None = None

    def __post_init__(self):
        if not self.holds and self.certificate is None:
            raise GraphError("failing verdict requires a certificate")


def _max_disjoint_paths(path_masks: list[int], target: int) -> int:
    """Maximum number of pairwise node-disjoint paths (masks exclude the
    shared endpoint), capped at ``target``. Branch and bound; early exit
    once ``target`` is reached."""
    masks = sorted(set(path_masks), key=lambda m: (m.bit_count(), m))
    best = 0

    def search(idx: int, used: int, count: int) -> None:
        nonlocal best
        if count > best:
            best = count
        if best >= target:
            return
        remaining = len(masks) - idx
        if count + remaining <= best:
            return
        for i in range(idx, len(masks)):
            if masks[i] & used == 0:
                search(i + 1, used | masks[i], count + 1)
                if best >= target:
                    return

    search(0, 0, 0)
    del search  # search refers to itself: drop the cycle, so no collector is needed
    return best


def _path_masks(paths) -> list[tuple[int, int]]:
    """(source bit, body mask) of each path into a node. The body holds
    every node but the endpoint; the path may serve S exactly when its
    source lies outside S."""
    return [(1 << p.nodes[0], p.mask) for p in paths]


def _walk_path_masks(g: DiGraph, dst: int, l: int) -> set[tuple[int, int]]:
    """The distinct pairs of ``_path_masks(all_paths_into(g, dst, l))``,
    by the same walk back from dst but with no ``Path`` built: the body
    never holds dst, and a path runs 1 to l hops."""
    inn = g._in_map
    dst_bit = 1 << dst
    out: set[tuple[int, int]] = set()

    def back(head: int, body: int, hops: int) -> None:
        seen = body | dst_bit
        for prev in inn[head]:
            bit = 1 << prev
            if not seen & bit:
                grown = body | bit
                out.add((bit, grown))
                if hops < l:
                    back(prev, grown, hops + 1)

    back(dst, 0, 1)
    del back  # back refers to itself: drop the cycle, so no collector is needed
    return out


def _reachable(paths: Iterable[tuple[int, int]], S: int, Fmask: int, r: int) -> bool:
    """Do r of ``paths`` ((source, body) pairs of one node at one step) serve S
    (as a bitmask), avoid ``Fmask`` and share no node but their endpoint?"""
    masks = [body for src, body in paths if not (src & S or body & Fmask)]
    return len(masks) >= r and _max_disjoint_paths(masks, target=r) >= r


def jointly_reachable(
    schedule: TopologySchedule,
    interval: range,
    S: frozenset[int] | set[int],
    i: int,
    r: int,
    l: int,
    forbidden: frozenset[int] = frozenset(),
    relays_inside_s: bool = True,
) -> tuple[bool, int | None]:
    """Is node i a jointly r-reachable follower with l hops in the interval?

    That is: at some time of the interval, r paths of length <= l end at i,
    originate outside S and share no node but i; under the strict reading
    relays lie outside S too, which one-hop paths count exactly (see the
    module docstring). ``forbidden`` nodes (the removal set F) are on no
    path, and a forbidden i is never reachable.
    Returns (holds, witness time K_i). The count is evaluated on single
    time-step graphs; the interval only supplies the candidate times.
    """
    S = frozenset(S)
    if i not in S:
        raise GraphError(f"node {i} must belong to S")
    if i in forbidden:
        return False, None
    Smask, Fmask = nodes_bit(S), nodes_bit(forbidden)
    for k in interval:
        paths = _path_masks(all_paths_into(schedule.graph_at(k), i, l if relays_inside_s else 1))
        if _reachable(paths, Smask, Fmask, r):
            return True, k
    return False, None


def _neighborhood_table(schedule: TopologySchedule, l: int) -> dict[int, set[int]]:
    """The distinct N_i^{l-}[k] over the steps k of one period, as bitmasks,
    for every node i."""
    return {
        i: {nodes_bit(in_neighbors_l(g, i, l)) for g in schedule.graphs}
        for i in range(1, schedule.n + 1)
    }


def f_local_sets(schedule: TopologySchedule, l: int, f: int):
    """All F subsets satisfying the f-local predicate over one period,
    in deterministic order: by cardinality, then lexicographically. The
    empty set comes before any set-up, so a search that stops there builds
    no table. With f = 0 there is no adversary, so it is the only F.

    The predicate: |N_i^{l-}[k] ∩ F| <= f for every node i outside F and
    every scheduled step k.

    The sets are grown one cardinality at a time, each by adding a node above
    its largest member, which keeps every level in lexicographic order. A
    node crowded by a partial F (more than f members in one of its
    neighborhoods) stays crowded as F grows, so it must join F later: a
    partial F is dropped once such a node lies below its largest member.
    """
    yield frozenset()
    if f == 0:
        return
    n = schedule.n
    table = _neighborhood_table(schedule, l)
    # For each node v, the nodes whose neighborhoods contain v (the only ones
    # adding v can crowd), each with those neighborhoods as bitmasks.
    watch: dict[int, list[tuple[int, set[int]]]] = {v: [] for v in table}
    for i, masks in table.items():
        for v in table:
            hit = {m for m in masks if m >> v & 1}
            if hit:
                watch[v].append((i, hit))

    level = [(0, 0, 0)]  # (F, nodes crowded by F, largest member) as bitmasks
    while level:
        grown = []
        for F, C, last in level:
            must = C & ~F
            if F and not must:
                yield frozenset(bit_nodes(F))
            # Nodes skipped between last and v never join F: stop at the
            # lowest node that must.
            hi = (must & -must).bit_length() - 1 if must else n
            for v in range(last + 1, hi + 1):
                G, D = F | 1 << v, C
                for i, masks in watch[v]:
                    if not D >> i & 1 and max(map(int.bit_count, map(G.__and__, masks))) > f:
                        D |= 1 << i
                if not D & ~G & ((1 << v) - 1):
                    grown.append((G, D, v))
        level = grown


def _interval_violation(
    steps: list[tuple[DiGraph, dict[int, int], dict[int, set[tuple[int, int]]]]],
    interval: range,
    F: frozenset[int],
    followers: list[int],
    r: int,
    l: int,
) -> frozenset[int] | None:
    """Largest follower subset S with no jointly r-reachable node in the
    interval; None if every nonempty S has one.

    Whether a node of S is jointly r-reachable is monotone: it stays true
    when S shrinks, which frees sources. So peel: starting from every
    follower, remove nodes that are reachable against the set that remains.
    The first member of any S to be removed was reachable against a superset
    of S, hence against S; so if the set empties, every S passes. Otherwise
    no remaining node is reachable against it: it is a violating S and
    contains every other, whatever the removal order.

    ``steps`` holds, per scheduled step and for every F of one query, the
    graph, each node's in-neighbor mask and the ``_walk_path_masks`` pairs of
    each node asked so far, all on the full graph; F is masked out here.
    """
    Fmask = nodes_bit(F)
    cached = [steps[k] for k in interval]

    def node_ok(i: int, S: int) -> bool:
        # r distinct direct in-neighbors outside S and F are r independent paths
        free = ~(S | Fmask)
        if any((inn[i] & free).bit_count() >= r for _, inn, _ in cached):
            return True
        if l == 1:
            return False
        for g, _, paths in cached:
            if i not in paths:
                paths[i] = _walk_path_masks(g, i, l)
            if _reachable(paths[i], S, Fmask, r):
                return True
        return False

    return _peel(followers, node_ok)


def _peel(nodes: list[int], node_ok) -> frozenset[int] | None:
    """Largest R within ``nodes`` in which no i has ``node_ok(i, R)`` (R as a
    bitmask), for a test monotone in R; None if that R is empty. Sweeps in id
    order, dropping passing nodes at once, until a sweep drops none."""
    R = nodes_bit(nodes)
    rest = list(nodes)
    while rest:
        keep = []
        for i in rest:
            if node_ok(i, R):
                R &= ~(1 << i)
            else:
                keep.append(i)
        if len(keep) == len(rest):
            return frozenset(keep)
        rest = keep
    return None


def is_jointly_robust_following(q: RobustnessQuery) -> RobustnessVerdict:
    """Exact check of the jointly r-robust following property.

    Iterates f-local removal sets F (smallest first, then lexicographically),
    and for each F peels every interval (see ``_interval_violation``), which
    decides every nonempty follower subset of the surviving graph at once.
    The certificate holds the first failing F and interval and the largest
    trapped S for them, so certificates are deterministic.

    Once F = ∅ passes, with f >= 1, a peel of it with target r + f that
    empties every interval decides "holds": an f-local F meets at most f of
    i's r + f disjoint paths, which lie within l hops of i, so r survive.
    Both peels count a strict query with one hop (see the module docstring).
    """
    schedule = q.schedule
    intervals = schedule.intervals()
    hops = q.l if q.relays_inside_s else 1
    steps = [(g, {i: nodes_bit(g.in_neighbors(i)) for i in g.nodes}, {}) for g in schedule.graphs]
    for F in f_local_sets(schedule, q.l, q.f):
        followers = sorted(set(range(1, schedule.n + 1)) - q.leaders - F)
        if not followers:
            continue
        for t, interval in enumerate(intervals):
            S = _interval_violation(steps, interval, F, followers, q.r, hops)
            if S is not None:
                return RobustnessVerdict(False, Certificate(F, S, t))
        if not F and q.f and all(
            _interval_violation(steps, iv, F, followers, q.r + q.f, hops) is None
            for iv in intervals
        ):
            return RobustnessVerdict(True)
    return RobustnessVerdict(True)


def is_robust_following_static(
    g: DiGraph, leaders, r: int, l: int, f: int
) -> RobustnessVerdict:
    """Static version: single-graph schedule with a unit interval."""
    q = RobustnessQuery(TopologySchedule.static(g), frozenset(leaders), r=r, l=l, f=f)
    return is_jointly_robust_following(q)


def strongly_robust_wrt_leaders(g: DiGraph, leaders, r: int) -> bool:
    """Every nonempty S outside the leader set contains a node with at
    least r direct in-neighbors outside S. (The one-hop union-graph
    condition from the sliding-window literature; strictly stronger than
    the robust-following property at matching thresholds.) Decided by the
    exact checker: it is r-robust following with one hop and f = 0."""
    return is_robust_following_static(g, leaders, r, 1, 0).holds


def necessary_conditions(q: RobustnessQuery) -> list[tuple[str, bool]]:
    """Three necessary conditions for the queried property, reported beside
    the exact verdict; nothing filters on them. Each fails only where the
    property fails, since it names an F and S that violate. With no follower
    the property holds, and so does every condition.

    - leader-count, |L| >= r + f: under F = f leaders (any f nodes are
      f-local) and S = every follower, r disjoint paths need r sources in
      L outside F.
    - leader-coverage, in every interval a follower with r leaders within l
      hops at some step: under F = ∅ and S = every follower, the sources of
      some follower's r disjoint paths are r leaders.
    - follower-in-degree, every follower with r in-neighbors at some step
      of every interval, r + f if the interval has one step: under S = {i},
      the last hops of i's r disjoint paths are r in-neighbors, and with one
      step F = f of them leaves fewer than r.
    """
    schedule, leaders, r, l = q.schedule, q.leaders, q.r, q.l
    followers = sorted(set(range(1, schedule.n + 1)) - leaders)
    steps = [[schedule.graph_at(k) for k in interval] for interval in schedule.intervals()]
    return [
        ("leader-count", not followers or len(leaders) >= r + q.f),
        ("leader-coverage", not followers or all(
            any(len(in_neighbors_l(g, i, l) & leaders) >= r for g in gs for i in followers)
            for gs in steps
        )),
        ("follower-in-degree", all(
            any(len(g.in_neighbors(i)) >= (r + q.f if len(gs) == 1 else r) for g in gs)
            for gs in steps for i in followers
        )),
    ]
