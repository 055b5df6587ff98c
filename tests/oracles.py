"""Reference implementations that the tests check rclab against.

Each states its part of the algorithm by definition, with no relay plan,
trim route or memo: relays walk every path hop by hop, covers are found by
exhaustive search, and a whole run is replayed by ``reference_run``.
"""

import itertools
import math

from rclab.graphs import DiGraph, all_paths_into
from rclab.messaging import MessageError, _hit_prefix


def walk_relay_round(g, senders, l, k, hooks):
    """Reference relay: every path walks every relay, one hop at a time.
    Destination -> (path nodes, value) pairs, in path order."""
    out = {}
    for i in g.nodes:
        msgs = []
        for p in all_paths_into(g, i, l):
            hook = hooks.get(p.nodes[0])
            value = hook.emit(k, p.nodes[1]) if hook is not None else senders[p.nodes[0]]
            for pos in range(1, len(p.nodes) - 1):
                relay_hook = hooks.get(p.nodes[pos])
                if relay_hook is not None:
                    value = relay_hook.relay(value, k, p.nodes[pos + 1])
            msgs.append((p.nodes, value))
        out[i] = msgs
    return out


def reference_trim(ms, own, f):
    """The trim per path, the reference for ``mw_msr_trim``: each side of
    own, sorted most extreme value first (stable), loses its longest prefix
    that at most f nodes hit; a side of at most f messages goes whole. The
    retained messages are the given objects in the given order, and ``ms``
    itself if none is removed."""
    removed = set()
    for upper in (True, False):
        side = [m for m in ms if (m.value > own if upper else m.value < own)]
        if len(side) > f:
            side.sort(key=lambda m: m.value, reverse=upper)
            side = side[:_hit_prefix([m.path.mask for m in side], f)[0]]
        removed.update(map(id, side))
    if not removed:
        return ms
    return tuple(m for m in ms if id(m) not in removed)


def mmc_brute_force_oracle(ms) -> int:
    """Exhaustive minimum-cover cardinality; refuses > 20 candidate nodes."""
    if not ms:
        raise MessageError("mmc_brute_force_oracle requires a nonempty message set")
    cand_sets = [set(m.path.nodes[:-1]) for m in ms]
    universe = sorted(set().union(*cand_sets))
    if len(universe) > 20:
        raise MessageError(f"oracle size cap exceeded: {len(universe)} candidates > 20")
    for size in range(1, len(universe) + 1):
        for combo in itertools.combinations(universe, size):
            chosen = set(combo)
            if all(c & chosen for c in cand_sets):
                return size
    raise AssertionError("unreachable: the full universe is always a cover")


def trimmed_values(received, own, f):
    """The values a follower keeps of ``received`` ((path nodes, value) pairs
    in path order). Each side of own, sorted most extreme first (stable),
    loses its longest prefix whose paths one set of at most f nodes meets,
    a node meeting a path it lies on before the destination. The prefix is
    the longest that any such set meets, over every set of min(f, candidates)
    of the side's nodes."""
    kept = [value for _, value in received if value == own]
    for upper in (True, False):
        side = [(value, nodes) for nodes, value in received
                if (value > own if upper else value < own)]
        side.sort(key=lambda pair: pair[0], reverse=upper)
        hits = [set(nodes[:-1]) for _, nodes in side]
        universe = sorted(set().union(*hits))
        cut = max(
            next((j for j, h in enumerate(hits) if not h.intersection(chosen)), len(hits))
            for chosen in itertools.combinations(universe, min(f, len(universe)))
        )
        kept += [value for value, _ in side[cut:]]
    return kept


def reference_run(scenario, axis, rounds):
    """(x, v, retained_mean) of ``rounds`` rounds of one axis, as
    ``engine.run_axis`` records them, by the algorithm's definition.

    Normal leaders, and in secure mode the normal followers with a leader
    in-neighbour at some scheduled step, are anchors: they adopt the round's
    reference. Secure mode relays among the followers only. Every other
    normal follower averages its own value with the values it keeps
    (``trimmed_values``), and a second-order follower steers towards that
    mean. Adversaries follow their scripts. In a second-order run anchors and
    adversaries are at rest after every round. ``v`` is recorded in
    second-order runs only.
    """
    n, leaders, scripts, f = scenario.schedule.n, scenario.leaders, scenario.scripts, scenario.f
    nodes = range(1, n + 1)
    followers = set(nodes) - leaders
    normal_followers = followers - set(scripts)
    anchors = leaders - set(scripts)
    secure = scenario.algorithm == "mw-msr-secure"
    if secure:
        anchors |= normal_followers & {
            i for g in scenario.schedule.graphs for j, i in g.edges if j in leaders
        }
    second = scenario.algorithm == "mdp-msr"

    x, v = {}, {}
    for i in nodes:
        if i in scenario.init:
            state = scenario.init[i][axis]
            x[i], v[i] = state[0], state[1] if len(state) > 1 else 0.0
        elif i in scripts and i not in leaders:
            x[i], v[i] = scripts[i].default.value(0), 0.0
        else:
            x[i], v[i] = scenario.reference.value_at(0), 0.0

    xs, vs, means = [x], [v] if second else [], []
    for k in range(rounds):
        g = scenario.schedule.graphs[k % scenario.schedule.period]
        if secure:
            g = DiGraph(n, frozenset((j, i) for j, i in g.edges if {j, i} <= followers))
        received = walk_relay_round(g, x, scenario.l, k, scripts)
        mean, next_x, next_v = {}, dict(x), dict(v)
        for i in normal_followers:
            if i in anchors:
                mean[i] = x[i]
                continue
            kept = trimmed_values(received[i], x[i], f)
            mean[i] = math.fsum([x[i], *kept]) / (len(kept) + 1)
            if second:
                p = scenario.params
                u = mean[i] - x[i] - p.beta * v[i]
                next_x[i] = x[i] + p.T * v[i] + (p.T**2 / 2) * u
                next_v[i] = v[i] + p.T * u
            else:
                next_x[i] = mean[i]
        for i in anchors:
            next_x[i], next_v[i] = scenario.reference.value_at(k), 0.0
        for a in scripts:
            next_x[a], next_v[a] = scripts[a].default.value(k + 1), 0.0
        x, v = next_x, next_v
        xs.append(x)
        if second:
            vs.append(v)
        means.append(mean)
    return xs, vs, means
