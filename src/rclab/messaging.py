"""Multi-hop message relaying with path provenance, and the bounded search
for message covers that the trim runs.

A message is a (value, path) pair, and a message set is a plain tuple of
messages. Within a round a node that a relay plan covers receives one message
per simple path of length <= l ending at it; adversarial relays may rewrite
the value but the path is authentic and immutable.
"""

from __future__ import annotations

import math
from itertools import filterfalse, repeat
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .graphs import DiGraph, Path, all_paths_into

if TYPE_CHECKING:
    from .adversary import AttackScript


class MessageError(ValueError):
    """Invalid message or message-set operation."""


class Message(NamedTuple):
    """A value with the (authentic) path it took; the destination is
    path.nodes[-1]. A plain tuple, because one is built per delivered path
    per round; ``relay_round`` checks each value's finiteness once."""

    value: float
    path: Path


class RelayPlan(NamedTuple):
    """Where the value of each delivered path comes from, for one graph, l
    and set of scripts.

    A path's value is the emission, to its next receiver, of the last node
    on the path that rewrites values; with no such node it is the honest
    source's own.
    ``sources`` are the honest origins and ``emissions`` the distinct
    (adversary, receiver) origins; slot s indexes ``sources + emissions``.
    ``slots`` and ``paths`` hold every planned path and its slot,
    destination by destination, and ``spans[i]`` is destination i's
    (start, stop) in them.
    """

    sources: tuple[int, ...]
    emissions: tuple[tuple[int, int], ...]
    slots: tuple[int, ...]
    paths: tuple[Path, ...]
    spans: dict[int, tuple[int, int]]


def _origin(nodes: tuple[int, ...], hooks: Mapping[int, AttackScript]) -> int | tuple[int, int]:
    # A "same" relay ignores the value that arrives; "identity" passes it on.
    for pos in range(len(nodes) - 2, 0, -1):
        script = hooks.get(nodes[pos])
        if script is not None and script.relay_mode == "same":
            return nodes[pos], nodes[pos + 1]
    return (nodes[0], nodes[1]) if nodes[0] in hooks else nodes[0]


def relay_plan(
    paths: Mapping[int, Sequence[Path]], hooks: Mapping[int, AttackScript]
) -> RelayPlan:
    """The value origin of every path in ``paths`` (destination -> paths),
    whose order it keeps. Adversarial sources always rewrite; adversarial
    relays rewrite when their ``relay_mode`` is "same"."""
    flat = tuple(p for ps in paths.values() for p in ps)
    origins = [_origin(p.nodes, hooks) for p in flat]
    seen = dict.fromkeys(origins)
    sources = tuple(o for o in seen if not isinstance(o, tuple))
    emissions = tuple(o for o in seen if isinstance(o, tuple))
    slot = {o: s for s, o in enumerate(sources + emissions)}
    spans, start = {}, 0
    for i, ps in paths.items():
        spans[i] = start, start + len(ps)
        start += len(ps)
    return RelayPlan(sources, emissions, tuple(map(slot.__getitem__, origins)), flat, spans)


def slot_values(
    plan: RelayPlan, senders: Mapping[int, float], k: int, hooks: Mapping[int, AttackScript]
) -> list[float]:
    """The value of each slot of ``plan`` at round k: each source's sender
    value, then each (adversary, receiver) emission, evaluated once. Each
    slot is some path's origin, so this one finiteness check per value
    covers every path that carries it."""
    table = list(map(senders.__getitem__, plan.sources))
    table += [hooks[a].emit(k, r) for a, r in plan.emissions]
    for bad in filterfalse(math.isfinite, table):
        raise MessageError(f"non-finite message value {bad}")
    return table


def relay_round(
    g: DiGraph,
    senders: Mapping[int, float],
    l: int,
    k: int = 0,
    hooks: Mapping[int, AttackScript] | None = None,
    plan: RelayPlan | None = None,
) -> dict[int, tuple[Message, ...]]:
    """Deliver one message per (source, simple path of length <= l) pair to
    each destination of ``plan``.

    Adversarial nodes rewrite values along the path: the source's emission
    and each "same" relay's are per-(round, next receiver), so each distinct
    (adversary, receiver) emission is evaluated once per round. Paths are
    never altered, and an untouched value is the sender's own float object.
    Every sender value and emission that some path carries must be finite
    (``slot_values``). Emissions must be pure in (round, receiver): a caller
    may evaluate them again for another plan of the round, as the engine's
    message log does after the run.

    ``plan`` defaults to every node of g with all its paths of at most l
    hops; callers that relay over g again pass it to amortize it.
    """
    hooks = hooks or {}
    if plan is None:
        plan = relay_plan({i: all_paths_into(g, i, l) for i in g.nodes}, hooks)
    value = slot_values(plan, senders, k, hooks).__getitem__
    # Every message of the round in one pass, then each destination's slice.
    # Through a list: a tuple grown from a bare map is resized as it fills,
    # and the cast-off sizes linger in the tuple free lists.
    new = tuple.__new__
    msgs = tuple(list(map(new, repeat(Message), zip(map(value, plan.slots), plan.paths))))
    return {i: msgs[a:b] for i, (a, b) in plan.spans.items()}


def _hit_prefix(masks: Sequence[int], k: int, chosen: int = 0, start: int = 0) -> tuple[int, int]:
    """(p, mask): the longest prefix masks[:p] that at most k nodes beyond
    ``chosen`` hit, and a node mask hitting it.

    Bounded search tree for d-hitting set (Downey & Fellows): branch on the
    nodes of the first mask not yet hit, to depth k, keep the longest prefix
    over the leaves, and stop once one hits every mask. Any set hitting a
    longer prefix holds a node of that first unhit mask, so some branch
    reaches the longest. Masks before ``start`` are already hit by
    ``chosen``. With masks of at most l nodes the tree has at most l^k
    leaves, each reached by one O(m) scan.
    """
    m = len(masks)
    for idx in range(start, m):
        if not masks[idx] & chosen:
            break
    else:
        return m, chosen
    best = (idx, chosen)
    if k <= 0:
        return best
    rest = masks[idx]
    while rest:
        low = rest & -rest
        found = _hit_prefix(masks, k - 1, chosen | low, idx + 1)
        if found[0] > best[0]:
            if found[0] == m:
                return found
            best = found
        rest ^= low
    return best


def mmc_cardinality(messages: Sequence[Message], cap: int) -> int:
    """min(minimum cover cardinality, cap + 1): iterative deepening over the
    bounded search tree up to depth cap, O(m * l^c) for c = min(cover, cap + 1).
    """
    if not messages:
        raise MessageError("mmc_cardinality requires a nonempty message set")
    masks = [m.path.mask for m in messages]
    for size in range(1, cap + 1):
        if _hit_prefix(masks, size)[0] == len(masks):
            return size
    return cap + 1
