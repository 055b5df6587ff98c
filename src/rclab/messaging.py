"""Multi-hop message relaying with path provenance, and exact minimum
message covers.

A message is a (value, path) pair, and a message set is a plain tuple of
messages. Within a round every node receives one message per simple path of
length <= l ending at it; adversarial relays may rewrite the value but the
path is authentic and immutable.
"""

from __future__ import annotations

import itertools
import math
from typing import Mapping, NamedTuple, Protocol, Sequence

from .graphs import DiGraph, Path, all_paths_into, bit_nodes, nodes_bit


class MessageError(ValueError):
    """Invalid message or message-set operation."""


class _MessageFields(NamedTuple):
    value: float
    path: Path


class Message(_MessageFields):
    """A value with the (authentic) path it took; destination is path[-1].

    Immutable, hashable and equal by fields. A tuple underneath, because one
    is built per delivered path per round.
    """

    __slots__ = ()

    def __new__(cls, value: float, path: Path):
        if not math.isfinite(value):
            raise MessageError(f"non-finite message value {value}")
        return tuple.__new__(cls, (value, path))

    @classmethod
    def _make(cls, iterable):
        # The namedtuple default skips __new__; _replace goes through here.
        return cls(*iterable)

    @property
    def source(self) -> int:
        return self.path.source

    @property
    def destination(self) -> int:
        return self.path.destination


class AdversaryHook(Protocol):
    """Per-node behavior plugged into relay_round for adversarial nodes.

    relay_round calls ``emit`` once per path from the node, with the path's
    first receiver, and ``relay`` once per path through it, with the value
    as it arrived and the path's next receiver.
    """

    def emit(self, k: int, receiver: int) -> float: ...

    def relay(self, value: float, k: int, receiver: int) -> float: ...


def relay_round(
    g: DiGraph,
    senders: Mapping[int, float],
    l: int,
    k: int = 0,
    hooks: Mapping[int, AdversaryHook] | None = None,
    paths: Mapping[int, Sequence[Path]] | None = None,
) -> dict[int, tuple[Message, ...]]:
    """Deliver one message per (source, simple path of length <= l) pair.

    Values are rewritten by adversarial nodes along the path: the source's
    emission and each adversarial relay's corruption are per-(round, next
    receiver). Paths are never altered.

    ``paths`` may supply the per-destination path enumeration (it only
    depends on g and l), letting callers amortize it across rounds.
    """
    hooks = hooks or {}
    # Only a path through an adversary (destination aside) can be tampered.
    adv = nodes_bit(hooks)
    out: dict[int, tuple[Message, ...]] = {}
    for i in g.nodes:
        msgs = []
        append = msgs.append
        for p in (paths[i] if paths is not None else all_paths_into(g, i, l)):
            nodes = p.nodes
            if not p.mask & adv:
                append(Message(senders[nodes[0]], p))
                continue
            hook = hooks.get(nodes[0])
            value = senders[nodes[0]] if hook is None else hook.emit(k, nodes[1])
            for pos in range(1, len(nodes) - 1):
                relay_hook = hooks.get(nodes[pos])
                if relay_hook is not None:
                    value = relay_hook.relay(value, k, nodes[pos + 1])
            append(Message(value, p))
        out[i] = tuple(msgs)
    return out


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
    for idx in range(start, len(masks)):
        if not masks[idx] & chosen:
            break
    else:
        return len(masks), chosen
    best = (idx, chosen)
    if k <= 0:
        return best
    rest = masks[idx]
    while rest:
        low = rest & -rest
        found = _hit_prefix(masks, k - 1, chosen | low, idx + 1)
        if found[0] > best[0]:
            if found[0] == len(masks):
                return found
            best = found
        rest ^= low
    return best


def _nonempty(messages: Sequence[Message], who: str) -> Sequence[Message]:
    if not messages:
        raise MessageError(f"{who} requires a nonempty message set")
    return messages


def minimum_message_cover(ms: Sequence[Message]) -> tuple[frozenset[int], int]:
    """A minimum node set hitting every message path (destination excluded).

    Exact: iterative deepening over the bounded search tree, O(m * l^c) for
    m messages of at most l hops and a minimum cover of size c.
    Deterministic for a fixed message set.
    """
    masks = [m.path.mask for m in _nonempty(ms, "minimum_message_cover")]
    size = 1
    while (found := _hit_prefix(masks, size))[0] < len(masks):
        size += 1
    return frozenset(bit_nodes(found[1])), size


def mmc_cardinality(messages: Sequence[Message], cap: int) -> int:
    """min(minimum cover cardinality, cap + 1): iterative deepening over the
    bounded search tree up to depth cap, O(m * l^c) for c = min(cover, cap + 1).
    """
    masks = [m.path.mask for m in _nonempty(messages, "mmc_cardinality")]
    for size in range(1, cap + 1):
        if _hit_prefix(masks, size)[0] == len(masks):
            return size
    return cap + 1


def mmc_brute_force_oracle(ms: Sequence[Message]) -> int:
    """Exhaustive minimum-cover cardinality; refuses > 20 candidate nodes."""
    messages = _nonempty(ms, "mmc_brute_force_oracle")
    cand_sets = [set(m.path.nodes) - {m.destination} for m in messages]
    universe = sorted(set().union(*cand_sets))
    if len(universe) > 20:
        raise MessageError(f"oracle size cap exceeded: {len(universe)} candidates > 20")
    for size in range(1, len(universe) + 1):
        for combo in itertools.combinations(universe, size):
            chosen = set(combo)
            if all(c & chosen for c in cand_sets):
                return size
    raise AssertionError("unreachable: the full universe is always a cover")
