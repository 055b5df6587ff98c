"""Agent update rules: leaders, first-order trimmed-mean followers, and
second-order (double-integrator) followers.

Followers trim extreme received values before averaging. A value group is
only discarded wholesale when a single adversary set of size <= f could
explain it, which is decided exactly via minimum message covers.
"""

from __future__ import annotations

import math
from itertools import chain, groupby
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .messaging import Message, _hit_prefix, mmc_cardinality

if TYPE_CHECKING:
    from .graphs import Path
    from .scenario import ControlParams


_value = itemgetter(0)  # a Message's value, or a (sort value, slot) pair's

# Entries a route's memo holds before it is emptied: ten times the 25
# distinct keys of the busiest route in a corpus run (fig5_staircase).
_MEMO_MAX = 256


class AgentError(ValueError):
    """Invalid agent parameterization or input."""


class TrimRoute(NamedTuple):
    """One trimming destination's paths grouped by value origin (relay plan
    slot), built once per (graph, destination).

    Paths of one slot carry one value. ``firsts`` holds the first path index
    of each distinct slot, in first-path order, ``groups`` each such slot's
    path indices in path order, and ``masks`` each path's cover mask.
    ``kept`` is the run's memo: trim key -> kept path indices.
    """

    firsts: tuple[int, ...]
    groups: tuple[tuple[int, ...], ...]
    masks: tuple[int, ...]
    kept: dict[tuple[int, ...], tuple[int, ...]]


def trim_route(slots: Sequence[int], paths: Sequence[Path]) -> TrimRoute:
    """The route of a destination whose paths have these plan slots (its
    span of ``RelayPlan.slots`` and ``RelayPlan.paths``), with an empty
    memo."""
    groups: dict[int, list[int]] = {}
    for j, s in enumerate(slots):
        groups.setdefault(s, []).append(j)
    return TrimRoute(
        tuple(g[0] for g in groups.values()),
        tuple(map(tuple, groups.values())),
        tuple(p.mask for p in paths),
        {},
    )


def _side_paths(side: list[tuple[float, int]], groups) -> list[int]:
    """The path indices of a side's (sort value, slot) pairs, in their
    order: paths of equal value, across slots, in path order, as a stable
    sort of the paths by value leaves them."""
    return [j for _, tied in groupby(side, _value)
            for j in sorted(chain.from_iterable(groups[s] for _, s in tied))]


def _kept(ms: tuple[Message, ...], f: int, masks, sides) -> tuple[int, ...]:
    """The path indices that survive the trim of ``sides`` (path indices,
    most extreme first): each side loses its longest prefix that <= f nodes
    explain, and goes whole if <= f nodes explain all of it."""
    removed: set[int] = set()
    for side in sides:
        # No mask is 0, so a side of at most f paths is hit whole.
        p = _hit_prefix([masks[j] for j in side], f)[0]
        # One extra message raises the cover optimum by at most one, so a
        # maximal prefix short of the whole side needs exactly f nodes. The
        # search found at most f; fewer than f must not suffice, which any
        # nonempty prefix meets for f = 1.
        if f > 1 and p < len(side) and mmc_cardinality([ms[j] for j in side[:p]], f - 1) != f:
            raise AgentError(
                f"trim invariant violated: maximal prefix of {p} messages has cover below {f}"
            )
        removed.update(side[:p])
    return tuple(j for j in range(len(masks)) if j not in removed)


def mw_msr_trim(
    ms: tuple[Message, ...], own: float, f: int, route: TrimRoute
) -> tuple[Message, ...]:
    """Remove extreme received values: the largest (resp. smallest) values
    strictly above (below) own, as long as one set of <= f nodes could have
    produced them. ``ms`` holds the received messages only, one per path of
    ``route`` in its order; own value is never trimmed. The retained messages
    are the given objects, in the given order; if none is removed, ``ms``
    itself is returned.

    Values are split and sorted per slot, not per path. The cut depends only
    on each side's slot order, with the slots that tie the one before them
    marked, and on f, so it is searched once per such key in the route's
    memo.
    """
    if f < 0:
        raise AgentError(f"trim parameter must be >= 0, got {f}")
    firsts, groups, masks, memo = route
    if len(ms) != len(masks):
        raise AgentError(f"{len(ms)} messages for a route of {len(masks)} paths")
    # (sort value, slot) pairs, most extreme first once sorted: the upper
    # side negated, ties in first-path order.
    upper, lower = [], []
    for s, j in enumerate(firsts):
        v = ms[j][0]
        if v > own:
            upper.append((-v, s))
        elif v < own:
            lower.append((v, s))
    lower.sort()
    upper.sort()
    # 2 * slot, plus 1 where the slot ties the one before it; -1 parts the
    # sides.
    key = [f]
    prev = None
    for v, s in lower:
        key.append(2 * s + (v == prev))
        prev = v
    key.append(-1)
    prev = None
    for v, s in upper:
        key.append(2 * s + (v == prev))
        prev = v
    key = tuple(key)
    kept = memo.get(key)
    if kept is None:
        kept = _kept(ms, f, masks, (_side_paths(upper, groups), _side_paths(lower, groups)))
        if len(memo) >= _MEMO_MAX:
            memo.clear()
        memo[key] = kept
    if len(kept) == len(ms):
        return ms
    return tuple(map(ms.__getitem__, kept))


def mw_msr_update(retained: tuple[Message, ...], own: float) -> float:
    """Uniformly weighted average of own value and the retained received
    values."""
    if not math.isfinite(own):
        raise AgentError(f"non-finite own value {own}")
    try:
        total = math.fsum([own, *map(_value, retained)])
    except OverflowError:
        raise AgentError("retained values overflow their sum") from None
    return total / (len(retained) + 1)


def mdp_msr_control(mean: float, x: float, v: float, p: ControlParams) -> float:
    """Acceleration: position error to the retained mean (``mw_msr_update``)
    with velocity damping."""
    return mean - x - p.beta * v


def second_order_step(x: float, v: float, u: float, T: float) -> tuple[float, float]:
    """Sampled double-integrator update of (x, v) at period T."""
    return x + T * v + (T**2 / 2) * u, v + T * u
