"""Agent update rules: leaders, first-order trimmed-mean followers, and
second-order (double-integrator) followers.

Followers trim extreme received values before averaging. A value group is
only discarded wholesale when a single adversary set of size <= f could
explain it, which is decided exactly via minimum message covers.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import TYPE_CHECKING

from .messaging import Message, _hit_prefix, mmc_cardinality

if TYPE_CHECKING:
    from .scenario import ControlParams


_value = itemgetter(0)  # Message.value, read as a tuple item

# The cut of each side seen, by (masks most extreme first, f). The cut is a
# pure function of the key, and sides repeat from round to round, so each
# distinct one is searched once; the dict is emptied when it fills. The
# bound is ten times the 405 distinct sides of fig4b_3hop and fig5_staircase.
_CUTS: dict[tuple[tuple[int, ...], int], int] = {}
_CUTS_MAX = 4096


class AgentError(ValueError):
    """Invalid agent parameterization or input."""


def _trim_side(side: list[Message], f: int, upper: bool) -> list[Message]:
    """The messages removed from one side: the longest prefix of the side,
    most extreme value first (stable), that <= f nodes explain. The whole
    side goes if <= f nodes explain all of it.
    """
    if len(side) <= f:
        # One node of each path hits them all, in any order.
        return side
    side.sort(key=_value, reverse=upper)
    key = (tuple([m.path.mask for m in side]), f)
    p = _CUTS.get(key)
    if p is None:
        p = _hit_prefix(key[0], f)[0]
        # One extra message raises the cover optimum by at most one, so a
        # maximal prefix short of the whole side needs exactly f nodes. The
        # search found at most f; fewer than f must not suffice, which any
        # nonempty prefix meets for f = 1.
        if f > 1 and p < len(side) and mmc_cardinality(side[:p], f - 1) != f:
            raise AgentError(
                f"trim invariant violated: maximal prefix of {p} messages has cover below {f}"
            )
        if len(_CUTS) >= _CUTS_MAX:
            _CUTS.clear()
        _CUTS[key] = p
    return side[:p]


def mw_msr_trim(ms: tuple[Message, ...], own: float, f: int) -> tuple[Message, ...]:
    """Remove extreme received values: the largest (resp. smallest) values
    strictly above (below) own, as long as one set of <= f nodes could have
    produced them. ``ms`` holds the received messages only; own value is
    never trimmed. The retained messages are the given objects, in the given
    order; if none is removed, ``ms`` itself is returned."""
    if f < 0:
        raise AgentError(f"trim parameter must be >= 0, got {f}")
    upper, lower = [], []
    for m in ms:
        if m.value > own:
            upper.append(m)
        elif m.value < own:
            lower.append(m)
    removed = {id(m) for m in _trim_side(upper, f, True)}
    removed.update(id(m) for m in _trim_side(lower, f, False))
    if not removed:
        return ms
    return tuple(m for m in ms if id(m) not in removed)


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
