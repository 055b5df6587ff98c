"""Agent update rules: leaders, first-order trimmed-mean followers, and
second-order (double-integrator) followers.

Followers trim extreme received values before averaging. A value group is
only discarded wholesale when a single adversary set of size <= f could
explain it, which is decided exactly via minimum message covers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .messaging import Message, MessageError, coverable_prefix, mmc_cardinality


class AgentError(ValueError):
    """Invalid agent parameterization or input."""


@dataclass(frozen=True)
class ReferenceFunction:
    """Piecewise-constant (staircase) reference: list of (start_round, value)."""

    pieces: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if not self.pieces:
            raise AgentError("reference needs at least one piece")
        if self.pieces[0][0] != 0:
            raise AgentError("first reference piece must start at round 0")
        starts = [s for s, _ in self.pieces]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise AgentError(f"piece starts must strictly increase: {starts}")
        if any(not math.isfinite(v) for _, v in self.pieces):
            raise AgentError("reference values must be finite")

    @staticmethod
    def constant(value: float) -> "ReferenceFunction":
        return ReferenceFunction(((0, float(value)),))

    def value_at(self, k: int) -> float:
        if k < 0:
            raise AgentError(f"round index must be >= 0, got {k}")
        out = self.pieces[0][1]
        for start, value in self.pieces:
            if start <= k:
                out = value
        return out

    def segments(self, horizon: int) -> list[tuple[range, float]]:
        """Constant segments within [0, horizon)."""
        out = []
        for idx, (start, value) in enumerate(self.pieces):
            end = self.pieces[idx + 1][0] if idx + 1 < len(self.pieces) else horizon
            if start < horizon:
                out.append((range(start, min(end, horizon)), value))
        return out


@dataclass(frozen=True)
class ControlParams:
    """Second-order gains; the sampling/damping pair must satisfy the
    stability window 1 + T^2/2 <= beta*T <= 2 - T^2/2."""

    T: float
    beta: float

    def __post_init__(self):
        if self.T <= 0:
            raise AgentError(f"sampling period must be positive, got {self.T}")
        lo, hi = 1 + self.T**2 / 2, 2 - self.T**2 / 2
        bt = self.beta * self.T
        if not (lo <= bt <= hi):
            raise AgentError(
                f"beta*T = {bt:.6g} outside stability window [{lo:.6g}, {hi:.6g}]"
            )


def _trim_side(side: list[Message], f: int) -> list[Message]:
    """Longest prefix of the value-ordered side explainable by <= f nodes.

    The side list must already be sorted most-extreme-first (stable). Returns
    the removed messages: the whole side if <= f nodes explain all of it.
    """
    if f == 0 or not side:
        return []
    p = coverable_prefix(side, f)
    # One extra message raises the cover optimum by at most one, so a
    # maximal prefix short of the whole side needs exactly f nodes. The
    # search found at most f; fewer than f must not suffice, which any
    # nonempty prefix meets for f = 1.
    if f > 1 and p < len(side) and mmc_cardinality(side[:p], f - 1) != f:
        raise AgentError(
            f"trim invariant violated: maximal prefix of {p} messages has cover below {f}"
        )
    return side[:p]


def mw_msr_trim(ms: tuple[Message, ...], own: float, f: int) -> tuple[Message, ...]:
    """Remove extreme values: the largest (resp. smallest) received values
    strictly above (below) own, as long as one set of <= f nodes could have
    produced them. The self-message is always retained, and the retained
    messages are the given objects, in the given order; if none is removed,
    ``ms`` itself is returned."""
    if f < 0:
        raise AgentError(f"trim parameter must be >= 0, got {f}")
    has_self = False
    upper, lower = [], []
    for m in ms:
        # A path's mask is 0 only for the self-path (no node but the destination).
        if not m.path.mask:
            has_self = True
        elif m.value > own:
            upper.append(m)
        elif m.value < own:
            lower.append(m)
    if not has_self:
        raise MessageError("message set must contain the self-message")
    upper.sort(key=lambda m: -m.value)
    lower.sort(key=lambda m: m.value)
    removed = {id(m) for m in _trim_side(upper, f)}
    removed.update(id(m) for m in _trim_side(lower, f))
    if not removed:
        return ms
    return tuple(m for m in ms if id(m) not in removed)


def mw_msr_update(retained: tuple[Message, ...]) -> float:
    """Uniformly weighted average of the retained values."""
    if not retained:
        raise AgentError("retained message set is empty")
    return math.fsum(m.value for m in retained) / len(retained)


def mdp_msr_control(mean: float, x: float, v: float, p: ControlParams) -> float:
    """Acceleration: position error to the retained mean (``mw_msr_update``)
    with velocity damping."""
    return mean - x - p.beta * v


def second_order_step(x: float, v: float, u: float, T: float) -> tuple[float, float]:
    """Sampled double-integrator update of (x, v) at period T."""
    return x + T * v + (T**2 / 2) * u, v + T * u
