"""Adversary behaviors: scripted Byzantine/malicious emissions, relay
corruption, locality validation, and auto-generated stalling attacks from
robustness-checker certificates.

All generators are seedless closed-form functions of the round index and the
receiver, so any attack replays exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from .graphs import TopologySchedule, in_neighbors_l

if TYPE_CHECKING:
    from .robustness import Certificate


class AdversaryError(ValueError):
    """Invalid attack script."""


@dataclass(frozen=True)
class Waveform:
    """Deterministic scalar signal of the round index."""

    center: float
    amplitude: float = 0.3
    period: int = 2
    kind: str = "square"  # square | sinusoid | constant

    def __post_init__(self):
        if self.kind not in ("square", "sinusoid", "constant"):
            raise AdversaryError(f"unknown waveform kind {self.kind!r}")
        if self.kind != "constant" and self.period < 1:
            raise AdversaryError(f"waveform period must be >= 1, got {self.period}")

    def value(self, k: int) -> float:
        if self.kind == "constant":
            return self.center
        if self.kind == "square":
            sign = 1.0 if (k % self.period) < self.period / 2 else -1.0
            return self.center + self.amplitude * sign
        return self.center + self.amplitude * math.sin(2 * math.pi * k / self.period)

    @staticmethod
    def constant(value: float) -> "Waveform":
        return Waveform(value, 0.0, 1, "constant")


@dataclass(frozen=True)
class AttackScript:
    """One adversary's behavior; its node is its key in ``Scenario.scripts``.

    ``groups`` maps receiver groups to emission waveforms; receivers not in
    any group get ``default``. A Byzantine node may differentiate receivers;
    a malicious node must broadcast identically (no groups allowed).
    ``relay_mode`` is "same" (corrupt the values it relays like its own
    emissions) or "identity" (pass through).

    ``emit`` must be a pure function of (k, receiver): the relay round
    evaluates each (node, receiver) emission once per round and delivers it
    on every path whose value the node rewrites last.
    """

    default: Waveform
    groups: tuple[tuple[frozenset[int], Waveform], ...] = ()
    model: str = "byzantine"  # byzantine | malicious
    relay_mode: str = "same"  # same | identity

    def __post_init__(self):
        if self.model not in ("byzantine", "malicious"):
            raise AdversaryError(f"unknown adversary model {self.model!r}")
        if self.relay_mode not in ("same", "identity"):
            raise AdversaryError(f"unknown relay mode {self.relay_mode!r}")
        if self.model == "malicious" and self.groups:
            raise AdversaryError("malicious nodes must emit identically to all receivers")
        seen: set[int] = set()
        for members, _ in self.groups:
            if members & seen:
                raise AdversaryError("receiver groups must be disjoint")
            seen |= members

    @cached_property
    def _waveforms(self) -> dict[int, Waveform]:
        """Receiver -> its group's waveform, built once per script."""
        return {r: wf for members, wf in self.groups for r in members}

    def emit(self, k: int, receiver: int) -> float:
        return self._waveforms.get(receiver, self.default).value(k)

    def relay(self, value: float, k: int, receiver: int) -> float:
        if self.relay_mode == "identity":
            return value
        return self.emit(k, receiver)


@dataclass(frozen=True)
class LocalityReport:
    witness: tuple[int, int] | None = None  # (node, round) violating f-local

    @property
    def f_local(self) -> bool:
        return self.witness is None


def validate_f_local(
    adversaries: frozenset[int] | set[int], schedule: TopologySchedule, l: int, f: int
) -> LocalityReport:
    """Check |l-hop in-neighborhood of i, intersected with the adversary set|
    <= f for every normal node at every scheduled round."""
    adv = frozenset(adversaries)
    witness = None
    for k in range(schedule.period):
        g = schedule.graph_at(k)
        for i in g.nodes:
            if i in adv:
                continue
            if len(in_neighbors_l(g, i, l) & adv) > f:
                witness = (i, k)
                break
        if witness:
            break
    return LocalityReport(witness)


def necessity_attack(
    cert: Certificate, reference_value: float, stall_value: float | None = None
) -> tuple[dict[int, AttackScript], dict[int, float]]:
    """Build the stalling attack implied by a robustness violation.

    The certificate's removal set F becomes the adversary set; every
    adversary constantly reports ``stall_value`` to nodes in S and the
    reference to everyone else, relaying in the same way. Returned initial
    values put S at the stall value and all other nodes at the reference, so
    S can never distinguish the false sources from honest ones and stays put.
    """
    if stall_value is None:
        stall_value = reference_value - 1.0
    if stall_value == reference_value:
        raise AdversaryError("stall value must differ from the reference")
    s_members = frozenset(cert.S)
    scripts = {
        j: AttackScript(
            default=Waveform.constant(reference_value),
            groups=((s_members, Waveform.constant(stall_value)),),
        )
        for j in cert.F
    }
    init = {i: stall_value for i in cert.S}
    return scripts, init
