"""Resilient leader-follower consensus under Byzantine attacks in
time-varying multi-hop networks: simulator and exact robustness verifier."""

__version__ = "0.1.0"

from .graphs import DiGraph, Path, TopologySchedule, union_graph
from .robustness import (
    Certificate,
    RobustnessQuery,
    RobustnessVerdict,
    is_jointly_robust_following,
    necessary_conditions,
)
from .messaging import Message, minimum_message_cover, relay_round
from .agents import ControlParams, ReferenceFunction
from .adversary import AttackScript, Waveform, necessity_attack, validate_f_local
from .scenario import Scenario, load_scenario, load_topology
from .engine import ConvergenceReport, SimulationResult, Trace, run

__all__ = [
    "DiGraph",
    "Path",
    "TopologySchedule",
    "union_graph",
    "Certificate",
    "RobustnessQuery",
    "RobustnessVerdict",
    "is_jointly_robust_following",
    "necessary_conditions",
    "Message",
    "minimum_message_cover",
    "relay_round",
    "ControlParams",
    "ReferenceFunction",
    "AttackScript",
    "Waveform",
    "necessity_attack",
    "validate_f_local",
    "Scenario",
    "load_scenario",
    "load_topology",
    "ConvergenceReport",
    "SimulationResult",
    "Trace",
    "run",
]
