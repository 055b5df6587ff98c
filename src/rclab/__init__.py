"""Resilient leader-follower consensus under Byzantine attacks in
time-varying multi-hop networks: simulator and exact robustness verifier."""

__version__ = "0.1.0"
