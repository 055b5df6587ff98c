"""Command-line entry points.

Exit codes: 0 success, 1 invalid input (click's usage errors included),
2 robustness violation, 3 non-convergence.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path as FsPath

import click

from .robustness import (
    RobustnessQuery,
    is_jointly_robust_following,
    necessary_conditions,
)
from .scenario import corpus_names, load_scenario, load_topology, resolve_file


class _Group(click.Group):
    """A command group whose usage errors (a bad or missing option, an
    unknown command) exit 1, invalid input: click's own code for them, 2,
    means a robustness violation here. Subcommands parse and run inside
    ``invoke``, so it also reports any command's ``ValueError`` or
    ``OSError`` as ``error: ...`` and exits 1."""

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as e:
            e.exit_code = 1
            raise

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as e:
            e.exit_code = 1
            raise
        except (ValueError, OSError) as e:
            click.echo(f"error: {e}", err=True)
            sys.exit(1)


@click.group(cls=_Group)
def main():
    """Resilient leader-follower consensus: simulator and graph verifier."""


@main.command("check-robustness")
@click.option("--topology", required=True, help="Topology file or corpus name.")
@click.option("--r", "r_param", type=int, required=True, help="Required path redundancy.")
@click.option("--l", "l_param", type=int, required=True, help="Hop count.")
@click.option("--f", "f_param", type=int, required=True, help="Locality parameter.")
@click.option("--strict-relays", is_flag=True, help="Require relay nodes outside S.")
def cli_check_robustness(topology, r_param, l_param, f_param, strict_relays):
    """Exactly verify the jointly r-robust following property."""
    schedule, leaders = load_topology(resolve_file(topology))
    query = RobustnessQuery(
        schedule,
        leaders,
        r=r_param,
        l=l_param,
        f=f_param,
        relays_inside_s=not strict_relays,
    )
    for name, ok in necessary_conditions(query):
        click.echo(f"necessary-condition {name}: {'pass' if ok else 'FAIL'}")
    verdict = is_jointly_robust_following(query)
    if verdict.holds:
        click.echo(
            f"VERDICT: jointly {r_param}-robust following with {l_param} hops "
            f"under the {f_param}-local model"
        )
        sys.exit(0)
    cert = verdict.certificate
    click.echo(
        f"VERDICT: NOT jointly {r_param}-robust following with {l_param} hops"
    )
    click.echo(
        f"certificate: F={sorted(cert.F)} S={sorted(cert.S)} "
        f"interval={cert.interval_index}"
    )
    sys.exit(2)


@main.command("simulate")
@click.option("--scenario", "scenario_ref", required=True, help="Scenario file or corpus name.")
@click.option("--out-dir", type=click.Path(file_okay=False), default=None)
@click.option("--max-rounds", type=int, default=None, help="Override the file's max_rounds.")
@click.option("--summary", is_flag=True, help="Print the convergence report only.")
def cli_simulate(scenario_ref, out_dir, max_rounds, summary):
    """Run a scenario and report convergence."""
    from .engine import run  # the checker's commands need no simulator

    scenario = load_scenario(resolve_file(scenario_ref))
    if max_rounds is not None:
        scenario = dataclasses.replace(scenario, max_rounds=max_rounds)
    result = run(scenario, out_dir)
    if not summary:
        click.echo(f"scenario: {scenario.name}  fingerprint: {scenario.fingerprint()}")
        # A trace records the initial state and the state after each round.
        click.echo(f"rounds simulated: {max(t.rounds for t in result.traces) - 1}")
    for axis, report in enumerate(result.reports):
        label = f"axis {axis}: " if scenario.axes > 1 else ""
        click.echo(f"{label}converged: {report.converged}")
        click.echo(f"{label}classification: {report.classification}")
        click.echo(f"{label}residual: {report.residual:.3e}")
        if report.velocity_residual is not None:
            click.echo(f"{label}velocity residual: {report.velocity_residual:.3e}")
        if report.round_of_convergence is not None:
            click.echo(f"{label}round of convergence: {report.round_of_convergence}")
        for seg in report.segments:
            click.echo(
                f"{label}segment [{seg.start},{seg.end}) value {seg.value}: "
                f"{'converged' if seg.converged else 'not converged'}"
            )
    sys.exit(0 if result.converged else 3)


@main.command("validate")
@click.option("--scenario", "scenario_ref", required=True, help="Scenario file or corpus name.")
def cli_validate(scenario_ref):
    """Run all scenario cross-validations without simulating."""
    scenario = load_scenario(resolve_file(scenario_ref))
    errors = scenario.validation_errors()
    if errors:
        for msg in errors:
            click.echo(f"invalid: {msg}", err=True)
        sys.exit(1)
    click.echo(f"{scenario.name}: valid (fingerprint {scenario.fingerprint()})")
    sys.exit(0)


@main.group("corpus")
def cli_corpus():
    """Shipped topology and scenario corpus."""


@cli_corpus.command("list")
def cli_corpus_list():
    for name in corpus_names():
        click.echo(name)


if __name__ == "__main__":
    main()
