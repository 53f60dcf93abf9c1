"""Command-line interface.

    fidaudit check SCENARIO [--report PATH] [--format text|machine]
                            [--tol FLOAT] [--seed INT]
    fidaudit validate SCENARIO
    fidaudit catalog LABEL
    fidaudit --version

Exit codes from ``check``: 0 pass, 1 warn, 2 fail. A schema error, or any
other error, also exits 2 with one line on stderr: exit 1 means "warn", so
no error may end with it. A usage error, such as a ``--tol`` that is not a
finite non-negative number or a negative ``--seed``, exits 2 with click's
usage message. All configuration is flags and the scenario file; no
environment variables are consulted.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from pathlib import Path

import click

from . import __version__
from .audit import EXIT_CODES, emit_report, run_audit
from .context import catalog_lookup
from .errors import SchemaError, UnknownContextLabel
from .loyalty import INFO_TOL
from .scenario import load_scenario, read_document, validate_scenario


@contextmanager
def _errors_exit_2():
    try:
        yield
    except SchemaError as exc:
        where = f"{exc.path}: " if exc.path else ""
        click.echo(f"schema error: {where}{exc}", err=True)
        sys.exit(2)
    except Exception as exc:  # noqa: BLE001 - a traceback would exit 1, which reads as "warn"
        click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
        sys.exit(2)


def _tolerance(ctx: click.Context, param: click.Parameter, value: float) -> float:
    """``value`` when it is a finite non-negative number; NaN, an infinity
    or a negative threshold is a usage error."""
    if not 0.0 <= value < math.inf:
        raise click.BadParameter(f"must be a finite non-negative number, got {value!r}")
    return value


@click.group()
@click.version_option(version=__version__, prog_name="fidaudit")
def main() -> None:
    """Audit scenarios for fiduciary-duty compliance signals."""


@main.command()
@click.argument("scenario_file", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--report", "report_path", type=click.Path(dir_okay=False, path_type=Path), default=None, help="Also write the rendered report to this path.")
@click.option("--format", "fmt", type=click.Choice(["text", "machine"]), default="text", show_default=True)
@click.option("--tol", type=float, default=INFO_TOL, show_default=True, callback=_tolerance, help="Information-flow zero threshold.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True, help="Seed for sampled evidence; recorded in the report.")
def check(scenario_file: Path, report_path: Path | None, fmt: str, tol: float, seed: int) -> None:
    """Run the six-step audit over SCENARIO_FILE."""
    with _errors_exit_2():
        report = run_audit(load_scenario(scenario_file), tol=tol, seed=seed)
        rendered = emit_report(report, fmt)
        click.echo(rendered, nl=False)
        if report_path is not None:
            report_path.write_text(rendered, encoding="utf-8")
    sys.exit(EXIT_CODES[report.overall])


@main.command()
@click.argument("scenario_file", type=click.Path(exists=True, dir_okay=False, path_type=Path))
def validate(scenario_file: Path) -> None:
    """List every schema violation in SCENARIO_FILE."""
    with _errors_exit_2():
        problems = validate_scenario(read_document(scenario_file))
    if not problems:
        click.echo(f"{scenario_file}: valid")
        return
    for path, message in problems:
        click.echo(f"{path or '<root>'}: {message}")
    sys.exit(2)


@main.command()
@click.argument("context_label")
def catalog(context_label: str) -> None:
    """Print the subsidiary-duty catalog entries for CONTEXT_LABEL."""
    try:
        entries = catalog_lookup(context_label)
    except UnknownContextLabel as exc:
        click.echo(str(exc), err=True)
        sys.exit(2)
    header = context_label + ("  [proposed context, not yet determined by law]" if entries[0].speculative else "")
    click.echo(header)
    for entry in entries:
        flags = []
        if entry.information_flow:
            flags.append("information-flow")
        if entry.area:
            flags.append(f"area: {entry.area}")
        suffix = f"  ({', '.join(flags)})" if flags else ""
        click.echo(f"  [{entry.kind:^7}] {entry.duty}{suffix}")
        click.echo(f"            key: {entry.key}  binding: {entry.binding}")


if __name__ == "__main__":
    main()
