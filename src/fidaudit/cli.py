"""Command-line interface.

    fidaudit check SCENARIO [--report PATH] [--format text|machine]
                            [--tol FLOAT] [--seed INT]
    fidaudit validate SCENARIO
    fidaudit catalog LABEL
    fidaudit --version

Exit codes from ``check``: 0 pass, 1 warn, 2 fail. A schema error, or any
other error, also exits 2 with one line on stderr: exit 1 means "warn", so
no error may end with it. A usage error, such as a missing scenario file,
a ``--report`` path outside an existing directory, a ``--tol`` that is
not a finite non-negative number or a negative ``--seed``, exits 2 with
argparse's usage message before any audit runs. ``check`` writes the
report to ``--report`` first, then to stdout as the same UTF-8 bytes.
Every command writes stdout as UTF-8 bytes, whatever its encoding.
All configuration is flags and the scenario file; no environment
variables are consulted.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import suppress
from pathlib import Path

from . import __version__
from .audit import EXIT_CODES, emit_report, run_audit
from .context import catalog_lookup
from .errors import SchemaError
from .loyalty import INFO_TOL
from .scenario import load_scenario, read_document, validate_scenario


# os.path's tests read any OSError (a name too long, a parent that cannot be searched) as False; Path's re-raise it
def _scenario_file(value: str) -> Path:
    problem = ("does not exist" if not os.path.exists(value) else "is not a file" if not os.path.isfile(value)
               else "is not readable" if not os.access(value, os.R_OK) else "")
    if problem:
        raise argparse.ArgumentTypeError(f"{value!r} {problem}")
    return Path(value)


def _report_path(value: str) -> Path:
    problem = ("is a directory" if os.path.isdir(value)
               else "is not in an existing directory" if not os.path.isdir(os.path.dirname(value) or os.curdir) else "")
    if problem:
        raise argparse.ArgumentTypeError(f"{value!r} {problem}")
    return Path(value)


def _non_negative(convert, wanted: str):
    """The argument type of a finite non-negative ``convert(value)``; NaN,
    an infinity, a negative number or no number at all is a usage error."""

    def parse(value: str):
        with suppress(ValueError):
            if 0 <= convert(value) < math.inf:
                return convert(value)
        raise argparse.ArgumentTypeError(f"must be a {wanted}, got {value!r}")

    return parse


def _write(text: str) -> None:
    """``text`` to stdout as its UTF-8 bytes, whatever the stream's
    encoding; a text-only stream (io.StringIO) gets the text."""
    sys.stdout.flush()
    if hasattr(sys.stdout, "buffer"):
        sys.stdout.buffer.write(text.encode("utf-8"))
    else:
        sys.stdout.write(text)


def _check(args: argparse.Namespace) -> int:
    report = run_audit(load_scenario(args.scenario_file), tol=args.tol, seed=args.seed)
    text = emit_report(report, args.format)
    if args.report is not None:  # first, so a failed write prints nothing
        args.report.write_bytes(text.encode("utf-8"))
    _write(text)
    return EXIT_CODES[report.overall]


def _validate(args: argparse.Namespace) -> int:
    problems = validate_scenario(read_document(args.scenario_file))
    lines = [f"{path or '<root>'}: {message}" for path, message in problems] or [f"{args.scenario_file}: valid"]
    _write("\n".join(lines) + "\n")
    return 2 if problems else 0


def _catalog(args: argparse.Namespace) -> int:
    try:
        entries = catalog_lookup(args.context_label)
    except ValueError as exc:  # an unknown label, with the nearest known one
        print(exc, file=sys.stderr)
        return 2
    lines = [args.context_label + ("  [proposed context, not yet determined by law]" if entries[0].speculative else "")]
    for entry in entries:
        flags = []
        if entry.information_flow:
            flags.append("information-flow")
        if entry.area:
            flags.append(f"area: {entry.area}")
        suffix = f"  ({', '.join(flags)})" if flags else ""
        lines.append(f"  [{entry.kind:^7}] {entry.duty}{suffix}")
        lines.append(f"            key: {entry.key}  binding: {entry.binding}")
    _write("\n".join(lines) + "\n")
    return 0


def _parser() -> argparse.ArgumentParser:
    def command(name: str, run, text: str, positional: str, **kwargs) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=text, description=text, add_help=False, allow_abbrev=False)
        sub.add_argument("--help", action="help", help="Show this message and exit.")
        sub.add_argument(positional.lower(), metavar=positional, **kwargs)
        sub.set_defaults(run=run)
        return sub

    # `--help` but no `-h`, and no abbreviated options: `-h` and `--form` are usage errors (exit 2)
    parser = argparse.ArgumentParser("fidaudit", description="Audit scenarios for fiduciary-duty compliance signals.",
                                     add_help=False, allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"fidaudit, version {__version__}")
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    check = command("check", _check, "Run the six-step audit over SCENARIO_FILE.", "SCENARIO_FILE", type=_scenario_file)
    check.add_argument("--report", type=_report_path, metavar="PATH", help="Also write the rendered report to this path.")
    check.add_argument("--format", choices=("text", "machine"), default="text", help="Report format (default: %(default)s).")
    check.add_argument("--tol", type=_non_negative(float, "finite non-negative number"), default=INFO_TOL,
                       metavar="FLOAT", help="Information-flow zero threshold (default: %(default)s).")
    check.add_argument("--seed", type=_non_negative(int, "non-negative integer"), default=0, metavar="INT",
                       help="Seed for sampled evidence; recorded in the report (default: %(default)s).")
    command("validate", _validate, "List every schema violation in SCENARIO_FILE.", "SCENARIO_FILE", type=_scenario_file)
    command("catalog", _catalog, "Print the subsidiary-duty catalog entries for CONTEXT_LABEL.", "CONTEXT_LABEL")
    return parser


def main(argv: list[str] | None = None) -> int:
    """The exit code of ``argv`` (default ``sys.argv[1:]``); a usage error, ``--help`` or ``--version`` exits."""
    try:
        args = _parser().parse_args(argv)
        return args.run(args)
    except SchemaError as exc:
        where = f"{exc.path}: " if exc.path else ""
        print(f"schema error: {where}{exc}", file=sys.stderr)
    except Exception as exc:  # noqa: BLE001 - a traceback would exit 1, which reads as "warn"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
