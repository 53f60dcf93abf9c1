"""Findings: the one result type of every audit check.

A finding names its check, gives a status and a one-line detail, and
carries its witness as evidence. A step's status, and the report's, is the
worst status among its parts.
"""

from __future__ import annotations

from typing import Iterable

PASS, WARN, FAIL, SKIPPED = "pass", "warn", "fail", "skipped"
_SEVERITY = {PASS: 0, WARN: 1, SKIPPED: 1, FAIL: 2}


class Finding:
    """Equal to a finding with equal fields; ``evidence`` defaults to a new dict."""

    def __init__(self, check: str, status: str, detail: str, evidence: dict | None = None) -> None:
        self.check, self.status, self.detail = check, status, detail
        self.evidence = {} if evidence is None else evidence

    def __eq__(self, other: object) -> bool:
        return vars(self) == vars(other) if type(other) is Finding else NotImplemented

    def __repr__(self) -> str:
        return f"Finding({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"


def worst(statuses: Iterable[str]) -> str:
    """The most severe status, the first of equally severe ones; PASS for none."""
    return max(statuses, key=_SEVERITY.__getitem__, default=PASS)
