"""Findings: the one result type of every audit check.

A finding names its check, gives a status and a one-line detail, and
carries its witness as evidence. A step's status, and the report's, is the
worst status among its parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

PASS, WARN, FAIL, SKIPPED = "pass", "warn", "fail", "skipped"
_SEVERITY = {PASS: 0, WARN: 1, SKIPPED: 1, FAIL: 2}


@dataclass
class Finding:
    check: str
    status: str
    detail: str
    evidence: dict = field(default_factory=dict)


def worst(statuses: Iterable[str]) -> str:
    """The most severe status, the first of equally severe ones; PASS for none."""
    return max(statuses, key=_SEVERITY.__getitem__, default=PASS)
