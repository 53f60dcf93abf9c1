"""The machine's current speed, from a fixed piece of reference work.

The benchmark runs on shared machines whose neighbours slow this process
by 10-80 % in phases that last from seconds to many minutes, which moves
wall-clock figures by more than the benchmark's bounds between runs of
the same code. ``reference_seconds()`` times a fixed piece of work that
never touches fidaudit, of the kinds an audit does: a pure-Python loop
over a dict, enumeration of permutations into tuples, and small numpy
matrix-vector products. Its time,
taken just before and just after an audit, tracks the slowdown the
machine imposed during that audit; ``slowdown()`` expresses it as a
multiple of ``REFERENCE_S``.

An audit's wall time divided by its slowdown is its time at reference
speed. ``REFERENCE_S`` is a fixed constant, about the reference work's
time on the machine in its quiet phases; it only sets the scale, so a
comparison between two commits does not depend on it.
"""

from __future__ import annotations

import itertools
import math
from time import perf_counter

import numpy as np

REFERENCE_S = 0.0009
# Share of an audit's time spent on the reference work timed after it.
REFERENCE_SHARE = 0.02

_MATRIX = np.random.default_rng(0).random((6, 6))
_VECTOR = np.ones(6)


def _reference_work() -> None:
    total, table = 0, {}
    for i in range(2000):
        table[i % 97] = total
        total += i * i % 7
    best = None
    for perm in itertools.permutations(range(6)):
        head = tuple(sorted(perm[:3]))
        if best is None or head < best:
            best = head
    x = _VECTOR
    for _ in range(100):
        x = _MATRIX @ x
        x = x / x.sum()


def reference_seconds(after_seconds: float = 0.0) -> float:
    """Mean wall time of the reference work, repeated so that it takes
    about REFERENCE_SHARE of an interval of ``after_seconds`` (at least
    once): a long audit gets a steadier estimate of its slowdown."""
    repeats = max(1, math.ceil(after_seconds * REFERENCE_SHARE / REFERENCE_S))
    t0 = perf_counter()
    for _ in range(repeats):
        _reference_work()
    return (perf_counter() - t0) / repeats


def slowdown(before: float, after: float) -> float:
    """Slowdown over an interval, from the reference times around it."""
    return (before + after) / 2.0 / REFERENCE_S
