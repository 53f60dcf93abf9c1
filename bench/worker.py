"""Timed worker: audits one workload's scenarios in a closed loop.

    python3 bench/worker.py MANIFEST SECONDS TRACE OUT

Run from the repository root in a fresh process, so that its peak
resident memory is the workload's own. Each audit makes the three calls
``fidaudit check`` makes: ``load_scenario``, ``run_audit`` and
``emit_report(..., "machine")``. One audit is in flight at a time, and the
loop always finishes the cycle through the manifest it is in, so every run
weighs each scenario equally. The loop runs for SECONDS and at least
MIN_AUDITS audits. Each audit's time is also reported at reference speed:
its wall time divided by the slowdown that the reference work of
``speed.py``, run between audits, measured around it. With TRACE 1, untraced and traced cycles alternate; the
traced cycles yield the per-layer metrics, and each traced cycle against
the untraced one before it yields the tracing overhead. Results go to OUT
as JSON.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

sys.path.insert(0, "src")
sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import reference_seconds, slowdown  # noqa: E402

from fidaudit import audit, scenario  # noqa: E402

MAX_PROBLEMS = 20
# Enough audits for ten of them to lie beyond the 90th percentile.
MIN_AUDITS = 100


class Cycle(NamedTuple):
    """One pass over the manifest: each audit's wall time in seconds and
    the machine's slowdown around it (see speed.py)."""

    traced: bool
    seconds: list[float]
    slowdowns: list[float]


class Loop:
    """Closed-loop audit runner; tracks failures across all its phases."""

    def __init__(self, manifest: list[dict]) -> None:
        self.manifest = manifest
        self.first: dict[str, str] = {}
        self.audits: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _fail(self, name: str, why: str, n: int = 1) -> None:
        self.failed += n
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(f"{name}: {why}")

    def audit_once(self, entry: dict) -> float:
        t0 = perf_counter()
        try:
            rendered = audit.emit_report(audit.run_audit(scenario.load_scenario(entry["file"])), "machine")
        except Exception as exc:  # noqa: BLE001 - a raising audit is counted, not fatal
            rendered = None
            error = f"raised {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
        name = entry["name"]
        self.attempted += 1
        self.audits[name] = self.audits.get(name, 0) + 1
        if rendered is None:
            self._fail(name, error)
        elif self.first.setdefault(name, rendered) != rendered:
            self._fail(name, "report bytes differ on a repeat")
        return elapsed

    def run(self, deadline: float, tracer: Tracer | None = None, min_audits: int = 0) -> list[Cycle]:
        """Whole cycles until ``perf_counter()`` passes ``deadline`` and at
        least ``min_audits`` audits ran. With a tracer, cycles alternate
        untraced and traced, in pairs. The reference work runs between
        audits, so each audit gets the slowdown measured around it."""
        cycles: list[Cycle] = []
        audits = 0
        before = reference_seconds()
        while True:
            cycle = Cycle(tracer is not None and len(cycles) % 2 == 1, [], [])
            if cycle.traced:
                tracer.install()
            try:
                for entry in self.manifest:
                    if cycle.traced:
                        tracer.audit_id = audits
                    cycle.seconds.append(self.audit_once(entry))
                    after = reference_seconds(cycle.seconds[-1])
                    cycle.slowdowns.append(slowdown(before, after))
                    before = after
                    audits += 1
            finally:
                if cycle.traced:
                    tracer.uninstall()
            cycles.append(cycle)
            paired = tracer is None or cycle.traced
            if paired and audits >= min_audits and perf_counter() >= deadline:
                return cycles

    def check_references(self) -> None:
        """Every report's first rendering against its reference; repeats
        were already compared byte for byte with the first."""
        for entry in self.manifest:
            name = entry["name"]
            if name not in self.first:
                continue
            try:
                found = check.problems(entry, self.first[name])
            except Exception as exc:  # noqa: BLE001 - a malformed report fails its check
                found = [f"check raised {type(exc).__name__}: {exc}"]
            if found:
                self._fail(name, "; ".join(found), n=self.audits[name])


def _timings(cycles: list[Cycle]) -> dict:
    """Throughput and percentiles over every audit, at reference speed and
    in wall time."""
    seconds = [t for c in cycles for t in c.seconds]
    at_reference = [t / k for c in cycles for t, k in zip(c.seconds, c.slowdowns)]
    n = len(seconds)
    return {
        "audits": n,
        "ref_audits_per_s": n / sum(at_reference),
        "ref_audit_p50_ms": statistics.median(at_reference) * 1000.0,
        "ref_audit_p90_ms": _p90(at_reference) * 1000.0,
        "audits_per_s": n / sum(seconds),
        "audit_p50_ms": statistics.median(seconds) * 1000.0,
        "audit_p90_ms": _p90(seconds) * 1000.0,
        "slowdown": sum(seconds) / sum(at_reference),
    }


def _overhead_pct(cycles: list[Cycle]) -> float:
    """Median, over (untraced, traced) pairs of cycles, of how much longer
    the traced cycle took at reference speed, in percent."""
    def at_reference(c: Cycle) -> float:
        return sum(t / k for t, k in zip(c.seconds, c.slowdowns))

    ratios = [at_reference(traced) / at_reference(plain) for plain, traced in zip(cycles[::2], cycles[1::2])]
    return 100.0 * (statistics.median(ratios) - 1.0)


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def main(manifest_path: str, seconds: str, trace: str, out: str) -> None:
    manifest = json.loads(Path(manifest_path).read_text("utf-8"))
    loop = Loop(manifest)
    # warm up caches and lazy imports on the smallest scenario of each family
    seen = set()
    for entry in manifest:
        if entry["family"] not in seen:
            seen.add(entry["family"])
            loop.audit_once(entry)
    result = {"input_kb": statistics.mean(Path(e["file"]).stat().st_size for e in manifest) / 1024}
    deadline = perf_counter() + float(seconds)
    if trace == "1":
        tracer = Tracer()
        cycles = loop.run(deadline, tracer)
        traced = sum(len(c.seconds) for c in cycles if c.traced)
        slowdowns = [k for c in cycles for k in c.slowdowns]  # indexed by audit id
        result.update(audits=traced, overhead_pct=_overhead_pct(cycles),
                      layers=tracer.metrics(traced, slowdowns))
        tracer.save(Path(out).with_name("spans.npz"))
    else:
        result.update(_timings(loop.run(deadline, min_audits=MIN_AUDITS)))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    loop.check_references()
    result.update(attempted=loop.attempted, failed=loop.failed, problems=loop.problems)
    Path(out).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(*sys.argv[1:])
