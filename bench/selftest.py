"""Self-test of the benchmark: its reference checks must not pass silently.

    python3 bench/selftest.py

Audits every workload at its smallest size, then tampers with references,
reports and renderings and requires each tampering to count as failed.
Also checks the tracer against a brute-force profile count and that it
restores every function it wrapped. Exits non-zero on any failed
expectation.
"""

from __future__ import annotations

import itertools
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
from worker import Loop, audit, scenario  # noqa: E402

from fidaudit import aggregation, loyalty, macid  # noqa: E402

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def run(manifest: list[dict], tracer: spans.Tracer | None = None) -> Loop:
    loop = Loop(manifest)
    loop.run(0.0, tracer)
    loop.run(0.0, tracer)  # a past deadline still runs one whole cycle
    loop.check_references()
    return loop


def render(entry: dict) -> str:
    return audit.emit_report(audit.run_audit(scenario.load_scenario(entry["file"])), "machine")


def main() -> int:
    tmp = Path(".bench_build", "fidaudit-bench", "selftest")
    shutil.rmtree(tmp, ignore_errors=True)
    manifests = {w: gen.generate(w, 0, tmp / w, tiny=True) for w in gen.WORKLOADS}

    for workload, manifest in manifests.items():
        loop = run(manifest)
        expect(loop.failed == 0 and loop.attempted == 2 * len(manifest),
               f"{workload}: {loop.attempted} tiny audits, {loop.failed} failed {loop.problems}")

    # A byte changed in a golden fails every audit of that scenario.
    entry = dict(manifests["corpus"][0])
    golden = Path(entry["check"]["golden"]).read_text("utf-8")
    tampered = tmp / "tampered.report.json"
    tampered.write_text(golden.replace('"pass"', '"fail"', 1), encoding="utf-8")
    entry["check"] = {"kind": "golden", "golden": str(tampered)}
    loop = run([entry])
    expect(loop.failed == loop.attempted == 2, "tampered golden counts every audit as failed")

    # Flipped expectations fail each generated family.
    for entry in manifests["influence"]:
        flipped = json.loads(json.dumps(entry))
        c = flipped["check"]
        if "passes" in c:
            c["passes"] = not c["passes"]
        else:
            swap = {"disclosure_demo": "disclosure_demo_muted", "disclosure_demo_muted": "disclosure_demo"}
            c["golden"] = f"tests/golden/{swap[Path(c['golden']).name.split('.')[0]]}.report.json"
        loop = run([flipped])
        expect(loop.failed == loop.attempted, f"{entry['name']}: flipped reference fails")

    mdp_entry = manifests["mdp"][0]
    rendered = render(mdp_entry)
    expect(not check.problems(mdp_entry, rendered), "mdp: untampered report passes")
    expect(bool(check.problems(mdp_entry, rendered.replace('"samples_verified": true', '"samples_verified": false'))),
           "mdp: samples_verified false fails")

    for entry in manifests["manipulation"]:
        report = json.loads(render(entry))
        (probe,) = [f for s in report["steps"] for f in s["findings"] if f["check"] == "manipulation-probe"]
        if probe["status"] == "warn":
            probe["evidence"]["manipulated_winner"] = probe["evidence"]["sincere_winner"]
            expect(bool(check.problems(entry, json.dumps(report))), f"{entry['name']}: forged witness fails")
        else:
            probe["status"] = "warn"
            expect(bool(check.problems(entry, json.dumps(report))), f"{entry['name']}: forged warn fails")

    # Different bytes on a repeat, and an audit that raises, both count.
    original = audit.emit_report
    calls = itertools.count()
    audit.emit_report = lambda report, fmt: original(report, fmt) + " " * (next(calls) % 2)
    try:
        loop = run(manifests["corpus"][:1])
    finally:
        audit.emit_report = original
    expect(loop.failed == 1, "a repeat with different bytes counts as failed")
    loop = run([{"name": "missing", "family": "x", "file": str(tmp / "missing.json"),
                 "check": {"kind": "mdp"}}])
    expect(loop.failed == loop.attempted == 2, "a raising audit counts as failed")

    # The tracer wraps every binding, counts work, and restores the originals.
    originals = (macid.expected_utility, loyalty.expected_utility, aggregation.find_manipulation)
    tracer = spans.Tracer()
    tracer.install()
    try:
        expect(loyalty.expected_utility is not originals[1], "tracer wraps expected_utility in loyalty too")
    finally:
        tracer.uninstall()
    n = 0
    for workload in gen.WORKLOADS:
        loop = run(manifests[workload], tracer)  # untraced and traced cycles alternate
        n += loop.attempted // 2
        expect(loop.failed == 0, f"{workload}: traced reports still meet their references")
    expect((macid.expected_utility, loyalty.expected_utility, aggregation.find_manipulation) == originals,
           "tracer restores every wrapped function")
    calls = tracer.totals()[1]["audit.run_audit"]
    expect(calls == n, f"only traced cycles record spans: {calls} run_audit spans for {n} traced audits")
    metrics = tracer.metrics(n)
    expect(set(spans.METRICS) <= set(metrics) and metrics["macid.joint_calls"][0] > 0
           and metrics["mdp.vi_sweeps"][0] > 0 and metrics["aggregation.profiles_scanned"][0] > 0,
           "traced run reports every layer metric with work counted")

    # profiles_scanned equals a brute-force count up to the witness.
    witness = aggregation.find_manipulation(aggregation.VotingRule("borda"), 3, 3)
    ballots = list(itertools.permutations(range(3)))
    brute = 1 + list(itertools.product(ballots, repeat=3)).index(witness.profile)
    expect(spans.profiles_scanned(3, 3, witness) == brute,
           f"profiles_scanned {spans.profiles_scanned(3, 3, witness)} == brute force {brute}")
    expect(spans.profiles_scanned(3, 4, None) == 24**3, "a clean scan counts every profile")

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
