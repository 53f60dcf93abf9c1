"""fidaudit benchmark: seeded audit workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S [--record PATH]

Run from the repository root. NAME is one of corpus, influence, mdp and
manipulation (see README.md for why each exists). The command generates
the workload's scenario files from the seed, measures set-up time over
fresh interpreters, then audits the files in a closed loop in a fresh
worker process for about S seconds, and checks every report against its
reference. With --trace 0 it reports the end-to-end metrics, with audit
and set-up times at reference speed (see speed.py) and the wall-clock
figures printed beside them; with --trace 1 it reports per-layer self time
and work counts from a traced run plus the tracing overhead. The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only when
every audit met its reference.

``--workload all`` runs every workload untraced and traced, prints every
metric, and with --record writes the results to PATH as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from speed import reference_seconds, slowdown  # noqa: E402

OUT_ROOT = Path(".bench_build", "fidaudit-bench")
SETUP_LAUNCHES = 9
# What a `fidaudit check` call pays before it reads its scenario.
SETUP_PROBE = (
    "import sys; sys.path.insert(0, 'src'); import fidaudit.cli; "
    "from fidaudit.context import catalog_labels; catalog_labels(); print('ready', flush=True)"
)
REQUIRED = ("src/fidaudit/audit.py", "scenarios", "tests/golden")
DEADLINE_S = 170.0


def measure_setup() -> dict:
    """Seconds from launching a fresh interpreter until fidaudit.cli is
    imported and the duty catalog is loaded: the median over launches, in
    wall time and at reference speed."""
    wall, at_reference = [], []
    before = reference_seconds()
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_PROBE], stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed to import fidaudit")
        after = reference_seconds(elapsed)
        wall.append(elapsed)
        at_reference.append(elapsed / slowdown(before, after))
        before = after
    return {"launches": len(wall), "wall_s": statistics.median(wall), "ref_s": statistics.median(at_reference)}


def run_worker(manifest: list[dict], run_dir: Path, seconds: float, trace: int, deadline: float) -> dict:
    """Audit in a fresh worker process."""
    manifest_path = run_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    out = run_dir / f"result-trace{trace}.json"
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(manifest_path), str(seconds), str(trace), str(out)],
        check=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    return json.loads(out.read_text("utf-8"))


def measure(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    """One run: generate, (set up,) audit in a fresh worker; metrics by name."""
    run_dir = OUT_ROOT / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    manifest = gen.generate(workload, seed, run_dir / "scenarios")
    if trace == 0:
        setup = measure_setup()
    result = run_worker(manifest, run_dir, seconds, trace, deadline)
    notes = {"scenarios": len(manifest), "audits": result["audits"]}
    if trace == 0:
        metrics = {
            "ref_audits_per_s": (result["ref_audits_per_s"], "1/s"),
            "ref_audit_p50_ms": (result["ref_audit_p50_ms"], "ms"),
            "ref_audit_p90_ms": (result["ref_audit_p90_ms"], "ms"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
            "setup_s": (setup["ref_s"], "s"),
        }
        notes["wall"] = {k: result[k] for k in ("audits_per_s", "audit_p50_ms", "audit_p90_ms", "slowdown")}
        notes["setup"] = setup
    else:
        metrics = {name: tuple(v) for name, v in result["layers"].items()}
        metrics["scenario.input_kb"] = (result["input_kb"], "KiB")
        metrics["trace.overhead_pct"] = (result["overhead_pct"], "%")
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "problems": result["problems"],
        "metrics": metrics,
        "notes": notes,
    }


def report(run: dict) -> None:
    n = run["notes"]
    print(f"{run['workload']} (seed {run['seed']}, trace {run['trace']}): "
          f"{n['scenarios']} scenarios, {run['attempted']} audits attempted")
    for name, (value, unit) in run["metrics"].items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(f"  {'failed_share':32s} {run['failed'] / run['attempted']:14.6g} "
          f"({run['failed']} of {run['attempted']})")
    if run["trace"] == 0:
        wall, setup = n["wall"], n["setup"]
        print(f"  samples: {n['audits']} timed audits ({n['audits'] // n['scenarios']} per scenario); "
              f"setup_s is the median of {setup['launches']} launches")
        print(f"  in wall time, at a slowdown of {wall['slowdown']:.3f}: "
              f"audits_per_s {wall['audits_per_s']:.6g} 1/s, audit_p50_ms {wall['audit_p50_ms']:.6g} ms, "
              f"audit_p90_ms {wall['audit_p90_ms']:.6g} ms, setup {setup['wall_s']:.6g} s")
    else:
        print(f"  samples: {n['audits']} traced audits, in cycles alternating with untraced ones; "
              "self time and counts are means per traced audit; no layer waits on another")
    for problem in run["problems"]:
        print(f"  FAILED {problem}")


def machine() -> dict:
    """Where and on what a recorded run was measured."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        revision = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
    except OSError:
        revision = ""
    sys.path.insert(0, "src")
    import numpy

    from fidaudit import __version__

    return {"platform": platform.platform(), "cpu": cpu, "cpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "fidaudit": __version__, "revision": revision or "unknown"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="with --workload all: write results here")
    args = parser.parse_args(argv)
    missing = [p for p in REQUIRED if not Path(p).exists()]
    if missing:
        print(f"run from the fidaudit repository root; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    # Pin this process and the ones it starts to one CPU, so numpy's BLAS
    # runs single-threaded and the audits do not migrate between CPUs.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if args.workload != "all":
        run = measure(args.workload, args.seed, args.seconds, args.trace, time.monotonic() + DEADLINE_S)
        report(run)
        print(json.dumps({
            "correct": run["correct"],
            "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run["metrics"].items()},
        }))
        return 0 if run["correct"] else 1

    runs = []
    for workload in gen.WORKLOADS:
        for trace in (0, 1):
            run = measure(workload, args.seed, args.seconds, trace, time.monotonic() + DEADLINE_S)
            report(run)
            runs.append(run)
    if args.record:
        args.record.write_text(json.dumps(
            {"machine": machine(), "seed": args.seed, "seconds": args.seconds, "runs": runs},
            indent=1) + "\n", encoding="utf-8")
    correct = all(r["correct"] for r in runs)
    print(json.dumps({"correct": correct, "attempted": sum(r["attempted"] for r in runs),
                      "failed": sum(r["failed"] for r in runs)}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
