"""Timing spans around the public functions of each fidaudit layer.

``Tracer.install()`` replaces every function listed in ``SPANS`` with a
timing wrapper, in every loaded ``fidaudit`` module that binds the same
function object (``expected_utility``, say, is bound in both
``fidaudit.macid`` and ``fidaudit.loyalty``), and ``uninstall()`` puts the
originals back. A tracer can be installed and uninstalled many times; its
spans accumulate. Each call records a span: name, start, end, parent span
and audit id. Spans are kept in compact arrays and written out once, by
``save()``, when the run ends.

A span's self time is its duration minus the durations of its child spans
and minus the time the tracer spent counting work inside it. An audit runs
on one thread with no queue, so no layer waits for another and no waiting
time is recorded.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# Layer (a fidaudit module) -> its public functions that get a span; the
# span name is "<layer>.<function>".
SPANS = {
    "scenario": ("load_scenario", "validate_scenario"),
    "context": ("validate_context", "identify_principals", "best_interest_classes",
                "duty_entry", "catalog_lookup"),
    "audit": ("run_audit", "emit_report"),
    "macid": ("joint_distribution", "marginal", "expected_utility", "best_response",
              "solve_equilibrium", "is_equilibrium", "value_of_information",
              "mutual_information"),
    "loyalty": ("disclosure_check", "materiality_value", "confidentiality_check",
                "alignment_check", "disgorgement_check", "no_conflict_check"),
    "mdp": ("value_iteration", "evaluate_policy"),
    "assessment": ("maxent_irl", "demo_log_likelihood", "infer_discount",
                   "feasible_rewards_irl", "patient_recommendation",
                   "prudent_investor_weights", "fit_preference_reward"),
    "aggregation": ("find_manipulation", "approval_winners", "pareto_front",
                    "lexicographic_select", "impartiality_check"),
    "care": ("inductive_bias_diagnostic", "distribution_shift_score", "prudence_report"),
}

# Per-layer metrics: name -> (unit, source). The source is a list of spans
# whose self times are summed, "calls:<span>", or a counter filled by
# COUNTERS. Times and counts are means per audit. The evaluate_policy span
# has no metric: the audit pipeline never calls it, so it would always read 0.
METRICS = {
    "scenario.load_ms": ("ms", ["scenario.load_scenario"]),
    "scenario.validate_ms": ("ms", ["scenario.validate_scenario"]),
    "context.ms": ("ms", [f"context.{f}" for f in SPANS["context"]]),
    "audit.self_ms": ("ms", ["audit.run_audit"]),
    "audit.emit_ms": ("ms", ["audit.emit_report"]),
    "macid.joint_calls": ("count", "calls:macid.joint_distribution"),
    "macid.joint_cells": ("count", "joint_cells"),
    "macid.joint_ms": ("ms", ["macid.joint_distribution"]),
    "macid.expected_utility_calls": ("count", "calls:macid.expected_utility"),
    "macid.expected_utility_ms": ("ms", ["macid.expected_utility"]),
    "macid.equilibrium_calls": ("count", "calls:macid.solve_equilibrium"),
    "macid.equilibrium_ms": ("ms", ["macid.solve_equilibrium"]),
    "macid.voi_calls": ("count", "calls:macid.value_of_information"),
    "macid.voi_ms": ("ms", ["macid.value_of_information"]),
    "macid.other_ms": ("ms", ["macid.marginal", "macid.best_response",
                              "macid.is_equilibrium", "macid.mutual_information"]),
    "loyalty.disclosure_ms": ("ms", ["loyalty.disclosure_check"]),
    "loyalty.materiality_ms": ("ms", ["loyalty.materiality_value"]),
    "loyalty.confidentiality_ms": ("ms", ["loyalty.confidentiality_check"]),
    "loyalty.order_checks_ms": ("ms", ["loyalty.alignment_check", "loyalty.disgorgement_check",
                                       "loyalty.no_conflict_check"]),
    "mdp.vi_calls": ("count", "calls:mdp.value_iteration"),
    "mdp.vi_sweeps": ("count", "vi_sweeps"),
    "mdp.vi_unconverged": ("count", "vi_unconverged"),
    "mdp.vi_ms": ("ms", ["mdp.value_iteration"]),
    "assessment.maxent_ms": ("ms", ["assessment.maxent_irl", "assessment.demo_log_likelihood"]),
    "assessment.grad_evals": ("count", "calls:assessment.demo_log_likelihood"),
    "assessment.infer_discount_ms": ("ms", ["assessment.infer_discount"]),
    "assessment.feasible_ms": ("ms", ["assessment.feasible_rewards_irl"]),
    "assessment.patient_ms": ("ms", ["assessment.patient_recommendation"]),
    "assessment.other_ms": ("ms", ["assessment.prudent_investor_weights",
                                   "assessment.fit_preference_reward"]),
    "aggregation.manipulation_ms": ("ms", ["aggregation.find_manipulation"]),
    "aggregation.profiles_scanned": ("count", "profiles_scanned"),
    "aggregation.other_ms": ("ms", [f"aggregation.{f}" for f in SPANS["aggregation"][1:]]),
    "care.ms": ("ms", [f"care.{f}" for f in SPANS["care"]]),
}


def _count_joint(counts: Counter, args, kwargs, result) -> None:
    model = args[0] if args else kwargs["model"]
    counts["joint_cells"] += math.prod(len(model.node_map[n].domain) for n in model.outcome_order)
    counts["joint_nonzero"] += sum(1 for p in result.values() if p != 0.0)


def _count_vi(counts: Counter, args, kwargs, result) -> None:
    counts["vi_sweeps"] += result.iterations
    counts["vi_unconverged"] += not result.converged


def profiles_scanned(n_voters: int, n_options: int, witness) -> int:
    """Profiles ``find_manipulation`` visited: the witness profile's
    lexicographic rank + 1, or every profile when it found none."""
    n_ballots = math.factorial(n_options)
    if witness is None:
        return n_ballots**n_voters
    rank = 0
    for ballot in witness.profile:
        rank = rank * n_ballots + _permutation_rank(ballot)
    return rank + 1


def _permutation_rank(ballot) -> int:
    """Rank of a permutation in itertools.permutations order (Lehmer code)."""
    rank = 0
    remaining = sorted(ballot)
    for option in ballot:
        i = remaining.index(option)
        rank += i * math.factorial(len(remaining) - 1)
        remaining.pop(i)
    return rank


def _count_manipulation(counts: Counter, args, kwargs, result) -> None:
    bound = dict(zip(("rule", "n_voters", "n_options"), args), **kwargs)
    counts["profiles_scanned"] += profiles_scanned(bound["n_voters"], bound["n_options"], result)


COUNTERS = {
    "macid.joint_distribution": _count_joint,
    "mdp.value_iteration": _count_vi,
    "aggregation.find_manipulation": _count_manipulation,
}


class Tracer:
    """Records spans for calls into the fidaudit layers while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.excluded = array("d")
        self.parent = array("q")
        self.code = array("i")
        self.audit = array("i")
        self.counts: Counter = Counter()
        self.audit_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def _wrap(self, code: int, fn, count):
        start, end, excluded, parent = self.start, self.end, self.excluded, self.parent
        codes, audits, stack = self.code, self.audit, self._stack

        def timed(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            codes.append(code)
            audits.append(self.audit_id)
            end.append(0.0)
            excluded.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if count is not None:
                t = perf_counter()
                count(self.counts, args, kwargs, result)
                if stack:
                    excluded[stack[-1]] += perf_counter() - t
            return result

        return timed

    def _bind(self) -> list[tuple[object, str, object, object]]:
        """(module, name, original, wrapper) for every binding to wrap."""
        modules = [m for n, m in sys.modules.items() if n.startswith("fidaudit") and m is not None]
        patches = []
        for layer, functions in SPANS.items():
            home = sys.modules[f"fidaudit.{layer}"]
            for function in functions:
                original = getattr(home, function)
                name = f"{layer}.{function}"
                self.names.append(name)
                wrapper = self._wrap(len(self.names) - 1, original, COUNTERS.get(name))
                patches.extend((module, function, original, wrapper) for module in modules
                               if module.__dict__.get(function) is original)
        return patches

    def install(self) -> None:
        if not self._patches:
            self._patches = self._bind()
        for module, function, _, wrapper in self._patches:
            setattr(module, function, wrapper)

    def uninstall(self) -> None:
        for module, function, original, _ in reversed(self._patches):
            setattr(module, function, original)

    def totals(self, slowdowns: list[float] | None = None) -> tuple[dict[str, float], dict[str, int]]:
        """Self time in seconds and number of calls, per span name. With
        ``slowdowns``, indexed by audit id, each span's self time is divided
        by its audit's slowdown, which gives it at reference speed (see
        speed.py)."""
        start, end = np.frombuffer(self.start), np.frombuffer(self.end)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        duration = end - start
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=duration[has_parent],
                               minlength=len(duration))
        own = duration - children - np.frombuffer(self.excluded)
        if slowdowns is not None:
            own = own / np.asarray(slowdowns)[np.frombuffer(self.audit, dtype=np.int32)]
        codes = np.frombuffer(self.code, dtype=np.int32)
        seconds = np.bincount(codes, weights=own, minlength=len(self.names))
        calls = np.bincount(codes, minlength=len(self.names))
        return dict(zip(self.names, seconds.tolist())), dict(zip(self.names, calls.tolist()))

    def metrics(self, n_audits: int, slowdowns: list[float] | None = None) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as means per audit, keyed by metric name; see
        ``totals`` for ``slowdowns``."""
        seconds, calls = self.totals(slowdowns)
        out = {}
        for metric, (unit, source) in METRICS.items():
            if isinstance(source, list):
                value = sum(seconds[name] for name in source) * 1000.0 / n_audits
            elif source.startswith("calls:"):
                value = calls[source.removeprefix("calls:")] / n_audits
            else:
                value = self.counts[source] / n_audits
            out[metric] = (value, unit)
        cells = self.counts["joint_cells"]
        out["macid.joint_nonzero_share"] = (
            self.counts["joint_nonzero"] / cells if cells else 0.0, "ratio")
        return out

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.code, dtype=np.int32),
            audit=np.frombuffer(self.audit, dtype=np.int32),
        )
