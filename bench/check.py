"""Reference checks for rendered machine reports.

``problems(entry, rendered)`` returns a list of strings, empty when the
report meets the manifest entry's reference. Every check also rejects a
``step-error`` finding, which marks a step that raised.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

EVIDENCE_TOL = 1e-12


def _findings(report: dict, step: str | None = None) -> list[dict]:
    return [
        f for s in report["steps"] if step is None or s["step"] == step for f in s["findings"]
    ]


def _close(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=0.0, abs_tol=EVIDENCE_TOL)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    return a == b


def _only(report: dict, prefix: str) -> dict:
    found = [f for f in _findings(report, "loyalty") if f["check"].startswith(prefix)]
    if len(found) != 1:
        raise ValueError(f"expected one {prefix!r} loyalty finding, got {len(found)}")
    return found[0]


def _same_loyalty(report: dict, golden: dict) -> list[str]:
    """Loyalty statuses and evidence equal the golden's within EVIDENCE_TOL."""
    (ours,) = [s for s in report["steps"] if s["step"] == "loyalty"]
    (theirs,) = [s for s in golden["steps"] if s["step"] == "loyalty"]
    out = []
    if ours["status"] != theirs["status"]:
        out.append(f"loyalty status {ours['status']} != golden {theirs['status']}")
    for f, g in itertools.zip_longest(ours["findings"], theirs["findings"]):
        if f is None or g is None or f["check"] != g["check"] or f["status"] != g["status"]:
            out.append(f"loyalty finding differs: {f and f['check']} vs golden {g and g['check']}")
        elif not _close(f["evidence"], g["evidence"]):
            out.append(f"{f['check']}: evidence {f['evidence']} != golden {g['evidence']}")
    return out


def _disclosure(report: dict, passes: bool) -> list[str]:
    finding = _only(report, "disclosure:")
    want = "pass" if passes else "fail"
    out = []
    if finding["status"] != want:
        out.append(f"disclosure status {finding['status']}, expected {want}")
    if finding["evidence"]["material"] is not True:
        out.append("material node reported immaterial")
    return out


def _confidentiality(report: dict, passes: bool) -> list[str]:
    finding = _only(report, "confidentiality:")
    bits = finding["evidence"]["mutual_information_bits"]
    if passes:
        ok = finding["status"] == "pass" and abs(bits) <= EVIDENCE_TOL
    else:
        ok = finding["status"] == "fail" and bits > EVIDENCE_TOL
    return [] if ok else [f"confidentiality {finding['status']} with {bits} bits, expected pass={passes}"]


def _mdp(report: dict) -> list[str]:
    out = [
        f"{f['check']} is {f['status']}"
        for f in _findings(report)
        if f["status"] != "pass"
    ]
    by_check = {f["check"]: f["evidence"] for f in _findings(report, "assessment")}
    expected = {"prudent-investor", "discount-inference", "patient-advice",
                "reward-feasibility", "behavior-irl"}
    if set(by_check) != expected:
        return out + [f"assessment findings {sorted(by_check)}"]
    feasible = by_check["reward-feasibility"]
    if feasible["zero_reward_feasible"] is not True or feasible["samples_verified"] is not True:
        out.append(f"reward-feasibility evidence {feasible}")
    total = sum(by_check["discount-inference"]["posterior"].values())
    if abs(total - 1.0) > 1e-9:
        out.append(f"posterior sums to {total}")
    return out


def _winner(rule: str, profile, n_options: int) -> int:
    """Borda or plurality winner; score ties go to the lowest option index."""
    scores = [0] * n_options
    for ballot in profile:
        if rule == "borda":
            for points, option in zip(range(n_options - 1, -1, -1), ballot):
                scores[option] += points
        else:
            scores[ballot[0]] += 1
    return max(range(n_options), key=lambda o: (scores[o], -o))


def _manipulation(report: dict, entry_check: dict) -> list[str]:
    (finding,) = [f for f in _findings(report, "aggregation") if f["check"] == "manipulation-probe"]
    rule, options = entry_check["rule"], entry_check["options"]
    if rule == "dictator" or options == 2:
        return [] if finding["status"] == "pass" else [f"{rule} probe is {finding['status']}"]
    if finding["status"] != "warn":
        return [f"{rule} probe is {finding['status']}, expected a witness"]
    ev = finding["evidence"]
    profile = [tuple(b) for b in ev["profile"]]
    voter, insincere = ev["voter"], tuple(ev["insincere_ballot"])
    trial = profile[:voter] + [insincere] + profile[voter + 1:]
    sincere_winner = _winner(rule, profile, options)
    new_winner = _winner(rule, trial, options)
    rank = profile[voter].index
    out = []
    if (sincere_winner, new_winner) != (ev["sincere_winner"], ev["manipulated_winner"]):
        out.append(f"witness winners {ev['sincere_winner']}->{ev['manipulated_winner']} "
                   f"rescored as {sincere_winner}->{new_winner}")
    if not rank(new_winner) < rank(sincere_winner):
        out.append("witness does not improve the outcome for the manipulating voter")
    return out


def problems(entry: dict, rendered: str) -> list[str]:
    check = entry["check"]
    if check["kind"] == "golden":
        golden = Path(check["golden"]).read_text("utf-8")
        return [] if rendered == golden else ["report differs from the golden byte for byte"]
    report = json.loads(rendered)
    errors = [f["detail"] for f in _findings(report) if f["check"] == "step-error"]
    if errors:
        return errors
    kind = check["kind"]
    if kind == "same_loyalty":
        return _same_loyalty(report, json.loads(Path(check["golden"]).read_text("utf-8")))
    if kind == "disclosure":
        return _disclosure(report, check["passes"])
    if kind == "confidentiality":
        return _confidentiality(report, check["passes"])
    if kind == "mdp":
        return _mdp(report)
    if kind == "manipulation":
        return _manipulation(report, check)
    raise ValueError(f"unknown check {kind!r}")
