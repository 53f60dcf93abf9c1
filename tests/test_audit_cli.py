import argparse
import importlib.util
import json
import math
import os
import random
import re
import subprocess
import sys
from collections import OrderedDict
from enum import Enum, IntEnum
from pathlib import Path

import numpy as np
import pytest

from fidaudit import audit
from fidaudit import mdp as mdp_module
from fidaudit.assessment import (
    FeasibleRewardSet,
    fit_preference_reward,
    infer_discount,
    maxent_irl,
    one_hot_states,
)
from fidaudit.audit import emit_report, one_line, run_audit
from fidaudit.care import PRIOR_DOMINANCE_RATIONALE
from fidaudit.cli import _parser
from fidaudit.context import duty_entry
from fidaudit.errors import SchemaError
from fidaudit.findings import Finding
from fidaudit.scenario import load_scenario, parse_scenario, validate_scenario
from helpers import delayed_reward_chain, run_cli

SCENARIOS = Path(__file__).parent.parent / "scenarios"
SRC = Path(__file__).parent.parent / "src"
GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"


def raw_scenario(name):
    return json.loads((SCENARIOS / name).read_text())


# --- schema validation -----------------------------------------------------


def test_all_bundled_scenarios_validate():
    for path in sorted(SCENARIOS.glob("*.json")):
        assert validate_scenario(json.loads(path.read_text())) == []


def test_missing_schema_version():
    raw = raw_scenario("disclosure_demo.json")
    del raw["schema_version"]
    problems = validate_scenario(raw)
    assert any(path == "schema_version" for path, _ in problems)
    with pytest.raises(SchemaError):
        parse_scenario(raw)


def test_unknown_section_flagged():
    raw = raw_scenario("disclosure_demo.json")
    raw["extras"] = {}
    assert any(path == "extras" for path, _ in validate_scenario(raw))


def test_norm_binding_must_reference_world_nodes():
    raw = raw_scenario("disclosure_demo.json")
    raw["context"]["norms"][0]["binding"]["material_node"] = "ghost"
    problems = validate_scenario(raw)
    assert any("ghost" in message for _, message in problems)


def test_cpd_row_count_checked():
    raw = raw_scenario("disclosure_demo.json")
    raw["world"]["macid"]["cpds"]["C"] = [[0.5, 0.5], [0.5, 0.5]]
    with pytest.raises(SchemaError) as exc:
        parse_scenario(raw)
    assert "cpds.C" in exc.value.path


def test_assessment_requiring_mdp_without_world():
    raw = raw_scenario("disclosure_demo.json")
    raw["assessment"]["methods"].append(
        {"kind": "discount_inference", "beta_grid": [0.5], "behavior": {}}
    )
    problems = validate_scenario(raw)
    assert any("requires world.mdp" in message for _, message in problems)


# --- pipeline semantics -------------------------------------------------------


def test_steps_in_fixed_order_and_pass():
    report = run_audit(load_scenario(SCENARIOS / "disclosure_demo.json"))
    assert [s.step for s in report.steps] == [
        "context",
        "identification",
        "assessment",
        "aggregation",
        "loyalty",
        "care",
    ]
    assert all(s.status == "pass" for s in report.steps)
    assert report.overall == "pass"


def test_muted_report_fails_loyalty_with_witness():
    report = run_audit(load_scenario(SCENARIOS / "disclosure_demo_muted.json"))
    assert report.overall == "fail"
    loyalty = next(s for s in report.steps if s.step == "loyalty")
    assert loyalty.status == "fail"
    failing = [f for f in loyalty.findings if f.status == "fail"]
    assert failing
    for finding in failing:
        assert finding.evidence  # every fail carries a concrete witness


def test_omitted_care_section_skipped_caps_overall_at_warn():
    report = run_audit(load_scenario(SCENARIOS / "care_skipped.json"))
    care = next(s for s in report.steps if s.step == "care")
    assert care.status == "skipped"
    assert report.overall == "warn"


def test_loyalty_skipped_when_aggregation_output_missing():
    raw = raw_scenario("disclosure_demo.json")
    del raw["aggregation"]
    report = run_audit(parse_scenario(raw))
    loyalty = next(s for s in report.steps if s.step == "loyalty")
    assert loyalty.status == "skipped"
    assert "aggregation" in loyalty.findings[0].detail


def test_norm_tension_yields_warn_not_verdict():
    raw = raw_scenario("disclosure_demo.json")
    raw["context"]["norms"].append(
        {
            "sender": "adviser",
            "receiver": "client",
            "subject": "client",
            "attribute": "market-state-secrecy",
            "transmission_principle": "confidentiality",
            "binding": {"report_node": "R_a", "secret_node": "C"},
        }
    )
    report = run_audit(parse_scenario(raw))
    loyalty = next(s for s in report.steps if s.step == "loyalty")
    tension = [f for f in loyalty.findings if f.check == "norm-tension"]
    assert tension and tension[0].status == "warn"
    # neither duty gets a verdict on the conflicted pair
    assert not any(f.check.startswith("disclosure:market-state") for f in loyalty.findings)
    assert not any(f.check.startswith("confidentiality:") for f in loyalty.findings)


def test_bad_method_input_fails_step_but_pipeline_continues():
    raw = raw_scenario("disclosure_demo.json")
    # asymmetric covariance passes shape checks but is rejected at run time
    raw["assessment"]["methods"][0]["sigma"] = [[0.04, 0.02], [0.0, 0.04]]
    report = run_audit(parse_scenario(raw))
    assessment = next(s for s in report.steps if s.step == "assessment")
    assert assessment.status == "fail"
    assert assessment.findings[0].evidence
    # later steps still executed
    care = next(s for s in report.steps if s.step == "care")
    assert care.status == "pass"
    assert report.overall == "fail"


def test_step_that_raises_is_one_step_error_and_the_audit_continues(monkeypatch):
    def broken(ballots, options):
        raise RuntimeError("tally service down")

    monkeypatch.setattr(audit, "approval_winners", broken)
    report = run_audit(load_scenario(SCENARIOS / "engagement_prior_warn.json"))
    aggregation = next(s for s in report.steps if s.step == "aggregation")
    assert aggregation.status == "fail"
    [finding] = aggregation.findings
    assert finding.check == "step-error"
    assert finding.detail == "step raised RuntimeError: tally service down"
    assert finding.evidence == {"error_type": "RuntimeError", "error": "tally service down"}
    # later steps still run: loyalty has no aggregate to read, care runs its check
    loyalty, care = report.steps[4:]
    assert (loyalty.step, loyalty.status) == ("loyalty", "skipped")
    assert care.step == "care" and [f.check for f in care.findings] == ["engagement-proxy-bias"]
    assert report.overall == "fail"


def test_rejected_care_check_value_fails_that_check_only():
    raw = raw_scenario("disclosure_demo.json")
    raw["care"]["checks"][0]["prior"] = 1.5
    care = next(s for s in run_audit(parse_scenario(raw)).steps if s.step == "care")
    assert care.status == "fail"
    checks = {f.check: f for f in care.findings}
    assert "step-error" not in checks
    assert checks["prior-informativeness"].status == "fail"
    assert checks["prior-informativeness"].evidence["error"]
    assert checks["train-deploy-shift"].status == "pass"


def market_state_finding(raw):
    steps = run_audit(parse_scenario(raw)).steps
    [finding] = [f for f in next(s for s in steps if s.step == "loyalty").findings if f.check == "disclosure:market-state"]
    return finding


def matching_pennies_scenario():
    """``disclosure_demo.json`` with a rival who plays matching pennies
    against the client, so no pure equilibrium exists."""
    raw = raw_scenario("disclosure_demo.json")
    macid = raw["world"]["macid"]
    macid["agents"].append("rival")
    macid["nodes"] += [
        {"id": "D_r", "kind": "decision", "owner": "rival", "domain": ["lo", "hi"]},
        {"id": "U_r", "kind": "utility", "owner": "rival"},
    ]
    macid["edges"].update(D_r=[], U_b=["B_b", "D_r"], U_r=["B_b", "D_r"])
    macid["utilities"].update(U_b=[1.0, 0.0, 0.0, 1.0], U_r=[0.0, 1.0, 1.0, 0.0])
    macid["profile"]["D_r"] = [[1.0, 0.0]]
    return raw


def test_cycling_equilibrium_fails_the_norm_with_its_cycle_period():
    finding = market_state_finding(matching_pennies_scenario())
    assert finding.status == "fail"
    assert finding.detail == "best-response iteration cycles with period 2"
    assert finding.evidence["cycle_period"] == 2
    assert finding.evidence["error"] == finding.detail


def test_an_equilibrium_search_stopped_by_its_round_cap_reports_no_cycle_period(monkeypatch):
    # one round ends the search before any profile comes back
    monkeypatch.setattr("fidaudit.macid.MAX_ROUNDS", 1)
    finding = market_state_finding(matching_pennies_scenario())
    assert finding.status == "fail"
    assert finding.detail == "no equilibrium after 1 rounds"
    assert finding.evidence["error"] == finding.detail
    assert "cycle_period" not in finding.evidence


def test_a_silence_baseline_stopped_by_the_round_cap_fails_the_norm(monkeypatch):
    # C is "lo" with 0.7, so against a report muted to "hi" the client's
    # audited copying rule is not a best response and the baseline needs a
    # second round; the equilibrium searches start at a fixed point
    raw = raw_scenario("disclosure_demo.json")
    raw["world"]["macid"]["cpds"]["C"] = [[0.7, 0.3]]
    assert market_state_finding(raw).status == "pass"
    monkeypatch.setattr("fidaudit.macid.MAX_ROUNDS", 1)
    finding = market_state_finding(raw)
    assert finding.status == "fail"
    assert finding.detail == "no equilibrium after 1 rounds"
    assert "cycle_period" not in finding.evidence


@pytest.mark.parametrize("probe", [{"voters": 0}, {"rule": "dictator", "dictator_voter": 3}])
def test_rejected_manipulation_probe_is_a_probe_failure(probe):
    raw = raw_scenario("engagement_prior_warn.json")
    raw["aggregation"]["manipulation_probe"].update(probe)
    aggregation = next(s for s in run_audit(parse_scenario(raw)).steps if s.step == "aggregation")
    checks = {f.check: f for f in aggregation.findings}
    assert "step-error" not in checks
    assert checks["approval"].status == "pass"
    assert checks["manipulation-probe"].status == "fail"
    assert checks["manipulation-probe"].evidence["error"]


def all_classes_obedience(raw):
    for principal in raw["principals"]:
        principal["relationship"] = "obedience"


def negative_weight(raw):
    raw["aggregation"]["weights"]["clients"] = -1.0


def disclosure_by_a_chance_node(raw):
    raw["context"]["norms"][0]["binding"]["report_node"] = "C"


def unknown_care_standard(raw):
    raw["care"]["standard"] = "astrology-grade"


@pytest.mark.parametrize(
    "mutate, step, check",
    [
        (all_classes_obedience, "identification", "principal-classes"),
        (negative_weight, "aggregation", "impartiality"),
        (disclosure_by_a_chance_node, "loyalty", "disclosure:market-state"),
        (unknown_care_standard, "care", "standard"),
    ],
)
def test_rejected_value_is_a_failure_of_that_check(mutate, step, check):
    raw = raw_scenario("disclosure_demo.json")
    mutate(raw)
    record = next(s for s in run_audit(parse_scenario(raw)).steps if s.step == step)
    checks = {f.check: f for f in record.findings}
    assert "step-error" not in checks
    assert checks[check].status == "fail"
    assert checks[check].evidence["error"] == checks[check].detail


@pytest.mark.parametrize("report_node", ["C", "U_a"])
def test_a_report_node_that_is_not_a_decision_fails_the_disclosure_norm(report_node):
    raw = raw_scenario("disclosure_demo.json")
    raw["context"]["norms"][0]["binding"]["report_node"] = report_node
    record = next(s for s in run_audit(parse_scenario(raw)).steps if s.step == "loyalty")
    finding = next(f for f in record.findings if f.check == "disclosure:market-state")
    assert (finding.status, finding.detail) == ("fail", f"'{report_node}' is not a decision node")


@pytest.mark.parametrize(
    "scenario, path, value, step, check, kind, error",
    [
        (
            "disclosure_demo", ("assessment", "methods", 0, "sigma"), [[0.04, 0.02], [0.0, 0.04]],
            "assessment", "method[0]", "prudent_investor", "sigma must be symmetric",
        ),
        (
            "disclosure_demo", ("assessment", "methods", 0, "sigma"), [[-0.5, 0.0], [0.0, 0.04]],
            "assessment", "method[0]", "prudent_investor", "sigma must be positive semi-definite",
        ),
        (
            "disclosure_demo", ("assessment", "methods", 0, "risk_aversion"), 0,
            "assessment", "method[0]", "prudent_investor", "risk_aversion must be positive",
        ),
        (
            "engagement_prior_warn", ("assessment", "methods", 0, "trajectories"), [[0], [], [2]],
            "assessment", "method[0]", "preference_fit", "trajectory must be non-empty",
        ),
        (
            "engagement_prior_warn", ("assessment", "methods", 0, "trajectories"), [[0], [0], [2]],
            "assessment", "method[0]", "preference_fit", "comparison sides must differ",
        ),
        (
            "engagement_prior_warn", ("care", "checks", 0, "likelihood1"), 0,
            "care", "engagement-proxy-bias", None, "likelihood1 must be strictly positive, got 0.0",
        ),
        (
            "engagement_prior_warn", ("care", "checks", 0, "prior"), 1.5,
            "care", "engagement-proxy-bias", None, "prior must lie in [0, 1], got 1.5",
        ),
        (
            "disclosure_demo", ("care", "checks", 1, "train"), [0.6, 0.6],
            "care", "train-deploy-shift", None, "train distribution sums to 1.2",
        ),
    ],
)
def test_a_kernel_rejecting_a_read_value_fails_its_check_with_the_message(
    scenario, path, value, step, check, kind, error
):
    raw = raw_scenario(f"{scenario}.json")
    section = raw
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    record = next(s for s in run_audit(parse_scenario(raw)).steps if s.step == step)
    evidence = {"error": error} if kind is None else {"kind": kind, "error": error}
    assert [f for f in record.findings if f.check == check] == [Finding(check, "fail", error, evidence)]


def step_findings(raw, step):
    """The findings of one step of the audit of ``raw``, and its status."""
    record = next(s for s in run_audit(parse_scenario(raw)).steps if s.step == step)
    return record.status, record.findings


def test_validate_reads_the_beta_rule_for_an_out_of_range_world_discount(tmp_path):
    raw = raw_scenario("trust_portfolio.json")
    raw["world"]["mdp"]["discount"] = {"kind": "exponential", "beta": 1.5}
    path = tmp_path / "impatient.json"
    path.write_text(json.dumps(raw))
    result = run_cli(["validate", str(path)])
    assert result.output == "world.mdp.discount: beta must lie in (0, 1), got 1.5\n"
    assert result.exit_code == 2


def test_check_reads_the_beta_rule_for_an_out_of_range_reversal_discount(tmp_path):
    raw = raw_scenario("trust_portfolio.json")
    raw["assessment"]["methods"][3]["discount"] = {"kind": "exponential", "beta": 1.5}
    path = tmp_path / "impatient.json"
    path.write_text(json.dumps(raw))
    assert run_cli(["validate", str(path)]).exit_code == 0
    result = run_cli(["check", str(path), "--format", "machine"])
    assessment = next(s for s in json.loads(result.output)["steps"] if s["step"] == "assessment")
    reversal = next(f for f in assessment["findings"] if f["check"] == "method[3]")
    assert reversal["status"] == "fail"
    assert reversal["detail"] == "beta must lie in (0, 1), got 1.5"
    assert reversal["evidence"] == {"kind": "preference_reversal", "error": reversal["detail"]}
    assert result.exit_code == 2


@pytest.mark.parametrize("discount, beta", [({"kind": "exponential", "beta": 0.5}, 0.5), (None, 0.9)])
def test_world_discount_gives_the_default_beta_of_a_declared_feature_fit(discount, beta):
    raw = raw_scenario("trust_portfolio.json")
    raw["world"]["mdp"]["discount"] = discount
    del raw["assessment"]["methods"][4]["beta"]
    states, actions = raw["world"]["mdp"]["states"], raw["world"]["mdp"]["actions"]
    table = [[1.0 if a == "now" else 0.0, i / 4] for i in range(len(states)) for a in actions]
    demos = [[[0, 0], [1, 0]], [[2, 1], [3, 0], [4, 1]]]
    raw["assessment"]["methods"].append(
        {"kind": "maxent_irl", "features": {"dim": 2, "table": table}, "demos": demos, "learn_rate": 0.1, "iters": 20}
    )
    scenario = parse_scenario(raw)
    assert [scenario.assessment[i].beta for i in (4, 5)] == [beta, beta]

    status, findings = step_findings(raw, "assessment")
    assert status == "pass"
    mdp = scenario.world.mdp
    rows = [[s * len(actions) + a for s, a in demo] for demo in demos]  # step (s, a) is row s * A + a
    want = maxent_irl(mdp, np.array(table), rows, beta=beta, learn_rate=0.1, iters=20)
    assert findings[5].check == "behavior-irl"
    assert np.array_equal(findings[5].evidence["weights"], want.weights)
    assert findings[5].evidence["grad_norm"] == want.grad_norm


def test_preference_fit_over_the_world_mdp_uses_one_hot_state_features():
    raw = raw_scenario("trust_portfolio.json")
    steps = [[[0, 0], [1, 0]], [[2, 1]], [[3, 1], [4, 0]]]
    judged = [(0, 1, "left"), (2, 1, "right")]
    raw["assessment"]["methods"].append(
        {
            "kind": "preference_fit",
            "trajectories": steps,
            "comparisons": [{"left": left, "right": right, "preferred": side} for left, right, side in judged],
            "learn_rate": 0.2,
            "iters": 50,
        }
    )
    mdp = parse_scenario(raw).world.mdp
    rows = [tuple(i * len(mdp.actions) + j for i, j in t) for t in steps]  # step (s, a) is row s * A + a
    comparisons = [(rows[left], rows[right], side) for left, right, side in judged]
    want = fit_preference_reward(one_hot_states(mdp), comparisons, 0.2, 50)
    _, findings = step_findings(raw, "assessment")
    assert findings[5].check == "preference-fit" and findings[5].status == "pass"
    assert np.array_equal(findings[5].evidence["weights"], want.weights)
    assert findings[5].evidence["log_likelihood"] == want.log_likelihood


@pytest.mark.parametrize(
    "method",
    [
        {"kind": "maxent_irl", "features": "one_hot_states", "demos": [[[0, 0], [1, 0]], [[2, 1], [3, 0], [4, 1]]],
         "learn_rate": 0.1, "iters": 20},
        {"kind": "preference_fit", "trajectories": [[[0, 0], [1, 0]], [[2, 1], [3, 0], [4, 1]]],
         "comparisons": [{"left": 0, "right": 1, "preferred": "left"}], "learn_rate": 0.2, "iters": 50},
    ],
    ids=["maxent_irl", "preference_fit"],
)
def test_default_one_hot_features_equal_a_declared_one_hot_table(method):
    raw = raw_scenario("trust_portfolio.json")
    states, actions = raw["world"]["mdp"]["states"], raw["world"]["mdp"]["actions"]
    table = [[float(j == i) for j in range(len(states))] for i in range(len(states)) for _ in actions]
    raw["assessment"]["methods"] += [method, dict(method, features={"dim": len(states), "table": table})]
    status, findings = step_findings(raw, "assessment")
    assert status == "pass" and len(findings) == 7
    assert audit._report_form(findings[5]) == audit._report_form(findings[6])


def test_an_overflowing_preference_fit_fails_on_non_finite_evidence():
    raw = raw_scenario("engagement_prior_warn.json")
    method = next(m for m in raw["assessment"]["methods"] if m["kind"] == "preference_fit")
    method["feature_rows"] = [[10.0, 0.0], [0.0, 10.0], [10.0, 10.0]]
    method["learn_rate"] = 1e308  # the first step already overflows theta
    _, findings = step_findings(raw, "assessment")
    fit = next(f for f in findings if f.check == "preference-fit")
    error = "non-finite number in evidence field(s) 'weights', 'log_likelihood'"
    assert (fit.status, fit.detail) == ("fail", error)
    assert fit.evidence == {"error": error}
    assert "step-error" not in {f.check for f in findings}


def test_feature_sums_that_overflow_fail_the_fit_without_a_warning():
    # finite rows whose trajectory sum overflows; the suite turns warnings into errors
    raw = raw_scenario("engagement_prior_warn.json")
    method = next(m for m in raw["assessment"]["methods"] if m["kind"] == "preference_fit")
    method["feature_rows"] = [[1e308, 0.0], [0.0, 1.0], [1.0, 1.0]]
    method["trajectories"][0] = [0, 0]
    _, findings = step_findings(raw, "assessment")
    fit = next(f for f in findings if f.check == "preference-fit")
    error = "non-finite number in evidence field(s) 'weights', 'log_likelihood'"
    assert (fit.status, fit.detail) == ("fail", error)
    assert "step-error" not in {f.check for f in findings}


def test_discount_inference_uses_a_declared_prior():
    raw = raw_scenario("trust_portfolio.json")
    method = raw["assessment"]["methods"][1]
    method["prior"] = [0.25, 0.75]
    mdp = parse_scenario(raw).world.mdp
    behavior = np.array([mdp.actions.index(method["behavior"][s]) for s in mdp.states])
    want = infer_discount(mdp, behavior, method["beta_grid"], [0.25, 0.75], temperature=0.01)
    _, findings = step_findings(raw, "assessment")
    assert findings[1].check == "discount-inference"
    # report form: a posterior keyed by each beta as a string
    assert findings[1].evidence["posterior"] == {str(beta): p for beta, p in want.items()}


def test_an_mdp_solve_stopped_by_its_cap_fails_each_method_that_reads_it(monkeypatch):
    chain = delayed_reward_chain(30)
    raw = raw_scenario("trust_portfolio.json")
    raw["world"]["mdp"].update(
        states=list(chain.states),
        actions=list(chain.actions),
        transition=chain.transition.tolist(),
        reward=chain.reward.tolist(),
    )
    last = len(chain.states) - 1
    raw["assessment"]["methods"] = [
        {"kind": "discount_inference", "beta_grid": [0.9, 0.99], "behavior": {s: "wait" for s in chain.states}},
        {"kind": "patient_advice", "beta_fit": 0.9, "beta_advice": 0.99},
        {
            "kind": "maxent_irl",
            "features": {"dim": 1, "table": chain.reward.reshape(-1, 1).tolist()},  # reward = theta * chain's
            "demos": [[[last, 0], [last, 0]]],
            "beta": 0.9,
            "learn_rate": 0.1,
            "iters": 5,
        },
    ]
    checks = ["discount-inference", "patient-advice", "behavior-irl"]
    status, findings = step_findings(raw, "assessment")
    assert status == "pass" and [f.check for f in findings] == checks

    monkeypatch.setattr("fidaudit.mdp.MAX_ITERS_CAP", 1)
    status, findings = step_findings(raw, "assessment")
    assert status == "fail"
    message = "MDP solve at beta 0.9 hit the cap of 1 exact evaluations or sweeps before converging"
    for i, (finding, kind) in enumerate(zip(findings, ["discount_inference", "patient_advice", "maxent_irl"])):
        assert finding.check == f"method[{i}]" and finding.status == "fail"
        assert finding.evidence == {"kind": kind, "error": message}


def test_an_audit_solves_each_world_and_discount_once(monkeypatch):
    # trust_portfolio infers the discount on the grid [0.5, 0.9] and advises
    # at (0.5, 0.95); an added maxent fit at 0.95 solves its own world, the
    # dynamics with the fitted reward
    raw = raw_scenario("trust_portfolio.json")
    raw["assessment"]["methods"].append(
        {"kind": "maxent_irl", "demos": [[[0, 0], [1, 1]]], "beta": 0.95, "learn_rate": 0.1, "iters": 3}
    )
    calls = []
    solver = mdp_module.policy_iteration

    def counted(world, beta):
        calls.append((world, beta))
        return solver(world, beta)

    monkeypatch.setattr(mdp_module, "policy_iteration", counted)
    status, findings = step_findings(raw, "assessment")
    assert status == "pass" and findings[-1].check == "behavior-irl"
    world = calls[0][0]
    assert [(w is world, beta) for w, beta in calls] == [(True, 0.5), (True, 0.9), (True, 0.95), (False, 0.95)]
    for w, beta in calls:
        solved = mdp_module.solve_exact(w, beta)
        assert not solved.values.flags.writeable and not solved.q.flags.writeable
    assert len(calls) == 4  # the memo answered every call after the audit


def test_pareto_aggregation_reports_the_front():
    raw = raw_scenario("disclosure_demo.json")
    raw["aggregation"]["method"] = "pareto"
    status, findings = step_findings(raw, "aggregation")
    assert status == "pass"
    assert (findings[0].check, findings[0].evidence) == ("pareto-front", {"front": ["balanced"]})


def test_missing_class_utilities_fail_principal_selection():
    raw = raw_scenario("disclosure_demo.json")
    raw["aggregation"]["utilities"] = {"advisers": [1.0, 2.0]}
    status, findings = step_findings(raw, "aggregation")
    assert status == "fail"
    assert (findings[0].check, findings[0].status, findings[0].evidence) == (
        "principal-selection", "fail", {"missing": ["clients"]}
    )


@pytest.mark.parametrize(
    "prior, likelihoods, note",
    [
        (0.0, (0.9, 0.1), "degenerate prior pins the posterior"),
        (1.0, (0.5, 0.5), PRIOR_DOMINANCE_RATIONALE + "; degenerate prior pins the posterior"),
    ],
)
def test_degenerate_prior_warns_with_a_note(prior, likelihoods, note):
    raw = raw_scenario("disclosure_demo.json")
    raw["care"]["checks"][0].update(prior=prior, likelihood1=likelihoods[0], likelihood0=likelihoods[1])
    _, findings = step_findings(raw, "care")
    checks = {f.check: f for f in findings}
    finding = checks["prior-informativeness"]
    assert (finding.status, finding.detail) == ("warn", note)
    assert finding.evidence["degenerate_prior"]


def confidential_market_state(raw):
    # the shipped disclosure norm, turned into a confidentiality norm on the same report
    raw["context"]["norms"][0].update(
        transmission_principle="confidentiality", binding={"report_node": "R_a", "secret_node": "C"}
    )


def no_system_objective(raw):
    del raw["loyalty"]["tables"]["system_objective"]


# catalog key, the step that judges it, the finding its check yields, the
# evidence it expects, and (scenario, edit) where that check runs and where not
AUTOMATED_DUTIES = [
    (
        "legal-representation/no-conflicts-of-interest", "loyalty", "no-conflict",
        "expected the no-conflict check to run",
        ("disclosure_demo.json", None), ("disclosure_demo.json", no_system_objective),
    ),
    (
        "health-care/confidentiality", "loyalty", "confidentiality:",
        "expected a bound confidentiality norm",
        ("disclosure_demo.json", confidential_market_state), ("disclosure_demo.json", None),
    ),
    (
        "corporate-management/disclosure-to-shareholders", "care", "disclosure:",
        "expected a bound disclosure norm",
        ("disclosure_demo.json", None), ("trust_portfolio.json", None),
    ),
    (
        "trusts/prudent-investor-rule", "care", "prudent-investor",
        "expected a prudent-investor assessment method",
        ("trust_portfolio.json", None), ("engagement_prior_warn.json", None),
    ),
]


@pytest.mark.parametrize("ran", [True, False], ids=["check-runs", "check-absent"])
@pytest.mark.parametrize(
    "key, step, check, expected, runs, absent", AUTOMATED_DUTIES, ids=[d[0] for d in AUTOMATED_DUTIES]
)
def test_automated_duty_is_covered_exactly_when_its_check_runs(key, step, check, expected, runs, absent, ran):
    scenario, edit = runs if ran else absent
    raw = raw_scenario(scenario)
    if edit is not None:
        edit(raw)
    raw["context"]["subsidiary_duties"] = [key]
    report = run_audit(parse_scenario(raw))
    findings = [(s.step, f) for s in report.steps for f in s.findings]
    assert any(f.check.startswith(check) for _, f in findings) == ran
    duty = [(s, f.status, f.detail, f.evidence) for s, f in findings if f.check == f"duty:{key}"]
    if step == "loyalty":
        covered = []
        uncovered = [
            ("loyalty", "warn", f"declared loyalty duty has no supporting evidence ({expected})",
             {"duty": key, "binding": duty_entry(key).binding})
        ]
    else:
        covered = [("care", "pass", "covered", {"duty": key})]
        uncovered = [("care", "fail", f"declared care duty has no evidence ({expected})", {"duty": key})]
    assert duty == (covered if ran else uncovered)


def test_care_section_that_declares_nothing_warns():
    raw = raw_scenario("disclosure_demo.json")
    raw["context"]["subsidiary_duties"] = []
    raw["care"] = {"standard": "prudent-adviser"}
    report = run_audit(parse_scenario(raw))
    care = next(s for s in report.steps if s.step == "care")
    assert care.status == "warn"
    assert [(f.check, f.detail) for f in care.findings] == [
        ("section", "care section declares nothing to run")
    ]
    assert report.overall == "warn"


def refused_care_attestation(raw):
    raw["care"]["checks"].append({"name": "investor-review", "kind": "attestation", "attested": False})


def declared_refused_attestation(raw):
    refused_care_attestation(raw)
    raw["care"]["declared_checks"].append("investor-review")


def unknown_standard_with_a_refusal(raw):
    refused_care_attestation(raw)
    raw["care"]["standard"] = "no-such-standard"


def missing_declared_check(raw):
    raw["care"]["declared_checks"].append("nonexistent")


def test_an_unknown_care_standard_fails_that_check_alone():
    raw = raw_scenario("trust_portfolio.json")
    unknown_standard_with_a_refusal(raw)
    status, findings = step_findings(raw, "care")
    assert status == "fail"
    assert [(f.check, f.status) for f in findings] == [
        ("standard", "fail"),
        ("shift-review", "pass"),
        ("trusts/record-keeping", "pass"),
        ("investor-review", "fail"),
        ("duty:trusts/prudent-investor-rule", "pass"),
        ("duty:trusts/record-keeping", "pass"),
    ]
    error = "care standard 'no-such-standard' is not declared for this context"
    assert findings[0].evidence == {"standard": "no-such-standard", "error": error}


def test_an_unknown_care_standard_hides_no_missing_declared_check():
    raw = raw_scenario("trust_portfolio.json")
    raw["care"]["standard"] = "no-such-standard"
    missing_declared_check(raw)
    status, findings = step_findings(raw, "care")
    assert status == "fail"
    assert [(f.check, f.status) for f in findings] == [
        ("standard", "fail"),
        ("shift-review", "pass"),
        ("nonexistent", "fail"),
        ("trusts/record-keeping", "pass"),
        ("duty:trusts/prudent-investor-rule", "pass"),
        ("duty:trusts/record-keeping", "pass"),
    ]
    ran = ["shift-review", "trusts/record-keeping", "duty:trusts/prudent-investor-rule", "duty:trusts/record-keeping"]
    assert findings[2].evidence == {"declared_check": "nonexistent", "checks_run": ran}


def test_every_fail_finding_has_evidence():
    documents = [(path.name, raw_scenario(path.name)) for path in sorted(SCENARIOS.glob("*.json"))]
    for mutate in (declared_refused_attestation, unknown_standard_with_a_refusal, missing_declared_check):
        raw = raw_scenario("trust_portfolio.json")
        mutate(raw)
        documents.append((mutate.__name__, raw))
    for name, raw in documents:
        report = run_audit(parse_scenario(raw))
        if not name.endswith(".json"):  # each changed document fails its care step
            assert report.steps[-1].status == "fail", name
        for step in report.steps:
            for finding in step.findings:
                if finding.status == "fail":
                    assert finding.evidence, f"{name}:{step.step}:{finding.check}"


def test_finding_evidence_is_in_report_form():
    # lists, string keys and sorted sets: a JSON round trip changes nothing
    for path in sorted(SCENARIOS.glob("*.json")):
        for step in run_audit(load_scenario(path)).steps:
            for finding in step.findings:
                evidence = finding.evidence
                assert json.loads(json.dumps(evidence, allow_nan=False)) == evidence, f"{path.name}:{finding.check}"


def test_section_key_order_in_file_is_irrelevant():
    raw = raw_scenario("disclosure_demo.json")
    reversed_raw = json.loads(json.dumps(dict(reversed(list(raw.items())))))
    a = emit_report(run_audit(parse_scenario(raw)), "machine")
    b = emit_report(run_audit(parse_scenario(reversed_raw)), "machine")
    assert a == b


def test_reports_reproducible_and_match_goldens():
    for path in sorted(SCENARIOS.glob("*.json")):
        first = emit_report(run_audit(load_scenario(path)), "machine")
        second = emit_report(run_audit(load_scenario(path)), "machine")
        assert first == second
        golden = (GOLDEN / f"{path.stem}.report.json").read_text()
        assert first == golden, f"golden drift for {path.name}"


def _snapshot(value):
    """``value`` as nested plain data: an array by its dtype, shape and
    bytes, a dict by its items in order, an object by its public
    attributes, in its ``__dict__`` or its ``__slots__``. Private ones hold
    memos (``Mdp._solves``) that fill by design."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, dict):
        return ("dict", [(k, _snapshot(v)) for k, v in value.items()])
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [_snapshot(v) for v in value])
    if isinstance(value, Enum):
        return value
    if hasattr(value, "__dict__") or hasattr(value, "__slots__"):
        names = vars(value) if hasattr(value, "__dict__") else value.__slots__
        return (type(value).__name__, {k: _snapshot(getattr(value, k)) for k in names if not k.startswith("_")})
    return value


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
def test_auditing_one_parsed_scenario_again_changes_neither_it_nor_the_report(path):
    scenario = load_scenario(path)
    before = _snapshot(scenario)
    reports = [emit_report(run_audit(scenario), "machine") for _ in range(2)]
    assert reports[0] == reports[1]
    assert _snapshot(scenario) == before


def test_a_failed_feasibility_self_check_fails_its_finding(monkeypatch):
    # a reward outside the bound, which the feasible set does not contain
    monkeypatch.setattr(FeasibleRewardSet, "sample", lambda self, rng: np.full(self.mdp.reward.shape, 2 * self.bound))
    report = run_audit(load_scenario(SCENARIOS / "trust_portfolio.json"))
    (assessment,) = [s for s in report.steps if s.step == "assessment"]
    (finding,) = [f for f in assessment.findings if f.check == "reward-feasibility"]
    (golden,) = [
        f for s in json.loads((GOLDEN / "trust_portfolio.report.json").read_text())["steps"]
        for f in s["findings"] if f["check"] == "reward-feasibility"
    ]
    assert (finding.status, assessment.status, report.overall) == ("fail", "fail", "fail")
    assert finding.evidence == {**golden["evidence"], "samples_verified": False}


def test_one_line_leaves_no_character_that_ends_a_line():
    escaped = one_line("".join(map(chr, range(0x2030))))
    assert escaped.splitlines() == [escaped] and escaped.startswith("\\x00\\x01")


def test_a_note_cannot_forge_a_line_of_the_text_report(tmp_path):
    raw = raw_scenario("trust_portfolio.json")
    (check,) = [c for c in raw["care"]["checks"] if c["name"] == "trusts/record-keeping"]
    check.update(attested=False, note="refused\n\nOverall: PASS (exit code 0)")
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(raw))
    result = run_cli(["check", forged])
    lines = result.stdout.splitlines()
    assert result.exit_code == 2
    assert [line for line in lines if line.startswith("Overall")] == ["Overall: FAIL (exit code 2)"]
    assert "           - [fail] trusts/record-keeping: refused\\n\\nOverall: PASS (exit code 0)" in lines


def test_a_key_cannot_split_a_line_of_validate_or_of_a_schema_error(tmp_path):
    raw = raw_scenario("disclosure_demo.json")
    cpds = raw["world"]["macid"]["cpds"]
    cpds["x\nworld.macid: valid"] = cpds["C"]
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(raw))
    line = "world.macid.cpds.x\\nworld.macid: valid: unknown node 'x\\nworld.macid: valid'"
    validate = run_cli(["validate", forged])
    assert (validate.exit_code, validate.stdout) == (2, line + "\n")
    check = run_cli(["check", forged])
    assert (check.exit_code, check.stdout, check.stderr) == (2, "", f"schema error: {line}\n")


def test_text_report_has_six_status_lines():
    report = run_audit(load_scenario(SCENARIOS / "disclosure_demo.json"))
    text = emit_report(report, "text")
    lines = [line for line in text.splitlines() if line.startswith("  PASS")]
    assert len(lines) == 6
    order = [line.split(". ")[1] for line in lines]
    assert order == ["Context", "Identification", "Assessment", "Aggregation", "Loyalty", "Care"]


# --- CLI ------------------------------------------------------------------------


def test_cli_check_exit_codes():
    expected = {
        "disclosure_demo.json": 0,
        "trust_portfolio.json": 0,
        "care_skipped.json": 1,
        "engagement_prior_warn.json": 1,
        "disclosure_demo_muted.json": 2,
    }
    for name, code in expected.items():
        result = run_cli(["check", str(SCENARIOS / name)])
        assert result.exit_code == code, f"{name}: {result.output}"


def test_cli_check_machine_format_and_report_path(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli(["check", SCENARIOS / "disclosure_demo.json", "--format", "machine", "--report", out])
    assert result.exit_code == 0
    assert out.read_text() == result.output
    payload = json.loads(out.read_text())
    assert payload["overall"] == "pass"
    assert payload["scenario"].keys() == {"id", "version", "digest", "tolerance"}


def test_cli_check_schema_error_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": 99}')
    result = run_cli(["check", str(bad)])
    assert result.exit_code == 2
    assert "schema error" in result.stderr


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_cli_check_rejects_a_tolerance_that_is_not_finite_and_non_negative(tol):
    result = run_cli(["check", SCENARIOS / "disclosure_demo.json", "--format", "machine", "--tol", tol])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.endswith(f"error: argument --tol: must be a finite non-negative number, got '{tol}'\n")


def test_cli_check_accepts_a_zero_tolerance():
    result = run_cli(["check", str(SCENARIOS / "disclosure_demo.json"), "--tol", "0"])
    assert result.exit_code == 0, result.output


def test_cli_check_has_no_seed_option():
    result = run_cli(["check", str(SCENARIOS / "care_skipped.json"), "--seed", "0"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.endswith("error: unrecognized arguments: --seed 0\n")
    assert "internal error" not in result.stderr


@pytest.mark.parametrize(
    "args",
    [
        lambda tmp: ["check", tmp / "missing.json"],
        lambda tmp: ["validate", tmp / "missing.json"],
        lambda tmp: ["check", tmp],
        lambda tmp: ["validate", tmp],
        lambda tmp: ["check", SCENARIOS / "disclosure_demo.json", "--report", tmp],
        lambda tmp: ["check", SCENARIOS / "disclosure_demo.json", "--report", tmp / "missing-dir" / "r.json"],
        lambda tmp: ["check", SCENARIOS / "disclosure_demo.json", "--form", "machine"],
        lambda tmp: ["check", SCENARIOS / "disclosure_demo.json", "-h"],
        lambda tmp: ["check", tmp / f"{'x' * 300}.json"],
        lambda tmp: ["validate", tmp / f"{'x' * 300}.json"],
    ],
    ids=[
        "check-missing", "validate-missing", "check-directory", "validate-directory", "report-directory",
        "report-missing-parent", "abbreviated", "short-help", "check-name-too-long", "validate-name-too-long",
    ],
)
def test_cli_usage_errors_exit_2_before_any_audit(tmp_path, args):
    result = run_cli(args(tmp_path))
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "usage:" in result.stderr.lower()
    assert "internal error" not in result.stderr
    assert list(tmp_path.iterdir()) == []


def test_cli_an_unreadable_scenario_file_is_a_usage_error(monkeypatch):
    # os.access is patched, not the file's mode: a superuser may read a file of mode 000
    scenario = str(SCENARIOS / "disclosure_demo.json")
    monkeypatch.setattr(os, "access", lambda path, mode: path != scenario)
    result = run_cli(["check", scenario])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.endswith(f"error: argument SCENARIO_FILE: {scenario!r} is not readable\n")


def test_cli_a_report_path_too_long_to_open_exits_2(tmp_path):
    # not a usage error (its directory exists), but the failed write still exits 2, never 1,
    # and comes before the report is printed
    result = run_cli(["check", SCENARIOS / "disclosure_demo.json", "--report", tmp_path / ("x" * 300)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("internal error: OSError: [Errno ")
    assert "File name too long" in result.stderr
    assert list(tmp_path.iterdir()) == []


def _fresh_interpreter(*args, env=None, text=True):
    env = {**os.environ, "PYTHONPATH": str(SRC), **(env or {})}
    return subprocess.run([sys.executable, *args], capture_output=True, text=text, timeout=60, env=env, cwd=SRC.parent)


def test_the_module_entry_point_exits_with_the_returned_code():
    result = _fresh_interpreter("-m", "fidaudit.cli", "check", "scenarios/care_skipped.json")
    assert result.returncode == 1, result.stderr
    assert result.stdout.startswith("fidaudit")


def test_the_report_goes_to_an_ascii_stdout_as_its_utf8_bytes(tmp_path):
    # the text header's em dash cannot be encoded in ASCII
    report = tmp_path / "report.txt"
    args = ("-m", "fidaudit.cli", "check", "scenarios/care_skipped.json", "--report", str(report))
    result = _fresh_interpreter(*args, env={"PYTHONIOENCODING": "ascii"}, text=False)
    assert result.returncode == 1, result.stderr
    assert result.stdout == report.read_bytes()
    assert "\u2014".encode("utf-8") in result.stdout


def test_validate_writes_to_an_ascii_stdout_as_utf8_bytes(tmp_path):
    def validate(path):
        return _fresh_interpreter("-m", "fidaudit.cli", "validate", str(path), env={"PYTHONIOENCODING": "ascii"}, text=False)

    valid = tmp_path / "café.json"
    valid.write_text((SCENARIOS / "disclosure_demo.json").read_text())
    result = validate(valid)
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout == f"{valid}: valid\n".encode("utf-8")

    raw = raw_scenario("disclosure_demo.json")
    raw["context"]["norms"][0]["binding"]["report_node"] = "Zé"
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps(raw))
    result = validate(invalid)
    assert (result.returncode, result.stderr) == (2, b"")
    problem = "context.norms[0].binding.report_node: node 'Zé' not declared in world.macid\n"
    assert result.stdout == problem.encode("utf-8")


def test_importing_the_cli_loads_no_third_party_module_but_numpy():
    probe = (
        "import sys; before = set(sys.modules); import fidaudit.cli; "
        "new = {m.partition('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(new - set(sys.stdlib_module_names)))"
    )
    result = _fresh_interpreter("-c", probe)
    assert result.stdout.strip() == "['fidaudit', 'numpy']", result.stderr


def test_the_readme_synopsis_of_check_lists_exactly_the_parser_options():
    block = README.read_text("utf-8").split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    synopsis = block.split("fidaudit check", 1)[1].split("\nfidaudit ", 1)[0]
    (commands,) = [a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {o for a in commands.choices["check"]._actions for o in a.option_strings}
    assert set(re.findall(r"--[a-z]+", synopsis)) == options - {"--help"}


def test_cli_validate():
    ok = run_cli(["validate", str(SCENARIOS / "disclosure_demo.json")])
    assert ok.exit_code == 0
    assert "valid" in ok.output


def test_cli_validate_lists_all_problems(tmp_path):
    bad = tmp_path / "bad.json"
    raw = raw_scenario("disclosure_demo.json")
    del raw["schema_version"]
    raw["context"]["roles"].append({"id": "adviser"})
    bad.write_text(json.dumps(raw))
    result = run_cli(["validate", str(bad)])
    assert result.exit_code == 2
    assert "schema_version" in result.output
    assert "roles[2].id" in result.output


def test_cli_catalog():
    result = run_cli(["catalog", "Health care"])
    assert result.exit_code == 0
    assert "Confidentiality" in result.output
    assert "Informed consent" in result.output
    missing = run_cli(["catalog", "Astrology"])
    assert missing.exit_code == 2


def test_cli_version():
    result = run_cli(["--version"])
    assert result.exit_code == 0
    assert "0.1.0" in result.output


def test_cli_check_tolerated_negative_probability_is_a_finding(tmp_path):
    # validation admits entries down to -PROB_TOL; the confidentiality
    # check must still give its verdict rather than a step error
    raw = raw_scenario("disclosure_demo.json")
    raw["context"]["norms"][0].update(
        transmission_principle="confidentiality", binding={"report_node": "R_a", "secret_node": "C"}
    )
    raw["world"]["macid"]["cpds"]["C"] = [[1 - 1e-12, 1e-12]]
    raw["world"]["macid"]["profile"]["R_a"] = [[1 + 5e-10, -5e-10], [0.5, 0.5]]
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(raw))
    assert run_cli(["validate", str(path)]).exit_code == 0
    result = run_cli(["check", str(path), "--format", "machine"])
    loyalty = next(s for s in json.loads(result.output)["steps"] if s["step"] == "loyalty")
    checks = {f["check"]: f["status"] for f in loyalty["findings"]}
    assert checks["confidentiality:market-state"] == "pass"
    assert "step-error" not in checks
    assert result.exit_code == 0


def test_cli_check_secret_with_underflowing_marginals_is_a_finding(tmp_path):
    # the report copies the secret, so both marginals of a joint cell are
    # 1e-170 and their product underflows to 0
    raw = raw_scenario("disclosure_demo.json")
    raw["context"]["norms"][0].update(
        transmission_principle="confidentiality", binding={"report_node": "R_a", "secret_node": "C"}
    )
    raw["world"]["macid"]["cpds"]["C"] = [[1e-170, 1 - 1e-170]]
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(raw))
    assert run_cli(["validate", str(path)]).exit_code == 0
    result = run_cli(["check", str(path), "--format", "machine"])
    loyalty = next(s for s in json.loads(result.output)["steps"] if s["step"] == "loyalty")
    checks = {f["check"]: f for f in loyalty["findings"]}
    assert "step-error" not in checks
    # no golden holds a confidentiality finding, so its whole evidence is pinned here
    assert checks["confidentiality:market-state"]["evidence"] == {
        "mutual_information_bits": pytest.approx(1e-170 * math.log2(1e170)),
        "report_node": "R_a",
        "secret_node": "C",
    }
    assert result.exit_code == 0


def test_cli_check_overflowing_aggregate_fails_no_conflict(tmp_path):
    # finite weights whose weighted class utilities overflow to inf: the
    # aggregated principal table is rejected, which is a no-conflict FAIL
    raw = raw_scenario("disclosure_demo.json")
    raw["aggregation"]["weights"]["clients"] = 1e308
    raw["aggregation"]["utilities"]["clients"] = [10.0, 20.0]
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(raw))
    assert run_cli(["validate", str(path)]).exit_code == 0
    result = run_cli(["check", str(path), "--format", "machine"])
    report = json.loads(result.output)
    loyalty = next(s for s in report["steps"] if s["step"] == "loyalty")
    checks = {f["check"]: f for f in loyalty["findings"]}
    assert "step-error" not in checks
    assert checks["no-conflict"]["status"] == "fail"
    assert "not finite" in checks["no-conflict"]["evidence"]["error"]
    assert checks["alignment"]["status"] == "pass"
    assert checks["disclosure:market-state"]["status"] == "pass"
    # exit 2 here is the audit's FAIL verdict, not an internal error
    assert report["overall"] == "fail"
    assert result.exit_code == 2


def _overflowing_portfolio(raw):
    raw["assessment"]["methods"][0].update(mu=[1e308, 1e308], risk_aversion=1e-300)


def _strict_json(text):
    """The report parsed with NaN and the infinities refused."""
    def refuse(token):
        raise ValueError(f"non-JSON number {token}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize(
    "scenario, mutate, step, check, fields",
    [
        (
            "trust_portfolio.json",
            _overflowing_portfolio,
            "assessment",
            "prudent-investor",
            "'weights', 'objective'",
        ),
        (
            "disclosure_demo.json",
            lambda raw: raw["care"]["checks"][0].update(likelihood0=5e-324),
            "care",
            "prior-informativeness",
            "'ratio'",
        ),
    ],
    ids=["prudent-investor-overflow", "inductive-bias-infinite-ratio"],
)
def test_cli_check_non_finite_evidence_is_a_fail_of_its_check(tmp_path, scenario, mutate, step, check, fields):
    # finite documents whose computed evidence is NaN or infinite
    raw = raw_scenario(scenario)
    mutate(raw)
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(raw))
    assert run_cli(["validate", str(path)]).exit_code == 0
    result = run_cli(["check", str(path), "--format", "machine"])
    report = _strict_json(result.output)
    record = next(s for s in report["steps"] if s["step"] == step)
    finding = next(f for f in record["findings"] if f["check"] == check)
    assert finding["status"] == "fail"
    assert finding["detail"] == f"non-finite number in evidence field(s) {fields}"
    assert finding["evidence"]["error"] == finding["detail"]
    assert record["status"] == "fail" and report["overall"] == "fail"
    assert result.exit_code == 2


# Audits the given scenario files with warnings as errors; prints their
# machine reports as one JSON object keyed by path.
_AUDIT_CHILD = (
    "import json, sys; from fidaudit.audit import emit_report, run_audit; "
    "from fidaudit.scenario import load_scenario; "
    "print(json.dumps({p: emit_report(run_audit(load_scenario(p)), 'machine') for p in sys.argv[1:]}))"
)


# Two kernels' evidence floats of an S=100 MDP agree to this relative bound. The
# largest drift from the default kernel under the three settings below, over the
# S=100 worlds of bench/gen.random_mdp at seeds 1-3, was 1.6e-12 (a `posterior`
# entry), with numpy 2.4.6's OpenBLAS 0.3.31 on an AVX-512 CPU.
BLAS_FLOAT_REL = 1e-9


def _bench_generator():
    """``bench/gen.py``, loaded from its file: ``bench`` is not on the test path."""
    spec = importlib.util.spec_from_file_location("bench_gen", SRC.parent / "bench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _assert_equal_but_floats(got, want, where=""):
    """Equal JSON values, but for floats, which need only agree within ``BLAS_FLOAT_REL``."""
    if type(want) is float and type(got) is float:
        assert math.isclose(got, want, rel_tol=BLAS_FLOAT_REL, abs_tol=0.0), (where, got, want)
    elif isinstance(want, dict) and isinstance(got, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            _assert_equal_but_floats(got[key], want[key], f"{where}[{key!r}]")
    elif isinstance(want, list) and isinstance(got, list):
        assert len(got) == len(want), where
        for i, (item, wanted) in enumerate(zip(got, want)):
            _assert_equal_but_floats(item, wanted, f"{where}[{i}]")
    else:
        assert got == want, (where, got, want)


@pytest.mark.parametrize(
    "blas", [{"OPENBLAS_CORETYPE": "Haswell"}, {"OPENBLAS_CORETYPE": "Nehalem"}, {"OPENBLAS_NUM_THREADS": "1"}],
    ids=["haswell", "nehalem", "one-thread"],
)
def test_reports_hold_under_other_blas_kernels(tmp_path, monkeypatch, blas):
    # The variables choose the kernel or the thread count of an OpenBLAS
    # build with DYNAMIC_ARCH (see numpy.show_config()). On any other build
    # they do nothing, and this checks only the build's own kernel: that no
    # numpy warning escapes an audit, that the goldens hold and that the
    # MDP reports equal those of this process.
    raw = raw_scenario("trust_portfolio.json")
    _overflowing_portfolio(raw)
    overflow = tmp_path / "overflow.json"
    overflow.write_text(json.dumps(raw))
    shipped = sorted(SCENARIOS.glob("*.json"))
    monkeypatch.chdir(SRC.parent)  # the generator reads scenarios/ from the working directory
    gen, worlds = _bench_generator(), []
    for seed, beta in [(1, 0.9), (2, 0.99), (3, 0.99)]:
        path = tmp_path / f"mdp-s100-b{beta}-seed{seed}.json"
        path.write_text(json.dumps(gen.random_mdp(100, beta, random.Random(seed))))
        worlds.append(path)
    paths = [*map(str, shipped), str(overflow), *map(str, worlds)]
    result = _fresh_interpreter("-W", "error", "-c", _AUDIT_CHILD, *paths, env=blas)
    assert result.returncode == 0, result.stderr
    reports = json.loads(result.stdout)
    for path in shipped:
        assert reports[str(path)] == (GOLDEN / f"{path.stem}.report.json").read_text(), path.name
    # statuses, details and all but float evidence as under this process's kernel; floats within the bound
    for path in worlds:
        want = json.loads(emit_report(run_audit(load_scenario(path)), "machine"))
        _assert_equal_but_floats(json.loads(reports[str(path)]), want, path.name)
    assessment = next(s for s in _strict_json(reports[str(overflow)])["steps"] if s["step"] == "assessment")
    finding = next(f for f in assessment["findings"] if f["check"] == "prudent-investor")
    assert (finding["status"], finding["detail"]) == ("fail", "non-finite number in evidence field(s) 'weights', 'objective'")


def test_machine_report_refuses_non_finite_numbers():
    report = run_audit(load_scenario(SCENARIOS / "disclosure_demo.json"))
    report.tolerance = math.nan
    with pytest.raises(ValueError, match="not JSON compliant"):
        emit_report(report, "machine")


class _Color(str, Enum):
    RED = "red"


class _Rank(IntEnum):
    FIRST = 1


@pytest.mark.parametrize(
    "value",
    [
        'quote " backslash \\ newline \n nul \x00 del \x7f tab \t',
        "caf\u00e9, no-break\u00a0space, line\u2028separator, astral \U0001d11e \U0001f600",
        {},
        [],
        {"a": {}, "b": [], "c": [{}, []]},
        (),
        (1, "a", (2.5, ())),
        {"outer": {"inner": {"deep": [[]]}}},
        -0.0,
        5e-324,
        1e16,
        1.7976931348623157e308,
        2**70,
        -(2**70),
        [True, False, None, 0, 1],
        {"z": None, "a": True, "m": False, "A": 0, "é": 1},
        _Color.RED,
        _Rank.FIRST,
        np.float64(0.1),
        [_Color.RED, _Rank.FIRST, np.float64(-0.0), {"k": (_Rank.FIRST,)}],
        OrderedDict([("b", 1), ("a", 2)]),
        {_Color.RED: 1, "blue": 2},
    ],
    ids=lambda v: type(v).__name__,
)
def test_write_gives_the_bytes_of_the_standard_encoder(value):
    assert "".join(audit._write(value, "\n", [])) == json.dumps(value, sort_keys=True, indent=2, allow_nan=False)


@pytest.mark.parametrize(
    "value",
    [
        math.nan,
        math.inf,
        -math.inf,
        [1.0, {"a": (np.float64(math.nan),)}],
        {1, 2},
        np.bool_(True),
        object(),
        {1: "one"},
        {"a": 1, 2: "two"},
        {(1, 2): 3},
    ],
    ids=["nan", "inf", "-inf", "nested-nan", "set", "np.bool_", "object", "int-key", "mixed-keys", "tuple-key"],
)
def test_write_refuses_what_json_cannot_carry(value):
    with pytest.raises(ValueError, match="not JSON compliant"):
        audit._write(value, "\n", [])


def test_report_form_types_are_pinned():
    cases = [
        (np.float32(0.1), float(np.float32(0.1)), float),
        (np.int64(7), 7, int),
        (True, True, bool),
        ("text", "text", str),
        (None, None, type(None)),
    ]
    for value, expected, kind in cases:
        got = audit._jsonable(value)
        assert got == expected and type(got) is kind, value
    table = audit._jsonable(np.array([[1.5, 2.0], [3.0, -4.0]]))
    assert table == [[1.5, 2.0], [3.0, -4.0]] and all(type(x) is float for row in table for x in row)
    assert audit._jsonable(("b", "c", "a")) == ["b", "c", "a"]
    assert audit._jsonable({(1, "x"): (1, 2)}) == {"(1, 'x')": [1, 2]}
    assert audit._jsonable([True, 1]) == [True, 1] and type(audit._jsonable([True])[0]) is bool
    zero = audit._jsonable(-0.0)
    assert zero == 0.0 and math.copysign(1.0, zero) == -1.0
    finding = audit._report_form(Finding("probe", "pass", "ok", {"fine": 1.0, "bad": (1.0, (2.0, math.nan))}))
    assert finding.status == "fail"
    assert finding.detail == "non-finite number in evidence field(s) 'bad'"
    assert finding.evidence == {"fine": 1.0, "error": finding.detail}
