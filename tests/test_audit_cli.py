import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from fidaudit.assessment import (
    FeatureMap,
    PairwiseComparison,
    Trajectory,
    fit_preference_reward,
    infer_discount,
    maxent_irl,
)
from fidaudit.audit import emit_report, run_audit
from fidaudit.care import PRIOR_DOMINANCE_RATIONALE
from fidaudit.cli import main
from fidaudit.context import duty_entry
from fidaudit.errors import SchemaError
from fidaudit.scenario import load_scenario, parse_scenario, validate_scenario

SCENARIOS = Path(__file__).parent.parent / "scenarios"
GOLDEN = Path(__file__).parent / "golden"


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


def step_findings(raw, step):
    """The findings of one step of the audit of ``raw``, and its status."""
    record = next(s for s in run_audit(parse_scenario(raw)).steps if s.step == step)
    return record.status, record.findings


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
    features = FeatureMap(2, {key: np.array(row) for key, row in zip(itertools.product(states, actions), table)})
    trajectories = [Trajectory(tuple((states[i], actions[j]) for i, j in demo)) for demo in demos]
    want = maxent_irl(mdp, features, trajectories, beta=beta, learn_rate=0.1, iters=20)
    assert findings[5].check == "behavior-irl"
    assert np.array_equal(findings[5].evidence["weights"], want.weights)
    assert findings[5].evidence["grad_norm"] == want.diagnostics["grad_norm"]


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
    trajectories = [Trajectory(tuple((mdp.states[i], mdp.actions[j]) for i, j in t)) for t in steps]
    comparisons = [PairwiseComparison(trajectories[left], trajectories[right], side) for left, right, side in judged]
    want = fit_preference_reward(FeatureMap.one_hot_states(mdp), comparisons, 0.2, 50)
    _, findings = step_findings(raw, "assessment")
    assert findings[5].check == "preference-fit" and findings[5].status == "pass"
    assert np.array_equal(findings[5].evidence["weights"], want.weights)
    assert findings[5].evidence["log_likelihood"] == want.diagnostics["log_likelihood"]


def test_discount_inference_uses_a_declared_prior():
    raw = raw_scenario("trust_portfolio.json")
    method = raw["assessment"]["methods"][1]
    method["prior"] = [0.25, 0.75]
    mdp = parse_scenario(raw).world.mdp
    want = infer_discount(mdp, method["behavior"], method["beta_grid"], [0.25, 0.75], temperature=0.01)
    _, findings = step_findings(raw, "assessment")
    assert findings[1].check == "discount-inference"
    assert findings[1].evidence["posterior"] == want


def test_pareto_aggregation_reports_the_front():
    raw = raw_scenario("disclosure_demo.json")
    raw["aggregation"]["method"] = "pareto"
    status, findings = step_findings(raw, "aggregation")
    assert status == "pass"
    assert (findings[0].check, findings[0].evidence) == ("pareto-front", {"front": frozenset({"balanced"})})


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


def test_every_fail_finding_has_evidence():
    for path in sorted(SCENARIOS.glob("*.json")):
        report = run_audit(load_scenario(path))
        for step in report.steps:
            for finding in step.findings:
                if finding.status == "fail":
                    assert finding.evidence, f"{path.name}:{step.step}:{finding.check}"


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


def test_text_report_has_six_status_lines():
    report = run_audit(load_scenario(SCENARIOS / "disclosure_demo.json"))
    text = emit_report(report, "text")
    lines = [line for line in text.splitlines() if line.startswith("  PASS")]
    assert len(lines) == 6
    order = [line.split(". ")[1] for line in lines]
    assert order == ["Context", "Identification", "Assessment", "Aggregation", "Loyalty", "Care"]


# --- CLI ------------------------------------------------------------------------


def test_cli_check_exit_codes():
    runner = CliRunner()
    expected = {
        "disclosure_demo.json": 0,
        "trust_portfolio.json": 0,
        "care_skipped.json": 1,
        "engagement_prior_warn.json": 1,
        "disclosure_demo_muted.json": 2,
    }
    for name, code in expected.items():
        result = runner.invoke(main, ["check", str(SCENARIOS / name)])
        assert result.exit_code == code, f"{name}: {result.output}"


def test_cli_check_machine_format_and_report_path(tmp_path):
    runner = CliRunner()
    out = tmp_path / "report.json"
    result = runner.invoke(
        main,
        ["check", str(SCENARIOS / "disclosure_demo.json"), "--format", "machine", "--report", str(out)],
    )
    assert result.exit_code == 0
    assert out.read_text() == result.output
    payload = json.loads(out.read_text())
    assert payload["overall"] == "pass"
    assert payload["scenario"]["seed"] == 0


def test_cli_check_schema_error_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": 99}')
    runner = CliRunner()
    result = runner.invoke(main, ["check", str(bad)])
    assert result.exit_code == 2
    assert "schema error" in result.stderr


def test_cli_validate():
    runner = CliRunner()
    ok = runner.invoke(main, ["validate", str(SCENARIOS / "disclosure_demo.json")])
    assert ok.exit_code == 0
    assert "valid" in ok.output


def test_cli_validate_lists_all_problems(tmp_path):
    bad = tmp_path / "bad.json"
    raw = raw_scenario("disclosure_demo.json")
    del raw["schema_version"]
    raw["context"]["roles"].append({"id": "adviser"})
    bad.write_text(json.dumps(raw))
    runner = CliRunner()
    result = runner.invoke(main, ["validate", str(bad)])
    assert result.exit_code == 2
    assert "schema_version" in result.output
    assert "roles[2].id" in result.output


def test_cli_catalog():
    runner = CliRunner()
    result = runner.invoke(main, ["catalog", "Health care"])
    assert result.exit_code == 0
    assert "Confidentiality" in result.output
    assert "Informed consent" in result.output
    missing = runner.invoke(main, ["catalog", "Astrology"])
    assert missing.exit_code == 2


def test_cli_version():
    runner = CliRunner()
    result = runner.invoke(main, ["--version"])
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
    runner = CliRunner()
    assert runner.invoke(main, ["validate", str(path)]).exit_code == 0
    result = runner.invoke(main, ["check", str(path), "--format", "machine"])
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
    runner = CliRunner()
    assert runner.invoke(main, ["validate", str(path)]).exit_code == 0
    result = runner.invoke(main, ["check", str(path), "--format", "machine"])
    loyalty = next(s for s in json.loads(result.output)["steps"] if s["step"] == "loyalty")
    checks = {f["check"]: f for f in loyalty["findings"]}
    assert "step-error" not in checks
    leak = checks["confidentiality:market-state"]["evidence"]["mutual_information_bits"]
    assert leak == pytest.approx(1e-170 * math.log2(1e170))
    assert result.exit_code == 0


def test_cli_check_overflowing_aggregate_fails_no_conflict(tmp_path):
    # finite weights whose weighted class utilities overflow to inf: the
    # aggregated principal table is rejected, which is a no-conflict FAIL
    raw = raw_scenario("disclosure_demo.json")
    raw["aggregation"]["weights"]["clients"] = 1e308
    raw["aggregation"]["utilities"]["clients"] = [10.0, 20.0]
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(raw))
    runner = CliRunner()
    assert runner.invoke(main, ["validate", str(path)]).exit_code == 0
    result = runner.invoke(main, ["check", str(path), "--format", "machine"])
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
