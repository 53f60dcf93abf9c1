import math

import pytest

from fidaudit.care import (
    distribution_shift_score,
    inductive_bias_diagnostic,
    prudence_report,
)
from fidaudit.findings import Finding, worst


# --- inductive_bias_diagnostic ---------------------------------------------


def test_unit_ratio_posterior_equals_prior():
    report = inductive_bias_diagnostic(0.37, 0.4, 0.4)
    assert report.ratio == 1.0
    assert report.posterior == 0.37
    assert report.prior_dominated
    assert report.rationale


def test_strong_evidence_not_dominated():
    report = inductive_bias_diagnostic(0.5, 0.9, 0.1)
    assert report.ratio == pytest.approx(9.0)
    # Bayes arithmetic: 0.5*0.9 / (0.5*0.9 + 0.5*0.1)
    assert report.posterior == pytest.approx(0.9)
    assert not report.prior_dominated
    assert report.rationale == ""


def test_degenerate_prior_flagged():
    report = inductive_bias_diagnostic(1.0, 0.2, 0.8)
    assert report.posterior == 1.0
    assert report.degenerate_prior


def test_zero_likelihood_rejected():
    with pytest.raises(ValueError, match=r"likelihood1 must be strictly positive, got 0\.0"):
        inductive_bias_diagnostic(0.5, 0.0, 0.5)
    with pytest.raises(ValueError, match=r"likelihood1 must be strictly positive, got nan"):
        inductive_bias_diagnostic(0.5, math.nan, 0.5)
    with pytest.raises(ValueError, match=r"prior must lie in \[0, 1\], got nan"):
        inductive_bias_diagnostic(math.nan, 0.5, 0.5)


def test_posterior_matches_brute_force_bayes(rng):
    for _ in range(200):
        prior = float(rng.uniform(0.0, 1.0))
        l1 = float(rng.uniform(0.01, 1.0))
        l0 = float(rng.uniform(0.01, 1.0))
        report = inductive_bias_diagnostic(prior, l1, l0)
        joint1 = prior * l1
        joint0 = (1.0 - prior) * l0
        assert report.posterior == pytest.approx(joint1 / (joint1 + joint0), abs=1e-12)
        assert report.prior_dominated == (abs(math.log(l1 / l0)) < 0.1)


def test_dominance_threshold_is_log_symmetric():
    wide = inductive_bias_diagnostic(0.5, 0.5, 0.52, dominance_threshold=0.1)
    mirrored = inductive_bias_diagnostic(0.5, 0.52, 0.5, dominance_threshold=0.1)
    assert wide.prior_dominated and mirrored.prior_dominated


# --- distribution_shift_score ---------------------------------------------------


def test_identical_distributions_zero():
    score = distribution_shift_score(("a", "b"), (0.4, 0.6), (0.4, 0.6))
    assert score.kl_nats == 0.0
    assert not score.absolute_continuity_violation


def test_uniform_vs_skewed_formula():
    score = distribution_shift_score(("a", "b"), (0.9, 0.1), (0.5, 0.5))
    expected = 0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1)
    assert score.kl_nats == pytest.approx(expected)
    assert score.kl_nats == pytest.approx(0.5108, abs=1e-4)


def test_absolute_continuity_violation_reported():
    score = distribution_shift_score(("a", "b"), (1.0, 0.0), (0.5, 0.5))
    assert score.absolute_continuity_violation
    assert score.kl_nats is None
    assert score.violating_points == ("b",)


def test_support_mismatch_rejected():
    # each distribution is a row with one entry per support point, in support order
    with pytest.raises(ValueError, match=r"train distribution has 1 entries, expected one per support point \(2\)"):
        distribution_shift_score(("a", "b"), (1.0,), (0.5, 0.5))
    with pytest.raises(ValueError, match=r"deploy distribution has 3 entries, expected one per support point \(2\)"):
        distribution_shift_score(("a", "b"), (0.5, 0.5), (0.5, 0.25, 0.25))
    with pytest.raises(ValueError, match="deploy distribution has negative or NaN mass nan at 'b'"):
        distribution_shift_score(("a", "b"), (0.5, 0.5), (1.0, math.nan))
    with pytest.raises(ValueError, match="train distribution has negative or NaN mass -0.5 at 'b'"):
        distribution_shift_score(("a", "b"), (1.5, -0.5), (0.5, 0.5))


def test_kl_nonnegative_and_asymmetric(rng):
    asymmetric_found = False
    for _ in range(100):
        raw = rng.uniform(0.05, 1.0, size=(2, 3))
        raw /= raw.sum(axis=1, keepdims=True)
        support = ("x", "y", "z")
        train, deploy = raw.tolist()
        forward = distribution_shift_score(support, train, deploy)
        backward = distribution_shift_score(support, deploy, train)
        assert forward.kl_nats >= 0.0
        if abs(forward.kl_nats - backward.kl_nats) > 1e-9:
            asymmetric_found = True
    assert asymmetric_found


# --- prudence_report ------------------------------------------------------------


def _known():
    return frozenset({"prudent-adviser"})


def test_all_declared_checks_passing():
    findings = prudence_report(
        "prudent-adviser",
        ["bias-review"],
        [Finding("bias-review", "pass", "check passed")],
        known_standards=_known(),
    )
    assert worst(f.status for f in findings) == "pass"


def test_missing_declared_check_fails():
    findings = prudence_report(
        "prudent-adviser",
        ["bias-review", "shift-review"],
        [Finding("bias-review", "pass", "check passed"), Finding("duty:x", "pass", "covered")],
        known_standards=_known(),
    )
    assert worst(f.status for f in findings) == "fail"
    missing = [f for f in findings if f.check == "shift-review"]
    assert missing and missing[0].status == "fail"
    assert "missing" in missing[0].detail
    # its witness: the declared name and the checks that did run
    assert missing[0].evidence == {"declared_check": "shift-review", "checks_run": ["bias-review", "duty:x"]}


def test_prior_dominated_warns():
    findings = prudence_report(
        "prudent-adviser",
        ["bias-review"],
        [Finding("bias-review", "warn", "prior dominated")],
        known_standards=_known(),
    )
    assert worst(f.status for f in findings) == "warn"


def test_unknown_standard_rejected():
    error = "care standard 'astrology-grade' is not declared for this context"
    findings = prudence_report("astrology-grade", [], [], known_standards=_known())
    assert findings == [Finding("standard", "fail", error, {"standard": "astrology-grade", "error": error})]


def test_an_unknown_standard_still_assembles_the_declared_checks():
    review = Finding("review", "pass", "check passed")
    findings = prudence_report("astrology-grade", ["review", "shift-review"], [review], known_standards=_known())
    assert [(f.check, f.status) for f in findings] == [("standard", "fail"), ("review", "pass"), ("shift-review", "fail")]
    assert findings[2].evidence == {"declared_check": "shift-review", "checks_run": ["review"]}


def test_report_monotone_in_findings():
    base = prudence_report(
        "prudent-adviser",
        ["a"],
        [Finding("a", "pass", "check passed")],
        known_standards=_known(),
    )
    worse = prudence_report(
        "prudent-adviser",
        ["a"],
        [Finding("a", "pass", "check passed"), Finding("extra", "fail", "check did not pass")],
        known_standards=_known(),
    )
    order = {"pass": 0, "warn": 1, "fail": 2}
    assert order[worst(f.status for f in worse)] >= order[worst(f.status for f in base)]


def test_two_findings_of_one_declared_name_are_both_kept():
    passing, refused = Finding("review", "pass", "covered"), Finding("review", "fail", "attestation refused")
    for findings in ([passing, refused], [refused, passing]):
        report = prudence_report("prudent-adviser", ["review"], findings, known_standards=_known())
        assert report == findings
        assert worst(f.status for f in report) == "fail"

