"""The audit pipeline: six steps, executed in order, over one scenario.

Steps run strictly in sequence (context, identification, assessment,
aggregation, loyalty, care) because early answers feed later ones: the
identification step decides which principal classes are alignment targets,
aggregation produces the utility table the loyalty no-conflict check runs
against, and assessment evidence covers automated care duties. One driver
owns the rules every step shares: a step whose section is omitted is
Skipped, a section that declares nothing to run warns, and a step whose
computation raises is recorded as one Fail finding while the pipeline
continues. A value a library call rejects is a Fail finding for that check
alone, and so is a finding whose evidence holds a number that is not
finite (NaN or an infinity), which no JSON report can carry. A later step
whose inputs became undefined is Skipped with the cause. Every Fail
finding carries a concrete witness.

Reports are byte-deterministic for a given (scenario, tolerance, tool
version, numpy build): no timestamps, stable orderings, canonical key
sorting in machine output. The floats of MDP evidence also depend on the
BLAS kernel and its thread count.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import Any, Collection

import numpy as np

from . import __version__
from .aggregation import (
    VotingRule,
    approval_winners,
    find_manipulation,
    impartiality_check,
    lexicographic_select,
    pareto_front,
)
from .assessment import (
    feasible_rewards_irl,
    fit_preference_reward,
    infer_discount,
    maxent_irl,
    patient_recommendation,
    prudent_investor_weights,
)
from .care import (
    BUILTIN_STANDARDS,
    distribution_shift_score,
    inductive_bias_diagnostic,
    prudence_report,
)
from .context import (
    BEST_INTERESTS,
    CONFIDENTIALITY,
    DISCLOSURE,
    ContextSpec,
    PrincipalClassSpec,
    duty_entry,
    identify_principals,
)
from .errors import NoConvergence
from .findings import FAIL, PASS, SKIPPED, WARN, Finding, worst
from .loyalty import (
    INFO_TOL,
    alignment_check,
    confidentiality_check,
    disclosure_check,
    disgorgement_check,
    no_conflict_check,
)
from .mdp import DiscountSpec, detect_preference_reversal, solve_exact

TOOL_NAME = "fidaudit"

DISCLAIMER = (
    "This report evaluates formal, machine-checkable conditions over the "
    "declared scenario. A clean result is a necessary signal, never a "
    "sufficient one: it is not legal advice and not a guarantee of "
    "compliance."
)

RUBRIC = {
    "context": "Which social context does the system operate in, and what purposes, roles and norms define it?",
    "identification": "Who are the principals, and how are multiple classes prioritized?",
    "assessment": "How are the principals' best interests assessed, and with what discounting?",
    "aggregation": "How are multiple principals' interests combined, and is the combination impartial?",
    "loyalty": "Is the system aligned with the principals' interests, including information-flow duties?",
    "care": "Does the system meet the context-appropriate standard of prudence?",
}

EXIT_CODES = {PASS: 0, WARN: 1, FAIL: 2}

# the C0 and C1 controls and the Unicode line and paragraph separators, each to its escape in a Python literal
_CONTROL_ESCAPES = {c: repr(chr(c))[1:-1] for c in (*range(0x20), *range(0x7F, 0xA0), 0x2028, 0x2029)}


def one_line(text: str) -> str:
    """``text`` with its control characters escaped (a newline as ``\\n``),
    so that a scenario string can neither break nor forge a line of output."""
    return text.translate(_CONTROL_ESCAPES)


def _finite(value: float) -> float:
    if math.isfinite(value):
        return float(value)
    raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")


def _jsonable(value: Any) -> Any:
    """``value`` in report form, built of JSON types only: lists and string
    keys. A number that is not finite is a ValueError: no JSON report can
    carry it."""
    if value is None or type(value) in (str, int, bool) or (type(value) is float and math.isfinite(value)):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (float, np.floating)):
        return _finite(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


def _fields(record, *omit: str) -> dict:
    """The fields of a record, less those named in ``omit``: a kernel's
    result (a NamedTuple or a namespace) as report evidence, or a method or
    check record the reader built as its kernel's keyword arguments."""
    fields = record._asdict() if isinstance(record, tuple) else vars(record)
    return {k: v for k, v in fields.items() if k not in omit}


def _verdict(check: str, ok: bool, evidence: dict, passed: str, failed: str, bad: str = FAIL) -> Finding:
    """PASS with detail ``passed`` when ``ok``, else ``bad`` with detail ``failed``."""
    return Finding(check, PASS if ok else bad, passed if ok else failed, evidence)


def _attempt(check: str, evidence: dict, run) -> list[Finding]:
    """The findings ``run()`` returns; if a library call rejects a value on
    the way, one FAIL for ``check`` with the error added to ``evidence``,
    and for an equilibrium search that revisited a profile, the cycle's
    period."""
    try:
        return run()
    except ValueError as exc:
        evidence = {**evidence, "error": str(exc)}
        if isinstance(exc, NoConvergence) and exc.period is not None:
            evidence["cycle_period"] = exc.period
        return [Finding(check, FAIL, str(exc), evidence)]


def _report_form(finding: Finding) -> Finding:
    """``finding`` with each evidence field in report form (``_jsonable``),
    or, when a field holds a non-finite number, a FAIL of its check that
    names those fields and keeps the others."""
    evidence, bad = {}, []
    for key, value in finding.evidence.items():
        try:
            evidence[key] = _jsonable(value)
        except ValueError:
            bad.append(key)
    if not bad:
        return Finding(finding.check, finding.status, finding.detail, evidence)
    error = f"non-finite number in evidence field(s) {', '.join(map(repr, bad))}"
    return Finding(finding.check, FAIL, error, {**evidence, "error": error})


# --- step 1: context -------------------------------------------------------------


def _run_context(context: ContextSpec, scenario: SimpleNamespace, state: SimpleNamespace) -> list[Finding]:
    findings = [
        Finding(
            "schema",
            PASS,
            f"context {context.name!r} declares "
            f"{len(context.purposes)} purpose(s), "
            f"{len(context.roles)} role(s), "
            f"{len(context.norms)} norm(s)",
            {
                "purposes": context.purposes,
                "roles": [r.id for r in context.roles],
                "care_standard": context.care_standard,
            },
        )
    ]
    checkable = [n for n in context.norms if n.required_binding_keys()]  # loading checks the keys are bound
    if context.norms:
        findings.append(
            Finding(
                "norm-bindings",
                PASS,
                f"{len(checkable)} of {len(context.norms)} norm(s) bound to model nodes",
                {
                    "machine_checkable": [
                        f"{n.transmission_principle}:{n.attribute}" for n in checkable
                    ]
                },
            )
        )
    if context.subsidiary_duties:
        findings.append(
            Finding(
                "subsidiary-duties",
                PASS,
                f"{len(context.subsidiary_duties)} catalog dut(ies) declared",
                {"keys": context.subsidiary_duties},
            )
        )
    return findings


# --- step 2: identification ---------------------------------------------------------


def _run_identification(
    principals: tuple[PrincipalClassSpec, ...], scenario: SimpleNamespace, state: SimpleNamespace
) -> list[Finding]:
    declared = {"declared": [c.class_id for c in principals]}
    return _attempt(
        "principal-classes", declared, lambda: _principal_classes(identify_principals(principals), state)
    )


def _principal_classes(ordered: tuple[PrincipalClassSpec, ...], state: SimpleNamespace) -> list[Finding]:
    state.best_classes = tuple(c for c in ordered if c.relationship == BEST_INTERESTS)
    obedience = [c.class_id for c in ordered if c.relationship != BEST_INTERESTS]
    findings = [
        Finding(
            "principal-classes",
            PASS,
            "principal classes ordered by priority",
            {
                "order": [
                    {"class_id": c.class_id, "rank": c.rank, "relationship": c.relationship}
                    for c in ordered
                ]
            },
        )
    ]
    if obedience:
        findings.append(
            Finding(
                "obedience-classes",
                PASS,
                "obedience-model classes are excluded from alignment targets "
                "(consent alone does not make a principal)",
                {"excluded": obedience},
            )
        )
    return findings


# --- step 3: assessment ----------------------------------------------------------------


def _run_one_method(method: SimpleNamespace, scenario: SimpleNamespace, state: SimpleNamespace) -> Finding:
    """One assessment method's finding. Every method that runs passes, except a
    feasibility probe whose sampled rewards fail the set's own membership test."""
    mdp = scenario.world.mdp
    if method.kind == "prudent_investor":
        portfolio = prudent_investor_weights(**_fields(method, "kind"))
        state.ran.add("prudent_investor_weights")
        return Finding("prudent-investor", PASS, "mean-variance template solved in closed form", _fields(portfolio))
    if method.kind == "discount_inference":
        posterior = infer_discount(mdp, **_fields(method, "kind"))
        argmax = max(posterior, key=posterior.get)
        return Finding(
            "discount-inference",
            PASS,
            f"posterior over {len(method.beta_grid)} candidate discounts peaks at {argmax}",
            {"posterior": posterior, "argmax": argmax},
        )
    if method.kind == "maxent_irl":
        estimate = maxent_irl(mdp, **_fields(method, "kind"))
        greedy = solve_exact(mdp.with_reward(estimate.table), method.beta).policy.tolist()
        return Finding(
            "behavior-irl",
            PASS,
            "reward fitted to demonstrations (policy equivalence is the "
            "criterion; the reward itself is underdetermined)",
            {
                **_fields(estimate, "table", "log_likelihood"),
                "greedy_policy": {s: mdp.actions[a] for s, a in zip(mdp.states, greedy)},
            },
        )
    if method.kind == "preference_fit":
        estimate = fit_preference_reward(**_fields(method, "kind"))
        return Finding(
            "preference-fit",
            PASS,
            f"pairwise-choice model fitted to {len(method.comparisons)} judgment(s)",
            _fields(estimate),
        )
    if method.kind == "feasibility_probe":
        feasible = feasible_rewards_irl(mdp, method.policy, beta=method.beta, bound=method.bound)
        draws = np.random.default_rng(0)  # fixed: the samples test the kernel, not the scenario
        verified = all(feasible.contains(feasible.sample(draws)) for _ in range(method.samples))
        return _verdict(
            "reward-feasibility",
            verified,
            {
                "zero_reward_feasible": feasible.zero_reward_feasible,
                "constraints": feasible.constraint_matrix.shape[0],
                "samples_verified": verified,
            },
            "observed behavior is consistent with infinitely many rewards, "
            "including the zero reward; behavior alone cannot pin interests down",
            "a reward sampled from the feasible set fails the set's own membership test",
        )
    if method.kind == "patient_advice":
        advice = patient_recommendation(mdp, **_fields(method, "kind"))
        divergent = advice.divergent_states.tolist()
        return Finding(
            "patient-advice",
            PASS,
            f"advice at patience {method.beta_advice} diverges from the "
            f"fitted discount in {len(divergent)} state(s)",
            {
                "divergent_states": [mdp.states[i] for i in divergent],
                "advised": {mdp.states[i]: mdp.actions[advice.policy[i]] for i in divergent},
                "fitted": {mdp.states[i]: mdp.actions[advice.fitted_policy[i]] for i in divergent},
            },
        )
    spec = DiscountSpec(**method.discount)  # preference reversal
    report = detect_preference_reversal(spec, method.early, method.late, method.horizon)
    detail = (
        f"time inconsistency: preference flips at epoch {report.reversal_epoch}"
        if report.reversed
        else "no preference reversal over the horizon"
    )
    return Finding("time-consistency", PASS, detail, _fields(report))


def _run_assessment(
    methods: tuple[SimpleNamespace, ...], scenario: SimpleNamespace, state: SimpleNamespace
) -> list[Finding]:
    findings: list[Finding] = []
    for i, method in enumerate(methods):
        findings += _attempt(f"method[{i}]", {"kind": method.kind}, lambda: [_run_one_method(method, scenario, state)])
    return findings


# --- step 4: aggregation -----------------------------------------------------------------


def _run_aggregation(doc: SimpleNamespace, scenario: SimpleNamespace, state: SimpleNamespace) -> list[Finding]:
    findings: list[Finding] = []

    if doc.method == "approval":
        # loading rejects ballots that approve undeclared options
        result = approval_winners(doc.ballots, doc.options)
        state.aggregate_utility = {o: float(c) for o, c in result.counts.items()}
        findings.append(
            Finding(
                "approval",
                PASS,
                f"{len(result.winners)} co-winner(s) by approval count"
                + (" (tie surfaced, not broken)" if result.tied else ""),
                _fields(result),
            )
        )
    elif doc.method is not None:
        class_ids = [c.class_id for c in state.best_classes]
        missing = [c for c in class_ids if c not in doc.utilities]
        if not class_ids:
            findings.append(
                Finding(
                    "principal-selection",
                    FAIL,
                    "no best-interests classes available to aggregate "
                    "(identification step did not supply any)",
                    {"declared_utilities": sorted(doc.utilities)},
                )
            )
        elif missing:
            findings.append(
                Finding(
                    "principal-selection",
                    FAIL,
                    "utilities missing for best-interests class(es)",
                    {"missing": missing},
                )
            )
        else:
            rows = [doc.utilities[c] for c in class_ids]  # highest priority first
            weights = [(doc.weights or {}).get(c, 1.0) for c in class_ids]
            state.aggregate_utility = {
                o: sum(w * row[j] for w, row in zip(weights, rows)) for j, o in enumerate(doc.options)
            }
            if doc.method == "pareto":
                front = pareto_front(doc.options, rows)
                findings.append(
                    Finding(
                        "pareto-front",
                        PASS,
                        f"{len(front)} non-dominated option(s) (partial order preserved)",
                        {"front": front},
                    )
                )
            else:
                choice = lexicographic_select(doc.options, rows)
                findings.append(
                    Finding(
                        "lexicographic",
                        PASS,
                        f"selected {choice.option!r} by priority order"
                        + (" (index tie-break applied and flagged)" if choice.tie_break_applied else ""),
                        _fields(choice),
                    )
                )

    if doc.weights is not None:
        findings += _attempt("impartiality", {}, lambda: [_impartiality(doc)])
    if doc.probe is not None:
        findings += _attempt("manipulation-probe", {}, lambda: [_manipulation_probe(doc.probe)])
    return findings


def _impartiality(doc: SimpleNamespace) -> Finding:
    verdict = impartiality_check(
        doc.weights,
        agent=doc.agent_id,
        favored=doc.favored,
        cap=doc.favoritism_cap,
    )
    return _verdict(
        "impartiality",
        verdict.passed,
        {"weights": doc.weights} if verdict.passed else _fields(verdict, "passed"),
        "no self-interest weight; unequal principal weights are permitted",
        "aggregation weights violate impartiality",
    )


def _manipulation_probe(probe: SimpleNamespace) -> Finding:
    rule = VotingRule(probe.rule, dictator_voter=probe.dictator_voter)
    instance = find_manipulation(rule, probe.voters, probe.options)
    return _verdict(
        "manipulation-probe",
        instance is None,
        {"rule": probe.rule, "voters": probe.voters, "options": probe.options}
        if instance is None
        else _fields(instance),
        f"no profitable misreport exists for {probe.rule} at this size",
        f"rule {probe.rule!r} admits insincere-ballot manipulation; "
        "prefer approval or partial-order aggregation",
        bad=WARN,
    )


# --- step 5: loyalty ---------------------------------------------------------------------


def _run_loyalty(doc: SimpleNamespace, scenario: SimpleNamespace, state: SimpleNamespace) -> list[Finding]:
    if doc.from_aggregation and state.aggregate_utility is None:
        return [
            Finding(
                "section",
                SKIPPED,
                "loyalty requires the aggregation step's output "
                "(aggregated_principal = from_aggregation) but it is unavailable",
            )
        ]

    findings: list[Finding] = []
    tables = dict(doc.tables)  # role -> row in doc.outcomes order
    if doc.from_aggregation:  # loading checks the outcomes are the aggregation options
        tables["aggregated_principal"] = tuple(state.aggregate_utility[o] for o in doc.outcomes)

    def order_check(check: str, run, first: str, second: str, passed: str, failed: str, evidence=None) -> list[Finding]:
        """``run``'s verdict on two declared tables as ``check``, with
        ``evidence`` if it holds (default: the witnesses); none if undeclared."""
        if first not in tables or second not in tables:
            return []
        verdict = run(doc.outcomes, tables[first], tables[second])
        if not verdict.aligned or evidence is None:
            evidence = _fields(verdict, "aligned")
        return [_verdict(check, verdict.aligned, evidence, passed, failed)]

    # 5a. no-conflict rule: system objective vs aggregated principal interests
    def no_conflict() -> list[Finding]:
        verdict = order_check(
            "no-conflict", no_conflict_check, "system_objective", "aggregated_principal",
            "system objective preserves the aggregated preference order",
            "system objective reverses aggregated principal preferences",
            {"outcomes": doc.outcomes},
        )
        if verdict:
            state.ran.add("no_conflict_check")
        return verdict

    # an aggregate that overflows is the no-conflict check's FAIL
    findings += _attempt("no-conflict", {"outcomes": doc.outcomes}, no_conflict)
    # 5b. alignment and disgorgement over declared role tables
    findings += order_check(
        "alignment", alignment_check, "principal_true", "agent_fiduciary",
        "fiduciary-conditioned utility preserves principal preferences "
        "(a sufficient condition, not a necessary one)",
        "fiduciary-conditioned utility reverses principal preferences",
    )
    findings += order_check(
        "disgorgement", disgorgement_check, "agent_nonfiduciary", "agent_fiduciary",
        "no profit direction of the unconditioned utility survives",
        "the agent still profits where it would have absent the duty",
    )

    # 5c. information-flow norms from the context, with the tension rule
    norms = list(scenario.context.norms) if scenario.context else []
    conf_norms = [n for n in norms if n.transmission_principle == CONFIDENTIALITY]  # loading checks the bindings
    disc_norms = [n for n in norms if n.transmission_principle == DISCLOSURE]
    tensions = [
        (c, d)
        for c in conf_norms
        for d in disc_norms
        if c.binding["report_node"] == d.binding["report_node"]
        and c.binding["secret_node"] == d.binding["material_node"]
    ]
    findings += [
        Finding(
            "norm-tension",
            WARN,
            "confidentiality and disclosure duties are declared over the "
            "same report and the same variable; the duties conflict and "
            "no verdict is issued for either",
            {"report_node": c.binding["report_node"], "variable": c.binding["secret_node"]},
        )
        for c, _ in tensions
    ]
    conflicted = {id(n) for pair in tensions for n in pair}
    for norm in conf_norms + disc_norms:
        if id(norm) in conflicted:
            continue
        label = f"{norm.transmission_principle}:{norm.attribute}"
        if scenario.world.profile is None:  # loading checks bound node ids against world.macid
            findings.append(
                Finding(
                    label,
                    FAIL,
                    "bound norm cannot be audited: scenario declares no decision "
                    "profile for the influence model",
                    {"binding": norm.binding},
                )
            )
            continue
        findings += _attempt(
            label, {"binding": norm.binding}, lambda: [_information_flow(norm, label, scenario, state)]
        )

    # 5d. attestations and loyalty-duty coverage
    for key, att in doc.attestations.items():
        findings.append(
            _verdict(
                f"attestation:{key}",
                att.attested,
                {"duty": key},
                att.note or "attested",
                att.note or "attestation refused",
            )
        )
    duties = scenario.context.subsidiary_duties if scenario.context else ()
    for key in duties:
        entry = duty_entry(key)
        if entry.kind != "loyalty":
            continue  # care and both route to the care step
        covered, how = _duty_covered(
            entry, state, doc.attestations, "expected an attestation entry"
        )
        if not covered:
            findings.append(
                Finding(
                    f"duty:{key}",
                    WARN,
                    f"declared loyalty duty has no supporting evidence ({how})",
                    {"duty": key, "binding": entry.binding},
                )
            )
    return findings


def _information_flow(norm, label: str, scenario: SimpleNamespace, state: SimpleNamespace) -> Finding:
    """The verdict on one bound confidentiality or disclosure norm."""
    model, profile, binding = scenario.world.macid, scenario.world.profile, norm.binding
    if norm.transmission_principle == CONFIDENTIALITY:
        verdict = confidentiality_check(
            model, profile, binding["report_node"], binding["secret_node"], tol=state.tol
        )
        state.ran.add("confidentiality_check")
        return _verdict(
            label,
            verdict.passed,
            _fields(verdict, "passed"),
            "report carries no information about the secret",
            "report leaks information about the secret",
        )
    verdict = disclosure_check(
        model,
        profile,
        binding["report_node"],
        binding["material_node"],
        binding["principal_decision"],
        tol=state.tol,
    )
    state.ran.add("disclosure_check")
    return _verdict(
        label,
        verdict.passed,
        _fields(verdict, "passed", "note"),
        "material information flows and communicating does not hurt "
        "the principal (sufficient conditions only)"
        if verdict.material
        else f"vacuous: {verdict.note}",
        verdict.note or "principal does worse than the silent baseline",
    )


_OPERATION_EVIDENCE = {
    "prudent_investor_weights": "expected a prudent-investor assessment method",
    "confidentiality_check": "expected a bound confidentiality norm",
    "disclosure_check": "expected a bound disclosure norm",
    "no_conflict_check": "expected the no-conflict check to run",
}


def _duty_covered(
    entry, state: SimpleNamespace, evidence: Collection[str], expected: str
) -> tuple[bool, str]:
    """Whether the audit evidenced a declared catalog duty, and the evidence it
    expects: the automated check the duty binds to, else ``expected``, an
    entry of ``evidence`` named by the duty key."""
    operation = entry.automated_operation()
    if operation in _OPERATION_EVIDENCE:
        return operation in state.ran, _OPERATION_EVIDENCE[operation]
    return entry.key in evidence, expected


# --- step 6: care ------------------------------------------------------------------------


def _run_care(doc: SimpleNamespace, scenario: SimpleNamespace, state: SimpleNamespace) -> list[Finding]:
    known = set(BUILTIN_STANDARDS)
    if scenario.context is not None and scenario.context.care_standard:
        known.add(scenario.context.care_standard)

    computed: list[Finding] = []
    for entry in doc.checks:
        computed += _attempt(entry.name, {}, lambda: [_care_check(entry)])

    # declared subsidiary duties of care (or both) must be evidenced too
    duties = scenario.context.subsidiary_duties if scenario.context else ()
    check_names = {f.check for f in computed}
    for key in duties:
        entry = duty_entry(key)
        if entry.kind == "loyalty":
            continue
        covered, expected = _duty_covered(
            entry, state, check_names, "expected an attestation check named by the duty key"
        )
        computed.append(
            _verdict(
                f"duty:{key}",
                covered,
                {"duty": key},
                "covered",
                f"declared care duty has no evidence ({expected})",
            )
        )

    return prudence_report(doc.standard, list(doc.declared_checks), computed, known_standards=frozenset(known))


def _care_check(entry: SimpleNamespace) -> Finding:
    if entry.kind == "inductive_bias":
        diagnostic = inductive_bias_diagnostic(**_fields(entry, "kind", "name"))
        note = diagnostic.rationale
        if diagnostic.degenerate_prior:
            note = (note + "; " if note else "") + "degenerate prior pins the posterior"
        return _verdict(
            entry.name,
            not (diagnostic.prior_dominated or diagnostic.degenerate_prior),
            _fields(diagnostic, "rationale"),
            "check passed",
            note,
            bad=WARN,
        )
    if entry.kind == "distribution_shift":
        score = distribution_shift_score(**_fields(entry, "kind", "name"))
        return _verdict(
            entry.name,
            not score.absolute_continuity_violation,
            {"violating_points": score.violating_points}
            if score.absolute_continuity_violation
            else {"kl_nats": score.kl_nats},
            "check passed",
            "deployment puts mass where training had none; divergence is unbounded",
            bad=WARN,
        )
    return _verdict(  # attestation
        entry.name,
        entry.attested,
        {"attested": entry.attested},
        entry.note or "check passed",
        entry.note or "check did not pass",
    )


# --- entry points --------------------------------------------------------------------------

# step -> (the scenario section it audits, its runner)
_STEPS = {
    "context": ("context", _run_context),
    "identification": ("principals", _run_identification),
    "assessment": ("assessment", _run_assessment),
    "aggregation": ("aggregation", _run_aggregation),
    "loyalty": ("loyalty", _run_loyalty),
    "care": ("care", _run_care),
}


def _run_step(step: str, scenario: SimpleNamespace, state: SimpleNamespace) -> SimpleNamespace:
    """One step's record (``step``, ``status``, ``findings``): an omitted
    section skips the step, a section that yields no finding warns, a step
    that raises is one ``step-error`` Fail, not an abort, and each
    finding's evidence is put in report form, a field with a non-finite
    number making it a Fail of its check (``_report_form``)."""
    section, runner = _STEPS[step]
    doc = getattr(scenario, section)
    if doc is None:
        findings = [Finding("section", SKIPPED, f"scenario omits the {section} section")]
    else:
        try:
            findings = runner(doc, scenario, state) or [
                Finding("section", WARN, f"{step} section declares nothing to run")
            ]
        except Exception as exc:  # noqa: BLE001 - the audit must outlive any one step
            findings = [
                Finding(
                    "step-error",
                    FAIL,
                    f"step raised {type(exc).__name__}: {exc}",
                    {"error_type": type(exc).__name__, "error": str(exc)},
                )
            ]
    findings = [_report_form(f) for f in findings]
    return SimpleNamespace(step=step, status=worst(f.status for f in findings), findings=findings)


def run_audit(scenario: SimpleNamespace, tol: float = INFO_TOL) -> SimpleNamespace:
    """Execute all six steps in order and assemble the report.

    ``tol`` is the information-flow zero threshold, recorded in the report.
    The report's attributes are ``scenario_id``, ``scenario_version``,
    ``digest``, ``tolerance``, ``steps`` (one record per step, in order,
    with its ``step``, ``status`` and ``findings``) and ``overall``.
    """
    # the state the steps thread through: later steps read what earlier ones set
    state = SimpleNamespace(
        tol=tol,
        best_classes=(),  # set by identification
        aggregate_utility=None,  # option -> utility, set once aggregation has run
        ran=set(),  # automated operations that ran, read by _duty_covered
    )
    steps = [_run_step(step, scenario, state) for step in _STEPS]
    return SimpleNamespace(
        scenario_id=scenario.scenario_id,
        scenario_version=scenario.version,
        digest=scenario.digest,
        tolerance=tol,
        steps=steps,
        overall=worst(WARN if record.status == SKIPPED else record.status for record in steps),
    )


# JSON text by exact type; a subclass takes its base's, tried in the stdlib encoder's order (no bool subclass exists)
_SCALAR_TEXT = {str: encode_basestring_ascii, int: int.__repr__, bool: ("false", "true").__getitem__}
_SCALAR_TEXT[type(None)] = lambda _: "null"
_SCALAR_TEXT[float] = lambda v: float.__repr__(v) if math.isfinite(v) else _finite(v)  # _finite raises


def _write(value: Any, indent: str, out: list[str]) -> list[str]:
    """``out`` with the text of ``json.dumps(value, sort_keys=True, indent=2, allow_nan=False)`` appended,
    ``indent`` being the newline and indentation of ``value``'s level; what JSON cannot carry is a ValueError."""
    is_list = type(value) is list or type(value) is tuple
    if not is_list and type(value) is not dict:
        text = _SCALAR_TEXT.get(type(value)) or next((t for b, t in _SCALAR_TEXT.items() if isinstance(value, b)), None)
        if text is not None:
            out.append(text(value))
            return out
        is_list = isinstance(value, (list, tuple))
        if not is_list and not isinstance(value, dict):
            raise ValueError(f"Object of type {type(value).__name__} is not JSON compliant")
    inner = indent + "  "
    lead, sep = ("[" if is_list else "{") + inner, "," + inner  # before the first member, before each later one
    if is_list:
        for item in value:
            text = _SCALAR_TEXT.get(type(item))
            out.append(lead if text is None else lead + text(item))
            if text is None:
                _write(item, inner, out)
            lead = sep
        out.append((indent if value else "[") + "]")  # an empty list is []
        return out
    try:
        keys = sorted(value)
    except TypeError:  # keys of unlike types, so not all of them strings
        raise ValueError("dict keys other than str are not JSON compliant") from None
    for key in keys:
        if not isinstance(key, str):
            raise ValueError(f"dict keys other than str are not JSON compliant: {key!r}")
        text = _SCALAR_TEXT.get(type(value[key]))
        out.append(f"{lead}{encode_basestring_ascii(key)}: {'' if text is None else text(value[key])}")
        if text is None:
            _write(value[key], inner, out)
        lead = sep
    out.append((indent if value else "{") + "}")
    return out


def emit_report(report: SimpleNamespace, fmt: str = "text") -> str:
    """Render the report; identical reports render byte-identically.

    ``machine`` is canonical JSON for golden-file comparison, the bytes of ``json.dumps(...,
    sort_keys=True, indent=2, allow_nan=False)`` written in one pass: sorted keys, a two-space
    indent, ``": "`` and ``","`` separators, ASCII with ``\\uXXXX`` escapes, a trailing newline.
    Evidence is in report form (``_report_form``). ``text`` is a six-line summary plus one line per finding,
    each line with its control characters escaped (``one_line``).
    """
    if fmt == "machine":
        doc = {
            "tool": {"name": TOOL_NAME, "version": __version__},
            "scenario": {
                "id": report.scenario_id,
                "version": report.scenario_version,
                "digest": report.digest,
                "tolerance": report.tolerance,
            },
            "disclaimer": DISCLAIMER,
            "steps": [
                {
                    "step": record.step,
                    "status": record.status,
                    "rubric": RUBRIC[record.step],
                    "findings": [vars(f) for f in record.findings],
                }
                for record in report.steps
            ],
            "overall": report.overall,
        }
        return "".join(_write(doc, "\n", [])) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    lines = [
        f"{TOOL_NAME} {__version__} — scenario {report.scenario_id!r} "
        f"(version {report.scenario_version})",
        f"input digest: {report.digest}",
        f"note: {DISCLAIMER}",
        "",
    ]
    for i, record in enumerate(report.steps, start=1):
        lines.append(f"  {record.status.upper():<7} {i}. {record.step.capitalize()}")
        for finding in record.findings:
            lines.append(f"           - [{finding.status}] {finding.check}: {finding.detail}")
    lines.append("")
    lines.append(f"Overall: {report.overall.upper()} (exit code {EXIT_CODES[report.overall]})")
    return "\n".join(map(one_line, lines)) + "\n"
