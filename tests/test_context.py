import pytest

from fidaudit.context import (
    ContextSpec,
    Norm,
    PrincipalClassSpec,
    Role,
    best_interest_classes,
    catalog_labels,
    catalog_lookup,
    duty_entry,
    identify_principals,
    validate_context,
)


def minimal_context(**overrides):
    base = dict(
        name="advice-channel",
        purposes=("give accurate decision-relevant advice",),
        roles=(Role("adviser"), Role("client")),
        norms=(),
        care_standard="prudent-adviser",
        subsidiary_duties=(),
    )
    base.update(overrides)
    return ContextSpec(**base)


# --- validate_context --------------------------------------------------------


def test_minimal_spec_valid():
    assert validate_context(minimal_context()) == []


def test_norm_with_undeclared_role():
    norm = Norm("adviser", "stranger", "client", "status", "attestation:notice")
    violations = validate_context(minimal_context(norms=(norm,)))
    assert any(path == "norms[0].receiver" for path, _ in violations)


def test_duplicate_role_ids_reported_with_positions():
    spec = minimal_context(roles=(Role("adviser"), Role("adviser")))
    violations = validate_context(spec)
    assert any(path == "roles[1].id" and "roles[0]" in message for path, message in violations)


def test_unbound_confidentiality_norm_flagged():
    norm = Norm("adviser", "client", "client", "secret", "confidentiality")
    violations = validate_context(minimal_context(norms=(norm,)))
    assert any(path == "norms[0].binding" for path, _ in violations)


def test_each_norm_principle_gets_its_own_message():
    norms = (
        Norm("adviser", "client", "client", "a", "gossip"),
        Norm("adviser", "client", "client", "b", "disclosure", {"report_node": "R", "principal_decision": "B"}),
        Norm("adviser", "client", "client", "c", "attestation:notice"),
        Norm("adviser", "client", "client", "d", "attestation"),
    )
    assert validate_context(minimal_context(norms=norms)) == [
        ("norms[0].transmission_principle", "unknown principle 'gossip'"),
        ("norms[1].binding", "disclosure norms must bind node ids to be checkable; missing ['material_node']"),
        ("norms[3].transmission_principle", "unknown principle 'attestation'"),
    ]


def test_bound_disclosure_norm_passes():
    norm = Norm(
        "adviser",
        "client",
        "client",
        "market state",
        "disclosure",
        binding={"report_node": "R", "material_node": "C", "principal_decision": "B"},
    )
    assert validate_context(minimal_context(norms=(norm,))) == []


def test_unknown_duty_key_flagged():
    violations = validate_context(minimal_context(subsidiary_duties=("astrology/stars",)))
    assert any(path == "subsidiary_duties[0]" for path, _ in violations)


def test_validate_is_pure():
    spec = minimal_context()
    assert validate_context(spec) == validate_context(spec)


# --- identify_principals ---------------------------------------------------------


def test_priority_order_and_models():
    classes = [
        PrincipalClassSpec("operators", "adviser", 2, "obedience"),
        PrincipalClassSpec("patients", "client", 1, "best_interests"),
    ]
    ordered = identify_principals(classes)
    assert [c.class_id for c in ordered] == ["patients", "operators"]
    assert [c.class_id for c in best_interest_classes(classes)] == ["patients"]


def test_single_class():
    classes = [PrincipalClassSpec("clients", "client", 1, "best_interests")]
    assert identify_principals(classes)[0].class_id == "clients"


def test_non_contiguous_ranks_rejected():
    classes = [
        PrincipalClassSpec("a", "client", 1, "best_interests"),
        PrincipalClassSpec("b", "adviser", 3, "obedience"),
    ]
    with pytest.raises(ValueError, match=r"ranks must be contiguous from 1, got \[1, 3\]"):
        identify_principals(classes)


def test_all_obedience_rejected():
    classes = [PrincipalClassSpec("ops", "adviser", 1, "obedience")]
    with pytest.raises(ValueError, match="at least one class must use the best-interests model"):
        identify_principals(classes)


def test_identification_is_stable_permutation():
    classes = [
        PrincipalClassSpec("c", "client", 3, "obedience"),
        PrincipalClassSpec("a", "client", 1, "best_interests"),
        PrincipalClassSpec("b", "adviser", 2, "best_interests"),
    ]
    ordered = identify_principals(classes)
    assert sorted(c.class_id for c in ordered) == ["a", "b", "c"]
    assert [c.rank for c in ordered] == [1, 2, 3]


# --- catalog ------------------------------------------------------------------------


EXPECTED_LABELS = (
    "Trusts",
    "Corporate management",
    "Investment advice",
    "Legal representation",
    "Health care",
    "Data Intermediaries",
    "Data Processors",
    "AI Assistants",
)


def test_catalog_labels_complete():
    assert catalog_labels() == EXPECTED_LABELS


def test_catalog_row_counts_round_trip():
    counts = {label: len(catalog_lookup(label)) for label in EXPECTED_LABELS}
    assert counts == {
        "Trusts": 5,
        "Corporate management": 5,
        "Investment advice": 3,
        "Legal representation": 3,
        "Health care": 2,
        "Data Intermediaries": 6,
        "Data Processors": 12,
        "AI Assistants": 4,
    }
    all_keys = [e.key for label in EXPECTED_LABELS for e in catalog_lookup(label)]
    assert len(all_keys) == len(set(all_keys)) == 40


def test_information_flow_flags():
    flagged = {
        e.key
        for label in EXPECTED_LABELS
        for e in catalog_lookup(label)
        if e.information_flow
    }
    assert flagged == {
        "trusts/giving-account-to-beneficiaries",
        "trusts/record-keeping",
        "corporate-management/boardroom-confidentiality",
        "corporate-management/disclosure-to-shareholders",
        "investment-advice/keeping-books-and-records",
        "legal-representation/safeguarding-the-clients-confidences",
        "legal-representation/communication-with-the-client",
        "health-care/confidentiality",
        "health-care/informed-consent",
        "data-intermediaries/security-and-confidentiality",
        "data-intermediaries/notice-of-data-uses",
        "data-processors/proper-disposal",
        "data-processors/data-records",
        "data-processors/proper-security-practices",
        "ai-assistants/clearly-indicate-potential-conflicts",
        "ai-assistants/adequate-requests-of-user-input",
    }


def test_health_care_entries():
    entries = {e.duty: e for e in catalog_lookup("Health care")}
    assert entries["Confidentiality"].kind == "loyalty"
    assert entries["Confidentiality"].information_flow
    assert entries["Informed consent"].kind == "both"
    assert entries["Informed consent"].information_flow


def test_trusts_prudent_investor_under_care():
    entries = {e.duty: e for e in catalog_lookup("Trusts")}
    rule = entries["Prudent investor rule"]
    assert rule.kind == "care"
    assert rule.automated_operation() == "prudent_investor_weights"
    assert not rule.speculative


def test_speculative_contexts_flagged():
    for label in ("Data Intermediaries", "Data Processors", "AI Assistants"):
        assert all(e.speculative for e in catalog_lookup(label))
    for label in ("Trusts", "Health care"):
        assert all(not e.speculative for e in catalog_lookup(label))


def test_unknown_label_suggests_nearest():
    with pytest.raises(ValueError, match="^unknown context label 'Astrology'$"):
        catalog_lookup("Astrology")
    with pytest.raises(ValueError, match="did you mean 'Health care'\\?$"):
        catalog_lookup("Health carr")


def test_duty_entry_lookup():
    entry = duty_entry("data-processors/eliminate-dark-patterns")
    assert entry.area == "Influence"
    assert entry.kind == "loyalty"
