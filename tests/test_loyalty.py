import itertools

import pytest

from fidaudit.errors import NodeKindMismatch, OutcomeSpaceMismatch, UnknownNode
from fidaudit.loyalty import (
    UtilityTable,
    alignment_check,
    confidentiality_check,
    disclosure_check,
    disgorgement_check,
    materiality_value,
    no_conflict_check,
)
from fidaudit.macid import Cpd, DecisionRule, Macid, Node, NodeKind

from helpers import disclosure_model, disclosure_profile, xor_model


def principal(values):
    return UtilityTable(values)


def fiduciary(values):
    return UtilityTable(values)


def nonfiduciary(values):
    return UtilityTable(values)


def objective(values):
    return UtilityTable(values)


# --- alignment_check -----------------------------------------------------


def test_order_preserving_tables_align():
    verdict = alignment_check(principal({"c1": 1, "c2": 0}), fiduciary({"c1": 2, "c2": 1}))
    assert verdict.aligned


def test_order_reversal_witnessed():
    verdict = alignment_check(principal({"c1": 1, "c2": 0}), fiduciary({"c1": 0, "c2": 1}))
    assert not verdict.aligned
    assert verdict.witnesses == (("c1", "c2"),)


def test_constant_principal_vacuously_aligned():
    verdict = alignment_check(principal({"c1": 5, "c2": 5}), fiduciary({"c1": -3, "c2": 9}))
    assert verdict.aligned


def test_outcome_space_mismatch():
    with pytest.raises(OutcomeSpaceMismatch):
        alignment_check(principal({"c1": 1}), fiduciary({"c2": 1}))


# --- disgorgement_check -----------------------------------------------------


def test_flat_fiduciary_passes_disgorgement():
    verdict = disgorgement_check(nonfiduciary({"c1": 1, "c2": 0}), fiduciary({"c1": 0, "c2": 0}))
    assert verdict.aligned


def test_persistent_profit_fails_disgorgement():
    verdict = disgorgement_check(nonfiduciary({"c1": 1, "c2": 0}), fiduciary({"c1": 5, "c2": 1}))
    assert not verdict.aligned
    assert ("c1", "c2") in verdict.witnesses


def test_constant_nonfiduciary_vacuous():
    verdict = disgorgement_check(nonfiduciary({"c1": 2, "c2": 2}), fiduciary({"c1": 9, "c2": 0}))
    assert verdict.aligned


# --- no_conflict_check ----------------------------------------------------------


def test_identical_objective_aligned():
    agg = {"c1": 1.0, "c2": 3.0}
    verdict = no_conflict_check(objective(dict(agg)), principal(agg))
    assert verdict.aligned


def test_constant_shift_aligned():
    agg = {"c1": 1.0, "c2": 3.0}
    shifted = {k: v + 10.0 for k, v in agg.items()}
    assert no_conflict_check(objective(shifted), principal(agg)).aligned


def test_reversed_top_pair_witnessed():
    agg = {"c1": 1.0, "c2": 3.0}
    reversed_obj = {"c1": 3.0, "c2": 1.0}
    verdict = no_conflict_check(objective(reversed_obj), principal(agg))
    assert not verdict.aligned
    assert ("c2", "c1") in verdict.witnesses


# --- brute-force oracle and invariances -------------------------------------------


def brute_force_pairs(premise, conclusion, holds):
    outcomes = sorted(premise)
    out = []
    for c1 in outcomes:
        for c2 in outcomes:
            if c1 != c2 and premise[c1] > premise[c2] and not holds(conclusion[c1], conclusion[c2]):
                out.append((c1, c2))
    return tuple(out)


def test_checks_match_pair_enumerator_on_random_tables(rng):
    for _ in range(300):
        size = int(rng.integers(2, 7))
        outcomes = [f"c{i}" for i in range(size)]
        a = {c: float(rng.integers(-3, 4)) for c in outcomes}
        b = {c: float(rng.integers(-3, 4)) for c in outcomes}
        align = alignment_check(principal(a), fiduciary(b))
        expected = brute_force_pairs(a, b, lambda x, y: x > y)
        assert align.witnesses == expected
        assert align.aligned == (not expected)
        dis = disgorgement_check(nonfiduciary(a), fiduciary(b))
        expected_d = brute_force_pairs(a, b, lambda x, y: x <= y)
        assert dis.witnesses == expected_d


def test_alignment_invariant_under_increasing_transform(rng):
    for _ in range(50):
        outcomes = [f"c{i}" for i in range(4)]
        a = {c: float(rng.uniform(-2, 2)) for c in outcomes}
        b = {c: float(rng.uniform(-2, 2)) for c in outcomes}
        base = alignment_check(principal(a), fiduciary(b))
        a_t = {c: 3.0 * v**3 + 2.0 for c, v in a.items()}  # strictly increasing
        b_t = {c: float(2.0 ** v) for c, v in b.items()}
        transformed = alignment_check(principal(a_t), fiduciary(b_t))
        assert transformed.aligned == base.aligned
        assert transformed.witnesses == base.witnesses


def test_joint_alignment_and_disgorgement_imply_principal_order(rng):
    # where both premises are strict, the fiduciary table must follow the
    # principal and never follow a strict raw-profit direction
    for _ in range(200):
        outcomes = [f"c{i}" for i in range(4)]
        u_b = {c: float(rng.integers(-2, 3)) for c in outcomes}
        u_f = {c: float(rng.integers(-2, 3)) for c in outcomes}
        u_n = {c: float(rng.integers(-2, 3)) for c in outcomes}
        if not alignment_check(principal(u_b), fiduciary(u_f)).aligned:
            continue
        if not disgorgement_check(nonfiduciary(u_n), fiduciary(u_f)).aligned:
            continue
        for c1, c2 in itertools.permutations(outcomes, 2):
            if u_b[c1] > u_b[c2]:
                assert u_f[c1] > u_f[c2]
                # a strict raw-profit direction on the same pair would make
                # the two passed checks contradict each other
                assert not u_n[c1] > u_n[c2]


# --- confidentiality_check ---------------------------------------------------------


def test_constant_report_is_confidential():
    model = disclosure_model()
    profile = disclosure_profile(model, copying=False)
    verdict = confidentiality_check(model, profile, "R_a", "C")
    assert verdict.passed
    assert verdict.mutual_information_bits == pytest.approx(0.0, abs=1e-12)


def test_copying_report_leaks_one_bit():
    model = disclosure_model()
    profile = disclosure_profile(model, copying=True)
    verdict = confidentiality_check(model, profile, "R_a", "C")
    assert not verdict.passed
    assert verdict.mutual_information_bits == pytest.approx(1.0)


def test_xor_masked_report_is_confidential():
    # report = secret xor independent uniform bit; chance-only model
    model = xor_model()
    verdict = confidentiality_check(model, {}, "R", "S")
    assert verdict.passed
    assert verdict.mutual_information_bits == pytest.approx(0.0, abs=1e-12)


def test_confidentiality_tolerates_admitted_negative_probability():
    # the rule row (1 + 5e-10, -5e-10) passes validation within PROB_TOL;
    # its negative cell carries no mass in the information sum
    model = Macid(
        nodes=(
            Node("S", NodeKind.CHANCE, domain=("0", "1")),
            Node("R", NodeKind.DECISION, owner="a", domain=("0", "1")),
            Node("U", NodeKind.UTILITY, owner="a"),
        ),
        edges={"S": (), "R": ("S",), "U": ("R",)},
        cpds={"S": Cpd("S", {(): (1 - 1e-12, 1e-12)})},
        utilities={"U": {("0",): 0.0, ("1",): 1.0}},
        agents=("a",),
    )
    rule = DecisionRule("R", {("0",): (1 + 5e-10, -5e-10), ("1",): (0.5, 0.5)})
    verdict = confidentiality_check(model, {"R": rule}, "R", "S")
    assert verdict.passed
    assert abs(verdict.mutual_information_bits) < 1e-9


def test_confidentiality_verdict_invariant_to_relabeling():
    model = disclosure_model()
    profile = disclosure_profile(model, copying=True)
    base = confidentiality_check(model, profile, "R_a", "C")
    # swap the roles of the two domain values in the report rule
    flipped = dict(profile)
    flipped["R_a"] = DecisionRule.deterministic(model, "R_a", {("0",): "1", ("1",): "0"})
    relabeled = confidentiality_check(model, flipped, "R_a", "C")
    assert relabeled.passed == base.passed
    assert relabeled.mutual_information_bits == pytest.approx(base.mutual_information_bits)


def test_confidentiality_unknown_node():
    model = disclosure_model()
    with pytest.raises(UnknownNode):
        confidentiality_check(model, disclosure_profile(model), "R_a", "ghost")


# --- disclosure_check -----------------------------------------------------------------


def test_materiality_measured_with_report_silenced():
    model = disclosure_model()
    assert materiality_value(model, "R_a", "C", "B_b") == pytest.approx(0.5, abs=1e-9)


def test_copying_report_discloses():
    model = disclosure_model()
    verdict = disclosure_check(model, disclosure_profile(model), "R_a", "C", "B_b")
    assert verdict.passed
    assert verdict.material
    assert verdict.information_bits == pytest.approx(1.0)
    assert verdict.principal_utility == pytest.approx(1.0)
    assert verdict.silent_baseline == pytest.approx(0.5)


def test_disclosure_report_node_must_be_a_decision():
    model = disclosure_model()
    with pytest.raises(NodeKindMismatch):
        disclosure_check(model, disclosure_profile(model), "C", "C", "B_b")


def test_muted_report_fails_disclosure():
    model = disclosure_model()
    verdict = disclosure_check(
        model, disclosure_profile(model, copying=False), "R_a", "C", "B_b"
    )
    assert not verdict.passed
    assert verdict.material
    assert verdict.information_bits == pytest.approx(0.0, abs=1e-12)


def test_immaterial_node_passes_vacuously():
    # principal's utility ignores C entirely
    model = disclosure_model()
    flat = {k: 1.0 for k in model.utilities["U_b"]}
    from fidaudit.macid import Macid

    indifferent = Macid(
        nodes=model.nodes,
        edges=model.edges,
        cpds=model.cpds,
        utilities={"U_a": model.utilities["U_a"], "U_b": flat},
        agents=model.agents,
    )
    verdict = disclosure_check(
        indifferent, disclosure_profile(indifferent, copying=False), "R_a", "C", "B_b"
    )
    assert verdict.passed
    assert not verdict.material
    assert "not material" in verdict.note
