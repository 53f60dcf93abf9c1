import itertools
import math

import numpy as np
import pytest

from fidaudit import macid
from fidaudit.errors import NoConvergence
from fidaudit.loyalty import (
    alignment_check,
    confidentiality_check,
    disclosure_check,
    disgorgement_check,
    materiality_value,
    no_conflict_check,
)
from fidaudit.macid import Macid, Node, NodeKind, deterministic_rule, marginal, mutual_information

from helpers import disclosure_model, disclosure_profile, match_table, xor_model
from test_macid import _random_influence_model


OUTCOMES = ("c1", "c2")


# --- alignment_check -----------------------------------------------------


def test_order_preserving_tables_align():
    assert alignment_check(OUTCOMES, [1, 0], [2, 1]).aligned


def test_order_reversal_witnessed():
    verdict = alignment_check(OUTCOMES, [1, 0], [0, 1])
    assert not verdict.aligned
    assert verdict.witnesses == (("c1", "c2"),)


def test_constant_principal_vacuously_aligned():
    assert alignment_check(OUTCOMES, [5, 5], [-3, 9]).aligned


def test_outcome_space_mismatch():
    # each row holds one entry per declared outcome; rows are numbered in argument order
    with pytest.raises(ValueError, match=r"utility row 1 has 1 entries, expected one per outcome \(2\)"):
        alignment_check(OUTCOMES, [1, 0], [1])
    with pytest.raises(ValueError, match=r"utility row 0 has 3 entries, expected one per outcome \(2\)"):
        no_conflict_check(OUTCOMES, [1, 0, 2], [1, 0])


@pytest.mark.parametrize("check", [alignment_check, disgorgement_check, no_conflict_check])
def test_table_checks(check):
    # the shared rows check of the aggregation rules, rows numbered in argument order
    with pytest.raises(ValueError, match="need at least one outcome"):
        check((), (), ())
    with pytest.raises(ValueError, match="duplicate outcome ids"):
        check(("c1", "c1"), [1, 0], [0, 1])
    with pytest.raises(ValueError, match="utility of row 0 for outcome 'c2' is not finite"):
        check(OUTCOMES, [1, math.inf], [0, 1])
    with pytest.raises(ValueError, match="utility of row 1 for outcome 'c1' is not finite"):
        check(OUTCOMES, [1, 0], [math.nan, 1])


def test_witnesses_follow_the_declared_outcome_order():
    # outcomes declared unsorted: pairs come in declared position order
    outcomes = ("zeta", "alpha", "mid")
    premise, reversed_rows = [3.0, 2.0, 1.0], [1.0, 2.0, 3.0]
    want = (("zeta", "alpha"), ("zeta", "mid"), ("alpha", "mid"))
    assert alignment_check(outcomes, premise, reversed_rows).witnesses == want
    assert disgorgement_check(outcomes, premise, premise).witnesses == want
    # no_conflict_check puts the aggregated interests (its last row) in the premise role
    assert no_conflict_check(outcomes, reversed_rows, premise).witnesses == want
    # the same tables declared in reverse: the same pairs, listed in the new order
    reordered = alignment_check(outcomes[::-1], premise[::-1], reversed_rows[::-1]).witnesses
    assert reordered == (("alpha", "mid"), ("zeta", "mid"), ("zeta", "alpha"))


# --- disgorgement_check -----------------------------------------------------


def test_flat_fiduciary_passes_disgorgement():
    assert disgorgement_check(OUTCOMES, [1, 0], [0, 0]).aligned


def test_persistent_profit_fails_disgorgement():
    verdict = disgorgement_check(OUTCOMES, [1, 0], [5, 1])
    assert not verdict.aligned
    assert ("c1", "c2") in verdict.witnesses


def test_constant_nonfiduciary_vacuous():
    assert disgorgement_check(OUTCOMES, [2, 2], [9, 0]).aligned


# --- no_conflict_check ----------------------------------------------------------


def test_identical_objective_aligned():
    agg = [1.0, 3.0]
    assert no_conflict_check(OUTCOMES, list(agg), agg).aligned


def test_constant_shift_aligned():
    agg = [1.0, 3.0]
    assert no_conflict_check(OUTCOMES, [v + 10.0 for v in agg], agg).aligned


def test_reversed_top_pair_witnessed():
    verdict = no_conflict_check(OUTCOMES, [3.0, 1.0], [1.0, 3.0])
    assert not verdict.aligned
    assert ("c2", "c1") in verdict.witnesses


# --- brute-force oracle and invariances -------------------------------------------


def brute_force_pairs(outcomes, premise, conclusion, holds):
    out = []
    for i, c1 in enumerate(outcomes):
        for j, c2 in enumerate(outcomes):
            if i != j and premise[i] > premise[j] and not holds(conclusion[i], conclusion[j]):
                out.append((c1, c2))
    return tuple(out)


def test_checks_match_pair_enumerator_on_random_tables(rng):
    for _ in range(300):
        size = int(rng.integers(2, 7))
        outcomes = [f"c{i}" for i in rng.permutation(size)]
        a = rng.integers(-3, 4, size).astype(float).tolist()
        b = rng.integers(-3, 4, size).astype(float).tolist()
        align = alignment_check(outcomes, a, b)
        expected = brute_force_pairs(outcomes, a, b, lambda x, y: x > y)
        assert align.witnesses == expected
        assert align.aligned == (not expected)
        dis = disgorgement_check(outcomes, a, b)
        expected_d = brute_force_pairs(outcomes, a, b, lambda x, y: x <= y)
        assert dis.witnesses == expected_d


def test_alignment_invariant_under_increasing_transform(rng):
    outcomes = [f"c{i}" for i in range(4)]
    for _ in range(50):
        a = rng.uniform(-2, 2, 4).tolist()
        b = rng.uniform(-2, 2, 4).tolist()
        base = alignment_check(outcomes, a, b)
        a_t = [3.0 * v**3 + 2.0 for v in a]  # strictly increasing
        b_t = [float(2.0**v) for v in b]
        transformed = alignment_check(outcomes, a_t, b_t)
        assert transformed.aligned == base.aligned
        assert transformed.witnesses == base.witnesses


def test_joint_alignment_and_disgorgement_imply_principal_order(rng):
    # where both premises are strict, the fiduciary table must follow the
    # principal and never follow a strict raw-profit direction
    outcomes = [f"c{i}" for i in range(4)]
    for _ in range(200):
        u_b, u_f, u_n = rng.integers(-2, 3, size=(3, 4)).astype(float).tolist()
        if not alignment_check(outcomes, u_b, u_f).aligned:
            continue
        if not disgorgement_check(outcomes, u_n, u_f).aligned:
            continue
        for i, j in itertools.permutations(range(4), 2):
            if u_b[i] > u_b[j]:
                assert u_f[i] > u_f[j]
                # a strict raw-profit direction on the same pair would make
                # the two passed checks contradict each other
                assert not u_n[i] > u_n[j]


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
        cpds={"S": [1 - 1e-12, 1e-12]},
        utilities={"U": [0.0, 1.0]},
        agents=("a",),
    )
    rule = np.array([[1 + 5e-10, -5e-10], [0.5, 0.5]])
    verdict = confidentiality_check(model, {"R": rule}, "R", "S")
    assert verdict.passed
    assert abs(verdict.mutual_information_bits) < 1e-9


def test_confidentiality_verdict_invariant_to_relabeling():
    model = disclosure_model()
    profile = disclosure_profile(model, copying=True)
    base = confidentiality_check(model, profile, "R_a", "C")
    # swap the roles of the two domain values in the report rule
    flipped = dict(profile)
    flipped["R_a"] = deterministic_rule(model, "R_a", [1, 0])
    relabeled = confidentiality_check(model, flipped, "R_a", "C")
    assert relabeled.passed == base.passed
    assert relabeled.mutual_information_bits == pytest.approx(base.mutual_information_bits)


def test_confidentiality_unknown_node():
    model = disclosure_model()
    with pytest.raises(ValueError, match="unknown node 'ghost'"):
        confidentiality_check(model, disclosure_profile(model), "R_a", "ghost")
    with pytest.raises(ValueError, match="unknown node 'ghost'"):
        confidentiality_check(model, disclosure_profile(model), "ghost", "C")
    # the profile is checked first
    with pytest.raises(ValueError, match="no rule for decision node 'B_b'"):
        confidentiality_check(model, {"R_a": disclosure_profile(model)["R_a"]}, "R_a", "ghost")


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
    with pytest.raises(ValueError, match="report node 'C' must be a decision node"):
        disclosure_check(model, disclosure_profile(model), "C", "C", "B_b")


@pytest.mark.parametrize("nodes", [("ghost", "C", "B_b"), ("R_a", "ghost", "B_b"), ("R_a", "C", "ghost")])
def test_disclosure_unknown_node(nodes):
    model = disclosure_model()
    with pytest.raises(ValueError, match="unknown node 'ghost'"):
        disclosure_check(model, disclosure_profile(model), *nodes)


def test_muted_report_fails_disclosure():
    model = disclosure_model()
    verdict = disclosure_check(
        model, disclosure_profile(model, copying=False), "R_a", "C", "B_b"
    )
    assert not verdict.passed
    assert verdict.material
    assert verdict.information_bits == pytest.approx(0.0, abs=1e-12)


def test_silence_baseline_shares_the_equilibrium_round_cap(monkeypatch):
    # with C "0" at 0.7, copying a report muted to "1" is no best response,
    # so the baseline takes two rounds; materiality's searches take one
    model = disclosure_model()
    model = Macid(model.nodes, model.edges, {"C": [0.7, 0.3]}, model.utilities, model.agents)
    assert disclosure_check(model, disclosure_profile(model), "R_a", "C", "B_b").passed
    monkeypatch.setattr(macid, "MAX_ROUNDS", 1)
    assert materiality_value(model, "R_a", "C", "B_b") == pytest.approx(0.3)
    with pytest.raises(NoConvergence, match="no equilibrium after 1 rounds"):
        disclosure_check(model, disclosure_profile(model), "R_a", "C", "B_b")


def test_immaterial_node_passes_vacuously():
    # principal's utility ignores C entirely
    model = disclosure_model()
    flat = np.ones((2, 2))
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


# --- barren nodes ----------------------------------------------------------------------


def with_extra(model, chance=(), decision=None):
    """``model`` plus chance nodes given as (id, parents, cpd table) and an
    optional decision given as (id, owner, parents)."""
    nodes = list(model.nodes)
    edges = dict(model.edges)
    cpds = dict(model.cpds)
    for nid, parents, table in chance:
        nodes.append(Node(nid, NodeKind.CHANCE, domain=("0", "1")))
        edges[nid] = parents
        cpds[nid] = table
    if decision is not None:
        nid, owner, parents = decision
        nodes.append(Node(nid, NodeKind.DECISION, owner=owner, domain=("0", "1")))
        edges[nid] = parents
    return Macid(tuple(nodes), edges, cpds, model.utilities, model.agents)


def isolated(k):
    """k parentless binary chance nodes with distinct, uneven CPDs."""
    return [(f"X{i}", (), [p, 1.0 - p]) for i, p in enumerate(np.linspace(0.15, 0.85, k).tolist())]


def secret_report_model():
    """Secret S; the adviser's report R observes it and is paid for matching it."""
    return Macid(
        nodes=(
            Node("S", NodeKind.CHANCE, domain=("0", "1")),
            Node("R", NodeKind.DECISION, owner="a", domain=("0", "1")),
            Node("U", NodeKind.UTILITY, owner="a"),
        ),
        edges={"S": (), "R": ("S",), "U": ("S", "R")},
        cpds={"S": [0.3, 0.7]},
        utilities={"U": match_table()},
        agents=("a",),
    )


def test_ancestral_keeps_targets_utilities_and_their_ancestors():
    model = disclosure_model()
    assert model.ancestral(("R_a", "C", "B_b")) is model
    noisy = np.tile([0.25, 0.75], (2, 2, 1))
    wide = with_extra(model, isolated(2) + [("Y", ("C", "X0"), noisy)], ("D", "bob", ("Y",)))
    assert set(wide.ancestral(("R_a", "C", "B_b")).node_map) == set(model.node_map)
    assert set(wide.ancestral(("Y",)).node_map) == set(model.node_map) | {"Y", "X0"}
    with pytest.raises(ValueError, match="unknown node 'ghost'"):
        wide.ancestral(("ghost",))


def test_barren_nodes_add_no_joint_work(monkeypatch):
    # 11 and 12 isolated binary nodes multiply the unpruned joint by 2**11
    # and 2**12; pruned, no joint is larger than the model without them.
    # Every joint, expected utility, best response and warm start goes
    # through the chain-rule product, so it is counted there.
    cells = []
    real = macid._chain

    def counting(model, profile, skip=()):
        cells.append(math.prod(len(model.node_map[n].domain) for n in model.outcome_order))
        return real(model, profile, skip)

    monkeypatch.setattr(macid, "_chain", counting)
    small, wide = disclosure_model(), with_extra(disclosure_model(), isolated(11))
    for copying in (True, False):
        cells.clear()
        verdict = disclosure_check(wide, disclosure_profile(wide, copying), "R_a", "C", "B_b")
        assert cells and max(cells) <= 8
        assert repr(verdict) == repr(disclosure_check(small, disclosure_profile(small, copying), "R_a", "C", "B_b"))
    small, wide = secret_report_model(), with_extra(secret_report_model(), isolated(12))
    for choose in ([0, 1], [0, 0]):
        cells.clear()
        verdict = confidentiality_check(wide, {"R": deterministic_rule(wide, "R", choose)}, "R", "S")
        assert cells and max(cells) <= 4
        expected = confidentiality_check(small, {"R": deterministic_rule(small, "R", choose)}, "R", "S")
        assert repr(verdict) == repr(expected)


def _outcome(check, *args):
    """The check's verdict, or the type and message of what it raised."""
    try:
        return check(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def test_barren_nodes_leave_verdicts_bit_for_bit(rng):
    confidential = disclosed = 0
    for _ in range(150):
        model, profile = _random_influence_model(rng)
        shown = list(model.outcome_order)
        if not shown:
            continue
        # barren nodes may observe any node, but nothing observes them
        domains = {nid: model.node_map[nid].domain for nid in shown}

        def parents():
            return tuple(str(p) for p in rng.permutation(list(domains))[: int(rng.integers(0, 3))])

        chance = []
        for j in range(int(rng.integers(1, 3))):
            ps = parents()
            rows = [rng.dirichlet([1.0, 1.0]).tolist() for _ in itertools.product(*(domains[p] for p in ps))]
            rows = np.array(rows).reshape(*(len(domains[p]) for p in ps), 2)
            chance.append((f"x{j}", ps, rows))
            domains[f"x{j}"] = ("0", "1")
        wide = with_extra(model, chance, ("y0", model.agents[0], parents()))
        wide_profile = dict(profile, y0=deterministic_rule(wide, "y0", 1))

        if len(shown) >= 2:
            report, secret = (str(n) for n in rng.permutation(shown)[:2])
            confidential += 1
            verdict = _outcome(confidentiality_check, wide, wide_profile, report, secret)
            assert repr(verdict) == repr(_outcome(confidentiality_check, model, profile, report, secret))
            bits = mutual_information(marginal(wide, wide_profile, (report, secret)))
            assert abs(verdict.mutual_information_bits - bits) <= 1e-12
            with pytest.raises(ValueError, match="no rule for decision node 'y0'"):
                confidentiality_check(wide, profile, report, secret)

        decisions = model.decision_nodes()
        chances = [n for n in shown if model.node_map[n].kind is NodeKind.CHANCE]
        for report, principal_decision in itertools.permutations(decisions, 2):
            material = [c for c in chances if c not in model.parents(principal_decision)]
            if material:
                disclosed += 1
                args = (report, material[0], principal_decision)
                verdict = _outcome(disclosure_check, wide, wide_profile, *args)
                assert repr(verdict) == repr(_outcome(disclosure_check, model, profile, *args))
                with pytest.raises(ValueError, match="no rule for decision node 'y0'"):
                    disclosure_check(wide, profile, *args)
                break
    assert confidential > 50 and disclosed > 10


def second_channel_model():
    """disclosure_model with a second report R2 of C that the principal also
    reads: with R_a silenced, C is immaterial exactly when R2 is informative."""
    model = disclosure_model()
    nodes = model.nodes[:2] + (Node("R2", NodeKind.DECISION, owner="alice", domain=("0", "1")),) + model.nodes[2:]
    edges = dict(model.edges, R2=("C",), B_b=("R_a", "R2"))
    return Macid(nodes, edges, model.cpds, model.utilities, model.agents)


def test_barren_nodes_no_longer_push_the_warm_start_over_budget(monkeypatch):
    # The silenced model has 64 profiles x 16 outcomes = 1024 cells: within
    # a budget of 1024 the welfare warm start finds the informative R2
    # equilibrium, so silence costs nothing and C is immaterial. One barren
    # node doubles the unpruned count; over budget, the lexicographic start
    # is a babbling equilibrium and C reads as material. Pruning keeps the
    # warm start.
    monkeypatch.setattr(macid, "_WARM_START_BUDGET", 1024)
    small = second_channel_model()
    wide = with_extra(small, isolated(1))
    assert materiality_value(small, "R_a", "C", "B_b") == 0.0
    assert materiality_value(wide, "R_a", "C", "B_b") == 0.5
    profile = {
        "R_a": deterministic_rule(small, "R_a", [0, 1]),
        "R2": deterministic_rule(small, "R2", [0, 1]),
        "B_b": deterministic_rule(small, "B_b", [0, 0, 1, 1]),  # follows R_a
    }
    verdict = disclosure_check(wide, profile, "R_a", "C", "B_b")
    assert not verdict.material and verdict.value_of_information == 0.0
    assert repr(verdict) == repr(disclosure_check(small, profile, "R_a", "C", "B_b"))
