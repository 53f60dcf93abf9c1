"""The behaviours the package's record types keep, each named by a test.

Checked classes (a constructor that raises) are ``__slots__`` classes;
the influence and MDP models and their nodes refuse assignment, because
``solve_exact`` memoizes per model and derived models share read-only
tables. Plain records are ``typing.NamedTuple``s. Nothing imports
``dataclasses``, and a ``check`` call's set-up imports neither it nor
``difflib``.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import fidaudit
from fidaudit.aggregation import ApprovalBallot, ManipulationInstance, VotingRule, find_manipulation
from fidaudit.context import ContextSpec, Norm, Role, catalog_labels, catalog_lookup
from fidaudit.findings import FAIL, PASS, Finding
from fidaudit.macid import Node, NodeKind
from fidaudit.mdp import DiscountSpec, RewardOption, ReversalReport, ValueFunction, solve_exact

from helpers import delayed_reward_chain, disclosure_model

PACKAGE = Path(fidaudit.__file__).parent


def test_no_module_of_the_package_names_dataclass():
    assert [m.name for m in sorted(PACKAGE.glob("*.py")) if "dataclass" in m.read_text(encoding="utf-8")] == []


def test_a_check_calls_set_up_imports_neither_dataclasses_nor_difflib():
    # the statement the benchmark times as a `check` call's set-up
    probe = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import fidaudit.cli; "
        "from fidaudit.context import catalog_labels; catalog_labels(); "
        "print(sorted({'dataclasses', 'difflib'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def test_manipulation_instances_are_equal_by_fields():
    found = find_manipulation(VotingRule("borda"), 3, 3)
    fields = (found.profile, found.voter, found.insincere_ballot, found.sincere_winner)
    assert found == ManipulationInstance(*fields, found.manipulated_winner)
    assert found != ManipulationInstance(*fields, found.sincere_winner)


def test_findings_are_equal_by_fields_and_unhashable():
    assert Finding("c", PASS, "ok", {"n": 1}) == Finding("c", PASS, "ok", {"n": 1})
    assert Finding("c", PASS, "ok") == Finding("c", PASS, "ok", {})
    assert Finding("c", PASS, "ok") != Finding("c", FAIL, "ok")
    assert Finding("c", PASS, "ok", {"n": 1}) != Finding("c", PASS, "ok", {"n": 2})
    assert vars(Finding("c", PASS, "ok")) == {"check": "c", "status": PASS, "detail": "ok", "evidence": {}}
    with pytest.raises(TypeError):
        hash(Finding("c", PASS, "ok"))


def test_a_mutable_default_is_not_shared():
    first, second = Finding("a", PASS, "ok"), Finding("b", PASS, "ok")
    first.evidence["x"] = 1
    assert second.evidence == {} and Finding("c", PASS, "ok").evidence == {}
    one, two = Norm("a", "b", "c", "d", "attestation:x"), Norm("a", "b", "c", "d", "attestation:x")
    assert one.binding == {} and one.binding is not two.binding


def test_keyword_construction_with_the_defaults_the_reader_uses():
    node = Node(id="C", kind=NodeKind.CHANCE, domain=("0", "1"))
    assert (node.owner, node.domain) == (None, ("0", "1"))
    utility = Node(id="U", kind=NodeKind.UTILITY, owner="a")
    assert (utility.owner, utility.domain) == ("a", ())
    norm = Norm(sender="s", receiver="r", subject="s", attribute="x", transmission_principle="confidentiality")
    assert norm.binding == {} and not norm.machine_checkable()
    spec = DiscountSpec("exponential", beta=0.9)
    assert (spec.kind, spec.beta, spec.k) == ("exponential", 0.9, None)
    assert (DiscountSpec(kind="hyperbolic", k=2.0).beta, VotingRule("plurality").dictator_voter) == (None, 0)
    assert Role(id="r").description == ""
    context = ContextSpec(name="n", purposes=("p",), roles=(), norms=(), care_standard="prudent-user")
    assert context.subsidiary_duties == ()
    assert ValueFunction._fields == ("values", "q", "iterations", "converged")


def test_construction_errors_keep_their_messages():
    with pytest.raises(ValueError, match="chance node 'C' must not have an owner"):
        Node("C", NodeKind.CHANCE, owner="a", domain=("0",))
    with pytest.raises(ValueError, match="unknown rule 'approval'"):
        VotingRule("approval")
    with pytest.raises(ValueError, match="exponential discount needs 0 < beta < 1, got None"):
        DiscountSpec("exponential")


READ_ONLY = {
    "Macid": (disclosure_model, ("nodes", "cpds", "cpd_factors")),
    "Node": (lambda: disclosure_model().node("C"), ("id", "domain")),
    "Mdp": (lambda: delayed_reward_chain(3), ("transition", "reward", "_solves")),
    "ValueFunction": (lambda: solve_exact(delayed_reward_chain(3), 0.9), ("values", "converged")),
    "Role": (lambda: Role("r"), ("id",)),
    "ContextSpec": (lambda: ContextSpec("n", ("p",), (), (), "prudent-user"), ("norms",)),
    "SubsidiaryDutyEntry": (lambda: catalog_lookup(catalog_labels()[0])[0], ("binding",)),
    "ApprovalBallot": (lambda: ApprovalBallot("v", frozenset()), ("approved",)),
    "ManipulationInstance": (lambda: find_manipulation(VotingRule("borda"), 3, 3), ("voter",)),
    "RewardOption": (lambda: RewardOption(1.0, 1), ("delay",)),
    "ReversalReport": (lambda: ReversalReport(None, "early"), ("reversal_epoch",)),
}


@pytest.mark.parametrize("name", READ_ONLY)
def test_read_only_values_refuse_assignment_and_deletion(name):
    make, fields = READ_ONLY[name]
    value = make()
    assert type(value).__name__ == name
    for field in fields:
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before


def test_models_compare_by_identity():
    model = disclosure_model()
    assert model == model and model != disclosure_model()
    mdp = delayed_reward_chain(3)
    assert mdp == mdp and mdp != mdp.with_reward(mdp.reward)
