"""The package's error contract, read from the source.

A value that a library function rejects raises ``ValueError``; only the
errors that carry data have a class of their own, and each is a
``ValueError``. The CLI's argument-type functions raise
``argparse.ArgumentTypeError``, which argparse turns into a usage error,
and a read-only instance refuses an assignment with ``AttributeError``, as
Python's attribute protocol does; each such exemption must name a
``raise`` that is there. A bound on a library argument is written so that
NaN fails it.
"""

import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

import fidaudit
from fidaudit.aggregation import approval_winners, impartiality_check
from fidaudit.assessment import (
    feasible_rewards_irl,
    fit_preference_reward,
    infer_discount,
    maxent_irl,
    prudent_investor_weights,
)
from fidaudit.audit import emit_report, run_audit
from fidaudit.care import distribution_shift_score, inductive_bias_diagnostic
from fidaudit.context import PrincipalClassSpec, duty_entry, identify_principals
from fidaudit.errors import SchemaError
from fidaudit.macid import (
    Macid,
    Node,
    NodeKind,
    enumerate_deterministic_rules,
    marginal,
    value_of_information,
)
from fidaudit.mdp import (
    DiscountSpec,
    Mdp,
    RewardOption,
    detect_preference_reversal,
    discount_weight,
    value_iteration,
)
from fidaudit.scenario import load_scenario, parse_scenario

from helpers import coin_model, disclosure_model, disclosure_profile, guess_model
from test_assessment import chain_walk_mdp
from test_scenario_reader import declared_feature_fit

PACKAGE = Path(fidaudit.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
RAISED = {"ValueError", "NoConvergence", "SchemaError"}
EXCEPTIONS = {
    ("cli.py", "_scenario_file"): {"argparse.ArgumentTypeError"},
    ("cli.py", "_report_path"): {"argparse.ArgumentTypeError"},
    ("cli.py", "_tolerance"): {"argparse.ArgumentTypeError"},  # --tol
    ("readonly.py", "ReadOnly.__setattr__"): {"AttributeError"},
}


def _raises(tree: ast.AST):
    """(enclosing qualified name, raised name) for every ``raise`` in ``tree``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Raise):
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                name = exc.id if isinstance(exc, ast.Name) else ast.unparse(exc) if exc else "<re-raise>"
                found.append((".".join(scope), name))
            visit(child, scope)

    visit(tree, ())
    return found


def test_the_package_has_modules_to_check():
    assert {"errors.py", "macid.py", "scenario.py"} <= {m.name for m in MODULES}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.name)
def test_every_raise_names_an_error_of_the_contract(module):
    tree = ast.parse(module.read_text(encoding="utf-8"))
    stray = [
        (scope, name)
        for scope, name in _raises(tree)
        if name not in RAISED | EXCEPTIONS.get((module.name, scope), set())
    ]
    assert not stray, f"{module.name} raises outside the contract: {stray}"


@pytest.mark.parametrize("entry", sorted(EXCEPTIONS), ids="{0[0]}:{0[1]}".format)
def test_every_exemption_names_a_raise_that_is_there(entry):
    module, scope = entry
    raised = {name for at, name in _raises(ast.parse((PACKAGE / module).read_text(encoding="utf-8"))) if at == scope}
    assert EXCEPTIONS[entry] <= raised, f"stale exemption {entry}: {sorted(EXCEPTIONS[entry] - raised)} not raised"


def test_errors_defines_only_the_errors_that_carry_data():
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name: [ast.unparse(b) for b in node.bases] for node in tree.body if isinstance(node, ast.ClassDef)}
    assert classes == {"NoConvergence": ["ValueError"], "SchemaError": ["ValueError"]}



NAN = math.nan
BEHAVIOR = np.zeros(4, dtype=int)  # "right" in each state of the chain walk


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: infer_discount(chain_walk_mdp(), BEHAVIOR, [0.5, 0.9], [NAN, 1.0]), "prior has negative or NaN"),
        (lambda: infer_discount(chain_walk_mdp(), BEHAVIOR, [0.5], [1.0], temperature=NAN), "temperature must be"),
        (lambda: prudent_investor_weights([1.0], [[1.0]], NAN), "risk_aversion must be positive"),
        (lambda: feasible_rewards_irl(chain_walk_mdp(), BEHAVIOR, 0.9, NAN), "bound must be positive"),
        (lambda: DiscountSpec("hyperbolic", k=NAN), "hyperbolic discount needs k > 0, got nan"),
        (lambda: inductive_bias_diagnostic(0.5, 0.5, 0.5, NAN), "dominance_threshold must be"),
        (lambda: value_iteration(chain_walk_mdp(), 0.9, tol=NAN), "tol must be positive"),
        (lambda: impartiality_check({"p": 0.9, "agent": 0.0}, "agent", cap=NAN), "favoritism cap is negative or"),
        (
            lambda: detect_preference_reversal(
                DiscountSpec("hyperbolic", k=1.0), RewardOption(NAN, 1), RewardOption(2.0, 3), horizon=5
            ),
            "rewards must be positive",
        ),
    ],
    ids=[
        "prior", "temperature", "risk-aversion", "bound", "hyperbolic-k", "dominance-threshold", "tol", "cap", "reward",
    ],
)
def test_library_bounds_reject_nan(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# --- rejections that no other test reaches ------------------------------------

SCENARIOS = Path(__file__).parent.parent / "scenarios"
COIN = Node("coin", NodeKind.CHANCE, domain=("H", "T"))
DECIDER = Node("D", NodeKind.DECISION, owner="a", domain=("x", "y"))
PAYOFF = Node("U", NodeKind.UTILITY, owner="a")


def _read(name, mutate):
    """A call that reads the shipped scenario ``name`` after ``mutate``."""
    raw = json.loads((SCENARIOS / name).read_text())
    mutate(raw)
    return lambda: parse_scenario(raw)


def _one_state_mdp():
    """One state with a self-loop under both actions."""
    return Mdp(("s",), ("a", "b"), np.ones((1, 2, 1)), np.zeros((1, 2)))


REJECTIONS = [
    pytest.param(lambda: approval_winners([], []), "option universe is empty", id="approval-no-options"),
    # 7 demos take action a and 6 take b: the first gradient is 0.5, and
    # after one long step the policy all but always takes a, so it is 5.91
    pytest.param(
        lambda: maxent_irl(_one_state_mdp(), np.array([[[1.0], [0.0]]]), [[(0, 0)]] * 7 + [[(0, 1)]] * 6, 0.9, 10.0, 5),
        "gradient norm 5.91 exceeds 10x initial 0.5",
        id="maxent-blow-up",
    ),
    pytest.param(
        lambda: fit_preference_reward(np.eye(2), [((0,), (1,), "both")], 0.1, 1),
        "preferred must be 'left' or 'right'",
        id="preference-side",
    ),
    pytest.param(
        lambda: infer_discount(chain_walk_mdp(), BEHAVIOR, [0.5, 0.5], [0.5, 0.5]),
        "beta grid has duplicate entries",
        id="discount-grid-repeat",
    ),
    pytest.param(
        lambda: infer_discount(chain_walk_mdp(), BEHAVIOR, [0.5, 0.9], [1.0]),
        "prior length 1 != grid length 2",
        id="discount-prior-length",
    ),
    pytest.param(
        lambda: prudent_investor_weights([1.0, 2.0], [[1.0]], 1.0),
        "sigma shape (1, 1), expected (2, 2)",
        id="sigma-shape",
    ),
    pytest.param(
        lambda: inductive_bias_diagnostic(0.5, 1.5, 0.5), "likelihood1 must be at most 1, got 1.5", id="likelihood-above-1"
    ),
    pytest.param(
        lambda: distribution_shift_score(("p", "p"), [0.5, 0.5], [0.5, 0.5]),
        "support has duplicate points",
        id="support-repeat",
    ),
    pytest.param(
        lambda: PrincipalClassSpec("c", "client", 1, "loyalty"),
        "unknown relationship model 'loyalty'",
        id="principal-relationship",
    ),
    pytest.param(
        lambda: identify_principals([PrincipalClassSpec("c", "client", r, "best_interests") for r in (1, 2)]),
        "duplicate principal class ids",
        id="principal-ids",
    ),
    pytest.param(lambda: duty_entry("trusts/nothing"), "unknown catalog key 'trusts/nothing'", id="catalog-key"),
    pytest.param(
        lambda: Node("D", NodeKind.DECISION, domain=("x", "y")), "decision node 'D' needs an owner", id="node-owner"
    ),
    pytest.param(
        lambda: Node("U", NodeKind.UTILITY, owner="a", domain=("x",)),
        "utility node 'U' must not declare a domain",
        id="node-utility-domain",
    ),
    pytest.param(
        lambda: Node("C", NodeKind.CHANCE, domain=("x", "x")), "node 'C' has duplicate domain values", id="node-domain"
    ),
    pytest.param(
        lambda: Macid((COIN, COIN), {"coin": ()}, {"coin": [0.5, 0.5]}, {}, ()), "duplicate node ids", id="model-nodes"
    ),
    pytest.param(
        lambda: Macid((COIN,), {"coin": ()}, {"coin": [0.5, 0.5]}, {}, ("a", "a")),
        "duplicate agent ids",
        id="model-agents",
    ),
    pytest.param(
        lambda: Macid((COIN,), {"coin": (), "ghost": ()}, {"coin": [0.5, 0.5]}, {}, ()),
        "edge list references unknown node 'ghost'",
        id="model-edge-node",
    ),
    pytest.param(
        lambda: Macid((COIN,), {}, {"coin": [0.5, 0.5]}, {}, ()),
        "node 'coin' missing from the edge map",
        id="model-edge-map",
    ),
    pytest.param(
        lambda: Macid((DECIDER,), {"D": ()}, {"D": [0.5, 0.5]}, {}, ("a",)),
        "non-chance node 'D' has a CPD",
        id="model-cpd",
    ),
    pytest.param(
        lambda: Macid((COIN,), {"coin": ()}, {"coin": [0.5, 0.5]}, {"coin": [1.0, 0.0]}, ()),
        "non-utility node 'coin' has a utility table",
        id="model-utility-table",
    ),
    pytest.param(
        lambda: Macid((PAYOFF,), {"U": ()}, {}, {"U": math.inf}, ("a",)),
        "utility table for 'U' has a non-finite entry",
        id="model-utility-entry",
    ),
    pytest.param(lambda: coin_model().utility_nodes_of("ghost"), "unknown agent 'ghost'", id="utility-nodes-agent"),
    pytest.param(
        lambda: disclosure_model().with_edge("C", "R_a"), "'C' is already a parent of 'R_a'", id="with-edge-repeat"
    ),
    pytest.param(
        lambda: coin_model().replace_decision_with_constant_chance("coin", "H"),
        "'coin' is not a decision node",
        id="silence-chance-node",
    ),
    pytest.param(
        lambda: next(enumerate_deterministic_rules(coin_model(), "coin")),
        "'coin' is not a decision node",
        id="rules-of-chance-node",
    ),
    pytest.param(
        lambda: marginal(disclosure_model(), disclosure_profile(disclosure_model()), ("U_b",)),
        "'U_b' is not a chance or decision node of the model",
        id="marginal-utility",
    ),
    pytest.param(lambda: value_of_information(guess_model(), "B", "U"), "'U' is not a chance node", id="voi-chance"),
    pytest.param(
        lambda: Mdp(("s", "s"), ("a",), np.ones((2, 1, 2)) / 2, np.zeros((2, 1))),
        "state/action ids must be unique",
        id="mdp-ids",
    ),
    pytest.param(
        lambda: Mdp(("s",), ("a",), np.ones((1, 1, 2)) / 2, np.zeros((1, 1))),
        "transition shape (1, 1, 2), expected (1, 1, 1)",
        id="mdp-transition",
    ),
    pytest.param(
        lambda: Mdp(("s",), ("a",), np.ones((1, 1, 1)), np.zeros(1)), "reward shape (1,), expected (1, 1)", id="mdp-reward"
    ),
    pytest.param(
        lambda: discount_weight(DiscountSpec("exponential", beta=0.9), -1), "t must be non-negative", id="discount-time"
    ),
    pytest.param(
        lambda: detect_preference_reversal(
            DiscountSpec("hyperbolic", k=1.0), RewardOption(1.0, 1), RewardOption(2.0, 3), horizon=0
        ),
        "horizon must be positive",
        id="reversal-horizon",
    ),
    pytest.param(
        lambda: emit_report(run_audit(load_scenario(SCENARIOS / "care_skipped.json")), "yaml"),
        "unknown format 'yaml'",
        id="report-format",
    ),
    pytest.param(
        _read("engagement_prior_warn.json", lambda raw: raw["loyalty"]["attestations"][0].update(attested="yes")),
        "loyalty.attestations[0].attested: boolean required",
        id="reader-attested",
    ),
    pytest.param(lambda: parse_scenario([]), "<root>: scenario document must be a JSON object", id="reader-array"),
    pytest.param(
        _read("trust_portfolio.json", lambda raw: raw["world"]["mdp"]["discount"].pop("kind")),
        "world.mdp.discount.kind: required",
        id="reader-discount-kind",
    ),
    pytest.param(
        _read("trust_portfolio.json", lambda raw: declared_feature_fit(raw)["demos"][0].append([0])),
        "assessment.methods[5].demos[0][2]: 2 entries required, got 1",
        id="reader-demo-step",
    ),
    pytest.param(
        _read("trust_portfolio.json", lambda raw: declared_feature_fit(raw).update(features="two_hot")),
        "assessment.methods[5].features: must be an object",
        id="reader-features",
    ),
]


@pytest.mark.parametrize("call, message", REJECTIONS)
def test_a_rejection_no_other_test_reaches_gives_its_message(call, message):
    """Each call makes a library function reject its value; a reader's
    message is prefixed with its path, as ``validate`` prints it.

    Three rejections stay untested, because no input reaches them: the
    ``LinAlgError`` of ``feasible_rewards_irl`` (a discount below 1 keeps
    I - beta P regular), that of ``prudent_investor_weights`` (the ridge
    keeps sigma regular) and ``mdp._evaluate``'s fixed-point residual.
    """
    with pytest.raises(ValueError) as exc:
        call()
    where = f"{exc.value.path or '<root>'}: " if isinstance(exc.value, SchemaError) else ""
    assert where + str(exc.value) == message


def test_a_reward_outside_the_bound_is_not_feasible():
    feasible = feasible_rewards_irl(chain_walk_mdp(), BEHAVIOR, 0.9, 1.0)
    assert feasible.contains(np.zeros(8))
    assert not feasible.contains(np.full(8, 1.5))
