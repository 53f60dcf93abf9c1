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
import math
from pathlib import Path

import numpy as np
import pytest

import fidaudit
from fidaudit.aggregation import impartiality_check
from fidaudit.assessment import feasible_rewards_irl, infer_discount, prudent_investor_weights
from fidaudit.care import inductive_bias_diagnostic
from fidaudit.mdp import DiscountSpec, RewardOption, detect_preference_reversal, value_iteration

from test_assessment import chain_walk_mdp

PACKAGE = Path(fidaudit.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
RAISED = {"ValueError", "NoConvergence", "SchemaError", "UnknownContextLabel"}
EXCEPTIONS = {
    ("cli.py", "_scenario_file"): {"argparse.ArgumentTypeError"},
    ("cli.py", "_report_path"): {"argparse.ArgumentTypeError"},
    ("cli.py", "_non_negative.parse"): {"argparse.ArgumentTypeError"},  # --tol and --seed
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
    assert classes == {
        "FidauditError": ["ValueError"],
        "NoConvergence": ["FidauditError"],
        "SchemaError": ["FidauditError"],
        "UnknownContextLabel": ["FidauditError"],
    }



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
