"""The package's error contract, read from the source.

A value that a library function rejects raises ``ValueError``; only the
errors that carry data have a class of their own, and each is a
``ValueError``. ``Variant.__getattr__`` raises ``AttributeError``, as the
attribute protocol requires, and the CLI's ``--tol`` callback raises
``click.BadParameter``, as click's option protocol requires.
"""

import ast
from pathlib import Path

import pytest

import fidaudit

PACKAGE = Path(fidaudit.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
RAISED = {"ValueError", "NoConvergence", "SchemaError", "UnknownContextLabel"}
EXCEPTIONS = {
    ("scenario.py", "Variant.__getattr__"): {"AttributeError"},
    ("cli.py", "_tolerance"): {"click.BadParameter"},
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


def test_errors_defines_only_the_errors_that_carry_data():
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name: [ast.unparse(b) for b in node.bases] for node in tree.body if isinstance(node, ast.ClassDef)}
    assert classes == {
        "FidauditError": ["ValueError"],
        "NoConvergence": ["FidauditError"],
        "SchemaError": ["FidauditError"],
        "UnknownContextLabel": ["FidauditError"],
    }

