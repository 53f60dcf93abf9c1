"""Every module of the package and of the tests uses each name it imports.

A name counts as used when it appears as a name anywhere in the module's
AST, annotations included: under ``from __future__ import annotations``
they stay expressions in the tree, only unevaluated.
"""

import ast
from pathlib import Path

import pytest

import fidaudit

MODULES = sorted(Path(fidaudit.__file__).parent.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))


def _unused_imports(tree: ast.AST) -> list[str]:
    """The names ``tree`` imports and never reads, in import order."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_sees_both_trees():
    names = {(m.parent.name, m.name) for m in MODULES}
    assert {("fidaudit", "macid.py"), ("tests", "test_imports.py")} <= names


def test_an_unused_import_is_found():
    tree = ast.parse("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
                     "from typing import Mapping, Sequence\n\ndef f(x: Mapping) -> None:\n    os.sep\n")
    assert _unused_imports(tree) == ["np", "Sequence"]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: f"{m.parent.name}/{m.name}")
def test_no_module_imports_a_name_it_does_not_use(module):
    assert _unused_imports(ast.parse(module.read_text(encoding="utf-8"))) == []
