"""Each rule of the library raises from one place.

An error message's template is its text with each formatted value as
``{}``. No template may be raised from two sites across the library's
modules: a rule checked twice can drift into two messages, or into one
site that a later change skips. ``cli.py`` is left out: its argparse type
errors share only the generic ``"{value!r} {problem}"`` shape.
"""

import ast
from collections import defaultdict
from pathlib import Path

import fidaudit

MODULES = sorted(path for path in Path(fidaudit.__file__).parent.glob("*.py") if path.name != "cli.py")


def _template(node: ast.expr) -> str | None:
    """The template of a message literal, or None for anything else."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
    return None


def _raise_sites(sources: dict[str, str]) -> dict[str, list[str]]:
    """Each message template raised in ``sources`` (name -> text) -> its
    sites, as ``name:line``."""
    sites = defaultdict(list)
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
                template = _template(node.exc.args[0])
                if template is not None:
                    sites[template].append(f"{name}:{node.lineno}")
    return sites


def test_a_template_raised_twice_is_found():
    first = 'def f(n):\n    raise ValueError(f"{n!r} is not a decision node")\n'
    second = (
        'def g(m):\n    if m:\n        raise ValueError(f"{m} is not a decision node")\n'
        '    raise ValueError("other")\n'
    )
    sites = _raise_sites({"a.py": first, "b.py": second})
    assert sites == {"{} is not a decision node": ["a.py:2", "b.py:3"], "other": ["b.py:4"]}


def test_every_message_template_is_raised_from_one_site():
    sites = _raise_sites({path.name: path.read_text(encoding="utf-8") for path in MODULES})
    assert "{} is not a decision node" in sites
    assert {template: where for template, where in sites.items() if len(where) > 1} == {}
