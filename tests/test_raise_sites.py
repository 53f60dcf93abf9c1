"""Each rule of the library raises, or reports, from one place.

An error message's template is its text with each formatted value as
``{}``. No template may be raised from two sites across the library's
modules, and no schema problem may be reported from two sites, a problem
being a ``self.fail(path, message)`` call of the scenario reader: a rule
checked twice can drift into two messages, or into one site that a later
change skips. The two are counted apart, since the reader checks at load
some rules that a kernel also checks for its library callers (distinct
option ids). ``cli.py`` is left out: its argparse type errors share only
the generic ``"{value!r} {problem}"`` shape.
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


def _raised(node: ast.AST) -> ast.expr | None:
    """The message of a ``raise Error(message, ...)``."""
    if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
        return node.exc.args[0]
    return None


def _reported(node: ast.AST) -> ast.expr | None:
    """The message of a ``self.fail(path, message)`` call."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and len(node.args) == 2:
        if node.func.attr == "fail" and isinstance(node.func.value, ast.Name) and node.func.value.id == "self":
            return node.args[1]
    return None


def _sites(sources: dict[str, str], message=_raised) -> dict[str, list[str]]:
    """Each message template in ``sources`` (name -> text) -> its sites, as
    ``name:line``; ``message`` picks a site's message node (by default, a
    ``raise``'s)."""
    sites = defaultdict(list)
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            found = message(node)
            template = None if found is None else _template(found)
            if template is not None:
                sites[template].append(f"{name}:{node.lineno}")
    return sites


def _sources() -> dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8") for path in MODULES}


def test_a_template_raised_twice_is_found():
    first = 'def f(n):\n    raise ValueError(f"{n!r} is not a decision node")\n'
    second = (
        'def g(m):\n    if m:\n        raise ValueError(f"{m} is not a decision node")\n'
        '    raise ValueError("other")\n'
    )
    sites = _sites({"a.py": first, "b.py": second})
    assert sites == {"{} is not a decision node": ["a.py:2", "b.py:3"], "other": ["b.py:4"]}


def test_a_template_the_reader_reports_twice_is_found():
    reader = (
        "class R:\n    def num(self, v, path):\n        self.fail(path, 'number required')\n"
        "    def array(self, v, path):\n        return self.fail(f'{path}[0]', 'number required')\n"
        "    def any_(self, v, path):\n        self.fail(path, str(v))\n        other.fail(path, 'number required')\n"
        "        raise ValueError('number required')\n"
    )
    assert _sites({"r.py": reader}, _reported) == {"number required": ["r.py:3", "r.py:5"]}


def test_every_message_template_is_raised_from_one_site():
    sites = _sites(_sources())
    assert "{} is not a decision node" in sites
    assert {template: where for template, where in sites.items() if len(where) > 1} == {}


def test_every_schema_problem_is_reported_from_one_site():
    sites = _sites(_sources(), _reported)
    assert "number required" in sites and "required" in sites
    assert {template: where for template, where in sites.items() if len(where) > 1} == {}
