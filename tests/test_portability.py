"""The package runs on the oldest Python that pyproject.toml admits.

`requires-python` is ">=3.10", and Python 3.10's `re` has neither
atomic groups `(?>...)` nor possessive quantifiers (`*+`, `++`, `?+`,
`{m,n}+`): a pattern with one fails to compile there, at import or at
its first use.  Every pattern of the package is checked here, both
those compiled into module globals and the literal ones passed to a
function of `re`."""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

try:
    from re import _parser as sre_parse  # Python 3.11 and later
except ImportError:  # pragma: no cover
    import sre_parse

SRC = Path(__file__).resolve().parent.parent / "src" / "deon"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
NEWER = {"ATOMIC_GROUP", "POSSESSIVE_REPEAT"}


def opcodes(pattern: str) -> set[str]:
    """The names of the operations in pattern, as the `re` parser reads it."""
    names = set()
    stack = [sre_parse.parse(pattern)]
    while stack:
        item = stack.pop()
        if isinstance(item, sre_parse.SubPattern):
            for op, arg in item.data:
                names.add(str(op))
                stack.append(arg)
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
    return names


def patterns() -> dict[str, str]:
    """Where each pattern of the package is -> the pattern."""
    found = {}
    for name in MODULES:
        module = importlib.import_module(f"deon.{name}")
        for var, value in vars(module).items():
            if isinstance(value, re.Pattern):
                found[f"{name}.{var}"] = value.pattern
        for node in ast.walk(ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "re"
                    and node.args and isinstance(node.args[0], ast.Constant)):
                found[f"{name}.py:{node.lineno}"] = node.args[0].value
    return found


def test_the_scan_finds_the_newer_syntax():
    assert NEWER <= opcodes(r"(?>a|bc)d*+") | opcodes(r"x{1,2}+")
    assert opcodes(r"a++") & NEWER and opcodes(r"a?+") & NEWER
    # an escaped or bracketed "+" after a quantifier is no possessive one
    assert not opcodes(r"\++|[*+]+|a{2}\+|(?:a)+") & NEWER


def test_the_package_has_patterns_of_both_kinds():
    found = patterns()
    assert "formula._TOKEN_RE" in found
    assert any(".py:" in where for where in found)


def test_no_pattern_needs_python_3_11():
    assert [where for where, pattern in patterns().items() if opcodes(pattern) & NEWER] == []
