"""Which functions of the program recurse.

Python's recursion limit caps any walk that recurses once per level of
a syntax tree, so a new recursive walk is a new depth limit.  The
functions that call themselves by name are pinned here, each with why
it may; the list may only shrink."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "deon"

ALLOWED = {
    # λ-kernel walks over term depth, still to be made iterative
    "lam._shift": "de Bruijn shift",
    "lam._subst_db": "de Bruijn substitution",
    "lam._uses_idx": "eta test for an index",
    "lam._step": "single-step reducer",
    "lam._name": "binder naming of a reduction step",
    "lam._eval": "evaluation of normalization by evaluation",
    "lam._quote": "read-back of normalization by evaluation",
    # first-order side of the embedding
    "embed.lower.walk": "lowering a normal form to first order",
    "embed.fo_eval": "first-order evaluation",
    # bounded depths
    "search._quickxplain.shrink": "depth is log n in the input count",
}


def self_calls(path: Path) -> set[str]:
    """module.qualified_name of each function in the file whose own body,
    nested functions left out, calls a name equal to the function's."""
    found = set()

    def own_nodes(fn):
        stack = list(ast.iter_child_nodes(fn))
        while stack:
            node = stack.pop()
            yield node
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                                     ast.ClassDef)):
                stack.extend(ast.iter_child_nodes(node))

    stack = [(ast.parse(path.read_text(encoding="utf-8")), "")]
    while stack:
        node, prefix = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                       and n.func.id == child.name for n in own_nodes(child)):
                    found.add(f"{path.stem}.{prefix}{child.name}")
                stack.append((child, f"{prefix}{child.name}."))
            elif isinstance(child, ast.ClassDef):
                stack.append((child, f"{prefix}{child.name}."))
            else:
                stack.append((child, prefix))
    return found


def test_only_the_pinned_functions_recurse():
    found = set().union(*map(self_calls, sorted(SRC.glob("*.py"))))
    assert found == set(ALLOWED)


def test_the_scan_finds_nested_and_method_recursion(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("def f(n):\n    return f(n - 1)\n\n"
                   "def g():\n    def go(x):\n        return go(x)\n    return go\n\n"
                   "class C:\n    def h(self):\n        return h(self)\n\n"
                   "def k():\n    return [k for k in ()]\n", encoding="utf-8")
    assert self_calls(src) == {"m.f", "m.g.go", "m.C.h"}
