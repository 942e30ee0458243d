"""Which public functions and classes of the program only the tests use.

A public top-level name of ``src/deon`` that no other program code
reaches is there for the tests (or the bench) alone, and belongs in
``tests/``.  The names are pinned here, each with what it serves; the
list may only shrink."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "deon"

ALLOWED = {
    # the first-order side of the embedding, past `translation`
    "embed.emit_tptp": "TPTP text of a lowered formula",
    "embed.fo_eval": "first-order evaluation over a finite model",
    "embed.fo_show": "first-order formula as text",
    "embed.in_guarded_fragment": "guarded-fragment test",
    "embed.lower": "lowering a normal form to first order",
    "embed.translate": "embedding, normalization and lowering in one call",
    # reference folds kept beside the compiled paths
    "formula.desugar": "derived operators rewritten to primitives",
    "kb.prop_entails": "propositional entailment of one goal",
    "lam.normalize": "normal form of a term",
    "semantics.iter_preference_models": "every preference model of a size",
    "semantics.iter_serial_kripke_models": "every serial Kripke model of a size",
}


def unreached(paths) -> list[str]:
    """module.name of each public top-level function or class that no
    code of the given modules reaches: not by name from another
    top-level statement of its own module, and not as ``Y.name`` where
    ``from . import module as Y``."""
    public, used = set(), set()
    for path in paths:
        mod = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {a.asname or a.name: a.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level == 1 and not node.module
                   for a in node.names}
        for stmt in tree.body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = stmt.name
                if not own.startswith("_"):
                    public.add(f"{mod}.{own}")
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and node.id != own:
                    used.add(f"{mod}.{node.id}")
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id in aliases):
                    used.add(f"{aliases[node.value.id]}.{node.attr}")
    return sorted(public - used)


def test_only_the_pinned_names_are_test_only():
    assert unreached(sorted(SRC.glob("*.py"))) == sorted(ALLOWED)


def test_the_scan_follows_module_names_and_aliases(tmp_path):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text("def f(n):\n    return f(n - 1)\n\n"
                 "def g():\n    return C()\n\n"
                 "class C:\n    pass\n\n"
                 "def _h():\n    pass\n\n"
                 "def k():\n    pass\n", encoding="utf-8")
    b.write_text("from . import a as A\n\n"
                 "def m():\n    return A.k()\n\n"
                 "def n():\n    return m()\n", encoding="utf-8")
    # f only calls itself, g and n nothing reaches; C is reached by
    # name in a, k through the alias, m by name in b
    assert unreached([a, b]) == ["a.f", "a.g", "b.n"]
