"""Every public module-level function and class of `src/hflab` has a caller.

A caller is a reference in `src/hflab` or `perfbench` outside the name's own
definition: a `Name`, an `Attribute` or an imported name.  Strings and
docstrings do not count, and neither do the tests: code that only tests call
belongs in the tests.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "hflab").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _references(node) -> Counter:
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def _uncalled() -> list:
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    uncalled = []
    for path, tree in trees.items():
        if path.parent.name != "hflab":
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if everywhere[node.name] - _references(node)[node.name] <= 0:
                uncalled.append(f"{path.stem}.{node.name}")
    return uncalled


def test_sources_found():
    assert any(path.name == "hartree_fock.py" for path in SOURCES)
    assert any(path.name == "run.py" for path in SOURCES)


def test_every_public_definition_has_a_caller():
    assert _uncalled() == []
