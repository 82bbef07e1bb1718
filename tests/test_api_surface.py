"""Every public definition of `src/hflab` has a caller.

Module level: each public function and class.  Class level: each public
method and property (dataclass fields are data, not callers' targets).  A
caller is a reference in `src/hflab` or `perfbench` outside the name's own
definition: a `Name`, an `Attribute` or an imported name for module-level
definitions, an `Attribute` for methods and properties.  Strings and
docstrings do not count, and neither do the tests: code that only tests call
belongs in the tests.

Methods are matched by attribute name, not by type: `Field.norm` counts as
called wherever any `.norm` is read (`np.linalg.norm` included).  The check
therefore finds methods whose name nothing reads, and cannot see a method
whose name other objects share.

Parameters: every parameter of every function, method and lambda in
`src/hflab` is read (a `Name` load) somewhere in its body, nested functions
included.  A parameter kept only for a shared signature says so with a
leading underscore.
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


def _attributes(node) -> Counter:
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def _public(nodes, kinds) -> list:
    return [node for node in nodes if isinstance(node, kinds) and not node.name.startswith("_")]


def _trees() -> dict:
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}


def _library(trees: dict) -> dict:
    return {path: tree for path, tree in trees.items() if path.parent.name == "hflab"}


def _uncalled() -> list:
    trees = _trees()
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    uncalled = []
    for path, tree in _library(trees).items():
        for node in _public(tree.body, (ast.FunctionDef, ast.ClassDef)):
            if everywhere[node.name] - _references(node)[node.name] <= 0:
                uncalled.append(f"{path.stem}.{node.name}")
    return uncalled


def _uncalled_members() -> list:
    trees = _trees()
    everywhere = sum((_attributes(tree) for tree in trees.values()), Counter())
    uncalled = []
    for path, tree in _library(trees).items():
        for cls in _public(tree.body, ast.ClassDef):
            for node in _public(cls.body, ast.FunctionDef):
                if everywhere[node.name] - _attributes(node)[node.name] <= 0:
                    uncalled.append(f"{path.stem}.{cls.name}.{node.name}")
    return uncalled


def _unread_parameters(tree) -> list:
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [arg for arg in (args.vararg, args.kwarg) if arg is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {sub.id for stmt in body for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        unread += [f"{name}({arg.arg})" for arg in params
                   if not arg.arg.startswith("_") and arg.arg not in read]
    return unread


def test_sources_found():
    assert any(path.name == "hartree_fock.py" for path in SOURCES)
    assert any(path.name == "run.py" for path in SOURCES)


def test_every_public_definition_has_a_caller():
    assert _uncalled() == []


def test_every_public_method_and_property_has_a_caller():
    assert _uncalled_members() == []


def test_member_scan_sees_methods_and_properties():
    tree = ast.parse(
        "class A:\n"
        "    x: int = 0\n"
        "    @property\n"
        "    def p(self):\n"
        "        return self.x\n"
        "    def m(self):\n"
        "        return self.m\n"
        "    def _private(self):\n"
        "        return 0\n"
    )
    (cls,) = tree.body
    members = _public(cls.body, ast.FunctionDef)
    assert [node.name for node in members] == ["p", "m"]
    # a method's reference to itself does not count as a caller
    assert [_attributes(tree)[n.name] - _attributes(n)[n.name] for n in members] == [0, 0]


def test_every_parameter_is_read():
    unread = [f"{path.stem}.{entry}" for path, tree in _library(_trees()).items()
              for entry in _unread_parameters(tree)]
    assert unread == []


def test_parameter_scan_sees_unread_parameters():
    tree = ast.parse(
        "def f(a, b, _c, *args, d=0, **kw):\n"
        "    b = a\n"
        "    def g(e):\n"
        "        return kw, d\n"
        "    return lambda x, y: x\n"
    )
    # an assignment is not a read, a nested function's read is, and _c is exempt
    assert _unread_parameters(tree) == ["f(b)", "f(args)", "g(e)", "<lambda>(y)"]
