"""Static checks over the package source: every function and class is used
by the package itself, so code that only tests call lives beside the tests."""

import ast
from pathlib import Path

import heckespin

SRC = Path(heckespin.__file__).resolve().parent


def _references(node) -> list:
    """The names a subtree refers to: Name ids and Attribute attributes."""
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


def uncalled_names(src: Path = SRC) -> list:
    """module.name of every function or class (nested ones and methods too)
    that no Name or Attribute anywhere in src refers to outside its own
    definition; dunders are exempt."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    total: dict = {}
    for tree in trees.values():
        for name in _references(tree):
            total[name] = total.get(name, 0) + 1
    out = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if total.get(node.name, 0) == _references(node).count(node.name):
                out.append(f"{module}.{node.name}")
    return out


def test_every_function_and_class_in_src_has_a_caller_in_src():
    assert uncalled_names() == []


def test_a_planted_uncalled_function_is_flagged(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def used():\n    return helper()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def recursive(k):\n    return recursive(k - 1) if k else 0\n\n\n"
        "class Holder:\n    def __repr__(self):\n        return 'x'\n\n"
        "    def method(self):\n        return self.method\n"
    )
    (tmp_path / "main.py").write_text("from mod import used\n\nused()\n")
    assert uncalled_names(tmp_path) == ["mod.recursive", "mod.Holder", "mod.method"]
