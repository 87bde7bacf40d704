"""Every name the package defines is read by the package or the benchmark.

A function, class or method that only tests call is test code kept in
``src/``: it belongs in ``tests/conftest.py``.  This test parses every
module of ``src/brokenchains`` and checks each top-level function and
class, and each method whose name is not a dunder.  A name counts as read
when package code outside its own definition names it: a top-level name as
an ``ast.Name``, an imported name or an attribute (``bench.run_fig3``), a
method as an attribute only.  A method that overrides one of a base class
(``generate_state`` of a numpy seed sequence) is read by that base's
callers.  A name that is a word of ``perfbench/*.py`` counts as read too,
since the harness wraps some names that only it reads.
"""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "brokenchains"


def reads(tree) -> tuple:
    """How often each name is read in ``tree`` as a name or an imported
    name, and how often as an attribute."""
    names, attributes = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes[node.attr] += 1
    return names, attributes


def definitions(tree):
    """``(class name or None, node)`` of each top-level function and class,
    and of each method of a top-level class that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield None, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield node.name, item


def overrides(module, owner: str, name: str) -> bool:
    """Whether method ``name`` of class ``owner`` overrides one of a base."""
    cls = getattr(importlib.import_module(f"brokenchains.{module}"), owner)
    return any(name in vars(base) for base in cls.__mro__[1:])


def unread_names() -> list:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    names, attributes = Counter(), Counter()
    for tree in trees.values():
        tree_names, tree_attributes = reads(tree)
        names += tree_names
        attributes += tree_attributes
    harness = "\n".join(path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py")))
    unread = []
    for module, tree in trees.items():
        for owner, node in definitions(tree):
            name = node.name
            own_names, own_attributes = reads(node)
            outside = attributes[name] - own_attributes[name]
            if owner is None:
                outside += names[name] - own_names[name]
            if outside > 0 or re.search(rf"\b{re.escape(name)}\b", harness):
                continue
            if owner is not None and overrides(module, owner, name):
                continue
            unread.append(f"{module}.{owner + '.' if owner else ''}{name}")
    return unread


def test_every_package_name_is_read_outside_tests():
    assert unread_names() == []
