import ast
import re
from collections import Counter
from pathlib import Path

import gogmagog

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gogmagog"
BENCH = "\n".join(path.read_text() for path in sorted((ROOT / "bench").glob("*.py")))


def _definitions(tree):
    """(name, node) for each top-level function, class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            yield name, node


def _mentions(node):
    """Every name ``node`` reads, accesses as an attribute or imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def _package_trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _mentioned_elsewhere(name, definition, mentions):
    return any(name in seen for node, seen in mentions.items() if node is not definition)


def test_every_private_top_level_name_is_used():
    # a helper only its own definition mentions is dead: delete it
    trees = _package_trees()
    mentions = {node: set(_mentions(node)) for tree in trees.values() for node in tree.body}
    unused = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name, definition in _definitions(tree)
        if name.startswith("_") and not name.startswith("__")
        and not _mentioned_elsewhere(name, definition, mentions)
    ]
    assert unused == []


def test_every_exported_name_is_used():
    # an exported name that only tests reach is surface nothing needs:
    # delete it.  Re-exporting it from __init__.py is not a use, and
    # bench/tracer.py wraps names by string, so a word in bench/ is one.
    trees = _package_trees()
    del trees["__init__.py"]
    mentions = {node: set(_mentions(node)) for tree in trees.values() for node in tree.body}
    definitions = {name: node for tree in trees.values() for name, node in _definitions(tree)}
    unused = [
        name
        for name in gogmagog.__all__
        if not _mentioned_elsewhere(name, definitions.get(name), mentions)
        and not re.search(rf"\b{name}\b", BENCH)
    ]
    assert unused == []


def test_every_class_member_is_used():
    # a method or property that neither code in src/ reads as an attribute
    # (outside its own definition) nor bench/ names is dead: delete it
    def reads(node):
        return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))

    trees = _package_trees().values()
    everywhere = sum(map(reads, trees), Counter())
    classes = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    unused = [
        f"{cls.name}.{member.name}"
        for cls in classes for member in cls.body
        if isinstance(member, ast.FunctionDef) and not re.fullmatch(r"__\w+__", member.name)
        and everywhere[member.name] == reads(member)[member.name]
        and not re.search(rf"\b{member.name}\b", BENCH)
    ]
    assert unused == []


def _resolves(node):
    """Whether ``node`` defines a resolver: ``name = _per_size(...)``."""
    call = getattr(node, "value", None)
    return isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_per_size"


def test_caps_are_read_only_where_a_schedule_is_resolved():
    # `_per_size` alone chooses between a kernel and its loop, once per
    # size; a cap read anywhere else is a second choice that can drift
    readers = [
        f"{module}: {name}"
        for module, tree in _package_trees().items()
        for name, node in _definitions(tree)
        if {"_UNROLL_MAX_N", "_RSK_MAX_N"} & set(_mentions(node))
        and name != "_per_size" and not _resolves(node)
    ]
    assert readers == []


def test_docs_name_only_private_names_that_exist():
    # every backticked `_x`, `Cls._x` or `module._x` in README.md and in
    # the package's docstrings and comments (code holds no backticks) is
    # defined in src/, so a deleted helper leaves no mention behind
    trees = _package_trees()
    scopes = {path[:-3]: tree for path, tree in trees.items()}
    scopes.update((node.name, node) for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef))
    defined = {(scope, name) for scope, node in scopes.items() for name, _ in _definitions(node)}
    names = {name for _, name in defined}
    text = "\n".join(path.read_text() for path in [ROOT / "README.md", *PACKAGE.glob("*.py")])
    missing = {
        f"{scope}.{name}".lstrip(".")
        for scope, name in re.findall(r"(?<!`)`(?:\w+\.)*?(?:(\w+)\.)?(_\w+)(?:\([^`]*\))?`(?!`)", text)
        if (scope, name) not in defined and (scope in scopes or name not in names)
    }
    assert missing == set()
