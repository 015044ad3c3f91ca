import ast
import copy
import os
import pickle
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import gogmagog
from gogmagog import (
    Asm, BijectionState, Family, FamilySpec, GtTriangle, Report, Rule, ShapeError, Ssyt, StepRecord,
    Violation
)

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


def test_import_loads_no_heavy_standard_module():
    # `dataclasses` brings `inspect` (with `ast`, `dis`, `tokenize`) and
    # `fractions` brings `decimal`: most of what a CLI process used to pay
    # to import the package.  Only modules the import adds are counted,
    # since `site` may load some of these first.
    probe = ("import sys\nbefore = set(sys.modules)\nimport gogmagog, gogmagog.cli\n"
             "print(sorted(set(sys.modules) - before))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    added = set(ast.literal_eval(out.stdout))
    assert "gogmagog.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect", "fractions", "decimal"})


VALUES = {
    "GtTriangle(rows=((1, 2), (1,)))": GtTriangle(((1, 2), (1,))),
    "Violation(i=1, j=2, message='3 < 4')": Violation(1, 2, "3 < 4"),
    "Asm(rows=((0, 1), (1, 0)))": Asm(((0, 1), (1, 0))),
    "Ssyt(rows=((1, 1, 2), (2,)), n=2)": Ssyt(((1, 1, 2), (2,)), 2),
    "StepRecord(k=1, rule=<Rule.I: 'i'>, l=None)": StepRecord(1, Rule.I),
    "BijectionState(n=5, u=(5, 3, 3), v=(4, 2))": BijectionState(5, (5, 3, 3), (4, 2)),
    "FamilySpec(family=<Family.GT: 'gt'>, n=3, k=None, bound=4)": FamilySpec(Family.GT, 3, bound=4),
    "Report(suite='counts', n=2, checks=1, failures=['x'], histogram={'gog-2': 2}, millis=5)":
        Report("counts", 2, 1, ["x"], {"gog-2": 2}, 5),
}


@pytest.mark.parametrize("text", VALUES)
def test_value_classes_behave_as_frozen_dataclasses(text):
    value = VALUES[text]
    names = re.findall(r"(\w+)=", text)  # the fields, in order
    fields = tuple(getattr(value, name) for name in names)
    assert repr(value) == text
    assert type(value)(*fields) == value
    assert [other for other in VALUES.values() if other == value] == [value]
    for twin in copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value)):
        assert type(twin) is type(value) and twin == value
    if isinstance(value, Report):
        with pytest.raises(TypeError):
            hash(value)
        twin = copy.deepcopy(value)
        twin.checks += 1
        twin.failures.append("y")
        assert (twin.checks, twin.failures, value.failures) == (2, ["x", "y"], ["x"])
        return
    assert hash(value) == hash(fields)
    with pytest.raises(AttributeError):
        setattr(value, names[0], None)
    with pytest.raises(AttributeError):
        delattr(value, names[0])
    with pytest.raises(AttributeError):
        value.extra = None


def test_values_compare_only_within_their_class():
    rows = ((1,),)
    assert GtTriangle(rows) != Asm(rows) and GtTriangle(rows) != rows
    assert GtTriangle(rows).__eq__(Asm(rows)) is NotImplemented


def test_copies_go_through_the_checked_constructor():
    bad = GtTriangle._trusted(((1, 2), (1, 2)))
    with pytest.raises(ShapeError):
        pickle.loads(pickle.dumps(bad))
    with pytest.raises(ShapeError):
        copy.copy(bad)
