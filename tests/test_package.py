import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gogmagog"


def _private_definitions(tree):
    """(name, node) for each top-level function, class or constant whose
    name starts with one underscore."""
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
            if name.startswith("_") and not name.startswith("__"):
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


def test_every_private_top_level_name_is_used():
    # a helper only its own definition mentions is dead: delete it
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    mentions = {node: set(_mentions(node)) for tree in trees.values() for node in tree.body}
    unused = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name, definition in _private_definitions(tree)
        if not any(name in seen for node, seen in mentions.items() if node is not definition)
    ]
    assert unused == []
