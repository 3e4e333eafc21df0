"""Every name a package module imports is used in that module."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "algraph"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_no_unused_imports():
    unused = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py" and (names := unused_imports(path.read_text()))
    }
    assert unused == {}


def _defined(node) -> set[str]:
    """Names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _referenced(node) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(a.name for a in sub.names)
    return names


def test_no_dead_private_helpers():
    """Every module-level ``_name`` is referenced somewhere in the package
    outside its own definition."""
    statements = [
        node for path in sorted(PACKAGE.glob("*.py")) for node in ast.parse(path.read_text()).body
    ]
    private = {
        name
        for node in statements
        for name in _defined(node)
        if name.startswith("_") and not name.startswith("__")
    }
    used = set().union(*(_referenced(node) - _defined(node) for node in statements))
    assert sorted(private - used) == []


def test_no_private_names_imported_across_modules():
    """A ``_name`` is used only inside the module that defines it."""
    crossing = [
        f"{path.name}: {node.module}.{alias.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert crossing == []
