"""Dead-code guard for the package, using the standard library's ``ast`` only.

A module may not import a name it never uses, and a module-level private
function, class or constant (``_name``) must be referenced somewhere in
``src/carbon3d/`` other than its own definition.  ``__init__.py`` imports
are the package's public API and are exempt from the import rule.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "carbon3d"
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def _annotation_names(node: ast.AST) -> set[str]:
    """Names inside string annotations such as ``-> "SchemeRules"``."""
    names = set()
    for sub in ast.walk(node):
        annotations = []
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = sub.args.posonlyargs + sub.args.args + sub.args.kwonlyargs + [sub.args.vararg, sub.args.kwarg]
            annotations = [a.annotation for a in args if a is not None] + [sub.returns]
        elif isinstance(sub, ast.AnnAssign):
            annotations = [sub.annotation]
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval")) if isinstance(n, ast.Name)}
    return names


def _used_names(node: ast.AST) -> set[str]:
    """Every bare name node reads, in code and in string annotations."""
    return _annotation_names(node) | {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


def _references(node: ast.AST) -> set[str]:
    """Names node reads, imports from another module or reads as an attribute (``params._x``)."""
    names = _used_names(node)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names |= {alias.name for alias in sub.names}
    return names


def _defined_name(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


@pytest.mark.parametrize("module", sorted(name for name in MODULES if name != "__init__.py"))
def test_every_import_is_used(module):
    tree = MODULES[module]
    imported = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            imported.update({(a.asname or a.name).split(".")[0]: stmt.lineno for a in stmt.names})
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            imported.update({a.asname or a.name: stmt.lineno for a in stmt.names})
    used = set()
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            used |= _used_names(stmt)
    unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)
    assert unused == [], f"{module} imports names it never uses"


def test_every_private_definition_is_referenced():
    # each top-level statement's references, so a definition cannot count its own body
    references = [(stmt, _references(stmt)) for module, tree in MODULES.items() for stmt in tree.body]
    unreferenced = []
    for module, tree in MODULES.items():
        for stmt in tree.body:
            for name in filter(_is_private, _defined_name(stmt)):
                if not any(name in used for other, used in references if other is not stmt):
                    unreferenced.append(f"{module}:{stmt.lineno} {name}")
    assert unreferenced == []

