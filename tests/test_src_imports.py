"""Every name a pathmove module imports is used in that module, and
every module-level function and class is used somewhere in `src/`, so a
refactor cannot leave a dead import or a test-only helper behind.  The
exceptions are the names that perfbench wraps (perfbench/spans.py
patches them by name, so they stay bound even where nothing calls them)
and the names the acceptance suite imports, which is their caller."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

# perfbench's modules sit beside its run.py, which imports them by name.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pathmove"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"


def imported_names(tree: ast.Module) -> set[str]:
    """The names that the module's import statements bind."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_imported_name_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = f"pathmove.{path.stem}"
        wrapped = {attr for mod, attr, _, _ in spans.WRAPS if mod == module}
        unused += [f"{module}.{name}"
                   for name in sorted(imported_names(tree) - used_names(tree) - wrapped)]
    assert not unused, f"imported but never used: {unused}"


def referenced_names(node: ast.AST) -> set[str]:
    """The names that `node` reads, bare or as an attribute."""
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def test_every_definition_is_used_in_src():
    definitions = []  # (module, name, the top-level statement defining it)
    statements = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        statements += tree.body
        definitions += [
            (f"pathmove.{path.stem}", node.name, node)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ]
    references = [(node, referenced_names(node)) for node in statements]
    exempt = imported_names(ast.parse(ACCEPTANCE.read_text(encoding="utf-8")))
    exempt |= {attr for _, attr, _, _ in spans.WRAPS}
    unused = [
        f"{module}.{name}"
        for module, name, definition in definitions
        if name not in exempt
        and not any(name in names for node, names in references if node is not definition)
    ]
    assert not unused, f"defined but never used in src/: {unused}"
