"""Every name a pathmove module imports is used in that module, every
module-level function, class and constant is used somewhere in `src/`
(`__version__` aside), and every exception class is named by some
`except` clause in `src/`, so a
refactor cannot leave a dead import, a test-only helper or an error type
that no code tells apart behind.  The exceptions to the second rule are
the names that perfbench wraps (perfbench/spans.py patches them by name,
so they stay bound even where nothing calls them) and the names the
acceptance suite imports, which is their caller."""

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


def defined_names(node: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a function, a class, or
    the constants an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [sub.id for target in targets for sub in ast.walk(target)
                if isinstance(sub, ast.Name)]
    return []


def test_every_definition_is_used_in_src():
    definitions = []  # (module, name, the top-level statement defining it)
    statements = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        statements += tree.body
        definitions += [
            (f"pathmove.{path.stem}", name, node)
            for node in tree.body
            for name in defined_names(node)
        ]
    references = [(node, referenced_names(node)) for node in statements]
    exempt = imported_names(ast.parse(ACCEPTANCE.read_text(encoding="utf-8")))
    exempt |= {attr for _, attr, _, _ in spans.WRAPS} | {"__version__"}
    unused = [
        f"{module}.{name}"
        for module, name, definition in definitions
        if name not in exempt
        and not any(name in names for node, names in references if node is not definition)
    ]
    assert not unused, f"defined but never used in src/: {unused}"


def test_every_exception_class_is_caught_in_src():
    """An error type that no `except` names is one that no code tells
    apart from its base, so it should raise the base.  `ParseError` is
    exempt: its constructor builds the `file:line:col:` prefix that its
    raise sites share, a reason to exist that no `except` shows."""
    bases = {}  # class name -> the names its bases read
    caught = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = set().union(*map(referenced_names, node.bases))
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= referenced_names(node.type)
    exceptions = {"Exception"}
    while grown := {name for name, read in bases.items() if read & exceptions} - exceptions:
        exceptions |= grown
    uncaught = sorted(exceptions - caught - {"Exception", "ParseError"})
    assert not uncaught, f"exception classes that no except in src/ names: {uncaught}"
