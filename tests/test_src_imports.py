"""Every name a pathmove module imports is used in that module, so a
refactor cannot leave a dead import behind.  The exception is a name
that perfbench wraps in that module: perfbench/spans.py patches it by
name, so it stays bound even where the module itself never calls it."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

# perfbench's modules sit beside its run.py, which imports them by name.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pathmove"


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

