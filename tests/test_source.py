"""Source hygiene of the package modules."""

import ast
from pathlib import Path

import hssmmc

MODULES = sorted(p for p in Path(hssmmc.__file__).parent.glob("*.py") if p.name != "__init__.py")


def test_every_imported_name_is_read():
    # __init__.py imports names to re-export them, so it is not scanned.
    unused = {}
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - read:
            unused[path.name] = sorted(imported - read)
    assert len(MODULES) >= 10
    assert unused == {}
