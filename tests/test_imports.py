"""Package layout: no module reaches into another module's private names,
and every public name resolves."""

import ast
from pathlib import Path

import strongcenter

PACKAGE = Path(strongcenter.__file__).parent


def test_no_private_names_imported_across_modules():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [
                    f"{path.name}: from {'.' * node.level}{node.module or ''}"
                    f" import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert found == []


def test_public_names_resolve_once():
    names = strongcenter.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(strongcenter, name)] == []
