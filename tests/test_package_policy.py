"""Package policy: the standard library only, and an export list that matches the imports."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import padic_lseries

PACKAGE = Path(padic_lseries.__file__).resolve().parent


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_module_imports_only_the_standard_library_or_the_package():
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            for name in names:
                top = name.partition(".")[0]
                if top not in sys.stdlib_module_names and top != "padic_lseries":
                    outside.append(f"{path.name}:{node.lineno} imports {name}")
    assert outside == []


def test_all_names_exactly_the_public_imports_of_init():
    imported = [
        alias.asname or alias.name
        for node in _parse(PACKAGE / "__init__.py").body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    ]
    assert len(padic_lseries.__all__) == len(set(padic_lseries.__all__))
    assert sorted(padic_lseries.__all__) == sorted(imported)
    for name in padic_lseries.__all__:
        assert getattr(padic_lseries, name) is not None
