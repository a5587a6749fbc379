"""The library's only runtime dependency is numpy."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "densefocus"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "densefocus"}


def imported_roots(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_modules_import_only_stdlib_numpy_and_the_package():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    foreign = {p.name: sorted(set(imported_roots(p)) - ALLOWED) for p in modules}
    assert {name: mods for name, mods in foreign.items() if mods} == {}


def test_every_public_name_resolves():
    import densefocus
    missing = [name for name in densefocus.__all__ if not hasattr(densefocus, name)]
    assert missing == []
    assert len(set(densefocus.__all__)) == len(densefocus.__all__)
