"""Every exported name resolves and has a caller.

A name in a module's `__all__` must be an attribute of that module, and it
must be used somewhere in `src/` or `tests/` as an identifier: its own
`def` or `class` line, its `__all__` string and import statements do not
count.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import charnum

ROOT = Path(__file__).resolve().parent.parent
MODULES = ["charnum"] + [f"charnum.{m.name}" for m in pkgutil.iter_modules(charnum.__path__)]


def _used_names() -> set[str]:
    """Identifiers read in expressions (names and attributes) in src/ and tests/."""
    used: set[str] = set()
    for path in [*ROOT.glob("src/charnum/*.py"), *ROOT.glob("tests/*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_exports_resolve_and_have_callers():
    used = _used_names()
    missing, unused = [], []
    for modname in MODULES:
        module = importlib.import_module(modname)
        for name in getattr(module, "__all__", ()):
            if not hasattr(module, name):
                missing.append(f"{modname}.{name}")
            elif name not in used:
                unused.append(f"{modname}.{name}")
    assert not missing, f"__all__ names that do not resolve: {missing}"
    assert not unused, f"exported names without a caller: {unused}"
