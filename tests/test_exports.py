"""Every exported name resolves and has a caller, and the package imports
nothing outside the standard library.

A name in a module's `__all__` must be an attribute of that module, and it
must be used somewhere in `src/` or `tests/` as an identifier: its own
`def` or `class` line, its `__all__` string and import statements do not
count.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import charnum
from charnum import cli

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


def test_sources_import_only_the_standard_library():
    """charnum has no dependencies: every import in src/charnum is relative
    or names a standard-library module, and pyproject.toml lists none."""
    foreign = []
    for path in sorted(ROOT.glob("src/charnum/*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] not in sys.stdlib_module_names]
    assert not foreign, f"imports from outside the standard library: {foreign}"
    tomllib = pytest.importorskip("tomllib")
    assert tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"] == []


def _unused_imports(path: Path, exported) -> list[str]:
    """`file:line name` for each name the file imports (bar `__future__`)
    that it never reads and that is not in `exported`, its `__all__`."""
    tree = ast.parse(path.read_text())
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and name not in exported:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    return unused


def test_every_import_is_used():
    """A name that a module imports is read in it or re-exported in its `__all__`."""
    unused = []
    for path in sorted(ROOT.glob("src/charnum/*.py")):
        module = importlib.import_module("charnum" if path.stem == "__init__" else f"charnum.{path.stem}")
        unused += _unused_imports(path, getattr(module, "__all__", ()))
    assert not unused, f"imported names never used: {unused}"


def _unread_parameters(path: Path) -> list[str]:
    """`module.function(parameter)` for each parameter of each `def` in the
    file that its body never reads.  Exempt are a method's receiver (`self`,
    `cls`), which the class fixes, and lambdas, whose signature
    `filter_keys` fixes."""
    unread = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        read = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        unread += [f"{path.stem}.{node.name}({p.arg})" for p in params if p.arg not in read | {"self", "cls"}]
    return unread


def test_every_parameter_is_read():
    """A parameter that no body reads is an option no caller can vary."""
    unread = [name for path in sorted(ROOT.glob("src/charnum/*.py")) for name in _unread_parameters(path)]
    assert not unread, f"parameters never read: {unread}"


def _attributes_read(fn: ast.FunctionDef, param: str, defs: dict, seen: set) -> set[str]:
    """The attributes that `fn` reads off its parameter `param`, directly or
    through a function of `defs` that it passes `param` to."""
    read = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == param:
            read.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in defs:
            callee = defs[node.func.id]
            names = [a.arg for a in callee.args.args]
            passed = [*zip(names, node.args), *((k.arg, k.value) for k in node.keywords)]
            for name, arg in passed:
                if isinstance(arg, ast.Name) and arg.id == param and (callee.name, name) not in seen:
                    seen.add((callee.name, name))
                    read |= _attributes_read(callee, name, defs, seen)
    return read


def test_every_cli_option_is_read():
    """An option that its command never reads is parsed and ignored: each
    option of each `build_parser()` subcommand is read as `args.<dest>` by its
    command or by a `cli` function that receives `args`."""
    tree = ast.parse((ROOT / "src/charnum/cli.py").read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    unread = []
    for command, parser in sub.choices.items():
        fn = defs[parser.get_default("func").__name__]
        read = _attributes_read(fn, fn.args.args[0].arg, defs, set())
        dests = [a.dest for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        unread += [f"{command} {dest}" for dest in dests if dest not in read]
    assert len(sub.choices) == 6
    assert not unread, f"options never read: {unread}"
