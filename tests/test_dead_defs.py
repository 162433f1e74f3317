"""Ratchet: every top-level def and class of the package has a reference.

A def counts as referenced when its name appears as a name, an
attribute, an imported name or an identifier string (``monkeypatch``
targets) anywhere in the package, ``__ray_entry__.py``, ``bench.py``,
``perfbench/`` or ``tests/``, other than at its own definition. Entry
points that only the command line or the driver calls are listed in
``ENTRY_POINTS``.
"""

from __future__ import annotations

import ast
import pathlib
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "vat_abcd_crawler_ray"

# reached from outside the scanned sources: the console entry and the
# subcommands argparse dispatches to (``set_defaults(fn=cmd_...)`` is a
# reference too, but a new command must not need one to pass)
ENTRY_POINTS = {"main"}
ENTRY_PREFIXES = ("cmd_",)


def _sources() -> list[pathlib.Path]:
    files = [ROOT / "__ray_entry__.py", ROOT / "bench.py"]
    for folder in (PACKAGE, ROOT / "perfbench", ROOT / "tests"):
        files += sorted(folder.rglob("*.py"))
    return [f for f in files if f.exists()]


def _used_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
    return names


def unreferenced_defs() -> list[str]:
    defs, used = [], set()
    for path in _sources():
        tree = ast.parse(path.read_text(), filename=str(path))
        used |= _used_names(tree)
        if PACKAGE in path.parents:
            for node in tree.body:
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    defs.append((path.relative_to(ROOT), node.lineno, node.name))
    return [
        f"{path}:{line} {name}"
        for path, line, name in defs
        if name not in used
        and name not in ENTRY_POINTS
        and not name.startswith(ENTRY_PREFIXES)
    ]


def test_every_package_def_is_referenced():
    t0 = time.perf_counter()
    dead = unreferenced_defs()
    assert not dead, "top-level defs nothing references:\n" + "\n".join(dead)
    assert time.perf_counter() - t0 < 2.0
