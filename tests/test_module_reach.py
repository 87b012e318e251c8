"""Every library module is reached from something other than the tests.

An ``ast`` import walk starts at the CLI (``repro.cli`` and the
``python -m repro`` entry point) and at every script under ``perfbench/``,
``benchmarks/``, ``examples/`` and ``.github/scripts/``, then follows the
imports of each ``src/repro`` module it reaches, function-local imports
included.  Importing ``a.b.c`` runs ``a`` and ``a.b`` too, so parent
packages count as reached.  perfbench names the functions it times as
``"pkg.mod:attr"`` strings (its ``LAYERS``) and resolves them with
``importlib``; each such string counts as an import of ``pkg.mod``.

A module the walk misses runs only under the tests: delete it, or give a
CLI verb, example or benchmark a reason to run it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ENTRY_DIRS = ("perfbench", "benchmarks", "examples", ".github/scripts")
ENTRY_MODULES = ("repro.__main__", "repro.cli")
TARGET = re.compile(r"(repro(?:\.\w+)+):[\w.]+")

#: Modules that stay although only tests reach them, each with its reason.
TEST_ONLY = {
    "repro.simulator.protocols.packet_routing": (
        "the paper's Sec. 4 routing as a distributed protocol, checked end "
        "to end by tests/test_full_pipeline.py"
    ),
}


def _module_path(name: str) -> Path | None:
    base = SRC.joinpath(*name.split("."))
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            return path
    return None


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imports(path: Path) -> set[str]:
    """Every dotted name ``path`` imports or names in a ``"pkg.mod:attr"``."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{path}: relative import"
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = TARGET.fullmatch(node.value)
            if match:
                names.add(match.group(1))
    return names


def _reached() -> set[str]:
    todo = [path for d in ENTRY_DIRS for path in (ROOT / d).rglob("*.py")]
    todo += [_module_path(name) for name in ENTRY_MODULES]
    reached = set(ENTRY_MODULES)
    while todo:
        for name in _imports(todo.pop()):
            parts = name.split(".")
            for i in range(1, len(parts) + 1):
                prefix = ".".join(parts[:i])
                path = _module_path(prefix) if parts[0] == "repro" else None
                if path is not None and prefix not in reached:
                    reached.add(prefix)
                    todo.append(path)
    return reached


def test_every_library_module_is_reached_outside_the_tests():
    modules = {_module_name(path) for path in (SRC / "repro").rglob("*.py")}
    unreached = modules - _reached()
    assert unreached == set(TEST_ONLY)

