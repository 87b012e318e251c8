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

The same holds one level down, for names.  In every reached module, each
top-level function and class, and each non-dunder method or property, must
be named by the entry scripts or the reached modules outside its own body:
as a ``Name`` or ``Attribute`` load, as a string constant equal to the name
(``getattr(sink, "close")``), or as the attribute part of a perfbench
``"pkg.mod:Class.attr"`` target.  Imports, package re-exports and
``__all__`` entries do not count.  Names are matched bare, not resolved,
so one read of ``.close`` keeps every ``close`` method.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ENTRY_DIRS = ("perfbench", "benchmarks", "examples", ".github/scripts")
ENTRY_MODULES = ("repro.__main__", "repro.cli")
TARGET = re.compile(r"(repro(?:\.\w+)+):([\w.]+)")

#: Modules that stay although only tests reach them, each with its reason.
TEST_ONLY = {
    "repro.simulator.protocols.packet_routing": (
        "the paper's Sec. 4 routing as a distributed protocol, checked end "
        "to end by tests/test_full_pipeline.py"
    ),
}

#: Names that stay although only tests name them, each with its reason.
TEST_ONLY_NAMES = {
    # Checkers and oracles: the tests hold the product to these.
    "repro.faults.coverage:minimal_path_exists_wang": (
        "Wang's covering-sequence condition, the independent reference the "
        "existence DP and the safe conditions are checked against"
    ),
    "repro.routing.oracle:shortest_path_bfs": (
        "BFS shortest paths, the oracle for the detour router's lengths"
    ),
    "repro.faults.mcc:MCCComponent.is_orthogonally_convex": (
        "checks every MCC has the shape Definition 2 promises"
    ),
    "repro.routing.path:Path.is_sub_minimal": (
        "checks the spare-neighbour routes take exactly D + 2 hops"
    ),
    "repro.obs.recorder:FlightRecorder.canonical_stream": (
        "the timing-free stream replays and golden digests compare"
    ),
    "repro.core.pivots:pivot_count_for_levels": (
        "the paper's 1 + 4 + ... + 4^(k-1) pivot count, the oracle for "
        "recursive_center_pivots"
    ),
    "repro.faults.incremental:IncrementalFaultEngine.mcc_set": (
        "the engine's MCC read-out, checked against build_mccs after "
        "every event"
    ),
    "repro.simulator.network:MeshNetwork.channels": (
        "per-link views whose counters the tests sum against the "
        "network totals"
    ),
    "repro.simulator.channels:ChannelView.messages_dropped": (
        "per-link drop counter, summed against messages_dropped_total"
    ),
    "repro.simulator.channels:ChannelView.take_down": (
        "downs one link through its view, checked against the channel grid"
    ),
    "repro.simulator.traffic:PathPolicy.invalidate": (
        "the whole-cache reset the per-event generation windows are "
        "checked against"
    ),
    "repro.parallel.cache:use_artifact_cache": (
        "scopes a fresh cache so the figure goldens also run cold"
    ),
    # Paper constructs and public API that no product path runs yet.
    "repro.core.pivots:latin_pivots": (
        "the paper's second Extension 3 pivot variation (no two pivots "
        "share a row or column); no figure plots it"
    ),
    "repro.faults.blocks:FaultyBlock.adjacent_nodes": (
        "the paper's Sec. 2 adjacent nodes of a block"
    ),
    "repro.faults.blocks:FaultyBlock.corner_nodes": (
        "the paper's Sec. 2 corners of a block"
    ),
    "repro.core.boundaries:BoundaryMap.install": (
        "routes off the annotations the distributed boundary protocol "
        "formed (tests/test_full_pipeline.py)"
    ),
    "repro.simulator.protocols.dynamic_update:DynamicMesh.revive_node": (
        "one revival through the dynamic protocol's stabilization pulse, "
        "checked against the batch builders"
    ),
    "repro.faults.injection:wall_faults": (
        "wall-shaped fault patterns exported by repro.faults; deleting it "
        "also deletes two tests, left for a later change"
    ),
    "repro.obs.alerts:RateRule": (
        "alert rule kind of the public repro.obs API (docs/API.md); no "
        "default rule uses it, and deleting it also deletes two tests"
    ),
    "repro.obs.alerts:StallRule": (
        "alert rule kind of the public repro.obs API (docs/API.md); no "
        "default rule uses it, and deleting it also deletes three tests"
    ),
    "repro.parallel.cache:ArtifactCache.peek": (
        "the side-effect-free read StaleArtifactError documents for a "
        "degraded tier; serve answers stale reads another way"
    ),
    "repro.viz.ascii_art:render_boundaries": (
        "ASCII overlay of the traced boundary lines, in the public "
        "repro.viz API (docs/API.md)"
    ),
}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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


def _definitions(path: Path) -> list[str]:
    """Top-level functions and classes of ``path``, and their methods."""
    names = []
    for node in ast.parse(path.read_text(), str(path)).body:
        if not isinstance(node, DEFS):
            continue
        names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [
                f"{node.name}.{sub.name}"
                for sub in node.body
                if isinstance(sub, DEFS[:2])
                and not (sub.name.startswith("__") and sub.name.endswith("__"))
            ]
    return names


class _Uses(ast.NodeVisitor):
    """Each name a file reads, with the definitions the read sits in."""

    def __init__(self, owner: str):
        self.owner = owner
        self.scope: list[str] = []
        self.uses: dict[str, list[set[str]]] = {}

    def _read(self, name: str) -> None:
        enclosing = {
            f"{self.owner}:{'.'.join(self.scope[:i])}"
            for i in range(1, len(self.scope) + 1)
        }
        self.uses.setdefault(name, []).append(enclosing)

    def _define(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _define

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._read(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self._read(node.attr)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str):
            match = TARGET.fullmatch(node.value)
            for name in match.group(2).split(".") if match else [node.value]:
                self._read(name)


def _unnamed() -> set[str]:
    """``module:qualname`` of every definition no non-test code names."""
    modules = _reached() - set(TEST_ONLY)
    files = {str(p.relative_to(ROOT)): p for d in ENTRY_DIRS for p in (ROOT / d).rglob("*.py")}
    files.update((name, _module_path(name)) for name in modules)
    uses: dict[str, list[set[str]]] = {}
    for owner, path in files.items():
        visitor = _Uses(owner)
        visitor.visit(ast.parse(path.read_text(), str(path)))
        for name, scopes in visitor.uses.items():
            uses.setdefault(name, []).extend(scopes)
    unnamed = set()
    for module in modules:
        for qualname in _definitions(_module_path(module)):
            key = f"{module}:{qualname}"
            bare = qualname.rpartition(".")[2]
            if all(key in enclosing for enclosing in uses.get(bare, [])):
                unnamed.add(key)
    return unnamed


def test_every_library_name_is_named_outside_the_tests():
    assert _unnamed() == set(TEST_ONLY_NAMES)
    assert all(reason.strip() for reason in TEST_ONLY_NAMES.values())
