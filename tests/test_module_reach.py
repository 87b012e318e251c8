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

And one level further down, for knobs.  Every defaulted parameter,
positional or keyword-only, of a function or method the name walk checks
(``__init__`` included, other dunders not) must be set by some call in
the entry scripts or the reached modules: by keyword, by position, or
through a ``*args`` / ``**kwargs`` splat.  ``self`` / ``cls``, underscore
names, ``*args`` / ``**kwargs``, dataclass fields (state initialisers,
not options) and the functions of ``TEST_ONLY`` / ``TEST_ONLY_NAMES`` are
skipped.  Callees match by bare name, as names do:

- ``Cls(...)`` is a call of ``Cls.__init__``; a class without its own
  ``__init__`` passes the call on to its bases, and ``super().__init__``
  is a call of the enclosing class's bases, so a subclass that forwards
  ``**kw`` to ``super().__init__`` sets every knob of its base;
- ``functools.partial(f, ...)`` is a call of ``f``;
- a call through a file-level alias or table (``run = f``,
  ``runners = {"fig9": fig9, ...}``, anything built from a table, and a
  loop variable over one) is a call of everything the alias names, with
  the keywords and positions it passes;
- a ``**`` splat of a dict display with constant keys or of
  ``dict(k=...)``, written in place or bound at file level to the
  splatted name (``Pipeline(service, **SETTINGS)``), sets only those
  keys; any other ``**`` splat may set every knob;
- pytest-benchmark's ``benchmark(f, *args, **kwargs)`` is a call of ``f``
  with those arguments, and ``benchmark.pedantic(f, args=(...),
  kwargs={...})`` a call of ``f`` with the positions of ``args`` and the
  keys of ``kwargs``.

A knob no such call sets is an option only the tests use: make it a
module constant the tests read or monkeypatch, or delete it with the
behaviour only it selects.
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
}

#: Knobs that stay although only tests set them, each with its reason.
TEST_ONLY_KNOBS = {
    "repro.cli:main.out": (
        "where the CLI writes its lines; the tests capture a verb's output "
        "through it instead of redirecting stdout"
    ),
    "repro.core.routing:WuRouter.__init__.tie_breaker": (
        "the exhaustive tests check Theorem 1 under a second tie-break "
        "(x-first), so minimality does not hang on the balanced one"
    ),
    "repro.core.segments:build_axis_segments.four_directional": (
        "the paper's second Extension 2 variation (segments on all four "
        "axis directions); no figure plots it"
    ),
    "repro.core.strategies:select_pivots.rng": (
        "the paper's Sec. 5 random pivots through the public strategy API; "
        "the figure sweeps call draw_random_pivots over bounds computed "
        "once per shard"
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



class _Def:
    """One function or method: its positional names and its knobs."""

    def __init__(self, key: str, func, method: bool):
        args = func.args
        positional = [a.arg for a in args.posonlyargs + args.args][int(method):]
        defaulted = positional[len(positional) - len(args.defaults):]
        defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
        self.key = key
        self.positional = positional
        self.knobs = {name for name in defaulted if not name.startswith("_")}


def _bare(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _bases(cls: ast.ClassDef) -> set[str]:
    return {_bare(base) for base in cls.bases} - {None}


def _aliases(tree: ast.Module) -> dict[str, set[str]]:
    """Every name a file binds to callables: ``f = g``, a table
    (``T = {"k": g}``, ``T = (g, h)``), anything built from a table
    (``U = tuple(... for g in T)``) and a loop variable over one."""
    bindings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            bindings += [(target, node.value) for target in node.targets]
        elif isinstance(node, (ast.For, ast.comprehension)):
            bindings.append((node.target, node.iter))
    aliases: dict[str, set[str]] = {}

    def names(value) -> set[str]:
        if isinstance(value, ast.Name):
            return {value.id} | aliases.get(value.id, set())
        if isinstance(value, ast.Attribute):
            return {value.attr}
        if isinstance(value, (ast.Dict, ast.List, ast.Tuple, ast.Set)):
            items = value.values if isinstance(value, ast.Dict) else value.elts
            return set().union(*map(names, items))
        return set().union(*(
            aliases.get(node.id, set())
            for node in ast.walk(value) if isinstance(node, ast.Name)
        ))

    changed = True
    while changed:
        changed = False
        for target, value in bindings:
            found = names(value)
            for node in ast.walk(target):
                if isinstance(node, ast.Name) and not found <= aliases.get(node.id, set()):
                    aliases.setdefault(node.id, set()).update(found)
                    changed = True
    return aliases


def _literal_keys(value) -> set[str] | None:
    """The keys of a dict display with constant keys or of ``dict(k=...)``;
    None for anything else."""
    if isinstance(value, ast.Dict) and all(
        isinstance(key, ast.Constant) and isinstance(key.value, str) for key in value.keys
    ):
        return {key.value for key in value.keys}
    if (isinstance(value, ast.Call) and _bare(value.func) == "dict" and not value.args
            and all(k.arg is not None for k in value.keywords)):
        return {k.arg for k in value.keywords}
    return None


class _Calls(ast.NodeVisitor):
    """Each call a file makes: ``(callee bare names, positionals, keywords
    set)``, the keywords None when a splat may set any."""

    def __init__(self, tree: ast.Module):
        self.aliases = _aliases(tree)
        self.literals = {
            target.id: keys
            for node in tree.body if isinstance(node, ast.Assign)
            for keys in [_literal_keys(node.value)] if keys is not None
            for target in node.targets if isinstance(target, ast.Name)
        }
        self.classes: list[ast.ClassDef] = []
        self.calls: list[tuple[set[str], list, set[str] | None]] = []
        self.visit(tree)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.classes.append(node)
        self.generic_visit(node)
        self.classes.pop()

    def callees(self, func) -> set[str]:
        if isinstance(func, ast.Subscript):
            func = func.value
        if isinstance(func, ast.Name):
            if func.id == "cls" and self.classes:
                return {self.classes[-1].name}
            return {func.id} | self.aliases.get(func.id, set())
        if isinstance(func, ast.Attribute):
            value = func.value
            if (isinstance(value, ast.Call) and _bare(value.func) == "super"
                    and func.attr == "__init__" and self.classes):
                return _bases(self.classes[-1])
            return {func.attr}
        return set()

    def keywords(self, keywords: list[ast.keyword]) -> set[str] | None:
        named: set[str] = set()
        for keyword in keywords:
            value = keyword.value
            keys = {keyword.arg} if keyword.arg is not None else _literal_keys(value)
            if keys is None and isinstance(value, ast.Name):
                keys = self.literals.get(value.id)
            if keys is None:
                return None
            named |= keys
        return named

    def visit_Call(self, node: ast.Call) -> None:
        callees, args, keywords = self.callees(node.func), node.args, node.keywords
        if args and callees in ({"partial"}, {"benchmark"}):
            callees, args = self.callees(args[0]), args[1:]
        elif (args and callees == {"pedantic"}
              and _bare(getattr(node.func, "value", None)) == "benchmark"):
            passed = {k.arg: k.value for k in keywords}
            callees, args = self.callees(args[0]), passed.get("args")
            if isinstance(args, (ast.Tuple, ast.List)):
                args = args.elts
            else:  # no ``args=``, or one the walk cannot read: any position
                args = [] if args is None else [ast.Starred(args, ast.Load())]
            keywords = [ast.keyword(None, passed["kwargs"])] if "kwargs" in passed else []
        self.calls.append((callees, args, self.keywords(keywords)))
        self.generic_visit(node)


def _knob_defs(
    modules: dict[str, ast.Module],
) -> tuple[dict[str, list[_Def]], dict[str, set[str]]]:
    """The checked functions and methods of ``modules`` (name to tree) by
    the bare name a call uses (``Cls`` for ``Cls.__init__``), and each
    class's bases; a class with its own ``__init__`` also lists None,
    which stops the climb."""
    exempt = set(TEST_ONLY_NAMES)
    defs: dict[str, list[_Def]] = {}
    bases: dict[str, set[str | None]] = {}
    for module, tree in modules.items():
        for node in tree.body:
            members = [(node.name, node, None)] if isinstance(node, DEFS[:2]) else []
            if isinstance(node, ast.ClassDef):
                bases.setdefault(node.name, set()).update(_bases(node))
                members += [(f"{node.name}.{sub.name}", sub, node)
                            for sub in node.body if isinstance(sub, DEFS[:2])]
            for qualname, func, cls in members:
                key = f"{module}:{qualname}"
                if key in exempt or f"{module}:{qualname.partition('.')[0]}" in exempt:
                    continue
                if func.name == "__init__":
                    bare = cls.name
                    bases[cls.name].add(None)
                elif func.name.startswith("__"):
                    continue
                else:
                    bare = func.name
                static = any(_bare(d) == "staticmethod" for d in func.decorator_list)
                method = cls is not None and not static
                defs.setdefault(bare, []).append(_Def(key, func, method))
    return defs, bases


def _unset(modules: dict[str, ast.Module], callers: list[ast.Module]) -> set[str]:
    """``module:qualname.param`` of every knob of ``modules`` (name to
    tree) that no call in ``callers`` sets."""
    defs, bases = _knob_defs(modules)
    unset = {f"{d.key}.{knob}" for ds in defs.values() for d in ds for knob in d.knobs}

    def constructors(name: str, seen: set[str]) -> list[_Def]:
        if name in seen:
            return []
        seen.add(name)
        found = list(defs.get(name, []))
        if None not in bases.get(name, {None}):
            for base in bases[name]:
                found += constructors(base, seen)
        return found

    for tree in callers:
        for callees, args, keywords in _Calls(tree).calls:
            star = any(isinstance(a, ast.Starred) for a in args)
            for d in (d for name in callees for d in constructors(name, set())):
                named = set(d.positional if star else d.positional[:len(args)])
                named |= d.knobs if keywords is None else keywords
                unset.difference_update(f"{d.key}.{knob}" for knob in named & d.knobs)
    return unset


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def _unset_knobs() -> tuple[set[str], int]:
    """``module:qualname.param`` of every knob no call outside the tests
    sets, and the number of knobs checked."""
    modules = {name: _parse(_module_path(name)) for name in _reached() - set(TEST_ONLY)}
    entries = [_parse(p) for d in ENTRY_DIRS for p in (ROOT / d).rglob("*.py")]
    checked = sum(len(d.knobs) for ds in _knob_defs(modules)[0].values() for d in ds)
    return _unset(modules, entries + list(modules.values())), checked


def test_every_library_knob_is_set_outside_the_tests():
    unset, _ = _unset_knobs()
    assert unset == set(TEST_ONLY_KNOBS)
    assert all(reason.strip() for reason in TEST_ONLY_KNOBS.values())


#: A synthetic library module for the call-matching rules.
LIBRARY = ast.parse("""
class Pipeline:
    def __init__(self, service, *, workers=4, deadline_s=0.05, backoff_s=0.001):
        pass

def build(mesh, faults, size=5, *, seed=0):
    pass
""")
PIPELINE_KNOBS = {
    f"lib:Pipeline.__init__.{knob}" for knob in ("workers", "deadline_s", "backoff_s")
}
BUILD_KNOBS = {"lib:build.size", "lib:build.seed"}


def test_a_literal_splat_sets_only_its_keys():
    caller = ast.parse("""
SETTINGS = dict(workers=2)
TABLE = {"deadline_s": 0.5}
Pipeline(service, **SETTINGS)
Pipeline(service, **TABLE)
build(mesh, faults, **{"seed": 1})
""")
    unset = _unset({"lib": LIBRARY}, [caller])
    assert unset == {"lib:Pipeline.__init__.backoff_s", "lib:build.size"}
    opaque = ast.parse("Pipeline(service, **options())")
    assert _unset({"lib": LIBRARY}, [opaque]) == BUILD_KNOBS


def test_a_benchmark_call_is_a_call_of_its_target():
    caller = ast.parse("""
KWARGS = {"workers": 1}

def test_build(benchmark):
    benchmark(build, mesh, faults, 3)
    benchmark.pedantic(build, args=(mesh, faults), kwargs={"seed": 1}, rounds=1)
    benchmark.pedantic(Pipeline, args=(service,), kwargs=KWARGS, iterations=2)
""")
    assert _unset({"lib": LIBRARY}, [caller]) == PIPELINE_KNOBS - {
        "lib:Pipeline.__init__.workers"
    }
