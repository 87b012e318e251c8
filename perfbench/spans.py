"""In-memory span recorder and the timing wrappers of the traced run.

A :class:`SpanRecorder` keeps one stack of open spans (the benchmark runs
one thread, and every wrapped call is synchronous, so spans nest
strictly).  Each closed span is stored as ``(id, name, start, end,
parent)`` and its *self time* -- duration minus the part covered by its
child spans -- is added to the layer named by the span.  Self times of
all layers plus the root's own remainder therefore add up to the traced
wall time exactly; the root's remainder is reported as ``unattributed_s``.

:meth:`SpanRecorder.instrument` replaces a public function or method of
the program with a timing wrapper, in every loaded ``repro`` module that
bound the same object (``from x import f`` copies the reference), and
:meth:`SpanRecorder.uninstall` restores the originals.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Iterable

_clock = time.perf_counter


def metric_name(layer: str, stat: str) -> str:
    """Per-layer metric name: a layer named after a module gets
    ``<module>.<stat>`` (``faults.mcc.busy_s``), one named after a function
    of a module gets ``<module>.<function>_<stat>``
    (``core.routing.witness_busy_s``)."""
    separator = "_" if layer.count(".") >= 2 else "."
    return f"{layer}{separator}{stat}"


class SpanRecorder:
    """Spans at layer boundaries, with per-layer self time and call counts."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.durations: defaultdict[str, list[float]] = defaultdict(list)
        # Open spans: [id, name, start, time covered by children].
        self._stack: list[list[Any]] = []
        self._next_id = 0
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------
    def enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, _clock(), 0.0])

    def exit(self) -> float:
        """Close the innermost span; returns its duration in seconds."""
        end = _clock()
        span_id, name, start, covered = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - covered
        self.calls[name] += 1
        self.durations[name].append(duration)
        parent = 0
        if self._stack:
            outer = self._stack[-1]
            outer[3] += duration
            parent = outer[0]
        self.spans.append((span_id, name, start, end, parent))
        return duration

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return timed

    # -- instrumentation ---------------------------------------------------
    def instrument(self, target: str, name: str, where: str | None = None) -> None:
        """Time every call of ``target`` (``"pkg.mod:func"`` or
        ``"pkg.mod:Class.method"``) as a span called ``name``.

        A function is replaced in every loaded ``repro`` module that bound
        it, or only in module ``where`` when given (to attribute one
        caller's uses of a shared function to that caller's layer).  A
        target the program no longer has is skipped, so the traced run
        keeps working after a refactor removes a layer; its metrics read 0.
        """
        module_name, _, attr = target.partition(":")
        try:
            module = importlib.import_module(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = inspect.getattr_static(owner, method)
        except (ImportError, AttributeError):
            return
        if owner_name:
            if isinstance(raw, staticmethod):
                patched: Any = staticmethod(self.wrap(name, raw.__func__))
            else:
                patched = self.wrap(name, raw)
            self._patch(owner, method, patched)
            return
        timed = self.wrap(name, raw)
        prefix = where if where is not None else "repro"
        for loaded in list(sys.modules.values()):
            loaded_name = getattr(loaded, "__name__", "")
            if (loaded_name == prefix or loaded_name.startswith(prefix + ".")) and (
                loaded.__dict__.get(attr) is raw
            ):
                self._patch(loaded, attr, timed)

    def patch_attribute(self, owner: Any, attr: str, value: Any) -> None:
        """Replace ``owner.attr`` until :meth:`uninstall` (for wrappers the
        caller builds itself)."""
        self._patch(owner, attr, value)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting ---------------------------------------------------------
    def busy(self, *names: str) -> float:
        return sum(self.self_s.get(name, 0.0) for name in names)

    def count(self, *names: str) -> int:
        return sum(self.calls.get(name, 0) for name in names)

    def busy_metrics(self, layers: Iterable[str]) -> dict[str, float]:
        """``<layer>.busy_s`` (self time) for each distinct layer."""
        return {metric_name(layer, "busy_s"): self.busy(layer) for layer in set(layers)}

    def write(self, workload: str) -> str:
        """Write the spans under ``out/`` next to this file; returns the path."""
        out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, f"spans-{workload}.json.gz")
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump({"columns": ["id", "name", "start_s", "end_s", "parent"],
                       "spans": self.spans}, handle, separators=(",", ":"))
        return path
