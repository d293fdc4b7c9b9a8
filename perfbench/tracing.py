"""In-memory spans around the benchmark's own calls into the program.

The program is not instrumented: every span here wraps a call the
benchmark makes into one layer's public function.  A span records its
name, layer, start, end, parent, and ``time.thread_time`` CPU for calls on
the host thread.  Spans stay in memory until :meth:`Tracer.dump`.

A layer's self time is the time its spans cover minus the part their child
spans cover.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

#: Layers, named after the program's modules.
LAYERS = (
    "arrays.sparse",
    "arrays.aggregate",
    "core.sequential",
    "core.parallel",
    "exec",
    "cluster",
    "olap.query",
    "serve",
    "olap.maintenance",
)


def layer_of(name: str) -> str:
    """Longest layer prefix of a span name; ``bench`` for the harness."""
    matches = [layer for layer in LAYERS if name.startswith(layer + ".")]
    return max(matches, key=len) if matches else "bench"


class _Span:
    """Context manager for one span; cheaper than a generator-based one,
    which matters on the per-query serving path."""

    __slots__ = ("tracer", "rec", "cpu0")

    def __init__(self, tracer: "Tracer", rec: dict):
        self.tracer = tracer
        self.rec = rec

    def __enter__(self) -> dict:
        stack = self.tracer._stack
        rec = self.rec
        rec["id"] = len(self.tracer.spans)
        rec["parent"] = stack[-1] if stack else None
        self.tracer.spans.append(rec)
        stack.append(rec["id"])
        self.cpu0 = time.thread_time()
        rec["start"] = time.perf_counter()
        return rec

    def __exit__(self, *exc) -> None:
        rec = self.rec
        rec["end"] = time.perf_counter()
        rec["thread_cpu_s"] = time.thread_time() - self.cpu0
        self.tracer._stack.pop()


class _NullSpan:
    def __enter__(self):
        return None

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans when enabled; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._layers: dict[str, str] = {}

    def span(self, name: str, layer: str | None = None, **attrs):
        if not self.enabled:
            return _NULL_SPAN
        if layer is None:
            layer = self._layers.get(name)
            if layer is None:
                layer = self._layers[name] = layer_of(name)
        return _Span(self, {"name": name, "layer": layer, "attrs": attrs})

    def add(self, name: str, start: float, end: float, parent: dict | None,
            **attrs) -> None:
        """Record a span measured elsewhere (the program's host-lane spans,
        which use the same ``perf_counter`` clock)."""
        if not self.enabled:
            return
        self.spans.append({
            "id": len(self.spans),
            "name": name,
            "layer": layer_of(name),
            "parent": parent["id"] if parent is not None else None,
            "start": start,
            "end": end,
            "thread_cpu_s": None,
            "attrs": attrs,
        })

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> dict[str, float]:
        """Seconds per layer, each span's duration minus its children's."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out = {layer: 0.0 for layer in LAYERS + ("bench",)}
        for s in self.spans:
            own = (s["end"] - s["start"]) - child_time[s["id"]]
            out[s["layer"]] += max(own, 0.0)
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}, default=str) + "\n")
