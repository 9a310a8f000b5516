"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded from the benchmark's own code, around calls into the
program's public functions and methods; the program itself is not edited.
Each span has a name (``<module>.<call>``), start and end times, the id of
the span that was open when it started, and a request id (a solve, a churn
event, a query, ...).  Spans stay in memory until :meth:`SpanRecorder.dump`.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self.request: str = "-"
        #: ``"op"`` while the workload's own operations run, ``"sweep"``
        #: during the per-layer probes.
        self.phase: str = "op"

    @contextmanager
    def span(self, name: str, request: Optional[str] = None) -> Iterator[None]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "request": request if request is not None else self.request,
            "phase": self.phase,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, obj: Any, method: str, name: str) -> None:
        """Replace ``obj.method`` on the instance with a span-recording
        wrapper (the class and other instances are untouched)."""
        inner: Callable[..., Any] = getattr(obj, method)

        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(obj, method, traced)

    # -- analysis ------------------------------------------------------------

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def _child_time(self) -> Dict[int, float]:
        child_time: Dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        return child_time

    def self_durations(self, name: str) -> List[float]:
        """Self time (duration minus direct children) of each span
        called ``name``."""
        child_time = self._child_time()
        return [s["end"] - s["start"] - child_time[s["id"]]
                for s in self.spans if s["name"] == name]

    def self_times(self, phase: str = "op") -> Dict[str, float]:
        """Total self time per span name (duration minus direct children)
        over the spans of one phase."""
        child_time = self._child_time()
        totals: Dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s["phase"] == phase:
                totals[s["name"]] += \
                    (s["end"] - s["start"]) - child_time[s["id"]]
        return dict(totals)

    def layer_self_times(self, phase: str = "op") -> Dict[str, float]:
        """Self time per layer (the span name minus its last component)."""
        layers: Dict[str, float] = defaultdict(float)
        for name, total in self.self_times(phase).items():
            layers[name.rsplit(".", 1)[0]] += total
        return dict(layers)

    def covered(self, start: float, end: float, phase: str = "op") -> float:
        """Time inside root spans of ``phase`` that overlaps
        ``[start, end]``."""
        total = 0.0
        for s in self.spans:
            if s["parent"] is None and s["phase"] == phase:
                total += max(0.0, min(end, s["end"]) - max(start, s["start"]))
        return total

    def dump(self, path: str) -> None:
        origin = min((s["start"] for s in self.spans), default=0.0)
        with open(path, "w") as handle:
            for s in self.spans:
                out = dict(s)
                out["start"] = s["start"] - origin
                out["end"] = s["end"] - origin
                handle.write(json.dumps(out) + "\n")
