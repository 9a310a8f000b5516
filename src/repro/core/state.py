"""Optimizer state containers shared across LLA components.

The dual-decomposition state is deliberately plain data — dictionaries keyed
by subtask / resource / path identifiers — so the same structures serve the
in-process optimizer (:mod:`repro.core.optimizer`), the message-passing
distributed runtime (:mod:`repro.distributed`), and test assertions.

Paths are identified by :class:`PathKey` — the owning task name plus the
path's index into :attr:`SubtaskGraph.paths` — which is hashable, compact
and stable across iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, NamedTuple, Protocol, Tuple

__all__ = ["PathKey", "IterationRecord", "OptimizationResult", "RecordSource"]


class PathKey(NamedTuple):
    """Stable identifier of a root-to-leaf path: ``(task name, path index)``."""

    task: str
    index: int

    def __str__(self) -> str:
        return f"{self.task}#p{self.index}"


class RecordSource(Protocol):
    """Builds a deferred :class:`IterationRecord`'s per-name fields."""

    def record_field(self, name: str) -> Any:
        """The value of field ``name`` (one of ``DEFERRED_FIELDS``)."""


#: The fields a deferred record builds from its source on first read.
DEFERRED_FIELDS = frozenset({
    "latencies", "resource_prices", "path_prices", "resource_loads",
    "congested_resources", "congested_paths", "critical_paths",
})


@dataclass
class IterationRecord:
    """Everything observable about one LLA iteration.

    Captured by the optimizer after each latency-allocation + price-update
    round; the experiment drivers build the paper's figures directly from a
    list of these.

    A record made by :meth:`deferred` holds only ``iteration`` and
    ``utility`` up front; each per-name field is built from its
    :class:`RecordSource` on first read and cached.  The optimizer
    records every round this way, so rounds whose record nobody
    reads never pay for the dicts.  Deferred and eager records compare,
    print, pickle and copy alike.
    """

    iteration: int
    utility: float
    latencies: Dict[str, float]
    resource_prices: Dict[str, float]
    path_prices: Dict[PathKey, float]
    resource_loads: Dict[str, float]
    congested_resources: Tuple[str, ...]
    congested_paths: Tuple[PathKey, ...]
    critical_paths: Dict[str, float]

    @classmethod
    def deferred(cls, iteration: int, utility: float,
                 source: RecordSource) -> "IterationRecord":
        """A record whose per-name fields ``source`` builds on demand."""
        record = cls.__new__(cls)
        record.iteration = iteration
        record.utility = utility
        record.__dict__["_source"] = source
        return record

    def __getattr__(self, name: str) -> Any:
        # Reached only for attributes not yet set: a deferred field on
        # its first read.  Anything else is a plain AttributeError.
        source = self.__dict__.get("_source")
        if source is None or name not in DEFERRED_FIELDS:
            raise AttributeError(name)
        value = source.record_field(name)
        setattr(self, name, value)
        return value

    def __getstate__(self) -> Dict[str, Any]:
        # Pickles and copies carry the built fields, never the source
        # (which references the whole compiled structure).
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)

    def max_load(self) -> float:
        """Largest per-resource share sum this iteration."""
        return max(self.resource_loads.values()) if self.resource_loads else 0.0


@dataclass
class OptimizationResult:
    """Outcome of an LLA run.

    Attributes
    ----------
    converged:
        Whether the convergence criterion fired before the iteration budget
        ran out.
    iterations:
        Number of iterations actually executed.
    latencies:
        Final per-subtask latency assignment.
    utility:
        Final total utility ``Σ U_i``.
    history:
        Per-iteration records (empty if recording was disabled).
    """

    converged: bool
    iterations: int
    latencies: Dict[str, float]
    utility: float
    resource_prices: Dict[str, float] = field(default_factory=dict)
    path_prices: Dict[PathKey, float] = field(default_factory=dict)
    history: List[IterationRecord] = field(default_factory=list)

    def utility_trace(self) -> List[float]:
        """Utility value per iteration (the y-axis of Figures 5–7)."""
        return [rec.utility for rec in self.history]

    def load_trace(self, resource: str) -> List[float]:
        """Share-sum trajectory of one resource (Figure 7's dashed lines)."""
        return [rec.resource_loads[resource] for rec in self.history]
