"""Per-name reference implementation of the LLA iteration (test oracle).

:class:`~repro.core.optimizer.LLAOptimizer` runs every workload on the
batched engine of :mod:`repro.core.vectorized`.  This module keeps the
iteration in the per-controller form of the paper's two algorithm boxes:
one :class:`~repro.core.allocation.LatencyAllocator` and one
:class:`PathPriceUpdater` per task, one :class:`ResourcePriceUpdater`, and
the adaptive step-size heuristic kept per resource and per path name.

The parity tests compare the engine against :class:`ReferenceLLA`:

* bitwise on the closed-form family (linear and inelastic utilities,
  canonically declared task sets), over full figure runs;
* within solver tolerance on the numeric family (log, quadratic and
  exponential utilities), where the reference allocator maximizes each
  task's Lagrangian with L-BFGS-B.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, Mapping, Optional, Set, Tuple, Union

from repro.core.allocation import LatencyAllocator
from repro.core.convergence import ConvergenceDetector
from repro.core.optimizer import LLAConfig
from repro.core.prices import update_path_price, update_resource_price
from repro.core.state import IterationRecord, OptimizationResult, PathKey
from repro.core.stepsize import AdaptiveStepSize, FixedStepSize, StepSizePolicy
from repro.errors import OptimizationError
from repro.model.task import Task, TaskSet

__all__ = [
    "ResourcePriceUpdater",
    "PathPriceUpdater",
    "ReferenceFixedStepSize",
    "ReferenceAdaptiveStepSize",
    "reference_policy",
    "ReferenceLLA",
]


# -- price state (Eqs. 8–9) -----------------------------------------------------


class ResourcePriceUpdater:
    """Per-resource price state plus the update rule (the paper's
    "Resource Price Computation" box)."""

    def __init__(self, taskset: TaskSet, initial_price: float = 1.0) -> None:
        if initial_price < 0.0:
            raise ValueError(
                f"initial resource price must be non-negative, got {initial_price!r}"
            )
        self.taskset = taskset
        self.initial_price = float(initial_price)
        self.prices: Dict[str, float] = {
            r: self.initial_price for r in taskset.resources
        }

    def reset(self) -> None:
        self.prices = {r: self.initial_price for r in self.taskset.resources}

    def congested(self, loads: Mapping[str, float],
                  tol: float = 1e-9) -> Tuple[str, ...]:
        """Resources whose share sum exceeds availability (Eq. 3 violated)."""
        return tuple(
            r for r, load in loads.items()
            if load > self.taskset.resources[r].availability + tol
        )

    def update(self, latencies: Mapping[str, float],
               policy: "ReferencePolicy") -> Dict[str, float]:
        """Apply Eq. 8 to every resource; returns the new price map."""
        for rname, resource in self.taskset.resources.items():
            load = self.taskset.resource_load(rname, latencies)
            self.prices[rname] = update_resource_price(
                self.prices[rname],
                policy.resource_gamma(rname),
                resource.availability,
                load,
            )
        return dict(self.prices)


class PathPriceUpdater:
    """Per-path price state for one task (held by its controller)."""

    def __init__(self, task: Task, initial_price: float = 0.0) -> None:
        if initial_price < 0.0:
            raise ValueError(
                f"initial path price must be non-negative, got {initial_price!r}"
            )
        if not (task.critical_time > 0.0 and math.isfinite(task.critical_time)):
            raise OptimizationError(
                f"task {task.name!r} has critical time "
                f"{task.critical_time!r}; the Eq. 9 gradient needs a "
                "positive, finite critical time"
            )
        self.task = task
        self.initial_price = float(initial_price)
        self.prices: Dict[PathKey, float] = {
            PathKey(task.name, i): self.initial_price
            for i in range(len(task.graph.paths))
        }

    def reset(self) -> None:
        self.prices = {k: self.initial_price for k in self.prices}

    def congested(self, latencies: Mapping[str, float],
                  tol: float = 1e-9) -> Tuple[PathKey, ...]:
        """Paths whose end-to-end latency exceeds the critical time."""
        congested = []
        for i, path in enumerate(self.task.graph.paths):
            lat = self.task.graph.path_latency(path, latencies)
            if lat > self.task.critical_time + tol:
                congested.append(PathKey(self.task.name, i))
        return tuple(congested)

    def update(self, latencies: Mapping[str, float],
               policy: "ReferencePolicy") -> Dict[PathKey, float]:
        """Apply Eq. 9 to every path of the task; returns new prices."""
        for i, path in enumerate(self.task.graph.paths):
            key = PathKey(self.task.name, i)
            lat = self.task.graph.path_latency(path, latencies)
            self.prices[key] = update_path_price(
                self.prices[key],
                policy.path_gamma(key),
                lat,
                self.task.critical_time,
            )
        return dict(self.prices)


# -- per-name step sizes (Section 5.2) ------------------------------------------


class ReferenceFixedStepSize:
    """:class:`FixedStepSize` served per name."""

    def __init__(self, gamma: float, path_gamma: Optional[float] = None
                 ) -> None:
        self._policy = FixedStepSize(gamma, path_gamma)

    def resource_gamma(self, resource: str) -> float:
        return self._policy.gamma

    def path_gamma(self, path: PathKey) -> float:
        return self._policy.path_gamma

    def observe(self, congested_resources: Iterable[str],
                congested_paths: Iterable[PathKey]) -> None:
        pass

    def reset(self) -> None:
        pass


class ReferenceAdaptiveStepSize:
    """The adaptive heuristic of :class:`AdaptiveStepSize`, kept per
    resource and per path name.

    Resource γ doubles while its resource is congested; each path keeps
    two independent doubling states (covered by a congested resource,
    directly violating its critical time) and is served the larger
    active one; an inactive trigger snaps back to ``initial_gamma``.
    """

    def __init__(self, taskset: TaskSet, initial_gamma: float = 1.0,
                 growth: float = 2.0, max_gamma: float = 8.0) -> None:
        params = AdaptiveStepSize(initial_gamma, growth, max_gamma)
        self.initial_gamma = params.initial_gamma
        self.growth = params.growth
        self.max_gamma = params.max_gamma
        self._paths_by_resource = self._index_paths(taskset)
        self._resource_gamma: Dict[str, float] = {}
        self._path_gamma: Dict[PathKey, float] = {}
        self._cover_gamma: Dict[PathKey, float] = {}
        self._direct_gamma: Dict[PathKey, float] = {}
        self.reset()

    @staticmethod
    def _index_paths(taskset: TaskSet) -> Dict[str, Tuple[PathKey, ...]]:
        """Which paths traverse each resource (a path traverses ``r`` when
        any of its subtasks runs on ``r``)."""
        index: Dict[str, list] = {r: [] for r in taskset.resources}
        for task in taskset.tasks:
            resource_of = {s.name: s.resource for s in task.subtasks}
            for i, path in enumerate(task.graph.paths):
                key = PathKey(task.name, i)
                for resource in {resource_of[s] for s in path}:
                    index[resource].append(key)
        return {r: tuple(paths) for r, paths in index.items()}

    def reset(self) -> None:
        self._resource_gamma = {
            r: self.initial_gamma for r in self._paths_by_resource
        }
        all_paths: Set[PathKey] = set()
        for paths in self._paths_by_resource.values():
            all_paths.update(paths)
        self._path_gamma = {p: self.initial_gamma for p in all_paths}
        self._cover_gamma = {p: self.initial_gamma for p in all_paths}
        self._direct_gamma = {p: self.initial_gamma for p in all_paths}

    def resource_gamma(self, resource: str) -> float:
        return self._resource_gamma.get(resource, self.initial_gamma)

    def path_gamma(self, path: PathKey) -> float:
        return self._path_gamma.get(path, self.initial_gamma)

    def observe(self, congested_resources: Iterable[str],
                congested_paths: Iterable[PathKey]) -> None:
        congested = set(congested_resources)
        direct = set(congested_paths)
        covered: Set[PathKey] = set()
        for resource in self._paths_by_resource:
            if resource in congested:
                self._resource_gamma[resource] = min(
                    self._resource_gamma[resource] * self.growth,
                    self.max_gamma,
                )
                covered.update(self._paths_by_resource[resource])
            else:
                self._resource_gamma[resource] = self.initial_gamma
        for path in self._path_gamma:
            if path in covered:
                self._cover_gamma[path] = min(
                    self._cover_gamma[path] * self.growth, self.max_gamma
                )
            else:
                self._cover_gamma[path] = self.initial_gamma
            if path in direct:
                self._direct_gamma[path] = min(
                    self._direct_gamma[path] * self.growth, self.max_gamma
                )
            else:
                self._direct_gamma[path] = self.initial_gamma
            boosts = []
            if path in covered:
                boosts.append(self._cover_gamma[path])
            if path in direct:
                boosts.append(self._direct_gamma[path])
            self._path_gamma[path] = (
                max(boosts) if boosts else self.initial_gamma
            )


ReferencePolicy = Union[ReferenceFixedStepSize, ReferenceAdaptiveStepSize]


def reference_policy(policy: StepSizePolicy,
                     taskset: TaskSet) -> ReferencePolicy:
    """The per-name form of an engine step policy over ``taskset``."""
    if isinstance(policy, FixedStepSize):
        return ReferenceFixedStepSize(policy.gamma, policy.path_gamma)
    if isinstance(policy, AdaptiveStepSize):
        return ReferenceAdaptiveStepSize(
            taskset, policy.initial_gamma, policy.growth, policy.max_gamma
        )
    raise TypeError(f"no reference form for {type(policy).__name__}")


# -- the iteration ---------------------------------------------------------------


class ReferenceDetector(ConvergenceDetector):
    """The convergence detector judging feasibility on the object graph."""

    def __init__(self, taskset: TaskSet, **kwargs) -> None:
        super().__init__(None, **kwargs)
        self.taskset = taskset
        self._latencies: Optional[Dict[str, float]] = None

    def reset(self) -> None:
        super().reset()
        self._latencies = None

    def observe(self, utility: float,  # type: ignore[override]
                latencies: Mapping[str, float]) -> None:
        self._recent.append(float(utility))
        self._latencies = dict(latencies)
        self._verdict = None

    def _judge(self) -> bool:
        return self._latencies is not None and self.taskset.is_feasible(
            self._latencies, tol=self.feasibility_tol
        )


class ReferenceLLA:
    """The LLA iteration over per-task controllers and per-name prices.

    Mirrors the :class:`~repro.core.optimizer.LLAOptimizer` surface the
    tests drive: ``step``, ``run``, ``latencies``,
    ``resource_prices.prices``, ``adopt_prices``, ``reset`` and
    ``refresh_model`` (``warm_start`` in the config is honoured).
    """

    def __init__(self, taskset: TaskSet, config: Optional[LLAConfig] = None,
                 on_iteration: Optional[Callable[[IterationRecord], None]]
                 = None) -> None:
        self.taskset = taskset
        self.config = config or LLAConfig()
        self.on_iteration = on_iteration
        self.step_policy = reference_policy(
            self.config.build_step_policy(taskset), taskset
        )
        self.resource_prices = ResourcePriceUpdater(
            taskset, initial_price=self.config.initial_resource_price
        )
        self.path_prices = {
            task.name: PathPriceUpdater(
                task, initial_price=self.config.initial_path_price
            )
            for task in taskset.tasks
        }
        self.allocators = {
            task.name: LatencyAllocator(
                taskset, task,
                max_latency_factor=self.config.max_latency_factor,
            )
            for task in taskset.tasks
        }
        self.detector = ReferenceDetector(
            taskset,
            utility_tol=self.config.utility_tol,
            window=self.config.convergence_window,
            feasibility_tol=self.config.feasibility_tol,
            require_feasible=self.config.require_feasible,
            utility_floor=self.config.utility_floor,
        )
        self.iteration = 0
        self.latencies = self._initial_latencies()
        if self.config.warm_start:
            from repro.core.warmstart import apply_warm_start
            apply_warm_start(self)

    def _initial_latencies(self) -> Dict[str, float]:
        """One allocation pass at the current prices."""
        latencies: Dict[str, float] = {}
        for task in self.taskset.tasks:
            latencies.update(
                self.allocators[task.name].allocate(
                    self.resource_prices.prices,
                    self.path_prices[task.name].prices,
                )
            )
        return latencies

    def refresh_model(self) -> None:
        for allocator in self.allocators.values():
            allocator.refresh_bounds()

    def adopt_prices(self, resource_prices: Mapping[str, float]) -> None:
        self.resource_prices.prices.update(
            {rname: float(price) for rname, price in resource_prices.items()}
        )
        for updater in self.path_prices.values():
            updater.reset()
        self.step_policy.reset()
        self.detector.reset()
        self.latencies = self._initial_latencies()

    def _collect_path_prices(self) -> Dict[PathKey, float]:
        return {
            key: price
            for updater in self.path_prices.values()
            for key, price in updater.prices.items()
        }

    def step(self) -> IterationRecord:
        """One iteration: path prices and allocation per task controller,
        then resource prices, then congestion feedback."""
        config = self.config
        old = self.latencies
        latencies: Dict[str, float] = {}
        all_path_prices: Dict[PathKey, float] = {}
        for task in self.taskset.tasks:
            updater = self.path_prices[task.name]
            updater.update(old, self.step_policy)
            all_path_prices.update(updater.prices)
            latencies.update(
                self.allocators[task.name].allocate(
                    self.resource_prices.prices, updater.prices, current=old,
                )
            )
        self.latencies = latencies
        self.resource_prices.update(latencies, self.step_policy)

        loads = self.taskset.resource_loads(latencies)
        congested_resources = self.resource_prices.congested(
            loads, tol=config.congestion_tol
        )
        congested_paths: Tuple[PathKey, ...] = ()
        for task in self.taskset.tasks:
            congested_paths += self.path_prices[task.name].congested(
                latencies, tol=config.congestion_tol
            )
        self.step_policy.observe(congested_resources, congested_paths)

        utility = self.taskset.total_utility(latencies)
        self.detector.observe(utility, latencies)
        self.iteration += 1
        record = IterationRecord(
            iteration=self.iteration,
            utility=utility,
            latencies=dict(latencies),
            resource_prices=dict(self.resource_prices.prices),
            path_prices=all_path_prices,
            resource_loads=loads,
            congested_resources=congested_resources,
            congested_paths=congested_paths,
            # Each path summed root to leaf, as the engine does (the
            # graph's critical-path DP sums leaf to root instead).
            critical_paths={
                task.name: max(task.graph.path_latency(path, latencies)
                               for path in task.graph.paths)
                for task in self.taskset.tasks
            },
        )
        if self.on_iteration is not None:
            self.on_iteration(record)
        return record

    def run(self, max_iterations: Optional[int] = None) -> OptimizationResult:
        budget = max_iterations or self.config.max_iterations
        history = []
        converged = False
        for _ in range(budget):
            record = self.step()
            if self.config.record_history:
                history.append(record)
            if self.config.stop_on_convergence and self.detector.converged():
                converged = True
                break
        if not converged and self.detector.converged():
            converged = True
        return OptimizationResult(
            converged=converged,
            iterations=self.iteration,
            latencies=dict(self.latencies),
            utility=self.taskset.total_utility(self.latencies),
            resource_prices=dict(self.resource_prices.prices),
            path_prices=self._collect_path_prices(),
            history=history,
        )

    def reset(self) -> None:
        self.resource_prices.reset()
        for updater in self.path_prices.values():
            updater.reset()
        self.step_policy.reset()
        self.detector.reset()
        self.iteration = 0
        self.latencies = self._initial_latencies()
        if self.config.warm_start:
            from repro.core.warmstart import apply_warm_start
            apply_warm_start(self)
