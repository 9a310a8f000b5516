"""The LLA optimizer: iterative latency allocation + price computation.

This is the in-process ("centralized execution of the distributed
algorithm") form of LLA used for the simulation experiments of Section 5.
Each iteration performs exactly what the paper's two algorithm boxes
describe, in order:

1. every task controller receives the current resource prices, updates its
   path prices (Eq. 9), and computes new subtask latencies from the
   Lagrangian stationarity condition (Eq. 7);
2. every resource receives the new latencies of the subtasks it hosts and
   updates its price (Eq. 8);
3. the step-size policy observes which resources/paths are congested (the
   adaptive heuristic of Section 5.2).

All three run as whole-array operations in the batched engine
(:mod:`repro.core.vectorized`), whatever the utility family.  The
message-passing form with explicit controller/resource agents lives in
:mod:`repro.distributed`; it produces identical iterates under a lossless
synchronous bus (asserted by integration tests).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, FrozenSet, Mapping, Optional, Tuple,
    Union,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.core.sharding import ShardedEngine
    from repro.core.structure import TaskSetStructure
    from repro.core.vectorized import EngineStep, VectorizedEngine

    Engine = Union["VectorizedEngine", "ShardedEngine"]

from repro.errors import OptimizationError
from repro.core.convergence import ConvergenceDetector
from repro.core.state import IterationRecord, OptimizationResult, PathKey
from repro.core.stepsize import AdaptiveStepSize, FixedStepSize, StepSizePolicy
from repro.model.task import TaskSet
from repro.model.utility import check_concavity
from repro.telemetry import NULL_TELEMETRY, Telemetry, encode_record

__all__ = ["LLAConfig", "LLAOptimizer"]

logger = logging.getLogger(__name__)


class _EnginePrices:
    """``resource_prices``: a per-name view of the engine's μ.

    The dict is built from the engine's μ on first read after a round and
    kept until the next round, so a caller may edit it in place and then
    ask for a reallocation (:meth:`LLAOptimizer.adopt_prices`).
    """

    def __init__(self, engine: "Engine") -> None:
        self._engine = engine
        self._prices: Optional[Dict[str, float]] = None

    @property
    def prices(self) -> Dict[str, float]:
        if self._prices is None:
            mu = self._engine.state_arrays()[1]
            self._prices = dict(zip(self._engine.structure.resource_names,
                                    mu.tolist()))
        return self._prices

    @prices.setter
    def prices(self, value: Dict[str, float]) -> None:
        self._prices = value

    def reset(self) -> None:
        """Drop the dict: the engine's μ moved on (a round, or
        ``VectorizedEngine.reset``)."""
        self._prices = None


@dataclass
class LLAConfig:
    """Tunables of an LLA run.

    Defaults reproduce the paper's best configuration: adaptive step sizes
    starting at γ = 1, initial resource price 1, initial path price 0.

    Attributes
    ----------
    max_iterations:
        Iteration budget (Section 5 runs use 100–1500).
    step_policy:
        A :class:`~repro.core.stepsize.StepSizePolicy`, or ``None`` to build
        the paper's adaptive policy with ``initial_gamma``.
    initial_gamma:
        Starting γ for the default adaptive policy.
    initial_resource_price / initial_path_price:
        Dual-variable initialization.
    utility_tol / convergence_window / feasibility_tol / require_feasible /
    utility_floor:
        Convergence detector settings (see
        :class:`~repro.core.convergence.ConvergenceDetector`).
    congestion_tol:
        Slack below which a constraint still counts as satisfied when
        classifying congestion for the adaptive heuristic.
    record_history:
        Keep an :class:`~repro.core.state.IterationRecord` per iteration.
    strict:
        Verify utility concavity on ``(0, C_i)`` before running.
    max_latency_factor:
        Upper latency clamp as a multiple of the critical time.
    stop_on_convergence:
        When ``False``, always run the full iteration budget (used by the
        figure drivers, which want fixed-length traces).
    warm_start:
        Initialize each resource price at its locally-estimable
        equilibrium value (see :mod:`repro.core.warmstart`) instead of
        ``initial_resource_price``.  Exact in the overprovisioned regime;
        a large head start elsewhere.
    shards:
        Maximum number of shards for the engine (see
        :mod:`repro.core.sharding`).  The compiled structure is partitioned
        by resource-connectivity components — never splitting one — so a
        sharded run is bitwise-identical to an unsharded one; the effective
        count is capped by the number of components.  ``1`` (the default)
        runs the plain unsharded kernel.
    shard_mode:
        ``"serial"`` runs every shard engine in-process (deterministic,
        no IPC; still wins on separable workloads because per-shard work
        is block-diagonal), ``"processes"`` runs one worker process per
        shard with shared-memory result arrays (multi-core speedup for
        batched iteration).
    """

    max_iterations: int = 500
    step_policy: Optional[StepSizePolicy] = None
    initial_gamma: float = 1.0
    initial_resource_price: float = 1.0
    initial_path_price: float = 0.0
    utility_tol: float = 1e-4
    convergence_window: int = 10
    feasibility_tol: float = 1e-2
    require_feasible: bool = True
    utility_floor: float = 1e-6
    congestion_tol: float = 1e-9
    record_history: bool = True
    strict: bool = False
    max_latency_factor: float = 1.0
    stop_on_convergence: bool = True
    warm_start: bool = False
    shards: int = 1
    shard_mode: str = "serial"

    def __post_init__(self) -> None:
        """Reject inconsistent knobs at construction (REP008): a bad
        budget or tolerance caught here would otherwise surface hundreds
        of iterations later as a spurious non-convergence."""
        if self.max_iterations < 1:
            raise OptimizationError(
                f"max_iterations must be >= 1, got {self.max_iterations!r}"
            )
        if self.initial_gamma <= 0.0:
            raise OptimizationError(
                f"initial_gamma must be positive, got {self.initial_gamma!r}"
            )
        if self.initial_resource_price <= 0.0:
            # A zero dual price makes the first latency assignment
            # degenerate (shares divide by the price).
            raise OptimizationError(
                f"initial_resource_price must be positive, "
                f"got {self.initial_resource_price!r}"
            )
        if self.initial_path_price < 0.0:
            raise OptimizationError(
                f"initial_path_price must be >= 0, "
                f"got {self.initial_path_price!r}"
            )
        if self.utility_tol <= 0.0:
            raise OptimizationError(
                f"utility_tol must be positive, got {self.utility_tol!r}"
            )
        if self.convergence_window < 1:
            raise OptimizationError(
                f"convergence_window must be >= 1, "
                f"got {self.convergence_window!r}"
            )
        if self.feasibility_tol < 0.0:
            raise OptimizationError(
                f"feasibility_tol must be >= 0, got {self.feasibility_tol!r}"
            )
        if self.utility_floor <= 0.0:
            raise OptimizationError(
                f"utility_floor must be positive, got {self.utility_floor!r}"
            )
        if self.congestion_tol < 0.0:
            raise OptimizationError(
                f"congestion_tol must be >= 0, got {self.congestion_tol!r}"
            )
        if self.max_latency_factor < 1.0:
            raise OptimizationError(
                f"max_latency_factor must be >= 1, "
                f"got {self.max_latency_factor!r}"
            )
        if self.shards < 1:
            raise OptimizationError(
                f"shards must be >= 1, got {self.shards!r}"
            )
        if self.shard_mode not in ("serial", "processes"):
            raise OptimizationError(
                f"unknown shard_mode {self.shard_mode!r}; "
                "expected 'serial' or 'processes'"
            )

    def build_step_policy(self, taskset: TaskSet) -> StepSizePolicy:
        """The step policy of a run over ``taskset``: ``step_policy``, or
        the paper's adaptive policy at ``initial_gamma`` (policies are
        parameter records, so one serves any task set)."""
        if self.step_policy is not None:
            return self.step_policy
        return AdaptiveStepSize(initial_gamma=self.initial_gamma)

    @staticmethod
    def fixed(gamma: float, **kwargs: Any) -> "LLAConfig":
        """Convenience: a config with a fixed step size (Figure 5's γ runs)."""
        return LLAConfig(step_policy=FixedStepSize(gamma), **kwargs)


class LLAOptimizer:
    """Runs LLA on a :class:`~repro.model.task.TaskSet`.

    The optimizer owns the dual state (prices) and the last primal iterate
    (latencies) through its engine (:mod:`repro.core.vectorized`, or
    :mod:`repro.core.sharding` when ``shards > 1``).  :meth:`run` executes
    a batch of iterations; :meth:`step` executes one, so callers that
    interleave optimization with a running system (the Section 6
    prototype pattern) can drive it manually.

    ``structure`` optionally supplies a precompiled
    :class:`~repro.core.structure.TaskSetStructure` (it must describe
    ``taskset`` at the configured ``max_latency_factor``); the always-on
    service uses this to skip recompilation across churn events.

    The facade is array-native: the engine's per-round
    :class:`~repro.core.vectorized.StepArrays` feed the convergence
    detector directly, and :attr:`latencies`, ``resource_prices.prices``
    and the :class:`IterationRecord` fields are built only when read.
    """

    def __init__(self, taskset: TaskSet, config: Optional[LLAConfig] = None,
                 on_iteration: Optional[Callable[[IterationRecord], None]] = None,
                 telemetry: Optional[Telemetry] = None,
                 structure: Optional["TaskSetStructure"] = None) -> None:
        self.taskset = taskset
        self.config = config or LLAConfig()
        self.on_iteration = on_iteration
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._metrics: Optional[Dict[str, Any]] = None
        self._prev_congested: Optional[
            Tuple[FrozenSet[str], FrozenSet[PathKey]]
        ] = None
        if self.config.strict:
            self._check_utilities()

        self.step_policy = self.config.build_step_policy(taskset)
        self._engine: "Engine"
        if self.config.shards > 1:
            from repro.core.sharding import ShardedEngine
            self._engine = ShardedEngine(taskset, self.config,
                                         self.step_policy,
                                         telemetry=self.telemetry,
                                         structure=structure)
        else:
            from repro.core.vectorized import VectorizedEngine
            self._engine = VectorizedEngine(taskset, self.config,
                                            self.step_policy,
                                            telemetry=self.telemetry,
                                            structure=structure)
        self.resource_prices = _EnginePrices(self._engine)
        self._latencies: Optional[Dict[str, float]] = None
        self.detector = ConvergenceDetector(
            self.structure,
            utility_tol=self.config.utility_tol,
            window=self.config.convergence_window,
            feasibility_tol=self.config.feasibility_tol,
            require_feasible=self.config.require_feasible,
            utility_floor=self.config.utility_floor,
        )
        #: The last round's view (``None`` before the first round and
        #: after a reallocation).
        self._last_step: Optional["EngineStep"] = None
        self.iteration = 0
        # Trace timestamps follow the iteration counter (the optimizer's
        # virtual clock) so identical runs write identical event streams,
        # unless the caller injected a clock of their own.
        tracer = self.telemetry.tracer
        if tracer.enabled and not tracer.clock_injected:
            tracer.set_clock(lambda: float(self.iteration))
        if self.config.warm_start:
            from repro.core.warmstart import apply_warm_start
            apply_warm_start(self)

    @property
    def structure(self) -> "TaskSetStructure":
        """The compiled structure behind the engine.  Consumers that can
        read allocation facts from the structure's arrays should prefer
        it over re-traversing the :class:`~repro.model.task.TaskSet`
        object graph (REP016)."""
        return self._engine.structure

    def _check_utilities(self) -> None:
        for task in self.taskset.tasks:
            if not task.utility.is_elastic():
                continue
            lo = 1e-6 * task.critical_time
            if not check_concavity(task.utility, lo, task.critical_time):
                raise OptimizationError(
                    f"task {task.name!r} has a non-concave utility; "
                    "LLA's convergence guarantee does not apply "
                    "(pass strict=False to run anyway)"
                )

    @property
    def latencies(self) -> Dict[str, float]:
        """The current primal iterate, per subtask.

        The dict is built from the engine's latency array on first read
        after a round (or reallocation) and kept until the next one."""
        if self._latencies is None:
            if self._last_step is not None:
                self._latencies = self._last_step.latencies
            else:
                self._latencies = dict(zip(self.structure.subtask_names,
                                           self.latency_array.tolist()))
        return self._latencies

    @latencies.setter
    def latencies(self, value: Dict[str, float]) -> None:
        self._latencies = value

    @property
    def latency_array(self) -> np.ndarray:
        """The current primal iterate in the structure's canonical subtask
        order: the engine's own array, which it replaces (never writes
        into) each round.  Read it, do not modify it."""
        return self._engine.state_arrays()[0]

    @property
    def utility_array(self) -> np.ndarray:
        """Per-task utilities ``U_i`` at the current iterate, in the
        structure's canonical task order (the round's own array after a
        step; read it, do not modify it)."""
        if self._last_step is not None:
            return self._last_step.arrays.per_task
        from repro.core.vectorized import aggregate_latencies, task_utilities
        s = self.structure
        return task_utilities(s, aggregate_latencies(s, self.latency_array))

    def _reallocate(self) -> None:
        """Primal solve at the current resource and path prices
        (warm starts, resets, price edits)."""
        self._engine.reallocate(self.resource_prices.prices)
        self._last_step = None
        self._latencies = None

    def _initial_latencies(self) -> Dict[str, float]:
        """Primal initialization: one allocation pass at the initial prices."""
        self._reallocate()
        return self.latencies

    def refresh_model(self) -> None:
        """Re-read share functions after an external model change.

        Error correction swaps share functions on the task set (and
        resource availabilities may shift at run time); the compiled
        share coefficients and latency bounds must be recomputed.
        """
        self._engine.refresh_model()

    def adopt_prices(self, resource_prices: Mapping[str, float]) -> None:
        """Adopt ``resource_prices`` as the dual iterate, consistently.

        Installs the given μ map, resets every path price λ to the
        configured initial value, snaps step-size
        escalation back to the initial γ, clears the convergence window,
        and refreshes the primal iterate — afterwards the optimizer state
        is exactly that of a fresh instance constructed at these resource
        prices.  This is the single entry point for warm starts and the
        service's churn path; updating ``resource_prices.prices`` alone
        would leak stale λ and escalated γ from a previous run into the
        next solve.
        """
        unknown = sorted(set(resource_prices) - set(self.taskset.resources))
        if unknown:
            raise OptimizationError(
                f"adopt_prices got prices for unknown resources {unknown!r}"
            )
        self.resource_prices.prices.update(
            {rname: float(price) for rname, price in resource_prices.items()}
        )
        self.detector.reset()
        self._engine.reset_path_prices()
        self._engine.reset_step_sizes()
        self._reallocate()

    # -- iteration ---------------------------------------------------------------

    def step(self) -> IterationRecord:
        """One full LLA iteration; returns its record.

        Telemetry never influences the iterates: instrumentation only reads
        optimizer state, so a traced run is bit-identical to an untraced
        one (asserted by a regression test).
        """
        instrumented = self.telemetry.enabled
        if instrumented:
            started = time.perf_counter()
            prev_prices = self._engine.state_arrays()[1]

        record = self._iteration()

        if instrumented:
            self._observe_iteration(
                record, prev_prices, time.perf_counter() - started
            )
        if self.on_iteration is not None:
            self.on_iteration(record)
        return record

    def _iteration(self) -> IterationRecord:
        """One iteration through the engine.

        Nothing per-name is built here: the detector reads the round's
        arrays, and the record, :attr:`latencies` and
        ``resource_prices.prices`` build their dicts when first read."""
        from repro.core.vectorized import EngineStep

        engine = self._engine
        arrays = engine.step_arrays()
        step = EngineStep(engine.structure, arrays)
        self._last_step = step
        self._latencies = None
        self.resource_prices.reset()
        self.detector.observe(step.utility, loads=arrays.loads,
                              path_lat=arrays.path_lat)
        self.iteration += 1
        return IterationRecord.deferred(self.iteration, step.utility, step)

    def _observe_iteration(self, record: IterationRecord,
                           prev_prices: np.ndarray,
                           duration: float) -> None:
        """Feed one iteration into the metrics registry and the tracer."""
        if self._metrics is None:
            registry = self.telemetry.registry
            self._metrics = {
                "iterations": registry.counter(
                    "lla.iterations_total", "LLA iterations executed"),
                "timer": registry.timer(
                    "lla.iteration_seconds", "wall time per LLA iteration",
                    max_samples=4096),
                "utility": registry.gauge(
                    "lla.utility", "total utility at the last iterate"),
                "price_drift": registry.gauge(
                    "lla.price_drift",
                    "mean |Δμ_r| over the last iteration"),
                "congested_resources": registry.counter(
                    "lla.congested_resources_total",
                    "congested-resource observations (resource-iterations)"),
                "congested_paths": registry.counter(
                    "lla.congested_paths_total",
                    "congested-path observations (path-iterations)"),
            }
        m = self._metrics
        # Per-resource |Δμ| in canonical order, without building dicts.
        assert self._last_step is not None
        arrays = self._last_step.arrays
        deltas = np.abs(arrays.mu - prev_prices).tolist()
        n_congested_resources = int(np.count_nonzero(arrays.cong_r))
        n_congested_paths = int(np.count_nonzero(arrays.cong_p))
        drift = sum(deltas) / len(deltas) if deltas else 0.0
        m["iterations"].inc()
        m["timer"].observe(duration)
        m["utility"].set(record.utility)
        m["price_drift"].set(drift)
        m["congested_resources"].inc(n_congested_resources)
        m["congested_paths"].inc(n_congested_paths)

        tracer = self.telemetry.tracer
        if tracer.enabled:
            tracer.emit("iteration", duration_s=duration,
                        **encode_record(record))
            if drift > 0.0:
                tracer.emit(
                    "price_update", iteration=record.iteration,
                    mean_abs_delta=drift, max_abs_delta=max(deltas),
                )
            congested = (
                frozenset(record.congested_resources),
                frozenset(record.congested_paths),
            )
            if self._prev_congested is not None and \
                    congested != self._prev_congested:
                prev_r, prev_p = self._prev_congested
                tracer.emit(
                    "congestion_flip", iteration=record.iteration,
                    resources_entered=sorted(congested[0] - prev_r),
                    resources_left=sorted(prev_r - congested[0]),
                    paths_entered=sorted(str(k) for k in congested[1] - prev_p),
                    paths_left=sorted(str(k) for k in prev_p - congested[1]),
                )
            self._prev_congested = congested

    def run(self, max_iterations: Optional[int] = None) -> OptimizationResult:
        """Run until convergence or the iteration budget is exhausted."""
        budget = max_iterations or self.config.max_iterations
        tracer = self.telemetry.tracer
        if tracer.enabled:
            tracer.emit(
                "run_started", runtime="optimizer",
                starting_iteration=self.iteration, budget=budget,
                tasks=len(self.taskset.tasks),
                subtasks=len(self.taskset.subtask_names),
                resources=len(self.taskset.resources),
            )
        debug = logger.isEnabledFor(logging.DEBUG)
        history = []
        converged = False
        for _ in range(budget):
            record = self.step()
            if debug:
                logger.debug(
                    "iteration %d: utility %.6f, %d congested resources, "
                    "%d congested paths", record.iteration, record.utility,
                    len(record.congested_resources),
                    len(record.congested_paths),
                )
            if self.config.record_history:
                history.append(record)
            if self.config.stop_on_convergence and self.detector.converged():
                converged = True
                break
        if not converged and self.detector.converged():
            converged = True
        final_utility = self._final_utility()
        if converged:
            if tracer.enabled:
                tracer.emit("convergence", iteration=self.iteration,
                            utility=float(final_utility))
        elif self.config.stop_on_convergence:
            logger.warning(
                "LLA did not converge within %d iterations "
                "(utility %.6f at iteration %d)",
                budget, final_utility, self.iteration,
            )
        if tracer.enabled:
            tracer.emit("run_finished", runtime="optimizer",
                        converged=converged, iterations=self.iteration,
                        utility=float(final_utility))
            if self.telemetry.registry.enabled:
                tracer.emit("metrics_snapshot",
                            metrics=self.telemetry.registry.snapshot())
        return OptimizationResult(
            converged=converged,
            iterations=self.iteration,
            latencies=dict(self.latencies),
            utility=final_utility,
            resource_prices=dict(self.resource_prices.prices),
            path_prices=self._collect_path_prices(),
            history=history,
        )

    def _final_utility(self) -> float:
        """Σ_i U_i at the current iterate, summed in task order."""
        return float(sum(self.utility_array.tolist()))

    def _collect_path_prices(self) -> Dict[PathKey, float]:
        """Current λ_p map."""
        return self._engine.path_prices_dict()

    def reset(self) -> None:
        """Restore initial prices, step sizes and latencies."""
        self._engine.reset()
        self.resource_prices.reset()
        self.detector.reset()
        self._prev_congested = None
        self.iteration = 0
        self._last_step = None
        self._latencies = None
        if self.config.warm_start:
            from repro.core.warmstart import apply_warm_start
            apply_warm_start(self)
