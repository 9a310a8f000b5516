"""The LLA iteration engine: one batched numpy kernel for every utility.

``VectorizedEngine`` executes one LLA iteration — Eq. 9 path-price step
from the old latencies, Eq. 7 allocation, Eq. 8 resource-price step,
congestion classification, step-size feedback, utility — as whole-array
operations over the structure precompiled by
:mod:`repro.core.structure`.

For the paper's closed-form family (linear and inelastic utilities) the
engine is *trajectory-identical* to the per-controller loops of the
paper's algorithm boxes, not just approximately equal: every reduction is
ordered like a per-name loop (see the structure module's layout notes),
arithmetic uses the same expression shapes as
:func:`~repro.core.allocation.stationary_latency`, and its free-resource /
zero-pull special cases are reproduced as masks.  That matters because
the adaptive step-size heuristic branches on strict comparisons
(``load > B_r + tol``): a one-ulp difference in a load flips a doubling
decision and the runs diverge visibly.  The tests hold a per-name
reference implementation and assert bitwise-equal traces over full
figure runs.

The numeric family (log, quadratic, exponential utilities) couples a
task's subtasks through its aggregated latency ``A``.  At a fixed ``A``
every subtask has the closed form at pull ``w_s·(−U′(A)) + Σλ``, so the
engine solves those tasks with one batched bisection on ``A`` (see
:class:`_NumericTasks`); linear and inelastic workloads never enter it.

Step sizes: :class:`FixedStepSize` folds to two scalars and
:class:`AdaptiveStepSize` runs as array updates on engine-owned γ state,
both built through :func:`gamma_spec` → :func:`make_gamma_supplier`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Tuple, Union

import numpy as np

from repro.errors import OptimizationError, ShareError
from repro.core.allocation import _PULL_FLOOR
from repro.core.phases import PhaseTimers
from repro.core.state import PathKey
from repro.core.stepsize import AdaptiveStepSize, FixedStepSize, StepSizePolicy
from repro.core.structure import (
    UTILITY_LINEAR,
    UTILITY_LOG,
    UTILITY_QUADRATIC,
    TaskSetStructure,
    compile_structure,
)
from repro.model.task import TaskSet
from repro.model.utility import LogUtility
from repro.telemetry import Telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.core.optimizer import LLAConfig

__all__ = [
    "VectorizedEngine",
    "EngineStep",
    "StepArrays",
    "ObservedAssignment",
    "compute_loads",
    "aggregate_latencies",
    "feasible_latencies",
    "task_utilities",
    "observe_assignment",
    "gamma_spec",
    "make_gamma_supplier",
]

#: γ suppliers return either two scalars (fixed policy) or two arrays.
GammaPair = Tuple[Union[float, np.ndarray], Union[float, np.ndarray]]

#: A picklable description of a fixed/adaptive γ supplier (see
#: :func:`gamma_spec`) — what shard worker processes receive instead of a
#: policy object, which can drag a whole ``TaskSet`` through pickle.
GammaSpec = Tuple[Union[str, float], ...]


@dataclass
class StepArrays:
    """One iteration's outputs in array form (no dict materialization).

    Every array is owned by this round: the engine replaces its state
    arrays each round instead of writing into them, so a kept
    ``StepArrays`` never changes.  This is what the optimizer facade, the
    convergence detector, batched iteration
    (:meth:`VectorizedEngine.iterate`) and the sharded engine's merge path
    consume — materializing per-name dicts costs more than the arithmetic.
    """

    lat: np.ndarray          #: per-subtask latencies, shape (S,)
    mu: np.ndarray           #: resource prices, shape (R,)
    lam: np.ndarray          #: path prices, shape (P,)
    loads: np.ndarray        #: per-resource loads, shape (R,)
    path_lat: np.ndarray     #: per-path latency sums, shape (P,)
    cong_r: np.ndarray       #: congested-resource mask, shape (R,) bool
    cong_p: np.ndarray       #: congested-path mask, shape (P,) bool
    per_task: np.ndarray     #: per-task utilities, shape (T,)
    crit: np.ndarray         #: per-task critical-path latencies, shape (T,)

    def utility_sum(self) -> float:
        """Σ_i U_i, summed in task order like ``TaskSet.total_utility``
        (sequential Python float adds, not a pairwise numpy reduction)."""
        return float(sum(self.per_task.tolist()))


class EngineStep:
    """One iteration's outputs: the kernel's arrays plus per-name views.

    ``utility`` is computed up front; each dict or tuple view is built
    from :attr:`arrays` on first read and cached.  An ``EngineStep`` is
    also the :class:`~repro.core.state.RecordSource` behind the
    optimizer's deferred :class:`~repro.core.state.IterationRecord`.
    """

    def __init__(self, structure: TaskSetStructure,
                 arrays: StepArrays) -> None:
        self.structure = structure
        self.arrays = arrays
        self.utility = arrays.utility_sum()

    @cached_property
    def latencies(self) -> Dict[str, float]:
        return dict(zip(self.structure.subtask_names, self.arrays.lat.tolist()))

    @cached_property
    def resource_prices(self) -> Dict[str, float]:
        return dict(zip(self.structure.resource_names, self.arrays.mu.tolist()))

    @cached_property
    def path_prices(self) -> Dict[PathKey, float]:
        return dict(zip(self.structure.path_keys, self.arrays.lam.tolist()))

    @cached_property
    def resource_loads(self) -> Dict[str, float]:
        return dict(zip(self.structure.resource_names,
                        self.arrays.loads.tolist()))

    @cached_property
    def congested_resources(self) -> Tuple[str, ...]:
        names = self.structure.resource_names
        return tuple(names[i] for i in np.flatnonzero(self.arrays.cong_r))

    @cached_property
    def congested_paths(self) -> Tuple[PathKey, ...]:
        keys = self.structure.path_keys
        return tuple(keys[i] for i in np.flatnonzero(self.arrays.cong_p))

    @cached_property
    def critical_paths(self) -> Dict[str, float]:
        return dict(zip(self.structure.task_names, self.arrays.crit.tolist()))

    def record_field(self, name: str) -> Any:
        return getattr(self, name)


class _FixedGammas:
    """γ supplier for a :class:`FixedStepSize` (two constants)."""

    def __init__(self, resource_gamma: float, path_gamma: float) -> None:
        self._gr = float(resource_gamma)
        self._gp = float(path_gamma)

    def gammas(self) -> GammaPair:
        return self._gr, self._gp

    def observe(self, cong_r: np.ndarray, cong_p: np.ndarray) -> None:
        pass

    def reset(self) -> None:
        pass


class _AdaptiveGammas:
    """The adaptive heuristic of :class:`AdaptiveStepSize` as array
    updates over engine-owned γ vectors."""

    def __init__(self, initial_gamma: float, growth: float, max_gamma: float,
                 structure: TaskSetStructure) -> None:
        self._initial = float(initial_gamma)
        self._growth = float(growth)
        self._max = float(max_gamma)
        s = structure
        #: resource of each path-membership entry (``path_sub_flat`` order)
        self._path_res = s.sub_resource[s.path_sub_flat]
        self._path_ids = s.path_ids_flat
        self._gr = np.full(s.n_resources, self._initial)
        self._gp = np.full(s.n_paths, self._initial)
        self._cover = np.full(s.n_paths, self._initial)
        self._direct = np.full(s.n_paths, self._initial)

    def gammas(self) -> GammaPair:
        return self._gr, self._gp

    def observe(self, cong_r: np.ndarray, cong_p: np.ndarray) -> None:
        self._gr = np.where(
            cong_r, np.minimum(self._gr * self._growth, self._max),
            self._initial,
        )
        # Two independent escalation states per path (resource coverage
        # vs direct constraint violation); serve the largest active one.
        # A path is covered when it has a subtask on a congested
        # resource: a count over its membership entries, exact in O(nnz).
        covered = np.bincount(
            self._path_ids, weights=cong_r[self._path_res],
            minlength=len(self._gp),
        ) > 0
        self._cover = np.where(
            covered, np.minimum(self._cover * self._growth, self._max),
            self._initial,
        )
        self._direct = np.where(
            cong_p, np.minimum(self._direct * self._growth, self._max),
            self._initial,
        )
        active_max = np.maximum(
            np.where(covered, self._cover, -np.inf),
            np.where(cong_p, self._direct, -np.inf),
        )
        self._gp = np.where(covered | cong_p, active_max, self._initial)

    def reset(self) -> None:
        self._gr = np.full_like(self._gr, self._initial)
        self._gp = np.full_like(self._gp, self._initial)
        self._cover = np.full_like(self._cover, self._initial)
        self._direct = np.full_like(self._direct, self._initial)


#: The union of γ supplier implementations.
GammaSupplier = Union["_FixedGammas", "_AdaptiveGammas"]


def gamma_spec(policy: StepSizePolicy) -> GammaSpec:
    """A picklable spec of ``policy`` for taskset-free reconstruction."""
    if isinstance(policy, FixedStepSize):
        return ("fixed", policy.gamma, policy.path_gamma)
    if isinstance(policy, AdaptiveStepSize):
        return ("adaptive", policy.initial_gamma, policy.growth,
                policy.max_gamma)
    raise OptimizationError(
        f"unsupported step policy {type(policy).__name__}; expected "
        "FixedStepSize or AdaptiveStepSize"
    )


def make_gamma_supplier(spec: GammaSpec,
                        structure: TaskSetStructure) -> GammaSupplier:
    """Build the γ supplier described by :func:`gamma_spec` over
    ``structure`` (shard workers, which have no policy object, receive
    the spec alone)."""
    if spec[0] == "fixed":
        return _FixedGammas(float(spec[1]), float(spec[2]))
    if spec[0] == "adaptive":
        return _AdaptiveGammas(
            float(spec[1]), float(spec[2]), float(spec[3]), structure
        )
    raise OptimizationError(f"unknown gamma spec {spec!r}")


def resolve_structure(taskset: TaskSet, config: "LLAConfig",
                      structure: Optional[TaskSetStructure],
                      ) -> TaskSetStructure:
    """``structure`` checked against ``taskset`` and ``config``, or a
    fresh compile when ``None``.

    A precompiled structure (e.g. from the service's churn cache) must
    describe this very task set at this clamp factor; the cache
    guarantees it via fingerprint equality.
    """
    if structure is None:
        return compile_structure(
            taskset, max_latency_factor=config.max_latency_factor
        )
    if structure.taskset is not taskset:
        raise OptimizationError(
            "precompiled structure is bound to a different task set"
        )
    if structure.max_latency_factor != float(config.max_latency_factor):
        raise OptimizationError(
            "precompiled structure was built at "
            f"max_latency_factor={structure.max_latency_factor!r}, "
            f"config wants {config.max_latency_factor!r}"
        )
    return structure


# -- allocation (Eq. 7) ---------------------------------------------------------

def _closed_form(num: np.ndarray, pull: np.ndarray, free: np.ndarray,
                 err: np.ndarray, inv_exp: np.ndarray, hyper: np.ndarray,
                 lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The clamped stationarity solve of Eq. 7, per subtask: ``num`` is
    ``μ·α·(c + l)``, ``pull`` the marginal latency cost and ``free``
    marks resources priced at zero."""
    slack = pull <= _PULL_FLOOR
    with np.errstate(all="ignore"):
        arg = num / pull
        if hyper.all():
            raw = np.sqrt(arg)
        else:
            raw = np.empty_like(arg)
            np.sqrt(arg, out=raw, where=hyper)
            pw = ~hyper
            raw[pw] = arg[pw] ** inv_exp[pw]
    lat = err + raw
    # Same precedence as stationary_latency: a free resource wins over a
    # zero pull, and both are applied before the correction offset is
    # even considered (the per-name solve returns early).
    lat = np.where(slack, np.inf, lat)
    lat = np.where(free, 0.0, lat)
    return np.clip(lat, lo, hi)


def _marginal_utility(kind: int, umax: np.ndarray, crit: np.ndarray,
                      shape: np.ndarray, agg: np.ndarray) -> np.ndarray:
    """``−U′(agg)`` for tasks of one numeric ``kind``, in the expression
    shapes of the utilities' own ``derivative`` methods."""
    if kind == UTILITY_LOG:
        slack = np.maximum(1.0 + (crit - agg) / shape,
                           LogUtility.EXTENSION_EPS)
        return umax / (shape * slack)
    if kind == UTILITY_QUADRATIC:
        return 2.0 * shape * agg
    return (umax / shape) * np.exp(-agg / shape)


def _numeric_values(kind: np.ndarray, umax: np.ndarray, crit: np.ndarray,
                    shape: np.ndarray, agg: np.ndarray) -> np.ndarray:
    """``U(agg)`` for numeric-family tasks (see :mod:`repro.model.utility`)."""
    eps = LogUtility.EXTENSION_EPS
    with np.errstate(all="ignore"):
        arg = 1.0 + (crit - agg) / shape
        log_value = np.where(
            arg >= eps, umax * np.log(arg),
            umax * (np.log(eps) + (arg - eps) / eps),
        )
        return np.select(
            [kind == UTILITY_LOG, kind == UTILITY_QUADRATIC],
            [log_value, umax - shape * agg ** 2],
            umax * np.exp(-agg / shape),
        )


def task_utilities(structure: TaskSetStructure,
                   agg: np.ndarray) -> np.ndarray:
    """Per-task utility ``U_i`` at the aggregated latencies ``agg`` (see
    :func:`aggregate_latencies`).  Linear and inelastic values use the
    same arithmetic as the utility objects, so they are bitwise-equal to
    ``Task.utility_value``."""
    s = structure
    out = np.where(
        s.ut_kind == UTILITY_LINEAR,
        s.ut_kc - s.ut_slope * agg,
        np.where(agg <= s.ut_crit, s.ut_umax, 0.0),
    )
    numeric = s.ut_kind >= UTILITY_LOG
    if numeric.any():
        out[numeric] = _numeric_values(
            s.ut_kind[numeric], s.ut_umax[numeric], s.ut_crit[numeric],
            s.ut_shape[numeric], agg[numeric],
        )
    return out


#: Halvings of the bracket on A: it ends 2**-48 (≈ 4e-15) of its start.
_BISECT_STEPS = 48


class _NumericTasks:
    """The Eq. 7 solve for numeric-family tasks, batched across tasks.

    A task with a non-linear utility maximizes
    ``U(A) − Σ_s λ̄_s·x_s − Σ_s μ_s·share_s(x_s)`` with ``A = Σ_s w_s·x_s``.
    At a fixed ``A`` the subtasks decouple: each takes the closed form at
    pull ``w_s·(−U′(A)) + λ̄_s``, clamped to its bounds.  The optimum is the
    fixed point ``Σ_s w_s·x_s(A) = A``.  For a concave ``U`` the pull grows
    with ``A``, so ``Σ_s w_s·x_s(A) − A`` is strictly decreasing and the
    fixed point is unique; the bracket ``[Σ w·lo, Σ w·hi]`` always holds a
    sign change, so the bisection is safe for a convex ``U`` too (it then
    lands on a stationary point).
    """

    def __init__(self, structure: TaskSetStructure) -> None:
        s = structure
        tasks = np.flatnonzero(s.ut_kind >= UTILITY_LOG)
        self.n_tasks = len(tasks)
        self.subs = np.flatnonzero(s.ut_kind[s.sub_task_ids] >= UTILITY_LOG)
        #: local (numeric-task) index of each numeric subtask
        self.owner = np.searchsorted(tasks, s.sub_task_ids[self.subs])
        self.weights = s.weights[self.subs]
        kinds = s.ut_kind[tasks]
        #: per utility kind: its tasks' local indices and parameters
        self.groups = []
        for kind in np.unique(kinds).tolist():
            sel = np.flatnonzero(kinds == kind)
            rows = tasks[sel]
            self.groups.append((sel, (kind, s.ut_umax[rows], s.ut_crit[rows],
                                      s.ut_shape[rows])))

    def _aggregate(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.owner, weights=self.weights * x,
                           minlength=self.n_tasks)

    def _marginal(self, agg: np.ndarray) -> np.ndarray:
        """``−U′(A)`` per numeric task."""
        if len(self.groups) == 1:
            return _marginal_utility(*self.groups[0][1], agg)
        out = np.empty_like(agg)
        for sel, params in self.groups:
            out[sel] = _marginal_utility(*params, agg[sel])
        return out

    def solve(self, structure: TaskSetStructure, lat: np.ndarray,
              lam_sum: np.ndarray, price: np.ndarray) -> None:
        """Overwrite ``lat`` at the numeric subtasks with their solve."""
        s, idx = structure, self.subs
        pr, lam = price[idx], lam_sum[idx]
        # Everything in the closed form but the pull is fixed for the
        # whole solve.
        num, free = pr * s.alpha[idx] * s.cost[idx], pr <= 0.0
        err, inv_exp, hyper = s.err[idx], s.inv_exp[idx], s.hyper_mask[idx]
        lo, hi = s.lo[idx], s.hi[idx]

        def latencies(agg: np.ndarray) -> np.ndarray:
            pull = self.weights * self._marginal(agg)[self.owner] + lam
            return _closed_form(num, pull, free, err, inv_exp, hyper, lo, hi)

        a_lo = self._aggregate(lo)
        a_hi = self._aggregate(hi)
        with np.errstate(all="ignore"):
            for _ in range(_BISECT_STEPS):
                mid = 0.5 * (a_lo + a_hi)
                over = self._aggregate(latencies(mid)) > mid
                a_lo = np.where(over, mid, a_lo)
                a_hi = np.where(over, a_hi, mid)
            lat[idx] = latencies(0.5 * (a_lo + a_hi))


class VectorizedEngine:
    """Array-state LLA iteration over a compiled task set.

    The engine owns the dual state (``μ`` per resource, ``λ`` per path) and
    the primal iterate (latency per subtask) as float64 arrays; the
    optimizer facade reads them as :class:`StepArrays` and builds its dict
    views only when a caller asks.  Model mutations (error correction,
    ``set_availability``) require :meth:`refresh_model`.
    """

    def __init__(self, taskset: TaskSet, config: "LLAConfig",
                 policy: StepSizePolicy,
                 telemetry: Optional[Telemetry] = None,
                 structure: Optional[TaskSetStructure] = None) -> None:
        structure = resolve_structure(taskset, config, structure)
        self._setup(structure, config,
                    make_gamma_supplier(gamma_spec(policy), structure),
                    telemetry)

    @classmethod
    def from_structure(cls, structure: TaskSetStructure, config: "LLAConfig",
                       gammas: GammaSupplier,
                       telemetry: Optional[Telemetry] = None,
                       ) -> "VectorizedEngine":
        """An engine over ``structure`` alone — no bound task set.

        The sharded engine and its worker processes drive shard
        sub-structures (often deserialized, ``structure.taskset is None``)
        that never see the model objects; they supply a prebuilt γ
        supplier instead of a policy.
        """
        engine = cls.__new__(cls)
        engine._setup(structure, config, gammas, telemetry)
        return engine

    def _setup(self, structure: TaskSetStructure, config: "LLAConfig",
               gammas: GammaSupplier,
               telemetry: Optional[Telemetry]) -> None:
        self.structure = structure
        self.config = config
        self._gammas = gammas
        self._telemetry = telemetry
        self._phases: Optional[PhaseTimers] = None
        self._numeric: Optional[_NumericTasks] = (
            _NumericTasks(structure)
            if bool(np.any(structure.ut_kind >= UTILITY_LOG)) else None
        )
        self._mu = np.full(structure.n_resources,
                           float(config.initial_resource_price))
        self._lam = np.full(structure.n_paths,
                            float(config.initial_path_price))
        self._lat = self._allocate()

    def state_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The live ``(latencies, μ, λ)`` arrays (not copies; the engine
        replaces rather than mutates them)."""
        return self._lat, self._mu, self._lam

    def _phase_timers(self) -> Optional[PhaseTimers]:
        """Phase timers while metrics are collected; ``None`` when off."""
        if self._telemetry is None or not self._telemetry.registry.enabled:
            return None
        if self._phases is None:
            self._phases = PhaseTimers(self._telemetry)
        return self._phases

    # -- allocation (Eq. 7) -----------------------------------------------------

    def _allocate(self) -> np.ndarray:
        """Stationarity solve + clamp at the current duals: the closed
        form for every subtask, then the bisection for numeric tasks."""
        s = self.structure
        lam_sum = np.bincount(
            s.sub_ids_flat, weights=self._lam[s.sub_path_flat],
            minlength=s.n_subtasks,
        )
        price = self._mu[s.sub_resource]
        lat = _closed_form(price * s.alpha * s.cost, s.pull_base + lam_sum,
                           price <= 0.0, s.err, s.inv_exp, s.hyper_mask,
                           s.lo, s.hi)
        if self._numeric is not None:
            self._numeric.solve(s, lat, lam_sum, price)
        return lat

    # -- load model (Eq. 3 LHS) -------------------------------------------------

    def _loads(self, lat: np.ndarray) -> np.ndarray:
        """Per-resource share sums at the given latencies."""
        return compute_loads(self.structure, lat)

    # -- one iteration ----------------------------------------------------------

    def step_arrays(self) -> StepArrays:
        """One LLA iteration in array form, phase by phase as in the
        paper's algorithm boxes.  This is what the optimizer facade,
        batched :meth:`iterate` and the sharded engine consume;
        :meth:`step` wraps it in per-name views built on read."""
        s = self.structure
        tol = self.config.congestion_tol
        gr, gp = self._gammas.gammas()
        phases = self._phase_timers()
        mark = time.perf_counter() if phases is not None else 0.0

        # (1) Path prices from the *previous* latencies (Eq. 9), then the
        # batched stationarity solve at old μ / new λ (Eq. 7).
        path_lat = np.bincount(
            s.path_ids_flat, weights=self._lat[s.path_sub_flat],
            minlength=s.n_paths,
        )
        self._lam = np.maximum(
            0.0, self._lam - gp * (1.0 - path_lat / s.path_crit)
        )
        if phases is not None:
            mark = phases.lap("path_update", mark)
        lat = self._allocate()
        self._lat = lat
        if phases is not None:
            mark = phases.lap("allocate", mark)

        # (2) Resource prices from the new latencies (Eq. 8).
        loads = self._loads(lat)
        self._mu = np.maximum(0.0, self._mu - gr * (s.availability - loads))
        if phases is not None:
            mark = phases.lap("price_update", mark)

        # (3) Congestion classification + step-size feedback.
        cong_r = loads > s.availability + tol
        path_lat_new = np.bincount(
            s.path_ids_flat, weights=lat[s.path_sub_flat],
            minlength=s.n_paths,
        )
        cong_p = path_lat_new > s.path_crit + tol
        self._gammas.observe(cong_r, cong_p)
        if phases is not None:
            phases.lap("classify", mark)

        # Utility (Eq. 2): per-task aggregated latency through the task's
        # utility; summed in task order by StepArrays.utility_sum.
        per_task = task_utilities(s, aggregate_latencies(s, lat))

        # Critical-path latencies are observational (they feed records, not
        # the iteration), computed as the max over the task's path sums.
        crit = np.maximum.reduceat(path_lat_new, s.task_path_starts)

        return StepArrays(
            lat=lat, mu=self._mu, lam=self._lam, loads=loads,
            path_lat=path_lat_new, cong_r=cong_r, cong_p=cong_p,
            per_task=per_task, crit=crit,
        )

    def iterate(self, n: int) -> Optional[StepArrays]:
        """Run ``n`` iterations without materializing dicts.

        Returns the last iteration's :class:`StepArrays` (``None`` when
        ``n == 0``).  The trajectory is identical to ``n`` calls of
        :meth:`step` — the dict views are pure observation."""
        out: Optional[StepArrays] = None
        for _ in range(n):
            out = self.step_arrays()
        return out

    def step(self) -> EngineStep:
        """One LLA iteration with lazily built per-name views."""
        return EngineStep(self.structure, self.step_arrays())

    # -- facade support ---------------------------------------------------------

    def reallocate(self, resource_prices: Mapping[str, float]) -> None:
        """Adopt ``resource_prices`` as μ and redo the primal solve.

        Serves warm starts and resets: the optimizer edits its price
        dict, then asks for fresh latencies (read back through
        :meth:`state_arrays`); the engine keeps iterating from the same μ
        afterwards.
        """
        s = self.structure
        self._mu = np.array(
            [resource_prices.get(r, 0.0) for r in s.resource_names]
        )
        self._lat = self._allocate()

    def path_prices_dict(self) -> Dict[PathKey, float]:
        return dict(zip(self.structure.path_keys, self._lam.tolist()))

    def reset_step_sizes(self) -> None:
        """Snap every γ escalation back to the initial step size."""
        self._gammas.reset()

    def reset_path_prices(self) -> None:
        """λ back to the configured initial value (μ and γ untouched).

        Used by :meth:`LLAOptimizer.adopt_prices`: adopting external
        resource prices must not carry a previous run's path prices into
        the next primal solve."""
        self._lam = np.full(self.structure.n_paths,
                            float(self.config.initial_path_price))

    def reset(self) -> None:
        """Back to initial duals and step sizes (primal follows via
        the optimizer's ``reallocate`` call)."""
        s = self.structure
        self._mu = np.full(s.n_resources,
                           float(self.config.initial_resource_price))
        self._lam = np.full(s.n_paths, float(self.config.initial_path_price))
        self._gammas.reset()
        self._lat = self._allocate()

    def refresh_model(self) -> None:
        """Re-read mutable model state (share functions, availabilities)."""
        self.structure.refresh_model()


# -- structure-level observation ------------------------------------------------
#
# Everything below reads a compiled TaskSetStructure plus a latency
# assignment and computes the global quantities the TaskSet API derives by
# traversing the object graph (resource_loads, total_utility,
# critical_path, is_feasible).  Observers that already hold a structure —
# the distributed runtime's omniscient snapshot, the service's query path —
# use these instead of re-walking tasks per round (REP016).


def compute_loads(structure: TaskSetStructure, lat: np.ndarray) -> np.ndarray:
    """Per-resource share sums at the given latencies (Eq. 3 LHS).

    Bitwise-equal to summing ``TaskSet.resource_load`` per resource when
    the task set is declared in canonical (name-sorted) order: the
    ``bincount`` accumulates shares in subtask order, which is exactly the
    per-name loop's visit order.
    """
    s = structure
    model_lat = lat - s.err
    if np.any(s.err != 0.0) and np.any(model_lat <= 0.0):
        idx = int(np.argmax(model_lat <= 0.0))
        raise ShareError(
            f"corrected latency {lat[idx]!r} of subtask "
            f"{s.subtask_names[idx]!r} with error {s.err[idx]!r} maps "
            "to a non-positive model latency"
        )
    if s.hyper_mask.all():
        shares = s.cost / model_lat
    else:
        shares = np.where(
            s.hyper_mask,
            s.cost / model_lat,
            s.cost / model_lat ** s.alpha,
        )
    return np.bincount(
        s.sub_resource, weights=shares, minlength=s.n_resources
    )


def aggregate_latencies(structure: TaskSetStructure,
                        lat: np.ndarray) -> np.ndarray:
    """Per-task aggregated latency ``Σ_s w_s·lat_s``, summed in subtask
    order like ``Task.aggregated_latency``."""
    s = structure
    return np.bincount(s.sub_task_ids, weights=s.weights * lat,
                       minlength=len(s.task_names))


def feasible_latencies(structure: TaskSetStructure, lat: np.ndarray,
                       tol: float) -> bool:
    """Whether ``lat`` satisfies Eqs. 3–4 within ``tol`` (the comparisons
    of ``TaskSet.is_feasible``, on the compiled arrays)."""
    s = structure
    if np.any(compute_loads(s, lat) > s.availability + tol):
        return False
    path_lat = np.bincount(s.path_ids_flat, weights=lat[s.path_sub_flat],
                           minlength=s.n_paths)
    return not bool(np.any(path_lat > s.path_crit + tol))


@dataclass
class ObservedAssignment:
    """Global facts about one latency assignment, in array form."""

    lat: np.ndarray          #: per-subtask latencies, shape (S,)
    loads: np.ndarray        #: per-resource loads, shape (R,)
    path_lat: np.ndarray     #: per-path latency sums, shape (P,)
    cong_r: np.ndarray       #: congested-resource mask, shape (R,) bool
    cong_p: np.ndarray       #: congested-path mask, shape (P,) bool
    per_task: np.ndarray     #: per-task utilities, shape (T,)
    crit: np.ndarray         #: per-task critical-path latencies, shape (T,)
    utility: float           #: Σ_i U_i, summed in task order

    def feasible(self) -> bool:
        """Whether the assignment satisfies Eqs. 3–4 at the mask tol."""
        return not (bool(self.cong_r.any()) or bool(self.cong_p.any()))


def observe_assignment(structure: TaskSetStructure,
                       latencies: Mapping[str, float],
                       tol: float = 1e-9) -> ObservedAssignment:
    """Measure a latency assignment against the compiled model.

    ``tol`` is the slack used for the congestion/feasibility masks (the
    distributed observer uses 1e-9 per round and 1e-2 for the final
    feasibility verdict, like ``TaskSet.is_feasible``).
    """
    s = structure
    lat = np.array([latencies[name] for name in s.subtask_names])
    loads = compute_loads(s, lat)
    cong_r = loads > s.availability + tol
    path_lat = np.bincount(
        s.path_ids_flat, weights=lat[s.path_sub_flat], minlength=s.n_paths,
    )
    cong_p = path_lat > s.path_crit + tol
    per_task = task_utilities(s, aggregate_latencies(s, lat))
    crit = np.maximum.reduceat(path_lat, s.task_path_starts)
    return ObservedAssignment(
        lat=lat, loads=loads, path_lat=path_lat, cong_r=cong_r,
        cong_p=cong_p, per_task=per_task, crit=crit,
        utility=float(sum(per_task.tolist())),
    )
