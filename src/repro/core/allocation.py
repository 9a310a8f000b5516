"""Latency allocation: the per-task-controller step of LLA (Section 4.2).

Given resource prices ``μ_r`` and path prices ``λ_p``, each task controller
finds the subtask latencies maximizing the task-local Lagrangian

    L_i(lat) = U_i(lat) − Σ_s (Σ_{p ∋ s} λ_p) · lat_s − Σ_s μ_r(s) · share(s, lat_s)

over the box ``[lat_min_s, lat_max_s]``, where ``lat_min_s`` is the smallest
latency achievable with the full resource availability and ``lat_max_s``
defaults to the task's critical time (one subtask alone may not exceed any
path budget it sits on).

Two solve strategies:

* **Closed form** (the paper's experimental configuration): with a linear
  utility ``∂U_i/∂lat_s`` is the constant ``−w_s·slope``, so stationarity
  (Eq. 7) decouples per subtask into

      μ_r · (−dshare/dlat)(lat_s) = w_s·slope + Σ_{p ∋ s} λ_p

  which power-law share functions invert analytically.

* **Numeric**: for general concave utilities the task's subtask latencies
  couple through the aggregated latency, so the controller maximizes the
  task-local Lagrangian jointly with projected L-BFGS-B.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional

import numpy as np

from repro.errors import OptimizationError
from repro.core.state import PathKey
from repro.model.share import (
    CorrectedShare,
    HyperbolicShare,
    PowerLawShare,
    ShareFunction,
)
from repro.model.task import Task, TaskSet
from repro.model.utility import LinearUtility

__all__ = ["LatencyAllocator", "stationary_latency"]

#: Numerical floor for the "pull" (marginal latency cost); keeps the closed
#: form finite when a subtask experiences no utility pressure and no path
#: price (it then drifts to its maximum latency, as the clamp dictates).
_PULL_FLOOR = 1e-12


def stationary_latency(share_fn: ShareFunction, price: float,
                       pull: float) -> float:
    """Solve ``price · (−dshare/dlat)(lat) = pull`` for ``lat``.

    ``pull`` is the marginal cost of latency (utility slope plus path
    prices); ``price`` is the resource price ``μ_r``.  Supports the
    power-law family analytically and falls back to bracketed root finding
    for other strictly convex share functions.
    """
    if price <= 0.0:
        # Free resource: latency wants to shrink to its lower clamp.
        return 0.0
    if pull <= _PULL_FLOOR:
        # No pressure to be fast: latency wants to grow to its upper clamp.
        return math.inf

    if isinstance(share_fn, CorrectedShare):
        return share_fn.error + stationary_latency(share_fn.base, price, pull)
    if isinstance(share_fn, HyperbolicShare):
        return math.sqrt(price * share_fn.cost / pull)
    if isinstance(share_fn, PowerLawShare):
        alpha, cost = share_fn.alpha, share_fn.cost
        return (price * alpha * cost / pull) ** (1.0 / (alpha + 1.0))

    # Generic strictly convex share function: −dshare/dlat is positive and
    # strictly decreasing, so g(lat) = price·(−dshare/dlat)(lat) − pull is
    # strictly decreasing; bracket a sign change then bisect.
    def g(lat: float) -> float:
        return price * (-share_fn.dshare_dlat(lat)) - pull

    lo, hi = 1e-9, 1.0
    while g(hi) > 0.0 and hi < 1e12:
        hi *= 2.0
    if g(hi) > 0.0:
        return math.inf
    if g(lo) < 0.0:
        return lo
    # Imported here: scipy.optimize costs ~0.5 s to import, and the
    # closed-form models never reach this solver.
    from scipy.optimize import brentq
    return brentq(g, lo, hi, xtol=1e-12, rtol=1e-12)


class LatencyAllocator:
    """Computes new latencies for one task given current prices.

    Stateless apart from precomputed structure (bounds, weights, path
    memberships), so one instance per task can be reused every iteration —
    this mirrors the task controller's role in the distributed algorithm.
    """

    def __init__(self, taskset: TaskSet, task: Task,
                 max_latency_factor: float = 1.0) -> None:
        self.taskset = taskset
        self.task = task
        self._names = task.subtask_names
        self._paths_through: Dict[str, tuple] = {
            name: tuple(
                PathKey(task.name, i) for i in task.graph.paths_through(name)
            )
            for name in self._names
        }
        self._max_latency_factor = float(max_latency_factor)
        self._bounds: Dict[str, tuple] = {}
        self.refresh_bounds()

    def refresh_bounds(self) -> None:
        """(Re)compute per-subtask latency bounds from the current model.

        * lower bound: the latency achievable with the resource's full
          availability (share cannot exceed ``B_r``);
        * upper bound: the critical time (one subtask alone may not exceed
          any path budget), further capped by the *minimum rate share*
          ``rate × WCET`` of Section 6.2 — a subtask granted less than its
          rate share falls behind its arrivals and queues without bound, so
          its latency may not exceed ``latency_for_share(rate × WCET)``.

        Called again whenever error correction swaps a share function on
        the task set (Section 6.3), since both bounds shift with the model.
        """
        task = self.task
        for sub in task.subtasks:
            share_fn = self.taskset.share_function(sub.name)
            availability = self.taskset.resources[sub.resource].availability
            lo = share_fn.min_latency(availability)
            hi = task.critical_time * self._max_latency_factor
            if task.trigger is not None:
                min_share = task.trigger.mean_rate() * sub.exec_time
                if 0.0 < min_share < availability:
                    hi = min(hi, share_fn.latency_for_share(min_share))
            self._bounds[sub.name] = (lo, max(lo, hi))

    def path_price_sum(self, subtask: str,
                       path_prices: Mapping[PathKey, float]) -> float:
        """``Σ_{p ∋ s} λ_p`` for one subtask."""
        return sum(path_prices.get(k, 0.0) for k in self._paths_through[subtask])

    def allocate(
        self,
        resource_prices: Mapping[str, float],
        path_prices: Mapping[PathKey, float],
        current: Optional[Mapping[str, float]] = None,
    ) -> Dict[str, float]:
        """New latencies for all subtasks of this task (Eq. 7).

        ``current`` seeds the numeric solver for non-linear utilities; the
        closed form ignores it.
        """
        if isinstance(self.task.utility, LinearUtility) or \
                not self.task.utility.is_elastic():
            return self._allocate_closed_form(resource_prices, path_prices)
        return self._allocate_numeric(resource_prices, path_prices, current)

    # -- closed form -----------------------------------------------------------

    def _allocate_closed_form(
        self,
        resource_prices: Mapping[str, float],
        path_prices: Mapping[PathKey, float],
    ) -> Dict[str, float]:
        utility = self.task.utility
        slope = utility.slope if isinstance(utility, LinearUtility) else 0.0
        latencies: Dict[str, float] = {}
        for sub in self.task.subtasks:
            price = resource_prices.get(sub.resource, 0.0)
            pull = (
                self.task.weight(sub.name) * slope
                + self.path_price_sum(sub.name, path_prices)
            )
            lat = stationary_latency(
                self.taskset.share_function(sub.name), price, pull
            )
            lo, hi = self._bounds[sub.name]
            latencies[sub.name] = min(max(lat, lo), hi)
        return latencies

    # -- numeric (general concave utilities) -------------------------------------

    def _allocate_numeric(
        self,
        resource_prices: Mapping[str, float],
        path_prices: Mapping[PathKey, float],
        current: Optional[Mapping[str, float]],
    ) -> Dict[str, float]:
        names = list(self._names)
        share_fns = [self.taskset.share_function(n) for n in names]
        prices = np.array([
            resource_prices.get(self.task.subtask(n).resource, 0.0)
            for n in names
        ])
        lambdas = np.array([
            self.path_price_sum(n, path_prices) for n in names
        ])
        lo = np.array([self._bounds[n][0] for n in names])
        hi = np.array([self._bounds[n][1] for n in names])

        if current:
            x0 = np.array([current.get(n, (l + h) / 2.0)
                           for n, l, h in zip(names, lo, hi)])
            x0 = np.clip(x0, lo, hi)
        else:
            x0 = (lo + hi) / 2.0

        task = self.task

        def negative_lagrangian(x: np.ndarray) -> float:
            lat_map = dict(zip(names, x))
            value = task.utility_value(lat_map)  # statan: disable=REP016 -- task-local scalar probe in the latency-bound derivation
            value -= float(lambdas @ x)
            value -= sum(
                p * fn.share(xi) for p, fn, xi in zip(prices, share_fns, x)
            )
            return -value

        def negative_gradient(x: np.ndarray) -> np.ndarray:
            lat_map = dict(zip(names, x))
            grad_u = task.utility_gradient(lat_map)
            grad = np.array([grad_u[n] for n in names])
            grad -= lambdas
            grad -= np.array([
                p * fn.dshare_dlat(xi)
                for p, fn, xi in zip(prices, share_fns, x)
            ])
            return -grad

        from scipy.optimize import minimize  # see numeric_latency

        result = minimize(
            negative_lagrangian,
            x0,
            jac=negative_gradient,
            bounds=list(zip(lo, hi)),
            method="L-BFGS-B",
        )
        if not result.success and not np.all(np.isfinite(result.x)):
            raise OptimizationError(
                f"latency allocation failed for task {task.name!r}: "
                f"{result.message}"
            )
        x = np.clip(result.x, lo, hi)
        return dict(zip(names, x.tolist()))
