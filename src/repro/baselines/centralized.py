"""Centralized reference solver for the latency-assignment problem.

Solves the primal problem of Section 3 directly with SLSQP:

    maximize    Σ_i U_i(lat)
    subject to  Σ_{s ∈ S_r} share_r(s, lat_s) ≤ B_r          ∀ r
                Σ_{s ∈ p} lat_s ≤ C_i                        ∀ i, p ∈ P_i
                lat_min_s ≤ lat_s ≤ C_i

This is the omniscient, non-distributed oracle the paper's distributed
algorithm approximates; tests assert LLA converges to the same utility (the
problem is strictly concave over a convex set, so the optimum is unique).
It also serves as the quality yardstick in the baseline benches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.errors import OptimizationError
from repro.model.task import TaskSet

__all__ = ["CentralizedSolution", "solve_centralized"]


@dataclass
class CentralizedSolution:
    """Result of the centralized solve."""

    latencies: Dict[str, float]
    utility: float
    success: bool
    message: str

    def critical_paths(self, taskset: TaskSet) -> Dict[str, float]:
        return {
            task.name: task.critical_path(self.latencies)[1]
            for task in taskset.tasks
        }


def solve_centralized(taskset: TaskSet,
                      x0: Optional[Dict[str, float]] = None,
                      max_iterations: int = 500) -> CentralizedSolution:
    """Solve the full primal problem with SLSQP.

    ``x0`` optionally warm-starts the solver (e.g. with an LLA iterate);
    by default latencies start at the midpoint of their bounds.
    """
    names: List[str] = list(taskset.subtask_names)
    index = {name: i for i, name in enumerate(names)}

    lo = np.empty(len(names))
    hi = np.empty(len(names))
    for task in taskset.tasks:
        for sub in task.subtasks:
            i = index[sub.name]
            share_fn = taskset.share_function(sub.name)
            availability = taskset.resources[sub.resource].availability
            lo[i] = share_fn.min_latency(availability)
            hi[i] = max(lo[i], task.critical_time)
            if task.trigger is not None:
                min_share = task.trigger.mean_rate() * sub.exec_time
                if 0.0 < min_share < availability:
                    hi[i] = max(
                        lo[i],
                        min(hi[i], share_fn.latency_for_share(min_share)),
                    )

    if x0 is not None:
        start = np.array([
            np.clip(x0.get(n, (lo[i] + hi[i]) / 2.0), lo[i], hi[i])
            for i, n in enumerate(names)
        ])
    else:
        start = (lo + hi) / 2.0

    def unpack(x: np.ndarray) -> Dict[str, float]:
        return dict(zip(names, x))

    def objective(x: np.ndarray) -> float:
        return -taskset.total_utility(unpack(x))

    constraints = []
    for rname, resource in taskset.resources.items():
        members = [
            (index[sub.name], taskset.share_function(sub.name))
            for _task, sub in taskset.subtasks_on(rname)
        ]
        availability = resource.availability

        def resource_slack(x: np.ndarray, members=members,
                           availability=availability) -> float:
            return availability - sum(fn.share(x[i]) for i, fn in members)

        constraints.append({"type": "ineq", "fun": resource_slack})

    for task in taskset.tasks:
        for path in task.graph.paths:
            idxs = [index[s] for s in path]
            critical = task.critical_time

            def path_slack(x: np.ndarray, idxs=idxs,
                           critical=critical) -> float:
                return critical - sum(x[i] for i in idxs)

            constraints.append({"type": "ineq", "fun": path_slack})

    # Imported here so that importing the package (and the CLI) does not
    # pay for scipy.optimize unless the oracle actually runs.
    from scipy.optimize import minimize

    result = minimize(
        objective,
        start,
        method="SLSQP",
        bounds=list(zip(lo, hi)),
        constraints=constraints,
        options={"maxiter": max_iterations, "ftol": 1e-10},
    )
    if not np.all(np.isfinite(result.x)):
        raise OptimizationError(
            f"centralized solver diverged: {result.message}"
        )
    latencies = unpack(np.clip(result.x, lo, hi))
    return CentralizedSolution(
        latencies=latencies,
        utility=taskset.total_utility(latencies),
        success=bool(result.success),
        message=str(result.message),
    )
