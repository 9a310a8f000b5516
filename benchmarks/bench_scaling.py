"""Benchmark: computational scalability of one LLA iteration.

Section 6.4 claims the optimizer's overhead is small; this bench measures
how the per-iteration cost grows with workload size on random provisioned
workloads (10 → 40 → 80 subtasks).  In its per-controller form (the
reference oracle in ``tests/oracle.py``) the iteration is a per-task loop
of closed-form per-subtask solves plus per-resource sums, so the cost
must grow roughly linearly in the subtask count — far from the
quadratic-or-worse growth a centralized re-solve would show.
"""

import sys
import time
from pathlib import Path

import pytest

import _report
from repro.core.optimizer import LLAConfig, LLAOptimizer
from repro.workloads.generator import GeneratorConfig, random_workload

# The reference oracle lives in the test tree, under the repo root.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.oracle import ReferenceLLA  # noqa: E402

_BENCH = _report.bench_name(__file__)


def _mean_iteration_cost(n_tasks: int, n_resources: int,
                         iterations: int = 300,
                         optimizer_class=ReferenceLLA) -> float:
    taskset = random_workload(
        GeneratorConfig(
            n_tasks=n_tasks, n_resources=n_resources,
            min_subtasks=4, max_subtasks=5,
        ),
        seed=123,
    )
    optimizer = optimizer_class(taskset, LLAConfig(record_history=False))
    start = time.perf_counter()
    for _ in range(iterations):
        optimizer.step()
    elapsed = time.perf_counter() - start
    return elapsed / iterations, len(taskset.all_subtasks)


@pytest.mark.benchmark(group="scaling")
def test_iteration_cost_scales_linearly(benchmark):
    def run():
        return [
            _mean_iteration_cost(2, 6),
            _mean_iteration_cost(8, 12),
            _mean_iteration_cost(16, 24),
        ]

    points = benchmark.pedantic(run, rounds=1, iterations=1)
    costs = [c for c, _n in points]
    sizes = [n for _c, n in points]
    # Cost per subtask must stay roughly flat: the largest workload's
    # per-subtask cost within 3x of the smallest's (sub-quadratic growth).
    per_subtask = [c / n for c, n in points]
    assert max(per_subtask) <= 3.0 * min(per_subtask), (
        f"per-subtask iteration cost not flat: {per_subtask}"
    )
    print()
    for (cost, n) in points:
        _report.record_value(
            _BENCH, f"iterations_per_sec.{n}_subtasks", 1.0 / cost
        )
        print(f"  {n:3d} subtasks: {1e6 * cost:7.1f} us/iteration "
              f"({1e6 * cost / n:.2f} us/subtask)")


@pytest.mark.benchmark(group="scaling")
def test_vectorized_iteration_cost(benchmark):
    """Same sweep through the engine — its per-subtask cost should
    *fall* with size as the python-loop overhead amortizes (see
    ``bench_vectorized`` for the head-to-head speedup gate)."""
    def run():
        return [
            _mean_iteration_cost(2, 6, optimizer_class=LLAOptimizer),
            _mean_iteration_cost(8, 12, optimizer_class=LLAOptimizer),
            _mean_iteration_cost(16, 24, optimizer_class=LLAOptimizer),
        ]

    points = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for (cost, n) in points:
        _report.record_value(
            _BENCH, f"iterations_per_sec.vectorized.{n}_subtasks", 1.0 / cost
        )
        print(f"  {n:3d} subtasks: {1e6 * cost:7.1f} us/iteration "
              f"({1e6 * cost / n:.2f} us/subtask)")
