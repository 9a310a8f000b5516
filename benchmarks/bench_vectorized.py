"""Benchmark: the LLA engine vs the per-name reference iteration.

The engine (:mod:`repro.core.vectorized`) batches the iteration whose
per-controller form the tests keep as a reference oracle
(``tests/oracle.py``); on the closed-form family their iterates are
bitwise-identical, so this bench is the engine's speed gate: on the
100-task scaling workload it must sustain at least 5× the reference's
iterations/second.  Results land in ``BENCH_vectorized.json`` as
``iterations_per_sec.scalar.<n>_tasks`` (the per-name reference) and
``iterations_per_sec.vectorized.<n>_tasks`` (the engine) gauges plus a
``speedup.<n>_tasks`` gauge per size, so the speedup trajectory is
diffable across PRs.

``-k smoke`` selects a seconds-scale subset suitable for CI.
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

#: (n_tasks, n_resources) grid; the largest is the ISSUE's acceptance size.
_SIZES = ((10, 15), (40, 60), (100, 150))
_TARGET_SPEEDUP = 5.0


def _taskset(n_tasks: int, n_resources: int):
    return random_workload(
        GeneratorConfig(
            n_tasks=n_tasks, n_resources=n_resources,
            min_subtasks=4, max_subtasks=5,
        ),
        seed=123,
    )


def _iterations_per_sec(taskset, optimizer_class, iterations: int) -> float:
    optimizer = optimizer_class(
        taskset,
        LLAConfig(record_history=False, stop_on_convergence=False,
                  max_iterations=10 * iterations + 10),
    )
    for _ in range(5):  # warm-up: first steps pay allocation caches
        optimizer.step()
    start = time.perf_counter()
    for _ in range(iterations):
        optimizer.step()
    return iterations / (time.perf_counter() - start)


def _compare(n_tasks: int, n_resources: int, scalar_iters: int,
             vector_iters: int) -> float:
    taskset = _taskset(n_tasks, n_resources)
    scalar = _iterations_per_sec(taskset, ReferenceLLA, scalar_iters)
    vector = _iterations_per_sec(taskset, LLAOptimizer, vector_iters)
    speedup = vector / scalar
    for label, rate in (("scalar", scalar), ("vectorized", vector)):
        _report.record_value(
            _BENCH, f"iterations_per_sec.{label}.{n_tasks}_tasks", rate
        )
    _report.record_value(_BENCH, f"speedup.{n_tasks}_tasks", speedup)
    print(f"  {n_tasks:3d} tasks: reference {scalar:8.1f} it/s, "
          f"engine {vector:8.1f} it/s, speedup {speedup:.1f}x")
    return speedup


@pytest.mark.benchmark(group="vectorized")
def test_vectorized_speedup(benchmark):
    def run():
        print()
        return [
            _compare(n_tasks, n_resources, scalar_iters=60, vector_iters=400)
            for n_tasks, n_resources in _SIZES
        ]

    speedups = benchmark.pedantic(run, rounds=1, iterations=1)
    # The acceptance bar applies to the largest (100-task) workload, where
    # python-loop overhead dominates the per-name reference.
    assert speedups[-1] >= _TARGET_SPEEDUP, (
        f"engine only {speedups[-1]:.1f}x the per-name reference on the "
        f"100-task workload (target {_TARGET_SPEEDUP}x)"
    )


@pytest.mark.benchmark(group="vectorized")
def test_vectorized_smoke(benchmark):
    """CI-sized variant: tiny workload, loose bar — just proves the kernel
    runs end-to-end and emits its report metrics."""
    def run():
        print()
        return _compare(10, 15, scalar_iters=30, vector_iters=100)

    speedup = benchmark.pedantic(run, rounds=1, iterations=1)
    assert speedup > 0.0
