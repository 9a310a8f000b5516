"""Benchmark: sharded vs single-engine LLA iteration throughput.

The sharded optimizer (:mod:`repro.core.sharding`) partitions a compiled
:class:`~repro.core.structure.TaskSetStructure` by resource-connectivity
components and runs one vectorized engine per shard in a process pool
with shared-memory result arrays.  On a partition-separable workload the
shards never exchange state, so the iterates stay bitwise-identical to
the unsharded engine while the per-iteration work divides across cores.

This bench is the sharding acceptance gate: on the 10k-subtask
separable workload, four process shards must sustain at least 1.8x the
single-engine iteration throughput.  Results land in
``BENCH_sharded.json`` as ``iterations_per_sec.shards_<s>.<n>_subtasks``
gauges plus ``speedup.shards_<s>.<n>_subtasks`` and a
``utility_match.<n>_subtasks`` parity bit, so both the scaling curve
and the correctness invariant are diffable across PRs
(``baselines/BENCH_sharded.json``).

``-k smoke`` selects a seconds-scale subset suitable for CI.
"""

import time

import pytest

import _report
from repro.core.optimizer import LLAConfig
from repro.core.sharding import ShardedEngine
from repro.workloads.generator import GeneratorConfig, random_workload

_BENCH = _report.bench_name(__file__)

#: (n_tasks, n_resources); every task has exactly 4 subtasks, so the
#: subtask counts are 1_000 and 10_000.  ``partitions=4`` keeps the
#: resource graph 4-way separable — the shard planner finds at least
#: 4 components, so every shard count up to 4 splits cleanly.
_SIZES = ((250, 400), (2500, 2000))
_SHARDS = (1, 2, 4)
_TARGET_SPEEDUP = 1.8


def _taskset(n_tasks: int, n_resources: int):
    return random_workload(
        GeneratorConfig(
            n_tasks=n_tasks, n_resources=n_resources,
            min_subtasks=4, max_subtasks=4, partitions=4,
        ),
        seed=7,
    )


def _engine(taskset, shards: int) -> ShardedEngine:
    config = LLAConfig(
        shards=shards,
        shard_mode="processes" if shards > 1 else "serial",
        record_history=False, stop_on_convergence=False,
    )
    return ShardedEngine(taskset, config, config.build_step_policy(taskset))


def _measure(taskset, shards: int, iterations: int):
    """(iterations/sec, final utility) for one shard count."""
    with _engine(taskset, shards) as engine:
        engine.iterate(10)  # warm-up: allocation caches, worker spin-up
        start = time.perf_counter()
        engine.iterate(iterations)
        elapsed = time.perf_counter() - start
        utility = engine.step().utility
    return iterations / elapsed, utility


def _scaling_curve(n_tasks: int, n_resources: int, iterations: int) -> float:
    taskset = _taskset(n_tasks, n_resources)
    n_subtasks = len(taskset.subtask_names)
    rates = {}
    utilities = {}
    for shards in _SHARDS:
        rate, utility = _measure(taskset, shards, iterations)
        rates[shards] = rate
        utilities[shards] = utility
        _report.record_value(
            _BENCH, f"iterations_per_sec.shards_{shards}.{n_subtasks}_subtasks",
            rate,
        )
    for shards in _SHARDS:
        _report.record_value(
            _BENCH, f"speedup.shards_{shards}.{n_subtasks}_subtasks",
            rates[shards] / rates[1],
        )
    # Shards on a separable workload are an execution detail, not a
    # different algorithm: after the same number of iterations (one extra
    # synchronizing step each) every shard count must report the same
    # utility to the last bit.
    match = all(utilities[s] == utilities[1] for s in _SHARDS)
    _report.record_value(
        _BENCH, f"utility_match.{n_subtasks}_subtasks", 1.0 if match else 0.0
    )
    assert match, (
        f"sharded utilities diverged on the {n_subtasks}-subtask workload: "
        f"{utilities!r}"
    )
    speedup = rates[4] / rates[1]
    print(f"  {n_subtasks:6d} subtasks: " + ", ".join(
        f"{s} shard(s) {rates[s]:8.1f} it/s" for s in _SHARDS
    ) + f"; 4-shard speedup {speedup:.2f}x")
    return speedup


@pytest.mark.benchmark(group="sharded")
def test_sharded_scaling(benchmark):
    def run():
        print()
        return [
            _scaling_curve(n_tasks, n_resources, iterations=300)
            for n_tasks, n_resources in _SIZES
        ]

    speedups = benchmark.pedantic(run, rounds=1, iterations=1)
    # The acceptance bar applies to the largest (10k-subtask) workload,
    # where the per-shard numpy work dominates the pool round-trips.
    assert speedups[-1] >= _TARGET_SPEEDUP, (
        f"4 process shards only {speedups[-1]:.2f}x the single engine on "
        f"the 10k-subtask workload (target {_TARGET_SPEEDUP}x)"
    )


@pytest.mark.benchmark(group="sharded")
def test_sharded_smoke(benchmark):
    """CI-sized variant: 1k subtasks, loose bar — proves the pool spins
    up, iterates, stays bit-identical and emits its report metrics."""
    def run():
        print()
        return _scaling_curve(*_SIZES[0], iterations=60)

    speedup = benchmark.pedantic(run, rounds=1, iterations=1)
    assert speedup > 0.0
