"""Tests for the sharded optimizer (:mod:`repro.core.sharding`).

Sharding is a throughput knob, not a different algorithm: the planner
never splits a resource-connectivity component, so on separable
workloads every materialized value — latencies, prices, loads, utility —
must stay bitwise-identical to the unsharded vectorized engine, in both
the in-process (``serial``) and process-pool (``processes``) modes.
"""

import numpy as np
import pytest

from repro.core.optimizer import LLAConfig, LLAOptimizer
from repro.core.sharding import ShardedEngine, plan_shards
from repro.core.structure import compile_structure
from repro.core.vectorized import VectorizedEngine
from repro.errors import OptimizationError, ServiceError
from repro.service import ServiceConfig
from repro.workloads.generator import GeneratorConfig, random_workload
from repro.workloads.paper import base_workload


def separable_taskset(partitions=2, seed=3):
    """A workload whose task↔resource graph has exactly ``partitions``
    connected components — the regime the shard planner exploits."""
    return random_workload(
        GeneratorConfig(n_tasks=8, n_resources=6 * partitions,
                        min_subtasks=3, max_subtasks=4,
                        partitions=partitions),
        seed=seed,
    )


def _engine(taskset, shards, mode="serial"):
    config = LLAConfig(shards=shards, shard_mode=mode)
    policy = config.build_step_policy(taskset)
    if shards == 1 and mode == "serial":
        return VectorizedEngine(taskset, config, policy)
    return ShardedEngine(taskset, config, policy)


def assert_steps_match(expected, actual):
    """Bitwise equality of two EngineSteps."""
    assert actual.utility == expected.utility
    for field in ("latencies", "resource_prices", "path_prices",
                  "resource_loads", "critical_paths"):
        assert getattr(actual, field) == getattr(expected, field), field
    assert actual.congested_resources == expected.congested_resources
    assert actual.congested_paths == expected.congested_paths


class TestPlanShards:
    def test_plan_is_deterministic(self):
        s = compile_structure(separable_taskset(partitions=4))
        assert plan_shards(s, 4) == plan_shards(s, 4)

    def test_partition_is_exact_and_disjoint(self):
        s = compile_structure(separable_taskset(partitions=4))
        plan = plan_shards(s, 3)
        for field, total in (
            ("task_ids", len(s.task_names)),
            ("sub_ids", s.n_subtasks),
            ("resource_ids", s.n_resources),
            ("path_ids", s.n_paths),
        ):
            seen = [i for spec in plan.specs for i in getattr(spec, field)]
            assert sorted(seen) == list(range(total)), field

    def test_components_are_never_split(self):
        """Two subtasks sharing a resource (or a task spanning both) must
        land on the same shard — that is what makes shard iterates exact
        rather than approximate."""
        s = compile_structure(separable_taskset(partitions=4))
        plan = plan_shards(s, 4)
        # 4 partition components plus singleton components for any
        # resources the generator left idle.
        assert plan.n_components >= 4
        for spec in plan.specs:
            ress = set(spec.resource_ids)
            for sub in spec.sub_ids:
                assert int(s.sub_resource[sub]) in ress
            tasks = set(spec.task_ids)
            for sub in spec.sub_ids:
                assert int(s.sub_task_ids[sub]) in tasks

    def test_shard_count_is_capped_by_components(self):
        s = compile_structure(separable_taskset(partitions=2))
        assert plan_shards(s, 8).n_shards == 2

    def test_single_shard_covers_everything(self):
        s = compile_structure(base_workload())
        plan = plan_shards(s, 1)
        assert plan.n_shards == 1
        assert len(plan.specs[0].sub_ids) == s.n_subtasks

    def test_rejects_nonpositive_shards(self):
        s = compile_structure(base_workload())
        with pytest.raises(OptimizationError):
            plan_shards(s, 0)


class TestEngineParity:
    def test_one_shard_is_the_unsharded_kernel(self):
        """shards=1 collapses to a plain VectorizedEngine — identical by
        construction, verified step-for-step bitwise here."""
        plain = _engine(base_workload(), shards=1)
        sharded = _engine(base_workload(), shards=1, mode="processes")
        assert sharded.plan.n_shards == 1
        for _ in range(150):
            assert_steps_match(plain.step(), sharded.step())

    def test_two_serial_shards_match_bitwise(self):
        plain = _engine(separable_taskset(), shards=1)
        sharded = _engine(separable_taskset(), shards=2)
        assert sharded.plan.n_shards == 2
        for _ in range(150):
            assert_steps_match(plain.step(), sharded.step())

    def test_two_process_shards_match_bitwise(self):
        plain = _engine(separable_taskset(), shards=1)
        with _engine(separable_taskset(), shards=2,
                     mode="processes") as sharded:
            assert sharded.plan.n_shards == 2
            for _ in range(40):
                assert_steps_match(plain.step(), sharded.step())

    def test_single_component_collapses_gracefully(self):
        """Asking for shards on an unpartitionable workload silently runs
        the single-engine path (still bitwise-correct), rather than
        cutting a component."""
        plain = _engine(base_workload(), shards=1)
        sharded = _engine(base_workload(), shards=4)
        assert sharded.plan.n_shards == 1
        for _ in range(50):
            assert_steps_match(plain.step(), sharded.step())


class TestFullRunParity:
    """The ISSUE's Fig. 5-style acceptance: a full optimizer run with
    shards=2 on a partition-separable workload matches the unsharded run
    within 1e-9 (bitwise in practice) and converges in the same rounds."""

    def _run(self, **kwargs):
        config = LLAConfig(max_iterations=400, **kwargs)
        return LLAOptimizer(separable_taskset(), config).run()

    def test_sharded_full_run_matches_unsharded(self):
        plain = self._run()
        sharded = self._run(shards=2)
        assert sharded.iterations == plain.iterations
        assert sharded.converged == plain.converged
        assert sharded.utility == pytest.approx(plain.utility,
                                                rel=1e-9, abs=0.0)
        assert set(sharded.latencies) == set(plain.latencies)
        np.testing.assert_allclose(
            [sharded.latencies[k] for k in sorted(plain.latencies)],
            [plain.latencies[k] for k in sorted(plain.latencies)],
            rtol=1e-9, atol=0.0,
        )

    def test_sharded_history_matches_unsharded(self):
        plain = self._run(record_history=True)
        sharded = self._run(shards=2, record_history=True)
        np.testing.assert_allclose(
            [r.utility for r in sharded.history],
            [r.utility for r in plain.history],
            rtol=1e-9, atol=0.0,
        )

    def test_optimizer_exposes_the_sharded_structure(self):
        opt = LLAOptimizer(separable_taskset(),
                           LLAConfig(shards=2))
        assert isinstance(opt._engine, ShardedEngine)
        assert opt.structure is not None
        assert opt.structure.fingerprint


class TestConfigValidation:
    def test_lla_rejects_nonpositive_shards(self):
        with pytest.raises(OptimizationError, match="shards"):
            LLAConfig(shards=0)

    def test_lla_rejects_scalar_sharding(self):
        """One engine: no backend knob to pair with shards."""
        with pytest.raises(TypeError, match="backend"):
            LLAConfig(backend="scalar", shards=2)

    def test_lla_rejects_unknown_shard_mode(self):
        with pytest.raises(OptimizationError, match="shard_mode"):
            LLAConfig(shard_mode="threads")

    def test_service_rejects_nonpositive_shards(self):
        with pytest.raises(ServiceError, match="shards"):
            ServiceConfig(shards=0)

    def test_service_rejects_scalar_sharding(self):
        with pytest.raises(TypeError, match="backend"):
            ServiceConfig(backend="scalar", shards=2)

    def test_service_rejects_unknown_shard_mode(self):
        with pytest.raises(ServiceError, match="shard_mode"):
            ServiceConfig(shard_mode="threads")

    def test_service_rejects_contradictory_lla_sharding(self):
        with pytest.raises(ServiceError, match="contradicts"):
            ServiceConfig(shards=2,
                          lla=LLAConfig(shards=4))
