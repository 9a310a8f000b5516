"""The optimizer's array-native facade.

The convergence detector judges feasibility from the engine's per-round
loads and path latencies, and iteration records build their per-name
fields only when read.  These tests pin both
to the object-graph reference: the array verdict must equal
``TaskSet.is_feasible`` on every round (feasible and infeasible alike),
and a deferred record must equal an eagerly built one field by field.
"""

import copy
import pickle
from dataclasses import fields

import numpy as np
import pytest

from repro.core.convergence import ConvergenceDetector
from repro.core.optimizer import LLAConfig, LLAOptimizer
from repro.core.state import IterationRecord
from repro.core.stepsize import FixedStepSize
from repro.core.structure import compile_structure
from repro.service import AllocationService, ServiceConfig
from repro.telemetry import Telemetry
from repro.workloads.generator import GeneratorConfig, random_workload
from tests.core.test_sharding import separable_taskset
from tests.oracle import ReferenceLLA


def _check_round(optimizer, verdicts):
    """The detector's verdict on this round against the object graph."""
    tol = optimizer.config.feasibility_tol
    expected = optimizer.taskset.is_feasible(optimizer.latencies, tol=tol)
    assert optimizer.detector.feasible() == expected, optimizer.iteration
    verdicts.append(expected)


def _eager_record(record):
    """The record rebuilt eagerly from its deferred fields' sources."""
    step = record.__dict__["_source"]
    s, a = step.structure, step.arrays
    return IterationRecord(
        iteration=record.iteration,
        utility=float(sum(a.per_task.tolist())),
        latencies=dict(zip(s.subtask_names, a.lat.tolist())),
        resource_prices=dict(zip(s.resource_names, a.mu.tolist())),
        path_prices=dict(zip(s.path_keys, a.lam.tolist())),
        resource_loads=dict(zip(s.resource_names, a.loads.tolist())),
        congested_resources=tuple(
            n for n, c in zip(s.resource_names, a.cong_r.tolist()) if c),
        congested_paths=tuple(
            k for k, c in zip(s.path_keys, a.cong_p.tolist()) if c),
        critical_paths=dict(zip(s.task_names, a.crit.tolist())),
    )


class TestDetectorVerdictParity:
    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("gamma", [0.1, 1.0, 10.0, None])
    def test_fig5_style_run(self, gamma, shards):
        """Figure 5's step-size series (fixed γ and adaptive) over a
        full fixed-length run, unsharded and on two serial shards."""
        kwargs = {} if gamma is None else \
            {"step_policy": FixedStepSize(gamma)}
        config = LLAConfig(shards=shards,
                           shard_mode="serial", max_iterations=300,
                           stop_on_convergence=False, **kwargs)
        verdicts = []
        optimizer = LLAOptimizer(separable_taskset(partitions=2), config)
        optimizer.on_iteration = lambda _record: _check_round(
            optimizer, verdicts)
        optimizer.run()
        assert len(verdicts) == 300
        assert False in verdicts
        if gamma in (10.0, None):  # the small fixed steps stay infeasible
            assert True in verdicts

    def test_seeded_service_churn(self):
        """Departures, re-arrivals and a critical-time update on the live
        service; every round of every epoch is checked."""
        taskset = random_workload(
            GeneratorConfig(n_tasks=10, n_resources=8, min_subtasks=2,
                            max_subtasks=4), seed=11)
        tasks = sorted(taskset.tasks, key=lambda t: t.name)
        resources = [r for _, r in sorted(taskset.resources.items())]
        service = AllocationService(resources, tasks,
                                    config=ServiceConfig())
        verdicts = []

        def advance(rounds):
            for _ in range(rounds):
                service.step(1)
                _check_round(service._optimizer, verdicts)

        advance(250)
        for victim in (tasks[0], tasks[5]):
            service.deregister(victim.name)
            advance(60)
            service.register(victim)
            advance(60)
        service.update_task(
            tasks[1].name, critical_time=tasks[1].critical_time * 1.1)
        advance(60)
        assert len(service.stats().reconvergence_rounds) >= 2
        assert True in verdicts and False in verdicts


class TestDeferredRecords:
    def _history(self, **kwargs):
        config = LLAConfig(max_iterations=60,
                           stop_on_convergence=False, **kwargs)
        return LLAOptimizer(separable_taskset(partitions=2),
                            config).run().history

    @pytest.mark.parametrize("shards", [1, 2])
    def test_deferred_equals_eager_field_by_field(self, shards):
        for record in self._history(shards=shards):
            eager = _eager_record(record)
            for f in fields(IterationRecord):
                assert getattr(record, f.name) == getattr(eager, f.name), \
                    (record.iteration, f.name)
            assert record == eager

    def test_history_records_keep_their_round(self):
        """A kept record reads its own round, not the engine's live state
        (the engine replaces its arrays instead of writing into them)."""
        history = self._history()
        first = history[0]
        assert first.latencies != history[-1].latencies
        assert first == _eager_record(first)

    def test_pickle_and_copy_carry_fields_not_source(self):
        record = self._history()[-1]
        for clone in (pickle.loads(pickle.dumps(record)),
                      copy.deepcopy(record), copy.copy(record)):
            assert "_source" not in clone.__dict__
            assert clone == record

    def test_unknown_attribute_still_raises(self):
        record = self._history()[-1]
        with pytest.raises(AttributeError):
            record.no_such_field  # noqa: B018


class TestFacadeDicts:
    def test_no_scalar_controllers_on_vectorized_path(self):
        optimizer = LLAOptimizer(separable_taskset(partitions=2),
                                 LLAConfig())
        assert not hasattr(optimizer, "allocators")
        assert not hasattr(optimizer, "path_prices")

    def test_metrics_match_scalar_backend(self):
        """Per-round metrics computed from the arrays (no dicts) agree
        with the same quantities computed per name from the reference's
        records."""
        config = LLAConfig(max_iterations=80, stop_on_convergence=False)
        telemetry = Telemetry()
        LLAOptimizer(separable_taskset(partitions=2), config,
                     telemetry=telemetry).run()
        vector = telemetry.registry.snapshot()
        history = ReferenceLLA(separable_taskset(partitions=2),
                               config).run().history
        assert vector["lla.iterations_total"]["value"] == len(history)
        assert vector["lla.congested_resources_total"]["value"] == sum(
            len(r.congested_resources) for r in history)
        assert vector["lla.congested_paths_total"]["value"] == sum(
            len(r.congested_paths) for r in history)
        before, last = history[-2].resource_prices, history[-1].resource_prices
        drift = sum(abs(last[r] - before[r]) for r in sorted(last)) \
            / len(last)
        assert vector["lla.price_drift"]["value"] == pytest.approx(
            drift, rel=1e-12)

    def test_price_dict_edits_flow_into_reallocation(self):
        """Editing ``resource_prices.prices`` in place and reallocating
        adopts the edit, as on the per-name reference."""
        results = {}
        for backend, cls in (("scalar", ReferenceLLA),
                             ("vectorized", LLAOptimizer)):
            optimizer = cls(separable_taskset(partitions=2), LLAConfig())
            optimizer.run(20)
            prices = optimizer.resource_prices.prices
            for name in list(prices):
                prices[name] = 2.0
            optimizer.latencies = optimizer._initial_latencies()
            results[backend] = dict(optimizer.latencies)
            optimizer.step()
            assert optimizer.resource_prices.prices != \
                {name: 2.0 for name in prices}
        assert results["vectorized"] == pytest.approx(results["scalar"],
                                                      rel=1e-12)


class TestObserveArguments:
    def test_needs_both_arrays_in_structure_shape(self, chain_ts):
        s = compile_structure(chain_ts)
        det = ConvergenceDetector(s)
        loads = np.zeros(s.n_resources)
        path_lat = np.zeros(s.n_paths)
        with pytest.raises(TypeError):
            det.observe(1.0)
        with pytest.raises(TypeError):
            det.observe(1.0, loads=loads)
        with pytest.raises(ValueError):
            det.observe(1.0, loads=np.zeros(s.n_resources + 1),
                        path_lat=path_lat)
        with pytest.raises(ValueError):
            det.observe(1.0, loads=loads, path_lat=np.zeros(s.n_paths + 1))
        det.observe(1.0, loads=loads, path_lat=path_lat)
        assert det.feasible()

    def test_verdict_follows_the_tolerance(self, chain_ts):
        s = compile_structure(chain_ts)
        det = ConvergenceDetector(s, feasibility_tol=0.5)
        over = s.availability + 0.25
        det.observe(1.0, loads=over, path_lat=s.path_crit.copy())
        assert det.feasible()
        det.observe(1.0, loads=s.availability + 0.75,
                    path_lat=s.path_crit.copy())
        assert not det.feasible()
        det.observe(1.0, loads=s.availability.copy(),
                    path_lat=s.path_crit + 0.75)
        assert not det.feasible()
