"""Parity tests: the engine must reproduce the per-name reference.

The optimizer runs every workload on the batched engine
(:mod:`repro.core.vectorized`); ``tests/oracle.py`` keeps the iteration
in its per-controller form.  The acceptance bar is element-wise closeness
(rtol ≤ 1e-9) of latencies, prices and utility over full figure runs, and
the engine actually delivers bitwise-identical trajectories (every
reduction is ordered like its per-name counterpart), which these tests
pin down so a ulp regression is caught before it flips an adaptive-γ
branch.
"""

import numpy as np
import pytest

import repro.experiments.fig5 as fig5
import repro.experiments.fig6 as fig6
from repro.core.optimizer import LLAConfig, LLAOptimizer
from repro.core.stepsize import AdaptiveStepSize, FixedStepSize
from repro.core.structure import UTILITY_LOG
from repro.errors import OptimizationError
from repro.model.share import PowerLawShare, ShareFunction
from repro.model.utility import LogUtility
from repro.workloads.paper import base_workload
from tests.conftest import make_chain_taskset
from tests.core.test_inelastic import mixed_taskset
from tests.core.test_sharding import separable_taskset
from tests.oracle import ReferenceLLA


def _pair(taskset_factory, **config_kwargs):
    """The reference and the engine over fresh task-set copies."""
    return tuple(
        cls(taskset_factory(), LLAConfig(**config_kwargs))
        for cls in (ReferenceLLA, LLAOptimizer)
    )


def _reference_run(module, monkeypatch):
    """``module``'s figure run with the reference in place of the
    optimizer."""
    with monkeypatch.context() as patch:
        patch.setattr(module, "LLAOptimizer", ReferenceLLA)
        return getattr(module, f"run_{module.__name__.rsplit('.', 1)[1]}")()


def assert_records_match(scalar, vector):
    """Element-wise parity of two IterationRecords (rtol 1e-9; in
    practice the values are bitwise equal)."""
    assert vector.iteration == scalar.iteration
    assert vector.utility == pytest.approx(scalar.utility, rel=1e-9, abs=0.0)
    for field in ("latencies", "resource_prices", "path_prices",
                  "resource_loads", "critical_paths"):
        s, v = getattr(scalar, field), getattr(vector, field)
        assert set(v) == set(s), field
        for key in s:
            assert v[key] == pytest.approx(s[key], rel=1e-9, abs=0.0), \
                (field, key)
    assert set(vector.congested_resources) == set(scalar.congested_resources)
    assert set(vector.congested_paths) == set(scalar.congested_paths)


class TestFigureRunParity:
    def test_fig5_full_run(self, monkeypatch):
        """All four Figure 5 series (fixed γ ∈ {0.1, 1, 10} + adaptive)
        produce the same utility trace as the reference."""
        scalar = _reference_run(fig5, monkeypatch)
        vector = fig5.run_fig5()
        assert set(vector.series) == set(scalar.series)
        for label, line in scalar.series.items():
            np.testing.assert_allclose(
                vector.series[label].utilities, line.utilities,
                rtol=1e-9, atol=0.0, err_msg=label,
            )

    def test_fig6_full_run(self, monkeypatch):
        """The ×1/×2/×4 scaling runs (unbounded adaptive γ) match too."""
        scalar = _reference_run(fig6, monkeypatch)
        vector = fig6.run_fig6()
        assert set(vector.points) == set(scalar.points)
        for n, point in scalar.points.items():
            np.testing.assert_allclose(
                vector.points[n].utilities, point.utilities,
                rtol=1e-9, atol=0.0, err_msg=f"{n} tasks",
            )
            assert vector.points[n].final_utility == pytest.approx(
                point.final_utility, rel=1e-9, abs=0.0
            )


class TestRecordParity:
    @pytest.mark.parametrize("gamma", [0.1, 1.0, 10.0])
    def test_fixed_step_records(self, gamma):
        s_opt, v_opt = _pair(
            base_workload, step_policy=FixedStepSize(gamma),
            max_iterations=200, stop_on_convergence=False,
        )
        for _ in range(200):
            assert_records_match(s_opt.step(), v_opt.step())

    def test_adaptive_step_records(self):
        s_opt, v_opt = _pair(
            base_workload, step_policy=AdaptiveStepSize(initial_gamma=1.0),
            max_iterations=300, stop_on_convergence=False,
        )
        for _ in range(300):
            assert_records_match(s_opt.step(), v_opt.step())

    def test_inelastic_mixed_records(self):
        """The inelastic-utility branch (step value, zero pull → clamp)
        follows the same trajectory — including through the pull-collapse
        regime where latencies ride the clamps."""
        s_opt, v_opt = _pair(mixed_taskset, max_iterations=400,
                             stop_on_convergence=False)
        for _ in range(400):
            assert_records_match(s_opt.step(), v_opt.step())

    def test_power_law_share_records(self):
        def taskset():
            ts = make_chain_taskset()
            for sub in ts.tasks[0].subtasks:
                ts.set_share_function(sub.name,
                                      PowerLawShare(cost=3.0, alpha=2.0))
            return ts

        s_opt, v_opt = _pair(taskset, max_iterations=150,
                             stop_on_convergence=False)
        for _ in range(150):
            assert_records_match(s_opt.step(), v_opt.step())


    def test_records_bitwise_equal_on_separable_workload(self):
        """Every record field is exactly equal, critical paths included:
        both sides sum each path root to leaf."""
        s_opt, v_opt = _pair(lambda: separable_taskset(partitions=2),
                             max_iterations=25, stop_on_convergence=False)
        for _ in range(25):
            expected, actual = s_opt.step(), v_opt.step()
            assert actual.iteration == expected.iteration
            assert actual.utility == expected.utility
            for field in ("latencies", "resource_prices", "path_prices",
                          "resource_loads", "critical_paths"):
                assert getattr(actual, field) == getattr(expected, field), \
                    (actual.iteration, field)
            assert set(actual.congested_resources) == \
                set(expected.congested_resources)
            assert set(actual.congested_paths) == \
                set(expected.congested_paths)


class TestFacadeParity:
    def test_run_result(self):
        s_opt, v_opt = _pair(base_workload, max_iterations=400)
        s_res, v_res = s_opt.run(), v_opt.run()
        assert v_res.converged == s_res.converged
        assert v_res.iterations == s_res.iterations
        assert v_res.utility == pytest.approx(s_res.utility,
                                              rel=1e-9, abs=0.0)
        for key, value in s_res.latencies.items():
            assert v_res.latencies[key] == pytest.approx(value, rel=1e-9,
                                                         abs=0.0)
        for key, value in s_res.path_prices.items():
            assert v_res.path_prices[key] == pytest.approx(value, rel=1e-9,
                                                           abs=0.0)

    def test_warm_start(self):
        s_opt, v_opt = _pair(base_workload, warm_start=True,
                             max_iterations=200, stop_on_convergence=False)
        assert v_opt.latencies == pytest.approx(s_opt.latencies, rel=1e-9)
        for _ in range(200):
            assert_records_match(s_opt.step(), v_opt.step())

    def test_reset_reproduces_run(self):
        ts = base_workload()
        opt = LLAOptimizer(ts, LLAConfig(max_iterations=150,
                                         stop_on_convergence=False))
        first = [opt.step().utility for _ in range(150)]
        opt.reset()
        assert opt.iteration == 0
        second = [opt.step().utility for _ in range(150)]
        assert second == first


class TestUnsupportedModels:
    def test_numeric_utility_compiles(self):
        ts = make_chain_taskset()
        ts.tasks[0].utility = LogUtility(ts.tasks[0].critical_time)
        opt = LLAOptimizer(ts, LLAConfig())
        assert opt.structure.ut_kind.tolist() == [UTILITY_LOG]
        assert np.isfinite(opt.step().utility)

    def test_custom_share_function_rejected(self):
        class OddShare(ShareFunction):
            def share(self, latency):
                return 1.0 / latency

            def dshare_dlat(self, latency):
                return -1.0 / latency ** 2

            def latency_for_share(self, share):
                return 1.0 / share

            def min_latency(self, availability):
                return 1.0 / availability

        ts = make_chain_taskset()
        ts.set_share_function("s0", OddShare())
        with pytest.raises(OptimizationError,
                           match="does not support share function OddShare"):
            LLAOptimizer(ts, LLAConfig())

    def test_bad_backend_name_rejected(self, base_ts):
        """There is one engine: the config has no backend to name."""
        with pytest.raises(TypeError, match="backend"):
            LLAConfig(backend="simd")
