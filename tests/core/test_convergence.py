"""Unit tests for the convergence detector."""

import pytest

from repro.core.convergence import ConvergenceDetector
from repro.core.structure import compile_structure
from repro.core.vectorized import observe_assignment


class LatencyDetector(ConvergenceDetector):
    """The detector fed latency dicts: each is measured on the compiled
    structure and observed as the engine's loads and path latencies."""

    def __init__(self, taskset, **kwargs):
        super().__init__(compile_structure(taskset), **kwargs)

    def observe(self, utility, latencies):
        obs = observe_assignment(self.structure, latencies)
        super().observe(utility, loads=obs.loads, path_lat=obs.path_lat)


def feasible_latencies(ts):
    """9 ms per subtask is feasible for the dedicated-resource chain
    fixture (path 27 ≤ 30, loads 3/9 = 0.33)."""
    return {n: 9.0 for n in ts.subtask_names}


class TestConvergenceDetector:
    def test_not_converged_before_window_fills(self, chain_ts):
        det = LatencyDetector(chain_ts, window=5)
        for _ in range(5):
            det.observe(10.0, feasible_latencies(chain_ts))
        assert not det.converged()   # needs window+1 observations
        det.observe(10.0, feasible_latencies(chain_ts))
        assert det.converged()

    def test_detects_stability(self, chain_ts):
        det = LatencyDetector(chain_ts, window=3, utility_tol=1e-3)
        for _ in range(10):
            det.observe(100.0, feasible_latencies(chain_ts))
        assert det.utility_stable()

    def test_rejects_drift(self, chain_ts):
        det = LatencyDetector(chain_ts, window=3, utility_tol=1e-3)
        for i in range(10):
            det.observe(100.0 + i, feasible_latencies(chain_ts))
        assert not det.utility_stable()

    def test_relative_tolerance_scales(self, chain_ts):
        # Spread 0.5 on a value of 10000 is relatively tiny.
        det = LatencyDetector(chain_ts, window=3, utility_tol=1e-3)
        values = [10000.0, 10000.5, 10000.0, 10000.4, 10000.1]
        for v in values:
            det.observe(v, feasible_latencies(chain_ts))
        assert det.utility_stable()

    def test_requires_feasibility(self, base_ts):
        det = LatencyDetector(base_ts, window=2)
        infeasible = {n: 0.1 for n in base_ts.subtask_names}
        for _ in range(6):
            det.observe(10.0, infeasible)
        assert det.utility_stable()
        assert not det.feasible()
        assert not det.converged()

    def test_feasibility_check_optional(self, base_ts):
        det = LatencyDetector(base_ts, window=2, require_feasible=False)
        infeasible = {n: 0.1 for n in base_ts.subtask_names}
        for _ in range(6):
            det.observe(10.0, infeasible)
        assert det.converged()

    def test_reset(self, chain_ts):
        det = LatencyDetector(chain_ts, window=2)
        for _ in range(6):
            det.observe(10.0, feasible_latencies(chain_ts))
        assert det.converged()
        det.reset()
        assert not det.converged()

    def test_rejects_bad_params(self, base_ts):
        with pytest.raises(ValueError):
            LatencyDetector(base_ts, window=0)
        with pytest.raises(ValueError):
            LatencyDetector(base_ts, utility_tol=0.0)
        with pytest.raises(ValueError):
            LatencyDetector(base_ts, utility_floor=0.0)


class TestSmallUtilityScale:
    """Regression: the stability scale used to be ``max(1.0, max|v|)``,
    so any run whose utilities were much smaller than 1 looked "stable"
    immediately — the absolute spread was tiny even while the trace was
    still swinging by 50% of its own magnitude."""

    def test_small_utilities_still_swinging_not_stable(self, chain_ts):
        det = LatencyDetector(chain_ts, window=3, utility_tol=1e-3)
        # |U| ~ 1e-4 with a 30% relative spread: with the old absolute
        # scale of 1.0 the spread (6e-5) was far below tol and this
        # wrongly converged.
        for v in (1.0e-4, 1.3e-4, 0.9e-4, 1.2e-4, 1.1e-4):
            det.observe(v, feasible_latencies(chain_ts))
        assert not det.utility_stable()

    def test_small_utilities_settled_are_stable(self, chain_ts):
        det = LatencyDetector(chain_ts, window=3, utility_tol=1e-3)
        for _ in range(6):
            det.observe(1.0e-4, feasible_latencies(chain_ts))
        assert det.utility_stable()

    def test_identically_zero_trace_is_stable(self, chain_ts):
        # The floor's other job: no division by zero on an all-zero trace.
        det = LatencyDetector(chain_ts, window=3)
        for _ in range(6):
            det.observe(0.0, feasible_latencies(chain_ts))
        assert det.utility_stable()

    def test_floor_bounds_the_scale_from_below(self, chain_ts):
        # Raising the floor above the trace magnitude re-enables the old
        # absolute judgement for callers that want it.
        det = LatencyDetector(chain_ts, window=3, utility_tol=1e-3,
                                  utility_floor=1.0)
        for v in (1.0e-4, 1.3e-4, 0.9e-4, 1.2e-4, 1.1e-4):
            det.observe(v, feasible_latencies(chain_ts))
        assert det.utility_stable()
