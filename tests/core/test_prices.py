"""Unit tests for the price updates (Eqs. 8–9, gradient projection)."""

import math

import pytest

from repro.errors import OptimizationError
from repro.core.prices import update_path_price, update_resource_price
from repro.core.state import PathKey
from tests.oracle import (
    PathPriceUpdater,
    ResourcePriceUpdater,
    ReferenceFixedStepSize as FixedStepSize,
)


class TestUpdateRules:
    def test_overload_raises_resource_price(self):
        new = update_resource_price(price=1.0, gamma=1.0,
                                    availability=1.0, load=1.5)
        assert new == pytest.approx(1.5)

    def test_slack_lowers_resource_price(self):
        new = update_resource_price(price=1.0, gamma=1.0,
                                    availability=1.0, load=0.4)
        assert new == pytest.approx(0.4)

    def test_resource_price_projection(self):
        new = update_resource_price(price=0.1, gamma=1.0,
                                    availability=1.0, load=0.0)
        assert new == 0.0

    def test_violated_path_raises_price(self):
        new = update_path_price(price=0.0, gamma=1.0,
                                path_latency=90.0, critical_time=45.0)
        assert new == pytest.approx(1.0)

    def test_slack_path_decays_price(self):
        new = update_path_price(price=2.0, gamma=1.0,
                                path_latency=22.5, critical_time=45.0)
        assert new == pytest.approx(1.5)

    def test_path_price_projection(self):
        new = update_path_price(price=0.1, gamma=1.0,
                                path_latency=0.0, critical_time=45.0)
        assert new == 0.0

    def test_gamma_scales_step(self):
        small = update_resource_price(1.0, 0.1, 1.0, 2.0)
        large = update_resource_price(1.0, 10.0, 1.0, 2.0)
        assert large - 1.0 == pytest.approx(100.0 * (small - 1.0))


class TestResourcePriceUpdater:
    def test_initialization_and_reset(self, base_ts):
        up = ResourcePriceUpdater(base_ts, initial_price=2.0)
        assert all(v == 2.0 for v in up.prices.values())
        up.prices["r0"] = 99.0
        up.reset()
        assert up.prices["r0"] == 2.0

    def test_rejects_negative_initial(self, base_ts):
        with pytest.raises(ValueError):
            ResourcePriceUpdater(base_ts, initial_price=-1.0)

    def test_congested_classification(self, base_ts):
        up = ResourcePriceUpdater(base_ts)
        loads = {r: 0.5 for r in base_ts.resources}
        loads["r3"] = 1.2
        assert up.congested(loads) == ("r3",)

    def test_update_applies_eq8(self, base_ts):
        up = ResourcePriceUpdater(base_ts, initial_price=1.0)
        lat = {n: 5.0 for n in base_ts.subtask_names}
        policy = FixedStepSize(1.0)
        new = up.update(lat, policy)
        for rname in base_ts.resources:
            load = base_ts.resource_load(rname, lat)
            expected = max(0.0, 1.0 - 1.0 * (1.0 - load))
            assert new[rname] == pytest.approx(expected)


class TestPathPriceUpdater:
    def test_one_price_per_path(self, base_ts):
        t2 = base_ts.task("T2")
        up = PathPriceUpdater(t2)
        assert len(up.prices) == len(t2.graph.paths)

    def test_congested_paths(self, base_ts):
        t1 = base_ts.task("T1")
        up = PathPriceUpdater(t1)
        # All latencies huge: every path congested.
        lat = {n: 100.0 for n in base_ts.subtask_names}
        assert len(up.congested(lat)) == len(t1.graph.paths)
        # All tiny: none.
        lat = {n: 0.1 for n in base_ts.subtask_names}
        assert up.congested(lat) == ()

    def test_update_applies_eq9(self, base_ts):
        t3 = base_ts.task("T3")
        up = PathPriceUpdater(t3, initial_price=1.0)
        lat = {n: 10.0 for n in base_ts.subtask_names}
        policy = FixedStepSize(2.0)
        new = up.update(lat, policy)
        key = PathKey("T3", 0)
        path_lat = 60.0  # 6-subtask chain at 10ms each
        expected = max(0.0, 1.0 - 2.0 * (1.0 - path_lat / 53.0))
        assert new[key] == pytest.approx(expected)

    def test_reset(self, base_ts):
        up = PathPriceUpdater(base_ts.task("T1"), initial_price=0.0)
        up.prices[PathKey("T1", 0)] = 5.0
        up.reset()
        assert up.prices[PathKey("T1", 0)] == 0.0


class TestDegenerateCriticalTime:
    """Regression: Eq. 9's gradient divides by ``C_i``.  A zero critical
    time used to crash with ZeroDivisionError deep in the update; an
    infinite one silently froze the gradient at a constant −γ.  Both are
    now rejected up front, at the update and at updater construction."""

    @pytest.mark.parametrize("bad", [0.0, math.inf, -math.inf, math.nan])
    def test_update_rejects_bad_critical_time(self, bad):
        with pytest.raises(OptimizationError, match="critical time"):
            update_path_price(price=1.0, gamma=1.0,
                              path_latency=10.0, critical_time=bad)

    @pytest.mark.parametrize("bad", [0.0, math.inf])
    def test_updater_rejects_bad_task(self, base_ts, bad):
        task = base_ts.task("T1")
        # Task's own constructor validates, so corrupt the attribute the
        # way a buggy runtime mutation would.
        task.critical_time = bad
        with pytest.raises(OptimizationError, match="T1"):
            PathPriceUpdater(task)

    def test_update_method_guarded_after_mutation(self, base_ts):
        task = base_ts.task("T2")
        up = PathPriceUpdater(task)
        task.critical_time = 0.0
        lat = {n: 1.0 for n in base_ts.subtask_names}
        with pytest.raises(OptimizationError):
            up.update(lat, FixedStepSize(1.0))
