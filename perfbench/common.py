"""Shared helpers for the benchmark: quantiles, the host probe, the layer map.

Standard library only, so the orchestrator (``run.py``) can use it without
importing the program under test.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Sequence

#: Default workload seeds (``--seed`` overrides them).
DEFAULT_SEEDS: Dict[str, int] = {
    "cli-paper": 7,
    "service-churn": 7,
}

#: Layer -> (end-to-end metrics it should move, workloads it shows on,
#: metrics where it should stay flat).  Metrics are ``<workload>/<name>``
#: with the JSON names; names not in the JSON line are rows of the
#: human-readable table (README.md).
LAYER_MAP: Dict[str, Dict[str, List[str]]] = {
    "cli": {
        "moves": ["cli-paper/op_p50_ms", "cli-paper/setup_s",
                  "cli-paper/cli_p10_s"],
        "shows_on": ["cli-paper"],
        "flat_on": ["cli-paper/rounds_per_s", "service-churn/op_p50_ms"],
    },
    "model": {
        "moves": ["cli-paper/op_p50_ms", "service-churn/op_p50_ms"],
        "shows_on": ["cli-paper", "service-churn"],
        "flat_on": ["cli-paper/rounds_per_s"],
    },
    "workloads": {
        "moves": ["service-churn/setup_s"],
        "shows_on": ["service-churn"],
        "flat_on": ["all other metrics"],
    },
    "core.structure": {
        "moves": ["service-churn/op_p50_ms",
                  "service-churn/churn_deregister_p50_ms (cache misses)",
                  "service-churn/peak_rss_mb"],
        "shows_on": ["service-churn"],
        "flat_on": ["cli-paper/op_p50_ms"],
    },
    "core.vectorized": {
        "moves": ["service-churn/rounds_per_s", "service-churn/op_p50_ms"],
        "shows_on": ["service-churn"],
        "flat_on": ["cli-paper/op_p50_ms", "cli-paper/rounds_per_s"],
    },
    "core.optimizer": {
        "moves": ["cli-paper/rounds_per_s", "service-churn/rounds_per_s",
                  "service-churn/op_p50_ms (init per rebuild)"],
        "shows_on": ["cli-paper", "service-churn"],
        "flat_on": [],
    },
    "core.convergence": {
        "moves": ["cli-paper/rounds_per_s", "service-churn/rounds_per_s"],
        "shows_on": ["cli-paper", "service-churn"],
        "flat_on": [],
    },
    "analysis.admission": {
        "moves": ["service-churn/op_p50_ms",
                  "service-churn/churn_update_p50_ms"],
        "shows_on": ["service-churn"],
        "flat_on": ["service-churn/churn_deregister_p50_ms",
                    "cli-paper/op_p50_ms"],
    },
    "service.cache": {
        "moves": ["service-churn/op_p50_ms"],
        "shows_on": ["service-churn"],
        "flat_on": ["cli-paper/op_p50_ms"],
    },
    "service.service": {
        "moves": ["service-churn/op_p50_ms", "service-churn/rounds_per_s",
                  "service-churn/peak_rss_mb"],
        "shows_on": ["service-churn"],
        "flat_on": ["cli-paper/op_p50_ms", "cli-paper/rounds_per_s"],
    },
    "service.supervisor": {
        "moves": ["service-churn/rounds_per_s", "service-churn/error_rate",
                  "service-churn/query_p50_us"],
        "shows_on": ["service-churn"],
        "flat_on": [],
    },
    "distributed.checkpoint": {
        "moves": ["service-churn/churn_*_p90_ms",
                  "service-churn/rounds_per_s", "service-churn/peak_rss_mb"],
        "shows_on": ["service-churn"],
        "flat_on": ["cli-paper/op_p50_ms"],
    },
    "host": {
        "moves": [],
        "shows_on": ["cli-paper", "service-churn"],
        "flat_on": [],
    },
}


#: Process yardstick.  The host's speed drifts by 20-50% over minutes
#: (other tenants load the shared cores and memory), and wall times drift
#: with it.  Every timed process (CLI invocation, export, set-up) is
#: therefore preceded by this fixed, program-independent process --
#: interpreter start plus the third-party imports the CLI pays for -- and
#: reported as ``YARD_PROC_REF_S * time / yardstick time``: its wall time
#: at a reference host speed.  In-process timings (solve, churn) are
#: scaled by the run's median yardstick the same way.  See README.md for
#: the measurements behind this.
YARD_PROC_CODE = "import numpy, scipy.optimize, scipy.sparse"
YARD_PROC_REF_S = 0.6

#: In-process yardstick (``worker.Yardstick``), taken right before each
#: in-process timed operation (a churn event, a solve).  Timings are
#: reported as ``YARD_REF_S * time / yardstick`` in the same way.
YARD_REF_S = 0.0015


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default method), ``0 <= q <= 1``."""
    if not values:
        raise ValueError("quantile of an empty sample")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def host_calib_ms(repeats: int = 3) -> float:
    """Median wall time of a fixed pure-Python CPU loop, in ms.

    Taken at the start and the end of every run: it moves only with the
    host (frequency, contention), so drift between runs can be told apart
    from a change in the program.
    """
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        acc = 0
        for i in range(400_000):
            acc = (acc + i * i) % 1_000_003
        samples.append((time.perf_counter() - started) * 1e3)
    return median(samples)
