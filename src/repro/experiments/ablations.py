"""Ablation experiments for the design choices DESIGN.md calls out.

Not in the paper — these probe the reproduction's sensitivity to the knobs
the paper leaves implicit:

* :func:`ablate_utility_variant` — *sum* vs *path-weighted* aggregation
  (Section 3.2 claims both work; Section 5.2 reports "results were not
  different in terms of convergence properties").
* :func:`ablate_max_gamma` — the adaptive heuristic's growth cap (our
  stability deviation, see :class:`~repro.core.stepsize.AdaptiveStepSize`).
* :func:`ablate_gamma_ratio` — the γ_p/γ_r ratio, which steers the
  divergence ray on unschedulable workloads (the Figure 7 split between
  path- and resource-constraint violation).
* :func:`ablate_baselines` — LLA vs the centralized oracle and the
  deadline-slicing heuristics on the base and random workloads.
* :func:`ablate_message_loss` — distributed-runtime robustness to control
  message loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.baselines import (
    bst_slicing,
    evaluate_assignment,
    even_slicing,
    proportional_slicing,
    solve_centralized,
)
from repro.core.optimizer import LLAConfig, LLAOptimizer
from repro.core.stepsize import AdaptiveStepSize, FixedStepSize
from repro.distributed import DistributedConfig, DistributedLLARuntime
from repro.harness import Check, ExperimentSpec, Param, register
from repro.workloads.paper import base_workload, unschedulable_workload

__all__ = [
    "VariantOutcome",
    "AblationsResult",
    "run_ablations",
    "ablate_utility_variant",
    "ablate_max_gamma",
    "ablate_gamma_ratio",
    "ablate_baselines",
    "ablate_message_loss",
    "ablate_share_exponent",
    "ablate_correction_percentile",
    "SPEC",
]


@dataclass
class VariantOutcome:
    """One configuration's outcome in an ablation sweep."""

    label: str
    utility: float
    converged: bool
    feasible: bool
    iterations: int
    extra: Dict[str, float]


def ablate_utility_variant(max_iterations: int = 2000) -> List[VariantOutcome]:
    """Sum vs path-weighted utility on the base workload.

    Both variants use an adaptive cap of 4: the default cap of 8 resonates
    with the sum variant's price dynamics on this topology (see
    :func:`ablate_max_gamma` for the cap sweep on the default variant).
    """
    outcomes = []
    for variant in ("sum", "path-weighted"):
        taskset = base_workload(variant=variant)
        policy = AdaptiveStepSize(initial_gamma=1.0, max_gamma=4.0)
        result = LLAOptimizer(
            taskset,
            LLAConfig(step_policy=policy, max_iterations=max_iterations),
        ).run()
        margins = [
            1.0 - task.critical_path(result.latencies)[1] / task.critical_time
            for task in taskset.tasks
        ]
        outcomes.append(VariantOutcome(
            label=variant,
            utility=result.utility,
            converged=result.converged,
            feasible=taskset.is_feasible(result.latencies, tol=1e-2),
            iterations=result.iterations,
            extra={"max_crit_path_margin": max(margins),
                   "min_crit_path_margin": min(margins)},
        ))
    return outcomes


def ablate_max_gamma(caps: Sequence[float] = (2.0, 4.0, 8.0, 16.0, 1e6),
                     max_iterations: int = 1500) -> List[VariantOutcome]:
    """Adaptive-γ growth cap on the (saturated) base workload."""
    outcomes = []
    for cap in caps:
        taskset = base_workload()
        policy = AdaptiveStepSize(initial_gamma=1.0, max_gamma=cap)
        result = LLAOptimizer(
            taskset,
            LLAConfig(step_policy=policy, max_iterations=max_iterations,
                      stop_on_convergence=False),
        ).run()
        tail = np.asarray(result.utility_trace()[-100:])
        outcomes.append(VariantOutcome(
            label=f"max_gamma={cap:g}",
            utility=result.utility,
            converged=taskset.is_feasible(result.latencies, tol=1e-2),
            feasible=taskset.is_feasible(result.latencies, tol=1e-2),
            iterations=result.iterations,
            extra={"tail_oscillation": float(tail.max() - tail.min())},
        ))
    return outcomes


def ablate_gamma_ratio(divisors: Sequence[float] = (1.0, 50.0, 500.0),
                       iterations: int = 300) -> List[VariantOutcome]:
    """γ_p/γ_r ratio on the unschedulable workload: steering the ray.

    With equal step sizes the violation concentrates in the resource
    constraints; shrinking γ_p moves it into the path constraints — toward
    the paper's reported 1.75–2.41× critical-path overruns.
    """
    outcomes = []
    for divisor in divisors:
        taskset = unschedulable_workload()
        result = LLAOptimizer(
            taskset,
            LLAConfig(
                step_policy=FixedStepSize(1.0, path_gamma=1.0 / divisor),
                max_iterations=iterations,
                stop_on_convergence=False,
                max_latency_factor=3.0,
            ),
        ).run()
        ratios = [
            task.critical_path(result.latencies)[1] / task.critical_time
            for task in taskset.tasks
        ]
        loads = taskset.resource_loads(result.latencies)
        outcomes.append(VariantOutcome(
            label=f"gamma_p=gamma_r/{divisor:g}",
            utility=result.utility,
            converged=False,
            feasible=taskset.is_feasible(result.latencies, tol=1e-2),
            iterations=result.iterations,
            extra={
                "max_crit_path_ratio": max(ratios),
                "max_load": max(loads.values()),
            },
        ))
    return outcomes


def ablate_baselines(max_iterations: int = 1500) -> Dict[str, object]:
    """LLA vs the centralized oracle and deadline-slicing heuristics."""
    taskset = base_workload()
    lla = LLAOptimizer(taskset, LLAConfig(max_iterations=max_iterations)).run()
    scores = {
        "lla": evaluate_assignment(taskset, lla.latencies),
        "centralized": evaluate_assignment(
            taskset, solve_centralized(taskset).latencies
        ),
        "even-slicing": evaluate_assignment(taskset, even_slicing(taskset)),
        "proportional-slicing": evaluate_assignment(
            taskset, proportional_slicing(taskset)
        ),
        "bst-slicing": evaluate_assignment(taskset, bst_slicing(taskset)),
    }
    return scores


def ablate_message_loss(
    loss_rates: Sequence[float] = (0.0, 0.05, 0.2),
    rounds: int = 1500,
    seed: int = 42,
) -> List[VariantOutcome]:
    """Distributed runtime under control-plane message loss."""
    outcomes = []
    for loss in loss_rates:
        taskset = base_workload()
        runtime = DistributedLLARuntime(
            taskset,
            DistributedConfig(
                rounds=rounds, loss_probability=loss, seed=seed
            ),
        )
        result = runtime.run()
        outcomes.append(VariantOutcome(
            label=f"loss={loss:.0%}",
            utility=result.utility,
            converged=result.converged,
            feasible=taskset.is_feasible(result.latencies, tol=1e-2),
            iterations=result.iterations,
            extra={
                "messages_sent": float(runtime.bus.sent),
                "messages_dropped": float(runtime.bus.dropped),
            },
        ))
    return outcomes


@dataclass
class AblationsResult:
    """All design-choice sweeps, bundled for the harness."""

    utility_variants: List[VariantOutcome]
    gamma_caps: List[VariantOutcome]
    gamma_rays: List[VariantOutcome]
    baselines: Dict[str, object]
    message_loss: List[VariantOutcome]
    share_exponents: List[VariantOutcome]
    correction_percentiles: List[VariantOutcome]


def run_ablations(
    variant_iterations: int = 3000,
    cap_iterations: int = 1500,
    ray_iterations: int = 300,
    baseline_iterations: int = 1500,
    loss_rounds: int = 1500,
    exponent_iterations: int = 3000,
    percentile_epochs: int = 12,
    percentile_window: float = 1500.0,
    seed: int = 42,
) -> AblationsResult:
    """Run every ablation sweep with one budget knob per sweep."""
    return AblationsResult(
        utility_variants=ablate_utility_variant(variant_iterations),
        gamma_caps=ablate_max_gamma(max_iterations=cap_iterations),
        gamma_rays=ablate_gamma_ratio(iterations=ray_iterations),
        baselines=ablate_baselines(max_iterations=baseline_iterations),
        message_loss=ablate_message_loss(rounds=loss_rounds, seed=seed),
        share_exponents=ablate_share_exponent(
            max_iterations=exponent_iterations
        ),
        correction_percentiles=ablate_correction_percentile(
            epochs=percentile_epochs, window=percentile_window
        ),
    )


def main() -> None:
    print("== utility variant ==")
    for o in ablate_utility_variant():
        print(f"  {o.label:14s} utility={o.utility:9.2f} converged={o.converged} "
              f"feasible={o.feasible} extra={o.extra}")
    print("== adaptive max_gamma ==")
    for o in ablate_max_gamma():
        print(f"  {o.label:14s} utility={o.utility:9.2f} feasible={o.feasible} "
              f"oscillation={o.extra['tail_oscillation']:.3f}")
    print("== gamma ratio (unschedulable ray) ==")
    for o in ablate_gamma_ratio():
        print(f"  {o.label:22s} max_crit_ratio={o.extra['max_crit_path_ratio']:.2f} "
              f"max_load={o.extra['max_load']:.2f}")
    print("== baselines ==")
    for name, score in ablate_baselines().items():
        print(f"  {name:22s} utility={score.utility:9.2f} feasible={score.feasible} "
              f"max_load={score.max_load:.3f}")
    print("== message loss ==")
    for o in ablate_message_loss():
        print(f"  {o.label:10s} utility={o.utility:9.2f} feasible={o.feasible} "
              f"dropped={o.extra['messages_dropped']:.0f}/{o.extra['messages_sent']:.0f}")
    print("== share exponent ==")
    for o in ablate_share_exponent():
        print(f"  {o.label:12s} converged={o.converged} feasible={o.feasible} "
              f"max_load={o.extra['max_load']:.3f}")
    print("== correction percentile ==")
    for o in ablate_correction_percentile():
        print(f"  {o.label:16s} fast={o.extra['fast_share']:.3f} "
              f"slow={o.extra['slow_share']:.3f} "
              f"error={o.extra['fast_error']:+.1f}")




def ablate_share_exponent(
    alphas: Sequence[float] = (0.5, 1.0, 2.0),
    max_iterations: int = 3000,
) -> List[VariantOutcome]:
    """Share-model curvature: ``share = cost / lat^alpha``.

    The paper's Eq. 10 is the ``alpha = 1`` case; LLA only requires strict
    convexity, so the dual iteration must converge for any positive
    exponent (``alpha > 1``: small latencies disproportionately expensive;
    ``alpha < 1``: cheap).  Exercises the power-law closed form end to end.
    """
    from repro.model.share import PowerLawShare
    from repro.model.task import Subtask, Task, TaskSet
    from repro.model.graph import SubtaskGraph
    from repro.model.resources import Resource
    from repro.model.utility import LinearUtility
    from repro.model.events import PeriodicEvent

    outcomes = []
    for alpha in alphas:
        resources = [Resource(name=f"r{i}", availability=1.0, lag=1.0)
                     for i in range(3)]
        # Sub-linear exponents make small latencies expensive in share:
        # the same deadlines that are comfortable at alpha = 1 are
        # infeasible at alpha = 0.5, so deadlines scale with 1/alpha^2
        # (share(lat) = cost/lat^alpha matches the alpha = 1 share at
        # latency lat^(1/alpha), i.e. quadratically longer for 0.5).
        deadline_scale = max(1.0, 1.0 / (alpha * alpha))
        tasks = []
        for t in range(2):
            names = [f"a{alpha}_{t}_{i}" for i in range(3)]
            subtasks = [
                Subtask(
                    names[i], f"r{i}", exec_time=2.0 + t,
                    share_function=PowerLawShare(cost=3.0 + t, alpha=alpha),
                )
                for i in range(3)
            ]
            critical = (60.0 + 30.0 * t) * deadline_scale
            tasks.append(Task(
                name=f"t{alpha}_{t}",
                subtasks=subtasks,
                graph=SubtaskGraph.chain(names),
                critical_time=critical,
                utility=LinearUtility(critical, k=2.0),
                trigger=PeriodicEvent(100.0),
            ))
        taskset = TaskSet(tasks, resources)
        policy = AdaptiveStepSize(initial_gamma=1.0, max_gamma=4.0)
        result = LLAOptimizer(
            taskset,
            LLAConfig(step_policy=policy, max_iterations=max_iterations),
        ).run()
        loads = taskset.resource_loads(result.latencies)
        outcomes.append(VariantOutcome(
            label=f"alpha={alpha:g}",
            utility=result.utility,
            converged=result.converged,
            feasible=taskset.is_feasible(result.latencies, tol=1e-2),
            iterations=result.iterations,
            extra={"max_load": max(loads.values())},
        ))
    return outcomes


def ablate_correction_percentile(
    percentiles: Sequence[float] = (50.0, 90.0, 99.0),
    epochs: int = 12,
    window: float = 1500.0,
) -> List[VariantOutcome]:
    """Section 6.3's percentile knob: which percentile of the observed
    latencies feeds the error estimate.

    Lower percentiles see smaller "observed" latencies, so the correction
    is more aggressive (more negative error → less share believed
    necessary); high percentiles are conservative.  The fast tasks bottom
    out at their rate share regardless (the floor is workload arithmetic,
    not a model question) — what moves is how much margin the corrected
    model leaves above the floor, visible in the slow tasks' share.
    """
    from repro.core.error_correction import ErrorCorrector
    from repro.sim.closedloop import ClosedLoopRuntime
    from repro.workloads.paper import prototype_workload

    outcomes = []
    for percentile in percentiles:
        taskset = prototype_workload()
        runtime = ClosedLoopRuntime(
            taskset,
            window=window,
            seed=13,
            optimizer_config=LLAConfig(max_iterations=3000),
            corrector=ErrorCorrector(taskset, percentile=percentile),
        )
        runtime.enable_correction()
        runtime.run_epochs(epochs)
        final = runtime.history[-1]
        outcomes.append(VariantOutcome(
            label=f"percentile={percentile:g}",
            utility=final.utility,
            converged=True,
            feasible=True,
            iterations=epochs,
            extra={
                "fast_share": final.shares["fast1_s0"],
                "slow_share": final.shares["slow1_s0"],
                "fast_error": final.smoothed_errors["fast1_s0"],
            },
        ))
    return outcomes


def _check_variants_feasible(result: AblationsResult):
    by_label = {o.label: o for o in result.utility_variants}
    passed = all(by_label[label].feasible
                 for label in ("sum", "path-weighted"))
    return passed, {f"utility.{o.label}": o.utility
                    for o in result.utility_variants}


def _check_cap_stability(result: AblationsResult):
    by_label = {o.label: o for o in result.gamma_caps}
    capped = by_label["max_gamma=8"]
    unbounded = by_label["max_gamma=1e+06"]
    passed = (
        capped.feasible
        and capped.extra["tail_oscillation"] < 0.1
        and unbounded.extra["tail_oscillation"] > 10.0
    )
    return passed, {
        "oscillation.cap8": capped.extra["tail_oscillation"],
        "oscillation.unbounded": unbounded.extra["tail_oscillation"],
    }


def _check_ray_steerable(result: AblationsResult):
    ratios = [o.extra["max_crit_path_ratio"] for o in result.gamma_rays]
    loads = [o.extra["max_load"] for o in result.gamma_rays]
    passed = (
        ratios == sorted(ratios)
        and loads == sorted(loads, reverse=True)
        and ratios[-1] > 1.7
    )
    return passed, {"smallest_gamma_p_crit_ratio": ratios[-1],
                    "equal_gamma_max_load": loads[0]}


def _check_lla_vs_baselines(result: AblationsResult):
    scores = result.baselines
    lla = scores["lla"].utility
    oracle = scores["centralized"].utility
    slicing = ("even-slicing", "proportional-slicing", "bst-slicing")
    passed = (
        abs(lla - oracle) <= 0.01 * max(abs(oracle), 1.0) + 0.5
        and all(scores[name].utility < lla for name in slicing)
        and all(not scores[name].feasible for name in slicing)
    )
    return passed, {"lla_utility": lla, "oracle_utility": oracle}


def _check_loss_robust(result: AblationsResult):
    utilities = [o.utility for o in result.message_loss]
    passed = (
        all(o.feasible for o in result.message_loss)
        and max(utilities) - min(utilities) < 1.0
    )
    return passed, {"utility_spread": max(utilities) - min(utilities)}


def _check_exponents_converge(result: AblationsResult):
    passed = all(
        o.converged and o.feasible
        and abs(o.extra["max_load"] - 1.0) <= 0.01
        for o in result.share_exponents
    )
    return passed, {f"max_load.{o.label}": o.extra["max_load"]
                    for o in result.share_exponents}


def _check_percentile_ordering(result: AblationsResult):
    from repro.workloads.paper import PROTOTYPE_FAST_MIN_SHARE

    outcomes = result.correction_percentiles
    errors = [o.extra["fast_error"] for o in outcomes]
    passed = (
        errors[0] <= errors[-1] + 1e-6
        and all(o.extra["fast_share"] >= PROTOTYPE_FAST_MIN_SHARE - 1e-6
                for o in outcomes)
    )
    return passed, {f"fast_error.{o.label}": o.extra["fast_error"]
                    for o in outcomes}


def _outcomes_payload(outcomes: List[VariantOutcome]):
    return [
        {
            "label": o.label,
            "utility": o.utility,
            "converged": o.converged,
            "feasible": o.feasible,
            "iterations": o.iterations,
            "extra": dict(o.extra),
        }
        for o in outcomes
    ]


def _payload(result: AblationsResult):
    return {
        "utility_variants": _outcomes_payload(result.utility_variants),
        "gamma_caps": _outcomes_payload(result.gamma_caps),
        "gamma_rays": _outcomes_payload(result.gamma_rays),
        "baselines": {
            name: {"utility": score.utility, "feasible": score.feasible,
                   "max_load": score.max_load}
            for name, score in result.baselines.items()
        },
        "message_loss": _outcomes_payload(result.message_loss),
        "share_exponents": _outcomes_payload(result.share_exponents),
        "correction_percentiles": _outcomes_payload(
            result.correction_percentiles
        ),
    }


SPEC = register(ExperimentSpec(
    name="ablations",
    description="Design-choice sweeps: utility variant, step-size cap, "
                "divergence ray, baselines, message loss, share "
                "exponent, correction percentile",
    source="DESIGN.md (ours; probes knobs the paper leaves implicit)",
    runner=run_ablations,
    params=(
        Param("variant_iterations", int, 3000,
              "budget for the sum/path-weighted sweep"),
        Param("cap_iterations", int, 1500,
              "budget for the adaptive-cap sweep"),
        Param("ray_iterations", int, 300,
              "budget for the gamma-ratio ray sweep"),
        Param("baseline_iterations", int, 1500,
              "budget for the LLA-vs-baselines comparison"),
        Param("loss_rounds", int, 1500,
              "distributed rounds for the message-loss sweep"),
        Param("exponent_iterations", int, 3000,
              "budget for the share-exponent sweep"),
        Param("percentile_epochs", int, 12,
              "closed-loop epochs for the correction-percentile sweep"),
        Param("percentile_window", float, 1500.0,
              "sampling window (ms) for the correction-percentile sweep"),
        Param("seed", int, 42, "seed for the message-loss runtime"),
    ),
    checks=(
        Check("both_utility_variants_feasible",
              "sum and path-weighted aggregation both converge feasibly "
              "(paper 5.2: 'results were not different'); the sum "
              "variant's feasibility settles late, so full budget only",
              _check_variants_feasible, quick=False),
        Check("adaptive_cap_stabilizes",
              "a capped adaptive gamma (8) is stable at saturation while "
              "unbounded doubling oscillates", _check_cap_stability,
              quick=False),
        Check("divergence_ray_steerable",
              "shrinking gamma_p moves the infeasible violation from the "
              "resource family into the path family (toward the paper's "
              "1.75-2.41x band)", _check_ray_steerable),
        Check("lla_matches_oracle_beats_slicing",
              "LLA matches the centralized oracle within 1% and "
              "dominates every capacity-blind slicing heuristic",
              _check_lla_vs_baselines),
        Check("converges_under_message_loss",
              "the distributed runtime converges to the same utility "
              "under 0/5/20% control-message loss", _check_loss_robust,
              quick=False),
        Check("any_convex_share_exponent_converges",
              "LLA converges and saturates capacity for every strictly "
              "convex power-law share exponent (Eq. 10's alpha=1 is not "
              "special)", _check_exponents_converge),
        Check("correction_percentile_ordering",
              "lower observation percentiles correct more aggressively; "
              "the rate-share floor holds at every percentile",
              _check_percentile_ordering),
    ),
    payload=_payload,
    quick_params={
        "variant_iterations": 1200,
        "cap_iterations": 800,
        "ray_iterations": 150,
        "baseline_iterations": 1200,
        "loss_rounds": 800,
        "exponent_iterations": 2000,
        "percentile_epochs": 8,
        "percentile_window": 1000.0,
    },
))


if __name__ == "__main__":
    main()
