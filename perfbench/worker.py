"""Benchmark worker: one workload's set-up and timed work, in-process.

``run.py`` starts this file in a fresh interpreter with ``PYTHONPATH=src``
and BLAS/OpenMP pinned to one thread.  Modes:

* ``setup service-churn``: do the workload's set-up, print one ``READY``
  line and exit (``run.py`` times process start to ``READY``);
* ``service``: set up, warm up, then drive the timed churn slice (and, with
  ``--trace 1``, replay a slice traced plus the layer sweep);
* ``cli-solve FILE``: ``LLAOptimizer.run`` on FILE at the CLI's defaults,
  repeated for ``--seconds``: the optimizer's own round rate;
* ``cli-op FILE``: the in-process equivalent of ``repro optimize FILE``,
  untraced and traced, plus the layer sweep (traced cli-paper runs only).

Results go to ``--out`` as JSON.  Only public entry points of the program
are used.  Per-layer times come from :class:`spans.SpanRecorder` spans
around those calls and from wrappers installed on single instances.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from common import median
from spans import SpanRecorder

_now = time.perf_counter

#: Generator seed of every workload's base instance (see make_input).
BASE_SEED = 7
#: service-churn input: ~1.1k subtasks.
SERVICE_INPUT = dict(n_tasks=250, n_resources=400, min_subtasks=3,
                     max_subtasks=6)
#: The CLI's default ``--iterations``.
CLI_ITERATIONS = 1500
#: Round budget of the standalone cold solve in traced service runs (the
#: service's own optimizer config keeps the LLAConfig default of 500).
SOLVE_BUDGET = 5000

#: Churn event kinds, in the order of the churn experiment's script.
KINDS = ("deregister", "register", "update")
#: Events per block of the script (see churn_schedule).
BLOCK = 5
#: Critical-time factor of an update, as in the churn experiment.
UPDATE_FACTOR = 1.1
#: Untimed warm-up blocks; timed blocks per second of ``--seconds``; the
#: fewest timed blocks; blocks replayed by a traced run.
WARMUP_BLOCKS = 1
BLOCKS_PER_SECOND = 1.6
MIN_BLOCKS = 10
TRACED_BLOCKS = 10
#: Ticks an event may take to re-converge.
RECONVERGE_TICKS = 20


def _lla_config(**kwargs: Any) -> Any:
    """An LLAConfig on the batched engine.  ``backend`` is set only while
    the field exists (a one-engine program has no choice to make)."""
    from repro.core.optimizer import LLAConfig
    if "backend" in LLAConfig.__dataclass_fields__:
        kwargs.setdefault("backend", "vectorized")
    return LLAConfig(**kwargs)


def _generate(spec: Dict[str, Any], seed: int) -> Any:
    from repro.workloads.generator import GeneratorConfig, random_workload
    return random_workload(GeneratorConfig(**spec), seed)


def make_input(spec: Dict[str, Any], seed: int) -> Any:
    """The workload's input for ``seed``: the ``BASE_SEED`` instance of
    ``spec`` with its task and resource names permuted by ``seed``.

    Every seed gives the same problem up to renaming, so the work (rounds
    to convergence, problem size) stays put from seed to seed while the
    program still sees different inputs: the canonical name-sorted
    compile order, and with it every array layout, changes.  Fresh
    ``random_workload`` seeds would not do: rounds to convergence range
    over 2x between them (979 to 1997 at 10k subtasks).
    """
    from repro.model.serialize import taskset_from_dict, taskset_to_dict
    data = taskset_to_dict(_generate(spec, BASE_SEED))
    rng = random.Random(seed)

    def permutation(names: List[str]) -> Dict[str, str]:
        shuffled = list(names)
        rng.shuffle(shuffled)
        return dict(zip(names, shuffled))

    tasks = permutation([t["name"] for t in data["tasks"]])
    resources = permutation([r["name"] for r in data["resources"]])
    for resource in data["resources"]:
        resource["name"] = resources[resource["name"]]
    for task in data["tasks"]:
        old, new = task["name"], tasks[task["name"]]

        def rename(sub: str) -> str:
            return new + sub[len(old):]

        task["name"] = new
        for sub in task["subtasks"]:
            sub["name"] = rename(sub["name"])
            sub["resource"] = resources[sub["resource"]]
        task["edges"] = [[rename(a), rename(b)] for a, b in task["edges"]]
    return taskset_from_dict(data)


def _feasibility_tol() -> float:
    from repro.core.optimizer import LLAConfig
    return LLAConfig().feasibility_tol


class _Item:
    """A small record for the yardstick's object workload."""

    def __init__(self, name: str, value: float, rank: int) -> None:
        self.name = name
        self.value = value
        self.rank = rank


class Yardstick:
    """A fixed, program-independent probe of the host's speed, run
    in-process right before each timed operation.

    The host's speed drifts by 20-50% within minutes through other
    tenants' load, and in-process timings drift with it.  Each probe
    times three fixed pieces of work shaped like the service's own, none
    of it the program's code: numpy element-wise ops, gathers and
    bincounts on arrays of 1,100 elements (the kernel), building, sorting
    and formatting 3,000 small Python objects (the facade and the
    bookkeeping), and a JSON round trip of a task-set-like document (the
    snapshots).  It returns their geometric mean.  A timing divided by
    the probe just before it follows the program, not the host
    (README.md has the measurements).  A program change cannot move the
    probe.
    """

    def __init__(self) -> None:
        import numpy as np
        gen = np.random.default_rng(BASE_SEED)
        self.a = gen.random(1100)
        self.b = gen.random(1100)
        self.groups = gen.integers(0, 400, 1100)
        self.perm = gen.permutation(1100)
        self.doc = {"tasks": [
            {"name": f"t{i}", "subtasks": [
                {"name": f"t{i}.{j}", "latency": i * 0.1 + j}
                for j in range(4)]}
            for i in range(150)]}
        self.np = np
        #: Wall time spent in probes, to keep out of throughput figures.
        self.spent = 0.0

    def __call__(self) -> float:
        np = self.np
        started = _now()
        x = self.a.copy()
        for _ in range(60):
            y = np.maximum(x * self.b + 0.1, 0.05)
            z = np.bincount(self.groups, weights=y, minlength=400)
            x = np.clip(y[self.perm] + z[self.groups] * 1e-3, 0.0, 10.0)
            np.where(x > 0.5, x, 0.0).sum()
        kernel = _now()
        items = {}
        for i in range(3000):
            item = _Item(f"n{i}", i * 0.5, -i)
            items[item.name] = item
        ordered = sorted(items.values(), key=lambda item: item.rank)
        [f"{item.name}:{item.value:.2f}" for item in ordered[:500]]
        objects = _now()
        json.loads(json.dumps(self.doc))
        ended = _now()
        self.spent += ended - started
        return ((kernel - started) * (objects - kernel)
                * (ended - objects)) ** (1.0 / 3.0)


def _timed(fn: Callable[[], Any], repeats: int) -> Tuple[List[float], Any]:
    samples, value = [], None
    for _ in range(repeats):
        started = _now()
        value = fn()
        samples.append(_now() - started)
    return samples, value


# -- solve ---------------------------------------------------------------------


def solve_once(taskset: Any, cfg: Any, rec: Optional[SpanRecorder] = None,
               telemetry: Any = None) -> Dict[str, Any]:
    """One cold LLAOptimizer construction + run to convergence, checked.

    With ``rec`` the optimizer's public ``step``/``run`` and its
    detector's ``observe``/``converged`` are wrapped on the instances.
    """
    from repro.core.optimizer import LLAOptimizer
    from repro.core.vectorized import observe_assignment

    started = _now()
    if rec is None:
        opt = LLAOptimizer(taskset, cfg, telemetry=telemetry)
    else:
        with rec.span("core.optimizer.init"):
            opt = LLAOptimizer(taskset, cfg, telemetry=telemetry)
        rec.wrap(opt.detector, "observe", "core.convergence.observe")
        rec.wrap(opt.detector, "converged", "core.convergence.converged")
        rec.wrap(opt, "step", "core.optimizer.step")
        rec.wrap(opt, "run", "core.optimizer.run")
    init_s = _now() - started
    result = opt.run()
    wall = _now() - started
    structure = opt.structure
    if structure is not None:
        feasible = observe_assignment(
            structure, result.latencies, tol=_feasibility_tol(),
        ).feasible()
    else:  # scalar path (the CLI default): the model's own verdict
        feasible = taskset.is_feasible(result.latencies,
                                       tol=_feasibility_tol())
    return {
        "wall_s": wall, "init_s": init_s, "run_s": wall - init_s,
        "rounds": result.iterations, "utility": result.utility,
        "converged": bool(result.converged), "feasible": bool(feasible),
        "ok": bool(result.converged and feasible),
        "structure": structure,
    }


def optimizer_metrics(rec: SpanRecorder, telemetry: Any, rounds: int,
                      out: Dict[str, float]) -> None:
    """core.optimizer / core.convergence / kernel-phase metrics from one
    traced, telemetry-enabled solve."""
    from repro.core.phases import PHASES
    steps = rec.durations("core.optimizer.step")
    kernel_s = 0.0
    snapshot = telemetry.registry.snapshot()
    for phase in PHASES:
        timer = snapshot.get(f"lla.phase.{phase}_seconds", {})
        total = float(timer.get("sum", 0.0))
        count = int(timer.get("count", 0))
        kernel_s += total
        out[f"core.vectorized.phase.{phase}_ms"] = \
            1e3 * total / max(count, 1)
    out["core.optimizer.init_s"] = rec.durations("core.optimizer.init")[-1]
    out["core.optimizer.step_ms"] = 1e3 * median(steps)
    out["core.optimizer.kernel_ms"] = 1e3 * kernel_s / max(rounds, 1)
    out["core.optimizer.facade_share"] = 1.0 - (
        out["core.optimizer.kernel_ms"] / out["core.optimizer.step_ms"])
    out["core.convergence.observe_ms"] = \
        1e3 * median(rec.durations("core.convergence.observe"))
    out["core.convergence.converged_ms"] = \
        1e3 * median(rec.durations("core.convergence.converged"))


def unattributed(rec: SpanRecorder, start: float, wall: float) -> float:
    """Share of a phase's wall time in no program-layer span: the
    benchmark's own ``bench.*`` self time plus time outside every span."""
    own = sum(t for name, t in rec.self_times().items()
              if name.startswith("bench."))
    outside = wall - rec.covered(start, start + wall)
    return max(0.0, own + outside) / wall


# -- layer sweep -----------------------------------------------------------------


def sweep(taskset: Any, rec: SpanRecorder, out: Dict[str, float],
          workdir: str, generate: Callable[[], Any], structure: Any,
          service_probe: bool) -> None:
    """Time each layer's public entry point on this workload's input."""
    import numpy as np

    from repro.analysis.admission import certify_infeasible
    from repro.core.structure import compile_structure
    from repro.core.vectorized import VectorizedEngine
    from repro.model.fingerprint import taskset_fingerprint
    from repro.model.serialize import taskset_from_json, taskset_to_json

    rec.request = "sweep"
    rec.phase = "sweep"

    def spanned(name: str, fn: Callable[[], Any]) -> Callable[[], Any]:
        def call() -> Any:
            with rec.span(name):
                return fn()
        return call

    samples, _ = _timed(spanned("workloads.generate", generate), 3)
    out["workloads.generate_s"] = median(samples)
    text = taskset_to_json(taskset)
    samples, _ = _timed(spanned("model.load_json",
                                lambda: taskset_from_json(text)), 3)
    out["model.load_json_ms"] = 1e3 * median(samples)
    samples, _ = _timed(spanned(
        "model.fingerprint", lambda: taskset_fingerprint(taskset)), 3)
    out["model.fingerprint_ms"] = 1e3 * median(samples)
    samples, _ = _timed(spanned(
        "core.structure.compile", lambda: compile_structure(taskset)), 3)
    out["core.structure.compile_s"] = median(samples)
    if structure is None:
        structure = compile_structure(taskset)
    out["core.structure.bytes"] = float(sum(
        v.nbytes for v in vars(structure).values()
        if isinstance(v, np.ndarray)))
    pairs = np.unique(np.stack([
        np.asarray(structure.path_ids_flat),
        np.asarray(structure.sub_resource)[structure.path_sub_flat],
    ]), axis=1)
    out["core.structure.nnz"] = float(pairs.shape[1])
    samples, _ = _timed(spanned(
        "analysis.admission.certify",
        lambda: certify_infeasible(taskset)), 3)
    out["analysis.admission.certify_ms"] = 1e3 * median(samples)

    # Raw kernel rate: VectorizedEngine.iterate on this structure, for
    # about half a second after a short warm-up.
    cfg = _lla_config()
    engine = VectorizedEngine(taskset, cfg, cfg.build_step_policy(taskset),
                              structure=structure)
    probe, _ = _timed(lambda: engine.iterate(5), 1)
    n = max(20, int(0.5 / max(probe[0] / 5, 1e-6)))
    with rec.span("core.vectorized.iterate"):
        started = _now()
        engine.iterate(n)
        out["core.vectorized.iter_per_s"] = n / (_now() - started)

    if service_probe:
        # Service, cache and checkpoint layers on this input's tasks.
        tasks = sorted(taskset.tasks, key=lambda t: t.name)
        resources = [r for _, r in sorted(taskset.resources.items())]
        svc = build_service(resources, tasks,
                            os.path.join(workdir, "probe-snap"))
        driver = ChurnDriver(svc, churn_schedule(tasks, 6 * BLOCK), rec)
        driver.run(6 * BLOCK)
        out.update(service_metrics(svc, rec, driver))


# -- service -------------------------------------------------------------------


def build_service(resources: List[Any], tasks: List[Any],
                  snapshot_dir: str) -> Any:
    """A SupervisedService at the HardeningConfig/ServiceConfig defaults
    with file-backed snapshots; every task registered as one batch and
    ticked to convergence."""
    from repro.service.churnqueue import ChurnEvent
    from repro.service.supervisor import HardeningConfig, SupervisedService

    svc = SupervisedService(resources,
                            config=HardeningConfig(snapshot_dir=snapshot_dir))
    decisions = svc.service.apply_batch([
        ChurnEvent(kind="register", key=task.name, task=task)
        for task in tasks
    ])
    if not all(d.admitted for d in decisions):
        raise SystemExit("initial batch: a task was not admitted")
    for _ in range(500):
        svc.tick()
        if svc.service.converged:
            return svc
    raise SystemExit("initial batch did not converge within 500 ticks")


def churn_schedule(tasks: List[Any], n_events: int) -> List[Tuple[str, str]]:
    """Churn as ``(kind, task)`` pairs, in blocks of ``BLOCK`` events.

    Block 0 is the script of the repository's churn experiment
    (``repro.experiments.churn.run_churn`` at its defaults): two cycles of
    "deregister a task, re-register it" on ``tasks[0]`` and ``tasks[5]``,
    then a critical-time update of ``tasks[1]`` (x ``UPDATE_FACTOR``).
    Block ``b`` runs the same script on the task list rotated by ``10 b``.
    Tasks are picked by declaration position, so every seed's renamed
    input (see make_input) gets the same churn up to renaming.
    """
    names = [t.name for t in tasks]
    events: List[Tuple[str, str]] = []
    block = 0
    while len(events) < n_events:
        def pick(offset: int) -> str:
            return names[(10 * block + offset) % len(names)]
        for victim in (pick(0), pick(5)):
            events += [("deregister", victim), ("register", victim)]
        events.append(("update", pick(1)))
        block += 1
    return events[:n_events]


def service_slice(seconds: float) -> int:
    """Timed events for ``--seconds``: a fixed number of whole blocks, so
    every run times the same events whatever the host's speed."""
    return BLOCK * max(MIN_BLOCKS, int(round(seconds * BLOCKS_PER_SECOND)))


class ChurnDriver:
    """A single client in a closed loop, one churn event per epoch.

    For each event: ``submit()`` it, ``tick()`` until a later epoch
    reports converged, then ``query()`` every live task once and check
    that its view meets its critical time (the churn experiment's
    per-epoch feasibility check, through the service's read path).  An
    event's latency runs from ``submit()`` to the end of that tick.
    """

    def __init__(self, svc: Any, events: List[Tuple[str, str]],
                 rec: Optional[SpanRecorder] = None,
                 yardstick: Optional[Yardstick] = None) -> None:
        self.svc = svc
        self.events = events
        self.yardstick = yardstick
        self.held: Dict[str, Any] = {}
        self.next_event = 0
        self.latencies: Dict[str, List[float]] = {k: [] for k in KINDS}
        #: The yardstick taken right before each latency sample.
        self.yards: Dict[str, List[float]] = {k: [] for k in KINDS}
        #: (wall time, yardstick) of each event, submit to last query.
        self.busy: List[Tuple[float, float]] = []
        self.queries: List[float] = []
        self.failures: List[str] = []
        self.attempted = 0
        self.degraded_ticks = 0
        self.ticks = 0
        self.iterations = 0
        self.exact: Dict[str, Any] = {}
        self.rec: Optional[SpanRecorder] = None
        if rec is not None:
            self.trace(rec)

    def trace(self, rec: SpanRecorder) -> None:
        """Record spans from now on, wrapping the public methods of this
        service's inner AllocationService, cache and checkpoint store."""
        svc = self.svc
        self.rec = rec
        rec.wrap(svc.service, "apply_batch", "service.service.apply_batch")
        rec.wrap(svc.service, "step", "service.service.step")
        rec.wrap(svc.service, "snapshot", "service.service.snapshot")
        rec.wrap(svc.service.cache, "get", "service.cache.get")
        rec.wrap(svc.snapshots, "save", "distributed.checkpoint.save")

    def _span(self, name: str, request: str) -> Any:
        if self.rec is None:
            from contextlib import nullcontext
            return nullcontext()
        return self.rec.span(name, request=request)

    def _submit(self, kind: str, name: str, request: str) -> bool:
        svc = self.svc
        with self._span("service.supervisor.submit", request):
            if kind == "deregister":
                self.held[name] = svc.service.task(name)
                return svc.deregister(name)
            if kind == "register":
                return svc.register(self.held.pop(name))
            critical = svc.service.task(name).critical_time * UPDATE_FACTOR
            return svc.update_task(name, critical_time=critical)

    def run(self, count: int) -> float:
        """Drive the next ``count`` events; returns the wall time, less
        the yardstick's.  The samples and exact counts are those of this
        call only (so a first call can serve as an untimed warm-up)."""
        svc = self.svc
        self.latencies = {k: [] for k in KINDS}
        self.yards = {k: [] for k in KINDS}
        self.busy = []
        spent = self.yardstick.spent if self.yardstick else 0.0
        self.queries = []
        stats = svc.service.stats()
        epochs0, iterations0 = len(stats.reconvergence_rounds), \
            stats.iterations
        started = _now()
        for index in range(self.next_event, self.next_event + count):
            self._event(index)
        wall = _now() - started
        if self.yardstick is not None:
            wall -= self.yardstick.spent - spent
        self.next_event += count
        stats = svc.service.stats()
        self.iterations = stats.iterations - iterations0
        rounds = list(stats.reconvergence_rounds[epochs0:])
        self.exact = {
            "reconverge_rounds": median(rounds) if rounds else -1,
            "epochs": len(rounds),
            "cache_hits": stats.cache_hits,
            "cache_misses": stats.cache_misses,
        }
        if stats.admission_rejections:
            self.failures.append(
                f"{stats.admission_rejections} admission rejections")
        if self.degraded_ticks:
            self.failures.append(
                f"service degraded for {self.degraded_ticks} ticks")
        return wall

    def _event(self, index: int) -> None:
        svc = self.svc
        kind, name = self.events[index]
        request = f"churn-{index}"
        epoch = svc.service.stats().epoch
        yard = self.yardstick() if self.yardstick is not None else 0.0
        self.attempted += 1
        submitted = _now()
        if not self._submit(kind, name, request):
            self.failures.append(f"churn {index} ({kind}) shed")
            return
        for _ in range(RECONVERGE_TICKS):
            with self._span("service.supervisor.tick", request):
                svc.tick()
            ended = _now()
            self.ticks += 1
            self.degraded_ticks += svc.degraded
            stats = svc.service.stats()
            if stats.converged and stats.epoch > epoch:
                self.latencies[kind].append(ended - submitted)
                self.yards[kind].append(yard)
                break
        else:
            self.failures.append(f"churn {index} ({kind}) did not "
                                 f"re-converge within {RECONVERGE_TICKS} "
                                 "ticks")
            return
        self._queries(index)
        self.busy.append((_now() - submitted, yard))

    def _queries(self, index: int) -> None:
        from repro.errors import ServiceError
        for name in self.svc.service.tasks:
            self.attempted += 1
            started = _now()
            try:
                with self._span("service.supervisor.query",
                                f"query-{index}-{name}"):
                    view = self.svc.query(name)
            except ServiceError as exc:  # a failed query, counted
                self.failures.append(f"query {name}: {exc!r}")
                continue
            self.queries.append(_now() - started)
            if not (view.converged and view.meets_critical_time):
                self.failures.append(
                    f"query {name} after churn {index}: converged="
                    f"{view.converged}, meets_critical_time="
                    f"{view.meets_critical_time}")


def service_metrics(svc: Any, rec: SpanRecorder,
                    driver: ChurnDriver) -> Dict[str, float]:
    """service.* and distributed.checkpoint metrics of a traced drive."""
    out: Dict[str, float] = {}
    cache = svc.service.cache
    out["service.cache.hits"] = float(cache.hits)
    out["service.cache.misses"] = float(cache.misses)
    out["service.cache.hit_rate"] = float(cache.hit_rate)
    for name in ("apply_batch", "step", "snapshot"):
        out[f"service.service.{name}_ms"] = 1e3 * median(
            rec.durations(f"service.service.{name}"))
    out["service.supervisor.tick_ms"] = 1e3 * median(
        rec.durations("service.supervisor.tick"))
    out["service.supervisor.self_ms"] = 1e3 * median(
        rec.self_durations("service.supervisor.tick"))
    sup = svc.stats()
    out["service.supervisor.shed"] = float(sup.queue_shed + sup.degraded_shed)
    out["service.supervisor.query_us"] = 1e6 * median(driver.queries)
    out["distributed.checkpoint.save_ms"] = 1e3 * median(
        rec.durations("distributed.checkpoint.save"))
    out["distributed.checkpoint.bytes"] = float(
        os.path.getsize(svc.snapshots.path_for("service")))
    return out


def _service_setup(taskset: Any, snapshot_dir: str) -> Dict[str, Any]:
    resources = [r for _, r in sorted(taskset.resources.items())]
    svc = build_service(resources, taskset.tasks, snapshot_dir)
    stats = svc.service.stats()
    utility = svc.service.taskset.total_utility(svc.service.allocations())
    return {"svc": svc, "rounds": stats.reconvergence_rounds[-1],
            "utility": utility}


def mode_service(args: argparse.Namespace) -> Dict[str, Any]:
    taskset = make_input(SERVICE_INPUT, args.seed)
    initial = _service_setup(taskset, os.path.join(args.dir, "snap-a"))
    svc = initial["svc"]
    warmup = WARMUP_BLOCKS * BLOCK
    timed = BLOCK * TRACED_BLOCKS if args.trace else \
        service_slice(args.seconds)
    events = churn_schedule(taskset.tasks, warmup + timed)
    # No yardstick in traced runs: their untraced drive is the base of
    # trace.overhead, so it must be the traced drive without spans.
    yardstick = None if args.trace else Yardstick()
    driver = ChurnDriver(svc, events, yardstick=yardstick)
    driver.run(warmup)
    wall = driver.run(timed)
    out: Dict[str, Any] = {
        "initial_rounds": initial["rounds"],
        "initial_utility": initial["utility"],
        "churn_s": driver.latencies,
        "churn_yard_s": driver.yards,
        "busy_s": driver.busy,
        "query_s": driver.queries,
        "exact": driver.exact,
        "iterations": driver.iterations,
        "ticks": driver.ticks,
        "timed_s": wall,
        "attempted": driver.attempted,
        "failures": driver.failures,
        "snapshots": svc.stats().snapshots_taken,
    }
    if args.trace:
        # Same set-up and events again, traced.
        other = _service_setup(taskset, os.path.join(args.dir, "snap-b"))
        svc_b = other["svc"]
        rec = SpanRecorder()
        traced = ChurnDriver(svc_b, events)
        traced.run(warmup)
        traced.trace(rec)
        t0 = _now()
        traced_wall = traced.run(timed)
        layer = service_metrics(svc_b, rec, traced)
        layer["trace.overhead"] = traced_wall / wall
        layer["trace.unattributed_share"] = unattributed(rec, t0, traced_wall)
        out["failures"] += traced.failures
        out["attempted"] += traced.attempted
        if traced.exact != driver.exact:
            out["failures"].append(
                f"traced drive differs: {traced.exact} vs {driver.exact}")
        # core.* per-round costs: a standalone cold solve of the same
        # input at the service's optimizer config (round budget raised).
        from repro.service.service import ServiceConfig
        from repro.telemetry import Telemetry
        cfg = dataclasses.replace(ServiceConfig().optimizer_config(),
                                  max_iterations=SOLVE_BUDGET)
        rec.phase = "sweep"
        rec.request = "solve-1"
        telemetry = Telemetry()  # registry on, tracer without sinks
        with rec.span("bench.solve"):
            run = solve_once(taskset, cfg, rec, telemetry)
        optimizer_metrics(rec, telemetry, run["rounds"], layer)
        out["attempted"] += 1
        if not run["ok"]:
            out["failures"].append("standalone solve did not converge")
        sweep(taskset, rec, layer, args.dir,
              generate=lambda: _generate(SERVICE_INPUT, BASE_SEED),
              structure=run["structure"], service_probe=False)
        out["layers"] = layer
        out["layer_self_s"] = {"op": rec.layer_self_times("op"),
                               "sweep": rec.layer_self_times("sweep")}
        rec.dump(args.spans)
    return out


# -- cli-paper -------------------------------------------------------------------


def _cli_config() -> Any:
    """The config ``repro optimize`` builds at its defaults (no
    ``--backend``, so the CLI's scalar default)."""
    from repro.core.optimizer import LLAConfig
    return LLAConfig(max_iterations=CLI_ITERATIONS)


def _load(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def mode_cli_solve(args: argparse.Namespace) -> Dict[str, Any]:
    """``LLAOptimizer.run`` on FILE at the CLI's defaults, repeated for
    ``--seconds`` after one warm-up: the round rate of the solve itself,
    without the interpreter start and imports of an invocation."""
    from repro.model.serialize import taskset_from_json
    taskset = taskset_from_json(_load(args.file))
    cfg = _cli_config()
    yardstick = Yardstick()
    solve_once(taskset, cfg)  # warm-up
    runs: List[Dict[str, Any]] = []
    yards: List[float] = []
    started = _now()
    while len(runs) < 5 or _now() - started < args.seconds:
        yards.append(yardstick())
        runs.append(solve_once(taskset, cfg))
    return {
        "run_s": [r["run_s"] for r in runs],
        "yard_s": yards,
        "rounds": sorted({r["rounds"] for r in runs}),
        "utility": sorted({r["utility"] for r in runs}),
        "failures": [f"in-process solve #{i}: converged={r['converged']} "
                     f"feasible={r['feasible']}"
                     for i, r in enumerate(runs) if not r["ok"]],
        "attempted": len(runs),
    }


def mode_cli_op(args: argparse.Namespace) -> Dict[str, Any]:
    """``repro optimize FILE`` in-process: JSON load + LLAOptimizer at the
    CLI's defaults (scalar path, 1500 rounds), untraced then traced."""
    from repro.model.serialize import taskset_from_json
    from repro.telemetry import Telemetry

    text = _load(args.file)

    def op(rec: Optional[SpanRecorder], telemetry: Any = None
           ) -> Dict[str, Any]:
        started = _now()
        if rec is None:
            taskset = taskset_from_json(text)
        else:
            with rec.span("model.load_json"):
                taskset = taskset_from_json(text)
        run = solve_once(taskset, _cli_config(), rec, telemetry)
        run.update(wall_s=_now() - started, taskset=taskset)
        return run

    op(None)  # warm-up
    plain = [op(None) for _ in range(5)]
    rec = SpanRecorder()
    traced = []
    layer: Dict[str, float] = {}
    t0 = _now()
    for i in range(5):
        telemetry = Telemetry()
        rec.request = f"invocation-{i}"
        with rec.span("bench.invocation"):
            run = op(rec, telemetry)
        traced.append(run)
        if i == 0:
            optimizer_metrics(rec, telemetry, run["rounds"], layer)
    traced_wall = _now() - t0
    layer["trace.overhead"] = median([r["wall_s"] for r in traced]) / \
        median([r["wall_s"] for r in plain])
    layer["trace.unattributed_share"] = unattributed(rec, t0, traced_wall)
    taskset = plain[0]["taskset"]

    def generate() -> Any:
        from repro.workloads.paper import make_workload
        return make_workload("scaled")

    sweep(taskset, rec, layer, args.dir, generate=generate, structure=None,
          service_probe=True)
    runs = plain + traced
    out = {
        "layers": layer,
        "layer_self_s": {"op": rec.layer_self_times("op"),
                         "sweep": rec.layer_self_times("sweep")},
        "rounds": sorted({r["rounds"] for r in runs}),
        "utility": sorted({r["utility"] for r in runs}),
        "failures": [f"in-process optimize #{i} failed"
                     for i, r in enumerate(runs) if not r["ok"]],
        "attempted": len(runs),
    }
    rec.dump(args.spans)
    return out


# -- entry point -----------------------------------------------------------------


def mode_setup(args: argparse.Namespace) -> None:
    if args.workload != "service-churn":
        raise SystemExit(f"no in-process set-up for {args.workload!r}")
    taskset = make_input(SERVICE_INPUT, args.seed)
    initial = _service_setup(taskset, os.path.join(args.dir, "snap"))
    info = {"rounds": initial["rounds"], "utility": initial["utility"]}
    print("READY " + json.dumps(info), flush=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "service", "cli-solve",
                                         "cli-op"))
    parser.add_argument("workload", nargs="?")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--out")
    parser.add_argument("--spans")
    parser.add_argument("--file")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        mode_setup(args)
        return 0
    handler = {"service": mode_service, "cli-solve": mode_cli_solve,
               "cli-op": mode_cli_op}[args.mode]
    result = handler(args)
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
