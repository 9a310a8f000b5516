#!/usr/bin/env python3
"""Benchmark of the LLA reproduction: two workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload cli-paper --seed 7 --seconds 35 --trace 0

Workloads (see README.md): ``cli-paper`` (``repro optimize`` on the paper's
scaled workload, each invocation a fresh interpreter) and ``service-churn``
(a supervised service under the churn experiment's script and queries).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the traced
variant and prints the per-layer metrics, writing the spans and a per-layer
summary under ``.perfbench_out/``.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are a human-readable table with units and sample counts.  The
exit code is non-zero when an output check fails.

This file uses the standard library only; the program under test runs in
child processes started with ``PYTHONPATH=src``, one BLAS/OpenMP thread and
a fixed hash seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from common import (
    DEFAULT_SEEDS, LAYER_MAP, YARD_PROC_CODE, YARD_PROC_REF_S, YARD_REF_S,
    host_calib_ms, median, quantile,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Fresh-process set-ups measured per run (after one discarded warm-up).
SETUP_SAMPLES = 5
#: Minimum timed CLI invocations per run.
MIN_INVOCATIONS = 15
#: Seconds of a cli-paper run spent on the in-process solve (rounds_per_s);
#: the rest of ``--seconds`` goes to CLI invocations.
CLI_SOLVE_SECONDS = 4.0
#: The churn kind whose latency is gated as ``op_p50_ms`` (README.md).
GATED_KIND = "register"
#: A tail quantile is printed only with this many samples beyond it.
TAIL_SAMPLES = 10
#: Child time limits (s); a run must end within 180 s.
SETUP_TIMEOUT = 40
WORK_TIMEOUT = 150
CLI_TIMEOUT = 20

#: End-to-end metrics, reported on every workload (README.md maps them to
#: the per-workload names in the table).
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_rounds": "count",
    "op_utility": "utility",
    "rounds_per_s": "1/s",
}

#: Per-layer metrics, reported by every traced run.
LAYER_UNITS = {
    "host.calib_ms": "ms",
    "cli.import_s": "s",
    "cli.scipy_optimize_loaded": "bool",
    "model.load_json_ms": "ms",
    "model.fingerprint_ms": "ms",
    "workloads.generate_s": "s",
    "core.structure.compile_s": "s",
    "core.structure.bytes": "bytes",
    "core.structure.nnz": "count",
    "core.vectorized.iter_per_s": "1/s",
    "core.vectorized.phase.path_update_ms": "ms",
    "core.vectorized.phase.allocate_ms": "ms",
    "core.vectorized.phase.price_update_ms": "ms",
    "core.vectorized.phase.classify_ms": "ms",
    "core.optimizer.init_s": "s",
    "core.optimizer.step_ms": "ms",
    "core.optimizer.kernel_ms": "ms",
    "core.optimizer.facade_share": "ratio",
    "core.convergence.observe_ms": "ms",
    "core.convergence.converged_ms": "ms",
    "analysis.admission.certify_ms": "ms",
    "service.cache.hits": "count",
    "service.cache.misses": "count",
    "service.cache.hit_rate": "ratio",
    "service.service.apply_batch_ms": "ms",
    "service.service.step_ms": "ms",
    "service.service.snapshot_ms": "ms",
    "service.supervisor.tick_ms": "ms",
    "service.supervisor.self_ms": "ms",
    "service.supervisor.shed": "count",
    "service.supervisor.query_us": "us",
    "distributed.checkpoint.save_ms": "ms",
    "distributed.checkpoint.bytes": "bytes",
    "trace.overhead": "ratio",
    "trace.unattributed_share": "ratio",
}

#: Per-layer metrics that must repeat exactly for a given workload and seed.
EXACT_LAYER_METRICS = ("core.structure.bytes", "core.structure.nnz",
                       "service.cache.hits", "service.cache.misses",
                       "distributed.checkpoint.bytes")

_CLI_RESULT = re.compile(
    r"converged: (True|False) after (\d+) iterations; utility (-?[0-9.]+)")


class Failures:
    """Operations attempted and the ones that failed (with a reason)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.reasons: List[str] = []

    def check(self, ok: bool, reason: str) -> bool:
        self.attempted += 1
        if not ok:
            self.reasons.append(reason)
        return ok

    def extend(self, attempted: int, reasons: List[str]) -> None:
        self.attempted += attempted
        self.reasons.extend(reasons)


class Run:
    """One benchmark run: the scratch directory and the child processes."""

    def __init__(self, seed: int, seconds: float, trace: bool) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.dir = os.path.join(ROOT, ".perfbench_tmp", f"run-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        self.env = dict(os.environ)
        self.env.update({
            "PYTHONPATH": os.path.join(ROOT, "src"),
            "PYTHONHASHSEED": "0",
            "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
            "NUMEXPR_NUM_THREADS": "1",
            "VECLIB_MAXIMUM_THREADS": "1",
        })
        self.fail = Failures()
        self.table: List[Tuple[str, float, str, int]] = []
        self.yard_proc_s: List[float] = []

    def child(self, args: List[str], timeout: float) -> Dict[str, Any]:
        """Run ``python3 ARGS`` to completion.  Returns its wall time, the
        time its ``READY`` line appeared (if any), exit code, stdout and
        peak RSS (from ``wait4``, so it is this child's own peak)."""
        err_path = os.path.join(self.dir, "stderr.txt")
        started = time.perf_counter()
        ready_s: Optional[float] = None
        with open(err_path, "w+") as err:
            proc = subprocess.Popen(
                [sys.executable] + args, cwd=ROOT, env=self.env,
                stdout=subprocess.PIPE, stderr=err, text=True)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            lines = []
            try:
                assert proc.stdout is not None
                for line in proc.stdout:
                    if ready_s is None and line.startswith("READY"):
                        ready_s = time.perf_counter() - started
                    lines.append(line)
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - started
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                killer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
                proc.stdout.close()
            err.seek(0)
            stderr_tail = err.read()[-2000:]
        return {"wall_s": wall, "ready_s": ready_s, "rc": proc.returncode,
                "stdout": "".join(lines), "stderr": stderr_tail,
                "rss_mb": usage.ru_maxrss / 1024.0}

    def worker(self, mode: str, *extra: str,
               seconds: Optional[float] = None, timeout: float = WORK_TIMEOUT
               ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        out = os.path.join(self.dir, f"{mode}.json")
        if seconds is None:
            seconds = self.seconds
        proc = self.child([WORKER, mode, *extra, "--seed", str(self.seed),
                           "--dir", self.dir, "--out", out,
                           "--seconds", str(seconds),
                           "--trace", str(int(self.trace)),
                           "--spans", os.path.join(self.dir, "spans.jsonl")],
                          timeout)
        if proc["rc"] != 0:
            raise BenchError(f"worker {mode} exited {proc['rc']}:\n"
                             f"{proc['stderr']}")
        with open(out) as handle:
            return json.load(handle), proc

    def yard_proc(self) -> float:
        """One sample of the process yardstick (see common.py)."""
        proc = self.child(["-c", YARD_PROC_CODE], SETUP_TIMEOUT)
        if proc["rc"] != 0:
            raise BenchError(f"process yardstick failed: {proc['stderr']}")
        self.yard_proc_s.append(proc["wall_s"])
        return proc["wall_s"]

    def setup_s(self, times: List[float], yards: List[float]) -> float:
        """The median set-up time at the reference host speed."""
        self.row("setup_raw_s", median(times), "s", len(times))
        return normalized(times, yards, 0.5)

    def warm_imports(self) -> None:
        """Discarded first interpreter start: bytecode compile and page
        cache, so set-up samples see the state users see on a rerun."""
        self.child(["-c", "import repro.cli, repro.service.supervisor"],
                   SETUP_TIMEOUT)

    def setups(self, workload: str
               ) -> Tuple[List[float], List[float], List[Dict]]:
        """``SETUP_SAMPLES`` fresh-process set-ups, spawn to ``READY``,
        each after a process yardstick; returns times, yardsticks and the
        ``READY`` payloads."""
        self.warm_imports()
        times, yards, infos = [], [], []
        for _ in range(SETUP_SAMPLES):
            yard = self.yard_proc()
            proc = self.child([WORKER, "setup", workload, "--seed",
                               str(self.seed), "--dir", self.dir],
                              SETUP_TIMEOUT)
            ok = proc["rc"] == 0 and proc["ready_s"] is not None
            if self.fail.check(ok, f"{workload} set-up failed: "
                                   f"{proc['stderr'][-300:]}"):
                times.append(proc["ready_s"])
                yards.append(yard)
                infos.append(json.loads(
                    proc["stdout"].split("READY ", 1)[1].splitlines()[0]))
        return times, yards, infos

    def row(self, name: str, value: float, unit: str, n: int) -> None:
        self.table.append((name, value, unit, n))

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.dir))
        except OSError:
            pass


class BenchError(RuntimeError):
    pass


def _exact(fail: Failures, what: str, values: List[Any]) -> Any:
    """The single value an exact count must take in every sample."""
    fail.check(len(set(values)) == 1,
               f"{what} differs between samples: {sorted(set(values))}")
    return values[0]


def normalized(times: List[float], yards: List[float], q: float,
               ref: float = YARD_PROC_REF_S) -> float:
    """Quantile ``q`` of times paired with the yardstick taken just before
    each, at the reference host speed ``ref`` (see common.py)."""
    return ref * quantile([t / y for t, y in zip(times, yards)], q)


def _timings(run: Run, name: str, samples: List[float], scale: float,
             unit: str, quantiles: Tuple[Tuple[str, float], ...]) -> None:
    """Table rows for quantiles of one kind of sample; a tail quantile
    only when ``TAIL_SAMPLES`` samples lie beyond it."""
    for label, q in quantiles:
        if q > 0.5 and len(samples) * (1.0 - q) < TAIL_SAMPLES:
            continue
        run.row(f"{name}_{label}", scale * quantile(samples, q), unit,
                len(samples))


# -- workloads -----------------------------------------------------------------


def cli_paper(run: Run) -> Dict[str, Any]:
    path = os.path.join(run.dir, "scaled.json")
    export = ["-m", "repro", "export-workload", "scaled", "-o", path]
    run.warm_imports()
    setup, setup_yards, digests = [], [], set()
    for _ in range(1 if run.trace else SETUP_SAMPLES):
        yard = run.yard_proc()
        proc = run.child(export, SETUP_TIMEOUT)
        if run.fail.check(proc["rc"] == 0, "export-workload failed: "
                                           f"{proc['stderr'][-300:]}"):
            setup.append(proc["wall_s"])
            setup_yards.append(yard)
            with open(path, "rb") as handle:
                digests.add(hashlib.sha256(handle.read()).hexdigest())
    run.fail.check(len(digests) == 1, "exported workload differs per run")
    if not setup:
        raise BenchError("could not export the scaled workload")

    def invoke() -> Optional[Dict[str, Any]]:
        proc = run.child(["-m", "repro", "optimize", path], CLI_TIMEOUT)
        match = _CLI_RESULT.search(proc["stdout"])
        ok = proc["rc"] == 0 and match is not None \
            and match.group(1) == "True"
        if not run.fail.check(ok, f"repro optimize: exit {proc['rc']}, "
                                  f"output {proc['stdout'][:200]!r}"):
            return None
        proc["rounds"] = int(match.group(2))
        proc["utility"] = float(match.group(3))
        return proc

    invoke()
    invoke()  # warm-up, checked but not timed
    calls: List[Dict[str, Any]] = []
    started = time.perf_counter()
    target = 10 if run.trace else MIN_INVOCATIONS
    budget = max(0.0, run.seconds - CLI_SOLVE_SECONDS)
    while len(calls) < target or \
            (not run.trace and time.perf_counter() - started < budget):
        yard = run.yard_proc()
        proc = invoke()
        if proc is not None:
            proc["yard_s"] = yard
            calls.append(proc)
        elif len(run.fail.reasons) > 5:
            break
    if not calls:
        raise BenchError("no successful repro optimize invocation")
    rounds = _exact(run.fail, "solve_rounds", [c["rounds"] for c in calls])
    utility = _exact(run.fail, "solve_utility", [c["utility"] for c in calls])
    walls = [c["wall_s"] for c in calls]
    _timings(run, "cli", walls, 1.0, "s",
             (("p10", 0.1), ("p50", 0.5), ("p75", 0.75), ("min", 0.0)))
    run.row("solve_rounds", rounds, "count", len(calls))
    run.row("solve_utility", utility, "utility", len(calls))
    exact = {"solve_rounds": rounds, "solve_utility": utility}
    if run.trace:
        result, _ = run.worker("cli-op", "--file", path)
        run.fail.extend(result["attempted"], result["failures"])
        # The CLI prints the utility to three decimals.
        run.fail.check(result["rounds"] == [rounds] and all(
                           abs(u - utility) <= 5e-4
                           for u in result["utility"]),
                       "in-process optimize differs from the CLI: "
                       f"{result['rounds']} {result['utility']}")
        layers = result["layers"]
        layers["cli.p75_s"] = quantile(walls, 0.75)
        return {"layers": layers, "exact": exact,
                "self": result["layer_self_s"]}
    # rounds_per_s: the solve alone, LLAOptimizer.run in-process on the
    # same file at the CLI's defaults.
    result, _ = run.worker("cli-solve", "--file", path,
                           seconds=CLI_SOLVE_SECONDS)
    run.fail.extend(result["attempted"], result["failures"])
    run.fail.check(result["rounds"] == [rounds] and all(
                       abs(u - utility) <= 5e-4 for u in result["utility"]),
                   "in-process solve differs from the CLI: "
                   f"{result['rounds']} {result['utility']}")
    solve_s = result["run_s"]
    run.row("solve_run_ms", 1e3 * median(solve_s), "ms", len(solve_s))
    run.row("yard_ms", 1e3 * median(result["yard_s"]), "ms",
            len(result["yard_s"]))
    rss = [c["rss_mb"] for c in calls]
    yards = [c["yard_s"] for c in calls]
    return {
        "e2e": {
            "setup_s": run.setup_s(setup, setup_yards),
            "peak_rss_mb": median(rss),
            "op_p50_ms": 1e3 * normalized(walls, yards, 0.5),
            "op_rounds": float(rounds),
            "op_utility": float(utility),
            "rounds_per_s": rounds / normalized(solve_s, result["yard_s"],
                                                0.5, YARD_REF_S),
        },
        "n": {"setup_s": len(setup), "peak_rss_mb": len(calls),
              "op_p50_ms": len(walls), "op_rounds": len(calls),
              "op_utility": len(calls), "rounds_per_s": len(solve_s)},
        "exact": exact,
    }


def import_probe(run: Run) -> Dict[str, float]:
    """``import repro.cli`` in fresh interpreters (median of three), and
    whether it loads ``scipy.optimize``."""
    code = ("import sys, time; t = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - t, "
            "int('scipy.optimize' in sys.modules))")
    times, loaded = [], []
    for _ in range(3):
        proc = run.child(["-c", code], SETUP_TIMEOUT)
        if run.fail.check(proc["rc"] == 0, "import repro.cli failed"):
            seconds, flag = proc["stdout"].split()
            times.append(float(seconds))
            loaded.append(int(flag))
    return {"cli.import_s": median(times),
            "cli.scipy_optimize_loaded": float(max(loaded))}


def service_churn(run: Run) -> Dict[str, Any]:
    setup, setup_yards, infos = ([], [], []) if run.trace \
        else run.setups("service-churn")
    result, proc = run.worker("service")
    run.fail.extend(result["attempted"], result["failures"])
    initial = [(i["rounds"], i["utility"]) for i in infos]
    initial.append((result["initial_rounds"], result["initial_utility"]))
    first_rounds, first_utility = _exact(run.fail, "initial convergence",
                                         initial)
    churn, queries = result["churn_s"], result["query_s"]
    events = sum(len(samples) for samples in churn.values())
    for kind, samples in sorted(churn.items()):
        run.row(f"churn_{kind}_share", len(samples) / max(events, 1),
                "ratio", events)
        _timings(run, f"churn_{kind}", samples, 1e3, "ms",
                 (("p10", 0.1), ("p50", 0.5), ("p90", 0.9), ("p95", 0.95)))
    _timings(run, "query", queries, 1e6, "us", (("p50", 0.5), ("p99", 0.99)))
    exact = dict(result["exact"])
    exact["initial_rounds"] = first_rounds
    exact["initial_utility"] = first_utility
    exact["snapshots"] = result["snapshots"]
    rounds_per_s = result["iterations"] / result["timed_s"]
    run.row("rounds_per_s", rounds_per_s, "1/s", result["ticks"])
    yards = [y for samples in result["churn_yard_s"].values()
             for y in samples]
    run.row("reconverge_rounds", exact["reconverge_rounds"], "count",
            exact["epochs"])
    for key in ("cache_hits", "cache_misses"):
        run.row(key, exact[key], "count", 1)
    run.row("initial_rounds", first_rounds, "count", len(initial))
    run.row("initial_utility", first_utility, "utility", len(initial))
    run.row("snapshots", result["snapshots"], "count", 1)
    if run.trace:
        return {"layers": result["layers"], "exact": exact,
                "self": result["layer_self_s"]}
    run.row("yard_ms", 1e3 * median(yards), "ms", len(yards))
    return {
        "e2e": {
            "setup_s": run.setup_s(setup, setup_yards),
            "peak_rss_mb": proc["rss_mb"],
            "op_p50_ms": 1e3 * normalized(
                churn[GATED_KIND], result["churn_yard_s"][GATED_KIND], 0.5,
                YARD_REF_S),
            "op_rounds": float(exact["reconverge_rounds"]),
            "op_utility": float(first_utility),
            # Each event's wall time at the reference speed, summed.
            "rounds_per_s": result["iterations"] / sum(
                YARD_REF_S * t / y for t, y in result["busy_s"]),
        },
        "n": {"setup_s": len(setup), "peak_rss_mb": 1,
              "op_p50_ms": len(churn[GATED_KIND]),
              "op_rounds": exact["epochs"], "op_utility": len(initial),
              "rounds_per_s": result["ticks"]},
        "exact": exact,
    }


WORKLOADS = {
    "cli-paper": cli_paper,
    "service-churn": service_churn,
}


# -- reporting -----------------------------------------------------------------


def check_exact_history(key: str, exact: Dict[str, Any]) -> List[str]:
    """Compare exact counts with earlier runs under the same ``key``
    (workload, seed, traced or not) in this checkout; returns the names
    that changed (flagged, not failed)."""
    path = os.path.join(OUT_DIR, "exact-counts.json")
    history: Dict[str, Any] = {}
    if os.path.exists(path):
        with open(path) as handle:
            history = json.load(handle)
    previous = history.get(key, {})
    changed = [name for name, value in exact.items()
               if name in previous and previous[name] != value]
    history[key] = exact
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(history, handle, indent=1, sort_keys=True)
    return changed


def write_trace_artifacts(workload: str, run: Run, result: Dict[str, Any],
                          wall: float) -> str:
    target = os.path.join(OUT_DIR, f"{workload}-seed{run.seed}")
    os.makedirs(target, exist_ok=True)
    spans = os.path.join(run.dir, "spans.jsonl")
    if os.path.exists(spans):
        shutil.copyfile(spans, os.path.join(target, "spans.jsonl"))
    summary = {
        "workload": workload,
        "seed": run.seed,
        "run_wall_s": wall,
        "per_layer": result["layers"],
        "layer_self_s": result["self"],
        "exact": result["exact"],
        "layer_map": LAYER_MAP,
    }
    with open(os.path.join(target, "summary.json"), "w") as handle:
        json.dump(summary, handle, indent=1, sort_keys=True)
    return target


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program under {ROOT}/src/repro; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    run = Run(seed, args.seconds, bool(args.trace))
    started = time.perf_counter()
    try:
        calib = [host_calib_ms()]
        result = WORKLOADS[args.workload](run)
        if run.trace:
            result["layers"].update(import_probe(run))
        calib.append(host_calib_ms())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()
    wall = time.perf_counter() - started

    failed = len(run.fail.reasons)
    if run.trace:
        layers = result["layers"]
        layers["host.calib_ms"] = median(calib)
        missing = [name for name in LAYER_UNITS if name not in layers]
        if missing:
            print(f"perfbench: per-layer metrics missing: {missing}",
                  file=sys.stderr)
            return 1
        result["exact"].update({name: layers[name]
                                for name in EXACT_LAYER_METRICS})
    changed = check_exact_history(
        f"{args.workload}/seed{seed}/trace{args.trace}", result["exact"])
    print(f"# {args.workload} seed={seed} trace={args.trace} "
          f"wall={wall:.1f}s host.calib_ms start={calib[0]:.2f} "
          f"end={calib[1]:.2f}")
    if run.yard_proc_s:
        run.row("yard_proc_s", median(run.yard_proc_s), "s",
                len(run.yard_proc_s))
    for name, value, unit, n in run.table:
        print(f"{name:28s} {value:>16.6g} {unit:8s} n={n}")
    print(f"{'error_rate':28s} {failed / max(run.fail.attempted, 1):>16.6g} "
          f"{'ratio':8s} n={run.fail.attempted}")
    for name in changed:
        print(f"FLAG exact count {name} changed since the last run of "
              f"{args.workload} seed {seed}", file=sys.stderr)
    for reason in run.fail.reasons[:20]:
        print(f"FAILED {reason}", file=sys.stderr)

    if run.trace:
        target = write_trace_artifacts(args.workload, run, result, wall)
        for phase, layer_self in sorted(result["self"].items()):
            for layer, seconds in sorted(layer_self.items()):
                print(f"self[{phase}] {layer:28s} {seconds:>12.6f} s")
        print(f"# spans and summary in {os.path.relpath(target, ROOT)}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
    else:
        e2e, counts = result["e2e"], result["n"]
        for name, unit in E2E_UNITS.items():
            n = counts[name]
            print(f"{name:28s} {e2e[name]:>16.6g} {unit:8s} n={n}")
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": run.fail.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
