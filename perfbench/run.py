"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run one workload (from the root of a checkout)::

    python3 perfbench/run.py --workload locate-cold --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs the same workload with per-layer wrappers installed and
reports the per-layer metrics instead.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` whose
metric names and units are the ones ``BENCHMARK.json`` lists; a metric a
workload has no use for reads 0.  ``--workload all`` runs every workload
untraced and traced in turn, prints a table with each workload's tracing
overhead, and ends with the same kind of JSON line, metrics prefixed by
workload.

The benchmark imports the library from ``src/`` next to this directory and
refuses to run without it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Chunked reference releases timed per traced run, where the workload
#: asks for the parallel-vs-chunked comparison.
BASELINE_OPS = {"locate-cold": 3, "center-plans": 3}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def import_library() -> None:
    """Put the checkout's ``src/`` first on the path and import from it."""
    package = ROOT / "src" / "repro" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"perfbench: the library source {package} is "
                         "missing; run from a checkout of the repository")
    sys.path.insert(0, str(package.parent.parent))
    import repro

    if Path(repro.__file__).resolve() != package.resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {package}")


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def end_to_end(window, setup_s: float) -> dict:
    within = sum(1 for latency in window.latencies
                 if latency <= window.latency_limit_s)
    return {
        "setup_s": setup_s,
        "release_p50_s": percentile(window.releases, 50),
        "releases_per_s": (len(window.releases) / window.busy_s
                           if window.busy_s else 0.0),
        "query_p50_s": percentile(window.latencies, 50),
        "query_p95_s": percentile(window.latencies, 95),
        "slo_met_frac": within / window.attempted,
        "peak_rss_mib": window.peak_rss_mib,
    }


def service_layers(workload, window, spend: dict) -> dict:
    """The service, accounting and load-generator layers of service-mixed,
    all read from the job handles and ledgers after the window."""
    queries = workload.queries
    done = window.extra["done"]
    opened = window.extra["opened"]
    admitted = [q for q in queries if q.job is not None]
    waits = [q.job.started_at - q.job.submitted_at for q in done]
    metrics = {
        "service.admit_p50_s": percentile([q.admit_s for q in admitted], 50),
        "service.queue_wait_p50_s": percentile(waits, 50),
        "service.queue_wait_p90_s": percentile(waits, 90),
        "loadgen.lag_max_s": max(q.sent - (opened + q.due) for q in queries),
        "accounting.charges": sum(stats["queries"]
                                  for stats, _ in spend.values()),
        "accounting.epsilon_spent": sum((stats["spent"] or {}).get(
            "epsilon", 0.0) for stats, _ in spend.values()),
    }
    for kind, _ in workload.mix:
        metrics[f"service.run_p50_s.{kind}"] = percentile(
            [q.job.finished_at - q.job.started_at
             for q in done if q.kind == kind], 50)
    # Queue depth from the job timestamps: +1 at submit, -1 at start.
    depth_max = 0
    for dataset in workload.datasets:
        events = sorted(
            [(q.job.submitted_at, 1) for q in done if q.dataset == dataset]
            + [(q.job.started_at, -1) for q in done if q.dataset == dataset])
        depth = 0
        for _, step in events:
            depth += step
            depth_max = max(depth_max, depth)
    metrics["service.queue_depth_max"] = depth_max
    return metrics


def per_layer(workload, window, tracer, counters, e2e: dict,
              baseline_walls, leaks: dict, spend) -> dict:
    ops = max(1, len(window.releases))
    seconds, counts = tracer.seconds, tracer.counts
    pool = counters.totals
    speculations = pool["spec_hits"] + pool["spec_misses"]
    results = ([q.job.result() for q in window.extra["done"]]
               if spend is not None else workload.results)
    metrics = {
        "core.good_radius_s": seconds["core.good_radius"] / ops,
        "core.good_center_s": seconds["core.good_center"] / ops,
        "quasiconcave.rec_concave_self_s":
            tracer.self_seconds["quasiconcave.rec_concave"] / ops,
        "quasiconcave.quality_batches":
            counts["quasiconcave.quality_batches"] / ops,
        "neighbors.profile_first_s":
            seconds["neighbors.profile_first"] / ops,
        "neighbors.profile_warm_s": seconds["neighbors.profile_warm"] / ops,
        "neighbors.plans": counts["neighbors.plans"] / ops,
        "neighbors.round_trips": pool["round_trips"] / ops,
        "neighbors.shard_tasks": pool["shard_tasks"] / ops,
        "neighbors.plan_wait_s": seconds["neighbors.plan_wait"] / ops,
        "neighbors.speculation_hit_rate":
            pool["spec_hits"] / speculations if speculations else 0.0,
        "neighbors.speculations": speculations / ops,
        "mechanisms.draws": counts["mechanisms.draws"] / ops,
        "sample_aggregate.blocks_s":
            seconds["sample_aggregate.blocks"] / ops,
        "sample_aggregate.aggregate_s":
            seconds["sample_aggregate.aggregate"] / ops,
        "proc.parent_cpu_s": window.parent_cpu_s / ops,
        "proc.workers_cpu_s": pool["workers_cpu_s"] / ops,
        "proc.workers_busy_frac": (pool["workers_cpu_s"]
                                   / pool["worker_wall_s"]
                                   if pool["worker_wall_s"] else 0.0),
        "baseline.chunked_release_p50_s": percentile(baseline_walls, 50),
        "trace.release_p50_s": e2e["release_p50_s"],
        "trace.query_p50_s": e2e["query_p50_s"],
        "ops.not_found": sum(1 for result in results
                             if getattr(result, "found", True) is False),
    }
    for family in ("slab", "box_label", "exact_sum"):
        metrics[f"kernels.{family}_calls"] = counts[f"kernels.{family}"] / ops
        metrics[f"kernels.{family}_s"] = seconds[f"kernels.{family}"] / ops
    metrics["kernels.slab_bytes_computed"] = counts["kernels.slab_bytes"] / ops
    metrics.update(leaks)
    if spend is not None:
        metrics.update(service_layers(workload, window, spend))
    return metrics


def host_info() -> dict:
    import scipy
    from repro.kernels import kernel_info

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "kernels": kernel_info()}


def stop_resource_tracker() -> None:
    """Stop (and wait for) the helper process ``multiprocessing`` starts to
    track shared-memory segments, once every segment is released."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker,
                                                               "_stop"):
        tracker._stop()


def run_workload(spec: dict, name: str, seed: int, seconds: float,
                 traced: bool) -> dict:
    import_library()
    import hostspeed
    import proc
    import workloads
    from tracing import NullTracer, Tracer, install

    print(f"perfbench: {name} seed={seed} host={json.dumps(host_info())}",
          file=sys.stderr)
    if workloads.WORKLOADS[name].single_cpu:
        proc.pin_to_one_cpu()
    tracer = Tracer() if traced else NullTracer()
    counters = workloads.PoolCounters() if traced else None
    if traced:
        install(tracer)
    shm_before = proc.shm_segments()

    setup_walls, setups = [], []
    for repeat in range(SETUP_REPEATS):
        workload = workloads.WORKLOADS[name](seed, tracer, counters)
        speed = hostspeed.speed()
        start = time.perf_counter()
        workload.setup()
        setup_walls.append(time.perf_counter() - start)
        setups.append(setup_walls[-1] * (speed + hostspeed.speed()) / 2)
        if repeat < SETUP_REPEATS - 1:
            workload.teardown()

    if traced:
        tracer.reset()
    window = workload.run(seconds)
    if traced:
        tracer.enabled = False
    spend = (workload.ledger_spend() if isinstance(
        workload, workloads.ServiceMixed) else None)
    workload.teardown()
    if spend is not None:
        failures, baseline_walls = workload.check(spend), []
    else:
        failures, baseline_walls = workload.check(
            BASELINE_OPS.get(name, 1) if traced else 1)
    stop_resource_tracker()

    e2e = end_to_end(window, statistics.median(setups))
    lag = (max(q.sent - (window.extra["opened"] + q.due)
               for q in workload.queries) if spend is not None else 0.0)
    print(f"perfbench: {name} attempted={window.attempted} "
          f"failed_ops={window.failed} failed_checks={failures} "
          f"setups={['%.3f' % s for s in setups]} "
          f"setup_walls={['%.3f' % s for s in setup_walls]} "
          f"loadgen_lag_max_s={lag:.4f} "
          f"releases={['%.3f' % r for r in window.releases]} "
          f"release_walls={['%.3f' % r for r in window.extra['walls']]}",
          file=sys.stderr)
    if traced:
        leaks = {
            "proc.leaked_workers": sum(1 for pid in counters.pids
                                       if proc.alive(pid)),
            "proc.leaked_shm_segments": len(proc.shm_segments()
                                            - shm_before),
        }
        values = per_layer(workload, window, tracer, counters, e2e,
                           baseline_walls, leaks, spend)
        listed = spec["per_layer"]
    else:
        values = e2e
        listed = spec["end_to_end"]
    metrics = {}
    for entry in listed:
        metrics[entry["name"]] = {"value": values.pop(entry["name"], 0.0),
                                  "unit": entry["unit"]}
    if values:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: "
                           f"{sorted(values)}")
    failed = min(window.attempted, window.failed + failures)
    return {"correct": failed == 0, "attempted": window.attempted,
            "failed": failed, "metrics": metrics}


def run_all(spec: dict, seed: int, seconds: float) -> dict:
    """Every workload untraced and traced, each in its own process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        runs = []
        for trace in (0, 1):
            completed = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=True)
            runs.append(json.loads(completed.stdout.strip().splitlines()[-1]))
        untraced, traced = runs
        print(f"\n{name} — {workload['why']}")
        for metrics in (untraced["metrics"], traced["metrics"]):
            for metric, entry in metrics.items():
                if entry["value"]:
                    print(f"  {metric:40s} {entry['value']:14.6g} "
                          f"{entry['unit']}")
        for traced_key, key in (("trace.release_p50_s", "release_p50_s"),
                                ("trace.query_p50_s", "query_p50_s")):
            base = untraced["metrics"][key]["value"]
            overhead = (traced["metrics"][traced_key]["value"] / base - 1.0
                        if base else 0.0)
            print(f"  tracing overhead on {key}: {100 * overhead:+.1f}%")
        for run in runs:
            summary["correct"] &= run["correct"]
            summary["attempted"] += run["attempted"]
            summary["failed"] += run["failed"]
        for metric, entry in untraced["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = entry
    return summary


def main(argv=None) -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(spec, args.seed, args.seconds)
    else:
        result = run_workload(spec, args.workload, args.seed, args.seconds,
                              bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
