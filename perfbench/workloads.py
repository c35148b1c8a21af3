"""The benchmark's four workloads.

Each workload generates its inputs from the run's seed, sets itself up,
runs a timed window, and then checks its outputs outside that window:

* ``locate-cold`` — closed loop, 1 client.  Every op plants a fresh
  dataset, builds a fresh 2-worker ``sharded`` backend and runs
  ``one_cluster``: the cold truncated-statistic build, its transfer out of
  the workers and the parent-side sort, with no work shared between ops.
* ``center-plans`` — closed loop, 1 client.  ``good_center`` on the JL +
  rotated-axis path against one warm 2-shard ``sharded`` backend run
  serially in-process: many small query plans (fan-outs, speculation,
  per-shard box hashing and masked aggregates, shard merges) and no
  distance profile at all.
* ``service-mixed`` — open loop.  Poisson arrivals at 10 queries/s into a
  ``ClusteringService`` with 2 tenants and 2 resident low-dimensional
  datasets on in-process ``tree`` backends: queueing, admission, budget
  charging and warm profile walks, with no process boundary.
* ``sa-wide`` — closed loop, 1 client.  Sample-and-aggregate mean
  estimation over wide rows on a warm 32-shard ``sharded`` backend run
  serially in-process: few large plans of exact fixed-point sums and no
  distance or profile work.

The two warm workloads run their shards in-process because a pool that
keeps both CPUs of a 2-CPU shared host busy drifts by up to a third from
one stretch of seconds to the next (worker CPU per op moves with it), which
swamps any change a run could resolve.  ``locate-cold`` keeps the process
pool: crossing it is what that workload measures.  Every workload but
``locate-cold`` is ``single_cpu``: its process is pinned to one CPU, so the
host-speed readings taken in it (``hostspeed.py``) read the CPU its work
runs on.
"""

from __future__ import annotations

import dataclasses
import statistics
import sys
import threading
import time
import traceback
from typing import List, Optional

import numpy as np

import repro.core as core
from repro import (GoodCenterConfig, GridDomain, OneClusterConfig,
                   PrivacyParams, resolve_backend)
from repro.accounting import BudgetExhaustedError
from repro.datasets import planted_cluster
from repro.neighbors import QueryPlan
from repro.sample_aggregate import (noisy_average_aggregator,
                                    private_mean_estimator)
from repro.service import (ClusteringService, JobStatus,
                           ServiceSaturatedError)

import hostspeed
import proc

#: Pool workers of locate-cold's sharded backends: never more than the 2
#: CPUs of the host the bounds were fixed on.
WORKERS = 2

#: ``num_workers=0``: the sharded backend's serial in-process path, which
#: runs the same shards and merges (and releases the same values) as a pool.
SERIAL = 0

# Seed-derivation keys: the same run seed gives the same inputs.
_DATA, _OPS, _WARM = range(3)


def derive(seed: int, *keys: int) -> int:
    """A 32-bit seed derived from the run seed and ``keys``."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def unit_domain(dimension: int) -> GridDomain:
    """The grid domain the solvers infer for data in the unit cube."""
    return GridDomain(dimension=dimension, side=OneClusterConfig().grid_side,
                      low=0.0, high=1.0)


def fingerprint(value):
    """Bitwise identity of a release: every float by its bit pattern,
    every array by its dtype, shape and bytes, dataclasses field by field."""
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            fingerprint(getattr(value, field.name))
            for field in dataclasses.fields(value))
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (tuple, list)):
        return tuple(fingerprint(item) for item in value)
    return repr(value)


def busy_time(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def on_grid(radius: float, domain: GridDomain) -> bool:
    """Whether a released radius is one of the domain's candidate radii."""
    return bool(np.isin(radius, domain.candidate_radii()))


class PoolCounters:
    """Fan-out, speculation and worker-CPU totals read from outside through
    ``pool_stats()`` and ``/proc`` (traced runs only)."""

    FIELDS = ("round_trips", "shard_tasks", "spec_hits", "spec_misses",
              "workers_cpu_s", "worker_wall_s")

    def __init__(self) -> None:
        self.totals = dict.fromkeys(self.FIELDS, 0.0)
        self.pids = set()

    def read(self, backend) -> dict:
        stats = backend.pool_stats()
        pids = ([int(worker["pid"]) for worker in stats["workers"]]
                if stats["parallel"] else [])
        self.pids.update(pids)
        stages = stats["speculation"].values()
        return {
            "round_trips": stats["fanouts"],
            "shard_tasks": stats["shard_tasks"],
            "spec_hits": sum(stage["hits"] for stage in stages),
            "spec_misses": sum(stage["misses"] for stage in stages),
            "workers_cpu_s": proc.cpu_seconds(pids),
            "slots": len(pids),
        }

    def add(self, before: Optional[dict], after: dict, wall: float) -> None:
        """Accumulate ``after - before`` (``before=None``: a fresh backend,
        whose counters started at zero) over ``wall`` seconds."""
        for field in self.FIELDS[:-1]:
            self.totals[field] += after[field] - (before or {}).get(field, 0)
        self.totals["worker_wall_s"] += wall * after["slots"]


@dataclasses.dataclass
class Window:
    """What one timed window measured."""

    # Every time below is host-speed corrected (see hostspeed.py).
    releases: List[float]     # seconds of each completed release
    latencies: List[float]    # seconds from due to completion, completed ops
    attempted: int
    failed: int               # exceptions and refusals (checks add later)
    busy_s: float             # time at least one release was running
    latency_limit_s: float
    parent_cpu_s: float
    peak_rss_mib: float
    extra: dict = dataclasses.field(default_factory=dict)


# ---------------------------------------------------------------------- #
# Closed loops
# ---------------------------------------------------------------------- #
class ClosedLoop:
    """One client: the next op starts when the previous one returns.

    Subclasses implement ``setup``/``teardown``, ``op(index) -> (result,
    wall)``, ``reference(index)`` (the same-seed release on the
    single-process ``chunked`` backend) and ``released_radius``.
    """

    name = ""
    latency_limit_s = 0.0
    single_cpu = True
    warm_backend = None

    def __init__(self, seed: int, tracer, counters: Optional[PoolCounters]):
        self.seed = seed
        self.tracer = tracer
        self.counters = counters
        self.results: list = []

    def teardown(self) -> None:
        if self.warm_backend is not None:
            self.warm_backend.close()

    def released_radius(self, result) -> Optional[float]:
        return None

    def run(self, seconds: float) -> Window:
        """Ops back to back for ``seconds``, with a host-speed reading
        between each two.  An op's factor is the mean of the readings on
        either side of it; its wall time is corrected by the median factor
        of the five ops around it, which damps one noisy reading and still
        follows the host's 10-30 s stretches."""
        walls, factors, failed = [], [], 0
        before = (self.counters.read(self.warm_backend)
                  if self.counters and self.warm_backend else None)
        cpu = time.process_time()
        start = time.perf_counter()
        speed = hostspeed.speed()
        while time.perf_counter() - start < seconds:
            try:
                result, wall = self.op(len(walls) + failed)
            except Exception:  # a failed op is counted, the loop goes on
                traceback.print_exc()
                failed += 1
                speed = hostspeed.speed()
                continue
            after = hostspeed.speed()
            self.results.append(result)
            walls.append(wall)
            factors.append((speed + after) / 2)
            speed = after
        elapsed = time.perf_counter() - start
        releases = [wall * statistics.median(factors[max(0, i - 2):i + 3])
                    for i, wall in enumerate(walls)]
        window = Window(
            releases=releases, latencies=list(releases),
            attempted=len(releases) + failed, failed=failed,
            busy_s=sum(releases), latency_limit_s=self.latency_limit_s,
            parent_cpu_s=time.process_time() - cpu,
            peak_rss_mib=proc.peak_rss_mib(), extra={"walls": walls},
        )
        if before is not None:
            self.counters.add(before, self.counters.read(self.warm_backend),
                              elapsed)
        return window

    def check(self, reference_ops: int = 1) -> tuple:
        """``(failures, reference walls)``: op 0 must equal its chunked
        reference bitwise and every released radius must lie on the
        candidate grid.  Further references are timed only."""
        failures = sum(
            1 for result in self.results
            if self.released_radius(result) is not None
            and not on_grid(self.released_radius(result), self.domain))
        walls = []
        for index in range(min(reference_ops, len(self.results))):
            speed = hostspeed.speed()
            start = time.perf_counter()
            reference = self.reference(index)
            wall = time.perf_counter() - start
            walls.append(wall * (speed + hostspeed.speed()) / 2)
            if index == 0 and fingerprint(reference) != fingerprint(
                    self.results[0]):
                print(f"{self.name}: op 0 differs from its chunked reference",
                      file=sys.stderr)
                failures += 1
        return failures, walls


class LocateCold(ClosedLoop):
    name = "locate-cold"
    latency_limit_s = 4.0
    single_cpu = False
    n, d = 3000, 16
    params = PrivacyParams(1.0, 1e-6)

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.domain = unit_domain(self.d)

    def _points(self, seed: int, n: int) -> np.ndarray:
        return planted_cluster(n=n, d=self.d, cluster_size=int(0.6 * n),
                               cluster_radius=0.05, rng=seed).points

    def _release(self, points, seed: int, backend):
        return core.one_cluster(points, points.shape[0] // 2, self.params,
                                domain=self.domain, rng=seed, backend=backend)

    def setup(self) -> None:
        # Nothing is shared between ops; warm the code paths once at a
        # fifth of the size so lazy imports stay out of the first op.
        seed = derive(self.seed, _WARM)
        points = self._points(seed, self.n // 5)
        backend = resolve_backend(points, "sharded",
                                  options={"num_workers": WORKERS})
        try:
            self._release(points, seed, backend)
        finally:
            backend.close()

    def op(self, index: int):
        seed = derive(self.seed, _OPS, index)
        start = time.perf_counter()
        points = self._points(seed, self.n)
        backend = resolve_backend(points, "sharded",
                                  options={"num_workers": WORKERS})
        try:
            result = self._release(points, seed, backend)
            released = time.perf_counter()
            reading = self.counters.read(backend) if self.counters else None
            closing = time.perf_counter()
        finally:
            backend.close()
        wall = released - start + time.perf_counter() - closing
        if reading is not None:
            self.counters.add(None, reading, wall)
        return result, wall

    def reference(self, index: int):
        seed = derive(self.seed, _OPS, index)
        points = self._points(seed, self.n)
        return self._release(points, seed, "chunked")

    def released_radius(self, result) -> float:
        return result.radius_result.radius


class CenterPlans(ClosedLoop):
    name = "center-plans"
    latency_limit_s = 2.5
    n, d, radius, shards = 20_000, 16, 0.05, 2
    params = PrivacyParams(1.0, 1e-6)
    config = GoodCenterConfig(jl_constant=0.3)

    def _release(self, seed: int, backend):
        return core.good_center(self.points, self.radius, self.n // 2,
                                self.params, config=self.config, rng=seed,
                                backend=backend)

    def setup(self) -> None:
        self.points = planted_cluster(
            n=self.n, d=self.d, cluster_size=int(0.6 * self.n),
            cluster_radius=self.radius, rng=derive(self.seed, _DATA)).points
        self.warm_backend = resolve_backend(
            self.points, "sharded",
            options={"num_workers": SERIAL, "num_shards": self.shards})
        self._release(derive(self.seed, _WARM), self.warm_backend)

    def op(self, index: int):
        start = time.perf_counter()
        result = self._release(derive(self.seed, _OPS, index),
                               self.warm_backend)
        return result, time.perf_counter() - start

    def reference(self, index: int):
        return self._release(derive(self.seed, _OPS, index),
                             resolve_backend(self.points, "chunked"))


class SaWide(ClosedLoop):
    name = "sa-wide"
    latency_limit_s = 6.0
    n, d, blocks, shards = 25_000, 512, 8, 32
    params = PrivacyParams(32.0, 1e-5)

    def setup(self) -> None:
        generator = np.random.default_rng(derive(self.seed, _DATA))
        self.data = generator.normal(0.5, 0.05, size=(self.n, self.d))
        self.warm_backend = resolve_backend(
            self.data, "sharded",
            options={"num_workers": SERIAL, "num_shards": self.shards})
        # Touch every shard once with one row per shard.
        plan = QueryPlan()
        plan.masked_sum(self.warm_backend.view(),
                        np.linspace(0, self.n, self.shards, endpoint=False,
                                    dtype=np.int64))
        self.warm_backend.execute(plan)

    def _release(self, seed: int, backend):
        aggregator = self.tracer.wrap(
            "sample_aggregate.aggregate",
            noisy_average_aggregator(clip_radius=1.0,
                                     center=np.full(self.d, 0.5)))
        with self.tracer.sample_aggregate():
            return private_mean_estimator(
                self.data, self.n // self.blocks, self.params, rng=seed,
                alpha=0.8, subsample_fraction=1.0, aggregator=aggregator,
                backend=backend)

    def op(self, index: int):
        start = time.perf_counter()
        result = self._release(derive(self.seed, _OPS, index),
                               self.warm_backend)
        return result, time.perf_counter() - start

    def reference(self, index: int):
        return self._release(derive(self.seed, _OPS, index),
                             resolve_backend(self.data, "chunked"))


# ---------------------------------------------------------------------- #
# Open loop
# ---------------------------------------------------------------------- #
@dataclasses.dataclass
class Query:
    due: float                # seconds after the window opens
    kind: str
    tenant: str
    dataset: str
    kwargs: dict
    sent: float = 0.0         # monotonic clock
    admit_s: float = 0.0
    job: object = None
    error: Optional[BaseException] = None


class ServiceMixed:
    """Open loop: queries arrive on a Poisson schedule whatever the service
    does, so a slower service builds a queue instead of receiving less load.

    Arrivals are a Poisson process at ``rate`` conditioned on exactly
    ``rate * seconds`` arrivals in the window (sorted uniform arrival
    times).  The schedule — arrival times, kinds in exact mix proportions,
    targets, datasets and tenants — is the same in every run: which query
    lands behind which decides the queueing, and which target follows which
    on a dataset how often its cached statistic is re-sorted; letting the
    seed reshuffle either swamps a short window.  The seed draws the
    datasets and every query's noise.
    """

    name = "service-mixed"
    latency_limit_s = 2.0
    single_cpu = True
    rate = 10.0
    n, d = 1200, 2
    # A 129-point-per-axis map grid: 364 candidate radii per profile.
    grid_side = 129
    params = PrivacyParams(1.0, 1e-6)
    cap = PrivacyParams(1e6, 0.5)   # sized never to refuse
    mix = (("good_radius", 0.4), ("one_cluster", 0.3),
           ("good_center", 0.2), ("outlier_screen", 0.1))
    target_fractions = (0.1, 0.25, 0.5)
    # good_center at a fixed radius is only feasible up to the hotspot's
    # share of the data; an infeasible target can run for minutes.
    center_target_fractions = (0.1, 0.25)
    center_radius = 0.08
    tenants = ("alice", "bob")
    # Dataset name -> its hotspot's centre.  The centres are fixed so the
    # seed varies the points, not the shape of the map.
    datasets = {"north": (0.35, 0.7), "south": (0.6, 0.3)}
    drain_timeout_s = 60.0
    #: In-window host-speed readings: seconds between them, loop iterations
    #: per reading (about 1.5 ms, well inside the interpreter's 5 ms switch
    #: interval, so an executor thread never preempts one), and how far
    #: either side of a query readings still count for it.
    speed_every_s = 0.1
    speed_iterations = 20_000
    speed_margin_s = 1.0

    def __init__(self, seed: int, tracer, counters) -> None:
        self.seed = seed
        self.tracer = tracer
        self.domain = GridDomain(dimension=self.d, side=self.grid_side,
                                 low=0.0, high=1.0)
        self.service = None
        self.queries: List[Query] = []

    def setup(self) -> None:
        self.points = {
            name: self._hotspot_map(center, derive(self.seed, _DATA, i))
            for i, (name, center) in enumerate(self.datasets.items())
        }
        self.service = ClusteringService()
        for name, points in self.points.items():
            self.service.register_dataset(name, points, backend="tree")
        for tenant in ("warmup",) + self.tenants:
            self.service.create_tenant(tenant, self.cap)
        # One outlier screen per dataset fills its statistic cache (t=0.9n
        # covers every later target).
        warmups = [self.service.outlier_screen(
                       "warmup", name, params=self.params, domain=self.domain,
                       rng=derive(self.seed, _WARM, i))
                   for i, name in enumerate(self.datasets)]
        for job in warmups:
            job.result()

    def _hotspot_map(self, center, seed: int) -> np.ndarray:
        """Uniform background over the unit square plus a Gaussian hotspot
        holding 30% of the points."""
        generator = np.random.default_rng(seed)
        hot = int(0.3 * self.n)
        points = np.vstack([
            generator.uniform(0.0, 1.0, size=(self.n - hot, self.d)),
            np.clip(generator.normal(center, 0.03, size=(hot, self.d)),
                    0.0, 1.0),
        ])
        return points[generator.permutation(self.n)]

    def teardown(self) -> None:
        if self.service is not None:
            self.service.close()

    def schedule(self, seconds: float) -> List[Query]:
        generator = np.random.default_rng(0)  # the same sequence every run
        count = max(1, round(self.rate * seconds))
        exact = [share * count for _, share in self.mix]
        quota = [int(value) for value in exact]
        by_remainder = sorted(range(len(exact)),
                              key=lambda j: quota[j] - exact[j])
        for j in by_remainder[:count - sum(quota)]:
            quota[j] += 1
        kinds = [kind for (kind, _), q in zip(self.mix, quota)
                 for _ in range(q)]
        generator.shuffle(kinds)
        due = np.sort(generator.uniform(0.0, seconds, size=count))
        targets = {}
        for kind, _ in self.mix:
            options = (self.center_target_fractions
                       if kind == "good_center" else self.target_fractions)
            cycle = [options[i % len(options)] for i in range(count)]
            generator.shuffle(cycle)
            targets[kind] = iter(cycle)
        queries = []
        for index, kind in enumerate(kinds):
            kwargs = {"params": self.params,
                      "rng": derive(self.seed, _OPS, index)}
            if kind != "good_center":
                kwargs["domain"] = self.domain
            if kind == "good_center":
                kwargs["radius"] = self.center_radius
            if kind != "outlier_screen":
                kwargs["target"] = int(next(targets[kind]) * self.n)
            queries.append(Query(due=float(due[index]), kind=kind,
                                 tenant=self.tenants[index // 2 % 2],
                                 dataset=list(self.datasets)[index % 2],
                                 kwargs=kwargs))
        return queries

    def _generate(self, opened: float) -> None:
        for query in self.queries:
            delay = opened + query.due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            query.sent = time.monotonic()
            kwargs = dict(query.kwargs)
            params = kwargs.pop("params")
            try:
                query.job = self.service.submit(query.tenant, query.dataset,
                                                query.kind, params, **kwargs)
            except (ServiceSaturatedError, BudgetExhaustedError) as error:
                query.error = error
            except Exception as error:  # recorded as a failed query
                traceback.print_exc()
                query.error = error
            query.admit_s = time.monotonic() - query.sent

    def _pending(self, generator: threading.Thread) -> bool:
        return generator.is_alive() or any(
            query.job is not None and not query.job.done()
            for query in self.queries)

    def run(self, seconds: float) -> Window:
        """The schedule, sent from one generator thread, while this thread
        reads the host speed every ``speed_every_s``.  Each query's times
        are corrected by the median reading over its own interval widened
        by ``speed_margin_s``."""
        self.queries = self.schedule(seconds)
        cpu = time.process_time()
        opened = time.monotonic()
        generator = threading.Thread(target=self._generate, args=(opened,),
                                     name="perfbench-loadgen", daemon=True)
        generator.start()
        deadline = opened + seconds + self.drain_timeout_s
        stamps, speeds = [], []
        while self._pending(generator) and time.monotonic() < deadline:
            stamps.append(time.monotonic())
            speeds.append(hostspeed.speed(self.speed_iterations))
            time.sleep(self.speed_every_s)
        parent_cpu_s = time.process_time() - cpu
        stamps = np.array(stamps)

        def corrected(start: float, end: float) -> float:
            low, high = np.searchsorted(stamps, [start - self.speed_margin_s,
                                                 end + self.speed_margin_s])
            return (end - start) * float(np.median(speeds[low:high]))

        done = [q for q in self.queries
                if q.job is not None and q.job.status is JobStatus.DONE]
        walls = [q.job.finished_at - q.job.started_at for q in done]
        releases = [corrected(q.job.started_at, q.job.finished_at)
                    for q in done]
        return Window(
            releases=releases,
            latencies=[corrected(opened + q.due, q.job.finished_at)
                       for q in done],
            attempted=len(self.queries),
            failed=len(self.queries) - len(done),
            busy_s=sum(releases) * busy_time(
                [(q.job.started_at, q.job.finished_at) for q in done])
            / sum(walls),
            latency_limit_s=self.latency_limit_s,
            parent_cpu_s=parent_cpu_s,
            peak_rss_mib=proc.peak_rss_mib(),
            extra={"opened": opened, "done": done, "walls": walls},
        )

    def ledger_spend(self) -> dict:
        """Per tenant: (ledger stats, admitted queries) for the window."""
        return {tenant: (self.service.tenant(tenant).stats(),
                         [q for q in self.queries
                          if q.tenant == tenant and q.job is not None])
                for tenant in self.tenants}

    def check(self, spend: dict) -> int:
        """Failed checks: each tenant's ledger spend must equal its
        admitted queries' parameters, every released radius must lie on the
        candidate grid, and the first query of each kind must equal the
        same-seed direct library call bitwise."""
        failures = 0
        for tenant, (stats, admitted) in spend.items():
            spent = stats["spent"] or {"epsilon": 0.0, "delta": 0.0}
            if (stats["queries"] != len(admitted)
                    or not np.isclose(spent["epsilon"], sum(
                        q.kwargs["params"].epsilon for q in admitted),
                        rtol=1e-12, atol=0.0)
                    or not np.isclose(spent["delta"], sum(
                        q.kwargs["params"].delta for q in admitted),
                        rtol=1e-12, atol=0.0)):
                print(f"{self.name}: ledger of {tenant} disagrees with its "
                      "admitted queries", file=sys.stderr)
                failures += 1
        checked = set()
        for query in self.queries:
            if query.job is None or query.job.status is not JobStatus.DONE:
                continue
            result = query.job.result()
            radius = self._released_radius(query.kind, result)
            if radius is not None and not on_grid(radius, self.domain):
                failures += 1
            if query.kind in checked:
                continue
            checked.add(query.kind)
            if fingerprint(self._direct(query)) != fingerprint(result):
                print(f"{self.name}: {query.kind} differs from the direct "
                      "library call", file=sys.stderr)
                failures += 1
        return failures

    def _direct(self, query: Query):
        from repro.clustering import outlier_ball

        solvers = {"good_radius": core.good_radius,
                   "good_center": core.good_center,
                   "one_cluster": core.one_cluster,
                   "outlier_screen": outlier_ball}
        return solvers[query.kind](self.points[query.dataset],
                                   backend="tree", **query.kwargs)

    @staticmethod
    def _released_radius(kind: str, result) -> Optional[float]:
        if kind == "good_radius":
            return result.radius
        if kind == "one_cluster":
            return result.radius_result.radius
        if kind == "outlier_screen":
            return result.result.radius_result.radius
        return None


WORKLOADS = {cls.name: cls
             for cls in (LocateCold, CenterPlans, ServiceMixed, SaWide)}
