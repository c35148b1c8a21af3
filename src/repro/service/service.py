"""The multi-tenant clustering service front door.

:class:`ClusteringService` composes the pieces this repo already has —
solvers (`good_radius`/`good_center`/`one_cluster`/`k_cluster`/
`outlier_ball`), pluggable :class:`~repro.neighbors.base.NeighborBackend`
strategies, and privacy accounting — into one long-lived object a server
process would embed:

* **Datasets are resident.**  :meth:`~ClusteringService.register_dataset`
  builds (or adopts) a backend once; every subsequent query runs on it and
  reuses its warm caches and live pools, and ``k_cluster`` runs each
  iteration after its first released ball on a row subset of it (see
  :mod:`repro.service.registry`).
* **Budgets are enforced.**  Each tenant holds a
  :class:`~repro.accounting.budget.BudgetedLedger`; a query is debited
  *at admission*, atomically, and a query that would exceed the tenant's
  cap raises :class:`~repro.accounting.budget.BudgetExhaustedError` at
  submit time — before it ever touches the data.
* **Requests are queued.**  Each dataset has one bounded FIFO queue and
  one executor thread; a submit returns a
  :class:`~repro.service.jobs.JobHandle` (``queued → running →
  done | failed``).  When the queue is full the admission charge is rolled
  back (the query provably never ran) and
  :class:`ServiceSaturatedError` is raised.

Why one executor thread per dataset
-----------------------------------
Backend instances are deliberately *not* thread-safe (truncated-distance
caches, speculation state, view caches, pool counters — all unlocked hot
paths), so the service serialises queries per dataset and gets its
concurrency from two other places: distinct datasets execute on distinct
threads, and a single query already fans out across the backend's own
worker pool (or node cluster).  Serial-per-dataset execution is also what
makes the parity guarantee trivial to state: a release produced through the
service is *bitwise identical* to the same-seed direct library call,
because it IS the same call — same points object, same backend instance,
same RNG consumption, with nothing else interleaved on that backend.
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Callable, Dict, Optional

from repro.accounting import BudgetedLedger, PrivacyParams
from repro.clustering import k_cluster, outlier_ball
from repro.core import good_center, good_radius, one_cluster
from repro.neighbors import BackendLike
from repro.service.jobs import JobHandle
from repro.service.registry import DatasetRegistry, RegisteredDataset

#: Default bound on each dataset's request queue.
DEFAULT_MAX_QUEUE = 32

#: Query kinds → solver callables.  Module-level (not closed over) so the
#: test suite can substitute a blocking solver to pin queue-saturation
#: behaviour without monkeypatching service internals.
_SOLVERS: Dict[str, Callable[..., Any]] = {
    "good_radius": good_radius,
    "good_center": good_center,
    "one_cluster": one_cluster,
    "k_cluster": k_cluster,
    "outlier_screen": outlier_ball,
}


class ServiceSaturatedError(RuntimeError):
    """A request was refused because the dataset's queue was full.

    The admission charge is rolled back before this is raised: a saturated
    queue costs the tenant nothing.
    """

    def __init__(self, dataset: str, depth: int) -> None:
        self.dataset = dataset
        self.depth = depth
        super().__init__(
            f"request queue for dataset {dataset!r} is full "
            f"({depth} pending); retry later or raise max_queue"
        )


class _WorkerStoppedError(RuntimeError):
    """A submit raced :meth:`_DatasetWorker.stop`: the dataset was
    unregistered (or the service closed) between the worker lookup and the
    enqueue.  Internal — the service translates it into the same ``KeyError``
    an up-front missing-dataset lookup raises, after rolling the admission
    charge back."""


class _DatasetWorker:
    """One bounded FIFO queue + one executor thread for one dataset."""

    _SENTINEL = None

    def __init__(self, name: str, max_queue: int) -> None:
        self.name = name
        self.queue: "queue.Queue" = queue.Queue(maxsize=max_queue)
        self.executed = 0
        self.failed = 0
        # Guards `stopped` against `submit`: once stop() flips it, no new
        # job can land in the queue, so stop()'s drain is exhaustive — a job
        # enqueued after the drain would never run and its handle would
        # block its waiter forever.
        self._state_lock = threading.Lock()
        self.stopped = False
        self._thread = threading.Thread(
            target=self._run, daemon=True, name=f"repro-service-{name}"
        )
        self._thread.start()

    def submit(self, job: JobHandle, thunk: Callable[[], Any]) -> None:
        """Enqueue without blocking.  ``queue.Full`` (queue saturated) and
        :class:`_WorkerStoppedError` (stop() already ran or is draining)
        propagate to the service, which rolls the admission charge back."""
        with self._state_lock:
            if self.stopped:
                raise _WorkerStoppedError(self.name)
            self.queue.put_nowait((job, thunk))

    def _run(self) -> None:
        while True:
            item = self.queue.get()
            if item is self._SENTINEL:
                break
            job, thunk = item
            job._mark_running()
            try:
                result = thunk()
            except BaseException as error:  # noqa: BLE001 - travels to caller
                self.failed += 1
                job._fail(error)
            else:
                self.executed += 1
                job._finish(result)

    def stop(self) -> None:
        """Stop after the in-flight query; fail anything still queued."""
        with self._state_lock:
            self.stopped = True
        # From here no submit can enqueue, so everything the drain below
        # sees is everything that will ever exist.
        self.queue.put(self._SENTINEL)
        self._thread.join()
        # Whatever is still queued ran after the sentinel was consumed —
        # never.  Fail those handles so their waiters wake up.
        while True:
            try:
                item = self.queue.get_nowait()
            except queue.Empty:
                break
            if item is self._SENTINEL:
                continue
            job, _ = item
            job._fail(RuntimeError(
                f"dataset {self.name!r} was unregistered before job "
                f"{job.job_id} ran"
            ))


class ClusteringService:
    """Multi-tenant, budget-enforcing clustering-as-a-service front door.

    Parameters
    ----------
    max_queue:
        Bound on each dataset's pending-request queue (per dataset, not
        global).

    Examples
    --------
    >>> service = ClusteringService()
    >>> service.register_dataset("demo", points, backend="chunked")
    >>> service.create_tenant("alice", PrivacyParams(2.0, 1e-6))
    >>> job = service.good_radius("alice", "demo", target=900,
    ...                           params=PrivacyParams(0.5, 1e-7), rng=7)
    >>> job.result().radius
    """

    def __init__(self, max_queue: int = DEFAULT_MAX_QUEUE) -> None:
        if max_queue < 1:
            raise ValueError(f"max_queue must be positive, got {max_queue}")
        self._max_queue = int(max_queue)
        self._registry = DatasetRegistry()
        self._workers: Dict[str, _DatasetWorker] = {}
        self._tenants: Dict[str, BudgetedLedger] = {}
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------ #
    # Datasets
    # ------------------------------------------------------------------ #
    def register_dataset(self, name: str, points,
                         backend: BackendLike = None,
                         options: Optional[dict] = None) -> RegisteredDataset:
        """Make a dataset resident: validate, build/adopt its backend, and
        start its executor.  See :meth:`DatasetRegistry.register`."""
        self._check_open()
        entry = self._registry.register(name, points, backend=backend,
                                        options=options)
        with self._lock:
            # Re-check under the lock close() sets _closed with: the early
            # _check_open is advisory, and losing the race here would leak
            # a live executor thread plus a backend close() never sees.
            lost_close_race = self._closed
            if not lost_close_race:
                self._workers[entry.name] = _DatasetWorker(entry.name,
                                                           self._max_queue)
        if lost_close_race:
            try:
                self._registry.unregister(entry.name)
            except KeyError:
                pass  # close()'s close_all() already dropped (and closed) it
            raise RuntimeError("the service is closed")
        return entry

    def unregister_dataset(self, name: str) -> None:
        """Stop the dataset's executor (failing still-queued jobs) and
        deterministically close its backend (if service-owned)."""
        with self._lock:
            worker = self._workers.pop(name, None)
        if worker is not None:
            worker.stop()
        self._registry.unregister(name)

    def datasets(self):
        """Sorted registered dataset names."""
        return self._registry.names()

    # ------------------------------------------------------------------ #
    # Tenants
    # ------------------------------------------------------------------ #
    def create_tenant(self, name: str, cap: PrivacyParams,
                      composition: str = "basic",
                      delta_prime: Optional[float] = None) -> BudgetedLedger:
        """Create a tenant with an enforced ``(epsilon, delta)`` budget.

        See :class:`~repro.accounting.budget.BudgetedLedger` for the
        composition/``delta_prime`` semantics.
        """
        self._check_open()
        name = str(name)
        if not name:
            raise ValueError("tenant name must be non-empty")
        ledger = BudgetedLedger(cap, composition=composition,
                                delta_prime=delta_prime, tenant=name)
        with self._lock:
            if name in self._tenants:
                raise ValueError(f"tenant {name!r} already exists")
            self._tenants[name] = ledger
        return ledger

    def tenant(self, name: str) -> BudgetedLedger:
        """The tenant's budget ledger (``KeyError`` when unknown)."""
        with self._lock:
            try:
                return self._tenants[name]
            except KeyError:
                known = sorted(self._tenants)
                raise KeyError(
                    f"no tenant named {name!r}; known: {known}"
                ) from None

    def tenants(self):
        """Sorted tenant names."""
        with self._lock:
            return sorted(self._tenants)

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(self, tenant: str, dataset: str, kind: str,
               params: PrivacyParams, **kwargs) -> JobHandle:
        """Admit one query: charge the tenant's budget, enqueue, return a
        :class:`JobHandle`.

        The sequence is *validate → charge → enqueue*: anything wrong with
        the request (unknown tenant/dataset/kind, reserved kwargs) raises
        before the tenant is charged, and a full queue rolls the charge
        back — a tenant only ever pays for queries that will run.

        Parameters
        ----------
        tenant, dataset:
            Names previously passed to :meth:`create_tenant` /
            :meth:`register_dataset`.
        kind:
            One of ``good_radius``, ``good_center``, ``one_cluster``,
            ``k_cluster``, ``outlier_screen``.
        params:
            The query's total privacy cost — forwarded to the solver AND
            debited from the tenant's budget.
        **kwargs:
            Solver keyword arguments (``target=``, ``radius=``, ``rng=``,
            ``config=``, ...).  ``points``, ``backend``, and
            ``params`` are supplied by the service and rejected here.
        """
        self._check_open()
        ledger = self.tenant(tenant)
        entry = self._registry.get(dataset)
        with self._lock:
            worker = self._workers.get(dataset)
        if worker is None:  # unregister raced the lookup
            raise KeyError(f"no dataset registered as {dataset!r}")
        thunk = self._build_thunk(entry, kind, params, kwargs)
        receipt = ledger.charge(f"service:{kind}", params,
                                note=f"dataset={dataset}")
        job = JobHandle(tenant=tenant, dataset=dataset, kind=kind)
        try:
            worker.submit(job, thunk)
        except queue.Full:
            # Roll back by receipt: another thread may have charged this
            # tenant between our charge and here, so "pop the latest" could
            # refund a *different* (possibly larger) spend and let the
            # ledger under-record a query that actually runs.
            ledger.rollback(receipt)
            raise ServiceSaturatedError(dataset, self._max_queue) from None
        except _WorkerStoppedError:
            # unregister/close raced the enqueue; the query never ran.
            ledger.rollback(receipt)
            raise KeyError(f"no dataset registered as {dataset!r}") from None
        return job

    def _build_thunk(self, entry: RegisteredDataset, kind: str,
                     params: PrivacyParams, kwargs: dict) -> Callable[[], Any]:
        """Bind a solver call to the resident dataset.

        Every kind runs against ``entry.backend`` (the solvers never close
        a caller's instance, so the backend stays warm across queries);
        ``k_cluster`` runs each iteration after its first released ball on
        a subset of it.
        """
        if kind not in _SOLVERS:
            raise ValueError(
                f"unknown query kind {kind!r}; expected one of "
                f"{sorted(_SOLVERS)}"
            )
        for reserved in ("points", "backend", "params"):
            if reserved in kwargs:
                raise TypeError(
                    f"{reserved!r} is supplied by the service; it cannot be "
                    "overridden per query"
                )
        solver = _SOLVERS[kind]
        return lambda: solver(entry.points, params=params,
                              backend=entry.backend, **kwargs)

    # -- named wrappers ------------------------------------------------- #
    def good_radius(self, tenant: str, dataset: str, *, target: int,
                    params: PrivacyParams, **kwargs) -> JobHandle:
        """Submit a GoodRadius query (Algorithm 1)."""
        return self.submit(tenant, dataset, "good_radius", params,
                           target=target, **kwargs)

    def good_center(self, tenant: str, dataset: str, *, radius: float,
                    target: int, params: PrivacyParams,
                    **kwargs) -> JobHandle:
        """Submit a GoodCenter query (Algorithm 2)."""
        return self.submit(tenant, dataset, "good_center", params,
                           radius=radius, target=target, **kwargs)

    def one_cluster(self, tenant: str, dataset: str, *, target: int,
                    params: PrivacyParams, **kwargs) -> JobHandle:
        """Submit a full 1-cluster query (radius + centre)."""
        return self.submit(tenant, dataset, "one_cluster", params,
                           target=target, **kwargs)

    def k_cluster(self, tenant: str, dataset: str, *, k: int,
                  params: PrivacyParams, **kwargs) -> JobHandle:
        """Submit a k-ball covering query (iterated 1-cluster)."""
        return self.submit(tenant, dataset, "k_cluster", params,
                           k=k, **kwargs)

    def outlier_screen(self, tenant: str, dataset: str, *,
                       params: PrivacyParams, **kwargs) -> JobHandle:
        """Submit an outlier-screening query (1-cluster at n*fraction)."""
        return self.submit(tenant, dataset, "outlier_screen", params,
                           **kwargs)

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #
    def service_stats(self) -> dict:
        """One JSON-friendly snapshot: per-dataset queue depth + engine
        pool counters, per-tenant spend/remaining/refusals."""
        datasets = {}
        for name in self._registry.names():
            try:
                entry = self._registry.get(name)
            except KeyError:  # unregistered between names() and get()
                continue
            with self._lock:
                worker = self._workers.get(name)
            info = entry.describe()
            info["queue_depth"] = 0 if worker is None else worker.queue.qsize()
            info["executed"] = 0 if worker is None else worker.executed
            info["failed"] = 0 if worker is None else worker.failed
            pool_stats = getattr(entry.backend, "pool_stats", None)
            info["pool"] = None if pool_stats is None else pool_stats()
            datasets[name] = info
        with self._lock:
            tenants = dict(self._tenants)
        return {
            "datasets": datasets,
            "tenants": {name: ledger.stats()
                        for name, ledger in sorted(tenants.items())},
        }

    def close(self) -> None:
        """Stop every executor and close every service-owned backend
        (idempotent).  In-flight queries finish; queued ones fail."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers, self._workers = list(self._workers.values()), {}
        for worker in workers:
            worker.stop()
        self._registry.close_all()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("the service is closed")

    def __enter__(self) -> "ClusteringService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["ClusteringService", "ServiceSaturatedError", "DEFAULT_MAX_QUEUE"]
