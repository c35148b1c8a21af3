"""Distributed backend: shards answered by remote node servers over TCP.

:class:`DistributedBackend` is the coordinator side of a master/node split
(the shape of clusterz's ``DistributedKZCenter`` driving one
``DistQueryOracle`` per machine): it subclasses
:class:`~repro.neighbors.sharded.ShardedBackend` and keeps *everything*
above the transport — the plan compiler, the selection/view wire specs,
the deterministic shard-order merge folds, the bounded heaviest-cell
merge, the plan future and the shard waves — overriding only the
transport seam ``_dispatch`` (and the wave size): instead of handing
``(shard, payload)`` tasks to local worker processes, it groups them by
owning node (``shard % num_nodes`` while every node lives; see below for
failover) and ships each node's batch as one ``shard_tasks`` RPC over a
pipelined socket (the :mod:`repro.neighbors.rpc` framing).  Each node
hosts a node-local ``ShardedBackend`` over the *same* dataset with the
*same* global shard bounds, so a task for shard ``s`` computes bitwise
the same partial no matter which machine answers it — and because
partials are folded in shard order by the shared ``_merge_*`` code, every
released value is bitwise identical whether shards live in threads,
processes, or sockets (the loopback parity suite pins exactly this
across 1/2/3-node topologies).

Dataset placement: ``init`` ships the full ``(n, d)`` array to every node
once, at construction.  That is deliberate — the truncated statistic and
the streaming histograms measure one shard's rows against *all* points, so
the node needs the full dataset anyway; what is sharded is the expensive
state (per-shard indexes, cached view images, memoised selections) and
the work.  Nodes only ever receive tasks for the shards assigned to them,
so with ``W`` workers per node each machine builds indexes for its
``num_shards / num_nodes`` shards and nothing else.

Failure semantics — failover (``retries > 0``, the default): full
replication means *any* node can recompute *any* shard bit-for-bit, so
node death is purely a dispatch-layer concern.  When a node's transport
fails (dropped connection, timeout, dead process), the coordinator
re-dials it — bounded attempts with exponential backoff, replaying
``init`` on the fresh connection because the server builds per-connection
state — and, if the node stays dead, permanently re-assigns its shards to
the next live node in ring order and replays *only the failed node's task
batch* on the adopters.  Tasks whose replies already arrived are never
re-run (each node's batch reply is one atomic frame, so a batch either
fully arrived or not at all), and replayed tasks produce bitwise the same
partials on any node, so the shard-order merges are exact: a release with
a node killed mid-run is byte-identical to the healthy-topology release.
``pool_stats()`` counts ``redials``, ``adopted_shards``, and
``replayed_tasks``.

With ``retries=0`` failover is off and the original fail-fast contract
holds bit-for-bit: any transport failure raises
:class:`~repro.neighbors.base.BackendUnavailableError`, the affected
connection stays poisoned, and **no partial merge is ever returned** (a
release computed from a subset of shards would be silently wrong).  Even
with failover on, exhaustion — every node dead, or a collective burning
through its failure budget — raises the same clean error with no partial
merge.
"""

from __future__ import annotations

import math
import time
from typing import Callable, ClassVar, List, Optional, Sequence, Tuple

from repro import kernels as _kernels
from repro.neighbors.base import BackendUnavailableError
from repro.neighbors.rpc import NodeClient, PendingReply, parse_node_address
from repro.neighbors.sharded import ShardedBackend
from repro.utils.validation import check_integer

__all__ = ["DistributedBackend"]


def _check_timeout(value, name: str) -> Optional[float]:
    """``None``, or a finite number of seconds above 0, as a float."""
    if value is None:
        return None
    if isinstance(value, bool):
        raise TypeError(f"{name} must be a number of seconds or None, "
                        "got bool")
    value = float(value)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a finite number of seconds above "
                         f"0, or None; got {value}")
    return value


class _NodeBatches:
    """The node transport's handle for one batch of ``(shard, payload)``
    tasks (see :meth:`DistributedBackend._dispatch`): one pipelined
    ``shard_tasks`` RPC per owning node, already written to every socket.

    :meth:`result` drains the replies through the backend's recovery path —
    a node dying mid-batch is re-dialed or its shards adopted and only its
    share replayed — and returns the results in task order.  An
    unrecoverable failure raises :class:`BackendUnavailableError` before
    any caller merges, so there is no partial result to leak.
    """

    def __init__(self, backend: "DistributedBackend",
                 tasks: Sequence[tuple]) -> None:
        self._backend = backend
        self._tasks = list(tasks)
        self._guard = backend._failure_guard()
        #: ``[(node, [task_index, ...], PendingReply), ...]``
        self._batches = backend._send_batches(self._tasks,
                                              range(len(self._tasks)),
                                              self._guard)
        self._results: Optional[list] = None

    def done(self) -> bool:
        """Whether every node's reply has arrived."""
        return (self._results is not None
                or all(pending.done() for _, _, pending in self._batches))

    def result(self) -> list:
        """Block for the node replies (recovering failed nodes); the
        results in task order."""
        if self._results is None:
            self._results = self._backend._drain_batches(
                self._tasks, self._batches, self._guard
            )
            self._batches = []
        return self._results


class DistributedBackend(ShardedBackend):
    """Shards answered by remote node servers; merges exactly, like local.

    Parameters
    ----------
    points:
        ``(n, d)`` dataset.  Shipped to every node once at construction
        (see the module docstring for why full replication is the right
        trade here).
    nodes:
        The node servers, as ``"host:port"`` / ``"[ipv6]:port"`` strings
        or ``(host, port)`` pairs — one ``python -m repro.neighbors.serve``
        per entry.
    num_shards:
        Global shard count, identical on every node.  Defaults to
        ``num_nodes * max(1, node_workers)`` so each node's worker slots
        all receive work.
    node_workers:
        Worker processes each node's local pool starts (``0`` = the node
        answers serially in its connection thread; a ``--workers`` flag on
        the server overrides this).  Default 0.
    timeout:
        Per-call read timeout in seconds (``None`` = wait forever), as an
        overall deadline across a call's pipelined replies.  When a node
        exceeds it, the call fails over (or raises with ``retries=0``).
        A finite number above 0, or ``None``.
    connect_timeout:
        Socket connect timeout for the initial dial and every re-dial; a
        finite number above 0, or ``None``.
    retries:
        Re-dial attempts per node failure before the node is declared dead
        and its shards are adopted by the surviving nodes.  ``0`` disables
        failover entirely: the first transport failure raises
        :class:`BackendUnavailableError` (the pre-failover fail-fast
        contract, preserved bit-for-bit).  Default 2.
    retry_backoff:
        Base sleep before re-dial attempt ``i`` (``retry_backoff * 2**i``
        seconds, exponential); finite and non-negative.  Default 0.1.

    Every setting is checked before any node is dialed.
    """

    name = "distributed"

    #: Plans are pipelined onto every node's socket at submit time, so
    #: speculative plans genuinely overlap the coordinator's other work.
    supports_speculation: ClassVar[bool] = True

    #: Budget for the pre-adoption health probe of a surviving node.
    PING_TIMEOUT: ClassVar[float] = 5.0

    def __init__(self, points, nodes: Sequence, num_shards: Optional[int] = None,
                 node_workers: int = 0, timeout: Optional[float] = None,
                 connect_timeout: Optional[float] = 10.0,
                 retries: int = 2, retry_backoff: float = 0.1) -> None:
        addresses = [parse_node_address(node) for node in nodes]
        if not addresses:
            raise ValueError("DistributedBackend requires at least one node")
        retries = check_integer(retries, "retries", minimum=0)
        retry_backoff = float(retry_backoff)
        if not (math.isfinite(retry_backoff) and retry_backoff >= 0):
            raise ValueError(
                f"retry_backoff must be finite and non-negative, got "
                f"{retry_backoff}"
            )
        timeout = _check_timeout(timeout, "timeout")
        connect_timeout = _check_timeout(connect_timeout, "connect_timeout")
        node_workers = check_integer(node_workers, "node_workers", minimum=0)
        if num_shards is None:
            num_shards = len(addresses) * max(1, node_workers)
        options = dict(nodes=addresses, num_shards=num_shards,
                       node_workers=node_workers, timeout=timeout,
                       connect_timeout=connect_timeout, retries=retries,
                       retry_backoff=retry_backoff)
        # num_workers=0: the coordinator never starts a local pool, and
        # its _dispatch sends every task over the wire, so its own shard
        # set never runs one.
        super().__init__(points, num_shards=num_shards, num_workers=0)
        # subset() rebuilds this strategy, not the sharded one it extends.
        self._options = options
        self._timeout = timeout
        self._connect_timeout = connect_timeout
        self._retries = retries
        self._retry_backoff = retry_backoff
        self._node_workers = max(1, node_workers)
        self._closed = False
        self._stats.update({"redials": 0, "adopted_shards": 0,
                            "replayed_tasks": 0})
        self._clients: List[NodeClient] = []
        self._live: List[bool] = []
        try:
            for host, port in addresses:
                self._clients.append(
                    NodeClient(host, port, connect_timeout=connect_timeout,
                               timeout=timeout)
                )
            self._live = [True] * len(self._clients)
            self._init_request = ("init", self._points, self.num_shards,
                                  node_workers)
            # Pipelined: every node deserialises the dataset and builds its
            # backend concurrently, then the replies are drained in order.
            pendings = [client.send(self._init_request)
                        for client in self._clients]
            for node, pending in enumerate(pendings):
                self._check_init_reply(node, pending.wait())
        except BaseException:
            for client in self._clients:
                client.close()
            raise

    # ------------------------------------------------------------------ #
    # Topology
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        """How many node servers this backend was built over (dead ones
        included — the slot stays, its shards move)."""
        return len(self._clients)

    @property
    def node_addresses(self) -> List[str]:
        """The ``host:port`` of every node, in shard-assignment order."""
        return [f"{client.address[0]}:{client.address[1]}"
                for client in self._clients]

    @property
    def live_nodes(self) -> List[int]:
        """Indices of the nodes still serving shards."""
        return [node for node, live in enumerate(self._live) if live]

    @property
    def parallel(self) -> bool:
        """Remote dispatch is always 'parallel' in the sense that matters
        here: tasks leave the coordinator process."""
        return True

    def _node_for(self, shard: int) -> int:
        """The node currently owning ``shard``.

        While every node lives this is the fixed ``shard % num_nodes``
        assignment (like the local shard→worker-slot affinity: each
        shard's index and caches are built on exactly one machine).  When
        the home node is dead, the shard is adopted by the **next live
        node in ring order** — a deterministic rule, so the same survivor
        set always yields the same shard map (and therefore the same
        batching, the same replies, and bitwise the same merges).
        """
        count = len(self._clients)
        home = shard % count
        for step in range(count):
            node = (home + step) % count
            if self._live[node]:
                return node
        raise BackendUnavailableError(
            "every node of the distributed backend is dead"
        )

    def _rebuild(self, points) -> "DistributedBackend":
        """:meth:`subset` dials only the nodes still serving (a node
        declared dead would fail the new backend's ``init``), with the same
        shard count."""
        nodes = [self._options["nodes"][node] for node in self.live_nodes]
        return type(self)(points, **dict(self._options, nodes=nodes))

    def shard_owners(self) -> List[int]:
        """The current shard → node map (diagnostics; deterministic in the
        survivor set)."""
        return [self._node_for(shard) for shard in range(self.num_shards)]

    def _check_init_reply(self, node: int, reply) -> dict:
        """Unwrap + validate one node's ``init`` reply."""
        value = self._node_value(node, reply)
        if int(value["num_shards"]) != self.num_shards:
            raise BackendUnavailableError(
                f"node {self.node_addresses[node]} built "
                f"{value['num_shards']} shards, expected {self.num_shards}"
            )
        return value

    def _node_value(self, node: int, reply) -> object:
        """Unwrap one node reply, translating error replies."""
        if not isinstance(reply, dict) or "status" not in reply:
            raise BackendUnavailableError(
                f"node {self.node_addresses[node]} sent a malformed reply"
            )
        if reply["status"] != "ok":
            raise RuntimeError(
                f"node {self.node_addresses[node]} failed: "
                f"{reply.get('error')}\n{reply.get('traceback', '')}"
            )
        return reply["value"]

    # ------------------------------------------------------------------ #
    # Failover
    # ------------------------------------------------------------------ #
    def _recover_or_adopt(self, node: int, error: BaseException) -> None:
        """Bring a failed node back, or hand its shards to the survivors.

        Re-dials the node up to ``retries`` times (exponential backoff),
        replaying ``init`` on each fresh connection since the server keeps
        per-connection state.  If every attempt fails, the node is
        declared dead: its shards move to the next live node in ring order
        for the remainder of the backend's life.  Returning normally means
        the caller may re-send the failed batch to the (possibly updated)
        owners; with ``retries=0`` — or after ``close()`` — the original
        error is re-raised instead, preserving the fail-fast contract.
        """
        if self._closed or self._retries <= 0:
            raise error
        if not self._live[node]:
            return  # already adopted; the owner map has moved on
        client = self._clients[node]
        for attempt in range(self._retries):
            if self._retry_backoff > 0.0:
                time.sleep(self._retry_backoff * (2.0 ** attempt))
            try:
                client.redial(self._connect_timeout)
                self._check_init_reply(node,
                                       client.send(self._init_request).wait())
            except (BackendUnavailableError, RuntimeError, OSError):
                continue
            self._stats["redials"] += 1
            return
        self._declare_dead(node)

    def _declare_dead(self, node: int) -> None:
        """Mark a node dead and move its shards to the survivors.

        Raises :class:`BackendUnavailableError` when no live node remains
        (nothing can adopt, and a partial merge is never an option).  The
        survivors that will adopt are health-probed with a cheap ``ping``
        first — except those with replies already in flight, which prove
        their liveness when the caller drains them — so a silently-dead
        adopter is discovered now, not mid-batch.
        """
        if not self._live[node]:
            return
        adopted = sum(1 for shard in range(self.num_shards)
                      if self._node_for(shard) == node)
        self._live[node] = False
        self._clients[node].close()
        if not any(self._live):
            raise BackendUnavailableError(
                f"node {self.node_addresses[node]} is unreachable and no "
                "live node remains to adopt its shards"
            )
        self._stats["adopted_shards"] += adopted
        for other, client in enumerate(self._clients):
            if not self._live[other] or client.pending_count:
                continue
            if not client.ping(timeout=self.PING_TIMEOUT):
                self._recover_or_adopt(other, BackendUnavailableError(
                    f"node {self.node_addresses[other]} failed its "
                    "pre-adoption health probe"
                ))

    def _failure_guard(self) -> Callable[[BaseException], None]:
        """A per-collective bound on how many node failures recovery will
        absorb before giving up.

        A flapping node could otherwise redial successfully forever while
        never answering a batch; the budget —
        ``(retries + 1) * num_nodes + 1`` failures — is generous enough
        for every node to die once with full retry cycles, and small
        enough that a pathological collective still terminates with a
        clean :class:`BackendUnavailableError`.
        """
        budget = (self._retries + 1) * len(self._clients) + 1
        seen = [0]

        def guard(error: BaseException) -> None:
            seen[0] += 1
            if seen[0] > budget:
                raise BackendUnavailableError(
                    f"failover gave up after {seen[0]} node failures in one "
                    "collective operation"
                ) from error

        return guard

    # ------------------------------------------------------------------ #
    # Transport (the ``_dispatch`` seam)
    # ------------------------------------------------------------------ #
    def _group_indices(self, tasks: Sequence[tuple],
                       indices: Sequence[int]) -> List[Tuple[int, list]]:
        """Group task indices by *current* owning node, nodes ascending."""
        grouped: dict = {}
        for index in indices:
            shard = tasks[index][0]
            grouped.setdefault(self._node_for(shard), []).append(index)
        return sorted(grouped.items())

    def _send_batches(self, tasks: Sequence[tuple], indices: Sequence[int],
                      guard: Callable[[BaseException], None]) -> list:
        """Write one ``shard_tasks`` RPC per owning node for ``indices``.

        Returns ``[(node, [task_index, ...], PendingReply), ...]``.  A
        failed *send* goes through recovery and re-groups only that node's
        share by the updated owner map — batches already written stay in
        flight untouched.
        """
        queue = self._group_indices(tasks, list(indices))
        batches = []
        while queue:
            node, group = queue.pop(0)
            payload = ("shard_tasks", [tasks[index] for index in group])
            try:
                batches.append((node, group,
                                self._clients[node].send(payload)))
            except BackendUnavailableError as error:
                guard(error)
                self._recover_or_adopt(node, error)
                queue = self._group_indices(tasks, group) + queue
        return batches

    def _drain_batches(self, tasks: Sequence[tuple], batches: list,
                       guard: Callable[[BaseException], None]) -> list:
        """Drain node batches into task-order results, with recovery.

        A node whose reply fails is recovered (re-dial + re-``init``) or
        its shards adopted, and **only its batch** is re-sent — results
        that already arrived are never recomputed.  That is exact because
        each node's batch reply is one atomic frame (all-or-nothing) and
        every task is a pure read whose partial is bitwise identical on
        any node, so replayed work folds into the same merge the healthy
        run would have produced.
        """
        results: list = [None] * len(tasks)
        while batches:
            retry: List[int] = []
            for node, group, pending in batches:
                try:
                    value = self._node_value(node, pending.wait())
                except BackendUnavailableError as error:
                    guard(error)
                    self._recover_or_adopt(node, error)
                    retry.extend(group)
                    continue
                if len(value) != len(group):
                    raise BackendUnavailableError(
                        f"node {self.node_addresses[node]} returned "
                        f"{len(value)} results for {len(group)} tasks"
                    )
                for index, result in zip(group, value):
                    results[index] = result
            if retry:
                retry.sort()
                self._stats["replayed_tasks"] += len(retry)
                batches = self._send_batches(tasks, retry, guard)
            else:
                batches = []
        return results

    def _dispatch(self, tasks: Sequence[tuple]) -> _NodeBatches:
        """One ``shard_tasks`` RPC per owning node; see
        :meth:`ShardedBackend._dispatch`.  Requests are written to every
        node before any reply is read, so the nodes compute concurrently;
        failures route through the recovery path."""
        return _NodeBatches(self, tasks)

    def _wave_size(self) -> int:
        """``num_nodes × max(1, node_workers)`` shards per wave — one task
        per node-local worker slot, so a node's whole pool is busy during a
        truncated build or a streaming walk, not just one worker."""
        return max(len(self._clients),
                   min(len(self._clients) * self._node_workers,
                       self.num_shards))

    # ------------------------------------------------------------------ #
    # Diagnostics / lifecycle
    # ------------------------------------------------------------------ #
    def pool_stats(self) -> dict:
        """Coordinator counters plus every node's own ``pool_stats()``.

        ``nodes`` holds one entry per node (``None`` for a dead or
        unreachable node — diagnostics deliberately neither raise nor
        trigger recovery), ``live_nodes`` how many still serve shards,
        ``redials`` / ``adopted_shards`` / ``replayed_tasks`` the failover
        counters, ``workers`` flattens the per-node worker cache stats,
        and ``stolen_tasks`` aggregates the coordinator's count with every
        reachable node's.  The per-node stats requests are pipelined —
        every send is written before any reply is read — so the round
        trips overlap instead of serialising.
        """
        stats = dict(self._stats)
        stats["num_shards"] = self.num_shards
        stats["requested_workers"] = self._requested_workers
        stats["num_nodes"] = self.num_nodes
        stats["live_nodes"] = len(self.live_nodes)
        stats["kernel_mode"] = _kernels.KERNEL_MODE
        stats["speculation"] = self.speculation_stats()
        pendings: List[Optional[PendingReply]] = []
        for node, client in enumerate(self._clients):
            if not self._live[node] or not client.alive:
                pendings.append(None)
                continue
            try:
                pendings.append(client.send(("pool_stats",)))
            except BackendUnavailableError:
                pendings.append(None)
        node_stats: List[Optional[dict]] = []
        for node, pending in enumerate(pendings):
            if pending is None:
                node_stats.append(None)
                continue
            try:
                node_stats.append(self._node_value(node, pending.wait()))
            except BackendUnavailableError:
                node_stats.append(None)
        stats["nodes"] = node_stats
        stats["stolen_tasks"] += sum(
            int(entry.get("stolen_tasks", 0))
            for entry in node_stats if entry
        )
        stats["workers"] = [
            worker for entry in node_stats if entry
            for worker in entry.get("workers", [])
        ]
        stats["parallel"] = any(
            entry.get("parallel") for entry in node_stats if entry
        )
        return stats

    def close(self) -> None:
        """Release every node's backend and close the connections.

        Terminal, unlike the local pool's close — and unlike the failover
        path: the coordinator cannot restart servers it does not own, and
        a closed backend never re-dials, so queries after ``close`` raise
        :class:`BackendUnavailableError`.
        """
        self._closed = True
        for client in getattr(self, "_clients", []):
            if client.alive:
                try:
                    client.call(("close_backend",), timeout=5.0)
                except (BackendUnavailableError, RuntimeError, OSError):
                    pass
            client.close()
        super().close()
