"""Tests for the distributed neighbor backend and its wire protocol.

The contract, in three layers:

* **Wire** (:mod:`repro.neighbors.rpc`): the tagged binary encoding
  round-trips every payload the backend ships — float64 *bit patterns*
  included — and rejects anything it cannot carry faithfully, so a value
  never changes by crossing a socket.
* **Parity**: a :class:`~repro.neighbors.distributed.DistributedBackend`
  over 1/2/3 loopback node servers releases *bitwise* the same values as
  the chunked in-process reference — raw queries, fused plans, GoodRadius,
  GoodCenter (both projection paths, speculation on and off), and
  k_cluster, whose later rounds run on subset backends dialing the same
  nodes.  Shard partials merge in shard order no matter which socket
  answered them, so this is parity by construction; these tests pin that
  the construction holds.
* **Failure**: with failover on (the default), a dead node is re-dialed
  (replaying ``init``) or its shards are adopted by the survivors in ring
  order, only its batch is replayed, and the release does not move a byte
  — a `good_center` run with a node killed mid-run is bitwise the healthy
  run.  With ``retries=0`` the PR 7 fail-fast contract holds: a dead node,
  a dropped connection, a truncated frame, or a blown per-call timeout
  raises a clean :class:`~repro.neighbors.BackendUnavailableError` — no
  hang, and never a merge of a subset of shards.

Plus the two scheduler features that ride along: work stealing within the
local pool's shard→worker affinity groups, and the tree-backed per-shard
truncated statistic (property-tested against the brute-force kernel).
"""

import dataclasses
import math
import os
import socket
import struct
import subprocess
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

import repro.neighbors as neighbors
import repro.neighbors._engine as engine_module
import repro.neighbors.sharded as sharded_module
import repro.neighbors.tree as tree_module
from repro.accounting.params import PrivacyParams
from repro.clustering.k_cluster import k_cluster
from repro.core.good_center import good_center
from repro.core.good_radius import good_radius
from repro.neighbors import (
    BackendUnavailableError,
    ChunkedBackend,
    PlanFuture,
    QueryPlan,
    ShardedBackend,
    resolve_backend,
)
from repro.neighbors._distance import truncated_squared_cross
from repro.neighbors.distributed import DistributedBackend
from repro.neighbors.rpc import (
    NodeClient,
    PendingReply,
    decode,
    encode,
    parse_node_address,
    read_frame,
    write_frame,
)
from repro.neighbors.serve import NodeServer
from repro.neighbors.tree import TreeBackend

NODE_COUNTS = (1, 2, 3)

DATASETS = {
    "random-2d": np.random.default_rng(0).uniform(size=(120, 2)),
    "duplicates": np.vstack([
        np.zeros((7, 3)),
        np.ones((4, 3)),
        np.random.default_rng(3).uniform(size=(30, 3)),
        np.zeros((3, 3)),
    ]),
}


@contextmanager
def node_cluster(count):
    """``count`` in-thread loopback node servers; yields their addresses."""
    servers = [NodeServer().start() for _ in range(count)]
    try:
        yield [server.address for server in servers]
    finally:
        for server in servers:
            server.stop()


@contextmanager
def distributed_backend(points, num_nodes, **kwargs):
    """A DistributedBackend over fresh in-thread nodes, closed on exit."""
    with node_cluster(num_nodes) as addresses:
        backend = DistributedBackend(points, nodes=addresses, **kwargs)
        try:
            yield backend
        finally:
            backend.close()


def spawn_node():
    """One real ``python -m repro.neighbors.serve`` process on loopback;
    returns ``(process, "host:port")`` once it prints its LISTENING line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, ["src", env.get("PYTHONPATH")])
    )
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.neighbors.serve", "--port", "0"],
        stdout=subprocess.PIPE, text=True, env=env, cwd=repo_root,
    )
    banner = proc.stdout.readline().split()
    assert banner[0] == "LISTENING"
    return proc, f"{banner[1]}:{banner[2]}"


@contextmanager
def node_processes(count):
    """``count`` real node processes; yields ``(processes, addresses)``
    and kills them all on exit."""
    spawned = []
    try:
        for _ in range(count):
            spawned.append(spawn_node())
        yield [proc for proc, _ in spawned], [addr for _, addr in spawned]
    finally:
        for proc, _ in spawned:
            proc.kill()
            proc.wait(timeout=10)
            proc.stdout.close()


def results_equal(a, b) -> bool:
    """Bitwise equality of query *results* across backends: exact array
    dtypes and bytes, recursive containers, plain ``==`` for scalars."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return (a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(map(results_equal, a, b))
    if dataclasses.is_dataclass(a) and type(a) is type(b):
        return all(results_equal(getattr(a, field.name),
                                 getattr(b, field.name))
                   for field in dataclasses.fields(a))
    return bool(a == b)


def wire_equal(a, b) -> bool:
    """Structural equality for decoded wire values: exact types, exact
    array bits (``nan == nan`` included)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if type(a) is not type(b):
        return False
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(wire_equal, a, b))
    if isinstance(a, dict):
        return (set(a) == set(b)
                and all(wire_equal(a[key], b[key]) for key in a))
    if isinstance(a, float):
        return struct.pack(">d", a) == struct.pack(">d", b)
    return a == b


class TestWireEncoding:
    """encode/decode is the identity on everything the backend ships."""

    def test_scalars_round_trip(self):
        values = [None, True, False, 0, -1, 7, 2**62, -(2**62),
                  2**200, -(2**200),  # beyond int64: decimal-text fallback
                  "", "shifted boxes — ω", b"", b"\x00\xff frame"]
        for value in values:
            assert wire_equal(decode(encode(value)), value), value

    def test_float_bit_patterns_survive(self):
        specials = [0.0, -0.0, 1.0 / 3.0, float("inf"), float("-inf"),
                    float("nan"), 5e-324, np.nextafter(1.0, 2.0)]
        for value in specials:
            out = decode(encode(value))
            assert struct.pack(">d", out) == struct.pack(">d", value)

    def test_containers_preserve_shape(self):
        value = {"a": [1, (2.5, None)], 3: ("rows", [True, b"x"]),
                 None: {}, 2.5: [[]], False: ()}
        out = decode(encode(value))
        assert wire_equal(out, value)
        # Tuples and lists are distinct on the wire: spec dispatch depends
        # on it.
        assert isinstance(decode(encode((1, 2))), tuple)
        assert isinstance(decode(encode([1, 2])), list)

    def test_arrays_round_trip(self):
        rng = np.random.default_rng(5)
        arrays = [
            rng.normal(size=(4, 3)),
            np.arange(6, dtype=np.int64).reshape(2, 3)[:, ::-1],  # non-C
            np.array([], dtype=float),
            np.array(True),                                        # 0-d
            np.float64(2.5),
            np.zeros((2, 0, 3)),
        ]
        for array in arrays:
            out = decode(encode(array))
            expected = np.asarray(array, order="C")
            assert out.dtype == expected.dtype
            assert out.shape == expected.shape
            assert out.tobytes() == expected.tobytes()
        # Decoded arrays are writable copies, never views of the buffer.
        out = decode(encode(np.zeros(3)))
        out[0] = 1.0

    def test_rejects_what_it_cannot_carry(self):
        with pytest.raises(TypeError):
            encode(object())
        with pytest.raises(TypeError):
            encode({(1, 2): "tuple keys do not round-trip"})
        with pytest.raises(TypeError):
            encode({"ok": {"nested": object()}})

    def test_box_selection_spec_round_trips_tokens(self):
        """The BoxSelection wire spec — selection token, view cache token,
        matrix, shifts, label — must cross the encoder unchanged, tokens
        explicitly included (they key worker-side membership memoisation,
        so a dropped or renumbered token silently kills the cache)."""
        points = DATASETS["random-2d"]
        backend = ShardedBackend(points, num_shards=3, num_workers=0)
        matrix = np.random.default_rng(11).normal(size=(2, 2))
        view = backend.view(matrix)
        selection = view.box_selection(0.25, np.zeros(2), [1, -2])
        spec = engine_module._selection_specs(backend, selection)[0]
        out = decode(encode(spec))
        assert wire_equal(out, spec)
        assert out[0] == "box"
        assert out[1] == selection.token and isinstance(out[1], int)
        assert out[2] == view._token
        backend.close()

    def test_compiled_plan_payload_round_trips(self):
        """Every shard's full execute_plan payload survives the wire, and
        re-encoding the decoded payload is byte-identical (the encoding is
        canonical, so payloads can be compared and cached by bytes)."""
        points = DATASETS["duplicates"]
        backend = ShardedBackend(points, num_shards=3, num_workers=0)
        view = backend.view(None)
        selection = view.box_selection(0.5, np.zeros(points.shape[1]),
                                       np.zeros(points.shape[1]))
        plan = QueryPlan()
        plan.count_within_many(points[:4], [0.5, 1.0])
        plan.masked_clipped_sum(view, selection, np.zeros(points.shape[1]),
                                1.0)
        plan.masked_sum(view, selection)
        plan.masked_axis_histograms(view, selection, 0.5)
        compiled = engine_module._compile_plan(backend, plan)
        for shard in range(backend.num_shards):
            payload = encode(compiled.shard_args(shard))
            assert wire_equal(decode(payload), compiled.shard_args(shard))
            assert encode(decode(payload)) == payload
        backend.close()

    def test_parse_node_address(self):
        table = {
            "127.0.0.1:7400": ("127.0.0.1", 7400),
            "node-7.cluster.local:65535": ("node-7.cluster.local", 65535),
            "[::1]:9000": ("::1", 9000),
            "[fe80::1%eth0]:7400": ("fe80::1%eth0", 7400),
            "[2001:db8::2]:1": ("2001:db8::2", 1),
        }
        for text, expected in table.items():
            assert parse_node_address(text) == expected, text
        assert parse_node_address(("::1", 7400)) == ("::1", 7400)
        assert parse_node_address(("host", "7400")) == ("host", 7400)

    def test_parse_node_address_rejections(self):
        bad = ["no-port", "", ":7400", "host:", "host:port", "host:0",
               "host:-1", "host:65536", "[::1]9000", "[::1]:", "[]:9000",
               ("host", 0), ("host", "nope")]
        for value in bad:
            with pytest.raises(ValueError):
                parse_node_address(value)
        # A bare IPv6 host is ambiguous (every colon is a candidate
        # separator) — the error must say how to fix it, not just fail.
        with pytest.raises(ValueError, match=r"bracket the host"):
            parse_node_address("::1:9000")


class TestLoopbackParity:
    """Releases are bitwise identical across 1/2/3-node topologies."""

    @pytest.mark.parametrize("name", sorted(DATASETS))
    @pytest.mark.parametrize("num_nodes", NODE_COUNTS)
    def test_raw_queries_identical(self, name, num_nodes):
        points = DATASETS[name]
        local = ChunkedBackend(points)
        with distributed_backend(points, num_nodes, num_shards=5) as backend:
            assert backend.num_nodes == num_nodes
            for radius in (-1.0, 0.0, 0.3, 1.5, 10.0):
                assert np.array_equal(backend.radius_counts(radius),
                                      local.radius_counts(radius))
            centers = points[:7] + 0.1
            assert np.array_equal(
                backend.query_radius_counts(centers, 0.4),
                local.query_radius_counts(centers, 0.4),
            )
            radii = np.array([0.0, 0.2, 0.7, 3.0])
            for target in (1, 5, points.shape[0]):
                assert np.array_equal(
                    backend.capped_average_scores(radii, target),
                    local.capped_average_scores(radii, target),
                )
            for k in (1, points.shape[0] // 2, points.shape[0]):
                assert np.array_equal(backend.kth_distances(k),
                                      local.kth_distances(k))

    @pytest.mark.parametrize("num_nodes", NODE_COUNTS)
    def test_plan_execute_and_submit_identical(self, num_nodes):
        points = DATASETS["random-2d"]
        local = ChunkedBackend(points)

        def build(backend):
            view = backend.view(np.eye(2)[::-1].copy())
            selection = view.box_selection(0.25, np.zeros(2), [1, 1])
            plan = QueryPlan()
            plan.count_within_many(points[:5], [0.3, 0.8])
            plan.heaviest_cell_counts(view, 0.25, np.zeros((3, 2)))
            plan.cell_histogram(view, 0.25, np.zeros(2))
            plan.masked_sum(view, selection)
            plan.masked_clipped_sum(view, selection, np.zeros(2), 0.5)
            plan.masked_axis_histograms(view, selection, 0.25)
            return plan

        reference = local.execute(build(local))
        with distributed_backend(points, num_nodes, num_shards=4) as backend:
            executed = backend.execute(build(backend))
            future = backend.submit(build(backend))
            submitted = future.result()
            assert future.done()
        for got in (executed, submitted):
            assert len(got) == len(reference)
            for slot, (value, expected) in enumerate(zip(got, reference)):
                assert results_equal(value, expected), slot

    @pytest.mark.parametrize("num_nodes", NODE_COUNTS)
    def test_good_radius_release_identical(self, small_cluster_data,
                                           loose_params, num_nodes):
        points = small_cluster_data.points
        reference = good_radius(points, 200, loose_params, rng=11,
                                backend="chunked")
        with distributed_backend(points, num_nodes, num_shards=4) as backend:
            released = good_radius(points, 200, loose_params, rng=11,
                                   backend=backend)
        assert released.radius == reference.radius
        assert released.score == reference.score

    @pytest.mark.parametrize("num_nodes", NODE_COUNTS)
    def test_good_center_identity_path_release_identical(
            self, medium_cluster_data, num_nodes):
        points = medium_cluster_data.points
        params = PrivacyParams(8.0, 1e-5)
        reference = good_center(points, radius=0.05, target=400,
                                params=params, rng=3)
        with distributed_backend(points, num_nodes, num_shards=4) as backend:
            released = good_center(points, radius=0.05, target=400,
                                   params=params, rng=3, backend=backend)
        assert released.projected_dimension == points.shape[1]
        assert released.found == reference.found
        assert released.attempts == reference.attempts
        if reference.found:
            assert np.array_equal(released.center, reference.center)
            assert released.radius_bound == reference.radius_bound

    @pytest.mark.parametrize("num_nodes", NODE_COUNTS)
    def test_good_center_jl_path_release_identical(self, jl_cluster_points,
                                                   num_nodes):
        from repro.core.config import GoodCenterConfig

        config = GoodCenterConfig(jl_constant=0.3)
        params = PrivacyParams(16.0, 1e-4)
        reference = good_center(jl_cluster_points, radius=0.1, target=700,
                                params=params, config=config, rng=1)
        with distributed_backend(jl_cluster_points, num_nodes,
                                 num_shards=3) as backend:
            released = good_center(jl_cluster_points, radius=0.1, target=700,
                                   params=params, config=config, rng=1,
                                   backend=backend)
        assert released.projected_dimension < jl_cluster_points.shape[1]
        assert released.found == reference.found
        assert released.attempts == reference.attempts
        if reference.found:
            assert np.array_equal(released.center, reference.center)
            assert released.radius_bound == reference.radius_bound

    @pytest.fixture(scope="class")
    def jl_cluster_points(self):
        rng = np.random.default_rng(3)
        dimension = 8
        center = np.full(dimension, 0.5)
        cluster = center + rng.normal(0, 0.015, size=(900, dimension))
        noise = rng.uniform(0, 1, size=(300, dimension))
        return np.vstack([cluster, noise])

    def test_speculation_does_not_change_release(self, medium_cluster_data):
        """DistributedBackend pipelines speculative plans onto the node
        sockets; hit or miss, the release must not move a byte."""
        points = medium_cluster_data.points
        params = PrivacyParams(8.0, 1e-5)
        with distributed_backend(points, 2, num_shards=4) as backend:
            assert backend.supports_speculation
            speculated = good_center(points, radius=0.05, target=400,
                                     params=params, rng=3, backend=backend)
            stats = backend.pool_stats()["speculation"]
        with distributed_backend(points, 2, num_shards=4) as backend:
            backend.supports_speculation = False
            plain = good_center(points, radius=0.05, target=400,
                                params=params, rng=3, backend=backend)
        speculated_plans = sum(entry.get("hits", 0) + entry.get("misses", 0)
                               for entry in stats.values())
        assert speculated_plans > 0
        assert speculated.found == plain.found
        assert speculated.attempts == plain.attempts
        if plain.found:
            assert np.array_equal(speculated.center, plain.center)
            assert speculated.radius_bound == plain.radius_bound

    def test_k_cluster_release_identical_on_distributed_instance(self):
        """k_cluster on a distributed instance: the first round runs on it,
        the second on a subset dialing the same nodes, and the release and
        coverage counts match the in-process reference."""
        from repro.datasets.synthetic import gaussian_blobs

        points, _, _ = gaussian_blobs(n=500, d=2, k=2, spread=0.02, rng=6)
        params = PrivacyParams(10.0, 1e-5)
        reference = k_cluster(points, k=2, params=params, rng=9)
        with distributed_backend(points, 2) as backend:
            released = k_cluster(points, k=2, params=params, rng=9,
                                 backend=backend)
            assert backend.live_nodes == [0, 1]
        assert released.num_found == reference.num_found == 2
        assert released.covered_fraction == reference.covered_fraction
        for ball, expected in zip(released.balls, reference.balls):
            assert np.array_equal(ball.center, expected.center)
            assert ball.radius == expected.radius
        assert released.ball_coverages == reference.ball_coverages

    def test_resolve_backend_requires_nodes(self):
        points = DATASETS["random-2d"]
        with pytest.raises(ValueError, match="node servers"):
            resolve_backend(points, "distributed")

    def test_resolve_backend_builds_distributed(self):
        points = DATASETS["random-2d"]
        with node_cluster(1) as addresses:
            backend = resolve_backend(points, "distributed",
                                      options={"nodes": addresses})
            try:
                assert isinstance(backend, DistributedBackend)
                assert backend.node_addresses == addresses
                assert np.array_equal(
                    backend.radius_counts(0.4),
                    ChunkedBackend(points).radius_counts(0.4),
                )
            finally:
                backend.close()

    @pytest.mark.slow
    def test_two_serve_processes_match_chunked(self):
        """Two real ``serve`` node processes on loopback, reached through
        ``resolve_backend`` and the CLI entry point the README documents."""
        points = np.random.default_rng(0).uniform(size=(500, 2))
        with node_processes(2) as (_, nodes):
            backend = resolve_backend(points, "distributed",
                                      options={"nodes": nodes,
                                               "num_shards": 4})
            try:
                assert np.array_equal(
                    backend.radius_counts(0.3),
                    ChunkedBackend(points).radius_counts(0.3),
                )
            finally:
                backend.close()

    def test_pool_stats_aggregates_nodes(self):
        points = DATASETS["random-2d"]
        with distributed_backend(points, 2, num_shards=4) as backend:
            backend.radius_counts(0.5)
            stats = backend.pool_stats()
        assert stats["num_nodes"] == 2
        assert len(stats["nodes"]) == 2
        assert all(entry is not None for entry in stats["nodes"])
        assert stats["fanouts"] >= 1
        assert stats["stolen_tasks"] == 0  # serial nodes never steal


class TestFaultInjection:
    """With ``retries=0`` (failover off — the PR 7 contract, preserved
    bit-for-bit) failures surface as clean errors: no hang, no partial
    merge, no redial, no adoption."""

    def test_per_call_timeout_fires(self, monkeypatch):
        """A stalled node must not hang the coordinator: the configured
        per-call timeout raises BackendUnavailableError and poisons the
        connection, so the next call fails fast too."""
        points = DATASETS["random-2d"]
        # In-thread server + serial node = the node's shard tasks run in
        # this process, so the _TASK_DELAY seam stalls shard 0 for real.
        monkeypatch.setattr(sharded_module, "_TASK_DELAY", (0, 2.0))
        with distributed_backend(points, 1, num_shards=2, timeout=0.4,
                                 retries=0) as backend:
            start = time.monotonic()
            with pytest.raises(BackendUnavailableError, match="timeout"):
                backend.radius_counts(0.5)
            assert time.monotonic() - start < 1.5
            start = time.monotonic()
            with pytest.raises(BackendUnavailableError):
                backend.radius_counts(0.5)  # poisoned: fails fast
            assert time.monotonic() - start < 0.1

    def test_dropped_connection_mid_read(self):
        """A node closing its socket instead of replying is a clean error,
        and diagnostics keep working around the dead node."""
        points = DATASETS["random-2d"]
        with distributed_backend(points, 2, num_shards=4,
                                 retries=0) as backend:
            backend._clients[0].send(("debug_drop",))
            # Depending on timing the OS reports the dead peer as a clean
            # EOF or a connection reset; both must surface as the same
            # clean error type.
            with pytest.raises(BackendUnavailableError, match="node"):
                backend.radius_counts(0.5)
            with pytest.raises(BackendUnavailableError):
                backend.kth_distances(2)  # still dead, still clean
            stats = backend.pool_stats()  # never raises
            assert stats["nodes"][0] is None
            assert stats["nodes"][1] is not None
            # Failover off: nothing was retried, adopted, or replayed.
            assert stats["redials"] == 0
            assert stats["adopted_shards"] == 0
            assert stats["replayed_tasks"] == 0

    def test_truncated_frame_mid_read(self):
        """A frame whose header promises more bytes than arrive (the peer
        died mid-write) surfaces as mid-message EOF, not a hang."""
        points = DATASETS["random-2d"]
        with distributed_backend(points, 2, num_shards=4,
                                 retries=0) as backend:
            backend._clients[1].send(("debug_truncate",))
            # Usually "mid-message" EOF; occasionally the server's close
            # RSTs the socket before the buffered half-frame is read.
            # Either way the error type must be the clean one.
            with pytest.raises(BackendUnavailableError, match="node"):
                backend.query_radius_counts(points[:3], 0.4)

    def test_no_partial_merge_on_submit(self):
        """A plan whose node died mid-flight raises from result() — it
        never merges the surviving shards' partials into a value."""
        points = DATASETS["random-2d"]
        with distributed_backend(points, 2, num_shards=4,
                                 retries=0) as backend:
            # Stall node 0 behind a long sleep, then drop it: the plan's
            # tasks for shards 0 and 2 are queued behind the sleep and the
            # connection dies before they answer.
            backend._clients[0].send(("debug_drop",))
            plan = QueryPlan()
            plan.count_within_many(points[:4], [0.5])
            future = backend.submit(plan)
            with pytest.raises(BackendUnavailableError):
                future.result()
            with pytest.raises(BackendUnavailableError):
                future.result()  # still an error on re-ask, never a value

    def test_read_timeout_is_total_deadline(self):
        """The per-call timeout is one overall deadline across every
        pipelined frame drained on the way to the awaited reply — not a
        per-frame budget.  Three sleeps of 0.35 s queued ahead of the
        target each deliver a frame *within* 0.5 s, so a per-frame timeout
        would happily wait ~1.05 s + reply; the total deadline must fire
        at ~0.5 s."""
        with node_cluster(1) as addresses:
            client = NodeClient(*parse_node_address(addresses[0]))
            try:
                for _ in range(3):
                    client.send(("debug_sleep", 0.35))
                pending = client.send(("ping",))
                start = time.monotonic()
                with pytest.raises(BackendUnavailableError, match="timeout"):
                    pending.wait(timeout=0.5)
                elapsed = time.monotonic() - start
                assert 0.3 < elapsed < 0.95, elapsed
            finally:
                client.close()

    def test_queries_after_close_raise(self):
        points = DATASETS["random-2d"]
        with node_cluster(1) as addresses:
            backend = DistributedBackend(points, nodes=addresses,
                                         num_shards=2)
            backend.close()
            with pytest.raises(BackendUnavailableError):
                backend.radius_counts(0.5)

    def test_init_failure_closes_clients(self):
        points = DATASETS["random-2d"]
        with pytest.raises((BackendUnavailableError, OSError)):
            DistributedBackend(points, nodes=["127.0.0.1:1"],
                               connect_timeout=0.5)

    def test_worker_exception_travels_without_killing_connection(self):
        """A node-side *computation* error is an op failure, not a
        transport failure: it raises RuntimeError with the node traceback
        and the connection keeps serving."""
        points = DATASETS["random-2d"]
        with distributed_backend(points, 1, num_shards=2) as backend:
            with pytest.raises(RuntimeError, match="failed"):
                backend._node_value(
                    0, backend._clients[0].call(("no_such_op",))
                )
            assert np.array_equal(
                backend.radius_counts(0.4),
                ChunkedBackend(points).radius_counts(0.4),
            )

    def test_undecodable_reply_poisons_connection(self):
        """A reply frame that arrives whole but does not decode is a
        transport failure: the connection is marked dead, so the next
        reply is never handed to the wrong request (and never waited on)."""
        listener = socket.create_server(("127.0.0.1", 0))

        def serve():
            conn, _ = listener.accept()
            with conn:
                read_frame(conn)
                read_frame(conn)
                write_frame(conn, b"\xff" * 9)
                write_frame(conn, encode({"status": "ok", "value": None}))
                try:
                    conn.recv(1)  # hold the socket open until the client goes
                except OSError:
                    pass

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        client = NodeClient(*listener.getsockname()[:2])
        try:
            first = client.send(("ping",))
            second = client.send(("ping",))
            with pytest.raises(BackendUnavailableError, match="undecodable"):
                first.wait(timeout=2.0)
            assert not client.alive
            start = time.monotonic()
            with pytest.raises(BackendUnavailableError):
                second.wait(timeout=2.0)
            assert time.monotonic() - start < 0.5
        finally:
            client.close()
            thread.join(timeout=5.0)
            listener.close()

    def test_node_closes_connection_on_undecodable_frame(self, monkeypatch):
        """The node side of the same fault: the connection thread closes
        the connection cleanly (no escaping exception) and the node keeps
        serving new connections."""
        outcomes = []
        original = NodeServer._serve_connection

        def recording(self, conn):
            try:
                original(self, conn)
            except BaseException as error:
                outcomes.append(error)
                raise
            outcomes.append(None)

        monkeypatch.setattr(NodeServer, "_serve_connection", recording)
        with node_cluster(1) as addresses:
            address = parse_node_address(addresses[0])
            with socket.create_connection(address, timeout=5.0) as raw:
                write_frame(raw, b"\xff" * 9)
                assert raw.recv(1) == b""  # closed without a reply
            deadline = time.monotonic() + 5.0
            while not outcomes and time.monotonic() < deadline:
                time.sleep(0.01)
            assert outcomes == [None]
            client = NodeClient(*address)
            try:
                assert client.ping()
            finally:
                client.close()

    def test_node_rejects_malformed_shard_tasks(self):
        """A node checks every task of a ``shard_tasks`` batch: each
        malformed batch gets an error reply naming its problem, and the
        same connection then answers a valid batch."""
        points = DATASETS["random-2d"]
        centers = points[:3]
        payload = ([], [], [("count_within_many", None, None,
                             (centers, np.array([0.5])))])
        malformed = [
            ([(2, payload)], "shard 2 out of range"),
            ([(-1, payload)], "shard -1 out of range"),
            ([(0, ([], []))], "(views, selections, queries) triple"),
            ([(0, ([], [], [("bogus", None, None, ())]))],
             "unknown plan operation 'bogus'"),
            ([("execute_plan", 0, payload)], "(shard, payload) pair"),
        ]
        with node_cluster(1) as addresses:
            client = NodeClient(*parse_node_address(addresses[0]),
                                timeout=10.0)
            try:
                init = client.call(("init", points, 2, 0))
                assert init["status"] == "ok"
                for tasks, problem in malformed:
                    reply = client.call(("shard_tasks", tasks))
                    assert reply["status"] == "error", problem
                    assert problem in reply["error"], reply["error"]
                reply = client.call(("shard_tasks",
                                     [(0, payload), (1, payload)]))
                assert reply["status"] == "ok"
                total = np.sum([part[0] for part in reply["value"]], axis=0)
                assert np.array_equal(
                    total,
                    ChunkedBackend(points).count_within_many(centers, [0.5]),
                )
            finally:
                client.close()

    def test_node_rejects_init_with_strategy_field(self):
        """An ``init`` with a fifth field (a per-shard strategy name, which
        the protocol no longer carries) gets an error reply, and the same
        connection then accepts a well-formed four-field ``init``."""
        points = DATASETS["random-2d"]
        with node_cluster(1) as addresses:
            client = NodeClient(*parse_node_address(addresses[0]),
                                timeout=10.0)
            try:
                reply = client.call(("init", points, 2, 0, "auto"))
                assert reply["status"] == "error"
                assert "init takes (points, num_shards, num_workers)" \
                    in reply["error"], reply["error"]
                reply = client.call(("init", points, 2, 0))
                assert reply["status"] == "ok"
                assert reply["value"]["num_shards"] == 2
                assert reply["value"]["reused"] is False
            finally:
                client.close()

    @pytest.mark.slow
    def test_killed_node_process_mid_plan(self):
        """The acceptance scenario: a real node *process* SIGKILLed while
        a plan is in flight.  With failover on (the default), result()
        recovers — the survivor adopts the dead node's shards and replays
        only its batch — and the plan's results are bitwise the
        in-process reference's; the same backend keeps answering
        afterwards.  With ``retries=0`` the same kill raises cleanly
        instead."""
        points = DATASETS["random-2d"]

        def build_plan():
            plan = QueryPlan()
            plan.count_within_many(points[:4], [0.5, 1.0])
            return plan

        local = ChunkedBackend(points)
        reference = local.execute(build_plan())

        # Failover on: the kill is absorbed, the results do not move.
        proc, victim = spawn_node()
        try:
            with node_cluster(1) as survivors:
                backend = DistributedBackend(points,
                                             nodes=[victim, survivors[0]],
                                             num_shards=4,
                                             retry_backoff=0.05)
                try:
                    # Queue a long stall on the victim, then a plan behind
                    # it, then kill the process mid-flight.
                    backend._clients[0].send(("debug_sleep", 60.0))
                    future = backend.submit(build_plan())
                    proc.kill()
                    start = time.monotonic()
                    results = future.result()
                    assert time.monotonic() - start < 30.0
                    for slot, (value, expected) in enumerate(
                            zip(results, reference)):
                        assert results_equal(value, expected), slot
                    stats = backend.pool_stats()
                    assert stats["adopted_shards"] == 2  # shards 0 and 2
                    assert stats["replayed_tasks"] >= 2
                    assert stats["live_nodes"] == 1
                    # The backend keeps serving after the loss.
                    assert np.array_equal(backend.radius_counts(0.5),
                                          local.radius_counts(0.5))
                finally:
                    backend.close()
        finally:
            proc.kill()
            proc.wait(timeout=10)
            proc.stdout.close()

        # Failover off: the same kill surfaces as a clean error within
        # seconds — no hang, no partial merge (the PR 7 contract).
        proc, victim = spawn_node()
        try:
            with node_cluster(1) as survivors:
                backend = DistributedBackend(points,
                                             nodes=[victim, survivors[0]],
                                             num_shards=4, retries=0)
                try:
                    backend._clients[0].send(("debug_sleep", 60.0))
                    future = backend.submit(build_plan())
                    proc.kill()
                    start = time.monotonic()
                    with pytest.raises(BackendUnavailableError):
                        future.result()
                    assert time.monotonic() - start < 10.0
                finally:
                    backend.close()
                # The surviving node is unharmed: a fresh backend over it
                # alone still matches the in-process reference.
                replacement = DistributedBackend(points, nodes=survivors,
                                                 num_shards=2)
                try:
                    assert np.array_equal(
                        replacement.radius_counts(0.5),
                        local.radius_counts(0.5),
                    )
                finally:
                    replacement.close()
        finally:
            proc.kill()
            proc.wait(timeout=10)
            proc.stdout.close()


class TestFailover:
    """With retries on (the default) node death is absorbed: re-dial when
    the node comes back, ring-order shard adoption when it does not, replay
    of only the failed batch — and never a changed released bit."""

    def test_client_redial_and_ping(self):
        """NodeClient.redial() resets a poisoned client onto a fresh
        connection; ping() is the cheap health probe (False on a dead
        client or an unreachable server, never an exception)."""
        with node_cluster(1) as addresses:
            client = NodeClient(*parse_node_address(addresses[0]))
            try:
                assert client.ping()
                client.send(("debug_drop",))
                with pytest.raises(BackendUnavailableError):
                    client.call(("ping",))
                assert not client.alive
                assert client.ping() is False  # dead client: no exception
                client.redial()
                assert client.alive
                assert client.ping()
            finally:
                client.close()
        # Server gone: redial itself fails cleanly and leaves the client
        # poisoned with the re-dial error.
        with pytest.raises(BackendUnavailableError, match="re-dial"):
            client.redial(connect_timeout=0.5)
        assert not client.alive

    def test_redial_after_connection_drop(self):
        """A dropped connection with the server still up: the node is
        re-dialed (re-``init``), the failed batch replayed, nothing
        adopted — and the counts do not move a bit."""
        points = DATASETS["random-2d"]
        local = ChunkedBackend(points)
        with distributed_backend(points, 2, num_shards=4,
                                 retry_backoff=0.01) as backend:
            before = backend.radius_counts(0.5)
            backend._clients[0].send(("debug_drop",))
            after = backend.radius_counts(0.5)
            assert results_equal(before, after)
            assert np.array_equal(after, local.radius_counts(0.5))
            stats = backend.pool_stats()
            assert stats["redials"] == 1
            assert stats["adopted_shards"] == 0
            assert stats["replayed_tasks"] == 2  # node 0's shards 0 and 2
            assert stats["live_nodes"] == 2

    def test_replayed_init_is_idempotent(self):
        """The recovery path replays ``init`` on every fresh connection; a
        replay matching the connection's live backend must be a no-op
        (keeping warm caches), while a changed topology must rebuild."""
        points = DATASETS["random-2d"]
        with node_cluster(1) as addresses:
            client = NodeClient(*parse_node_address(addresses[0]))
            try:
                request = ("init", points, 4, 0)
                first = client.call(request)["value"]
                again = client.call(request)["value"]
                assert first["reused"] is False
                assert again["reused"] is True
                rebuilt = client.call(("init", points, 3, 0))["value"]
                assert rebuilt["reused"] is False
                assert rebuilt["num_shards"] == 3
            finally:
                client.close()

    @pytest.mark.parametrize("num_nodes", (2, 3))
    def test_adoption_between_releases(self, small_cluster_data,
                                       loose_params, num_nodes):
        """A node killed *between* releases: the survivors adopt its
        shards and the next release is bitwise the healthy reference
        (2→1 and 3→2 topologies)."""
        points = small_cluster_data.points
        reference = good_radius(points, 200, loose_params, rng=11,
                                backend="chunked")
        servers = [NodeServer().start() for _ in range(num_nodes)]
        try:
            backend = DistributedBackend(
                points, nodes=[server.address for server in servers],
                num_shards=4, retry_backoff=0.01,
            )
            try:
                healthy = good_radius(points, 200, loose_params, rng=11,
                                      backend=backend)
                servers[-1].stop()  # SIGKILL-equivalent for in-thread nodes
                # A fresh raw query first: the release below could be
                # answered from the coordinator's memoised statistic, and
                # the point here is to *hit* the dead node and adopt.
                assert np.array_equal(
                    backend.radius_counts(0.1234),
                    ChunkedBackend(points).radius_counts(0.1234),
                )
                degraded = good_radius(points, 200, loose_params, rng=11,
                                       backend=backend)
                stats = backend.pool_stats()
            finally:
                backend.close()
        finally:
            for server in servers:
                server.stop()
        for released in (healthy, degraded):
            assert released.radius == reference.radius
            assert released.score == reference.score
        assert stats["adopted_shards"] > 0
        assert stats["live_nodes"] == num_nodes - 1
        assert stats["nodes"][-1] is None

    def test_subset_dials_only_live_nodes(self):
        """After a node is declared dead, ``subset`` builds over the
        survivors with the same shard count, and answers like a direct
        build over the rows."""
        points = DATASETS["random-2d"]
        rows = np.arange(0, points.shape[0], 2)
        servers = [NodeServer().start() for _ in range(2)]
        try:
            with DistributedBackend(
                points, nodes=[server.address for server in servers],
                num_shards=4, retry_backoff=0.01,
            ) as backend:
                servers[1].stop()
                assert np.array_equal(
                    backend.radius_counts(0.5),
                    ChunkedBackend(points).radius_counts(0.5),
                )
                assert backend.live_nodes == [0]
                with backend.subset(rows) as subset:
                    assert subset.node_addresses == backend.node_addresses[:1]
                    assert subset.num_shards == 4
                    assert np.array_equal(
                        subset.radius_counts(0.5),
                        ChunkedBackend(points[rows]).radius_counts(0.5),
                    )
        finally:
            for server in servers:
                server.stop()

    def test_adoption_is_deterministic(self):
        """Same survivor set → same shard map: adoption follows the fixed
        next-live-node-in-ring-order rule, so two backends that lose the
        same node agree on every owner (same batching, same merges)."""
        points = DATASETS["random-2d"]
        owner_maps = []
        for _ in range(2):
            servers = [NodeServer().start() for _ in range(3)]
            try:
                backend = DistributedBackend(
                    points, nodes=[server.address for server in servers],
                    num_shards=7, retry_backoff=0.01,
                )
                try:
                    assert backend.shard_owners() == [
                        shard % 3 for shard in range(7)
                    ]
                    servers[1].stop()  # re-dial must fail: adoption, not retry
                    backend._recover_or_adopt(
                        1, BackendUnavailableError("test-injected failure")
                    )
                    owner_maps.append(backend.shard_owners())
                    assert backend.live_nodes == [0, 2]
                finally:
                    backend.close()
            finally:
                for server in servers:
                    server.stop()
        assert owner_maps[0] == owner_maps[1]
        # The ring rule, spelled out: home node 1 is dead, so its shards
        # (1 and 4) move to the next live node clockwise — node 2.
        assert owner_maps[0] == [0, 2, 2, 0, 2, 2, 0]

    def test_mid_plan_death_recovers(self):
        """A submitted (in-flight) plan whose node dies mid-flight:
        result() routes through the same recovery path and returns results
        bitwise identical to the healthy run's."""
        points = DATASETS["random-2d"]
        local = ChunkedBackend(points)

        def build_plan():
            plan = QueryPlan()
            plan.count_within_many(points[:5], [0.3, 0.8])
            return plan

        reference = local.execute(build_plan())
        with distributed_backend(points, 2, num_shards=4,
                                 retry_backoff=0.01) as backend:
            # The drop is queued *before* the plan: the server reads it
            # first and closes, so the plan's batch to node 1 is in flight
            # on a connection that will never answer (sending it after the
            # plan would be harmless — the server replies in order, so the
            # batch reply would already be on the wire).
            backend._clients[1].send(("debug_drop",))
            future = backend.submit(build_plan())
            results = future.result()
            assert future.done()
            for slot, (value, expected) in enumerate(zip(results, reference)):
                assert results_equal(value, expected), slot
            stats = backend.pool_stats()
            assert stats["redials"] == 1
            # Node 1's two tasks replay after the redial; in the rarer
            # race the *send* itself fails and the batch is re-routed
            # before it ever ran, which counts as nothing replayed.
            assert stats["replayed_tasks"] in (0, 2)

    def test_retry_exhaustion_raises_no_partial_merge(self):
        """Every node dead: recovery is exhausted and the collective
        raises the clean error — never a merge of the shards that did
        answer."""
        points = DATASETS["random-2d"]
        servers = [NodeServer().start() for _ in range(2)]
        backend = DistributedBackend(
            points, nodes=[server.address for server in servers],
            num_shards=4, retry_backoff=0.01,
        )
        try:
            future = backend.submit(QueryPlan())  # empty plan
            for server in servers:
                server.stop()
            start = time.monotonic()
            with pytest.raises(BackendUnavailableError):
                backend.radius_counts(0.5)
            assert time.monotonic() - start < 10.0
            with pytest.raises(BackendUnavailableError):
                backend.kth_distances(2)  # stays dead, stays clean
            assert future.result() == []  # empty plans never touch nodes
        finally:
            backend.close()
            for server in servers:
                server.stop()

    def test_good_center_release_survives_node_kill(self,
                                                    medium_cluster_data,
                                                    monkeypatch):
        """The acceptance pin: a `good_center` release with a node killed
        mid-run is byte-identical to the healthy-topology release.  The
        kill lands between collectives of the same run (while speculative
        plans may be in flight), so both the synchronous and the
        submitted-plan recovery paths are exercised."""
        points = medium_cluster_data.points
        params = PrivacyParams(8.0, 1e-5)
        reference = good_center(points, radius=0.05, target=400,
                                params=params, rng=3)
        servers = [NodeServer().start() for _ in range(3)]
        calls = {"n": 0}
        original = DistributedBackend._send_batches

        def killing_send(self, tasks, indices, guard):
            calls["n"] += 1
            if calls["n"] == 3:  # mid-run: after init, before the end
                servers[1].stop()
            return original(self, tasks, indices, guard)

        monkeypatch.setattr(DistributedBackend, "_send_batches",
                            killing_send)
        try:
            backend = DistributedBackend(
                points, nodes=[server.address for server in servers],
                num_shards=6, retry_backoff=0.01,
            )
            try:
                released = good_center(points, radius=0.05, target=400,
                                       params=params, rng=3,
                                       backend=backend)
                stats = backend.pool_stats()
            finally:
                backend.close()
        finally:
            for server in servers:
                server.stop()
        assert calls["n"] >= 3, "the kill never landed; rotate the trigger"
        assert stats["adopted_shards"] == 2  # node 1's shards 1 and 4
        assert stats["replayed_tasks"] > 0
        assert stats["live_nodes"] == 2
        assert released.found == reference.found
        assert released.attempts == reference.attempts
        if reference.found:
            assert np.array_equal(released.center, reference.center)
            assert released.radius_bound == reference.radius_bound

    @pytest.mark.slow
    def test_serve_process_sigkilled_mid_good_center(self, monkeypatch):
        """Three real ``serve`` processes, one SIGKILLed in the middle of a
        good_center run (deterministically, at the 4th collective): the
        survivors adopt its shards, the run completes, and the release is
        byte-identical to the healthy single-process control — failover is
        dispatch-only."""
        rng = np.random.default_rng(0)
        d = 4
        points = np.vstack([
            np.full(d, 0.5) + rng.normal(0, 0.02, size=(600, d)),
            rng.uniform(size=(200, d)),
        ])
        params = PrivacyParams(8.0, 1e-5)
        healthy = good_center(points, radius=0.05, target=500,
                              params=params, rng=3)
        with node_processes(3) as (procs, nodes):
            backend = DistributedBackend(points, nodes=nodes, num_shards=6,
                                         retry_backoff=0.05)
            calls = [0]
            original = DistributedBackend._dispatch

            def killing_dispatch(self, tasks):
                calls[0] += 1
                if calls[0] == 4:
                    procs[1].kill()
                    procs[1].wait(timeout=10)
                return original(self, tasks)

            monkeypatch.setattr(DistributedBackend, "_dispatch",
                                killing_dispatch)
            try:
                released = good_center(points, radius=0.05, target=500,
                                       params=params, rng=3, backend=backend)
                stats = backend.pool_stats()
                assert calls[0] >= 4, "kill never landed"
                assert stats["adopted_shards"] == 2, stats
                assert stats["live_nodes"] == 2, stats
                assert released.found == healthy.found
                assert released.attempts == healthy.attempts
                if healthy.found:
                    assert (released.center.tobytes()
                            == healthy.center.tobytes())
                    assert released.radius_bound == healthy.radius_bound
                # The degraded backend keeps answering after the loss.
                assert np.array_equal(
                    backend.radius_counts(0.3),
                    ChunkedBackend(points).radius_counts(0.3),
                )
            finally:
                backend.close()

    @pytest.mark.slow
    def test_serve_process_sigkilled_between_profile_rounds(self,
                                                             monkeypatch):
        """Three real ``serve`` processes, one SIGKILLed after the two
        selection rounds of a GoodRadius profile and before its count
        round: the adopting node holds none of the dead node's shard
        state, rebuilds it from the count task, and the scores are
        bitwise the healthy ones."""
        points = np.random.default_rng(2).uniform(size=(300, 3))
        radii = np.linspace(-0.1, 1.2, 40)
        target = 150
        healthy = ChunkedBackend(points).capped_average_scores(radii, target)
        with node_processes(3) as (procs, nodes):
            # Three shards, one per node: every fan-out is one dispatch.
            backend = DistributedBackend(points, nodes=nodes, num_shards=3,
                                         retry_backoff=0.05)
            calls = []
            original = DistributedBackend._dispatch

            def killing_dispatch(self, tasks):
                calls.append(tasks[0][1][2][0][0])
                if len(calls) == 3:
                    procs[1].kill()
                    procs[1].wait(timeout=10)
                return original(self, tasks)

            monkeypatch.setattr(DistributedBackend, "_dispatch",
                                killing_dispatch)
            try:
                scores = backend.capped_average_scores(radii, target)
                again = backend.capped_average_scores(radii[::-1], target)
                stats = backend.pool_stats()
            finally:
                backend.close()
        assert calls[:3] == ["profile_samples", "profile_bracket",
                             "profile_counts"]
        assert stats["adopted_shards"] == 1, stats
        assert stats["live_nodes"] == 2, stats
        assert scores.tobytes() == healthy.tobytes()
        assert again.tobytes() == healthy[::-1].tobytes()

    def test_iter_shards_wave_fills_node_workers(self, monkeypatch):
        """The streaming wave defaults to num_nodes × node_workers — one
        task per node-local worker slot per wave — so a node's whole pool
        is busy during a streaming walk, not just one worker."""
        points = DATASETS["random-2d"]
        # Server-side override keeps the nodes serial (cheap) while the
        # coordinator still *believes* node_workers=3, which is the side
        # the wave default must read.
        servers = [NodeServer(num_workers=0).start() for _ in range(2)]
        try:
            backend = DistributedBackend(
                points, nodes=[server.address for server in servers],
                node_workers=3, num_shards=12,
            )
            try:
                batches = []

                def fake_dispatch(self, tasks):
                    batches.append(len(tasks))
                    return PlanFuture([[None]] * len(tasks))

                monkeypatch.setattr(DistributedBackend, "_dispatch",
                                    fake_dispatch)
                drained = list(backend._shard_waves("histograms",
                                                    (np.zeros((1, 2)), 3)))
                assert len(drained) == 12
                assert batches == [6, 6]  # 2 nodes × 3 workers per wave
            finally:
                monkeypatch.undo()
                backend.close()
        finally:
            for server in servers:
                server.stop()

    def test_pool_stats_pipelines_requests(self, monkeypatch):
        """pool_stats writes every node's request before reading any
        reply (the init pattern), so the round trips overlap instead of
        serialising."""
        points = DATASETS["random-2d"]
        with distributed_backend(points, 3, num_shards=3) as backend:
            events = []
            original_send = NodeClient.send
            original_wait = PendingReply.wait

            def spy_send(self, request):
                if isinstance(request, tuple) and request \
                        and request[0] == "pool_stats":
                    events.append("send")
                return original_send(self, request)

            def spy_wait(self, timeout=None):
                events.append("wait")
                return original_wait(self, timeout)

            monkeypatch.setattr(NodeClient, "send", spy_send)
            monkeypatch.setattr(PendingReply, "wait", spy_wait)
            stats = backend.pool_stats()
            assert len(stats["nodes"]) == 3
            assert all(entry is not None for entry in stats["nodes"])
            assert events == ["send"] * 3 + ["wait"] * 3

    def test_constructor_rejects_negative_retry_settings(self, monkeypatch):
        """Failover settings and timeouts out of range or of the wrong
        type, and a node worker count that is not a non-negative integer,
        raise before any node is dialed."""
        dialed = []

        def spy_init(self, *args, **kwargs):
            dialed.append(args)
            raise AssertionError("a node was dialed")

        monkeypatch.setattr(NodeClient, "__init__", spy_init)
        points = DATASETS["random-2d"]
        for retries, error in ((-1, ValueError), (1.5, ValueError),
                               (True, TypeError)):
            with pytest.raises(error, match="retries"):
                DistributedBackend(points, ["127.0.0.1:1"], retries=retries)
        for backoff in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="retry_backoff"):
                DistributedBackend(points, ["127.0.0.1:1"],
                                   retry_backoff=backoff)
        for name in ("timeout", "connect_timeout"):
            for value, error in ((0, ValueError), (-1.0, ValueError),
                                 (float("nan"), ValueError),
                                 (float("inf"), ValueError),
                                 (True, TypeError)):
                with pytest.raises(error, match=name):
                    DistributedBackend(points, ["127.0.0.1:1"],
                                       **{name: value})
        for node_workers in (-1, 1.5):
            with pytest.raises(ValueError, match="node_workers"):
                DistributedBackend(points, ["127.0.0.1:1"],
                                   node_workers=node_workers)
        assert dialed == []


class TestWorkStealing:
    """Shard→worker affinity with stealing: idle slots drain the longest
    queue's tail, and stealing never moves a released byte."""

    def test_serial_backend_never_steals(self):
        points = DATASETS["random-2d"]
        backend = ShardedBackend(points, num_shards=6, num_workers=0)
        backend.radius_counts(0.5)
        assert backend.pool_stats()["stolen_tasks"] == 0
        backend.close()

    @pytest.mark.slow
    def test_pool_steals_from_slow_shard_and_matches_serial(self,
                                                            monkeypatch):
        """Shards ≫ workers with one seam-stalled shard: the idle slot
        steals the stalled slot's queued shards, pool_stats records it, and
        every count is bitwise the serial run's."""
        points = np.random.default_rng(8).uniform(size=(400, 3))
        radii = (0.0, 0.3, 0.8)
        serial = ShardedBackend(points, num_shards=8, num_workers=0)
        expected = [serial.radius_counts(r) for r in radii]
        serial.close()
        # Shard 0 (slot 0) stalls; slot 1 finishes its own shards and must
        # steal from slot 0's queue.  The seam is consulted inside the
        # forked workers, so it is set before the pool is created.
        monkeypatch.setattr(sharded_module, "_TASK_DELAY", (0, 0.75))
        pool = ShardedBackend(points, num_shards=8, num_workers=2)
        try:
            got = [pool.radius_counts(r) for r in radii]
            stats = pool.pool_stats()
        finally:
            pool.close()
        assert stats["parallel"], "pool fell back to serial; seam untested"
        assert stats["stolen_tasks"] > 0
        for counts, reference in zip(got, expected):
            assert np.array_equal(counts, reference)


@pytest.mark.needs_scipy
class TestTreeTruncatedCross:
    """The tree-backed per-shard truncated statistic is bitwise the
    brute-force kernel on every input — duplicates, boundary ties, d=1,
    d=24 — because the tree only *selects* the k nearest rows; the squared
    distances are recomputed by the same gather kernel and row-sorted.

    These inputs sit far below the k/n crossover at which the tree hands
    the statistic to the blocked slab, so the crossover is patched: here
    the KD-tree selects at every k, and in :class:`TestSlabTruncatedCross`
    the slab builds every statistic."""

    #: What ``tree.TREE_SELECT_FRACTION`` is patched to for every test.
    SELECT_FRACTION = math.inf

    @pytest.fixture(autouse=True)
    def _pin_kernel(self, monkeypatch):
        monkeypatch.setattr(tree_module, "TREE_SELECT_FRACTION",
                            self.SELECT_FRACTION)

    def test_matches_bruteforce_on_fixed_cases(self):
        for name, points in DATASETS.items():
            backend = TreeBackend(points)
            queries = np.vstack([points[:9], points[:3] + 0.125])
            for k in (1, 2, points.shape[0] // 2, points.shape[0]):
                got = backend.truncated_squared_cross(queries, k)
                expected = truncated_squared_cross(queries, points, k, 64)
                assert got.tobytes() == expected.tobytes(), (name, k)

    def test_sharded_tree_inner_matches_chunked_inner(self, monkeypatch):
        """Shards on the KD-tree strategy (the chunked threshold patched to
        0, so the truncated statistic runs on the full-dataset tree, or on
        the slab in the subclass) give the capped-average profile bitwise
        as shards on chunked do."""
        points = np.random.default_rng(4).uniform(size=(90, 2))
        radii = np.array([0.0, 0.2, 0.6, 2.0])
        targets = (1, 9, 45, 90)
        chunked = ShardedBackend(points, num_shards=3, num_workers=0)
        expected = [chunked.capped_average_scores(radii, target)
                    for target in targets]
        assert all(isinstance(chunked._shards.backend(shard), ChunkedBackend)
                   for shard in range(3))
        chunked.close()
        monkeypatch.setattr(neighbors, "CHUNKED_MAX_POINTS", 0)
        tree = ShardedBackend(points, num_shards=3, num_workers=0)
        for target, want in zip(targets, expected):
            assert np.array_equal(tree.capped_average_scores(radii, target),
                                  want)
        assert all(isinstance(tree._shards.backend(shard), TreeBackend)
                   for shard in range(3))
        # The full-dataset tree is built only where it selects.
        assert (tree._shards._full_tree is None) == (
            self.SELECT_FRACTION == 0)
        tree.close()

    def test_property_parity_with_oracle(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        coord = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 3.0])

        @st.composite
        def cases(draw):
            d = draw(st.sampled_from([1, 2, 24]))
            n = draw(st.integers(min_value=1, max_value=25))
            rows = draw(st.lists(
                st.lists(coord, min_size=d, max_size=d),
                min_size=n, max_size=n,
            ))
            k = draw(st.integers(min_value=1, max_value=n + 3))
            q = draw(st.integers(min_value=1, max_value=n))
            return np.array(rows, dtype=float), k, q

        @settings(max_examples=40, deadline=None)
        @given(cases())
        def run(case):
            points, k, q = case
            backend = TreeBackend(points)
            queries = points[:q]
            got = backend.truncated_squared_cross(queries, k)
            expected = truncated_squared_cross(
                queries, points, min(k, points.shape[0]), 32
            )
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

        run()


class TestSlabTruncatedCross(TestTreeTruncatedCross):
    """The same cases with the crossover patched to 0, so the tree backend
    hands every truncated statistic to the blocked slab."""

    SELECT_FRACTION = 0.0


class TestNodeServerBookkeeping:
    def test_finished_connections_are_pruned(self):
        # Regression: the server used to append every accepted connection
        # (and its thread) to its bookkeeping lists and only release them in
        # stop() — on a long-lived node, one dead socket + one finished
        # Thread object leaked per coordinator that ever dialed in.
        server = NodeServer().start()
        try:
            for _ in range(12):
                client = NodeClient(server.host, server.port)
                assert client.ping()
                client.close()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                with server._lock:
                    if not server._connections and not server._threads:
                        break
                time.sleep(0.01)
            with server._lock:
                assert server._connections == []
                assert server._threads == []
        finally:
            server.stop()

    def test_live_connection_stays_tracked(self):
        # Pruning must only cover *finished* connections: a live one stays
        # in the lists so stop() can still shut it down.
        server = NodeServer().start()
        try:
            client = NodeClient(server.host, server.port)
            assert client.ping()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                with server._lock:
                    if len(server._connections) == 1:
                        break
                time.sleep(0.01)
            with server._lock:
                assert len(server._connections) == 1
                assert len(server._threads) == 1
            client.close()
        finally:
            server.stop()
