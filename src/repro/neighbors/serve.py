"""Node server for the distributed neighbor backend.

Run one of these per machine::

    python -m repro.neighbors.serve --host 0.0.0.0 --port 7400 --workers 4

and point a :class:`~repro.neighbors.distributed.DistributedBackend` at the
resulting ``host:port`` addresses.  The server prints one line —
``LISTENING <host> <port>`` — once the socket is bound (with ``--port 0``
the kernel picks a free port, so the line is how a parent process learns
it), then serves until interrupted.

Protocol
--------
Each accepted connection is served serially by its own thread and owns its
own state: an ``init`` request ships the dataset and topology and builds a
node-local :class:`~repro.neighbors.sharded.ShardedBackend` (so the node
runs the *identical* shard/merge code the single-machine pool runs);
``shard_tasks`` forwards a batch of ``(shard, payload)`` tasks — each
payload a compiled plan bundle ``(views, selections, queries)`` — to that
backend's :meth:`~repro.neighbors.sharded.ShardedBackend.run_shard_tasks`,
which rejects a malformed task (a shard out of range, a payload of the
wrong shape, an unknown plan op) with an error reply, runs the batch
through the node's worker pool with work stealing, and returns the results
in task order.  Messages use the tagged binary encoding of
:mod:`repro.neighbors.rpc` (never pickle: a node must not grant arbitrary
code execution to whatever reaches its port); a frame that does not
decode closes the connection.

Requests are ``(op, *args)`` tuples; replies are ``{"status": "ok",
"value": ...}`` or ``{"status": "error", "error": ..., "traceback": ...}``
dicts.  Worker-side exceptions travel back as error replies — the
connection survives; only transport failures kill it.

The ``debug_*`` ops exist for the fault-injection test suite: they make a
node misbehave on request (stall before replying, drop the connection
without a reply, or send a deliberately truncated frame) so the
coordinator's failure handling — clean :class:`BackendUnavailableError`,
no hang, no partial merge — can be pinned against a real socket.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import socket
import struct
import threading
import time
import traceback
from typing import List, Optional

import numpy as np

from repro.neighbors.rpc import (
    BackendUnavailableError,
    encode,
    recv_message,
    send_message,
    write_frame,
)
from repro.neighbors.sharded import ShardedBackend

__all__ = ["NodeServer", "main"]


def _init_fingerprint(request: tuple) -> tuple:
    """A comparable summary of one ``init`` request: topology plus the
    dataset's exact bytes (cheap next to deserialising the dataset, which
    already happened).  Two requests with equal fingerprints would build
    byte-identical backends, so the second build can be skipped."""
    if len(request) != 4:
        raise ValueError(
            "init takes (points, num_shards, num_workers); got "
            f"{len(request) - 1} fields"
        )
    _, points, num_shards, num_workers = request
    points = np.asarray(points)
    digest = hashlib.sha256(np.ascontiguousarray(points)).hexdigest()
    return (int(num_shards),
            None if num_workers is None else int(num_workers),
            points.dtype.str, points.shape, digest)


class NodeServer:
    """A TCP node server hosting per-connection ``ShardedBackend`` pools.

    Parameters
    ----------
    host, port:
        Bind address.  ``port=0`` (default) lets the kernel pick; the bound
        port is then available as :attr:`port`.
    num_workers:
        When not ``None``, overrides the worker count every ``init``
        request asks for — the operator of the node machine knows its core
        budget better than the coordinator does.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 num_workers: Optional[int] = None) -> None:
        self._override_workers = num_workers
        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()[:2]
        self._stopping = threading.Event()
        self._lock = threading.Lock()
        self._connections: List[socket.socket] = []
        self._threads: List[threading.Thread] = []
        self._accept_thread: Optional[threading.Thread] = None

    @property
    def address(self) -> str:
        """The ``host:port`` string a coordinator connects to."""
        return f"{self.host}:{self.port}"

    # -- lifecycle ------------------------------------------------------ #
    def start(self) -> "NodeServer":
        """Serve in a background thread (the in-process/test mode)."""
        self._accept_thread = threading.Thread(target=self.serve_forever,
                                               daemon=True,
                                               name="repro-node-accept")
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Accept connections until :meth:`stop` (or the listener dies)."""
        while not self._stopping.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                break  # listener closed by stop()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(target=self._serve_connection,
                                      args=(conn,), daemon=True,
                                      name="repro-node-conn")
            with self._lock:
                self._connections.append(conn)
                self._threads.append(thread)
            thread.start()

    def stop(self) -> None:
        """Close the listener and every live connection (idempotent)."""
        self._stopping.set()
        # shutdown() before close(): merely closing a listening socket does
        # not wake a thread blocked in accept() (it would sit there until
        # the next — never-coming — connection attempt).
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover
            pass
        with self._lock:
            connections, self._connections = self._connections, []
            threads, self._threads = self._threads, []
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        for thread in threads:
            thread.join(timeout=5.0)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None

    def __enter__(self) -> "NodeServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- per-connection protocol ---------------------------------------- #
    def _serve_connection(self, conn: socket.socket) -> None:
        backend: Optional[ShardedBackend] = None
        init_fingerprint: Optional[tuple] = None
        try:
            while not self._stopping.is_set():
                try:
                    request = recv_message(conn)
                except BackendUnavailableError:
                    # Peer closed, stop() shut the socket down, or a frame
                    # did not decode: the stream is unusable either way.
                    break
                op = request[0] if isinstance(request, tuple) and request \
                    else None
                # Fault-injection ops manipulate the socket itself, so they
                # are handled before the normal reply path.
                if op == "debug_sleep":
                    time.sleep(float(request[1]))
                    send_message(conn, {"status": "ok", "value": None})
                    continue
                if op == "debug_drop":
                    break  # close without replying: EOF mid-read
                if op == "debug_truncate":
                    # A frame header promising more bytes than will ever
                    # arrive: the peer's read sees EOF mid-frame.
                    payload = encode({"status": "ok", "value": None})
                    conn.sendall(struct.pack(">Q", len(payload))
                                 + payload[:max(1, len(payload) // 2)])
                    break
                try:
                    if op == "init":
                        # A coordinator that redials after a transport
                        # failure replays its init; an *identical* replay
                        # on a connection whose backend already matches is
                        # a no-op (keeping the warm per-shard caches)
                        # instead of a rebuild — init is idempotent.
                        fingerprint = _init_fingerprint(request)
                        reused = (backend is not None
                                  and fingerprint == init_fingerprint)
                        if not reused:
                            if backend is not None:
                                backend.close()
                                backend = None
                            backend = self._build_backend(request)
                            init_fingerprint = fingerprint
                        reply = {"status": "ok", "value": {
                            "pid": os.getpid(),
                            "num_shards": backend.num_shards,
                            "reused": reused,
                        }}
                    elif op == "shard_tasks":
                        if backend is None:
                            raise RuntimeError(
                                "shard_tasks before init on this connection"
                            )
                        reply = {"status": "ok",
                                 "value": backend.run_shard_tasks(request[1])}
                    elif op == "pool_stats":
                        if backend is None:
                            raise RuntimeError(
                                "pool_stats before init on this connection"
                            )
                        reply = {"status": "ok",
                                 "value": backend.pool_stats()}
                    elif op == "ping":
                        reply = {"status": "ok",
                                 "value": {"pid": os.getpid()}}
                    elif op == "close_backend":
                        if backend is not None:
                            backend.close()
                            backend = None
                            init_fingerprint = None
                        reply = {"status": "ok", "value": None}
                    else:
                        raise ValueError(f"unknown request op {op!r}")
                except Exception as error:
                    reply = {
                        "status": "error",
                        "error": f"{type(error).__name__}: {error}",
                        "traceback": traceback.format_exc(),
                    }
                try:
                    payload = encode(reply)
                except TypeError as error:
                    # A result the wire encoding cannot carry must not kill
                    # the connection: report it as an op failure instead.
                    payload = encode({
                        "status": "error",
                        "error": f"unencodable reply: {error}",
                        "traceback": traceback.format_exc(),
                    })
                write_frame(conn, payload)
        except (BackendUnavailableError, OSError):  # pragma: no cover
            pass  # peer vanished mid-reply; nothing left to tell it
        finally:
            if backend is not None:
                backend.close()
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
            # Prune this connection's bookkeeping: without it, a long-lived
            # node (the service deployment mode) accumulates one dead socket
            # and one finished Thread object per coordinator that ever
            # dialed in, released only at stop().  stop() may have swapped
            # the lists out concurrently, in which case the entries are
            # already gone and the removes are no-ops.
            with self._lock:
                try:
                    self._connections.remove(conn)
                except ValueError:
                    pass
                try:
                    self._threads.remove(threading.current_thread())
                except ValueError:
                    pass

    def _build_backend(self, request: tuple) -> ShardedBackend:
        _, points, num_shards, num_workers = request
        workers = (self._override_workers if self._override_workers is not None
                   else num_workers)
        return ShardedBackend(
            np.ascontiguousarray(np.asarray(points, dtype=float)),
            num_shards=int(num_shards),
            num_workers=None if workers is None else int(workers),
        )


def main(argv=None) -> int:
    """CLI entry point: ``python -m repro.neighbors.serve``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.neighbors.serve",
        description="Serve one node of the distributed neighbor backend.",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: loopback only)")
    parser.add_argument("--port", type=int, default=0,
                        help="bind port (default 0: kernel-assigned, "
                             "printed on the LISTENING line)")
    parser.add_argument("--workers", type=int, default=None,
                        help="override the worker-process count requested "
                             "by the coordinator's init")
    args = parser.parse_args(argv)
    server = NodeServer(host=args.host, port=args.port,
                        num_workers=args.workers)
    print(f"LISTENING {server.host} {server.port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        pass
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
