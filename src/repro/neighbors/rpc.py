"""Wire protocol for the distributed neighbor backend.

The distributed backend (``repro.neighbors.distributed``) ships the *exact*
payloads the sharded backend already routes to its worker processes — view
wire triples, per-shard selection specs (including ``BoxSelection`` label
predicates with their cache tokens), compiled :class:`QueryPlan` bundles,
centre blocks, radius grids — over TCP sockets instead of pickle pipes.
This module is the transport: a small self-describing binary encoding plus
length-prefixed framing and a pipelined per-node client.

Why not pickle?  Pickle over a socket executes whatever the peer sends;
a node server must not grant its coordinator (or anything that can reach
its port) arbitrary code execution.  Why not JSON?  The payloads are numpy
arrays whose *bit patterns* are the correctness contract — every float64
must cross the wire exactly, because the parity guarantee ("releases are
bitwise identical whether shards live in threads, processes, or sockets")
is asserted down to the last ulp.  So the encoding here is a tiny tagged
binary format, msgpack-shaped but dependency-free:

* scalars — ``None``, booleans, 64-bit ints (with a big-int escape),
  float64 (IEEE-754 bytes via ``struct 'd'``, never decimal), UTF-8
  strings, raw bytes;
* containers — lists, tuples (distinguished: shard specs are tuples and
  ``("rows", ...)[0] == "rows"`` dispatch relies on it), string-keyed
  dicts;
* arrays — dtype descriptor + shape + C-order buffer, so
  ``decode(encode(a))`` reproduces dtype, shape, and every byte.  Numpy
  scalar types encode as 0-d arrays and decode back to numpy scalars.

Framing is an 8-byte big-endian length prefix per message.  Every
transport-level failure — connection refused, EOF mid-frame, a read
timeout — surfaces as :class:`BackendUnavailableError`; the encoding
itself raises ``TypeError``/``ValueError`` on unsupported payloads, which
is a programming error, not a transport one.
"""

from __future__ import annotations

import io
import select
import socket
import struct
import time
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.neighbors.base import BackendUnavailableError

__all__ = [
    "BackendUnavailableError",
    "NodeClient",
    "PendingReply",
    "decode",
    "encode",
    "read_frame",
    "write_frame",
]

#: Frame header: payload length as an unsigned 64-bit big-endian integer.
_FRAME_HEADER = struct.Struct(">Q")

#: Refuse frames beyond this size (1 GiB): a corrupt or hostile length
#: prefix must not make a node try to allocate petabytes.
MAX_FRAME_BYTES = 1 << 30

# Type tags (one byte each).
_T_NONE = b"N"
_T_TRUE = b"T"
_T_FALSE = b"F"
_T_INT = b"i"        # signed 64-bit
_T_BIGINT = b"I"     # arbitrary precision (length-prefixed decimal text)
_T_FLOAT = b"d"      # IEEE-754 binary64, exact bit pattern
_T_STR = b"s"
_T_BYTES = b"b"
_T_LIST = b"l"
_T_TUPLE = b"t"
_T_DICT = b"m"
_T_ARRAY = b"a"

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_U32 = struct.Struct(">I")


def _encode_into(out: io.BytesIO, value: Any) -> None:
    if value is None:
        out.write(_T_NONE)
    elif value is True:
        out.write(_T_TRUE)
    elif value is False:
        out.write(_T_FALSE)
    elif isinstance(value, (np.generic, np.ndarray)):
        # Numpy scalars ride as 0-d arrays: the decode side turns 0-d back
        # into a scalar, so dtype (and bit pattern) round-trip exactly.
        # (asarray, not ascontiguousarray, which would promote 0-d to 1-d.)
        array = np.asarray(value, order="C")
        if array.dtype.hasobject:
            raise TypeError("object-dtype arrays cannot cross the wire")
        descr = array.dtype.str.encode("ascii")
        out.write(_T_ARRAY)
        out.write(_U32.pack(len(descr)))
        out.write(descr)
        out.write(_U32.pack(array.ndim))
        for extent in array.shape:
            out.write(_I64.pack(int(extent)))
        payload = array.tobytes(order="C")
        out.write(_FRAME_HEADER.pack(len(payload)))
        out.write(payload)
    elif isinstance(value, int):
        if _INT64_MIN <= value <= _INT64_MAX:
            out.write(_T_INT)
            out.write(_I64.pack(value))
        else:
            text = str(value).encode("ascii")
            out.write(_T_BIGINT)
            out.write(_U32.pack(len(text)))
            out.write(text)
    elif isinstance(value, float):
        out.write(_T_FLOAT)
        out.write(_F64.pack(value))
    elif isinstance(value, str):
        payload = value.encode("utf-8")
        out.write(_T_STR)
        out.write(_FRAME_HEADER.pack(len(payload)))
        out.write(payload)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        payload = bytes(value)
        out.write(_T_BYTES)
        out.write(_FRAME_HEADER.pack(len(payload)))
        out.write(payload)
    elif isinstance(value, (list, tuple)):
        out.write(_T_TUPLE if isinstance(value, tuple) else _T_LIST)
        out.write(_U32.pack(len(value)))
        for item in value:
            _encode_into(out, item)
    elif isinstance(value, dict):
        out.write(_T_DICT)
        out.write(_U32.pack(len(value)))
        for key, item in value.items():
            if not (key is None or isinstance(key, (str, bool, int, float))):
                raise TypeError(
                    "wire dict keys must be scalars, got "
                    f"{type(key).__name__}"
                )
            _encode_into(out, key)
            _encode_into(out, item)
    else:
        raise TypeError(
            f"cannot encode {type(value).__name__} for the node wire"
        )


def encode(value: Any) -> bytes:
    """Serialise a payload to the tagged binary wire form."""
    out = io.BytesIO()
    _encode_into(out, value)
    return out.getvalue()


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, count: int) -> bytes:
        end = self.pos + count
        if end > len(self.data):
            raise ValueError("truncated wire payload")
        piece = self.data[self.pos:end]
        self.pos = end
        return piece


def _decode_from(reader: _Reader) -> Any:
    tag = reader.take(1)
    if tag == _T_NONE:
        return None
    if tag == _T_TRUE:
        return True
    if tag == _T_FALSE:
        return False
    if tag == _T_INT:
        return _I64.unpack(reader.take(8))[0]
    if tag == _T_BIGINT:
        (length,) = _U32.unpack(reader.take(4))
        return int(reader.take(length).decode("ascii"))
    if tag == _T_FLOAT:
        return _F64.unpack(reader.take(8))[0]
    if tag == _T_STR:
        (length,) = _FRAME_HEADER.unpack(reader.take(8))
        return reader.take(length).decode("utf-8")
    if tag == _T_BYTES:
        (length,) = _FRAME_HEADER.unpack(reader.take(8))
        return reader.take(length)
    if tag in (_T_LIST, _T_TUPLE):
        (count,) = _U32.unpack(reader.take(4))
        items = [_decode_from(reader) for _ in range(count)]
        return tuple(items) if tag == _T_TUPLE else items
    if tag == _T_DICT:
        (count,) = _U32.unpack(reader.take(4))
        return {_decode_from(reader): _decode_from(reader)
                for _ in range(count)}
    if tag == _T_ARRAY:
        (descr_length,) = _U32.unpack(reader.take(4))
        dtype = np.dtype(reader.take(descr_length).decode("ascii"))
        if dtype.hasobject:  # pragma: no cover - encoder refuses these
            raise ValueError("object-dtype arrays cannot cross the wire")
        (ndim,) = _U32.unpack(reader.take(4))
        shape = tuple(_I64.unpack(reader.take(8))[0] for _ in range(ndim))
        (length,) = _FRAME_HEADER.unpack(reader.take(8))
        array = np.frombuffer(reader.take(length), dtype=dtype).reshape(shape)
        # Writable copy: frombuffer views are read-only and some queries
        # sort their inputs in place.
        array = np.array(array, copy=True)
        if array.ndim == 0:
            return array[()]
        return array
    raise ValueError(f"unknown wire tag {tag!r}")


def decode(data: bytes) -> Any:
    """Inverse of :func:`encode` (bitwise: arrays and floats exactly)."""
    reader = _Reader(data)
    value = _decode_from(reader)
    if reader.pos != len(reader.data):
        raise ValueError("trailing bytes after wire payload")
    return value


# --------------------------------------------------------------------------- #
# Framing
# --------------------------------------------------------------------------- #

def write_frame(sock: socket.socket, payload: bytes) -> None:
    """Send one length-prefixed frame (transport errors are wrapped)."""
    try:
        sock.sendall(_FRAME_HEADER.pack(len(payload)) + payload)
    except (OSError, ValueError) as error:
        raise BackendUnavailableError(
            f"node connection lost while sending: {error}"
        ) from error


def _read_exact(sock: socket.socket, count: int,
                deadline: Optional[float] = None) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        if deadline is not None:
            budget = deadline - time.monotonic()
            if budget <= 0:
                raise BackendUnavailableError(
                    "node did not answer within the configured timeout"
                )
            sock.settimeout(budget)
        try:
            chunk = sock.recv(min(remaining, 1 << 20))
        except socket.timeout as error:
            raise BackendUnavailableError(
                "node did not answer within the configured timeout"
            ) from error
        except OSError as error:
            raise BackendUnavailableError(
                f"node connection lost while reading: {error}"
            ) from error
        if not chunk:
            raise BackendUnavailableError(
                "node closed the connection mid-message"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket, timeout: Optional[float] = None,
               deadline: Optional[float] = None) -> bytes:
    """Read one length-prefixed frame.

    ``timeout`` is a *total* budget for the whole frame, converted to a
    monotonic ``deadline`` up front (callers draining several pipelined
    frames pass an explicit ``deadline`` instead, so the budget spans all
    of them).  A per-``recv`` timeout would let a slow peer stall
    ``k × timeout`` across ``k`` frames — or even across the chunks of one
    large frame — before the failure fired.
    """
    if deadline is None and timeout is not None:
        deadline = time.monotonic() + timeout
    if deadline is None:
        sock.settimeout(None)
    header = _read_exact(sock, _FRAME_HEADER.size, deadline)
    (length,) = _FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise BackendUnavailableError(
            f"node announced an implausible {length}-byte frame"
        )
    return _read_exact(sock, length, deadline)


def send_message(sock: socket.socket, message: Any) -> None:
    """Encode + frame one message."""
    write_frame(sock, encode(message))


def recv_message(sock: socket.socket, timeout: Optional[float] = None,
                 deadline: Optional[float] = None) -> Any:
    """Read + decode one message.

    A frame that arrives whole but does not decode is a transport failure
    like any other (:class:`BackendUnavailableError`): the two ends no
    longer agree on the stream, so the connection must be dropped — a
    reply read off the socket but never handed to its request would pair
    every later reply with the request before it.
    """
    frame = read_frame(sock, timeout=timeout, deadline=deadline)
    try:
        return decode(frame)
    except (ValueError, TypeError) as error:
        raise BackendUnavailableError(
            f"undecodable {len(frame)}-byte frame: {error}"
        ) from error


# --------------------------------------------------------------------------- #
# Client
# --------------------------------------------------------------------------- #

class PendingReply:
    """A reply the peer has not produced yet (FIFO request pipelining).

    :class:`NodeClient` writes requests eagerly and reads replies lazily in
    request order — the asynchronous half of ``submit(plan)``: the
    coordinator can put a plan on every node's wire and only block when a
    result is demanded.  :meth:`wait` drains earlier pending replies first
    (the stream is strictly ordered), so replies can be awaited in any
    order without deadlock.
    """

    __slots__ = ("_client", "_value", "_error", "_done")

    def __init__(self, client: "NodeClient") -> None:
        self._client = client
        self._value = None
        self._error: Optional[BaseException] = None
        self._done = False

    def _resolve(self, value: Any) -> None:
        self._value = value
        self._done = True

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._done = True

    def done(self) -> bool:
        """Whether the reply has already been read off the socket (never
        blocks; drains any bytes the node has pushed so far)."""
        if not self._done:
            self._client._poll()
        return self._done

    def wait(self, timeout: Optional[float] = None) -> Any:
        """Block until this reply arrives and return the decoded payload."""
        if not self._done:
            self._client._read_until(self, timeout)
        if self._error is not None:
            raise self._error
        return self._value


class NodeClient:
    """One coordinator-side connection to a node server.

    Requests are written immediately; replies stream back strictly in
    request order (the server answers each connection serially).  Every
    transport failure poisons the client — once dead, all pending and
    future calls raise :class:`BackendUnavailableError` instantly rather
    than hanging on a socket that will never speak again.
    """

    def __init__(self, host: str, port: int,
                 connect_timeout: Optional[float] = 10.0,
                 timeout: Optional[float] = None) -> None:
        self.address = (str(host), int(port))
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self._pending: List[PendingReply] = []
        self._buffer = b""
        self._dead: Optional[str] = None
        try:
            self._sock = socket.create_connection(self.address,
                                                  timeout=connect_timeout)
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError as error:
            self._sock = None
            self._dead = f"connect to {host}:{port} failed: {error}"
            raise BackendUnavailableError(self._dead) from error

    # -- lifecycle ----------------------------------------------------- #
    @property
    def alive(self) -> bool:
        return self._dead is None

    @property
    def pending_count(self) -> int:
        """How many requests are awaiting replies on this connection."""
        return len(self._pending)

    def redial(self, connect_timeout: Optional[float] = None) -> None:
        """Reset a poisoned (or live) connection by dialing the server
        afresh.

        The failover layer's entry point: any pending replies are failed
        (their requests died with the old socket and must be replayed by
        the caller), the dead-marker is cleared, and a brand-new TCP
        connection is established.  The server builds per-connection state,
        so the caller must re-send ``init`` before any task reaches the
        new connection.  Raises :class:`BackendUnavailableError` — and
        leaves the client poisoned — when the dial itself fails.
        """
        if self._dead is None:
            self._dead = "connection reset for redial"
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - close never matters
                pass
        self._fail_pending(BackendUnavailableError(self._dead))
        if connect_timeout is None:
            connect_timeout = self.connect_timeout
        try:
            self._sock = socket.create_connection(self.address,
                                                  timeout=connect_timeout)
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError as error:
            self._sock = None
            self._dead = (f"re-dial of {self.address[0]}:{self.address[1]} "
                          f"failed: {error}")
            raise BackendUnavailableError(self._dead) from error
        self._dead = None

    def ping(self, timeout: Optional[float] = 5.0) -> bool:
        """Cheap health probe: one ``ping`` round trip, ``False`` on any
        failure (a probe must never raise — it is asked exactly when the
        peer is suspect)."""
        if self._dead is not None:
            return False
        try:
            reply = self.call(("ping",), timeout=timeout)
        except (BackendUnavailableError, OSError):
            return False
        return isinstance(reply, dict) and reply.get("status") == "ok"

    def close(self) -> None:
        """Close the socket (idempotent; pending replies fail fast)."""
        if self._dead is None:
            self._dead = "connection closed"
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - close never matters
                pass
        self._fail_pending(BackendUnavailableError(self._dead))

    def _mark_dead(self, error: BaseException) -> BackendUnavailableError:
        wrapped = (error if isinstance(error, BackendUnavailableError)
                   else BackendUnavailableError(str(error)))
        if self._dead is None:
            self._dead = (f"node {self.address[0]}:{self.address[1]} "
                          f"unavailable: {wrapped}")
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass
        self._fail_pending(BackendUnavailableError(self._dead))
        return BackendUnavailableError(self._dead)

    def _fail_pending(self, error: BackendUnavailableError) -> None:
        pending, self._pending = self._pending, []
        for reply in pending:
            if not reply._done:
                reply._fail(error)

    def _check_alive(self) -> None:
        if self._dead is not None:
            raise BackendUnavailableError(self._dead)

    # -- request/reply ------------------------------------------------- #
    def send(self, request: Any) -> PendingReply:
        """Write one request and return its (unread) reply handle."""
        self._check_alive()
        reply = PendingReply(self)
        try:
            send_message(self._sock, request)
        except (BackendUnavailableError, OSError) as error:
            raise self._mark_dead(error) from error
        self._pending.append(reply)
        return reply

    def call(self, request: Any, timeout: Optional[float] = None) -> Any:
        """``send`` + ``wait`` in one step (the synchronous path)."""
        return self.send(request).wait(
            self.timeout if timeout is None else timeout
        )

    def _read_until(self, target: PendingReply,
                    timeout: Optional[float]) -> None:
        """Drain replies in FIFO order until ``target`` resolves.

        The timeout is one *overall* monotonic deadline covering every
        frame drained on the way to ``target`` — not a per-frame budget.
        With ``k`` pipelined replies queued ahead of the target, a
        per-frame timeout would let a slow node stall ``k × timeout``
        before the poison fired, which is exactly the hang the timeout
        exists to bound.
        """
        effective = self.timeout if timeout is None else timeout
        deadline = (None if effective is None
                    else time.monotonic() + effective)
        while not target._done:
            self._check_alive()
            if not self._pending:  # pragma: no cover - caller bug guard
                raise BackendUnavailableError(
                    "reply awaited on a connection with no pending requests"
                )
            try:
                message = recv_message(self._sock, deadline=deadline)
            except (BackendUnavailableError, OSError) as error:
                raise self._mark_dead(error) from error
            self._pending.pop(0)._resolve(message)

    def _poll(self) -> None:
        """Drain replies the node has already pushed (used by
        :meth:`PendingReply.done`).  Readability is probed with a zero-wait
        ``select``; a readable socket is then read with the normal per-call
        timeout — never a non-blocking read, which could abandon a
        half-consumed frame and corrupt the reply stream."""
        if self._dead is not None or not self._pending:
            return
        while self._pending:
            try:
                readable, _, _ = select.select([self._sock], [], [], 0)
            except (OSError, ValueError):  # pragma: no cover - closed race
                return
            if not readable:
                return
            try:
                message = recv_message(self._sock, timeout=self.timeout)
            except (BackendUnavailableError, OSError) as error:
                # EOF or a real transport error: poison the client so the
                # next wait() fails fast instead of blocking.
                self._mark_dead(error)
                return
            self._pending.pop(0)._resolve(message)


def _check_port(port_text, node) -> int:
    try:
        port = int(port_text)
    except (TypeError, ValueError):
        raise ValueError(
            f"node address {node!r} has a non-numeric port {port_text!r}"
        ) from None
    if not 1 <= port <= 65535:
        raise ValueError(
            f"node address {node!r} has port {port} outside [1, 65535]"
        )
    return port


def parse_node_address(node) -> Tuple[str, int]:
    """Normalise a node spec to a ``(host, port)`` pair.

    Accepts ``"host:port"`` strings, ``"[ipv6]:port"`` strings (brackets
    stripped, so the host feeds straight into
    ``socket.create_connection``), and ``(host, port)`` pairs.  Bare IPv6
    hosts like ``"::1:9000"`` are rejected — every colon is a candidate
    separator, so the split is ambiguous and the address must be
    bracketed.  Ports are validated to the connectable range
    ``[1, 65535]``.
    """
    if isinstance(node, str):
        if node.startswith("["):
            host, sep, rest = node[1:].partition("]")
            if not sep or not rest.startswith(":") or not host:
                raise ValueError(
                    f"node address {node!r} is not of the form '[ipv6]:port'"
                )
            return host, _check_port(rest[1:], node)
        host, sep, port = node.rpartition(":")
        if not sep or not host:
            raise ValueError(
                f"node address {node!r} is not of the form 'host:port'"
            )
        if ":" in host:
            raise ValueError(
                f"node address {node!r} looks like a bare IPv6 address, "
                f"which is ambiguous; bracket the host as '[{host}]:{port}'"
            )
        return host, _check_port(port, node)
    host, port = node
    return str(host), _check_port(port, node)
