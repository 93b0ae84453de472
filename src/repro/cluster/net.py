"""TCP transport for the cluster's typed RPC plane.

The messages of :mod:`repro.cluster.messages` are deliberately
transport-agnostic; this module carries the same pickled
:class:`~repro.cluster.messages.Request` / ``Reply`` envelopes over a
TCP socket instead of a :mod:`multiprocessing` pipe.  Three pieces:

- **Framing** — every envelope travels as one length-prefixed frame:
  a fixed 12-byte header (4 magic bytes + big-endian 8-byte payload
  length) followed by the pickle.  :class:`FrameDecoder` reassembles
  frames from arbitrary byte chunks (partial reads resume where they
  left off) and rejects garbage or oversized length prefixes loudly —
  a corrupt stream can never be resynchronized, so it must fail, not
  guess.
- **Client** — :class:`TcpTransport` mirrors the pool's pipe transport
  surface (``request`` / ``pid`` / ``is_alive`` / ``close`` / ``kill``),
  so :class:`~repro.cluster.pool.WorkerPool` drives pipe and TCP workers
  interchangeably.  A "kill" merely closes the connection: the remote
  worker process is externally managed, and a pool-level restart is a
  reconnect plus the usual ledger reseed.
- **Server** — :class:`WorkerServer` hosts one
  :class:`~repro.cluster.worker.ShardWorker` behind a listening socket
  (stdlib :mod:`selectors`, single-threaded like the pipe worker loop —
  the driver serializes requests per worker, so a lock-free handler
  table stays correct).  Token state belongs to the server process, not
  a connection: a driver that reconnects after a network fault finds
  its shard versions still loaded.

Failure semantics match the pipe transport exactly: a connection error
or an unrecoverable frame surfaces as :class:`EOFError`/:class:`OSError`
from ``request``, which the pool translates into the worker-restart +
ledger-replay path that keeps retried estimates bit-identical.
"""

from __future__ import annotations

import pickle
import selectors
import socket
import struct
import threading
import time

from repro.cluster.messages import Reply, Request, Shutdown, WorkerInfo
from repro.cluster.worker import ShardWorker, _sendable_error, handle_traced
from repro.errors import ReproError
from repro.obs.trace import absorb_remote_spans, trace_span, wire_context

#: Leading bytes of every frame ("repro frame v1"); a stream that does
#: not start a frame with these is corrupt, not merely lagging.
FRAME_MAGIC = b"RPF1"

_HEADER = struct.Struct(">4sQ")

#: Frame header size in bytes (magic + payload length).
HEADER_SIZE = _HEADER.size

#: Default per-frame payload ceiling.  Fit requests ship shard
#: databases, so frames are allowed to be large; anything beyond this is
#: a corrupt length prefix, not a plausible message.
DEFAULT_MAX_FRAME = 1 << 30

#: Socket receive buffer per read.
_RECV_SIZE = 1 << 16


class FrameError(ReproError):
    """The byte stream does not parse as frames (bad magic bytes or an
    implausible length prefix).  Unrecoverable for the connection: there
    is no way to find the next frame boundary in garbage."""


def encode_frame(payload: bytes, max_frame: int = DEFAULT_MAX_FRAME) -> bytes:
    """One wire frame: the 12-byte header plus ``payload``."""
    if len(payload) > max_frame:
        raise FrameError(
            f"refusing to send a {len(payload)}-byte frame "
            f"(max_frame is {max_frame})")
    return _HEADER.pack(FRAME_MAGIC, len(payload)) + payload


class FrameDecoder:
    """Incremental frame reassembly over arbitrary byte chunks.

    ``feed`` buffers whatever arrives and returns every *complete*
    payload; a frame split across reads (slow peers, small MTUs, a
    byte-at-a-time slowloris) resumes on the next chunk.  Header
    validation happens as soon as the 12 header bytes are buffered, so
    garbage fails before its claimed payload is ever awaited.
    """

    def __init__(self, max_frame: int = DEFAULT_MAX_FRAME):
        self.max_frame = int(max_frame)
        self._buffer = bytearray()

    @property
    def pending(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[bytes]:
        """Buffer ``data``; return the payloads completed by it."""
        self._buffer.extend(data)
        frames = []
        while len(self._buffer) >= HEADER_SIZE:
            magic, length = _HEADER.unpack_from(self._buffer)
            if magic != FRAME_MAGIC:
                raise FrameError(
                    f"stream does not frame: expected magic "
                    f"{FRAME_MAGIC!r}, got {bytes(magic)!r}")
            if length > self.max_frame:
                raise FrameError(
                    f"frame claims {length} bytes "
                    f"(max_frame is {self.max_frame}); "
                    f"corrupt length prefix")
            if len(self._buffer) < HEADER_SIZE + length:
                break
            frames.append(bytes(
                self._buffer[HEADER_SIZE:HEADER_SIZE + length]))
            del self._buffer[:HEADER_SIZE + length]
        return frames


def parse_address(spec: str | tuple) -> tuple[str, int]:
    """``"HOST:PORT"`` (or an already-split pair) as ``(host, port)``."""
    if isinstance(spec, tuple):
        host, port = spec
        return str(host), int(port)
    host, sep, port = str(spec).rpartition(":")
    if not sep or not host:
        raise ReproError(
            f"worker address {spec!r} is not HOST:PORT")
    try:
        return host, int(port)
    except ValueError:
        raise ReproError(f"worker address {spec!r} has a non-numeric port")


def _dumps(obj) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


class TcpTransport:
    """Driver-side connection to one :class:`WorkerServer`.

    Duck-types the pool's pipe transport: one in-flight ``request`` at a
    time (the pool serializes per worker), monotone request ids with
    stale-reply dropping, remote-span absorption, and per-frame trace
    spans plus byte counters for the ``repro_transport_*`` metrics.

    The grace window of ``request`` extends a missed deadline once: over
    TCP a silent peer is indistinguishable from a slow one (a dead
    process resets the connection instead), so slow-but-alive workers
    get ``grace`` extra seconds before the pool declares them dead and
    falls back to ledger replay.
    """

    kind = "tcp"

    def __init__(self, address, *, connect_timeout: float = 5.0,
                 max_frame: int = DEFAULT_MAX_FRAME):
        self.address = parse_address(address)
        self.max_frame = int(max_frame)
        self.pid = None  # learned from the first WorkerInfo reply
        self._next_id = 0
        self._closed = False
        self.stats = {"frames_sent": 0, "frames_received": 0,
                      "bytes_sent": 0, "bytes_received": 0}
        self._sock = socket.create_connection(self.address,
                                              timeout=connect_timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._decoder = FrameDecoder(self.max_frame)

    def is_alive(self) -> bool:
        """Whether the connection is still open.  The remote *process*
        cannot be observed from here — its death shows up as a reset or
        EOF on the next read."""
        return not self._closed

    def request(self, message, timeout, grace: float = 0.0):
        """Send one message and wait for its reply (see the pipe
        transport for the shared contract)."""
        if self._closed:
            raise EOFError(
                f"connection to worker at {self.address[0]}:"
                f"{self.address[1]} is closed")
        self._next_id += 1
        request = Request(id=self._next_id, message=message,
                          trace=wire_context())
        try:
            frame = encode_frame(_dumps(request), self.max_frame)
            # a send that cannot complete within the request deadline is
            # as hung as an unanswered one
            self._sock.settimeout(max(float(timeout), 1.0))
            with trace_span("frame.send", bytes=len(frame),
                            message=type(message).__name__):
                self._sock.sendall(frame)
            self.stats["frames_sent"] += 1
            self.stats["bytes_sent"] += len(frame)
            return self._await_reply(request, timeout, grace)
        except FrameError as exc:
            # a corrupt stream cannot be resynchronized: surface it as a
            # connection loss so the pool reconnects and reseeds
            self.close()
            raise EOFError(f"corrupt frame stream from worker at "
                           f"{self.address[0]}:{self.address[1]}: "
                           f"{exc}") from exc
        except (OSError, EOFError):
            self.close()
            raise

    def _await_reply(self, request: Request, timeout, grace: float):
        deadline = time.monotonic() + timeout
        grace_left = max(0.0, float(grace))
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                if grace_left > 0:
                    # slow-but-alive: the connection is up, so give the
                    # worker one grace extension before declaring it hung
                    deadline += grace_left
                    grace_left = 0.0
                    continue
                raise TimeoutError(
                    f"worker at {self.address[0]}:{self.address[1]} did "
                    f"not answer a {type(request.message).__name__} "
                    f"within {timeout:.0f}s (+{float(grace):.0f}s grace)")
            self._sock.settimeout(min(remaining, 0.5))
            try:
                data = self._sock.recv(_RECV_SIZE)
            except TimeoutError:
                continue
            if not data:
                raise EOFError(
                    f"worker at {self.address[0]}:{self.address[1]} "
                    f"closed the connection mid-request")
            self.stats["bytes_received"] += len(data)
            for payload in self._decoder.feed(data):
                self.stats["frames_received"] += 1
                reply: Reply = pickle.loads(payload)
                if reply.id != request.id:
                    continue  # stale answer to an abandoned request
                with trace_span("frame.recv", bytes=len(payload),
                                message=type(request.message).__name__):
                    absorb_remote_spans(getattr(reply, "spans", ()))
                if reply.ok and isinstance(reply.value, WorkerInfo):
                    self.pid = reply.value.pid
                if reply.ok:
                    return reply.value
                raise reply.error

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass

    def kill(self) -> None:
        """Drop the connection.  The worker process itself is externally
        managed (``repro worker``); a pool restart reconnects."""
        self.close()


class WorkerServer:
    """A shard worker behind a TCP listener (``repro worker --listen``).

    Single-threaded: one :mod:`selectors` loop accepts connections,
    reassembles request frames per connection, and runs the shared
    :func:`~repro.cluster.worker.handle_traced` path — so a TCP worker
    answers every message bit-identically to a pipe worker, remote
    spans included.  Shard-state tokens live in the server process and
    survive reconnects; a :class:`~repro.cluster.messages.Shutdown`
    message closes only the requesting connection (driver lifecycle
    must not stop an externally managed worker host).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 store=None, max_frame: int = DEFAULT_MAX_FRAME,
                 metrics=None):
        self.worker = ShardWorker(store=store, metrics=metrics)
        self.max_frame = int(max_frame)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(16)
        self.address = self._listener.getsockname()[:2]
        self._wake_r, self._wake_w = socket.socketpair()
        self._stopped = threading.Event()
        self._thread: threading.Thread | None = None
        self.served_frames = 0

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "WorkerServer":
        """Serve on a daemon thread (tests and embedded use); returns
        self."""
        self._thread = threading.Thread(target=self.serve_forever,
                                        daemon=True,
                                        name="repro-worker-server")
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the loop, close the listener and every connection."""
        if self._stopped.is_set():
            return
        self._stopped.set()
        try:
            self._wake_w.send(b"x")
        except OSError:
            pass
        if self._thread is not None and self._thread.is_alive():
            self._thread.join(timeout=5)

    def serve_forever(self) -> None:
        """Answer framed requests until :meth:`stop` (blocking)."""
        selector = selectors.DefaultSelector()
        selector.register(self._listener, selectors.EVENT_READ, "accept")
        selector.register(self._wake_r, selectors.EVENT_READ, "wake")
        connections: dict[socket.socket, FrameDecoder] = {}
        try:
            while not self._stopped.is_set():
                for key, _ in selector.select(timeout=0.5):
                    if key.data == "wake":
                        return
                    if key.data == "accept":
                        try:
                            conn, _ = self._listener.accept()
                        except OSError:
                            continue
                        conn.setsockopt(socket.IPPROTO_TCP,
                                        socket.TCP_NODELAY, 1)
                        connections[conn] = FrameDecoder(self.max_frame)
                        selector.register(conn, selectors.EVENT_READ,
                                          "conn")
                        continue
                    conn = key.fileobj
                    if not self._serve_ready(conn, connections[conn]):
                        selector.unregister(conn)
                        del connections[conn]
                        conn.close()
        finally:
            for conn in connections:
                conn.close()
            selector.close()
            self._listener.close()
            self._wake_r.close()
            self._wake_w.close()

    # -- one connection --------------------------------------------------------

    def _serve_ready(self, conn: socket.socket,
                     decoder: FrameDecoder) -> bool:
        """Handle readable bytes on ``conn``; False closes it."""
        try:
            data = conn.recv(_RECV_SIZE)
        except OSError:
            return False
        if not data:
            return False
        try:
            payloads = decoder.feed(data)
        except FrameError:
            # unrecoverable stream: drop the connection, keep the state
            return False
        for payload in payloads:
            try:
                request: Request = pickle.loads(payload)
            except Exception:
                return False
            if not self._answer(conn, request):
                return False
        return True

    def _answer(self, conn: socket.socket, request: Request) -> bool:
        self.served_frames += 1
        if isinstance(request.message, Shutdown):
            self._send(conn, Reply(id=request.id, ok=True, value=True))
            return False  # close this connection; the server keeps serving
        value, error, spans = handle_traced(
            self.worker, request.message, getattr(request, "trace", None))
        if error is None:
            reply = Reply(id=request.id, ok=True, value=value, spans=spans)
        else:
            reply = Reply(id=request.id, ok=False,
                          error=_sendable_error(error), spans=spans)
        return self._send(conn, reply)

    def _send(self, conn: socket.socket, reply: Reply) -> bool:
        try:
            blob = _dumps(reply)
        except Exception:
            # an unpicklable value: ship the typed error instead
            blob = _dumps(Reply(
                id=reply.id, ok=False,
                error=ReproError("worker reply failed to pickle")))
        try:
            conn.sendall(encode_frame(blob, self.max_frame))
            return True
        except (OSError, FrameError):
            return False

    def __enter__(self) -> "WorkerServer":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
