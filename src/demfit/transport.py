"""Message transports between the manager and the worker endpoints.

Both transports expose the same blocking request/reply surface, so the
manager loop fully determines message ordering and the resulting traces
are identical across transports.

Socket wire format: a connection opens with the magic bytes b"DEMX1";
every frame is little-endian {u32 body-length, u8 msg-kind, u32 subset_id,
u64 iteration, f64-array payload}.  A worker whose request fails answers
with an error frame (KIND_ERROR) in place of the reply: same header, with
the UTF-8 text "ExceptionType: message" as its payload; it then goes on
serving requests.

A worker keeps the parameter of its previous request: a request whose
payload bytes equal the previous one's gets that same `Theta` object, so
the terms it caches are derived once per parameter, and a model may keep
what it computed at it (an `LmmShard` keeps its last loglik's posterior
for the E step at the same parameter).

The manager waits at most REPLY_TIMEOUT_S seconds for each reply.  A
worker that does not answer in time, or whose connection drops, is a
ProtocolError naming it; after a timeout the manager closes that
connection, so a late reply cannot answer a later request.  Workers block
on their reads without a limit, because they sit idle between iterations.
A worker whose connection fails, or opens without the magic bytes, closes
it and exits quietly.
"""
from __future__ import annotations

import socket
import struct
import threading

import numpy as np

from .model import ModelContract, ProtocolError, SuffStats

MAGIC = b"DEMX1"
# seconds the manager waits for a reply: far above one E step on a
# paper-sized shard (10^4 samples, p=10, q=3: about 40 ms on 2 cores);
# with a timeout each socket call polls first, about 3 us per RPC
REPLY_TIMEOUT_S = 120.0
_HEAD = struct.Struct("<BIQ")  # kind, subset_id, iteration

KIND_ESTEP_REQ = 1
KIND_ESTEP_REP = 2
KIND_LOGLIK_REQ = 3
KIND_LOGLIK_REP = 4
KIND_SHUTDOWN = 5
KIND_ERROR = 6


def _send(sock, kind: int, subset_id: int, iteration: int, data: bytes):
    body = _HEAD.pack(kind, subset_id, iteration) + data
    sock.sendall(struct.pack("<I", len(body)) + body)


def write_frame(sock, kind: int, subset_id: int, iteration: int, payload: np.ndarray):
    _send(sock, kind, subset_id, iteration, np.asarray(payload, dtype="<f8").tobytes())


def write_error(sock, subset_id: int, iteration: int, exc: BaseException):
    """Answer a failed request with its exception's type name and message."""
    text = f"{type(exc).__name__}: {exc}"
    _send(sock, KIND_ERROR, subset_id, iteration, text.encode("utf-8"))


def _recv_exact(sock, n: int, frame_start: bool = False) -> bytearray:
    """Read n bytes.  A peer that closes first is a ConnectionError, which
    says "mid-frame" unless the read starts a frame and got no byte."""
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        k = sock.recv_into(view[got:])
        if not k:
            where = "" if frame_start and not got else " mid-frame"
            raise ConnectionError(f"peer closed connection{where}")
        got += k
    return buf


def read_frame(sock):
    """(kind, subset_id, iteration, payload); the payload of an error frame
    is its text, of any other frame an f64 array.  A body shorter than the
    header or a payload that is not whole f64 values is a ProtocolError."""
    (length,) = struct.unpack("<I", _recv_exact(sock, 4, frame_start=True))
    body = _recv_exact(sock, length)
    if length < _HEAD.size:
        raise ProtocolError(
            f"frame body of {length} bytes is shorter than its {_HEAD.size}-byte header"
        )
    kind, subset_id, iteration = _HEAD.unpack_from(body)
    if kind == KIND_ERROR:
        return kind, subset_id, iteration, body[_HEAD.size :].decode("utf-8", "replace")
    if (length - _HEAD.size) % 8:
        raise ProtocolError(
            f"frame payload of {length - _HEAD.size} bytes is not a whole number "
            "of float64 values"
        )
    payload = np.frombuffer(body, dtype="<f8", offset=_HEAD.size).copy()
    return kind, subset_id, iteration, payload


class InProcessPool:
    """Direct-call worker endpoints for single-threaded deterministic runs.

    Each worker's subset is prepared (`model.prepare`) once, when the pool
    is built, and that shard is what every call on the worker passes.
    """

    def __init__(self, model: ModelContract, subsets):
        self.model = model
        self.shards = [model.prepare(subset) for subset in subsets]
        self.messages_sent = 0
        # the count is a read-modify-write; the lock keeps it right when
        # callers share one pool between threads
        self._count_lock = threading.Lock()

    def _count(self):
        with self._count_lock:
            self.messages_sent += 2  # request out, reply back

    def estep(self, k: int, theta, anchor_tag: int) -> SuffStats:
        self._count()
        return self.model.local_estep(theta, self.shards[k], subset_id=k,
                                      anchor_tag=anchor_tag)

    def loglik(self, k: int, theta) -> float:
        self._count()
        return self.model.local_loglik(theta, self.shards[k])

    def close(self):
        pass


class SocketPool:
    """Worker endpoints served over localhost TCP sockets.

    One serving thread per subset; the manager side issues blocking RPCs,
    so ordering is still controlled by the caller.  Every worker's shard
    (`model.prepare`) is built before any socket or thread exists, so a
    subset the model rejects leaves nothing to clean up.
    """

    def __init__(self, model: ModelContract, subsets):
        self.model = model
        shards = [model.prepare(subset) for subset in subsets]
        self.messages_sent = 0
        self._conns = []
        self._threads = []
        for k, shard in enumerate(shards):
            server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            server.bind(("127.0.0.1", 0))
            server.listen(1)
            port = server.getsockname()[1]
            thread = threading.Thread(
                target=self._serve, args=(server, k, shard), daemon=True
            )
            thread.start()
            conn = socket.create_connection(("127.0.0.1", port))
            conn.settimeout(REPLY_TIMEOUT_S)
            conn.sendall(MAGIC)
            self._conns.append(conn)
            self._threads.append(thread)

    def _serve(self, server, k: int, shard):
        """Answer worker k's requests until a shutdown frame.  A connection
        that opens without the magic bytes, or fails later because its
        manager has gone, is closed and the worker returns quietly: there
        is no one left to report to."""
        conn, _ = server.accept()
        server.close()
        try:
            if _recv_exact(conn, len(MAGIC)) != MAGIC:
                return
            raw = None  # payload bytes theta was unpacked from
            while True:
                kind, subset_id, iteration, payload = read_frame(conn)
                if kind == KIND_SHUTDOWN:
                    return
                # a failing request is reported to the manager, and the
                # worker stays up for the next one
                try:
                    request = payload.tobytes()
                    if request != raw:
                        theta = self.model.unpack_theta(payload)
                        raw = request
                    if kind == KIND_ESTEP_REQ:
                        stats = self.model.local_estep(
                            theta, shard, subset_id=k, anchor_tag=iteration
                        )
                        reply = KIND_ESTEP_REP, self.model.pack_stats(stats)
                    elif kind == KIND_LOGLIK_REQ:
                        ll = self.model.local_loglik(theta, shard)
                        reply = KIND_LOGLIK_REP, np.array([ll])
                    else:
                        raise ProtocolError(f"unknown request kind {kind}")
                except Exception as exc:
                    write_error(conn, k, iteration, exc)
                    continue
                write_frame(conn, reply[0], k, iteration, reply[1])
        except OSError:
            return
        finally:
            conn.close()

    def _rpc(self, k: int, kind: int, reply_kind: int, iteration: int, theta):
        """Send one request to worker k and return the payload of its reply,
        which must carry the expected kind, subset id and iteration."""
        conn = self._conns[k]
        try:
            write_frame(conn, kind, k, iteration, self.model.pack_theta(theta))
            got = read_frame(conn)
        except TimeoutError as exc:
            waited = conn.gettimeout()
            # a late reply must never be read as the answer to a later request
            conn.close()
            raise ProtocolError(f"worker {k}: no reply within {waited:g} s") from exc
        except OSError as exc:
            raise ProtocolError(f"worker {k}: connection lost: {exc}") from exc
        except ProtocolError as exc:
            raise ProtocolError(f"worker {k}: {exc}") from exc
        if got[0] == KIND_ERROR:
            raise ProtocolError(f"worker {k} failed: {got[3]}")
        expected = (reply_kind, int(k), int(iteration))
        if got[:3] != expected:
            raise ProtocolError(
                f"worker {k}: expected reply (kind, subset, iteration) = "
                f"{expected}, got {got[:3]}"
            )
        self.messages_sent += 2
        return got[3]

    def estep(self, k: int, theta, anchor_tag: int) -> SuffStats:
        payload = self._rpc(k, KIND_ESTEP_REQ, KIND_ESTEP_REP, anchor_tag, theta)
        return self.model.unpack_stats(payload, subset_id=k, anchor_tag=anchor_tag)

    def loglik(self, k: int, theta) -> float:
        return float(self._rpc(k, KIND_LOGLIK_REQ, KIND_LOGLIK_REP, 0, theta)[0])

    def close(self):
        for conn in self._conns:
            try:
                write_frame(conn, KIND_SHUTDOWN, 0, 0, np.empty(0))
            except OSError:
                pass  # the worker's connection is gone already
            conn.close()
        for t in self._threads:
            t.join(timeout=5)


def make_pool(transport: str, model, subsets):
    if transport == "in_process":
        return InProcessPool(model, subsets)
    if transport == "socket":
        return SocketPool(model, subsets)
    raise ValueError(f"unknown transport {transport!r}")
