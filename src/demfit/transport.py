"""Message transports between the manager and the worker endpoints.

Both transports serve the same batch surface: `esteps(requests)` takes
one iteration's (worker, parameter, anchor tag) E-step requests and
`logliks(ks, theta)` a round of loglik requests, and each returns the
results in request order.  The manager loop builds every batch before
sending it, so it fully determines what is computed, and the resulting
traces are identical across transports.  In process, one `local_esteps`
call serves all requests of a batch that share an anchor tag; over
sockets, every request of a batch is sent before the first reply is read.
Each pool also answers a lone request, `estep(k, theta, anchor_tag)` or
`loglik(k, theta)`, through the model's `local_estep` or `local_loglik`;
the manager falls back to those, one request at a time, for a pool that
offers nothing else (a wrapper that times each request, say).
`messages_sent` counts 2 per answered request on every path.

Socket wire format: a worker's connection is one end of a socket pair that
the pool creates (nothing listens on a port, so no other peer can connect);
every frame is little-endian {u32 body-length, u8 msg-kind, u32 subset_id,
u64 iteration, f64-array payload}; the ModelContract wire methods encode
and decode the payloads.  A worker whose request fails answers with an
error frame (KIND_ERROR) in place of the reply: same header, with the
UTF-8 text "ExceptionType: message" as its payload; it then goes on
serving requests.

A worker keeps nothing between requests but its prepared shard: it
unpacks the parameter of every request and answers from that alone.

The manager waits at most REPLY_TIMEOUT_S seconds for each reply.  A
worker that does not answer in time, or whose connection drops, is a
ProtocolError naming it; after a timeout the manager closes that
connection, so a late reply cannot answer a later request.  A failed
request does not stop its batch: the manager reads every other reply of
the batch before it raises the earliest failure, so no connection is left
holding a reply that a later request would read.  Workers block
on their reads without a limit, because they sit idle between iterations.
A worker whose connection closes or fails, or that reads a malformed frame,
closes it and exits quietly.
"""
from __future__ import annotations

import socket
import struct
import threading
from collections import defaultdict

import numpy as np

from .model import ModelContract, ProtocolError

# seconds the manager waits for a reply: far above one E step on a
# paper-sized shard (10^4 samples, p=10, q=3: about 40 ms on 2 cores);
# with a timeout each socket call polls first, about 3 us per RPC
REPLY_TIMEOUT_S = 120.0
_HEAD = struct.Struct("<BIQ")  # kind, subset_id, iteration

KIND_ESTEP_REQ = 1
KIND_ESTEP_REP = 2
KIND_LOGLIK_REQ = 3
KIND_LOGLIK_REP = 4
KIND_SHUTDOWN = 5  # no longer sent: a worker ends when its connection closes
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
    is built, and that shard is what every call on the worker passes.  A
    batch of E-step requests is served by one `local_esteps` call per
    anchor tag and parameter.
    """

    def __init__(self, model: ModelContract, subsets):
        self.model = model
        self.shards = [model.prepare(subset) for subset in subsets]
        self.messages_sent = 0

    def esteps(self, requests) -> list:
        """Results of the (k, theta, anchor_tag) requests, in their order."""
        groups = defaultdict(list)  # (anchor tag, theta) -> request positions
        for i, (_, theta, tag) in enumerate(requests):
            groups[tag, id(theta)].append(i)
        out = [None] * len(requests)
        for (tag, _), idx in groups.items():
            ks = [requests[i][0] for i in idx]
            stats = self.model.local_esteps(requests[idx[0]][1], [self.shards[k] for k in ks],
                                            ks, tag)
            for i, s in zip(idx, stats):
                out[i] = s
            self.messages_sent += 2 * len(idx)  # request out, reply back
        return out

    def logliks(self, ks, theta) -> list:
        return [self.loglik(k, theta) for k in ks]

    def estep(self, k: int, theta, anchor_tag: int):
        stats = self.model.local_estep(theta, self.shards[k], subset_id=k, anchor_tag=anchor_tag)
        self.messages_sent += 2  # request out, reply back
        return stats

    def loglik(self, k: int, theta) -> float:
        ll = self.model.local_loglik(theta, self.shards[k])
        self.messages_sent += 2
        return ll

    def close(self):
        pass


class SocketPool:
    """Worker endpoints served over socket pairs.

    One thread per subset serves one end of a socket pair, and the manager
    holds the other.  A batch of requests is written out whole before any
    reply is read, so the workers of a batch compute while the manager
    writes and reads; replies are read in request order, so the caller
    still fixes the order of every result.
    Every worker's shard (`model.prepare`) is built before any socket or
    thread exists, so a subset the model rejects leaves nothing to clean
    up; a worker that fails to start closes the pool.
    """

    def __init__(self, model: ModelContract, subsets):
        self.model = model
        shards = [model.prepare(subset) for subset in subsets]
        self.messages_sent = 0
        self._conns = []
        self._threads = []
        try:
            for k, shard in enumerate(shards):
                conn, worker_end = socket.socketpair()
                self._conns.append(conn)
                conn.settimeout(REPLY_TIMEOUT_S)
                thread = threading.Thread(target=self._serve, args=(worker_end, k, shard),
                                          daemon=True)
                thread.start()
                self._threads.append(thread)
        except BaseException:
            if len(self._threads) < len(self._conns):  # no thread owns worker_end
                worker_end.close()
            self.close()
            raise

    def _serve(self, conn, k: int, shard):
        """Answer worker k's requests on conn until the manager closes its
        end.  A connection that carries a malformed frame, or fails because
        its manager has gone, is closed and the worker returns quietly:
        there is no one left to report to."""
        try:
            while True:
                kind, subset_id, iteration, payload = read_frame(conn)
                # a failing request is reported to the manager, and the
                # worker stays up for the next one
                try:
                    theta = self.model.unpack_theta(payload)
                    if kind == KIND_ESTEP_REQ:
                        stats = self.model.local_estep(theta, shard, subset_id=k,
                                                       anchor_tag=iteration)
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
        except (OSError, ProtocolError):
            return
        finally:
            conn.close()

    def _exchange(self, kind: int, reply_kind: int, requests) -> list:
        """Send every (k, theta, iteration) request of a batch, then read the
        replies in request order and return their payloads; each distinct
        theta is packed once.  A request that fails does not stop the
        batch: every other reply is still read, so none is left for a later
        request to find, and then the failure of the earliest request is
        raised."""
        packed = {id(theta): self.model.pack_theta(theta) for _, theta, _ in requests}
        failed, sent = {}, []
        for i, (k, theta, iteration) in enumerate(requests):
            try:
                self._io(k, write_frame, kind, k, iteration, packed[id(theta)])
                sent.append(i)
            except ProtocolError as exc:
                failed[i] = exc
        out = []
        for i in sent:
            k, _, iteration = requests[i]
            try:
                out.append(self._reply(k, reply_kind, iteration))
            except ProtocolError as exc:
                failed[i] = exc
        if failed:
            raise failed[min(failed)]
        return out

    def _io(self, k: int, call, *args):
        """call(worker k's connection, *args), raising any failure as a
        ProtocolError that names worker k."""
        conn = self._conns[k]
        try:
            return call(conn, *args)
        except TimeoutError as exc:
            waited = conn.gettimeout()
            # a late reply must never be read as the answer to a later request
            conn.close()
            raise ProtocolError(f"worker {k}: no reply within {waited:g} s") from exc
        except OSError as exc:
            raise ProtocolError(f"worker {k}: connection lost: {exc}") from exc
        except ProtocolError as exc:
            raise ProtocolError(f"worker {k}: {exc}") from exc

    def _reply(self, k: int, reply_kind: int, iteration: int):
        """The payload of worker k's next reply, which must carry the
        expected kind, subset id and iteration; counted once accepted."""
        got = self._io(k, read_frame)
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

    def esteps(self, requests) -> list:
        """Results of the (k, theta, anchor_tag) requests, in their order:
        all are sent before the first reply is read."""
        payloads = self._exchange(KIND_ESTEP_REQ, KIND_ESTEP_REP, requests)
        return [self.model.unpack_stats(payload, subset_id=k, anchor_tag=tag)
                for payload, (k, _, tag) in zip(payloads, requests)]

    def logliks(self, ks, theta) -> list:
        payloads = self._exchange(KIND_LOGLIK_REQ, KIND_LOGLIK_REP, [(k, theta, 0) for k in ks])
        return [float(payload[0]) for payload in payloads]

    def estep(self, k: int, theta, anchor_tag: int):
        return self.esteps([(k, theta, anchor_tag)])[0]

    def loglik(self, k: int, theta) -> float:
        return self.logliks([k], theta)[0]

    def close(self):
        for conn in self._conns:
            conn.close()
        for t in self._threads:
            t.join(timeout=5)


POOLS = {"in_process": InProcessPool, "socket": SocketPool}


def make_pool(transport: str, model, subsets):
    return POOLS[transport](model, subsets)
