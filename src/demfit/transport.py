"""Message transports between the manager and the worker endpoints.

Both transports serve the same batch surface: `esteps(requests)` takes
one iteration's (worker, parameter, anchor tag) E-step requests and
`logliks(ks, theta)` a round of loglik requests, and each returns the
results in request order.  The manager loop builds every batch before
sending it, so it fully determines what is computed, and the resulting
traces are identical across transports.  Both pools answer a batch
through `answer`: the requests that share a parameter and an anchor tag
are one `local_esteps` call, a loglik round at one parameter one
`local_logliks` call, and a lone request one `local_estep` or
`local_loglik` call; over sockets, every request of a batch is sent
before the first reply is read.  Each pool also answers a lone request,
`estep(k, theta, anchor_tag)` or `loglik(k, theta)`, as a batch of one;
the manager falls back to those, one request at a time, for a pool that
offers nothing else (a wrapper that times each request, say).
`messages_sent` counts 2 per answered request on every path.

Socket wire format: the K subsets are served by E = min(K, ENDPOINTS)
endpoints, each a thread holding a round-robin share of the prepared
shards (subset k lives on endpoint k mod E) behind one end of a socket
pair that the pool creates (nothing listens on a port, so no other peer
can connect).  Every frame is little-endian {u32 body-length, u8 msg-kind,
u32 subset_id, u64 iteration, f64-array payload}; the ModelContract wire
methods encode and decode the payloads.  A batch sends each endpoint its
share as one frame per request, in request order, with the MORE bit set
in the kind byte of every frame but the last: that frame tells the
endpoint its share is complete.  Only then does the endpoint answer, one
reply per request, in frame order, so an endpoint never writes while its
manager may still be writing to it.  An endpoint unpacks each distinct
parameter of its share once and answers its share through `answer`.  A
request whose work fails is answered with an error frame (KIND_ERROR) of
its own: same header, with the UTF-8 text "ExceptionType: message" as its
payload; the endpoint goes on serving requests.

An endpoint keeps nothing between batches but its prepared shards: it
unpacks the parameters of every batch and answers from those alone.

The manager waits at most REPLY_TIMEOUT_S seconds for each reply.  A
subset whose reply does not come in time, or whose endpoint's connection
drops, is a ProtocolError naming that subset, "worker k"; after a timeout
the manager closes that endpoint's connection, so a late reply cannot
answer a later request.  A failed request does not stop its batch: the
manager reads every other reply of the batch before it raises the
earliest failure, so no connection is left holding a reply that a later
request would read.  Endpoints block on their reads without a limit,
because they sit idle between iterations.  An endpoint whose connection
closes or fails, or that reads a malformed frame, closes it and exits
quietly.
"""
from __future__ import annotations

import socket
import struct
import threading
from collections import defaultdict

import numpy as np

from .model import ModelContract, ProtocolError

# seconds the manager waits for a reply, which comes once its endpoint
# has answered its whole share of the batch: far above the E steps of a
# paper-sized share (10^4 samples, p=10, q=3: about 40 ms on 2 cores);
# with a timeout each socket call polls first, about 3 us per call
REPLY_TIMEOUT_S = 120.0
# endpoint threads a socket pool starts, never more than one per subset.
# The threads share the interpreter lock: on 2 cores, unpinned, one
# endpoint ran a fit of 20 subsets of 5 samples 25-35% faster than two
# (and 3.5x faster than one per subset), while two ran 2 subsets of 10^4
# samples about 10% faster than one.  One endpoint per CPU waits for
# endpoints that are processes.
ENDPOINTS = 1
_HEAD = struct.Struct("<BIQ")  # kind, subset_id, iteration

KIND_ESTEP_REQ = 1
KIND_ESTEP_REP = 2
KIND_LOGLIK_REQ = 3
KIND_LOGLIK_REP = 4
KIND_SHUTDOWN = 5  # no longer sent: an endpoint ends when its connection closes
KIND_ERROR = 6
# set in a request's kind byte when more of the endpoint's share follows
MORE = 0x80


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


def answer(model: ModelContract, shards, requests, loglik: bool = False) -> list:
    """The answer to each (k, theta, anchor_tag) request on shards[k], in
    request order: its SuffStats, or with loglik its local log likelihood,
    or the exception its work raised.  The requests that share a theta
    (the same object) and an anchor tag are one `local_esteps` or
    `local_logliks` call; a lone request is one `local_estep` or
    `local_loglik` call.  A grouped call that raises is retried one
    request at a time, so each failure is its own request's."""
    groups = defaultdict(list)  # (theta, anchor tag) -> request positions
    for i, (_, theta, tag) in enumerate(requests):
        groups[id(theta), tag].append(i)
    out = [None] * len(requests)
    for idx in groups.values():
        group = [requests[i] for i in idx]
        for i, result in zip(idx, _answer_group(model, shards, group, loglik)):
            out[i] = result
    return out


def _answer_group(model: ModelContract, shards, requests, loglik: bool) -> list:
    """`answer` for requests that share one theta and anchor tag."""
    ks = [k for k, _, _ in requests]
    _, theta, tag = requests[0]
    try:
        # a lone request keeps the per-request call, which the benchmark's
        # tracer times; it goes once that tracer times the batched calls
        if len(ks) == 1:
            if loglik:
                return [model.local_loglik(theta, shards[ks[0]])]
            return [model.local_estep(theta, shards[ks[0]], subset_id=ks[0], anchor_tag=tag)]
        if loglik:
            return model.local_logliks(theta, [shards[k] for k in ks])
        return model.local_esteps(theta, [shards[k] for k in ks], ks, tag)
    except Exception as exc:
        if len(ks) == 1:
            return [exc]
    return [_answer_group(model, shards, [r], loglik)[0] for r in requests]


class InProcessPool:
    """Direct-call worker endpoints for single-threaded deterministic runs.

    Each worker's subset is prepared (`model.prepare`) once, when the pool
    is built, and that shard is what every call on the worker passes.  A
    batch is served through `answer`.
    """

    def __init__(self, model: ModelContract, subsets):
        self.model = model
        self.shards = [model.prepare(subset) for subset in subsets]
        self.messages_sent = 0

    def _collect(self, results) -> list:
        """results, each answered request counted (request out, reply
        back); then the failure of the earliest failed request is raised."""
        failed = [r for r in results if isinstance(r, Exception)]
        self.messages_sent += 2 * (len(results) - len(failed))
        if failed:
            raise failed[0]
        return results

    def esteps(self, requests) -> list:
        """Results of the (k, theta, anchor_tag) requests, in their order."""
        return self._collect(answer(self.model, self.shards, requests))

    def logliks(self, ks, theta) -> list:
        """Local log likelihoods of workers ks at theta, in their order."""
        return self._collect(answer(self.model, self.shards, [(k, theta, 0) for k in ks],
                                    loglik=True))

    def estep(self, k: int, theta, anchor_tag: int):
        return self.esteps([(k, theta, anchor_tag)])[0]

    def loglik(self, k: int, theta) -> float:
        return self.logliks([k], theta)[0]

    def close(self):
        pass


class _Frames(bytearray):
    """Frames written here (`write_frame`, `write_error`) wait to be sent
    in one sendall."""

    def sendall(self, data):
        self.extend(data)


class SocketPool:
    """Worker endpoints served over socket pairs.

    The K subsets are served by E = min(K, ENDPOINTS) endpoints: subset k
    by endpoint k mod E, a thread that serves one end of a socket pair,
    while the manager holds the other.  A batch of requests is written out
    whole before any reply is read, each endpoint's share in one send, so
    the endpoints compute while the manager writes and reads; replies are
    read in request order, so the caller still fixes the order of every
    result.  Every shard (`model.prepare`) is built before any socket or
    thread exists, so a subset the model rejects leaves nothing to clean
    up; an endpoint that fails to start closes the pool.
    """

    def __init__(self, model: ModelContract, subsets):
        self.model = model
        shards = [model.prepare(subset) for subset in subsets]
        self.messages_sent = 0
        self._conns = []
        self._threads = []
        E = min(len(shards), ENDPOINTS)
        try:
            for e in range(E):
                conn, endpoint_end = socket.socketpair()
                self._conns.append(conn)
                conn.settimeout(REPLY_TIMEOUT_S)
                share = {k: shards[k] for k in range(e, len(shards), E)}
                thread = threading.Thread(target=self._serve, args=(endpoint_end, share),
                                          daemon=True)
                thread.start()
                self._threads.append(thread)
        except BaseException:
            if len(self._threads) < len(self._conns):  # no thread owns endpoint_end
                endpoint_end.close()
            self.close()
            raise

    def _serve(self, conn, shards: dict):
        """Answer the requests for the subsets of shards ({k: shard}) on
        conn, a share at a time, until the manager closes its end.  A
        connection that carries a malformed frame, or fails because its
        manager has gone, is closed and the endpoint returns quietly:
        there is no one left to report to."""
        try:
            while True:
                frames = [read_frame(conn)]
                while frames[-1][0] & MORE:
                    frames.append(read_frame(conn))
                out = _Frames()
                for (_, k, iteration, _), reply in zip(frames, self._answer(frames, shards)):
                    if isinstance(reply, Exception):
                        write_error(out, k, iteration, reply)
                    else:
                        write_frame(out, reply[0], k, iteration, reply[1])
                conn.sendall(out)
        except (OSError, ProtocolError):
            return
        finally:
            conn.close()

    def _answer(self, frames, shards) -> list:
        """One (reply kind, payload) per request frame, in their order, or
        the exception that request raised; a failing request is reported
        to the manager, and the endpoint stays up for the next batch."""
        model = self.model
        out = [None] * len(frames)
        thetas = {}  # payload bytes -> its Theta, or the exception unpacking raised
        asked = {KIND_ESTEP_REQ: [], KIND_LOGLIK_REQ: []}  # kind -> (position, request)
        for i, (kind, k, iteration, payload) in enumerate(frames):
            kind &= ~MORE
            key = payload.tobytes()
            if key not in thetas:
                try:
                    thetas[key] = model.unpack_theta(payload)
                except Exception as exc:
                    thetas[key] = exc
            if isinstance(thetas[key], Exception):
                out[i] = thetas[key]
            elif kind not in asked:
                out[i] = ProtocolError(f"unknown request kind {kind}")
            elif k not in shards:
                out[i] = ProtocolError(f"subset {k} is not served by this endpoint")
            else:
                asked[kind].append((i, (k, thetas[key], iteration)))
        for kind, items in asked.items():
            loglik = kind == KIND_LOGLIK_REQ
            results = answer(model, shards, [request for _, request in items], loglik)
            for (i, _), result in zip(items, results):
                out[i] = result
                if not isinstance(result, Exception):
                    try:
                        out[i] = ((KIND_LOGLIK_REP, np.array([result])) if loglik
                                  else (KIND_ESTEP_REP, model.pack_stats(result)))
                    except Exception as exc:
                        out[i] = exc
        return out

    def _exchange(self, kind: int, reply_kind: int, requests) -> list:
        """Send every (k, theta, iteration) request of a batch, then read the
        replies in request order and return their payloads; each distinct
        theta is packed once, and each endpoint's share of the batch is one
        send whose last frame alone lacks the MORE bit.  A request that
        fails does not stop the batch: every other reply is still read, so
        none is left for a later request to find, and then the failure of
        the earliest request is raised."""
        packed = {id(theta): self.model.pack_theta(theta) for _, theta, _ in requests}
        shares = defaultdict(list)  # endpoint -> positions of its requests
        for i, (k, _, _) in enumerate(requests):
            shares[k % len(self._conns)].append(i)
        failed, sent = {}, []
        for e, idx in shares.items():
            frames = _Frames()
            for i in idx:
                k, theta, iteration = requests[i]
                write_frame(frames, kind if i == idx[-1] else kind | MORE, k, iteration,
                            packed[id(theta)])
            try:
                self._conns[e].sendall(frames)
                sent.extend(idx)
            except OSError as exc:
                for i in idx:
                    failed[i] = self._failure(requests[i][0], exc)
        out = []
        for i in sorted(sent):
            k, _, iteration = requests[i]
            try:
                out.append(self._reply(k, reply_kind, iteration))
            except ProtocolError as exc:
                failed[i] = exc
        if failed:
            raise failed[min(failed)]
        return out

    def _failure(self, k: int, exc: Exception) -> ProtocolError:
        """exc, met on the connection serving subset k, as a ProtocolError
        naming k.  A timeout closes that connection: a late reply must never
        be read as the answer to a later request."""
        conn = self._conns[k % len(self._conns)]
        if isinstance(exc, TimeoutError):
            waited = conn.gettimeout()
            conn.close()
            err = ProtocolError(f"worker {k}: no reply within {waited:g} s")
        elif isinstance(exc, OSError):
            err = ProtocolError(f"worker {k}: connection lost: {exc}")
        else:
            err = ProtocolError(f"worker {k}: {exc}")
        err.__cause__ = exc
        return err

    def _reply(self, k: int, reply_kind: int, iteration: int):
        """The payload of worker k's next reply, which must carry the
        expected kind, subset id and iteration; counted once accepted."""
        try:
            got = read_frame(self._conns[k % len(self._conns)])
        except (OSError, ProtocolError) as exc:
            raise self._failure(k, exc)
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
