"""Message transports between the manager and the worker endpoints.

Both pools serve one batch surface, written once in `InProcessPool` and
inherited by `SocketPool`: `esteps(requests)` takes one iteration's
(worker, parameter, anchor tag) E-step requests and `logliks(ks, theta)`
a round of loglik requests, and each returns the results in request
order.  A lone request, `estep(k, theta, anchor_tag)` or `loglik(k,
theta)`, is a batch of one; the manager falls back to those, one request
at a time, for a pool that offers nothing else (a wrapper that times
each request, say).  An E-step batch's results are one `EStepBatch`: the
(n, W) block of their `pack_stats` rows, W values each, with their
subset ids, anchor tags and static parts; indexing it gives a request's
SuffStats, while the manager caches and sums the block as it is.  The
pools differ in one hook, `_results(requests, loglik)`, which returns
(block, errors): row i of the block is request i's result, unless errors
maps i to the exception it met.  In process it is `answer` on the
pool's shards, over sockets a round trip to endpoints that answer
through `answer` too.  The surface then counts 2 messages (request out,
reply back) per answered request in `messages_sent` and raises the
failure of the earliest failed request, so a failure does not stop its
batch.  `answer` makes the requests that share a parameter and an anchor
tag one `local_esteps` call, whose block is the batch's own when it
covers every request, a loglik round at one parameter one
`local_logliks` call, and a lone request one `local_estep` or
`local_loglik` call.  The manager loop builds every batch before sending
it, so it fully determines what is computed, and the resulting traces
are identical across transports.

Socket wire format: the K subsets are served by E = min(K, ENDPOINTS)
endpoints, each a thread holding a round-robin share of the prepared
shards (subset k lives on endpoint k mod E) behind one end of a socket
pair that the pool creates (nothing listens on a port, so no other peer
can connect).  Every frame is little-endian {u32 body-length, u8 msg-kind,
u32 count, u64 extra, f64-array payload}.  The unit on the wire is an
endpoint's share of a batch, not a request: a batch sends each endpoint
one request frame and the endpoint answers with one reply frame, so a
lone request is one frame each way.  A request frame of n requests at T
distinct parameters has count n and extra T, 1 <= T <= n (T = 0 only
when n = 0); its payload is a table of n int64 rows (subset, anchor tag,
parameter index), then the T parameters packed by `pack_theta`, each
once, in equal parts of at least one value.  The reply frame has count n
and extra 0; its payload is a table of n int64 sizes, then each
request's result in request order: a size s >= 0 is a result of s f64
values (`pack_stats`, or one loglik), and s < 0 marks a failed request,
whose slot holds the UTF-8 text "ExceptionType: message", -s bytes long,
zero-padded to whole f64 words.  So a share whose every request
succeeded is its size table, every entry W, then the block of its
results: the endpoint writes the block after the table in one copy, and
the manager checks the table with one array comparison, reshapes the
rest of the payload into the block, a view of the frame's buffer, and
asks the model to check the block's width (`check_packed`).  A share
with a failed request, or a reply that does not pass those checks, is
read result by result (`_split_replies`, then `unpack_stats` on each
result), with the errors of the per-result reading; the bytes on the
wire are the same either way.  The int64 tables travel as the bits of
f64 words.  An endpoint answers only after it has read its whole share,
so it never writes while its manager may still be writing to it; it
unpacks each parameter of its share once and answers the share through
`answer`, and it goes on serving after a failed request.  A share of a
kind the endpoint does not serve is answered with a KIND_ERROR frame in
which every request holds that error.

An endpoint keeps nothing between batches but its prepared shards: it
unpacks the parameters of every batch and answers from those alone.

A reply carries only the statistics that depend on the E step's
parameter.  The part of a subset's statistics that depends on its data
alone (`ModelContract.static_stats`) never crosses the wire: the pool
takes it from the manager's copy of each shard when it is built
(`static_parts`) and attaches it to every batch it returns, so it adds
no frame.  For the
mixed model at p=10, q=3 an E-step result is 46 f64 values (m, n, and
the hi and lo words of 22 statistics, 368 bytes), and a 20-subset
E-step share replies with about 7.5 KB; the 111 data-only statistics
would add 222 values to every result.  Those 46 values are a row of the
kernel's block, which goes into the reply once; the manager's block is
a view of the payload that `read_frame` returns, an array over the
frame's own buffer, so no result is copied or built as an object
between the kernel and the manager's cache.

The manager waits at most REPLY_TIMEOUT_S seconds for each reply.  A
share whose reply does not come in time, or whose endpoint's connection
drops, is a ProtocolError naming the share's first subset, "worker k",
and every request on that endpoint holds it; after a timeout the manager
closes that endpoint's connection, so a late reply cannot answer a later
request.  A reply of the wrong kind or count, or whose size table does
not cover its payload, is a ProtocolError naming the share's first
subset, held by every request of the share.  A failed request holds a
ProtocolError naming its own subset, "worker k failed: ...", and a
result the model cannot unpack the exception unpacking raised.  Every
reply of a batch is read before the surface raises, so no connection is
left holding a reply that a later request would read.  Endpoints block
on their reads without a limit, because they sit idle between
iterations.  An endpoint whose connection closes or fails, or that reads
a malformed frame or request share, closes it and exits quietly.
"""
from __future__ import annotations

import socket
import struct
import threading
from collections import defaultdict

import numpy as np

from .model import EStepBatch, ModelContract, ProtocolError

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
_HEAD = struct.Struct("<BIQ")  # kind, count, extra
_FRAME_HEAD = struct.Struct("<IBIQ")  # body length, then _HEAD
# bytes a frame's body buffer starts at; it doubles as the body arrives
_CHUNK = 1 << 20

KIND_ESTEP_REQ = 1
KIND_ESTEP_REP = 2
KIND_LOGLIK_REQ = 3
KIND_LOGLIK_REP = 4
KIND_SHUTDOWN = 5  # no longer sent: an endpoint ends when its connection closes
KIND_ERROR = 6  # answers a share of a kind the endpoint does not serve
_REPLY = {KIND_ESTEP_REQ: KIND_ESTEP_REP, KIND_LOGLIK_REQ: KIND_LOGLIK_REP}


def write_frame(sock, kind: int, count: int, extra: int, payload: np.ndarray):
    data = np.asarray(payload, dtype="<f8").tobytes()
    sock.sendall(_FRAME_HEAD.pack(_HEAD.size + len(data), kind, count, extra) + data)


def _recv_exact(sock, n: int, frame_start: bool = False) -> bytearray:
    """Read n bytes.  A peer that closes first is a ConnectionError, which
    says "mid-frame" unless the read starts a frame and got no byte.

    The buffer starts at no more than _CHUNK bytes and doubles only when
    the bytes already read fill it, so it never holds more than _CHUNK
    bytes or twice what the peer has sent: a length word alone, whatever
    it says, does not allocate its length."""
    buf = bytearray(min(n, _CHUNK))
    got = 0
    while got < n:
        if got == len(buf):
            buf.extend(bytes(min(got, n - got)))
        with memoryview(buf) as view, view[got:] as rest:
            k = sock.recv_into(rest)
        if not k:
            where = "" if frame_start and not got else " mid-frame"
            raise ConnectionError(f"peer closed connection{where}")
        got += k
    return buf


def read_frame(sock):
    """(kind, count, extra, payload), the payload an f64 array over the
    frame's own buffer, which nothing else holds: the caller may keep
    views of it.  A body shorter than the header or a payload that is not
    whole f64 values is a ProtocolError.

    The u32 length word may ask for up to 4 GiB, and no bound is put on
    it: a share's reply grows with its requests (46 values per E step of
    the p=10, q=3 model), and only the pool's two ends of a socket pair
    ever write frames.  The body is read in a buffer that grows with the
    bytes that arrive (`_recv_exact`), so a length word that overstates
    its frame costs memory in proportion to the bytes its peer really
    sent, and ends in the ConnectionError of a peer that closed
    mid-frame."""
    (length,) = struct.unpack("<I", _recv_exact(sock, 4, frame_start=True))
    body = _recv_exact(sock, length)
    if length < _HEAD.size:
        raise ProtocolError(
            f"frame body of {length} bytes is shorter than its {_HEAD.size}-byte header"
        )
    if (length - _HEAD.size) % 8:
        raise ProtocolError(
            f"frame payload of {length - _HEAD.size} bytes is not a whole number "
            "of float64 values"
        )
    kind, count, extra = _HEAD.unpack_from(body)
    payload = np.frombuffer(body, dtype="<f8", offset=_HEAD.size)
    return kind, count, extra, payload


def _int_words(values) -> np.ndarray:
    """int64 values as the f64 words that carry their bits."""
    return np.array(values, dtype="<i8").view("<f8").ravel()


def _split_request(n: int, T: int, payload: np.ndarray):
    """The n (subset, anchor tag, parameter index) rows of a request share
    and its T packed parameters.  A share of n >= 1 rows holds 1 <= T <= n
    parameters of at least one value each, and a share of no rows none.
    Any other T, a table longer than the payload, a parameter section that
    does not split into T equal parts or an index outside 0..T-1 is a
    ProtocolError, the only exception a share can raise here."""
    rest = len(payload) - 3 * n
    if rest < 0:
        raise ProtocolError(f"request table of {n} rows is longer than its "
                            f"{len(payload)}-value payload")
    if not (1 <= T <= n if n else T == 0):
        raise ProtocolError(f"a share of {n} requests cannot hold {T} parameters")
    width, extra = divmod(rest, T) if T else (0, rest)
    if extra or (T and not width):
        raise ProtocolError(f"{rest} parameter values do not split into {T} parameters")
    rows = payload[: 3 * n].view("<i8").reshape(n, 3).tolist()
    if any(not 0 <= j < T for _, _, j in rows):
        raise ProtocolError(f"request table names a parameter outside 0..{T - 1}")
    return rows, payload[3 * n :].reshape(T, width)


def _join_replies(results) -> np.ndarray:
    """The payload of a reply share: the size table, then each result, an
    f64 array or the text of the exception its request raised."""
    sizes, parts = [], []
    for result in results:
        if isinstance(result, Exception):
            text = f"{type(result).__name__}: {result}".encode("utf-8")
            sizes.append(-len(text))
            parts.append(np.frombuffer(text + bytes(-len(text) % 8), dtype="<f8"))
        else:
            sizes.append(len(result))
            parts.append(result)
    return np.concatenate([_int_words(sizes), *parts])


def _reply_payload(block: np.ndarray, errors: dict) -> np.ndarray:
    """The payload of a reply share whose request i holds row i of block,
    or errors[i] when it failed.  A share without a failure is its size
    table, every entry the block's width, then the block, in one copy:
    the bytes `_join_replies` writes for those rows."""
    if errors:
        return _join_replies([errors.get(i, row) for i, row in enumerate(block)])
    n, width = block.shape
    return np.concatenate([np.full(n, width, dtype="<i8").view("<f8"), block.ravel()])


def _split_replies(ks, payload: np.ndarray, width) -> list:
    """The results of a reply share for subsets ks, in their order: an f64
    array (of width values, when width is given), or the ProtocolError
    that names a failed request's subset and carries its text.  A table
    that does not cover the payload exactly is a ProtocolError naming
    ks[0]."""
    n = len(ks)
    if len(payload) < n:
        raise ProtocolError(f"worker {ks[0]}: reply table of {n} sizes is longer than "
                            f"its {len(payload)}-value payload")
    out, start = [], n
    for k, size in zip(ks, payload[:n].view("<i8").tolist()):
        end = start + (size if size >= 0 else -(size // 8))
        if end > len(payload) or (width is not None and 0 <= size != width):
            break
        chunk = payload[start:end]
        out.append(chunk if size >= 0 else ProtocolError(
            f"worker {k} failed: {chunk.tobytes()[:-size].decode('utf-8', 'replace')}"))
        start = end
    if len(out) < n or start != len(payload):
        raise ProtocolError(f"worker {ks[0]}: reply sizes do not match its "
                            f"{len(payload)}-value payload")
    return out


def _reply_block(n: int, payload: np.ndarray, width):
    """The (n, w) block of a reply share of n >= 1 results that all
    succeeded with w values each (width, when given), a view of the
    payload; None for any other reply, which `_split_replies` reads.  A
    reply this accepts, `_split_replies` accepts with the same rows."""
    if not n or len(payload) < n:
        return None
    sizes = payload[:n].view("<i8")
    w = int(sizes[0])
    if w < 0 or (width is not None and w != width) or n + n * w != len(payload):
        return None
    if not (sizes == w).all():
        return None
    return payload[n:].reshape(n, w)


def _gather(n: int, parts) -> np.ndarray:
    """One (n, w) block holding the rows of each (positions, rows) part at
    its positions, which increase; a row at no position is left unset.
    One part at every position is returned as it is."""
    if len(parts) == 1 and len(parts[0][0]) == n:
        return parts[0][1]
    out = np.empty((n, parts[0][1].shape[1] if parts else 0))
    for idx, rows in parts:
        out[idx] = rows
    return out


def answer(model: ModelContract, shards, requests, loglik: bool = False):
    """(block, errors) for the (k, theta, anchor_tag) requests on shards[k]:
    row i of the (n, w) block is request i's result, its `pack_stats` row,
    or with loglik its local log likelihood as a row of one value, unless
    errors maps i to the exception its work raised.  The requests that
    share a theta (the same object) and an anchor tag are one
    `local_esteps` or `local_logliks` call, whose block is the answer
    itself when it covers every request; a lone request is one
    `local_estep` or `local_loglik` call.  A grouped call that raises is
    retried one request at a time, so each failure is its own request's."""
    groups = defaultdict(list)  # (theta, anchor tag) -> request positions
    for i, (_, theta, tag) in enumerate(requests):
        groups[id(theta), tag].append(i)
    parts, errors = [], {}
    pending = list(groups.values())
    while pending:
        idx = pending.pop(0)
        try:
            parts.append((idx, _answer_group(model, shards, [requests[i] for i in idx], loglik)))
        except Exception as exc:
            if len(idx) == 1:
                errors[idx[0]] = exc
            else:
                pending[:0] = [[i] for i in idx]
    return _gather(len(requests), parts), errors


def _answer_group(model: ModelContract, shards, requests, loglik: bool) -> np.ndarray:
    """The block of results of requests that share one theta and anchor
    tag; what the model raises propagates."""
    ks = [k for k, _, _ in requests]
    _, theta, tag = requests[0]
    # a lone request keeps the per-request call, which the benchmark's
    # tracer times; it goes once that tracer times the batched calls
    if len(ks) == 1:
        if loglik:
            return np.array([[model.local_loglik(theta, shards[ks[0]])]])
        stats = model.local_estep(theta, shards[ks[0]], subset_id=ks[0], anchor_tag=tag)
        return model.pack_stats(stats)[None]
    if loglik:
        return np.array(model.local_logliks(theta, [shards[k] for k in ks]))[:, None]
    return model.local_esteps(theta, [shards[k] for k in ks], ks, tag).rows


class InProcessPool:
    """Direct-call worker endpoints for single-threaded deterministic runs,
    and the batch surface every pool serves.

    Each worker's subset is prepared (`model.prepare`) once, when the pool
    is built, and that shard is what every call on the worker passes; the
    static parts of every shard's statistics (`model.static_parts`) are
    taken then too, and every E-step result the pool returns holds its
    subset's.  The surface asks `_results` for a batch's outcomes and
    hands them to `_collect`; in process, `_results` is `answer` on the
    shards.
    """

    def __init__(self, model: ModelContract, subsets):
        self.model = model
        self.shards = [model.prepare(subset) for subset in subsets]
        self.statics = model.static_parts(self.shards)
        self.messages_sent = 0

    def _results(self, requests, loglik: bool):
        """(block, errors) for the (k, theta, anchor_tag) requests: row i of
        the block is request i's result, unless errors maps i to the
        exception it met."""
        return answer(self.model, self.shards, requests, loglik)

    def _collect(self, requests, loglik: bool) -> np.ndarray:
        """The block of the requests' results, each answered request
        counted (request out, reply back); a failure raises that of the
        earliest failed request."""
        block, errors = self._results(requests, loglik)
        self.messages_sent += 2 * (len(requests) - len(errors))
        if errors:
            raise errors[min(errors)]
        return block

    def esteps(self, requests) -> EStepBatch:
        """The batch of the (k, theta, anchor_tag) requests' results, in
        their order."""
        ks = [k for k, _, _ in requests]
        return EStepBatch(self.model, self._collect(requests, loglik=False), ks,
                          [tag for _, _, tag in requests], [self.statics[k] for k in ks])

    def logliks(self, ks, theta) -> list:
        """Local log likelihoods of workers ks at theta, in their order."""
        return self._collect([(k, theta, 0) for k in ks], loglik=True).ravel().tolist()

    def estep(self, k: int, theta, anchor_tag: int):
        return self.esteps([(k, theta, anchor_tag)])[0]

    def loglik(self, k: int, theta) -> float:
        return self.logliks([k], theta)[0]

    def close(self):
        pass


class SocketPool(InProcessPool):
    """The in-process surface with its `_results` served over socket pairs.

    The K subsets are served by E = min(K, ENDPOINTS) endpoints: subset k
    by endpoint k mod E, a thread that serves one end of a socket pair,
    while the manager holds the other.  A batch is written out whole, one
    request frame per endpoint, before any reply is read, so the endpoints
    compute while the manager writes and reads; each endpoint answers its
    share with one reply frame, and every result goes back to its
    request's position.  Every shard is built before any socket or thread
    exists, so a subset the model rejects leaves nothing to clean up; an
    endpoint that fails to start closes the pool.
    """

    def __init__(self, model: ModelContract, subsets):
        # the data-only part of each subset's statistics, which no reply
        # carries, is taken from the manager's copy of the shard, before
        # an endpoint that shares it exists
        super().__init__(model, subsets)
        E = min(len(self.shards), ENDPOINTS)
        self._endpoint = [k % E for k in range(len(self.shards))]  # serving subset k
        self._conns = []
        self._threads = []
        try:
            for e in range(E):
                conn, endpoint_end = socket.socketpair()
                self._conns.append(conn)
                conn.settimeout(REPLY_TIMEOUT_S)
                share = {k: shard for k, shard in enumerate(self.shards)
                         if self._endpoint[k] == e}
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
        """Answer the request shares for the subsets of shards ({k: shard})
        on conn, one reply frame per share, until the manager closes its
        end.  A connection that carries a malformed frame, or fails because
        its manager has gone, is closed and the endpoint returns quietly:
        there is no one left to report to."""
        try:
            while True:
                kind, n, T, payload = read_frame(conn)
                block, errors = self._answer(kind, *_split_request(n, T, payload), shards)
                write_frame(conn, _REPLY.get(kind, KIND_ERROR), n, 0,
                            _reply_payload(block, errors))
        except (OSError, ProtocolError):
            return
        finally:
            conn.close()

    def _answer(self, kind: int, rows, thetas, shards):
        """(block, errors) for the (k, anchor tag, parameter index) rows of a
        share of the given kind: row i of the block is request i's f64
        result, unless errors maps i to the exception it raised; a failing
        request is reported to the manager, and the endpoint stays up for
        the next batch."""
        model = self.model
        if kind not in _REPLY:
            return np.empty((len(rows), 0)), dict.fromkeys(
                range(len(rows)), ProtocolError(f"unknown request kind {kind}"))
        unpacked = []  # each parameter's Theta, or the exception unpacking raised
        for packed in thetas:
            try:
                unpacked.append(model.unpack_theta(packed))
            except Exception as exc:
                unpacked.append(exc)
        errors, asked, at = {}, [], []  # at: the position of each asked request
        for i, (k, tag, j) in enumerate(rows):
            if isinstance(unpacked[j], Exception):
                errors[i] = unpacked[j]
            elif k not in shards:
                errors[i] = ProtocolError(f"subset {k} is not served by this endpoint")
            else:
                asked.append((k, unpacked[j], tag))
                at.append(i)
        block, failed = answer(model, shards, asked, kind == KIND_LOGLIK_REQ)
        if not errors:
            return block, failed
        errors.update((at[i], exc) for i, exc in failed.items())
        return _gather(len(rows), [(at, block)]), errors

    def _results(self, requests, loglik: bool):
        """Send every (k, theta, tag) request of a batch, one frame per
        endpoint share, then read each share's reply: (block, errors) as
        `answer` gives them, each request's row in request order.  Each
        distinct theta is packed once per batch.  A failure that meets a
        whole share (a write or read that fails, a malformed reply) is the
        outcome of every request of that share; the other replies are still
        read, so none is left for a later request to find."""
        kind = KIND_LOGLIK_REQ if loglik else KIND_ESTEP_REQ
        packed = {}  # id(theta) -> its packed form
        shares = defaultdict(list)  # endpoint -> positions of its requests
        for i, (k, theta, _) in enumerate(requests):
            if id(theta) not in packed:
                packed[id(theta)] = self.model.pack_theta(theta)
            shares[self._endpoint[k]].append(i)
        parts, errors, sent = [], {}, []
        for e, idx in shares.items():
            index, rows = {}, []  # id(theta) -> its position in this share
            for i in idx:
                k, theta, tag = requests[i]
                rows.append((k, tag, index.setdefault(id(theta), len(index))))
            payload = np.concatenate([_int_words(rows), *(packed[t] for t in index)])
            try:
                write_frame(self._conns[e], kind, len(idx), len(index), payload)
                sent.append((e, idx))
            except OSError as exc:
                errors.update(dict.fromkeys(idx, self._failure(e, rows[0][0], exc)))
        for e, idx in sent:
            try:
                got = self._reply(e, _REPLY[kind], [requests[i] for i in idx], loglik)
            except ProtocolError as exc:
                got = [exc] * len(idx)
            if isinstance(got, np.ndarray):
                parts.append((idx, got))
                continue
            for i, result in zip(idx, got):
                if isinstance(result, Exception):
                    errors[i] = result
                else:
                    parts.append(([i], result[None]))
        return _gather(len(requests), parts), errors

    def _checked(self, payload, request, loglik: bool):
        """The result payload a reply carries for request (k, theta, tag),
        or the exception unpacking it raised; an exception payload is
        returned as it is."""
        if isinstance(payload, Exception) or loglik:
            return payload
        k, _, tag = request
        try:
            self.model.unpack_stats(payload, subset_id=k, anchor_tag=tag)
        except Exception as exc:  # the request's outcome: the batch's replies are still read
            return exc
        return payload

    def _failure(self, e: int, k: int, exc: Exception) -> ProtocolError:
        """exc, met on the connection of endpoint e, as a ProtocolError
        naming subset k.  A timeout closes that connection: a late reply
        must never be read as the answer to a later request."""
        conn = self._conns[e]
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

    def _reply(self, e: int, reply_kind: int, requests, loglik: bool):
        """Endpoint e's reply to its share of requests (k, theta, tag): it
        must carry the expected kind and count and a table that covers its
        payload.  A reply whose every result succeeded, at one width the
        model accepts (`check_packed`), is its (n, w) block, a view of the
        frame; any other reply is each request's result payload, or the
        exception it met, in request order."""
        ks = [k for k, _, _ in requests]
        try:
            kind, n, _, payload = read_frame(self._conns[e])
        except (OSError, ProtocolError) as exc:
            raise self._failure(e, ks[0], exc)
        if (kind, n) != (reply_kind, len(ks)):
            raise ProtocolError(
                f"worker {ks[0]}: expected reply (kind, count) = "
                f"{(reply_kind, len(ks))}, got {(kind, n)}"
            )
        width = 1 if loglik else None
        block = _reply_block(n, payload, width)
        if block is not None:
            try:
                if not loglik:
                    self.model.check_packed(block, ks)
                return block
            except Exception:
                pass  # each request's own outcome, below
        return [self._checked(result, request, loglik)
                for result, request in zip(_split_replies(ks, payload, width), requests)]

    def close(self):
        for conn in self._conns:
            conn.close()
        for t in self._threads:
            t.join(timeout=5)


POOLS = {"in_process": InProcessPool, "socket": SocketPool}


def make_pool(transport: str, model, subsets):
    return POOLS[transport](model, subsets)
