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
SuffStats, while the manager caches and sums the block as it is.

Inside the surface a batch has one form, arrays, on both pools and on
both ends of the wire: its distinct parameters, each listed once in the
order it first appears, and an (n, 3) int64 table of each request's
(subset, anchor tag, parameter index).  The pool converts the manager's
request list to it once (`_batch`); a loglik round is that form from the
start.  The pools differ in one hook, `_results(thetas, table, loglik)`,
which returns (block, errors): row i of the block is request i's result,
unless errors maps i to the exception it met.  In process it is `answer`
on the pool's shards, over sockets a round trip to endpoints that answer
through `answer` too.  The surface then counts 2 messages (request out,
reply back) per answered request in `messages_sent` and raises the
failure of the earliest failed request, so a failure does not stop its
batch.  `answer` groups the requests by parameter index with array
operations, and the requests at one parameter are one `local_esteps` or
`local_logliks` call on their shards, gathered with no Python step per
request; that call's block is the batch's own when it covers every
request.  A lone request is one `local_estep` or `local_loglik` call,
the batch of one.  The anchor tag routes a result, and no model call
sees it.  The manager loop builds every batch before sending it, so it
fully determines what is computed, and the resulting traces are
identical across transports.

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
zero-padded to whole f64 words.  The int64 tables travel as the bits of
f64 words.  One function writes every reply (`_reply_payload`) and one
reads it (`_split_replies`), both as (block, errors), the form `answer`
gives.  A share whose every request succeeded is its size table, every
entry W, then the block of its results: the endpoint writes the block
after the table in one copy, and the manager checks the table with one
array comparison and reshapes the rest of the payload into the block, a
view of the frame's buffer.  A share with a failed request is read
request by request, and its results must all have one size: a ragged
reply is malformed, as our endpoints, which write a rectangular block,
never send.  The model then checks the width of the rows that succeeded
in one call (`check_width`).  An endpoint answers only after it has read
its whole share, so it never writes while its manager may still be
writing to it.  It reads the share's table in place, a view of the
frame checked with one array test of its parameter indices
(`_split_request`), unpacks each parameter of the share once, and
answers the share through `answer`: a share at one parameter on subsets
the endpoint serves is one model call.  The batch's table is laid out
row by row as a frame holds it, so a share of the whole batch sends that
table as it is, and a share of part of it sends a copy of its rows, each
parameter index renumbered with array operations in the order the share
first names it.  A request whose parameter does not unpack fails with
that exception, and one whose subset the endpoint does not serve with
the ProtocolError its shard lookup raises; the endpoint goes on serving
after a failed request.  A share of a kind the endpoint does not serve
is answered with a KIND_ERROR frame in which every request holds that
error.

An endpoint keeps nothing between batches but its shards, which the pool
made resident together when it was built (`ModelContract.reside`, with
the endpoint's shards in subset order; for the mixed model, row ranges
of one read-only kernel block, so a share of all of them, in subset
order, runs on the block itself): it unpacks the parameters of every
batch and answers from those alone.

A reply carries only the statistics that depend on the E step's
parameter.  The part of a subset's statistics that depends on its data
alone never crosses the wire: the pool takes it from the manager's copy
of each shard when it is built (`ModelContract.reside`, which returns
the static parts) and attaches it to every batch it returns, so it adds
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
request.  A reply of the wrong kind or count, whose size table does not
cover its payload, or whose results are ragged, is a ProtocolError
naming the share's first subset, held by every request of the share.  A
failed request holds a ProtocolError naming its own subset, "worker k
failed: ...", and each request whose rows the model rejects the
exception `check_width` raised.  Every
reply of a batch is read before the surface raises, so no connection is
left holding a reply that a later request would read.  Endpoints block
on their reads without a limit, because they sit idle between
iterations.  An endpoint whose connection closes or fails, or that reads
a malformed frame or request share, closes it and exits quietly.
"""
from __future__ import annotations

import itertools
import socket
import struct
import threading

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
        if not got:
            k = sock.recv_into(buf)  # most frames arrive whole
        else:
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
    """The (n, 3) int64 table of a request share's (subset, anchor tag,
    parameter index) rows, a view of the payload as it lies in the frame,
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
    table = payload[: 3 * n].view("<i8").reshape(n, 3)
    # a negative index reads as an unsigned one past any T
    if np.logical_or.reduce(table[:, 2].view("<u8") >= T):
        raise ProtocolError(f"request table names a parameter outside 0..{T - 1}")
    return table, payload[3 * n :].reshape(T, width)


def _reply_payload(block: np.ndarray, errors: dict) -> np.ndarray:
    """The payload of a reply share whose request i holds row i of block,
    or errors[i], the exception it raised, when it failed: the size table,
    then each result.  A share without a failure is its size table, every
    entry the block's width, then the block, in one copy."""
    n, width = block.shape
    if not errors:
        return np.concatenate([np.full(n, width, dtype="<i8").view("<f8"), block.ravel()])
    sizes, parts = [], []
    for i, row in enumerate(block):
        if i in errors:
            text = f"{type(errors[i]).__name__}: {errors[i]}".encode("utf-8")
            sizes.append(-len(text))
            parts.append(np.frombuffer(text + bytes(-len(text) % 8), dtype="<f8"))
        else:
            sizes.append(width)
            parts.append(row)
    return np.concatenate([_int_words(sizes), *parts])


def _split_replies(ks, payload: np.ndarray, width):
    """(block, errors) of a reply share for the subsets ks (at least one):
    row i of the (n, w) block is request i's result, unless errors maps i
    to the ProtocolError that names its subset and carries its text.  A
    share without a failure, every size w (width, when given), is read
    with one comparison of its table, and its block is a view of the
    payload.  A share with a failure is read request by request, and its
    results must all have one size (width, when given).  A table that
    does not cover the payload exactly, or ragged results, is a
    ProtocolError naming ks[0]."""
    n = len(ks)
    if len(payload) < n:
        raise ProtocolError(f"worker {ks[0]}: reply table of {n} sizes is longer than "
                            f"its {len(payload)}-value payload")
    sizes = payload[:n].view("<i8")
    w = int(sizes[0]) if width is None else width
    if w >= 0 and n + n * w == len(payload) and (sizes == w).all():
        return payload[n:].reshape(n, w), {}
    parts, errors, start = [], {}, n  # parts: ([position], its result as a row)
    for i, (k, size) in enumerate(zip(ks, sizes.tolist())):
        end = start + (size if size >= 0 else -(size // 8))
        if end > len(payload):
            break
        chunk = payload[start:end]
        if size >= 0:
            parts.append(([i], chunk[None]))
        else:
            errors[i] = ProtocolError(
                f"worker {k} failed: {chunk.tobytes()[:-size].decode('utf-8', 'replace')}")
        start = end
    widths = {width, *(row.size for _, row in parts)} - {None}
    if len(parts) + len(errors) < n or start != len(payload) or len(widths) > 1:
        raise ProtocolError(f"worker {ks[0]}: reply sizes do not match its "
                            f"{len(payload)}-value payload")
    return _gather(n, parts), errors


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


def _batch(requests):
    """The array form of (k, theta, anchor_tag) requests: their distinct
    thetas, each listed once in the order it first appears, and the (n, 3)
    int64 table of each request's (subset, anchor tag, theta index), laid
    out row by row as a request frame holds it."""
    n = len(requests)
    table = np.zeros((n, 3), dtype="<i8")
    if not n:
        return [], table
    ks, thetas, tags = zip(*requests)
    table[:, 0] = ks
    table[:, 1] = tags
    ids = list(map(id, thetas))
    if ids.count(ids[0]) == n:
        return [thetas[0]], table
    distinct = dict(zip(ids, thetas))  # keyed in first-appearance order
    index = {key: j for j, key in enumerate(distinct)}
    table[:, 2] = list(map(index.__getitem__, ids))
    return list(distinct.values()), table


def _request_payload(table: np.ndarray, packed, whole: bool):
    """(payload, T) of the request share whose (n, 3) table is a batch's
    or, unless whole, a private copy of some of its rows: the table as it
    is, then the T packed parameters it names.  The batch's parameter
    indices count in the order the batch first names each, and so do a
    whole share's; a part's are renumbered in place, in the order the
    share first names each, and it holds only those."""
    order = range(len(packed))
    if not whole and len(packed) > 1:
        js = table[:, 2]
        order = list(dict.fromkeys(js.tolist()))
        rank = np.empty(len(packed), dtype="<i8")
        rank[order] = np.arange(len(order))
        table[:, 2] = rank[js]
    share = [packed[j] for j in order]
    return np.concatenate([table.view("<f8").ravel(), *share]), len(share)


def _groups(table: np.ndarray, T: int) -> list:
    """(theta index, positions of its requests) of each theta index 0..T-1
    that has any, in index order, the positions an increasing int array."""
    if T == 1:
        return [(0, np.arange(len(table)))]
    js = table[:, 2]
    order = np.argsort(js, kind="stable")
    ends = list(itertools.accumulate(np.bincount(js, minlength=T).tolist()))
    return [(j, order[a:b]) for j, (a, b) in enumerate(zip([0, *ends], ends)) if a < b]


def answer(model: ModelContract, shards, thetas, table: np.ndarray, loglik: bool = False):
    """(block, errors) for a batch in array form: thetas, and the (n, 3)
    table of each request's (subset k, anchor tag, index into thetas), on
    shards[k].  Row i of the (n, w) block is request i's result, its
    `pack_stats` row, or with loglik its local log likelihood as a row of
    one value, unless errors maps i to the exception its work raised.  A
    request whose theta is an exception (a parameter its endpoint could
    not unpack, say) fails with it, before any work.  The requests at one
    theta are one `local_esteps` or `local_logliks` call on their shards,
    gathered without a Python step per request, and that call's block is
    the answer itself when it covers every request; a lone request is one
    `local_estep` or `local_loglik` call.  A grouped call that raises is
    retried one request at a time, so each failure is its own request's."""
    n = len(table)
    parts, errors, pending = [], {}, []
    for j, idx in _groups(table, len(thetas)) if n else ():
        theta = thetas[j]
        if isinstance(theta, Exception):
            errors.update(dict.fromkeys(idx.tolist(), theta))
        else:
            pending.append((idx, theta))
    while pending:
        idx, theta = pending.pop(0)
        rows = table if len(idx) == n else table[idx]
        try:
            parts.append((idx, _answer_group(model, shards, theta, rows, loglik)))
        except Exception as exc:
            if len(idx) == 1:
                errors[int(idx[0])] = exc
            else:
                pending[:0] = [(idx[i : i + 1], theta) for i in range(len(idx))]
    return _gather(n, parts), errors


def _answer_group(model: ModelContract, shards, theta, rows: np.ndarray, loglik: bool):
    """The block of results of the requests of table rows that share one
    theta; what the model raises propagates."""
    # a lone request keeps the per-request call, which the benchmark's
    # tracer times; it goes once that tracer times the batched calls
    if len(rows) == 1:
        k, tag, _ = rows[0].tolist()
        if loglik:
            return np.array([[model.local_loglik(theta, shards[k])]])
        stats = model.local_estep(theta, shards[k], subset_id=k, anchor_tag=tag)
        return model.pack_stats(stats)[None]
    group = list(map(shards.__getitem__, rows[:, 0].tolist()))
    if loglik:
        return np.array(model.local_logliks(theta, group))[:, None]
    return model.local_esteps(theta, group)


class _Served(dict):
    """An endpoint's shards by subset, where a subset it does not serve is
    a ProtocolError saying so, raised by the lookup."""

    def __missing__(self, k):
        raise ProtocolError(f"subset {k} is not served by this endpoint")


class InProcessPool:
    """Direct-call worker endpoints for single-threaded deterministic runs,
    and the batch surface every pool serves.

    Each worker's subset is prepared (`model.prepare`) once, when the pool
    is built, and that shard is what every call on the worker passes.  The
    shards of each endpoint (subset k on endpoint k mod E, E = 1 in
    process) are then made resident together (`model.reside`), in subset
    order, which also gives the static parts of their statistics; every
    E-step result the pool returns holds its subset's.  The surface asks
    `_results` for a batch's outcomes and hands them to `_collect`; in
    process, `_results` is `answer` on the shards.
    """

    def __init__(self, model: ModelContract, subsets):
        # every reply is checked against the model's row width: a model
        # without one fails here, not at its first E step
        width = getattr(model, "stats_width", None)
        if isinstance(width, bool) or not isinstance(width, (int, np.integer)) or width < 1:
            raise TypeError(f"{type(model).__name__}.stats_width must be a positive int, "
                            f"got {width!r}")
        self.model = model
        self.shards = [model.prepare(subset) for subset in subsets]
        K = len(self.shards)
        E = min(K, self._endpoints())
        self._endpoint = np.arange(K) % max(E, 1)  # serving subset k
        self.statics = [None] * K
        for e in range(E):
            self.statics[e::E] = model.reside(self.shards[e::E])
        self.messages_sent = 0

    def _endpoints(self) -> int:
        """The endpoints the pool serves its subsets from, at most."""
        return 1

    def _results(self, thetas, table: np.ndarray, loglik: bool):
        """(block, errors) for a batch in array form, thetas and its (n, 3)
        table of (subset, anchor tag, theta index) rows: row i of the block
        is request i's result, unless errors maps i to the exception it
        met."""
        return answer(self.model, self.shards, thetas, table, loglik)

    def _collect(self, thetas, table: np.ndarray, loglik: bool) -> np.ndarray:
        """The block of the batch's results, each answered request counted
        (request out, reply back); a failure raises that of the earliest
        failed request."""
        block, errors = self._results(thetas, table, loglik)
        self.messages_sent += 2 * (len(table) - len(errors))
        if errors:
            raise errors[min(errors)]
        return block

    def esteps(self, requests) -> EStepBatch:
        """The batch of the (k, theta, anchor_tag) requests' results, in
        their order."""
        thetas, table = _batch(requests)
        block = self._collect(thetas, table, loglik=False)
        ks = table[:, 0]
        return EStepBatch(self.model, block, ks, table[:, 1],
                          list(map(self.statics.__getitem__, ks.tolist())))

    def logliks(self, ks, theta) -> list:
        """Local log likelihoods of workers ks at theta, in their order."""
        table = np.zeros((len(ks), 3), dtype="<i8")
        table[:, 0] = ks
        return self._collect([theta], table, loglik=True).ravel().tolist()

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
        self._conns = []
        self._threads = []
        try:
            for e in sorted(set(self._endpoint)):
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

    def _endpoints(self) -> int:
        return ENDPOINTS

    def _serve(self, conn, shards: dict):
        """Answer the request shares for the subsets of shards ({k: shard})
        on conn, one reply frame per share, until the manager closes its
        end.  A connection that carries a malformed frame, or fails because
        its manager has gone, is closed and the endpoint returns quietly:
        there is no one left to report to."""
        shards = _Served(shards)
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

    def _answer(self, kind: int, table: np.ndarray, packed, shards: _Served):
        """(block, errors) for a share of the given kind, its table of (k,
        anchor tag, parameter index) rows and its packed parameters, as
        `answer` gives them.  Each parameter is unpacked once.  A parameter
        that does not unpack, or a kind the endpoint does not know, is that
        exception in place of the theta, so `answer` fails its requests,
        and a request whose subset this endpoint does not serve fails with
        the error that looking its shard up raises: the failure is reported
        to the manager, and the endpoint stays up for the next batch."""
        if kind not in _REPLY:
            return answer(self.model, shards,
                          [ProtocolError(f"unknown request kind {kind}")] * len(packed), table)
        thetas = []  # each parameter's Theta, or the exception unpacking raised
        for words in packed:
            try:
                thetas.append(self.model.unpack_theta(words))
            except Exception as exc:
                thetas.append(exc)
        return answer(self.model, shards, thetas, table, kind == KIND_LOGLIK_REQ)

    def _shares(self, table: np.ndarray) -> list:
        """(endpoint, positions of its requests) of each endpoint that the
        batch's table has requests for, in the order of its first."""
        ends = self._endpoint[table[:, 0]]  # a subset past K is an IndexError
        if len(self._conns) == 1:
            return [(0, np.arange(len(table)))]
        es, first = np.unique(ends, return_index=True)
        return [(e, np.flatnonzero(ends == e)) for e in es[np.argsort(first)].tolist()]

    def _results(self, thetas, table: np.ndarray, loglik: bool):
        """Send every request of a batch in array form, one frame per
        endpoint share, then read each share's reply: (block, errors) as
        `answer` gives them, each request's row in request order.  Each
        theta is packed once per batch, and a share's table is its rows of
        the batch's, each theta index renumbered in the order the share
        first names it.  A failure that meets a whole share (a write or
        read that fails, a malformed reply) is the outcome of every request
        of that share; the other replies are still read, so none is left
        for a later request to find."""
        if not len(table):
            return _gather(0, []), {}
        kind = KIND_LOGLIK_REQ if loglik else KIND_ESTEP_REQ
        packed = [self.model.pack_theta(theta) for theta in thetas]
        parts, errors, sent = [], {}, []
        for e, idx in self._shares(table):
            whole = len(idx) == len(table)
            rows = table if whole else table[idx]
            payload, T = _request_payload(rows, packed, whole)
            ks = rows[:, 0].tolist()
            try:
                write_frame(self._conns[e], kind, len(rows), T, payload)
                sent.append((e, idx, ks))
            except OSError as exc:
                errors.update(dict.fromkeys(idx.tolist(), self._failure(e, ks[0], exc)))
        for e, idx, ks in sent:
            try:
                block, failed = self._reply(e, _REPLY[kind], ks, loglik)
            except ProtocolError as exc:
                errors.update(dict.fromkeys(idx.tolist(), exc))
                continue
            errors.update((int(idx[i]), exc) for i, exc in failed.items())
            if len(failed) < len(idx):  # a share that failed whole has no rows
                parts.append((idx, block))
        return _gather(len(table), parts), errors

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

    def _reply(self, e: int, reply_kind: int, ks, loglik: bool):
        """(block, errors) of endpoint e's reply to its share of requests for
        the subsets ks, read by `_split_replies`: the reply must carry the
        expected kind and count and a table that covers its payload.  The
        model checks the width of the E-step rows that succeeded
        (`check_width`); when it raises, each of their requests holds its
        error."""
        try:
            kind, n, _, payload = read_frame(self._conns[e])
        except (OSError, ProtocolError) as exc:
            raise self._failure(e, ks[0], exc)
        if (kind, n) != (reply_kind, len(ks)):
            raise ProtocolError(
                f"worker {ks[0]}: expected reply (kind, count) = "
                f"{(reply_kind, len(ks))}, got {(kind, n)}"
            )
        block, errors = _split_replies(ks, payload, 1 if loglik else None)
        ok = [i for i in range(n) if i not in errors] if errors else range(n)
        if ok and not loglik:
            try:
                self.model.check_width(block.shape[1], ks[ok[0]])
            except Exception as exc:  # each request's outcome: the batch's replies are still read
                errors.update(dict.fromkeys(ok, exc))
        return block, errors

    def close(self):
        for conn in self._conns:
            conn.close()
        for t in self._threads:
            t.join(timeout=5)


POOLS = {"in_process": InProcessPool, "socket": SocketPool}


def make_pool(transport: str, model, subsets):
    return POOLS[transport](model, subsets)
