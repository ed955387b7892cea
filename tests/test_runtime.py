import math
import socket
from collections import Counter
import struct
import threading
import time
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest

from demfit import (
    LmmModel,
    ProtocolError,
    RunConfig,
    Theta,
    check_monotone_F,
    deterministic_schedule,
    empirical_gamma,
    partition,
    run_dem,
    run_ecme0,
    run_scheme,
)
from demfit.lmm import LmmShard
from demfit.transport import (
    KIND_ERROR,
    KIND_ESTEP_REP,
    KIND_ESTEP_REQ,
    KIND_LOGLIK_REP,
    KIND_LOGLIK_REQ,
    InProcessPool,
    SocketPool,
    make_pool,
    read_frame,
    write_frame,
)
from conftest import point_bytes, theta_bytes


def thetas_equal(a: Theta, b: Theta) -> bool:
    return (
        np.array_equal(a.beta, b.beta)
        and np.array_equal(a.L, b.L)
        and a.tau2 == b.tau2
    )


def traces_equal(tr_a, tr_b) -> bool:
    return (
        len(tr_a.thetas) == len(tr_b.thetas)
        and all(thetas_equal(x, y) for x, y in zip(tr_a.thetas, tr_b.thetas))
        and tr_a.logliks == tr_b.logliks
    )


@pytest.fixture(scope="module")
def fitted_pieces(small_dataset_module=None):
    from demfit import SimDesign, simulate

    samples, _ = simulate(SimDesign(m=40, n=800, p=3, q=3, seed=5))
    model = LmmModel(3, 3)
    theta0 = Theta.default_start(3, 3)
    return samples, model, theta0


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(K=0)
    with pytest.raises(ValueError):
        RunConfig(K=4, gamma=0.0)
    with pytest.raises(ValueError):
        RunConfig(K=4, gamma=1.2)
    with pytest.raises(ValueError):
        RunConfig(K=4, completion="abandon")
    with pytest.raises(ValueError, match="max_iter"):
        RunConfig(K=4, max_iter=-1)
    for tol in (math.nan, math.inf, -math.inf, -1.0):
        with pytest.raises(ValueError, match="tol"):
            RunConfig(K=4, tol=tol)
    assert RunConfig(K=4, tol=0.0).tol == 0.0  # runs exactly max_iter iterations
    with pytest.raises(ValueError, match="seed"):
        RunConfig(K=4, seed=-1)
    # the scheduler and the scheme are no settings: run_scheme picks the scheme
    with pytest.raises(TypeError):
        RunConfig(K=4, scheduler="real")
    with pytest.raises(TypeError):
        RunConfig(K=4, scheme="synchronous")


def test_accept_threshold_ceiling():
    assert RunConfig(K=20, gamma=0.3).accept_threshold == 6
    assert RunConfig(K=20, gamma=0.5).accept_threshold == 10
    assert RunConfig(K=3, gamma=1.0).accept_threshold == 3
    assert RunConfig(K=7, gamma=1.0 / 7).accept_threshold == 1


def test_deterministic_schedule_properties():
    perm = deterministic_schedule(3, 5, 10)
    assert sorted(perm) == list(range(10))
    # reproducible, and different iterations give different orders
    assert np.array_equal(perm, deterministic_schedule(3, 5, 10))
    assert not np.array_equal(perm, deterministic_schedule(3, 6, 10))
    assert np.array_equal(deterministic_schedule(3, 5, 10, forced_split=True),
                          np.arange(10))


def test_gamma_one_equals_baseline(fitted_pieces):
    samples, model, theta0 = fitted_pieces
    _, tr_base = run_ecme0(RunConfig(K=1), model, samples, theta0)
    assert tr_base.converged
    for K in (1, 4, 8):
        subsets = partition(samples, K, seed=0)
        _, tr = run_dem(RunConfig(K=K, gamma=1.0), model, subsets, theta0)
        assert traces_equal(tr, tr_base), f"K={K} trajectory diverged"


def test_ecme0_trace_records_the_config_it_ran(fitted_pieces):
    samples, model, theta0 = fitted_pieces
    cfg = RunConfig(K=4, gamma=0.5, seed=5, transport="socket", completion="finish",
                    exact_loglik_check=True, forced_split=True)
    _, tr = run_ecme0(cfg, model, samples, theta0)
    assert all(len(tags) == 1 for tags in tr.anchor_tags)
    ran = dict(K=1, gamma=1.0, seed=0, transport="in_process", exact_loglik_check=False,
               forced_split=False, completion="restart")
    assert tr.config == cfg.to_dict() | ran | {"algo": "ecme0"}
    assert empirical_gamma(tr).tolist() == [1.0]
    _, ref = run_ecme0(RunConfig(K=1), model, samples, theta0)
    assert traces_equal(tr, ref)


def test_subset_count_must_match_config(fitted_pieces):
    samples, model, theta0 = fitted_pieces
    subsets = partition(samples, 4, seed=0)
    with pytest.raises(ProtocolError):
        run_dem(RunConfig(K=5), model, subsets, theta0)


@pytest.mark.parametrize("completion", ["restart", "finish"])
@pytest.mark.parametrize("forced_split", [False, True])
@pytest.mark.parametrize("exact", [False, True])
def test_socket_transport_identical_trace(fitted_pieces, completion, forced_split, exact):
    samples, model, theta0 = fitted_pieces
    subsets = partition(samples, 4, seed=0)
    cfg = dict(K=4, gamma=0.5, seed=2, completion=completion,
               forced_split=forced_split, exact_loglik_check=exact)
    _, tr_mem = run_dem(RunConfig(**cfg, transport="in_process"), model, subsets, theta0)
    threads = set(threading.enumerate())
    _, tr_sock = run_dem(RunConfig(**cfg, transport="socket"), model, subsets, theta0)
    # closing the pool's connections ends every serving thread
    assert set(threading.enumerate()) == threads
    assert traces_equal(tr_mem, tr_sock)
    assert tr_mem.accept_sets == tr_sock.accept_sets
    assert tr_mem.anchor_tags == tr_sock.anchor_tags
    assert tr_mem.staleness == tr_sock.staleness
    assert tr_mem.messages_sent == tr_sock.messages_sent


class PerRequestPool:
    """A pool wrapper with only the per-request surface, as a wrapper that
    times each request has."""

    def __init__(self, pool):
        self._pool = pool

    @property
    def messages_sent(self):
        return self._pool.messages_sent

    def estep(self, k, theta, anchor_tag):
        return self._pool.estep(k, theta, anchor_tag)

    def loglik(self, k, theta):
        return self._pool.loglik(k, theta)

    def close(self):
        self._pool.close()


@pytest.mark.parametrize("transport", ["in_process", "socket"])
@pytest.mark.parametrize("completion", ["restart", "finish"])
def test_pool_without_batch_surface_is_asked_per_request(fitted_pieces, monkeypatch,
                                                         transport, completion):
    """run_dem asks a pool that offers only estep and loglik one request at
    a time: the run is bitwise that of the batched pool, with the same
    messages_sent, and each E step is one local_estep call on its shard."""
    samples, _, theta0 = fitted_pieces
    subsets = partition(samples, 4, seed=0)
    estepped = []

    class PerCallModel(LmmModel):
        def local_estep(self, theta, subset, subset_id=0, anchor_tag=0):
            estepped.append(len(subset))
            return super().local_estep(theta, subset, subset_id, anchor_tag)

    cfg = RunConfig(K=4, gamma=0.5, seed=2, completion=completion, transport=transport,
                    exact_loglik_check=True)
    _, tr_batch = run_dem(cfg, LmmModel(3, 3), subsets, theta0)
    make = make_pool
    monkeypatch.setattr("demfit.runtime.make_pool",
                        lambda *args: PerRequestPool(make(*args)))
    _, tr = run_dem(cfg, PerCallModel(3, 3), subsets, theta0)
    assert traces_equal(tr, tr_batch)
    assert tr.accept_sets == tr_batch.accept_sets
    assert tr.anchor_tags == tr_batch.anchor_tags
    assert tr.messages_sent == tr_batch.messages_sent
    sizes = [len(s) for s in subsets]
    assert sum(estepped) == sum(sizes) + sum(sizes[k] for a in tr.accept_sets[1:] for k in a)


@pytest.mark.parametrize("transport", ["in_process", "socket"])
@pytest.mark.parametrize("completion", ["restart", "finish"])
@pytest.mark.parametrize("forced_split", [False, True])
def test_every_started_estep_is_used(fitted_pieces, transport, completion, forced_split):
    """Each E step the manager starts enters an M step: the seeding round
    and the final loglik cost K round trips each, and every later round
    trip is one accepted result."""
    samples, model, theta0 = fitted_pieces
    K = 5
    subsets = partition(samples, K, seed=0)
    _, tr = run_dem(RunConfig(K=K, gamma=0.4, seed=9, transport=transport,
                              completion=completion, forced_split=forced_split),
                    model, subsets, theta0)
    assert tr.converged
    assert tr.messages_sent / 2 == 2 * K + sum(len(a) for a in tr.accept_sets[1:])


@pytest.mark.parametrize("transport", ["in_process", "socket"])
def test_exact_run_reports_its_last_loglik(fitted_pieces, transport):
    """An exact-loglik run takes L(theta_{t-1}) from the E-step replies
    fresh at theta_{t-1} and sends a loglik request to each other worker;
    the closing loglik round fills its last row.  Round trips: K seeding
    ones, one per later accepted result, one per refresh and K closing.
    Both completion policies are checked."""
    samples, model, theta0 = fitted_pieces
    K = 5
    for completion in ("restart", "finish"):
        _, tr = run_dem(RunConfig(K=K, gamma=0.4, seed=9, transport=transport,
                                  completion=completion, exact_loglik_check=True),
                        model, partition(samples, K, seed=0), theta0)
        assert tr.converged
        assert len(tr.logliks) == len(tr.thetas)
        assert tr.final_loglik == tr.logliks[-1]
        refreshes = sum(tag != t - 1 for t in range(2, len(tr.anchor_tags))
                        for tag in tr.anchor_tags[t])
        assert refreshes > 0
        assert tr.messages_sent / 2 == (K + sum(len(a) for a in tr.accept_sets[1:])
                                        + refreshes + K)


@pytest.mark.parametrize("transport", ["in_process", "socket"])
def test_exact_run_matches_header_run_at_gamma_one(fitted_pieces, transport):
    """At gamma = 1 every cached result is fresh, so an exact-loglik run
    sends no loglik request but the closing round: it makes the M steps,
    stops and sends the messages of a header run and of ecme0, and each
    row's loglik is the exact sum over the subsets at that row's theta."""
    samples, model, theta0 = fitted_pieces
    K = 4
    subsets = partition(samples, K, seed=0)
    _, exact = run_dem(RunConfig(K=K, transport=transport, exact_loglik_check=True),
                       model, subsets, theta0)
    _, header = run_dem(RunConfig(K=K, transport=transport), model, subsets, theta0)
    _, base = run_ecme0(RunConfig(K=1), model, samples, theta0)
    assert exact.converged and header.converged
    for tr in (header, base):
        assert len(exact.thetas) == len(tr.thetas)
        assert all(thetas_equal(a, b) for a, b in zip(exact.thetas, tr.thetas))
    assert exact.accept_sets == header.accept_sets
    # K seeding round trips, K per M step after the first, K closing ones
    assert exact.messages_sent == header.messages_sent == 2 * K * len(exact.thetas)
    assert exact.logliks == [math.fsum(model.local_loglik(theta, s) for s in subsets)
                             for theta in exact.thetas]


@pytest.mark.parametrize("K", [1, 4, 20])
def test_fresh_estep_loglik_is_local_loglik(fitted_pieces, K):
    """A fresh E step's payload loglik is bitwise local_loglik on the same
    shard and theta: an exact-loglik run sums the two kinds together."""
    samples, model, theta0 = fitted_pieces
    subsets = partition(samples, K, seed=0)
    _, tr = run_dem(RunConfig(K=K, gamma=0.5, seed=1), model, subsets, theta0)
    for theta in tr.thetas:
        for subset in subsets:
            shard = model.prepare(subset)
            fresh = model.local_estep(theta, shard).payload.loglik
            assert fresh == model.local_loglik(theta, model.prepare(subset))


class PosteriorCountingModel(LmmModel):
    """Counts the sample rows of every posterior it computes, by the bytes
    of each point's D^{-1} and (-beta, 1), and lists the points of each
    call; socket workers share the model, so the count covers every
    thread."""

    def __init__(self, p, q):
        super().__init__(p, q)
        self.rows = Counter()
        self.calls = []

    def _posterior(self, theta, shard):
        points = point_bytes(theta)
        self.calls.append(points)
        for point in points:
            self.rows[point] += len(shard)
        return super()._posterior(theta, shard)


@pytest.mark.parametrize("transport", ["in_process", "socket"])
@pytest.mark.parametrize("completion", ["restart", "finish"])
@pytest.mark.parametrize("exact", [False, True])
def test_one_posterior_per_round_trip(fitted_pieces, transport, completion, exact):
    """A worker keeps nothing between requests: the samples of every E step
    and loglik it answers enter exactly one posterior, at that request's
    theta, also when a "finish" exact-loglik run delivers a stale E step at
    the theta its loglik was refreshed at.  The requests are read off the
    trace: the seeding round, each accepted E step at its anchor, each
    refresh at theta_{t-1} and the closing round."""
    samples, _, theta0 = fitted_pieces
    K = 5
    subsets = partition(samples, K, seed=0)
    model = PosteriorCountingModel(3, 3)
    _, tr = run_dem(RunConfig(K=K, gamma=0.4, seed=9, transport=transport,
                              completion=completion, exact_loglik_check=exact),
                    model, subsets, theta0)
    assert tr.converged and tr.max_staleness >= 2
    want = Counter()

    def asked(theta, ks):
        want[theta_bytes(theta)] += sum(len(subsets[k]) for k in ks)

    asked(tr.thetas[0], range(K))
    for t in range(2, len(tr.anchor_tags)):
        tags = tr.anchor_tags[t]
        for k in tr.accept_sets[t - 1]:
            asked(tr.thetas[tags[k]], [k])
        if exact:
            asked(tr.thetas[t - 1], [k for k in range(K) if tags[k] != t - 1])
    asked(tr.thetas[-1], range(K))
    assert model.rows == want


@pytest.mark.parametrize("transport", ["in_process", "socket"])
def test_gamma_one_exact_run_one_posterior_per_worker_and_theta(fitted_pieces, transport):
    samples, _, theta0 = fitted_pieces
    K = 4
    model = PosteriorCountingModel(3, 3)
    _, tr = run_dem(RunConfig(K=K, transport=transport, exact_loglik_check=True),
                    model, partition(samples, K, seed=0), theta0)
    assert tr.converged
    # every worker's samples enter one posterior per theta, and only those
    assert len(set(map(theta_bytes, tr.thetas))) == len(tr.thetas)
    assert model.rows == {theta_bytes(theta): len(samples) for theta in tr.thetas}
    # so does the audit, and each theta enters exactly one posterior call
    model.rows.clear()
    model.calls.clear()
    assert check_monotone_F(tr, model, partition(samples, K, seed=0)) == []
    assert model.rows == {theta_bytes(theta): len(samples) for theta in tr.thetas}
    assert sorted(p for points in model.calls for p in points) == sorted(
        map(theta_bytes, tr.thetas))


@contextmanager
def socketpair_worker(pool, serve):
    """Swap worker 0's connection for a socketpair, with the same reply
    timeout, whose peer runs serve(sock) on a thread; restore it, close the
    pool and join the thread afterwards."""
    manager_end, worker_end = socket.socketpair()
    manager_end.settimeout(pool._conns[0].gettimeout())
    real_conn, pool._conns[0] = pool._conns[0], manager_end
    worker = threading.Thread(target=serve, args=(worker_end,), daemon=True)
    worker.start()
    try:
        yield
    finally:
        pool._conns[0] = real_conn
        pool.close()
        manager_end.close()
        worker_end.close()
    worker.join(timeout=5)
    assert not worker.is_alive()


@pytest.mark.parametrize("transport", ["in_process", "socket"])
def test_pools_prepare_once_per_worker(fitted_pieces, transport):
    """Each worker's subset is prepared once per run, and every E step and
    loglik call on it gets the prepared shard."""
    samples, _, theta0 = fitted_pieces

    class CountingModel(LmmModel):
        def __init__(self, p, q):
            super().__init__(p, q)
            self.prepared = 0
            self.received = []

        def prepare(self, subset):
            self.prepared += 1
            return super().prepare(subset)

        def local_esteps(self, theta, shards, subset_ids, anchor_tag):
            self.received.extend(map(type, shards))
            return super().local_esteps(theta, shards, subset_ids, anchor_tag)

        def local_loglik(self, theta, subset):
            self.received.append(type(subset))
            return super().local_loglik(theta, subset)

    K = 4
    model = CountingModel(3, 3)
    _, tr = run_dem(RunConfig(K=K, gamma=0.5, seed=2, transport=transport,
                              exact_loglik_check=True),
                    model, partition(samples, K, seed=0), theta0)
    assert tr.converged
    assert model.prepared == K
    assert len(model.received) == tr.messages_sent // 2
    assert set(model.received) == {LmmShard}


@pytest.mark.parametrize("transport", ["in_process", "socket"])
def test_mismatched_samples_rejected_when_pool_is_built(fitted_pieces, transport):
    samples, _, _ = fitted_pieces  # p = q = 3
    threads = set(threading.enumerate())
    with pytest.raises(ValueError, match="samples do not match the model's p=4, q=3"):
        run_dem(RunConfig(K=2, transport=transport), LmmModel(4, 3),
                partition(samples, 2, seed=0), Theta.default_start(4, 3))
    assert set(threading.enumerate()) == threads


def test_socket_run_needs_no_listening_port(fitted_pieces, monkeypatch):
    """Socket workers are served over socket pairs: a host where no socket
    may bind or listen still gives the in-process trace."""
    samples, model, theta0 = fitted_pieces
    subsets = partition(samples, 4, seed=0)
    cfg = dict(K=4, gamma=0.5, seed=2, exact_loglik_check=True)
    _, tr_mem = run_dem(RunConfig(**cfg, transport="in_process"), model, subsets, theta0)

    def refuse(self, *args):
        raise PermissionError("no listening sockets here")

    monkeypatch.setattr(socket.socket, "bind", refuse)
    monkeypatch.setattr(socket.socket, "listen", refuse)
    _, tr_sock = run_dem(RunConfig(**cfg, transport="socket"), model, subsets, theta0)
    assert traces_equal(tr_mem, tr_sock)
    assert tr_mem.messages_sent == tr_sock.messages_sent


def test_pool_closes_started_workers_when_one_fails_to_start(fitted_pieces, monkeypatch):
    """A worker thread that cannot start fails the pool, and the workers
    started before it are ended, not left blocked on their connections."""
    samples, model, theta0 = fitted_pieces
    threads = set(threading.enumerate())
    start, started = threading.Thread.start, []

    def start_once(self):
        if started:
            raise RuntimeError("can't start new thread")
        started.append(self)
        start(self)

    with monkeypatch.context() as patch:
        patch.setattr(threading.Thread, "start", start_once)
        with pytest.raises(RuntimeError, match="can't start new thread"):
            run_dem(RunConfig(K=4, transport="socket"), model,
                    partition(samples, 4, seed=0), theta0)
    assert len(started) == 1
    assert set(threading.enumerate()) == threads


def _peer(send):
    """socketpair whose far end runs send(sock) on a thread, then closes."""
    near, far = socket.socketpair()

    def run():
        try:
            send(far)
        finally:
            far.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return near, thread


def test_read_frame_from_one_byte_chunks():
    payload = np.linspace(-1.0, 1.0, 40)
    body = struct.pack("<BIQ", KIND_ESTEP_REP, 3, 7) + payload.astype("<f8").tobytes()
    frame = struct.pack("<I", len(body)) + body

    def trickle(sock):
        for i in range(len(frame)):
            sock.sendall(frame[i : i + 1])
            time.sleep(1e-4)

    near, thread = _peer(trickle)
    try:
        kind, subset_id, iteration, got = read_frame(near)
    finally:
        near.close()
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert (kind, subset_id, iteration) == (KIND_ESTEP_REP, 3, 7)
    np.testing.assert_array_equal(got, payload)


def test_read_frame_peer_closed_mid_body():
    body = struct.pack("<BIQ", KIND_ESTEP_REP, 0, 0) + bytes(8 * 4)
    near, thread = _peer(lambda sock: sock.sendall(struct.pack("<I", len(body)) + body[:20]))
    try:
        with pytest.raises(ConnectionError, match="peer closed connection mid-frame"):
            read_frame(near)
    finally:
        near.close()
    thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.mark.parametrize("sent, match", [
    (b"", r"^peer closed connection$"),
    (b"\x10\x00", r"^peer closed connection mid-frame$"),
], ids=["between_frames", "inside_length"])
def test_read_frame_peer_closed_between_frames(sent, match):
    """A close before a frame's first byte is told from one inside it."""
    near, thread = _peer(lambda sock: sock.sendall(sent))
    try:
        with pytest.raises(ConnectionError, match=match):
            read_frame(near)
    finally:
        near.close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_socket_reply_checked_without_assert(fitted_pieces):
    """A reply of the wrong kind is a ProtocolError, also under python -O."""
    samples, model, theta0 = fitted_pieces
    pool = SocketPool(model, partition(samples, 2, seed=0))

    def wrong_kind_worker(sock):
        # answers an E-step request with a loglik reply and vice versa
        swapped = {KIND_ESTEP_REQ: KIND_LOGLIK_REP, KIND_LOGLIK_REQ: KIND_ESTEP_REP}
        for _ in range(2):
            kind, subset_id, iteration, _ = read_frame(sock)
            write_frame(sock, swapped[kind], subset_id, iteration, np.zeros(1))

    with socketpair_worker(pool, wrong_kind_worker):
        with pytest.raises(ProtocolError):
            pool.esteps([(0, theta0, 3)])
        with pytest.raises(ProtocolError):
            pool.logliks([0], theta0)
        assert pool.messages_sent == 0


@pytest.mark.parametrize("body, match", [
    (b"\x02\x00\x00", "shorter than its 13-byte header"),
    (struct.pack("<BIQ", KIND_ESTEP_REP, 0, 3) + bytes(12), "not a whole number"),
], ids=["short_body", "ragged_payload"])
def test_malformed_reply_frame_is_protocol_error(fitted_pieces, body, match):
    """A reply body shorter than its header, or with a payload that is not
    whole float64 values, is a ProtocolError naming the worker."""
    samples, model, theta0 = fitted_pieces
    pool = SocketPool(model, partition(samples, 2, seed=0))

    def malformed_worker(sock):
        read_frame(sock)
        sock.sendall(struct.pack("<I", len(body)) + body)

    with socketpair_worker(pool, malformed_worker):
        with pytest.raises(ProtocolError, match=f"worker 0: .*{match}"):
            pool.esteps([(0, theta0, 3)])
        assert pool.messages_sent == 0


def test_socket_worker_error_reaches_manager(fitted_pieces):
    """A worker's exception comes back as a ProtocolError that names the
    worker and carries the exception's text; the worker keeps serving."""
    samples, _, theta0 = fitted_pieces

    class FailingModel(LmmModel):
        def local_esteps(self, theta, shards, subset_ids, anchor_tag):
            if anchor_tag >= 2:
                raise RuntimeError(f"boom at {anchor_tag}")
            return super().local_esteps(theta, shards, subset_ids, anchor_tag)

    model = FailingModel(3, 3)
    subsets = partition(samples, 2, seed=0)
    pool = SocketPool(model, subsets)
    try:
        with pytest.raises(ProtocolError, match="worker 1 failed: RuntimeError: boom at 2"):
            pool.esteps([(1, theta0, 2)])
        assert pool.logliks([1], theta0) == [model.local_loglik(theta0, subsets[1])]
        assert pool.esteps([(1, theta0, 1)])[0].anchor_tag == 1
    finally:
        pool.close()
    with pytest.raises(ProtocolError, match="RuntimeError: boom at 2"):
        run_dem(RunConfig(K=2, transport="socket"), model, subsets, theta0)


@pytest.mark.parametrize("transport", ["in_process", "socket"])
def test_pools_count_answered_requests(fitted_pieces, transport):
    """messages_sent counts 2 per answered request on both pools, batched or
    not: a request whose E step raises is not counted, an answered one of
    its batch is."""
    samples, _, theta0 = fitted_pieces

    class FailingModel(LmmModel):
        def local_esteps(self, theta, shards, subset_ids, anchor_tag):
            if anchor_tag >= 2:
                raise RuntimeError(f"boom at {anchor_tag}")
            return super().local_esteps(theta, shards, subset_ids, anchor_tag)

    pool = make_pool(transport, FailingModel(3, 3), partition(samples, 2, seed=0))
    try:
        with pytest.raises(RuntimeError, match="boom at 2"):
            pool.esteps([(0, theta0, 1), (1, theta0, 2)])
        assert pool.messages_sent == 2
        with pytest.raises(RuntimeError, match="boom at 3"):
            pool.esteps([(1, theta0, 3)])
        assert pool.messages_sent == 2
        pool.logliks([0, 1], theta0)
        assert pool.messages_sent == 6
        # the per-request surface counts the same way
        with pytest.raises(RuntimeError, match="boom at 3"):
            pool.estep(1, theta0, 3)
        pool.loglik(0, theta0)
        assert pool.messages_sent == 8
    finally:
        pool.close()


@pytest.mark.parametrize("failure", ["error_frame", "connection_lost"])
def test_socket_batch_reads_every_reply_past_a_failure(fitted_pieces, failure):
    """Worker 0 fails in a batch that worker 1 answers: the ProtocolError
    names worker 0, only worker 1's answer is counted, and worker 1's next
    request gets its own reply, not the one left over from the batch."""
    samples, _, theta0 = fitted_pieces

    class FailingModel(LmmModel):
        def local_esteps(self, theta, shards, subset_ids, anchor_tag):
            if subset_ids == [0]:
                raise RuntimeError("boom in 0")
            return super().local_esteps(theta, shards, subset_ids, anchor_tag)

    model = FailingModel(3, 3)
    subsets = partition(samples, 2, seed=0)
    theta1 = Theta(np.ones(3), 2.0 * np.eye(3), 3.0)
    pool = SocketPool(model, subsets)

    def dropping_worker(sock):
        read_frame(sock)
        sock.close()

    if failure == "connection_lost":
        match, worker_0 = "worker 0: connection lost", socketpair_worker(pool, dropping_worker)
    else:
        match, worker_0 = "worker 0 failed: RuntimeError: boom in 0", nullcontext()
    with worker_0:
        try:
            with pytest.raises(ProtocolError, match=match):
                pool.esteps([(0, theta0, 1), (1, theta0, 1)])
            assert pool.messages_sent == 2
            (stats,) = pool.esteps([(1, theta1, 2)])
            assert pool.messages_sent == 4
        finally:
            pool.close()
    want = model.local_estep(theta1, model.prepare(subsets[1]), 1, 2)
    assert (stats.subset_id, stats.anchor_tag) == (1, 2)
    assert model.pack_stats(stats).tobytes() == model.pack_stats(want).tobytes()


def test_in_process_batch_mixing_anchor_tags(fitted_pieces):
    """A "finish" iteration's batch, stale deliveries at an older tag beside
    fresh E steps at the newest, is served by one local_esteps call per
    tag; each result, in request order, is bitwise local_estep on its own
    shard at its own theta."""
    samples, _, theta0 = fitted_pieces
    calls = []

    class CallModel(LmmModel):
        def local_esteps(self, theta, shards, subset_ids, anchor_tag):
            calls.append((anchor_tag, list(subset_ids)))
            return super().local_esteps(theta, shards, subset_ids, anchor_tag)

    model = CallModel(3, 3)
    subsets = partition(samples, 5, seed=0)
    theta1 = Theta(np.ones(3), 2.0 * np.eye(3), 3.0)
    requests = [(3, theta0, 1), (0, theta0, 1), (4, theta1, 3), (1, theta1, 3)]
    pool = InProcessPool(model, subsets)
    got = pool.esteps(requests)
    assert calls == [(1, [3, 0]), (3, [4, 1])]
    assert pool.messages_sent == 2 * len(requests)
    for (k, theta, tag), stats in zip(requests, got):
        want = LmmModel(3, 3).local_estep(theta, subsets[k], k, tag)
        assert (stats.subset_id, stats.anchor_tag) == (k, tag)
        assert model.pack_stats(stats).tobytes() == model.pack_stats(want).tobytes()


def test_silent_worker_times_out(fitted_pieces, monkeypatch):
    """A worker that never replies is a ProtocolError naming it once the
    reply timeout has passed; the manager does not hang."""
    samples, model, theta0 = fitted_pieces
    monkeypatch.setattr("demfit.transport.REPLY_TIMEOUT_S", 0.2)
    pool = SocketPool(model, partition(samples, 2, seed=0))
    release = threading.Event()

    def silent_worker(sock):
        read_frame(sock)
        release.wait(timeout=10)
        sock.close()

    with socketpair_worker(pool, silent_worker):
        try:
            t0 = time.perf_counter()
            with pytest.raises(ProtocolError, match=r"worker 0: no reply within 0\.2 s") as info:
                pool.esteps([(0, theta0, 1)])
            assert time.perf_counter() - t0 < 5
            assert isinstance(info.value.__cause__, TimeoutError)
            # the connection is closed, so no later request can read the
            # late reply as its own
            with pytest.raises(ProtocolError, match="worker 0: connection lost"):
                pool.logliks([0], theta0)
            assert pool.messages_sent == 0
        finally:
            release.set()


def test_closed_worker_connection_is_protocol_error(fitted_pieces):
    """A worker whose connection drops is a ProtocolError naming it,
    chained from the connection error, on every later request too."""
    samples, model, theta0 = fitted_pieces
    pool = SocketPool(model, partition(samples, 2, seed=0))
    with socketpair_worker(pool, lambda sock: sock.close()):
        for call in (lambda: pool.esteps([(0, theta0, 1)]),
                     lambda: pool.logliks([0], theta0)):
            with pytest.raises(ProtocolError, match="worker 0: connection lost") as info:
                call()
            assert isinstance(info.value.__cause__, ConnectionError)
            # the worker closed between frames, not inside one
            assert "mid-frame" not in str(info.value)
        assert pool.messages_sent == 0


def test_worker_whose_manager_timed_out_exits_quietly(fitted_pieces, monkeypatch):
    """A worker still busy when its manager gives up finds the connection
    closed once it is done, and returns without an unhandled exception."""
    samples, _, theta0 = fitted_pieces
    monkeypatch.setattr("demfit.transport.REPLY_TIMEOUT_S", 0.2)
    unhandled = []
    monkeypatch.setattr(threading, "excepthook", unhandled.append)

    class SlowModel(LmmModel):
        def local_esteps(self, theta, shards, subset_ids, anchor_tag):
            time.sleep(0.5)
            return super().local_esteps(theta, shards, subset_ids, anchor_tag)

    pool = SocketPool(SlowModel(3, 3), partition(samples, 2, seed=0))
    try:
        with pytest.raises(ProtocolError, match=r"worker 0: no reply within 0\.2 s"):
            pool.esteps([(0, theta0, 1)])
    finally:
        pool.close()
    assert not any(t.is_alive() for t in pool._threads)
    assert unhandled == []


@contextmanager
def raw_worker(model, shard):
    """Run `SocketPool._serve` on shard as worker 0 over one end of a socket
    pair and yield the other end; join the worker once that end closes."""
    client, worker_end = socket.socketpair()
    worker = threading.Thread(target=SocketPool(model, [])._serve,
                              args=(worker_end, 0, shard), daemon=True)
    worker.start()
    with client:
        client.settimeout(5)
        yield client
    worker.join(timeout=5)
    assert not worker.is_alive()


def test_socket_reply_of_the_wrong_length_is_an_error(fitted_pieces):
    """A worker whose statistics payload is longer than the layout is a
    ProtocolError naming the subset, not a reply with its tail dropped."""
    samples, _, theta0 = fitted_pieces

    class LongReplyModel(LmmModel):
        def pack_stats(self, stats):
            return np.concatenate([super().pack_stats(stats), [0.0, 0.0]])

    with pytest.raises(ProtocolError, match="subset 0: statistics payload of 60 values, "
                                            "expected 58"):
        run_dem(RunConfig(K=2, transport="socket"), LongReplyModel(3, 3),
                partition(samples, 2, seed=0), theta0)


def test_worker_reads_a_request_frame_first(fitted_pieces):
    """A worker's first bytes are a request frame, with no preamble: an E
    step is answered with the in-process result, bitwise."""
    samples, model, theta0 = fitted_pieces
    shard = model.prepare(samples)
    with raw_worker(model, shard) as client:
        write_frame(client, KIND_ESTEP_REQ, 0, 3, model.pack_theta(theta0))
        kind, subset_id, iteration, payload = read_frame(client)
    assert (kind, subset_id, iteration) == (KIND_ESTEP_REP, 0, 3)
    got = model.unpack_stats(payload, subset_id=0, anchor_tag=3)
    want = model.local_estep(theta0, shard)
    np.testing.assert_array_equal(got.payload.pack(), want.payload.pack())


def test_worker_answers_unknown_kind_and_keeps_serving(fitted_pieces):
    samples, model, theta0 = fitted_pieces
    packed = model.pack_theta(theta0)
    with raw_worker(model, model.prepare(samples)) as client:
        write_frame(client, 9, 0, 1, packed)
        assert read_frame(client) == (KIND_ERROR, 0, 1, "ProtocolError: unknown request kind 9")
        write_frame(client, KIND_ESTEP_REQ, 0, 2, packed)
        assert read_frame(client)[:3] == (KIND_ESTEP_REP, 0, 2)


def test_worker_closes_connection_on_malformed_frame(fitted_pieces, monkeypatch):
    """A worker whose peer sends a malformed frame closes the connection
    and returns without an unhandled exception."""
    samples, model, _ = fitted_pieces
    shard = model.prepare(samples)
    ragged = struct.pack("<BIQ", KIND_ESTEP_REQ, 0, 0) + bytes(5)
    cases = {
        "3-byte body": struct.pack("<I", 3) + bytes(3),
        "5-byte payload": struct.pack("<I", len(ragged)) + ragged,
    }
    unhandled = []  # (case, exception type) of each worker that raised
    monkeypatch.setattr(threading, "excepthook",
                        lambda args: unhandled.append((case, args.exc_type)))
    for case, sent in cases.items():
        with raw_worker(model, shard) as client:
            client.sendall(sent)
            assert client.recv(1) == b"", case  # closed by the worker
    assert unhandled == []


def test_pool_close_releases_dead_connections(fitted_pieces, monkeypatch):
    """close() closes every connection, also those whose worker is gone:
    it writes nothing to them."""
    samples, model, theta0 = fitted_pieces

    def dead_worker(self, conn, k, shard):
        conn.close()

    monkeypatch.setattr(SocketPool, "_serve", dead_worker)
    pool = SocketPool(model, partition(samples, 2, seed=0))
    with pytest.raises(ProtocolError, match="worker 0: connection lost"):
        pool.esteps([(0, theta0, 0)])
    pool.close()
    assert [conn.fileno() for conn in pool._conns] == [-1, -1]


def test_socket_worker_unpacks_each_theta_once(fitted_pieces):
    """In a gamma = 1 exact-loglik socket run each worker is sent each
    parameter once, theta_0 .. theta_{T-1} for its E steps and theta_T for
    the closing loglik, and unpacks it once.  The trace is that of the
    in-process run."""
    samples, _, theta0 = fitted_pieces
    unpacked = []

    class CountingModel(LmmModel):
        def unpack_theta(self, arr):
            unpacked.append((threading.get_ident(), arr.tobytes()))
            return super().unpack_theta(arr)

    K = 3
    subsets = partition(samples, K, seed=0)
    cfg = dict(K=K, exact_loglik_check=True)
    _, tr = run_dem(RunConfig(**cfg, transport="socket"), CountingModel(3, 3),
                    subsets, theta0)
    _, ref = run_dem(RunConfig(**cfg), LmmModel(3, 3), subsets, theta0)
    assert traces_equal(tr, ref) and tr.messages_sent == ref.messages_sent
    assert tr.final_loglik == ref.final_loglik
    assert len(set(unpacked)) == len(unpacked) == K * len(tr.thetas)


def test_incremental_pattern_single_fresh_worker(fitted_pieces):
    samples, model, theta0 = fitted_pieces
    K = 5
    subsets = partition(samples, K, seed=0)
    cfg = RunConfig(K=K, gamma=1.0 / K, seed=1)
    assert cfg.accept_threshold == 1
    _, tr = run_dem(cfg, model, subsets, theta0)
    assert tr.converged
    assert all(len(u) == 1 for u in tr.accept_sets)


def test_staleness_bookkeeping(fitted_pieces):
    samples, model, theta0 = fitted_pieces
    subsets = partition(samples, 5, seed=0)
    _, tr = run_dem(RunConfig(K=5, gamma=0.4, seed=4), model, subsets, theta0)
    assert tr.converged
    assert tr.staleness[0] == [0] * 5
    for t, stale in enumerate(tr.staleness):
        assert all(0 <= s <= t for s in stale)
    assert tr.max_staleness >= 1  # some worker must have been stale at some point


def test_fractional_run_monotone_F(fitted_pieces):
    samples, model, theta0 = fitted_pieces
    subsets = partition(samples, 5, seed=0)
    for gamma in (0.4, 0.8):
        _, tr = run_dem(RunConfig(K=5, gamma=gamma, seed=9), model, subsets, theta0)
        assert tr.converged
        assert check_monotone_F(tr, model, subsets) == []


def test_finish_completion_policy_smoke(fitted_pieces):
    samples, model, theta0 = fitted_pieces
    subsets = partition(samples, 5, seed=0)
    theta, tr = run_dem(
        RunConfig(K=5, gamma=0.4, seed=9, completion="finish"),
        model, subsets, theta0,
    )
    assert tr.converged
    # stale deliveries: some anchors lag by more than one iteration
    assert tr.max_staleness >= 2


def test_exact_loglik_mode(fitted_pieces):
    samples, model, theta0 = fitted_pieces
    subsets = partition(samples, 4, seed=0)
    theta, tr = run_dem(
        RunConfig(K=4, gamma=0.5, seed=3, exact_loglik_check=True),
        model, subsets, theta0,
    )
    assert tr.converged and tr.loglik_exact
    # exact mode records L(theta_t); the recomputed value must match
    t = len(tr.thetas) // 2
    recomputed = sum(model.local_loglik(tr.thetas[t], s) for s in subsets)
    assert tr.logliks[t] == pytest.approx(recomputed, rel=1e-12)


def test_ecme0_final_loglik_exact(fitted_pieces):
    samples, model, theta0 = fitted_pieces
    theta, tr = run_ecme0(RunConfig(K=1), model, samples, theta0)
    assert tr.final_loglik == pytest.approx(
        model.local_loglik(theta, samples), rel=1e-12
    )
    # header sequence is the lag-one exact loglik sequence: non-decreasing
    assert all(b >= a - 1e-9 for a, b in zip(tr.logliks, tr.logliks[1:]))


def test_schemes_agree_with_gamma_one(fitted_pieces):
    samples, model, theta0 = fitted_pieces
    subsets = partition(samples, 4, seed=0)
    cfg = RunConfig(K=4, gamma=0.5, seed=0)  # gamma overridden by the scheme
    th_sync, tr_sync = run_scheme("synchronous", cfg, model, subsets, theta0)
    th_naive, tr_naive = run_scheme("naive_allpairs", cfg, model, subsets, theta0)
    assert tr_sync.converged and tr_naive.converged
    assert thetas_equal(th_sync, th_naive)
    # all-pairs exchanges K*(K-1) payloads per E-step round (the seeding
    # round doubles as iteration 1's) vs 2K for manager/worker
    assert tr_naive.messages_sent == 4 * 3 * tr_naive.n_iterations
    assert tr_sync.messages_sent < tr_naive.messages_sent
    # run_scheme is the manager loop at gamma = 1, and only the message
    # count and the recorded scheme tell the schemes apart
    _, tr_dem = run_dem(RunConfig(K=4), model, subsets, theta0)
    for tr in (tr_sync, tr_naive):
        assert traces_equal(tr_dem, tr)
        assert tr_dem.accept_sets == tr.accept_sets
        assert tr_dem.anchor_tags == tr.anchor_tags
        assert tr.config == tr_dem.config | {"scheme": tr.config["scheme"]}
    assert tr_dem.messages_sent == tr_sync.messages_sent
    assert "scheme" not in tr_dem.config
    assert tr_sync.config["scheme"] == "synchronous"
    assert tr_naive.config["scheme"] == "naive_allpairs"


def test_ecme0_asserts_ascent(fitted_pieces):
    samples, _, theta0 = fitted_pieces

    class DroppingModel(LmmModel):
        """The E-step loglik header (and payload total) drops at iteration 2."""

        def local_esteps(self, theta, shards, subset_ids, anchor_tag):
            out = super().local_esteps(theta, shards, subset_ids, anchor_tag)
            if anchor_tag != 1:
                return out
            (stats,) = out  # ecme0 has one worker
            packed = self.pack_stats(stats)
            # layout: m, n, then the hi and lo words; the last hi word is the loglik
            packed[1 + (packed.size - 2) // 2] -= 1e3
            return [self.unpack_stats(packed, stats.subset_id, anchor_tag)]

    with pytest.raises(AssertionError, match="log likelihood decreased at iteration 2"):
        run_ecme0(RunConfig(K=1), DroppingModel(3, 3), samples, theta0)
