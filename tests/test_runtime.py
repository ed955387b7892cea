import math
import socket
from collections import Counter, defaultdict
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
import demfit.transport as transport_mod
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


def pin_endpoints(monkeypatch, n: int):
    """Serve every later socket pool from min(K, n) endpoints."""
    monkeypatch.setattr(transport_mod, "ENDPOINTS", n)


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


@pytest.mark.parametrize("transport", ["in_process", "socket"])
@pytest.mark.parametrize("completion", ["restart", "finish"])
@pytest.mark.parametrize("exact", [False, True])
def test_no_schedule_is_drawn_when_every_worker_is_accepted(fitted_pieces, monkeypatch,
                                                            transport, completion, exact):
    """At ceil(gamma K) == K every worker is accepted whatever the order,
    so neither run_dem nor run_ecme0 draws a permutation, and the run is
    still the ecme0 run, bit for bit."""
    samples, model, theta0 = fitted_pieces

    def no_draw(*args, **kwargs):
        raise AssertionError("deterministic_schedule called at N == K")

    monkeypatch.setattr("demfit.runtime.deterministic_schedule", no_draw)
    _, base = run_ecme0(RunConfig(K=1), model, samples, theta0)
    K = 4
    subsets = partition(samples, K, seed=0)
    _, tr = run_dem(RunConfig(K=K, seed=2, transport=transport, completion=completion,
                              exact_loglik_check=exact), model, subsets, theta0)
    assert tr.converged
    if exact:
        assert len(tr.thetas) == len(base.thetas)
        assert all(thetas_equal(a, b) for a, b in zip(tr.thetas, base.thetas))
    else:
        assert traces_equal(tr, base)
    assert tr.accept_sets == [list(range(K))] * tr.n_iterations
    assert tr.messages_sent == 2 * K * len(tr.thetas)


@pytest.mark.parametrize("completion", ["restart", "finish"])
def test_schedule_is_drawn_once_per_iteration_below_gamma_one(fitted_pieces, monkeypatch,
                                                             completion):
    samples, model, theta0 = fitted_pieces
    subsets = partition(samples, 4, seed=0)
    cfg = RunConfig(K=4, gamma=0.5, seed=2, completion=completion)
    _, ref = run_dem(cfg, model, subsets, theta0)
    drawn = []

    def recording_schedule(seed, t, K, forced_split=False):
        drawn.append(t)
        return deterministic_schedule(seed, t, K, forced_split)

    monkeypatch.setattr("demfit.runtime.deterministic_schedule", recording_schedule)
    _, tr = run_dem(cfg, model, subsets, theta0)
    assert traces_equal(tr, ref) and tr.accept_sets == ref.accept_sets
    assert drawn == list(range(1, len(tr.thetas)))


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
    """Swap the connection of endpoint 0, which serves subset 0, for a
    socketpair, with the same reply timeout, whose peer runs serve(sock) on
    a thread; restore it, close the pool and join the thread afterwards."""
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

        # LmmModel answers a lone E step or loglik through these as well
        def local_logliks(self, theta, shards):
            self.received.extend(map(type, shards))
            return super().local_logliks(theta, shards)

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
    """An endpoint thread that cannot start fails the pool, and the
    endpoints started before it are ended, not left blocked on their
    connections."""
    samples, model, theta0 = fitted_pieces
    pin_endpoints(monkeypatch, 4)
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
        # answers an E-step share with a loglik reply and vice versa
        swapped = {KIND_ESTEP_REQ: KIND_LOGLIK_REP, KIND_LOGLIK_REQ: KIND_ESTEP_REP}
        for _ in range(2):
            kind, n, _, _ = read_frame(sock)
            write_share_reply(sock, swapped[kind], [np.zeros(1)] * n)

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
def test_socket_batch_reads_every_reply_past_a_failure(fitted_pieces, failure, monkeypatch):
    """Worker 0 fails in a batch that worker 1, on the other endpoint,
    answers: the ProtocolError names worker 0, only worker 1's answer is
    counted, and worker 1's next request gets its own reply, not the one
    left over from the batch."""
    samples, _, theta0 = fitted_pieces
    pin_endpoints(monkeypatch, 2)

    class FailingModel(LmmModel):
        # fails whenever subset 0 is among the shards, alone or grouped
        def local_esteps(self, theta, shards, subset_ids, anchor_tag):
            if 0 in subset_ids:
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


def test_in_process_batch_retries_a_failing_group_per_request(fitted_pieces):
    """In process, as on a socket endpoint, a grouped call that raises is
    retried one request at a time: the failure raised is subset 0's, and
    the other subsets of its group are answered and counted."""
    samples, _, theta0 = fitted_pieces
    calls = []

    class FailingModel(LmmModel):
        def local_esteps(self, theta, shards, subset_ids, anchor_tag):
            calls.append(list(subset_ids))
            if 0 in subset_ids:
                raise RuntimeError("boom in 0")
            return super().local_esteps(theta, shards, subset_ids, anchor_tag)

    pool = InProcessPool(FailingModel(3, 3), partition(samples, 3, seed=0))
    with pytest.raises(RuntimeError, match="^boom in 0$"):
        pool.esteps([(2, theta0, 1), (0, theta0, 1), (1, theta0, 1)])
    assert calls == [[2, 0, 1], [2], [0], [1]]
    assert pool.messages_sent == 2 * 2


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
def raw_worker(model, shards):
    """Run `SocketPool._serve` as an endpoint holding shards ({k: shard})
    over one end of a socket pair and yield the other end; join the
    endpoint once that end closes."""
    client, worker_end = socket.socketpair()
    worker = threading.Thread(target=SocketPool(model, [])._serve,
                              args=(worker_end, shards), daemon=True)
    worker.start()
    with client:
        client.settimeout(5)
        yield client
    worker.join(timeout=5)
    assert not worker.is_alive()


def int_words(values) -> np.ndarray:
    return np.array(values, dtype="<i8").view("<f8").ravel()


def write_share(sock, kind, rows, thetas):
    """One request frame: the (subset, anchor tag, parameter index) rows,
    then the packed parameters."""
    write_frame(sock, kind, len(rows), len(thetas),
                np.concatenate([int_words(rows), *thetas]))


def write_share_reply(sock, kind, results):
    """One reply frame whose results (f64 arrays, or error texts) follow a
    table of their sizes, an error's as minus its byte length."""
    sizes, parts = [], []
    for result in results:
        if isinstance(result, str):
            raw = result.encode("utf-8")
            sizes.append(-len(raw))
            parts.append(np.frombuffer(raw + bytes(-len(raw) % 8), dtype="<f8"))
        else:
            sizes.append(len(result))
            parts.append(np.asarray(result, dtype=float))
    write_frame(sock, kind, len(results), 0, np.concatenate([int_words(sizes), *parts]))


def read_share_reply(sock):
    """(kind, results) of one reply frame: each result an f64 array, or a
    failed request's error text."""
    kind, n, extra, payload = read_frame(sock)
    assert extra == 0
    results, start = [], n
    for size in payload[:n].view("<i8").tolist():
        words = size if size >= 0 else math.ceil(-size / 8)
        chunk = payload[start : start + words]
        results.append(chunk if size >= 0 else chunk.tobytes()[:-size].decode("utf-8"))
        start += words
    assert start == len(payload)
    return kind, results


def test_socket_reply_of_the_wrong_length_is_an_error(fitted_pieces):
    """A worker whose statistics payload is longer than the layout is a
    ProtocolError naming the subset, not a reply with its tail dropped."""
    samples, _, theta0 = fitted_pieces

    class LongReplyModel(LmmModel):
        # an E-step batch's block goes out whole: each row two values long
        def local_esteps(self, theta, shards, subset_ids, anchor_tag):
            batch = super().local_esteps(theta, shards, subset_ids, anchor_tag)
            batch.rows = np.concatenate([batch.rows, np.zeros((len(batch), 2))], axis=1)
            return batch

    with pytest.raises(ProtocolError, match="subset 0: statistics payload of 34 values, "
                                            "expected 32"):
        run_dem(RunConfig(K=2, transport="socket"), LongReplyModel(3, 3),
                partition(samples, 2, seed=0), theta0)


def test_socket_reply_the_model_cannot_unpack_is_not_counted(fitted_pieces):
    """A reply that unpack_stats rejects is not an answered request: the
    batch raises the error of its earliest request and counts none, as
    the in-process pool counts a request that failed."""
    samples, _, theta0 = fitted_pieces

    class LongReplyModel(LmmModel):
        # an E-step batch's block goes out whole: each row two values long
        def local_esteps(self, theta, shards, subset_ids, anchor_tag):
            batch = super().local_esteps(theta, shards, subset_ids, anchor_tag)
            batch.rows = np.concatenate([batch.rows, np.zeros((len(batch), 2))], axis=1)
            return batch

    pool = SocketPool(LongReplyModel(3, 3), partition(samples, 2, seed=0))
    try:
        with pytest.raises(ProtocolError, match="subset 0: statistics payload"):
            pool.esteps([(0, theta0, 0), (1, theta0, 0)])
        assert pool.messages_sent == 0
    finally:
        pool.close()


def test_worker_reads_a_request_share_first(fitted_pieces):
    """A worker's first bytes are a request frame, with no preamble: a share
    of E steps at two parameters and two tags, and then of logliks, is
    answered in one reply frame each, every result bitwise the in-process
    one, in request order."""
    samples, model, theta0 = fitted_pieces
    theta1 = Theta(np.ones(3), 2.0 * np.eye(3), 3.0)
    subsets = partition(samples, 3, seed=0)
    shards = {k: model.prepare(s) for k, s in enumerate(subsets)}
    thetas = [model.pack_theta(theta0), model.pack_theta(theta1)]
    with raw_worker(model, shards) as client:
        write_share(client, KIND_ESTEP_REQ, [(2, 3, 1), (0, 1, 0), (1, 3, 1)], thetas)
        kind, got = read_share_reply(client)
        assert kind == KIND_ESTEP_REP
        write_share(client, KIND_LOGLIK_REQ, [(1, 0, 0), (2, 0, 0)], thetas[1:])
        kind, lls = read_share_reply(client)
        assert kind == KIND_LOGLIK_REP
    want = InProcessPool(model, subsets).esteps([(2, theta1, 3), (0, theta0, 1), (1, theta1, 3)])
    assert [g.tobytes() for g in got] == [model.pack_stats(w).tobytes() for w in want]
    assert [ll.tolist() for ll in lls] == [[model.local_loglik(theta1, subsets[k])]
                                           for k in (1, 2)]


def test_worker_answers_unknown_kind_and_keeps_serving(fitted_pieces):
    """A share of an unknown kind is answered per request, and the worker
    then serves the next share."""
    samples, model, theta0 = fitted_pieces
    packed = model.pack_theta(theta0)
    shard = model.prepare(samples)
    with raw_worker(model, {0: shard}) as client:
        write_share(client, 9, [(0, 1, 0), (0, 2, 0)], [packed])
        assert read_share_reply(client) == (
            KIND_ERROR, ["ProtocolError: unknown request kind 9"] * 2)
        write_share(client, KIND_ESTEP_REQ, [(0, 2, 0), (5, 2, 0)], [packed])
        kind, (stats, missing) = read_share_reply(client)
    assert kind == KIND_ESTEP_REP
    assert stats.tobytes() == model.pack_stats(model.local_estep(theta0, shard, 0, 2)).tobytes()
    assert missing == "ProtocolError: subset 5 is not served by this endpoint"


def test_worker_closes_connection_on_malformed_frame(fitted_pieces, monkeypatch):
    """A worker whose peer sends a malformed frame or request share closes
    the connection and returns without an unhandled exception."""
    samples, model, theta0 = fitted_pieces
    shard = model.prepare(samples)
    packed = model.pack_theta(theta0)

    def frame(kind, n, T, payload):
        body = struct.pack("<BIQ", kind, n, T) + np.asarray(payload, "<f8").tobytes()
        return struct.pack("<I", len(body)) + body

    ragged = struct.pack("<BIQ", KIND_ESTEP_REQ, 1, 1) + bytes(5)
    cases = {
        "3-byte body": struct.pack("<I", 3) + bytes(3),
        "5-byte payload": struct.pack("<I", len(ragged)) + ragged,
        "table longer than the payload": frame(KIND_ESTEP_REQ, 5, 1, int_words([(0, 1, 0)] * 4)),
        "uneven parameter section": frame(KIND_ESTEP_REQ, 1, 2, np.concatenate(
            [int_words([(0, 1, 0)]), packed, packed[:-1]])),
        "parameter index past the section": frame(KIND_LOGLIK_REQ, 2, 1, np.concatenate(
            [int_words([(0, 0, 0), (0, 0, 1)]), packed])),
        "rows without parameters": frame(KIND_ESTEP_REQ, 1, 0, int_words([(0, 1, 0)])),
    }
    unhandled = []  # (case, exception type) of each worker that raised
    monkeypatch.setattr(threading, "excepthook",
                        lambda args: unhandled.append((case, args.exc_type)))
    for case, sent in cases.items():
        with raw_worker(model, {0: shard}) as client:
            client.sendall(sent)
            assert client.recv(1) == b"", case  # closed by the worker
    assert unhandled == []


@pytest.mark.parametrize("reply, match", [
    (lambda sock, n, stats: write_share_reply(sock, KIND_ESTEP_REP, [stats] * (n - 1)),
     r"expected reply \(kind, count\) = \(2, 2\), got \(2, 1\)"),
    (lambda sock, n, stats: write_share_reply(sock, KIND_ESTEP_REP, [stats] * (n + 1)),
     r"expected reply \(kind, count\) = \(2, 2\), got \(2, 3\)"),
    # the table claims n whole results, the payload ends one value short
    (lambda sock, n, stats: write_frame(sock, KIND_ESTEP_REP, n, 0, np.concatenate(
        [int_words([len(stats)] * n), *[stats] * n])[:-1]), "reply sizes do not match"),
], ids=["short_count", "long_count", "ragged_result"])
def test_malformed_reply_share_is_protocol_error(fitted_pieces, reply, match):
    """A reply share with the wrong count, or whose table does not cover its
    payload, is a ProtocolError naming the share's first subset, and no
    request of it is counted."""
    samples, model, theta0 = fitted_pieces
    pool = SocketPool(model, partition(samples, 2, seed=0))
    stats = model.pack_stats(model.local_estep(theta0, samples))

    def malformed_worker(sock):
        _, n, _, _ = read_frame(sock)
        reply(sock, n, stats)

    with socketpair_worker(pool, malformed_worker):
        with pytest.raises(ProtocolError, match=f"^worker 1: {match}"):
            pool.esteps([(1, theta0, 3), (0, theta0, 3)])
        assert pool.messages_sent == 0


def test_loglik_reply_of_more_than_one_value_is_an_error(fitted_pieces):
    """A loglik result of two values is a ragged reply: a ProtocolError
    naming the share's first subset, with nothing of it counted."""
    samples, model, theta0 = fitted_pieces
    pool = SocketPool(model, partition(samples, 2, seed=0))

    def long_loglik_worker(sock):
        _, n, _, _ = read_frame(sock)
        write_share_reply(sock, KIND_LOGLIK_REP, [np.zeros(1), np.zeros(2)][:n])

    with socketpair_worker(pool, long_loglik_worker):
        with pytest.raises(ProtocolError, match="^worker 0: reply sizes do not match"):
            pool.logliks([0, 1], theta0)
        assert pool.messages_sent == 0


@pytest.mark.parametrize("endpoints", [1, 2, 3])
def test_batch_is_one_frame_each_way_per_endpoint(fitted_pieces, monkeypatch, endpoints):
    """A batch whose requests all succeed is one request frame and one reply
    frame per endpoint, all through `write_frame`; a lone request is one
    frame each way.  messages_sent counts 2 per answered request."""
    samples, model, theta0 = fitted_pieces
    pin_endpoints(monkeypatch, endpoints)
    frames = []
    write = transport_mod.write_frame

    def counted_write_frame(sock, kind, count, extra, payload):
        frames.append(kind)
        write(sock, kind, count, extra, payload)

    monkeypatch.setattr(transport_mod, "write_frame", counted_write_frame)
    theta1 = Theta(np.ones(3), 2.0 * np.eye(3), 3.0)
    pool = SocketPool(model, partition(samples, 5, seed=0))
    try:
        pool.esteps([(k, theta0 if k % 2 else theta1, 1 + k % 2) for k in range(5)])
        assert Counter(frames) == {KIND_ESTEP_REQ: endpoints, KIND_ESTEP_REP: endpoints}
        frames.clear()
        pool.logliks([4, 0, 2], theta0)
        shares = len({k % endpoints for k in (4, 0, 2)})
        assert Counter(frames) == {KIND_LOGLIK_REQ: shares, KIND_LOGLIK_REP: shares}
        frames.clear()
        pool.estep(3, theta0, 2)
        pool.loglik(1, theta1)
        assert frames == [KIND_ESTEP_REQ, KIND_ESTEP_REP, KIND_LOGLIK_REQ, KIND_LOGLIK_REP]
        assert pool.messages_sent == 2 * (5 + 3 + 2)
    finally:
        pool.close()


@pytest.mark.parametrize("endpoints", [1, 2])
def test_each_theta_is_packed_once_per_batch(fitted_pieces, monkeypatch, endpoints):
    """The manager packs each distinct parameter of a batch once, however
    many requests and endpoints share it: a batch of 20 requests at one
    theta, a "finish" batch mixing two thetas and two tags, and a loglik
    round."""
    samples, _, theta0 = fitted_pieces
    pin_endpoints(monkeypatch, endpoints)
    packed = []

    class CountingModel(LmmModel):
        def pack_theta(self, theta):
            packed.append(theta)
            return super().pack_theta(theta)

    theta1 = Theta(np.ones(3), 2.0 * np.eye(3), 3.0)
    subsets = partition(samples, 20, seed=0)
    pool = SocketPool(CountingModel(3, 3), subsets)
    try:
        pool.esteps([(k, theta0, 1) for k in range(20)])
        assert packed == [theta0]
        packed.clear()
        pool.esteps([(0, theta0, 1), (3, theta1, 2), (1, theta0, 1), (2, theta1, 2)])
        assert sorted(map(id, packed)) == sorted(map(id, [theta0, theta1]))
        packed.clear()
        pool.logliks(range(20), theta1)
        assert packed == [theta1]
    finally:
        pool.close()


def test_pool_close_releases_dead_connections(fitted_pieces, monkeypatch):
    """close() closes every connection, also those whose worker is gone:
    it writes nothing to them."""
    samples, model, theta0 = fitted_pieces
    pin_endpoints(monkeypatch, 2)

    def dead_worker(self, conn, shards):
        conn.close()

    monkeypatch.setattr(SocketPool, "_serve", dead_worker)
    pool = SocketPool(model, partition(samples, 2, seed=0))
    with pytest.raises(ProtocolError, match="worker 0: connection lost"):
        pool.esteps([(0, theta0, 0)])
    pool.close()
    assert [conn.fileno() for conn in pool._conns] == [-1, -1]


def test_socket_worker_unpacks_each_theta_once(fitted_pieces, monkeypatch):
    """In a gamma = 1 exact-loglik socket run each endpoint is sent each
    parameter once per batch, theta_0 .. theta_{T-1} for its E steps and
    theta_T for the closing loglik, and unpacks it once, however many
    subsets it serves: with 1, 2 or K = 3 endpoints.  The trace is that of
    the in-process run."""
    samples, _, theta0 = fitted_pieces
    unpacked = []

    class CountingModel(LmmModel):
        def unpack_theta(self, arr):
            unpacked.append((threading.get_ident(), arr.tobytes()))
            return super().unpack_theta(arr)

    K = 3
    subsets = partition(samples, K, seed=0)
    cfg = dict(K=K, exact_loglik_check=True)
    _, ref = run_dem(RunConfig(**cfg), LmmModel(3, 3), subsets, theta0)
    for endpoints in (1, 2, K):
        pin_endpoints(monkeypatch, endpoints)
        unpacked.clear()
        _, tr = run_dem(RunConfig(**cfg, transport="socket"), CountingModel(3, 3),
                        subsets, theta0)
        assert traces_equal(tr, ref) and tr.messages_sent == ref.messages_sent
        assert tr.final_loglik == ref.final_loglik
        assert len(set(unpacked)) == len(unpacked) == endpoints * len(tr.thetas)


@pytest.mark.parametrize("endpoints", [1, 2, 100])
def test_pool_serves_subsets_from_endpoints(fitted_pieces, monkeypatch, endpoints):
    """A socket pool starts min(K, endpoints) endpoint threads, and subset k
    is served by endpoint k mod E."""
    samples, model, _ = fitted_pieces
    pin_endpoints(monkeypatch, endpoints)
    served = []
    serve = SocketPool._serve

    def recording_serve(self, conn, shards):
        served.append(sorted(shards))
        serve(self, conn, shards)

    monkeypatch.setattr(SocketPool, "_serve", recording_serve)
    pool = SocketPool(model, partition(samples, 5, seed=0))
    pool.close()
    E = min(5, endpoints)
    assert len(pool._threads) == len(pool._conns) == E
    assert sorted(served) == [list(range(e, 5, E)) for e in range(E)]


@pytest.mark.parametrize("endpoints", [1, 2, "K"])
@pytest.mark.parametrize("gamma", [1.0, 0.5])
@pytest.mark.parametrize("completion", ["restart", "finish"])
@pytest.mark.parametrize("exact", [False, True])
def test_endpoint_layouts_give_the_in_process_trace(fitted_pieces, monkeypatch, endpoints,
                                                    gamma, completion, exact):
    """Whether one endpoint serves every subset, two share them unevenly or
    each subset has its own, a socket run's trace and messages_sent are
    bitwise those of the in-process run."""
    samples, model, theta0 = fitted_pieces
    K = 5
    subsets = partition(samples, K, seed=0)
    cfg = dict(K=K, gamma=gamma, seed=3, completion=completion, exact_loglik_check=exact)
    _, ref = run_dem(RunConfig(**cfg), model, subsets, theta0)
    pin_endpoints(monkeypatch, K if endpoints == "K" else endpoints)
    threads = set(threading.enumerate())
    _, tr = run_dem(RunConfig(**cfg, transport="socket"), model, subsets, theta0)
    assert set(threading.enumerate()) == threads
    assert tr.converged and ref.converged
    assert traces_equal(tr, ref)
    assert tr.accept_sets == ref.accept_sets
    assert tr.anchor_tags == ref.anchor_tags
    assert tr.messages_sent == ref.messages_sent
    assert tr.final_loglik == ref.final_loglik


@pytest.mark.parametrize("endpoints", [1, 2])
@pytest.mark.parametrize("kind", ["estep", "loglik"])
def test_failing_subset_named_while_its_endpoint_answers_the_rest(
        fitted_pieces, monkeypatch, endpoints, kind):
    """Subset 0 fails inside a grouped call on its endpoint: the endpoint
    retries its share one request at a time, so the ProtocolError names
    subset 0, the other subsets of the endpoint (2, and 1 and 3 at E = 1)
    are answered and counted, and each later request gets its own reply."""
    samples, _, theta0 = fitted_pieces
    pin_endpoints(monkeypatch, endpoints)
    subsets = partition(samples, 4, seed=0)
    grouped = []

    class FailingModel(LmmModel):
        # fails whenever subset 0 is among the shards, alone or grouped
        def local_esteps(self, theta, shards, subset_ids, anchor_tag):
            grouped.append(len(shards))
            if 0 in subset_ids:
                raise RuntimeError("boom in 0")
            return super().local_esteps(theta, shards, subset_ids, anchor_tag)

        def local_logliks(self, theta, shards):
            grouped.append(len(shards))
            if any(s is self.zero for s in shards):
                raise RuntimeError("boom in 0")
            return super().local_logliks(theta, shards)

        def prepare(self, subset):
            shard = super().prepare(subset)
            if subset is subsets[0]:
                self.zero = shard
            return shard

    model = FailingModel(3, 3)
    theta1 = Theta(np.ones(3), 2.0 * np.eye(3), 3.0)
    pool = SocketPool(model, subsets)
    try:
        with pytest.raises(ProtocolError, match="^worker 0 failed: RuntimeError: boom in 0$"):
            if kind == "estep":
                pool.esteps([(2, theta0, 1), (0, theta0, 1), (1, theta0, 1), (3, theta0, 1)])
            else:
                pool.logliks([2, 0, 1, 3], theta0)
        assert max(grouped) == 4 // endpoints  # the share went to one grouped call first
        assert pool.messages_sent == 2 * 3
        got = pool.esteps([(3, theta1, 2), (2, theta1, 2), (1, theta1, 2)])
        lls = pool.logliks([3, 1, 2], theta1)
        assert pool.messages_sent == 2 * 9
    finally:
        pool.close()
    ref = LmmModel(3, 3)
    for k, stats in zip([3, 2, 1], got):
        want = ref.local_estep(theta1, ref.prepare(subsets[k]), k, 2)
        assert (stats.subset_id, stats.anchor_tag) == (k, 2)
        assert model.pack_stats(stats).tobytes() == model.pack_stats(want).tobytes()
    assert lls == [ref.local_loglik(theta1, subsets[k]) for k in (3, 1, 2)]


def test_dropped_endpoint_loses_every_subset_on_it(fitted_pieces, monkeypatch):
    """The endpoint serving subsets 0 and 2 is gone: every request for
    either is "worker k: connection lost", in a batch and after it, while
    subsets 1 and 3 on the other endpoint are answered and counted."""
    samples, model, theta0 = fitted_pieces
    pin_endpoints(monkeypatch, 2)
    serve = SocketPool._serve

    def serve_or_drop(self, conn, shards):
        if 0 in shards:
            conn.close()
        else:
            serve(self, conn, shards)

    monkeypatch.setattr(SocketPool, "_serve", serve_or_drop)
    pool = SocketPool(model, partition(samples, 4, seed=0))
    try:
        with pytest.raises(ProtocolError, match="^worker 2: connection lost"):
            pool.esteps([(2, theta0, 1), (1, theta0, 1), (0, theta0, 1), (3, theta0, 1)])
        assert pool.messages_sent == 4
        for k in (0, 2):
            with pytest.raises(ProtocolError, match=f"^worker {k}: connection lost"):
                pool.esteps([(k, theta0, 2)])
            with pytest.raises(ProtocolError, match=f"^worker {k}: connection lost"):
                pool.logliks([k], theta0)
        assert len(pool.logliks([3, 1], theta0)) == 2
        assert pool.messages_sent == 8
    finally:
        pool.close()


@pytest.mark.parametrize("endpoints", [1, 2])
def test_batch_larger_than_the_socket_buffers_completes(fitted_pieces, monkeypatch,
                                                        endpoints):
    """An endpoint's request frame and its reply frame each exceed what its
    socket pair buffers: the batch still completes, because an endpoint
    writes nothing before it has read its whole share.  A deadlock would
    end in the reply timeout, not hang."""
    samples, model, theta0 = fitted_pieces
    monkeypatch.setattr(transport_mod, "REPLY_TIMEOUT_S", 20.0)
    pin_endpoints(monkeypatch, endpoints)
    socketpair, buffered = socket.socketpair, []

    def small_socketpair():
        pair = socketpair()
        for sock in pair:
            for opt in (socket.SO_SNDBUF, socket.SO_RCVBUF):
                sock.setsockopt(socket.SOL_SOCKET, opt, 4096)
                buffered.append(sock.getsockopt(socket.SOL_SOCKET, opt))
        return pair

    written = defaultdict(list)  # kind -> bytes of each frame written
    write = transport_mod.write_frame

    def measured_write_frame(sock, kind, count, extra, payload):
        written[kind].append(4 + 13 + 8 * len(payload))
        write(sock, kind, count, extra, payload)

    monkeypatch.setattr(transport_mod.socket, "socketpair", small_socketpair)
    monkeypatch.setattr(transport_mod, "write_frame", measured_write_frame)
    # theta travels once per share, so a request frame is mostly its table,
    # 24 bytes per request, and a loglik reply 16 bytes per request
    K = 2400
    subsets = [[samples[k % len(samples)]] for k in range(K)]
    pool = SocketPool(model, subsets)
    try:
        requests = [(k, theta0, 1) for k in range(K)]
        got = pool.esteps(requests)
        lls = pool.logliks(range(K), theta0)
    finally:
        pool.close()
    for kind in (KIND_ESTEP_REQ, KIND_ESTEP_REP, KIND_LOGLIK_REQ, KIND_LOGLIK_REP):
        assert len(written[kind]) == endpoints
        assert min(written[kind]) > 2 * max(buffered), kind
    want = InProcessPool(model, subsets)
    assert [model.pack_stats(s).tobytes() for s in got] == [
        model.pack_stats(s).tobytes() for s in want.esteps(requests)]
    assert lls == want.logliks(range(K), theta0)
    assert pool.messages_sent == want.messages_sent == 4 * K


def test_endpoint_unpacks_each_theta_of_a_batch_once(fitted_pieces, monkeypatch):
    """A batch mixing two parameters and two anchor tags over two endpoints
    is unpacked once per endpoint and parameter, and served by one grouped
    call per endpoint, parameter and tag; the results are the in-process
    ones, bitwise."""
    samples, _, theta0 = fitted_pieces
    pin_endpoints(monkeypatch, 2)
    unpacked, calls = [], []

    class CountingModel(LmmModel):
        def unpack_theta(self, arr):
            unpacked.append((threading.get_ident(), arr.tobytes()))
            return super().unpack_theta(arr)

        def local_esteps(self, theta, shards, subset_ids, anchor_tag):
            calls.append((anchor_tag, sorted(subset_ids)))
            return super().local_esteps(theta, shards, subset_ids, anchor_tag)

    theta1 = Theta(np.ones(3), 2.0 * np.eye(3), 3.0)
    subsets = partition(samples, 8, seed=0)
    requests = [(k, theta0, 1) for k in (0, 1, 2, 3)] + [(k, theta1, 2) for k in (4, 5, 6, 7)]
    model = CountingModel(3, 3)
    pool = SocketPool(model, subsets)
    try:
        got = pool.esteps(requests)
    finally:
        pool.close()
    assert len(set(unpacked)) == len(unpacked) == 4
    assert sorted(calls) == [(1, [0, 2]), (1, [1, 3]), (2, [4, 6]), (2, [5, 7])]
    want = InProcessPool(LmmModel(3, 3), subsets).esteps(requests)
    assert [model.pack_stats(s).tobytes() for s in got] == [
        model.pack_stats(s).tobytes() for s in want]


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
            dropped = self.unpack_stats(packed, stats.subset_id, anchor_tag)
            dropped.payload.static = stats.payload.static
            return [dropped]

    with pytest.raises(AssertionError, match="log likelihood decreased at iteration 2"):
        run_ecme0(RunConfig(K=1), DroppingModel(3, 3), samples, theta0)
