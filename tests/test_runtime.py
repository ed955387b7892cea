import socket
import struct
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from demfit import (
    LmmModel,
    ProtocolError,
    RunConfig,
    Theta,
    check_monotone_F,
    deterministic_schedule,
    partition,
    run_dem,
    run_ecme0,
    run_scheme,
)
from demfit.lmm import LmmShard
from demfit.transport import (
    KIND_ESTEP_REP,
    KIND_ESTEP_REQ,
    KIND_LOGLIK_REP,
    KIND_LOGLIK_REQ,
    SocketPool,
    read_frame,
    write_frame,
)


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
    _, tr_sock = run_dem(RunConfig(**cfg, transport="socket"), model, subsets, theta0)
    assert traces_equal(tr_mem, tr_sock)
    assert tr_mem.accept_sets == tr_sock.accept_sets
    assert tr_mem.anchor_tags == tr_sock.anchor_tags
    assert tr_mem.staleness == tr_sock.staleness
    assert tr_mem.messages_sent == tr_sock.messages_sent


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

        def local_estep(self, theta, subset, subset_id=0, anchor_tag=0):
            self.received.append(type(subset))
            return super().local_estep(theta, subset, subset_id, anchor_tag)

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
            pool.estep(0, theta0, anchor_tag=3)
        with pytest.raises(ProtocolError):
            pool.loglik(0, theta0)
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
            pool.estep(0, theta0, anchor_tag=3)
        assert pool.messages_sent == 0


def test_socket_worker_error_reaches_manager(fitted_pieces):
    """A worker's exception comes back as a ProtocolError that names the
    worker and carries the exception's text; the worker keeps serving."""
    samples, _, theta0 = fitted_pieces

    class FailingModel(LmmModel):
        def local_estep(self, theta, subset, subset_id=0, anchor_tag=0):
            if anchor_tag >= 2:
                raise RuntimeError(f"boom at {anchor_tag}")
            return super().local_estep(theta, subset, subset_id, anchor_tag)

    model = FailingModel(3, 3)
    subsets = partition(samples, 2, seed=0)
    pool = SocketPool(model, subsets)
    try:
        with pytest.raises(ProtocolError, match="worker 1 failed: RuntimeError: boom at 2"):
            pool.estep(1, theta0, anchor_tag=2)
        assert pool.loglik(1, theta0) == model.local_loglik(theta0, subsets[1])
        assert pool.estep(1, theta0, anchor_tag=1).anchor_tag == 1
    finally:
        pool.close()
    with pytest.raises(ProtocolError, match="RuntimeError: boom at 2"):
        run_dem(RunConfig(K=2, transport="socket"), model, subsets, theta0)


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
                pool.estep(0, theta0, anchor_tag=1)
            assert time.perf_counter() - t0 < 5
            assert isinstance(info.value.__cause__, TimeoutError)
            # the connection is closed, so no later request can read the
            # late reply as its own
            with pytest.raises(ProtocolError, match="worker 0: connection lost"):
                pool.loglik(0, theta0)
            assert pool.messages_sent == 0
        finally:
            release.set()


def test_closed_worker_connection_is_protocol_error(fitted_pieces):
    """A worker whose connection drops is a ProtocolError naming it,
    chained from the connection error, on every later request too."""
    samples, model, theta0 = fitted_pieces
    pool = SocketPool(model, partition(samples, 2, seed=0))
    with socketpair_worker(pool, lambda sock: sock.close()):
        for call in (lambda: pool.estep(0, theta0, anchor_tag=1),
                     lambda: pool.loglik(0, theta0)):
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
        def local_estep(self, theta, subset, subset_id=0, anchor_tag=0):
            time.sleep(0.5)
            return super().local_estep(theta, subset, subset_id, anchor_tag)

    pool = SocketPool(SlowModel(3, 3), partition(samples, 2, seed=0))
    try:
        with pytest.raises(ProtocolError, match=r"worker 0: no reply within 0\.2 s"):
            pool.estep(0, theta0, anchor_tag=1)
    finally:
        pool.close()
    assert not any(t.is_alive() for t in pool._threads)
    assert unhandled == []


def test_worker_closes_connection_with_bad_magic(fitted_pieces, monkeypatch):
    """A worker whose connection opens without the DEMX1 magic closes it
    and returns without an unhandled exception."""
    samples, model, _ = fitted_pieces
    unhandled = []
    monkeypatch.setattr(threading, "excepthook", unhandled.append)
    pool = SocketPool(model, partition(samples, 1, seed=0))
    server = socket.create_server(("127.0.0.1", 0))
    worker = threading.Thread(target=pool._serve, args=(server, 0, model.prepare(samples)),
                              daemon=True)
    worker.start()
    try:
        with socket.create_connection(server.getsockname(), timeout=5) as client:
            client.sendall(b"DEMX0")
            assert client.recv(1) == b""  # closed by the worker
        worker.join(timeout=5)
    finally:
        pool.close()
    assert not worker.is_alive()
    assert unhandled == []


def test_pool_close_releases_dead_connections(fitted_pieces, monkeypatch):
    """close() closes every connection, also those whose worker is gone
    and whose shutdown frame cannot be sent."""
    samples, model, theta0 = fitted_pieces

    def dead_worker(self, server, k, shard):
        conn, _ = server.accept()
        server.close()
        conn.close()

    monkeypatch.setattr(SocketPool, "_serve", dead_worker)
    pool = SocketPool(model, partition(samples, 2, seed=0))
    with pytest.raises(ProtocolError, match="worker 0: connection lost"):
        pool.estep(0, theta0, anchor_tag=0)
    pool.close()
    assert [conn.fileno() for conn in pool._conns] == [-1, -1]


def test_socket_worker_unpacks_each_theta_once(fitted_pieces):
    """In an exact-loglik socket run each worker unpacks each parameter it
    is sent once: the E step at theta_t reuses the Theta of the loglik at
    theta_t, and the final loglik round that of the last one.  The trace
    is that of the in-process run."""
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

        def local_estep(self, theta, subset, subset_id=0, anchor_tag=0):
            stats = super().local_estep(theta, subset, subset_id, anchor_tag)
            if anchor_tag != 1:
                return stats
            packed = self.pack_stats(stats)
            # layout: m, n, then the hi and lo words; the last hi word is the loglik
            packed[1 + (packed.size - 2) // 2] -= 1e3
            return self.unpack_stats(packed, subset_id, anchor_tag)

    with pytest.raises(AssertionError, match="log likelihood decreased at iteration 2"):
        run_ecme0(RunConfig(K=1), DroppingModel(3, 3), samples, theta0)
