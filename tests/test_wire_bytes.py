"""The bytes a socket pool puts on the wire, pinned.

Every frame either end writes goes through the module-global
`transport.write_frame`, so wrapping it sees each frame's bytes as
`sendall` gets them.  The model is an `LmmModel` whose E-step rows and
logliks are fixed numbers of a shard's size and the parameter's tau2, so
no BLAS call shapes a reply, and the parameters are fixed points: the
bytes below hold on any host.  They were recorded from the share format
of per-request tuples and must not change while the share's internals
do.  Each recorded reply also reads back, through `read_frame` and the
manager's reply parser, into the block and the errors the pool returned.
"""
import socket

import numpy as np
import pytest

import demfit.transport as transport_mod
from demfit import LmmModel, ProtocolError, SimDesign, Theta, partition, simulate
from demfit.transport import KIND_ESTEP_REQ, KIND_LOGLIK_REQ, SocketPool, read_frame

P, Q, K = 2, 3, 3
A = Theta(np.array([0.5, -1.25]),
          np.array([[1.5, 0.0, 0.0], [0.25, 2.0, 0.0], [-0.5, 0.75, 1.25]]), 3.0)
B = Theta(np.array([-2.0, 0.125]),
          np.array([[0.75, 0.0, 0.0], [-0.5, 1.25, 0.0], [0.0, 0.375, 2.5]]), 0.625)


class FixedRowsModel(LmmModel):
    """E-step rows and logliks that are exact functions of a shard's size
    and theta's tau2; every E step of the shard `failing` raises."""

    failing = None

    def local_esteps(self, theta, shards):
        if any(shard is self.failing for shard in shards):
            raise RuntimeError("boom")
        sizes = np.array([float(len(shard)) for shard in shards])
        return 1000.0 * sizes[:, None] + np.arange(self.stats_width) + theta.tau2 / 8

    def local_logliks(self, theta, shards):
        return [-(len(shard) + theta.tau2 / 4) for shard in shards]


def batch_of(pool, requests):
    batch = pool.esteps(requests)
    return batch.rows, batch.subset_ids.tolist(), batch.anchor_tags.tolist()


# name -> (call on the pool, the requests' subsets, loglik)
SCENARIOS = {
    "estep_one_theta": (lambda pool: batch_of(pool, [(0, A, 1), (1, A, 1), (2, A, 1)]),
                        [0, 1, 2], False),
    # a completion="finish" batch: a stale delivery at the older theta,
    # then the fresh requests at the newer one
    "estep_two_thetas": (lambda pool: batch_of(pool, [(1, A, 1), (0, B, 2), (2, B, 2)]),
                         [1, 0, 2], False),
    "loglik": (lambda pool: pool.logliks([2, 0, 1], B), [2, 0, 1], True),
    "lone_estep": (lambda pool: batch_of(pool, [(1, A, 5)]), [1], False),
    "lone_loglik": (lambda pool: pool.logliks([0], A), [0], True),
    "failed_request": (lambda pool: batch_of(pool, [(0, B, 3), (1, B, 3), (2, B, 3)]),
                       [0, 1, 2], False),
    # two endpoints: subsets 0 and 2 on one, whose share names B before A,
    # and subset 1 on the other
    "two_endpoints": (lambda pool: batch_of(pool, [(1, A, 1), (0, B, 2), (2, A, 1)]),
                      [1, 0, 2], False),
}

# the frames each scenario wrote, in order, as hex
FRAMES = {
    "estep_one_theta": [
        "9d000000010300000001000000000000000000000000000000010000000000000000"
        "00000000000000010000000000000001000000000000000000000000000000020000"
        "000000000001000000000000000000000000000000000000000000e03f0000000000"
        "00f4bf000000000000f83f000000000000d03f0000000000000040000000000000e0"
        "bf000000000000e83f000000000000f43f0000000000000840",
        "f5020000020300000000000000000000001e000000000000001e000000000000001e"
        "00000000000000000000006070b740000000006071b740000000006072b740000000"
        "006073b740000000006074b740000000006075b740000000006076b7400000000060"
        "77b740000000006078b740000000006079b74000000000607ab74000000000607bb7"
        "4000000000607cb74000000000607db74000000000607eb74000000000607fb74000"
        "0000006080b740000000006081b740000000006082b740000000006083b740000000"
        "006084b740000000006085b740000000006086b740000000006087b7400000000060"
        "88b740000000006089b74000000000608ab74000000000608bb74000000000608cb7"
        "4000000000608db74000000000c070a74000000000c072a74000000000c074a74000"
        "000000c076a74000000000c078a74000000000c07aa74000000000c07ca740000000"
        "00c07ea74000000000c080a74000000000c082a74000000000c084a74000000000c0"
        "86a74000000000c088a74000000000c08aa74000000000c08ca74000000000c08ea7"
        "4000000000c090a74000000000c092a74000000000c094a74000000000c096a74000"
        "000000c098a74000000000c09aa74000000000c09ca74000000000c09ea740000000"
        "00c0a0a74000000000c0a2a74000000000c0a4a74000000000c0a6a74000000000c0"
        "a8a74000000000c0aaa74000000000c070a74000000000c072a74000000000c074a7"
        "4000000000c076a74000000000c078a74000000000c07aa74000000000c07ca74000"
        "000000c07ea74000000000c080a74000000000c082a74000000000c084a740000000"
        "00c086a74000000000c088a74000000000c08aa74000000000c08ca74000000000c0"
        "8ea74000000000c090a74000000000c092a74000000000c094a74000000000c096a7"
        "4000000000c098a74000000000c09aa74000000000c09ca74000000000c09ea74000"
        "000000c0a0a74000000000c0a2a74000000000c0a4a74000000000c0a6a740000000"
        "00c0a8a74000000000c0aaa740",
    ],
    "estep_two_thetas": [
        "e5000000010300000002000000000000000100000000000000010000000000000000"
        "00000000000000000000000000000002000000000000000100000000000000020000"
        "000000000002000000000000000100000000000000000000000000e03f0000000000"
        "00f4bf000000000000f83f000000000000d03f0000000000000040000000000000e0"
        "bf000000000000e83f000000000000f43f000000000000084000000000000000c000"
        "0000000000c03f000000000000e83f000000000000e0bf000000000000f43f000000"
        "0000000000000000000000d83f0000000000000440000000000000e43f",
        "f5020000020300000000000000000000001e000000000000001e000000000000001e"
        "0000000000000000000000c070a74000000000c072a74000000000c074a740000000"
        "00c076a74000000000c078a74000000000c07aa74000000000c07ca74000000000c0"
        "7ea74000000000c080a74000000000c082a74000000000c084a74000000000c086a7"
        "4000000000c088a74000000000c08aa74000000000c08ca74000000000c08ea74000"
        "000000c090a74000000000c092a74000000000c094a74000000000c096a740000000"
        "00c098a74000000000c09aa74000000000c09ca74000000000c09ea74000000000c0"
        "a0a74000000000c0a2a74000000000c0a4a74000000000c0a6a74000000000c0a8a7"
        "4000000000c0aaa740000000001470b740000000001471b740000000001472b74000"
        "0000001473b740000000001474b740000000001475b740000000001476b740000000"
        "001477b740000000001478b740000000001479b74000000000147ab7400000000014"
        "7bb74000000000147cb74000000000147db74000000000147eb74000000000147fb7"
        "40000000001480b740000000001481b740000000001482b740000000001483b74000"
        "0000001484b740000000001485b740000000001486b740000000001487b740000000"
        "001488b740000000001489b74000000000148ab74000000000148bb7400000000014"
        "8cb74000000000148db740000000002870a740000000002872a740000000002874a7"
        "40000000002876a740000000002878a74000000000287aa74000000000287ca74000"
        "000000287ea740000000002880a740000000002882a740000000002884a740000000"
        "002886a740000000002888a74000000000288aa74000000000288ca7400000000028"
        "8ea740000000002890a740000000002892a740000000002894a740000000002896a7"
        "40000000002898a74000000000289aa74000000000289ca74000000000289ea74000"
        "00000028a0a7400000000028a2a7400000000028a4a7400000000028a6a740000000"
        "0028a8a7400000000028aaa740",
    ],
    "loglik": [
        "9d000000030300000001000000000000000200000000000000000000000000000000"
        "00000000000000000000000000000000000000000000000000000000000000010000"
        "00000000000000000000000000000000000000000000000000000000c00000000000"
        "00c03f000000000000e83f000000000000e0bf000000000000f43f00000000000000"
        "00000000000000d83f0000000000000440000000000000e43f",
        "3d000000040300000000000000000000000100000000000000010000000000000001"
        "0000000000000000000000004009c00000000000a018c000000000004009c0",
    ],
    "lone_estep": [
        "6d000000010100000001000000000000000100000000000000050000000000000000"
        "00000000000000000000000000e03f000000000000f4bf000000000000f83f000000"
        "000000d03f0000000000000040000000000000e0bf000000000000e83f0000000000"
        "00f43f0000000000000840",
        "05010000020100000000000000000000001e0000000000000000000000c070a74000"
        "000000c072a74000000000c074a74000000000c076a74000000000c078a740000000"
        "00c07aa74000000000c07ca74000000000c07ea74000000000c080a74000000000c0"
        "82a74000000000c084a74000000000c086a74000000000c088a74000000000c08aa7"
        "4000000000c08ca74000000000c08ea74000000000c090a74000000000c092a74000"
        "000000c094a74000000000c096a74000000000c098a74000000000c09aa740000000"
        "00c09ca74000000000c09ea74000000000c0a0a74000000000c0a2a74000000000c0"
        "a4a74000000000c0a6a74000000000c0a8a74000000000c0aaa740",
    ],
    "lone_loglik": [
        "6d000000030100000001000000000000000000000000000000000000000000000000"
        "00000000000000000000000000e03f000000000000f4bf000000000000f83f000000"
        "000000d03f0000000000000040000000000000e0bf000000000000e83f0000000000"
        "00f43f0000000000000840",
        "1d0000000401000000000000000000000001000000000000000000000000001bc0",
    ],
    "failed_request": [
        "9d000000010300000001000000000000000000000000000000030000000000000000"
        "00000000000000010000000000000003000000000000000000000000000000020000"
        "00000000000300000000000000000000000000000000000000000000c00000000000"
        "00c03f000000000000e83f000000000000e0bf000000000000f43f00000000000000"
        "00000000000000d83f0000000000000440000000000000e43f",
        "1d020000020300000000000000000000001e00000000000000eeffffffffffffff1e"
        "00000000000000000000001470b740000000001471b740000000001472b740000000"
        "001473b740000000001474b740000000001475b740000000001476b7400000000014"
        "77b740000000001478b740000000001479b74000000000147ab74000000000147bb7"
        "4000000000147cb74000000000147db74000000000147eb74000000000147fb74000"
        "0000001480b740000000001481b740000000001482b740000000001483b740000000"
        "001484b740000000001485b740000000001486b740000000001487b7400000000014"
        "88b740000000001489b74000000000148ab74000000000148bb74000000000148cb7"
        "4000000000148db74052756e74696d654572726f723a20626f6f6d00000000000000"
        "0000002870a740000000002872a740000000002874a740000000002876a740000000"
        "002878a74000000000287aa74000000000287ca74000000000287ea7400000000028"
        "80a740000000002882a740000000002884a740000000002886a740000000002888a7"
        "4000000000288aa74000000000288ca74000000000288ea740000000002890a74000"
        "0000002892a740000000002894a740000000002896a740000000002898a740000000"
        "00289aa74000000000289ca74000000000289ea7400000000028a0a7400000000028"
        "a2a7400000000028a4a7400000000028a6a7400000000028a8a7400000000028aaa7"
        "40",
    ],
    "two_endpoints": [
        "6d000000010100000001000000000000000100000000000000010000000000000000"
        "00000000000000000000000000e03f000000000000f4bf000000000000f83f000000"
        "000000d03f0000000000000040000000000000e0bf000000000000e83f0000000000"
        "00f43f0000000000000840",
        "cd000000010200000002000000000000000000000000000000020000000000000000"
        "00000000000000020000000000000001000000000000000100000000000000000000"
        "00000000c0000000000000c03f000000000000e83f000000000000e0bf0000000000"
        "00f43f0000000000000000000000000000d83f0000000000000440000000000000e4"
        "3f000000000000e03f000000000000f4bf000000000000f83f000000000000d03f00"
        "00000000000040000000000000e0bf000000000000e83f000000000000f43f000000"
        "0000000840",
        "05010000020100000000000000000000001e0000000000000000000000c070a74000"
        "000000c072a74000000000c074a74000000000c076a74000000000c078a740000000"
        "00c07aa74000000000c07ca74000000000c07ea74000000000c080a74000000000c0"
        "82a74000000000c084a74000000000c086a74000000000c088a74000000000c08aa7"
        "4000000000c08ca74000000000c08ea74000000000c090a74000000000c092a74000"
        "000000c094a74000000000c096a74000000000c098a74000000000c09aa740000000"
        "00c09ca74000000000c09ea74000000000c0a0a74000000000c0a2a74000000000c0"
        "a4a74000000000c0a6a74000000000c0a8a74000000000c0aaa740",
        "fd010000020200000000000000000000001e000000000000001e0000000000000000"
        "0000001470b740000000001471b740000000001472b740000000001473b740000000"
        "001474b740000000001475b740000000001476b740000000001477b7400000000014"
        "78b740000000001479b74000000000147ab74000000000147bb74000000000147cb7"
        "4000000000147db74000000000147eb74000000000147fb740000000001480b74000"
        "0000001481b740000000001482b740000000001483b740000000001484b740000000"
        "001485b740000000001486b740000000001487b740000000001488b7400000000014"
        "89b74000000000148ab74000000000148bb74000000000148cb74000000000148db7"
        "4000000000c070a74000000000c072a74000000000c074a74000000000c076a74000"
        "000000c078a74000000000c07aa74000000000c07ca74000000000c07ea740000000"
        "00c080a74000000000c082a74000000000c084a74000000000c086a74000000000c0"
        "88a74000000000c08aa74000000000c08ca74000000000c08ea74000000000c090a7"
        "4000000000c092a74000000000c094a74000000000c096a74000000000c098a74000"
        "000000c09aa74000000000c09ca74000000000c09ea74000000000c0a0a740000000"
        "00c0a2a74000000000c0a4a74000000000c0a6a74000000000c0a8a74000000000c0"
        "aaa740",
    ],
}


class Recorder:
    """A socket whose sendall also keeps the bytes it was given."""

    def __init__(self, sock, frames):
        self.sock, self.frames = sock, frames

    def sendall(self, data):
        self.frames.append(bytes(data))
        self.sock.sendall(data)


@pytest.fixture(scope="module")
def subsets():
    samples, _ = simulate(SimDesign(m=12, n=96, p=P, q=Q, seed=4))
    return partition(samples, K, seed=0)


def run_scenario(monkeypatch, subsets, name):
    """(frames written, the call's result or the exception it raised, the
    pool's messages_sent) of one scenario on a fresh pool.  The request
    frames come in the order the manager wrote them, then the replies,
    which endpoint threads write in no fixed order, sorted."""
    frames = []
    write = transport_mod.write_frame
    monkeypatch.setattr(transport_mod, "ENDPOINTS", 2 if name == "two_endpoints" else 1)
    monkeypatch.setattr(transport_mod, "write_frame",
                        lambda sock, *args: write(Recorder(sock, frames), *args))
    model = FixedRowsModel(P, Q)
    pool = SocketPool(model, subsets)
    if name == "failed_request":
        model.failing = pool.shards[1]
    call = SCENARIOS[name][0]
    try:
        try:
            out = call(pool)
        except ProtocolError as exc:
            out = exc
    finally:
        pool.close()
    requests = [f for f in frames if f[4] in (KIND_ESTEP_REQ, KIND_LOGLIK_REQ)]
    return requests + sorted(f for f in frames if f not in requests), out, pool.messages_sent


def fixed_rows(subsets, ks, theta, loglik):
    """The block the stub model gives the subsets ks at theta."""
    sizes = np.array([float(len(subsets[k])) for k in ks])
    if loglik:
        return -(sizes + theta.tau2 / 4)[:, None]
    return 1000.0 * sizes[:, None] + np.arange(FixedRowsModel(P, Q).stats_width) + theta.tau2 / 8


def read_reply(data: bytes, ks, loglik):
    """(block, errors) of a recorded reply frame as the manager reads it."""
    a, b = socket.socketpair()
    with a, b:
        a.sendall(data)
        _, n, _, payload = read_frame(b)
    assert n == len(ks)
    return transport_mod._split_replies(ks, payload, 1 if loglik else None)


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_frames_are_the_recorded_bytes(monkeypatch, subsets, name):
    """Each request frame and each reply frame is bitwise the recorded one:
    the table, the packed parameters, the size table, the results and a
    failed request's error text."""
    frames, _, _ = run_scenario(monkeypatch, subsets, name)
    assert [frame.hex() for frame in frames] == FRAMES[name]


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_recorded_replies_read_back_as_the_pool_returned(monkeypatch, subsets, name):
    """The pool returns the stub's rows for every request that succeeded,
    or raises the earliest failure, and each recorded reply, read by the
    manager's parser, gives the same block and errors."""
    _, out, sent = run_scenario(monkeypatch, subsets, name)
    _, ks, loglik = SCENARIOS[name]
    theta = A if name in ("estep_one_theta", "lone_estep", "lone_loglik") else B
    if name in ("estep_two_thetas", "two_endpoints"):
        thetas = [A, B, B] if name == "estep_two_thetas" else [A, B, A]
        want = np.concatenate([fixed_rows(subsets, [k], t, False) for k, t in zip(ks, thetas)])
    else:
        want = fixed_rows(subsets, ks, theta, loglik)
    if name == "two_endpoints":  # the share of subsets 0 and 2, then that of 1
        block, errors = read_reply(bytes.fromhex(FRAMES[name][3]), [0, 2], False)
        other, more = read_reply(bytes.fromhex(FRAMES[name][2]), [1], False)
        block, errors = np.concatenate([other[:1], block[:1], block[1:]]), {**errors, **more}
    else:
        block, errors = read_reply(bytes.fromhex(FRAMES[name][1]), ks, loglik)
    if name == "failed_request":
        text = "worker 1 failed: RuntimeError: boom"
        assert isinstance(out, ProtocolError) and str(out) == text
        assert sent == 2 * 2
        assert list(errors) == [1] and str(errors[1]) == text
        assert [block[i].tobytes() for i in (0, 2)] == [want[i].tobytes() for i in (0, 2)]
        return
    assert errors == {} and block.tobytes() == want.tobytes()
    assert sent == 2 * len(ks)
    if loglik:
        assert np.array(out).tobytes() == want[:, 0].tobytes()
    else:
        rows, ids, tags = out
        assert rows.tobytes() == want.tobytes() and ids == ks
        assert tags == {"estep_one_theta": [1] * 3, "estep_two_thetas": [1, 2, 2],
                        "lone_estep": [5], "two_endpoints": [1, 2, 1]}[name]
