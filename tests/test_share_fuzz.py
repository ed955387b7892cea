"""Seeded fuzzing of the socket share parsers and of read_frame's length
word, with stdlib `random` only.

A malformed request share ends in the endpoint's quiet close, a malformed
reply share in a ProtocolError naming a subset of the share, and a frame
whose length word overstates its body in the ConnectionError of a peer
that closed mid-frame, without allocating that length.  No other
exception escapes, and nothing waits on a peer that has closed.
"""
import random
import socket
import struct
import tracemalloc

import numpy as np
import pytest

from demfit import LmmModel, ProtocolError, SimDesign, Theta, partition, simulate
from demfit.transport import (
    KIND_ESTEP_REQ,
    KIND_LOGLIK_REQ,
    SocketPool,
    _join_replies,
    _reply_block,
    _reply_payload,
    _split_replies,
    _split_request,
    read_frame,
)

SEED = 26
CASES = 3000
HEAD = 13  # u8 kind, u32 count, u64 extra
EDGES = [0, 1, 2, 3, -1, -2, -7, -8, -9, 2**31, 2**32 - 1, 2**40, 2**62, 2**63 - 1, -(2**63)]


def words(ints) -> np.ndarray:
    return np.array(ints, dtype="<i8").view("<f8")


def some_int(rng: random.Random) -> int:
    """A small count, an edge of the int64 range or any int64."""
    pick = rng.random()
    if pick < 0.5:
        return rng.randrange(-3, 12)
    if pick < 0.8:
        return rng.choice(EDGES)
    return rng.randrange(-(2**63), 2**63)


def request_case(rng: random.Random, packed: np.ndarray):
    """(n, T, payload) of a request share: a table of n rows and a section
    of parameters, each part well formed or not."""
    n = rng.choice([0, 1, 1, 2, 3, 5, 8, rng.randrange(12), 2**32 - 1])
    T = rng.choice([0, 1, 1, 2, n, n, n + 1, max(n - 1, 0), rng.randrange(10),
                    2**40, 2**63, 2**64 - 1])
    if rng.random() < 0.2:  # any words at all
        return n, T, words([some_int(rng) for _ in range(rng.randrange(40))])
    rows = min(n, 12) if rng.random() < 0.9 else rng.randrange(12)
    table = []
    for _ in range(rows):
        j = rng.randrange(max(min(T, 4), 1)) if rng.random() < 0.8 else some_int(rng)
        table += [rng.choice([0, 1, 2, some_int(rng)]), some_int(rng), j]
    width = rng.choice([len(packed), len(packed), 0, 1, len(packed) - 1])
    thetas = [packed[:width] if width <= len(packed) else packed
              for _ in range(min(T, 4) if rng.random() < 0.8 else rng.randrange(5))]
    section = np.concatenate([np.zeros(0), *thetas])
    if rng.random() < 0.2:
        section = section[: rng.randrange(len(section) + 1)]
    return n, T, np.concatenate([words(table), section])


def frame(kind: int, n: int, T: int, payload: np.ndarray) -> bytes:
    body = struct.pack("<BIQ", kind, n % 2**32, T % 2**64) + payload.astype("<f8").tobytes()
    return struct.pack("<I", len(body)) + body


@pytest.fixture(scope="module")
def pieces():
    samples, _ = simulate(SimDesign(m=12, n=96, p=2, q=3, seed=4))
    model = LmmModel(2, 3)
    shards = {k: model.prepare(s) for k, s in enumerate(partition(samples, 2, seed=0))}
    return model, shards, model.pack_theta(Theta.default_start(2, 3))


def test_split_request_accepts_only_well_formed_shares(pieces):
    _, _, packed = pieces
    rng = random.Random(SEED)
    accepted = 0
    for case in range(CASES):
        n, T, payload = request_case(rng, packed)
        try:
            rows, thetas = _split_request(n, T, payload)
        except ProtocolError:
            continue
        accepted += 1
        assert len(rows) == n and thetas.shape[0] == T, case
        assert (1 <= T <= n and thetas.shape[1] >= 1) or n == T == 0, case
        assert all(0 <= j < T for _, _, j in rows), case
    assert 0 < accepted < CASES


def serve_once(model, shards, sent: bytes) -> bytes:
    """Run an endpoint on one end of a socket pair until it has read sent
    and then the closed end of its peer; return every byte it wrote."""
    client, worker_end = socket.socketpair()
    with client:
        worker_end.settimeout(5)
        client.sendall(sent)
        client.shutdown(socket.SHUT_WR)
        SocketPool(model, [])._serve(worker_end, shards)  # must return quietly
        assert worker_end.fileno() == -1  # closed by the endpoint
        client.settimeout(5)
        out = b""
        try:
            while chunk := client.recv(1 << 16):
                out += chunk
        except ConnectionResetError:
            pass  # it closed with bytes of ours unread
    return out


def test_malformed_request_closes_the_endpoint_quietly(pieces):
    """An endpoint answers a well-formed share with one reply frame and a
    malformed one, or a truncated frame, with nothing: it closes its
    connection and returns, raising nothing."""
    model, shards, packed = pieces
    rng = random.Random(SEED + 1)
    answered = 0
    for case in range(300):
        if rng.random() < 0.2:  # a length word and whatever bytes follow
            sent = struct.pack("<I", rng.choice([0, 5, HEAD, HEAD + 8, 2**20, 2**32 - 1]))
            sent += rng.randbytes(rng.randrange(40))
            well_formed = False
        else:
            n, T, payload = request_case(rng, packed)
            kind = rng.choice([KIND_ESTEP_REQ, KIND_LOGLIK_REQ, 99])
            try:
                _split_request(n, T, payload)
                well_formed = n < 2**32
            except ProtocolError:
                well_formed = False
            sent = frame(kind, n, T, payload)
        out = serve_once(model, shards, sent)
        if not well_formed:
            assert out == b"", case
            continue
        answered += 1
        a, b = socket.socketpair()
        with a, b:
            a.sendall(out)
            a.close()
            _, count, extra, _ = read_frame(b)
            assert (count, extra) == (n, 0), case
            assert b.recv(1) == b"", case  # one reply frame, nothing after it
    assert answered > 0


def reply_case(rng: random.Random, ks):
    """(width, payload) of a reply share for subsets ks: a size table and
    results, each well formed or not."""
    width = rng.choice([None, None, 1, 5])
    sizes, parts = [], []
    for _ in ks:
        pick = rng.random()
        if pick < 0.5:
            size = width if width is not None else rng.randrange(7)
            sizes.append(size)
            parts.append(np.arange(size, dtype=float))
        elif pick < 0.8:
            text = rng.randbytes(rng.randrange(1, 30))
            sizes.append(-len(text))
            parts.append(np.frombuffer(text + bytes(-len(text) % 8), dtype="<f8"))
        else:
            sizes.append(some_int(rng))
            parts.append(np.zeros(rng.randrange(4)))
    payload = np.concatenate([words(sizes), *parts])
    if rng.random() < 0.3:
        cut = rng.randrange(-3, 4)
        payload = payload[:cut] if cut < 0 else np.concatenate([payload, np.ones(cut)])
    return width, payload


def test_malformed_reply_names_a_subset_of_its_share():
    rng = random.Random(SEED + 2)
    outcomes = set()
    for case in range(CASES):
        ks = [rng.randrange(50) for _ in range(rng.randrange(1, 6))]
        width, payload = reply_case(rng, ks)
        try:
            results = _split_replies(ks, payload, width)
        except ProtocolError as exc:
            assert str(exc).startswith(f"worker {ks[0]}: "), case
            outcomes.add("raised")
            continue
        assert len(results) == len(ks), case
        for k, result in zip(ks, results):
            if isinstance(result, ProtocolError):
                assert str(result).startswith(f"worker {k} failed: "), case
                outcomes.add("failed request")
            else:
                assert width is None or len(result) == width, case
                outcomes.add("result")
    assert outcomes == {"raised", "failed request", "result"}


def block_case(rng: random.Random, ks):
    """(width, payload) of a reply share for subsets ks whose results all
    have one size, then perhaps one size changed, one result failed, or
    the payload cut short or run long."""
    width = rng.choice([None, None, 1, 5])
    w = width if width is not None and rng.random() < 0.8 else rng.choice([0, 1, 2, 5, 46])
    sizes = [w] * len(ks)
    parts = [np.arange(w, dtype=float) + 10 * i for i in range(len(ks))]
    pick = rng.random()
    if pick < 0.15:
        sizes[rng.randrange(len(ks))] = rng.choice([w + 1, max(w - 1, 0), some_int(rng)])
    elif pick < 0.3:
        i = rng.randrange(len(ks))
        text = rng.randbytes(rng.randrange(1, 30))
        sizes[i] = -len(text)
        parts[i] = np.frombuffer(text + bytes(-len(text) % 8), dtype="<f8")
    payload = np.concatenate([words(sizes), *parts])
    if rng.random() < 0.2:
        cut = rng.randrange(-3, 4)
        payload = payload[:cut] if cut < 0 else np.concatenate([payload, np.ones(cut)])
    return width, payload


def test_block_reply_path_agrees_with_split_replies():
    """Every reply the manager takes as one block, _split_replies accepts
    with the same rows, and a share without a failure writes exactly that
    payload back.  A reply it refuses is one _split_replies refuses with a
    ProtocolError naming ks[0], or one with a failed request or results
    of different sizes, which _split_replies reads one by one."""
    rng = random.Random(SEED + 4)
    outcomes = set()
    for case in range(CASES):
        ks = [rng.randrange(50) for _ in range(rng.randrange(1, 6))]
        width, payload = (block_case if rng.random() < 0.7 else reply_case)(rng, ks)
        block = _reply_block(len(ks), payload, width)
        try:
            results = _split_replies(ks, payload, width)
        except ProtocolError as exc:
            assert block is None, case
            assert str(exc).startswith(f"worker {ks[0]}: "), case
            outcomes.add("refused, malformed")
            continue
        if block is not None:
            assert block.shape[0] == len(ks), case
            assert [r.tobytes() for r in results] == [row.tobytes() for row in block], case
            assert _reply_payload(block, {}).tobytes() == payload.tobytes(), case
            assert _join_replies(list(block)).tobytes() == payload.tobytes(), case
            outcomes.add("block")
        elif any(isinstance(r, Exception) for r in results):
            outcomes.add("refused, failed request")
        else:
            assert len({len(r) for r in results}) > 1, case
            outcomes.add("refused, ragged")
    assert outcomes == {"block", "refused, malformed", "refused, failed request",
                        "refused, ragged"}


def test_read_frame_length_word_allocates_what_arrives():
    """Whatever a length word says, read_frame returns the frame its bytes
    make, or raises a ProtocolError for a body it cannot hold, or the
    ConnectionError of a peer that closed mid-frame; and it allocates in
    proportion to the bytes that came, not to the length word.  Lengths
    stay below 2**28, so a reader that did allocate them would fail the
    memory bound without exhausting the host."""
    rng = random.Random(SEED + 3)
    tracemalloc.start()
    try:
        for case in range(CASES):
            length = rng.choice([rng.randrange(40), HEAD + 8 * rng.randrange(5),
                                 rng.randrange(2**28), 2**28 - 1])
            sent = rng.randbytes(rng.choice([length, rng.randrange(48)]) if length < 48
                                 else rng.randrange(48))
            a, b = socket.socketpair()
            with a, b:
                b.settimeout(5)
                a.sendall(struct.pack("<I", length) + sent)
                a.close()
                try:
                    kind, count, extra, payload = read_frame(b)
                except ProtocolError:
                    assert len(sent) >= length and (length < HEAD or (length - HEAD) % 8), case
                except ConnectionError as exc:
                    assert len(sent) < length and "mid-frame" in str(exc), case
                else:
                    assert len(sent) >= length >= HEAD and (length - HEAD) % 8 == 0, case
                    assert len(payload) == (length - HEAD) // 8, case
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
