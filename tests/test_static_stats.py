"""The data-only part of the mixed model's E-step statistics: summed once
per shard and once per run, never packed, and bitwise what one pass over
every column gives."""
import numpy as np
import pytest

from demfit import (
    LmmModel,
    ProtocolError,
    RunConfig,
    SimDesign,
    Theta,
    aggregate_stats,
    partition,
    run_dem,
    simulate,
)
from demfit.ddsum import DDArray
from demfit.transport import make_pool
from conftest import random_sample, random_theta

P, Q = 4, 3


@pytest.fixture(scope="module")
def samples():
    # 30 samples: K=20 gives one-sample shards among others
    return simulate(SimDesign(m=30, n=240, p=P, q=Q, seed=7))[0]


def reference_values(model, subsets, results):
    """The statistics of the subsets together, read from one pass over
    every column: each subset's [const | theta] words, its const rows
    summed on their own, in one DDArray.sum_parts over the subsets in order
    (133 columns at p=10, q=3)."""
    p, q = model.p, model.q
    parts = []
    for subset, stats in zip(subsets, results):
        const = DDArray.sum_rows(model.prepare(subset).const)
        acc = stats.payload._acc
        parts.append(DDArray._wrap(np.concatenate([const.hi, acc.hi]),
                                   np.concatenate([const.lo, acc.lo])))
    v = DDArray.sum_parts(parts).value()
    c = 1 + p + p * p
    return dict(
        S_xx=v[1 + p : c].reshape(p, p), S_xy=v[1:1 + p], S_xzb=v[c : c + p],
        S_bb=v[c + p + 1 : c + p + 1 + q * q].reshape(q, q), s_yy=v[0], s_yzb=v[c + p],
        s_bzzb=v[-2], loglik=v[-1],
    )


@pytest.mark.parametrize("transport", ["in_process", "socket"])
@pytest.mark.parametrize("K", [1, 4, 20])
def test_aggregate_equals_one_tree_over_every_column(samples, transport, K):
    model = LmmModel(P, Q)
    subsets = partition(samples, K, seed=1)
    if K == 20:
        assert 1 in {len(s) for s in subsets}
    rng = np.random.default_rng(K)
    pool = make_pool(transport, model, subsets)
    try:
        for theta in (Theta.default_start(P, Q), random_theta(rng, P, Q)):
            results = pool.esteps([(k, theta, 0) for k in range(K)])
            got = aggregate_stats(dict(enumerate(results)), K).payload.values()
            want = reference_values(model, subsets, results)
            for name, value in want.items():
                assert np.asarray(getattr(got, name)).tobytes() == np.asarray(value).tobytes(), name
    finally:
        pool.close()


@pytest.mark.parametrize("transport", ["in_process", "socket"])
def test_static_total_is_summed_once_per_run(samples, transport, monkeypatch):
    """Each shard's data-only rows are summed once, all K shards' in one
    segmented pass, and the K parts once; every aggregate sums only the
    theta-dependent words after that."""
    model = LmmModel(P, Q)
    K = 4
    subsets = partition(samples, K, seed=2)
    const_width, fresh_width = 1 + P + P * P, P + Q * Q + 3
    # (pass, width) of each sum_rows call, each segmented pass (sum_rows
    # makes one too) and each Sum2 pass over K parts' words, which
    # sum_parts and LmmSuffStats.total both make through sum_words
    calls = []
    sum_rows, sum_segments, sum_words = (DDArray.sum_rows.__func__,
                                         DDArray.sum_segments.__func__,
                                         DDArray.sum_words.__func__)

    def counting_sum_rows(cls, rows):
        calls.append(("rows", rows.shape[1]))
        return sum_rows(cls, rows)

    def counting_sum_segments(cls, rows, lengths):
        calls.append(("segments", rows.shape[1], len(rows)))
        return sum_segments(cls, rows, lengths)

    def counting_sum_words(cls, words):
        calls.append(("parts", words.shape[1]))
        return sum_words(cls, words)

    monkeypatch.setattr(DDArray, "sum_rows", classmethod(counting_sum_rows))
    monkeypatch.setattr(DDArray, "sum_segments", classmethod(counting_sum_segments))
    monkeypatch.setattr(DDArray, "sum_words", classmethod(counting_sum_words))
    _, trace = run_dem(RunConfig(K=K, gamma=0.5, seed=3, transport=transport), model,
                       subsets, Theta.default_start(P, Q))
    assert trace.n_iterations > 5
    assert calls.count(("rows", const_width)) == 0
    # one pass over every shard's const rows together
    assert [c for c in calls if c[:2] == ("segments", const_width)] == [
        ("segments", const_width, len(samples))]
    assert calls.count(("parts", const_width)) == 1
    # one aggregate per row of the trace
    assert calls.count(("parts", fresh_width)) == len(trace.thetas)


def test_static_total_is_never_stale():
    """The last total comes back only for the same others, in order; any
    other set of parts gives their fresh sum."""
    rng = np.random.default_rng(3)
    model = LmmModel(P, Q)
    parts = [model.static_parts([model.prepare([random_sample(rng, P, Q) for _ in range(n)])])[0]
             for n in (3, 1, 4, 2, 5)]

    def fresh(*statics):
        return DDArray.sum_parts([s.acc for s in statics]).value()

    first, rest = parts[0], parts[1:4]
    total = first.combine(*rest)
    assert first.combine(*rest) is total
    assert total.acc.value().tobytes() == fresh(first, *rest).tobytes()
    for others in (parts[1:5], parts[2:4], rest[::-1], [parts[1], parts[4], parts[3]], []):
        got = first.combine(*others)
        assert got.acc.value().tobytes() == fresh(first, *others).tobytes()
    # and back to the first set: a fresh sum again, bitwise the first total
    again = first.combine(*rest)
    assert again is not total
    assert again.acc.value().tobytes() == total.acc.value().tobytes()


@pytest.mark.parametrize("p, q", [(10, 3), (4, 3), (2, 1), (3, 6)])
def test_packed_estep_result_holds_the_theta_dependent_words(p, q):
    rng = np.random.default_rng(p + q)
    model = LmmModel(p, q)
    stats = model.local_estep(random_theta(rng, p, q),
                              [random_sample(rng, p, q) for _ in range(4)])
    packed = model.pack_stats(stats)
    assert packed.size == 2 + 2 * (p + q * q + 3)
    # unpacked, the result lacks its data-only part until one is attached
    back = model.unpack_stats(packed, subset_id=3, anchor_tag=1)
    assert back.payload.static is None
    with pytest.raises(ProtocolError, match="data-only part"):
        back.payload.values()
    back.payload.static = stats.payload.static
    for got, want in zip(back.payload.values(), stats.payload.values()):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
