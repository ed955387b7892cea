"""An E-step batch is one block from the worker's kernel to the manager's
cache: the rows of its results, their subset ids and anchor tags.  On a
batch's success path no result object is built, and the manager's block
cache aggregates bitwise as a dict of the same results does."""
import numpy as np
import pytest

import demfit.runtime as runtime_mod
from demfit import (
    LmmModel,
    ProtocolError,
    RunConfig,
    SimDesign,
    SuffStats,
    Theta,
    aggregate_stats,
    partition,
    run_dem,
    simulate,
)
from demfit.ddsum import DDArray
from demfit.lmm import LmmSuffStats
from demfit.model import EStepBatch
from demfit.transport import make_pool
from conftest import random_sample
from test_second_model import THETA0, NormalMeans, groups  # noqa: F401 (a fixture)

P, Q = 4, 3


@pytest.fixture(scope="module")
def samples():
    # K=20 shards of 2-3 samples: the sync_socket shape, scaled down
    return simulate(SimDesign(m=50, n=400, p=P, q=Q, seed=21))[0]


class CountingModel(LmmModel):
    """Counts the per-result calls: local_estep, pack_stats, unpack_stats."""

    def __init__(self, p, q):
        super().__init__(p, q)
        self.calls = []

    def local_estep(self, theta, subset, subset_id=0, anchor_tag=0):
        self.calls.append("local_estep")
        return super().local_estep(theta, subset, subset_id, anchor_tag)

    def pack_stats(self, stats):
        self.calls.append("pack_stats")
        return super().pack_stats(stats)

    def unpack_stats(self, arr, subset_id, anchor_tag):
        self.calls.append("unpack_stats")
        return super().unpack_stats(arr, subset_id, anchor_tag)


def count_inits(monkeypatch, cls):
    """The first argument of each later cls(...) call, in a list."""
    made, init = [], cls.__init__

    def counting_init(self, *args, **kwargs):
        made.append(args[0] if args else next(iter(kwargs.values())))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting_init)
    return made


@pytest.mark.parametrize("transport", ["in_process", "socket"])
@pytest.mark.parametrize("gamma", [1.0, 0.5])
def test_batch_success_path_builds_no_result_object(samples, monkeypatch, transport, gamma):
    """A successful 20-request E-step batch, and the exact-loglik run_dem
    iterations that cache and sum such batches, make no pack_stats,
    unpack_stats, per-result SuffStats or LmmSuffStats: the only ones are
    the aggregates, one per row of the trace.  A lone pool.estep is still
    one local_estep call."""
    K = 20
    subsets = partition(samples, K, seed=0)
    model = CountingModel(P, Q)
    theta0 = Theta.default_start(P, Q)
    headers = count_inits(monkeypatch, SuffStats)
    payloads = count_inits(monkeypatch, LmmSuffStats)
    pool = make_pool(transport, model, subsets)
    try:
        batch = pool.esteps([(k, theta0, 0) for k in range(K)])
        assert isinstance(batch, EStepBatch)
        assert batch.rows.shape == (K, 2 + 2 * (P + Q * Q + 3))
        assert model.calls == [] and headers == [] and payloads == []
        stats = pool.estep(3, theta0, 2)
        assert (stats.subset_id, stats.anchor_tag) == (3, 2)
        assert model.calls.count("local_estep") == 1
    finally:
        pool.close()
    model.calls.clear()
    headers.clear()
    payloads.clear()
    _, tr = run_dem(RunConfig(K=K, gamma=gamma, seed=4, transport=transport,
                              exact_loglik_check=True), model, subsets, theta0)
    assert tr.converged and tr.n_iterations > 3
    assert model.calls == []
    assert headers == [-1] * len(tr.thetas)  # the aggregates' subset id
    assert len(payloads) == len(tr.thetas)


def cache_checking(monkeypatch, model, seen):
    """Swap runtime.aggregate_stats for one that also aggregates the dict
    of the block cache's results and records (block aggregate, dict
    aggregate, the cache's anchor tags) in seen."""
    aggregate = runtime_mod.aggregate_stats

    def checked(cache, K):
        agg = aggregate(cache, K)
        assert isinstance(cache, EStepBatch)
        seen.append((agg, aggregate(dict(enumerate(cache)), K), cache.anchor_tags.tolist()))
        return agg

    monkeypatch.setattr(runtime_mod, "aggregate_stats", checked)


def payload_bytes(model, agg) -> bytes:
    """The aggregate's packed statistics and, when it has one, its static
    part's words."""
    out = np.asarray(model.pack_stats(agg)).tobytes()
    static = getattr(agg.payload, "static", None)
    return out + (static.acc.hi.tobytes() + static.acc.lo.tobytes() if static else b"")


@pytest.mark.parametrize("transport", ["in_process", "socket"])
@pytest.mark.parametrize("which", ["lmm", "normal_means"])
def test_block_cache_aggregates_as_the_dict_of_its_results(samples, groups, monkeypatch,
                                                          transport, which):
    """Along a gamma = 0.3 "finish" run, whose batches mix stale deliveries
    and fresh E steps, the block cache's aggregate is bitwise
    aggregate_stats over the dict of the same results, anchor tags
    included, for the mixed model and for a model on the contract's
    defaults."""
    if which == "lmm":
        model, K, theta0 = LmmModel(P, Q), 20, Theta.default_start(P, Q)
        subsets = partition(samples, K, seed=1)
    else:
        model, K, theta0 = NormalMeans(), 10, THETA0
        subsets = [groups[k::K] for k in range(K)]
    seen, batch_tags = [], []
    cache_checking(monkeypatch, model, seen)
    esteps = runtime_mod._esteps

    def recording_esteps(pool, model, requests):
        batch = esteps(pool, model, requests)
        batch_tags.append(set(batch.anchor_tags.tolist()))
        return batch

    monkeypatch.setattr(runtime_mod, "_esteps", recording_esteps)
    _, tr = run_dem(RunConfig(K=K, gamma=0.3, seed=2, completion="finish",
                              transport=transport), model, subsets, theta0)
    assert tr.converged and len(seen) == len(tr.thetas)
    for (block, by_dict, tags), want_tags in zip(seen, tr.anchor_tags):
        assert block.anchor_tags == by_dict.anchor_tags == tags == want_tags
        assert payload_bytes(model, block) == payload_bytes(model, by_dict)
    # some batches mixed anchor tags: stale deliveries beside fresh E steps
    assert any(len(tags) > 1 for tags in batch_tags)


def test_block_cache_must_hold_every_subset_in_order():
    rng = np.random.default_rng(5)
    model = LmmModel(P, Q)
    shards = [model.prepare([random_sample(rng, P, Q)]) for _ in range(3)]
    batch = model.local_esteps(Theta.default_start(P, Q), shards, [0, 1, 2], 0)
    assert aggregate_stats(batch, 3).anchor_tags == [0, 0, 0]
    for K, ids in ((4, [0, 1, 2]), (3, [0, 2, 1])):
        batch.subset_ids = np.array(ids)
        with pytest.raises(ProtocolError, match=r"is not one result for each of 0\.\."):
            aggregate_stats(batch, K)


@pytest.mark.parametrize("q", [3, 6])
def test_static_parts_are_each_shards_own_tree(q):
    """One segmented pass over the const rows of shards of 0, 1, 2, 3, 5, 8,
    16 and 17 samples gives each shard bitwise the words of sum_rows over
    its rows alone; each shard keeps its part, and a shard that has one
    keeps that one."""
    rng = np.random.default_rng(70 + q)
    p = 4
    model = LmmModel(p, q)
    sizes = (0, 1, 2, 3, 5, 8, 16, 17)
    shards = [model.prepare([random_sample(rng, p, q) for _ in range(m)]) for m in sizes]
    want = [DDArray.sum_rows(shard.const) for shard in shards]
    kept = shards[3].const_sum
    parts = model.static_parts(shards)
    assert len(parts) == len(sizes) and parts[3] is kept
    for shard, part, ref in zip(shards, parts, want):
        assert shard.const_sum is part
        assert part.acc.hi.tobytes() == ref.hi.tobytes()
        assert part.acc.lo.tobytes() == ref.lo.tobytes()
    assert model.static_parts([]) == []

