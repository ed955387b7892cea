"""The shards of each pool endpoint are row ranges of one resident,
read-only kernel block: a batch of all of an endpoint's shards, in subset
order, runs on the block itself, any other batch gathers its rows, and
every result stays bitwise that of its shard alone."""
import gc
import weakref

import numpy as np
import pytest

from demfit import LmmModel, SimDesign, Theta, simulate
from demfit.lmm import _kernel_layout
from demfit.transport import make_pool
from conftest import random_theta
from test_runtime import pin_endpoints

P, Q = 4, 3
# subset sizes with an empty subset and a one-sample one among the others
SIZES = (3, 0, 1, 5, 2, 4, 1)
# (transport, endpoints) of every pool shape
POOLS = [("in_process", 1), ("socket", 1), ("socket", 2)]


@pytest.fixture(scope="module")
def subsets():
    samples, _ = simulate(SimDesign(m=sum(SIZES), n=8 * sum(SIZES), p=P, q=Q, seed=13))
    ends = np.cumsum(SIZES)
    return [samples[end - size : end] for size, end in zip(SIZES, ends)]


class StackingModel(LmmModel):
    """An LmmModel that keeps each stacked shard its batches run on."""

    def __init__(self, p, q):
        super().__init__(p, q)
        self.stacks = []

    def _stack(self, shards):
        stacked = super()._stack(shards)
        self.stacks.append(stacked)
        return stacked


def build(monkeypatch, transport, endpoints, model, subsets):
    pin_endpoints(monkeypatch, endpoints)
    return make_pool(transport, model, subsets)


def alone(subsets, theta):
    """Each subset's packed E step and loglik on a shard of its own."""
    model = LmmModel(P, Q)
    shards = [model.prepare(subset) for subset in subsets]
    return ([model.pack_stats(model.local_estep(theta, shard)).tobytes() for shard in shards],
            [np.float64(model.local_loglik(theta, shard)).tobytes() for shard in shards])


def test_full_batch_stack_is_read_only(subsets):
    model = LmmModel(P, Q)
    pool = make_pool("in_process", model, subsets)
    stacked = model._stack(pool.shards)
    assert stacked is pool.shards[0].block
    for write in (lambda: stacked.G.__iadd__(1.0), lambda: stacked.rows.__setitem__(0, 0.0),
                  lambda: pool.shards[3].ZZ.__imul__(2.0)):
        with pytest.raises(ValueError, match="read-only"):
            write()
    pool.close()


@pytest.mark.parametrize("transport, endpoints", POOLS)
def test_all_of_an_endpoints_shards_run_on_its_block(subsets, monkeypatch, transport,
                                                     endpoints):
    """A batch of every subset in subset order gives each endpoint its whole
    block: E steps and logliks run on memory shared with it, and every
    result is bitwise its shard's alone."""
    model = StackingModel(P, Q)
    pool = build(monkeypatch, transport, endpoints, model, subsets)
    theta = random_theta(np.random.default_rng(1), P, Q)
    K = len(subsets)
    blocks = [pool.shards[e].block for e in range(endpoints)]
    try:
        batch = pool.esteps([(k, theta, 0) for k in range(K)])
        logliks = pool.logliks(range(K), theta)
    finally:
        pool.close()
    assert len(model.stacks) == 2 * endpoints
    for e, block in enumerate(blocks):
        assert len(block) == sum(SIZES[e::endpoints])
        used = [s for s in model.stacks if np.shares_memory(s.rows, block.rows)]
        assert len(used) == 2 and all(s is block for s in used)
    estep_bytes, loglik_bytes = alone(subsets, theta)
    assert [row.tobytes() for row in batch.rows] == estep_bytes
    assert [np.float64(v).tobytes() for v in logliks] == loglik_bytes


@pytest.mark.parametrize("transport, endpoints", POOLS)
def test_shuffled_partial_batch_gathers_each_shards_rows(subsets, monkeypatch, transport,
                                                         endpoints):
    """Requests out of subset order, holding the empty and a one-sample
    subset, and a consecutive run of subsets short of all of them, are
    gathered into a copy, and give each row bitwise what its subset gives
    alone."""
    model = StackingModel(P, Q)
    pool = build(monkeypatch, transport, endpoints, model, subsets)
    rng = np.random.default_rng(2)
    try:
        for ks in ([5, 1, 2, 0, 3], [2, 3, 4], [6, 1]):
            theta = random_theta(rng, P, Q)
            batch = pool.esteps([(k, theta, 4) for k in ks])
            logliks = pool.logliks(ks, theta)
            estep_bytes, loglik_bytes = alone(subsets, theta)
            assert list(batch.subset_ids) == ks and list(batch.anchor_tags) == [4] * len(ks)
            assert [row.tobytes() for row in batch.rows] == [estep_bytes[k] for k in ks]
            assert [np.float64(v).tobytes() for v in logliks] == [loglik_bytes[k] for k in ks]
    finally:
        pool.close()
    blocks = {id(shard.block): shard.block for shard in pool.shards}.values()
    assert len(blocks) == endpoints
    # an endpoint's share of one request runs on that shard itself
    gathered = [s for s in model.stacks if not any(s is shard for shard in pool.shards)]
    assert gathered
    assert not any(np.shares_memory(s.rows, b.rows) for s in gathered for b in blocks)


@pytest.mark.parametrize("transport", ["in_process", "socket"])
def test_pool_holds_its_data_once_without_a_cycle(subsets, transport):
    """The kernel arrays of every shard are views of one block of
    n_samples x kernel-width float64, and a closed pool that is dropped
    frees that block with the cycle collector off."""
    width = _kernel_layout(P, Q)["width"]
    gc.disable()
    try:
        pool = make_pool(transport, LmmModel(P, Q), subsets)
        base = pool.shards[0].rows.base
        assert base.shape == (sum(SIZES), width) and base.dtype == np.float64
        assert not base.flags.writeable
        for shard in pool.shards:
            assert shard.const is None
            assert all(a.base is base for a in (shard.rows, shard.n, shard.G, shard.ZZ, shard.R))
        pool.estep(0, Theta.default_start(P, Q), 0)
        ref = weakref.ref(base)
        del base, shard
        pool.close()
        del pool
        assert ref() is None
    finally:
        gc.enable()


def test_prepared_shard_keeps_its_records_until_it_resides(subsets):
    """prepare stacks the records once: kernel and const rows are views of
    one array.  Residing sums the const rows into the static part, once,
    and drops them; the shard object is the one prepare returned."""
    model = LmmModel(P, Q)
    shards = [model.prepare(subset) for subset in subsets]
    assert all(s.rows.base is s.const.base for s in shards if len(s))
    want = model.static_parts([model.prepare(subset) for subset in subsets])
    statics = model.reside(shards)
    assert model.reside([]) == []
    assert [s.static for s in shards] == statics
    for got, ref in zip(statics, want):
        assert got.acc.hi.tobytes() == ref.acc.hi.tobytes()
        assert got.acc.lo.tobytes() == ref.acc.lo.tobytes()
    assert [s.slot for s in shards] == list(range(len(shards)))
    assert [len(s) for s in shards] == list(SIZES)
    assert tuple(shards[0].block.segments) == SIZES


def test_resident_shards_stay_in_their_block(subsets):
    """A second pool over the shards of a first one, whole or in part,
    leaves every shard in its block and gives bitwise the same results;
    shards that do not reside yet get a block of their own."""
    model = LmmModel(P, Q)
    first = make_pool("in_process", model, subsets)
    block = first.shards[0].block
    views = [shard.rows for shard in first.shards]
    again = make_pool("in_process", model, first.shards)
    part = make_pool("in_process", model, first.shards[2:5])
    extra = model.prepare(subsets[3])
    mixed = make_pool("in_process", model, [first.shards[0], extra])
    assert all(shard.block is block and shard.rows is rows
               for shard, rows in zip(first.shards, views))
    assert model._stack(again.shards) is block
    assert extra.block is not None and extra.block is not block
    theta = random_theta(np.random.default_rng(3), P, Q)
    want = first.esteps([(k, theta, 0) for k in range(len(subsets))]).rows
    assert again.esteps([(k, theta, 0) for k in range(len(subsets))]).rows.tobytes() == \
        want.tobytes()
    assert part.esteps([(k, theta, 0) for k in range(3)]).rows.tobytes() == want[2:5].tobytes()
    assert mixed.esteps([(0, theta, 0), (1, theta, 0)]).rows.tobytes() == \
        want[[0, 3]].tobytes()
    for pool in (first, again, part, mixed):
        pool.close()
