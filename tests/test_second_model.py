"""A second model through the runtime: conjugate normal means.

y_ij = mu + b_i + e_ij with b_i ~ N(0, vb) and e_ij ~ N(0, ve).  A sample
is (n_i, sum_j y_ij, sum_j y_ij^2) and a parameter the tuple (mu, vb, ve).
The model subclasses ModelContract only, so runs that match across
transports and pass the free-energy audit show that the runtime needs
nothing of the mixed model beyond the contract.
"""
import math
import threading

import numpy as np
import pytest

from demfit.model import ModelContract, SuffStats, check_monotone_F
from demfit.runtime import RunConfig, run_dem, run_ecme0
from demfit.transport import make_pool
from test_runtime import pin_endpoints


class MeansStats:
    """count, n, sum y, sum y^2, sum n b, sum E b^2, sum b sum y,
    sum n E b^2, loglik; b is a sample's posterior mean."""

    def __init__(self, v):
        self.v = v

    @property
    def n(self):
        return self.v[1]

    @property
    def loglik(self):
        return self.v[-1]

    def combine(self, *others):
        return MeansStats(np.sum([self.v, *(o.v for o in others)], axis=0))


class NormalMeans(ModelContract):
    """The batch contract only: an E-step batch is the (n, 9) block of the
    shards' MeansStats rows, summed per shard over the per-sample terms of
    all shards stacked."""

    stats_width = 9

    @staticmethod
    def _posterior(theta, subset):
        mu, vb, ve = theta
        n, s, ss = np.reshape(np.asarray(subset, dtype=float), (-1, 3)).T
        var = 1.0 / (1.0 / vb + n / ve)
        return n, s, ss, var * (s - n * mu) / ve, var

    @staticmethod
    def _segments(shards):
        """Each shard's slice of the shards' samples stacked."""
        ends = np.cumsum([len(shard) for shard in shards], dtype=int).tolist()
        return [slice(end - len(shard), end) for shard, end in zip(shards, ends)]

    def _loglik_terms(self, theta, samples):
        mu, vb, ve = theta
        n, s, ss, _, _ = self._posterior(theta, samples)
        r, rr, tot = s - n * mu, ss - 2 * mu * s + n * mu * mu, ve + n * vb
        return -0.5 * (n * math.log(2 * math.pi) + (n - 1) * math.log(ve)
                       + np.log(tot) + (rr - vb * r * r / tot) / ve)

    def local_logliks(self, theta, shards):
        terms = self._loglik_terms(theta, [g for shard in shards for g in shard])
        return [math.fsum(terms[at]) for at in self._segments(shards)]

    def local_esteps(self, theta, shards):
        samples = [g for shard in shards for g in shard]
        n, s, ss, b, var = self._posterior(theta, samples)
        e2 = b * b + var
        cols = np.array([np.ones_like(n), n, s, ss, n * b, e2, s * b, n * e2,
                         self._loglik_terms(theta, samples)])
        return np.array([[math.fsum(c) for c in cols[:, at]] for at in self._segments(shards)],
                        dtype=float).reshape(len(shards), self.stats_width)

    def combine_packed(self, rows, statics):
        return MeansStats(np.sum(rows, axis=0))

    def packed_logliks(self, rows):
        return rows[:, -1]

    def cm_steps(self, agg, theta_current):
        count, n, s, ss, nb, e2, sb, ne2, _ = agg.payload.v
        mu = (s - nb) / n
        ve = (ss - 2 * mu * s - 2 * sb + n * mu * mu + 2 * mu * nb + ne2) / n
        return (mu, e2 / count, ve)

    def free_energy_path(self, thetas, anchor_tags, subsets):
        out = []
        for j, tags in enumerate(anchor_tags):
            row = []
            for tag, subset in zip(tags, subsets):
                if not 0 <= tag <= j:
                    raise ValueError(f"row {j}: anchor tag {tag}")
                *_, b, var = self._posterior(thetas[j], subset)
                *_, b_a, var_a = self._posterior(thetas[tag], subset)
                kl = 0.5 * (np.log(var / var_a) + (var_a + (b_a - b) ** 2) / var - 1)
                row.append(self.local_loglik(thetas[j], subset) - math.fsum(kl))
            out.append(row)
        return out

    def pack_theta(self, theta):
        return np.array(theta, dtype=float)

    def unpack_theta(self, arr):
        return tuple(arr.tolist())

    def pack_stats(self, stats):
        return stats.payload.v.copy()

    def unpack_stats(self, arr, subset_id, anchor_tag):
        return SuffStats(subset_id, anchor_tag, MeansStats(arr))


WIRE_METHODS = ("pack_theta", "unpack_theta", "pack_stats", "unpack_stats")
# every abstract method of the contract: the batch methods, the M step, the
# audit's path and the wire methods
CONTRACT = ("local_esteps", "local_logliks", "combine_packed", "packed_logliks",
            "cm_steps", "free_energy_path") + WIRE_METHODS
THETA0 = (0.0, 1.0, 1.0)


@pytest.fixture(scope="module")
def groups():
    rng = np.random.default_rng(7)
    out = []
    for _ in range(40):
        n = int(rng.integers(1, 9))
        y = 2.0 + 1.5 * rng.standard_normal() + rng.standard_normal(n)
        out.append((n, float(y.sum()), float(y @ y)))
    return out


def runs_on_both_transports(groups, gamma, completion, exact):
    """Runs of the normal-means model in process and over sockets that
    converge, pass the audit and give one trace."""
    K = 4
    subsets = [groups[k::K] for k in range(K)]
    model = NormalMeans()
    traces = []
    for transport in ("in_process", "socket"):
        cfg = RunConfig(K=K, gamma=gamma, seed=1, completion=completion,
                        exact_loglik_check=exact, transport=transport)
        _, tr = run_dem(cfg, model, subsets, THETA0)
        assert tr.converged
        assert check_monotone_F(tr, model, subsets) == []
        traces.append(tr)
    mem, sock = traces
    for field in ("thetas", "logliks", "accept_sets", "anchor_tags", "messages_sent"):
        assert getattr(mem, field) == getattr(sock, field), field
    if gamma < 1:
        assert mem.max_staleness >= 1


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("completion", ["restart", "finish"])
@pytest.mark.parametrize("gamma", [0.5, 1.0])
def test_second_model_runs_on_both_transports(groups, gamma, completion, exact):
    runs_on_both_transports(groups, gamma, completion, exact)


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("completion", ["restart", "finish"])
@pytest.mark.parametrize("gamma", [0.5, 1.0])
def test_second_model_runs_on_two_endpoints(groups, monkeypatch, gamma, completion, exact):
    """The same over two socket endpoints, subsets 0 and 2 on one and 1 and
    3 on the other."""
    pin_endpoints(monkeypatch, 2)
    runs_on_both_transports(groups, gamma, completion, exact)


def test_second_model_ecme0_ascends(groups):
    model = NormalMeans()
    # run_ecme0 raises if the log likelihood ever decreases
    theta, tr = run_ecme0(RunConfig(K=1), model, groups, THETA0)
    assert tr.converged and tr.n_iterations > 5
    assert tr.final_loglik == model.local_loglik(theta, groups) > tr.logliks[0]


@pytest.mark.parametrize("missing", CONTRACT)
def test_contract_requires_every_wire_method(missing):
    assert ModelContract.__abstractmethods__ == frozenset(CONTRACT)
    methods = {name: getattr(NormalMeans, name) for name in CONTRACT if name != missing}
    with pytest.raises(TypeError, match=missing):
        type("Partial", (ModelContract,), methods)()
    assert isinstance(type("Whole", (ModelContract,), methods | {
        missing: getattr(NormalMeans, missing)})(), ModelContract)


@pytest.mark.parametrize("width", ["missing", 0, -9, 9.0, True, "9"])
@pytest.mark.parametrize("transport", ["in_process", "socket"])
def test_pool_requires_a_positive_int_row_width(groups, monkeypatch, transport, width):
    """A model without a positive int stats_width is a TypeError naming its
    class when the pool is built, before any socket or endpoint thread."""
    if width == "missing":
        monkeypatch.delattr(NormalMeans, "stats_width")
    else:
        monkeypatch.setattr(NormalMeans, "stats_width", width)
    subsets = [groups[k::2] for k in range(2)]
    threads = threading.active_count()
    with pytest.raises(TypeError, match="NormalMeans.stats_width must be a positive int"):
        make_pool(transport, NormalMeans(), subsets)
    with pytest.raises(TypeError, match="NormalMeans.stats_width must be a positive int"):
        run_dem(RunConfig(K=2, transport=transport), NormalMeans(), subsets, THETA0)
    assert threading.active_count() == threads
