import copy
import math
import sys
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.integrate import quad
from scipy.special import logsumexp
from scipy.stats import multivariate_normal, norm

from demfit import (
    LmmModel,
    NumericalDomainError,
    ProtocolError,
    RankDeficiencyError,
    RunConfig,
    Sample,
    Theta,
    check_monotone_F,
    partition,
    run_dem,
)
from demfit import lmm
from demfit.ddsum import DDArray
from demfit.lmm import LmmShard, theta_to_vec, vec_to_theta
from demfit.model import EStepBatch
from demfit.transport import make_pool
from conftest import local_kl, point_bytes, random_sample, random_theta, theta_bytes


# -- independent oracles -----------------------------------------------------


def full_acc(stats):
    """Both accumulators of an LmmSuffStats as one DDArray: the data-only
    words, then the theta-dependent ones."""
    parts = (stats.static.acc, stats._acc)
    return DDArray._wrap(*(np.concatenate([getattr(a, w) for a in parts]) for w in ("hi", "lo")))


def posterior_oracle(theta, s):
    """Condition the joint Gaussian of (y, b) directly; no Woodbury."""
    D, tau2 = theta.D, theta.tau2
    Vy = tau2 * (s.Z @ D @ s.Z.T + np.eye(s.n_obs))
    Cby = tau2 * D @ s.Z.T
    r = s.y - s.X @ theta.beta
    sol = np.linalg.solve(Vy, r)
    b_hat = Cby @ sol
    C_hat = tau2 * D - Cby @ np.linalg.solve(Vy, Cby.T)
    return b_hat, C_hat


def loglik_oracle(theta, samples):
    """Dense-covariance marginal density, no determinant lemma."""
    total = 0.0
    for s in samples:
        W = theta.tau2 * (s.Z @ theta.D @ s.Z.T + np.eye(s.n_obs))
        total += multivariate_normal.logpdf(s.y, mean=s.X @ theta.beta, cov=W)
    return total


# -- posterior moments -------------------------------------------------------


def test_posterior_moments_match_joint_conditioning():
    rng = np.random.default_rng(7)
    for _ in range(100):
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        model = LmmModel(p, q)
        theta = random_theta(rng, p, q)
        s = random_sample(rng, p, q)
        b_hat, C_hat = model.posterior_moments(theta, s)
        b_ref, C_ref = posterior_oracle(theta, s)
        np.testing.assert_allclose(b_hat, b_ref, atol=1e-10)
        np.testing.assert_allclose(C_hat, C_ref, atol=1e-10)


def test_posterior_scalar_example():
    # one observation, z = 1, D = 1, tau2 = 1, residual 1:
    # precision A = 1 + 1, so mean 1/2 and variance 1/2
    model = LmmModel(1, 1)
    theta = Theta(np.zeros(1), np.eye(1), 1.0)
    s = Sample(y=[1.0], X=[[0.0]], Z=[[1.0]])
    b_hat, C_hat = model.posterior_moments(theta, s)
    assert b_hat[0] == pytest.approx(0.5, abs=1e-14)
    assert C_hat[0, 0] == pytest.approx(0.5, abs=1e-14)


def test_local_loglik_matches_dense_oracle():
    rng = np.random.default_rng(8)
    for _ in range(25):
        p, q = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        model = LmmModel(p, q)
        theta = random_theta(rng, p, q)
        samples = [random_sample(rng, p, q) for _ in range(4)]
        assert model.local_loglik(theta, samples) == pytest.approx(
            loglik_oracle(theta, samples), rel=1e-10
        )


def test_local_loglik_monte_carlo_oracle():
    rng = np.random.default_rng(9)
    model = LmmModel(2, 2)
    theta = random_theta(rng, 2, 2)
    s = random_sample(rng, 2, 2, n_i=3)
    draws = rng.multivariate_normal(np.zeros(2), theta.Sigma, size=400_000)
    mean = s.X @ theta.beta + draws @ s.Z.T
    logdens = norm.logpdf(s.y, loc=mean, scale=math.sqrt(theta.tau2)).sum(axis=1)
    mc = logsumexp(logdens) - math.log(draws.shape[0])
    assert model.local_loglik(theta, [s]) == pytest.approx(mc, abs=0.02)


def test_local_loglik_uncentered_response():
    # a response far from zero with a small residual: r'r must come from
    # the residual itself, not from y'y - 2 beta'X'y + beta'X'X beta
    rng = np.random.default_rng(23)
    model = LmmModel(3, 2)
    theta0 = random_theta(rng, 3, 2)
    theta = Theta(1e5 * theta0.beta, theta0.L, theta0.tau2)
    samples = []
    for _ in range(6):
        s = random_sample(rng, 3, 2, n_i=5)
        y = s.X @ theta.beta + 2.0 * rng.standard_normal(5)
        samples.append(Sample(y=y, X=s.X, Z=s.Z))
    assert model.local_loglik(theta, samples) == pytest.approx(
        loglik_oracle(theta, samples), rel=1e-10
    )


# -- KL term -----------------------------------------------------------------


def test_kl_zero_at_same_anchor_and_nonnegative():
    rng = np.random.default_rng(10)
    model = LmmModel(2, 2)
    subset = [random_sample(rng, 2, 2) for _ in range(3)]
    for _ in range(30):
        theta = random_theta(rng, 2, 2)
        anchor = random_theta(rng, 2, 2)
        assert local_kl(model, theta, theta, subset) == pytest.approx(0.0, abs=1e-10)
        assert local_kl(model, theta, anchor, subset) >= -1e-10


def test_kl_matches_quadrature_q1():
    rng = np.random.default_rng(11)
    model = LmmModel(1, 1)
    theta_a = random_theta(rng, 1, 1)
    theta_b = random_theta(rng, 1, 1)
    s = random_sample(rng, 1, 1, n_i=3)
    ma, Ca = model.posterior_moments(theta_a, s)
    mb, Cb = model.posterior_moments(theta_b, s)
    sa, sb = math.sqrt(Ca[0, 0]), math.sqrt(Cb[0, 0])

    def integrand(x):
        pa = norm.pdf(x, ma[0], sa)
        return pa * (norm.logpdf(x, ma[0], sa) - norm.logpdf(x, mb[0], sb))

    ref, err = quad(integrand, ma[0] - 12 * sa, ma[0] + 12 * sa, limit=200)
    assert err < 1e-9
    assert local_kl(model, theta_b, theta_a, [s]) == pytest.approx(ref, abs=1e-8)


def test_kl_matches_dense_gaussian_formula():
    rng = np.random.default_rng(12)
    model = LmmModel(2, 3)
    theta_a = random_theta(rng, 2, 3)
    theta_b = random_theta(rng, 2, 3)
    subset = [random_sample(rng, 2, 3) for _ in range(4)]
    ref = 0.0
    for s in subset:
        ma, Ca = model.posterior_moments(theta_a, s)
        mb, Cb = model.posterior_moments(theta_b, s)
        Cbi = np.linalg.inv(Cb)
        d = mb - ma
        ref += 0.5 * (
            np.trace(Cbi @ Ca)
            + d @ Cbi @ d
            - 3
            + np.linalg.slogdet(Cb)[1]
            - np.linalg.slogdet(Ca)[1]
        )
    assert local_kl(model, theta_b, theta_a, subset) == pytest.approx(ref, rel=1e-10)


# -- E step / sufficient statistics ------------------------------------------


def test_estep_statistics_definitions():
    rng = np.random.default_rng(13)
    model = LmmModel(2, 2)
    theta = random_theta(rng, 2, 2)
    subset = [random_sample(rng, 2, 2) for _ in range(5)]
    payload = model.local_estep(theta, subset).payload
    st = payload.values()
    S_xx = sum(s.X.T @ s.X for s in subset)
    S_xy = sum(s.X.T @ s.y for s in subset)
    S_bb = np.zeros((2, 2))
    s_bzzb = 0.0
    for s in subset:
        b, C = model.posterior_moments(theta, s)
        B = np.outer(b, b) + C
        S_bb += B
        s_bzzb += float(np.sum((s.Z.T @ s.Z) * B))
    np.testing.assert_allclose(st.S_xx, S_xx, atol=1e-12)
    np.testing.assert_allclose(st.S_xy, S_xy, atol=1e-12)
    np.testing.assert_allclose(st.S_bb, S_bb, atol=1e-12)
    assert st.s_yy == pytest.approx(sum(s.y @ s.y for s in subset), rel=1e-14)
    assert st.s_bzzb == pytest.approx(s_bzzb, rel=1e-12)
    assert payload.n == sum(s.n_obs for s in subset)
    assert payload.m == 5


def test_estep_permutation_invariance_bitwise():
    rng = np.random.default_rng(14)
    model = LmmModel(3, 2)
    theta = random_theta(rng, 3, 2)
    subset = [random_sample(rng, 3, 2) for _ in range(20)]
    a = model.local_estep(theta, subset).payload
    order = rng.permutation(20)
    b = model.local_estep(theta, [subset[i] for i in order]).payload
    np.testing.assert_array_equal(full_acc(a).value(), full_acc(b).value())
    assert a.loglik == b.loglik


def test_batch_composition_bitwise():
    # one call over a subset equals the exact sum of one-sample calls, so a
    # sample's contribution does not depend on which subset it lands in
    rng = np.random.default_rng(24)
    model = LmmModel(3, 3)
    theta = random_theta(rng, 3, 3)
    anchor = random_theta(rng, 3, 3)
    subset = [random_sample(rng, 3, 3) for _ in range(200)]
    assert model.local_loglik(theta, subset) == math.fsum(
        model.local_loglik(theta, [s]) for s in subset
    )
    assert local_kl(model, theta, anchor, subset) == math.fsum(
        local_kl(model, theta, anchor, [s]) for s in subset
    )
    whole = model.local_estep(theta, subset).payload
    combined = model.local_estep(theta, subset[:1]).payload
    for s in subset[1:]:
        combined = combined.combine(model.local_estep(theta, [s]).payload)
    assert np.array_equal(full_acc(whole).value(), full_acc(combined).value())
    assert (whole.m, whole.n) == (combined.m, combined.n)


@pytest.mark.parametrize("q", [3, 6])
def test_stacked_esteps_match_one_shard_each(q):
    """One local_esteps batch over shards of 0, 1, 2, 3, 4, 5, 8, 10, 16 and
    17 samples gives each shard bitwise the statistics local_estep gives it
    alone, header included, at two parameter points.  The batch's tree pads
    every shard to 32 rows, past each shard's own power of two."""
    rng = np.random.default_rng(40 + q)
    p = 4
    model = LmmModel(p, q)
    sizes = (1, 2, 3, 4, 0, 5, 8, 10, 16, 17)
    shards = [model.prepare([random_sample(rng, p, q) for _ in range(m)]) for m in sizes]
    ids = [7 * k + 1 for k in range(len(sizes))]
    for theta in (random_theta(rng, p, q), random_theta(rng, p, q)):
        batch = EStepBatch(model, model.local_esteps(theta, shards), ids, [5] * len(shards),
                           model.static_parts(shards))
        assert len(batch) == len(sizes)
        for shard, k, got in zip(shards, ids, batch):
            want = model.local_estep(theta, shard, k, 5)
            assert (got.subset_id, got.anchor_tag) == (k, 5)
            assert model.pack_stats(got).tobytes() == model.pack_stats(want).tobytes()


@pytest.mark.parametrize("q", [3, 6])
def test_stacked_logliks_match_one_shard_each(q):
    """One local_logliks call over empty, 1-sample and mixed-size shards
    gives each shard bitwise its local_loglik, at two parameter points."""
    rng = np.random.default_rng(60 + q)
    p = 4
    model = LmmModel(p, q)
    sizes = (0, 1, 3, 0, 10, 1, 6)
    shards = [model.prepare([random_sample(rng, p, q) for _ in range(m)]) for m in sizes]
    assert model.local_logliks(random_theta(rng, p, q), []) == []
    for theta in (random_theta(rng, p, q), random_theta(rng, p, q)):
        got = model.local_logliks(theta, shards)
        want = [model.local_loglik(theta, shard) for shard in shards]
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert got[0] == got[3] == 0.0
        # one shard alone, and the samples of a shard as a plain subset
        assert model.local_logliks(theta, shards[2:3]) == want[2:3]
        assert model.local_loglik(theta, [random_sample(rng, p, q)]) != 0.0


# -- the batch-major posterior kernel ------------------------------------------


@pytest.mark.parametrize("q", [1, 2, 3, 6])
def test_posterior_rows_bitwise_alone_stacked_and_in_a_block(q):
    """Each sample's b_hat, Ainv and logdet_A are bitwise the same computed
    alone, inside two shards stacked in either order, and as one row of a
    _Thetas block."""
    rng = np.random.default_rng(80 + q)
    p = 3
    model = LmmModel(p, q)
    samples = [random_sample(rng, p, q) for _ in range(11)]
    first, second = model.prepare(samples[:7]), model.prepare(samples[7:])
    thetas = [random_theta(rng, p, q) for _ in range(3)]
    block = model._posterior(lmm._Thetas.stack(thetas), model._stack([first, second]))
    for row, theta in enumerate(thetas):
        ab = model._posterior(theta, model._stack([first, second]))
        ba = model._posterior(theta, model._stack([second, first]))
        for i, s in enumerate(samples):
            alone = model._posterior(theta, model.prepare([s]))
            for f in ("b_hat", "Ainv", "logdet_A"):
                want = getattr(alone, f)[0].tobytes()
                assert getattr(ab, f)[i].tobytes() == want
                assert getattr(ba, f)[(i - 7) % 11].tobytes() == want
                assert getattr(block, f)[row, i].tobytes() == want


def _with_precisions(model, shard, ZZ):
    """A hand-built copy of shard whose Z'Z blocks are ZZ."""
    rows = shard.rows.copy()
    rows[:, lmm._kernel_layout(model.p, model.q)["ZZ"]] = np.reshape(ZZ, (len(ZZ), -1))
    return LmmShard(rows, model.p, model.q, shard.n_total, shard.const)


@pytest.mark.parametrize("q", [1, 2, 3, 6])
def test_posterior_matches_lapack_inverse_solve_and_slogdet(q):
    """Against np.linalg.inv, solve and slogdet of the precision A the kernel
    formed.  Ill-conditioning that comes from the scale of the random
    effects, up to cond(A) = 1e8, leaves 1e-12 relative.  A rotated spectrum
    of cond(A) = 1e8 costs any backward-stable inverse about cond(A) * eps,
    LAPACK's included, and the two agree to that."""
    rng = np.random.default_rng(70 + q)
    p = 3
    model = LmmModel(p, q)
    # D = 1e8 I, so A is Z'Z but for 1e-8 on its diagonal
    theta = Theta.from_cov(rng.standard_normal(p), 1e8 * np.eye(q), 1.7)
    for cond in (1e2, 1e5, 1e8):
        W = rng.standard_normal((12, q, 3 * q))
        scaled = W @ W.swapaxes(-1, -2) / (3 * q) + np.eye(q)
        scale = np.sqrt(np.geomspace(1.0, cond, q))
        scaled *= scale[:, None] * scale[None, :]
        Q = np.linalg.qr(rng.standard_normal((12, q, q)))[0]
        rotated = (Q * np.geomspace(1.0, cond, q)) @ Q.swapaxes(-1, -2)
        rotated = 0.5 * (rotated + rotated.swapaxes(-1, -2))
        for ZZ, tol in ((scaled, 1e-12), (rotated, 1e-15 * cond)):
            shard = model.prepare([random_sample(rng, p, q) for _ in ZZ])
            post = model._posterior(theta, _with_precisions(model, shard, ZZ))
            inv = np.linalg.inv(post.A)
            sign, logdet = np.linalg.slogdet(post.A)
            b = np.linalg.solve(post.A, post.ztr[..., None])[..., 0]
            assert (sign == 1).all()
            assert (np.linalg.norm(post.Ainv - inv, axis=(1, 2))
                    <= tol * np.linalg.norm(inv, axis=(1, 2))).all()
            assert (np.linalg.norm(post.b_hat - b, axis=1)
                    <= tol * np.linalg.norm(b, axis=1)).all()
            assert (abs(post.logdet_A - logdet) <= tol * np.maximum(1.0, abs(logdet))).all()


def test_posterior_rejects_a_precision_not_positive_definite(monkeypatch):
    """A sample whose Z holds NaN, and a hand-built shard whose Z'Z is
    indefinite, each raise the kernel's NumericalDomainError from
    local_esteps, local_logliks and free_energy_path, the last at blocks of
    1, 2 and 3 rows and at the default block, with no RuntimeWarning."""
    rng = np.random.default_rng(90)
    p, q = 3, 3
    samples = [random_sample(rng, p, q) for _ in range(6)]
    Z = samples[2].Z.copy()
    Z[0, 1] = np.nan
    with_nan = [*samples[:2], Sample(samples[2].y, samples[2].X, Z), *samples[3:]]
    indefinite = np.array([[1.0, 10.0, 0.0], [10.0, 1.0, 0.0], [0.0, 0.0, 1.0]])

    class IndefiniteModel(LmmModel):
        """Prepares every subset as a shard whose last Z'Z is indefinite."""

        def prepare(self, subset):
            good = super().prepare(subset)
            ZZ = good.ZZ.copy()
            ZZ[-1] = indefinite
            return _with_precisions(self, good, ZZ)

    thetas = [random_theta(rng, p, q) for _ in range(4)]
    tags = [[0, 0], [0, 1], [1, 1], [2, 1]]
    message = "posterior precision not positive definite"
    for model, data in ((LmmModel(p, q), with_nan), (IndefiniteModel(p, q), samples)):
        subsets = [data[:3], data[3:]]
        shards = [model.prepare(s) for s in subsets]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalDomainError, match=message):
                model.local_esteps(thetas[0], shards)
            with pytest.raises(NumericalDomainError, match=message):
                model.local_logliks(thetas[0], shards)
            for rows in (None, 1, 2, 3):
                if rows:
                    monkeypatch.setattr(lmm, "BLOCK", rows * len(data))
                with pytest.raises(NumericalDomainError, match=message):
                    model.free_energy_path(thetas, tags, subsets)
            monkeypatch.undo()


def test_model_keeps_no_per_call_state(small_dataset):
    samples, _ = small_dataset
    model = LmmModel(4, 3)
    before = copy.deepcopy(vars(model))
    subsets = partition(samples, 4, seed=0)
    _, tr = run_dem(RunConfig(K=4, gamma=0.5, seed=1), model, subsets,
                    Theta.default_start(4, 3))
    assert check_monotone_F(tr, model, subsets) == []
    assert vars(model) == before
    # a shard holds its data and, once summed, its static part; E steps
    # and logliks leave nothing else in it
    shard = model.prepare(subsets[0])
    data = dict(vars(shard))
    for theta in tr.thetas:
        model.local_loglik(theta, shard)
        model.local_estep(theta, shard)
    assert set(vars(shard)) == set(data) | {"static"}
    assert all(vars(shard)[name] is value for name, value in data.items())


def test_audit_prepares_once_and_one_posterior_per_theta(small_dataset, monkeypatch):
    # a "finish" run delivers E steps at tags that no subset holds at the
    # rows in between, so a posterior kept until its last reference would
    # outlive the rows that refer to it
    samples, _ = small_dataset
    subsets = partition(samples, 8, seed=0)
    _, tr = run_dem(RunConfig(K=8, gamma=0.25, seed=3, completion="finish"), LmmModel(4, 3),
                    subsets, Theta.default_start(4, 3))
    assert tr.max_staleness >= 2

    class CountingModel(LmmModel):
        def __init__(self, p, q):
            super().__init__(p, q)
            self.prepared, self.calls, self.held, self.alive = 0, [], [], []

        def prepare(self, subset):
            self.prepared += 1
            return super().prepare(subset)

        def _posterior(self, theta, shard):
            # count the earlier calls' posteriors still reachable from the audit
            self.held.append(sum(any(ref() is not None for ref in refs) for refs in self.alive))
            post = super()._posterior(theta, shard)
            self.calls.append((point_bytes(theta), len(shard)))
            self.alive.append([weakref.ref(x) for x in post])
            return post

    # the default block, then blocks of 1, 2 and 3 rows
    for per_block in (None, 1, 2, 3):
        if per_block:
            monkeypatch.setattr(lmm, "BLOCK", per_block * len(samples))
        rows = max(1, lmm.BLOCK // len(samples))
        model = CountingModel(4, 3)
        assert check_monotone_F(tr, model, subsets) == []
        assert model.prepared == 1
        # each block of rows is one call over every sample, and each theta
        # enters exactly one call, in row order
        assert [n for _, n in model.calls] == [len(samples)] * -(-len(tr.thetas) // rows)
        assert [p for points, _ in model.calls for p in points] == list(
            map(theta_bytes, tr.thetas))
        assert all(len(points) == rows for points, _ in model.calls[:-1])
        # at most one block's posteriors are alive: each block's are gone
        # before the next block's are computed
        assert model.held == [0] * len(model.calls)


def test_moments_computed_concurrently():
    # a model may be shared between threads (SocketPool serves every worker
    # from its own thread), so fresh samples can get their data moments
    # computed by several threads at once
    rng = np.random.default_rng(25)
    model = LmmModel(3, 2)
    theta = random_theta(rng, 3, 2)
    base = [random_sample(rng, 3, 2) for _ in range(50)]
    expected = model.local_loglik(theta, base)
    fresh = [Sample(y=s.y, X=s.X, Z=s.Z) for s in base]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(model.local_loglik, theta, fresh) for _ in range(8)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected] * 8


def test_shard_matches_samples_bitwise(monkeypatch):
    """A shard gives bitwise what the plain list it was prepared from gives.
    Its E step sums the data-only columns once per shard, and only the E
    step pays for that sum."""
    rng = np.random.default_rng(26)
    p, q = 3, 2
    model = LmmModel(p, q)
    theta = random_theta(rng, p, q)
    anchor = random_theta(rng, p, q)
    samples = [random_sample(rng, p, q) for _ in range(9)]
    const_width, fresh_width = 1 + p + p * p, p + q * q + 3
    widths = []
    sum_segments = DDArray.sum_segments.__func__

    def recording_sum_segments(cls, rows, lengths):
        # every compensated tree, sum_rows included, is a sum_segments call
        widths.append(rows.shape[1])
        return sum_segments(cls, rows, lengths)

    monkeypatch.setattr(DDArray, "sum_segments", classmethod(recording_sum_segments))
    # an empty subset, one sample, and all samples in one subset (K=1)
    for subset in ([], samples[:1], samples):
        shard = model.prepare(subset)
        assert isinstance(shard, LmmShard) and len(shard) == len(subset)
        widths.clear()
        assert model.local_loglik(theta, shard) == model.local_loglik(theta, subset)
        assert local_kl(model, theta, anchor, shard) == local_kl(model, theta, anchor, subset)
        assert model.free_energy_path([anchor, theta], [[0], [0]], [subset])[-1] == [
            -local_kl(model, theta, anchor, shard) + model.local_loglik(theta, shard)
        ]
        if subset:
            model.posterior_moments(theta, subset[0])
        assert widths == []
        a = model.local_estep(theta, shard)
        again = model.local_estep(theta, shard).payload
        assert np.array_equal(full_acc(again).hi, full_acc(a.payload).hi)
        assert np.array_equal(full_acc(again).lo, full_acc(a.payload).lo)
        assert sorted(widths) == [fresh_width, fresh_width, const_width]
        b = model.local_estep(theta, subset)
        sa, sb = a.payload, b.payload
        assert np.array_equal(full_acc(sa).hi, full_acc(sb).hi)
        assert np.array_equal(full_acc(sa).lo, full_acc(sb).lo)
        assert (sa.m, sa.n, sa.loglik) == (sb.m, sb.n, sb.loglik)
        assert (sa.m, sa.n) == (len(subset), sum(s.n_obs for s in subset))
        # reference: the data-only statistics summed from the samples, then
        # every column summed in one pass over one-sample rows
        ref_const = DDArray.sum_rows(np.array(
            [np.concatenate([[s.y @ s.y], s.X.T @ s.y, (s.X.T @ s.X).ravel()]) for s in subset]
        ).reshape(len(subset), const_width))
        assert np.array_equal(full_acc(sa).hi[:const_width], ref_const.hi)
        assert np.array_equal(full_acc(sa).lo[:const_width], ref_const.lo)
        one_rows = [full_acc(model.local_estep(theta, [s]).payload).hi for s in subset]
        ref = DDArray.sum_rows(np.array(one_rows).reshape(len(subset), full_acc(sa).hi.size))
        assert np.array_equal(full_acc(sa).hi, ref.hi)
        assert np.array_equal(full_acc(sa).lo, ref.lo)


def test_rss_exp_matches_direct_expectation():
    # E||y - X beta - Z b||^2 under the posterior, recomputed directly
    rng = np.random.default_rng(15)
    model = LmmModel(2, 2)
    theta = random_theta(rng, 2, 2)
    subset = [random_sample(rng, 2, 2) for _ in range(4)]
    st = model.local_estep(theta, subset).payload.values()
    beta_new = rng.standard_normal(2)
    ref = 0.0
    for s in subset:
        b, C = model.posterior_moments(theta, s)
        r = s.y - s.X @ beta_new - s.Z @ b
        ref += float(r @ r + np.sum((s.Z.T @ s.Z) * C))
    assert st.rss_exp(beta_new) == pytest.approx(ref, rel=1e-10)


def test_stats_pack_unpack_roundtrip():
    rng = np.random.default_rng(16)
    model = LmmModel(2, 3)
    theta = random_theta(rng, 2, 3)
    st = model.local_estep(theta, [random_sample(rng, 2, 3) for _ in range(3)]).payload
    rt = model.unpack_stats(st.pack(), subset_id=0, anchor_tag=0).payload
    np.testing.assert_array_equal(rt._acc.hi, st._acc.hi)
    np.testing.assert_array_equal(rt._acc.lo, st._acc.lo)
    assert (rt.m, rt.n, rt.loglik) == (st.m, st.n, st.loglik)


def test_packed_stats_are_private():
    """Writing over what pack_stats returns changes nothing else: not the
    result, its loglik, a second pack_stats of it or the results that
    share its E-step batch."""
    rng = np.random.default_rng(29)
    model = LmmModel(4, 3)
    shards = [model.prepare([random_sample(rng, 4, 3) for _ in range(m)]) for m in (3, 1, 4)]
    batch = EStepBatch(model, model.local_esteps(random_theta(rng, 4, 3), shards), [0, 1, 2],
                       [0, 0, 0], model.static_parts(shards))
    before = [(model.pack_stats(r).tobytes(), r.payload.loglik) for r in batch]
    packed = model.pack_stats(batch[1])
    packed[:] = np.nan
    after = [(model.pack_stats(r).tobytes(), r.payload.loglik) for r in batch]
    assert after == before
    assert batch[1].payload.row.tobytes() == before[1][0]


@pytest.mark.parametrize("transport", ["in_process", "socket"])
def test_result_loglik_is_its_last_word_rounded(transport):
    """Every result's loglik is its last hi + lo word rounded once, bitwise,
    whether the batch's block or a reply frame holds the result."""
    rng = np.random.default_rng(30)
    p, q = 4, 3
    model = LmmModel(p, q)
    subsets = [[random_sample(rng, p, q) for _ in range(m)] for m in (1, 2, 5, 3, 8)]
    pool = make_pool(transport, model, subsets)
    try:
        theta = random_theta(rng, p, q)
        results = pool.esteps([(k, theta, 0) for k in range(len(subsets))])
    finally:
        pool.close()
    for k, got in enumerate(results):
        want = model.local_estep(theta, subsets[k]).payload
        acc = got.payload._acc
        assert np.float64(got.payload.loglik).tobytes() == \
            np.float64(float(acc.hi[-1] + acc.lo[-1])).tobytes()
        assert np.float64(got.payload.loglik).tobytes() == np.float64(want.loglik).tobytes()
        assert (got.payload.m, got.payload.n) == (want.m, want.n)


@pytest.mark.parametrize("extra", [2, -3], ids=["two_long", "three_short"])
def test_unpack_stats_rejects_a_payload_of_the_wrong_length(extra):
    # p=q=3: 2 header values and the two 15-word halves of the
    # theta-dependent accumulator
    rng = np.random.default_rng(16)
    model = LmmModel(3, 3)
    st = model.local_estep(random_theta(rng, 3, 3), [random_sample(rng, 3, 3)]).payload
    packed = st.pack()
    arr = np.concatenate([packed, np.zeros(extra)]) if extra > 0 else packed[:extra]
    with pytest.raises(ProtocolError, match=f"^subset 4: statistics payload of "
                                            f"{len(arr)} values, expected 32$"):
        model.unpack_stats(arr, subset_id=4, anchor_tag=0)


# -- CM steps ------------------------------------------------------------------


def test_cm_is_argmax_of_q():
    from scipy.optimize import minimize

    rng = np.random.default_rng(17)
    model = LmmModel(2, 1)
    theta = random_theta(rng, 2, 1)
    agg = model.local_estep(theta, [random_sample(rng, 2, 1) for _ in range(12)])
    theta_cm = model.cm_steps(agg, theta)
    u_cm = theta_to_vec(theta_cm)

    def neg_q(u):
        return -model.q_value(agg.payload, vec_to_theta(u, 2, 1))

    res = minimize(neg_q, u_cm + 0.05, method="BFGS",
                   options={"gtol": 1e-12, "maxiter": 500})
    np.testing.assert_allclose(res.x, u_cm, atol=1e-6)
    assert neg_q(u_cm) <= res.fun + 1e-10


def test_cm_increases_q():
    rng = np.random.default_rng(18)
    model = LmmModel(2, 2)
    theta = random_theta(rng, 2, 2)
    agg = model.local_estep(theta, [random_sample(rng, 2, 2) for _ in range(10)])
    theta_new = model.cm_steps(agg, theta)
    assert model.q_value(agg.payload, theta_new) >= model.q_value(agg.payload, theta)
    # there is one CM step: the model takes no order setting
    with pytest.raises(TypeError):
        LmmModel(2, 2, cm_order="ecm")


def _reference_cm_steps(stats):
    """cm_steps through scipy's cho_factor/cho_solve."""
    v = stats.values()
    c = sla.cho_factor(v.S_xx, lower=True, check_finite=False)
    beta = sla.cho_solve(c, v.S_xy - v.S_xzb, check_finite=False)
    tau2 = v.rss_exp(beta) / stats.n
    return Theta.from_cov(beta, v.S_bb / (stats.m * tau2), tau2)


def _reference_q_value(model, stats, theta):
    v = stats.values()
    Dinv = sla.cho_solve((theta.L, True), np.eye(model.q), check_finite=False)
    return (
        -0.5 * (stats.n + model.q * stats.m) * math.log(2.0 * math.pi * theta.tau2)
        - 0.5 * stats.m * 2.0 * math.fsum(np.log(np.diag(theta.L)))
        - 0.5 * (v.rss_exp(theta.beta) + float(np.sum(Dinv * v.S_bb))) / theta.tau2
    )


def test_cm_steps_and_q_value_match_scipy_cholesky():
    # the direct LAPACK calls give bitwise what cho_factor/cho_solve give
    rng = np.random.default_rng(23)
    model = LmmModel(4, 3)
    for _ in range(10):
        theta = random_theta(rng, 4, 3)
        agg = model.local_estep(theta, [random_sample(rng, 4, 3) for _ in range(8)])
        stats = agg.payload
        got = model.cm_steps(agg, theta)
        ref = _reference_cm_steps(stats)
        np.testing.assert_array_equal(got.beta, ref.beta)
        np.testing.assert_array_equal(got.L, ref.L)
        assert got.tau2 == ref.tau2
        for th in (theta, got):
            assert model.q_value(stats, th) == _reference_q_value(model, stats, th)


def test_minorization():
    # Q(theta'|theta) - Q(theta|theta) <= L(theta') - L(theta)
    rng = np.random.default_rng(19)
    model = LmmModel(2, 2)
    subset = [random_sample(rng, 2, 2) for _ in range(6)]
    for _ in range(20):
        theta = random_theta(rng, 2, 2)
        other = random_theta(rng, 2, 2)
        st = model.local_estep(theta, subset).payload
        dq = model.q_value(st, other) - model.q_value(st, theta)
        dl = model.local_loglik(other, subset) - model.local_loglik(theta, subset)
        assert dq <= dl + 1e-9


def test_cm_rank_deficiency():
    theta = Theta(np.zeros(2), np.eye(1), 1.0)
    # duplicate X columns -> singular S_xx
    s = Sample(y=[1.0, 2.0], X=[[1.0, 1.0], [2.0, 2.0]], Z=[[1.0], [1.0]])
    model = LmmModel(2, 1)
    agg = model.local_estep(theta, [s])
    with pytest.raises(RankDeficiencyError, match="collinear"):
        model.cm_steps(agg, theta)


# -- parameter plumbing --------------------------------------------------------


def test_theta_vec_roundtrip():
    rng = np.random.default_rng(20)
    theta = random_theta(rng, 3, 3)
    rt = vec_to_theta(theta_to_vec(theta), 3, 3)
    np.testing.assert_allclose(rt.beta, theta.beta, rtol=1e-14)
    np.testing.assert_allclose(rt.L, theta.L, rtol=1e-13)
    assert rt.tau2 == pytest.approx(theta.tau2, rel=1e-14)


def test_theta_wire_roundtrip():
    rng = np.random.default_rng(21)
    model = LmmModel(3, 2)
    theta = random_theta(rng, 3, 2)
    rt = model.unpack_theta(model.pack_theta(theta))
    np.testing.assert_array_equal(rt.beta, theta.beta)
    np.testing.assert_array_equal(rt.L, theta.L)
    assert rt.tau2 == theta.tau2
    # 3 + 3 + 1 values: a value more or less is not a parameter
    packed = model.pack_theta(theta)
    for arr in (packed[:-1], np.append(packed, 1.0)):
        with pytest.raises(ProtocolError, match=f"^parameter of {len(arr)} values, expected 7$"):
            model.unpack_theta(arr)


def test_theta_validation():
    with pytest.raises(NumericalDomainError, match="tau2 must be positive, got -1.0"):
        Theta(np.zeros(1), np.eye(1), -1.0)
    with pytest.raises(NumericalDomainError, match="tau2 must be positive, got nan"):
        Theta(np.zeros(1), np.eye(1), np.nan)
    with pytest.raises(NumericalDomainError, match="lower triangular"):
        Theta(np.zeros(1), np.array([[1.0, 0.5], [0.0, 1.0]]), 1.0)
    upper = np.eye(3)
    upper[0, 2] = 0.5
    with pytest.raises(NumericalDomainError, match="lower triangular"):
        Theta(np.zeros(1), upper, 1.0)
    with pytest.raises(NumericalDomainError, match="positive diagonal"):
        Theta(np.zeros(1), -np.eye(2), 1.0)
    zero_diag = np.eye(3)
    zero_diag[1, 1] = 0.0
    with pytest.raises(NumericalDomainError, match="positive diagonal"):
        Theta(np.zeros(1), zero_diag, 1.0)
    with pytest.raises(NumericalDomainError, match="non-finite parameter values"):
        Theta(np.array([np.nan]), np.eye(1), 1.0)
    inf_L = np.eye(2)
    inf_L[1, 0] = np.inf
    with pytest.raises(NumericalDomainError, match="non-finite parameter values"):
        Theta(np.zeros(1), inf_L, 1.0)
    with pytest.raises(NumericalDomainError, match="L must be square"):
        Theta(np.zeros(1), np.ones((2, 3)), 1.0)
    with pytest.raises(NumericalDomainError):
        Theta.from_cov(np.zeros(1), np.array([[1.0, 2.0], [2.0, 1.0]]), 1.0)


@pytest.mark.parametrize("D", [
    [[1.0, 2.0], [2.0, 1.0]],  # indefinite
    [[1.0, 1.0], [1.0, 1.0]],  # singular
    [[0.0, 0.0], [0.0, 0.0]],
    [[np.nan, 0.0], [0.0, 1.0]],
    [[1.0, 0.0], [np.nan, 1.0]],
], ids=["indefinite", "singular", "zero", "nan_diagonal", "nan_below"])
def test_from_cov_rejects_a_d_without_a_cholesky_factor(D):
    with pytest.raises(NumericalDomainError):
        Theta.from_cov(np.zeros(1), np.array(D), 1.0)


def test_from_cov_factor_is_lower_triangular():
    """The factor has a zero upper triangle, whatever D holds above its
    diagonal, and D = L L' to rounding."""
    rng = np.random.default_rng(28)
    for q in (1, 2, 3, 6):
        A = rng.standard_normal((q, q))
        D = A @ A.T + q * np.eye(q)
        theta = Theta.from_cov(np.zeros(2), D, 1.5)
        assert not theta.L[np.triu_indices(q, 1)].any()
        np.testing.assert_allclose(theta.D, D, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(theta.L, np.linalg.cholesky(D), rtol=1e-13, atol=1e-15)
        upper = D.copy()
        upper[np.triu_indices(q, 1)] = np.nan
        assert Theta.from_cov(np.zeros(2), upper, 1.5).L.tobytes() == theta.L.tobytes()


def test_theta_is_immutable():
    rng = np.random.default_rng(27)
    beta = rng.standard_normal(3)
    L = np.linalg.cholesky(np.array([[2.0, 0.5], [0.5, 1.0]]))
    theta = Theta(beta, L, 1.5)
    beta0, L0, Dinv0 = beta.copy(), L.copy(), theta.Dinv.copy()
    beta[0] += 1.0
    L[1, 1] *= 2.0
    np.testing.assert_array_equal(theta.beta, beta0)
    np.testing.assert_array_equal(theta.L, L0)
    np.testing.assert_array_equal(theta.Dinv, Dinv0)
    np.testing.assert_array_equal(Theta(beta0, L0, 1.5).Dinv, Dinv0)
    for arr in (theta.beta, theta.L, theta.Dinv, theta.resid_coef):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


@pytest.mark.parametrize("q", [1, 2, 3, 6])
def test_theta_derived_terms_match_their_formulas(q):
    """Dinv, resid_coef, logdet_D and log_2pi_tau2 are bitwise what scipy's
    cho_solve, np.append, np.diag and the math module give."""
    rng = np.random.default_rng(31 + q)
    for _ in range(20):
        theta = random_theta(rng, 5, q)
        fresh = Theta(theta.beta, theta.L, theta.tau2)
        for t in (theta, fresh):
            want_Dinv = sla.cho_solve((t.L, True), np.eye(q))
            assert t.Dinv.tobytes() == want_Dinv.tobytes()
            assert t.resid_coef.tobytes() == np.append(-t.beta, 1.0).tobytes()
            want_logdet = 2.0 * math.fsum(np.log(np.diag(t.L)))
            assert np.float64(t.logdet_D).tobytes() == np.float64(want_logdet).tobytes()
            want_log = math.log(2.0 * math.pi * t.tau2)
            assert np.float64(t.log_2pi_tau2).tobytes() == np.float64(want_log).tobytes()
            # computed once: the same objects come back
            assert t.Dinv is t.Dinv and t.resid_coef is t.resid_coef


def test_theta_validation_order():
    """A point with several faults is reported by the first check it
    fails: finiteness, tau2, squareness, the upper triangle, the
    diagonal.  An empty L, and lists, are accepted as read-only copies."""
    upper_nan = np.eye(2)
    upper_nan[0, 1] = np.nan
    cases = [
        ((np.array([np.nan]), np.ones((2, 3)), -1.0), "non-finite parameter values"),
        ((np.zeros(1), upper_nan, 1.0), "non-finite parameter values"),
        ((np.zeros(1), np.ones((2, 3)), -1.0), "tau2 must be positive"),
        ((np.zeros(1), -np.ones((2, 3)), 1.0), "L must be square"),
        ((np.zeros(1), -np.ones((2, 2)), 1.0), "lower triangular"),
        ((np.zeros(1), np.zeros((0, 0)), 1.0), None),
        (([0.5, 1.5], [[1.0, 0.0], [2.0, 3.0]], 2), None),
    ]
    for args, message in cases:
        if message is None:
            theta = Theta(*args)
            assert theta.beta.flags.writeable is False and theta.L.flags.writeable is False
            assert isinstance(theta.tau2, float)
        else:
            with pytest.raises(NumericalDomainError, match=message):
                Theta(*args)


def test_sample_validation():
    with pytest.raises(ValueError, match="row mismatch"):
        Sample(y=[1.0, 2.0], X=[[1.0]], Z=[[1.0]])
    with pytest.raises(ValueError):
        Sample(y=[], X=np.empty((0, 1)), Z=np.empty((0, 1)))


def test_loglik_scale_consistency():
    # scaling y, X residual structure by c scales the quadratic form by c^2:
    # with tau2 scaled by c^2 the loglik changes only by the normalizing term
    rng = np.random.default_rng(22)
    model = LmmModel(2, 2)
    theta = random_theta(rng, 2, 2)
    s = random_sample(rng, 2, 2, n_i=4)
    c = 3.0
    s2 = Sample(y=c * s.y, X=c * s.X, Z=c * s.Z)
    # dividing Z's effect: keep D/tau2 fixed requires Z unscaled; use dense oracle
    assert model.local_loglik(theta, [s2]) == pytest.approx(
        loglik_oracle(theta, [s2]), rel=1e-10
    )
