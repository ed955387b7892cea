import copy
import math
import sys
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
from conftest import local_kl, point_bytes, random_sample, random_theta, theta_bytes


# -- independent oracles -----------------------------------------------------


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
    np.testing.assert_array_equal(a._acc.value(), b._acc.value())
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
    assert np.array_equal(whole._acc.value(), combined._acc.value())
    assert (whole.m, whole.n) == (combined.m, combined.n)


@pytest.mark.parametrize("q", [3, 6])
def test_stacked_esteps_match_one_shard_each(q):
    """One local_esteps batch over shards of 1, 2, 3, 4, 5, 8 and 10 samples
    gives each shard bitwise the statistics local_estep gives it alone,
    header included, at two parameter points."""
    rng = np.random.default_rng(40 + q)
    p = 4
    model = LmmModel(p, q)
    sizes = (1, 2, 3, 4, 5, 8, 10)
    shards = [model.prepare([random_sample(rng, p, q) for _ in range(m)]) for m in sizes]
    ids = [7 * k + 1 for k in range(len(sizes))]
    for theta in (random_theta(rng, p, q), random_theta(rng, p, q)):
        batch = model.local_esteps(theta, shards, ids, 5)
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


def test_model_keeps_no_per_call_state(small_dataset):
    samples, _ = small_dataset
    model = LmmModel(4, 3)
    before = copy.deepcopy(vars(model))
    subsets = partition(samples, 4, seed=0)
    _, tr = run_dem(RunConfig(K=4, gamma=0.5, seed=1), model, subsets,
                    Theta.default_start(4, 3))
    assert check_monotone_F(tr, model, subsets) == []
    assert vars(model) == before
    # a shard holds its data and, once summed, const_sum; E steps and
    # logliks leave nothing else in it
    shard = model.prepare(subsets[0])
    data = dict(vars(shard))
    for theta in tr.thetas:
        model.local_loglik(theta, shard)
        model.local_estep(theta, shard)
    assert set(vars(shard)) == set(data) | {"const_sum"}
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
    sum_rows = DDArray.sum_rows.__func__

    def recording_sum_rows(cls, rows, lo=None):
        widths.append(rows.shape[1])
        return sum_rows(cls, rows, lo)

    monkeypatch.setattr(DDArray, "sum_rows", classmethod(recording_sum_rows))
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
        assert np.array_equal(again._acc.hi, a.payload._acc.hi)
        assert np.array_equal(again._acc.lo, a.payload._acc.lo)
        assert sorted(widths) == [fresh_width, fresh_width, const_width]
        b = model.local_estep(theta, subset)
        sa, sb = a.payload, b.payload
        assert np.array_equal(sa._acc.hi, sb._acc.hi)
        assert np.array_equal(sa._acc.lo, sb._acc.lo)
        assert (sa.m, sa.n, sa.loglik) == (sb.m, sb.n, sb.loglik)
        assert (sa.m, sa.n) == (len(subset), sum(s.n_obs for s in subset))
        # reference: the data-only statistics summed from the samples, then
        # every column summed in one pass over one-sample rows
        ref_const = DDArray.sum_rows(np.array(
            [np.concatenate([[s.y @ s.y], s.X.T @ s.y, (s.X.T @ s.X).ravel()]) for s in subset]
        ).reshape(len(subset), const_width))
        assert np.array_equal(sa._acc.hi[:const_width], ref_const.hi)
        assert np.array_equal(sa._acc.lo[:const_width], ref_const.lo)
        one_rows = [model.local_estep(theta, [s]).payload._acc.hi for s in subset]
        ref = DDArray.sum_rows(np.array(one_rows).reshape(len(subset), sa._acc.hi.size))
        assert np.array_equal(sa._acc.hi, ref.hi)
        assert np.array_equal(sa._acc.lo, ref.lo)


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


@pytest.mark.parametrize("extra", [2, -3], ids=["two_long", "three_short"])
def test_unpack_stats_rejects_a_payload_of_the_wrong_length(extra):
    # p=q=3: 2 header values and two 28-word accumulator halves
    rng = np.random.default_rng(16)
    model = LmmModel(3, 3)
    st = model.local_estep(random_theta(rng, 3, 3), [random_sample(rng, 3, 3)]).payload
    packed = st.pack()
    arr = np.concatenate([packed, np.zeros(extra)]) if extra > 0 else packed[:extra]
    with pytest.raises(ProtocolError, match=f"^subset 4: statistics payload of "
                                            f"{len(arr)} values, expected 58$"):
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
        - 0.5 * stats.m * 2.0 * np.sum(np.log(np.diag(theta.L)))
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
