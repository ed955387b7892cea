"""Acceptance suite.

One test per criterion, each printing a single pass/fail line (visible with
pytest -v as the test outcome; details printed for -s runs). The expensive
shared experiment (several gamma/K settings over replicated datasets) is
built once per session.
"""
import math
import time
from collections import defaultdict, deque

import numpy as np
import pytest

from demfit import (
    LmmModel,
    RunConfig,
    SimDesign,
    Theta,
    check_monotone_F,
    compute_err,
    empirical_gamma,
    information_matrices,
    partition,
    run_dem,
    run_ecme0,
    simulate,
    speed_matrices,
)
from demfit.lmm import theta_to_vec, vec_to_theta


_CAPMAN = None


@pytest.fixture(autouse=True)
def _grab_capture_manager(request):
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")


def _announce(num, detail):
    line = f"criterion {num}: PASS - {detail}"
    if _CAPMAN is not None:
        with _CAPMAN.global_and_fixture_disabled():
            print(f"\n{line}")
    else:
        print(line)


def thetas_identical(a, b):
    return (
        np.array_equal(a.beta, b.beta)
        and np.array_equal(a.L, b.L)
        and a.tau2 == b.tau2
    )


# -- shared experiments --------------------------------------------------------


@pytest.fixture(scope="session")
def equivalence_runs():
    """m=200 / n=2e4 dataset; baseline plus gamma=1 runs for K in {1,5,10}."""
    samples, _ = simulate(SimDesign(m=200, n=20_000, p=10, q=3, seed=101))
    model = LmmModel(10, 3)
    theta0 = Theta.default_start(10, 3)
    t0 = time.perf_counter()
    theta_base, tr_base = run_ecme0(RunConfig(K=1), model, samples, theta0)
    runs = {}
    for K in (1, 5, 10):
        subsets = partition(samples, K, seed=0)
        theta, tr = run_dem(RunConfig(K=K, gamma=1.0), model, subsets, theta0)
        runs[K] = (theta, tr, subsets)
    elapsed = time.perf_counter() - t0
    return {
        "samples": samples,
        "model": model,
        "base": (theta_base, tr_base),
        "runs": runs,
        "elapsed": elapsed,
    }


@pytest.fixture(scope="session")
def ratio_experiment():
    """Five replicated m=500 datasets; ECME0 baseline and DEM over the
    gamma x K grid, with free-energy audits per run."""
    gammas = (0.3, 0.5, 0.7)
    Ks = (10, 20)
    out = {"base": {}, "dem": {}, "violations": 0, "audited": 0}
    t0 = time.perf_counter()
    for rep in range(5):
        samples, _ = simulate(SimDesign(m=500, n=4000, p=10, q=3, seed=200 + rep))
        model = LmmModel(10, 3)
        theta0 = Theta.default_start(10, 3)
        theta_b, tr_b = run_ecme0(RunConfig(K=1), model, samples, theta0)
        assert tr_b.converged
        out["violations"] += len(check_monotone_F(tr_b, model, [samples]))
        out["audited"] += 1
        out["base"][rep] = (theta_b, tr_b)
        for K in Ks:
            subsets = partition(samples, K, seed=rep)
            for gamma in gammas:
                cfg = RunConfig(K=K, gamma=gamma, seed=1000 * rep + K)
                theta, tr = run_dem(cfg, model, subsets, theta0)
                assert tr.converged, f"rep={rep} K={K} gamma={gamma} did not converge"
                out["violations"] += len(check_monotone_F(tr, model, subsets))
                out["audited"] += 1
                out["dem"][(rep, K, gamma)] = (theta, tr)
    out["elapsed"] = time.perf_counter() - t0
    return out


# -- criteria -------------------------------------------------------------------


def test_criterion_1_exact_equivalence(equivalence_runs):
    theta_base, tr_base = equivalence_runs["base"]
    assert tr_base.converged
    for K, (theta, tr, _) in equivalence_runs["runs"].items():
        assert len(tr.thetas) == len(tr_base.thetas), f"K={K}: iteration count differs"
        for t, (a, b) in enumerate(zip(tr.thetas, tr_base.thetas)):
            assert thetas_identical(a, b), f"K={K}: trajectories differ at t={t}"
        assert thetas_identical(theta, theta_base)
    assert equivalence_runs["elapsed"] < 60.0
    _announce(1, f"gamma=1 trajectories bitwise-identical to the baseline for "
                 f"K in (1, 5, 10) in {equivalence_runs['elapsed']:.1f}s")


@pytest.mark.slow
def test_criterion_2_loglik_ratio(ratio_experiment):
    worst = 0.0
    for (rep, K, gamma), (theta, tr) in ratio_experiment["dem"].items():
        base_ll = ratio_experiment["base"][rep][1].final_loglik
        ratio = tr.final_loglik / base_ll
        worst = max(worst, abs(ratio - 1.0))
        assert abs(ratio - 1.0) < 1e-4, f"rep={rep} K={K} gamma={gamma}: {ratio}"
    assert ratio_experiment["elapsed"] < 300.0
    _announce(2, f"30 runs converged; max |loglik ratio - 1| = {worst:.2e}; "
                 f"experiment took {ratio_experiment['elapsed']:.1f}s")


@pytest.mark.slow
def test_criterion_3_parameter_rmse(ratio_experiment):
    worst = 0.0
    for (rep, K, gamma), (theta, _) in ratio_experiment["dem"].items():
        theta_b = ratio_experiment["base"][rep][0]
        err = compute_err(theta, theta_b)
        for value in (err.err_beta, err.err_tau2, err.err_var, err.err_cov):
            assert value < 1e-3, f"rep={rep} K={K} gamma={gamma}: {err}"
            worst = max(worst, value)
    _announce(3, f"all estimate discrepancies vs baseline < 1e-3 (max {worst:.2e})")


@pytest.mark.slow
def test_criterion_4_monotone_free_energy(equivalence_runs, ratio_experiment):
    model = equivalence_runs["model"]
    samples = equivalence_runs["samples"]
    audited = ratio_experiment["audited"]
    violations = ratio_experiment["violations"]
    _, tr_base = equivalence_runs["base"]
    violations += len(check_monotone_F(tr_base, model, [samples]))
    audited += 1
    for K, (theta, tr, subsets) in equivalence_runs["runs"].items():
        violations += len(check_monotone_F(tr, model, subsets))
        audited += 1
    assert violations == 0
    _announce(4, f"zero free-energy decreases across {audited} audited runs")


@pytest.mark.slow
def test_criterion_5_iteration_ratio_direction(ratio_experiment):
    mean_iters = {}
    mean_ratio = {}
    for gamma in (0.3, 0.5, 0.7):
        iters, ratios = [], []
        for (rep, K, g), (_, tr) in ratio_experiment["dem"].items():
            if g != gamma:
                continue
            iters.append(tr.n_iterations)
            ratios.append(
                tr.n_iterations / ratio_experiment["base"][rep][1].n_iterations
            )
        mean_iters[gamma] = np.mean(iters)
        mean_ratio[gamma] = np.mean(ratios)
    for gamma in (0.5, 0.7):
        assert 1.0 - 1e-9 <= mean_ratio[gamma] <= 4.0, (gamma, mean_ratio[gamma])
    assert mean_iters[0.3] >= mean_iters[0.5] >= mean_iters[0.7]
    _announce(5, "mean iteration ratios "
              + ", ".join(f"gamma={g}: {mean_ratio[g]:.2f}" for g in (0.3, 0.5, 0.7)))


def test_criterion_6_speed_matrix_identity():
    t0 = time.perf_counter()
    samples, _ = simulate(
        SimDesign(m=100, n=1000, p=2, q=1, seed=42, Sigma_true=np.array([[1.2]]))
    )
    model = LmmModel(2, 1)
    theta0 = Theta.default_start(2, 1)
    theta, tr = run_ecme0(RunConfig(K=1, tol=1e-12, max_iter=5000), model, samples, theta0)
    assert tr.converged
    K, gamma = 5, 0.6
    cfg = RunConfig(K=K, gamma=gamma, forced_split=True, seed=0)
    subsets = partition(samples, K, seed=0)
    _, tr_dem = run_dem(cfg, model, subsets, theta0)
    split = list(range(cfg.accept_threshold))  # the forced fresh block
    assert sorted(set(sum(tr_dem.accept_sets, []))) == split
    info = information_matrices(model, theta, subsets, split)
    report = speed_matrices(info)
    assert report.identity_residual < 1e-6
    assert report.lower_bound - 1e-4 <= report.lam_min_S_EM <= report.upper_bound + 1e-4
    assert report.eigen_bounds_ok
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _announce(6, f"identity residual {report.identity_residual:.1e}; "
                 f"{report.lower_bound:.4f} <= {report.lam_min_S_EM:.4f} "
                 f"<= {report.upper_bound:.4f} in {elapsed:.1f}s")


def test_criterion_7_posterior_oracle():
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(100):
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        n_i = int(rng.integers(1, 7))
        model = LmmModel(p, q)
        A = rng.standard_normal((q, q))
        theta = Theta.from_cov(
            rng.standard_normal(p), A @ A.T + q * np.eye(q), float(rng.uniform(0.5, 3))
        )
        from demfit import Sample

        s = Sample(
            y=rng.standard_normal(n_i) * 2,
            X=rng.standard_normal((n_i, p)),
            Z=rng.standard_normal((n_i, q)),
        )
        b_hat, C_hat = model.posterior_moments(theta, s)
        # independent oracle: condition the joint Gaussian of (y, b) directly
        D, tau2 = theta.D, theta.tau2
        Vy = tau2 * (s.Z @ D @ s.Z.T + np.eye(n_i))
        Cby = tau2 * D @ s.Z.T
        r = s.y - s.X @ theta.beta
        b_ref = Cby @ np.linalg.solve(Vy, r)
        C_ref = tau2 * D - Cby @ np.linalg.solve(Vy, Cby.T)
        worst = max(
            worst,
            float(np.max(np.abs(b_hat - b_ref))),
            float(np.max(np.abs(C_hat - C_ref))),
        )
        assert np.allclose(b_hat, b_ref, atol=1e-10)
        assert np.allclose(C_hat, C_ref, atol=1e-10)
    _announce(7, f"100 randomized fixtures; max deviation {worst:.1e} < 1e-10")


def test_criterion_8_m_step_oracle():
    from scipy.optimize import minimize
    from demfit import Sample

    rng = np.random.default_rng(888)
    worst = 0.0
    for trial in range(20):
        p = int(rng.integers(1, 3))
        q = int(rng.integers(1, 3))
        model = LmmModel(p, q)
        A = rng.standard_normal((q, q))
        theta = Theta.from_cov(
            rng.standard_normal(p), A @ A.T + q * np.eye(q), float(rng.uniform(0.5, 2))
        )
        subset = [
            Sample(
                y=rng.standard_normal(n_i) * 2,
                X=rng.standard_normal((n_i, p)),
                Z=rng.standard_normal((n_i, q)),
            )
            for n_i in rng.integers(2, 7, size=10)
        ]
        agg = model.local_estep(theta, subset)
        theta_cm = model.cm_steps(agg, theta)
        u_cm = theta_to_vec(theta_cm)

        def neg_q(u):
            return -model.q_value(agg.payload, vec_to_theta(u, p, q))

        res = minimize(neg_q, u_cm + 0.05, method="BFGS",
                       options={"gtol": 1e-12, "maxiter": 1000})
        dev = float(np.max(np.abs(res.x - u_cm)))
        worst = max(worst, dev)
        assert dev < 1e-6, f"trial {trial}: argmax deviates by {dev}"

    # the classical-EM optimum matches a direct marginal-likelihood optimizer
    samples, _ = simulate(
        SimDesign(m=60, n=500, p=2, q=1, seed=8, Sigma_true=np.array([[1.5]]))
    )
    model = LmmModel(2, 1)
    theta_em, tr = run_ecme0(
        RunConfig(K=1, tol=1e-11, max_iter=5000), model, samples, Theta.default_start(2, 1)
    )
    assert tr.converged

    def neg_ll(u):
        return -model.local_loglik(vec_to_theta(u, 2, 1), samples)

    res = minimize(neg_ll, theta_to_vec(Theta.default_start(2, 1)) * 0.0,
                   method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 5000})
    gap = abs(-res.fun - tr.final_loglik)
    assert gap < 1e-5, f"optimizer/EM loglik gap {gap}"
    _announce(8, f"20 argmax fixtures (max param deviation {worst:.1e}); "
                 f"direct-optimizer loglik gap {gap:.1e}")


def test_criterion_9_empirical_gamma():
    samples, _ = simulate(
        SimDesign(m=40, n=400, p=2, q=1, seed=99, Sigma_true=np.array([[1.0]]))
    )
    model = LmmModel(2, 1)
    subsets = partition(samples, 20, seed=0)
    cfg = RunConfig(K=20, gamma=0.5, tol=0.0, max_iter=520, seed=0)
    _, tr = run_dem(cfg, model, subsets, Theta.default_start(2, 1))
    assert tr.hit_max_iter
    T = len(tr.accept_sets)
    assert T >= 500
    fractions = empirical_gamma(tr)
    bound = 3.0 * math.sqrt(0.25 / T)
    off = float(np.max(np.abs(fractions - 0.5)))
    assert off <= bound, f"worst acceptance fraction offset {off} > 3-sigma {bound}"
    _announce(9, f"T={T}; all 20 acceptance fractions within {bound:.4f} of 0.5 "
                 f"(worst offset {off:.4f})")


@pytest.mark.slow
def test_criterion_10_feature_pipeline_end_to_end():
    from demfit.movielens import (
        RatingsRecord,
        build_movielens_features,
        category_scores,
        popularity_score,
    )

    # the three closed-form feature examples
    assert popularity_score(15, 30) == 0.0
    assert popularity_score(0, 0) == 0.0
    g = [0] * 19
    g[4] = 1  # Comedy
    records = [
        RatingsRecord(1, 10, 4.0, 0, tuple(g)),
        RatingsRecord(1, 11, 2.0, 1, tuple(g)),
    ]
    s = build_movielens_features(records)[1]
    assert s.X[0, 5] == 0.0 and s.X[1, 5] == 1.0

    # synthetic ratings stream with genuinely heterogeneous users
    t_start = time.perf_counter()
    rng = np.random.default_rng(55)
    n_users, n_movies = 150, 300
    genres = {}
    for mid in range(1, n_movies + 1):
        flags = [0] * 19
        for j in rng.choice(19, size=int(rng.integers(1, 4)), replace=False):
            flags[j] = 1
        genres[mid] = tuple(int(v) for v in flags)
    coef = {
        u: np.concatenate([rng.normal(0, 0.8, 4), rng.normal(0.5, 0.6, 2)])
        for u in range(1, n_users + 1)
    }
    hist = defaultdict(lambda: deque(maxlen=30))
    prev = {}
    stream = []
    for t in range(10_000):
        mid = int(rng.integers(1, n_movies + 1))
        uid = int(rng.integers(1, n_users + 1))
        h = hist[mid]
        pop = popularity_score(sum(1 for v in h if v > 3.0), len(h))
        pr = 1.0 if (uid in prev and prev[uid] > 3.0) else 0.0
        x = np.concatenate([category_scores(genres[mid]), [pop, pr]])
        mu = 3.0 + coef[uid] @ x + rng.normal(0, 0.5)
        rating = min(5.0, max(0.5, round(mu * 2) / 2))
        stream.append(RatingsRecord(uid, mid, rating, t, genres[mid]))
        h.append(rating)
        prev[uid] = rating

    by_user = build_movielens_features(stream)
    samples = [by_user[u] for u in sorted(by_user)]
    model = LmmModel(6, 6)
    subsets = partition(samples, 5, seed=0)
    cfg = RunConfig(K=5, gamma=0.7, seed=0, max_iter=2500)
    theta, tr = run_dem(cfg, model, subsets, Theta.default_start(6, 6))
    assert tr.converged, "ratings fit did not converge"
    assert check_monotone_F(tr, model, subsets) == []
    elapsed = time.perf_counter() - t_start
    assert elapsed < 120.0
    _announce(10, f"10k-record ingest + gamma=0.7 fit converged in "
                  f"{tr.n_iterations} iterations ({elapsed:.1f}s), "
                  f"free energy monotone")
