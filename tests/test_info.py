import math

import numpy as np
import pytest

from demfit import (
    LmmModel,
    RunConfig,
    Theta,
    information_matrices,
    run_ecme0,
    simulate,
    SimDesign,
    partition,
    speed_matrices,
)
from demfit.lmm import InfoMatrices, fd_derivatives, theta_to_vec, vec_to_theta
from conftest import random_sample, random_theta


def test_fd_hessian_exact_on_quadratic():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 4))
    A = A + A.T
    b = rng.standard_normal(4)

    def f(u):
        return 0.5 * u @ A @ u + b @ u

    u0 = rng.standard_normal(4)
    # central differences are exact on quadratics up to roundoff eps/h^2
    g, H = fd_derivatives(f, u0)
    np.testing.assert_allclose(H, A, atol=5e-6)
    np.testing.assert_allclose(g, A @ u0 + b, atol=1e-8)


def test_loglik_hessian_matches_analytic_q1():
    # independent oracle: symbolic Hessian of the dense marginal density for
    # q = 1, in the unconstrained coordinates (beta, l = log L11, u = log tau2)
    import sympy as sp

    rng = np.random.default_rng(1)
    p, n_i = 2, 4
    model = LmmModel(p, 1)
    theta = random_theta(rng, p, 1)
    s = random_sample(rng, p, 1, n_i=n_i)

    b0, b1, l, u = sp.symbols("b0 b1 l u", real=True)
    beta = sp.Matrix([b0, b1])
    X = sp.Matrix(s.X)
    z = sp.Matrix(s.Z)
    y = sp.Matrix(s.y.reshape(-1, 1))
    d = sp.exp(2 * l)  # D = L^2
    tau2 = sp.exp(u)
    W = tau2 * (d * z * z.T + sp.eye(n_i))
    r = y - X * beta
    ll = (
        -sp.Rational(n_i, 2) * sp.log(2 * sp.pi)
        - sp.Rational(1, 2) * sp.log(W.det())
        - sp.Rational(1, 2) * (r.T * W.inv() * r)[0, 0]
    )
    syms = [b0, b1, l, u]
    H_sym = sp.lambdify(syms, sp.hessian(ll, syms), "numpy")
    u0 = theta_to_vec(theta)
    H_ref = np.array(H_sym(*u0), dtype=float)
    _, H_fd = fd_derivatives(lambda v: model.local_loglik(
        Theta(v[:2], np.array([[math.exp(v[2])]]), math.exp(v[3])), [s]), u0)
    np.testing.assert_allclose(H_fd, H_ref, atol=1e-3)


@pytest.fixture(scope="module")
def converged_instance():
    samples, _ = simulate(
        SimDesign(m=100, n=1000, p=2, q=1, seed=3, Sigma_true=np.array([[1.2]]))
    )
    model = LmmModel(2, 1)
    theta, tr = run_ecme0(
        RunConfig(K=1, tol=1e-12, max_iter=4000), model, samples, Theta.default_start(2, 1)
    )
    assert tr.converged
    subsets = partition(samples, 5, seed=0)
    return model, theta, subsets


def test_information_symmetry_and_definiteness(converged_instance):
    model, theta, subsets = converged_instance
    info = information_matrices(model, theta, subsets, split=[0, 1])
    for M in (info.i_obs, info.i_com, info.i_com_A):
        np.testing.assert_allclose(M, M.T, atol=1e-4 * np.linalg.norm(M))
    assert info.grad_norm < 1e-4
    assert 0 < info.newton_decrement < 1e-12
    assert info.warnings == []
    # complete-data information exceeds observed (missing info is PSD)
    missing = 0.5 * (info.i_com - info.i_obs + (info.i_com - info.i_obs).T)
    assert np.all(np.linalg.eigvalsh(missing) > -1e-4)
    assert np.all(np.linalg.eigvalsh(0.5 * (info.i_com + info.i_com.T)) > 0)


class CountingModel(LmmModel):
    """An LmmModel that counts the shards it prepares; a shard, which
    prepares to itself, is not a new one."""

    prepared = 0

    def prepare(self, subset):
        shard = super().prepare(subset)
        self.prepared += shard is not subset
        return shard


@pytest.mark.parametrize("K", [5, 20])
def test_information_prepares_two_shards_for_any_K(converged_instance, K):
    _, theta, subsets = converged_instance
    samples = [s for subset in subsets for s in subset]
    model = CountingModel(2, 1)
    information_matrices(model, theta, partition(samples, K, seed=0), split=[0, 1])
    assert model.prepared == 2


def test_blocks_equal_per_subset_sums(converged_instance):
    # the blocks as sums of per-subset differences, one shard per subset
    model, theta, subsets = converged_instance
    split = [1, 3]
    u0 = theta_to_vec(theta)

    def subset_information(subset):
        shard = model.prepare(subset)
        stats = model.local_estep(theta, shard).payload
        _, h_obs = fd_derivatives(
            lambda u: model.local_loglik(vec_to_theta(u, 2, 1), shard), u0)
        _, h_com = fd_derivatives(
            lambda u: model.q_value(stats, vec_to_theta(u, 2, 1)), u0)
        return -h_obs, -h_com

    per_subset = [subset_information(subset) for subset in subsets]
    info = information_matrices(model, theta, subsets, split)
    for ids, i_obs, i_com in [
        (split, info.i_obs_A, info.i_com_A),
        ([k for k in range(len(subsets)) if k not in split], info.i_obs_Ac, info.i_com_Ac),
    ]:
        for got, which in [(i_obs, 0), (i_com, 1)]:
            ref = sum(per_subset[k][which] for k in ids)
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-4 * np.abs(ref).max())


def test_information_split_additivity(converged_instance):
    model, theta, subsets = converged_instance
    info = information_matrices(model, theta, subsets, split=[0, 2])
    np.testing.assert_allclose(info.i_obs, info.i_obs_A + info.i_obs_Ac, atol=1e-10)
    np.testing.assert_allclose(info.i_com, info.i_com_A + info.i_com_Ac, atol=1e-10)


def test_full_split_reduces_to_classical_speed(converged_instance):
    model, theta, subsets = converged_instance
    info = information_matrices(model, theta, subsets, split=range(len(subsets)))
    report = speed_matrices(info)
    np.testing.assert_allclose(report.S_DEM, report.S_EM, atol=1e-10)
    assert np.linalg.norm(report.C) < 1e-12
    assert np.linalg.norm(report.O) < 1e-12
    assert report.identity_residual < 1e-12
    # speed of EM lies in (0, 1] at a proper maximizer
    assert 0.0 < report.lam_min_S_EM <= 1.0 + 1e-8


def test_decomposition_identity_random_split(converged_instance):
    model, theta, subsets = converged_instance
    report = speed_matrices(
        information_matrices(model, theta, subsets, split=[1, 3])
    )
    assert report.identity_residual < 1e-6
    assert report.lower_bound <= report.lam_min_S_EM + 1e-4


@pytest.mark.parametrize("design, fit, K, split", [
    # the CLI walkthrough's design, where the singular-value form fails
    (SimDesign(m=60, n=480, p=4, q=3, seed=0), {}, 4, [0, 1]),
    # acceptance criterion 6's design
    (SimDesign(m=100, n=1000, p=2, q=1, seed=42, Sigma_true=np.array([[1.2]])),
     {"tol": 1e-12, "max_iter": 5000}, 5, [0, 1, 2]),
], ids=["walkthrough", "criterion_6"])
def test_eigenvalue_sandwich_holds(design, fit, K, split):
    """lam_min(S_DEM)/(1 + lam_max(C)) + lam_min(O) <= lam_min(S_EM) <=
    lam_min(S_DEM)/(1 + lam_min(C)) + lam_max(O), each lam a pencil
    eigenvalue, at the maximum of either design."""
    samples, _ = simulate(design)
    model = LmmModel(design.p, design.q)
    theta, trace = run_ecme0(RunConfig(K=1, **fit), model, samples,
                             Theta.default_start(design.p, design.q))
    assert trace.converged
    report = speed_matrices(information_matrices(model, theta, partition(samples, K, seed=0),
                                                 split))
    assert report.pencil_bounds_ok
    assert (report.pencil_lower_bound <= report.pencil_lam_min_S_EM
            <= report.pencil_upper_bound)
    # the pencil eigenvalues are those of S_EM = i_com^-1 i_obs itself
    np.testing.assert_allclose(report.pencil_lam_min_S_EM,
                               np.linalg.eigvals(report.S_EM).real.min(), rtol=1e-8)


def test_eigenvalue_sandwich_needs_a_definite_pencil():
    """The eigenvalue form applies only where i_com_A and i_com are positive
    definite and lam_min(S_DEM) >= 0.  Elsewhere its bounds are nan, its
    verdict fails and a warning says why, while the rest of the report is
    still made."""
    eye = np.eye(2)
    info = InfoMatrices(i_obs=eye, i_com=np.diag([2.0, 1.5]), i_obs_A=0.5 * eye,
                        i_com_A=np.diag([1.0, -0.5]), i_obs_Ac=0.5 * eye,
                        i_com_Ac=np.diag([1.0, 2.0]), grad_norm=0.0, newton_decrement=0.0)
    report = speed_matrices(info)
    assert report.identity_residual < 1e-12
    assert math.isnan(report.pencil_lam_min_S_EM) and math.isnan(report.pencil_upper_bound)
    assert not report.pencil_bounds_ok
    assert any("not positive definite" in note for note in report.warnings)

    # lam_min(S_DEM) = -1 along the direction where C's eigenvalue is 0, so
    # lam_min(S_DEM) / (1 + lam_max(C)) + lam_min(O) = -0.05 lies above
    # lam_min(S_EM) = -0.5: the bound is not a theorem there
    info = InfoMatrices(i_obs=np.diag([-0.5, 1.5]), i_com=np.diag([1.0, 10.0]),
                        i_obs_A=np.diag([-1.0, 1.0]), i_com_A=eye, i_obs_Ac=0.5 * eye,
                        i_com_Ac=np.diag([0.0, 9.0]), grad_norm=0.0, newton_decrement=0.0)
    report = speed_matrices(info)
    assert report.identity_residual < 1e-12
    assert report.pencil_lam_min_S_EM == pytest.approx(-0.5)
    assert math.isnan(report.pencil_lower_bound) and math.isnan(report.pencil_upper_bound)
    assert not report.pencil_bounds_ok
    assert any("lam_min(S_DEM)" in note for note in report.warnings)


def test_not_at_optimum_warning(converged_instance):
    model, theta, subsets = converged_instance
    off = Theta(theta.beta + 0.3, theta.L, theta.tau2)
    info = information_matrices(model, off, subsets, split=[0])
    assert any("not be stationary" in w for w in info.warnings)
    assert info.newton_decrement > 1.0
