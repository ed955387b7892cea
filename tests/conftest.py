import math

import numpy as np
import pytest

from demfit import LmmModel, Sample, SimDesign, Theta, simulate


def random_sample(rng, p, q, n_i=None):
    n_i = n_i or int(rng.integers(1, 7))
    X = rng.standard_normal((n_i, p))
    Z = rng.standard_normal((n_i, q))
    y = rng.standard_normal(n_i) * 2.0
    return Sample(y=y, X=X, Z=Z)


def random_theta(rng, p, q):
    beta = rng.standard_normal(p)
    A = rng.standard_normal((q, q))
    D = A @ A.T + q * np.eye(q)
    tau2 = float(rng.uniform(0.5, 3.0))
    return Theta.from_cov(beta, D, tau2)


def local_kl(model, theta_eval, theta_anchor, subset):
    """Sum over a subset's samples of the Gaussian KL(posterior at
    theta_anchor || posterior at theta_eval), from the kernels the
    free-energy audit runs."""
    shard = model.prepare(subset)
    post = model._posterior(theta_eval, shard)
    anchor = model._posterior(theta_anchor, shard)
    log_ratio = model.q * math.log(theta_eval.tau2 / theta_anchor.tau2)
    return math.fsum(model._kl(theta_eval, post, anchor, theta_anchor.tau2, log_ratio))


def theta_bytes(theta):
    return theta.Dinv.tobytes() + theta.resid_coef.tobytes()


def point_bytes(theta):
    """theta_bytes of each point a posterior call gets: one Theta, or every
    row of the stack the free-energy audit passes."""
    q = theta.Dinv.shape[-1]
    Dinv = np.reshape(theta.Dinv, (-1, q, q))
    return [d.tobytes() + c.tobytes()
            for d, c in zip(Dinv, np.reshape(theta.resid_coef, (len(Dinv), -1)))]


@pytest.fixture(scope="session")
def small_dataset():
    samples, truth = simulate(SimDesign(m=60, n=1200, p=4, q=3, seed=11))
    return samples, truth


@pytest.fixture()
def small_model():
    return LmmModel(4, 3)
