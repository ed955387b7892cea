import csv
import json
import math

import numpy as np
import pytest

from demfit import (
    ErrReport,
    Theta,
    Trace,
    aggregate_rmse,
    compute_err,
    empirical_gamma,
    ratio_report,
)
from demfit.diagnostics import (
    load_trace_json,
    theta_from_json,
    theta_to_json,
    trace_to_json,
    write_metrics_csv,
    write_trace_json,
)
from conftest import random_theta


def test_compute_err_identity():
    rng = np.random.default_rng(0)
    theta = random_theta(rng, 3, 2)
    err = compute_err(theta, theta)
    assert (err.err_beta, err.err_tau2, err.err_var, err.err_cov) == (0, 0, 0, 0)


def test_compute_err_beta_example():
    a = Theta(np.array([1.0, 3.0]), np.eye(2), 1.0)
    b = Theta(np.array([1.0, 1.0]), np.eye(2), 1.0)
    assert compute_err(a, b).err_beta == pytest.approx(math.sqrt(2.0))


def test_compute_err_hand_recomputation():
    # q=3 fixture: scalar recomputation of each field from the definitions
    rng = np.random.default_rng(1)
    a = random_theta(rng, 2, 3)
    b = random_theta(rng, 2, 3)
    err = compute_err(a, b)
    Sa, Sb = a.Sigma, b.Sigma
    assert err.err_tau2 == abs(a.tau2 - b.tau2)
    assert err.err_var == pytest.approx(
        math.sqrt(sum((Sa[i, i] - Sb[i, i]) ** 2 for i in range(3)) / 3)
    )
    off = [(0, 1), (0, 2), (1, 2)]
    assert err.err_cov == pytest.approx(
        math.sqrt(sum((Sa[i, j] - Sb[i, j]) ** 2 for i, j in off) / 3)
    )
    assert err.err_beta == pytest.approx(
        math.sqrt(sum((a.beta - b.beta) ** 2) / 2)
    )


def test_compute_err_symmetric_and_q1():
    rng = np.random.default_rng(2)
    a, b = random_theta(rng, 2, 1), random_theta(rng, 2, 1)
    ab, ba = compute_err(a, b), compute_err(b, a)
    assert (ab.err_beta, ab.err_tau2, ab.err_var) == (ba.err_beta, ba.err_tau2, ba.err_var)
    assert ab.err_cov is None  # no off-diagonal entries for q = 1


def test_compute_err_dimension_mismatch():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError, match="dimension mismatch"):
        compute_err(random_theta(rng, 2, 2), random_theta(rng, 3, 2))


def test_aggregate_rmse():
    r1 = ErrReport(0.3, 0.1, 0.2, 0.4)
    r2 = ErrReport(0.5, 0.3, 0.1, 0.2)
    out = aggregate_rmse([r1, r2])
    assert out["R"] == 2
    assert out["rmse_beta"] == pytest.approx(math.sqrt((0.09 + 0.25) / 2))
    assert out["rmse_cov"] == pytest.approx(math.sqrt((0.16 + 0.04) / 2))
    # identity for R = 1, and permutation invariance
    assert aggregate_rmse([r1])["rmse_beta"] == pytest.approx(0.3)
    assert aggregate_rmse([r2, r1]) == out
    with pytest.raises(ValueError):
        aggregate_rmse([])


def _mk_trace(final, iters, times, converged=True):
    tr = Trace()
    tr.thetas = [None] * (iters + 1)
    tr.final_loglik = final
    tr.wall_times = times
    tr.converged = converged
    tr.hit_max_iter = not converged
    return tr


def test_ratio_report_self_ratio():
    tr = _mk_trace(-500.0, 10, [0.1] * 11)
    out = ratio_report(tr, tr)
    assert (out["loglik_ratio"], out["iter_ratio"], out["time_ratio"]) == (1, 1, 1)
    assert not out["dem_hit_max_iter"]


def test_ratio_report_fields():
    dem = _mk_trace(-500.0, 20, [0.1] * 21)
    base = _mk_trace(-499.0, 10, [0.2] * 11)
    out = ratio_report(dem, base)
    assert out["iter_ratio"] == pytest.approx(2.0)
    assert out["loglik_ratio"] == pytest.approx(500.0 / 499.0)
    assert out["time_ratio"] == pytest.approx((0.1 * 21) / (0.2 * 11))


def test_empirical_gamma_full_acceptance():
    tr = Trace(config={"K": 4})
    tr.accept_sets = [[0, 1, 2, 3]] * 7
    np.testing.assert_array_equal(empirical_gamma(tr), np.ones(4))


def test_empirical_gamma_forced_split_pattern():
    tr = Trace(config={"K": 4})
    tr.accept_sets = [[0, 1]] * 9
    np.testing.assert_array_equal(empirical_gamma(tr), [1, 1, 0, 0])


def test_metrics_csv_roundtrip(tmp_path):
    rows = [{"run": "a", "x": 1.5}, {"run": "b", "x": 2.5, "extra": "z"}]
    path = tmp_path / "m.csv"
    write_metrics_csv(path, rows)
    with open(path) as fh:
        back = list(csv.DictReader(fh))
    assert back[0]["run"] == "a" and float(back[1]["x"]) == 2.5
    assert back[1]["extra"] == "z"
    with pytest.raises(ValueError):
        write_metrics_csv(path, [])


def test_theta_json_roundtrip():
    rng = np.random.default_rng(4)
    theta = random_theta(rng, 2, 2)
    rt = theta_from_json(json.loads(json.dumps(theta_to_json(theta))))
    np.testing.assert_array_equal(rt.beta, theta.beta)
    np.testing.assert_array_equal(rt.L, theta.L)
    assert rt.tau2 == theta.tau2


def test_trace_json_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    tr = Trace(config={"K": 2, "gamma": 0.5})
    tr.thetas = [random_theta(rng, 2, 1) for _ in range(3)]
    tr.logliks = [-10.0, -9.0, -8.999]
    tr.accept_sets = [[0], [1]]
    tr.anchor_tags = [[0, 0], [0, 1], [1, 1]]
    tr.wall_times = [0.1, 0.1, 0.1]
    tr.converged = True
    tr.final_loglik = -8.999
    path = tmp_path / "t.json"
    write_trace_json(path, tr)
    back = load_trace_json(path)
    assert back == trace_to_json(tr)
    assert back["n_iterations"] == 2 and back["converged"]
    assert back["staleness"] == [[0, 0], [1, 0], [1, 1]]
