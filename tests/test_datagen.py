import json
import math
import re

import numpy as np
import pytest

from demfit import (
    LmmModel,
    RunConfig,
    Sample,
    SimDesign,
    Theta,
    canonical_sigma,
    information_matrices,
    partition,
    run_ecme0,
    simulate,
)
from demfit.datagen import canonical_beta, load_dataset, save_dataset
from demfit.lmm import theta_to_vec


def test_canonical_sigma_values():
    S = canonical_sigma(3)
    np.testing.assert_allclose(np.diag(S), [1.0, 2.0, 3.0])
    assert S[0, 1] == pytest.approx(math.sqrt(2.0) * -0.4)  # ~ -0.5657
    assert S[0, 2] == pytest.approx(math.sqrt(3.0) * 0.30)
    assert S[1, 2] == pytest.approx(math.sqrt(2.0) * math.sqrt(3.0) * 0.001)
    np.linalg.cholesky(S)  # SPD
    S6 = canonical_sigma(6)
    np.testing.assert_allclose(S6[:3, :3], S)
    np.testing.assert_allclose(S6[3:, 3:], S)
    assert np.all(S6[:3, 3:] == 0)
    with pytest.raises(ValueError):
        canonical_sigma(4)


def test_canonical_beta_alternates():
    np.testing.assert_array_equal(canonical_beta(5), [-2, 2, -2, 2, -2])


def test_design_validation():
    with pytest.raises(ValueError):
        SimDesign(m=10, n=5, p=2, q=3)
    with pytest.raises(ValueError):
        SimDesign(m=2, n=10, p=2, q=4)  # needs explicit Sigma_true
    with pytest.raises(np.linalg.LinAlgError):
        SimDesign(m=2, n=10, p=2, q=2, Sigma_true=np.array([[1.0, 2.0], [2.0, 1.0]]))
    # custom q is fine with an explicit SPD covariance
    SimDesign(m=2, n=10, p=2, q=2, Sigma_true=np.eye(2))


def test_simulate_structure_and_reproducibility():
    design = SimDesign(m=30, n=500, p=4, q=3, seed=9)
    samples, truth = simulate(design)
    again, _ = simulate(design)
    assert len(samples) == 30
    assert sum(s.n_obs for s in samples) == 500
    assert min(s.n_obs for s in samples) >= 1
    for s, t in zip(samples, again):
        np.testing.assert_array_equal(s.y, t.y)
        np.testing.assert_array_equal(s.X, t.X)
    assert set(np.unique(samples[0].X)) <= {-1.0, 1.0}
    assert set(np.unique(samples[0].Z)) <= {-1.0, 1.0}
    np.testing.assert_array_equal(truth.beta, canonical_beta(4))
    np.testing.assert_allclose(truth.Sigma, canonical_sigma(3))


def test_simulated_residual_mean():
    samples, truth = simulate(SimDesign(m=200, n=100_000, p=3, q=3, seed=1))
    resid = np.concatenate([s.y - s.X @ truth.beta for s in samples])
    # var(resid) per obs is roughly tau2 + z Sigma z' <= 1 + 6
    sigma = math.sqrt(7.0 / resid.size)
    assert abs(resid.mean()) < 3 * sigma * 3  # random effects correlate within sample


def test_ecme0_recovers_beta_within_3se():
    samples, truth = simulate(SimDesign(m=200, n=4000, p=3, q=3, seed=2))
    model = LmmModel(3, 3)
    theta, tr = run_ecme0(RunConfig(K=1, tol=1e-10, max_iter=2000), model, samples,
                          Theta.default_start(3, 3))
    assert tr.converged
    info = information_matrices(model, theta, [samples], split=[0])
    se = np.sqrt(np.diag(np.linalg.inv(info.i_obs))[:3])
    np.testing.assert_array_less(np.abs(theta.beta - truth.beta), 3 * se)


def test_partition_properties():
    samples, _ = simulate(SimDesign(m=100, n=600, p=2, q=3, seed=3))
    subsets = partition(samples, 10, seed=4)
    assert len(subsets) == 10
    assert sum(len(sub) for sub in subsets) == 100
    assert min(len(sub) for sub in subsets) >= 1
    ids = sorted(id(s) for sub in subsets for s in sub)
    assert ids == sorted(id(s) for s in samples)  # disjoint union, samples intact
    # K = 1 identity
    (only,) = partition(samples, 1, seed=0)
    assert [id(s) for s in only] == [id(s) for s in samples]
    with pytest.raises(ValueError):
        partition(samples, 101, seed=0)


def test_partition_sizes_reasonably_uniform():
    samples, _ = simulate(SimDesign(m=100, n=400, p=2, q=3, seed=5))
    sizes = np.array([
        [len(sub) for sub in partition(samples, 10, seed=seed)]
        for seed in range(30)
    ])
    # mean size 10; across 300 draws no subset size strays absurdly
    assert sizes.min() >= 1
    assert sizes.max() <= 30
    assert abs(sizes.mean() - 10.0) < 1e-12


def test_partition_loglik_additivity():
    samples, truth = simulate(SimDesign(m=40, n=300, p=2, q=3, seed=6))
    model = LmmModel(2, 3)
    subsets = partition(samples, 7, seed=1)
    total = sum(model.local_loglik(truth, sub) for sub in subsets)
    assert total == pytest.approx(model.local_loglik(truth, samples), rel=1e-12)


def address(a):
    return a.__array_interface__["data"][0]


def test_dataset_roundtrip(tmp_path):
    samples, truth = simulate(SimDesign(m=12, n=80, p=3, q=3, seed=7))
    path = tmp_path / "ds"
    save_dataset(path, samples, meta={"seed": 7}, truth=truth)
    back, meta = load_dataset(path)
    assert meta["m"] == 12 and meta["n"] == 80 and meta["seed"] == 7
    assert meta["true_theta"]["tau2"] == truth.tau2
    assert len(back) == 12
    for s, t in zip(samples, back):
        np.testing.assert_array_equal(s.y, t.y)
        np.testing.assert_array_equal(s.X, t.X)
        np.testing.assert_array_equal(s.Z, t.Z)
    # each loaded array is a float64 view of its file column, the samples'
    # row ranges laid end to end in it
    for name in ("y", "X", "Z"):
        arrays = [getattr(t, name) for t in back]
        assert all(a.dtype == np.float64 and not a.flags.owndata
                   and a.flags.c_contiguous for a in arrays)
        assert [address(a) for a in arrays[1:]] == [
            address(a) + a.nbytes for a in arrays[:-1]]
    # an (n, 1) y column and an int64 X load as float64 samples equal to
    # the saved ones, as they did when each sample converted its own rows
    with np.load(path.with_suffix(".npz")) as arc:
        cols = dict(arc)
    cols["y"] = cols["y"][:, None]
    cols["X"] = cols["X"].astype(np.int64)  # the simulated entries are +-1
    np.savez(path.with_suffix(".npz"), **cols)
    back, _ = load_dataset(path)
    for s, t in zip(samples, back):
        for name in ("y", "X", "Z"):
            got, want = getattr(t, name), getattr(s, name)
            assert got.dtype == np.float64 and got.shape == want.shape
            np.testing.assert_array_equal(got, want)


def write_samples(path, **replace):
    """Two 3-row samples saved at path, with the arrays in replace (None
    to drop one) swapped into the .npz."""
    rng = np.random.default_rng(0)
    samples = [Sample(y=rng.standard_normal(3), X=rng.standard_normal((3, 2)),
                      Z=rng.standard_normal((3, 1))) for _ in range(2)]
    save_dataset(path, samples)
    with np.load(path.with_suffix(".npz")) as arc:
        cols = dict(arc)
    for name, value in replace.items():
        if value is None:
            del cols[name]
        else:
            cols[name] = value
    np.savez(path.with_suffix(".npz"), **cols)


@pytest.mark.parametrize("sample_id, message", [
    ([0, 0, 1, 0, 1, 1], "sample_id decreases at row 3; it must be non-decreasing"),
    ([0, 0, 1, 1], "sample_id has shape (4,), not one entry per row of y, X and Z "
                   "(6 rows)"),
], ids=["decreasing", "short"])
def test_bad_sample_id_column_is_an_error(tmp_path, capsys, sample_id, message):
    """A sample_id column that decreases, or that has not one entry per
    row, would load as the wrong samples: load_dataset names the file, and
    dem fit reports it as an error."""
    from demfit.cli import main

    path = tmp_path / "ds"
    write_samples(path, sample_id=np.array(sample_id, dtype=np.int64))
    with pytest.raises(ValueError) as err:
        load_dataset(path)
    assert str(err.value) == f"{path.with_suffix('.npz')}: {message}"
    assert main(["fit", "--data", str(path), "--out", str(tmp_path / "fit")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("replace, message", [
    ({"Z": None}, "ds.npz: missing array Z"),
    ({"y": np.empty(0), "X": np.empty((0, 2)), "Z": np.empty((0, 1)),
      "sample_id": np.empty(0, dtype=np.int64)}, "ds.npz: y, X, Z and sample_id have no rows"),
    ({"X": np.ones(6)}, "ds.npz: X has shape (6,); it must be 2-D"),
], ids=["no Z", "no rows", "1-D X"])
def test_malformed_dataset_is_an_error(tmp_path, capsys, replace, message):
    """A file without one of its arrays, without rows or with a 1-D design
    is a ValueError that names the file and the array, and dem fit and dem
    diagnose print it as their error line and exit 1."""
    from demfit.cli import main
    from demfit.diagnostics import theta_to_json

    path = tmp_path / "ds"
    write_samples(path, **replace)
    with pytest.raises(ValueError, match=re.escape(message)):
        load_dataset(path)
    theta = tmp_path / "start.theta.json"
    theta.write_text(json.dumps(theta_to_json(Theta.default_start(2, 1))))
    for argv in (["fit", "--data", str(path), "--out", str(tmp_path / "fit")],
                 ["diagnose", "--data", str(path), "--theta", str(theta), "--K", "1",
                  "--split", "0", "--out", str(tmp_path / "diag.json")]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path.with_suffix('.npz')}: ")
        assert message in err
