"""Simulation data generator, sample partitioning, and dataset files.

The canonical simulation draws covariate entries uniformly from {-1, +1},
fixed effects alternating between -2 and +2, error variance 1, and a
random-effects covariance V R V^T with V = diag(1, sqrt(2), sqrt(3)) and
correlations R12 = -0.4, R13 = 0.30, R23 = 0.001 (block-doubled for q=6).

Datasets are stored as a columnar .npz (y, row-stacked X and Z, and an
observation-to-sample id column) next to a JSON sidecar carrying the
dimensions, the seed, and the generating parameters when simulated.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .diagnostics import theta_to_json
from .lmm import Sample, Theta

_V3 = np.diag(np.sqrt([1.0, 2.0, 3.0]))
_R3 = np.array(
    [
        [1.0, -0.4, 0.30],
        [-0.4, 1.0, 0.001],
        [0.30, 0.001, 1.0],
    ]
)


def canonical_sigma(q: int) -> np.ndarray:
    """V R V^T for q=3; bdiag of two copies for q=6."""
    base = _V3 @ _R3 @ _V3
    if q == 3:
        return base
    if q == 6:
        out = np.zeros((6, 6))
        out[:3, :3] = base
        out[3:, 3:] = base
        return out
    raise ValueError(f"canonical design requires q in {{3, 6}}, got {q}")


def canonical_beta(p: int) -> np.ndarray:
    """Alternating -2, +2."""
    beta = np.full(p, 2.0)
    beta[::2] = -2.0
    return beta


@dataclass(frozen=True)
class SimDesign:
    m: int
    n: int
    p: int
    q: int = 3
    seed: int = 0
    Sigma_true: Optional[np.ndarray] = None  # custom mode; else canonical

    def __post_init__(self):
        if not (1 <= self.m <= self.n):
            raise ValueError("need n >= m >= 1")
        if self.Sigma_true is None:
            if self.q not in (3, 6):
                raise ValueError("canonical design requires q in {3, 6}; "
                                 "pass Sigma_true for other q")
        else:
            S = np.asarray(self.Sigma_true, dtype=float)
            if S.shape != (self.q, self.q):
                raise ValueError("Sigma_true shape does not match q")
            np.linalg.cholesky(S)  # must be SPD
            object.__setattr__(self, "Sigma_true", S)

    def sigma(self) -> np.ndarray:
        return self.Sigma_true if self.Sigma_true is not None else canonical_sigma(self.q)

    def true_theta(self) -> Theta:
        return Theta.from_cov(canonical_beta(self.p), self.sigma(), 1.0)


def simulate(design: SimDesign) -> tuple[list[Sample], Theta]:
    """Draw a dataset from the design; returns the samples and the truth.

    Observations go to samples uniformly at random after each sample gets
    one observation up front, so every sample is non-empty.  Reproducible:
    the same design (including seed) yields a bit-identical dataset.
    """
    rng = np.random.default_rng(design.seed)
    m, n, p, q = design.m, design.n, design.p, design.q
    assign = np.concatenate([np.arange(m), rng.integers(0, m, size=n - m)])
    counts = np.bincount(assign, minlength=m)

    theta = design.true_theta()
    Sigma = design.sigma()
    cS = np.linalg.cholesky(Sigma)
    samples = []
    for i in range(m):
        n_i = int(counts[i])
        X = rng.integers(0, 2, size=(n_i, p)) * 2.0 - 1.0
        Z = rng.integers(0, 2, size=(n_i, q)) * 2.0 - 1.0
        b = cS @ rng.standard_normal(q)
        y = X @ theta.beta + Z @ b + rng.standard_normal(n_i)
        samples.append(Sample(y=y, X=X, Z=Z))
    return samples, theta


def partition(samples: Sequence[Sample], K: int, seed: int = 0) -> list[list[Sample]]:
    """Random sample-level partition into K disjoint subsets.

    Whole samples move together (all of a sample's observations land in the
    same subset); each subset gets at least one sample.
    """
    m = len(samples)
    if not (1 <= K <= m):
        raise ValueError(f"need 1 <= K <= m, got K={K}, m={m}")
    rng = np.random.default_rng(seed)
    assign = np.concatenate([rng.permutation(K), rng.integers(0, K, size=m - K)])
    assign = assign[rng.permutation(m)]
    subsets: list[list[Sample]] = [[] for _ in range(K)]
    for s, k in zip(samples, assign):
        subsets[k].append(s)
    return subsets


# -- dataset files -----------------------------------------------------------


def save_dataset(path, samples: Sequence[Sample], meta: Optional[dict] = None,
                 truth: Optional[Theta] = None) -> None:
    """Write <path>.npz (columnar arrays) and <path>.json (sidecar)."""
    path = Path(path)
    y = np.concatenate([s.y for s in samples])
    X = np.vstack([s.X for s in samples])
    Z = np.vstack([s.Z for s in samples])
    sample_id = np.concatenate(
        [np.full(s.n_obs, i, dtype=np.int64) for i, s in enumerate(samples)]
    )
    np.savez(path.with_suffix(".npz"), y=y, X=X, Z=Z, sample_id=sample_id)
    sidecar = {
        "m": len(samples),
        "n": int(y.size),
        "p": int(X.shape[1]),
        "q": int(Z.shape[1]),
    }
    if meta:
        sidecar.update(meta)
    if truth is not None:
        sidecar["true_theta"] = theta_to_json(truth)
    with open(path.with_suffix(".json"), "w") as fh:
        json.dump(sidecar, fh, indent=1)


def load_dataset(path) -> tuple[list[Sample], dict]:
    path = Path(path)
    with np.load(path.with_suffix(".npz")) as arc:
        y, X, Z, sample_id = arc["y"], arc["X"], arc["Z"], arc["sample_id"]
    sidecar_path = path.with_suffix(".json")
    meta = json.loads(sidecar_path.read_text()) if sidecar_path.exists() else {}
    # sample ids are contiguous blocks, one id per row, as save_dataset
    # writes them; anything else would split or merge samples silently
    rows = {y.shape[0], X.shape[0], Z.shape[0]}
    if sample_id.ndim != 1 or rows != {sample_id.size}:
        raise ValueError(f"{path.with_suffix('.npz')}: sample_id has shape "
                         f"{sample_id.shape}, not one entry per row of y, X and Z "
                         f"({', '.join(map(str, sorted(rows)))} rows)")
    steps = np.diff(sample_id)
    if (steps < 0).any():
        raise ValueError(f"{path.with_suffix('.npz')}: sample_id decreases at row "
                         f"{int(np.argmax(steps < 0)) + 1}; it must be non-decreasing")
    samples = []
    bounds = np.flatnonzero(steps) + 1
    for lo, hi in zip(np.r_[0, bounds], np.r_[bounds, sample_id.size]):
        samples.append(Sample(y=y[lo:hi], X=X[lo:hi], Z=Z[lo:hi]))
    return samples, meta
