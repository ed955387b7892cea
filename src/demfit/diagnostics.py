"""Post-processing metrics for comparing runs.

Everything here is pure post-processing over Theta estimates and Trace
records: coordinate-wise estimate discrepancies, RMSE aggregation over
replications, run-versus-baseline ratio summaries, per-worker acceptance
fractions, and CSV/JSON emitters for external plotting.

Trace JSON schema (written by `write_trace_json`):
  {
    "config": {...run configuration...},  # run_scheme adds "scheme" (at
                                      # gamma 1), run_ecme0 adds "algo"
    "thetas": [{"beta": [...], "L": [[...]], "tau2": float}, ...],
    "logliks": [float, ...],          # one entry per recorded iteration
    "loglik_exact": bool,             # exact per-iteration values vs cached headers
    "accept_sets": [[int, ...], ...], # fresh workers behind each M step
    "anchor_tags": [[int, ...], ...], # per-worker anchor index into thetas
    "staleness": [[int, ...], ...],   # staleness[j][k] = j - anchor_tags[j][k];
                                      # ecme0 records 1 from iteration 1 on
    "wall_times": [float, ...],
    "messages_sent": int,             # naive_allpairs: K - 1 per E step; ecme0: 0
    "converged": bool,
    "hit_max_iter": bool,
    "final_loglik": float,            # always exact, at the final parameter
    "n_iterations": int
  }
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .lmm import Theta
from .model import Trace


@dataclass(frozen=True)
class ErrReport:
    """Coordinate-wise discrepancies between two estimates.

    err_cov is None when q < 2 (there are no off-diagonal covariances).
    """

    err_beta: float
    err_tau2: float
    err_var: float
    err_cov: Optional[float]
    reference: str = "ecme0"

    def as_dict(self) -> dict:
        return {
            "err_beta": self.err_beta,
            "err_tau2": self.err_tau2,
            "err_var": self.err_var,
            "err_cov": self.err_cov,
            "reference": self.reference,
        }


def compute_err(theta: Theta, theta_ref: Theta, reference: str = "ecme0") -> ErrReport:
    """Root-mean-square discrepancy per parameter block.

    beta: RMS over the p coordinates; tau2: absolute difference; var: RMS
    over the q diagonal entries of Sigma = tau2 * D; cov: RMS over the
    q(q-1)/2 off-diagonal entries (q >= 2 only).
    """
    if theta.p != theta_ref.p or theta.q != theta_ref.q:
        raise ValueError(
            f"dimension mismatch: ({theta.p},{theta.q}) vs ({theta_ref.p},{theta_ref.q})"
        )
    q = theta.q
    dbeta = theta.beta - theta_ref.beta
    err_beta = math.sqrt(float(dbeta @ dbeta) / theta.p)
    err_tau2 = abs(theta.tau2 - theta_ref.tau2)
    dS = theta.Sigma - theta_ref.Sigma
    err_var = math.sqrt(float(np.sum(np.diag(dS) ** 2)) / q)
    if q >= 2:
        iu = np.triu_indices(q, 1)
        err_cov = math.sqrt(2.0 * float(np.sum(dS[iu] ** 2)) / (q * (q - 1)))
    else:
        err_cov = None
    return ErrReport(err_beta, err_tau2, err_var, err_cov, reference)


def aggregate_rmse(reports: Sequence[ErrReport]) -> dict:
    """Root of the mean of squared errs over R replications, per field."""
    if not reports:
        raise ValueError("aggregate_rmse needs at least one report")

    def rms(values):
        return math.sqrt(math.fsum(v * v for v in values) / len(values))

    def se(values):
        # Monte Carlo standard error of the squared-err mean
        if len(values) < 2:
            return 0.0
        sq = [v * v for v in values]
        mean = math.fsum(sq) / len(sq)
        var = math.fsum((s - mean) ** 2 for s in sq) / (len(sq) - 1)
        return math.sqrt(var / len(sq))

    out = {"R": len(reports)}
    for fld in ("err_beta", "err_tau2", "err_var"):
        vals = [getattr(r, fld) for r in reports]
        out[f"rmse_{fld[4:]}"] = rms(vals)
        out[f"se_{fld[4:]}"] = se(vals)
    covs = [r.err_cov for r in reports if r.err_cov is not None]
    out["rmse_cov"] = rms(covs) if covs else None
    out["se_cov"] = se(covs) if covs else None
    return out


def ratio_report(trace_dem: Trace, trace_base: Trace) -> dict:
    """Final-loglik, iteration-count and wall-clock ratios of a run over a
    baseline.  Wall-clock ratios are informational only (hardware-bound)."""
    return {
        "loglik_ratio": trace_dem.final_loglik / trace_base.final_loglik,
        "iter_ratio": trace_dem.n_iterations / max(trace_base.n_iterations, 1),
        "time_ratio": trace_dem.total_wall_time / max(trace_base.total_wall_time, 1e-12),
        "dem_hit_max_iter": trace_dem.hit_max_iter,
        "base_hit_max_iter": trace_base.hit_max_iter,
    }


def empirical_gamma(trace: Trace) -> np.ndarray:
    """Per-worker fraction of iterations whose accept set contained it."""
    K = int(trace.config.get("K", 0)) or (
        max((max(s) for s in trace.accept_sets if s), default=-1) + 1
    )
    T = len(trace.accept_sets)
    counts = np.zeros(K)
    for accepted in trace.accept_sets:
        for k in accepted:
            counts[k] += 1
    return counts / max(T, 1)


# -- file emitters -----------------------------------------------------------


def write_metrics_csv(path, rows: Sequence[dict]) -> None:
    """One row per replication/metric; the header is the union of keys in
    first-seen order."""
    if not rows:
        raise ValueError("no rows to write")
    fields: list[str] = []
    for row in rows:
        for key in row:
            if key not in fields:
                fields.append(key)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def theta_to_json(theta: Theta) -> dict:
    return {"beta": theta.beta.tolist(), "L": theta.L.tolist(), "tau2": theta.tau2}


def theta_from_json(obj: dict) -> Theta:
    return Theta(np.asarray(obj["beta"]), np.asarray(obj["L"]), float(obj["tau2"]))


def trace_to_json(trace: Trace) -> dict:
    return {
        "config": trace.config,
        "thetas": [theta_to_json(th) for th in trace.thetas],
        "logliks": list(trace.logliks),
        "loglik_exact": trace.loglik_exact,
        "accept_sets": trace.accept_sets,
        "anchor_tags": trace.anchor_tags,
        "staleness": trace.staleness,
        "wall_times": trace.wall_times,
        "messages_sent": trace.messages_sent,
        "converged": trace.converged,
        "hit_max_iter": trace.hit_max_iter,
        "final_loglik": trace.final_loglik,
        "n_iterations": trace.n_iterations,
    }


def write_trace_json(path, trace: Trace) -> None:
    with open(path, "w") as fh:
        json.dump(trace_to_json(trace), fh, indent=1)


def load_trace_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
