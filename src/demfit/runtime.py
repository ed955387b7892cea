"""Distributed execution engine.

A single manager gates the M step on a gamma-fraction of fresh worker
E-step results and keeps the latest copy of every worker's statistics for
the rest.  One manager loop, `run_dem`, serves every algorithm.  A seeded
permutation of the workers fixes each iteration's completion order, and
the E steps run one at a time through the transport pool, so every run is
exactly reproducible on either transport.  ECME (`run_ecme0`) is the loop
with one worker and gamma = 1, and the synchronous schemes (`run_scheme`)
are gamma = 1 over K workers.

Log-likelihood bookkeeping: in the default mode the manager estimates the
full-data log likelihood from the cached per-subset headers, which are
anchored at each worker's last accepted parameter.  The estimate therefore
lags the current parameter by one round and is stale for non-reporting
workers; traces carry a flag saying which mode produced them.  Iteration 1
reuses the seeding-round results (everyone just reported at theta0), so
the stopping rule only starts comparing at iteration 2.
"""
from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import (
    ConvergenceMonitor,
    ModelContract,
    ProtocolError,
    Trace,
    aggregate_stats,
)
from .transport import make_pool

TRANSPORTS = ("in_process", "socket")
COMPLETION_POLICIES = ("restart", "finish")


@dataclass
class RunConfig:
    K: int
    gamma: float = 1.0
    tol: float = 1e-7
    max_iter: int = 1000
    seed: int = 0
    transport: str = "in_process"
    exact_loglik_check: bool = False
    forced_split: bool = False
    # what a worker does with an E step that missed its iteration's gate:
    # "restart" drops it and restarts at the newest broadcast, "finish"
    # delivers the stale result and counts it toward the next accept set.
    completion: str = "restart"

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError("gamma must be in (0, 1]")
        if self.transport not in TRANSPORTS:
            raise ValueError(f"unknown transport {self.transport!r}")
        if self.completion not in COMPLETION_POLICIES:
            raise ValueError(f"unknown completion policy {self.completion!r}")
        if self.accept_threshold < 1:
            raise ValueError("ceil(gamma * K) must be >= 1")

    @property
    def accept_threshold(self) -> int:
        """Smallest N with N/K >= gamma."""
        return math.ceil(self.gamma * self.K)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def deterministic_schedule(
    seed: int, t: int, K: int, forced_split: bool = False
) -> np.ndarray:
    """Seeded completion permutation of the workers at iteration t.

    In forced-split mode the permutation is the identity, pinning the
    accept set to the first ceil(gamma*K) workers at every iteration.
    """
    if forced_split:
        return np.arange(K)
    rng = np.random.default_rng([int(seed), int(t)])
    return rng.permutation(K)


def _full_loglik(pool, theta, K: int) -> float:
    return math.fsum(pool.loglik(k, theta) for k in range(K))


def run_dem(config: RunConfig, model: ModelContract, subsets: Sequence, theta0):
    """Manager loop over K worker subsets.

    A synchronous seeding round fills the cache at theta0 so the very first
    M step already has one E-step result per subset (its accept set is the
    head of the iteration-1 permutation).  Afterwards iteration t takes its
    fresh results in the order of `deterministic_schedule(seed, t, ...)`:
    stale deliveries first (completion "finish"), then E steps at the last
    broadcast until ceil(gamma * K) are in.  It then reruns the conditional
    maximization on the combined cache and broadcasts.
    """
    K = len(subsets)
    if K != config.K:
        raise ProtocolError(f"config.K={config.K} but {K} subsets supplied")
    N = config.accept_threshold
    monitor = ConvergenceMonitor(tol=config.tol)
    trace = Trace(loglik_exact=config.exact_loglik_check, config=config.to_dict())
    in_flight: dict[int, int] = {}  # worker -> anchor tag of a pending E step
    pool = make_pool(config.transport, model, subsets)
    try:
        theta = theta0
        for t in range(config.max_iter + 1):
            t0 = time.perf_counter()
            if t == 0:
                cache = {k: pool.estep(k, theta0, anchor_tag=0) for k in range(K)}
            elif t == 1:
                # the seeding messages are iteration 1's fresh results
                accepted = deterministic_schedule(config.seed, 1, K, config.forced_split)[:N]
            else:
                accepted = {}
                for k in sorted(in_flight):
                    if len(accepted) >= N:
                        break
                    tag = in_flight.pop(k)
                    accepted[k] = pool.estep(k, trace.thetas[tag], anchor_tag=tag)
                for k in deterministic_schedule(config.seed, t, K, config.forced_split):
                    if k in accepted or k in in_flight:
                        continue
                    if len(accepted) < N:
                        accepted[k] = pool.estep(k, theta, anchor_tag=t - 1)
                    elif config.completion == "finish":
                        in_flight[k] = t - 1
                cache.update(accepted)
            agg = aggregate_stats(cache, K)
            if t > 0:
                theta = model.cm_steps(agg, theta)
                trace.accept_sets.append(sorted(int(k) for k in accepted))
            L = (
                _full_loglik(pool, theta, K)
                if config.exact_loglik_check
                else agg.local_loglik_at_anchor
            )
            trace.thetas.append(theta)
            trace.logliks.append(L)
            trace.anchor_tags.append(agg.anchor_tags)
            trace.staleness.append([t - a for a in agg.anchor_tags])
            trace.wall_times.append(time.perf_counter() - t0)
            converged = monitor.update(t, L)
            if converged and (t >= 2 or config.exact_loglik_check):
                trace.converged = True
                break
        else:
            trace.hit_max_iter = True
        trace.final_loglik = _full_loglik(pool, theta, K)
    finally:
        pool.close()
    trace.messages_sent = pool.messages_sent
    return theta, trace


def run_ecme0(config: RunConfig, model: ModelContract, data: Sequence, theta0):
    """Non-distributed baseline: the manager loop with one worker holding
    all the data and gamma = 1.  Likelihood ascent is asserted over the
    recorded log likelihoods."""
    theta, trace = run_dem(
        dataclasses.replace(config, K=1, gamma=1.0, transport="in_process",
                            exact_loglik_check=False),
        model, [data], theta0,
    )
    for t in range(1, len(trace.logliks)):
        L, L_new = trace.logliks[t - 1], trace.logliks[t]
        if L_new < L - 1e-9 * max(1.0, abs(L)):
            raise AssertionError(
                f"log likelihood decreased at iteration {t}: {L} -> {L_new}"
            )
    trace.loglik_exact = True
    trace.config = config.to_dict() | {"algo": "ecme0"}
    trace.messages_sent = 0
    return theta, trace


def run_scheme(scheme: str, config: RunConfig, model: ModelContract,
               subsets: Sequence, theta0):
    """Synchronous communication patterns, for protocol comparison: the
    manager loop at gamma = 1.

    naive_allpairs: every process sends its E-step result to every other
    process and computes the update locally (K*(K-1) payloads per E-step
    round); synchronous: manager/worker (2K payloads).
    """
    if scheme not in ("naive_allpairs", "synchronous"):
        raise ValueError(f"run_scheme only handles schemes 'naive_allpairs' and "
                         f"'synchronous', got {scheme!r}")
    theta, trace = run_dem(dataclasses.replace(config, gamma=1.0), model, subsets, theta0)
    if scheme == "naive_allpairs":
        # each E-step result goes to every other process: the seeding
        # round's K (iteration 1's), then K more per later iteration
        K = config.K
        trace.messages_sent = (K + sum(map(len, trace.accept_sets[1:]))) * (K - 1)
    trace.config["scheme"] = scheme
    return theta, trace
