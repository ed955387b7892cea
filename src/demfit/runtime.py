"""Distributed execution engine.

A single manager gates the M step on a gamma-fraction of fresh worker
E-step results and keeps the latest copy of every worker's statistics for
the rest.  One manager loop, `run_dem`, serves every algorithm.  A seeded
permutation of the workers fixes each iteration's completion order, from
which the manager lists the iteration's E-step requests before any of
them runs (when ceil(gamma * K) = K every worker is accepted, and no
permutation is drawn); the transport pool serves the list as one batch, as it serves
each round of loglik requests, so every run is exactly reproducible on
either transport.  ECME (`run_ecme0`) is the loop
with one worker and gamma = 1, and the synchronous schemes (`run_scheme`)
are gamma = 1 over K workers.

Log-likelihood bookkeeping: in the default mode the manager estimates the
full-data log likelihood from the cached per-subset results, which are
anchored at each worker's last accepted parameter.  The estimate therefore
lags the current parameter by one round and is stale for non-reporting
workers; traces carry a flag saying which mode produced them.  Iteration 1
reuses the seeding-round results (everyone just reported at theta0), so
the stopping rule only starts comparing at iteration 2.

In exact-loglik mode iteration t computes the exact L(theta_{t-1}) instead:
a worker whose cached result is fresh at theta_{t-1} has its term in that
reply's payload, and only the others are sent a loglik request.  Row t-1 of
the trace gets that value, so the stopping rule compares the same
iterations as in the default mode, and the last row's value comes from the
closing loglik round that every run makes at its final parameter.
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
    EStepBatch,
    ModelContract,
    ProtocolError,
    Trace,
    aggregate_stats,
)
from .transport import POOLS, make_pool

TRANSPORTS = tuple(POOLS)
COMPLETION_POLICIES = ("restart", "finish")
# the RunConfig settings `run_ecme0` runs with, whatever its config says:
# one worker reads no schedule seed, completion policy or split
ECME0_SETTINGS = {"gamma": 1.0, "K": 1, "seed": 0, "transport": "in_process",
                  "completion": "restart", "exact_loglik_check": False,
                  "forced_split": False}


@dataclass
class RunConfig:
    K: int
    gamma: float = 1.0
    tol: float = ConvergenceMonitor.tol
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
        if not (math.isfinite(self.tol) and self.tol >= 0.0):
            raise ValueError(f"tol must be finite and >= 0, got {self.tol}")
        if self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.transport not in TRANSPORTS:
            raise ValueError(f"unknown transport {self.transport!r}")
        if self.completion not in COMPLETION_POLICIES:
            raise ValueError(f"unknown completion policy {self.completion!r}")

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


def _esteps(pool, model: ModelContract, requests) -> EStepBatch:
    """The pool's batch of results for (k, theta, anchor_tag) E-step
    requests, in request order.  A pool with no batch surface is asked one
    request at a time, and its results make the same batch."""
    if hasattr(pool, "esteps"):
        return pool.esteps(requests)
    return EStepBatch.from_results(
        model, [pool.estep(k, theta, anchor_tag=tag) for k, theta, tag in requests])


def _logliks(pool, ks, theta) -> list:
    """The pool's local log likelihoods of workers ks at theta, in order."""
    if hasattr(pool, "logliks"):
        return pool.logliks(ks, theta)
    return [pool.loglik(k, theta) for k in ks]


def run_dem(config: RunConfig, model: ModelContract, subsets: Sequence, theta0):
    """Manager loop over K worker subsets.

    A synchronous seeding round fills the cache at theta0 so the very first
    M step already has one E-step result per subset (its accept set is the
    head of the iteration-1 permutation).  Afterwards iteration t takes its
    fresh results in the order of `deterministic_schedule(seed, t, ...)`:
    stale deliveries first (completion "finish"), then E steps at the last
    broadcast until ceil(gamma * K) are in.  When ceil(gamma * K) == K
    (gamma = 1 and `run_ecme0` among others) every worker is accepted in
    any order, and no permutation is drawn: the requests are listed in subset order, and
    every result, accept set and message count is what a drawn order
    gives.  That list needs no reply, so it is sent to the pool as one
    batch (`pool.esteps`).  The cache is the batch of the K subsets' latest
    results, in subset order: the seeding batch, into which each later
    batch's rows and anchor tags are assigned, while the K static parts
    stay those of the seeding round.  The manager then reruns the
    conditional maximization on the combined cache (`aggregate_stats`,
    one pass over the cached rows) and broadcasts.

    Every E step the manager starts enters an M step.  After the loop one
    loglik round at the final parameter gives `final_loglik`.  In
    exact-loglik mode iteration t >= 1 first computes L(theta_{t-1}) from
    the cached results fresh at theta_{t-1} plus one batch of loglik
    requests to the other workers (none at gamma = 1 with "restart"), and
    the closing round fills the last row; so the run stops at the same
    iteration as a default-mode one and sends 2K + sum(|accept_sets[1:]|)
    round trips plus those loglik requests.
    """
    K = len(subsets)
    if K != config.K:
        raise ProtocolError(f"config.K={config.K} but {K} subsets supplied")
    N = config.accept_threshold
    exact = config.exact_loglik_check
    monitor = ConvergenceMonitor(tol=config.tol)
    trace = Trace(loglik_exact=exact, config=config.to_dict())
    in_flight: dict[int, int] = {}  # worker -> anchor tag of a pending E step
    pool = make_pool(config.transport, model, subsets)

    def completion_order(t):
        # at N == K every worker is accepted whatever the order, and each
        # result depends on its own shard alone: no permutation is drawn
        if N == K:
            return range(K)
        return deterministic_schedule(config.seed, t, K, config.forced_split)

    try:
        theta = theta0
        for t in range(config.max_iter + 1):
            t0 = time.perf_counter()
            if t == 0:
                cache = _esteps(pool, model, [(k, theta0, 0) for k in range(K)])
            elif t == 1:
                # the seeding messages are iteration 1's fresh results
                accepted = completion_order(1)[:N]
            else:
                # (worker, theta, anchor tag) of every E step this iteration
                # takes, fixed before any runs: no choice depends on a reply
                requests = []
                for k in sorted(in_flight):
                    if len(requests) >= N:
                        break
                    tag = in_flight.pop(k)
                    requests.append((k, trace.thetas[tag], tag))
                # ordered like requests, and a dict so membership is O(1)
                accepted = dict.fromkeys(k for k, _, _ in requests)
                for k in completion_order(t):
                    if k in accepted or k in in_flight:
                        continue
                    if len(accepted) < N:
                        requests.append((k, theta, t - 1))
                        accepted[k] = None
                    elif config.completion == "finish":
                        in_flight[k] = t - 1
                fresh = _esteps(pool, model, requests)
                cache.rows[fresh.subset_ids] = fresh.rows
                cache.anchor_tags[fresh.subset_ids] = fresh.anchor_tags
            agg = aggregate_stats(cache, K)
            if not exact:
                L = agg.payload.loglik
            elif t == 0:
                L = None  # the closing round or iteration 1 fills row 0
            else:
                # L(theta_{t-1}), for row t-1: fresh replies carry their term
                at = cache.anchor_tags == t - 1
                L = math.fsum(_logliks(pool, np.flatnonzero(~at).tolist(), theta)
                              + model.packed_logliks(cache.rows[at]))
            if t > 0:
                theta = model.cm_steps(agg, theta)
                trace.accept_sets.append(sorted(int(k) for k in accepted))
            trace.thetas.append(theta)
            trace.anchor_tags.append(agg.anchor_tags)
            trace.wall_times.append(time.perf_counter() - t0)
            if L is None:
                continue
            trace.logliks.append(L)
            if monitor.update(t, L) and t >= 2:
                trace.converged = True
                break
        else:
            trace.hit_max_iter = True
        trace.final_loglik = math.fsum(_logliks(pool, range(K), theta))
        if exact:
            trace.logliks.append(trace.final_loglik)
    finally:
        pool.close()
    trace.messages_sent = pool.messages_sent
    return theta, trace


def run_ecme0(config: RunConfig, model: ModelContract, data: Sequence, theta0):
    """Non-distributed baseline: the manager loop with one worker holding
    all the data, at ECME0_SETTINGS, whose config the trace records.
    Likelihood ascent is asserted over the recorded log likelihoods."""
    theta, trace = run_dem(dataclasses.replace(config, **ECME0_SETTINGS), model, [data], theta0)
    for t in range(1, len(trace.logliks)):
        L, L_new = trace.logliks[t - 1], trace.logliks[t]
        if L_new < L - 1e-9 * max(1.0, abs(L)):
            raise AssertionError(
                f"log likelihood decreased at iteration {t}: {L} -> {L_new}"
            )
    trace.loglik_exact = True
    trace.config["algo"] = "ecme0"
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
