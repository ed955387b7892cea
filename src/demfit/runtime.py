"""Distributed execution engine.

A single manager gates the M step on a gamma-fraction of fresh worker
E-step results and keeps the latest copy of every worker's statistics for
the rest.  One manager loop, `run_dem`, serves every algorithm: a
scheduler decides only where each iteration's fresh E steps come from.
The deterministic scheduler serializes completion order through the
transport pool so runs are exactly reproducible (and single-threaded); the
real scheduler runs the E steps on a thread pool and accepts them in
wall-clock completion order.  ECME (`run_ecme0`) is the loop with one
worker and gamma = 1, and the synchronous schemes (`run_scheme`) are
gamma = 1 over K workers.

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
from concurrent.futures import ThreadPoolExecutor, as_completed
from contextlib import ExitStack
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

SCHEMES = ("naive_allpairs", "synchronous", "asynchronous")
SCHEDULERS = ("real", "deterministic")
TRANSPORTS = ("in_process", "socket")
COMPLETION_POLICIES = ("restart", "finish")


@dataclass
class RunConfig:
    K: int
    gamma: float = 1.0
    tol: float = 1e-7
    max_iter: int = 1000
    seed: int = 0
    scheme: str = "asynchronous"
    scheduler: str = "deterministic"
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
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.scheduler not in SCHEDULERS:
            raise ValueError(f"unknown scheduler {self.scheduler!r}")
        if self.transport not in TRANSPORTS:
            raise ValueError(f"unknown transport {self.transport!r}")
        if self.completion not in COMPLETION_POLICIES:
            raise ValueError(f"unknown completion policy {self.completion!r}")
        if self.accept_threshold < 1:
            raise ValueError("ceil(gamma * K) must be >= 1")
        if self.scheduler == "real" and (
            self.transport != "in_process" or self.completion != "restart"
            or self.forced_split
        ):
            raise ValueError("the real scheduler supports only transport "
                             "'in_process', completion 'restart' and no forced split")
        if self.scheme != "asynchronous" and self.gamma < 1.0:
            raise ValueError(f"scheme {self.scheme!r} requires gamma = 1")

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


class _SerialScheduler:
    """Deterministic completion order: the seeded permutation of each
    iteration says which workers report first, and their E steps run one
    at a time through the pool."""

    def __init__(self, config: RunConfig, pool):
        self.config = config
        self.pool = pool
        self.in_flight: dict[int, int] = {}  # worker -> anchor tag of a pending E step

    def _order(self, t: int) -> np.ndarray:
        c = self.config
        return deterministic_schedule(c.seed, t, c.K, c.forced_split)

    def seed(self, theta0) -> dict:
        return {k: self.pool.estep(k, theta0, anchor_tag=0) for k in range(self.config.K)}

    def first_order(self):
        return self._order(1)

    def accept(self, t: int, thetas: list, N: int) -> dict:
        """Fresh results for iteration t: stale deliveries first, then
        E steps at thetas[t - 1] in permutation order until N are in."""
        fresh = {}
        for k in sorted(self.in_flight):
            if len(fresh) >= N:
                break
            tag = self.in_flight.pop(k)
            fresh[k] = self.pool.estep(k, thetas[tag], anchor_tag=tag)
        for k in self._order(t):
            if k in fresh or k in self.in_flight:
                continue
            if len(fresh) < N:
                fresh[k] = self.pool.estep(k, thetas[t - 1], anchor_tag=t - 1)
            elif self.config.completion == "finish":
                self.in_flight[k] = t - 1
        return fresh


class _ThreadedScheduler:
    """Wall-clock completion order: every worker E-steps at the newest
    broadcast on a thread pool, the first N completions are accepted and
    the rest are cancelled, so those workers restart at the next one."""

    def __init__(self, config: RunConfig, pool, executor: ThreadPoolExecutor):
        self.config = config
        self.pool = pool
        self.executor = executor

    def _submit(self, order, theta, anchor_tag: int) -> dict:
        return {self.executor.submit(self.pool.estep, k, theta, anchor_tag): k
                for k in order}

    def seed(self, theta0) -> dict:
        futures = self._submit(range(self.config.K), theta0, 0)
        return {k: f.result() for f, k in futures.items()}

    def first_order(self):
        return range(self.config.K)

    def accept(self, t: int, thetas: list, N: int) -> dict:
        # E steps hold the GIL, so they finish roughly in submission order;
        # a fixed order would starve the workers submitted last
        order = deterministic_schedule(self.config.seed, t, self.config.K)
        pending = self._submit(order, thetas[t - 1], t - 1)
        fresh = {}
        for f in as_completed(pending):
            fresh[pending[f]] = f.result()
            if len(fresh) == N:
                break
        for f in pending:
            f.cancel()
        return fresh


def run_dem(config: RunConfig, model: ModelContract, subsets: Sequence, theta0):
    """Manager loop over K worker subsets.

    A synchronous seeding round fills the cache at theta0 so the very first
    M step already has one E-step result per subset (its accept set is the
    head of the scheduler's iteration-1 order); afterwards each iteration
    takes the scheduler's fresh results, reruns the conditional
    maximization on the combined cache, and broadcasts.
    """
    K = len(subsets)
    if K != config.K:
        raise ProtocolError(f"config.K={config.K} but {K} subsets supplied")
    N = config.accept_threshold
    monitor = ConvergenceMonitor(tol=config.tol, max_iter=config.max_iter)
    trace = Trace(loglik_exact=config.exact_loglik_check, config=config.to_dict())
    with ExitStack() as stack:
        pool = make_pool(config.transport, model, subsets)
        stack.callback(pool.close)
        if config.scheduler == "real":
            executor = stack.enter_context(ThreadPoolExecutor(max_workers=min(K, 8)))
            scheduler = _ThreadedScheduler(config, pool, executor)
        else:
            scheduler = _SerialScheduler(config, pool)

        theta = theta0
        for t in range(config.max_iter + 1):
            t0 = time.perf_counter()
            if t == 0:
                cache = scheduler.seed(theta0)
            elif t == 1:
                # the seeding messages are iteration 1's fresh results
                accepted = scheduler.first_order()[:N]
            else:
                accepted = scheduler.accept(t, trace.thetas, N)
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
    trace.messages_sent = pool.messages_sent
    if config.scheme == "naive_allpairs":
        # each process sends its E-step result to every other process
        trace.messages_sent = (K + sum(map(len, trace.accept_sets[1:]))) * (K - 1)
    return theta, trace


def run_ecme0(config: RunConfig, model: ModelContract, data: Sequence, theta0):
    """Non-distributed baseline: the manager loop with one worker holding
    all the data and gamma = 1.  Likelihood ascent is asserted over the
    recorded log likelihoods."""
    theta, trace = run_dem(
        dataclasses.replace(config, K=1, gamma=1.0, scheduler="deterministic",
                            transport="in_process", exact_loglik_check=False),
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
    return run_dem(dataclasses.replace(config, gamma=1.0, scheme=scheme),
                   model, subsets, theta0)
