"""Model-agnostic EM machinery.

Defines the contract a model plugin satisfies, the free-energy functional
used to certify the fractional updates, aggregation of per-subset E-step
results, and convergence monitoring.
"""
from __future__ import annotations

import functools
import math
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence


class NumericalDomainError(ValueError):
    """A computation left the valid numerical domain (singular covariance, ...)."""


class ProtocolError(RuntimeError):
    """The manager/worker protocol was violated (e.g. M step before seeding)."""


class RankDeficiencyError(ValueError):
    """A design or information matrix is rank deficient."""


@dataclass
class SuffStats:
    """A worker's E-step output: a model-defined payload plus a header.

    The header routes the result: the subset it covers and the anchor tag
    of the parameter it was computed at.  The statistics themselves, the
    observation count `n` and the local log likelihood `loglik` live in
    the payload.
    """

    subset_id: int
    anchor_tag: int
    payload: Any
    anchor_tags: Optional[list] = None  # filled on aggregates


class ModelContract(ABC):
    """Everything the manager loop, a transport pool and the audit call on
    a model; a subclass missing an abstract method cannot be instantiated.

    prepare(subset) turns a worker's subset into the form the model keeps
    resident for a run: the transport pools call it once per worker, when
    they are built, and pass what it returns as the shard or subset of
    every later local_estep, local_esteps and local_loglik call on that
    worker.
    local_estep and local_loglik must accept both a prepared and a plain
    subset and give the same results.
    The default keeps the subset as it is.  A prepared subset holds data
    only: no call leaves state in it that a later call reads, apart from
    caches of the data alone.

    local_estep returns a SuffStats whose header names the subset and
    anchor tag it was given.  Its payload provides combine(*others), the
    statistics of it and the others together; n, the number of
    observations behind them; and loglik, their local log likelihood at
    the anchor.  local_esteps(theta, shards, subset_ids, anchor_tag) gives
    the E steps of several prepared subsets at one theta, one SuffStats per
    shard in their order, each bitwise what local_estep gives for that
    shard alone, and local_logliks(theta, shards) their local log
    likelihoods, each bitwise local_loglik of its shard.  The pools serve
    a batch of requests through them: the in-process pool all requests at
    one theta (and anchor tag), a socket endpoint those of its share, and
    a lone request on a socket endpoint goes to local_estep or
    local_loglik.  The defaults call those once per shard; a model may
    serve the batch in one pass instead.

    free_energy_path(thetas, anchor_tags, subsets) returns, for row j of
    anchor_tags and subset k, the local log likelihood at thetas[j] minus
    KL(posterior at thetas[anchor_tags[j][k]] || posterior at thetas[j]).
    A tag of row j is in 0..j, as in a `run_dem` trace; any other tag is a
    ValueError.  So one call for a whole trace can compute the posterior at
    each thetas[t] once, with row t or with a block of rows around it, for
    every subset whose tag is t, and keeps nothing of it after the call.
    With every tag of row j equal to j the terms must equal the subsets'
    local_loglik values at thetas[j], and local_loglik must stay finite on
    the valid parameter domain.  A term that is not finite is a
    NumericalDomainError, raised by the model naming the first such row
    and subset, or by evaluate_F and check_monotone_F naming the subset.

    The wire methods are all a socket pool knows of the model.
    pack_theta(theta) and pack_stats(stats) flatten a parameter and an
    E-step result into float64 arrays, and unpack_theta and
    unpack_stats(arr, subset_id, anchor_tag) invert them with bitwise the
    same effect on every later call; unpack_stats rebuilds the SuffStats
    header from its two arguments, which the frame header carries, and
    raises a ProtocolError naming the subset for an array whose length is
    not one pack_stats writes.
    """

    def prepare(self, subset):
        return subset

    @abstractmethod
    def local_loglik(self, theta, subset) -> float: ...

    @abstractmethod
    def local_estep(self, theta, subset, subset_id=0, anchor_tag=0) -> SuffStats: ...

    def local_esteps(self, theta, shards, subset_ids, anchor_tag) -> list:
        return [self.local_estep(theta, shard, k, anchor_tag)
                for shard, k in zip(shards, subset_ids)]

    def local_logliks(self, theta, shards) -> list:
        return [self.local_loglik(theta, shard) for shard in shards]

    @abstractmethod
    def cm_steps(self, agg, theta_current): ...

    @abstractmethod
    def free_energy_path(self, thetas, anchor_tags, subsets) -> list: ...

    @abstractmethod
    def pack_theta(self, theta): ...

    @abstractmethod
    def unpack_theta(self, arr): ...

    @abstractmethod
    def pack_stats(self, stats: SuffStats): ...

    @abstractmethod
    def unpack_stats(self, arr, subset_id: int, anchor_tag: int) -> SuffStats: ...


def aggregate_stats(cache: dict, K: int) -> SuffStats:
    """Additively combine one cached E-step result per subset.

    The cache must hold exactly one entry for every subset id 0..K-1; the
    M step must never run before every subset has reported once.  The
    payloads are combined in one call, `first.combine(*rest)`, which
    carries the total `n` and `loglik`; the aggregate's header routes
    nothing (subset id and anchor tag -1) and lists every subset's
    anchor tag in `anchor_tags`.
    """
    if not cache:
        raise ProtocolError("empty statistics cache")
    missing = [k for k in range(K) if k not in cache]
    if missing:
        raise ProtocolError(f"missing E-step results for subsets {missing}")
    parts = [cache[k] for k in sorted(cache)]
    first, rest = parts[0], parts[1:]
    payload = first.payload.combine(*(s.payload for s in rest))
    return SuffStats(
        subset_id=-1,
        anchor_tag=-1,
        payload=payload,
        anchor_tags=[s.anchor_tag for s in parts],
    )


def _free_energy(terms) -> float:
    """The terms summed left to right.  Only a total that is not finite
    has its terms scanned: a term that is not finite is a
    NumericalDomainError naming its subset, while finite terms whose sum
    overflows give an infinite total."""
    total = functools.reduce(operator.add, terms, 0.0)
    if not math.isfinite(total):
        for k, term in enumerate(terms):
            if not math.isfinite(term):
                raise NumericalDomainError(f"non-finite free-energy term for subset {k}")
    return total


def evaluate_F(theta, anchors: Sequence, model: ModelContract, subsets: Sequence) -> float:
    """Free-energy objective: sum over subsets of the local log likelihood
    minus the KL gap between the anchored posterior and the posterior at theta.

    With every anchor equal to theta this collapses to the full-data log
    likelihood.  It is the last row of a free_energy_path call whose
    earlier rows are the distinct anchors other than theta, one row each,
    so an anchor shared by several subsets, or equal to theta, is one
    parameter point.
    """
    if len(anchors) != len(subsets):
        raise ValueError(
            f"need one anchor per subset: got {len(anchors)} anchors, {len(subsets)} subsets"
        )
    thetas = [*{id(a): a for a in anchors if a is not theta}.values(), theta]
    tags = [next(t for t, seen in enumerate(thetas) if seen is anchor) for anchor in anchors]
    rows = [[t] * len(tags) for t in range(len(thetas) - 1)] + [tags]
    return _free_energy(model.free_energy_path(thetas, rows, subsets)[-1])


@dataclass
class ConvergenceMonitor:
    """Declares convergence when the full-data log likelihood moves less
    than tol between successive iterations."""

    tol: float = 1e-7
    history: list = field(default_factory=list)

    def update(self, iteration: int, loglik: float) -> bool:
        prev = self.history[-1][1] if self.history else None
        self.history.append((iteration, loglik))
        return prev is not None and abs(loglik - prev) < self.tol


@dataclass
class Trace:
    """Per-iteration record of a run.

    thetas[j] is the parameter after j M steps (thetas[0] is the start),
    anchor_tags[j] gives, for each subset, the index in 0..j into thetas of
    the parameter its cached E-step result was computed at when thetas[j]
    was current, and accept_sets[j-1] lists the workers whose fresh
    results the j-th M step used.  staleness is derived from anchor_tags.
    """

    thetas: list = field(default_factory=list)
    logliks: list = field(default_factory=list)
    loglik_exact: bool = False
    accept_sets: list = field(default_factory=list)
    anchor_tags: list = field(default_factory=list)
    wall_times: list = field(default_factory=list)
    messages_sent: int = 0
    converged: bool = False
    hit_max_iter: bool = False
    final_loglik: float = math.nan
    config: dict = field(default_factory=dict)

    @property
    def n_iterations(self) -> int:
        return len(self.thetas) - 1

    @property
    def staleness(self) -> list:
        """staleness[j][k] = j - anchor_tags[j][k]: the M steps since
        subset k's cached result was computed."""
        return [[j - a for a in tags] for j, tags in enumerate(self.anchor_tags)]

    @property
    def max_staleness(self) -> int:
        return max((max(s) for s in self.staleness), default=0)

    @property
    def total_wall_time(self) -> float:
        return float(sum(self.wall_times))


def check_monotone_F(trace: Trace, model: ModelContract, subsets: Sequence) -> list:
    """Recompute the free energy along a trace, in one free_energy_path call,
    and list the iterations where it decreased by more than 1e-8 of its
    previous value.  Expected empty."""
    rows = model.free_energy_path(trace.thetas, trace.anchor_tags, subsets)
    values = [_free_energy(terms) for terms in rows]
    violations = []
    for t in range(1, len(values)):
        if values[t] < values[t - 1] - 1e-8 * abs(values[t - 1]):
            violations.append((t, values[t - 1], values[t]))
    return violations
