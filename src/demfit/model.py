"""Model-agnostic EM machinery.

Defines the contract a model plugin satisfies, the free-energy functional
used to certify the fractional updates, aggregation of per-subset E-step
results, and convergence monitoring.
"""
from __future__ import annotations

import math
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
    """A worker's E-step output: a model-defined payload plus header."""

    subset_id: int
    anchor_tag: int
    n_obs: int
    local_loglik_at_anchor: float
    payload: Any
    anchor_tags: Optional[list] = None  # filled on aggregates


class ModelContract(ABC):
    """Operations a model plugin must provide.

    prepare(subset) turns a worker's subset into the form the model keeps
    resident for a run: the transport pools call it once per worker, when
    they are built, and pass what it returns as the subset of every later
    local_estep and local_loglik call on that worker.  Those two must
    accept both a prepared and a plain subset and give the same results.
    The default keeps the subset as it is.  A prepared subset may keep
    what its last local_loglik computed and reuse it in a later call at
    the same parameter object, if the results stay bitwise those of a
    fresh computation.

    A local_estep payload provides combine(*others), the statistics of it
    and the others together, and loglik, its local log likelihood.

    free_energy_terms(theta, anchors, subsets) returns, per subset k, the
    local log likelihood at theta minus KL(posterior at anchors[k] ||
    posterior at theta).  With every anchor equal to theta the terms must
    equal the subsets' local_loglik values, and local_loglik must stay
    finite on the valid parameter domain.
    """

    def prepare(self, subset):
        return subset

    @abstractmethod
    def local_loglik(self, theta, subset) -> float: ...

    @abstractmethod
    def local_estep(self, theta, subset, subset_id=0, anchor_tag=0) -> SuffStats: ...

    @abstractmethod
    def cm_steps(self, agg, theta_current): ...

    @abstractmethod
    def free_energy_terms(self, theta, anchors, subsets) -> list: ...


def aggregate_stats(cache: dict, K: int) -> SuffStats:
    """Additively combine one cached E-step result per subset.

    The cache must hold exactly one entry for every subset id 0..K-1; the
    M step must never run before every subset has reported once.  The
    payloads are combined in one call, `first.combine(*rest)`, whose
    `loglik` is the header's.
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
        n_obs=sum(s.n_obs for s in parts),
        local_loglik_at_anchor=payload.loglik,
        payload=payload,
        anchor_tags=[s.anchor_tag for s in parts],
    )


def evaluate_F(theta, anchors: Sequence, model: ModelContract, subsets: Sequence) -> float:
    """Free-energy objective: sum over subsets of the local log likelihood
    minus the KL gap between the anchored posterior and the posterior at theta.

    With every anchor equal to theta this collapses to the full-data log
    likelihood.  The model evaluates every subset's term in one call.
    """
    if len(anchors) != len(subsets):
        raise ValueError(
            f"need one anchor per subset: got {len(anchors)} anchors, {len(subsets)} subsets"
        )
    total = 0.0
    for k, term in enumerate(model.free_energy_terms(theta, anchors, subsets)):
        if not math.isfinite(term):
            raise NumericalDomainError(f"non-finite free-energy term for subset {k}")
        total += term
    return total


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
    anchor_tags[j] gives, for each subset, the index into thetas of the
    parameter its cached E-step result was computed at when thetas[j] was
    current, and accept_sets[j-1] lists the workers whose fresh results
    the j-th M step used.
    """

    thetas: list = field(default_factory=list)
    logliks: list = field(default_factory=list)
    loglik_exact: bool = False
    accept_sets: list = field(default_factory=list)
    anchor_tags: list = field(default_factory=list)
    staleness: list = field(default_factory=list)
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
    def max_staleness(self) -> int:
        return max((max(s) for s in self.staleness), default=0)

    @property
    def total_wall_time(self) -> float:
        return float(sum(self.wall_times))


def check_monotone_F(trace: Trace, model: ModelContract, subsets: Sequence,
                     rel_tol: float = 1e-8) -> list:
    """Recompute the free energy along a trace and list the iterations
    where it decreased beyond the relative tolerance.  Expected empty."""
    values = []
    for tags in trace.anchor_tags:
        anchors = [trace.thetas[tag] for tag in tags]
        theta = trace.thetas[len(values)]
        values.append(evaluate_F(theta, anchors, model, subsets))
    violations = []
    for t in range(1, len(values)):
        if values[t] < values[t - 1] - rel_tol * abs(values[t - 1]):
            violations.append((t, values[t - 1], values[t]))
    return violations
