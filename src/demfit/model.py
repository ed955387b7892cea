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
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np


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
    the payload, and so does the static part of the statistics, for a
    model that has one (`ModelContract.static_parts`).
    """

    subset_id: int
    anchor_tag: int
    payload: Any
    anchor_tags: Optional[list] = None  # filled on aggregates


class EStepBatch(Sequence):
    """The E-step results of one batch as one block: row i of `rows` is the
    result for subset `subset_ids[i]` at anchor tag `anchor_tags[i]`, its
    `pack_stats` array, and `statics[i]` its static part, or None (see
    `ModelContract.static_parts`).  The ids and tags are int arrays.

    A model's `local_esteps` gives the bare block; the pool that asked for
    it adds the ids, tags and static parts, and the batch moves whole to
    the manager, whose cache is the batch of the K subsets' latest results
    in subset order, refreshed by assigning the rows and tags of each
    later batch.  Indexing builds a result: `model.unpack_stats` of a view
    of its row, with its static part attached, so a batch also reads as a
    sequence of SuffStats.  The block is the batch's own: a result may
    keep views of it.
    """

    __slots__ = ("model", "rows", "subset_ids", "anchor_tags", "statics")

    def __init__(self, model: "ModelContract", rows, subset_ids, anchor_tags, statics):
        self.model = model
        self.rows = rows
        self.subset_ids = np.asarray(subset_ids, dtype=np.intp)
        self.anchor_tags = np.asarray(anchor_tags, dtype=np.intp)
        self.statics = statics

    @classmethod
    def from_results(cls, model: "ModelContract", results) -> "EStepBatch":
        """The batch of SuffStats results: one `pack_stats` row each, and
        each payload's static part."""
        return cls(model, np.array([model.pack_stats(s) for s in results]),
                   [s.subset_id for s in results], [s.anchor_tag for s in results],
                   [getattr(s.payload, "static", None) for s in results])

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> SuffStats:
        k, tag = int(self.subset_ids[i]), int(self.anchor_tags[i])
        stats = self.model.unpack_stats(self.rows[i], k, tag)
        if self.statics[i] is not None:
            stats.payload.static = self.statics[i]
        return stats


class ModelContract(ABC):
    """Everything the manager loop, a transport pool and the audit call on
    a model; a subclass missing an abstract method cannot be instantiated.

    A model serves batches.  An E-step result is one row of stats_width
    (W) float64 values, the form pack_stats writes, which the model
    declares once; the statistics of disjoint subsets combine additively,
    so a block of rows and one combine is all the runtime needs:

    - prepare(subset) turns a worker's subset into the shard the model
      keeps resident for a run.  The transport pools call it once per
      worker, when they are built, and pass the shard to every later call
      on that worker.  It must be idempotent: a shard prepares to itself.
      The default keeps the subset as it is.  A shard holds data only: no
      call leaves state in it that a later call reads, apart from caches
      of the data alone and the layout `reside` gives it.
    - local_esteps(theta, shards) is the (n, W) float64 block of the E
      steps of n shards at one theta, row i that of shards[i], each row
      bitwise what shards[i] gives alone.  The block is the caller's own:
      a socket endpoint writes it into its reply, and the manager caches
      and sums it, with no result object in between.
    - local_logliks(theta, shards) is the local log likelihood of each
      shard at theta, a sequence of floats, each bitwise that of the shard
      alone, and bitwise the loglik of its E step at theta.
    - static_parts(shards) is the static part of each shard's statistics,
      the part that depends on its data alone, or None for each (the
      default) for a model whose statistics all depend on theta.  A model
      with static parts sums a shard's once and keeps it in the shard, so
      a later call sums only the shards that hold none yet.
    - reside(shards) keeps the prepared shards of one endpoint resident
      together and returns their static parts.  A pool calls it once per
      endpoint, when it is built, with that endpoint's shards in subset
      order (the in-process pool is one endpoint), and passes the same
      shard objects to every later call.  The default returns
      static_parts(shards); `LmmModel` makes each shard a row range of
      one read-only block of the columns its kernel reads, so a batch of
      all of them, in that order, runs on that block.
    - combine_packed(rows, statics) is the payload of the results whose
      rows are rows and whose static parts are statics, combined.  The
      payload provides combine(*others), as a per-result payload does; n,
      the number of observations behind it; and loglik, its local log
      likelihood at the anchors.
    - packed_logliks(rows) is each row's loglik, a sequence of floats
      (a list or a 1-d array), bitwise local_logliks of its shard at its
      anchor.  These equalities hold by construction when every sum of a
      shard's per-sample terms is one and the same summation: `LmmModel`
      sums them in one compensated tree per shard (`DDArray.sum_segments`)
      in its E step, its local_logliks and its free_energy_path, each sum
      its hi + lo words rounded once.
    - cm_steps(agg, theta) is the M step on an aggregate.

    The pools group the requests of a batch for local_esteps and
    local_logliks as `transport.answer` says.  check_width is the one test
    of a result's width, against stats_width, which a pool requires to be
    a positive int when it is built (a TypeError otherwise).

    local_estep(theta, subset, subset_id, anchor_tag) and
    local_loglik(theta, subset) are the batch of one, on the subset
    prepared: a SuffStats with the given header, its row unpacked and its
    static part attached, and a float.  A model need not define them.

    A payload of a model with a static part holds it in its `static`
    attribute, the same object for every E step of a shard: pack_stats
    leaves it out, so a reply carries only the theta-dependent part, and
    unpack_stats leaves it None, for the pool to attach the static part of
    its own copy of the shard.  A static part provides combine(*others)
    like a payload, and a payload's combine combines the static parts
    through the first one's; since no E step changes them, that combine
    may keep its last total and return it while the same others come
    back, so a run sums its static total once.

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

    The wire methods each handle one parameter or one result: a share
    frame carries one packed parameter per distinct theta and one row per
    request.  pack_theta(theta) and pack_stats(stats) flatten a parameter
    and an E-step result into float64 arrays; pack_stats returns a private
    array, which its caller may write over without changing the result,
    its loglik or any other result.  unpack_theta and
    unpack_stats(arr, subset_id, anchor_tag) invert them with bitwise the
    same effect on every later call; unpack_stats rebuilds the SuffStats
    header from its two arguments, which the share's request table
    carries.  The array unpack_stats is given is private to it (an
    `EStepBatch` passes a view of the row of its own block), so the
    SuffStats may keep views of it.
    """

    stats_width: int  # W, the length of every result row

    def prepare(self, subset):
        return subset

    @abstractmethod
    def local_esteps(self, theta, shards) -> np.ndarray: ...

    @abstractmethod
    def local_logliks(self, theta, shards) -> Sequence[float]: ...

    def static_parts(self, shards) -> list:
        return [None] * len(shards)

    def reside(self, shards) -> list:
        return self.static_parts(shards)

    @abstractmethod
    def combine_packed(self, rows, statics): ...

    @abstractmethod
    def packed_logliks(self, rows) -> Sequence[float]: ...

    def check_width(self, width: int, subset_id: int) -> None:
        """A result of width values that is not stats_width is a
        ProtocolError naming the subset."""
        if width != self.stats_width:
            raise ProtocolError(f"subset {subset_id}: statistics payload of {width} "
                                f"values, expected {self.stats_width}")

    def local_estep(self, theta, subset, subset_id=0, anchor_tag=0) -> SuffStats:
        shard = self.prepare(subset)
        return EStepBatch(self, self.local_esteps(theta, [shard]), [subset_id], [anchor_tag],
                          self.static_parts([shard]))[0]

    def local_loglik(self, theta, subset) -> float:
        return self.local_logliks(theta, [self.prepare(subset)])[0]

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


def aggregate_stats(cache, K: int) -> SuffStats:
    """Additively combine one cached E-step result per subset.

    The cache is a dict of SuffStats by subset id, or an `EStepBatch`
    whose rows are the results of subsets 0..K-1 in order, as `run_dem`
    keeps it.  It must hold exactly one result for every subset id
    0..K-1, and no other: a missing subset, or a key outside 0..K-1, is a
    ProtocolError naming them.  The M step must never run before every
    subset has reported once.  A batch is summed in one model call,
    `combine_packed(rows, statics)`, over its block as it is; a dict's
    payloads in one call, `first.combine(*rest)`, in subset order, which
    for the mixed model gathers their rows into such a block and sums it
    through the same pass (one compensated Sum2 pass,
    `LmmSuffStats.combine`).  Either carries the total `n` and `loglik`
    and, for a model with a static part (`ModelContract.static_parts`),
    the combined static part.  A cache refilled from resident shards holds
    the same K static parts at every iteration, so their total is summed
    once per run and each later aggregate sums only the theta-dependent
    statistics.  The aggregate's header routes nothing (subset id and
    anchor tag -1) and lists every subset's anchor tag in `anchor_tags`.
    """
    if isinstance(cache, EStepBatch):
        if len(cache) != K or cache.subset_ids.tolist() != list(range(K)):
            raise ProtocolError(f"E-step batch of subsets {cache.subset_ids.tolist()} "
                                f"is not one result for each of 0..{K - 1}")
        return SuffStats(subset_id=-1, anchor_tag=-1,
                         payload=cache.model.combine_packed(cache.rows, cache.statics),
                         anchor_tags=cache.anchor_tags.tolist())
    if not cache:
        raise ProtocolError("empty statistics cache")
    missing = [k for k in range(K) if k not in cache]
    if missing:
        raise ProtocolError(f"missing E-step results for subsets {missing}")
    if len(cache) != K:
        stray = [k for k in cache if k not in range(K)]
        raise ProtocolError(f"E-step results for subsets {stray} outside 0..{K - 1}")
    parts = [cache[k] for k in range(K)]
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
