"""Linear mixed-effects model plugin.

Model: y_i = X_i beta + Z_i b_i + e_i with b_i ~ N(0, tau2 * D) and
e_i ~ N(0, tau2 * I).  D is parameterized through its Cholesky factor L,
so D = L L^T stays symmetric positive definite along the iterations.

The conditional-maximization update is closed form given the subset
aggregates: beta from the normal equations, then tau2 from the expected
residual sum re-centered at the new beta, then D from the posterior
second moment of the random effects.
"""
from __future__ import annotations

import itertools
import math
import operator
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import NamedTuple, Sequence

import numpy as np
from scipy.linalg import eigh
from scipy.linalg.lapack import get_lapack_funcs

from .ddsum import DDArray, Segments
from .model import (
    ConvergenceMonitor,
    ModelContract,
    NumericalDomainError,
    ProtocolError,
    RankDeficiencyError,
    SuffStats,
)

# LAPACK's Cholesky factor and solve, called directly: the results are
# bitwise those of scipy's cho_factor/cho_solve, without their per-call
# wrapper cost (about 20 us each), which the M step pays every iteration.
_potrf, _potrs = get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)


def _cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (c c') x = b for the lower Cholesky factor c."""
    x, info = _potrs(c, b, lower=True)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of potrs")
    return x


@lru_cache(maxsize=16)
def _tril(q: int) -> tuple:
    """Row and column indices of the lower triangle of a q x q matrix, in
    np.tril_indices order, and the mask of those on the diagonal."""
    rows, cols = np.tril_indices(q)
    out = (rows, cols, rows == cols)
    for a in out:
        a.setflags(write=False)
    return out


@lru_cache(maxsize=16)
def _strict_upper(q: int) -> tuple:
    """Indices of the entries above the diagonal of a q x q matrix."""
    out = np.triu_indices(q, 1)
    for a in out:
        a.setflags(write=False)
    return out


@lru_cache(maxsize=16)
def _eye(q: int) -> np.ndarray:
    """The q x q identity, read-only, since every caller shares it."""
    out = np.eye(q)
    out.setflags(write=False)
    return out


class _cached:
    """An attribute computed on first access and kept in the instance's
    __dict__, as `functools.cached_property` keeps it, without the lock
    that Python 3.11's takes on every first access.  Two threads that
    meet an uncomputed attribute at once both compute it, so it suits
    values that are equal however often they are computed."""

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


@dataclass(frozen=True)
class Theta:
    """Parameter point: fixed effects, Cholesky factor of D, error variance.

    beta and L are private read-only copies, so the terms derived from
    them (`Dinv`, `resid_coef`, `logdet_D`, `log_2pi_tau2`) are computed
    once per point, on first use, and cannot go stale.
    """

    beta: np.ndarray
    L: np.ndarray
    tau2: float

    def __post_init__(self):
        # beta and L are views of one private copy of their values, so one
        # check covers both; the views are read-only since the copy is
        b, c = np.asarray(self.beta, dtype=float), np.asarray(self.L, dtype=float)
        values = np.concatenate((b.ravel(), c.ravel()))
        values.setflags(write=False)
        beta, L = values[: b.size].reshape(b.shape), values[b.size :].reshape(c.shape)
        tau2 = float(self.tau2)
        self.__dict__.update(beta=beta, L=L, tau2=tau2)
        if not np.logical_and.reduce(np.isfinite(values)):
            raise NumericalDomainError("non-finite parameter values")
        if tau2 <= 0 or not math.isfinite(tau2):
            raise NumericalDomainError(f"tau2 must be positive, got {tau2}")
        if L.ndim != 2 or L.shape[0] != L.shape[1]:
            raise NumericalDomainError("L must be square")
        if np.logical_or.reduce(L[_strict_upper(len(L))]):
            raise NumericalDomainError("L must be lower triangular")
        if not np.minimum.reduce(L.diagonal(), initial=np.inf) > 0:
            raise NumericalDomainError("L must have a positive diagonal")

    @_cached
    def Dinv(self) -> np.ndarray:
        """D^{-1}, solved from the Cholesky factor L of D by LAPACK."""
        out = _cho_solve(self.L, _eye(len(self.L)))
        out.setflags(write=False)
        return out

    @_cached
    def resid_coef(self) -> np.ndarray:
        """(-beta, 1): the factor R of [X y] times it gives the residual norm."""
        out = np.empty(self.beta.size + 1)
        np.negative(self.beta, out=out[:-1])
        out[-1] = 1.0
        out.setflags(write=False)
        return out

    @_cached
    def logdet_D(self) -> float:
        return 2.0 * math.fsum(np.log(self.L.diagonal()).tolist())

    @_cached
    def log_2pi_tau2(self) -> float:
        return math.log(2.0 * math.pi * self.tau2)

    @property
    def p(self) -> int:
        return self.beta.size

    @property
    def q(self) -> int:
        return self.L.shape[0]

    @property
    def D(self) -> np.ndarray:
        return self.L @ self.L.T

    @property
    def Sigma(self) -> np.ndarray:
        """Random-effects covariance tau2 * D."""
        return self.tau2 * self.D

    @classmethod
    def from_cov(cls, beta, D, tau2) -> "Theta":
        """The point with D = L L', L the lower Cholesky factor LAPACK's
        potrf computes from the lower triangle of D, the upper triangle of
        L zeroed.  A D that potrf finds not positive definite is a
        NumericalDomainError, and so is one that leaves L non-finite."""
        L, info = _potrf(np.asarray(D, dtype=float), lower=True)
        if info != 0:
            raise NumericalDomainError("D is not positive definite")
        return cls(beta, L, tau2)

    @classmethod
    def default_start(cls, p: int, q: int) -> "Theta":
        """beta = 0, D = I, tau2 = 10."""
        return cls(np.zeros(p), np.eye(q), 10.0)


@dataclass(frozen=True)
class Sample:
    """One sample's observations: response y (n_i), fixed-effects design X
    (n_i x p) and random-effects design Z (n_i x q).

    The arrays must not be mutated after the sample's first use: the model
    computes their data moments once (`moments`) and keeps them.
    """

    y: np.ndarray
    X: np.ndarray
    Z: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float).ravel()
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        Z = np.atleast_2d(np.asarray(self.Z, dtype=float))
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Z", Z)
        if y.size < 1:
            raise ValueError("sample must have at least one observation")
        if X.shape[0] != y.size or Z.shape[0] != y.size:
            raise ValueError(
                f"row mismatch: y has {y.size}, X has {X.shape[0]}, Z has {Z.shape[0]}"
            )

    @property
    def n_obs(self) -> int:
        return self.y.size

    @cached_property
    def moments(self) -> np.ndarray:
        """Flat record of the data moments, in the order `_record_layout`
        names: the data-only statistics y'y, X'y and X'X, then the columns
        the kernel reads, n_i, G = [X y]'Z (X'Z over y'Z), Z'Z and the
        triangular factor R of [X y], zero-padded to (p+1) x (p+1).

        Computed on first use rather than at construction, so loading a
        dataset stays cheap; every later E step needs only these.
        """
        y, X, Z = self.y, self.X, self.Z
        p = X.shape[1]
        W = np.column_stack([X, y])
        R = np.zeros((p + 1, p + 1))
        r = np.linalg.qr(W, mode="r")
        R[: r.shape[0]] = r
        return np.concatenate(
            [
                [y @ y],
                X.T @ y,
                (X.T @ X).ravel(),
                [y.size],
                (W.T @ Z).ravel(),
                (Z.T @ Z).ravel(),
                R.ravel(),
            ]
        )


SubsetData = Sequence[Sample]


def _slices(widths) -> dict:
    """Consecutive column slices, by name, for (name, width) pairs."""
    out, i0 = {}, 0
    for name, size in widths:
        out[name] = slice(i0, i0 + size)
        i0 += size
    return out


def _kernel_widths(p: int, q: int) -> list:
    """(name, width) of the moments the kernel reads, in record order."""
    return [("n", 1), ("G", (p + 1) * q), ("ZZ", q * q), ("R", (p + 1) * (p + 1))]


@lru_cache(maxsize=16)
def _record_layout(p: int, q: int) -> MappingProxyType:
    """Column slices of the stacked `Sample.moments` records, read-only,
    since every caller shares them: the data-only statistics (`const`, in
    accumulator order), then the kernel's columns (`kernel`)."""
    out = _slices([("yy", 1), ("Xy", p), ("XX", p * p), *_kernel_widths(p, q)])
    out["width"] = out["R"].stop
    out["const"] = slice(0, out["XX"].stop)
    out["kernel"] = slice(out["XX"].stop, out["width"])
    return MappingProxyType(out)


@lru_cache(maxsize=16)
def _kernel_layout(p: int, q: int) -> MappingProxyType:
    """Column slices of a shard's kernel rows (`LmmShard.rows`), the
    record's `kernel` columns: n, G, ZZ and R, 164 at p=10, q=3."""
    out = _slices(_kernel_widths(p, q))
    out["width"] = out["R"].stop
    return MappingProxyType(out)


def theta_to_vec(theta: Theta) -> np.ndarray:
    """Map to the unconstrained space (beta, vech(L) with log diagonal, log tau2)."""
    rows, cols, diag = _tril(theta.q)
    tri = theta.L[rows, cols]
    tri[diag] = np.log(tri[diag])
    return np.concatenate([theta.beta, tri, [math.log(theta.tau2)]])


def vec_to_theta(u: np.ndarray, p: int, q: int) -> Theta:
    u = np.asarray(u, dtype=float)
    rows, cols, diag = _tril(q)
    tri = u[p : p + rows.size].copy()
    tri[diag] = np.exp(tri[diag])
    L = np.zeros((q, q))
    L[rows, cols] = tri
    return Theta(u[:p], L, math.exp(u[-1]))


class _StatsValues(NamedTuple):
    """The statistics of an `LmmSuffStats`, as arrays and floats."""

    S_xx: np.ndarray  # (p, p)
    S_xy: np.ndarray  # (p,)
    S_xzb: np.ndarray  # (p,)
    S_bb: np.ndarray  # (q, q)
    s_yy: float
    s_yzb: float
    s_bzzb: float
    loglik: float

    def rss_exp(self, beta: np.ndarray) -> float:
        """Expected residual sum of squares at beta (anchors fixed)."""
        return (
            self.s_yy
            - 2.0 * self.s_yzb
            + self.s_bzzb
            + beta @ self.S_xx @ beta
            - 2.0 * beta @ (self.S_xy - self.S_xzb)
        )


class LmmStatic:
    """The statistics of a shard that depend on its data alone: s_yy, S_xy
    (p) and S_xx (p*p), the compensated sum of its `Sample.moments` columns
    y'y, X'y and X'X, in that order.  It is the static part of the shard's
    E-step statistics (`LmmModel.static_parts`): no E step changes it, so
    it is summed once per shard, kept in the shard (`LmmShard.static`) and
    never packed.

    combine(*others) sums the parts in one compensated pass over their hi
    and lo words (`DDArray.sum_parts`), as `LmmSuffStats.combine` sums the
    theta-dependent words.  The pass reduces every column on its own, so
    these words are those a single pass over all the columns together
    gives.  A part keeps the last total it combined and returns it while
    the same others (the same objects, in the same order) come back: a run
    whose shards stay resident sums its static total once.  That cache is of data alone, and
    other parts give a fresh sum.
    """

    __slots__ = ("acc", "_last")

    def __init__(self, acc: DDArray):
        self.acc = acc
        self._last = None  # (others, the total of self and them)

    def combine(self, *others: "LmmStatic") -> "LmmStatic":
        last = self._last
        if (last is not None and len(last[0]) == len(others)
                and all(map(operator.is_, last[0], others))):
            return last[1]
        total = LmmStatic(DDArray.sum_parts([self.acc, *(o.acc for o in others)]))
        self._last = (others, total)
        return total


class LmmSuffStats:
    """Additive subset aggregates for the mixed model.

    The statistics of the posterior at the E step's theta are one float64
    row, the form `pack` writes and `LmmModel.unpack_stats` adopts: m and
    n, then the hi and then the lo words of one compensated accumulator of
    S_xzb (p) and s_yzb, which are G b_hat summed, S_bb (q*q), s_bzzb and
    the loglik, 2 + 2(p + q*q + 3) values (46 at p=10, q=3).  An E-step
    batch writes its results as the rows of one block (`EStepBatch`), and
    a result taken from the batch holds a view of its row.  m, n and
    loglik, the last word's hi + lo rounded once, are read off the row
    when the result is built.  `static` holds the statistics of the data
    alone (an `LmmStatic`: s_yy, S_xy, S_xx), the same object for every E
    step of a shard; it is None on a result just unpacked, until its
    batch attaches the shard's part.  Together they are enough to evaluate the expected
    residual sum at any beta, so the maximization can move beta away from
    the anchor the E step was run at.
    """

    __slots__ = ("p", "q", "row", "m", "n", "loglik", "static")

    def __init__(self, p: int, q: int, row: np.ndarray, static: LmmStatic | None = None):
        """The statistics the row holds, with the data-only ones in static."""
        self.p = p
        self.q = q
        self.row = row
        size = p + q * q + 3
        # accumulated like the other statistics so the rounded total does
        # not depend on how the samples were grouped across subsets; the
        # last word alone rounds as values() reads it
        self.m, self.n, self.loglik = int(row[0]), int(row[1]), float(row[1 + size] + row[-1])
        self.static = static

    @property
    def _acc(self) -> DDArray:
        """The theta-dependent accumulator, views of the row's words."""
        size = (len(self.row) - 2) // 2
        return DDArray._wrap(self.row[2 : 2 + size], self.row[2 + size :])

    def values(self) -> _StatsValues:
        """Every statistic, read from one rounding of each accumulator.  A
        result without its static part is a ProtocolError."""
        if self.static is None:
            raise ProtocolError("statistics without their data-only part: an unpacked "
                                "result needs its shard's static part")
        p, q = self.p, self.q
        c, v = self.static.acc.value(), self._acc.value()
        return _StatsValues(
            S_xx=c[1 + p :].reshape(p, p), S_xy=c[1 : 1 + p], S_xzb=v[:p],
            S_bb=v[p + 1 : -2].reshape(q, q), s_yy=float(c[0]), s_yzb=float(v[p]),
            s_bzzb=float(v[-2]), loglik=float(v[-1]),
        )

    # -- accumulation ------------------------------------------------------
    @classmethod
    def total(cls, p: int, q: int, rows: np.ndarray, statics) -> "LmmSuffStats":
        """The statistics of the K results whose rows are the rows of one
        (K, width) block, with static parts statics.

        One compensated pass sums every hi word and then every lo word, in
        row order (`DDArray.sum_words`, Sum2), so the cost is a dozen array
        operations for any K; one row's accumulator comes back as its hi +
        lo rounded once.  m and n are the sums of the block's first two
        columns.  The static parts are combined by the first one
        (`LmmStatic.combine`), and only when every result has one.
        """
        K, size = len(rows), (rows.shape[1] - 2) // 2
        # the hi words of every row, then the lo words
        acc = DDArray.sum_words(rows[:, 2:].reshape(K, 2, size).swapaxes(0, 1)
                                .reshape(2 * K, size))
        static = None if None in statics else statics[0].combine(*statics[1:])
        return cls(p, q, np.concatenate((rows[:, :2].sum(axis=0), acc.hi, acc.lo)), static)

    def combine(self, *others: "LmmSuffStats") -> "LmmSuffStats":
        """The statistics of self and others together: their rows gathered
        into one block, in part order, and summed by `total`."""
        if any((o.p, o.q) != (self.p, self.q) for o in others):
            raise ValueError("incompatible statistic shapes")
        parts = (self, *others)
        return LmmSuffStats.total(self.p, self.q, np.array([s.row for s in parts]),
                                  [s.static for s in parts])

    # -- wire serialization ------------------------------------------------
    def pack(self) -> np.ndarray:
        """A private copy of the row: m, n, then the hi and the lo words of
        the theta-dependent accumulator."""
        return self.row.copy()


class LmmShard:
    """A worker's subset held resident for a run (`LmmModel.prepare`): one
    kernel row per sample of its data moments (the `kernel` columns of
    `Sample.moments`), and views of those rows in the shapes the kernel
    reads.  It keeps no reference to the samples.  X'Z and Z'y are the rows
    of one array G = [X y]'Z, so Z'r = (-beta, 1) G and the E step's
    (X'Z b_hat, Z'y . b_hat) = G b_hat are one batched product each.
    Shards stack into one by stacking their rows (`LmmModel._stack`).

    A prepared shard also holds its data-only columns (`const`: y'y, X'y,
    X'X), until a pool makes it resident (`LmmModel.reside`).  The shards
    of one endpoint then become row ranges of one read-only block: the
    shard is shard number `slot` of `block`, an `LmmShard` over the whole
    block, its `rows` are a view of the block's, and `const` is None, its
    sums kept in `static`.  The block's `segments` are the lengths of its
    shards, laid out once (`Segments`) for the compensated tree of a batch
    of all of them.  A shard refers to its block, and a block to none of
    its shards, so the block dies with the last of them.

    The compensated tree (`DDArray.sum_segments`) reduces every column on
    its own, and each shard's words depend only on its own rows, whether it
    is summed alone or as one segment of an E-step batch.  So the sum of
    the data-only statistics (`static`, the static part of the shard's
    statistics, None until `LmmModel.static_parts` sums it) is computed
    once, and every E step's result holds that one object, bitwise as if
    the E step had summed those columns again; a manager combines it with
    the other shards' parts once per run (`LmmStatic.combine`).  Apart
    from that cache, the last total the cached part keeps and the move
    into a block, a shard never changes after `prepare`: each E step or
    loglik computes its posterior afresh.
    """

    static: LmmStatic | None = None
    block: "LmmShard | None" = None  # the resident block this shard is a range of
    slot = 0  # its place among the block's shards
    segments: Segments | None = None  # of a block: its shards' lengths

    def __init__(self, rows: np.ndarray, p: int, q: int, n_total: int | None = None,
                 const: np.ndarray | None = None):
        self._view(rows, p, q)
        self.const = const  # (m, 1 + p + p*p) rows of y'y, X'y, X'X, or None
        self.n_total = n_total  # observations in all; None for a stack of shards

    def _view(self, rows: np.ndarray, p: int, q: int) -> None:
        """Take rows, (m, kernel width) in `_kernel_layout` order, as the
        shard's kernel rows, with the kernel's views of them."""
        c = _kernel_layout(p, q)
        m = len(rows)
        self.rows = rows
        self.n = rows[:, 0]  # (m,) observations per sample
        self.G = rows[:, c["G"]].reshape(m, p + 1, q)  # X'Z over the row Z'y
        self.ZZ = rows[:, c["ZZ"]].reshape(m, q, q)
        self.R = rows[:, c["R"]].reshape(m, p + 1, p + 1)  # triangular factor of [X y]

    def __len__(self) -> int:
        return len(self.rows)


class _Posterior(NamedTuple):
    """Per-sample outputs of `LmmModel._posterior`, stacked over m samples."""

    b_hat: np.ndarray  # (m, q) posterior means of b_i
    ztr: np.ndarray  # (m, q) Z'(y - X beta)
    A: np.ndarray  # (m, q, q) precisions D^{-1} + Z'Z; covariance tau2 A^{-1}
    Ainv: np.ndarray  # (m, q, q)
    logdet_A: np.ndarray  # (m,)


class _Thetas(NamedTuple):
    """Parameter points stacked on a leading row axis, with a unit sample
    axis, so the kernels broadcast them against a shard's samples.  Each
    field holds, row by row, the `Theta` property of its name."""

    Dinv: np.ndarray  # (rows, 1, q, q)
    resid_coef: np.ndarray  # (rows, 1, p+1)
    tau2: np.ndarray  # (rows, 1)
    log_2pi_tau2: np.ndarray  # (rows, 1)
    logdet_D: np.ndarray  # (rows, 1)

    @classmethod
    def stack(cls, thetas: Sequence[Theta]) -> "_Thetas":
        return cls(*(np.array([getattr(t, f) for t in thetas])[:, None] for f in cls._fields))


def _finite_loglik(loglik: np.ndarray) -> np.ndarray:
    if not np.isfinite(loglik).all():
        raise NumericalDomainError("non-finite marginal log density")
    return loglik


# (row, sample) pairs per block of `LmmModel.free_energy_path`
BLOCK = 1024


class LmmModel(ModelContract):
    """ModelContract implementation for the linear mixed-effects model."""

    def __init__(self, p: int, q: int):
        self.p = p
        self.q = q
        # m, n, then the hi and lo words of S_xzb, s_yzb, S_bb, s_bzzb, loglik
        self.stats_width = 2 + 2 * (p + q * q + 3)

    # -- resident subsets ---------------------------------------------------
    def prepare(self, subset: SubsetData | LmmShard) -> LmmShard:
        """The subset's `Sample.moments` stacked once into a shard, whose
        kernel rows and const rows are views of that one array; a shard
        prepares to itself."""
        if isinstance(subset, LmmShard):
            return subset
        p, q = self.p, self.q
        c = _record_layout(p, q)
        rec = np.array([s.moments for s in subset]) if subset else np.empty((0, c["width"]))
        if rec.shape[1:] != (c["width"],):
            raise ValueError(f"samples do not match the model's p={p}, q={q}")
        rows = rec[:, c["kernel"]]
        return LmmShard(rows, p, q, int(rows[:, 0].sum()), rec[:, c["const"]])

    def reside(self, shards: Sequence[LmmShard]) -> list:
        """Keep the prepared shards of one endpoint resident as row ranges
        of one read-only block, in the order given, and return their static
        parts (`static_parts`), which are summed first.  The block holds the
        kernel rows alone; each shard keeps its identity, its rows become a
        view of the block, and its const rows are dropped.  A batch of all
        the shards, in that order, then runs on the block itself (`_stack`).
        A shard that resides already stays in its block, so building a
        pool never moves a shard that another pool may be serving."""
        statics = self.static_parts(shards)
        shards = [shard for shard in shards if shard.block is None]
        if not shards:
            return statics
        p, q = self.p, self.q
        lengths = [len(shard) for shard in shards]
        rows = np.empty((sum(lengths), _kernel_layout(p, q)["width"]))
        # the block and its shards see the rows read-only from the start,
        # and each shard's record is freed as soon as its rows are copied
        frozen = rows.view()
        frozen.setflags(write=False)
        block = LmmShard(frozen, p, q)
        block.segments = Segments(lengths)
        start = 0
        for slot, shard in enumerate(shards):
            end = start + len(shard)
            rows[start:end] = shard.rows
            shard._view(frozen[start:end], p, q)
            shard.const, shard.block, shard.slot = None, block, slot
            start = end
        rows.setflags(write=False)
        return statics

    # -- per-sample conditional Gaussian -----------------------------------
    def _posterior(self, theta: Theta | _Thetas, shard: LmmShard) -> _Posterior:
        """Posterior of every sample's random effects, from data moments only.

        Per sample of the shard, at theta: the q x q precision
        A = D^{-1} + Z'Z, log|A|, A^{-1} and b_hat = A^{-1} Z'r with
        Z'r = (-beta, 1) G = Z'y - (X'Z)' beta.

        The kernel is batch-major, since a per-matrix LAPACK call costs
        about as much as the arithmetic of a whole batch: the samples, and
        the rows of a `_Thetas` stack, lie on the last axes of one array
        [A | Z'r | I] of q rows by 2q + 1 entries, and each step is one
        array operation over all of them.  Step k checks the pivot d_k (a
        NaN fails too) and eliminates column k from the rows below, each
        row read right of its diagonal, that is from A's lower triangle.
        This is the Cholesky factorization in its square-root-free form
        A = L diag(d) L' with unit lower triangular L: row k ends as
        [d_k L[k+1:, k]' | y_k | N[k]] with N = L^{-1} and y = N Z'r, and
        the diagonal keeps d_k, so log|A| = sum_k log d_k.  Once every
        pivot has passed, the rows [y N] are divided by sqrt(d), and one
        per-matrix product of [y N]' with its transpose gives
        b_hat = N' diag(d)^{-1} y and A^{-1} = N' diag(d)^{-1} N, copied out
        contiguous for their readers.

        Every operation is elementwise IEEE arithmetic or matmul's own
        per-matrix loop: the reversed row axis gives the product a negative
        stride, so numpy never hands it to BLAS, whose kernel it would pick
        from the batch's strides, and a batch of one runs the loop a larger
        batch runs.  So each sample's outputs come from its own entries
        alone: they do not depend on which other samples share the batch,
        and for a `_Thetas` stack, where every output gains a leading row
        axis, each row is bitwise what that row's Theta gives.
        """
        A = theta.Dinv + shard.ZZ
        ztr = (theta.resid_coef[..., None, :] @ shard.G)[..., 0, :]
        q = self.q
        w = 2 * q + 1
        batch = A.shape[-3::-1]  # the sample and row axes, in the order .T gives
        aug = np.zeros((q, w) + batch)
        aug[:, :q] = A.T
        aug[:, q] = ztr.T
        entries = aug.reshape((q * w,) + batch)
        entries[q + 1 :: w + 1] = 1.0
        for k in range(q):
            pivot = aug[k, k]
            if not np.minimum.reduce(pivot, axis=None, initial=np.inf) > 0:
                raise NumericalDomainError(
                    "posterior precision not positive definite (corrupt data?)")
            if k + 1 < q:
                # row k is zero past column q + 1 + k
                below = aug[k + 1 :, k + 1 : q + 2 + k]
                below -= (aug[k, k + 1 : q] / pivot)[:, None] * aug[k, k + 1 : q + 2 + k]
        pivots = entries[:: w + 1]
        log_pivots = np.log(pivots)
        logdet_A = log_pivots[0]
        for k in range(1, q):
            logdet_A = logdet_A + log_pivots[k]
        yN = aug[:, q:]
        yN /= np.sqrt(pivots)[:, None]
        yN = yN[::-1].T
        S = yN @ yN.swapaxes(-1, -2)  # [[y' diag(d)^{-1} y, b_hat'], [b_hat, A^{-1}]] per sample
        return _Posterior(S[..., 0, 1:].copy(), ztr, A, S[..., 1:, 1:].copy(), logdet_A.T)

    def _loglik(self, theta: Theta | _Thetas, shard: LmmShard,
                post: _Posterior) -> np.ndarray:
        """Marginal log density of every sample, given its posterior at theta
        (and per row of a `_Thetas` stack).  The terms are not checked: a
        caller names the terms it finds not finite."""
        # r'r = ||R (-beta, 1)||^2 for r = y - X beta; the expansion
        # y'y - 2 beta'X'y + beta'X'X beta would cancel when r is small
        Rv = (shard.R @ theta.resid_coef[..., None])[..., 0]
        quad = (Rv * Rv).sum(axis=-1) - (post.ztr * post.b_hat).sum(axis=-1)
        # via the determinant lemma: |Z D Z' + I| = |A| |D|
        return -0.5 * (shard.n * theta.log_2pi_tau2 + post.logdet_A
                       + quad / theta.tau2 + theta.logdet_D)

    def _kl(self, theta: Theta | _Thetas, post: _Posterior, anchor: _Posterior,
            tau2_a, log_ratio) -> np.ndarray:
        """Every sample's Gaussian KL(posterior at its anchor || posterior at
        theta), as (m,) terms, or (rows, m) for a `_Thetas` stack.

        post is the posterior at theta; anchor holds each sample's Ainv,
        b_hat and logdet_A at its anchor, in post's shape.  tau2_a and
        log_ratio, which is q log(theta.tau2 / tau2_a), are given per
        sample, or as scalars for one anchor.  The terms are not checked:
        `free_energy_path` names the row and subset of one not finite.
        """
        q = self.q
        # C = tau2 A^{-1}, so C_e^{-1} = A_e / tau2_e needs no factorization
        # and log|C| = q log tau2 - log|A|
        AAinv = post.A * anchor.Ainv
        tr = (tau2_a / theta.tau2) * AAinv.reshape(AAinv.shape[:-2] + (q * q,)).sum(axis=-1)
        d = post.b_hat - anchor.b_hat
        quad = ((post.A @ d[..., None])[..., 0] * d).sum(axis=-1) / theta.tau2
        logdet = log_ratio - post.logdet_A + anchor.logdet_A
        return 0.5 * (tr + quad - q + logdet)

    def posterior_moments(self, theta: Theta, s: Sample):
        """Mean and covariance of the random effects given the data.

        Computed through the q-dimensional precision A = D^{-1} + Z^T Z,
        which equals the standard W = Z D Z^T + I conditioning without ever
        forming the n_i-dimensional inverse.
        """
        post = self._posterior(theta, self.prepare([s]))
        return post.b_hat[0], theta.tau2 * post.Ainv[0]

    # -- ModelContract operations -------------------------------------------
    def _stack(self, shards: Sequence[LmmShard]) -> LmmShard:
        """The samples of several shards as one shard; each shard's
        data-only sums and n_total are read off the shard itself.  All the
        shards of one resident block (`reside`), in its order, are the
        block itself; any other shards are stacked by one copy of their
        rows."""
        if len(shards) == 1:
            return shards[0]
        block = shards[0].block
        if (block is not None and len(shards) == len(block.segments)
                and all(shard.block is block and shard.slot == slot
                        for slot, shard in enumerate(shards))):
            return block
        return LmmShard(np.concatenate([s.rows for s in shards]), self.p, self.q)

    def local_logliks(self, theta: Theta, shards: Sequence[LmmShard]) -> list:
        """Local log likelihoods of several shards at one theta, from one
        posterior and loglik pass over their samples stacked together.
        Each sample's term comes from its own data alone, and each shard's
        terms are summed on their own by `math.fsum`, so every value is
        bitwise that of the shard on its own."""
        if not shards:
            return []
        stacked = self._stack(shards)
        post = self._posterior(theta, stacked)
        terms = _finite_loglik(self._loglik(theta, stacked, post)).tolist()
        ends = list(itertools.accumulate(len(shard) for shard in shards))
        return [math.fsum(terms[end - len(shard) : end]) for shard, end in zip(shards, ends)]

    def local_esteps(self, theta: Theta, shards: Sequence[LmmShard]) -> np.ndarray:
        """E steps of several shards at one theta, in one pass over their
        samples stacked together: the posterior, the loglik and the rows of
        the theta-dependent statistics are computed once for the batch.
        Each sample's row comes from its own data alone, and one segmented
        compensated tree (`DDArray.sum_segments`) sums every shard's rows,
        each shard's words bitwise those of its own tree, so every result
        is bitwise that of the shard on its own.  The block holds one
        result row per shard, written in place."""
        p, q = self.p, self.q
        stacked = self._stack(shards)
        m = len(stacked)
        post = self._posterior(theta, stacked)
        b_hat = post.b_hat
        # one row per sample of the statistics that depend on theta, written
        # in place in the LmmSuffStats layout: G b_hat (S_xzb, s_yzb), S_bb,
        # s_bzzb, loglik; the data-only ones are summed once per shard
        rows = np.empty((m, p + q * q + 3))
        np.matmul(stacked.G, b_hat[:, :, None], out=rows[:, : p + 1, None])
        B = rows[:, p + 1 : -2]
        np.multiply(b_hat[:, :, None], b_hat[:, None, :], out=B.reshape(m, q, q))
        B += theta.tau2 * post.Ainv.reshape(m, q * q)
        np.sum(stacked.ZZ.reshape(m, q * q) * B, axis=1, out=rows[:, -2])
        rows[:, -1] = _finite_loglik(self._loglik(theta, stacked, post))
        # one accumulator row per shard, all shards in one segmented tree,
        # written with its m and n as one result row of the batch's block;
        # a resident block laid out the tree of a batch of all its shards
        sizes = stacked.segments or [len(shard) for shard in shards]
        fresh = DDArray.sum_segments(rows, sizes)
        size = rows.shape[1]
        block = np.empty((len(shards), 2 + 2 * size))
        block[:, 0] = sizes
        block[:, 1] = [shard.n_total for shard in shards]
        block[:, 2 : 2 + size] = fresh.hi
        block[:, 2 + size :] = fresh.lo
        return block

    def static_parts(self, shards: Sequence[LmmShard]) -> list:
        """The data-only statistics of several prepared shards.  The const
        rows of every shard that holds no part yet are summed in one
        segmented compensated tree (`DDArray.sum_segments`), each shard's
        words bitwise those of its own tree, and each keeps its part
        (`LmmShard.static`); a shard that has its part already keeps that
        one, and a call whose shards all have theirs sums nothing.  Two
        threads that meet a shard without its part at once may both sum
        it, to bitwise the same words; a pool takes every part (`reside`)
        before its endpoints start."""
        todo = [shard for shard in shards if shard.static is None]
        if todo:
            acc = DDArray.sum_segments(np.concatenate([shard.const for shard in todo]),
                                       [len(shard) for shard in todo])
            for shard, hi, lo in zip(todo, acc.hi, acc.lo):
                shard.static = LmmStatic(DDArray._wrap(hi, lo))
        return [shard.static for shard in shards]

    def combine_packed(self, rows: np.ndarray, statics) -> LmmSuffStats:
        """The statistics of the results whose rows are rows, summed in
        place by `LmmSuffStats.total`."""
        return LmmSuffStats.total(self.p, self.q, rows, statics)

    def packed_logliks(self, rows: np.ndarray) -> list:
        """Each row's loglik, its last hi + lo word rounded once."""
        return (rows[:, rows.shape[1] // 2] + rows[:, -1]).tolist()

    def q_value(self, stats: LmmSuffStats, theta: Theta) -> float:
        """Expected complete-data log likelihood reconstructed from aggregates."""
        v = stats.values()
        return (
            -0.5 * (stats.n + self.q * stats.m) * theta.log_2pi_tau2
            - 0.5 * stats.m * theta.logdet_D
            - 0.5 * (v.rss_exp(theta.beta) + float(np.sum(theta.Dinv * v.S_bb))) / theta.tau2
        )

    def cm_steps(self, agg: SuffStats, theta_current: Theta) -> Theta:
        stats: LmmSuffStats = agg.payload
        v = stats.values()
        c, info = _potrf(v.S_xx, lower=True)
        if info != 0:
            raise RankDeficiencyError(
                "fixed-effects design S_xx is singular; columns of X are collinear"
            )
        beta = _cho_solve(c, v.S_xy - v.S_xzb)
        tau2 = v.rss_exp(beta) / stats.n
        D = v.S_bb / (stats.m * tau2)
        return Theta.from_cov(beta, D, tau2)

    def free_energy_path(self, thetas: Sequence[Theta], anchor_tags: Sequence[Sequence[int]],
                         subsets: Sequence[SubsetData]) -> list:
        """Per row j and subset k, local_loglik(thetas[j], subset) minus the
        summed Gaussian KL(posterior at thetas[anchor_tags[j][k]] ||
        posterior at thetas[j]) over its samples, in one pass.  A row
        without its point in thetas, with the wrong number of tags or with
        a tag outside 0..j is a ValueError, raised before any posterior is
        computed; a term that is not finite is a NumericalDomainError
        naming the first such row and subset.

        The samples are stacked once, and the rows run in blocks of
        max(1, BLOCK // m) over all m samples: one posterior call gives
        every row of a block its posterior, one loglik call and one KL call
        every term.  Each (row, sample) anchor is gathered from the
        posterior at the row its tag names: the block's own, the anchors
        carried from the row before the block, or a copy.  The samples of
        the posterior at thetas[t] that a row after t's block switches to
        are copied out at t's block, so the pass holds one block's arrays
        beside those copies, never an array per row.  It computes
        q log(tau2 / tau2_a) once per distinct tag of a row.  The kernels
        treat each row and sample on its own, so every term is bitwise what
        a call per row and subset gives.
        """
        q, K, R = self.q, len(subsets), len(anchor_tags)
        if len(thetas) < R:
            raise ValueError(f"row {len(thetas)}: no point in thetas, which has "
                             f"{len(thetas)} for {R} rows")
        sizes = [len(subset) for subset in subsets]
        shard = self.prepare([s for subset in subsets for s in subset])
        m = len(shard)
        ends = list(itertools.accumulate(sizes))
        starts = [end - size for end, size in zip(ends, sizes)]
        members = [np.arange(a, b) for a, b in zip(starts, ends)]
        group = np.repeat(np.arange(K), sizes)
        # switches[t]: (row, subsets) for each row where subsets take tag t
        switches = defaultdict(list)
        prev = [None] * K
        for j, tags in enumerate(anchor_tags):
            if len(tags) != K:
                raise ValueError(f"row {j}: need one anchor tag per subset, got {len(tags)}")
            changed = defaultdict(list)
            for k, (tag, old) in enumerate(zip(tags, prev)):
                if tag != old:
                    if not 0 <= tag <= j:
                        raise ValueError(f"row {j}: anchor tag {tag} is not a row up to {j}")
                    changed[tag].append(k)
            for tag, ks in changed.items():
                switches[tag].append((j, ks))
            prev = tags

        rows = max(1, BLOCK // max(m, 1))
        tau2 = [theta.tau2 for theta in thetas[:R]]
        tau2_rows = np.array(tau2)
        within = np.arange(m) - np.repeat(starts, sizes)  # each sample's place in its subset
        fields = ("b_hat", "Ainv", "logdet_A")  # what a KL reads of an anchor
        # the anchors of the row before the block; no row reads them at row 0
        carry = [np.empty((m, q)), np.empty((m, q, q)), np.empty(m)]
        pending = defaultdict(list)  # row -> (subsets, their anchors) it switches to
        out = []
        for j0 in range(0, R, rows):
            j1 = min(j0 + rows, R)
            n = j1 - j0
            block = _Thetas.stack(thetas[j0:j1])
            post = self._posterior(block, shard)
            here = defaultdict(list)  # row -> (tag, subsets) for tags in the block
            for t in range(j0, j1):
                for row, ks in switches.pop(t, ()):
                    if row < j1:
                        here[row].append((t, ks))
                    else:
                        idx = np.concatenate([members[k] for k in ks])
                        pending[row].append((ks, [getattr(post, f)[t - j0, idx] for f in fields]))
            # a row's anchors are gathered from the carried ones, the block's
            # posteriors and the copies pending holds for the block's rows,
            # stacked in that order; base[k] is where subset k's anchors start
            base, size = list(starts), (n + 1) * m
            bases, copied, log_ratio = [], [], []
            for j in range(j0, j1):
                for t, ks in here.pop(j, ()):
                    for k in ks:
                        base[k] = (1 + t - j0) * m + starts[k]
                for ks, copies in pending.pop(j, ()):
                    for k in ks:
                        base[k], size = size, size + sizes[k]
                    copied.append(copies)
                bases.append(list(base))
                tags = anchor_tags[j]
                ratio = {t: q * math.log(tau2[j] / tau2[t]) for t in set(tags)}
                log_ratio.append([ratio[t] for t in tags])
            at = np.array(bases, dtype=np.intp).reshape(n, K)[:, group] + within
            b_hat, Ainv, logdet_A = (
                np.concatenate([c, getattr(post, f).reshape(n * m, *c.shape[1:]),
                                *(copies[i] for copies in copied)])[at]
                for i, (c, f) in enumerate(zip(carry, fields)))
            tag_rows = np.array(anchor_tags[j0:j1], dtype=np.intp).reshape(n, K)
            kl = self._kl(block, post, _Posterior(b_hat, None, None, Ainv, logdet_A),
                          tau2_rows[tag_rows[:, group]],
                          np.array(log_ratio).reshape(n, K)[:, group])
            loglik = self._loglik(block, shard, post)
            finite = np.isfinite(kl) & np.isfinite(loglik)
            if not finite.all():
                r, i = np.argwhere(~finite)[0]
                raise NumericalDomainError(
                    f"row {j0 + r}, subset {group[i]}: non-finite free-energy term")
            carry = [a[-1].copy() for a in (b_hat, Ainv, logdet_A)]
            out.extend([math.fsum(ll[a:b]) - math.fsum(kk[a:b]) for a, b in zip(starts, ends)]
                       for ll, kk in zip(loglik.tolist(), kl.tolist()))
            # so the next block's arrays replace this block's, not join them
            del post, b_hat, Ainv, logdet_A, kl, loglik
        return out

    # -- wire serialization --------------------------------------------------
    def pack_theta(self, theta: Theta) -> np.ndarray:
        rows, cols, _ = _tril(self.q)
        return np.concatenate([theta.beta, theta.L[rows, cols], [theta.tau2]])

    def unpack_theta(self, arr: np.ndarray) -> Theta:
        """The Theta pack_theta packed; an array of another length is a
        ProtocolError."""
        p, q = self.p, self.q
        rows, cols, _ = _tril(q)
        if len(arr) != p + rows.size + 1:
            raise ProtocolError(f"parameter of {len(arr)} values, expected {p + rows.size + 1}")
        L = np.zeros((q, q))
        L[rows, cols] = arr[p : p + rows.size]
        return Theta(arr[:p], L, float(arr[-1]))

    def pack_stats(self, stats: SuffStats) -> np.ndarray:
        return stats.payload.pack()

    def unpack_stats(self, arr: np.ndarray, subset_id: int, anchor_tag: int) -> SuffStats:
        self.check_width(len(arr), subset_id)
        # arr is the caller's private array (a row of a batch's block), so
        # the result adopts it as its row; the static part is the pool's
        # to attach
        return SuffStats(subset_id, anchor_tag, LmmSuffStats(self.p, self.q, arr))


# -- information and speed matrices ---------------------------------------


def fd_derivatives(f, u0: np.ndarray) -> tuple:
    """Central-difference gradient and Hessian (g, H) of f at u0, with
    per-coordinate steps 1e-5*(1+|u_i|).  The gradient reuses the function
    values of the Hessian's diagonal quotients."""
    u0 = np.asarray(u0, dtype=float)
    n = u0.size
    h = 1e-5 * (1.0 + np.abs(u0))
    g = np.zeros(n)
    H = np.zeros((n, n))
    f0 = f(u0)
    for i in range(n):
        up, dn = u0.copy(), u0.copy()
        up[i] += h[i]
        dn[i] -= h[i]
        f_up, f_dn = f(up), f(dn)
        g[i] = (f_up - f_dn) / (2.0 * h[i])
        H[i, i] = (f_up - 2.0 * f0 + f_dn) / h[i] ** 2
        for j in range(i):
            pp, pm, mp, mm = u0.copy(), u0.copy(), u0.copy(), u0.copy()
            pp[[i, j]] += [h[i], h[j]]
            pm[i] += h[i]
            pm[j] -= h[j]
            mp[i] -= h[i]
            mp[j] += h[j]
            mm[[i, j]] -= [h[i], h[j]]
            H[i, j] = H[j, i] = (f(pp) - f(pm) - f(mp) + f(mm)) / (4.0 * h[i] * h[j])
    return g, H


@dataclass
class InfoMatrices:
    i_obs: np.ndarray
    i_com: np.ndarray
    i_obs_A: np.ndarray
    i_com_A: np.ndarray
    i_obs_Ac: np.ndarray
    i_com_Ac: np.ndarray
    grad_norm: float
    newton_decrement: float  # g' i_obs^{-1} g / 2, the gain a Newton step predicts
    warnings: list = field(default_factory=list)


def information_matrices(
    model: LmmModel,
    theta_hat: Theta,
    subsets: Sequence[SubsetData],
    split: Sequence[int],
) -> InfoMatrices:
    """Observed- and complete-data information blocks for a subset split.

    All second derivatives are taken in the unconstrained parameterization
    (beta, vech(L) with log diagonal, log tau2) so difference steps never
    leave the valid domain.  i_obs differentiates the marginal log
    likelihood; i_com differentiates the reconstructed expected
    complete-data objective anchored at theta_hat.  The split's subsets
    form one shard and the rest another; each is differenced once, so the
    cost does not depend on K.  A split id outside 0..K-1 is a ValueError.

    theta_hat may not be stationary when the Newton decrement
    g' i_obs^{-1} g / 2 of the log likelihood gradient g, the gain a Newton
    step predicts, exceeds the default stopping tolerance of a fit.  Unlike
    the norm of g it does not depend on the scale of the parameters or of
    n.  A decrement that is not finite and positive, or an i_obs that
    cannot be solved, is a warning too.
    """
    p, q = model.p, model.q
    u0 = theta_to_vec(theta_hat)
    split = sorted(set(split))
    bad = [k for k in split if not 0 <= k < len(subsets)]
    if bad:
        raise ValueError(f"split ids {bad} lie outside 0..K-1 for K={len(subsets)}")
    notes = []

    def block(ids):
        shard = model.prepare([s for k in ids for s in subsets[k]])
        g, h_obs = fd_derivatives(
            lambda u: model.local_loglik(vec_to_theta(u, p, q), shard), u0
        )
        stats = model.local_estep(theta_hat, shard).payload
        _, h_com = fd_derivatives(
            lambda u: model.q_value(stats, vec_to_theta(u, p, q)), u0
        )
        return g, -h_obs, -h_com

    g_A, obs_A, com_A = block(split)
    g_Ac, obs_Ac, com_Ac = block([k for k in range(len(subsets)) if k not in split])
    grad = g_A + g_Ac
    i_obs = obs_A + obs_Ac
    try:
        decrement = float(grad @ np.linalg.solve(i_obs, grad)) / 2.0
    except np.linalg.LinAlgError:
        decrement = math.nan
        notes.append("i_obs is singular: cannot test theta_hat for stationarity")
    else:
        tol = ConvergenceMonitor.tol
        if not (math.isfinite(decrement) and decrement > 0):
            notes.append(f"Newton decrement {decrement:.3e} is not finite and "
                         "positive: i_obs is not positive definite at theta_hat")
        elif decrement > tol:
            notes.append(f"Newton decrement {decrement:.3e} > {tol:g}: "
                         "theta_hat may not be stationary")
    i_com = com_A + com_Ac
    if np.any(np.linalg.eigvalsh(0.5 * (i_com + i_com.T)) <= 0):
        notes.append("i_com is not positive definite: not at a maximizer")
    return InfoMatrices(
        i_obs=i_obs,
        i_com=i_com,
        i_obs_A=obs_A,
        i_com_A=com_A,
        i_obs_Ac=obs_Ac,
        i_com_Ac=com_Ac,
        grad_norm=float(np.linalg.norm(grad)),
        newton_decrement=decrement,
        warnings=notes,
    )


@dataclass
class SpeedReport:
    S_EM: np.ndarray
    S_DEM: np.ndarray
    C: np.ndarray
    O: np.ndarray
    identity_residual: float
    lower_bound: float
    upper_bound: float
    lam_min_S_EM: float
    eigen_bounds_ok: bool
    # the eigenvalue form of the sandwich, each lam from a symmetric-definite
    # pencil; the bounds are nan, not ok and warned of where it does not apply
    pencil_lower_bound: float
    pencil_upper_bound: float
    pencil_lam_min_S_EM: float
    pencil_bounds_ok: bool
    warnings: list = field(default_factory=list)


def speed_matrices(info: InfoMatrices) -> SpeedReport:
    """Speed matrices of the full and fractional EM maps, with the
    decomposition identity and two forms of the sandwich on lam_min(S_EM),
    each of which holds when lam_min(S_EM) lies within 1e-4 of its bounds.

    The singular-value form (lower_bound, upper_bound, lam_min_S_EM and
    eigen_bounds_ok, which also asks for an identity residual below 1e-6)
    is no theorem and can fail.  The eigenvalue form

        lam_min(S_DEM) / (1 + lam_max(C)) + lam_min(O) <= lam_min(S_EM)
            <= lam_min(S_DEM) / (1 + lam_min(C)) + lam_max(O)

    is one whenever i_com_A and i_com are positive definite and
    lam_min(S_DEM) >= 0, as at a maximizer: each matrix is B^-1 A for a
    symmetric pencil (A, B), so its eigenvalues are the extremes of the
    Rayleigh quotient x'Ax / x'Bx, and x' i_obs x / x' i_com x splits into
    the S_DEM quotient times 1 / (1 + the C quotient), plus the O one.
    Where either condition fails the form does not apply: its bounds are
    nan, its verdict is False and a warning says why."""
    try:
        S_EM = np.linalg.solve(info.i_com, info.i_obs)
        S_DEM = np.linalg.solve(info.i_com_A, info.i_obs_A)
        C = np.linalg.solve(info.i_com_A, info.i_com_Ac)
        O = np.linalg.solve(info.i_com, info.i_obs_Ac)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError(
            "singular complete-data information: split too small for identifiability"
        ) from exc
    eye = np.eye(S_EM.shape[0])
    recon = np.linalg.solve(eye + C, S_DEM) + O
    denom = np.linalg.norm(S_EM)
    residual = float(np.linalg.norm(S_EM - recon) / denom) if denom > 0 else 0.0

    sv_em, sv_dem, sv_c, sv_o = (
        np.linalg.svd(a, compute_uv=False) for a in (S_EM, S_DEM, C, O)
    )
    lam_em = float(sv_em[-1])
    lo = float(sv_dem[-1] / (1.0 + sv_c[0]) + sv_o[-1])
    hi = float(sv_dem[-1] / (1.0 + sv_c[-1]) + sv_o[-1])
    ok = residual < 1e-6 and (lo - 1e-4) <= lam_em <= (hi + 1e-4)
    notes = []
    p_lo = p_hi = p_em = math.nan
    try:
        em, dem, c, o = (
            eigh(a, b, eigvals_only=True)
            for a, b in ((info.i_obs, info.i_com), (info.i_obs_A, info.i_com_A),
                         (info.i_com_Ac, info.i_com_A), (info.i_obs_Ac, info.i_com))
        )
    except np.linalg.LinAlgError:
        notes.append("i_com or i_com_A is not positive definite: "
                     "the eigenvalue sandwich does not apply")
    else:
        p_em = float(em[0])
        if dem[0] < 0:
            notes.append(f"lam_min(S_DEM) {dem[0]:.3e} < 0, as away from a maximizer: "
                         "the eigenvalue sandwich does not apply")
        else:
            p_lo = float(dem[0] / (1.0 + c[-1]) + o[0])
            p_hi = float(dem[0] / (1.0 + c[0]) + o[-1])
    return SpeedReport(
        S_EM=S_EM,
        S_DEM=S_DEM,
        C=C,
        O=O,
        identity_residual=residual,
        lower_bound=lo,
        upper_bound=hi,
        lam_min_S_EM=lam_em,
        eigen_bounds_ok=ok,
        pencil_lower_bound=p_lo,
        pencil_upper_bound=p_hi,
        pencil_lam_min_S_EM=p_em,
        pencil_bounds_ok=bool(p_lo - 1e-4 <= p_em <= p_hi + 1e-4),
        warnings=notes,
    )
