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
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from .ddsum import DDArray
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


@dataclass(frozen=True)
class Theta:
    """Parameter point: fixed effects, Cholesky factor of D, error variance.

    beta and L are private read-only copies, so the terms derived from
    them (`Dinv`, `resid_coef`, `logdet_D`, `log_2pi_tau2`) are computed
    once per point and cannot go stale.
    """

    beta: np.ndarray
    L: np.ndarray
    tau2: float

    def __post_init__(self):
        beta = np.array(self.beta, dtype=float)
        L = np.array(self.L, dtype=float)
        beta.setflags(write=False)
        L.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "L", L)
        tau2 = float(self.tau2)
        object.__setattr__(self, "tau2", tau2)
        if not (np.isfinite(beta).all() and np.isfinite(L).all()):
            raise NumericalDomainError("non-finite parameter values")
        if tau2 <= 0 or not math.isfinite(tau2):
            raise NumericalDomainError(f"tau2 must be positive, got {tau2}")
        if L.ndim != 2 or L.shape[0] != L.shape[1]:
            raise NumericalDomainError("L must be square")
        if L[_strict_upper(L.shape[0])].any():
            raise NumericalDomainError("L must be lower triangular")
        if (L.diagonal() <= 0).any():
            raise NumericalDomainError("L must have a positive diagonal")

    @cached_property
    def Dinv(self) -> np.ndarray:
        """D^{-1}, solved from the Cholesky factor L of D by LAPACK."""
        out = _cho_solve(self.L, np.eye(self.q))
        out.setflags(write=False)
        return out

    @cached_property
    def resid_coef(self) -> np.ndarray:
        """(-beta, 1): the factor R of [X y] times it gives the residual norm."""
        out = np.append(-self.beta, 1.0)
        out.setflags(write=False)
        return out

    @cached_property
    def logdet_D(self) -> float:
        return 2.0 * math.fsum(np.log(np.diag(self.L)))

    @cached_property
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
        D = np.asarray(D, dtype=float)
        try:
            L = np.linalg.cholesky(D)
        except np.linalg.LinAlgError as exc:
            raise NumericalDomainError("D is not positive definite") from exc
        return cls(np.asarray(beta, dtype=float), L, float(tau2))

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
        names: n_i, y'y, X'y, X'X, then G = [X y]'Z (X'Z over y'Z), Z'Z and
        the triangular factor R of [X y], zero-padded to (p+1) x (p+1).

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
                [y.size, y @ y],
                X.T @ y,
                (X.T @ X).ravel(),
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


def _record_layout(p: int, q: int) -> dict:
    """Column slices of the stacked `Sample.moments` records."""
    out = _slices([
        ("n", 1),
        ("yy", 1),
        ("Xy", p),
        ("XX", p * p),
        ("G", (p + 1) * q),
        ("ZZ", q * q),
        ("R", (p + 1) * (p + 1)),
    ])
    out["width"] = out["R"].stop
    # the moments that are statistics as they are, in accumulator order
    out["const"] = slice(out["yy"].start, out["XX"].stop)
    return out


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


@lru_cache(maxsize=16)
def _stats_layout(p: int, q: int) -> tuple:
    """Slices of the `_StatsValues` fields in the flat accumulator."""
    out = _slices([
        ("s_yy", 1),
        ("S_xy", p),
        ("S_xx", p * p),
        ("S_xzb", p),
        ("s_yzb", 1),
        ("S_bb", q * q),
        ("s_bzzb", 1),
        ("loglik", 1),
    ])
    return tuple(out[name] for name in _StatsValues._fields)


class LmmSuffStats:
    """Additive subset aggregates for the mixed model.

    The flat accumulator holds, in order, the statistics of the data alone:
    s_yy, S_xy (p), S_xx (p*p); then those of the posterior at the E step's
    theta: S_xzb (p) and s_yzb, which are G b_hat summed, S_bb (q*q),
    s_bzzb and the loglik.  Those are enough to evaluate the expected
    residual sum at any beta, so the maximization can move beta away from
    the anchor the E step was run at.
    """

    __slots__ = ("p", "q", "m", "n", "_acc")

    def __init__(self, p: int, q: int, acc: DDArray, m: int, n: int):
        """Statistics of m samples with n observations, summed in acc."""
        self.p = p
        self.q = q
        self.m = m
        self.n = n
        self._acc = acc

    def values(self) -> _StatsValues:
        """Every statistic, read from one rounding of the accumulator."""
        p, q = self.p, self.q
        v = self._acc.value()
        S_xx, S_xy, S_xzb, S_bb, *scalars = (v[sl] for sl in _stats_layout(p, q))
        return _StatsValues(
            S_xx.reshape(p, p), S_xy, S_xzb, S_bb.reshape(q, q), *(float(x[0]) for x in scalars)
        )

    @property
    def loglik(self) -> float:
        # accumulated like the other statistics so the rounded total does
        # not depend on how the samples were grouped across subsets; the
        # last word alone rounds to the same value values() reads
        return float(self._acc.hi[-1] + self._acc.lo[-1])

    # -- accumulation ------------------------------------------------------
    def combine(self, *others: "LmmSuffStats") -> "LmmSuffStats":
        """The statistics of self and others together.

        All accumulators are summed in one compensated pairwise pass
        (`DDArray.sum_rows` over their hi and lo words); with one other
        this is exactly `DDArray.merge`.
        """
        if any((o.p, o.q) != (self.p, self.q) for o in others):
            raise ValueError("incompatible statistic shapes")
        parts = (self, *others)
        acc = DDArray.sum_rows(
            np.array([s._acc.hi for s in parts]), np.array([s._acc.lo for s in parts])
        )
        return LmmSuffStats(
            self.p, self.q, acc, sum(s.m for s in parts), sum(s.n for s in parts)
        )

    # -- wire serialization ------------------------------------------------
    def pack(self) -> np.ndarray:
        return np.concatenate(
            [[float(self.m), float(self.n)], self._acc.hi, self._acc.lo]
        )


@dataclass(frozen=True, eq=False)
class LmmShard:
    """A worker's subset held resident for a run (`LmmModel.prepare`): the
    samples' data moments stacked once, in the shapes the kernel reads.  It
    keeps no reference to the samples.  X'Z and Z'y are the rows of one
    array G = [X y]'Z, so Z'r = (-beta, 1) G and the E step's
    (X'Z b_hat, Z'y . b_hat) = G b_hat are one batched product each.

    `DDArray.sum_rows` reduces every column on its own, in a tree whose
    shape depends only on m, so the compensated sum of the data-only
    statistics (`const_sum`) is computed once, on first use, and every E
    step reuses it bitwise as if it had summed those columns again.  Apart
    from that cache a shard never changes after `prepare`: each E step or
    loglik computes its posterior afresh.
    """

    n: np.ndarray  # (m,) observations per sample
    G: np.ndarray  # (m, p+1, q): X'Z over the row Z'y
    ZZ: np.ndarray  # (m, q, q)
    R: np.ndarray  # (m, p+1, p+1) triangular factor of [X y]
    const: np.ndarray  # (m, 1 + p + p*p) rows of y'y, X'y, X'X
    n_total: int

    def __len__(self) -> int:
        return self.n.size

    @cached_property
    def const_sum(self) -> DDArray:
        """Compensated sum of the const rows: s_yy, S_xy and S_xx."""
        return DDArray.sum_rows(self.const)


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
        self._rec = _record_layout(p, q)

    # -- resident subsets ---------------------------------------------------
    def prepare(self, subset: SubsetData) -> LmmShard:
        """The subset's `Sample.moments` stacked once into a shard."""
        p, q, c = self.p, self.q, self._rec
        rec = np.array([s.moments for s in subset]) if subset else np.empty((0, c["width"]))
        if rec.shape[1:] != (c["width"],):
            raise ValueError(f"samples do not match the model's p={p}, q={q}")
        m = rec.shape[0]
        n = rec[:, c["n"]][:, 0]
        return LmmShard(
            n=n,
            G=rec[:, c["G"]].reshape(m, p + 1, q),
            ZZ=rec[:, c["ZZ"]].reshape(m, q, q),
            R=rec[:, c["R"]].reshape(m, p + 1, p + 1),
            const=rec[:, c["const"]],
            n_total=int(n.sum()),
        )

    def _shard(self, subset: SubsetData | LmmShard) -> LmmShard:
        return subset if isinstance(subset, LmmShard) else self.prepare(subset)

    # -- per-sample conditional Gaussian -----------------------------------
    def _posterior(self, theta: Theta | _Thetas, shard: LmmShard) -> _Posterior:
        """Posterior of every sample's random effects, from data moments only.

        Per sample of the shard, at theta: the q x q precision
        A = D^{-1} + Z'Z, its Cholesky factor for log|A|, its inverse, and
        b_hat = A^{-1} Z'r with Z'r = (-beta, 1) G = Z'y - (X'Z)' beta.  Each
        sample's outputs come from its own row alone, so they do not depend
        on which other samples share the batch.  For a `_Thetas` stack every
        output gains a leading row axis, and each row is bitwise what that
        row's Theta gives: the per-matrix kernels do not see the stack.
        """
        A = theta.Dinv + shard.ZZ
        try:
            cA = np.linalg.cholesky(A)
        except np.linalg.LinAlgError as exc:
            raise NumericalDomainError(
                "posterior precision not positive definite (corrupt data?)"
            ) from exc
        Ainv = np.linalg.inv(A)
        ztr = (theta.resid_coef[..., None, :] @ shard.G)[..., 0, :]
        b_hat = (Ainv @ ztr[..., None])[..., 0]
        logdet_A = 2.0 * np.log(np.diagonal(cA, axis1=-2, axis2=-1)).sum(axis=-1)
        return _Posterior(b_hat, ztr, A, Ainv, logdet_A)

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
    @staticmethod
    def _stack(shards: Sequence[LmmShard]) -> LmmShard:
        """The samples of several shards as one shard of the arrays the
        kernel reads; each shard's data-only sums and n_total are read off
        the shard itself."""
        if len(shards) == 1:
            return shards[0]
        return LmmShard(
            *(np.concatenate([getattr(s, f) for s in shards]) for f in ("n", "G", "ZZ", "R")),
            const=None, n_total=None,
        )

    def local_loglik(self, theta: Theta, subset: SubsetData | LmmShard) -> float:
        return self.local_logliks(theta, [self._shard(subset)])[0]

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

    def local_estep(self, theta: Theta, subset: SubsetData | LmmShard, subset_id: int = 0,
                    anchor_tag: int = 0) -> SuffStats:
        return self.local_esteps(theta, [self._shard(subset)], [subset_id], anchor_tag)[0]

    def local_esteps(self, theta: Theta, shards: Sequence[LmmShard], subset_ids: Sequence[int],
                     anchor_tag: int) -> list:
        """E steps of several shards at one theta, in one pass over their
        samples stacked together: the posterior, the loglik and the rows of
        the theta-dependent statistics are computed once for the batch.
        Each sample's row comes from its own data alone, and each shard sums
        its own rows in the tree `DDArray.sum_rows` builds for its size, so
        every result is bitwise that of the shard on its own."""
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
        out, end = [], 0
        for shard, k in zip(shards, subset_ids):
            start, end = end, end + len(shard)
            fresh, const = DDArray.sum_rows(rows[start:end]), shard.const_sum
            acc = DDArray._wrap(np.concatenate([const.hi, fresh.hi]),
                                np.concatenate([const.lo, fresh.lo]))
            out.append(SuffStats(k, anchor_tag,
                                 LmmSuffStats(p, q, acc, len(shard), shard.n_total)))
        return out

    def q_value(self, stats: LmmSuffStats, theta: Theta) -> float:
        """Expected complete-data log likelihood reconstructed from aggregates."""
        v = stats.values()
        logdet_D = 2.0 * np.sum(np.log(np.diag(theta.L)))
        return (
            -0.5 * (stats.n + self.q * stats.m) * theta.log_2pi_tau2
            - 0.5 * stats.m * logdet_D
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
        p, q = self.p, self.q
        rows, cols, _ = _tril(q)
        L = np.zeros((q, q))
        L[rows, cols] = arr[p : p + rows.size]
        return Theta(arr[:p], L, float(arr[-1]))

    def pack_stats(self, stats: SuffStats) -> np.ndarray:
        return stats.payload.pack()

    def unpack_stats(self, arr: np.ndarray, subset_id: int, anchor_tag: int) -> SuffStats:
        p, q = self.p, self.q
        size = _stats_layout(p, q)[-1].stop
        if len(arr) != 2 + 2 * size:
            raise ProtocolError(f"subset {subset_id}: statistics payload of {len(arr)} "
                                f"values, expected {2 + 2 * size}")
        acc = DDArray.from_parts(arr[2 : 2 + size], arr[2 + size : 2 + 2 * size])
        return SuffStats(subset_id, anchor_tag,
                         LmmSuffStats(p, q, acc, int(arr[0]), int(arr[1])))


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


def speed_matrices(info: InfoMatrices) -> SpeedReport:
    """Speed matrices of the full and fractional EM maps, with the
    decomposition identity and the smallest-singular-value sandwich, which
    holds when lam_min(S_EM) lies within 1e-4 of its bounds."""
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
    )
