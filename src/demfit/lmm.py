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

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from .ddsum import DDArray
from .model import ModelContract, NumericalDomainError, RankDeficiencyError, SuffStats

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
        """D^{-1} = L^{-T} L^{-1}."""
        Linv = np.linalg.inv(self.L)
        out = Linv.T @ Linv
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
        names: n_i, y'y, X'y, X'X, Z'y, X'Z, Z'Z and the triangular factor
        R of [X y], zero-padded to (p+1) x (p+1).

        Computed on first use rather than at construction, so loading a
        dataset stays cheap; every later E step needs only these.
        """
        y, X, Z = self.y, self.X, self.Z
        p = X.shape[1]
        R = np.zeros((p + 1, p + 1))
        r = np.linalg.qr(np.column_stack([X, y]), mode="r")
        R[: r.shape[0]] = r
        return np.concatenate(
            [
                [y.size, y @ y],
                X.T @ y,
                (X.T @ X).ravel(),
                Z.T @ y,
                (X.T @ Z).ravel(),
                (Z.T @ Z).ravel(),
                R.ravel(),
            ]
        )


SubsetData = Sequence[Sample]


def _record_layout(p: int, q: int) -> dict:
    """Column slices of the stacked `Sample.moments` records."""
    out = {}
    i0 = 0
    for name, size in [
        ("n", 1),
        ("yy", 1),
        ("Xy", p),
        ("XX", p * p),
        ("Zy", q),
        ("XZ", p * q),
        ("ZZ", q * q),
        ("R", (p + 1) * (p + 1)),
    ]:
        out[name] = slice(i0, i0 + size)
        i0 += size
    out["width"] = i0
    # the moments that are statistics as they are, in accumulator order
    out["const"] = slice(out["yy"].start, out["XX"].stop)
    return out


def _unconstrained_size(p: int, q: int) -> int:
    return p + q * (q + 1) // 2 + 1


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
    out = {}
    i0 = 0
    for name, size in [
        ("s_yy", 1),
        ("S_xy", p),
        ("S_xx", p * p),
        ("S_xzb", p),
        ("S_bb", q * q),
        ("s_yzb", 1),
        ("s_bzzb", 1),
        ("loglik", 1),
    ]:
        out[name] = slice(i0, i0 + size)
        i0 += size
    return tuple(out[name] for name in _StatsValues._fields)


class LmmSuffStats:
    """Additive subset aggregates for the mixed model.

    The flat accumulator holds, in order, the statistics of the data alone:
    s_yy, S_xy (p), S_xx (p*p); then those of the posterior at the E step's
    theta: S_xzb (p), S_bb (q*q), s_yzb, s_bzzb and the loglik.  Those are
    enough to evaluate the expected residual sum at any beta, so the
    maximization can move beta away from the anchor the E step was run at.
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

    @classmethod
    def unpack(cls, arr: np.ndarray, p: int, q: int) -> "LmmSuffStats":
        size = _stats_layout(p, q)[-1].stop
        acc = DDArray.from_parts(arr[2 : 2 + size], arr[2 + size : 2 + 2 * size])
        return cls(p, q, acc, int(arr[0]), int(arr[1]))


@dataclass(frozen=True, eq=False)
class LmmShard:
    """A worker's subset held resident for a run (`LmmModel.prepare`): the
    samples' data moments stacked once, in the shapes the kernel reads.  It
    keeps no reference to the samples.

    `DDArray.sum_rows` reduces every column on its own, in a tree whose
    shape depends only on m, so the compensated sum of the data-only
    statistics (`const_sum`) is computed once, on first use, and every E
    step reuses it bitwise as if it had summed those columns again.

    `last` is a one-entry slot: (theta, _Posterior, (m,) logliks) of the
    last `local_loglik` call, which alone writes it.  An E step or loglik
    at that same `Theta` object reuses the posterior bitwise; `Theta` is
    frozen and its beta and L are read-only, so identity means equality.
    """

    n: np.ndarray  # (m,) observations per sample
    Zy: np.ndarray  # (m, q)
    XZ: np.ndarray  # (m, p, q)
    ZZ: np.ndarray  # (m, q, q)
    R: np.ndarray  # (m, p+1, p+1) triangular factor of [X y]
    const: np.ndarray  # (m, 1 + p + p*p) rows of y'y, X'y, X'X
    n_total: int
    last: tuple | None = field(default=None, init=False, repr=False)

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


def _kl_total(kl: np.ndarray) -> float:
    val = math.fsum(kl)
    if not math.isfinite(val):
        raise NumericalDomainError("non-finite KL term")
    return val


class LmmModel(ModelContract):
    """ModelContract implementation for the linear mixed-effects model."""

    def __init__(self, p: int, q: int, cm_order: str = "joint"):
        if cm_order not in ("joint", "ecm"):
            raise ValueError(f"unknown cm_order {cm_order!r}")
        self.p = p
        self.q = q
        self.cm_order = cm_order
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
            Zy=rec[:, c["Zy"]],
            XZ=rec[:, c["XZ"]].reshape(m, p, q),
            ZZ=rec[:, c["ZZ"]].reshape(m, q, q),
            R=rec[:, c["R"]].reshape(m, p + 1, p + 1),
            const=rec[:, c["const"]],
            n_total=int(n.sum()),
        )

    def _shard(self, subset: SubsetData | LmmShard) -> LmmShard:
        return subset if isinstance(subset, LmmShard) else self.prepare(subset)

    # -- per-sample conditional Gaussian -----------------------------------
    def _posterior(self, ZZ: np.ndarray, XZ: np.ndarray, Zy: np.ndarray,
                   Dinv: np.ndarray, beta: np.ndarray) -> _Posterior:
        """Posterior of every sample's random effects, from data moments only.

        ZZ, XZ and Zy are the samples' stacked Z'Z, X'Z and Z'y.  Dinv is
        (q, q) or one (q, q) per sample, beta is (p,) or one (p,) per
        sample.  Per sample: the q x q precision A = D^{-1} + Z'Z, its
        Cholesky factor for log|A|, its inverse, and b_hat = A^{-1} Z'r with
        Z'r = Z'y - (X'Z)' beta.  Each sample's outputs come from its own
        row alone, so they do not depend on which other samples share the
        batch.
        """
        A = Dinv + ZZ
        try:
            cA = np.linalg.cholesky(A)
        except np.linalg.LinAlgError as exc:
            raise NumericalDomainError(
                "posterior precision not positive definite (corrupt data?)"
            ) from exc
        Ainv = np.linalg.inv(A)
        ztr = Zy - (beta[..., None, :] @ XZ)[:, 0]
        b_hat = (Ainv @ ztr[:, :, None])[:, :, 0]
        logdet_A = 2.0 * np.log(np.diagonal(cA, axis1=1, axis2=2)).sum(axis=1)
        return _Posterior(b_hat, ztr, A, Ainv, logdet_A)

    def _kernel(self, theta: Theta, shard: LmmShard):
        """The posterior at theta and the marginal log density of every
        sample, as (_Posterior, (m,) logliks); read from the shard's slot
        when its last loglik was at this theta."""
        last = shard.last
        if last is not None and last[0] is theta:
            return last[1:]
        post = self._posterior(shard.ZZ, shard.XZ, shard.Zy, theta.Dinv, theta.beta)
        return post, self._loglik(theta, shard, post)

    def _loglik(self, theta: Theta, shard: LmmShard, post: _Posterior) -> np.ndarray:
        """Marginal log density of every sample, given its posterior at theta."""
        # r'r = ||R (-beta, 1)||^2 for r = y - X beta; the expansion
        # y'y - 2 beta'X'y + beta'X'X beta would cancel when r is small
        Rv = shard.R @ theta.resid_coef
        quad = (Rv * Rv).sum(axis=1) - (post.ztr * post.b_hat).sum(axis=1)
        # via the determinant lemma: |Z D Z' + I| = |A| |D|
        loglik = (
            -0.5 * shard.n * theta.log_2pi_tau2
            - 0.5 * (post.logdet_A + theta.logdet_D)
            - 0.5 * quad / theta.tau2
        )
        if not np.all(np.isfinite(loglik)):
            raise NumericalDomainError("non-finite marginal log density")
        return loglik

    def _anchored(self, theta: Theta, anchors: Sequence[Theta], sizes: Sequence[int],
                  shard: LmmShard):
        """The posterior at theta and every sample's Gaussian
        KL(posterior at its anchor || posterior at theta), as
        (_Posterior, (m,) KL terms).

        anchors[k] is the anchor of the next sizes[k] samples.  Both
        posteriors come from one batch of 2m rows: the anchor rows, each
        with its own anchor's D^{-1} and beta, then the rows at theta.
        """
        q = self.q
        m = len(shard)
        K = len(anchors)
        group = np.repeat(np.arange(K), sizes)
        Linv = np.linalg.inv(np.stack([a.L for a in anchors] + [theta.L]))
        Dinv = Linv.transpose(0, 2, 1) @ Linv
        beta = np.stack([a.beta for a in anchors] + [theta.beta])
        rows = np.concatenate([group, np.full(m, K)])
        twice = (np.concatenate([x, x]) for x in (shard.ZZ, shard.XZ, shard.Zy))
        post = self._posterior(*twice, Dinv[rows], beta[rows])
        # C = tau2 A^{-1}, so C_e^{-1} = A_e / tau2_e needs no factorization
        # and log|C| = q log tau2 - log|A|
        tau2_a = np.array([a.tau2 for a in anchors])[group]
        log_ratio = np.array([q * math.log(theta.tau2 / a.tau2) for a in anchors])[group]
        Ainv_a, A_e = post.Ainv[:m], post.A[m:]
        tr = (tau2_a / theta.tau2) * (A_e * Ainv_a).reshape(m, q * q).sum(axis=1)
        d = post.b_hat[m:] - post.b_hat[:m]
        quad = ((A_e @ d[:, :, None])[:, :, 0] * d).sum(axis=1) / theta.tau2
        logdet = log_ratio - post.logdet_A[m:] + post.logdet_A[:m]
        return _Posterior(*(x[m:] for x in post)), 0.5 * (tr + quad - q + logdet)

    def posterior_moments(self, theta: Theta, s: Sample):
        """Mean and covariance of the random effects given the data.

        Computed through the q-dimensional precision A = D^{-1} + Z^T Z,
        which equals the standard W = Z D Z^T + I conditioning without ever
        forming the n_i-dimensional inverse.
        """
        post, _ = self._kernel(theta, self.prepare([s]))
        return post.b_hat[0], theta.tau2 * post.Ainv[0]

    # -- ModelContract operations -------------------------------------------
    def local_loglik(self, theta: Theta, subset: SubsetData | LmmShard) -> float:
        shard = self._shard(subset)
        post, loglik = self._kernel(theta, shard)
        # an exact-loglik run E-steps each worker next at this same theta
        object.__setattr__(shard, "last", (theta, post, loglik))
        return math.fsum(loglik)

    def local_estep(self, theta: Theta, subset: SubsetData | LmmShard, subset_id: int = 0,
                    anchor_tag: int = 0) -> SuffStats:
        p, q = self.p, self.q
        shard = self._shard(subset)
        m = len(shard)
        post, loglik = self._kernel(theta, shard)
        b_hat = post.b_hat
        B = (b_hat[:, :, None] * b_hat[:, None, :] + theta.tau2 * post.Ainv).reshape(m, q * q)
        # one row per sample of the statistics that depend on theta, in the
        # LmmSuffStats layout; the data-only ones are summed once per shard
        rows = np.concatenate(
            [
                (shard.XZ @ b_hat[:, :, None])[:, :, 0],
                B,
                (shard.Zy * b_hat).sum(axis=1)[:, None],
                (shard.ZZ.reshape(m, q * q) * B).sum(axis=1)[:, None],
                loglik[:, None],
            ],
            axis=1,
        )
        fresh, const = DDArray.sum_rows(rows), shard.const_sum
        acc = DDArray.from_parts(np.concatenate([const.hi, fresh.hi]),
                                 np.concatenate([const.lo, fresh.lo]))
        stats = LmmSuffStats(p, q, acc, m, shard.n_total)
        return SuffStats(
            subset_id=subset_id,
            anchor_tag=anchor_tag,
            n_obs=stats.n,
            local_loglik_at_anchor=stats.loglik,
            payload=stats,
        )

    def q_value(self, stats: LmmSuffStats, theta: Theta) -> float:
        """Expected complete-data log likelihood reconstructed from aggregates."""
        v = stats.values()
        logdet_D = 2.0 * np.sum(np.log(np.diag(theta.L)))
        Dinv = _cho_solve(theta.L, np.eye(self.q))
        return (
            -0.5 * (stats.n + self.q * stats.m) * theta.log_2pi_tau2
            - 0.5 * stats.m * logdet_D
            - 0.5 * (v.rss_exp(theta.beta) + float(np.sum(Dinv * v.S_bb))) / theta.tau2
        )

    def cm_steps(self, agg, theta_current: Theta) -> Theta:
        stats: LmmSuffStats = agg.payload if isinstance(agg, SuffStats) else agg
        v = stats.values()
        c, info = _potrf(v.S_xx, lower=True)
        if info != 0:
            raise RankDeficiencyError(
                "fixed-effects design S_xx is singular; columns of X are collinear"
            )
        beta = _cho_solve(c, v.S_xy - v.S_xzb)
        if self.cm_order == "joint":
            tau2 = v.rss_exp(beta) / stats.n
            D = v.S_bb / (stats.m * tau2)
        else:
            Dinv_old = _cho_solve(theta_current.L, np.eye(self.q))
            tau2 = (v.rss_exp(beta) + float(np.sum(Dinv_old * v.S_bb))) / (
                stats.n + self.q * stats.m
            )
            D = v.S_bb / (stats.m * tau2)
        return Theta.from_cov(beta, D, tau2)

    def local_kl(self, theta_eval: Theta, theta_anchor: Theta,
                 subset: SubsetData | LmmShard) -> float:
        """Sum of Gaussian KL(posterior at anchor || posterior at eval)."""
        shard = self._shard(subset)
        _, kl = self._anchored(theta_eval, [theta_anchor], [len(shard)], shard)
        return _kl_total(kl)

    def free_energy_terms(self, theta: Theta, anchors: Sequence[Theta],
                          subsets: Sequence[SubsetData]) -> list:
        """Per subset, -local_kl(theta, anchor, subset) + local_loglik(theta,
        subset), from one batched pass over the samples of every subset."""
        sizes = [len(subset) for subset in subsets]
        shard = self.prepare([s for subset in subsets for s in subset])
        post, kl = self._anchored(theta, anchors, sizes, shard)
        loglik = self._loglik(theta, shard, post)
        terms = []
        stop = 0
        for size in sizes:
            part = slice(stop, stop + size)
            stop += size
            terms.append(-_kl_total(kl[part]) + math.fsum(loglik[part]))
        return terms

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
        payload = LmmSuffStats.unpack(arr, self.p, self.q)
        return SuffStats(
            subset_id=subset_id,
            anchor_tag=anchor_tag,
            n_obs=payload.n,
            local_loglik_at_anchor=payload.loglik,
            payload=payload,
        )


# -- information and speed matrices ---------------------------------------


def fd_gradient(f, u0: np.ndarray, rel: float = 1e-5) -> np.ndarray:
    u0 = np.asarray(u0, dtype=float)
    g = np.zeros_like(u0)
    for i in range(u0.size):
        h = rel * (1.0 + abs(u0[i]))
        up, dn = u0.copy(), u0.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (f(up) - f(dn)) / (2.0 * h)
    return g


def fd_hessian(f, u0: np.ndarray, rel: float = 1e-5) -> np.ndarray:
    """Central-difference Hessian with per-coordinate steps rel*(1+|u_i|)."""
    u0 = np.asarray(u0, dtype=float)
    n = u0.size
    h = rel * (1.0 + np.abs(u0))
    H = np.zeros((n, n))
    f0 = f(u0)
    for i in range(n):
        up, dn = u0.copy(), u0.copy()
        up[i] += h[i]
        dn[i] -= h[i]
        H[i, i] = (f(up) - 2.0 * f0 + f(dn)) / h[i] ** 2
        for j in range(i):
            pp, pm, mp, mm = u0.copy(), u0.copy(), u0.copy(), u0.copy()
            pp[[i, j]] += [h[i], h[j]]
            pm[i] += h[i]
            pm[j] -= h[j]
            mp[i] -= h[i]
            mp[j] += h[j]
            mm[[i, j]] -= [h[i], h[j]]
            H[i, j] = H[j, i] = (f(pp) - f(pm) - f(mp) + f(mm)) / (4.0 * h[i] * h[j])
    return H


@dataclass
class InfoMatrices:
    i_obs: np.ndarray
    i_com: np.ndarray
    i_obs_A: np.ndarray
    i_com_A: np.ndarray
    i_obs_Ac: np.ndarray
    i_com_Ac: np.ndarray
    grad_norm: float
    warnings: list = field(default_factory=list)


def information_matrices(
    model: LmmModel,
    theta_hat: Theta,
    subsets: Sequence[SubsetData],
    split: Sequence[int],
    rel: float = 1e-5,
) -> InfoMatrices:
    """Observed- and complete-data information blocks for a subset split.

    All second derivatives are taken in the unconstrained parameterization
    (beta, vech(L) with log diagonal, log tau2) so difference steps never
    leave the valid domain.  i_obs differentiates the marginal log
    likelihood; i_com differentiates the reconstructed expected
    complete-data objective anchored at theta_hat.  Each subset is
    prepared once and every difference quotient runs on its shard.
    """
    p, q = model.p, model.q
    u0 = theta_to_vec(theta_hat)
    split = sorted(set(split))
    notes = []
    shards = [model.prepare(subset) for subset in subsets]

    def total_loglik(u):
        th = vec_to_theta(u, p, q)
        return math.fsum(model.local_loglik(th, shard) for shard in shards)

    grad_norm = float(np.linalg.norm(fd_gradient(total_loglik, u0, rel)))
    if grad_norm > 1e-4:
        notes.append(
            f"gradient norm {grad_norm:.3e} > 1e-4: theta_hat may not be stationary"
        )

    P = _unconstrained_size(p, q)
    obs_A = np.zeros((P, P))
    obs_Ac = np.zeros((P, P))
    com_A = np.zeros((P, P))
    com_Ac = np.zeros((P, P))
    for k, shard in enumerate(shards):
        h_obs = -fd_hessian(
            lambda u: model.local_loglik(vec_to_theta(u, p, q), shard), u0, rel
        )
        stats_k = model.local_estep(theta_hat, shard).payload
        h_com = -fd_hessian(
            lambda u: model.q_value(stats_k, vec_to_theta(u, p, q)), u0, rel
        )
        if k in split:
            obs_A += h_obs
            com_A += h_com
        else:
            obs_Ac += h_obs
            com_Ac += h_com
    i_com = com_A + com_Ac
    if np.any(np.linalg.eigvalsh(0.5 * (i_com + i_com.T)) <= 0):
        notes.append("i_com is not positive definite: not at a maximizer")
    return InfoMatrices(
        i_obs=obs_A + obs_Ac,
        i_com=i_com,
        i_obs_A=obs_A,
        i_com_A=com_A,
        i_obs_Ac=obs_Ac,
        i_com_Ac=com_Ac,
        grad_norm=grad_norm,
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


def speed_matrices(info: InfoMatrices, tol: float = 1e-4) -> SpeedReport:
    """Speed matrices of the full and fractional EM maps, with the
    decomposition identity and the smallest-singular-value sandwich."""
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

    def smin(a):
        return float(np.linalg.svd(a, compute_uv=False)[-1])

    def smax(a):
        return float(np.linalg.svd(a, compute_uv=False)[0])

    lam_em = smin(S_EM)
    lo = smin(S_DEM) / (1.0 + smax(C)) + smin(O)
    hi = smin(S_DEM) / (1.0 + smin(C)) + smin(O)
    ok = residual < 1e-6 and (lo - tol) <= lam_em <= (hi + tol)
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
