"""Optimal-transport numerics: Gaussian (linear) Monge maps, entropic
transport plans via Sinkhorn scaling, and the supporting linear algebra.

The closed-form map between two Gaussians N(mu_s, S_s) and N(mu_t, S_t) is

    x -> A x + b,   A = S_s^{-1/2} (S_s^{1/2} S_t S_s^{1/2})^{1/2} S_s^{-1/2},
                    b = mu_t - A mu_s,

which is symmetric positive definite whenever both covariances are.  The
entropic plan is obtained by alternately scaling the rows and columns of
K = exp(-M / eta) until the marginals match.

Buffers: the plan is the one dense n_src x n_dst object of the package.
One private core writes K into a buffer it is handed and scales it by
row blocks on every CPU in the affinity set; the exact median of M that
rescales the cost is selected from a small bracketed subset of M, not
from a copy.  Public ``sinkhorn_plan`` hands the core a fresh buffer, so
M is never written and a run holds M plus the plan.  The transport stage
hands it the cost itself, which becomes K, and reads the projection from
K and the scalings without forming the plan: one buffer in all.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import core
from .core import NumericalError, ValidationError, require_count

_SYM_TOL = 1e-8
_EIG_FLOOR = -1e-6
# The median's bracket samples every stride-th entry of M: about
# _MEDIAN_SAMPLE entries of a large M, and never more than 1/32 of M, so
# the sample adds at most 3% to M's bytes.
_MEDIAN_SAMPLE = 20_000
_MEDIAN_MIN_STRIDE = 32
# Entries per row block of the bracket's counting pass.
_MEDIAN_BLOCK = 1 << 14
# Bytes of K per Sinkhorn row block: blocks, and sums, ignore the threads.
_BLOCK_BYTES = 1 << 22
_UNDERFLOW = ("exp(-M/eta) underflowed to zero along an entire row or "
              "column; scaling is infeasible (increase eta)")


@dataclass(frozen=True)
class GaussianMoments:
    """Sample mean and (symmetrized) covariance with the sample count."""

    mu: np.ndarray
    sigma: np.ndarray
    n: int

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=np.float64)
        sigma = np.asarray(self.sigma, dtype=np.float64)
        if mu.ndim != 1 or sigma.shape != (mu.shape[0], mu.shape[0]):
            raise ValidationError("moment shapes are inconsistent")
        sigma = 0.5 * (sigma + sigma.T)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    @property
    def d(self) -> int:
        return self.mu.shape[0]


@dataclass(frozen=True)
class MongeMap:
    """Affine map x -> A x + b between two Gaussian moment pairs."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or b.shape != (A.shape[0],):
            raise ValidationError("Monge map shapes are inconsistent")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def d(self) -> int:
        return self.b.shape[0]


@dataclass(frozen=True)
class TransportPlan:
    """Nonnegative coupling with scaling diagnostics.

    ``converged`` is set when the worst row/column marginal violation fell
    at or below the requested tolerance within the iteration budget; the
    final violation is reported either way.  ``objective_log``, when
    requested, holds the negated dual objective of the entropic problem
    after each scaling round, a quantity that decreases monotonically
    (the primal objective evaluated at intermediate scalings does not).
    """

    T: np.ndarray
    eta: float
    iterations_run: int
    converged: bool
    marginal_violation: float
    objective_log: Optional[tuple[float, ...]] = None


@dataclass(frozen=True)
class SpectralSummary:
    """Trace, extreme eigenvalues, and effective rank trace/lambda_max."""

    effective_rank: float
    lambda_min: float
    lambda_max: float
    trace: float


def _check_symmetric(S: np.ndarray, what: str) -> np.ndarray:
    S = np.asarray(S, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValidationError(f"{what} must be a square matrix")
    scale = max(1.0, float(np.abs(S).max()))
    if float(np.abs(S - S.T).max()) > _SYM_TOL * scale:
        raise ValidationError(f"{what} is not symmetric within tolerance")
    return 0.5 * (S + S.T)


def psd_sqrt(S: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues below -1e-6 * max(1, |lambda_max|) are rejected; smaller
    negatives from roundoff are clamped to zero.  The result R satisfies
    R @ R = S up to roundoff and commutes with S.
    """
    S = _check_symmetric(S, "psd_sqrt input")
    w, Q = np.linalg.eigh(S)
    floor = _EIG_FLOOR * max(1.0, abs(w[-1]))
    if w[0] < floor:
        raise ValidationError(
            f"psd_sqrt input has eigenvalue {w[0]:.3e} < {floor:.3e}")
    w = np.clip(w, 0.0, None)
    R = (Q * np.sqrt(w)) @ Q.T
    return 0.5 * (R + R.T)


def fit_moments(X: np.ndarray, ridge: float = 0.0) -> GaussianMoments:
    """Sample mean and unbiased covariance plus ridge * I.

    The ridge is added verbatim to the diagonal; pick it relative to the
    feature scale (the pipeline default 1e-6 suits unit-scale embeddings).
    A non-finite ridge or X is rejected; covariance overflow: NumericalError.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValidationError("X must be 2-D")
    n, d = X.shape
    if n < 2:
        raise ValidationError(f"need at least 2 rows to fit moments, got {n}")
    if not 0 <= ridge < math.inf:  # NaN too
        raise ValidationError("ridge must be nonnegative and finite")
    if not np.isfinite(X).all():
        raise ValidationError("X must be finite")
    mu = X.mean(axis=0)
    Xc = X - mu
    with np.errstate(over="ignore"):
        sigma = (Xc.T @ Xc) / (n - 1)
    if not np.isfinite(sigma).all():
        raise NumericalError(
            "covariance overflows float64; rescale the features")
    sigma = 0.5 * (sigma + sigma.T) + ridge * np.eye(d)
    return GaussianMoments(mu, sigma, n)


def _pd_eig(S: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    w, Q = np.linalg.eigh(S)
    if w[0] <= 0 or w[0] < w[-1] * 1e-15:
        raise NumericalError(
            f"{what} is singular after ridge (eigenvalues in "
            f"[{w[0]:.3e}, {w[-1]:.3e}])")
    return w, Q


def linear_monge(src: GaussianMoments, dst: GaussianMoments) -> MongeMap:
    """Closed-form transport map pushing the src Gaussian onto the dst one."""
    if src.d != dst.d:
        raise ValidationError("source and destination dimensions differ")
    ws, Qs = _pd_eig(src.sigma, "source covariance")
    wd = _pd_eig(dst.sigma, "destination covariance")[0]
    s_half = (Qs * np.sqrt(ws)) @ Qs.T
    s_mhalf = (Qs / np.sqrt(ws)) @ Qs.T
    with np.errstate(over="ignore"):
        inner = s_half @ dst.sigma @ s_half
    if not np.isfinite(inner).all():
        raise NumericalError(
            "the Monge map's S^1/2 Sigma S^1/2 overflows float64 at covariance"
            f" scale {max(ws[-1], wd[-1]):.3e}; rescale the features")
    mid = psd_sqrt(0.5 * (inner + inner.T))  # PSD but for rounding
    A = s_mhalf @ mid @ s_mhalf
    A = 0.5 * (A + A.T)
    return MongeMap(A, dst.mu - A @ src.mu)


def apply_monge(map_: MongeMap, X: np.ndarray) -> np.ndarray:
    """Row-wise affine image X A^T + b."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != map_.d:
        raise ValidationError(
            f"X must be n x {map_.d} to apply this map, got {X.shape}")
    return X @ map_.A.T + map_.b


def inverse_monge(map_: MongeMap) -> MongeMap:
    """Inverse affine map; errors when A is singular."""
    try:
        Ainv = np.linalg.inv(map_.A)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("Monge map is not invertible") from exc
    return MongeMap(Ainv, -Ainv @ map_.b)


def sinkhorn_plan(
    M: np.ndarray,
    a: Optional[np.ndarray] = None,
    b: Optional[np.ndarray] = None,
    eta: float = 1.0,
    max_iter: int = 10,
    tol: float = 1e-9,
    log_objective: bool = False,
) -> TransportPlan:
    """Entropic transport plan by alternating row/column scaling.

    The cost matrix is always divided by its median (else its mean, else
    1) before exponentiation, so ``eta`` is relative to the median cost;
    raw squared-Euclidean costs at eta = 1 routinely underflow exp(-M/eta)
    otherwise.  Marginals default to uniform.  Stops early once the worst
    marginal violation is <= tol.  M is never written, and its median is
    selected from a small bracketed part of it, not from a copy.  The
    returned ``T``, allocated in M's memory order, is the one n_src x
    n_dst buffer besides M: written first as K, then scaled in place into
    the plan.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ValidationError("cost matrix must be 2-D")
    if M.size == 0:
        raise ValidationError("cost matrix is empty")
    # reductions, not elementwise masks: a NaN makes the minimum NaN, and
    # `NaN >= 0` is false; -0.0 >= 0 holds
    if not (M.min() >= 0 and M.max() < np.inf):
        raise ValidationError("cost matrix entries must be finite and >= 0")
    n_src, n_dst = M.shape
    a = np.full(n_src, 1.0 / n_src) if a is None else np.asarray(a, float)
    b = np.full(n_dst, 1.0 / n_dst) if b is None else np.asarray(b, float)
    if a.shape != (n_src,) or b.shape != (n_dst,):
        raise ValidationError("marginal shapes do not match the cost matrix")
    # `not (x > 0)`, unlike `x <= 0`, is true for NaN
    if not (np.all(a > 0) and np.all(b > 0)):
        raise ValidationError("marginals must be strictly positive")
    if abs(a.sum() - 1.0) > 1e-8 or abs(b.sum() - 1.0) > 1e-8:
        raise ValidationError("marginals must each sum to 1")
    max_iter = require_count("max_iter", max_iter)
    if not (0 < eta < np.inf and 0 < tol < np.inf):
        raise ValidationError("eta and tol must be positive and finite")
    T = np.empty_like(M)
    u, v, _, _, iterations, log = _sinkhorn(M, T, a, b, eta, max_iter, tol,
                                            log_objective)
    T *= u[:, None]  # scaled in place, the kernel becomes the plan
    T *= v
    violation = max(float(np.abs(T.sum(axis=1) - a).max()),
                    float(np.abs(T.sum(axis=0) - b).max()))
    return TransportPlan(T, eta, iterations, violation <= tol, violation,
                         tuple(log) if log_objective else None)


def _sinkhorn(M, K, a, b, eta, max_iter, tol, log_objective):
    """The scaling of :func:`sinkhorn_plan` on checked arguments, K built in
    ``K``, which may be M (read in full first).  A sweep takes Kv = K v,
    u = a / Kv and u K by row blocks, claimed one at a time by the calling
    thread and :func:`core._workers` - 1 helpers; v = b / (u K) sums the
    blocks in order, and (u, v)'s violation is read from the next sweep's
    Kv.  Returns u, v, Kv, the u K that gave v, the rounds and the log."""
    scale = _median(M)
    if scale <= 0.0:
        scale = float(M.mean()) or 1.0
    n_src, n_dst = M.shape
    step = max(1, _BLOCK_BYTES // (8 * n_dst))
    blocks = [slice(s, s + step) for s in range(0, n_src, step)]
    workers = min(core._workers(), len(blocks))
    Kv, sums = np.empty(n_src), np.empty((len(blocks), n_dst))

    def build(i, rows):
        K_b = np.divide(M[rows], scale, out=K[rows])
        np.divide(K_b, -eta, out=K_b)  # -(M / eta) bit for bit: rounding
        np.exp(K_b, out=K_b)           # is symmetric in sign

    def sweep(i, rows):
        if not np.matmul(K[rows], v, out=Kv[rows]).all():
            raise NumericalError(_UNDERFLOW)
        if iterations < max_iter:
            np.matmul(np.divide(a[rows], Kv[rows], out=u_next[rows]),
                      K[rows], out=sums[i])

    # a pool starts its threads on its first task: none for one worker
    with ThreadPoolExecutor(max(1, workers - 1)) as pool:
        def each(fn):
            left = iter(range(len(blocks)))  # next() is atomic under the GIL
            def run():
                for i in left:
                    fn(i, blocks[i])
            helpers = [pool.submit(run) for _ in range(workers - 1)]
            run()
            for helper in helpers:
                helper.result()

        each(build)
        u, v, log, iterations = None, np.ones(n_dst), [], 0
        while True:
            u_next = np.empty(n_src)
            each(sweep)
            if iterations:
                # right after the v step the column sums equal b up to
                # roundoff, so the worst marginal violation is on the rows
                violation = float(np.abs(u * Kv - a).max())
                if log_objective:
                    log.append(float(eta * (u @ Kv - a @ np.log(u)
                                            - b @ np.log(v))))
                if violation <= tol or iterations == max_iter:
                    break
            col_sums = sums.sum(axis=0)
            if not col_sums.all():
                raise NumericalError(_UNDERFLOW)
            u, v, iterations = u_next, b / col_sums, iterations + 1
    return u, v, Kv, col_sums, iterations, log


def _median(M: np.ndarray) -> float:
    """``np.median(M)`` bit for bit; M is never written and, past
    ``_MEDIAN_SAMPLE`` entries, not copied unless the bracket misses.

    A Floyd-Rivest bracket (Floyd & Rivest, CACM 1975): pivots at about
    the 49th and 51st percentiles of a strided sample, then one pass over
    M in row blocks counts the entries below the low pivot and gathers
    those between the pivots.  Only that small set is partitioned.  When
    the middle ranks fall outside the bracket, or ties make the gathered
    set large, the median comes from partitioning a copy, as for small M.
    """
    if M.flags.f_contiguous:
        M = M.T  # the same entries, with contiguous rows
    h, odd = divmod(M.size, 2)
    if M.size > _MEDIAN_SAMPLE:
        middle = _bracketed_middle(M, h, odd)
        if middle is not None:
            return middle
    return _middle(M.flatten(order="K"), h, odd)


def _bracketed_middle(M: np.ndarray, h: int, odd: int) -> Optional[float]:
    """:func:`_median` from a sample bracket, or None when it misses."""
    n_rows, n_cols = M.shape
    size = M.size
    # coprime to both sides, a stride steps through every column and row
    # instead of a few evenly spaced ones
    stride = max(_MEDIAN_MIN_STRIDE, size // _MEDIAN_SAMPLE)
    while math.gcd(stride, size) != 1:
        stride += 1
    sample = M.flat[::stride]  # a copy, in M's logical (C) order
    sample.sort()
    # the pivots sit three standard deviations of the sample median's
    # rank (sqrt(m) / 2) either side of it: the 48.9th and 51.1st
    # percentiles of a 20k sample (any m >= 16 keeps both inside it)
    m = sample.size
    w = math.ceil(1.5 * math.sqrt(m))
    lo, hi = sample[m // 2 - w], sample[m // 2 + w]
    below = at_most = 0  # entries < lo, and <= hi
    gathered = []
    rows = max(1, _MEDIAN_BLOCK // n_cols)
    for start in range(0, n_rows, rows):
        block = M[start:start + rows]
        lt = block < lo
        le = block <= hi
        below += np.count_nonzero(lt)
        at_most += np.count_nonzero(le)
        if lo < hi:  # else every entry between the pivots equals lo
            if at_most - below > 4 * w * stride:
                return None  # twice the expected set: heavy ties
            gathered.append(block[le > lt])
    # the middle ranks, h and (for an even count) h - 1, must lie in
    # [below, at_most)
    if below > h - 1 + odd or at_most <= h:
        return None
    if lo == hi:
        return float(lo if odd else (lo + lo) / 2)
    return _middle(np.concatenate(gathered), h - below, odd)


def _middle(values: np.ndarray, h: int, odd: int) -> float:
    """np.median's float from the entries of rank h (and h - 1 for an
    even count) of ``values``, which is partitioned in place."""
    values.partition(h)
    # values[:h] holds the h smallest entries, so for an even count their
    # maximum is the lower middle value
    return float(values[h] if odd else (values[:h].max() + values[h]) / 2)


def barycentric_map(plan: TransportPlan, X_dst: np.ndarray) -> np.ndarray:
    """Row-normalized barycentric projection diag(rowsums)^-1 T X_dst;
    ``plan.T`` is not written (the normalised plan is a temporary)."""
    X_dst = np.asarray(X_dst, dtype=np.float64)
    if X_dst.ndim != 2 or X_dst.shape[0] != plan.T.shape[1]:
        raise ValidationError(
            f"X_dst must have {plan.T.shape[1]} rows, got {X_dst.shape}")
    row_sums = plan.T.sum(axis=1)
    if np.any(row_sums <= 0):
        raise NumericalError("transport plan has a zero row sum")
    return (plan.T / row_sums[:, None]) @ X_dst


def _sinkhorn_projection(
    cost: np.ndarray,
    X_dst: np.ndarray,
    eta: float,
    max_iter: int,
    tol: float,
) -> tuple[np.ndarray, TransportPlan]:
    """``barycentric_map(sinkhorn_plan(cost, eta=eta, max_iter=max_iter,
    tol=tol), X_dst)`` up to rounding, and the plan's diagnostics (its
    ``T`` is K), in cost's own buffer, overwritten by K: the projection
    K (v X_dst) / Kv and the violations u Kv - a and v (u K) - b come from
    K and the scalings, never from a plan.  For a caller that owns ``cost``
    and ``X_dst`` (rows matching the cost's columns) and has checked what
    :func:`sinkhorn_plan` checks; the marginals are uniform."""
    a, b = (np.full(n, 1.0 / n) for n in cost.shape)
    u, v, Kv, col_sums, iterations, _ = _sinkhorn(cost, cost, a, b, eta,
                                                  max_iter, tol, False)
    violation = max(float(np.abs(u * Kv - a).max()),
                    float(np.abs(v * col_sums - b).max()))
    return (cost @ (v[:, None] * X_dst)) / Kv[:, None], TransportPlan(
        cost, eta, iterations, violation <= tol, violation)


def spectral_summary(S: np.ndarray) -> SpectralSummary:
    """Trace, extreme eigenvalues, and effective rank of a symmetric PSD
    matrix; errors on the zero matrix (effective rank undefined)."""
    S = _check_symmetric(S, "spectral_summary input")
    w = np.linalg.eigvalsh(S)
    lam_min, lam_max = float(w[0]), float(w[-1])
    if lam_min < _EIG_FLOOR * max(1.0, abs(lam_max)):
        raise ValidationError("matrix is not positive semi-definite")
    if lam_max <= 0.0:
        raise ValidationError("zero matrix has no effective rank")
    trace = float(np.trace(S))
    return SpectralSummary(
        effective_rank=trace / lam_max,
        lambda_min=lam_min,
        lambda_max=lam_max,
        trace=trace,
    )
