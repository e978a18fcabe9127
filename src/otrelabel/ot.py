"""Optimal-transport numerics: Gaussian (linear) Monge maps, entropic
transport plans via Sinkhorn scaling, and the supporting linear algebra.

The closed-form map between two Gaussians N(mu_s, S_s) and N(mu_t, S_t) is

    x -> A x + b,   A = S_s^{-1/2} (S_s^{1/2} S_t S_s^{1/2})^{1/2} S_s^{-1/2},
                    b = mu_t - A mu_s,

which is symmetric positive definite whenever both covariances are.  The
entropic plan is obtained by alternately scaling the rows and columns of
K = exp(-M / eta) until the marginals match.

Buffers: the plan is the one dense n_src x n_dst object of the package.
One private core writes K into a buffer it is handed and scales it in
place into the plan; the exact median of M that rescales the cost is
selected from a small bracketed subset of M, not from a copy.  Public
``sinkhorn_plan`` hands the core a fresh buffer, so M is never written
and a run holds M plus the plan.  The transport stage owns its cost and
hands the core the cost itself, which becomes K, then the plan, then the
row-normalised plan of the barycentric projection: one buffer in all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

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

    Eigenvalues below -1e-6 are rejected; tiny negatives from roundoff are
    clamped to zero.  The result R satisfies R @ R = S up to roundoff and
    commutes with S.
    """
    S = _check_symmetric(S, "psd_sqrt input")
    w, Q = np.linalg.eigh(S)
    if w.min() < _EIG_FLOOR:
        raise ValidationError(
            f"psd_sqrt input has eigenvalue {w.min():.3e} < {_EIG_FLOOR}")
    w = np.clip(w, 0.0, None)
    R = (Q * np.sqrt(w)) @ Q.T
    return 0.5 * (R + R.T)


def fit_moments(X: np.ndarray, ridge: float = 0.0) -> GaussianMoments:
    """Sample mean and unbiased covariance plus ridge * I.

    The ridge is added verbatim to the diagonal; pick it relative to the
    feature scale (the pipeline default 1e-6 suits unit-scale embeddings).
    A non-finite ridge or entry of X is rejected.
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
    sigma = (Xc.T @ Xc) / (n - 1)
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
    _pd_eig(dst.sigma, "destination covariance")
    s_half = (Qs * np.sqrt(ws)) @ Qs.T
    s_mhalf = (Qs / np.sqrt(ws)) @ Qs.T
    mid = psd_sqrt(s_half @ dst.sigma @ s_half)
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
    M, a, b, max_iter = _checked_sinkhorn_args(M, a, b, eta, max_iter, tol)
    return _sinkhorn(M, np.empty_like(M), a, b, eta, max_iter, tol,
                     log_objective)[0]


def _checked_sinkhorn_args(M, a, b, eta, max_iter, tol):
    """:func:`sinkhorn_plan`'s arguments once checked: M as float64, the
    marginals (uniform by default) and ``max_iter`` as an int."""
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
    return M, a, b, max_iter


def _sinkhorn(M, out, a, b, eta, max_iter, tol, log_objective):
    """:func:`sinkhorn_plan` on checked arguments, built in ``out`` (M's
    shape, float64), which may be M itself: M is read in full before
    ``out`` is first written.  Returns the plan, whose ``T`` is ``out``,
    and its row sums from the final marginal check."""
    scale = _median(M)
    if scale <= 0.0:
        scale = float(M.mean()) or 1.0
    M = np.divide(M, scale, out=out)
    K = np.divide(M, -eta, out=out)  # -(M / eta) bit for bit: rounding
    np.exp(K, out=K)                 # is symmetric in sign
    if np.any(K.sum(axis=1) == 0.0) or np.any(K.sum(axis=0) == 0.0):
        raise NumericalError(
            "exp(-M/eta) underflowed to zero along an entire row or column; "
            "scaling is infeasible (increase eta)")

    u = np.ones(K.shape[0])
    v = np.ones(K.shape[1])
    log: list[float] = []
    iterations = 0
    Kv = K @ v
    for _ in range(max_iter):
        u = a / Kv
        v = b / (K.T @ u)
        iterations += 1
        Kv = K @ v
        # right after the v step the column sums equal b up to roundoff,
        # so the worst marginal violation is on the rows
        violation = float(np.abs(u * Kv - a).max())
        if log_objective:
            log.append(float(eta * (u @ Kv
                                    - a @ np.log(u) - b @ np.log(v))))
        if violation <= tol:
            break
    T = K  # scaled in place, the kernel becomes the plan
    T *= u[:, None]
    T *= v
    row_sums = T.sum(axis=1)
    violation = max(
        float(np.abs(row_sums - a).max()),
        float(np.abs(T.sum(axis=0) - b).max()),
    )
    plan = TransportPlan(T, eta, iterations, violation <= tol, violation,
                         tuple(log) if log_objective else None)
    return plan, row_sums


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
    _require_positive_rows(row_sums)
    return (plan.T / row_sums[:, None]) @ X_dst


def _sinkhorn_projection(
    cost: np.ndarray,
    X_dst: np.ndarray,
    eta: float,
    max_iter: int,
    tol: float,
) -> tuple[np.ndarray, TransportPlan]:
    """``barycentric_map(sinkhorn_plan(cost, eta=eta, max_iter=max_iter,
    tol=tol), X_dst)`` bit for bit, and the plan's diagnostics, in cost's
    own buffer: the cost is overwritten by K, then the plan, which is
    row-normalised in place.  The returned plan's ``T`` is that
    normalised buffer.  For a caller that owns ``cost`` and ``X_dst``,
    whose rows match the cost's columns."""
    cost, a, b, max_iter = _checked_sinkhorn_args(
        cost, None, None, eta, max_iter, tol)
    plan, row_sums = _sinkhorn(cost, cost, a, b, eta, max_iter, tol, False)
    _require_positive_rows(row_sums)
    T = plan.T
    T /= row_sums[:, None]
    return T @ X_dst, plan


def _require_positive_rows(row_sums: np.ndarray) -> None:
    if np.any(row_sums <= 0):
        raise NumericalError("transport plan has a zero row sum")


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
