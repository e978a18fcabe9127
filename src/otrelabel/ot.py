"""Optimal-transport numerics: Gaussian (linear) Monge maps, entropic
transport plans via Sinkhorn scaling, and the supporting linear algebra.

The closed-form map between two Gaussians N(mu_s, S_s) and N(mu_t, S_t) is

    x -> A x + b,   A = S_s^{-1/2} (S_s^{1/2} S_t S_s^{1/2})^{1/2} S_s^{-1/2},
                    b = mu_t - A mu_s,

which is symmetric positive definite whenever both covariances are.  The
entropic plan is obtained by alternately scaling the rows and columns of
K = exp(-M / eta) until the marginals match.  Besides the cost M, which is
never written, it holds one dense buffer: the exact median of M is
selected in it by one partition, then it holds K, and then the plan T.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import NumericalError, ValidationError

_SYM_TOL = 1e-8
_EIG_FLOOR = -1e-6


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
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValidationError("X must be 2-D")
    n, d = X.shape
    if n < 2:
        raise ValidationError(f"need at least 2 rows to fit moments, got {n}")
    if ridge < 0:
        raise ValidationError("ridge must be nonnegative")
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
    rescale: str = "median",
    log_objective: bool = False,
) -> TransportPlan:
    """Entropic transport plan by alternating row/column scaling.

    The cost matrix is divided by its median (else its mean, else 1)
    before exponentiation (``rescale="none"`` disables this); raw
    squared-Euclidean costs at eta = 1 routinely underflow exp(-M/eta)
    otherwise.  Marginals default to uniform.  Stops early once the worst
    marginal violation is <= tol.  M is never written; the returned ``T``
    is the one n_src x n_dst buffer allocated, scaled in place from K.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ValidationError("cost matrix must be 2-D")
    if not np.all(np.isfinite(M)) or np.any(M < 0):
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
    if not (0 < eta < np.inf and 0 < tol < np.inf and max_iter >= 1):
        raise ValidationError(
            "eta, max_iter and tol must be positive, eta and tol finite")
    if rescale not in ("median", "none"):
        raise ValidationError(f"unknown cost rescale mode {rescale!r}")

    K = M.copy(order="K")
    if rescale == "median":
        flat = K.ravel(order="K")  # a view: the copy is contiguous
        h = flat.size // 2
        flat.partition(h)
        # np.median's exact float: flat[:h] holds the h smallest entries,
        # so for an even count their maximum is the lower middle value
        scale = float(flat[h] if flat.size % 2 else
                      (flat[:h].max() + flat[h]) / 2)
        if scale <= 0.0:
            scale = float(M.mean()) or 1.0
        np.divide(M, scale, out=K)
    K /= -eta  # -(K / eta) bit for bit: rounding is symmetric in sign
    np.exp(K, out=K)
    if np.any(K.sum(axis=1) == 0.0) or np.any(K.sum(axis=0) == 0.0):
        raise NumericalError(
            "exp(-M/eta) underflowed to zero along an entire row or column; "
            "scaling is infeasible (rescale the cost or increase eta)")

    u = np.ones(n_src)
    v = np.ones(n_dst)
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
    violation = max(
        float(np.abs(T.sum(axis=1) - a).max()),
        float(np.abs(T.sum(axis=0) - b).max()),
    )
    return TransportPlan(T, eta, iterations, violation <= tol, violation,
                         tuple(log) if log_objective else None)


def barycentric_map(plan: TransportPlan, X_dst: np.ndarray) -> np.ndarray:
    """Row-normalized barycentric projection diag(rowsums)^-1 T X_dst."""
    X_dst = np.asarray(X_dst, dtype=np.float64)
    if X_dst.ndim != 2 or X_dst.shape[0] != plan.T.shape[1]:
        raise ValidationError(
            f"X_dst must have {plan.T.shape[1]} rows, got {X_dst.shape}")
    row_sums = plan.T.sum(axis=1)
    if np.any(row_sums <= 0):
        raise NumericalError("transport plan has a zero row sum")
    return (plan.T / row_sums[:, None]) @ X_dst


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
