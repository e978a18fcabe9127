"""Optimal-transport numerics: Gaussian (linear) Monge maps, entropic
transport plans via Sinkhorn scaling, and the supporting linear algebra.

The closed-form map between two Gaussians N(mu_s, S_s) and N(mu_t, S_t) is

    x -> A x + b,   A = S_s^{-1/2} (S_s^{1/2} S_t S_s^{1/2})^{1/2} S_s^{-1/2},
                    b = mu_t - A mu_s,

which is symmetric positive definite whenever both covariances are.  The
entropic plan is obtained by alternately scaling the rows and columns of
K = exp(-M / eta) until both marginals match.  The scaling is over-relaxed
once plain rounds have shown their linear rate, with the factor that rate
implies, which about halves the rounds (34 -> 18 on the bench's 2k x 2k
cost at eta = 0.05); it falls back to plain scaling when the relaxed
rounds stop gaining.

Buffers: the plan is the one dense n_src x n_dst object of the package.
The cost is divided by a scale, the median of a strided sample of it,
before the kernel.  Public ``sinkhorn_plan`` builds K in float64 in a
fresh buffer, so M is never written and a run holds M plus the plan.
The transport stage's ``_sinkhorn_projection`` builds K from the
features, float32 when every entry is a normal float32, else float64, by
row blocks on every CPU in the affinity set, so no cost matrix exists.
One private core scales either K the same way, and the projection is
read from K and the scalings, one fixed row block at a time, without
forming the plan: one buffer in all.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.spatial.distance import cdist

from . import core
from .core import NumericalError, ValidationError, require_count

_SYM_TOL = 1e-8
_EIG_FLOOR = -1e-6
SINKHORN_TOL = 1e-9  # sinkhorn_plan's default, and every pipeline run's
# The cost's scale is the median of every stride-th entry: about
# _MEDIAN_SAMPLE entries of a large cost, and every entry of one below
# 2 * _MEDIAN_SAMPLE.
_MEDIAN_SAMPLE = 20_000
# Bytes of K per Sinkhorn row block, fixed: v sums the blocks in order, so
# this size, not the threads, sets the plan's bits; and 256 KiB blocks ran
# Sinkhorn in 285 ms against 134 ms for 4 MiB (medians of 7, 4 MiB L2).
_BLOCK_BYTES = 1 << 22
# Over-relaxation starts once two consecutive violation ratios agree within
# _RATE_AGREE and gives up after _STALL rounds with no new lowest
# violation.  The rate's omega tends to 2 as the rate tends to 1 (small
# eta), where relaxed rounds barely contract: _OMEGA_MAX caps it.
_RATE_AGREE = 0.01
_OMEGA_MAX = 1.8
_STALL = 10
# exp of a float64 at or above this rounds to a normal float32
_LOG_TINY32 = math.log(np.finfo(np.float32).tiny)
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
        if not (np.isfinite(mu).all() and np.isfinite(sigma).all()):
            raise ValidationError("moments must be finite")
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
        if not (np.isfinite(A).all() and np.isfinite(b).all()):
            raise ValidationError("Monge map must be finite")
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
    final violation is reported either way.
    """

    T: np.ndarray
    eta: float
    iterations_run: int
    converged: bool
    marginal_violation: float


@dataclass(frozen=True)
class SpectralSummary:
    """Trace, extreme eigenvalues, and effective rank trace/lambda_max."""

    effective_rank: float
    lambda_min: float
    lambda_max: float
    trace: float


def _check_symmetric(S: np.ndarray, what: str) -> np.ndarray:
    S = np.asarray(S, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] != S.shape[1] or S.size == 0:
        raise ValidationError(f"{what} must be a non-empty square matrix")
    if not np.isfinite(S).all():
        raise ValidationError(f"{what} must be finite")
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

    The ridge is added verbatim, in squared feature units; the transport
    stage adds none here and scales its own by the groups' mean variance.
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
    if S.size == 0:
        raise ValidationError(f"{what} is empty")
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
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf too
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
    if not np.isfinite(X).all():
        raise ValidationError("X must be finite")
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
    tol: float = SINKHORN_TOL,
) -> TransportPlan:
    """Entropic transport plan by alternating row/column scaling.

    The cost matrix is always divided by a scale before exponentiation,
    the median of a strided sample of it (every entry below
    2 * ``_MEDIAN_SAMPLE``, where it is ``np.median(M)``), else its mean,
    else 1, so ``eta`` is relative to the median cost; raw
    squared-Euclidean costs at eta = 1 routinely underflow exp(-M/eta)
    otherwise.  Marginals default to uniform.  Stops early once the worst
    marginal violation is <= tol.  M is never written.  The returned
    ``T``, allocated in M's memory order, is the one n_src x n_dst buffer
    besides M: written first as K, in float64, then scaled in place into
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
    if type(eta) is bool or type(tol) is bool \
            or not (0 < eta < np.inf and 0 < tol < np.inf):
        raise ValidationError("eta and tol must be positive, finite numbers")
    T = np.divide(M, _scale(M.flat[::_sample_stride(M.size)], M),
                  out=np.empty_like(M))
    np.divide(T, -eta, out=T)  # -(M / eta) bit for bit: rounding is
    np.exp(T, out=T)           # symmetric in sign
    u, v, _, _, iterations = _sinkhorn(T, a, b, max_iter, tol)
    T *= u[:, None]  # scaled in place, the kernel becomes the plan
    T *= v
    violation = max(float(np.abs(T.sum(axis=1) - a).max()),
                    float(np.abs(T.sum(axis=0) - b).max()))
    return TransportPlan(T, eta, iterations, violation <= tol, violation)


def _sample_stride(size: int) -> int:
    """The stride of the scale's sample of a cost of ``size`` entries,
    about ``size / _MEDIAN_SAMPLE``: coprime to the size, it steps through
    every column and row instead of a few evenly spaced ones."""
    stride = max(1, size // _MEDIAN_SAMPLE)
    while math.gcd(stride, size) != 1:
        stride += 1
    return stride


def _scale(sample: np.ndarray, whole: np.ndarray) -> float:
    """The cost's scale: the median of ``sample``, else the mean of
    ``whole``, else 1."""
    scale = float(np.median(sample))
    return scale if scale > 0.0 else float(whole.mean()) or 1.0


def _sinkhorn(K, a, b, max_iter, tol):
    """The scaling of :func:`sinkhorn_plan` on checked arguments and a
    built kernel ``K``, float64 or float32, which is not written.  A sweep
    takes Kv = K v, the u step from a / Kv and u K by row blocks of
    ``_BLOCK_BYTES`` on :func:`core.fan_out`'s workers; the v step from
    b / (u K) sums the blocks in order, in float64.  The products run in
    K's dtype, u and v cast to it each round; the scalings and violations
    are float64.  (u, v)'s violation, the worse of |u Kv - a| and
    |v (u K) - b|, is read from the next sweep's Kv and the last u K.

    The steps are over-relaxed (Thibault, Chizat, Dossal & Papadakis,
    Algorithms 2021): each scaling is its plain value times (plain /
    old)^(omega - 1), one omega for the u and v steps of a round.  The
    rounds stay plain until two consecutive violation ratios agree within
    ``_RATE_AGREE`` below 1; that ratio is plain Sinkhorn's linear rate,
    and :func:`_omega` reads omega from it.  The omega chosen from round
    t's violation first applies to round t + 2, whose u step is fused into
    the sweep after the one that measured it.  Omega falls back to 1 for
    good after ``_STALL`` rounds with no new lowest violation, or when an
    over-relaxed round leaves a scaling zero or non-finite; that round is
    then redone plainly from the last (u, v).  Returns u, v, Kv (in K's
    dtype), the violation and the rounds."""
    n_src, n_dst = K.shape
    step = max(1, _BLOCK_BYTES // (K.itemsize * n_dst))
    blocks = [slice(s, s + step) for s in range(0, n_src, step)]
    Kv, sums = np.empty(n_src, K.dtype), np.empty((len(blocks), n_dst),
                                                  K.dtype)

    def sweep(_, i):
        rows = blocks[i]
        if not np.matmul(K[rows], v_k, out=Kv[rows]).all():
            raise NumericalError(_UNDERFLOW)
        if iterations < max_iter:
            u_k = _relaxed(a[rows], Kv[rows], u[rows], w, out=u_next[rows])
            with np.errstate(all="ignore"):  # a bad relaxed u is redone
                np.matmul(u_k.astype(K.dtype, copy=False), K[rows],
                          out=sums[i])

    with core.fan_out() as (_, each):
        u, v, iterations = np.ones(n_src), np.ones(n_dst), 0
        omega, warm = 1.0, True  # warm: omega not yet read from the rate
        lowest, stalled, last, rate = math.inf, 0, math.nan, math.nan
        while True:
            u_next, w = np.empty(n_src), omega
            v_k = v.astype(K.dtype, copy=False)
            each(sweep, len(blocks))
            if iterations:
                violation = max(float(np.abs(u * Kv - a).max()),
                                float(np.abs(v * col_sums - b).max()))
                if violation <= tol or iterations == max_iter:
                    break
                if violation < lowest:
                    lowest, stalled = violation, 0
                else:
                    stalled += 1
                ratio = violation / last  # NaN until two rounds are seen
                if warm and ratio < 1 and rate < 1 \
                        and abs(ratio - rate) <= _RATE_AGREE:
                    omega, warm = _omega(ratio), False
                elif stalled >= _STALL:
                    omega, warm = 1.0, False
                last, rate = violation, ratio
            col_sums = sums.sum(axis=0, dtype=np.float64)
            if w == 1.0 and not col_sums.all():
                raise NumericalError(_UNDERFLOW)
            v_next = _relaxed(b, col_sums, v, w)
            # NaN fails both tests
            if w != 1.0 and not all(s.min() > 0.0 and s.max() < math.inf
                                    for s in (u_next, v_next)):
                omega = 1.0  # for good, and this round is redone plainly
                continue
            u, v, iterations = u_next, v_next, iterations + 1
    return u, v, Kv, violation, iterations


def _omega(rate: float) -> float:
    """The over-relaxation for plain Sinkhorn's linear rate ``rate`` < 1:
    2 / (1 + sqrt(1 - rate)) (Lehmann, von Renesse, Sambale & Uschmajew,
    Optim. Lett. 2022), at most ``_OMEGA_MAX``."""
    return min(_OMEGA_MAX, 2.0 / (1.0 + math.sqrt(1.0 - rate)))


def _relaxed(num, den, old, omega, out=None):
    """The scaling num / den times (num / den / old)^(omega - 1).  At
    omega = 1 that factor is x^0 = 1 for every float x, inf and NaN too,
    so the step is num / den bit for bit.  An over-relaxed step may
    overflow, underflow or divide by zero, which the caller checks for, so
    it warns of none of them."""
    with np.errstate(all="ignore"):
        plain = np.divide(num, den, out=out)
        step = plain / old
        step **= omega - 1.0
        return np.multiply(plain, step, out=plain)


def barycentric_map(plan: TransportPlan, X_dst: np.ndarray) -> np.ndarray:
    """Row-normalized barycentric projection diag(rowsums)^-1 T X_dst,
    computed as (T X_dst) / rowsums: ``plan.T`` is neither written nor
    copied."""
    X_dst = np.asarray(X_dst, dtype=np.float64)
    if X_dst.ndim != 2 or X_dst.shape[0] != plan.T.shape[1]:
        raise ValidationError(
            f"X_dst must have {plan.T.shape[1]} rows, got {X_dst.shape}")
    row_sums = plan.T.sum(axis=1)
    if not (row_sums > 0).all():  # NaN too
        raise NumericalError("transport plan has a zero row sum")
    return (plan.T @ X_dst) / row_sums[:, None]


def _sinkhorn_projection(X_src: np.ndarray, X_dst: np.ndarray, eta: float,
                         max_iter: int) -> tuple[np.ndarray, int, float]:
    """``barycentric_map`` of X_src's rows onto X_dst's under the plan of
    :func:`_kernel`'s K at uniform marginals and ``SINKHORN_TOL``, up to
    rounding, with the rounds and the final violation.  The projection
    K (v X_dst) / Kv is read from the scalings and from K, widened to
    float64 one ``core.row_blocks`` block at a time.  For finite rows
    whose squared distances are finite, and arguments that
    :func:`sinkhorn_plan` accepts."""
    K = _kernel(X_src, X_dst, eta)
    n_src, n_dst = K.shape
    a, b = (np.full(n, 1.0 / n) for n in K.shape)
    _, v, Kv, violation, iterations = _sinkhorn(K, a, b, max_iter,
                                                SINKHORN_TOL)
    vX = v[:, None] * X_dst
    projected = np.empty((n_src, X_dst.shape[1]))
    # one thread, fixed blocks: BLAS's last bits vary with a block's height
    for rows in core.row_blocks(n_src, 8 * n_dst):
        np.matmul(K[rows].astype(np.float64, copy=False), vX,
                  out=projected[rows])
    projected /= Kv[:, None]
    return projected, iterations, violation


def _kernel(X_src: np.ndarray, X_dst: np.ndarray, eta: float) -> np.ndarray:
    """The Sinkhorn kernel exp(-(M / scale) / eta) of the squared-Euclidean
    cost M between X_src's and X_dst's rows, built by ``core.row_blocks``
    row blocks of M on :func:`core.fan_out`'s workers, each by ``cdist``
    into its worker's scratch block.  The scale is :func:`_scale` of
    ``M.flat[::stride]``, summed from its row pairs in ``cdist``'s order,
    so bit for bit.  K is float32 when every exponent is at least
    log(float32 tiny); a block that falls short stops every worker, and K
    is freed and rebuilt in float64.  Each buffer's bytes are checked
    against physical memory before it is allocated."""
    n_src, n_dst = X_src.shape[0], X_dst.shape[0]
    size = n_src * n_dst
    pairs = np.divmod(np.arange(0, size, _sample_stride(size)), n_dst)
    sample = np.zeros(pairs[0].size)
    for j in range(X_src.shape[1]):  # cdist's sum, one feature at a time
        diff = X_src[pairs[0], j] - X_dst[pairs[1], j]
        sample += diff * diff
    scale = _scale(sample, sample)
    del pairs, sample, diff
    with core.fan_out() as (workers, each):
        blocks = core.row_blocks(n_src, 8 * n_dst * workers)
        # a scratch block a worker, together within ROW_BLOCK_BYTES
        scratch = np.empty((workers, min(blocks[0].stop, n_src), n_dst))
        def build(worker, i):
            if short:
                return
            src = X_src[blocks[i]]
            block = scratch[worker, :len(src)]
            cdist(src, X_dst, "sqeuclidean", out=block)
            np.divide(block, scale, out=block)
            np.divide(block, -eta, out=block)  # as sinkhorn_plan does
            if dtype == np.float32 and block.min() < _LOG_TINY32:
                short.append(i)
            else:
                np.exp(block, out=K[blocks[i]])
        for dtype in (np.dtype(np.float32), np.dtype(np.float64)):
            need = (f"a sinkhorn plan over {n_src} x {n_dst} rows needs one "
                    f"dense {dtype} buffer of {dtype.itemsize * size} bytes")
            fix = "; ot_type=linear needs no dense buffer"
            memory = _physical_memory()
            if dtype.itemsize * size > memory:
                raise ValidationError(
                    f"{need}, more than the {memory} bytes of physical "
                    f"memory{fix}")
            try:
                K = np.empty((n_src, n_dst), dtype)
            except MemoryError:
                raise ValidationError(
                    f"{need}, which could not be allocated{fix}") from None
            short = []  # a block past float32's range stops every worker
            each(build, len(blocks))
            if not short:
                return K
            del K  # every worker has stopped: before the float64 buffer


def _physical_memory() -> float:
    """Bytes of physical memory, or inf where ``os.sysconf`` cannot say."""
    try:
        pages = os.sysconf("SC_PHYS_PAGES")
        page_size = os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf or no name
        return math.inf
    return pages * page_size if pages > 0 and page_size > 0 else math.inf


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
