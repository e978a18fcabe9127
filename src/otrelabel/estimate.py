"""Closed-form estimation of labeling-function accuracies.

Under a conditionally independent vote model the second moment of two LFs
factorizes, E[lambda_i lambda_j] = a_i a_j, so for any triplet (i, j, k)

    |a_i| = sqrt(E[l_i l_j] * E[l_i l_k] / E[l_j l_k]).

Each LF's estimate is the median of its magnitudes, one per triplet it
belongs to (a median does not depend on order: one row sort finds them
all); signs come afterwards from agreement with the row-wise majority.

Moments are computed over rows where both LFs are non-abstaining.  The
sums are accumulated in float64, which is exact for integer terms below
2**53 rows, so results are exactly invariant to row order.  The triplet
pass is vectorised over all C(m, 3) triplets at once.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import (
    GroupedDataset,
    NumericalError,
    ValidationError,
    WeakLabelMatrix,
    validate_dataset,
)

EPS_PAIR = 1e-3


@dataclass(frozen=True)
class TripletRecord:
    """Raw magnitudes produced by one LF triplet.

    ``degenerate`` is set when any of the three pairwise moments is
    undefined (no co-voting rows) or has magnitude <= eps_pair; such a
    triplet contributes nothing to the aggregated estimates.
    """

    indices: tuple[int, int, int]
    raw_estimates: tuple[float, float, float]
    degenerate: bool = False

    def __post_init__(self):
        i, j, k = self.indices
        if len({i, j, k}) != 3:
            raise ValidationError(f"triplet indices must be distinct: {self.indices}")


@dataclass(frozen=True, eq=False)
class TripletRecords(Sequence):
    """Every triplet of one estimate, held as arrays.

    Row t of ``indices`` (T x 3) is the t-th triplet in
    ``itertools.combinations`` order, ``raw_estimates`` (T x 3) its three
    magnitudes (NaN when degenerate) and ``degenerate`` (T,) its flag.
    Items are ``TripletRecord`` objects, built only when accessed.
    """

    indices: np.ndarray
    raw_estimates: np.ndarray
    degenerate: np.ndarray

    def __len__(self) -> int:
        return len(self.degenerate)

    def __getitem__(self, t: int) -> TripletRecord:
        t = operator.index(t)
        return TripletRecord(tuple(self.indices[t].tolist()),
                             tuple(self.raw_estimates[t].tolist()),
                             bool(self.degenerate[t]))


def moment_matrix(wl: WeakLabelMatrix) -> np.ndarray:
    """m x m matrix of pairwise second moments over co-voting rows.

    Entry (i, j) is mean(l_i * l_j) restricted to rows where neither LF
    abstains, or NaN when no such row exists.  Abstains contribute zero to
    the product sums, so no masking pass is needed.  Both Gram products
    run in float64 BLAS: their terms are integers, so every partial sum is
    exact (hence independent of row order) below 2**53 rows.
    """
    v = wl.votes.astype(np.float64)
    num = v.T @ v
    np.not_equal(wl.votes, 0, out=v)
    cnt = v.T @ v
    with np.errstate(invalid="ignore"):
        return np.where(cnt > 0, num / np.maximum(cnt, 1), np.nan)


def _triplet_indices(m: int) -> np.ndarray:
    """C(m, 3) x 3 array of triplets i < j < k in combinations order.

    Pairs (j, k) from ``triu_indices`` are in lexicographic order, so the
    pairs completing a triplet with first index i are the suffix of pairs
    whose j exceeds i.
    """
    j, k = np.triu_indices(m, 1)
    start = np.searchsorted(j, np.arange(m), side="right")
    counts = len(j) - start
    first = np.cumsum(counts) - counts  # first triplet of each i
    pair = np.arange(counts.sum()) + np.repeat(start - first, counts)
    return np.column_stack([np.repeat(np.arange(m), counts),
                            j[pair], k[pair]])


def _triplet_value(num1: np.ndarray, num2: np.ndarray,
                   den: np.ndarray) -> np.ndarray:
    # clamp to [0, 1] as Python's min(max(r, 0.0), 1.0) does: NaN and -0.0
    # pass through unchanged
    r = num1 * num2 / den
    r[r < 0.0] = 0.0
    r[r > 1.0] = 1.0
    return np.sqrt(r)


def accuracies_from_moments(
    moments: np.ndarray,
    eps_pair: float = EPS_PAIR,
) -> tuple[np.ndarray, TripletRecords]:
    """Aggregate |a_i| estimates from a pairwise second-moment matrix.

    Feeding the exact population moments a_i * a_j recovers the accuracies
    to machine precision (algebraic identity).  Triplets where any moment
    is NaN or has magnitude <= eps_pair are recorded as degenerate and
    skipped; an LF whose every triplet is degenerate raises NumericalError.
    Each LF's estimate is the median of its values, in one row sort.
    """
    m = moments.shape[0]
    if moments.shape != (m, m):
        raise ValidationError("moment matrix must be square")
    if m < 3:
        raise ValidationError(f"need at least 3 LFs for triplets, got {m}")
    idx = _triplet_indices(m)
    i, j, k = idx.T
    bad = np.isnan(moments) | (np.abs(moments) <= eps_pair)
    degenerate = bad[i, j] | bad[i, k] | bad[j, k]
    mij, mik, mjk = moments[i, j], moments[i, k], moments[j, k]
    raw = np.empty(idx.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        raw[:, 0] = _triplet_value(mij, mik, mjk)
        raw[:, 1] = _triplet_value(mij, mjk, mik)
        raw[:, 2] = _triplet_value(mik, mjk, mij)
    del mij, mik, mjk
    # row i of the table holds lf i's C(m-1, 2) values, degenerate ones as
    # +inf, above any clamped value; a stable small-uint sort is a radix sort
    raw[degenerate] = np.inf
    order = np.argsort(idx.ravel().astype(np.min_scalar_type(m - 1)),
                       kind="stable")
    table = raw.ravel()[order].reshape(m, -1)
    raw[degenerate] = np.nan
    counts = np.count_nonzero(table != np.inf, axis=1)
    if not counts.all():
        raise NumericalError(
            f"every triplet containing lf {int(np.argmin(counts))} "
            "is degenerate")
    table.sort(axis=1)
    rows = np.arange(m)
    out = (table[rows, (counts - 1) // 2] + table[rows, counts // 2]) / 2
    out[np.isnan(table[:, -1])] = np.nan  # NaN sorts last; np.median keeps it
    return out, TripletRecords(idx, raw, degenerate)


def resolve_sign(raw: np.ndarray, wl: WeakLabelMatrix) -> np.ndarray:
    """Attach signs to nonnegative accuracy magnitudes.

    Each LF's sign is the sign of its mean agreement with the per-row
    majority vote over all LFs; majority ties and abstains contribute 0,
    and an LF with agreement exactly 0 defaults to +.  If every sign comes
    out negative the whole vector is flipped (the model is sign-symmetric,
    so we pin the orientation where the average LF beats random).
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.shape != (wl.m,):
        raise ValidationError("magnitude vector length must equal m")
    if np.any(raw < 0) or np.any(raw > 1 + 1e-12):
        raise ValidationError("magnitudes must lie in [0, 1]")
    majority = np.sign(wl.votes.sum(axis=1)).astype(np.int64)
    agreement = (wl.votes * majority[:, None]).sum(axis=0) / wl.n
    signs = np.where(agreement < 0, -1.0, 1.0)
    if np.all(signs < 0):
        signs = -signs
    return raw * signs


def triplet_accuracies(
    wl: WeakLabelMatrix,
) -> tuple[np.ndarray, TripletRecords]:
    """Signed accuracy estimates for every LF from vote moments alone."""
    mags, records = accuracies_from_moments(moment_matrix(wl))
    return resolve_sign(mags, wl), records


def per_group_accuracies(wl: WeakLabelMatrix,
                         ds: GroupedDataset) -> np.ndarray:
    """m x 2 matrix of per-group accuracy estimates.

    Runs the full triplet procedure independently on each group's row
    slice; estimation failures are re-raised naming the group.
    """
    validate_dataset(ds, wl)
    out = np.empty((wl.m, 2))
    for k in (0, 1):
        mask = ds.group_mask(k)
        try:
            out[:, k] = triplet_accuracies(wl.restrict_rows(mask))[0]
        except (ValidationError, NumericalError) as exc:
            raise type(exc)(f"group {k}: {exc}") from exc
    return out
