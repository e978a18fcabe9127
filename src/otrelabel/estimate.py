"""Closed-form estimation of labeling-function accuracies.

Under a conditionally independent vote model the second moment of two LFs
factorizes, E[lambda_i lambda_j] = a_i a_j, so for any triplet (i, j, k)

    |a_i| = sqrt(E[l_i l_j] * E[l_i l_k] / E[l_j l_k]).

Each LF's estimate is the median of its magnitudes, one per triplet it
belongs to; signs come afterwards from agreement with the row-wise
majority.

Moments are computed over rows where both LFs are non-abstaining.  The
sums are accumulated in float64 over row blocks, which is exact for
integer terms below 2**53 rows, so results are exactly invariant to row
order and block size.  Each LF's magnitudes come from one pass over the
pairs of the other LFs, so estimation holds O(m**2) values; the C(m, 3)
triplet tables are built only when a caller reads them from the records.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from typing import NamedTuple

import numpy as np

from .core import (
    GroupedDataset,
    NumericalError,
    ValidationError,
    WeakLabelMatrix,
    row_blocks,
    validate_dataset,
)

EPS_PAIR = 1e-3


class TripletRecord(NamedTuple):
    """Raw magnitudes produced by one LF triplet.

    ``degenerate`` is set when any of the three pairwise moments is
    undefined (no co-voting rows) or has magnitude <= EPS_PAIR; such a
    triplet contributes nothing to the aggregated estimates.
    """

    indices: tuple[int, int, int]
    raw_estimates: tuple[float, float, float]
    degenerate: bool = False


@dataclass(frozen=True, eq=False)
class TripletRecords(Sequence):
    """Every triplet of one estimate, as arrays built from the moments
    when first read; ``len`` builds none of them.

    Row t of ``indices`` (T x 3) is the t-th triplet in
    ``itertools.combinations`` order, ``raw_estimates`` (T x 3) its three
    magnitudes (NaN when degenerate) and ``degenerate`` (T,) its flag.
    Items are ``TripletRecord`` objects, built only when accessed.
    """

    moments: np.ndarray

    def __len__(self) -> int:
        return math.comb(len(self.moments), 3)

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        mom = self.moments
        triplets = combinations(range(len(mom)), 3)
        idx = np.fromiter(chain.from_iterable(triplets), np.intp).reshape(-1, 3)
        i, j, k = idx.T
        bad = np.isnan(mom) | (np.abs(mom) <= EPS_PAIR)
        degenerate = bad[i, j] | bad[i, k] | bad[j, k]
        mij, mik, mjk = mom[i, j], mom[i, k], mom[j, k]
        with np.errstate(divide="ignore", invalid="ignore"):
            raw = np.column_stack([_triplet_value(*args) for args in (
                (mij, mik, mjk), (mij, mjk, mik), (mik, mjk, mij))])
        raw[degenerate] = np.nan
        return idx, raw, degenerate

    indices = property(lambda self: self._tables[0])
    raw_estimates = property(lambda self: self._tables[1])
    degenerate = property(lambda self: self._tables[2])

    def __getitem__(self, t: int) -> TripletRecord:
        t = operator.index(t)
        indices, raw_estimates, degenerate = self._tables
        return TripletRecord(tuple(indices[t].tolist()),
                             tuple(raw_estimates[t].tolist()),
                             bool(degenerate[t]))


def moment_matrix(wl: WeakLabelMatrix) -> np.ndarray:
    """m x m matrix of pairwise second moments over co-voting rows.

    Entry (i, j) is mean(l_i * l_j) restricted to rows where neither LF
    abstains, or NaN when no such row exists.  Abstains contribute zero to
    the product sums, so no masking pass is needed.  Both Gram products
    run in float64 BLAS over row blocks: their terms are integers, so
    every partial sum is exact (hence independent of row order and block
    size) below 2**53 rows.
    """
    num, cnt = np.zeros((wl.m, wl.m)), np.zeros((wl.m, wl.m))
    for rows in row_blocks(wl.n, 8 * wl.m):
        v = wl.votes[rows].astype(np.float64)
        num += v.T @ v
        np.not_equal(wl.votes[rows], 0, out=v)
        cnt += v.T @ v
        del v  # before the next block is cast
    with np.errstate(invalid="ignore"):
        return np.where(cnt > 0, num / np.maximum(cnt, 1), np.nan)


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
) -> tuple[np.ndarray, TripletRecords]:
    """Aggregate |a_i| estimates from a pairwise second-moment matrix.

    Feeding the exact population moments a_i * a_j recovers the accuracies
    to machine precision (algebraic identity).  Triplets where any moment
    is NaN or has magnitude <= EPS_PAIR are degenerate and skipped; an LF
    whose every triplet is degenerate raises NumericalError.  LF x's value
    in its triplet with the pair p < q is M[x,p] * M[x,q] / M[p,q] (upper
    triangle moments), wherever x stands, so one pass over the pairs of
    the other LFs gives x's values in triplet order, and their median.
    """
    moments = np.asarray(moments, dtype=np.float64)
    if moments.ndim != 2 or moments.shape[0] != moments.shape[1]:
        raise ValidationError("moment matrix must be square")
    m = len(moments)
    if m < 3:
        raise ValidationError(f"need at least 3 LFs for triplets, got {m}")
    moments = np.where(np.tri(m, dtype=bool), moments.T, moments)
    moments.setflags(write=False)
    bad = np.isnan(moments) | (np.abs(moments) <= EPS_PAIR)
    p, q = np.triu_indices(m, 1)
    den, bad_pq = moments[p, q], bad[p, q]
    out = np.empty(m)
    for x in range(m):
        keep = (p != x) & (q != x)
        px, qx, row, bad_x = p[keep], q[keep], moments[x], bad[x]
        with np.errstate(divide="ignore", invalid="ignore"):
            values = _triplet_value(row[px], row[qx], den[keep])
        # degenerate values as +inf, above any clamped value and below NaN
        values[bad_x[px] | bad_x[qx] | bad_pq[keep]] = np.inf
        values.sort()
        count = np.count_nonzero(values != np.inf)
        if not count:
            raise NumericalError(
                f"every triplet containing lf {x} is degenerate")
        # NaN sorts last, and np.median keeps it
        out[x] = np.nan if np.isnan(values[-1]) else (
            values[(count - 1) // 2] + values[count // 2]) / 2
    return out, TripletRecords(moments)


def resolve_sign(raw: np.ndarray, wl: WeakLabelMatrix) -> np.ndarray:
    """Attach signs to nonnegative accuracy magnitudes.

    Each LF's sign is the sign of its mean agreement with the per-row
    majority vote over all LFs; majority ties and abstains contribute 0,
    and an LF with agreement exactly 0 defaults to +.  The agreements sum
    to sum_r |sum_j v_rj| / n >= 0 in exact integer arithmetic, so at
    least one sign is + and the orientation is already the one where the
    average LF beats random (the model itself is sign-symmetric).
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.shape != (wl.m,):
        raise ValidationError("magnitude vector length must equal m")
    if not ((raw >= 0) & (raw <= 1 + 1e-12)).all():  # NaN too
        raise ValidationError("magnitudes must lie in [0, 1]")
    majority = np.sign(wl.votes.sum(axis=1))
    # integer products by row block, which stays in cache
    agreement = sum(majority[rows] @ wl.votes[rows]
                    for rows in row_blocks(wl.n, 8 * wl.m)) / wl.n
    return raw * np.where(agreement < 0, -1.0, 1.0)


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
