"""Closed-form estimation of labeling-function accuracies.

Under a conditionally independent vote model the second moment of two LFs
factorizes, E[lambda_i lambda_j] = a_i a_j, so for any triplet (i, j, k)

    |a_i| = sqrt(E[l_i l_j] * E[l_i l_k] / E[l_j l_k]).

Each LF collects one magnitude per triplet it belongs to; the values are
aggregated (median by default) and signs are resolved afterwards from
agreement with the row-wise majority vote.

Moments are computed over rows where both LFs are non-abstaining, using
integer accumulation, so results are exactly invariant to row order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    AccuracyEstimate,
    GroupedDataset,
    NumericalError,
    ValidationError,
    WeakLabelMatrix,
    require_vote_values,
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


def moment_matrix(wl: WeakLabelMatrix) -> np.ndarray:
    """m x m matrix of pairwise second moments over co-voting rows.

    Entry (i, j) is mean(l_i * l_j) restricted to rows where neither LF
    abstains, or NaN when no such row exists.  Abstains contribute zero to
    the integer product sums, so no masking pass is needed.
    """
    v = wl.votes
    num = v.T @ v
    active = (v != 0).astype(np.int64)
    cnt = active.T @ active
    with np.errstate(invalid="ignore"):
        return np.where(cnt > 0, num / np.maximum(cnt, 1), np.nan)


def pairwise_moment(wl: WeakLabelMatrix, i: int, j: int) -> float:
    """Empirical E[l_i * l_j] over mutually non-abstaining rows.

    Returns NaN (the undefined-moment signal) when the two LFs never vote
    on a common row.
    """
    if i == j:
        raise ValidationError("pairwise_moment requires distinct LF indices")
    vi, vj = wl.votes[:, i], wl.votes[:, j]
    both = (vi != 0) & (vj != 0)
    cnt = int(both.sum())
    if cnt == 0:
        return math.nan
    return float(int((vi * vj)[both].sum()) / cnt)


def _triplet_value(num1: float, num2: float, den: float) -> float:
    r = num1 * num2 / den
    return math.sqrt(min(max(r, 0.0), 1.0))


def accuracies_from_moments(
    moments: np.ndarray,
    eps_pair: float = EPS_PAIR,
    aggregation: str = "median",
) -> tuple[np.ndarray, list[TripletRecord]]:
    """Aggregate |a_i| estimates from a pairwise second-moment matrix.

    Feeding the exact population moments a_i * a_j recovers the accuracies
    to machine precision (algebraic identity).  Triplets where any moment
    is NaN or has magnitude <= eps_pair are recorded as degenerate and
    skipped; an LF whose every triplet is degenerate raises NumericalError.
    """
    m = moments.shape[0]
    if moments.shape != (m, m):
        raise ValidationError("moment matrix must be square")
    if m < 3:
        raise ValidationError(f"need at least 3 LFs for triplets, got {m}")
    if aggregation not in ("median", "mean"):
        raise ValidationError(f"unknown aggregation {aggregation!r}")
    per_lf: list[list[float]] = [[] for _ in range(m)]
    records: list[TripletRecord] = []
    for i, j, k in itertools.combinations(range(m), 3):
        mij, mik, mjk = moments[i, j], moments[i, k], moments[j, k]
        bad = any(
            math.isnan(x) or abs(x) <= eps_pair for x in (mij, mik, mjk))
        if bad:
            records.append(TripletRecord(
                (i, j, k), (math.nan, math.nan, math.nan), degenerate=True))
            continue
        vi = _triplet_value(mij, mik, mjk)
        vj = _triplet_value(mij, mjk, mik)
        vk = _triplet_value(mik, mjk, mij)
        per_lf[i].append(vi)
        per_lf[j].append(vj)
        per_lf[k].append(vk)
        records.append(TripletRecord((i, j, k), (vi, vj, vk)))
    agg = np.median if aggregation == "median" else np.mean
    out = np.empty(m)
    for i, vals in enumerate(per_lf):
        if not vals:
            raise NumericalError(
                f"every triplet containing lf {i} is degenerate")
        out[i] = agg(vals)
    return out, records


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
    eps_pair: float = EPS_PAIR,
    aggregation: str = "median",
) -> tuple[np.ndarray, list[TripletRecord]]:
    """Signed accuracy estimates for every LF from vote moments alone."""
    if wl.m < 3:
        raise ValidationError(f"need at least 3 LFs, got {wl.m}")
    require_vote_values(wl.votes)
    mags, records = accuracies_from_moments(
        moment_matrix(wl), eps_pair=eps_pair, aggregation=aggregation)
    return resolve_sign(mags, wl), records


def per_group_accuracies(
    wl: WeakLabelMatrix,
    ds: GroupedDataset,
    eps_pair: float = EPS_PAIR,
    aggregation: str = "median",
) -> np.ndarray:
    """m x 2 matrix of per-group accuracy estimates.

    Runs the full triplet procedure independently on each group's row
    slice; estimation failures are re-raised naming the group.
    """
    if ds.n != wl.n:
        raise ValidationError("dataset and vote matrix row counts differ")
    out = np.empty((wl.m, 2))
    for k in (0, 1):
        mask = ds.group_mask(k)
        if not mask.any():
            raise ValidationError(f"group {k} is empty")
        try:
            out[:, k], _ = triplet_accuracies(
                wl.restrict_rows(mask), eps_pair=eps_pair,
                aggregation=aggregation)
        except (ValidationError, NumericalError) as exc:
            raise type(exc)(f"group {k}: {exc}") from exc
    return out


def estimate_accuracies(
    wl: WeakLabelMatrix,
    ds: GroupedDataset,
    eps_pair: float = EPS_PAIR,
    aggregation: str = "median",
) -> tuple[AccuracyEstimate, list[TripletRecord]]:
    """Bundle per-group and global estimates.

    Groups are estimated first, so a failure names the group it hit.
    """
    group_est = per_group_accuracies(
        wl, ds, eps_pair=eps_pair, aggregation=aggregation)
    global_est, records = triplet_accuracies(
        wl, eps_pair=eps_pair, aggregation=aggregation)
    return AccuracyEstimate(global_est, group_est, aggregation), records
