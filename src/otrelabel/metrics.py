"""Performance and group-fairness evaluation.

Gap definitions (two groups, positive class +1):

* demographic parity gap  dp = |P(pred=1 | A=1) - P(pred=1 | A=0)|
* equal opportunity gap   eo = |P(pred=1 | Y=1, A=1) - P(pred=1 | Y=1, A=0)|

A rate over zero rows is NaN, not an error or 0, and
:meth:`FairnessReport.to_dict` writes it as ``None`` (JSON ``null``): a
group with no rows has no accuracy or positive rate, and so no dp gap; a
group with no gold positives has no eo gap (``eo_defined=False``).  F1 is
0.0 when there are no positive predictions or no gold positives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (ROW_MISMATCH, GroupedDataset, ValidationError,
                   WeakLabelMatrix, require_values)

_METRIC_KEYS = ("accuracy", "f1", "dp_gap", "eo_gap")
# regime_profile's share of points around a center and its curve step
NEIGHBORHOOD_FRAC, STEP_FRAC = 0.10, 0.02


@dataclass(frozen=True)
class FairnessReport:
    accuracy: float
    f1: float
    dp_gap: float
    eo_gap: float
    per_group_accuracy: tuple[float, float]
    positive_rate_per_group: tuple[float, float]
    eo_defined: bool = True

    def to_dict(self) -> dict:
        """The report as JSON values, each NaN rate as None."""
        def value(x: float):
            return None if math.isnan(x) else x

        return {
            "accuracy": value(self.accuracy),
            "f1": value(self.f1),
            "dp_gap": value(self.dp_gap),
            "eo_gap": value(self.eo_gap),
            "eo_defined": self.eo_defined,
            "per_group_accuracy": [value(x) for x in self.per_group_accuracy],
            "positive_rate_per_group":
                [value(x) for x in self.positive_rate_per_group],
        }


@dataclass(frozen=True)
class RegimeProfile:
    """Chosen center plus per-group cumulative accuracy curves.

    ``curves[k]`` is a list of (farthest_distance, cumulative_accuracy)
    pairs for group k, ordered by growing neighborhoods around the center.
    """

    center_index: int
    curves: tuple[tuple[tuple[float, float], ...], tuple[tuple[float, float], ...]]


def fairness_report(
    pred: np.ndarray, gold: np.ndarray, groups: np.ndarray
) -> FairnessReport:
    """Accuracy, F1 and the two group gaps for hard +-1 predictions."""
    pred, gold, groups = (np.asarray(x) for x in (pred, gold, groups))
    if not (pred.shape == gold.shape == groups.shape) or pred.ndim != 1:
        raise ValidationError("pred, gold and groups must share one length")
    require_values(pred, (-1, 1), "pred")
    require_values(gold, (-1, 1), "gold")
    require_values(groups, (0, 1), "group")
    active = np.ones((pred.size, 1), dtype=bool)
    return _report(_group_counts(pred[:, None], gold, groups, active)[0])


def _group_counts(pred: np.ndarray, gold: np.ndarray, groups: np.ndarray,
                  active: np.ndarray) -> np.ndarray:
    """Counts over the active rows of each column of an n x c ``pred``
    block, as a c x 3 x 4 array: (rows, correct predictions, positive
    predictions) x (group 0, group 1, gold positives in group 0, in
    group 1).  Float64 sums of 0/1 terms are exact below 2**53 rows."""
    member = np.stack([groups == 0, groups == 1], axis=1)
    weights = np.concatenate([member, member & (gold == 1)[:, None]], axis=1)
    masks = (active, active & (pred == gold[:, None]), active & (pred == 1))
    return np.stack([m.T.astype(np.float64) @ weights for m in masks],
                    axis=1).astype(np.int64)


def _rate(count: int, total: int) -> float:
    """``count / total``, or NaN over zero rows."""
    return count / total if total else math.nan


def _report(counts: np.ndarray) -> FairnessReport:
    """FairnessReport from one column of :func:`_group_counts`.  Each
    rate is an integer count over a count, which equals the mean of the
    matching boolean mask."""
    (n0, n1, gp0, gp1), (ok0, ok1, _, _), (pos0, pos1, tp0, tp1) = \
        counts.tolist()
    tp, pos, gp = tp0 + tp1, pos0 + pos1, gp0 + gp1
    precision = tp / pos if pos else 0.0
    recall = tp / gp if gp else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    pos_rate = (_rate(pos0, n0), _rate(pos1, n1))
    return FairnessReport(
        accuracy=_rate(ok0 + ok1, n0 + n1),
        f1=f1,
        dp_gap=abs(pos_rate[1] - pos_rate[0]),
        eo_gap=abs(_rate(tp1, gp1) - _rate(tp0, gp0)),
        per_group_accuracy=(_rate(ok0, n0), _rate(ok1, n1)),
        positive_rate_per_group=pos_rate,
        eo_defined=bool(gp0 and gp1),
    )


def _delta(after: FairnessReport, before: FairnessReport) -> dict:
    out = {}
    for key in _METRIC_KEYS:
        x, y = getattr(after, key), getattr(before, key)
        out[key] = (x - y) if (math.isfinite(x) and math.isfinite(y)) else None
    return out


def lf_delta_report(
    before: WeakLabelMatrix,
    after: WeakLabelMatrix,
    ds: GroupedDataset,
) -> list[dict]:
    """Per-LF fairness reports for two vote matrices plus their deltas,
    one row per LF, named ``lf_j`` as in the votes CSV header.

    Each LF is scored against ``ds``'s gold labels and groups on the rows
    where it is non-abstaining in both matrices, so the before/after
    comparison covers a common row set.  The reports equal
    :func:`fairness_report` on those rows, NaN where a group has none of
    them; all LFs are counted in one pass.
    """
    if ds.labels is None:
        raise ValidationError("lf_delta_report needs gold labels")
    if before.votes.shape != after.votes.shape:
        raise ValidationError("before/after vote shapes differ")
    if before.n != ds.n:
        raise ValidationError(ROW_MISMATCH.format(ds.n, before.n))
    active = (before.votes != 0) & (after.votes != 0)
    counts = [_group_counts(wl.votes, ds.labels, ds.groups, active)
              for wl in (before, after)]
    rows = []
    for j in range(before.m):
        rep_before, rep_after = (_report(c[j]) for c in counts)
        rows.append({
            "name": f"lf_{j}",
            "before": rep_before,
            "after": rep_after,
            "delta": _delta(rep_after, rep_before),
        })
    return rows


def regime_profile(
    X: np.ndarray,
    correct_mask: np.ndarray,
    groups: np.ndarray,
    candidate_centers: list[int],
) -> RegimeProfile:
    """Locate the best-accuracy center and trace per-group accuracy decay.

    The center is the candidate whose nearest ``NEIGHBORHOOD_FRAC`` share
    of all points is most accurate (ties favor the earlier candidate).
    Each group's curve then grows the included set in ``STEP_FRAC`` steps
    ordered by distance to that center, recording the farthest included
    distance and the cumulative accuracy.
    """
    X = np.asarray(X, dtype=np.float64)
    correct = np.asarray(correct_mask, dtype=bool)
    groups = np.asarray(groups)
    if X.ndim != 2 or correct.shape != (X.shape[0],) \
            or groups.shape != (X.shape[0],):
        raise ValidationError("X, correct_mask and groups are inconsistent")
    if len(candidate_centers) == 0:
        raise ValidationError("candidate set must be non-empty")
    n = X.shape[0]
    k_neigh = int(NEIGHBORHOOD_FRAC * n)
    if k_neigh == 0:
        raise ValidationError(
            f"{NEIGHBORHOOD_FRAC:.0%} of {n} points is an empty neighborhood")

    best_idx, best_acc = -1, -np.inf
    for c in candidate_centers:
        dist = np.linalg.norm(X - X[c], axis=1)
        nearest = np.lexsort((np.arange(n), dist))[:k_neigh]
        acc = float(correct[nearest].mean())
        if acc > best_acc:
            best_idx, best_acc = int(c), acc

    dist = np.linalg.norm(X - X[best_idx], axis=1)
    curves = []
    for k in (0, 1):
        mask = groups == k
        if not mask.any():
            raise ValidationError(f"empty group {k}")
        n_k = int(mask.sum())
        order = np.lexsort((np.arange(n_k), dist[mask]))
        d_k = dist[mask][order]
        c_k = correct[mask][order]
        step = max(1, int(STEP_FRAC * n_k))
        pts = []
        for stop in range(step, n_k + step, step):
            stop = min(stop, n_k)
            pts.append((float(d_k[stop - 1]), float(c_k[:stop].mean())))
            if stop == n_k:
                break
        curves.append(tuple(pts))
    return RegimeProfile(center_index=best_idx, curves=tuple(curves))
