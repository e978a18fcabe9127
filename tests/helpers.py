"""Shared fixture builders and independent brute-force oracles.

The oracles here deliberately avoid the production code paths: the kNN
oracle is an exhaustive scan, the Sinkhorn oracle projects the full matrix
instead of scaling factor vectors, the posterior oracle enumerates the
joint outcome space, the triplet oracle visits one LF triplet at a
time instead of making one array pass, the CSV loader oracles check one
cell at a time, the sigmoid oracle splits its input by sign with boolean
indexing, the fairness oracle takes boolean means over masked rows, and
the end-model oracle evaluates the full loss every epoch.  Tests compare
library output against these.
"""

from __future__ import annotations

import csv
import itertools
import math
from typing import Optional, Sequence

import numpy as np

from otrelabel import (
    EndModel,
    FairnessReport,
    GroupedDataset,
    NumericalError,
    TripletRecord,
    ValidationError,
    WeakLabelMatrix,
    end_model_objective,
)


def make_biased_fixture(n_per_group: int, seed: int,
                        flip_probs=(0.15, 0.25, 0.2)):
    """Two-group dataset where lf_0 = sign(x[0]) is perfect on group 0 and
    collapses to a constant +1 (chance accuracy) on group 1, which is
    group 0's latent cloud shifted by +10 along the first axis.  The
    remaining LFs are independent noisy copies of y in both groups.
    """
    rng = np.random.default_rng(seed)
    z0 = rng.normal(size=(n_per_group, 2))
    z1 = rng.normal(size=(n_per_group, 2))
    x = np.vstack([z0, z1 + np.array([10.0, 0.0])])
    groups = np.repeat([0, 1], n_per_group)
    y = np.where(np.vstack([z0, z1])[:, 0] > 0, 1, -1)
    columns = [np.where(x[:, 0] > 0, 1, -1)]
    for p in flip_probs:
        flip = rng.random(2 * n_per_group) < p
        columns.append(np.where(flip, -y, y))
    return (
        GroupedDataset(x, groups, y),
        WeakLabelMatrix(np.column_stack(columns)),
    )


def sample_conditional_lfs(accuracies, n: int, seed: int,
                           balance: float = 0.5):
    """Votes from conditionally independent LFs with E[lambda_j y] = a_j."""
    a = np.asarray(accuracies, dtype=float)
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(n) < balance, 1, -1)
    agree = rng.random((n, a.size)) < (1 + a) / 2
    votes = np.where(agree, y[:, None], -y[:, None])
    return WeakLabelMatrix(votes), y


def knn_oracle(X_query, X_dst, votes_dst, k):
    """Exhaustive-scan nearest-neighbor transfer with the documented tie
    rules: distance ties to the lower index, majority ties to the nearest
    non-abstaining neighbor, all-abstain neighborhoods abstain."""
    X_query = np.asarray(X_query, float)
    X_dst = np.asarray(X_dst, float)
    votes_dst = np.asarray(votes_dst)
    out = np.empty(X_query.shape[0], dtype=np.int64)
    for q in range(X_query.shape[0]):
        dist = [(float(np.linalg.norm(X_query[q] - X_dst[i])), i)
                for i in range(X_dst.shape[0])]
        dist.sort()
        nbrs = [i for _, i in dist[:k]]
        active = [votes_dst[i] for i in nbrs if votes_dst[i] != 0]
        if not active:
            out[q] = 0
            continue
        pos = sum(1 for v in active if v > 0)
        neg = len(active) - pos
        if pos > neg:
            out[q] = 1
        elif neg > pos:
            out[q] = -1
        else:
            out[q] = active[0]
    return out


def sinkhorn_projection_oracle(M, a, b, eta, rescale_median=True,
                               tol=1e-12, max_rounds=1_000_000):
    """Fixed point of alternating row/column marginal projections applied
    to the full matrix exp(-M/eta) (after the same median cost rescale the
    library applies)."""
    M = np.asarray(M, float)
    if rescale_median:
        scale = float(np.median(M))
        if scale <= 0:
            scale = float(M.mean()) or 1.0
        M = M / scale
    T = np.exp(-M / eta)
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    for _ in range(max_rounds):
        T = T * (a / T.sum(axis=1))[:, None]
        T = T * (b / T.sum(axis=0))[None, :]
        violation = max(np.abs(T.sum(axis=1) - a).max(),
                        np.abs(T.sum(axis=0) - b).max())
        if violation <= tol:
            break
    return T


def bayes_posterior_oracle(votes_row, accuracies, balance):
    """Exact P(y=1 | votes) by enumerating the two label hypotheses under
    conditional independence with P(lambda_j = y) = (1 + a_j) / 2."""
    p_agree = (1 + np.asarray(accuracies, float)) / 2
    like = {1: balance, -1: 1 - balance}
    for y in (1, -1):
        for v, p in zip(votes_row, p_agree):
            if v == 0:
                continue
            like[y] *= p if v == y else 1 - p
    return like[1] / (like[1] + like[-1])


def _triplet_value(num1: float, num2: float, den: float) -> float:
    r = num1 * num2 / den
    return math.sqrt(min(max(r, 0.0), 1.0))


def triplet_oracle(moments, eps_pair, aggregation):
    """Per-triplet loop over ``itertools.combinations``: the scalar
    reference for ``accuracies_from_moments``.  Returns the aggregated
    magnitudes and a list of ``TripletRecord``."""
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


def sigmoid_oracle(z):
    """Logistic function on each sign separately, one exp per element."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def train_end_model_oracle(X, pseudo_probs, epochs=500, lr=0.1, l2=1e-4):
    """Full-batch gradient descent that checks the full loss is finite
    after every epoch."""
    X = np.asarray(X, dtype=np.float64)
    t = np.asarray(pseudo_probs, dtype=np.float64)
    center = X.mean(axis=0)
    spread = X.std(axis=0)
    spread = np.where(spread > 0, spread, 1.0)
    Xs = (X - center) / spread
    coef = np.zeros(X.shape[1] + 1)
    loss = math.nan
    for epoch in range(epochs):
        loss, grad = end_model_objective(coef, Xs, t, l2)
        if not math.isfinite(loss):
            raise NumericalError(
                f"end-model objective became non-finite at epoch {epoch} "
                f"(lr={lr}, l2={l2}); lower the learning rate")
        coef = coef - lr * grad
    loss, _ = end_model_objective(coef, Xs, t, l2)
    if not math.isfinite(loss):
        raise NumericalError("end-model objective diverged on the last step")
    w_raw = coef[:-1] / spread
    b_raw = coef[-1] - float(w_raw @ center)
    return EndModel(
        coefficients=np.concatenate([w_raw, [b_raw]]),
        training_meta={
            "iterations": epochs,
            "final_objective": loss,
            "learning_rate": lr,
        },
    )


def _read_rows_oracle(path: str) -> tuple[list[str], list[list[str]]]:
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise ValidationError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: file is empty") from None
        rows = list(reader)
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    header = [h.strip() for h in header]
    width = len(header)
    for i, row in enumerate(rows, start=2):
        if len(row) != width:
            raise ValidationError(
                f"{path}: row {i} has {len(row)} fields, expected {width}")
    return header, rows


def load_features_oracle(
    path: str,
    group_col: str = "group",
    label_col: Optional[str] = "label",
    feature_cols: Optional[Sequence[str]] = None,
) -> GroupedDataset:
    """Cell-by-cell features CSV parser that stops at the first bad cell:
    the reference for ``load_features_csv``."""
    header, rows = _read_rows_oracle(path)
    if group_col not in header:
        raise ValidationError(f"{path}: missing group column {group_col!r}")
    has_labels = label_col is not None and label_col in header
    if feature_cols is None:
        skip = {group_col} | ({label_col} if has_labels else set())
        feature_cols = [h for h in header if h not in skip]
    else:
        missing = [c for c in feature_cols if c not in header]
        if missing:
            raise ValidationError(f"{path}: missing feature columns {missing}")
    if not feature_cols:
        raise ValidationError(f"{path}: no feature columns")
    col_idx = {h: i for i, h in enumerate(header)}

    n = len(rows)
    features = np.empty((n, len(feature_cols)))
    groups = np.empty(n, dtype=np.int64)
    labels = np.empty(n, dtype=np.int64) if has_labels else None
    for r, row in enumerate(rows):
        lineno = r + 2
        for c, name in enumerate(feature_cols):
            cell = row[col_idx[name]].strip()
            try:
                features[r, c] = float(cell)
            except ValueError:
                raise ValidationError(
                    f"{path}: row {lineno}, column {name!r}: "
                    f"non-numeric value {cell!r}") from None
        g = row[col_idx[group_col]].strip()
        if g not in ("0", "1"):
            raise ValidationError(
                f"{path}: row {lineno}: unknown group value {g!r}")
        groups[r] = int(g)
        if has_labels:
            l = row[col_idx[label_col]].strip()
            if l not in ("-1", "1", "+1"):
                raise ValidationError(
                    f"{path}: row {lineno}: label must be -1 or 1, got {l!r}")
            labels[r] = int(l)
    return GroupedDataset(features, groups, labels)


def load_votes_oracle(path: str) -> WeakLabelMatrix:
    """Cell-by-cell votes CSV parser that stops at the first bad cell:
    the reference for ``load_votes_csv``."""
    header, rows = _read_rows_oracle(path)
    expected = [f"lf_{j}" for j in range(len(header))]
    if header != expected:
        raise ValidationError(
            f"{path}: votes header must be {','.join(expected)}")
    votes = np.empty((len(rows), len(header)), dtype=np.int64)
    for r, row in enumerate(rows):
        for c, cell in enumerate(row):
            cell = cell.strip()
            if cell not in ("-1", "0", "1", "+1"):
                raise ValidationError(
                    f"{path}: row {r + 2}, lf_{c}: illegal vote {cell!r}")
            votes[r, c] = int(cell)
    return WeakLabelMatrix(votes)


def fairness_oracle(pred, gold, groups) -> FairnessReport:
    """Fairness report from boolean-mask means, for valid +-1 ``pred`` and
    ``gold`` and 0/1 ``groups``: the reference for ``fairness_report``."""
    pred, gold, groups = (np.asarray(x) for x in (pred, gold, groups))
    masks = [groups == k for k in (0, 1)]
    if not (masks[0].any() and masks[1].any()):
        raise ValidationError("both groups must be non-empty")

    accuracy = float((pred == gold).mean())
    tp = int(((pred == 1) & (gold == 1)).sum())
    fp = int(((pred == 1) & (gold == -1)).sum())
    fn = int(((pred == -1) & (gold == 1)).sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)

    pos_rate = tuple(float((pred[m] == 1).mean()) for m in masks)
    grp_acc = tuple(float((pred[m] == gold[m]).mean()) for m in masks)
    dp_gap = abs(pos_rate[1] - pos_rate[0])

    tpr = []
    for m in masks:
        pos = m & (gold == 1)
        tpr.append(float((pred[pos] == 1).mean()) if pos.any() else math.nan)
    eo_defined = not any(math.isnan(t) for t in tpr)
    eo_gap = abs(tpr[1] - tpr[0]) if eo_defined else math.nan

    return FairnessReport(
        accuracy=accuracy,
        f1=f1,
        dp_gap=dp_gap,
        eo_gap=eo_gap,
        per_group_accuracy=grp_acc,
        positive_rate_per_group=pos_rate,
        eo_defined=eo_defined,
    )
