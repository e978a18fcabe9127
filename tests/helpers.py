"""Shared fixture builders and independent brute-force oracles.

The oracles here deliberately avoid the production code paths: the kNN
oracle is an exhaustive scan, the Sinkhorn oracle projects the full matrix
instead of scaling factor vectors, the posterior oracle enumerates the
joint outcome space, and the triplet oracle visits one LF triplet at a
time instead of making one array pass.  Tests compare library output
against these.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from otrelabel import (
    GroupedDataset,
    NumericalError,
    TripletRecord,
    ValidationError,
    WeakLabelMatrix,
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
