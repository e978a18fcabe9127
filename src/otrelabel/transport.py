"""The repair step: pick a transport direction from estimated per-group
accuracies, map the low-accuracy group's feature points onto the
high-accuracy group, and re-assign its weak labels by nearest neighbors.

Only the source (low-accuracy) group's votes are ever rewritten; the
destination group's votes are untouched by construction.  The direction
decision uses estimated accuracies exclusively, never gold labels.

Neighbours are searched in a KD-tree on the destination rows at up to
``_TREE_MAX_D`` dimensions; rows the tree cannot rank beyond rounding
doubt re-rank the tree's rows near their k-th distance by ``cdist``, and
every row at higher dimension takes an exact ``cdist`` scan, so the
chosen neighbours never depend on which search found them.  Both tree
searches, like the Sinkhorn scaling, run on every CPU in the process's
affinity set; each query row is searched on its own, so the result never
depends on that count, and ``taskset -c 0`` pins both to one CPU.

Sinkhorn transport holds one dense n_src x n_dst float64 buffer: the
squared-Euclidean cost is computed into it and becomes K, which the
projection reads with the scalings.  When it cannot be allocated the
error names its size before any work starts.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from . import core
from .core import (
    GroupedDataset,
    NumericalError,
    PipelineConfig,
    VOTE_VALUES,
    ValidationError,
    WeakLabelMatrix,
    _unchecked,
    require_count,
    require_values,
    validate_dataset,
)
from .ot import _sinkhorn_projection, apply_monge, fit_moments, linear_monge

logger = logging.getLogger("otrelabel")

_CHUNK = 256
# Above this dimension a KD-tree prunes too little to beat the cdist scan.
# Provisional, set from one-core probes on Gaussian rows only: at 6k x 6k,
# 1-NN, d = 10 tree 289 ms vs scan 327 ms, d = 12 487 vs 341; at 50k x 50k
# the tree still wins at d = 12 (1-NN 19.0 s vs 28.7 s), so the crossover
# rises with n_dst.  The tree searches on core._workers() threads while
# the scan's cdist holds the GIL (two threads scanning halves at d = 16,
# 6k x 6k: 378 -> 355 ms), so on more than one CPU the crossover is at
# least this high.  Re-tune once a workload runs transport above d = 10.
_TREE_MAX_D = 10
# A tree ranking is trusted only across gaps wider than this margin.  The
# relative part is some 10**3 times the rounding difference between the
# tree's and cdist's distances at d <= _TREE_MAX_D; the absolute part
# (in distance units) covers squared differences that underflow.
_TIE_REL = 1e-12
_TIE_ABS = 1e-150
# Tied rows re-rank the tree's candidates only while every squared
# distance, and the squared search radius, stays far from overflow (the
# tree's ball search raises on overflow).
_MAX_SQ_SPAN = 1e300


@dataclass(frozen=True)
class TransportDecision:
    """Record of one LF's direction decision."""

    lf_index: int
    src_group: int
    dst_group: int
    acc_src: float
    acc_dst: float
    skipped: bool = False
    reason: str = ""


@dataclass(frozen=True)
class RelabelResult:
    new_votes: WeakLabelMatrix
    changed_mask: np.ndarray
    decisions: list[TransportDecision]


def knn_transfer(
    X_query: np.ndarray,
    X_dst: np.ndarray,
    votes_dst: np.ndarray,
    k: int,
) -> np.ndarray:
    """Majority vote among the k nearest destination rows (Euclidean).

    ``votes_dst`` is one vote column (``n_dst``) or a block of columns
    (``n_dst x c``); the result has the same layout over the query rows.
    The neighbours are found once and every column votes from them: a
    KD-tree search at low dimension, where rows whose ranking the tree
    cannot prove re-rank its nearby rows by ``cdist``, and an exact
    ``cdist`` scan for every row above ``_TREE_MAX_D`` dimensions.
    Either way the neighbours are exactly the scan's.  Non-finite
    coordinates and votes outside {-1, 0, +1} are rejected.

    Deterministic tie handling: exact distance ties prefer the lower row
    index; a tied majority falls back to the nearest non-abstaining
    neighbor's vote.  Abstaining neighbors are excluded from the majority;
    if all k neighbors abstain the transferred vote is abstain.
    """
    X_query = np.asarray(X_query, dtype=np.float64)
    X_dst = np.asarray(X_dst, dtype=np.float64)
    votes_dst = np.asarray(votes_dst)
    if X_dst.shape[0] == 0:
        raise ValidationError("destination set is empty")
    if X_query.ndim != 2 or X_dst.ndim != 2 \
            or X_query.shape[1] != X_dst.shape[1]:
        raise ValidationError("query/destination dimensions differ")
    if votes_dst.ndim not in (1, 2) or votes_dst.shape[0] != X_dst.shape[0]:
        raise ValidationError("votes_dst length must match X_dst rows")
    votes_dst = np.asarray(
        require_values(votes_dst, VOTE_VALUES, "vote"), dtype=np.int64)
    k = require_count("k", k)
    if k > X_dst.shape[0]:
        raise ValidationError(
            f"k must be in [1, {X_dst.shape[0]}], got {k}")
    return _transfer(X_query, X_dst, votes_dst, k)


def _transfer(X_query: np.ndarray, X_dst: np.ndarray, votes_dst: np.ndarray,
              k: int) -> np.ndarray:
    """:func:`knn_transfer` past its shape, vote and ``k`` checks."""
    for name, block in (("query", X_query), ("destination", X_dst)):
        if not np.isfinite(block).all():
            raise ValidationError(f"{name} coordinates must be finite")
    return _majority_vote(votes_dst[_nearest(X_query, X_dst, k)])


def _nearest(X_query: np.ndarray, X_dst: np.ndarray, k: int) -> np.ndarray:
    """Indices (n_query x k) of each query row's k nearest destination
    rows, nearest first, exact distance ties to the lower index.

    For ``1 <= d <= _TREE_MAX_D`` a KD-tree on the destination rows finds
    each row's k + 1 nearest.  A row keeps the tree's first k when every
    gap between consecutive tree distances exceeds ``_TIE_REL`` relative
    plus ``_TIE_ABS``: the tree and ``cdist`` sum the same rounded squared
    differences in different orders, so their distances differ by about
    d ulps, far inside the margin, and ``cdist`` ranks those k + 1 rows
    the same way with no other row between them.  A row with a near or
    exact tie takes :func:`_rerank` over the tree's rows within the margin
    of its k-th distance, which hold every row ``cdist`` could rank among
    the k nearest.  Every row when k + 1 > n_dst, every row above
    ``_TREE_MAX_D``, and tied rows whose coordinates span so far that
    squared distances could overflow take the full ``cdist`` scan of
    :func:`_nearest_exact`.  The result is the scan's, index for index.
    Both tree searches split the query rows over :func:`core._workers`
    threads; each row is searched alone, so the split changes nothing.
    """
    n_dst, d = X_dst.shape
    if not 0 < d <= _TREE_MAX_D or k + 1 > n_dst:
        return _nearest_exact(X_query, X_dst, k)
    workers = core._workers()
    tree = cKDTree(X_dst)
    dist, idx = tree.query(X_query, k=k + 1, eps=0, workers=workers)
    bound = dist * (1.0 + _TIE_REL) + _TIE_ABS
    # an infinite (overflowed) distance fails the gap test unless it is
    # the last one, which is checked on its own
    proven = np.isfinite(dist[:, -1]) & np.all(
        dist[:, 1:] > bound[:, :-1], axis=1)
    nbrs = idx[:, :k]
    redo = np.flatnonzero(~proven)
    if redo.size == 0:
        return nbrs
    X_redo = X_query[redo]
    with np.errstate(over="ignore"):
        span = np.maximum(X_dst.max(axis=0), X_redo.max(axis=0)) \
            - np.minimum(X_dst.min(axis=0), X_redo.min(axis=0))
        safe = np.sum(span * span) < _MAX_SQ_SPAN
    if not safe:
        nbrs[redo] = _nearest_exact(X_redo, X_dst, k)
        return nbrs
    cands = tree.query_ball_point(X_redo, r=bound[redo, k - 1], eps=0,
                                  workers=workers, return_sorted=False)
    nbrs[redo] = _rerank(X_redo, X_dst, cands, k)
    return nbrs


def _rerank(X_query: np.ndarray, X_dst: np.ndarray, cands: np.ndarray,
            k: int) -> np.ndarray:
    """:func:`_nearest` of each query row among its candidate destination
    rows (one index list per row, in any order).  Exact when the
    candidates hold every row within the k-th nearest ``cdist`` distance,
    ties included."""
    nbrs = np.empty((X_query.shape[0], k), dtype=np.intp)
    for r, cand in enumerate(cands):
        # sorted, a lower column is a lower row index for _rank's tie rule
        cand = np.sort(np.asarray(cand, dtype=np.intp))
        dist = cdist(X_query[r:r + 1], X_dst[cand], metric="euclidean")
        nbrs[r] = cand[_rank(dist, k)[0]]
    return nbrs


def _nearest_exact(X_query: np.ndarray, X_dst: np.ndarray,
                   k: int) -> np.ndarray:
    """:func:`_nearest` by a row-chunked ``cdist`` scan of every
    destination row."""
    nbrs = np.empty((X_query.shape[0], k), dtype=np.intp)
    for start in range(0, X_query.shape[0], _CHUNK):
        dist = cdist(X_query[start:start + _CHUNK], X_dst,
                     metric="euclidean")
        nbrs[start:start + _CHUNK] = _rank(dist, k)
    return nbrs


def _rank(dist: np.ndarray, k: int) -> np.ndarray:
    """Columns of each row's k smallest distances, nearest first, exact
    distance ties to the lower column."""
    if k == 1:
        # argmin returns the first (lowest-column) minimum
        return np.argmin(dist, axis=1)[:, None]
    cand = np.argpartition(dist, k - 1, axis=1)[:, :k]
    cand_dist = np.take_along_axis(dist, cand, axis=1)
    order = np.lexsort((cand, cand_dist), axis=1)
    cand = np.take_along_axis(cand, order, axis=1)
    # the partition picks arbitrarily among columns tied at the k-th
    # distance; such rows redo the exact (distance, column) sort
    kth = np.take_along_axis(dist, cand[:, -1:], axis=1)
    for r in np.flatnonzero((dist <= kth).sum(axis=1) > k):
        cand[r] = np.lexsort((np.arange(dist.shape[1]), dist[r]))[:k]
    return cand


def _majority_vote(votes: np.ndarray) -> np.ndarray:
    """Vote over axis 1 of an (n, k, ...) tensor of neighbour votes,
    nearest neighbour first; returns the (n, ...) transferred votes."""
    pos = (votes > 0).sum(axis=1)
    neg = (votes < 0).sum(axis=1)
    # the first non-abstaining vote, or abstain when every vote abstains
    first = np.take_along_axis(
        votes, np.argmax(votes != 0, axis=1)[:, None], axis=1)[:, 0]
    return np.where(pos > neg, 1, np.where(neg > pos, -1, first))


def _transported_sources(
    X_src: np.ndarray,
    X_dst: np.ndarray,
    cfg: PipelineConfig,
) -> np.ndarray:
    if cfg.ot_type == "none":
        return X_src
    if cfg.ot_type == "linear":
        d = X_src.shape[1]
        for name, block in (("source", X_src), ("destination", X_dst)):
            if block.shape[0] < d + 1:
                raise ValidationError(
                    f"{name} group has {block.shape[0]} rows; covariance "
                    f"estimation needs at least d + 1 = {d + 1}")
        mm = linear_monge(
            fit_moments(X_src, cfg.covariance_ridge),
            fit_moments(X_dst, cfg.covariance_ridge),
        )
        return apply_monge(mm, X_src)
    n_src, n_dst = X_src.shape[0], X_dst.shape[0]
    try:
        cost = np.empty((n_src, n_dst))
    except MemoryError:
        raise ValidationError(
            f"a sinkhorn plan over {n_src} x {n_dst} rows needs one dense "
            f"float64 buffer of {8 * n_src * n_dst} bytes, which could not "
            "be allocated; ot_type=linear needs no dense buffer") from None
    cdist(X_src, X_dst, metric="sqeuclidean", out=cost)
    # finite features have finite costs unless a squared distance overflows
    big = float(max(np.abs(X_src).max(), np.abs(X_dst).max()))
    if 4 * X_src.shape[1] * big * big > _MAX_SQ_SPAN and cost.max() == np.inf:
        raise NumericalError(
            "squared feature distances overflow float64 (largest |feature| "
            f"{big:.3e}); rescale the features")
    projected, plan = _sinkhorn_projection(
        cost, X_dst, cfg.sinkhorn_eta, cfg.sinkhorn_max_iter, cfg.sinkhorn_tol)
    if not plan.converged:
        logger.info(
            "sinkhorn stopped after %d rounds with marginal violation "
            "%.2e (raise sinkhorn_max_iter to tighten)",
            plan.iterations_run, plan.marginal_violation)
    return projected


def sbm_transport(
    ds: GroupedDataset,
    wl: WeakLabelMatrix,
    group_acc: np.ndarray,
    cfg: PipelineConfig,
) -> RelabelResult:
    """Repair the vote matrix by transporting the weaker group per LF.

    ``group_acc`` is the m x 2 matrix of per-group accuracy estimates
    (:func:`~otrelabel.estimate.per_group_accuracies`).  Each LF picks
    src = its lower estimated-accuracy group, and is skipped when the two
    estimates are within ``tie_tol``.  In ``per_lf`` scope the estimates
    are the LF's own; in ``global`` scope every LF uses the mean
    per-group accuracy over all LFs, so all of them share one decision
    and one map, and one decision per LF is recorded.  The
    transported coordinates and their nearest destination neighbours
    depend only on features, so the (at most two) directions are taken
    one at a time, in the order of each direction's first moved LF: one
    transport of the source rows and one kNN transfer, which trusts the
    container's votes, re-label every LF moved that way.  An error in a
    direction names that first LF.
    """
    acc = np.asarray(group_acc, dtype=np.float64)
    if acc.shape != (wl.m, 2):
        raise ValidationError(f"group_acc must be {wl.m}x2, got {acc.shape}")
    if np.any(np.abs(acc) > 1 + 1e-12):
        raise ValidationError("accuracy estimates must lie in [-1, 1]")
    validate_dataset(ds, wl)

    if cfg.transport_scope == "global":
        acc = np.broadcast_to(acc.mean(axis=0), acc.shape)
    skipped = np.abs(acc[:, 0] - acc[:, 1]) <= cfg.tie_tol
    # a tie is recorded with group 0 as its source
    src_of = np.where(skipped | (acc[:, 0] < acc[:, 1]), 0, 1)
    rows = acc.tolist()
    decisions = [
        TransportDecision(j, src, 1 - src, rows[j][src], rows[j][1 - src],
                          skip, "tie" if skip else "")
        for j, (src, skip) in enumerate(zip(src_of.tolist(),
                                            skipped.tolist()))]

    votes = wl.votes
    new_votes = votes.copy()
    moved = np.flatnonzero(~skipped)
    for src in dict.fromkeys(src_of[moved].tolist()):
        cols = moved[src_of[moved] == src]
        dst = 1 - src
        src_rows, dst_rows = ds.group_mask(src), ds.group_mask(dst)
        X_dst = ds.features[dst_rows]
        if X_dst.shape[0] < cfg.knn_k:
            raise ValidationError(
                f"lf_{cols[0]}: destination group {dst} has "
                f"{X_dst.shape[0]} rows, fewer than k={cfg.knn_k}")
        try:
            X_src = _transported_sources(ds.features[src_rows], X_dst, cfg)
        except (ValidationError, NumericalError) as exc:
            raise type(exc)(f"lf_{cols[0]}: {exc}") from exc
        new_votes[np.ix_(src_rows, cols)] = _transfer(
            X_src, X_dst, votes[np.ix_(dst_rows, cols)], cfg.knn_k)

    changed = new_votes != votes
    # checked votes moved by _majority_vote: not checked again
    new_votes.setflags(write=False)
    return RelabelResult(
        new_votes=_unchecked(WeakLabelMatrix, votes=new_votes),
        changed_mask=changed,
        decisions=decisions,
    )
