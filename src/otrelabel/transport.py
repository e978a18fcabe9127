"""The repair step: pick a transport direction from estimated per-group
accuracies, map the low-accuracy group's feature points onto the
high-accuracy group, and re-assign its weak labels by nearest neighbors.

Only the source (low-accuracy) group's votes are ever rewritten; the
destination group's votes are untouched by construction.  The direction
decision uses estimated accuracies exclusively, never gold labels.

Neighbours are searched in a KD-tree on the destination rows at up to
``_TREE_MAX_D`` dimensions.  Each distinct row the tree cannot prove, and
each above, is ranked once by ``cdist`` in row blocks within
``core.ROW_BLOCK_BYTES``, so the neighbours never depend on the search.
Both tree searches, like the Sinkhorn kernel's build and scaling, run on
every CPU in the process's affinity set; each query row is searched on
its own, so the result never depends on that count, and ``taskset -c 0``
pins them all to one CPU.  Points whose squared distances overflow are
refused first: they would rank as ties.

Sinkhorn transport is one call, ``ot._sinkhorn_projection``; the ``ot``
module describes its kernel's buffer, dtype and projection.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

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
from .ot import (
    SINKHORN_TOL, _sinkhorn_projection, apply_monge, fit_moments, linear_monge)

logger = logging.getLogger("otrelabel")

# Above this dimension a KD-tree prunes too little to beat the cdist scan.
# Provisional, set from one-core probes on Gaussian rows only: at 6k x 6k,
# 1-NN, d = 10 tree 289 ms vs scan 327 ms, d = 12 487 vs 341; at 50k x 50k
# the tree still wins at d = 12 (1-NN 19.0 s vs 28.7 s), so the crossover
# rises with n_dst.  The tree searches on core._workers() threads, the
# scan on one (cdist releases the GIL, but two threads scanning halves at
# d = 16, 6k x 6k, took 378 -> 355 ms), so on more CPUs the crossover is
# at least this high.  Re-tune once a workload runs transport above d = 10.
_TREE_MAX_D = 10
# A tree ranking is trusted only across gaps wider than this margin.  The
# relative part is some 10**3 times the rounding difference between the
# tree's and cdist's distances at d <= _TREE_MAX_D; the absolute part
# (in distance units) covers squared differences that underflow.
_TIE_REL = 1e-12
_TIE_ABS = 1e-150
# Unproven rows are ranked over the tree's candidates only while every
# squared distance, and the squared search radius, stays far from
# overflow (the tree's ball search raises on overflow), else over all.
_MAX_SQ_SPAN = 1e300
_RIDGE = 1e-6  # the linear map's covariance ridge, per unit mean variance


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
    (``n_dst x c``); the result has the same layout over the query rows,
    as int8 votes.
    The neighbours are found once and every column votes from them: a
    KD-tree search up to ``_TREE_MAX_D`` dimensions, and an exact
    ``cdist`` ranking, once per distinct row, of every row the tree
    cannot prove and every row above.  Either way they are the scan's.
    Non-finite coordinates, votes outside {-1, 0, +1} and points whose
    squared distances could overflow float64 are rejected.

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
    for name, block in (("query", X_query), ("destination", X_dst)):
        if not np.isfinite(block).all():
            raise ValidationError(f"{name} coordinates must be finite")
    _require_squared_distances(X_query, X_dst)
    votes_dst = np.asarray(
        require_values(votes_dst, VOTE_VALUES, "vote"), dtype=np.int8)
    k = require_count("k", k)
    if k > X_dst.shape[0]:
        raise ValidationError(
            f"k must be in [1, {X_dst.shape[0]}], got {k}")
    return _majority_vote(votes_dst[_nearest(X_query, X_dst, k)])


def _nearest(X_query: np.ndarray, X_dst: np.ndarray, k: int) -> np.ndarray:
    """Indices (n_query x k) of each query row's k nearest destination
    rows, nearest first, exact distance ties to the lower index.

    For ``1 <= d <= _TREE_MAX_D`` and k < n_dst a KD-tree on the
    destination rows finds each row's k + 1 nearest.  A row keeps the
    tree's first k when every gap between consecutive tree distances
    exceeds ``_TIE_REL`` relative plus ``_TIE_ABS``: the tree and
    ``cdist`` sum the same rounded squared differences in different
    orders, so their distances differ by about d ulps, far inside the
    margin, and ``cdist`` ranks those k + 1 rows the same way with no
    other row between them.  Every other row, and every row without a
    tree, is ranked by :func:`_nearest_exact` once per distinct row
    (equal rows, -0.0 and 0.0 alike, have bit-identical ``cdist``
    distances) over the tree's rows within the margin of its k-th
    distance, which hold every row ``cdist`` could rank among the k
    nearest, or over all rows when squared distances could overflow.
    Both tree searches split the query rows over :func:`core._workers`
    threads; each row is searched alone, so the split changes nothing.
    """
    n_dst, d = X_dst.shape
    tree = None
    if 0 < d <= _TREE_MAX_D and k < n_dst:
        workers = core._workers()
        tree = cKDTree(X_dst)
        dist, idx = tree.query(X_query, k=k + 1, eps=0, workers=workers)
        bound = dist * (1.0 + _TIE_REL) + _TIE_ABS
        # an infinite (overflowed) distance fails the gap test unless it
        # is the last one, which is checked on its own
        proven = np.isfinite(dist[:, -1]) & np.all(
            dist[:, 1:] > bound[:, :-1], axis=1)
        nbrs = idx[:, :k]
        redo = np.flatnonzero(~proven)
        if redo.size == 0:
            return nbrs
    else:
        nbrs = np.empty((X_query.shape[0], k), dtype=np.intp)
        redo = np.arange(X_query.shape[0])
    uniq, first, inv = np.unique(X_query[redo], axis=0, return_index=True,
                                 return_inverse=True)
    cands = None
    if tree is not None and _squared_diagonal(X_dst, uniq) < _MAX_SQ_SPAN:
        cands = tree.query_ball_point(
            uniq, r=bound[redo[first], k - 1], eps=0, workers=workers,
            return_sorted=False)
    nbrs[redo] = _nearest_exact(uniq, X_dst, k, cands)[inv.ravel()]
    return nbrs


def _nearest_exact(X_query: np.ndarray, X_dst: np.ndarray, k: int,
                   cands=None) -> np.ndarray:
    """:func:`_nearest` by ``cdist`` in blocks of query rows, each ranked
    over every destination row (``core.row_blocks`` blocks), or over the
    union of the block's ``cands`` (per row, every row within its k-th
    distance; :func:`_candidate_blocks`)."""
    nbrs = np.empty((X_query.shape[0], k), dtype=np.intp)
    if cands is None:
        for rows in core.row_blocks(X_query.shape[0], 8 * X_dst.shape[0]):
            nbrs[rows] = _rank(cdist(X_query[rows], X_dst), k)
        return nbrs
    for rows in _candidate_blocks(cands, X_dst.shape[0]):
        # sorted, a lower column is a lower row index for _rank's rule
        near = np.unique(np.concatenate(cands[rows]))
        nbrs[rows] = near[_rank(cdist(X_query[rows], X_dst[near]), k)]
    return nbrs


def _candidate_blocks(cands, n_dst: int) -> list[slice]:
    """Consecutive slices of the rows of ``cands``, each at least one row
    and, with the union of its rows' candidates counted at the sum of
    their counts (at most ``n_dst``), a distance block within
    ``core.ROW_BLOCK_BYTES``."""
    blocks, start, width = [], 0, 0
    for row, count in enumerate(map(len, cands)):
        width += count
        if row > start and 8 * (row + 1 - start) * min(width, n_dst) \
                > core.ROW_BLOCK_BYTES:
            blocks.append(slice(start, row))
            start, width = row, count
    if start < len(cands):
        blocks.append(slice(start, len(cands)))
    return blocks


def _rank(dist: np.ndarray, k: int) -> np.ndarray:
    """Columns of each row's k smallest distances, nearest first, exact
    distance ties to the lower column: one (row, distance, column) sort of
    every entry at or within its row's k-th distance, tied rows included."""
    if k == 1:
        # argmin returns the first (lowest-column) minimum
        return np.argmin(dist, axis=1)[:, None]
    n, m = dist.shape
    # a copy of the k-th column, so the partitioned block is freed
    kth = np.partition(dist, k - 1, axis=1)[:, [k - 1]]
    flat = np.flatnonzero(dist <= kth)  # row-major: rows, then columns
    start = np.searchsorted(flat, np.arange(n) * m)
    # lexsort is stable, so equal (row, distance) keys stay in column order
    flat = flat[np.lexsort((dist.ravel()[flat], flat // m))]
    return flat[start[:, None] + np.arange(k)] % m


def _majority_vote(votes: np.ndarray) -> np.ndarray:
    """Vote over axis 1 of an (n, k, ...) tensor of neighbour votes,
    nearest neighbour first; returns the (n, ...) transferred votes."""
    pos = (votes > 0).sum(axis=1)
    neg = (votes < 0).sum(axis=1)
    # the first non-abstaining vote, or abstain when every vote abstains
    first = np.take_along_axis(
        votes, np.argmax(votes != 0, axis=1)[:, None], axis=1)[:, 0]
    return np.where(pos > neg, 1, np.where(neg > pos, -1, first))


def _squared_diagonal(A: np.ndarray, B: np.ndarray) -> float:
    """The squared diagonal of A's and B's rows' bounding box, or inf."""
    with np.errstate(over="ignore"):
        span = np.maximum(A.max(0), B.max(0)) - np.minimum(A.min(0), B.min(0))
        return float(np.sum(span * span))


def _require_squared_distances(A: np.ndarray, B: np.ndarray) -> None:
    """Refuse rows of A and B whose squared distances could overflow
    float64 (their bounding box bounds every distance; an empty A has
    none): ranked, overflowed distances would all tie."""
    if A.shape[0] and _squared_diagonal(A, B) == np.inf:
        big = float(max(np.abs(A).max(), np.abs(B).max()))
        raise NumericalError(
            "squared feature distances overflow float64 (largest |feature| "
            f"{big:.3e}); rescale the features")


def _transported_sources(
    X_src: np.ndarray,
    X_dst: np.ndarray,
    cfg: PipelineConfig,
) -> np.ndarray:
    if cfg.ot_type == "none" or X_src.shape[1] == 0:
        return X_src  # points with no coordinates have nowhere to move
    if cfg.ot_type == "linear":
        d = X_src.shape[1]
        for name, block in (("source", X_src), ("destination", X_dst)):
            if block.shape[0] < d + 1:
                raise ValidationError(
                    f"{name} group has {block.shape[0]} rows; covariance "
                    f"estimation needs at least d + 1 = {d + 1}")
        src, dst = fit_moments(X_src), fit_moments(X_dst)
        # the mean variance, divided before it is summed: it cannot overflow
        s = np.trace(src.sigma / (2 * d) + dst.sigma / (2 * d)) or 1.0
        ridge = _RIDGE * s * np.eye(d)
        mm = linear_monge(replace(src, sigma=src.sigma + ridge),
                          replace(dst, sigma=dst.sigma + ridge))
        return apply_monge(mm, X_src)
    _require_squared_distances(X_src, X_dst)
    projected, rounds, violation = _sinkhorn_projection(
        X_src, X_dst, cfg.sinkhorn_eta, cfg.sinkhorn_max_iter)
    if violation > SINKHORN_TOL:
        logger.info(
            "sinkhorn stopped after %d rounds with marginal violation "
            "%.2e (raise sinkhorn_max_iter to tighten)", rounds, violation)
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
    estimates are within ``tie_tol``.  To give every LF one shared
    decision, pass the mean over LFs broadcast to every row,
    ``np.broadcast_to(group_acc.mean(axis=0), group_acc.shape)``.  The
    transported coordinates and their nearest destination neighbours
    depend only on features, so the (at most two) directions are taken
    one at a time, in the order of each direction's first moved LF: one
    transport of the source rows and one :func:`knn_transfer` call
    re-label every LF moved that way.  An error in a direction names that
    first LF.
    """
    acc = np.asarray(group_acc, dtype=np.float64)
    if acc.shape != (wl.m, 2):
        raise ValidationError(f"group_acc must be {wl.m}x2, got {acc.shape}")
    if not (np.abs(acc) <= 1 + 1e-12).all():  # NaN too
        raise ValidationError("accuracy estimates must lie in [-1, 1]")
    validate_dataset(ds, wl)

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
            new_votes[np.ix_(src_rows, cols)] = knn_transfer(
                X_src, X_dst, votes[np.ix_(dst_rows, cols)], cfg.knn_k)
        except (ValidationError, NumericalError) as exc:
            raise type(exc)(f"lf_{cols[0]}: {exc}") from exc

    changed = new_votes != votes
    # checked votes moved by _majority_vote: not checked again
    new_votes.setflags(write=False)
    return RelabelResult(
        new_votes=_unchecked(WeakLabelMatrix, votes=new_votes),
        changed_mask=changed,
        decisions=decisions,
    )
