import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.spatial.distance import cdist

import otrelabel.core as core
import otrelabel.ot as ot
import otrelabel.transport as transport
from otrelabel import (
    GroupedDataset,
    NumericalError,
    PipelineConfig,
    ValidationError,
    WeakLabelMatrix,
    barycentric_map,
    knn_transfer,
    per_group_accuracies,
    sbm_transport,
    sinkhorn_plan,
)
from helpers import knn_oracle, make_biased_fixture, rank_oracle


def lf_group_accuracy(votes_col, y, groups, k):
    mask = groups == k
    return float((votes_col[mask] == y[mask]).mean())


# --------------------------------------------------------------------------
# knn_transfer


def test_coincident_query_copies_vote():
    dst = np.array([[0.0, 0.0], [5.0, 5.0]])
    votes = np.array([1, -1])
    out = knn_transfer(np.array([[5.0, 5.0]]), dst, votes, k=1)
    assert out.tolist() == [-1]


def test_full_neighborhood_unanimous():
    rng = np.random.default_rng(0)
    dst = rng.normal(size=(10, 3))
    out = knn_transfer(rng.normal(size=(4, 3)), dst, np.ones(10, int), k=10)
    assert np.all(out == 1)


def test_matches_exhaustive_oracle():
    rng = np.random.default_rng(1)
    dst = rng.normal(size=(200, 2))
    votes = rng.choice([-1, 0, 1], 200)
    query = rng.normal(size=(200, 2))
    for k in (1, 3, 4):
        assert np.array_equal(knn_transfer(query, dst, votes, k),
                              knn_oracle(query, dst, votes, k))


def test_distance_tie_breaks_to_lower_index():
    dst = np.array([[1.0, 0.0], [-1.0, 0.0]])
    votes = np.array([1, -1])
    out = knn_transfer(np.array([[0.0, 0.0]]), dst, votes, k=1)
    assert out.tolist() == [1]


def test_majority_tie_breaks_to_nearest_vote():
    dst = np.array([[1.0], [2.0], [3.0], [4.0]])
    votes = np.array([-1, 1, 1, -1])
    out = knn_transfer(np.array([[0.0]]), dst, votes, k=4)
    assert out.tolist() == [-1]  # 2-2 tie, nearest neighbor votes -1


def test_abstaining_neighbors_excluded():
    dst = np.array([[1.0], [2.0], [3.0]])
    votes = np.array([0, 0, -1])
    assert knn_transfer(np.array([[0.0]]), dst, votes, k=3).tolist() == [-1]
    # all neighbors abstain -> abstain
    assert knn_transfer(np.array([[0.0]]), dst, np.zeros(3, int),
                        k=3).tolist() == [0]


def test_empty_destination_rejected():
    with pytest.raises(ValidationError):
        knn_transfer(np.zeros((1, 2)), np.zeros((0, 2)), np.zeros(0, int), 1)


def test_k_out_of_range_rejected():
    dst = np.zeros((3, 2))
    with pytest.raises(ValidationError):
        knn_transfer(np.zeros((1, 2)), dst, np.ones(3, int), k=4)


@pytest.mark.parametrize("k", [1.5, 2.5, True, 2.0])
def test_non_integer_k_rejected(k):
    dst = np.arange(6.0).reshape(3, 2)
    with pytest.raises(ValidationError, match="k must be an integer >= 1"):
        knn_transfer(np.zeros((1, 2)), dst, np.ones(3, int), k)


def test_numpy_integer_k_accepted():
    rng = np.random.default_rng(3)
    dst = rng.normal(size=(20, 2))
    votes = rng.choice([-1, 0, 1], size=20)
    query = rng.normal(size=(5, 2))
    assert np.array_equal(knn_transfer(query, dst, votes, np.int64(3)),
                          knn_transfer(query, dst, votes, 3))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 7))
def test_oracle_agreement_property(seed, k):
    rng = np.random.default_rng(seed)
    dst = rng.integers(-3, 4, size=(12, 2)).astype(float)  # forces ties
    votes = rng.choice([-1, 0, 1], 12)
    query = rng.integers(-3, 4, size=(15, 2)).astype(float)
    assert np.array_equal(knn_transfer(query, dst, votes, k),
                          knn_oracle(query, dst, votes, k))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 7))
def test_vote_block_matches_oracle_per_column_property(seed, k):
    rng = np.random.default_rng(seed)
    dst = rng.integers(-3, 4, size=(12, 2)).astype(float)  # forces ties
    votes = rng.choice([-1, 0, 1], size=(12, 3))
    query = rng.integers(-3, 4, size=(15, 2)).astype(float)
    out = knn_transfer(query, dst, votes, k)
    assert out.shape == (15, 3)
    for c in range(3):
        assert np.array_equal(out[:, c],
                              knn_oracle(query, dst, votes[:, c], k))


def test_vote_block_across_query_chunks():
    rng = np.random.default_rng(10)
    dst = rng.integers(-4, 5, size=(40, 2)).astype(float)
    votes = rng.choice([-1, 0, 1], size=(40, 2))
    query = rng.integers(-4, 5, size=(300, 2)).astype(float)
    for k in (1, 5):
        out = knn_transfer(query, dst, votes, k)
        for c in range(2):
            assert np.array_equal(out[:, c],
                                  knn_oracle(query, dst, votes[:, c], k))


def test_kth_distance_tie_outside_nearest_k_breaks_to_lower_index():
    # rows 0-3 tie at the 3rd distance and only the lower-index ones
    # (rows 0 and 1) join the nearest row 4; a partition of the distances
    # may pick row 2 instead of row 1, which would flip both votes
    dst = np.array([[2.0], [-2.0], [2.0], [-2.0], [0.5]])
    votes = np.column_stack([[0, -1, 1, 1, 0], [0, 1, -1, -1, 0]])
    out = knn_transfer(np.array([[0.0]]), dst, votes, k=3)
    assert out.tolist() == [[-1, 1]]
    for c in range(2):
        assert np.array_equal(out[:, c],
                              knn_oracle([[0.0]], dst, votes[:, c], 3))


def test_non_finite_coordinates_rejected():
    votes = np.array([1, -1])
    dst = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValidationError, match="^X_query must be "):
        knn_transfer(np.array([[np.nan, 0.0], [np.inf, 0.0]]), dst, votes, 1)
    with pytest.raises(ValidationError, match="^X_dst must be "):
        knn_transfer(np.zeros((1, 2)), np.array([[0.0, 0.0], [-np.inf, 0.0]]),
                     votes, 1)


def test_out_of_domain_votes_named_before_the_int_cast():
    dst = np.array([[0.0], [1.0], [2.0]])
    with pytest.raises(ValidationError,
                       match="^illegal vote value 0.5 at row 1$"):
        knn_transfer(np.zeros((1, 1)), dst, [1.0, 0.5, -1.0], 1)
    with pytest.raises(ValidationError, match=(
            "^illegal vote value 2 at row 0, lf 1\n"
            "illegal vote value -2 at row 2, lf 0$")):
        knn_transfer(np.zeros((1, 1)), dst, [[1, 2], [0, 1], [-2, 1]], 1)


def tie_heavy_points(rng, kind, n, d):
    if kind == "grid":  # many exact distance ties
        return rng.integers(-2, 3, size=(n, d)).astype(float)
    if kind == "tiny":  # squared differences subnormal or zero
        return rng.integers(-40, 41, size=(n, d)) * 1e-163
    pts = rng.normal(size=(n, d))
    if kind == "duplicates":  # each row twice: ties, at 0 for a query on one
        pts[n // 2:] = pts[:n - n // 2]
    elif kind == "ulp":  # pairs one representable step apart
        pts[1::2] = np.nextafter(pts[:n - n % 2:2], np.inf)
    return pts


@settings(max_examples=250, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.sampled_from(["grid", "duplicates", "ulp", "tiny", "gaussian"]),
       st.integers(1, 7), st.integers(1, transport._TREE_MAX_D + 2),
       st.integers(0, 30))
def test_tree_search_matches_exact_scan_property(seed, kind, k, d, extra):
    rng = np.random.default_rng(seed)
    n_dst = k + extra  # extra = 0 leaves no (k+1)-th row for the tree
    dst = tie_heavy_points(rng, kind, n_dst, d)
    query = np.vstack([tie_heavy_points(rng, kind, 20, d), dst[:5]])
    nbrs = transport._nearest(query, dst, k)
    assert np.array_equal(nbrs, transport._nearest_exact(query, dst, k))
    if kind in ("ulp", "tiny"):
        return  # gaps below the oracle's own rounding (norm vs cdist)
    votes = rng.choice([-1, 0, 1], n_dst)
    assert np.array_equal(knn_transfer(query, dst, votes, k),
                          knn_oracle(query, dst, votes, k))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.sampled_from(["grid", "uniform", "equal", "inf"]),
       st.integers(1, 8), st.integers(1, 60), st.data())
def test_rank_matches_sort_oracle_property(seed, kind, n, m, data):
    # rank_oracle shares no code with _rank; _nearest and _nearest_exact
    # both rank by _rank, so comparing them cannot catch its faults
    k = data.draw(st.integers(1, min(50, m)))
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        dist = rng.random((n, m))
    elif kind == "equal":
        dist = np.full((n, m), rng.random())
    else:  # few levels: ties at and across the k-th distance
        dist = rng.integers(0, 4, size=(n, m)).astype(float)
    if kind == "inf":  # an overflowed distance ties with every other one
        dist[rng.random((n, m)) < 0.4] = np.inf
    assert np.array_equal(transport._rank(dist, k), rank_oracle(dist, k))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 12),
       st.integers(0, 48), st.data())
def test_repeated_destination_rows_match_oracle_property(
        seed, n_distinct, d, extra, data):
    # categorical features repeat rows; on small integers cdist and
    # linalg.norm take the square root of the same exact sum, so the
    # oracle's ties are cdist's, on the tree path (d <= 10) and the scan
    rng = np.random.default_rng(seed)
    pool = rng.integers(-3, 4, size=(n_distinct, d)).astype(float)
    dst = np.vstack([pool, pool, pool[rng.integers(0, n_distinct, extra)]])
    dst = dst[rng.permutation(len(dst))]
    k = data.draw(st.integers(1, min(50, len(dst))))
    near = pool[rng.integers(0, n_distinct, 10)] \
        + rng.integers(-1, 2, size=(10, d))
    query = np.vstack([pool, near])
    votes = rng.choice([-1, 0, 1], len(dst))
    assert np.array_equal(knn_transfer(query, dst, votes, k),
                          knn_oracle(query, dst, votes, k))


def count_searches(monkeypatch):
    """Patch the exact search to record how many rows it ranks over the
    tree's candidates and how many over every destination row."""
    rows = {"candidates": 0, "scan": 0}
    real = transport._nearest_exact

    def counting(X_query, X_dst, k, cands=None):
        rows["scan" if cands is None else "candidates"] += X_query.shape[0]
        return real(X_query, X_dst, k, cands)

    monkeypatch.setattr(transport, "_nearest_exact", counting)
    return rows


@pytest.mark.parametrize("kind, tied", [("grid", True), ("gaussian", False)])
def test_only_tied_rows_rerank_and_none_scan(monkeypatch, kind, tied):
    rng = np.random.default_rng(12)
    dst = tie_heavy_points(rng, kind, 200, 3)
    query = tie_heavy_points(rng, kind, 100, 3)
    expected = transport._nearest_exact(query, dst, 3)
    rows = count_searches(monkeypatch)
    assert np.array_equal(transport._nearest(query, dst, 3), expected)
    # 200 rows on a 5**3 grid: every query row meets a tie, and each
    # distinct one is ranked over the tree's candidates, not every row
    distinct = len(np.unique(query, axis=0))
    assert rows == {"candidates": distinct if tied else 0, "scan": 0}


def test_tied_rows_rerank_only_rows_near_the_kth_distance(monkeypatch):
    dst = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
                    [5.0, 5.0], [9.0, 9.0], [-7.0, 3.0]])
    seen = []
    real = transport._nearest_exact

    def recording(X_query, X_dst, k, cands=None):
        seen.extend(sorted(c) for c in cands)
        return real(X_query, X_dst, k, cands)

    monkeypatch.setattr(transport, "_nearest_exact", recording)
    nbrs = transport._nearest(np.zeros((1, 2)), dst, 2)
    assert nbrs.tolist() == [[0, 1]]  # four-way tie at distance 1
    assert seen == [[0, 1, 2, 3]]


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("kind", ["grid", "duplicates"])
def test_rerank_ranks_candidates_given_in_any_order(kind, k, order):
    # the tree's ball search (return_sorted=False) lists each row's
    # candidates in no particular order; each row's list holds every row
    # at or within its k-th distance and some farther ones
    rng = np.random.default_rng(14)
    dst = tie_heavy_points(rng, kind, 60, 3)
    query = np.vstack([tie_heavy_points(rng, kind, 20, 3), dst[:5]])
    dist = cdist(query, dst)
    kth = np.sort(dist, axis=1)[:, [k - 1]]
    keep = (dist <= kth) | (rng.random(dist.shape) < 0.2)
    cands = [(np.flatnonzero(row)[::-1] if order == "reversed"
              else rng.permutation(np.flatnonzero(row))).tolist()
             for row in keep]
    assert np.array_equal(transport._nearest_exact(query, dst, k, cands),
                          transport._nearest_exact(query, dst, k))


@pytest.mark.parametrize("d", [3, 12])
def test_equal_query_rows_are_searched_once(monkeypatch, d):
    # every destination row twice, so every query row ties at its nearest
    rng = np.random.default_rng(31)
    pool = rng.integers(-2, 3, size=(40, d)).astype(float)
    dst = np.vstack([pool, pool])[rng.permutation(80)]
    points = rng.integers(-2, 3, size=(7, d)).astype(float)
    signed = np.zeros((2, d))
    signed[:, -1] = 3.0
    signed[1, :-1] = -0.0
    query = np.vstack([points[np.arange(100) % 7], signed])
    query = query[rng.permutation(len(query))]
    assert len(np.unique(points, axis=0)) == 7
    assert np.signbit(signed[1, :-1]).all()
    votes = rng.choice([-1, 0, 1], len(dst))
    expected = transport._nearest_exact(query, dst, 2)
    rows = count_searches(monkeypatch)
    assert np.array_equal(transport._nearest(query, dst, 2), expected)
    # -0.0 and 0.0 are one row: 7 grid points and the signed pair
    path = "candidates" if d <= transport._TREE_MAX_D else "scan"
    assert rows[path] == sum(rows.values()) == 8
    assert np.array_equal(knn_transfer(query, dst, votes, 2),
                          knn_oracle(query, dst, votes, 2))


class UnderflowFreeTree:
    """Brute-force stand-in for ``cKDTree`` whose distances scale the
    differences up before squaring, as a build that fuses multiply-adds
    may in effect do: where ``cdist``'s squares underflow to 0 its
    distances differ from ``cdist``'s by about 1e-161 absolute."""

    def __init__(self, data):
        self.data = data

    def _dist(self, X):
        diff = (X[:, None, :] - self.data[None, :, :]) * 1e160
        return np.sqrt((diff * diff).sum(axis=2)) / 1e160

    def query(self, X, k, eps, workers):
        dist = self._dist(X)
        idx = np.argsort(dist, axis=1, kind="stable")[:, :k]
        return np.take_along_axis(dist, idx, axis=1), idx

    def query_ball_point(self, X, r, eps, workers, return_sorted):
        return [np.flatnonzero(row <= radius).tolist()
                for row, radius in zip(self._dist(X), r)]


def test_absolute_margin_covers_underflowing_squares(monkeypatch):
    rng = np.random.default_rng(5)
    dst = rng.integers(-40, 41, size=(30, 2)) * 1e-170
    query = rng.integers(-40, 41, size=(10, 2)) * 1e-170
    expected = transport._nearest_exact(query, dst, 2)
    monkeypatch.setattr(transport, "cKDTree", UnderflowFreeTree)
    # cdist sees every distance as 0 and breaks ties to the lower index;
    # the stand-in's distances are distinct but all below the margin
    assert expected.tolist() == [[0, 1]] * 10
    assert np.array_equal(transport._nearest(query, dst, 2), expected)


def test_tied_rows_with_overflowing_span_take_the_scan(monkeypatch):
    dst = np.array([[1.0, 0.0], [-1.0, 0.0], [1e200, 0.0], [-1e200, 0.0],
                    [1e308, 0.0], [-1e308, 0.0]])
    query = np.array([[0.0, 0.0], [1e308, 0.0], [-1e308, 1.0]])
    expected = transport._nearest_exact(query, dst, 2)
    rows = count_searches(monkeypatch)
    assert np.array_equal(transport._nearest(query, dst, 2), expected)
    assert expected[0].tolist() == [0, 1]
    assert rows == {"candidates": 0, "scan": 3}


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("kind", ["grid", "duplicates", "gaussian"])
def test_search_does_not_depend_on_worker_count(monkeypatch, kind, k):
    rng = np.random.default_rng(21)
    dst = tie_heavy_points(rng, kind, 300, 3)
    # 240 query rows; on the grid and duplicated points nearly all of
    # them are tied, so each of two workers re-ranks its own share
    query = np.vstack([tie_heavy_points(rng, kind, 220, 3), dst[:20]])
    expected = transport._nearest_exact(query, dst, k)
    found = []
    for workers in (1, 2):
        monkeypatch.setattr(core, "_workers", lambda: workers)
        found.append(transport._nearest(query, dst, k))
        assert np.array_equal(found[-1], expected)
    assert np.array_equal(found[0], found[1])


class RecordingTree(transport.cKDTree):
    """``cKDTree`` that records the worker count of every search."""

    workers = []

    def query(self, X, k, eps, workers):
        RecordingTree.workers.append(("query", workers))
        return super().query(X, k=k, eps=eps, workers=workers)

    def query_ball_point(self, X, r, eps, workers, return_sorted):
        RecordingTree.workers.append(("query_ball_point", workers))
        return super().query_ball_point(X, r=r, eps=eps, workers=workers,
                                        return_sorted=return_sorted)


def test_both_tree_searches_get_the_worker_count(monkeypatch):
    rng = np.random.default_rng(22)
    dst = tie_heavy_points(rng, "grid", 200, 3)
    query = tie_heavy_points(rng, "grid", 50, 3)
    monkeypatch.setattr(RecordingTree, "workers", [])
    monkeypatch.setattr(transport, "cKDTree", RecordingTree)
    monkeypatch.setattr(core, "_workers", lambda: 3)
    nbrs = transport._nearest(query, dst, 2)
    assert np.array_equal(nbrs, transport._nearest_exact(query, dst, 2))
    assert RecordingTree.workers == [("query", 3), ("query_ball_point", 3)]


def test_search_workers_count_the_affinity_set(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3},
                        raising=False)
    assert core._workers() == 2


def test_search_workers_fall_back_to_the_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert core._workers() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert core._workers() == 1


# --------------------------------------------------------------------------
# sbm_transport


def coincident_fixture():
    """Group 1 occupies the same points as group 0 but with flipped votes
    on one LF, so identity transport plus 1-NN copies the co-located vote.
    The flipped LF's global moments cancel exactly, so the estimate is
    assembled from the per-group run (which sees the clean +-1 structure).
    """
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(40, 2))
    x = np.vstack([pts, pts])
    groups = np.repeat([0, 1], 40)
    y = np.where(x[:, 0] + x[:, 1] > 0, 1, -1)
    lf0 = np.where(groups == 1, -y, y)  # adversarial on group 1
    votes = np.column_stack([lf0, y, y, y])
    ds = GroupedDataset(x, groups, y)
    wl = WeakLabelMatrix(votes)
    est = per_group_accuracies(wl, ds.without_labels())
    return ds, wl, est, y, groups


def test_identity_transport_copies_colocated_votes():
    ds, wl, est, y, groups = coincident_fixture()
    cfg = PipelineConfig(ot_type="none", knn_k=1)
    result = sbm_transport(ds.without_labels(), wl, est, cfg)
    moved = result.new_votes.votes
    # group-1 rows of lf_0 now match the co-located group-0 votes (= y)
    assert np.array_equal(moved[groups == 1, 0], y[groups == 1])
    # destination group untouched on every LF
    assert np.array_equal(moved[groups == 0], wl.votes[groups == 0])


def test_tie_skips_lf():
    ds, wl, _, _, _ = coincident_fixture()
    est = np.array([[0.6, 0.6], [0.9, 0.895], [0.7, 0.7], [0.8, 0.8]])
    cfg = PipelineConfig(ot_type="none", tie_tol=0.01)
    result = sbm_transport(ds.without_labels(), wl, est, cfg)
    assert np.array_equal(result.new_votes.votes, wl.votes)
    assert all(d.skipped and d.reason == "tie" for d in result.decisions)


def test_changed_mask_tracks_rewrites():
    ds, wl, est, _, groups = coincident_fixture()
    result = sbm_transport(ds.without_labels(), wl, est,
                           PipelineConfig(ot_type="none"))
    changed = result.changed_mask
    assert changed.shape == wl.votes.shape
    assert np.array_equal(changed,
                          result.new_votes.votes != wl.votes)
    # only group-1 rows of the flipped LF were rewritten
    assert not changed[groups == 0].any()
    assert changed[:, 1:].sum() == 0


def test_deterministic_given_inputs():
    ds, wl = make_biased_fixture(300, seed=3)
    est = per_group_accuracies(wl, ds.without_labels())
    cfg = PipelineConfig(ot_type="linear")
    r1 = sbm_transport(ds.without_labels(), wl, est, cfg)
    r2 = sbm_transport(ds.without_labels(), wl, est, cfg)
    assert np.array_equal(r1.new_votes.votes, r2.new_votes.votes)
    assert r1.decisions == r2.decisions


def test_linear_transport_repairs_degraded_lf():
    ds, wl = make_biased_fixture(1500, seed=12)
    blind = ds.without_labels()
    est = per_group_accuracies(wl, blind)
    y, groups = ds.labels, ds.groups
    before_g1 = lf_group_accuracy(wl.votes[:, 0], y, groups, 1)
    assert abs(before_g1 - 0.5) <= 0.06  # starts at chance

    moved = sbm_transport(blind, wl, est, PipelineConfig(ot_type="linear"))
    after = moved.new_votes.votes
    g0 = lf_group_accuracy(after[:, 0], y, groups, 0)
    g1 = lf_group_accuracy(after[:, 0], y, groups, 1)
    assert g0 == lf_group_accuracy(wl.votes[:, 0], y, groups, 0)  # untouched
    assert abs(g1 - g0) <= 0.05
    # direction recorded: group 1 was the source for lf_0
    d0 = [d for d in moved.decisions if d.lf_index == 0][0]
    assert (d0.src_group, d0.dst_group) == (1, 0)
    assert d0.acc_dst >= d0.acc_src


def test_sinkhorn_transport_sharpens_with_smaller_eta():
    ds, wl = make_biased_fixture(250, seed=5)
    blind = ds.without_labels()
    est = per_group_accuracies(wl, blind)
    y, groups = ds.labels, ds.groups
    before = lf_group_accuracy(wl.votes[:, 0], y, groups, 1)
    results = {}
    for eta in (1.0, 0.02):
        cfg = PipelineConfig(ot_type="sinkhorn", sinkhorn_eta=eta,
                             sinkhorn_max_iter=2000)
        moved = sbm_transport(blind, wl, est, cfg)
        results[eta] = lf_group_accuracy(
            moved.new_votes.votes[:, 0], y, groups, 1)
    # heavy blur still beats the chance-level starting point,
    # near-unregularized plans approach the linear repair quality
    assert results[1.0] >= before + 0.05
    assert results[0.02] >= 0.9
    assert results[0.02] > results[1.0]


def test_sinkhorn_transport_frees_the_cost_before_the_projection():
    rng = np.random.default_rng(11)
    X_src = rng.normal(size=(400, 3))
    X_dst = rng.normal(size=(300, 3)) + 1.0
    dense = 400 * 300 * 8
    cfg = PipelineConfig(ot_type="sinkhorn")
    tracemalloc.start()
    try:
        transport._transported_sources(X_src, X_dst, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the plan and the projection's temporary, not the cost as well
    assert peak <= 2.25 * dense


@pytest.mark.parametrize("n_src,n_dst,d,eta,max_iter", [
    (1, 1, 2, 1.0, 10),
    (40, 30, 3, 0.5, 50),
    # past twice the scale's sample size, so the scale is a sample's
    (300, 250, 4, 1.0, 10),
    # eta 0.05 takes an exponent past float32's range: a float64 kernel
    (250, 301, 2, 0.05, 200),
])
def test_sinkhorn_transport_matches_the_public_plan_and_projection(
        n_src, n_dst, d, eta, max_iter):
    rng = np.random.default_rng(n_src + n_dst)
    X_src = rng.normal(size=(n_src, d))
    X_dst = rng.normal(size=(n_dst, d)) + 0.5
    cfg = PipelineConfig(ot_type="sinkhorn", sinkhorn_eta=eta,
                         sinkhorn_max_iter=max_iter)
    public = barycentric_map(
        sinkhorn_plan(cdist(X_src, X_dst, "sqeuclidean"), eta=eta,
                      max_iter=max_iter),
        X_dst)
    got = transport._transported_sources(X_src, X_dst, cfg)
    dtype = ot._kernel(X_src, X_dst, eta).dtype
    assert dtype == (np.float64 if eta == 0.05 else np.float32)
    # the projection is read from the scalings, K (v X_dst) / Kv, not
    # from the plan's rows: a different order of n_dst-term sums, each
    # term rounded once more where K is float32
    bound = 4 * n_dst * np.finfo(dtype).eps * np.abs(X_dst).max()
    assert np.all(np.abs(got - public) <= bound)


def test_sinkhorn_transport_holds_one_dense_buffer():
    rng = np.random.default_rng(12)
    X_src = rng.normal(size=(1000, 3))
    X_dst = rng.normal(size=(800, 3)) + 1.0
    dense = 1000 * 800 * 8
    cfg = PipelineConfig(ot_type="sinkhorn")
    tracemalloc.start()
    try:
        transport._transported_sources(X_src, X_dst, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the kernel, which the projection reads, and one cost block
    assert peak <= 1.15 * dense


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_float32_sinkhorn_transport_holds_half_the_dense_bytes():
    rng = np.random.default_rng(12)
    X_src = rng.normal(size=(2000, 3))
    X_dst = rng.normal(size=(1500, 3)) + 1.0
    cfg = PipelineConfig(ot_type="sinkhorn")
    assert ot._kernel(X_src, X_dst, 1.0).dtype == np.float32
    peak = traced_peak(transport._transported_sources, X_src, X_dst, cfg)
    assert peak <= 0.55 * 8 * 2000 * 1500


def edge_cost(seed):
    """Rows on a line whose cost's largest entry over its median scale
    sets the eta at which the largest exponent is float32's log(tiny)."""
    rng = np.random.default_rng(seed)
    X_src, X_dst = rng.normal(size=(150, 1)), rng.normal(size=(120, 1))
    cost = cdist(X_src, X_dst, "sqeuclidean")  # 18,000 entries: all sampled
    edge = cost.max() / np.median(cost) / -ot._LOG_TINY32
    return X_src, X_dst, edge


@pytest.mark.parametrize("side,dtype", [("inside", np.float32),
                                        ("outside", np.float64)])
def test_the_kernel_is_float32_only_inside_its_normal_range(side, dtype):
    X_src, X_dst, edge = edge_cost(31)
    eta = edge * (1 + 1e-9 if side == "inside" else 1 - 1e-9)
    K = ot._kernel(X_src, X_dst, eta)
    assert K.dtype == dtype
    # the float64 kernel is the public plan's, bit for bit
    public = np.exp(cdist(X_src, X_dst, "sqeuclidean")
                    / np.median(cdist(X_src, X_dst, "sqeuclidean")) / -eta)
    if dtype == np.float64:
        assert np.array_equal(K, public)
    else:
        assert K.min() >= np.finfo(np.float32).tiny
        assert np.array_equal(K, public.astype(np.float32))


@pytest.mark.parametrize("workers", [1, 3])
def test_the_float64_fallback_holds_one_dense_buffer(monkeypatch, workers):
    monkeypatch.setattr(core, "_workers", lambda: workers)
    rng = np.random.default_rng(12)
    X_src = rng.normal(size=(1000, 3))
    X_dst = rng.normal(size=(800, 3)) + 1.0
    assert ot._kernel(X_src, X_dst, 0.05).dtype == np.float64
    peak = traced_peak(transport._transported_sources, X_src, X_dst,
                       PipelineConfig(ot_type="sinkhorn", sinkhorn_eta=0.05))
    # the float32 kernel is freed before the float64 one is allocated
    assert peak <= 1.15 * 8 * 1000 * 800


def pooled_kernels(monkeypatch, X_src, X_dst, eta, workers=(1, 2, 3)):
    """``_kernel`` at each worker count, in blocks of 3 rows a worker,
    with threads switching as often as they can."""
    kernels = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for count in workers:
            monkeypatch.setattr(core, "ROW_BLOCK_BYTES",
                                count * 3 * 8 * X_dst.shape[0])
            monkeypatch.setattr(core, "_workers", lambda: count)
            kernels.append(ot._kernel(X_src, X_dst, eta))
    finally:
        sys.setswitchinterval(interval)
    return kernels


@pytest.mark.parametrize("eta,dtype", [(1.0, np.float32),
                                       (0.01, np.float64)])
def test_the_kernel_does_not_depend_on_the_worker_count(monkeypatch, eta,
                                                        dtype):
    X_src, X_dst = sinkhorn_k5_groups(3, 300)
    kernels = pooled_kernels(monkeypatch, X_src, X_dst, eta)
    for K in kernels:
        assert K.dtype == dtype
        assert np.array_equal(K, kernels[0])


def test_each_worker_builds_in_its_own_scratch_block(monkeypatch):
    # each helper waits in its first block until the calling thread has
    # taken one, so all three workers build
    X_src, X_dst = sinkhorn_k5_groups(7, 100)
    buffers = {}
    started = threading.Event()

    def recording(XA, XB, metric, out):
        thread = threading.current_thread()
        if thread is threading.main_thread():
            started.set()
        else:
            started.wait(10.0)
        buffers.setdefault(thread, set()).add(out.ctypes.data)
        return cdist(XA, XB, metric, out=out)

    monkeypatch.setattr(ot, "cdist", recording)
    pooled_kernels(monkeypatch, X_src, X_dst, 1.0, workers=[3])
    assert len(buffers) == 3
    assert all(len(starts) == 1 for starts in buffers.values())
    assert len(set.union(*buffers.values())) == 3


def test_a_helper_s_block_past_float32_s_range_rebuilds_the_kernel(
        monkeypatch):
    # only the last source row's exponents are past float32's range.  Each
    # helper waits in its first block until the calling thread has taken
    # one, which waits in it until the last block is built: by a helper
    X_src, X_dst = sinkhorn_k5_groups(4, 100)
    X_src[-1] += 100.0
    last = {}
    started, built = threading.Event(), threading.Event()

    def recording(XA, XB, metric, out):
        if threading.current_thread() is threading.main_thread():
            started.set()
            built.wait(10.0)
        else:
            started.wait(10.0)
        result = cdist(XA, XB, metric, out=out)
        if np.array_equal(XA[-1], X_src[-1]):
            last.setdefault("thread", threading.current_thread())
            built.set()
        return result

    monkeypatch.setattr(ot, "cdist", recording)
    pooled = pooled_kernels(monkeypatch, X_src, X_dst, 0.5, workers=[3])[0]
    assert last["thread"] is not threading.main_thread()
    monkeypatch.setattr(ot, "cdist", cdist)
    one = pooled_kernels(monkeypatch, X_src, X_dst, 0.5, workers=[1])[0]
    assert pooled.dtype == one.dtype == np.float64
    assert np.array_equal(pooled, one)


def test_an_error_in_a_helper_s_block_surfaces_and_its_threads_end(
        monkeypatch):
    X_src, X_dst = sinkhorn_k5_groups(5, 60)
    started = threading.Event()

    def failing(XA, XB, metric, out):
        if threading.current_thread() is threading.main_thread():
            started.wait(10.0)  # until a helper has taken a block
            return cdist(XA, XB, metric, out=out)
        started.set()
        raise RuntimeError("helper block")

    threads = threading.active_count()
    monkeypatch.setattr(ot, "cdist", failing)
    with pytest.raises(RuntimeError, match="helper block"):
        pooled_kernels(monkeypatch, X_src, X_dst, 1.0, workers=[3])
    assert threading.active_count() == threads


def test_one_worker_starts_no_thread(monkeypatch):
    def refused(thread):
        raise AssertionError(f"{thread} started")

    monkeypatch.setattr(threading.Thread, "start", refused)
    X_src, X_dst = sinkhorn_k5_groups(6, 60)
    # the float64 rebuild too
    assert [pooled_kernels(monkeypatch, X_src, X_dst, eta, workers=[1])[0]
            .dtype for eta in (1.0, 0.01)] == [np.float32, np.float64]


@pytest.mark.parametrize("d", range(1, 17))
def test_the_scale_sample_is_the_cost_s_own_entries(monkeypatch, d):
    samples = []
    scale = ot._scale
    monkeypatch.setattr(ot, "_scale",
                        lambda sample, whole: samples.append(sample.copy())
                        or scale(sample, whole))
    rng = np.random.default_rng(d)
    X_src = rng.normal(size=(230, d)) * rng.uniform(0.1, 10.0, d)
    X_dst = rng.normal(size=(190, d)) + 0.5  # 43,700 entries: stride 3
    ot._kernel(X_src, X_dst, 1.0)
    stride = ot._sample_stride(230 * 190)
    assert stride == 3
    want = cdist(X_src, X_dst, "sqeuclidean").flat[::stride]
    assert samples[0].tobytes() == want.tobytes()


def sinkhorn_k5_groups(seed, n):
    """Two groups shaped like the bench's sinkhorn_k5: 8 features, the
    first four shifted by a +-1 label, positive in 35% of group 0's rows
    and 65% of group 1's, and axes 0 and 2 shifted by 5 in group 1."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2 * n, 8))
    x[:, :4] += np.where(rng.random((2 * n, 1))
                         < np.repeat([[0.35], [0.65]], n, axis=0), 1.0, -1.0)
    x[n:, [0, 2]] += 5.0
    return x[:n], x[n:]


@pytest.mark.parametrize("seed", [1, 2])
def test_a_sinkhorn_k5_shaped_cost_takes_the_same_rounds_in_both_dtypes(
        seed):
    X_src, X_dst = sinkhorn_k5_groups(seed, 1000)
    assert ot._kernel(X_src, X_dst, 0.05).dtype == np.float32
    _, rounds, violation = ot._sinkhorn_projection(X_src, X_dst, 0.05, 200)
    public = sinkhorn_plan(cdist(X_src, X_dst, "sqeuclidean"), eta=0.05,
                           max_iter=200)
    assert violation <= ot.SINKHORN_TOL and public.converged
    assert rounds == public.iterations_run


def recorded_dense(monkeypatch, fail=None):
    """The dtypes of the 400 x 300 buffers ``np.empty`` allocates; an
    allocation of dtype ``fail`` raises MemoryError instead."""
    dtypes = []
    empty = np.empty

    def recording(shape, dtype=float, *args, **kwargs):
        if shape == (400, 300):
            if fail is not None and np.dtype(dtype) == fail:
                raise MemoryError
            dtypes.append(np.dtype(dtype))
        return empty(shape, dtype, *args, **kwargs)

    monkeypatch.setattr(transport.np, "empty", recording)
    return dtypes


def test_sinkhorn_transport_reports_a_cost_it_cannot_allocate(monkeypatch):
    recorded_dense(monkeypatch, fail=np.float32)
    rng = np.random.default_rng(13)
    cfg = PipelineConfig(ot_type="sinkhorn")
    with pytest.raises(ValidationError) as info:
        transport._transported_sources(
            rng.normal(size=(400, 2)), rng.normal(size=(300, 2)), cfg)
    message = str(info.value)
    assert "400 x 300" in message
    assert "float32 buffer of 480000 bytes" in message
    assert "ot_type=linear" in message


def test_sinkhorn_transport_reports_a_fallback_it_cannot_allocate(
        monkeypatch):
    dense = recorded_dense(monkeypatch, fail=np.float64)
    rng = np.random.default_rng(13)
    # at eta 0.05 an exponent is past float32's range
    cfg = PipelineConfig(ot_type="sinkhorn", sinkhorn_eta=0.05)
    with pytest.raises(ValidationError) as info:
        transport._transported_sources(
            rng.normal(size=(400, 2)), rng.normal(size=(300, 2)), cfg)
    message = str(info.value)
    assert "400 x 300" in message
    assert "float64 buffer of 960000 bytes" in message
    assert "which could not be allocated" in message
    assert dense == [np.float32]


@pytest.mark.parametrize("memory", [4 * 400 * 300 - 1, 4 * 400 * 300,
                                    8 * 400 * 300 - 1, 8 * 400 * 300])
def test_sinkhorn_transport_checks_the_dense_buffer_against_memory(
        monkeypatch, memory):
    dense = recorded_dense(monkeypatch)
    monkeypatch.setattr(ot, "_physical_memory", lambda: memory)
    rng = np.random.default_rng(13)
    X_src, X_dst = rng.normal(size=(400, 2)), rng.normal(size=(300, 2))
    # at eta 0.05 an exponent is past float32's range: K is built in
    # float32, then freed and rebuilt in float64
    cfg = PipelineConfig(ot_type="sinkhorn", sinkhorn_eta=0.05)
    if memory >= 8 * 400 * 300:
        transport._transported_sources(X_src, X_dst, cfg)
        assert dense == [np.float32, np.float64]
        return
    with pytest.raises(ValidationError) as info:
        transport._transported_sources(X_src, X_dst, cfg)
    message = str(info.value)
    need = "float32 buffer of 480000" if memory < 4 * 400 * 300 \
        else "float64 buffer of 960000"
    assert "400 x 300" in message
    assert f"{need} bytes" in message
    assert f"the {memory} bytes of physical memory" in message
    assert "ot_type=linear" in message
    # each refused before its allocation
    assert dense == ([] if memory < 4 * 400 * 300 else [np.float32])


def test_a_float32_kernel_needs_only_its_own_bytes_of_memory(monkeypatch):
    dense = recorded_dense(monkeypatch)
    monkeypatch.setattr(ot, "_physical_memory", lambda: 4 * 400 * 300)
    rng = np.random.default_rng(13)
    transport._transported_sources(
        rng.normal(size=(400, 2)), rng.normal(size=(300, 2)),
        PipelineConfig(ot_type="sinkhorn"))
    assert dense == [np.float32]


@pytest.mark.parametrize("sysconf", ["missing", "unknown name", "no value"])
def test_physical_memory_is_unbounded_where_sysconf_cannot_say(
        monkeypatch, sysconf):
    def failing(name):
        if sysconf == "unknown name":
            raise ValueError(f"unrecognized configuration name {name}")
        return -1  # sysconf's answer for an indeterminate value

    assert 0 < ot._physical_memory() < np.inf
    if sysconf == "missing":
        monkeypatch.delattr(os, "sysconf")
    else:
        monkeypatch.setattr(os, "sysconf", failing)
    assert ot._physical_memory() == np.inf


def test_invalid_inputs_rejected():
    ds, wl = make_biased_fixture(50, seed=7)
    est = per_group_accuracies(wl, ds.without_labels())
    bad = GroupedDataset(ds.features, np.zeros(ds.n, int))  # empty group 1
    with pytest.raises(ValidationError):
        sbm_transport(bad, wl, est, PipelineConfig())


@pytest.mark.parametrize("group_acc, message", [
    (np.full((4, 2), 0.5),
     r"^group_acc must be a \(3, 2\) array .*, got shape \(4, 2\)$"),
    (np.full((3, 3), 0.5),
     r"^group_acc must be a \(3, 2\) array .*, got shape \(3, 3\)$"),
    (np.full(3, 0.5),
     r"^group_acc must be a \(3, 2\) array .*, got shape \(3,\)$"),
    (np.array([[0.5, 0.5], [0.5, 1.5], [0.5, 0.5]]),
     r"in \[-1 - 1e-12, 1 \+ 1e-12\], got 1\.5$"),
    (np.array([[0.5, 0.5], [0.5, 0.5], [-1 - 1e-9, 0.5]]),
     r"in \[-1 - 1e-12, 1 \+ 1e-12\], got -1\.000000001$"),
])
def test_bad_group_accuracies_rejected(group_acc, message):
    ds, wl = make_biased_fixture(50, seed=7)
    wl = WeakLabelMatrix(wl.votes[:, :3])
    with pytest.raises(ValidationError, match=message):
        sbm_transport(ds.without_labels(), wl, group_acc, PipelineConfig())


def test_group_smaller_than_k_rejected():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(10, 2))
    groups = np.array([0, 0, 0, 0, 0, 0, 0, 0, 1, 1])
    y = rng.choice([-1, 1], 10)
    wl = WeakLabelMatrix(np.column_stack([y, y, y]))
    ds = GroupedDataset(x, groups)
    # group 1 (2 rows) is the high-accuracy destination, smaller than k
    est = np.array([[0.2, 0.9], [0.2, 0.9], [0.2, 0.9]])
    with pytest.raises(ValidationError, match="fewer than k"):
        sbm_transport(ds, wl, est, PipelineConfig(ot_type="none", knn_k=5))


def test_linear_needs_enough_rows_per_group():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(6, 4))
    groups = np.array([0, 0, 0, 1, 1, 1])  # 3 rows < d + 1 = 5
    y = rng.choice([-1, 1], 6)
    wl = WeakLabelMatrix(np.column_stack([y, y, y]))
    est = np.array([[0.9, 0.2], [0.9, 0.2], [0.9, 0.2]])
    with pytest.raises(ValidationError, match="lf_0"):
        sbm_transport(GroupedDataset(x, groups), wl, est,
                      PipelineConfig(ot_type="linear"))


def oracle_repair(ds, wl, moves, k):
    """Identity transport with a per-column oracle kNN for each moved
    (lf, src, dst)."""
    expected = wl.votes.copy()
    for j, src, dst in moves:
        s, d = ds.groups == src, ds.groups == dst
        expected[s, j] = knn_oracle(ds.features[s], ds.features[d],
                                    wl.votes[d, j], k)
    return expected


@pytest.mark.parametrize("scope, per_lf_group, moves, n_calls", [
    ("global", [[0.9, 0.6], [0.8, 0.7], [0.7, 0.7]],
     [(0, 1, 0), (1, 1, 0), (2, 1, 0)], 1),
    ("per_lf", [[0.6, 0.9], [0.7, 0.8], [0.7, 0.7]],
     [(0, 0, 1), (1, 0, 1)], 1),
    ("per_lf", [[0.6, 0.9], [0.8, 0.7], [0.7, 0.7]],
     [(0, 0, 1), (1, 1, 0)], 2),
])
def test_one_knn_call_per_direction(monkeypatch, scope, per_lf_group,
                                    moves, n_calls):
    rng = np.random.default_rng(11)
    ds = GroupedDataset(rng.normal(size=(60, 2)), np.repeat([0, 1], 30))
    wl = WeakLabelMatrix(rng.choice([-1, 0, 1], size=(60, 3)))
    est = np.array(per_lf_group)
    if scope == "global":  # one shared decision: the mean over LFs
        est = np.broadcast_to(est.mean(axis=0), est.shape)
    cfg = PipelineConfig(ot_type="none", knn_k=3)
    calls = []
    real = transport.knn_transfer

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(transport, "knn_transfer", counting)
    result = sbm_transport(ds, wl, est, cfg)
    assert len(calls) == n_calls
    assert np.array_equal(result.new_votes.votes,
                          oracle_repair(ds, wl, moves, 3))
    assert [(d.lf_index, d.src_group, d.dst_group)
            for d in result.decisions if not d.skipped] == moves
    assert [d.lf_index for d in result.decisions if d.skipped] == [
        j for j in range(wl.m) if j not in {move[0] for move in moves}]


@pytest.mark.parametrize("call, message", [
    (lambda: knn_transfer(np.zeros((2, 2)), np.zeros((2, 3)), np.ones(2), 1),
     "X_query must be a (n, 3) array of finite numbers, got shape (2, 2)"),
    (lambda: knn_transfer(np.zeros(2), np.zeros((2, 1)), np.ones(2), 1),
     "X_query must be a (n, 1) array of finite numbers, got shape (2,)"),
    (lambda: knn_transfer(np.zeros((2, 2)), np.zeros((2, 2)), np.ones(3), 1),
     "votes_dst length must match X_dst rows"),
    (lambda: knn_transfer(np.zeros((2, 2)), np.zeros((2, 2)),
                          np.ones((2, 1, 1)), 1),
     "votes_dst length must match X_dst rows"),
    (lambda: sbm_transport(
        GroupedDataset(np.zeros((4, 1)), np.array([0, 0, 1, 1])),
        WeakLabelMatrix(np.ones((4, 1))), np.array([[np.nan, 0.5]]),
        PipelineConfig(tie_tol=0.1)),
     "group_acc must be a (1, 2) array of finite numbers "
     "in [-1 - 1e-12, 1 + 1e-12], got nan"),
])
def test_transport_argument_checks_are_one_line_errors(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message


def overflow_probe(scale):
    rng = np.random.default_rng(23)
    return (rng.normal(size=(500, 3)) * scale,
            rng.normal(size=(400, 3)) * scale)


def test_knn_transfer_refuses_distances_it_cannot_rank():
    # overflowed squared distances all tie, and the tie goes to row 0
    query, dst = overflow_probe(1e155)
    big = float(max(np.abs(query).max(), np.abs(dst).max()))
    with pytest.raises(NumericalError) as info:
        knn_transfer(query, dst, np.ones(400, dtype=int), 1)
    assert str(info.value) == (
        "squared feature distances overflow float64 (largest |feature| "
        f"{big:.3e}); rescale the features")


def test_knn_transfer_ranks_large_finite_distances():
    query, dst = overflow_probe(1e150)
    # the bits of each destination row's index, as votes, name the row
    bits = np.where((np.arange(400)[:, None] >> np.arange(9)) & 1, 1, -1)
    nearest = transport._nearest_exact(query, dst, 1)[:, 0]
    assert np.array_equal(knn_transfer(query, dst, bits, 1), bits[nearest])
    assert len(np.unique(nearest)) > 100


def test_sinkhorn_refuses_overflowing_distances_before_the_buffer(
        monkeypatch):
    monkeypatch.setattr(ot, "_physical_memory", lambda: 0)
    X_src, X_dst = overflow_probe(1e155)
    with pytest.raises(NumericalError, match="squared feature distances"):
        transport._transported_sources(
            X_src, X_dst, PipelineConfig(ot_type="sinkhorn"))


def one_hot_groups(seed):
    """One-hot rows of 4 levels plus an integer column: each one-hot block
    sums to 1, so both covariances are singular, and level 3 never occurs
    in the source group."""
    rng = np.random.default_rng(seed)
    src = np.column_stack([np.eye(4)[rng.integers(0, 3, 300)],
                           rng.integers(0, 5, 300)]).astype(float)
    dst = np.column_stack([np.eye(4)[rng.integers(0, 4, 200)],
                           rng.integers(0, 5, 200)]).astype(float)
    return src, dst


@pytest.mark.parametrize("scale", [2.0 ** -20, 2.0 ** -10, 2.0 ** 10])
def test_linear_map_ridge_follows_the_features_units(scale):
    src, dst = one_hot_groups(29)
    cfg = PipelineConfig(ot_type="linear")
    moved = transport._transported_sources(src, dst, cfg)
    assert np.array_equal(
        transport._transported_sources(src * scale, dst * scale, cfg),
        moved * scale)


def test_linear_map_of_constant_groups_moves_onto_the_destination():
    # zero covariances: the ridge is _RIDGE itself, the same in both
    # groups, so the map is a translation
    src, dst = np.full((5, 3), 2.0), np.full((4, 3), -1.0)
    moved = transport._transported_sources(
        src, dst, PipelineConfig(ot_type="linear"))
    assert np.allclose(moved, dst[0], rtol=0, atol=1e-12)
