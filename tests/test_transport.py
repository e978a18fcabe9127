import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.spatial.distance import cdist

import otrelabel.core as core
import otrelabel.transport as transport
from otrelabel import (
    GroupedDataset,
    PipelineConfig,
    ValidationError,
    WeakLabelMatrix,
    barycentric_map,
    knn_transfer,
    per_group_accuracies,
    sbm_transport,
    sinkhorn_plan,
)
from helpers import knn_oracle, make_biased_fixture


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
    with pytest.raises(ValidationError, match="query"):
        knn_transfer(np.array([[np.nan, 0.0], [np.inf, 0.0]]), dst, votes, 1)
    with pytest.raises(ValidationError, match="destination"):
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


def count_searches(monkeypatch):
    """Patch the two fallback searches to record how many rows each gets."""
    rows = {"_rerank": 0, "_nearest_exact": 0}
    for name in rows:
        real = getattr(transport, name)

        def counting(X_query, *args, _name=name, _real=real):
            rows[_name] += X_query.shape[0]
            return _real(X_query, *args)

        monkeypatch.setattr(transport, name, counting)
    return rows


@pytest.mark.parametrize("kind, tied", [("grid", True), ("gaussian", False)])
def test_only_tied_rows_rerank_and_none_scan(monkeypatch, kind, tied):
    rng = np.random.default_rng(12)
    dst = tie_heavy_points(rng, kind, 200, 3)
    query = tie_heavy_points(rng, kind, 100, 3)
    expected = transport._nearest_exact(query, dst, 3)
    rows = count_searches(monkeypatch)
    assert np.array_equal(transport._nearest(query, dst, 3), expected)
    # 200 rows on a 5**3 grid: every query row meets a tie, and re-ranks
    # the tree's candidates instead of scanning every destination row
    assert rows == {"_rerank": 100 if tied else 0, "_nearest_exact": 0}


def test_tied_rows_rerank_only_rows_near_the_kth_distance(monkeypatch):
    dst = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
                    [5.0, 5.0], [9.0, 9.0], [-7.0, 3.0]])
    seen = []
    real = transport._rerank

    def recording(X_query, X_dst, cands, k):
        seen.extend(sorted(c) for c in cands)
        return real(X_query, X_dst, cands, k)

    monkeypatch.setattr(transport, "_rerank", recording)
    nbrs = transport._nearest(np.zeros((1, 2)), dst, 2)
    assert nbrs.tolist() == [[0, 1]]  # four-way tie at distance 1
    assert seen == [[0, 1, 2, 3]]


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("kind", ["grid", "duplicates"])
def test_rerank_ranks_candidates_given_in_any_order(kind, k, order):
    # the tree's ball search (return_sorted=False) lists each row's
    # candidates in no particular order
    rng = np.random.default_rng(14)
    dst = tie_heavy_points(rng, kind, 60, 3)
    query = np.vstack([tie_heavy_points(rng, kind, 20, 3), dst[:5]])
    rows = np.arange(len(dst))
    cands = [rows[::-1] if order == "reversed" else rng.permutation(rows)
             for _ in query]
    assert np.array_equal(transport._rerank(query, dst, cands, k),
                          transport._nearest_exact(query, dst, k))


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
    assert rows == {"_rerank": 0, "_nearest_exact": 3}


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
                             sinkhorn_max_iter=2000, sinkhorn_tol=1e-9)
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
    # past the median's sample size, so the bracket selects it
    (300, 250, 4, 1.0, 10),
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
                      max_iter=max_iter, tol=cfg.sinkhorn_tol),
        X_dst)
    got = transport._transported_sources(X_src, X_dst, cfg)
    # the projection is read from the scalings, K (v X_dst) / Kv, not
    # from the plan's rows: a different order of n_dst-term sums
    bound = 4 * n_dst * np.finfo(float).eps * np.abs(X_dst).max()
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
    # the cost, which becomes the plan; the median adds a few percent
    assert peak <= 1.15 * dense


def test_sinkhorn_transport_reports_a_cost_it_cannot_allocate(monkeypatch):
    empty = np.empty

    def no_dense(shape, *args, **kwargs):
        if shape == (400, 300):
            raise MemoryError
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(transport.np, "empty", no_dense)
    rng = np.random.default_rng(13)
    cfg = PipelineConfig(ot_type="sinkhorn")
    with pytest.raises(ValidationError) as info:
        transport._transported_sources(
            rng.normal(size=(400, 2)), rng.normal(size=(300, 2)), cfg)
    message = str(info.value)
    assert "400 x 300" in message
    assert "960000 bytes" in message
    assert "ot_type=linear" in message


def test_global_scope_uses_one_direction():
    ds, wl = make_biased_fixture(400, seed=6)
    blind = ds.without_labels()
    est = per_group_accuracies(wl, blind)
    cfg = PipelineConfig(ot_type="none", transport_scope="global")
    moved = sbm_transport(blind, wl, est, cfg)
    assert [d.lf_index for d in moved.decisions] == list(range(wl.m))
    assert len({(d.src_group, d.dst_group) for d in moved.decisions}) == 1
    assert not any(d.skipped for d in moved.decisions)
    mean_acc = est.mean(axis=0)
    for d in moved.decisions:
        assert (d.acc_src, d.acc_dst) == (mean_acc[d.src_group],
                                          mean_acc[d.dst_group])


def test_global_scope_tie_skips_every_lf():
    ds, wl = make_biased_fixture(400, seed=6)
    blind = ds.without_labels()
    est = per_group_accuracies(wl, blind)
    cfg = PipelineConfig(ot_type="none", transport_scope="global",
                         tie_tol=1.0)
    moved = sbm_transport(blind, wl, est, cfg)
    assert np.array_equal(moved.new_votes.votes, wl.votes)
    assert [d.lf_index for d in moved.decisions] == list(range(wl.m))
    assert all(d.skipped and d.reason == "tie" for d in moved.decisions)


def test_invalid_inputs_rejected():
    ds, wl = make_biased_fixture(50, seed=7)
    est = per_group_accuracies(wl, ds.without_labels())
    bad = GroupedDataset(ds.features, np.zeros(ds.n, int))  # empty group 1
    with pytest.raises(ValidationError):
        sbm_transport(bad, wl, est, PipelineConfig())


@pytest.mark.parametrize("group_acc, message", [
    (np.full((4, 2), 0.5), r"group_acc must be 3x2, got \(4, 2\)"),
    (np.full((3, 3), 0.5), r"group_acc must be 3x2, got \(3, 3\)"),
    (np.full(3, 0.5), r"group_acc must be 3x2, got \(3,\)"),
    (np.array([[0.5, 0.5], [0.5, 1.5], [0.5, 0.5]]),
     r"must lie in \[-1, 1\]"),
    (np.array([[0.5, 0.5], [0.5, 0.5], [-1 - 1e-9, 0.5]]),
     r"must lie in \[-1, 1\]"),
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


def test_transport_does_not_check_container_votes_again(monkeypatch):
    ds, wl = make_biased_fixture(200, seed=8)
    blind = ds.without_labels()
    est = per_group_accuracies(wl, blind)
    cfg = PipelineConfig(ot_type="linear")
    expected = sbm_transport(blind, wl, est, cfg).new_votes.votes

    def no_check(*args):
        raise AssertionError("votes checked again")

    monkeypatch.setattr(transport, "require_values", no_check)
    moved = sbm_transport(blind, wl, est, cfg).new_votes.votes
    assert np.array_equal(moved, expected)
    assert not np.array_equal(moved, wl.votes)
    with pytest.raises(AssertionError, match="checked again"):
        knn_transfer(ds.features, ds.features, wl.votes, 1)


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
    cfg = PipelineConfig(ot_type="none", knn_k=3, transport_scope=scope)
    calls = []
    real = transport._transfer

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(transport, "_transfer", counting)
    result = sbm_transport(ds, wl, est, cfg)
    assert len(calls) == n_calls
    assert np.array_equal(result.new_votes.votes,
                          oracle_repair(ds, wl, moves, 3))
    assert [(d.lf_index, d.src_group, d.dst_group)
            for d in result.decisions if not d.skipped] == moves
    assert [d.lf_index for d in result.decisions if d.skipped] == [
        j for j in range(wl.m) if j not in {move[0] for move in moves}]
