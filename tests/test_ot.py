import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from otrelabel import ot
from otrelabel import (
    GaussianMoments,
    NumericalError,
    TransportPlan,
    ValidationError,
    apply_monge,
    barycentric_map,
    fit_moments,
    inverse_monge,
    linear_monge,
    psd_sqrt,
    sinkhorn_plan,
    spectral_summary,
)
from helpers import sinkhorn_plan_oracle, sinkhorn_projection_oracle


def random_spd(rng, d, lo=0.5, hi=2.0):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return (q * rng.uniform(lo, hi, d)) @ q.T


# --------------------------------------------------------------------------
# psd_sqrt


def test_sqrt_identity():
    assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3))


def test_sqrt_diagonal():
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_sqrt_construct_and_check():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(8, 8))
    s = m.T @ m
    r = psd_sqrt(s)
    assert np.linalg.norm(r @ r - s) / np.linalg.norm(s) <= 1e-8
    assert np.allclose(r, r.T)


def test_sqrt_commutes_with_input():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(6, 6))
    s = m.T @ m
    r = psd_sqrt(s)
    assert np.linalg.norm(r @ s - s @ r) <= 1e-8 * np.linalg.norm(s)


def test_sqrt_rejects_asymmetric():
    with pytest.raises(ValidationError):
        psd_sqrt(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_sqrt_rejects_negative_eigenvalue():
    with pytest.raises(ValidationError):
        psd_sqrt(np.diag([1.0, -1.0]))


def test_sqrt_clamps_tiny_negatives():
    s = np.diag([1.0, -1e-9])
    r = psd_sqrt(s)
    assert r[1, 1] == 0.0


def test_sqrt_floor_is_relative_to_the_largest_eigenvalue():
    # -1e5 is rounding next to 1e12 (floor -1e-6 * 1e12), -1e7 is not
    r = psd_sqrt(np.diag([1e12, -1e5]))
    assert np.array_equal(r, np.diag([1e6, 0.0]))
    with pytest.raises(ValidationError,
                       match=r"eigenvalue -1\.000e\+07 < -1\.000e\+06"):
        psd_sqrt(np.diag([1e12, -1e7]))


def collinear_moments(rng, shift):
    z = rng.normal(size=(300, 1))
    X = np.hstack([z, z + 1e-7 * rng.normal(size=(300, 1)),
                   rng.normal(size=(300, 1))])
    return fit_moments(1e3 * X + shift, ridge=1e-6)


def test_monge_map_of_nearly_collinear_features_at_scale():
    # two columns 1e-7 apart at scale 1e3: rounding leaves
    # S^1/2 Sigma S^1/2 an eigenvalue below -1e-6, which an absolute
    # floor rejected as if the input were not PSD
    rng = np.random.default_rng(1)
    src, dst = collinear_moments(rng, 0.0), collinear_moments(rng, 1.0)
    w, Q = np.linalg.eigh(src.sigma)
    s_half = (Q * np.sqrt(w)) @ Q.T
    assert np.linalg.eigvalsh(s_half @ dst.sigma @ s_half).min() < -1e-6
    m = linear_monge(src, dst)
    assert np.array_equal(m.A, m.A.T)
    pushed = m.A @ src.sigma @ m.A
    assert np.abs(pushed - dst.sigma).max() <= 1e-3 * np.abs(dst.sigma).max()


# --------------------------------------------------------------------------
# fit_moments


def test_fit_moments_hand_case():
    gm = fit_moments(np.array([[0.0, 0.0], [2.0, 0.0]]), ridge=0.0)
    assert np.allclose(gm.mu, [1.0, 0.0])
    assert np.allclose(gm.sigma, np.diag([2.0, 0.0]))


def test_fit_moments_ridge_added_verbatim():
    gm = fit_moments(np.array([[0.0, 0.0], [2.0, 0.0]]), ridge=1e-6)
    assert np.allclose(gm.sigma, np.diag([2.0 + 1e-6, 1e-6]))


def test_fit_moments_monte_carlo():
    rng = np.random.default_rng(2)
    sigma = random_spd(rng, 4, 0.5, 1.5)
    mu = rng.normal(size=4)
    x = rng.normal(size=(100_000, 4)) @ psd_sqrt(sigma) + mu
    gm = fit_moments(x)
    assert np.linalg.norm(gm.mu - mu) <= 0.02
    assert np.linalg.norm(gm.sigma - sigma) <= 0.02


def test_fit_moments_needs_two_rows():
    with pytest.raises(ValidationError):
        fit_moments(np.zeros((1, 3)))


@pytest.mark.parametrize("ridge", [np.nan, np.inf])
def test_fit_moments_rejects_a_non_finite_ridge(ridge):
    x = np.random.default_rng(4).normal(size=(50, 3))
    with pytest.raises(ValidationError, match="ridge must be"):
        fit_moments(x, ridge)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_fit_moments_rejects_a_non_finite_row(value):
    x = np.random.default_rng(4).normal(size=(50, 3))
    x[17, 1] = value
    with pytest.raises(ValidationError, match="X must be finite"):
        fit_moments(x)


# --------------------------------------------------------------------------
# linear_monge / apply_monge


def test_monge_identity_when_moments_match():
    gm = GaussianMoments([1.0, -2.0], np.diag([2.0, 3.0]), 10)
    mm = linear_monge(gm, gm)
    assert np.allclose(mm.A, np.eye(2), atol=1e-12)
    assert np.allclose(mm.b, 0.0, atol=1e-12)


def test_monge_pure_translation():
    s = np.diag([2.0, 1.0])
    mm = linear_monge(GaussianMoments([0.0, 0.0], s, 5),
                      GaussianMoments([3.0, -1.0], s, 5))
    assert np.allclose(mm.A, np.eye(2), atol=1e-12)
    assert np.allclose(mm.b, [3.0, -1.0])


def test_monge_one_dimensional():
    mm = linear_monge(GaussianMoments([0.0], [[4.0]], 2),
                      GaussianMoments([1.0], [[9.0]], 2))
    assert mm.A[0, 0] == pytest.approx(1.5)
    assert mm.b[0] == pytest.approx(1.0)
    moved = apply_monge(mm, np.array([[0.0], [2.0]]))
    assert np.allclose(moved[:, 0], [1.0, 4.0])


def test_monge_pushforward_matches_target():
    rng = np.random.default_rng(3)
    src = GaussianMoments(rng.normal(size=6), random_spd(rng, 6), 10)
    dst = GaussianMoments(rng.normal(size=6), random_spd(rng, 6), 10)
    mm = linear_monge(src, dst)
    pushed = mm.A @ src.sigma @ mm.A.T
    assert np.linalg.norm(pushed - dst.sigma) / np.linalg.norm(dst.sigma) <= 1e-6
    # A inherits symmetry and positive definiteness
    assert np.allclose(mm.A, mm.A.T)
    assert np.linalg.eigvalsh(mm.A)[0] > 0


def test_monge_inverse_consistency():
    rng = np.random.default_rng(4)
    src = GaussianMoments(rng.normal(size=5), random_spd(rng, 5), 10)
    dst = GaussianMoments(rng.normal(size=5), random_spd(rng, 5), 10)
    fwd = linear_monge(src, dst)
    back = linear_monge(dst, src)
    comp = back.A @ fwd.A
    assert np.linalg.norm(comp - np.eye(5)) <= 1e-5
    assert np.linalg.norm(back.A @ fwd.b + back.b) <= 1e-5


def test_monge_rejects_singular_covariance():
    with pytest.raises(NumericalError):
        linear_monge(GaussianMoments([0.0, 0.0], np.diag([1.0, 0.0]), 3),
                     GaussianMoments([0.0, 0.0], np.eye(2), 3))


def test_apply_monge_trivial():
    mm = linear_monge(GaussianMoments([0.0], [[1.0]], 2),
                      GaussianMoments([0.0], [[1.0]], 2))
    x = np.array([[1.0], [2.0]])
    assert np.allclose(apply_monge(mm, x), x)


def test_apply_monge_dimension_mismatch():
    mm = linear_monge(GaussianMoments([0.0], [[1.0]], 2),
                      GaussianMoments([0.0], [[1.0]], 2))
    with pytest.raises(ValidationError):
        apply_monge(mm, np.zeros((3, 2)))


def test_inverse_monge_roundtrip():
    rng = np.random.default_rng(5)
    mm = linear_monge(
        GaussianMoments(rng.normal(size=3), random_spd(rng, 3), 9),
        GaussianMoments(rng.normal(size=3), random_spd(rng, 3), 9))
    inv = inverse_monge(mm)
    x = rng.normal(size=(7, 3))
    assert np.allclose(apply_monge(inv, apply_monge(mm, x)), x, atol=1e-10)


# --------------------------------------------------------------------------
# sinkhorn


def test_sinkhorn_single_point():
    plan = sinkhorn_plan(np.array([[0.7]]))
    assert np.allclose(plan.T, [[1.0]])
    assert plan.converged


def test_sinkhorn_symmetric_two_points():
    cost = np.array([[0.0, 1.0], [1.0, 0.0]])
    plan = sinkhorn_plan(cost, max_iter=2000, tol=1e-12)
    assert np.allclose(plan.T, plan.T.T, atol=1e-12)
    assert np.allclose(plan.T.sum(axis=1), 0.5, atol=1e-10)


def test_sinkhorn_matches_projection_oracle():
    rng = np.random.default_rng(6)
    cost = rng.uniform(0.0, 2.0, size=(3, 3))
    a = rng.uniform(0.2, 1.0, 3)
    a /= a.sum()
    b = rng.uniform(0.2, 1.0, 3)
    b /= b.sum()
    plan = sinkhorn_plan(cost, a, b, eta=1.0, max_iter=10_000, tol=1e-10)
    oracle = sinkhorn_projection_oracle(cost, a, b, eta=1.0)
    assert np.abs(plan.T - oracle).max() <= 1e-8


def test_sinkhorn_default_budget_reports_convergence_state():
    rng = np.random.default_rng(7)
    cost = rng.uniform(0.0, 4.0, size=(30, 25))
    plan = sinkhorn_plan(cost)  # reference defaults: eta=1, max_iter=10
    assert plan.iterations_run <= 10
    assert plan.marginal_violation >= 0
    # the flag must reflect the reported violation, whatever it is
    assert plan.converged == (plan.marginal_violation <= 1e-9)


def test_sinkhorn_objective_log_non_increasing():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n, m = rng.integers(2, 10, size=2)
        cost = rng.uniform(0.0, 3.0, size=(n, m))
        plan = sinkhorn_plan(cost, max_iter=200, tol=1e-13,
                             log_objective=True)
        diffs = np.diff(plan.objective_log)
        assert (diffs <= 1e-10).all()


def test_sinkhorn_marginal_errors():
    cost = np.zeros((2, 2))
    with pytest.raises(ValidationError):
        sinkhorn_plan(cost, np.array([0.5, -0.5]), np.array([0.5, 0.5]))
    with pytest.raises(ValidationError):
        sinkhorn_plan(cost, np.array([0.9, 0.9]), np.array([0.5, 0.5]))


def test_sinkhorn_rejects_bad_costs():
    with pytest.raises(ValidationError):
        sinkhorn_plan(np.array([[1.0, -0.1], [0.0, 1.0]]))
    with pytest.raises(ValidationError):
        sinkhorn_plan(np.array([[np.inf, 1.0], [0.0, 1.0]]))


def test_sinkhorn_underflow_raises_without_rescale():
    # the median of this cost is 1, so the median rescale leaves the last
    # source row at 1e6 / eta, which underflows across the board
    cost = np.ones((3, 3))
    cost[2] = 1e6
    with pytest.raises(NumericalError):
        sinkhorn_plan(cost)
    # the median rescale makes an instance feasible whose raw cost
    # underflows at eta = 1
    plan = sinkhorn_plan(np.array([[0.0, 1.0], [4000.0, 4000.0]]),
                         max_iter=100, tol=1e-9)
    assert plan.converged


# the one parameter value names the cost rescale, which is always the median
@pytest.mark.parametrize("rescale", ["median"])
def test_sinkhorn_leaves_cost_unchanged(rescale):
    rng = np.random.default_rng(9)
    cost = rng.uniform(0.0, 3.0, size=(6, 5))
    before = cost.copy()
    sinkhorn_plan(cost)
    assert np.array_equal(cost, before)
    assert cost.flags.writeable


@pytest.mark.parametrize("rescale", ["median"])
def test_sinkhorn_accepts_read_only_cost(rescale):
    rng = np.random.default_rng(9)
    cost = rng.uniform(0.0, 3.0, size=(6, 5))
    cost.setflags(write=False)
    before = cost.copy()
    sinkhorn_plan(cost)
    assert np.array_equal(cost, before)
    assert not cost.flags.writeable


@pytest.mark.parametrize("name,value", [
    ("eta", np.nan), ("eta", np.inf), ("tol", np.nan), ("tol", np.inf),
    ("a", np.array([np.nan, 1.0])), ("b", np.array([0.5, np.nan])),
])
def test_sinkhorn_rejects_non_finite_arguments(name, value):
    # NaN compares false, so `x <= 0` checks let it through
    with pytest.raises(ValidationError):
        sinkhorn_plan(np.ones((2, 2)), **{name: value})


def cost_of_kind(rng, kind, n, m):
    if kind == "uniform":
        return rng.uniform(0.0, 3.0, size=(n, m))
    if kind == "ties":
        return rng.integers(0, 3, size=(n, m)).astype(float)
    if kind == "zero_median":  # the rescale falls back to the mean
        return np.where(rng.random((n, m)) < 0.7, 0.0,
                        rng.uniform(0.0, 2.0, size=(n, m)))
    return np.zeros((n, m))  # the mean is zero too: the scale is 1


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 9),
       st.sampled_from(["uniform", "ties", "zero_median", "zero"]),
       st.booleans(), st.booleans(), st.booleans())
def test_sinkhorn_plan_matches_oracle_bit_for_bit(
        seed, n, m, kind, log_objective, marginals, transposed):
    rng = np.random.default_rng(seed)
    cost = cost_of_kind(rng, kind, n, m)
    if transposed:  # a column-major cost
        cost = np.ascontiguousarray(cost.T).T
    a = b = None
    if marginals:
        a = rng.uniform(0.1, 1.0, n)
        a /= a.sum()
        b = rng.uniform(0.1, 1.0, m)
        b /= b.sum()
    kwargs = dict(eta=float(rng.uniform(0.2, 3.0)),
                  max_iter=int(rng.integers(1, 40)),
                  log_objective=log_objective)
    plan = sinkhorn_plan(cost, a, b, **kwargs)
    oracle = sinkhorn_plan_oracle(cost, a, b, **kwargs)
    assert np.array_equal(plan.T, oracle.T)
    assert plan.iterations_run == oracle.iterations_run
    assert plan.converged == oracle.converged
    assert plan.marginal_violation == oracle.marginal_violation
    assert plan.objective_log == oracle.objective_log


def test_sinkhorn_plan_holds_one_dense_buffer():
    rng = np.random.default_rng(10)
    cost = rng.uniform(0.0, 3.0, size=(400, 300))
    tracemalloc.start()
    try:
        sinkhorn_plan(cost)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * cost.nbytes


@pytest.mark.parametrize("max_iter", [1.5, 2.5, True, 2.0])
def test_sinkhorn_rejects_a_non_integer_max_iter(max_iter):
    with pytest.raises(ValidationError,
                       match="max_iter must be an integer >= 1"):
        sinkhorn_plan(np.ones((2, 2)), max_iter=max_iter)


def test_sinkhorn_accepts_a_numpy_integer_max_iter():
    cost = np.random.default_rng(14).uniform(0.0, 3.0, size=(5, 4))
    assert np.array_equal(sinkhorn_plan(cost, max_iter=np.int64(3)).T,
                          sinkhorn_plan(cost, max_iter=3).T)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300])
def test_sinkhorn_rejects_each_bad_cost_entry(bad):
    cost = np.ones((3, 4))
    cost[2, 1] = bad
    with pytest.raises(ValidationError,
                       match="cost matrix entries must be finite and >= 0"):
        sinkhorn_plan(cost)


def test_sinkhorn_rejects_an_empty_cost():
    with pytest.raises(ValidationError, match="cost matrix is empty"):
        sinkhorn_plan(np.zeros((0, 3)))


def test_sinkhorn_accepts_a_negative_zero_cost():
    cost = np.random.default_rng(15).uniform(0.0, 3.0, size=(4, 5))
    cost[0, 0] = 0.0
    signed = cost.copy()
    signed[0, 0] = -0.0
    assert np.array_equal(sinkhorn_plan(signed).T, sinkhorn_plan(cost).T)


def few_row_blocks(monkeypatch, n_dst, rows):
    """Sinkhorn row blocks of ``rows`` rows for an n_dst-column cost."""
    monkeypatch.setattr(ot, "_BLOCK_BYTES", 8 * n_dst * rows)


@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize("n_src,n_dst,rows,eta", [
    (103, 40, 20, 1.0), (61, 77, 7, 0.3), (250, 9, 31, 2.0)])
def test_sinkhorn_plan_over_row_blocks_matches_the_oracle(
        monkeypatch, layout, n_src, n_dst, rows, eta):
    # >= 5 blocks, the last one short
    assert n_src // rows >= 5 and n_src % rows
    few_row_blocks(monkeypatch, n_dst, rows)
    rng = np.random.default_rng(n_src)
    cost = as_layout(rng.uniform(0.0, 3.0, size=(n_src, n_dst)), layout)
    plan = sinkhorn_plan(cost, eta=eta, max_iter=300, tol=1e-10)
    oracle = sinkhorn_plan_oracle(cost, eta=eta, max_iter=300, tol=1e-10)
    assert plan.iterations_run == oracle.iterations_run < 300
    # Only the order of the sums differs.  Two orders of a sum of n
    # positive terms differ by at most 2 n eps of it; per round this
    # enters Kv (n_dst terms) and u K (n_src terms), plus two roundings
    # for each of u and v, and reaches T = u K v from both u and v.
    t = plan.iterations_run
    bound = 4 * t * (n_src + n_dst + 2) * np.finfo(float).eps
    assert np.all(np.abs(plan.T - oracle.T) <= bound * oracle.T)


def test_sinkhorn_does_not_depend_on_the_worker_count(monkeypatch):
    rng = np.random.default_rng(16)
    X_src = rng.normal(size=(103, 3))
    X_dst = rng.normal(size=(40, 3)) + 0.5
    cost = cdist(X_src, X_dst, "sqeuclidean")
    few_row_blocks(monkeypatch, 40, 20)  # 6 blocks, the last of 3 rows
    plans, projections = [], []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads switch as often as they can
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(ot.core, "_workers", lambda: workers)
            plans.append(sinkhorn_plan(cost, eta=0.5, max_iter=200))
            projections.append(ot._sinkhorn_projection(
                cost.copy(), X_dst, eta=0.5, max_iter=200, tol=1e-9))
    finally:
        sys.setswitchinterval(interval)
    for plan, (projected, diagnostics) in zip(plans[1:], projections[1:]):
        assert np.array_equal(plan.T, plans[0].T)
        assert plan.iterations_run == plans[0].iterations_run
        assert np.array_equal(projected, projections[0][0])
        assert diagnostics.iterations_run == projections[0][1].iterations_run


@pytest.mark.parametrize("axis", [0, 1])
def test_sinkhorn_underflow_in_any_block_raises(monkeypatch, axis):
    # the last row, or the last column, underflows: a helper thread may
    # sweep the block that finds it
    cost = np.random.default_rng(17).uniform(0.0, 1.0, size=(50, 50))
    (cost[-1] if axis == 0 else cost[:, -1])[:] = 1e6
    few_row_blocks(monkeypatch, 50, 7)
    monkeypatch.setattr(ot.core, "_workers", lambda: 3)
    with pytest.raises(NumericalError, match="underflowed"):
        sinkhorn_plan(cost)
    with pytest.raises(NumericalError, match="underflowed"):
        ot._sinkhorn_projection(cost, np.zeros((50, 2)), 1.0, 10, 1e-9)


def as_layout(cost, layout):
    """``cost`` row-major, column-major, or as a strided view of it."""
    if layout == "F":
        return np.asfortranarray(cost)
    if layout == "view":
        return cost[::2, ::3]
    return cost


def same_float(x, y):
    return np.float64(x).tobytes() == np.float64(y).tobytes()


@pytest.fixture
def partitioned(monkeypatch):
    """The sizes of the arrays the median partitions, call by call."""
    sizes = []
    middle = ot._middle

    def spy(values, h, odd):
        sizes.append(values.size)
        return middle(values, h, odd)

    monkeypatch.setattr(ot, "_middle", spy)
    return sizes


def median_cost(rng, kind, n, m):
    """``cost_of_kind``, or mostly entries whose sum overflows: the mean
    of two middle entries is then inf."""
    if kind == "huge":
        return np.where(rng.random((n, m)) < 0.8, 1e308, 0.0)
    return cost_of_kind(rng, kind, n, m)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 90),
       st.one_of(st.integers(1, 90), st.sampled_from([32, 64, 96])),
       st.sampled_from(["uniform", "ties", "zero_median", "zero", "huge"]),
       st.sampled_from(["C", "F", "view"]),
       st.sampled_from([(64, 2), (ot._MEDIAN_SAMPLE, ot._MEDIAN_MIN_STRIDE)]))
def test_median_matches_np_median_bit_for_bit(seed, n, m, kind, layout,
                                              sampling):
    # a sample of 64 entries at stride >= 2 sends small costs through the
    # bracket; a row length of 32k shares a factor with every even stride
    cost = as_layout(median_cost(np.random.default_rng(seed), kind, n, m),
                     layout)
    before = cost.copy()
    with mock.patch.object(ot, "_MEDIAN_SAMPLE", sampling[0]), \
            mock.patch.object(ot, "_MEDIAN_MIN_STRIDE", sampling[1]), \
            np.errstate(over="ignore"):
        got = ot._median(cost)
        want = np.median(cost)
    assert same_float(got, want)
    assert np.array_equal(cost, before)


@pytest.mark.parametrize("layout", ["C", "F", "view"])
@pytest.mark.parametrize("n_dst", [600, 599])
def test_median_of_a_large_cost_is_bracketed(partitioned, layout, n_dst):
    rng = np.random.default_rng(16)
    cost = as_layout(cdist(rng.normal(size=(601, 4)),
                           rng.normal(size=(n_dst, 4)) + 0.5,
                           "sqeuclidean"), layout)
    assert same_float(ot._median(cost), np.median(cost))
    # only the bracketed few percent were partitioned, not a copy
    assert len(partitioned) == 1 and partitioned[0] <= 0.1 * cost.size


@pytest.mark.parametrize("miss", ["rank", "straddle", "ties"])
def test_median_falls_back_to_a_copy_when_the_bracket_misses(
        partitioned, miss):
    rng = np.random.default_rng(17)
    p = 20_011  # a prime, so the sample stride is the least one, 32
    if miss == "rank":  # every sampled entry is the minimum
        cost = rng.uniform(1.0, 2.0, size=(1, p))
        cost[0, ::ot._MEDIAN_MIN_STRIDE] = 0.0
    elif miss == "straddle":
        # an even count, half of it zeros that the sample (every 33rd
        # entry: 33 is the least stride >= 32 coprime to 2p) never reads;
        # the lower middle entry lies just below the bracket
        cost = np.ones((1, 2 * p))
        cost[0, np.flatnonzero(np.arange(2 * p) % 33)[:p]] = 0.0
    else:  # two values, each half the cost: the bracket holds them all
        cost = np.where(rng.random((1, p)) < 0.5, 0.0, 1.0)
    tracemalloc.start()
    try:
        got = ot._median(cost)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert same_float(got, np.median(cost))
    assert partitioned == [cost.size]
    # a miss costs the copy, no more
    assert peak <= 1.25 * cost.nbytes


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(2, 12))
def test_sinkhorn_marginal_conservation(seed, n, m):
    rng = np.random.default_rng(seed)
    cost = rng.uniform(0.0, 3.0, size=(n, m))
    a = rng.uniform(0.1, 1.0, n)
    a /= a.sum()
    b = rng.uniform(0.1, 1.0, m)
    b /= b.sum()
    plan = sinkhorn_plan(cost, a, b, max_iter=5000, tol=1e-10)
    assert plan.converged
    assert np.abs(plan.T.sum(axis=1) - a).max() <= 1e-10
    assert np.abs(plan.T.sum(axis=0) - b).max() <= 1e-10
    assert (plan.T >= 0).all()


# --------------------------------------------------------------------------
# barycentric projection


def test_barycentric_single_destination():
    plan = TransportPlan(np.array([[1.0]]), 1.0, 1, True, 0.0)
    assert np.allclose(barycentric_map(plan, np.array([[3.0, 4.0]])),
                       [[3.0, 4.0]])


def test_barycentric_uniform_plan_hits_barycenter():
    plan = TransportPlan(np.full((3, 2), 1 / 6), 1.0, 1, True, 0.0)
    dst = np.array([[0.0, 0.0], [2.0, 0.0]])
    assert np.allclose(barycentric_map(plan, dst), [[1.0, 0.0]] * 3)


def test_barycentric_permutation_limit():
    # eta -> 0 limit of matching two identical clouds is a permutation
    rng = np.random.default_rng(9)
    x = rng.normal(size=(6, 2))
    perm = rng.permutation(6)
    from scipy.spatial.distance import cdist

    cost = cdist(x, x[perm], "sqeuclidean")
    plan = sinkhorn_plan(cost, eta=1e-3, max_iter=20_000, tol=1e-12)
    mapped = barycentric_map(plan, x[perm])
    assert np.abs(mapped - x).max() <= 1e-6


def test_barycentric_leaves_the_plan_unchanged():
    rng = np.random.default_rng(18)
    plan = sinkhorn_plan(rng.uniform(0.0, 3.0, size=(6, 5)))
    before = plan.T.copy()
    plan.T.setflags(write=False)  # a write would raise
    barycentric_map(plan, rng.normal(size=(5, 2)))
    assert np.array_equal(plan.T, before)


def test_barycentric_rejects_zero_row():
    plan = TransportPlan(np.array([[0.0, 0.0], [0.5, 0.5]]), 1.0, 1, True, 0.0)
    with pytest.raises(NumericalError):
        barycentric_map(plan, np.zeros((2, 2)))


def test_barycentric_outputs_in_convex_hull():
    rng = np.random.default_rng(10)
    src = rng.normal(size=(5, 2))
    dst = rng.normal(size=(8, 2))
    from scipy.spatial import Delaunay
    from scipy.spatial.distance import cdist

    plan = sinkhorn_plan(cdist(src, dst, "sqeuclidean"),
                         max_iter=3000, tol=1e-10)
    mapped = barycentric_map(plan, dst)
    hull = Delaunay(dst)
    assert (hull.find_simplex(mapped) >= 0).all()


# --------------------------------------------------------------------------
# spectral summary


def test_spectral_identity():
    s = spectral_summary(np.eye(4))
    assert s.effective_rank == pytest.approx(4.0)


def test_spectral_rank_one():
    s = spectral_summary(np.diag([1.0, 0.0, 0.0]))
    assert s.effective_rank == pytest.approx(1.0)


def test_spectral_hand_value():
    s = spectral_summary(np.diag([4.0, 2.0, 2.0]))
    assert s.effective_rank == pytest.approx(2.0)
    assert s.trace == pytest.approx(8.0)
    assert s.lambda_max == pytest.approx(4.0)
    assert s.lambda_min == pytest.approx(2.0)


def test_spectral_rejects_zero_matrix():
    with pytest.raises(ValidationError):
        spectral_summary(np.zeros((3, 3)))


def test_spectral_effective_rank_bounds():
    rng = np.random.default_rng(11)
    for d in (2, 5, 9):
        s = spectral_summary(random_spd(rng, d))
        assert 1.0 - 1e-12 <= s.effective_rank <= d + 1e-12
