import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otrelabel import (
    GroupedDataset,
    NumericalError,
    TripletRecord,
    ValidationError,
    WeakLabelMatrix,
    accuracies_from_moments,
    moment_matrix,
    per_group_accuracies,
    resolve_sign,
    triplet_accuracies,
)
from otrelabel import estimate
from otrelabel.estimate import EPS_PAIR
from helpers import pairwise_moment, sample_conditional_lfs, triplet_oracle

TRUE_ACC = np.array([0.8, 0.6, 0.4, 0.3, 0.2])


def test_moment_perfect_agreement():
    wl = WeakLabelMatrix(np.tile([[1, 1]], (5, 1)) * np.array([[1], [-1], [1], [1], [-1]]))
    assert moment_matrix(wl)[0, 1] == 1.0


def test_moment_perfect_disagreement():
    v = np.array([[1, -1], [-1, 1], [1, -1]])
    assert moment_matrix(WeakLabelMatrix(v))[0, 1] == -1.0


def test_moment_independent_lfs_near_zero():
    rng = np.random.default_rng(7)
    v = rng.choice([-1, 1], size=(1_000_000, 2))
    # independent fair votes: moment 0 with CLT tolerance 5/sqrt(n)
    assert abs(moment_matrix(WeakLabelMatrix(v))[0, 1]) <= 0.005


def test_moment_skips_abstains():
    v = np.array([[1, 1], [0, 1], [1, 0], [-1, -1]])
    # only rows 0 and 3 count
    assert moment_matrix(WeakLabelMatrix(v))[0, 1] == 1.0


def test_moment_undefined_when_no_overlap():
    v = np.array([[1, 0], [0, 1]])
    assert math.isnan(moment_matrix(WeakLabelMatrix(v))[0, 1])


def test_population_moments_recover_accuracies_exactly():
    moments = np.outer(TRUE_ACC, TRUE_ACC)
    np.fill_diagonal(moments, 1.0)
    est, records = accuracies_from_moments(moments)
    assert np.abs(est - TRUE_ACC).max() <= 1e-12
    assert all(not r.degenerate for r in records)
    assert len(records) == 10  # C(5, 3)
    # any array-like: nested lists give the same bits
    assert np.array_equal(accuracies_from_moments(moments.tolist())[0], est)


def test_sampled_moments_recover_accuracies():
    wl, _ = sample_conditional_lfs(TRUE_ACC, 100_000, seed=3)
    est, _ = triplet_accuracies(wl)
    assert np.abs(est - TRUE_ACC).max() <= 0.02


def test_three_perfect_lfs():
    rng = np.random.default_rng(0)
    y = rng.choice([-1, 1], size=500)
    wl = WeakLabelMatrix(np.column_stack([y, y, y]))
    est, _ = triplet_accuracies(wl)
    assert np.allclose(est, 1.0)


def test_fewer_than_three_lfs_rejected():
    with pytest.raises(ValidationError):
        triplet_accuracies(WeakLabelMatrix([[1, -1], [1, 1]]))


def test_all_triplets_degenerate_raises():
    # lf 2 abstains everywhere: every triplet has an undefined moment
    v = np.array([[1, 1, 0], [-1, 1, 0], [1, -1, 0], [1, 1, 0]])
    with pytest.raises(NumericalError):
        triplet_accuracies(WeakLabelMatrix(v))


def test_magnitudes_clamped_to_one():
    # noisy moments can push the ratio above 1; output must stay in [0, 1]
    moments = np.array([
        [1.0, 0.9, 0.8],
        [0.9, 1.0, 0.5],
        [0.8, 0.5, 1.0],
    ])
    est, _ = accuracies_from_moments(moments)
    assert est.max() <= 1.0


def test_resolve_sign_all_aligned():
    rng = np.random.default_rng(1)
    y = rng.choice([-1, 1], size=100)
    wl = WeakLabelMatrix(np.column_stack([y, y, y, y]))
    signed = resolve_sign(np.full(4, 0.9), wl)
    assert np.all(signed > 0)


def test_resolve_sign_flags_adversarial_lf():
    rng = np.random.default_rng(2)
    y = rng.choice([-1, 1], size=400)
    wl = WeakLabelMatrix(np.column_stack([y, y, y, y, -y]))
    signed = resolve_sign(np.full(5, 0.8), wl)
    assert np.all(signed[:4] > 0) and signed[4] < 0


def test_resolve_sign_tie_rows_contribute_zero():
    # two opposing LFs: every row's majority is a tie, agreement 0 -> sign +
    wl = WeakLabelMatrix([[1, -1], [-1, 1], [1, -1]])
    signed = resolve_sign(np.array([0.5, 0.5]), wl)
    assert np.all(signed == 0.5)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 9),
       st.floats(0.0, 0.9), st.floats(0.0, 0.5), st.floats(0.0, 0.5))
def test_resolve_sign_always_leaves_a_positive_sign(seed, n, m, p_abstain,
                                                    p_silent, p_tied):
    # the agreements sum to sum_r |sum_j v_rj| / n >= 0, so at least one
    # is >= 0 and its sign is +, whatever the votes
    rng = np.random.default_rng(seed)
    p_neg = rng.uniform(0.0, 1.0 - p_abstain)
    v = rng.choice([-1, 0, 1], p=[p_neg, p_abstain, 1.0 - p_abstain - p_neg],
                   size=(n, m))
    v[rng.random(n) < p_silent] = 0
    tie = np.resize([1, -1], m)
    if m % 2:
        tie[-1] = 0  # an odd row ties with one abstain
    for r in np.flatnonzero(rng.random(n) < p_tied):
        v[r] = rng.permutation(tie)
    signed = resolve_sign(np.full(m, 0.5), WeakLabelMatrix(v))
    assert np.any(signed > 0)


def test_per_group_flipped_lf_detected_exactly():
    rng = np.random.default_rng(4)
    y = rng.choice([-1, 1], size=600)
    groups = np.repeat([0, 1], 300)
    lf1 = np.where(groups == 1, -y, y)  # flipped only on group 1
    wl = WeakLabelMatrix(np.column_stack([lf1, y, y, y]))
    ds = GroupedDataset(np.zeros((600, 1)), groups)
    acc = per_group_accuracies(wl, ds)
    assert acc[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert acc[0, 1] == pytest.approx(-1.0, abs=1e-12)
    assert np.allclose(acc[1:, :], 1.0)


def test_per_group_identical_distributions_agree():
    wl, _ = sample_conditional_lfs(TRUE_ACC, 100_000, seed=5)
    groups = np.zeros(100_000, dtype=int)
    groups[50_000:] = 1
    ds = GroupedDataset(np.zeros((100_000, 1)), groups)
    acc = per_group_accuracies(wl, ds)
    assert np.abs(acc[:, 0] - acc[:, 1]).max() <= 0.03


def test_per_group_error_names_group():
    v = np.column_stack([
        np.array([1, -1, 1, 1]),
        np.array([1, 1, -1, 1]),
        np.array([0, 0, 1, -1]),  # lf 2 abstains on all of group 0
    ])
    ds = GroupedDataset(np.zeros((4, 1)), [0, 0, 1, 1])
    with pytest.raises(NumericalError, match="group 0"):
        per_group_accuracies(WeakLabelMatrix(v), ds)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.permutations(list(range(4))))
def test_column_permutation_equivariance(seed, perm):
    wl, _ = sample_conditional_lfs([0.8, 0.6, 0.5, 0.3], 600, seed=seed)
    base, _ = triplet_accuracies(wl)
    permuted, _ = triplet_accuracies(WeakLabelMatrix(wl.votes[:, perm]))
    assert np.array_equal(permuted, base[perm])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_row_shuffle_leaves_estimates_unchanged_exactly(seed):
    wl, _ = sample_conditional_lfs([0.8, 0.5, 0.4], 500, seed=seed)
    rng = np.random.default_rng(seed + 1)
    perm = rng.permutation(wl.n)
    base, _ = triplet_accuracies(wl)
    shuffled, _ = triplet_accuracies(WeakLabelMatrix(wl.votes[perm]))
    assert np.array_equal(base, shuffled)


def test_illegal_vote_values_refused():
    with pytest.raises(ValidationError,
                       match="^illegal vote value 2 at row 0, lf 2$"):
        WeakLabelMatrix([[1, 1, 2], [1, -1, 1], [-1, 1, -1]])


def random_moments(m, seed, eps_pair, p_bad):
    """Symmetric moments in [-1, 1] with a unit diagonal; each off-diagonal
    cell is, with probability p_bad, replaced by NaN, +-eps_pair or 0."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, (m, m))
    hit = rng.random((m, m)) < p_bad
    a[hit] = rng.choice([np.nan, eps_pair, -eps_pair, 0.0], size=hit.sum())
    a = np.triu(a, 1)
    a = a + a.T
    np.fill_diagonal(a, 1.0)
    return a


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 12), st.integers(0, 2**32 - 1),
       st.sampled_from([EPS_PAIR, 0.3]),
       st.sampled_from([0.0, 0.05, 0.2, 0.6]))
def test_triplet_pass_matches_loop_oracle(m, seed, eps_pair, p_bad):
    moments = random_moments(m, seed, eps_pair, p_bad)
    try:
        want, want_records = triplet_oracle(moments, eps_pair)
    except NumericalError as exc:
        with mock.patch.object(estimate, "EPS_PAIR", eps_pair), \
                pytest.raises(NumericalError) as got:
            accuracies_from_moments(moments)
        assert str(got.value) == str(exc)
        return
    # the records build their tables when read, so read them under the patch
    with mock.patch.object(estimate, "EPS_PAIR", eps_pair):
        est, records = accuracies_from_moments(moments)
        records = list(records)
    assert np.array_equal(est, want)
    assert len(records) == len(want_records)
    for got_rec, want_rec in zip(records, want_records):
        assert got_rec.indices == want_rec.indices
        assert got_rec.degenerate == want_rec.degenerate
        assert np.array_equal(got_rec.raw_estimates, want_rec.raw_estimates,
                              equal_nan=True)


@pytest.mark.parametrize("m", [30, 60])
@pytest.mark.parametrize("p_bad", [0.0, 0.05, 0.2])
def test_triplet_pass_matches_loop_oracle_bitwise_at_bench_width(m, p_bad):
    moments = random_moments(m, seed=m + int(100 * p_bad), eps_pair=EPS_PAIR,
                             p_bad=p_bad)
    want, _ = triplet_oracle(moments, EPS_PAIR)
    est, records = accuracies_from_moments(moments)
    assert est.tobytes() == want.tobytes()
    # both kinds of median occur: an odd count reads one middle value, an
    # even count averages two (without bad moments every lf has
    # C(m - 1, 2) values, 406 at m = 30 and 1711 at m = 60)
    if p_bad:
        counts = np.bincount(records.indices[~records.degenerate].ravel(),
                             minlength=m)
        assert set(counts % 2) == {0, 1}


@pytest.mark.parametrize("m", [30, 60])
def test_all_degenerate_lf_error_matches_loop_oracle_at_bench_width(m):
    moments = random_moments(m, seed=m, eps_pair=EPS_PAIR, p_bad=0.05)
    moments[m // 2, :] = moments[:, m // 2] = np.nan
    moments[m // 2, m // 2] = 1.0
    with pytest.raises(NumericalError) as want:
        triplet_oracle(moments, EPS_PAIR)
    with pytest.raises(NumericalError) as got:
        accuracies_from_moments(moments)
    assert str(got.value) == str(want.value)
    assert f"lf {m // 2} " in str(got.value)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_moment_matrix_equals_pairwise_moment_exactly(seed):
    rng = np.random.default_rng(seed)
    v = rng.choice([-1, 0, 1], p=[0.35, 0.3, 0.35], size=(300, 6))
    v[150:, 4] = 0  # lf 4 votes only on the first half
    v[:150, 5] = 0  # lf 5 only on the second: no co-voting row
    wl = WeakLabelMatrix(v)
    moments = moment_matrix(wl)
    for i, j in itertools.permutations(range(6), 2):
        if {i, j} == {4, 5}:
            assert math.isnan(moments[i, j])
        else:
            assert moments[i, j] == pairwise_moment(wl, i, j)


def test_records_are_an_array_backed_sequence():
    m = 7
    moments = random_moments(m, seed=11, eps_pair=EPS_PAIR, p_bad=0.1)
    _, records = accuracies_from_moments(moments)
    assert len(records) == math.comb(m, 3)
    assert records.indices.tolist() == [
        list(t) for t in itertools.combinations(range(m), 3)]
    assert records[-1].indices == (4, 5, 6)
    assert records[-len(records)].indices == (0, 1, 2)
    with pytest.raises(IndexError):
        records[len(records)]
    assert all(isinstance(r, TripletRecord) for r in records)
    assert sum(r.degenerate for r in records) == records.degenerate.sum() > 0
    usable = np.flatnonzero(~records.degenerate)[0]
    assert records[usable].raw_estimates == tuple(
        records.raw_estimates[usable])


VOTES_3 = WeakLabelMatrix(np.array([[1, -1, 1], [1, 1, -1]]))


@pytest.mark.parametrize("call, message", [
    (lambda: accuracies_from_moments(np.ones((3, 4))),
     "moment matrix must be square"),
    (lambda: accuracies_from_moments([[1.0, 0.5, 0.5], [0.5, 1.0, 0.5]]),
     "moment matrix must be square"),
    (lambda: accuracies_from_moments(np.float64(0.5)),
     "moment matrix must be square"),
    (lambda: accuracies_from_moments(np.ones(3)),
     "moment matrix must be square"),
    (lambda: resolve_sign(np.ones(2), VOTES_3),
     "raw must be a length-3 array of finite numbers in [0, 1 + 1e-12], "
     "got shape (2,)"),
    (lambda: resolve_sign(np.array([0.5, 1.5, 0.5]), VOTES_3),
     "raw must be a length-3 array of finite numbers in [0, 1 + 1e-12], "
     "got 1.5"),
    (lambda: resolve_sign(np.array([0.5, -0.1, 0.5]), VOTES_3),
     "raw must be a length-3 array of finite numbers in [0, 1 + 1e-12], "
     "got -0.1"),
    (lambda: resolve_sign(np.array([np.nan, 0.5, 0.5]), VOTES_3),
     "raw must be a length-3 array of finite numbers in [0, 1 + 1e-12], "
     "got nan"),
])
def test_estimate_argument_checks_are_one_line_errors(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message
