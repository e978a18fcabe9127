import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otrelabel import (
    GroupedDataset,
    ValidationError,
    WeakLabelMatrix,
    fairness_report,
    lf_delta_report,
    regime_profile,
)
from otrelabel.metrics import NEIGHBORHOOD_FRAC, STEP_FRAC
from helpers import fairness_oracle


def rates_fixture(rate1: float, rate0: float, n: int = 10_000):
    """Predictions equal to gold with exact per-group positive rates."""
    def column(rate):
        pos = round(rate * n)
        return np.concatenate([np.ones(pos, int), -np.ones(n - pos, int)])

    pred = np.concatenate([column(rate0), column(rate1)])
    groups = np.repeat([0, 1], n)
    return pred, pred.copy(), groups


# --------------------------------------------------------------------------
# fairness_report


def test_perfect_predictions_zero_gaps():
    pred = np.array([1, -1, 1, -1])
    groups = np.array([0, 0, 1, 1])
    rep = fairness_report(pred, pred, groups)
    assert rep.accuracy == 1.0
    assert rep.dp_gap == 0.0
    assert rep.eo_gap == 0.0
    assert rep.per_group_accuracy == (1.0, 1.0)


def test_known_group_rates_reproduce_dp_gaps():
    for rate1, rate0, gap in [
        (0.3038, 0.1093, 0.1945),   # income census split
        (0.1093, 0.2399, 0.1306),   # bank marketing split
        (0.8040, 0.4672, 0.3368),   # hate-speech split
    ]:
        pred, gold, groups = rates_fixture(rate1, rate0)
        rep = fairness_report(pred, gold, groups)
        assert abs(rep.dp_gap - gap) <= 1e-12
        assert rep.positive_rate_per_group == (rate0, rate1)


def test_f1_hand_confusion_case():
    # 8 rows: tp=2, fp=1, fn=2, tn=3
    pred = np.array([1, 1, 1, -1, -1, -1, -1, -1])
    gold = np.array([1, 1, -1, 1, 1, -1, -1, -1])
    groups = np.array([0, 1, 0, 1, 0, 1, 0, 1])
    rep = fairness_report(pred, gold, groups)
    precision, recall = 2 / 3, 2 / 4
    assert rep.f1 == pytest.approx(2 * precision * recall / (precision + recall))
    assert rep.accuracy == pytest.approx(5 / 8)


def test_f1_zero_when_no_positive_predictions_or_gold():
    pred = -np.ones(4, dtype=int)
    gold = -np.ones(4, dtype=int)
    rep = fairness_report(pred, gold, np.array([0, 0, 1, 1]))
    assert rep.f1 == 0.0


def test_eo_undefined_when_group_has_no_positives():
    pred = np.array([1, -1, 1, -1])
    gold = np.array([1, 1, -1, -1])  # group 1 has no gold positives
    groups = np.array([0, 0, 1, 1])
    rep = fairness_report(pred, gold, groups)
    assert not rep.eo_defined
    assert math.isnan(rep.eo_gap)
    assert rep.to_dict()["eo_gap"] is None


def test_empty_group_rates_are_null():
    rep = fairness_report(np.array([1, -1]), np.array([1, -1]),
                          np.array([0, 0]))
    assert math.isnan(rep.per_group_accuracy[1])
    assert math.isnan(rep.dp_gap) and math.isnan(rep.eo_gap)
    assert rep.to_dict() == {
        "accuracy": 1.0, "f1": 1.0, "dp_gap": None, "eo_gap": None,
        "eo_defined": False, "per_group_accuracy": [1.0, None],
        "positive_rate_per_group": [0.5, None]}
    # over zero rows every rate is null; F1 keeps its 0.0 convention
    empty = np.array([], dtype=np.int64)
    assert fairness_report(empty, empty, empty).to_dict() == {
        "accuracy": None, "f1": 0.0, "dp_gap": None, "eo_gap": None,
        "eo_defined": False, "per_group_accuracy": [None, None],
        "positive_rate_per_group": [None, None]}


def test_non_pm1_predictions_rejected():
    with pytest.raises(ValidationError):
        fairness_report(np.array([1, 0]), np.array([1, -1]),
                        np.array([0, 1]))


def test_row_permutation_invariance():
    rng = np.random.default_rng(0)
    pred = rng.choice([-1, 1], 60)
    gold = rng.choice([-1, 1], 60)
    groups = np.tile([0, 1], 30)
    base = fairness_report(pred, gold, groups)
    perm = rng.permutation(60)
    shuffled = fairness_report(pred[perm], gold[perm], groups[perm])
    assert base == shuffled


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_gaps_symmetric_under_group_swap(seed):
    rng = np.random.default_rng(seed)
    pred = rng.choice([-1, 1], 40)
    gold = rng.choice([-1, 1], 40)
    groups = np.tile([0, 1], 20)
    a = fairness_report(pred, gold, groups)
    b = fairness_report(pred, gold, 1 - groups)
    assert a.dp_gap == pytest.approx(b.dp_gap)
    if a.eo_defined and b.eo_defined:
        assert a.eo_gap == pytest.approx(b.eo_gap)


def assert_same_report(got, expected):
    # to_dict maps an undefined eo gap (NaN) to None, so == can compare it
    assert got.to_dict() == expected.to_dict()
    assert type(got.accuracy) is float and type(got.f1) is float


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 25), data=st.data())
def test_report_matches_boolean_mean_oracle(n, data):
    def pm1():
        return np.array(data.draw(st.lists(st.sampled_from([-1, 1]),
                                           min_size=n, max_size=n)))

    pred, gold = pm1(), pm1()
    groups = np.array(data.draw(st.lists(st.sampled_from([0, 1]),
                                         min_size=n, max_size=n)))
    assert_same_report(fairness_report(pred, gold, groups),
                       fairness_oracle(pred, gold, groups))


# --------------------------------------------------------------------------
# lf_delta_report


def labelled(gold, groups) -> GroupedDataset:
    """A dataset holding ``gold`` and ``groups``; the report reads no
    features."""
    return GroupedDataset(np.zeros((len(gold), 1)), groups, gold)


def test_identical_matrices_zero_deltas():
    rng = np.random.default_rng(1)
    votes = rng.choice([-1, 1], size=(30, 3))
    wl = WeakLabelMatrix(votes)
    gold = rng.choice([-1, 1], 30)
    groups = np.tile([0, 1], 15)
    rows = lf_delta_report(wl, wl, labelled(gold, groups))
    assert len(rows) == 3
    for row in rows:
        for key, value in row["delta"].items():
            assert value is None or value == 0.0


def test_single_flip_changes_accuracy_by_one_over_n():
    n = 20
    gold = np.concatenate([np.ones(10, int), -np.ones(10, int)])
    before = np.column_stack([gold, gold, gold])
    after = before.copy()
    after[0, 0] = -after[0, 0]
    rows = lf_delta_report(WeakLabelMatrix(before), WeakLabelMatrix(after),
                           labelled(gold, np.tile([0, 1], 10)))
    assert rows[0]["delta"]["accuracy"] == pytest.approx(-1 / n)
    assert rows[1]["delta"]["accuracy"] == 0.0


def test_random_instance_matches_recomputation():
    rng = np.random.default_rng(2)
    before = rng.choice([-1, 1], size=(100, 4))
    after = rng.choice([-1, 1], size=(100, 4))
    gold = rng.choice([-1, 1], 100)
    groups = rng.integers(0, 2, 100)
    groups[:2] = [0, 1]
    rows = lf_delta_report(WeakLabelMatrix(before), WeakLabelMatrix(after),
                           labelled(gold, groups))
    for j, row in enumerate(rows):
        fresh = fairness_report(after[:, j], gold, groups)
        assert row["after"] == fresh
        delta = row["delta"]["accuracy"]
        assert delta == pytest.approx(
            fresh.accuracy - fairness_report(before[:, j], gold, groups).accuracy)


def test_abstain_rows_excluded_per_lf():
    gold = np.array([1, 1, -1, -1])
    groups = np.array([0, 1, 0, 1])
    before = np.array([[1], [0], [-1], [-1]])
    after = np.array([[1], [1], [0], [-1]])
    rows = lf_delta_report(WeakLabelMatrix(before), WeakLabelMatrix(after),
                           labelled(gold, groups))
    # only rows 0 and 3 are active in both -> both matrices perfect there
    assert rows[0]["before"].accuracy == 1.0
    assert rows[0]["after"].accuracy == 1.0


@st.composite
def delta_cases(draw):
    """Vote matrices with abstains, LFs silent in one group and gold
    labels that often leave a group without positives."""
    n, m = draw(st.integers(2, 24)), draw(st.integers(1, 5))

    def column(values):
        return draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))

    groups = np.array(column([0, 1]))
    gold = np.array(column(draw(st.sampled_from([[-1, 1], [-1, -1, 1]]))))
    before = np.array([column([-1, 0, 1]) for _ in range(m)]).T
    after = np.array([column([-1, 0, 1]) for _ in range(m)]).T
    for j in range(m):
        if draw(st.integers(0, 5)) == 0:  # silent on one group after repair
            after[groups == draw(st.sampled_from([0, 1])), j] = 0
    return before, after, gold, groups


@settings(max_examples=200, deadline=None)
@given(delta_cases())
def test_block_report_matches_per_lf_fairness_report(case):
    before, after, gold, groups = case
    names = [f"lf_{j}" for j in range(before.shape[1])]
    expected = []
    for j in range(before.shape[1]):
        # an LF with no such rows in a group has null rates there
        active = (before[:, j] != 0) & (after[:, j] != 0)
        expected.append([
            fairness_report(v[active, j], gold[active], groups[active])
            for v in (before, after)])
    rows = lf_delta_report(WeakLabelMatrix(before), WeakLabelMatrix(after),
                           labelled(gold, groups))
    assert [row["name"] for row in rows] == names
    for row, (rep_before, rep_after) in zip(rows, expected):
        assert_same_report(row["before"], rep_before)
        assert_same_report(row["after"], rep_after)
        for key, value in row["delta"].items():
            x, y = getattr(rep_after, key), getattr(rep_before, key)
            assert value == (x - y if math.isfinite(x) and math.isfinite(y)
                             else None)


def test_block_report_validates_gold_groups_and_votes_once():
    # the containers check gold, groups and votes; the report trusts them
    wl = WeakLabelMatrix(np.array([[1, 1], [-1, 0], [1, 1]]))
    ds = labelled(np.array([1, -1, 1]), np.array([1, 0, 1]))
    with pytest.raises(ValidationError, match="needs gold labels"):
        lf_delta_report(wl, wl, ds.without_labels())
    sub = wl.restrict_rows(np.array([True, True, False]))
    with pytest.raises(ValidationError,
                       match="^row-count mismatch: 3 feature rows vs 2 vote"):
        lf_delta_report(sub, sub, ds)
    with pytest.raises(ValidationError, match="illegal vote value 2"):
        lf_delta_report(wl, WeakLabelMatrix(np.array([[1, 1], [2, 0], [1, 1]])),
                        ds)
    # lf_1 votes on group 1 only: its group-0 rates are null
    row = lf_delta_report(wl, wl, ds)[1]
    assert row["after"].to_dict() == {
        "accuracy": 1.0, "f1": 1.0, "dp_gap": None, "eo_gap": None,
        "eo_defined": False, "per_group_accuracy": [None, 1.0],
        "positive_rate_per_group": [None, 1.0]}
    assert row["delta"] == {"accuracy": 0.0, "f1": 0.0, "dp_gap": None,
                            "eo_gap": None}


# --------------------------------------------------------------------------
# regime_profile


def test_all_correct_gives_flat_unit_curves():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(50, 2))
    prof = regime_profile(x, np.ones(50, bool), np.tile([0, 1], 25), [0, 3])
    for curve in prof.curves:
        assert all(acc == 1.0 for _, acc in curve)


def test_accurate_ball_center_selected():
    rng = np.random.default_rng(4)
    x = rng.uniform(-4, 4, size=(400, 2))
    x[0] = (0.0, 0.0)   # candidate inside the accurate ball
    x[1] = (3.9, 3.9)   # candidate far away
    correct = np.linalg.norm(x, axis=1) <= 1.0
    groups = np.tile([0, 1], 200)
    prof = regime_profile(x, correct, groups, [1, 0])
    assert prof.center_index == 0
    # accuracy decays once the neighborhood grows past the ball
    for curve in prof.curves:
        assert curve[0][1] >= curve[-1][1]


def test_single_candidate_always_selected():
    x = np.zeros((20, 1))
    prof = regime_profile(x, np.zeros(20, bool), np.tile([0, 1], 10), [7])
    assert prof.center_index == 7


def test_curve_distances_nondecreasing_and_final_is_group_accuracy():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(81, 3))
    correct = rng.random(81) < 0.7
    groups = rng.integers(0, 2, 81)
    groups[:2] = [0, 1]
    prof = regime_profile(x, correct, groups, [0, 5, 9])
    for k, curve in enumerate(prof.curves):
        dists = [d for d, _ in curve]
        assert dists == sorted(dists)
        assert curve[-1][1] == pytest.approx(correct[groups == k].mean())


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.integers(math.ceil(1 / NEIGHBORHOOD_FRAC), 300))
def test_curves_equal_the_per_stop_loop(seed, n):
    # the reference is the loop that took each stop's mean: equal floats
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 3, (n, 2)).astype(float)  # tied distances
    correct = rng.random(n) < rng.random()
    groups = rng.integers(0, 2, n)
    groups[:2] = [0, 1]
    prof = regime_profile(x, correct, groups, [0])
    dist = np.linalg.norm(x - x[0], axis=1)
    for k, curve in enumerate(prof.curves):
        n_k = int((groups == k).sum())
        order = np.lexsort((np.arange(n_k), dist[groups == k]))
        d_k, c_k = dist[groups == k][order], correct[groups == k][order]
        step = max(1, int(STEP_FRAC * n_k))
        want = []
        for stop in range(step, n_k + step, step):
            stop = min(stop, n_k)
            want.append((float(d_k[stop - 1]), float(c_k[:stop].mean())))
            if stop == n_k:
                break
        assert curve == tuple(want)


def test_tiny_neighborhood_errors():
    with pytest.raises(ValidationError):
        regime_profile(np.zeros((5, 1)), np.ones(5, bool),
                       np.array([0, 0, 0, 1, 1]), [0])


@pytest.mark.parametrize("center", [-1, 20, 1.5, True])
def test_candidate_outside_the_rows_is_named(center):
    x = np.arange(20.0)[:, None]
    with pytest.raises(ValidationError, match=f"got {center!r}"):
        regime_profile(x, np.ones(20, bool), np.tile([0, 1], 10), [0, center])


VOTES_2 = WeakLabelMatrix(np.array([[1, -1, 1], [1, 1, -1]]))
LABELLED_2 = GroupedDataset(np.zeros((2, 1)), [0, 1], [1, -1])


@pytest.mark.parametrize("call, message", [
    (lambda: fairness_report(np.ones(3), np.ones(2), np.zeros(3)),
     "pred, gold and groups must share one length"),
    (lambda: fairness_report(np.ones((2, 2)), np.ones((2, 2)),
                             np.zeros((2, 2))),
     "pred, gold and groups must share one length"),
    (lambda: lf_delta_report(VOTES_2, WeakLabelMatrix(np.ones((2, 2))),
                             LABELLED_2),
     "before/after vote shapes differ"),
    (lambda: regime_profile(np.zeros((3, 1)), np.ones(2, bool), np.zeros(3),
                            [0]),
     "X, correct_mask and groups are inconsistent"),
    (lambda: regime_profile(np.zeros(3), np.ones(3, bool), np.zeros(3), [0]),
     "X, correct_mask and groups are inconsistent"),
    (lambda: regime_profile(np.zeros((3, 1)), np.ones(3, bool),
                            np.array([0, 1, 1]), []),
     "candidate set must be non-empty"),
    (lambda: regime_profile(np.zeros((20, 1)), np.ones(20, bool),
                            np.zeros(20, int), [0]),
     "empty group 1"),
])
def test_metrics_argument_checks_are_one_line_errors(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message
