import itertools
import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otrelabel import (
    NumericalError,
    ValidationError,
    WeakLabelMatrix,
    end_model_objective,
    fit_label_model,
    infer_pseudolabels,
    predict,
    train_end_model,
)
from otrelabel import core, labelmodel
from otrelabel.labelmodel import NEWTON_MAX_ITER, NEWTON_TOL, _sigmoid
from helpers import (
    bayes_posterior_oracle,
    end_model_lbfgs_oracle,
    end_model_objective_oracle,
    sigmoid_oracle,
    standardized_gradient_oracle,
    train_end_model_newton_oracle,
    train_end_model_oracle,
)


# --------------------------------------------------------------------------
# label model


def test_zero_accuracy_gives_zero_weights():
    params = fit_label_model(np.array([0.0, 0.0, 0.0]))
    assert np.allclose(params.weights, 0.0)
    probs, labels = infer_pseudolabels(
        params, WeakLabelMatrix([[1, -1, 1], [1, 1, 1]]))
    assert np.allclose(probs, 0.5)
    assert np.all(labels == 1)  # tie rule


def test_hand_computed_weights():
    params = fit_label_model(np.array([0.8, 0.6, 0.4]), 0.5)
    expected = [0.5 * math.log(9.0), 0.5 * math.log(4.0),
                0.5 * math.log(7.0 / 3.0)]
    assert np.allclose(params.weights, expected, rtol=1e-12)
    assert params.prior == 0.0


def test_extreme_accuracy_clamped_to_finite_weight():
    params = fit_label_model(np.array([0.9999]))
    assert np.isfinite(params.weights).all()
    assert params.weights[0] == pytest.approx(
        0.5 * math.log(1.999 / 0.001))


def test_all_abstain_returns_prior():
    params = fit_label_model(np.array([0.7, 0.5]), class_balance=0.5)
    probs, labels = infer_pseudolabels(params, WeakLabelMatrix([[0, 0]]))
    assert probs[0] == pytest.approx(0.5)
    assert labels[0] == 1


def test_single_lf_reduces_to_sigmoid():
    params = fit_label_model(np.array([0.6]), class_balance=0.5)
    w = params.weights[0]
    probs, _ = infer_pseudolabels(params, WeakLabelMatrix([[1], [-1]]))
    assert probs[0] == pytest.approx(1 / (1 + math.exp(-2 * w)))
    assert probs[1] == pytest.approx(1 / (1 + math.exp(2 * w)))


def test_sigmoid_bitwise_equal_to_split_by_sign_oracle():
    rng = np.random.default_rng(11)
    edges = [0.0, -0.0, 709.0, -709.0, 745.0, -745.0, 1e308, -1e308,
             np.inf, -np.inf, np.nan, 5e-324, -5e-324]
    z = np.concatenate([edges, rng.standard_normal(10_000),
                        rng.standard_normal(10_000) * 40.0,
                        rng.uniform(-800.0, 800.0, 10_000)])
    got, expected = _sigmoid(z), sigmoid_oracle(z)
    assert got.dtype == np.float64 and got.shape == z.shape
    # NaN maps to NaN; its sign bit is not part of the contract
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan) and nan.sum() == 1
    assert got[~nan].tobytes() == expected[~nan].tobytes()


def test_posterior_matches_exact_bayes_enumeration():
    accs = [0.7, 0.55, 0.9]
    balance = 0.3
    params = fit_label_model(np.array(accs), balance)
    outcomes = np.array(list(itertools.product([-1, 1], repeat=3)))
    probs, _ = infer_pseudolabels(params, WeakLabelMatrix(outcomes))
    for row, p in zip(outcomes, probs):
        assert p == pytest.approx(
            bayes_posterior_oracle(row, accs, balance), abs=1e-12)


def test_posterior_with_abstains_matches_bayes():
    accs = [0.8, 0.4]
    params = fit_label_model(np.array(accs), 0.6)
    rows = np.array([[1, 0], [0, -1], [0, 0], [-1, 1]])
    probs, _ = infer_pseudolabels(params, WeakLabelMatrix(rows))
    for row, p in zip(rows, probs):
        assert p == pytest.approx(
            bayes_posterior_oracle(row, accs, 0.6), abs=1e-12)


def test_inference_invariant_under_column_permutation():
    rng = np.random.default_rng(0)
    votes = rng.choice([-1, 0, 1], size=(50, 4))
    accs = np.array([0.9, 0.6, 0.3, 0.1])
    perm = np.array([2, 0, 3, 1])
    p1, _ = infer_pseudolabels(
        fit_label_model(np.array(accs)), WeakLabelMatrix(votes))
    p2, _ = infer_pseudolabels(
        fit_label_model(np.array(accs[perm])),
        WeakLabelMatrix(votes[:, perm]))
    assert np.allclose(p1, p2, atol=1e-14)


def wide_posterior_inputs(seed, n=400, m=60):
    rng = np.random.default_rng(seed)
    votes = rng.choice([-1, 0, 1], size=(n, m))
    return fit_label_model(rng.uniform(-0.99, 0.99, m), 0.4), votes


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_posterior_bits_do_not_depend_on_column_order(seed):
    params, votes = wide_posterior_inputs(seed)
    want, _ = infer_pseudolabels(params, WeakLabelMatrix(votes))
    for perm in np.random.default_rng(seed).permuted(
            np.tile(np.arange(params.m), (5, 1)), axis=1):
        got, _ = infer_pseudolabels(
            labelmodel.LabelModelParams(params.weights[perm], params.prior),
            WeakLabelMatrix(votes[:, perm]))
        assert np.array_equal(got, want)


def test_posterior_bits_do_not_depend_on_row_blocks(monkeypatch):
    params, votes = wide_posterior_inputs(4)
    wl = WeakLabelMatrix(votes)
    want, _ = infer_pseudolabels(params, wl)
    calls = []
    row_blocks = labelmodel.row_blocks

    def recording(n, row_bytes):
        calls.append(len(row_blocks(n, row_bytes)))
        return row_blocks(n, row_bytes)

    monkeypatch.setattr(labelmodel, "row_blocks", recording)
    monkeypatch.setattr(core, "ROW_BLOCK_BYTES", 3 * 8 * params.m)
    got, _ = infer_pseudolabels(params, wl)
    assert calls == [math.ceil(len(votes) / 3)]
    assert np.array_equal(got, want)


def exact_vote_scores(weights, votes):
    """Each row's vote sum in fractions from the weights rounded to q 2^-e,
    then rounded once to float.  With max |w| in [2^(k-1), 2^k) and
    2^c >= m, e = 61 - c - k, so that m max |q| <= 2^61."""
    m = len(weights)
    top = max(abs(Fraction(w)) for w in weights.tolist())
    e = 0
    if top:
        k = c = 0
        while top >= Fraction(2) ** k:
            k += 1
        while top < Fraction(2) ** (k - 1):
            k -= 1
        while 2**c < m:
            c += 1
        e = 61 - c - k
    q = [round(Fraction(w) * Fraction(2) ** e) for w in weights.tolist()]
    assert m * max(map(abs, q)) <= 2**61
    return np.array([float(sum(v * qj for v, qj in zip(row, q))
                           / Fraction(2) ** e) for row in votes.tolist()])


@pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300])
def test_vote_scores_equal_the_exact_sum_of_the_rounded_weights(scale):
    params, votes = wide_posterior_inputs(5, n=200, m=37)
    weights = params.weights * scale
    got = labelmodel._vote_scores(weights, WeakLabelMatrix(votes).votes)
    assert np.array_equal(got, exact_vote_scores(weights, votes))
    assert np.allclose(got, votes @ weights, rtol=1e-12, atol=0)


def test_vote_scores_of_equal_maximal_weights_do_not_overflow():
    # every row sum is m max |q|, the bound itself
    for m in (1, 2, 3, 64, 1000):
        weights = np.full(m, 3.8)
        votes = np.ones((2, m), np.int8)
        votes[1] = -1
        got = labelmodel._vote_scores(weights, votes)
        assert np.array_equal(got, exact_vote_scores(weights, votes))
        assert np.allclose(got, [3.8 * m, -3.8 * m], rtol=1e-15, atol=0)


@pytest.mark.parametrize("weights", [
    [1e-300, -2e-300, 3e-300, 5e-324], [1e300, -1e300, 5e299, 1.0]],
    ids=["tiny", "huge"])
def test_user_built_weights_neither_overflow_nor_warn(weights):
    # pytest turns every warning into an error; the clamp in
    # fit_label_model does not bound a user's LabelModelParams
    params = labelmodel.LabelModelParams(np.array(weights), 0.0)
    votes = np.array(list(itertools.product([-1, 0, 1], repeat=4)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        probs, hard = infer_pseudolabels(params, WeakLabelMatrix(votes))
        scores = labelmodel._vote_scores(params.weights,
                                         WeakLabelMatrix(votes).votes)
    assert np.array_equal(scores, exact_vote_scores(params.weights, votes))
    assert np.isfinite(probs).all() and ((probs >= 0) & (probs <= 1)).all()
    assert np.array_equal(hard, np.where(probs >= 0.5, 1, -1))


@settings(max_examples=30, deadline=None)
@given(st.floats(0.0, 0.9), st.floats(0.01, 0.5))
def test_monotone_in_positive_vote_weight(acc, bump):
    votes = WeakLabelMatrix([[1, 1, -1]])
    base = fit_label_model(np.array([acc, 0.5, 0.5]))
    more = fit_label_model(np.array([min(acc + bump, 0.999), 0.5, 0.5]))
    p_base, _ = infer_pseudolabels(base, votes)
    p_more, _ = infer_pseudolabels(more, votes)
    assert p_more[0] >= p_base[0] - 1e-15


@pytest.mark.parametrize("accuracies, message", [
    (np.full((3, 2), 0.5),
     r"^accuracies must be a 1-D array .*, got shape \(3, 2\)$"),
    (np.array([0.5, 1.5, 0.2]), r"in \[-1 - 1e-12, 1 \+ 1e-12\], got 1\.5$"),
    (np.array([0.5, -1 - 1e-9, 0.2]),
     r"in \[-1 - 1e-12, 1 \+ 1e-12\], got -1\.000000001$"),
])
def test_label_model_rejects_bad_accuracies(accuracies, message):
    with pytest.raises(ValidationError, match=message):
        fit_label_model(accuracies)


def test_label_model_accepts_accuracies_at_the_bounds():
    params = fit_label_model(np.array([1.0, -1.0, 1 + 1e-13]))
    assert np.isfinite(params.weights).all()


# --------------------------------------------------------------------------
# end model


def test_separable_blobs_reach_high_training_accuracy():
    rng = np.random.default_rng(1)
    x = np.vstack([rng.normal(-3.0, 1.0, size=(100, 2)),
                   rng.normal(3.0, 1.0, size=(100, 2))])
    target = np.repeat([0.0, 1.0], 100)
    model = train_end_model(x, target, l2=1e-4)
    _, labels = predict(model, x)
    gold = np.repeat([-1, 1], 100)
    assert (labels == gold).mean() >= 0.99


def test_uninformative_targets_keep_zero_coefficients():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(50, 3))
    model = train_end_model(x, np.full(50, 0.5), l2=0.1)
    assert np.abs(model.coefficients).max() <= 1e-6


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 3))
    t = rng.random(40)
    l2 = 0.05
    for _ in range(10):
        coef = rng.normal(size=4)
        _, grad = end_model_objective(coef, x, t, l2)
        fd = np.empty_like(coef)
        h = 1e-5
        for i in range(coef.size):
            up, down = coef.copy(), coef.copy()
            up[i] += h
            down[i] -= h
            fd[i] = (end_model_objective(up, x, t, l2)[0]
                     - end_model_objective(down, x, t, l2)[0]) / (2 * h)
        assert np.abs(grad - fd).max() / max(np.abs(grad).max(), 1e-12) <= 1e-6


def test_training_is_deterministic():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(30, 2))
    t = rng.random(30)
    m1 = train_end_model(x, t, l2=1e-3)
    m2 = train_end_model(x, t, l2=1e-3)
    assert np.array_equal(m1.coefficients, m2.coefficients)
    assert m1.training_meta == m2.training_meta


def test_divergence_raises_numerical_error(monkeypatch):
    # a run still above the tolerance at the iteration cap
    rng = np.random.default_rng(6)
    x = rng.normal(size=(40, 2))
    monkeypatch.setattr(labelmodel, "NEWTON_MAX_ITER", 1)
    with pytest.raises(NumericalError, match=(
            r"cap of 1 Newton iterations: gradient norm 0\.0\d+$")):
        train_end_model(x, (x[:, 0] > 0) * 0.8 + 0.1, l2=1e-4)


def test_divergence_epoch_and_message_match_oracle(monkeypatch):
    # an unregularized separable fit needs 23 iterations; a cap of 5 stops
    # the trainer and the dense oracle at the same iterate
    x = np.array([[1.0], [-1.0], [3.0]])
    t = np.array([1.0, 0.0, 1.0])
    assert train_end_model(x, t, l2=0.0).training_meta["iterations"] == 23
    assert train_end_model_newton_oracle(x, t, l2=0.0)[0].training_meta[
        "iterations"] == 23
    with pytest.raises(NumericalError) as oracle:
        train_end_model_newton_oracle(x, t, l2=0.0, max_iter=5)
    assert "cap of 5 Newton iterations: gradient norm " in str(oracle.value)
    monkeypatch.setattr(labelmodel, "NEWTON_MAX_ITER", 5)
    with pytest.raises(NumericalError) as got:
        train_end_model(x, t, l2=0.0)
    assert str(got.value) == str(oracle.value)


def test_newton_halves_a_step_that_raises_the_loss(monkeypatch):
    # heavy-tailed features and nearly saturated soft targets: a seed
    # search over such 9 x 3 problems found one whose full step overshoots
    rng = np.random.default_rng(161)
    x = rng.standard_cauchy(size=(9, 3))
    with np.errstate(over="ignore"):
        t = 1.0 / (1.0 + np.exp(-(x @ (5.0 * rng.normal(size=3)))))
    trials, iterates = [], []  # trials: (step, loss); step 0 is the start
    objective, hessian = labelmodel.end_model_objective, labelmodel._hessian

    def objective_spy(coef, Xs, targets, l2):
        out = objective(coef, Xs, targets, l2)
        trials.append((len(iterates), out[0]))
        return out

    def hessian_spy(Xs, coef, l2):
        iterates.append(trials[-1][1])  # the loss at the step's start
        return hessian(Xs, coef, l2)

    monkeypatch.setattr(labelmodel, "end_model_objective", objective_spy)
    monkeypatch.setattr(labelmodel, "_hessian", hessian_spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = train_end_model(x, t)
        want, want_losses = train_end_model_newton_oracle(x, t)
    # a trial above its step's start was halved
    assert any(loss > iterates[step - 1] for step, loss in trials if step)
    assert len(trials) > len(iterates) + 1
    iterates.append(model.training_meta["final_objective"])
    assert np.all(np.diff(iterates) <= 0.0)
    assert np.allclose(iterates, want_losses, rtol=1e-10, atol=0.0)
    assert np.allclose(model.coefficients, want.coefficients, rtol=1e-9,
                       atol=1e-12)


def _feature_case(seed, n, d, log_scale):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d)) * 10.0 ** rng.integers(0, log_scale + 1,
                                                        size=d)
    x[:, rng.integers(d)] = rng.choice([x[0, 0], 0.0, 7.3])  # constant
    t = rng.choice([rng.uniform(size=n), rng.integers(0, 2, n) * 1.0])
    return x, t


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 4),
       st.integers(0, 12), st.sampled_from([1e-4, 0.1, 1.0, 30.0]))
def test_training_matches_loss_every_epoch_oracle(seed, n, d, log_scale, l2):
    # the loss at every Newton iterate, read where the trainer builds the
    # iterate's Hessian, against the dense oracle's iterates
    x, t = _feature_case(seed, n, d, log_scale)
    losses = []
    hessian = labelmodel._hessian

    def spy(Xs, coef, l2):
        losses.append(end_model_objective_oracle(coef, Xs, t, l2)[0])
        return hessian(Xs, coef, l2)

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        mp.setattr(labelmodel, "_hessian", spy)
        warnings.simplefilter("error")
        model = train_end_model(x, t, l2=l2)
        want, want_losses = train_end_model_newton_oracle(x, t, l2=l2)
    losses.append(model.training_meta["final_objective"])
    assert model.training_meta["iterations"] == len(want_losses) - 1
    assert np.allclose(losses, want_losses, rtol=1e-10, atol=0.0)
    # only the step that meets the tolerance may raise the loss, by rounding
    assert np.all(np.diff(losses[:-1]) <= 0.0)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 4),
       st.integers(0, 12), st.sampled_from([1e-4, 0.1, 1.0, 30.0]))
def test_training_reaches_the_optimum_property(seed, n, d, log_scale, l2):
    x, t = _feature_case(seed, n, d, log_scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = train_end_model(x, t, l2=l2)
    assert model.training_meta["final_gradient_norm"] <= NEWTON_TOL
    # the oracle's gradient repeats the intercept's component for a
    # constant column whose mean is off by an ulp: up to sqrt(2) times more
    grad = standardized_gradient_oracle(model.coefficients, x, t, l2)
    assert np.linalg.norm(grad) <= 1.5 * NEWTON_TOL


@pytest.mark.parametrize("l2", [1e-4, 0.1])
def test_training_agrees_with_lbfgs_reference(l2):
    rng = np.random.default_rng(8)
    x = rng.normal(size=(300, 3)) * [1.0, 50.0, 0.02] + [0.0, 7.0, -3.0]
    t = 1.0 / (1.0 + np.exp(-(x[:, 0] + 0.05 * x[:, 1]
                              + rng.normal(size=300))))
    model = train_end_model(x, t, l2=l2)
    grad = standardized_gradient_oracle(model.coefficients, x, t, l2)
    assert np.linalg.norm(grad) <= NEWTON_TOL
    want = end_model_lbfgs_oracle(x, t, l2)
    assert np.allclose(model.coefficients, want, rtol=1e-7, atol=1e-9)


@pytest.mark.parametrize("scale", [0.1, 1.0, 1e3])
def test_objective_bitwise_equal_to_frozen_oracle(scale):
    # at scale 1e3 most scores lie beyond +-745, where exp(-|z|) is +0
    rng = np.random.default_rng(21)
    x = rng.normal(size=(500, 4))
    t = rng.uniform(size=500)
    for _ in range(5):
        coef = rng.normal(size=5) * scale
        loss, grad = end_model_objective(coef, x, t, 1e-3)
        want_loss, want_grad = end_model_objective_oracle(coef, x, t, 1e-3)
        assert loss == want_loss
        assert np.array_equal(grad, want_grad)


def bench_sized_fixture():
    # the linear_k1 end model's shape: 12,000 rows, 8 shifted Gaussian
    # features, soft targets
    rng = np.random.default_rng(31)
    x = rng.normal(size=(12_000, 8)) + rng.normal(scale=3.0, size=8)
    t = 1.0 / (1.0 + np.exp(-(x[:, 0] - x[:, 0].mean()
                              + rng.normal(size=12_000))))
    return x, t


@pytest.mark.parametrize("l2", [1e-4, 0.0], ids=["defaults", "unregularized"])
def test_bench_sized_training_beats_gd_oracle_without_warnings(l2):
    x, t = bench_sized_fixture()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = train_end_model(x, t, l2=l2)
        want = train_end_model_oracle(x, t, l2=l2)
    meta = got.training_meta
    assert meta.keys() == {"iterations", "final_objective",
                           "final_gradient_norm"}
    assert meta["final_gradient_norm"] <= NEWTON_TOL
    assert meta["final_objective"] <= want.training_meta["final_objective"]
    assert 1 <= meta["iterations"] <= NEWTON_MAX_ITER


@pytest.mark.parametrize("hard", [False, True], ids=["defaults", "saturated"])
def test_bench_sized_training_equals_oracle_without_warnings(hard):
    # saturated: the soft targets rounded to 0 or 1
    x, t = bench_sized_fixture()
    if hard:
        t = np.round(t)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = train_end_model(x, t)
        want, _ = train_end_model_newton_oracle(x, t)
    assert got.training_meta["iterations"] == want.training_meta["iterations"]
    assert got.training_meta["final_objective"] == pytest.approx(
        want.training_meta["final_objective"], rel=1e-12)
    assert np.allclose(got.coefficients, want.coefficients, rtol=1e-9,
                       atol=1e-12)


def test_training_peak_memory_stays_near_two_feature_copies():
    # a standardized copy of X plus row blocks: an n x (d + 1) design
    # matrix for the Hessian would add another copy and more
    x, t = bench_sized_fixture()
    tracemalloc.start()
    try:
        train_end_model(x, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * x.nbytes


def test_non_integer_epochs_rejected():
    # epochs went with gradient descent: an old caller's value, integer or
    # not, fails as an unknown argument instead of being ignored
    for epochs in (10.5, 10.0, True, "10", np.int64(3), 3):
        with pytest.raises(TypeError, match="'epochs'"):
            train_end_model(np.zeros((2, 1)), np.array([0.5, 0.5]),
                            epochs=epochs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_features_rejected(bad):
    x = np.random.default_rng(9).normal(size=(50, 3))
    x[17, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="^X must be a 2-D array "
                           f"of finite numbers, got {bad}$"):
            train_end_model(x, np.full(50, 0.3))


@pytest.mark.parametrize("l2", [0.0, 1e-4])
@pytest.mark.parametrize("targets", ["soft", "separable"])
def test_constant_column_keeps_a_zero_coefficient(targets, l2):
    # 7.3's mean over 500 rows misses it by an ulp, so std() is not 0
    rng = np.random.default_rng(10)
    informative = rng.normal(size=(500, 2))
    x = np.column_stack([informative[:, 0], np.full(500, 7.3),
                         informative[:, 1]])
    t = (1.0 / (1.0 + np.exp(-informative @ [2.0, -1.0])) if targets == "soft"
         else (informative[:, 0] > 0) * 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            model = train_end_model(x, t, l2=l2)
        except NumericalError as exc:
            # the optimum of an unregularized separable fit is at infinity
            assert targets == "separable" and l2 == 0.0
            assert re.search(r"cap of 50 Newton iterations: gradient norm "
                             r"\S+$", str(exc))
            return
        reduced = train_end_model(informative, t, l2=l2)
    assert model.coefficients[1] == 0.0
    assert np.all(np.isfinite(model.coefficients))
    assert model.training_meta["final_gradient_norm"] <= NEWTON_TOL
    assert np.allclose(model.coefficients[[0, 2, 3]], reduced.coefficients,
                       rtol=1e-9, atol=1e-12)


def test_training_insensitive_to_feature_units():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(80, 2))
    t = (x[:, 0] > 0).astype(float)
    rescaled = x * np.array([1000.0, 0.01]) + np.array([50.0, -7.0])
    m1 = train_end_model(x, t, l2=1e-4)
    m2 = train_end_model(rescaled, t, l2=1e-4)
    p1, _ = predict(m1, x)
    p2, _ = predict(m2, rescaled)
    assert np.allclose(p1, p2, atol=1e-9)


def test_training_meta_recorded():
    # all-zero features leave only the intercept to fit
    model = train_end_model(np.zeros((5, 2)), np.array([0.1, 0.2, 0.9, 0.4,
                                                        0.6]), l2=0.0)
    meta = model.training_meta
    assert meta.keys() == {"iterations", "final_objective",
                           "final_gradient_norm"}
    assert 1 <= meta["iterations"] <= NEWTON_MAX_ITER
    assert math.isfinite(meta["final_objective"])
    assert meta["final_gradient_norm"] <= NEWTON_TOL
    assert np.array_equal(model.coefficients[:2], [0.0, 0.0])
    assert _sigmoid(model.coefficients[2:]) == pytest.approx(0.44)


def test_predict_zero_model_gives_half():
    model = train_end_model(np.zeros((4, 2)), np.full(4, 0.5), l2=0.0)
    probs, labels = predict(model, np.array([[5.0, -1.0]]))
    assert probs[0] == pytest.approx(0.5)
    assert labels[0] == 1


def test_predict_hand_values():
    from otrelabel import EndModel

    model = EndModel(np.array([1.0, 0.0]), {})
    probs, _ = predict(model, np.array([[0.0], [1.0], [-2.0]]))
    expected = [0.5, 1 / (1 + math.exp(-1)), 1 / (1 + math.exp(2))]
    assert np.allclose(probs, expected, rtol=1e-12)


def test_predict_dimension_mismatch():
    model = train_end_model(np.zeros((4, 2)), np.full(4, 0.5), l2=0.0)
    with pytest.raises(ValidationError):
        predict(model, np.zeros((3, 5)))


def test_bad_targets_rejected():
    with pytest.raises(ValidationError):
        train_end_model(np.zeros((2, 1)), np.array([0.5, 1.5]))


def test_nan_targets_rejected():
    with pytest.raises(ValidationError, match=r"^pseudo_probs must be a "
                       r"length-2 array of finite numbers in \[0, 1\], "
                       r"got nan$"):
        train_end_model(np.zeros((2, 1)), np.array([0.5, np.nan]))


@pytest.mark.parametrize("name", ["l2"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_hyperparameters_rejected(value, name):
    with pytest.raises(ValidationError,
                       match=f"^{name} must be a finite number >= 0, got "):
        train_end_model(np.array([[0.0], [1.0]]), np.array([0.2, 0.8]),
                        **{name: value})


@pytest.mark.parametrize("call, message", [
    (lambda: labelmodel.LabelModelParams(np.ones((2, 2)), 0.0),
     "weights must be a 1-D array of finite numbers, got shape (2, 2)"),
    (lambda: labelmodel.LabelModelParams(np.array([np.nan]), 0.0),
     "weights must be a 1-D array of finite numbers, got nan"),
    (lambda: labelmodel.LabelModelParams(np.ones(2), math.inf),
     "prior must be a finite number, got inf"),
    (lambda: labelmodel.EndModel(np.ones((2, 2)), {}),
     "coefficients must be a 1-D array of finite numbers, got shape (2, 2)"),
    (lambda: labelmodel.EndModel(np.array([np.inf]), {}),
     "coefficients must be a 1-D array of finite numbers, got inf"),
    (lambda: fit_label_model(np.full(3, 0.5), 1.0),
     "class_balance must be a finite number in (0, 1), got 1.0"),
    (lambda: fit_label_model(np.array([math.nan, 0.5])),
     "accuracies must be a 1-D array of finite numbers "
     "in [-1 - 1e-12, 1 + 1e-12], got nan"),
    (lambda: infer_pseudolabels(fit_label_model(np.full(2, 0.5)),
                                WeakLabelMatrix(np.ones((2, 3)))),
     "label model has 2 weights but matrix has 3 LFs"),
    (lambda: train_end_model(np.zeros(3), np.full(3, 0.5)),
     "X must be a 2-D array of finite numbers, got shape (3,)"),
    (lambda: train_end_model(np.zeros((0, 2)), np.zeros(0)),
     "X must have at least 1 row, got 0"),
    (lambda: train_end_model(np.zeros((3, 2)), np.full(2, 0.5)),
     "pseudo_probs must be a length-3 array of finite numbers in [0, 1], "
     "got shape (2,)"),
    (lambda: train_end_model(np.zeros((3, 2)), np.full(3, 0.5), l2=True),
     "l2 must be a finite number >= 0, got True"),
    (lambda: predict(labelmodel.EndModel(np.array([1.0, 0.0]), {}),
                     [[np.nan]]),
     "X must be a (n, 1) array of finite numbers, got nan"),
    (lambda: predict(labelmodel.EndModel(np.array([1.0, 0.0]), {}),
                     [[0.0], [np.inf]]),
     "X must be a (n, 1) array of finite numbers, got inf"),
])
def test_labelmodel_argument_checks_are_one_line_errors(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message
