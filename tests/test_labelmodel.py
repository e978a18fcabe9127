import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otrelabel import (
    AccuracyEstimate,
    NumericalError,
    ValidationError,
    WeakLabelMatrix,
    end_model_objective,
    fit_label_model,
    infer_pseudolabels,
    predict,
    train_end_model,
)
from otrelabel.labelmodel import _sigmoid
from helpers import (
    bayes_posterior_oracle,
    end_model_objective_oracle,
    sigmoid_oracle,
    train_end_model_oracle,
)


def make_estimate(global_acc):
    g = np.asarray(global_acc, dtype=float)
    return AccuracyEstimate(g, np.column_stack([g, g]))


# --------------------------------------------------------------------------
# label model


def test_zero_accuracy_gives_zero_weights():
    params = fit_label_model(make_estimate([0.0, 0.0, 0.0]))
    assert np.allclose(params.weights, 0.0)
    probs, labels = infer_pseudolabels(
        params, WeakLabelMatrix([[1, -1, 1], [1, 1, 1]]))
    assert np.allclose(probs, 0.5)
    assert np.all(labels == 1)  # tie rule


def test_hand_computed_weights():
    params = fit_label_model(make_estimate([0.8, 0.6, 0.4]), 0.5)
    expected = [0.5 * math.log(9.0), 0.5 * math.log(4.0),
                0.5 * math.log(7.0 / 3.0)]
    assert np.allclose(params.weights, expected, rtol=1e-12)
    assert params.prior == 0.0


def test_extreme_accuracy_clamped_to_finite_weight():
    params = fit_label_model(make_estimate([0.9999]))
    assert np.isfinite(params.weights).all()
    assert params.weights[0] == pytest.approx(
        0.5 * math.log(1.999 / 0.001))


def test_all_abstain_returns_prior():
    params = fit_label_model(make_estimate([0.7, 0.5]), class_balance=0.5)
    probs, labels = infer_pseudolabels(params, WeakLabelMatrix([[0, 0]]))
    assert probs[0] == pytest.approx(0.5)
    assert labels[0] == 1


def test_single_lf_reduces_to_sigmoid():
    params = fit_label_model(make_estimate([0.6]), class_balance=0.5)
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
    params = fit_label_model(make_estimate(accs), balance)
    outcomes = np.array(list(itertools.product([-1, 1], repeat=3)))
    probs, _ = infer_pseudolabels(params, WeakLabelMatrix(outcomes))
    for row, p in zip(outcomes, probs):
        assert p == pytest.approx(
            bayes_posterior_oracle(row, accs, balance), abs=1e-12)


def test_posterior_with_abstains_matches_bayes():
    accs = [0.8, 0.4]
    params = fit_label_model(make_estimate(accs), 0.6)
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
        fit_label_model(make_estimate(accs)), WeakLabelMatrix(votes))
    p2, _ = infer_pseudolabels(
        fit_label_model(make_estimate(accs[perm])),
        WeakLabelMatrix(votes[:, perm]))
    assert np.allclose(p1, p2, atol=1e-14)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.0, 0.9), st.floats(0.01, 0.5))
def test_monotone_in_positive_vote_weight(acc, bump):
    votes = WeakLabelMatrix([[1, 1, -1]])
    base = fit_label_model(make_estimate([acc, 0.5, 0.5]))
    more = fit_label_model(make_estimate([min(acc + bump, 0.999), 0.5, 0.5]))
    p_base, _ = infer_pseudolabels(base, votes)
    p_more, _ = infer_pseudolabels(more, votes)
    assert p_more[0] >= p_base[0] - 1e-15


# --------------------------------------------------------------------------
# end model


def test_separable_blobs_reach_high_training_accuracy():
    rng = np.random.default_rng(1)
    x = np.vstack([rng.normal(-3.0, 1.0, size=(100, 2)),
                   rng.normal(3.0, 1.0, size=(100, 2))])
    target = np.repeat([0.0, 1.0], 100)
    model = train_end_model(x, target, epochs=800, lr=0.5, l2=1e-4)
    _, labels = predict(model, x)
    gold = np.repeat([-1, 1], 100)
    assert (labels == gold).mean() >= 0.99


def test_uninformative_targets_keep_zero_coefficients():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(50, 3))
    model = train_end_model(x, np.full(50, 0.5), epochs=200, lr=0.3, l2=0.1)
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
    m1 = train_end_model(x, t, epochs=50, lr=0.2, l2=1e-3)
    m2 = train_end_model(x, t, epochs=50, lr=0.2, l2=1e-3)
    assert np.array_equal(m1.coefficients, m2.coefficients)


def test_divergence_raises_numerical_error():
    # lr * l2 > 2 makes the ridge term a geometric amplifier
    x = np.array([[1.0], [-1.0]])
    with pytest.raises(NumericalError):
        train_end_model(x, np.array([0.9, 0.5]), epochs=500, lr=100.0,
                        l2=0.1)


def _outcome(train, *args, **kwargs):
    try:
        model = train(*args, **kwargs)
    except (NumericalError, ValidationError) as exc:
        return type(exc), str(exc)
    return model.coefficients, model.training_meta


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 4),
       st.integers(0, 300), st.integers(1, 200), st.integers(-3, 5),
       st.sampled_from([0.0, 1e-4, 0.1, 1.0, 30.0]))
def test_training_matches_loss_every_epoch_oracle(seed, n, d, log_scale,
                                                  epochs, log_lr, l2):
    # large lr * l2 diverges geometrically, at any epoch up to ~200;
    # feature scales up to 1e300 overflow the standardisation
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d)) * 10.0 ** rng.integers(0, log_scale + 1,
                                                        size=d)
    x[:, rng.integers(d)] = rng.choice([x[0, 0], 0.0])  # constant column
    t = rng.choice([rng.uniform(size=n), rng.integers(0, 2, n) * 1.0])
    lr = 10.0 ** log_lr
    got = _outcome(train_end_model, x, t, epochs=epochs, lr=lr, l2=l2)
    want = _outcome(train_end_model_oracle, x, t, epochs=epochs, lr=lr,
                    l2=l2)
    if isinstance(want[0], type):
        assert got == want
    else:
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]


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


@pytest.mark.parametrize("hyper", [{}, {"lr": 1e4, "l2": 0.0}],
                         ids=["defaults", "saturated"])
def test_bench_sized_training_equals_oracle_without_warnings(hyper):
    # the linear_k1 end model's shape: 12,000 rows, 8 shifted Gaussian
    # features, soft targets
    rng = np.random.default_rng(31)
    x = rng.normal(size=(12_000, 8)) + rng.normal(scale=3.0, size=8)
    t = 1.0 / (1.0 + np.exp(-(x[:, 0] - x[:, 0].mean()
                              + rng.normal(size=12_000))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = train_end_model(x, t, **hyper)
        want = train_end_model_oracle(x, t, **hyper)
    assert np.array_equal(got.coefficients, want.coefficients)
    assert got.training_meta == want.training_meta
    scores = x @ got.coefficients[:-1] + got.coefficients[-1]
    if hyper:  # exp(-|z|) is +0 on these rows, the select picks 0 or 1
        assert scores.min() < -745.0 and scores.max() > 745.0
    else:
        assert np.abs(scores).max() < 745.0


def test_non_integer_epochs_rejected():
    for epochs in (10.5, 10.0, True, "10"):
        with pytest.raises(ValidationError, match="epochs must be an integer"):
            train_end_model(np.zeros((2, 1)), np.array([0.5, 0.5]),
                            epochs=epochs)
    model = train_end_model(np.zeros((2, 1)), np.array([0.5, 0.5]),
                            epochs=np.int64(3))
    assert model.training_meta["iterations"] == 3


def test_divergence_epoch_and_message_match_oracle():
    x = np.array([[1.0], [-1.0], [3.0]])
    t = np.array([0.9, 0.5, 0.1])
    with pytest.raises(NumericalError) as oracle:
        train_end_model_oracle(x, t, epochs=500, lr=100.0, l2=0.1)
    # |1 - lr * l2| = 9: the ridge term overflows w.w after 162 epochs
    assert "at epoch 162 " in str(oracle.value)
    with pytest.raises(NumericalError) as got:
        train_end_model(x, t, epochs=500, lr=100.0, l2=0.1)
    assert str(got.value) == str(oracle.value)


def test_training_insensitive_to_feature_units():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(80, 2))
    t = (x[:, 0] > 0).astype(float)
    rescaled = x * np.array([1000.0, 0.01]) + np.array([50.0, -7.0])
    m1 = train_end_model(x, t, epochs=300, lr=0.5, l2=1e-4)
    m2 = train_end_model(rescaled, t, epochs=300, lr=0.5, l2=1e-4)
    p1, _ = predict(m1, x)
    p2, _ = predict(m2, rescaled)
    assert np.allclose(p1, p2, atol=1e-9)


def test_training_meta_recorded():
    model = train_end_model(np.zeros((5, 2)), np.full(5, 0.5),
                            epochs=7, lr=0.1, l2=0.0)
    assert model.training_meta["iterations"] == 7
    assert model.training_meta["learning_rate"] == 0.1
    assert math.isfinite(model.training_meta["final_objective"])


def test_predict_zero_model_gives_half():
    model = train_end_model(np.zeros((4, 2)), np.full(4, 0.5),
                            epochs=5, lr=0.1, l2=0.0)
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
    model = train_end_model(np.zeros((4, 2)), np.full(4, 0.5),
                            epochs=2, lr=0.1, l2=0.0)
    with pytest.raises(ValidationError):
        predict(model, np.zeros((3, 5)))


def test_bad_targets_rejected():
    with pytest.raises(ValidationError):
        train_end_model(np.zeros((2, 1)), np.array([0.5, 1.5]))


def test_nan_targets_rejected():
    with pytest.raises(ValidationError, match=r"lie in \[0, 1\]"):
        train_end_model(np.zeros((2, 1)), np.array([0.5, np.nan]))


@pytest.mark.parametrize("name", ["lr", "l2"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_hyperparameters_rejected(value, name):
    hyper = {"lr": 0.1, "l2": 1e-4, name: value}
    with pytest.raises(ValidationError, match="bad training hyperparameters"):
        train_end_model(np.array([[0.0], [1.0]]), np.array([0.2, 0.8]),
                        epochs=5, **hyper)
