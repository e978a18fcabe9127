"""Aggregation of weak votes into pseudolabels and the downstream model.

The label model is the conditionally independent posterior: with vote
weights w_j = 0.5 * log((1 + a_j) / (1 - a_j)) and prior log-odds theta_y,

    P(y = 1 | votes) = sigmoid(theta_y + 2 * sum_j w_j * vote_j),

which coincides with exact Bayes when votes are independent given y.
Abstains contribute nothing (vote 0).  The end model is plain logistic
regression trained by full-batch gradient descent against the soft
pseudolabel probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    AccuracyEstimate,
    NumericalError,
    ValidationError,
    WeakLabelMatrix,
    require_vote_values,
)

ACC_CLAMP = 0.999


@dataclass(frozen=True)
class LabelModelParams:
    """Per-LF vote weights (log-odds units) and the class-prior log-odds."""

    weights: np.ndarray
    prior: float
    source: str = "triplet"

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1:
            raise ValidationError("weights must be 1-D")
        if not np.all(np.isfinite(w)) or not math.isfinite(self.prior):
            raise ValidationError("label-model parameters must be finite")
        if self.source not in ("triplet", "uniform"):
            raise ValidationError(f"unknown weight source {self.source!r}")
        object.__setattr__(self, "weights", w)

    @property
    def m(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class EndModel:
    """Logistic-regression coefficients (weights then intercept)."""

    coefficients: np.ndarray
    training_meta: dict

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=np.float64)
        if c.ndim != 1 or not np.all(np.isfinite(c)):
            raise ValidationError("coefficients must be a finite 1-D vector")
        object.__setattr__(self, "coefficients", c)

    @property
    def d(self) -> int:
        return self.coefficients.shape[0] - 1


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))  # at most 1, so it cannot overflow
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def fit_label_model(
    est: AccuracyEstimate, class_balance: float = 0.5
) -> LabelModelParams:
    """Turn estimated global accuracies into posterior vote weights.

    Accuracies are clamped to [-0.999, 0.999] before the log so weights
    stay finite even for (near-)perfect LFs.
    """
    if not 0.0 < class_balance < 1.0:
        raise ValidationError("class_balance must be in (0, 1)")
    a = np.clip(est.per_lf_global, -ACC_CLAMP, ACC_CLAMP)
    weights = 0.5 * np.log((1.0 + a) / (1.0 - a))
    prior = math.log(class_balance / (1.0 - class_balance))
    return LabelModelParams(weights, prior, source="triplet")


def uniform_label_model(m: int, class_balance: float = 0.5) -> LabelModelParams:
    """Majority-vote fallback: every LF gets the same unit weight."""
    if m < 1:
        raise ValidationError("need at least one LF")
    if not 0.0 < class_balance < 1.0:
        raise ValidationError("class_balance must be in (0, 1)")
    prior = math.log(class_balance / (1.0 - class_balance))
    return LabelModelParams(np.ones(m), prior, source="uniform")


def infer_pseudolabels(
    params: LabelModelParams, wl: WeakLabelMatrix
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior P(y=1 | votes) and hard labels in {-1, +1}.

    Abstaining votes are zeros and drop out of the score.  Probability
    exactly 0.5 maps to +1 so hard labels are reproducible.
    """
    if wl.m != params.m:
        raise ValidationError(
            f"label model has {params.m} weights but matrix has {wl.m} LFs")
    require_vote_values(wl.votes)
    score = 0.5 * params.prior + wl.votes.astype(np.float64) @ params.weights
    probs = _sigmoid(2.0 * score)
    labels = np.where(probs >= 0.5, 1, -1).astype(np.int64)
    return probs, labels


def end_model_objective(
    coefficients: np.ndarray,
    X: np.ndarray,
    targets: np.ndarray,
    l2: float,
) -> tuple[float, np.ndarray]:
    """L2-regularized cross-entropy against soft targets, with gradient.

    The intercept (last coefficient) is not regularized.  Uses the
    log(1 + exp(z)) - t*z form, which is exact for soft targets and
    numerically stable for large |z|.
    """
    coefficients = np.asarray(coefficients, dtype=np.float64)
    w, b = coefficients[:-1], coefficients[-1]
    z = _scores(X, w, b)
    return _loss(z, targets, w, l2), _gradient(z, X, targets, w, l2)


def _scores(X: np.ndarray, w: np.ndarray, b: float) -> np.ndarray:
    with np.errstate(over="ignore"):  # inf loss is caught by the caller
        return X @ w + b


def _loss(z: np.ndarray, targets: np.ndarray, w: np.ndarray,
          l2: float) -> float:
    with np.errstate(over="ignore"):
        # log(1 + exp(z)) computed without overflow
        log1pexp = np.where(z > 0, z + np.log1p(np.exp(-np.abs(z))),
                            np.log1p(np.exp(-np.abs(z))))
        return float(np.mean(log1pexp - targets * z) + 0.5 * l2 * (w @ w))


def _gradient(z: np.ndarray, X: np.ndarray, targets: np.ndarray,
              w: np.ndarray, l2: float) -> np.ndarray:
    residual = _sigmoid(z) - targets
    return np.concatenate([
        X.T @ residual / X.shape[0] + l2 * w,
        [residual.mean()],
    ])


def _loss_surely_finite(z: np.ndarray, w: np.ndarray, l2: float) -> bool:
    """True when :func:`_loss` cannot overflow or be NaN at these scores.

    With targets in [0, 1] each loss term is at most 2 max|z| + log 2 in
    size, so the sum inside the mean stays below n (2 max|z| + 1), and
    the penalty is l2 w.w / 2.  Their total below 1e300 leaves a factor
    1e8 for rounding before the float64 limit.  NaN fails the test.
    """
    with np.errstate(over="ignore"):
        zmax = float(np.maximum(z.max(), -z.min()))
        bound = z.shape[0] * (2.0 * zmax + 1.0) + 0.5 * l2 * float(w @ w)
    return bound < 1e300


def train_end_model(
    X: np.ndarray,
    pseudo_probs: np.ndarray,
    epochs: int = 500,
    lr: float = 0.1,
    l2: float = 1e-4,
) -> EndModel:
    """Full-batch gradient descent from zero init; deterministic.

    Optimization runs on per-column standardized features (so the learning
    rate and the L2 penalty are insensitive to feature units) and the
    returned coefficients are folded back to the raw feature space, so
    :func:`predict` applies them to unmodified inputs.  An epoch evaluates
    the loss only when a bound from max|z| and w.w cannot prove it finite,
    so a non-finite loss stops training at the same epoch either way.
    """
    X = np.asarray(X, dtype=np.float64)
    t = np.asarray(pseudo_probs, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValidationError("X must be a non-empty 2-D matrix")
    if t.shape != (X.shape[0],):
        raise ValidationError("pseudo_probs length must match X rows")
    if not np.all((t >= 0) & (t <= 1)):  # NaN too
        raise ValidationError("pseudo_probs must lie in [0, 1]")
    if epochs < 1 or lr <= 0 or l2 < 0:
        raise ValidationError("bad training hyperparameters")
    center = X.mean(axis=0)
    spread = X.std(axis=0)
    spread = np.where(spread > 0, spread, 1.0)
    Xs = (X - center) / spread
    coef = np.zeros(X.shape[1] + 1)
    for epoch in range(epochs):
        w, b = coef[:-1], coef[-1]
        z = _scores(Xs, w, b)
        if not _loss_surely_finite(z, w, l2) \
                and not math.isfinite(_loss(z, t, w, l2)):
            raise NumericalError(
                f"end-model objective became non-finite at epoch {epoch} "
                f"(lr={lr}, l2={l2}); lower the learning rate")
        coef = coef - lr * _gradient(z, Xs, t, w, l2)
    loss, _ = end_model_objective(coef, Xs, t, l2)
    if not math.isfinite(loss):
        raise NumericalError("end-model objective diverged on the last step")
    w_raw = coef[:-1] / spread
    b_raw = coef[-1] - float(w_raw @ center)
    return EndModel(
        coefficients=np.concatenate([w_raw, [b_raw]]),
        training_meta={
            "iterations": epochs,
            "final_objective": loss,
            "learning_rate": lr,
        },
    )


def predict(model: EndModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities sigmoid(Xw + b) and hard labels (0.5 ties -> +1)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.d:
        raise ValidationError(
            f"X must be n x {model.d} for this model, got {X.shape}")
    probs = _sigmoid(X @ model.coefficients[:-1] + model.coefficients[-1])
    labels = np.where(probs >= 0.5, 1, -1).astype(np.int64)
    return probs, labels
