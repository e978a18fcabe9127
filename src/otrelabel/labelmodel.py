"""Aggregation of weak votes into pseudolabels and the downstream model.

The label model is the conditionally independent posterior: with vote
weights w_j = 0.5 * log((1 + a_j) / (1 - a_j)) and prior log-odds theta_y,

    P(y = 1 | votes) = sigmoid(theta_y + 2 * sum_j w_j * vote_j),

which coincides with exact Bayes when votes are independent given y.
Abstains contribute nothing (vote 0).  The sum over the votes is exact in
int64 after one rounding of the weights, so the posterior's bits do not
depend on the BLAS, its thread count or the LF order.  The end model is
plain logistic regression fitted to the soft pseudolabel probabilities by
damped Newton (IRLS) steps, to the optimum of its L2-regularized
objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    NumericalError,
    ValidationError,
    WeakLabelMatrix,
    require_array,
    require_number,
    row_blocks,
)

ACC_CLAMP = 0.999
NEWTON_MAX_ITER = 50
NEWTON_TOL = 1e-10  # gradient norm, in standardized space
HESSIAN_ROWS = 2048


@dataclass(frozen=True)
class LabelModelParams:
    """Per-LF vote weights (log-odds units) and the class-prior log-odds."""

    weights: np.ndarray
    prior: float

    def __post_init__(self):
        object.__setattr__(self, "weights",
                           require_array("weights", self.weights, (None,)))
        object.__setattr__(self, "prior", require_number("prior", self.prior))

    @property
    def m(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class EndModel:
    """Logistic-regression coefficients (weights then intercept)."""

    coefficients: np.ndarray
    training_meta: dict

    def __post_init__(self):
        object.__setattr__(self, "coefficients", require_array(
            "coefficients", self.coefficients, (None,)))

    @property
    def d(self) -> int:
        return self.coefficients.shape[0] - 1


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function with one exp: e = exp(-|z|) in [+0, 1] cannot
    overflow, and max(e, z >= 0) is the numerator (1, or e for z < 0 or NaN)
    without a branch."""
    e = np.exp(-np.abs(z))
    out = np.maximum(e, z >= 0)
    e += 1.0
    out /= e
    return out


def fit_label_model(
    accuracies: np.ndarray, class_balance: float = 0.5
) -> LabelModelParams:
    """Turn the m-vector of estimated global accuracies into posterior
    vote weights.

    Accuracies are clamped to [-0.999, 0.999] before the log so weights
    stay finite even for (near-)perfect LFs.
    """
    a = require_array("accuracies", accuracies, (None,),
                      "in [-1 - 1e-12, 1 + 1e-12]")
    class_balance = require_number("class_balance", class_balance, "in (0, 1)")
    a = np.clip(a, -ACC_CLAMP, ACC_CLAMP)
    weights = 0.5 * np.log((1.0 + a) / (1.0 - a))
    prior = math.log(class_balance / (1.0 - class_balance))
    return LabelModelParams(weights, prior)


def _vote_scores(weights: np.ndarray, votes: np.ndarray) -> np.ndarray:
    """Each row's sum of ``weights`` times its int8 ``votes``, exact in
    integers: the weights are rounded once to q 2^-e with q = rint(w 2^e)
    in int64, e set by m and max |w| so that m max |q| <= 2^61 and no row
    sum overflows; each row's sum is rounded once to float64.  Its error is
    below the float64 dot's for every m, and its bits depend on no row
    block, thread count, BLAS or column order."""
    top = float(np.abs(weights).max(initial=0.0))
    e = 61 - (len(weights) - 1).bit_length() - math.frexp(top)[1] \
        if top else 0
    q = np.rint(np.ldexp(weights, e)).astype(np.int64)
    sums = np.empty(len(votes), np.int64)
    # 8 bytes a vote: a block of votes widened to int64
    for rows in row_blocks(len(votes), 8 * len(weights)):
        np.matmul(votes[rows].astype(np.int64), q, out=sums[rows])
    return np.ldexp(sums.astype(np.float64), -e)


def infer_pseudolabels(
    params: LabelModelParams, wl: WeakLabelMatrix
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior P(y=1 | votes) and hard labels in {-1, +1}.

    Abstaining votes are zeros and drop out of the score, which
    :func:`_vote_scores` sums exactly.  Probability exactly 0.5 maps to +1
    so hard labels are reproducible.
    """
    if wl.m != params.m:
        raise ValidationError(
            f"label model has {params.m} weights but matrix has {wl.m} LFs")
    score = 0.5 * params.prior + _vote_scores(params.weights, wl.votes)
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
    w = coefficients[:-1]
    with np.errstate(over="ignore"):  # an inf loss fails the line search
        z = X @ w + coefficients[-1]
        # log(1 + exp(z)) = max(z, 0) + log1p(exp(-|z|)), without overflow
        log1pexp = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
        loss = float(np.mean(log1pexp - targets * z) + 0.5 * l2 * (w @ w))
    r = _sigmoid(z)
    r -= targets
    return loss, np.concatenate([X.T @ r / len(X) + l2 * w, [r.mean()]])


def _hessian(Xs: np.ndarray, coef: np.ndarray, l2: float) -> np.ndarray:
    """Hessian of :func:`end_model_objective` (Xs^T diag(p (1 - p)) Xs / n,
    intercept row and column, ridge), summed over fixed ``HESSIAN_ROWS``-row
    blocks: no n x (d + 1) array, and the sums set the coefficients' bits."""
    H = np.diag(np.append(np.full(Xs.shape[1], l2), 0.0))
    for lo in range(0, len(Xs), HESSIAN_ROWS):
        block = Xs[lo:lo + HESSIAN_ROWS]
        p = _sigmoid(block @ coef[:-1] + coef[-1])
        p *= (1.0 - p) / len(Xs)
        pb = p @ block
        H += np.block([[(block.T * p) @ block, pb[:, None]], [pb, p.sum()]])
    return H


def train_end_model(
    X: np.ndarray,
    pseudo_probs: np.ndarray,
    l2: float = 1e-4,
) -> EndModel:
    """Minimize :func:`end_model_objective` by damped Newton steps from
    zero, on per-column standardized features (so the L2 penalty is
    insensitive to feature units); deterministic.

    Each step solves the Newton system and is halved until the loss does
    not increase; training stops once the gradient norm is at most
    ``NEWTON_TOL``.  A constant column, or one whose variance is not a
    finite positive float, is left out with a zero coefficient.  The
    coefficients are folded back to raw feature units for :func:`predict`;
    ``training_meta`` holds the iterations and the final loss and gradient
    norm in standardized units."""
    X = require_array("X", X, (None, None))
    if X.shape[0] < 1:
        raise ValidationError("X must have at least 1 row, got 0")
    t = require_array("pseudo_probs", pseudo_probs, (len(X),), "in [0, 1]")
    l2 = require_number("l2", l2, ">= 0")
    lo, hi = X.min(axis=0), X.max(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        center, spread = X.mean(axis=0), X.std(axis=0)
    # hi > lo: the mean of a constant column can miss it by an ulp
    live = (hi > lo) & (spread > 0) & (spread < math.inf)
    center, spread = center[live], spread[live]
    Xs = X[:, live]
    Xs -= center
    Xs /= spread
    coef = np.zeros(Xs.shape[1] + 1)
    loss, grad = end_model_objective(coef, Xs, t, l2)
    iterations = 0
    while (grad_norm := float(np.linalg.norm(grad))) > NEWTON_TOL:
        if iterations == NEWTON_MAX_ITER:
            raise NumericalError(
                f"end model not solved within the cap of {NEWTON_MAX_ITER} "
                f"Newton iterations: gradient norm {grad_norm:.3g}")
        step = np.linalg.lstsq(_hessian(Xs, coef, l2), grad, rcond=None)[0]
        # a zero step keeps the loss; near the optimum the loss change is
        # below its rounding, and only the tolerance tells an improvement
        while ((trial := end_model_objective(coef - step, Xs, t, l2))[0] > loss
               and np.linalg.norm(trial[1]) > NEWTON_TOL):
            step /= 2.0
        coef -= step
        loss, grad = trial
        iterations += 1
    w_raw = np.zeros(X.shape[1])
    w_raw[live] = coef[:-1] / spread
    return EndModel(
        coefficients=np.append(w_raw, coef[-1] - float(w_raw[live] @ center)),
        training_meta={"iterations": iterations, "final_objective": loss,
                       "final_gradient_norm": grad_norm})


def predict(model: EndModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities sigmoid(Xw + b) and hard labels (0.5 ties -> +1)."""
    X = require_array("X", X, (None, model.d))
    probs = _sigmoid(X @ model.coefficients[:-1] + model.coefficients[-1])
    labels = np.where(probs >= 0.5, 1, -1).astype(np.int64)
    return probs, labels
