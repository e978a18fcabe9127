"""Shared fixture builders and independent brute-force oracles.

The oracles here deliberately avoid the production code paths: the kNN
oracle is an exhaustive scan, the rank oracle sorts each row's columns
with Python's ``sorted``, the Sinkhorn oracle projects the full matrix
instead of scaling factor vectors, the Sinkhorn plan oracle takes
``np.median`` and builds every intermediate in a fresh array, the
posterior oracle enumerates the joint outcome space, the moment oracle
masks one LF pair at a time instead of taking Gram products, the
triplet oracle visits one LF triplet at a time instead of making one
array pass, the CSV loader oracles check one cell at a time, the sigmoid
oracle splits its input by sign with boolean indexing, the fairness
oracle takes boolean means over masked rows, and the end-model oracles
evaluate the full loss every iteration from their own frozen copy of the
objective, every intermediate in a fresh array, the Newton one with a
dense design matrix for its Hessian, and the LF-bank oracle evaluates
predicate objects on one row dict at a time.  Tests compare library
output against these.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from otrelabel import (
    EndModel,
    FairnessReport,
    GroupedDataset,
    NumericalError,
    TransportPlan,
    TripletRecord,
    ValidationError,
    WeakLabelMatrix,
)


def make_biased_fixture(n_per_group: int, seed: int,
                        flip_probs=(0.15, 0.25, 0.2)):
    """Two-group dataset where lf_0 = sign(x[0]) is perfect on group 0 and
    collapses to a constant +1 (chance accuracy) on group 1, which is
    group 0's latent cloud shifted by +10 along the first axis.  The
    remaining LFs are independent noisy copies of y in both groups.
    """
    rng = np.random.default_rng(seed)
    z0 = rng.normal(size=(n_per_group, 2))
    z1 = rng.normal(size=(n_per_group, 2))
    x = np.vstack([z0, z1 + np.array([10.0, 0.0])])
    groups = np.repeat([0, 1], n_per_group)
    y = np.where(np.vstack([z0, z1])[:, 0] > 0, 1, -1)
    columns = [np.where(x[:, 0] > 0, 1, -1)]
    for p in flip_probs:
        flip = rng.random(2 * n_per_group) < p
        columns.append(np.where(flip, -y, y))
    return (
        GroupedDataset(x, groups, y),
        WeakLabelMatrix(np.column_stack(columns)),
    )


# The adult-v1 bank's categorical columns, each level listed from the least
# to the most often seen with a positive label.
ADULT_LEVELS = {
    "workclass": ("Private", "Local-gov", "Self-emp-inc"),
    "education": ("HS-grad", "Some-college", "Bachelors", "Masters"),
    "marital-status": ("Never-married", "Divorced", "Married-civ-spouse"),
    "occupation": ("Other-service", "Craft-repair", "Sales",
                   "Exec-managerial"),
    "relationship": ("Own-child", "Not-in-family", "Wife", "Husband"),
    "race": ("Black", "White", "Asian-Pac-Islander"),
    "native-country": ("Mexico", "United-States", "Germany"),
}


def make_adult_table(n_per_group: int, seed: int):
    """A census-shaped raw table with every column the adult-v1 bank reads,
    as strings, with its groups (0 and 1, ``n_per_group`` rows each) and
    +-1 labels.

    Level i of a column with L levels is drawn with weight 1 + i on a
    positive row and L - i on a negative one.  Group 1 has fewer positive
    rows, never "Husband" (group 0 never "Wife") and rarer capital gains,
    so several rules are more accurate on one group than the other.
    """
    rng = np.random.default_rng(seed)
    n = 2 * n_per_group
    groups = np.repeat([0, 1], n_per_group)
    labels = np.where(rng.random(n) < np.where(groups == 0, 0.35, 0.2), 1, -1)
    table = {}
    for column, levels in ADULT_LEVELS.items():
        rank = np.arange(len(levels))
        weights = np.where(labels[:, None] > 0, 1.0 + rank, len(levels) - rank)
        if column == "relationship":
            weights[groups == 0, levels.index("Wife")] = 0.0
            weights[groups == 1, levels.index("Husband")] = 0.0
        cdf = np.cumsum(weights, axis=1) / weights.sum(axis=1, keepdims=True)
        pick = (rng.random(n)[:, None] > cdf[:, :-1]).sum(axis=1)
        table[column] = [levels[i] for i in pick]
    age = np.where(labels > 0, rng.integers(28, 66, n),
                   rng.integers(17, 75, n))
    table["age"] = [str(a) for a in age]
    gain_rate = np.where(labels > 0, np.where(groups == 0, 0.3, 0.1), 0.03)
    gain = np.where(rng.random(n) < gain_rate,
                    np.where(labels > 0, 7688, 2174), 0)
    table["capital-gain"] = [str(g) for g in gain]
    return table, groups, labels


def adult_features(table) -> np.ndarray:
    """One-hot relationship and education columns and the age decade: few
    distinct rows, many exact distance ties, and covariances of rank at
    most d - 1 (each one-hot block sums to 1)."""
    blocks = [np.array([[cell == level for level in ADULT_LEVELS[column]]
                        for cell in table[column]], dtype=float)
              for column in ("relationship", "education")]
    decade = np.array([float(int(a) // 10) for a in table["age"]])
    return np.column_stack(blocks + [decade])


def sample_conditional_lfs(accuracies, n: int, seed: int,
                           balance: float = 0.5):
    """Votes from conditionally independent LFs with E[lambda_j y] = a_j."""
    a = np.asarray(accuracies, dtype=float)
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(n) < balance, 1, -1)
    agree = rng.random((n, a.size)) < (1 + a) / 2
    votes = np.where(agree, y[:, None], -y[:, None])
    return WeakLabelMatrix(votes), y


def knn_oracle(X_query, X_dst, votes_dst, k):
    """Exhaustive-scan nearest-neighbor transfer with the documented tie
    rules: distance ties to the lower index, majority ties to the nearest
    non-abstaining neighbor, all-abstain neighborhoods abstain."""
    X_query = np.asarray(X_query, float)
    X_dst = np.asarray(X_dst, float)
    votes_dst = np.asarray(votes_dst)
    out = np.empty(X_query.shape[0], dtype=np.int64)
    for q in range(X_query.shape[0]):
        dist = [(float(np.linalg.norm(X_query[q] - X_dst[i])), i)
                for i in range(X_dst.shape[0])]
        dist.sort()
        nbrs = [i for _, i in dist[:k]]
        active = [votes_dst[i] for i in nbrs if votes_dst[i] != 0]
        if not active:
            out[q] = 0
            continue
        pos = sum(1 for v in active if v > 0)
        neg = len(active) - pos
        if pos > neg:
            out[q] = 1
        elif neg > pos:
            out[q] = -1
        else:
            out[q] = active[0]
    return out


def rank_oracle(dist, k):
    """Columns of each row's k smallest distances, nearest first, exact
    distance ties to the lower column: one Python sort per row."""
    dist = np.asarray(dist, float)
    return np.array([sorted(range(dist.shape[1]),
                            key=lambda c: (dist[r, c], c))[:k]
                     for r in range(dist.shape[0])],
                    dtype=np.intp).reshape(dist.shape[0], k)


def sinkhorn_projection_oracle(M, a, b, eta, rescale_median=True,
                               tol=1e-12, max_rounds=1_000_000):
    """Fixed point of alternating row/column marginal projections applied
    to the full matrix exp(-M/eta) (after the same median cost rescale the
    library applies)."""
    M = np.asarray(M, float)
    if rescale_median:
        scale = float(np.median(M))
        if scale <= 0:
            scale = float(M.mean()) or 1.0
        M = M / scale
    T = np.exp(-M / eta)
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    for _ in range(max_rounds):
        T = T * (a / T.sum(axis=1))[:, None]
        T = T * (b / T.sum(axis=0))[None, :]
        violation = max(np.abs(T.sum(axis=1) - a).max(),
                        np.abs(T.sum(axis=0) - b).max())
        if violation <= tol:
            break
    return T


def sinkhorn_plan_oracle(M, a=None, b=None, eta=1.0, max_iter=10, tol=1e-9):
    """``sinkhorn_plan`` without its checks, the median taken by
    ``np.median`` and every intermediate in a fresh array; the library
    must return this plan bit for bit.

    The loop in the library's order: a round's u step is taken before
    (u, v)'s violation is read, so the omega chosen from round t's
    violation first applies to the u and v steps of round t + 2."""
    M = np.asarray(M, dtype=np.float64)
    n_src, n_dst = M.shape
    a = np.full(n_src, 1.0 / n_src) if a is None else np.asarray(a, float)
    b = np.full(n_dst, 1.0 / n_dst) if b is None else np.asarray(b, float)
    scale = float(np.median(M))
    if scale <= 0.0:
        scale = float(M.mean())
    if scale <= 0.0:
        scale = 1.0
    K = M / scale
    K = np.negative(K, out=K)
    K /= eta
    np.exp(K, out=K)

    def relaxed(plain, old, omega):
        if omega == 1.0:
            return plain
        with np.errstate(all="ignore"):
            return plain * (plain / old) ** (omega - 1.0)

    def usable(x):
        return bool(np.all(np.isfinite(x)) and np.all(x > 0))

    u = np.ones(n_src)
    v = np.ones(n_dst)
    col = None
    iterations = 0
    omega, warm = 1.0, True
    lowest, stalled = np.inf, 0
    history = []  # every violation, the redone rounds' too
    while True:
        w = omega
        Kv = K @ v
        if iterations:
            violation = max(float(np.abs(u * Kv - a).max()),
                            float(np.abs(v * col - b).max()))
            if violation <= tol or iterations == max_iter:
                break
            if violation < lowest:
                lowest, stalled = violation, 0
            else:
                stalled += 1
            history.append(violation)
            ratios = [history[-1] / history[-2], history[-2] / history[-3]] \
                if len(history) >= 3 else []
            if warm and ratios and max(ratios) < 1 \
                    and abs(ratios[0] - ratios[1]) <= 0.01:
                omega = min(1.8, 2 / (1 + math.sqrt(1 - ratios[0])))
                warm = False
            elif stalled >= 10:
                omega, warm = 1.0, False
        u_new = relaxed(a / Kv, u, w)
        col_new = K.T @ u_new
        v_new = relaxed(b / col_new, v, w)
        if w != 1.0 and not (usable(u_new) and usable(v_new)):
            omega = 1.0
            continue
        u, v, col = u_new, v_new, col_new
        iterations += 1
    T = u[:, None] * K
    T *= v
    violation = max(
        float(np.abs(T.sum(axis=1) - a).max()),
        float(np.abs(T.sum(axis=0) - b).max()),
    )
    return TransportPlan(
        T=T,
        eta=eta,
        iterations_run=iterations,
        converged=violation <= tol,
        marginal_violation=violation,
    )


def bayes_posterior_oracle(votes_row, accuracies, balance):
    """Exact P(y=1 | votes) by enumerating the two label hypotheses under
    conditional independence with P(lambda_j = y) = (1 + a_j) / 2."""
    p_agree = (1 + np.asarray(accuracies, float)) / 2
    like = {1: balance, -1: 1 - balance}
    for y in (1, -1):
        for v, p in zip(votes_row, p_agree):
            if v == 0:
                continue
            like[y] *= p if v == y else 1 - p
    return like[1] / (like[1] + like[-1])


def _triplet_value(num1: float, num2: float, den: float) -> float:
    r = num1 * num2 / den
    return math.sqrt(min(max(r, 0.0), 1.0))


def pairwise_moment(wl: WeakLabelMatrix, i: int, j: int) -> float:
    """Empirical E[l_i * l_j] over mutually non-abstaining rows, NaN when
    the two LFs never vote on a common row: the reference for one entry
    of ``moment_matrix``."""
    vi, vj = wl.votes[:, i], wl.votes[:, j]
    both = (vi != 0) & (vj != 0)
    cnt = int(both.sum())
    if cnt == 0:
        return math.nan
    return float(int((vi * vj)[both].sum()) / cnt)


def triplet_oracle(moments, eps_pair):
    """Per-triplet loop over ``itertools.combinations``: the scalar
    reference for ``accuracies_from_moments``.  Returns each LF's median
    magnitude and a list of ``TripletRecord``."""
    m = moments.shape[0]
    if moments.shape != (m, m):
        raise ValidationError("moment matrix must be square")
    if m < 3:
        raise ValidationError(f"need at least 3 LFs for triplets, got {m}")
    per_lf: list[list[float]] = [[] for _ in range(m)]
    records: list[TripletRecord] = []
    for i, j, k in itertools.combinations(range(m), 3):
        mij, mik, mjk = moments[i, j], moments[i, k], moments[j, k]
        bad = any(
            math.isnan(x) or abs(x) <= eps_pair for x in (mij, mik, mjk))
        if bad:
            records.append(TripletRecord(
                (i, j, k), (math.nan, math.nan, math.nan), degenerate=True))
            continue
        vi = _triplet_value(mij, mik, mjk)
        vj = _triplet_value(mij, mjk, mik)
        vk = _triplet_value(mik, mjk, mij)
        per_lf[i].append(vi)
        per_lf[j].append(vj)
        per_lf[k].append(vk)
        records.append(TripletRecord((i, j, k), (vi, vj, vk)))
    out = np.empty(m)
    for i, vals in enumerate(per_lf):
        if not vals:
            raise NumericalError(
                f"every triplet containing lf {i} is degenerate")
        out[i] = np.median(vals)
    return out, records


def sigmoid_oracle(z):
    """Logistic function on each sign separately, one exp per element."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _scores_oracle(X, w, b):
    with np.errstate(over="ignore"):  # inf loss is caught by the caller
        return X @ w + b


def _loss_oracle(z, targets, w, l2):
    with np.errstate(over="ignore"):
        # log(1 + exp(z)) computed without overflow
        log1pexp = np.where(z > 0, z + np.log1p(np.exp(-np.abs(z))),
                            np.log1p(np.exp(-np.abs(z))))
        return float(np.mean(log1pexp - targets * z) + 0.5 * l2 * (w @ w))


def _gradient_oracle(z, X, targets, w, l2):
    residual = sigmoid_oracle(z) - targets
    return np.concatenate([
        X.T @ residual / X.shape[0] + l2 * w,
        [residual.mean()],
    ])


def end_model_objective_oracle(coefficients, X, targets, l2):
    """Loss and gradient of the end model, each step in a fresh array;
    the sigmoid is :func:`sigmoid_oracle`."""
    coefficients = np.asarray(coefficients, dtype=np.float64)
    w, b = coefficients[:-1], coefficients[-1]
    z = _scores_oracle(X, w, b)
    return _loss_oracle(z, targets, w, l2), _gradient_oracle(z, X, targets,
                                                             w, l2)


def _standardize_oracle(X):
    X = np.asarray(X, dtype=np.float64)
    center = X.mean(axis=0)
    spread = X.std(axis=0)
    spread = np.where(spread > 0, spread, 1.0)
    return (X - center) / spread, center, spread


def train_end_model_oracle(X, pseudo_probs, epochs=500, lr=0.1, l2=1e-4):
    """The end model as full-batch gradient descent once trained it: 500
    epochs from zero, checking after every epoch that the full loss is
    finite, through :func:`end_model_objective_oracle`.  Its loss is an
    upper bound for a solver that reaches the optimum."""
    t = np.asarray(pseudo_probs, dtype=np.float64)
    Xs, center, spread = _standardize_oracle(X)
    coef = np.zeros(Xs.shape[1] + 1)
    loss = math.nan
    for epoch in range(epochs):
        loss, grad = end_model_objective_oracle(coef, Xs, t, l2)
        if not math.isfinite(loss):
            raise NumericalError(
                f"end-model objective became non-finite at epoch {epoch} "
                f"(lr={lr}, l2={l2}); lower the learning rate")
        coef = coef - lr * grad
    loss, grad = end_model_objective_oracle(coef, Xs, t, l2)
    if not math.isfinite(loss):
        raise NumericalError("end-model objective diverged on the last step")
    w_raw = coef[:-1] / spread
    b_raw = coef[-1] - float(w_raw @ center)
    return EndModel(
        coefficients=np.concatenate([w_raw, [b_raw]]),
        training_meta={
            "iterations": epochs,
            "final_objective": loss,
            "final_gradient_norm": float(np.linalg.norm(grad)),
            "learning_rate": lr,
        },
    )


def train_end_model_newton_oracle(X, pseudo_probs, l2=1e-4, max_iter=50,
                                  tol=1e-10):
    """Damped Newton on :func:`end_model_objective_oracle` with a dense
    n x (d + 1) design matrix A: constant columns (max == min) are dropped
    with a zero coefficient, each step solves the whole Hessian
    A^T diag(p (1 - p)) A / n plus the ridge by least squares and is
    halved until the loss does not increase.  Returns the model and the
    loss at every iterate, from zero to the last."""
    X = np.asarray(X, dtype=np.float64)
    t = np.asarray(pseudo_probs, dtype=np.float64)
    live = X.max(axis=0) > X.min(axis=0)
    center, spread = X[:, live].mean(axis=0), X[:, live].std(axis=0)
    Xs = (X[:, live] - center) / spread
    A = np.column_stack([Xs, np.ones(len(Xs))])
    ridge = np.diag(np.append(np.full(Xs.shape[1], l2), 0.0))
    coef = np.zeros(A.shape[1])
    loss, grad = end_model_objective_oracle(coef, Xs, t, l2)
    losses = [loss]
    while np.linalg.norm(grad) > tol:
        if len(losses) > max_iter:
            raise NumericalError(
                f"end model not solved within the cap of {max_iter} Newton "
                f"iterations: gradient norm {np.linalg.norm(grad):.3g}")
        p = sigmoid_oracle(A @ coef)
        hessian = (A.T * (p * (1.0 - p))) @ A / len(A) + ridge
        step = np.linalg.lstsq(hessian, grad, rcond=None)[0]
        trial = end_model_objective_oracle(coef - step, Xs, t, l2)
        while trial[0] > loss and np.linalg.norm(trial[1]) > tol:
            step = step / 2.0
            trial = end_model_objective_oracle(coef - step, Xs, t, l2)
        coef = coef - step
        loss, grad = trial
        losses.append(loss)
    w_raw = np.zeros(X.shape[1])
    w_raw[live] = coef[:-1] / spread
    model = EndModel(
        coefficients=np.append(w_raw, coef[-1] - w_raw[live] @ center),
        training_meta={"iterations": len(losses) - 1, "final_objective": loss,
                       "final_gradient_norm": float(np.linalg.norm(grad))})
    return model, losses


def standardized_gradient_oracle(coefficients, X, targets, l2):
    """Gradient of the end-model objective at raw-space ``coefficients``,
    in the standardized space the trainer works in: w_s = w * spread and
    b_s = b + w @ center, evaluated by :func:`end_model_objective_oracle`."""
    Xs, center, spread = _standardize_oracle(X)
    w, b = coefficients[:-1], coefficients[-1]
    coef_s = np.concatenate([w * spread, [b + w @ center]])
    return end_model_objective_oracle(coef_s, Xs, targets, l2)[1]


def end_model_lbfgs_oracle(X, targets, l2):
    """Raw-space end-model coefficients from scipy's L-BFGS-B run to a
    tight gradient tolerance on :func:`end_model_objective_oracle`."""
    from scipy.optimize import minimize

    Xs, center, spread = _standardize_oracle(X)
    res = minimize(end_model_objective_oracle, np.zeros(Xs.shape[1] + 1),
                   args=(Xs, targets, l2), jac=True, method="L-BFGS-B",
                   options={"gtol": 1e-13, "ftol": 0.0, "maxiter": 10_000})
    w = res.x[:-1] / spread
    return np.concatenate([w, [res.x[-1] - w @ center]])


def _read_rows_oracle(path: str) -> tuple[list[str], list[list[str]]]:
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise ValidationError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: file is empty") from None
        rows = list(reader)
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    return [h.strip() for h in header], rows


def _width_oracle(path: str, header: list[str], rows: list[list[str]]):
    """Row widths, checked after the header: a file's first fault is the
    same in every framing."""
    width = len(header)
    for i, row in enumerate(rows, start=2):
        if len(row) != width:
            raise ValidationError(
                f"{path}: row {i} has {len(row)} fields, expected {width}")


def load_features_oracle(
    path: str,
    group_col: str = "group",
    label_col: Optional[str] = "label",
) -> GroupedDataset:
    """Cell-by-cell features CSV parser that stops at the first bad cell:
    the reference for ``load_features_csv``."""
    header, rows = _read_rows_oracle(path)
    if group_col not in header:
        raise ValidationError(f"{path}: missing group column {group_col!r}")
    has_labels = label_col is not None and label_col in header
    skip = {group_col} | ({label_col} if has_labels else set())
    feature_cols = [h for h in header if h not in skip]
    if not feature_cols:
        raise ValidationError(f"{path}: no feature columns")
    _width_oracle(path, header, rows)
    col_idx = {h: i for i, h in enumerate(header)}

    n = len(rows)
    features = np.empty((n, len(feature_cols)))
    groups = np.empty(n, dtype=np.int64)
    labels = np.empty(n, dtype=np.int64) if has_labels else None
    for r, row in enumerate(rows):
        lineno = r + 2
        for c, name in enumerate(feature_cols):
            cell = row[col_idx[name]].strip()
            try:
                features[r, c] = float(cell)
            except ValueError:
                raise ValidationError(
                    f"{path}: row {lineno}, column {name!r}: "
                    f"non-numeric value {cell!r}") from None
        g = row[col_idx[group_col]].strip()
        if g not in ("0", "1"):
            raise ValidationError(
                f"{path}: row {lineno}: unknown group value {g!r}")
        groups[r] = int(g)
        if has_labels:
            l = row[col_idx[label_col]].strip()
            if l not in ("-1", "1", "+1"):
                raise ValidationError(
                    f"{path}: row {lineno}: label must be -1 or 1, got {l!r}")
            labels[r] = int(l)
    # every cell parses before the loader names a non-finite feature
    bad = [(r, c) for r in range(n) for c in range(len(feature_cols))
           if not math.isfinite(features[r, c])]
    if bad:
        r, c = bad[0]
        raise ValidationError(f"{path}: row {r + 2}, column "
                              f"{feature_cols[c]!r}: non-finite value "
                              f"{features[r, c]}")
    return GroupedDataset(features, groups, labels)


def load_votes_oracle(path: str) -> WeakLabelMatrix:
    """Cell-by-cell votes CSV parser that stops at the first bad cell:
    the reference for ``load_votes_csv``."""
    header, rows = _read_rows_oracle(path)
    expected = [f"lf_{j}" for j in range(len(header))]
    if header != expected:
        raise ValidationError(
            f"{path}: votes header must be {','.join(expected)}")
    _width_oracle(path, header, rows)
    votes = np.empty((len(rows), len(header)), dtype=np.int64)
    for r, row in enumerate(rows):
        for c, cell in enumerate(row):
            cell = cell.strip()
            if cell not in ("-1", "0", "1", "+1"):
                raise ValidationError(
                    f"{path}: row {r + 2}, lf_{c}: illegal vote {cell!r}")
            votes[r, c] = int(cell)
    return WeakLabelMatrix(votes)


def fairness_oracle(pred, gold, groups) -> FairnessReport:
    """Fairness report from boolean-mask means, for valid +-1 ``pred`` and
    ``gold`` and 0/1 ``groups``: the reference for ``fairness_report``.
    A mean over zero rows is NaN."""
    pred, gold, groups = (np.asarray(x) for x in (pred, gold, groups))
    masks = [groups == k for k in (0, 1)]

    def mean(hits):
        return float(hits.mean()) if hits.size else math.nan

    accuracy = mean(pred == gold)
    tp = int(((pred == 1) & (gold == 1)).sum())
    fp = int(((pred == 1) & (gold == -1)).sum())
    fn = int(((pred == -1) & (gold == 1)).sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)

    pos_rate = tuple(mean(pred[m] == 1) for m in masks)
    grp_acc = tuple(mean(pred[m] == gold[m]) for m in masks)
    dp_gap = abs(pos_rate[1] - pos_rate[0])

    tpr = [mean(pred[m & (gold == 1)] == 1) for m in masks]
    eo_defined = not any(math.isnan(t) for t in tpr)
    eo_gap = abs(tpr[1] - tpr[0]) if eo_defined else math.nan

    return FairnessReport(
        accuracy=accuracy,
        f1=f1,
        dp_gap=dp_gap,
        eo_gap=eo_gap,
        per_group_accuracy=grp_acc,
        positive_rate_per_group=pos_rate,
        eo_defined=eo_defined,
    )


# LF banks as predicate objects, the form the built-in banks first took

class Predicate:
    """Boolean expression over named raw-table columns."""

    def columns(self) -> set[str]:
        raise NotImplementedError

    def evaluate(self, row: dict[str, str]) -> bool:
        raise NotImplementedError


def _as_number(value: str, column: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ValidationError(
            f"column {column!r}: cannot compare non-numeric value "
            f"{value!r}") from None


@dataclass(frozen=True)
class NumericCompare(Predicate):
    column: str
    op: str  # one of > >= < <= ==
    value: float

    def columns(self):
        return {self.column}

    def evaluate(self, row):
        x = _as_number(row[self.column], self.column)
        return {
            ">": x > self.value,
            ">=": x >= self.value,
            "<": x < self.value,
            "<=": x <= self.value,
            "==": x == self.value,
        }[self.op]


@dataclass(frozen=True)
class NumericBetween(Predicate):
    column: str
    low: float
    high: float  # inclusive on both ends

    def columns(self):
        return {self.column}

    def evaluate(self, row):
        x = _as_number(row[self.column], self.column)
        return self.low <= x <= self.high


@dataclass(frozen=True)
class ValueIn(Predicate):
    column: str
    values: frozenset

    def columns(self):
        return {self.column}

    def evaluate(self, row):
        return row[self.column] in self.values


@dataclass(frozen=True)
class AnyOf(Predicate):
    parts: tuple[Predicate, ...]

    def columns(self):
        return set().union(*(p.columns() for p in self.parts))

    def evaluate(self, row):
        return any(p.evaluate(row) for p in self.parts)


@dataclass(frozen=True)
class LfRule:
    """Named predicate producing +1 when true, ``false_vote`` otherwise."""

    name: str
    predicate: Predicate
    false_vote: int = -1  # -1 or 0 (abstain)

    def __post_init__(self):
        if self.false_vote not in (-1, 0):
            raise ValidationError("false_vote must be -1 or 0")


def lf_bank_oracle(
    table: dict[str, list[str]],
    rules: Sequence[LfRule],
    category_map: Optional[dict[str, dict[str, str]]] = None,
) -> WeakLabelMatrix:
    """``lfbank.apply_lf_bank`` as it was first written: every rule
    evaluated on one row dict at a time, stopping at the first bad cell,
    and no length check (a short column raises IndexError)."""
    if not rules:
        raise ValidationError("rule list is empty")
    if not table:
        raise ValidationError("raw table has no columns")
    n = len(next(iter(table.values())))
    needed = set().union(*(r.predicate.columns() for r in rules))
    missing = sorted(needed - set(table))
    if missing:
        raise ValidationError(f"raw table is missing columns {missing}")
    remap = category_map or {}
    votes = np.empty((n, len(rules)), dtype=np.int64)
    for r in range(n):
        row = {c: table[c][r] for c in needed}
        for c, mapping in remap.items():
            if c in row:
                row[c] = mapping.get(row[c], row[c])
        for j, rule in enumerate(rules):
            try:
                hit = rule.predicate.evaluate(row)
            except ValidationError as exc:
                raise ValidationError(
                    f"rule {rule.name!r}, row {r + 2}: {exc}") from exc
            votes[r, j] = 1 if hit else rule.false_vote
    return WeakLabelMatrix(votes)


def _adult_rules() -> list[LfRule]:
    # Category spellings follow the canonical census-income distribution;
    # pass a category_map to adapt local variants.
    return [
        LfRule("age", NumericBetween("age", 30, 60)),
        LfRule("education", ValueIn(
            "education", frozenset({"Bachelors", "Masters", "Doctorate"}))),
        LfRule("marital", ValueIn("marital-status", frozenset({
            "Married-civ-spouse", "Married-spouse-absent", "Married-AF-spouse",
        }))),
        LfRule("relationship", ValueIn(
            "relationship", frozenset({"Wife", "Own-child", "Husband"}))),
        LfRule("capital", NumericCompare("capital-gain", ">", 5000)),
        LfRule("race", ValueIn(
            "race", frozenset({"Asian-Pac-Islander", "Other"}))),
        LfRule("country", ValueIn("native-country", frozenset({
            "Germany", "Japan", "Greece", "China",
        }))),
        LfRule("workclass", ValueIn("workclass", frozenset({
            "Self-emp-not-inc", "Self-emp-inc", "Federal-gov",
            "Local-gov", "State-gov",
        }))),
        LfRule("occupation", ValueIn("occupation", frozenset({
            "Sales", "Exec-managerial", "Prof-specialty", "Machine-op-inspct",
        }))),
    ]


def _bank_marketing_rules() -> list[LfRule]:
    # Column/category spellings follow the "bank-additional" distribution.
    return [
        LfRule("loan", AnyOf((
            ValueIn("housing", frozenset({"yes"})),
            ValueIn("loan", frozenset({"yes"})),
        ))),
        LfRule("previous_contact", NumericCompare("previous", ">", 1.1)),
        LfRule("duration", NumericCompare("duration", ">", 360)),
        LfRule("marital", ValueIn("marital", frozenset({"single"}))),
        LfRule("previous_outcome", ValueIn("poutcome", frozenset({"success"}))),
        LfRule("education", ValueIn("education", frozenset({
            "university.degree", "professional.course",
        }))),
    ]


ORACLE_BANKS = {
    "adult-v1": _adult_rules,
    "bank-v1": _bank_marketing_rules,
}
