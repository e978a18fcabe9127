"""Synthetic generator used to stress the repair machinery numerically.

The generative model: latent points z are standard normal in ``dim``
dimensions; group 0 observes them directly and group 1 through an affine
map (the identity by default).  A single noisy labeler agrees with the
true +-1 label at

    P(lambda(x) = y) = sigmoid(2 * theta0 * prox(x, 0)),
    prox(x, center) = 1 / (1 + ||x - center||),

so accuracy is high near the origin and decays to coin flipping far away.
Three checkable consequences drive the harness:

* shifting a group's points arbitrarily far from the origin drives its
  expected labeler accuracy to exactly 1/2 (``shift_sweep``);
* the accuracy probability is 4*theta0-Lipschitz in x
  (``lipschitz_check``);
* repairing a shifted group with an *estimated* affine transport map
  changes expected accuracy by at most 4*theta0 times the mean map error,
  a bound that shrinks as the fit uses more samples (``map_error_sweep``).

``run_theory_suite`` runs the three checks on fixed models and bundles
their reports; ``pipeline.write_theory_artifacts`` writes the bundle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .core import ValidationError
from .ot import (
    MongeMap,
    apply_monge,
    fit_moments,
    inverse_monge,
    linear_monge,
    spectral_summary,
)


LABEL_BALANCE = 0.5  # share of positive labels in every sample
# shift_sweep's tolerance on its last accuracy and its monotonicity slack
SHIFT_FINAL_TOL, SHIFT_MONO_SLACK = 0.02, 0.01
# map_error_sweep's covariance ridge and the t of its tau diagnostic
MAP_FIT_RIDGE, MAP_TAU_T = 1e-9, 1.0


@dataclass(frozen=True)
class SyntheticModel:
    """Standard-normal latent in ``dim`` dimensions, the affine map
    ``group1`` through which group 1 observes it, and the labeler.

    ``theta0 = 0`` is allowed and makes the labeler a fair coin everywhere;
    positive values concentrate accuracy around the origin.
    """

    dim: int
    theta0: float
    group1: MongeMap

    def __post_init__(self):
        if self.theta0 < 0:
            raise ValidationError("theta0 must be nonnegative")
        if self.group1.d != self.dim:
            raise ValidationError("group transform dimension mismatch")

    @classmethod
    def gaussian(cls, dim: int, theta0: float) -> "SyntheticModel":
        """Group 1 observing through the identity, like group 0."""
        return cls(dim, theta0, MongeMap(np.eye(dim), np.zeros(dim)))

    def with_group1(self, g1: MongeMap) -> "SyntheticModel":
        return replace(self, group1=g1)


@dataclass(frozen=True)
class SweepReport:
    """One sweep of a numeric check: values tried, what was measured, the
    bound or limit it is compared against, and whether the check passed."""

    sweep_values: tuple[float, ...]
    measured: tuple[float, ...]
    bound_or_limit: tuple[float, ...]
    passed: bool
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (len(self.sweep_values) == len(self.measured)
                == len(self.bound_or_limit)):
            raise ValidationError("sweep report lists must share a length")

    def to_dict(self) -> dict:
        return {
            "sweep_values": list(self.sweep_values),
            "measured": list(self.measured),
            "bound_or_limit": list(self.bound_or_limit),
            "passed": self.passed,
            "extras": self.extras,
        }


def proximity(x: np.ndarray, center: np.ndarray) -> np.ndarray:
    """(1 + Euclidean distance)^-1, in (0, 1], vectorized over rows."""
    x = np.asarray(x, dtype=np.float64)
    center = np.asarray(center, dtype=np.float64)
    dist = np.linalg.norm(np.atleast_2d(x) - center, axis=1)
    out = 1.0 / (1.0 + dist)
    return out[0] if x.ndim == 1 else out


def accuracy_prob(x: np.ndarray, model: SyntheticModel) -> np.ndarray:
    """P(lambda(x) = y) = sigmoid(2 * theta0 * prox(x, 0))."""
    z = 2.0 * model.theta0 * proximity(x, np.zeros(model.dim))
    return 1.0 / (1.0 + np.exp(-z))


def _sample_latent(model: SyntheticModel, n: int,
                   rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((n, model.dim))


def _sample_votes(x: np.ndarray, y: np.ndarray, model: SyntheticModel,
                  rng: np.random.Generator) -> np.ndarray:
    agree = rng.random(x.shape[0]) < accuracy_prob(x, model)
    return np.where(agree, y, -y)


def _monotone_nonincreasing(values: Sequence[float], slack: float) -> bool:
    return all(values[i + 1] <= values[i] + slack
               for i in range(len(values) - 1))


def shift_sweep(
    model: SyntheticModel,
    shifts: Sequence[float],
    n: int,
    seed: int = 0,
) -> SweepReport:
    """Measure group-1 labeler accuracy as its points drift from the origin.

    For each magnitude D the group-1 transform becomes identity plus an
    offset of norm D along the first axis.  Two channels are recorded:
    the mean of accuracy_prob over the sampled points ("measured") and the
    empirical agreement rate of sampled votes ("measured_sampled").  The
    check passes when the measured sequence is non-increasing within
    ``SHIFT_MONO_SLACK`` and the final value lies within
    ``SHIFT_FINAL_TOL`` of the random-guessing limit 1/2.
    """
    shifts = [float(s) for s in shifts]
    if not shifts or not np.isfinite(shifts).all():
        raise ValidationError("shifts must be nonempty and finite")
    if any(s < 0 for s in shifts) or any(
            b < a for a, b in zip(shifts, shifts[1:])):
        raise ValidationError("shifts must be nonnegative and increasing")
    if n < 1:
        raise ValidationError("n must be >= 1")
    direction = np.zeros(model.dim)
    direction[0] = 1.0
    measured, sampled = [], []
    for i, dist in enumerate(shifts):
        rng = np.random.default_rng(seed + i)
        shifted = model.with_group1(
            MongeMap(np.eye(model.dim), dist * direction))
        z = _sample_latent(shifted, n, rng)
        x1 = apply_monge(shifted.group1, z)
        p = accuracy_prob(x1, shifted)
        measured.append(float(p.mean()))
        y = np.where(rng.random(n) < LABEL_BALANCE, 1, -1)
        votes = _sample_votes(x1, y, shifted, rng)
        sampled.append(float((votes == y).mean()))
    passed = (_monotone_nonincreasing(measured, SHIFT_MONO_SLACK)
              and abs(measured[-1] - 0.5) <= SHIFT_FINAL_TOL)
    return SweepReport(
        sweep_values=tuple(shifts),
        measured=tuple(measured),
        bound_or_limit=tuple(0.5 for _ in shifts),
        passed=passed,
        extras={"measured_sampled": sampled, "final_tol": SHIFT_FINAL_TOL,
                "mono_slack": SHIFT_MONO_SLACK},
    )


def lipschitz_check(
    model: SyntheticModel, trials: int, seed: int = 0
) -> float:
    """Max observed |delta P| / ||delta x|| over random point pairs.

    Half the pairs are independent draws around the origin, half are tight
    perturbations that probe the local gradient; coincident pairs are
    skipped.  The labeler construction guarantees the ratio stays strictly
    below 4 * theta0.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    d = model.dim
    n_wide = trials // 2
    n_tight = trials - n_wide
    x1 = rng.standard_normal((trials, d)) * 2.0
    x2 = np.empty_like(x1)
    x2[:n_wide] = rng.standard_normal((n_wide, d)) * 2.0
    step = rng.standard_normal((n_tight, d))
    step /= np.maximum(np.linalg.norm(step, axis=1, keepdims=True), 1e-300)
    x2[n_wide:] = x1[n_wide:] + step * (
        1e-3 * np.abs(rng.standard_normal((n_tight, 1))) + 1e-9)
    gap = np.abs(accuracy_prob(x1, model) - accuracy_prob(x2, model))
    dist = np.linalg.norm(x1 - x2, axis=1)
    keep = dist > 0
    if not keep.any():
        return 0.0
    return float((gap[keep] / dist[keep]).max())


def _require_spd(A: np.ndarray, what: str) -> None:
    if np.abs(A - A.T).max() > 1e-10:
        raise ValidationError(f"{what} must be symmetric")
    if np.linalg.eigvalsh(A)[0] <= 0:
        raise ValidationError(f"{what} must be positive definite")


def map_error_sweep(
    model: SyntheticModel,
    sample_sizes: Sequence[int],
    seed: int = 0,
    holdout: int = 20000,
) -> SweepReport:
    """Check that the repair-induced accuracy gap is controlled by the
    transport map's estimation error, and that the error decays with n.

    Group 0 observes the latent points directly, and the group-1
    transform must be symmetric positive definite plus an offset, so that
    its exact inverse h is also the moment-matching transport map and the
    fitted map converges to it.  For each n an affine map is fitted from
    n samples per group; on a fixed held-out set we record

        measured[i] = |mean P(z) - mean P(h_fit(x'))|          (gap)
        bound[i]    = 4 * theta0 * mean ||h(x') - h_fit(x')||  (rhs)

    The check passes when gap <= rhs at every n (the Lipschitz step makes
    this exact on a shared sample) and rhs is strictly decreasing.
    Effective-rank and tau diagnostics for the fitted covariances are
    logged in ``extras``.
    """
    sizes = [int(s) for s in sample_sizes]
    if not sizes:
        raise ValidationError("sample sizes must not be empty")
    if any(s < model.dim + 1 for s in sizes) or any(
            b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValidationError(
            "sample sizes must be increasing and exceed the dimension")
    if holdout < 2:
        raise ValidationError("holdout must be >= 2")
    g1 = model.group1
    _require_spd(g1.A, "group-1 transform matrix")
    h_true = inverse_monge(g1)

    rng_hold = np.random.default_rng(seed + 10_000)
    z_hold = _sample_latent(model, holdout, rng_hold)
    x_hold = apply_monge(g1, z_hold)
    p_latent = float(accuracy_prob(z_hold, model).mean())
    h_x = apply_monge(h_true, x_hold)

    measured, bound, diagnostics = [], [], []
    for i, n in enumerate(sizes):
        rng = np.random.default_rng(seed + i)
        z0 = _sample_latent(model, n, rng)
        x1 = apply_monge(g1, _sample_latent(model, n, rng))
        m1 = fit_moments(x1, MAP_FIT_RIDGE)
        m0 = fit_moments(z0, MAP_FIT_RIDGE)
        h_fit = linear_monge(m1, m0)
        mapped = apply_monge(h_fit, x_hold)
        gap = abs(p_latent - float(accuracy_prob(mapped, model).mean()))
        rhs = 4.0 * model.theta0 * float(
            np.linalg.norm(h_x - mapped, axis=1).mean())
        measured.append(gap)
        bound.append(rhs)
        s0 = spectral_summary(m0.sigma)
        s1 = spectral_summary(m1.sigma)
        tau = max(
            s0.effective_rank / n,
            s1.effective_rank / n,
            MAP_TAU_T / n,
            MAP_TAU_T * MAP_TAU_T / (n * n),
        )
        diagnostics.append({
            "n": n,
            "effective_rank_sigma1": s1.effective_rank,
            "trace_sigma1": s1.trace,
            "lambda_max_sigma1": s1.lambda_max,
            "lambda_min_sigma1": s1.lambda_min,
            "tau": tau,
        })
    passed = all(g <= r + 1e-9 for g, r in zip(measured, bound)) and all(
        bound[i + 1] < bound[i] for i in range(len(bound) - 1))
    return SweepReport(
        sweep_values=tuple(float(s) for s in sizes),
        measured=tuple(measured),
        bound_or_limit=tuple(bound),
        passed=passed,
        extras={"diagnostics": diagnostics, "t": MAP_TAU_T,
                "holdout": holdout},
    )


# The fixed models of the three checks, SyntheticModel.gaussian(dim,
# theta0), whose labeler is right with probability
# sigmoid(2 * theta0 * prox(x, 0)).
SHIFT_DIM, SHIFT_THETA0 = 3, 5.0
LIPSCHITZ_DIM, LIPSCHITZ_THETA0S = 3, (0.5, 1.0, 3.0)
MAP_DIM, MAP_THETA0 = 4, 1.0


def run_theory_suite(
    seed: int = 0,
    shifts: Sequence[float] = (0.0, 1.0, 10.0, 100.0, 1000.0),
    shift_n: int = 100_000,
    lipschitz_trials: int = 100_000,
    map_sizes: Sequence[int] = (100, 1000, 10_000),
    map_holdout: int = 20_000,
) -> dict:
    """Run the three numeric checks and bundle their reports.

    The bundle's ``passed`` is the conjunction of the individual flags;
    the CLI maps a false overall flag to exit status 3.
    """
    shift_model = SyntheticModel.gaussian(SHIFT_DIM, SHIFT_THETA0)
    shift_report = shift_sweep(shift_model, shifts, shift_n, seed=seed)

    ratios = []
    for i, theta0 in enumerate(LIPSCHITZ_THETA0S):
        model = SyntheticModel.gaussian(LIPSCHITZ_DIM, theta0)
        ratios.append(lipschitz_check(model, lipschitz_trials, seed=seed + i))
    bounds = [4.0 * t for t in LIPSCHITZ_THETA0S]
    lipschitz = {
        "theta0": list(LIPSCHITZ_THETA0S),
        "max_ratio": ratios,
        "bound": bounds,
        "passed": all(r < b for r, b in zip(ratios, bounds)),
    }

    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((MAP_DIM, MAP_DIM)))
    g1_matrix = (q * rng.uniform(0.8, 1.6, MAP_DIM)) @ q.T
    g1_offset = rng.standard_normal(MAP_DIM)
    map_model = SyntheticModel.gaussian(MAP_DIM, MAP_THETA0).with_group1(
        MongeMap(g1_matrix, g1_offset))
    map_report = map_error_sweep(
        map_model, map_sizes, seed=seed, holdout=map_holdout)

    bundle = {
        "shift_limit": shift_report.to_dict(),
        "lipschitz": lipschitz,
        "map_error_bound": map_report.to_dict(),
        "passed": bool(
            shift_report.passed and lipschitz["passed"] and map_report.passed),
    }
    return bundle
