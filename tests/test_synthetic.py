import math

import numpy as np
import pytest

from otrelabel import (
    MongeMap,
    SweepReport,
    SyntheticModel,
    ValidationError,
    accuracy_prob,
    lipschitz_check,
    map_error_sweep,
    proximity,
    shift_sweep,
)


def spd_transform(rng, d, lo=0.8, hi=1.6, offset_scale=2.0):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return MongeMap((q * rng.uniform(lo, hi, d)) @ q.T,
                    rng.normal(size=d) * offset_scale)


# --------------------------------------------------------------------------
# proximity / accuracy_prob


def test_proximity_at_center_is_one():
    assert proximity(np.zeros(3), np.zeros(3)) == 1.0


def test_proximity_unit_distance_is_half():
    assert proximity(np.array([1.0, 0.0]), np.zeros(2)) == 0.5


def test_proximity_decreases_with_distance():
    center = np.zeros(2)
    values = [proximity(np.array([r, 0.0]), center)
              for r in (0.0, 0.5, 1.0, 5.0, 1e6)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-5


def test_accuracy_prob_half_when_theta_zero():
    model = SyntheticModel.gaussian(3, 0.0)
    x = np.random.default_rng(0).normal(size=(20, 3))
    assert np.all(accuracy_prob(x, model) == 0.5)


def test_accuracy_prob_at_center_matches_hand_value():
    model = SyntheticModel.gaussian(4, 1.0)
    # sigmoid(2) evaluated by hand
    assert accuracy_prob(np.zeros(4), model) == pytest.approx(
        1 / (1 + math.exp(-2)), abs=1e-15)


def test_accuracy_prob_far_away_approaches_half():
    model = SyntheticModel.gaussian(2, 1.0)
    far = np.array([1e6, 0.0])
    assert abs(accuracy_prob(far, model) - 0.5) <= 1e-5


def test_accuracy_prob_radially_monotone():
    model = SyntheticModel.gaussian(1, 2.0)
    radii = np.linspace(0, 50, 200).reshape(-1, 1)
    p = accuracy_prob(radii, model)
    assert np.all(np.diff(p) <= 0)
    assert p.min() > 0.5  # strictly above chance at finite distance


def test_negative_theta_rejected():
    with pytest.raises(ValidationError):
        SyntheticModel.gaussian(2, -0.1)


def test_group1_of_another_dimension_rejected():
    with pytest.raises(ValidationError):
        SyntheticModel.gaussian(3, 1.0).with_group1(
            MongeMap(np.eye(2), np.zeros(2)))


# --------------------------------------------------------------------------
# shift sweep


def test_shift_sweep_theta_zero_is_exactly_half():
    model = SyntheticModel.gaussian(3, 0.0)
    report = shift_sweep(model, [0.0, 5.0, 50.0], n=2000, seed=1)
    assert all(v == 0.5 for v in report.measured)
    assert report.passed


def test_shift_sweep_decays_toward_half():
    model = SyntheticModel.gaussian(3, 5.0)
    report = shift_sweep(model, [0.0, 1.0, 10.0, 1000.0], n=50_000, seed=2)
    assert all(b <= a + 0.01 for a, b in zip(report.measured,
                                             report.measured[1:]))
    assert abs(report.measured[-1] - 0.5) <= 0.02
    assert report.passed
    # the sampled-vote channel tracks the analytic one
    sampled = report.extras["measured_sampled"]
    assert max(abs(s - m) for s, m in zip(sampled, report.measured)) <= 0.02


def test_shift_sweep_sampled_channel_is_chance_at_theta_zero():
    n = 100_000
    model = SyntheticModel.gaussian(2, 0.0)
    report = shift_sweep(model, [0.0, 5.0, 50.0], n=n, seed=1)
    # binomial 3-sigma band around 1/2
    assert all(abs(s - 0.5) <= 3 * 0.5 / math.sqrt(n)
               for s in report.extras["measured_sampled"])


def test_shift_sweep_same_seed_same_report():
    model = SyntheticModel.gaussian(3, 1.5)
    assert shift_sweep(model, [0.0, 2.0], n=500, seed=42) == shift_sweep(
        model, [0.0, 2.0], n=500, seed=42)


def test_shift_sweep_rejects_decreasing_shifts():
    model = SyntheticModel.gaussian(2, 1.0)
    with pytest.raises(ValidationError):
        shift_sweep(model, [1.0, 0.5], n=10)


@pytest.mark.parametrize("shifts", [[], [math.inf], [0.0, math.nan]],
                         ids=["empty", "inf", "nan"])
def test_shift_sweep_rejects_shifts_it_cannot_check(shifts):
    with pytest.raises(ValidationError):
        shift_sweep(SyntheticModel.gaussian(2, 1.0), shifts, n=10)


# --------------------------------------------------------------------------
# lipschitz check


def test_lipschitz_identical_points_contribute_nothing():
    model = SyntheticModel.gaussian(2, 1.0)
    # trials=1 with a forced wide pair; ratio is finite and below bound
    assert lipschitz_check(model, trials=1, seed=0) < 4.0


def test_lipschitz_bound_holds_across_thetas():
    for theta0 in (0.5, 1.0, 3.0):
        model = SyntheticModel.gaussian(3, theta0)
        ratio = lipschitz_check(model, trials=20_000, seed=1)
        assert ratio < 4.0 * theta0


def test_lipschitz_margin_widens_with_theta():
    # the bound 4*theta0 grows linearly while sigmoid saturation keeps the
    # observed ratio bounded, so the slack widens as theta0 doubles
    small = lipschitz_check(SyntheticModel.gaussian(3, 1.0), 20_000, seed=2)
    large = lipschitz_check(SyntheticModel.gaussian(3, 2.0), 20_000, seed=2)
    assert 4.0 * 1.0 - small < 4.0 * 2.0 - large


# --------------------------------------------------------------------------
# map error sweep


def test_map_error_exact_moments_equal_maps():
    # with an SPD transform, the analytic transport map equals the true
    # inverse, so fitting from huge samples drives both sides to zero
    rng = np.random.default_rng(3)
    model = SyntheticModel.gaussian(3, 1.0).with_group1(
        spd_transform(rng, 3))
    report = map_error_sweep(model, [200, 2000, 20_000], seed=0,
                             holdout=5000)
    assert report.passed
    assert report.bound_or_limit[-1] < report.bound_or_limit[0] / 3


def test_map_error_gap_below_bound_even_at_tiny_n():
    rng = np.random.default_rng(4)
    model = SyntheticModel.gaussian(4, 2.0).with_group1(
        spd_transform(rng, 4))
    report = map_error_sweep(model, [6, 60], seed=1, holdout=2000)
    for gap, rhs in zip(report.measured, report.bound_or_limit):
        assert gap <= rhs + 1e-9


def test_map_error_diagnostics_consistent():
    rng = np.random.default_rng(5)
    model = SyntheticModel.gaussian(4, 1.0).with_group1(
        spd_transform(rng, 4))
    report = map_error_sweep(model, [100, 1000], seed=2, holdout=2000)
    for diag in report.extras["diagnostics"]:
        assert diag["effective_rank_sigma1"] == pytest.approx(
            diag["trace_sigma1"] / diag["lambda_max_sigma1"], abs=1e-10)
        assert 1.0 <= diag["effective_rank_sigma1"] <= 4.0 + 1e-12
        assert diag["tau"] > 0


def test_map_error_rejects_empty_sizes():
    with pytest.raises(ValidationError):
        map_error_sweep(SyntheticModel.gaussian(2, 1.0), [])


def test_map_error_rejects_non_spd_transform():
    model = SyntheticModel.gaussian(2, 1.0).with_group1(
        MongeMap(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.zeros(2)))
    with pytest.raises(ValidationError):
        map_error_sweep(model, [50, 500])



def test_lipschitz_check_without_dimensions_is_zero():
    # every pair coincides in zero dimensions, so none is measured
    assert lipschitz_check(SyntheticModel.gaussian(0, 1.0), 4) == 0.0


@pytest.mark.parametrize("call, message", [
    (lambda: SweepReport((1.0,), (), (1.0,), True),
     "sweep report lists must share a length"),
    (lambda: shift_sweep(SyntheticModel.gaussian(2, 1.0), [0.0], 0),
     "n must be an integer >= 1, got 0"),
    (lambda: shift_sweep(SyntheticModel.gaussian(2, 1.0), [0.0], 2.5),
     "n must be an integer >= 1, got 2.5"),
    (lambda: lipschitz_check(SyntheticModel.gaussian(2, 1.0), 0),
     "trials must be an integer >= 1, got 0"),
    (lambda: lipschitz_check(SyntheticModel.gaussian(2, 1.0), True),
     "trials must be an integer >= 1, got True"),
    (lambda: SyntheticModel.gaussian(2, math.nan),
     "theta0 must be a finite number >= 0, got nan"),
    (lambda: map_error_sweep(SyntheticModel(
        2, 1.0, MongeMap(np.diag([1.0, -1.0]), np.zeros(2))), [10, 20]),
     "group-1 transform matrix must be positive definite"),
    (lambda: map_error_sweep(SyntheticModel(
        2, 1.0, MongeMap(np.array([[1.0, math.nan], [math.nan, 1.0]]),
                         np.zeros(2))), [10, 20]),
     "A must be a (2, 2) array of finite numbers, got nan"),
    (lambda: map_error_sweep(SyntheticModel.gaussian(2, 1.0), [20, 10]),
     "sample sizes must be increasing and exceed the dimension"),
    (lambda: map_error_sweep(SyntheticModel.gaussian(2, 1.0), [2, 10]),
     "sample sizes must be increasing and exceed the dimension"),
    (lambda: map_error_sweep(SyntheticModel.gaussian(2, 1.0), [10, 20],
                             holdout=1),
     "holdout must be an integer >= 2, got 1"),
    (lambda: map_error_sweep(SyntheticModel.gaussian(2, 1.0), [10, 20],
                             holdout=2.5),
     "holdout must be an integer >= 2, got 2.5"),
    (lambda: map_error_sweep(SyntheticModel.gaussian(2, 1.0), [10.7, 20]),
     "sample size must be an integer >= 1, got 10.7"),
    (lambda: map_error_sweep(SyntheticModel.gaussian(0, 1.0), [2, 3]),
     "model dim must be an integer >= 1, got 0"),
    (lambda: shift_sweep(SyntheticModel.gaussian(0, 1.0), [0.0, 1.0], 10),
     "model dim must be an integer >= 1, got 0"),
])
def test_synthetic_argument_checks_are_one_line_errors(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message
