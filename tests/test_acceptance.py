"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line via the conftest summary hook.

Criterion 2 sweeps the shift magnitudes of the default ``theory`` run,
0 to 1000, at theta0 = 5.  It checks that the measured accuracy decays
monotonically, that it equals the closed form sigmoid(2*theta0/(1+D)) at
shifts 100 and 1000 (0.52473 at 100, still 0.0247 from 1/2), and that at
shift 1000 it lies within the unwidened 0.02 gate of the random-guessing
limit 1/2.  Criterion 9 needs the census income test split on disk and
skips when absent.
"""

import itertools
import os
import time

import numpy as np
import pytest

from otrelabel import (
    AccuracyEstimate,
    GaussianMoments,
    MongeMap,
    PipelineConfig,
    SyntheticModel,
    WeakLabelMatrix,
    accuracies_from_moments,
    apply_monge,
    end_model_objective,
    estimate_accuracies,
    fairness_report,
    fit_label_model,
    fit_moments,
    infer_pseudolabels,
    lipschitz_check,
    linear_monge,
    map_error_sweep,
    psd_sqrt,
    sbm_transport,
    shift_sweep,
    sinkhorn_plan,
    triplet_accuracies,
)
from otrelabel.lfbank import apply_lf_bank, builtin_bank
from otrelabel.pipeline import read_raw_csv
from helpers import (
    bayes_posterior_oracle,
    make_biased_fixture,
    sample_conditional_lfs,
    sinkhorn_projection_oracle,
)


class Budget:
    """Wall-clock budget context; asserts the stated runtime limit."""

    def __init__(self, seconds: float):
        self.limit = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.limit, (
                f"runtime {self.elapsed:.2f}s exceeded {self.limit}s budget")
        return False


def random_spd(rng, d, lo=0.5, hi=2.0):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return (q * rng.uniform(lo, hi, d)) @ q.T


def test_criterion_01_triplet_recovery():
    true_acc = np.array([0.8, 0.6, 0.4, 0.3, 0.2])
    with Budget(5.0):
        for seed in range(5):
            wl, _ = sample_conditional_lfs(true_acc, 100_000, seed=seed)
            est, _ = triplet_accuracies(wl)
            assert np.abs(est - true_acc).max() <= 0.02, f"seed {seed}"
        moments = np.outer(true_acc, true_acc)
        np.fill_diagonal(moments, 1.0)
        exact, _ = accuracies_from_moments(moments)
        assert np.abs(exact - true_acc).max() <= 1e-12


def test_criterion_02_shift_to_random_guessing():
    theta0 = 5.0
    shifts = [0.0, 1.0, 10.0, 100.0, 1000.0]
    with Budget(10.0):
        model = SyntheticModel.gaussian(3, theta0)
        report = shift_sweep(model, shifts, n=100_000, seed=0)
    measured = report.measured
    assert all(b <= a + 0.01 for a, b in zip(measured, measured[1:])), \
        "measured accuracy must be monotone non-increasing"
    for dist, value in zip(shifts[-2:], measured[-2:]):
        closed = 1.0 / (1.0 + np.exp(-2.0 * theta0 / (1.0 + dist)))
        assert abs(value - closed) <= 1e-4, (
            f"shift {dist:g}: measured {value:.7f}, closed form {closed:.7f}")
    final = measured[-1]
    assert abs(final - 0.5) <= 0.02, (
        f"final measured accuracy {final:.5f} is {abs(final - 0.5):.5f} "
        "from 1/2")
    assert report.passed


def test_criterion_03_lipschitz_bound():
    with Budget(10.0):
        for i, theta0 in enumerate((0.5, 1.0, 3.0)):
            model = SyntheticModel.gaussian(3, theta0)
            ratio = lipschitz_check(model, trials=100_000, seed=i)
            assert ratio < 4.0 * theta0, f"theta0={theta0}: ratio {ratio}"


def test_criterion_04_map_error_bound_chain():
    with Budget(60.0):
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        g1 = MongeMap((q * rng.uniform(0.8, 1.6, 4)) @ q.T,
                      rng.normal(size=4) * 2.0)
        model = SyntheticModel.gaussian(4, 1.0).with_group1(g1)
        report = map_error_sweep(model, [100, 1000, 10_000], seed=0,
                                 holdout=20_000)
    gaps, bounds = report.measured, report.bound_or_limit
    for n, gap, rhs in zip(report.sweep_values, gaps, bounds):
        assert gap <= rhs + 1e-9, f"n={n}: gap {gap} above bound {rhs}"
    assert all(b < a for a, b in zip(bounds, bounds[1:])), \
        "map-error bound must decrease strictly with the fit size"
    for diag in report.extras["diagnostics"]:
        assert diag["effective_rank_sigma1"] == pytest.approx(
            diag["trace_sigma1"] / diag["lambda_max_sigma1"], abs=1e-10)
    assert report.passed


def test_criterion_05_gaussian_monge_correctness():
    with Budget(5.0):
        rng = np.random.default_rng(11)
        for d in (2, 8):
            for _ in range(5):
                src = GaussianMoments(rng.normal(size=d),
                                      random_spd(rng, d), 10)
                dst = GaussianMoments(rng.normal(size=d),
                                      random_spd(rng, d), 10)
                mm = linear_monge(src, dst)
                err = np.linalg.norm(mm.A @ src.sigma @ mm.A.T - dst.sigma)
                assert err / np.linalg.norm(dst.sigma) <= 1e-6

            # sample route: fit from 10k draws, push the source sample,
            # compare its scatter against the true destination moments
            sigma_s, sigma_t = random_spd(rng, d), random_spd(rng, d)
            mu_s, mu_t = rng.normal(size=d), rng.normal(size=d)
            xs = rng.normal(size=(10_000, d)) @ psd_sqrt(sigma_s) + mu_s
            xt = rng.normal(size=(10_000, d)) @ psd_sqrt(sigma_t) + mu_t
            mm = linear_monge(fit_moments(xs), fit_moments(xt))
            mapped = apply_monge(mm, xs)
            pushed = fit_moments(mapped)
            cov_err = (np.linalg.norm(pushed.sigma - sigma_t)
                       / np.linalg.norm(sigma_t))
            mean_err = np.linalg.norm(pushed.mu - mu_t)
            assert cov_err <= 0.05, f"d={d}: covariance error {cov_err}"
            assert mean_err <= 0.05 * max(1.0, np.linalg.norm(mu_t))


def test_criterion_06_sinkhorn_conservation_and_oracle_parity():
    with Budget(10.0):
        rng = np.random.default_rng(13)
        for trial in range(20):
            n = int(rng.integers(2, 65))
            m = int(rng.integers(2, 65))
            cost = rng.uniform(0.0, 3.0, size=(n, m))
            a = rng.uniform(0.1, 1.0, n)
            a /= a.sum()
            b = rng.uniform(0.1, 1.0, m)
            b /= b.sum()
            plan = sinkhorn_plan(cost, a, b, eta=1.0, max_iter=10_000,
                                 tol=1e-9)
            assert plan.converged
            violation = max(np.abs(plan.T.sum(axis=1) - a).max(),
                            np.abs(plan.T.sum(axis=0) - b).max())
            assert violation <= 1e-8, f"trial {trial}"
            oracle = sinkhorn_projection_oracle(cost, a, b, eta=1.0)
            assert np.abs(plan.T - oracle).max() <= 1e-8, f"trial {trial}"


def test_criterion_07_end_to_end_repair():
    with Budget(30.0):
        ds, wl = make_biased_fixture(2000, seed=0)
        blind = ds.without_labels()
        y, groups = ds.labels, ds.groups
        est, _ = estimate_accuracies(wl, blind)

        def group_acc(votes, j, k):
            mask = groups == k
            return float((votes[mask, j] == y[mask]).mean())

        # the first LF starts at chance on group 1
        assert abs(group_acc(wl.votes, 0, 1) - 0.5) <= 0.05

        repaired = {}
        for ot in ("none", "linear"):
            cfg = PipelineConfig(ot_type=ot)
            repaired[ot] = sbm_transport(blind, wl, est, cfg).new_votes

        linear_votes = repaired["linear"].votes
        g0 = group_acc(linear_votes, 0, 0)
        g1 = group_acc(linear_votes, 0, 1)
        assert abs(g1 - g0) <= 0.05, (
            f"group accuracies after linear repair differ by {abs(g1 - g0)}")

        # identity transport cannot undo the shift: strictly worse
        assert group_acc(repaired["none"].votes, 0, 1) < g1

        def pseudo_dp(votes_matrix):
            global_acc, _ = triplet_accuracies(votes_matrix)
            params = fit_label_model(
                AccuracyEstimate(global_acc,
                                 np.column_stack([global_acc, global_acc])))
            _, hard = infer_pseudolabels(params, votes_matrix)
            return fairness_report(hard, y, groups).dp_gap

        assert pseudo_dp(repaired["linear"]) <= pseudo_dp(wl) + 1e-9


def test_criterion_08_fairness_arithmetic():
    cases = [
        (0.3038, 0.1093, 0.1945),
        (0.1093, 0.2399, 0.1306),
        (0.8040, 0.4672, 0.3368),
    ]
    n = 10_000
    for rate1, rate0, expected in cases:
        pred = []
        groups = []
        for k, rate in ((0, rate0), (1, rate1)):
            pos = round(rate * n)
            pred.extend([1] * pos + [-1] * (n - pos))
            groups.extend([k] * n)
        pred = np.array(pred)
        groups = np.array(groups)
        rep = fairness_report(pred, pred.copy(), groups)
        assert abs(rep.dp_gap - expected) <= 1e-12


ADULT_TEST_PATH = os.environ.get(
    "ADULT_TEST_CSV",
    os.path.join(os.path.dirname(__file__), "..", "data", "adult_test.csv"))


def test_criterion_09_adult_bank_sanity_gated():
    if not os.path.exists(ADULT_TEST_PATH):
        pytest.skip("census income test split not present "
                    f"(looked at {ADULT_TEST_PATH}; set ADULT_TEST_CSV)")
    table = read_raw_csv(ADULT_TEST_PATH)
    if "label" not in table:
        pytest.skip("census file lacks a 'label' column with -1/1 values")
    gold = np.array([int(v) for v in table["label"]])
    assert gold.shape[0] == 16_281
    wl = apply_lf_bank(table, builtin_bank("adult-v1"))
    acc = lambda j: float((wl.votes[:, j] == gold).mean())
    assert abs(acc(4) - 0.800) <= 0.02   # capital-gain rule
    assert abs(acc(0) - 0.549) <= 0.02   # age rule


def test_criterion_10_bayes_equivalence_and_gradient():
    accs = [0.85, 0.6, 0.35, 0.15]
    balance = 0.4
    est = AccuracyEstimate(np.array(accs),
                           np.column_stack([accs, accs]))
    params = fit_label_model(est, balance)
    outcomes = np.array(list(itertools.product([-1, 0, 1], repeat=4)))
    probs, _ = infer_pseudolabels(params, WeakLabelMatrix(outcomes))
    for row, p in zip(outcomes, probs):
        expected = bayes_posterior_oracle(row, accs, balance)
        assert abs(p - expected) <= 1e-12

    rng = np.random.default_rng(17)
    x = rng.normal(size=(60, 4))
    t = rng.random(60)
    l2 = 0.01
    h = 1e-5
    for _ in range(10):
        coef = rng.normal(size=5)
        _, grad = end_model_objective(coef, x, t, l2)
        fd = np.empty_like(coef)
        for i in range(coef.size):
            up, down = coef.copy(), coef.copy()
            up[i] += h
            down[i] -= h
            fd[i] = (end_model_objective(up, x, t, l2)[0]
                     - end_model_objective(down, x, t, l2)[0]) / (2 * h)
        rel = np.abs(grad - fd).max() / max(np.abs(grad).max(), 1e-12)
        assert rel <= 1e-6
