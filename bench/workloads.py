"""Seeded inputs for the benchmark workloads.

Every workload has two groups of equal size.  The label y is +-1; exactly
35% of group 0 and 65% of group 1 are positive, so a correct labeler has
a demographic parity gap of 0.3, the gap metric never reads 0, and the
class counts add no seed-to-seed noise.  Feature axes 0-3 carry y as a
+1/-1 mean shift and the other axes are noise.  Group 1 is shifted +5 on
axes 0 and 2.

The first two LFs, ``sign(x0)`` and ``sign(x2)``, are accurate on group 0
but vote +1 on nearly every group-1 row: they are biased against group 1
and are transported in the same direction.  The other LFs are copies of
y, the same on both groups, that abstain on 10% of rows and flip 10-25%
of the remaining votes (30-45% with 60 LFs, so that the pseudolabels stay
short of 100% accuracy).  Their estimated accuracies differ between the
groups only by sampling noise, so with ``tie_tol=0.2`` the transported
workloads skip them on every seed: the transport work, and the parity
gap the skipped LFs keep, do not depend on the seed.  Over 1000 seeds the
largest such difference was 0.14 and the smallest for a biased LF 0.30.
(Relabelling every LF, as the global scope does, drives the parity gap
down to sampling noise, which no relative bound can hold.)
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

SHIFT = 5.0
POSITIVE_RATE = (0.35, 0.65)
ABSTAIN_RATE = 0.10
BIASED_AXES = [0, 2]


@dataclass(frozen=True)
class Workload:
    name: str
    rows_per_group: int
    d: int
    m: int
    config: dict
    passthrough: bool = False
    flip_range: tuple[float, float] = (0.10, 0.25)


WORKLOADS = {w.name: w for w in (
    # Gaussian Monge map and 1-NN relabel of the two biased LFs, which
    # share one direction.  The brute-force kNN is about half of a run;
    # estimation is under 2%.
    Workload(
        "linear_k1",
        rows_per_group=6000, d=8, m=10,
        config={"ot_type": "linear", "knn_k": 1, "tie_tol": 0.2},
    ),
    # The dense Sinkhorn plan sets peak memory; the 5-NN majority vote
    # sorts every destination row once per query row and LF.
    Workload(
        "sinkhorn_k5",
        rows_per_group=2000, d=8, m=10,
        config={"ot_type": "sinkhorn", "sinkhorn_eta": 0.05,
                "sinkhorn_max_iter": 200, "knn_k": 5, "tie_tol": 0.2},
    ),
    # Transport is bypassed.  With 60 LFs, aggregating 34,220 triplets per
    # estimate (six per run) dominates, then CSV ingest, the end model and
    # the moment matrices.  A change to transport must not move it.
    Workload(
        "passthrough_wide",
        rows_per_group=2500, d=16, m=60,
        config={}, passthrough=True, flip_range=(0.30, 0.45),
    ),
)}


@dataclass(frozen=True)
class Inputs:
    features_path: str
    votes_path: str
    groups: np.ndarray
    labels: np.ndarray
    votes: np.ndarray


def generate(w: Workload, seed: int) -> tuple[np.ndarray, np.ndarray,
                                              np.ndarray, np.ndarray]:
    """Features, groups, labels and votes for ``w``, rows interleaved."""
    rng = np.random.default_rng(seed)
    n = 2 * w.rows_per_group
    groups = rng.permutation(np.repeat([0, 1], w.rows_per_group))
    y = np.empty(n, dtype=np.int64)
    for k, rate in enumerate(POSITIVE_RATE):
        positives = round(rate * w.rows_per_group)
        y[groups == k] = rng.permutation(
            np.repeat([1, -1], [positives, w.rows_per_group - positives]))
    x = rng.standard_normal((n, w.d))
    x[:, :4] += y[:, None]
    x[:, BIASED_AXES] += SHIFT * groups[:, None]

    votes = np.empty((n, w.m), dtype=np.int64)
    for j, axis in enumerate(BIASED_AXES):
        votes[:, j] = np.where(x[:, axis] >= 0, 1, -1)
    biased = len(BIASED_AXES)
    flips = np.linspace(*w.flip_range, w.m - biased)
    for j in range(biased, w.m):
        col = np.where(rng.random(n) < flips[j - biased], -y, y)
        col[rng.random(n) < ABSTAIN_RATE] = 0
        votes[:, j] = col
    return x, groups, y, votes


def write_inputs(w: Workload, seed: int, directory: str) -> Inputs:
    """Generate the workload's inputs and write them as the two CSVs the
    pipeline reads.  Floats are written with ``repr`` so parsing gives
    back the generated values exactly."""
    x, groups, y, votes = generate(w, seed)
    os.makedirs(directory, exist_ok=True)
    features_path = os.path.join(directory, "features.csv")
    votes_path = os.path.join(directory, "votes.csv")
    header = [f"x{c}" for c in range(w.d)] + ["group", "label"]
    with open(features_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row, g, label in zip(x.tolist(), groups.tolist(), y.tolist()):
            fh.write(",".join(map(repr, row)) + f",{g},{label}\n")
    with open(votes_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(f"lf_{j}" for j in range(w.m)) + "\n")
        for row in votes.tolist():
            fh.write(",".join(map(str, row)) + "\n")
    return Inputs(features_path, votes_path, groups, y, votes)
