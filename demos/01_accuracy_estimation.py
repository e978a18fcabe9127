# -*- coding: utf-8 -*-
"""
Estimating labeling-function accuracies without gold labels
============================================================

Three or more noisy voters that are conditionally independent given the
true label satisfy E[l_i * l_j] = a_i * a_j, so any triplet of voters
pins down each |a_i| in closed form.  This demo samples votes at known
accuracies, recovers them from the vote matrix alone, and shows the
estimator is exact when fed population moments.
"""

import numpy as np

from otrelabel import (
    GroupedDataset,
    WeakLabelMatrix,
    accuracies_from_moments,
    per_group_accuracies,
    triplet_accuracies,
)

rng = np.random.default_rng(0)

# %% sample five conditionally independent voters at known accuracies

true_acc = np.array([0.8, 0.6, 0.4, 0.3, 0.2])   # E[vote * y]
n = 100_000
y = rng.choice([-1, 1], size=n)
agree = rng.random((n, 5)) < (1 + true_acc) / 2
wl = WeakLabelMatrix(np.where(agree, y[:, None], -y[:, None]))

est, records = triplet_accuracies(wl)
print("true accuracies:     ", true_acc)
print("estimated from votes:", est.round(3))
print("max error:           ", float(np.abs(est - true_acc).max()).__round__(4))
print("triplets used:       ", int((~records.degenerate).sum()),
      "of", len(records))

# %% with exact population moments the identity is sharp

moments = np.outer(true_acc, true_acc)
np.fill_diagonal(moments, 1.0)
exact, _ = accuracies_from_moments(moments)
print("\nfrom population moments:", exact)
print("worst deviation:", float(np.abs(exact - true_acc).max()))

# %% per-group estimation spots a voter that misbehaves on one group

groups = np.repeat([0, 1], n // 2)
flipped = wl.votes.copy()
flipped[groups == 1, 0] = -flipped[groups == 1, 0]   # adversarial on group 1
ds = GroupedDataset(np.zeros((n, 1)), groups)
per_group = per_group_accuracies(WeakLabelMatrix(flipped), ds)
print("\nper-group accuracy of the tampered voter:",
      per_group[0].round(3), "(group 0 vs group 1)")
print("the disagreement in sign is what the repair stage keys on")
