# -*- coding: utf-8 -*-
"""
Repairing a group-biased labeling function end to end
=====================================================

A voter that thresholds a raw coordinate can be accurate on one group and
useless on another when the groups' features are shifted against each
other.  The repair: estimate per-group accuracies without gold labels,
transport the weak group's points onto the strong group, and re-label them
from their new neighbors.  Gold labels are used here only to report how
well it worked.
"""

import numpy as np

from otrelabel import (
    GroupedDataset,
    PipelineConfig,
    WeakLabelMatrix,
    fairness_report,
    lf_delta_report,
    repair,
)

rng = np.random.default_rng(3)
n = 1500

# group 0 at the origin, group 1 shifted by +10 on the first axis; the
# true label depends on the *second* axis, which the shift leaves alone
z0 = rng.normal(size=(n, 2))
z1 = rng.normal(size=(n, 2))
x = np.vstack([z0, z1 + [10.0, 0.0]])
groups = np.repeat([0, 1], n)
y = np.where(np.vstack([z0, z1])[:, 1] > 0, 1, -1)

# lf_0 mixes both raw coordinates: decent on group 0, but the shift drags
# its threshold out of reach so it votes a constant on group 1;
# lf_1..3 are ordinary noisy voters on both groups
votes = np.column_stack([
    np.where(x[:, 1] - x[:, 0] / 2 > 0, 1, -1),
    *(np.where(rng.random(2 * n) < p, -y, y) for p in (0.15, 0.25, 0.2)),
])
ds = GroupedDataset(x, groups, y)
wl = WeakLabelMatrix(votes)


def group_accuracy(matrix, j, k):
    mask = groups == k
    return float((matrix[mask, j] == y[mask]).mean())


print("lf_0 accuracy by group before repair: "
      f"group0={group_accuracy(votes, 0, 0):.3f} "
      f"group1={group_accuracy(votes, 0, 1):.3f}")

# %% one whole run per transport flavor; repair never reads the gold
# labels, which only the reports below use

runs = {ot: repair(ds, wl, PipelineConfig(
            ot_type=ot, sinkhorn_max_iter=2000, sinkhorn_eta=0.05))
        for ot in ("none", "linear", "sinkhorn")}
best = runs["linear"]

print("\nestimated per-group accuracies (no gold labels involved):")
for j, (a0, a1) in enumerate(best.group_acc):
    print(f"  lf_{j}: group0={a0:+.3f} group1={a1:+.3f}")

for ot, run in runs.items():
    print(f"\not={ot}: lf_0 group-1 accuracy "
          f"{group_accuracy(run.repaired.votes, 0, 1):.3f}")

# %% per-LF fairness deltas, pseudolabels, and the end model

print("\nper-LF accuracy / demographic-parity deltas (linear repair):")
for row in lf_delta_report(wl, best.repaired, ds):
    print(f"  {row['name']}: dAcc={row['delta']['accuracy']:+.3f} "
          f"dDP={row['delta']['dp_gap']:+.3f}")

raw = repair(ds, wl, PipelineConfig(), passthrough=True)
for name, run in (("raw", raw), ("repaired", best)):
    rep = fairness_report(run.hard, y, groups)
    print(f"\npseudolabels from {name} votes: accuracy={rep.accuracy:.3f} "
          f"dp_gap={rep.dp_gap:.3f}")
emr = fairness_report(best.end_preds, y, groups)
print(f"end model on repaired pseudolabels: "
      f"accuracy={emr.accuracy:.3f} dp_gap={emr.dp_gap:.3f}")
