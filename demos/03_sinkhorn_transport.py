# -*- coding: utf-8 -*-
"""
Entropic transport plans and barycentric projection
===================================================

When clouds are not Gaussian-like, a coupling can be computed directly by
alternately rescaling rows and columns of exp(-M/eta).  The plan's blur is
controlled by eta; the barycentric projection turns a plan into mapped
coordinates.
"""

import numpy as np
from scipy.spatial.distance import cdist

from otrelabel import barycentric_map, sinkhorn_plan

rng = np.random.default_rng(2)

# two crescent-ish 2-D clouds
t1 = rng.uniform(0, np.pi, 80)
src = np.column_stack([np.cos(t1), np.sin(t1)]) + rng.normal(0, 0.05, (80, 2))
t2 = rng.uniform(0, np.pi, 60)
dst = (np.column_stack([1 - np.cos(t2), 1 - np.sin(t2)])
       + rng.normal(0, 0.05, (60, 2)) + [2.0, 0.0])

cost = cdist(src, dst, "sqeuclidean")

# %% the reference budget is 10 rounds; the plan says whether they sufficed

quick = sinkhorn_plan(cost, eta=1.0, max_iter=10, tol=1e-9)
print(f"10 rounds:   violation {quick.marginal_violation:.2e} "
      f"converged={quick.converged}")

full = sinkhorn_plan(cost, eta=1.0, max_iter=10_000, tol=1e-9)
print(f"full budget: violation {full.marginal_violation:.2e} "
      f"converged={full.converged} after {full.iterations_run} rounds")

# %% marginals are conserved; at a sharper eta, a bigger budget lowers the
# violation until it falls below tol and the scaling stops early.  Once
# the plain rounds show their convergence rate the scaling over-relaxes
# with the factor that rate implies: here it stops after 31 rounds, where
# plain scaling took 60

print("\nrow-sum error:", float(np.abs(full.T.sum(1) - 1 / 80).max()))
print("col-sum error:", float(np.abs(full.T.sum(0) - 1 / 60).max()))
for max_iter in (1, 10, 30, 100):
    plan = sinkhorn_plan(cost, eta=0.05, max_iter=max_iter, tol=1e-12)
    print(f"eta=0.05, max_iter={max_iter:>3}: violation "
          f"{plan.marginal_violation:.2e} after {plan.iterations_run} rounds, "
          f"converged={plan.converged}")

# %% eta controls how sharp the induced mapping is

for eta in (1.0, 0.05):
    plan = sinkhorn_plan(cost, eta=eta, max_iter=20_000, tol=1e-10)
    mapped = barycentric_map(plan, dst)
    spread = np.linalg.norm(mapped - mapped.mean(axis=0), axis=1).mean()
    print(f"\neta={eta}: mapped-cloud mean spread {spread:.3f} "
          f"(destination spread "
          f"{np.linalg.norm(dst - dst.mean(0), axis=1).mean():.3f})")
    print("  -> small eta keeps structure; large eta contracts toward "
          "the barycenter")
