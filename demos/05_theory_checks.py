# -*- coding: utf-8 -*-
"""
Numeric checks of the model's guarantees
========================================

Three facts about the synthetic labeler back the repair method:

1. pushing a group arbitrarily far from the accuracy center drives its
   expected labeler accuracy to exactly 1/2 (coin flipping);
2. the accuracy probability is 4*theta0-Lipschitz in the features, so
   small transport errors cause small accuracy changes;
3. repairing with a *fitted* map changes expected accuracy by at most
   4*theta0 times the mean map error, which shrinks as the fit gets more
   samples.

Running this script executes all three sweeps and writes plot-ready CSVs.
"""

import sys

from otrelabel.pipeline import write_theory_artifacts
from otrelabel.synthetic import run_theory_suite

out_dir = sys.argv[1] if len(sys.argv) > 1 else "."

bundle = run_theory_suite()

shift = bundle["shift_limit"]
print("accuracy collapse under group shift (theta0=5):")
for d, measured in zip(shift["sweep_values"], shift["measured"]):
    print(f"  shift {d:>7.1f}: E[P(vote = y)] = {measured:.4f}")
print(f"  -> limit 0.5, check passed: {shift['passed']}")

lp = bundle["lipschitz"]
print("\nLipschitz ratios vs the 4*theta0 bound:")
for theta0, ratio, bound in zip(lp["sweep_values"], lp["measured"],
                                lp["bound_or_limit"]):
    print(f"  theta0={theta0}: max observed {ratio:.4f} < bound {bound:.1f}")
print(f"  -> check passed: {lp['passed']}")

me = bundle["map_error_bound"]
print("\naccuracy gap vs 4*theta0 * mean map error:")
for n, gap, rhs in zip(me["sweep_values"], me["measured"],
                       me["bound_or_limit"]):
    print(f"  n={int(n):>6}: gap {gap:.5f} <= bound {rhs:.5f}")
print(f"  -> check passed: {me['passed']}")

write_theory_artifacts(bundle, out_dir)
print(f"\nwrote theory_report.json and sweep CSVs to {out_dir}")
print("overall:", "ok" if bundle["passed"] else "FAILED")
