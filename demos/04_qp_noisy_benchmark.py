"""Random convex QPs with Gaussian gradient noise: who copes?

Each trial draws a fresh 50-dimensional convex quadratic (condition number
100), corrupts every gradient with standard Gaussian noise, and runs 1000
iterations with the diminishing step 1/k.  Exact Newton is the reference;
stochastic BFGS ingests the noisy curvature pairs unguarded and falls apart.
The penalized update takes the same pairs and stays in the game.

Uses fewer trials than the shipped protocol so the demo finishes in seconds;
run `softqn-bench qp` for the full version.
"""

import tempfile

import numpy as np

from softqn import metric_normalized_subopt
from softqn.experiments import run_qp

with tempfile.TemporaryDirectory() as out:
    records, written = run_qp({"trials": 5}, out)

print(f"{'method':>8}  {'mean final normalized log10 suboptimality':>42}")
for method, recs in records.items():
    finals = [metric_normalized_subopt(rec)[-1] for rec in recs]
    print(f"{method:>8}  {np.mean(finals):+42.3f}")

rec = records["bfgs"][0]
print(
    f"\nstochastic BFGS, trial 0: {rec.step_rejections} rejected steps, "
    f"{rec.skipped_updates} skipped updates out of {rec.iterations} iterations"
)
rec = records["softqn"][0]
print(
    f"soft QN, trial 0:         {rec.step_rejections} rejected steps, "
    f"{rec.skipped_updates} skipped updates (every pair is usable)"
)
