"""Backtracking under bounded noise, on a 90-dimensional test problem.

Function values carry uniform noise of half-width e_f and gradients uniform
sphere noise of radius e_g (both 1e-4 relative to the start).  The sufficient
decrease test gets a 2*e_f allowance so noise alone cannot veto a good step,
and every trial is metered by counted function evaluations, not iterations.

Three trials of DIXMAANA with the soft update; the shipped protocol
(`softqn-bench cutest`) runs 30.
"""

import tempfile

import numpy as np

from softqn import align_trace
from softqn.experiments import run_cutest

with tempfile.TemporaryDirectory() as out:
    records, _ = run_cutest({"trials": 3, "methods": ["softqn"]}, out)

print(f"{'trial':>5}  {'fun evals':>9}  {'rejections':>10}  {'final suboptimality':>20}")
finals = []
for t, rec in enumerate(records["softqn"]):
    finals.append(align_trace(rec, 2000)[-1])
    print(f"{t:5d}  {rec.fun_evals:9d}  {rec.step_rejections:10d}  {finals[-1]:20.3e}")
print(f"\nmedian suboptimality after 2000 evaluations: {np.median(finals):.3e}")

rec = records["softqn"][0]
trace = align_trace(rec, 2000)
print("\nsuboptimality vs. evaluation count (trial 0):")
for j in [1, 250, 500, 1000, 1500, 2000]:
    print(f"  after {j:4d} evals: {trace[j - 1]:.3e}")
