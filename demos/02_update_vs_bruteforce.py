"""The closed form really is the minimizer of the penalty objective.

The update solves min_B -log det B + tr(HB) + alpha*||s - B^{-1}y||^2_B over
positive definite matrices, in closed form.  Here we minimize the same
objective numerically (no structure assumed beyond symmetry) and compare:
objective values, first-order residuals, and the matrices themselves.
"""

import numpy as np

from softqn import soft_qn_update
from softqn.oracle import (
    PenaltyObjectiveSpec,
    minimize_penalty_objective,
    penalty_objective,
    stationarity_residual,
)

rng = np.random.default_rng(11)
n = 3
q, _ = np.linalg.qr(rng.standard_normal((n, n)))
h = q @ np.diag(rng.uniform(0.5, 2.0, n)) @ q.T
spec = PenaltyObjectiveSpec(
    h_prev=h, s=rng.standard_normal(n), y=rng.standard_normal(n), alpha=2.5
)

h_closed, _ = soft_qn_update(spec.h_prev, spec.s, spec.y, spec.alpha)
b_closed = np.linalg.inv(h_closed)
oracle = minimize_penalty_objective(spec)

print(f"n = {n}, alpha = {spec.alpha}, s'y = {spec.s @ spec.y:+.4f}")
print(f"objective at closed form   : {penalty_objective(spec, b_closed):.10f}")
print(f"objective at numerical min : {oracle.objective_value:.10f}  ({oracle.iterations} iters)")
print(f"residual at closed form    : {stationarity_residual(spec, b_closed):.3e}")
print(f"residual at numerical min  : {stationarity_residual(spec, oracle.b_star):.3e}")
gap = np.linalg.norm(oracle.h_star - h_closed) / np.linalg.norm(h_closed)
print(f"relative Frobenius distance between the two H' matrices: {gap:.3e}")

# and the objective is strictly worse anywhere else, e.g. at the unmodified H
b_prev = np.linalg.inv(spec.h_prev)
print(f"objective at the no-update point, for scale: {penalty_objective(spec, b_prev):.10f}")
