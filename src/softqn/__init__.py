"""Quasi-Newton updates that stay positive definite without a curvature condition.

The core operation softens the secant constraint into a penalty, which keeps
the inverse-Hessian estimate positive definite for every step/gradient-change
pair and every penalty weight.  The package bundles the update formulas and
their eigenvalue-control policies (:mod:`softqn.updates`), a brute-force
verification oracle for the underlying matrix optimization problem
(:mod:`softqn.oracle`), an iteration loop with a noise-tolerant backtracking
line search (:mod:`softqn.solver`), analytic test problems and a LIBSVM reader
(:mod:`softqn.problems`), and a deterministic Monte Carlo benchmark harness
(:mod:`softqn.bench`, :mod:`softqn.experiments`, CLI ``softqn-bench``).

The package root re-exports the names the README and the demos use; every
other name is imported from its module.
"""

from .bench import align_trace, metric_log10_grad, metric_normalized_subopt
from .noise import GaussianNoise, NoisyOracle
from .problems import gen_random_qp, toy_2d
from .solver import Budget, FixedStep, SaddleFreeNewton, SoftQn, run, saddle_free_abs
from .updates import ConstantAlpha, CurvatureError, bfgs_update, soft_qn_update

__version__ = "0.1.0"

__all__ = [
    "Budget",
    "ConstantAlpha",
    "CurvatureError",
    "FixedStep",
    "GaussianNoise",
    "NoisyOracle",
    "SaddleFreeNewton",
    "SoftQn",
    "align_trace",
    "bfgs_update",
    "gen_random_qp",
    "metric_log10_grad",
    "metric_normalized_subopt",
    "run",
    "saddle_free_abs",
    "soft_qn_update",
    "toy_2d",
]
