"""Preset benchmark protocols built on the Monte Carlo harness.

Four experiments: noisy logistic regression with minibatch gradients, random
convex QPs with Gaussian gradient noise and a diminishing step, the classic
smooth test set under relative function/gradient noise with a noisy line
search, and the deterministic 2-D saddle walk.  Each writes the long-format
CSV, per-figure plot data, and (where meaningful) a summary table.
"""

import math
import os
from importlib import resources

import numpy as np

from ._rules import count, nonnegative
from .bench import MetricSpec, align_trace, emit_csv, metric_log10_grad, metric_normalized_subopt, monte_carlo
from .bench import write_csv
from .noise import GaussianNoise, MinibatchSampling, NoisyOracle, SphereNoise, UniformNoise, derive_seed
from .problems import cutest_like, gen_random_qp, load_libsvm, logistic_problem, toy_2d
from .solver import (
    Budget,
    DiminishingStep,
    ExactNewton,
    FixedStep,
    NoisyArmijo,
    SaddleFreeNewton,
    Sgd,
    SoftQn,
    SpBfgs,
    StochasticBfgs,
    run,
    saddle_free_abs,
)
from .updates import ConstantAlpha, CurvatureRelaxedBeta, StepNormBeta

__all__ = [
    "fixture_dataset_path",
    "run_qp",
    "run_cutest",
    "run_logreg",
    "run_toy",
    "QP_DEFAULTS",
    "CUTEST_DEFAULTS",
    "LOGREG_DEFAULTS",
    "TOY_DEFAULTS",
]

QP_DEFAULTS = {
    "seed": 1234,
    "trials": 20,
    "n": 50,
    "iterations": 1000,
    "noise_scale": 1.0,
    "step_scale": 1.0,
    "alpha": 1e-4,
    "beta": 1e-2,
    "relax": 0.9,
    "methods": ["newton", "softqn", "spbfgs", "bfgs", "sgd"],
}

CUTEST_DEFAULTS = {
    "seed": 1234,
    "trials": 30,
    "problem": "DIXMAANA",
    "budget": 2000,
    "noise_rel": 1e-4,
    "alpha": 1e6,
    "beta_scale": 1e8,
    "beta_floor": 1e-10,
    "eta0": 1.0,
    "armijo_c": 1e-4,
    "tau": 0.5,
    "max_backtracks": 45,
    "methods": ["softqn", "spbfgs"],
}

LOGREG_DEFAULTS = {
    "seed": 1234,
    "trials": 10,
    "dataset": "",
    "rho": 0.1,
    "eta": 0.1,
    "iterations": 300,
    "batch": 0,  # 0 keeps the reference sampling fraction (1000 of 49990)
    "alpha": 0.5,
    "beta_coeff": 0.1,
    "beta_floor": 1e-10,
    "methods": ["softqn", "spbfgs", "bfgs", "sgd"],
}

TOY_DEFAULTS = {
    "seed": 1234,
    "iterations": 500,
    "eta": 0.01,
    "alpha": 8e5,
    "methods": ["softqn", "saddle_free_newton"],
}


def fixture_dataset_path() -> str:
    """Path of the bundled 200-row synthetic LIBSVM fixture (22 features)."""
    return str(resources.files("softqn").joinpath("data/synthetic_binary_n22.libsvm"))


def run_qp(params, out_dir):
    """Random convex QPs, Gaussian gradient noise, diminishing step eta_k = c/k.

    A fresh problem is drawn per trial and shared (with the noise stream) by all
    methods of that trial, so comparisons are paired.

    The pairs are noise dominated: |As| = O(1/k), while the difference of two
    noise draws has E[yy'] ~= 2*noise_scale*I.  Each soft update then contracts
    H ~= hI by about 2*alpha*noise_scale*h^2, so H_k ~= I/(1 + 2*alpha*noise_scale*k)
    and soft QN behaves as SGD whose step scale falls from step_scale to
    c_K*step_scale, c_K = 1/(1 + 2*alpha*noise_scale*iterations) (0.833 at the
    defaults).  At the defaults its final suboptimality was measured to lie
    between SGD at those two scales, behind SGD at step_scale.
    """
    p = _params(QP_DEFAULTS, params)
    budget = Budget(iterations=p["iterations"])
    noise = GaussianNoise(p["noise_scale"])
    step = DiminishingStep(p["step_scale"])
    methods = {
        "newton": lambda: ExactNewton(),
        "softqn": lambda: SoftQn(ConstantAlpha(p["alpha"])),
        "spbfgs": lambda: SpBfgs(CurvatureRelaxedBeta(p["beta"], p["relax"])),
        "bfgs": lambda: StochasticBfgs(),
        "sgd": lambda: Sgd(),
    }
    methods = _select_methods(p["methods"], methods)
    problems = [gen_random_qp(p["n"], derive_seed(p["seed"], "qp-problem", t)) for t in range(p["trials"])]

    def trial_fn(m, t):
        oracle = NoisyOracle(problems[t], grad_noise=noise, seed=derive_seed(p["seed"], t))
        return run(oracle, methods[m], step, budget)

    records = monte_carlo(trial_fn, p["methods"], p["trials"])

    def subopt_series(record):
        return metric_normalized_subopt(record, record.suboptimality[0] + record.phi_star)

    metric = MetricSpec("normalized_log10_subopt", "iteration", subopt_series, band="mean3sd")
    written = emit_csv(out_dir, "qp", f"qp{p['n']}", records, metric, summary=True)
    return records, written


def run_cutest(params, out_dir):
    """Smooth test problems under relative noise, with the noisy backtracking search.

    Function noise is uniform with half-width e_f = noise_rel*|phi(x0)|; gradient
    noise is uniform on the sphere of radius e_g = noise_rel*|grad(x0)|.  Both
    methods of a trial replay the same noise streams.
    """
    p = _params(CUTEST_DEFAULTS, params)
    budget = Budget(fun_evals=p["budget"])
    problem = cutest_like(p["problem"])
    e_f = p["noise_rel"] * abs(problem.phi(problem.x0))
    e_g = p["noise_rel"] * float(np.linalg.norm(problem.grad(problem.x0)))
    fun_noise, grad_noise = UniformNoise(e_f), SphereNoise(e_g)
    step = NoisyArmijo(
        eta0=p["eta0"],
        c=p["armijo_c"],
        tau=p["tau"],
        max_backtracks=p["max_backtracks"],
        eps_tol=e_f,
    )
    methods = {
        "softqn": lambda: SoftQn(ConstantAlpha(p["alpha"])),
        "spbfgs": lambda: SpBfgs(StepNormBeta(p["beta_scale"] / e_g, p["beta_floor"])),
    }
    if "spbfgs" in p["methods"] and e_g == 0.0:
        raise ValueError(
            "spbfgs needs gradient noise: its beta scales with 1/e_g, and "
            f"noise_rel = {p['noise_rel']} gives e_g = 0 on {problem.name}"
        )
    methods = _select_methods(p["methods"], methods)

    def trial_fn(m, t):
        seed = derive_seed(p["seed"], t)
        oracle = NoisyOracle(problem, fun_noise=fun_noise, grad_noise=grad_noise, seed=seed)
        return run(oracle, methods[m], step, budget)

    records = monte_carlo(trial_fn, p["methods"], p["trials"])

    metric = MetricSpec(
        "suboptimality", "fun_eval", lambda r: align_trace(r, p["budget"]).values, band="quartiles"
    )
    written = emit_csv(out_dir, f"cutest_{problem.name.lower()}", problem.name, records, metric, summary=True)
    return records, written


def run_logreg(params, out_dir):
    """Regularized logistic regression with minibatch gradients and a fixed step."""
    p = _params(LOGREG_DEFAULTS, params)
    budget = Budget(iterations=p["iterations"])
    step = FixedStep(p["eta"])
    nonnegative("rho", p["rho"])  # logistic_problem checks it too, but only after the load
    methods = {
        "softqn": lambda: SoftQn(ConstantAlpha(p["alpha"])),
        "spbfgs": lambda: SpBfgs(StepNormBeta(p["beta_coeff"], p["beta_floor"])),
        "bfgs": lambda: StochasticBfgs(),
        "sgd": lambda: Sgd(),
    }
    methods = _select_methods(p["methods"], methods)
    path = p["dataset"] or fixture_dataset_path()
    data = load_libsvm(path)
    problem = logistic_problem(data, p["rho"])
    batch = p["batch"] or max(1, round(data.n_samples * 1000 / 49990))
    sampling = MinibatchSampling(min(batch, data.n_samples))

    def trial_fn(m, t):
        oracle = NoisyOracle(problem, grad_noise=sampling, seed=derive_seed(p["seed"], m, t))
        return run(oracle, methods[m], step, budget)

    records = monte_carlo(trial_fn, p["methods"], p["trials"])
    metric = MetricSpec("log10_grad_norm", "iteration", metric_log10_grad, band="mean3sd")
    written = emit_csv(out_dir, "logreg", os.path.basename(path), records, metric, summary=True)
    return records, written


def run_toy(params, out_dir):
    """Deterministic walk on the 2-D saddle landscape; writes iterate paths."""
    p = _params(TOY_DEFAULTS, params)
    problem = toy_2d()
    budget = Budget(iterations=p["iterations"])
    step = FixedStep(p["eta"])
    h0 = np.linalg.inv(saddle_free_abs(problem.hess(problem.x0)))
    methods = {
        "softqn": lambda: (SoftQn(ConstantAlpha(p["alpha"])), h0),
        "saddle_free_newton": lambda: (SaddleFreeNewton(), None),
    }
    methods = _select_methods(p["methods"], methods)

    def trial_fn(m, t):
        method, start_h = methods[m]
        oracle = NoisyOracle(problem, seed=derive_seed(p["seed"], m, t))
        return run(oracle, method, step, budget, h0=start_h, keep_iterates=True)

    records = monte_carlo(trial_fn, p["methods"], 1)
    metric = MetricSpec("log10_grad_norm", "iteration", metric_log10_grad, band="mean3sd")
    written = emit_csv(out_dir, "toy", problem.name, records, metric)
    for m, recs in records.items():
        path = os.path.join(out_dir, f"fig_toy_path_{m}.csv")
        xs = np.array(recs[0].iterates)
        write_csv(path, "index,x1,x2", [range(len(xs)), xs[:, 0], xs[:, 1]])
        written.append(path)
    return records, written


# the counts a runner checks itself: no object takes trials, a bad seed must fail before load_libsvm,
# Budget names budget fun_evals, the sampling needs the data; a batch of 0 keeps the preset fraction
_COUNTS = {"seed": 0, "trials": 1, "budget": 1, "batch": 0}


def _params(defaults, params):
    """The defaults overridden by ``params``.  Raises ValueError on a seed outside
    [0, 2**64), a count in ``_COUNTS`` (the seed is one) below its least value or not
    an integer, or a non-finite float; the objects a runner builds check the rest."""
    p = {**defaults, **params}
    if not 0 <= p["seed"] < 2**64:
        raise ValueError(f"seed {p['seed']} out of unsigned 64-bit range")
    for key, least in _COUNTS.items():
        if key in p:
            count(key, p[key], least)
    for key, value in p.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"bad value for '{key}': '{value}'")
    return p


def _select_methods(requested, available):
    """The requested methods, each built once from its factory in ``available``.

    Raises ValueError for an empty or unknown selection, and for whatever a
    factory refuses, before any trial runs.
    """
    if not requested:
        raise ValueError(f"no method selected; available: {', '.join(available)}")
    unknown = [m for m in requested if m not in available]
    if unknown:
        raise ValueError(
            f"unknown method(s) {', '.join(unknown)}; available: {', '.join(available)}"
        )
    return {m: available[m]() for m in requested}
