"""Tests for directions, the noisy line search, and the iteration loop."""

import dataclasses
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softqn import solver, updates
from softqn.experiments import fixture_dataset_path
from softqn.noise import GaussianNoise, MinibatchSampling, NoisyOracle, SphereNoise, UniformNoise
from softqn.problems import Problem, cutest_like, gen_random_qp, load_libsvm, logistic_problem, toy_2d
from softqn.solver import (
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
    compute_direction,
    line_search_noisy,
    run,
    saddle_free_abs,
)
from softqn.updates import (
    ConstantAlpha,
    ConstantBeta,
    CurvatureError,
    CurvatureRelaxedBeta,
    PdThresholdError,
    StepNormBeta,
    UpdateConsistencyError,
    bfgs_update,
    sp_bfgs_update,
)


def _quadratic_1d(scale=0.5):
    return Problem(
        name="quad1d",
        dim=1,
        x0=np.array([1.0]),
        phi=lambda x: float(scale * x[0] ** 2),
        grad=lambda x: np.array([2.0 * scale * x[0]]),
        hess=lambda x: np.array([[2.0 * scale]]),
        phi_star=0.0,
        x_star=np.array([0.0]),
    )


# ---------------------------------------------------------------------------
# saddle-free absolute Hessian


def test_saddle_free_abs_flips_negative_eigenvalues():
    npt.assert_allclose(
        saddle_free_abs(np.diag([1.78, -1.72])), np.diag([1.78, 1.72]), atol=1e-14
    )


def test_saddle_free_abs_keeps_psd_input():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4))
    a = a @ a.T
    npt.assert_allclose(saddle_free_abs(a), a, atol=1e-12)


def test_saddle_free_abs_rank_two_construction():
    v = np.array([1.0, 0.0, 0.0])
    w = np.array([0.0, 1.0, 0.0])
    a = np.outer(v, v) - np.outer(w, w)
    npt.assert_allclose(saddle_free_abs(a), np.outer(v, v) + np.outer(w, w), atol=1e-12)


# ---------------------------------------------------------------------------
# directions


def test_direction_sgd_is_negative_gradient():
    g = np.array([1.0, 0.0])
    npt.assert_array_equal(compute_direction(Sgd(), None, g), -g)


def test_direction_saddle_free_newton():
    g = np.array([2.0, 1.0])
    d = compute_direction(SaddleFreeNewton(), None, g, hess=np.diag([2.0, -0.5]))
    npt.assert_allclose(d, [-1.0, -2.0])


def test_direction_soft_qn_identity():
    method = SoftQn(ConstantAlpha(1.0))
    d = compute_direction(method, method.initial_h(2, None), np.array([1.0, 1.0]))
    npt.assert_array_equal(d, [-1.0, -1.0])


def test_direction_newton_singular_hessian_falls_back():
    g = np.array([1.0, 0.0])
    with pytest.warns(UserWarning, match="pseudo-inverse"):
        d = compute_direction(ExactNewton(), None, g, hess=np.zeros((2, 2)))
    npt.assert_array_equal(d, [0.0, 0.0])


# ---------------------------------------------------------------------------
# skip decisions at the kernels' thresholds


def _ulp_neighbourhood(x, ulps=6):
    """x and the ``ulps`` representable doubles on either side of it."""
    out = [x]
    lo = hi = x
    for _ in range(ulps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return sorted(out)


def _absorb_matches_kernel(method, kernel, error, s, y):
    h = method.initial_h(len(s), None)
    h_new, applied = method.absorb(h, s, y)
    try:
        expected = kernel(h.matrix, s, y)
    except error:
        assert not applied and h_new is h
        return False
    assert applied
    assert isinstance(h_new, solver._H) and h_new.lo is None
    npt.assert_array_equal(h_new.matrix, expected)
    return True


@pytest.mark.parametrize("beta", [2.0, 0.3, 1e8])
def test_sp_bfgs_skips_exactly_when_the_kernel_raises(beta):
    # s'y = t exactly; sweep t across -1/beta and across the edge of its margin
    e1 = np.array([1.0, 0.0])
    edge = -1.0 / beta + 1e-12 * (1.0 + 1.0 / beta)
    method = SpBfgs(ConstantBeta(beta))
    outcomes = set()
    for t in _ulp_neighbourhood(-1.0 / beta) + _ulp_neighbourhood(edge):
        outcomes.add(
            _absorb_matches_kernel(
                method,
                lambda h, s, y: sp_bfgs_update(h, s, y, beta),
                PdThresholdError,
                e1,
                np.array([t, 0.0]),
            )
        )
    assert outcomes == {True, False}


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e-4])
def test_stochastic_bfgs_skips_exactly_when_the_kernel_raises(scale):
    # s'y = scale*t against the tolerance 1e-12*|s|*|y| with |y| = 1
    s = np.array([scale, 0.0])
    outcomes = set()
    for t in [0.0, -1e-12] + _ulp_neighbourhood(1e-12):
        outcomes.add(
            _absorb_matches_kernel(
                StochasticBfgs(), bfgs_update, CurvatureError, s, np.array([t, 1.0])
            )
        )
    assert outcomes == {True, False}


_QN_METHODS = [SoftQn(ConstantAlpha(2.0)), SpBfgs(ConstantBeta(1.0)), StochasticBfgs()]


@pytest.mark.parametrize("method", _QN_METHODS, ids=lambda m: type(m).__name__)
def test_symmetric_h0_stays_exactly_symmetric_through_absorb(method):
    # the kernels do not symmetrize: an exactly symmetric start must stay so
    rng = np.random.default_rng(83)
    n = 7
    a = rng.standard_normal((n, n))
    h0 = a @ a.T / n + np.eye(n)
    assert np.array_equal(h0, h0.T)
    h = method.initial_h(n, h0)
    npt.assert_array_equal(h.matrix, h0)
    assert not np.shares_memory(h.matrix, h0)
    curvature = a @ a.T + np.eye(n)
    for _ in range(3):
        s = rng.standard_normal(n)
        h, applied = method.absorb(h, s, curvature @ s)
        assert applied and isinstance(h, solver._H)
        assert np.array_equal(h.matrix, h.matrix.T)


@pytest.mark.parametrize("method", _QN_METHODS, ids=lambda m: type(m).__name__)
def test_asymmetric_h0_comes_back_symmetrized(method):
    h0 = np.array([[2.0, 0.3], [0.1, 1.0]])
    h = method.initial_h(2, h0)
    npt.assert_array_equal(h.matrix, [[2.0, 0.2], [0.2, 1.0]])
    npt.assert_array_equal(h0, [[2.0, 0.3], [0.1, 1.0]])
    npt.assert_array_equal(method.initial_h(2, None).matrix, np.eye(2))


# eigenvalues 4.7e-10 and 2.19e7 (cond 4e16): Cholesky accepts it, but on
# y = _NEAR_NULL_Y, y'Hy computes to -2.11
_SINGULAR_IN_ROUNDING = np.array([[17094455.616886515, 9039580.514956908], [9039580.514956908, 4780147.301424948]])
_NEAR_NULL_Y = np.array([-73873.00265090147, 139698.82374657903])


def _block_diag_with_identity(a, n):
    out = np.eye(n)
    out[: len(a), : len(a)] = a
    return out


_BAD_H0 = {
    "nan": lambda n: np.full((n, n), np.nan),
    "singular_in_rounding": lambda n: _block_diag_with_identity(_SINGULAR_IN_ROUNDING, n),
    "inf": lambda n: np.diag(np.full(n, np.inf)),
    "opposite_infs": lambda n: np.diag(np.full(n - 1, np.inf), 1) - np.diag(np.full(n - 1, np.inf), -1),
    "overflows_when_symmetrized": lambda n: np.full((n, n), 1.5e308),
    "minus_identity": lambda n: -np.eye(n),
    "zeros": lambda n: np.zeros((n, n)),
    "one_d": lambda n: np.ones(n),
    "too_large": lambda n: np.eye(n + 1),
}


@pytest.mark.parametrize("start", sorted(_BAD_H0))
@pytest.mark.parametrize("method", _QN_METHODS, ids=lambda m: type(m).__name__)
def test_bad_h0_raises_before_any_evaluation(method, start):
    n = 4
    oracle = NoisyOracle(gen_random_qp(n, 1), seed=0)
    with pytest.raises(ValueError, match="h0"):
        run(oracle, method, FixedStep(0.1), Budget(iterations=5), h0=_BAD_H0[start](n))
    assert oracle.fun_evals == 0 and oracle.grad_evals == 0


@pytest.mark.parametrize("method", [ExactNewton(), SaddleFreeNewton()], ids=lambda m: type(m).__name__)
def test_a_hessian_method_on_a_problem_without_one_raises_before_any_evaluation(method):
    oracle = NoisyOracle(cutest_like("ARWHEAD", 4))
    with pytest.raises(ValueError, match="Hessian"):
        run(oracle, method, FixedStep(0.1), Budget(iterations=3))
    assert oracle.fun_evals == 0 and oracle.grad_evals == 0
    with pytest.raises(ValueError, match="has no Hessian"):
        oracle.hess(oracle.x0)


@pytest.mark.parametrize("h0", [np.full((7, 7), np.nan), "junk", np.eye(4)], ids=["nan", "junk", "identity"])
@pytest.mark.parametrize("method", [Sgd(), ExactNewton(), SaddleFreeNewton()], ids=lambda m: type(m).__name__)
def test_method_without_h_rejects_any_h0_before_any_evaluation(method, h0):
    oracle = NoisyOracle(gen_random_qp(4, 1), seed=0)
    with pytest.raises(ValueError, match="h0"):
        run(oracle, method, FixedStep(0.1), Budget(iterations=3), h0=h0)
    assert oracle.fun_evals == 0 and oracle.grad_evals == 0
    assert run(oracle, method, FixedStep(0.1), Budget(iterations=3)).iterations == 3


# ---------------------------------------------------------------------------
# noisy line search


def test_line_search_accepts_full_step_on_easy_quadratic():
    o = NoisyOracle(_quadratic_1d(), seed=0)
    res = line_search_noisy(
        o, np.array([1.0]), np.array([-1.0]), np.array([1.0]), NoisyArmijo(eta0=1.0, c=1e-4)
    )
    assert res.accepted and res.eta == 1.0 and res.backtracks == 0
    assert res.fun_evals == 2  # f(x) plus one trial
    assert res.f_new == 0.0


def test_line_search_rejects_ascent_direction():
    o = NoisyOracle(_quadratic_1d(50.0), seed=0)
    policy = NoisyArmijo(eta0=1.0, c=1e-4, tau=0.5, max_backtracks=5, eps_tol=0.0)
    res = line_search_noisy(o, np.array([1.0]), np.array([1.0]), np.array([100.0]), policy)
    assert not res.accepted and res.eta == 0.0
    assert res.backtracks == 5
    assert res.fun_evals == 7  # f(x) + initial trial + 5 backtracked trials
    assert res.f_new == pytest.approx(50.0)  # incumbent value carried through


def test_line_search_cached_incumbent_costs_one_eval():
    o = NoisyOracle(_quadratic_1d(), seed=0)
    res = line_search_noisy(
        o,
        np.array([1.0]),
        np.array([-1.0]),
        np.array([1.0]),
        NoisyArmijo(eta0=1.0, c=1e-4),
        f_x=0.5,
    )
    assert res.accepted and res.fun_evals == 1
    assert o.fun_evals == 1


def test_line_search_interrupts_at_eval_cap():
    o = NoisyOracle(_quadratic_1d(50.0), seed=0)
    policy = NoisyArmijo(eta0=1.0, c=1e-4, tau=0.5, max_backtracks=45, eps_tol=0.0)
    res = line_search_noisy(o, np.array([1.0]), np.array([1.0]), np.array([100.0]), policy, eval_cap=3)
    assert res.interrupted
    assert res.fun_evals == 3
    assert not res.accepted
    # a zero cap means not even f(x) may be evaluated
    res = line_search_noisy(o, np.array([1.0]), np.array([1.0]), np.array([100.0]), policy, eval_cap=0)
    assert res.interrupted and res.fun_evals == 0 and res.f_new is None
    # a cap of one evaluates f(x) alone, and hands that value back
    res = line_search_noisy(o, np.array([1.0]), np.array([1.0]), np.array([100.0]), policy, eval_cap=1)
    assert res.interrupted and res.fun_evals == 1 and not res.accepted and res.eta == 0.0
    assert res.f_new == 50.0


def test_a_one_evaluation_budget_ends_after_one_interrupted_search():
    rec = run(NoisyOracle(_quadratic_1d(), seed=0), Sgd(), NoisyArmijo(), Budget(fun_evals=1))
    assert rec.iterations == 1 and rec.step_rejections == 1 and not rec.diverged
    npt.assert_array_equal(rec.eval_counts, [0, 1])
    npt.assert_array_equal(rec.final_x, [1.0])


def test_line_search_noiseless_accepts_satisfy_classical_armijo():
    p = gen_random_qp(5, 21)
    o = NoisyOracle(p, seed=0)
    rng = np.random.default_rng(2)
    policy = NoisyArmijo(eta0=1.0, c=1e-4, tau=0.5, max_backtracks=30, eps_tol=0.0)
    for _ in range(20):
        x = rng.standard_normal(5)
        g = p.grad(x)
        d = -g
        res = line_search_noisy(o, x, d, g, policy)
        assert res.accepted
        lhs = p.phi(x + res.eta * d)
        rhs = p.phi(x) + res.eta * policy.c * float(d @ g)
        assert lhs <= rhs


# ---------------------------------------------------------------------------
# run loop


def test_newton_solves_quadratic_in_one_step():
    p = gen_random_qp(8, 5)
    o = NoisyOracle(p, seed=0)
    rec = run(o, ExactNewton(), FixedStep(1.0), Budget(iterations=1))
    npt.assert_allclose(rec.final_x, np.ones(8), atol=1e-10)
    assert rec.grad_norms[1] <= 1e-10


def test_soft_qn_noiseless_smoke():
    p = gen_random_qp(10, 42)
    o = NoisyOracle(p, seed=0)
    rec = run(o, SoftQn(ConstantAlpha(0.1)), FixedStep(0.5), Budget(iterations=200))
    assert rec.grad_norms[-1] <= 3e-3
    assert not rec.diverged


def test_eval_accounting_fixed_step():
    p = gen_random_qp(6, 9)
    o = NoisyOracle(p, seed=0)
    rec = run(o, Sgd(), FixedStep(0.1), Budget(iterations=50))
    assert rec.fun_evals == 0  # fixed steps never query f
    assert rec.grad_evals == rec.iterations + 1
    assert rec.iterations == 50
    assert len(rec.grad_norms) == 51


def test_eval_accounting_with_line_search():
    p = cutest_like("ARWHEAD", n=20)
    o = NoisyOracle(p, fun_noise=UniformNoise(1e-4), grad_noise=SphereNoise(1e-4), seed=4)
    rec = run(
        o,
        SoftQn(ConstantAlpha(1e6)),
        NoisyArmijo(eta0=1.0, c=1e-4, tau=0.5, max_backtracks=45, eps_tol=1e-4),
        Budget(iterations=40),
    )
    assert rec.fun_evals == o.fun_evals
    assert rec.grad_evals == rec.iterations + 1
    # incumbent caching: one counted evaluation per iteration once warmed up,
    # plus extra trials on backtracks; never two incumbent evals in a row
    assert rec.fun_evals >= rec.iterations


def test_eval_budget_is_never_exceeded():
    p = cutest_like("ARWHEAD", n=20)
    o = NoisyOracle(p, fun_noise=UniformNoise(1e-3), grad_noise=SphereNoise(1e-3), seed=8)
    rec = run(
        o,
        SoftQn(ConstantAlpha(1e6)),
        NoisyArmijo(eps_tol=1e-3),
        Budget(fun_evals=37),
    )
    assert rec.fun_evals <= 37
    assert rec.eval_counts[-1] <= 37


def test_divergence_guard_freezes_traces():
    p = gen_random_qp(6, 11)
    o = NoisyOracle(p, seed=0)
    rec = run(o, Sgd(), FixedStep(1e9), Budget(iterations=30))
    assert rec.diverged
    assert len(rec.grad_norms) == 31  # padded to full length
    assert np.all(np.isfinite(rec.grad_norms))
    assert np.all(np.isfinite(rec.suboptimality))


def test_rejected_step_updates_soft_qn_but_skips_bfgs():
    # start at the exact minimum with a noisy gradient: every direction is
    # uphill, so every line search rejects and s = 0 while y != 0
    at_min = Problem(
        name="bowl",
        dim=2,
        x0=np.zeros(2),
        phi=lambda x: 0.5 * float(x @ x),
        grad=lambda x: np.asarray(x, dtype=float).copy(),
    )
    policy = NoisyArmijo(eta0=1.0, c=1e-4, tau=0.5, max_backtracks=2, eps_tol=0.0)
    o = NoisyOracle(at_min, grad_noise=GaussianNoise(1.0), seed=0)
    rec = run(o, StochasticBfgs(), policy, Budget(iterations=5))
    assert rec.step_rejections == 5
    assert rec.skipped_updates == 5  # s = 0 pairs are never applied to BFGS
    npt.assert_array_equal(rec.final_x, np.zeros(2))
    o2 = NoisyOracle(at_min, grad_noise=GaussianNoise(1.0), seed=0)
    rec2 = run(o2, SoftQn(ConstantAlpha(1.0)), policy, Budget(iterations=5))
    assert rec2.step_rejections == 5
    assert rec2.skipped_updates == 0  # the soft update is defined for s = 0


_METHODS = [SoftQn(ConstantAlpha(1.0)), SpBfgs(ConstantBeta(1.0)), StochasticBfgs(), Sgd()]
_METHOD_IDS = ["softqn", "spbfgs", "bfgs", "sgd"]


@pytest.mark.parametrize("method", _METHODS, ids=_METHOD_IDS)
def test_non_finite_noisy_gradient_marks_trial_diverged(method):
    # the first minibatch gradient is exact, every later one is inf
    calls = []

    def batch_grad(x, batch, rng):
        calls.append(batch)
        return x.copy() if len(calls) == 1 else np.full_like(x, np.inf)

    bowl = Problem(
        name="bowl",
        dim=2,
        x0=np.ones(2),
        phi=lambda x: 0.5 * float(x @ x),
        grad=lambda x: np.asarray(x, dtype=float).copy(),
        phi_star=0.0,
        batch_grad=batch_grad,
    )
    o = NoisyOracle(bowl, grad_noise=MinibatchSampling(1), seed=0)
    rec = run(o, method, FixedStep(0.5), Budget(iterations=10))
    assert rec.diverged
    assert rec.iterations == 1
    assert rec.skipped_updates == 0  # the non-finite pair never reaches the update
    npt.assert_array_equal(rec.final_x, [0.5, 0.5])
    assert len(rec.grad_norms) == 11
    assert np.all(np.isfinite(rec.grad_norms))


# ---------------------------------------------------------------------------
# exact value channel: phi is evaluated only when the problem has a phi*


class _CountingOracle(NoisyOracle):
    """A NoisyOracle that counts its exact-value calls."""

    phi_calls = 0

    def true_phi(self, x):
        self.phi_calls += 1
        return super().true_phi(x)


@pytest.mark.parametrize("method", _METHODS, ids=_METHOD_IDS)
def test_phi_is_not_evaluated_without_phi_star(method):
    problem = logistic_problem(load_libsvm(fixture_dataset_path()), rho=0.1)
    assert problem.phi_star is None
    budget = Budget(iterations=20)
    oracle = _CountingOracle(problem, grad_noise=MinibatchSampling(20), seed=3)
    rec = run(oracle, method, FixedStep(0.1), budget)
    assert oracle.phi_calls == 0
    # the same trial on the problem with a (made-up) phi* evaluates phi at every
    # recorded iterate and walks the same path, so grad_norms cannot tell them apart
    starred = _CountingOracle(
        dataclasses.replace(problem, phi_star=0.0), grad_noise=MinibatchSampling(20), seed=3
    )
    ref = run(starred, method, FixedStep(0.1), budget)
    assert starred.phi_calls == ref.iterations + 1 == 21
    npt.assert_array_equal(rec.grad_norms, ref.grad_norms)
    npt.assert_array_equal(rec.final_x, ref.final_x)
    # the evaluation counts are kept; the values at those iterates and suboptimality are NaN
    npt.assert_array_equal(rec.eval_counts, ref.eval_counts)
    assert np.isnan(rec.suboptimality[: len(rec.eval_counts)]).all()
    assert rec.suboptimality.shape == ref.suboptimality.shape
    assert np.isnan(rec.suboptimality).all()
    assert rec.phi_star is None


# ---------------------------------------------------------------------------
# batched exact channel: the norms of a minibatch trial in one call


def _counted(fn, calls):
    def counted(*args):
        calls.append(len(args[0]))
        return fn(*args)

    return counted


@pytest.mark.parametrize("phi_star", [None, 0.0], ids=["no_phi_star", "phi_star"])
@pytest.mark.parametrize("method", _METHODS, ids=_METHOD_IDS)
@pytest.mark.parametrize(
    "grad_noise", [MinibatchSampling(20), GaussianNoise(1e-4)], ids=["minibatch", "gaussian"]
)
def test_batched_and_per_iterate_exact_channels_agree(grad_noise, method, phi_star):
    # any problem with grad_norms gets its norms in one call, whatever the noise model
    problem = logistic_problem(load_libsvm(fixture_dataset_path()), rho=0.1)
    calls = []
    batched = dataclasses.replace(problem, phi_star=phi_star, grad_norms=_counted(problem.grad_norms, calls))
    per_iterate = dataclasses.replace(batched, grad_norms=None)
    budget = Budget(iterations=148)
    records = []
    for p in (batched, per_iterate):
        oracle = _CountingOracle(p, grad_noise=grad_noise, seed=3)
        records.append(run(oracle, method, FixedStep(0.1), budget, keep_iterates=True))
        assert oracle.phi_calls == (0 if phi_star is None else budget.iterations + 1)
    assert calls == [budget.iterations + 1]  # one call, start included
    on, off = records
    assert not on.diverged and on.iterations == budget.iterations
    for field in dataclasses.fields(on):
        a, b = getattr(on, field.name), getattr(off, field.name)
        if field.name == "grad_norms":
            npt.assert_allclose(a, b, rtol=1e-13, atol=0)
        elif isinstance(a, (np.ndarray, list)):
            assert np.shape(a) == np.shape(b), field.name
            npt.assert_array_equal(_int64_view(a), _int64_view(b), err_msg=field.name)
        else:
            assert a == b, field.name


def _bowl_with_batched_norms(nan_at):
    """A minibatch bowl whose batched norm is NaN at iterate ``nan_at`` and exact elsewhere."""

    def grad_norms(xs):
        return np.where(np.arange(len(xs)) == nan_at, np.nan, np.linalg.norm(xs, axis=1))

    return Problem(
        name="bowl",
        dim=3,
        x0=np.ones(3),
        phi=lambda x: 0.5 * float(x @ x),
        grad=lambda x: np.asarray(x, dtype=float).copy(),
        phi_star=0.0,
        batch_grad=lambda x, batch, rng: x + 0.1 * rng.standard_normal(x.shape),
        grad_norms=grad_norms,
    )


@pytest.mark.parametrize("nan_at", [1, 10, 65, 71, 131])
def test_non_finite_batched_norm_ends_the_trial_before_that_iterate(nan_at):
    budget = Budget(iterations=138)

    def trial(problem):
        oracle = NoisyOracle(problem, grad_noise=MinibatchSampling(1), seed=2)
        return run(oracle, Sgd(), FixedStep(0.01), budget, keep_iterates=True)

    ref = trial(_bowl_with_batched_norms(nan_at=-1))
    rec = trial(_bowl_with_batched_norms(nan_at))
    assert not ref.diverged and rec.diverged
    assert rec.iterations == nan_at - 1
    npt.assert_array_equal(rec.final_x, ref.iterates[nan_at - 1])
    npt.assert_array_equal(np.array(rec.iterates), np.array(ref.iterates[:nan_at]))
    npt.assert_array_equal(rec.eval_counts, ref.eval_counts[:nan_at])
    for trace in ("grad_norms", "suboptimality"):
        a, b = getattr(rec, trace), getattr(ref, trace)
        assert len(a) == budget.iterations + 1, trace
        npt.assert_array_equal(a[:nan_at], b[:nan_at], err_msg=trace)
        npt.assert_array_equal(a[nan_at:], b[nan_at - 1], err_msg=trace)
    # the norms are evaluated after the loop, so the counters count the whole trial
    counters = ("fun_evals", "grad_evals", "step_rejections", "skipped_updates")
    whole_trial = [0, budget.iterations + 1, 0, 0]
    assert [getattr(rec, c) for c in counters] == [getattr(ref, c) for c in counters] == whole_trial


def test_phi_is_evaluated_once_per_recorded_iterate_with_phi_star():
    p = cutest_like("ARWHEAD", n=20)
    o = _CountingOracle(p, fun_noise=UniformNoise(1e-4), grad_noise=SphereNoise(1e-4), seed=4)
    rec = run(
        o, SoftQn(ConstantAlpha(1e6)), NoisyArmijo(eps_tol=1e-4), Budget(iterations=40), keep_iterates=True
    )
    assert o.phi_calls == rec.iterations + 1 == len(rec.eval_counts)
    npt.assert_array_equal(rec.suboptimality[: rec.iterations + 1], [p.phi(x) - p.phi_star for x in rec.iterates])


def test_non_finite_exact_gradient_marks_trial_diverged_without_phi_star():
    def phi(x):
        raise AssertionError("phi evaluated on a problem without phi*")

    def grad(x):  # finite at the start, infinite at the first step's landing point
        return x.copy() if x[0] > 0.75 else np.full_like(x, np.inf)

    bowl = Problem(name="bowl", dim=2, x0=np.ones(2), phi=phi, grad=grad)
    rec = run(NoisyOracle(bowl, seed=0), Sgd(), FixedStep(0.5), Budget(iterations=10))
    assert rec.diverged
    assert rec.iterations == 0
    npt.assert_array_equal(rec.final_x, np.ones(2))
    npt.assert_array_equal(rec.grad_norms, np.full(11, np.sqrt(2.0)))
    assert len(rec.eval_counts) == 1 and np.isnan(rec.suboptimality[0])


def test_an_iterate_whose_norm_overflows_marks_trial_diverged():
    # the step lands on (1e210, 0): finite, but its squared norm overflows to inf
    slope = Problem(
        name="slope",
        dim=2,
        x0=np.zeros(2),
        phi=lambda x: 0.0,
        grad=lambda x: np.array([-1e150, 0.0]),
    )
    # the largest entry already exceeds the limit, so the norm, which would
    # overflow with a warning, is never taken
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = run(NoisyOracle(slope, seed=0), Sgd(), FixedStep(1e60), Budget(iterations=10))
    assert rec.diverged
    assert rec.iterations == 0
    npt.assert_array_equal(rec.final_x, np.zeros(2))
    npt.assert_array_equal(rec.grad_norms, np.full(11, 1e150))


def test_non_finite_phi_marks_trial_diverged_with_phi_star():
    bowl = Problem(
        name="bowl",
        dim=2,
        x0=np.ones(2),
        phi=lambda x: 0.5 * float(x @ x) if x[0] > 0.75 else np.inf,
        grad=lambda x: np.asarray(x, dtype=float).copy(),
        phi_star=0.0,
    )
    rec = run(NoisyOracle(bowl, seed=0), Sgd(), FixedStep(0.5), Budget(iterations=10))
    assert rec.diverged
    assert rec.iterations == 0
    npt.assert_array_equal(rec.suboptimality, np.ones(11))


def test_failed_update_marks_trial_diverged():
    # soft QN at alpha = 1e300 overflows gamma on a unit-sized pair
    p = gen_random_qp(5, 3)
    method = SoftQn(ConstantAlpha(1e300))
    with pytest.raises(UpdateConsistencyError):
        method.absorb(method.initial_h(5, None), np.ones(5), p.grad(np.ones(5)) - p.grad(np.zeros(5)))
    rec = run(NoisyOracle(p, grad_noise=GaussianNoise(1.0), seed=0), method, FixedStep(0.1), Budget(iterations=10))
    assert rec.diverged
    assert rec.iterations == 1  # the first pair is the one that fails
    assert len(rec.grad_norms) == 11
    npt.assert_array_equal(rec.grad_norms[1:], rec.grad_norms[1])


def test_the_h0_singular_in_rounding_passes_cholesky():
    # so the "singular_in_rounding" refusal above is the eigvalsh test's, not Cholesky's
    h0 = _SINGULAR_IN_ROUNDING
    assert updates.is_positive_definite(h0) and float(_NEAR_NULL_Y @ (h0 @ _NEAR_NULL_Y)) < -1.0
    assert solver._eigvalsh_lo(h0) is None


def test_sp_bfgs_skips_below_pd_threshold():
    p = gen_random_qp(6, 13)
    o = NoisyOracle(p, grad_noise=SphereNoise(2.0), seed=3)
    rec = run(
        o, SpBfgs(ConstantBeta(1e8)), DiminishingStep(1.0), Budget(iterations=100)
    )
    # huge beta makes the threshold essentially s'y > 0; noisy pairs violate it often
    assert rec.skipped_updates > 0
    assert not rec.diverged


def test_an_sp_bfgs_pair_that_overflows_ends_only_its_trial():
    # at a gradient noise of 1e160, y'Hy overflows on the first pair, and the
    # update raises instead of handing an all-NaN H to the next iteration
    method = SpBfgs()
    step, budget = FixedStep(1e-155), Budget(iterations=10)

    def oracle(radius):
        return NoisyOracle(gen_random_qp(4, 1), grad_noise=SphereNoise(radius), seed=0)

    radii = [1.0, 1e160, 1e-3]
    with np.errstate(all="ignore"):
        records = [run(oracle(r), method, step, budget, keep_iterates=True) for r in radii]
        replay = oracle(1e160)
        x0, x1 = records[1].iterates
        g0 = replay.g(x0)
        y = replay.g(x1) - g0
        with pytest.raises(UpdateConsistencyError, match="overflow"):
            method.absorb(method.initial_h(4, None), x1 - x0, y)
    assert [r.diverged for r in records] == [False, True, False]
    assert [r.iterations for r in records] == [10, 1, 10]
    for rec in records:
        assert np.isfinite(rec.grad_norms).all() and np.isfinite(rec.suboptimality).all()


def test_sp_bfgs_skips_a_pair_whose_beta_overflows():
    # beta = coeff*|s| + floor overflows to inf, which sp_bfgs_update refuses
    method = SpBfgs(StepNormBeta(1e308))
    h = method.initial_h(2, None)
    s = np.array([10.0, 0.0])
    h_new, applied = method.absorb(h, s, s)
    assert not applied and h_new is h


def test_sp_bfgs_relaxed_policy_never_skips():
    p = gen_random_qp(6, 13)
    o = NoisyOracle(p, grad_noise=SphereNoise(2.0), seed=3)
    rec = run(
        o,
        SpBfgs(CurvatureRelaxedBeta(1e-2, relax=0.9)),
        DiminishingStep(1.0),
        Budget(iterations=100),
    )
    assert rec.skipped_updates == 0


def test_diminishing_step_indexes_from_one():
    p = gen_random_qp(4, 2)
    o = NoisyOracle(p, seed=0)
    rec = run(o, Sgd(), DiminishingStep(0.5), Budget(iterations=1), keep_iterates=True)
    # first step is scale/1 times -g(x0)
    expected = p.x0 - 0.5 * p.grad(p.x0)
    npt.assert_allclose(rec.iterates[1], expected, atol=1e-14)


@pytest.mark.parametrize("step", [FixedStep(0.1), DiminishingStep(1.0)], ids=lambda s: type(s).__name__)
def test_fun_evals_only_budget_needs_a_step_policy_that_evaluates_f(step):
    # neither policy evaluates f, so fun_evals would never grow and the run never end
    oracle = NoisyOracle(gen_random_qp(4, 1), seed=0)
    with pytest.raises(ValueError, match="fun_evals"):
        run(oracle, Sgd(), step, Budget(fun_evals=10))
    assert oracle.fun_evals == 0 and oracle.grad_evals == 0
    assert run(oracle, Sgd(), step, Budget(iterations=3, fun_evals=10)).iterations == 3


def test_budget_requires_some_limit():
    with pytest.raises(ValueError):
        Budget()


_NOT_FINITE = [np.nan, np.inf, -np.inf]
# (model or policy, keyword arguments it refuses, keyword arguments it takes at the edge)
_VALUE_RULES = [
    (UniformNoise, [{"half_width": v} for v in (-1e-300, -1.0, *_NOT_FINITE)], [{"half_width": 0.0}]),
    (GaussianNoise, [{"cov_scale": v} for v in (-1e-300, -1.0, *_NOT_FINITE)], [{"cov_scale": 0.0}]),
    (SphereNoise, [{"radius": v} for v in (-1e-300, -1.0, *_NOT_FINITE)], [{"radius": 0.0}]),
    (
        MinibatchSampling,
        [{"batch": 0}, {"batch": -1}, {"batch": 2.5}, {"batch": np.nan}, {"batch": True}],
        [{"batch": 1}],
    ),
    (FixedStep, [{"eta": v} for v in (0.0, -0.1, *_NOT_FINITE)], [{"eta": 5e-324}]),
    (DiminishingStep, [{"scale": v} for v in (0.0, -1.0, *_NOT_FINITE)], [{"scale": 1e300}]),
    (ConstantAlpha, [{"alpha": v} for v in (0.0, -1.0, *_NOT_FINITE)], [{"alpha": 5e-324}]),
    (ConstantBeta, [{"beta": v} for v in (0.0, -1.0, *_NOT_FINITE)], [{"beta": 1e300}]),
    (
        StepNormBeta,
        [{"coeff": v} for v in (-1.0, *_NOT_FINITE)]
        + [{"coeff": 0.1, "floor": v} for v in (0.0, -1e-10, np.nan)],
        [{"coeff": 0.0}],
    ),
    (
        CurvatureRelaxedBeta,
        [{"beta": v} for v in (0.0, -1e-2, np.inf)]
        + [{"beta": 1e-2, "relax": v} for v in (0.0, 1.0, 1.5, np.nan)],
        [{"beta": 1e-2, "relax": 1e-300}, {"beta": 1e-2, "relax": 1 - 2**-53}],
    ),
    (
        NoisyArmijo,
        [{"eta0": v} for v in (0.0, -1.0, *_NOT_FINITE)]
        + [{"tau": v} for v in (0.0, 1.0, -0.5, 2.0, np.nan)]
        + [{"c": v} for v in (0.0, 1.0, -1e-4, np.nan)]
        + [{"max_backtracks": v} for v in (-3, -1, 2.5, np.nan, False)]
        + [{"eps_tol": v} for v in (-1e-300, -1.0, *_NOT_FINITE)],
        [{}, {"eta0": 5e-324, "tau": 1 - 2**-53, "c": 5e-324, "max_backtracks": 0, "eps_tol": 0.0}]
        + [{"max_backtracks": np.int64(3), "eps_tol": 1e300}],
    ),
    (
        Budget,
        [{"iterations": v} for v in (-1, 0, 2.5, True)] + [{"fun_evals": v} for v in (-1, 0, 2.5, True)],
        [{"iterations": 1}, {"fun_evals": np.int64(1)}, {"iterations": 3, "fun_evals": 10}],
    ),
    (
        gen_random_qp,
        [{"n": v, "seed": 0} for v in (2.5, 1, 0, -2)],
        [{"n": 2, "seed": 0}, {"n": np.int64(3), "seed": 0}],
    ),
    (
        cutest_like,
        [{"name": "ARWHEAD", "n": v} for v in (2.5, 0, -1)] + [{"name": "NONDQUAR", "n": 1}],
        [{"name": "ARWHEAD", "n": 1}, {"name": "NONDQUAR", "n": 2}],
    ),
    (
        sp_bfgs_update,
        [{"h": np.eye(2), "s": np.ones(2), "y": np.ones(2), "beta": v} for v in (0.0, -1.0, *_NOT_FINITE)],
        [{"h": np.eye(2), "s": np.ones(2), "y": np.ones(2), "beta": v} for v in (1e-300, 1e300)],
    ),
]


@pytest.mark.parametrize("cls, refused, taken", _VALUE_RULES, ids=[c.__name__ for c, _, _ in _VALUE_RULES])
def test_noise_models_and_policies_reject_bad_values_where_they_are_made(cls, refused, taken):
    for kwargs in refused:
        with pytest.raises(ValueError, match="must"):
            cls(**kwargs)
    for kwargs in taken:
        cls(**kwargs)


def test_toy_walk_visits_reference_points():
    p = toy_2d()
    o = NoisyOracle(p, seed=0)
    h0 = np.linalg.inv(saddle_free_abs(p.hess(p.x0)))
    rec = run(
        o,
        SoftQn(ConstantAlpha(8e5)),
        FixedStep(0.01),
        Budget(iterations=500),
        h0=h0,
        keep_iterates=True,
    )
    pts = np.array(rec.iterates)
    assert len(pts) == 501
    d_early = np.linalg.norm(pts - np.array([0.827, -0.230]), axis=1).min()
    assert d_early <= 0.05
    assert np.linalg.norm(rec.final_x - np.array([0.7, -0.7])) <= 0.05


# ---------------------------------------------------------------------------
# SoftQn's certified lower spectrum bound changes no bit of a run


def _cutest_noise(problem):
    """The cutest preset's noise at noise_rel = 1e-4: (e_f, fun_noise, grad_noise)."""
    e_f = 1e-4 * abs(problem.phi(problem.x0))
    e_g = 1e-4 * float(np.linalg.norm(problem.grad(problem.x0)))
    return e_f, UniformNoise(e_f), SphereNoise(e_g)


def _soft_qn_trials():
    """(oracle factory, method, step, budget, h0) for a QP, DIXMAANA, TQUARTIC and the toy walk."""
    qp = gen_random_qp(20, 3)
    dixmaana, tquartic = cutest_like("DIXMAANA"), cutest_like("TQUARTIC")
    e_f, fun_noise, grad_noise = _cutest_noise(dixmaana)
    tq_e_f, tq_fun_noise, tq_grad_noise = _cutest_noise(tquartic)
    toy = toy_2d()
    return {
        # alpha = 1e-2 on noise-dominated pairs: the identity's bound certifies every update
        "qp": (
            lambda: NoisyOracle(qp, grad_noise=GaussianNoise(1.0), seed=5),
            SoftQn(ConstantAlpha(1e-2)),
            DiminishingStep(1.0),
            Budget(iterations=400),
            None,
        ),
        "dixmaana": (
            lambda: NoisyOracle(dixmaana, fun_noise=fun_noise, grad_noise=grad_noise, seed=6),
            SoftQn(ConstantAlpha(1e6)),
            NoisyArmijo(eps_tol=e_f),
            Budget(fun_evals=300),
            None,
        ),
        # the upper end of the spectrum must come from H here: pushed forward as
        # hi + alpha*||s||^2, it outgrows lambda_max(H) and leaves the guard on
        # nearly every update
        "tquartic": (
            lambda: NoisyOracle(tquartic, fun_noise=tq_fun_noise, grad_noise=tq_grad_noise, seed=0),
            SoftQn(ConstantAlpha(1e6)),
            NoisyArmijo(eps_tol=tq_e_f),
            Budget(fun_evals=300),
            None,
        ),
        "toy": (
            lambda: NoisyOracle(toy, seed=7),
            SoftQn(ConstantAlpha(8e5)),
            FixedStep(0.01),
            Budget(iterations=500),
            np.linalg.inv(saddle_free_abs(toy.hess(toy.x0))),
        ),
    }


def _int64_view(value):
    return np.asarray(value, dtype=float).view(np.int64)


@pytest.mark.parametrize("case", ["qp", "dixmaana", "tquartic", "toy"])
def test_soft_qn_records_are_bitwise_the_same_without_the_certificate(case, monkeypatch):
    oracle, method, step, budget, h0 = _soft_qn_trials()[case]
    guards = []
    guard = updates.is_positive_definite
    monkeypatch.setattr(updates, "is_positive_definite", lambda a: guards.append(1) or guard(a))
    on = run(oracle(), method, step, budget, h0=h0, keep_iterates=True)
    on_guards = len(guards)
    guards.clear()
    monkeypatch.setattr(updates, "_carry_bounds", lambda *args: None)
    off = run(oracle(), method, step, budget, h0=h0, keep_iterates=True)

    assert on.iterations == off.iterations > 0
    assert len(guards) == off.iterations  # the guard ran on every update
    for field in dataclasses.fields(on):
        a, b = getattr(on, field.name), getattr(off, field.name)
        if field.name == "iterates":
            a, b = np.array(a), np.array(b)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, field.name
            npt.assert_array_equal(_int64_view(a), _int64_view(b), err_msg=field.name)
        else:
            assert a == b or (a != a and b != b), field.name
    if case in ("qp", "dixmaana", "tquartic"):  # the bound certifies nearly every update
        assert on_guards < off.iterations // 10


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 20),
    seed=st.integers(0, 2**32 - 1),
    log_alpha=st.floats(-8.0, 300.0),
    noisy=st.booleans(),
)
def test_soft_qn_run_stays_finite_or_diverges_for_any_alpha(n, seed, log_alpha, noisy):
    problem = gen_random_qp(n, seed)
    oracle = NoisyOracle(problem, grad_noise=GaussianNoise(1.0) if noisy else None, seed=seed)
    rec = run(oracle, SoftQn(ConstantAlpha(10.0**log_alpha)), DiminishingStep(0.5), Budget(iterations=30))
    stop = rec.iterations + 1
    assert np.isfinite(rec.grad_norms[:stop]).all() and np.isfinite(rec.suboptimality[:stop]).all()
    assert rec.diverged or (np.isfinite(rec.grad_norms).all() and np.isfinite(rec.suboptimality).all())


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 20),
    seed=st.integers(0, 2**32 - 1),
    arm=st.sampled_from(["spbfgs", "bfgs", "sgd"]),
    log_beta=st.floats(-300.0, 300.0),
    log_step=st.floats(-8.0, 8.0),
    log_noise=st.floats(-8.0, 8.0),
    fixed=st.booleans(),
)
def test_other_arms_run_stays_finite_or_diverges(n, seed, arm, log_beta, log_step, log_noise, fixed):
    method = {"spbfgs": SpBfgs(ConstantBeta(10.0**log_beta)), "bfgs": StochasticBfgs(), "sgd": Sgd()}[arm]
    step = FixedStep(10.0**log_step) if fixed else DiminishingStep(10.0**log_step)
    oracle = NoisyOracle(gen_random_qp(n, seed), grad_noise=GaussianNoise(10.0**log_noise), seed=seed)
    rec = run(oracle, method, step, Budget(iterations=30))
    stop = rec.iterations + 1
    assert np.isfinite(rec.grad_norms[:stop]).all() and np.isfinite(rec.suboptimality[:stop]).all()
    assert rec.diverged or (np.isfinite(rec.grad_norms).all() and np.isfinite(rec.suboptimality).all())


@pytest.mark.parametrize(
    "method", [SoftQn(ConstantAlpha(1.0)), SpBfgs(), StochasticBfgs()], ids=lambda m: type(m).__name__
)
def test_a_gradient_change_that_overflows_ends_only_its_trial(method):
    # every noisy gradient is finite, but two draws of radius 1.7e308 in opposite
    # directions differ by more than the largest double, so y overflows
    oracle = NoisyOracle(gen_random_qp(4, 1), grad_noise=SphereNoise(1.7e308), seed=0)
    with np.errstate(over="ignore"):
        rec = run(oracle, method, FixedStep(1e-300), Budget(iterations=5))
    assert rec.diverged
    assert np.isfinite(rec.grad_norms).all() and np.isfinite(rec.suboptimality).all()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 8),
    qp_seed=st.integers(0, 2**32 - 1),
    noise_seed=st.integers(0, 2**32 - 1),
    arm=st.sampled_from(["softqn", "spbfgs", "bfgs", "sgd"]),
    sphere=st.booleans(),
    noise=st.floats(-300.0, 308.0).map(lambda e: 10.0**e),
    step=st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
)
@example(n=4, qp_seed=1, noise_seed=0, arm="softqn", sphere=True, noise=1.7e308, step=1e-300)
def test_any_noise_and_step_scale_ends_finite_or_diverged(n, qp_seed, noise_seed, arm, sphere, noise, step):
    method = {"softqn": SoftQn(ConstantAlpha(1.0)), "spbfgs": SpBfgs(), "bfgs": StochasticBfgs(), "sgd": Sgd()}[arm]
    grad_noise = SphereNoise(noise) if sphere else GaussianNoise(noise)
    oracle = NoisyOracle(gen_random_qp(n, qp_seed), grad_noise=grad_noise, seed=noise_seed)
    with np.errstate(all="ignore"):
        rec = run(oracle, method, FixedStep(step), Budget(iterations=20))
    stop = rec.iterations + 1
    assert np.isfinite(rec.grad_norms[:stop]).all() and np.isfinite(rec.suboptimality[:stop]).all()
    assert rec.diverged or (np.isfinite(rec.grad_norms).all() and np.isfinite(rec.suboptimality).all())


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(4, 12),
    noise_seed=st.integers(0, 2**32 - 1),
    arm=st.sampled_from(["softqn", "spbfgs", "bfgs", "sgd"]),
    e_f=st.floats(-8.0, 8.0).map(lambda e: 10.0**e),
    e_g=st.floats(-8.0, 8.0).map(lambda e: 10.0**e),
)
def test_noisy_line_search_on_any_noise_scale_ends_finite_or_diverged(n, noise_seed, arm, e_f, e_g):
    # the noisy Armijo search under an evaluation budget, with noise on f and on g
    method = {"softqn": SoftQn(ConstantAlpha(1.0)), "spbfgs": SpBfgs(), "bfgs": StochasticBfgs(), "sgd": Sgd()}[arm]
    problem = cutest_like("ARWHEAD", n)
    oracle = NoisyOracle(problem, fun_noise=UniformNoise(e_f), grad_noise=SphereNoise(e_g), seed=noise_seed)
    with np.errstate(all="ignore"):
        rec = run(oracle, method, NoisyArmijo(eps_tol=e_f), Budget(fun_evals=200))
    stop = rec.iterations + 1
    assert np.isfinite(rec.grad_norms[:stop]).all() and np.isfinite(rec.suboptimality[:stop]).all()
    assert rec.diverged or (np.isfinite(rec.grad_norms).all() and np.isfinite(rec.suboptimality).all())


def test_eigvalsh_lower_bound_is_below_the_exact_spectrum():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(21)
    for n in [1, 2, 5, 8]:
        for cond in [1.0, 1e4, 1e12, 1e17]:
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            h = (q * np.geomspace(1.0, 1.0 / cond, n)) @ q.T * 10.0 ** rng.uniform(-50, 50)
            h = 0.5 * (h + h.T)
            lo = solver._eigvalsh_lo(h)
            with mpmath.workdps(40):
                w = sorted(mpmath.eigsy(mpmath.matrix(h.tolist()), eigvals_only=True))
            if lo is None:  # eigvalsh cannot certify a positive lower bound
                assert cond >= 1e12
                continue
            assert lo <= w[0]


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
    log_cond=st.floats(0.0, 17.0),
    log_scale=st.floats(-100.0, 100.0),
)
def test_initial_h_refuses_an_h0_or_bounds_its_spectrum_below(n, seed, log_cond, log_scale):
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    # eigenvalues from 10**log_scale down to 10**(log_scale - log_cond)
    spread = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, max(n - 2, 0))])[:n]
    h0 = (q * 10.0 ** (log_scale - log_cond * spread)) @ q.T
    with mpmath.workdps(40):
        w = sorted(mpmath.eigsy(mpmath.matrix((0.5 * (h0 + h0.T)).tolist()), eigvals_only=True))
    for method in _QN_METHODS:
        assert method.initial_h(n, None).lo == 1.0
        try:
            h = method.initial_h(n, h0)
        except ValueError:
            assert log_cond >= 12.0  # refused only near the 1/(4 n^2 u) boundary
            continue
        assert h.lo <= w[0]
        assert updates.is_positive_definite(h.matrix)


# ---------------------------------------------------------------------------
# the abstract's invariances along whole trajectories


def _scaled_problem(base, m):
    """psi(z) = phi(Mz), started at z0 = M^-1 x0, and H0 = M^-1 M^-T, both from the SVD of M."""
    u, sig, vt = np.linalg.svd(m)
    h0 = (vt.T / sig**2) @ vt
    problem = Problem(
        name=f"{base.name}-scaled",
        dim=base.dim,
        x0=(vt.T / sig) @ (u.T @ base.x0),
        phi=lambda z: base.phi(m @ z),
        grad=lambda z: m.T @ base.grad(m @ z),
        phi_star=base.phi_star,
    )
    return problem, 0.5 * (h0 + h0.T)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 10),
    seed=st.integers(0, 2**32 - 1),
    log_cond=st.floats(0.0, 6.0),
    log_scale=st.floats(-3.0, 3.0),
    arm=st.sampled_from(["softqn", "spbfgs"]),
)
def test_penalized_updates_are_invariant_under_a_linear_change_of_variables(n, seed, log_cond, log_scale, arm):
    # In exact arithmetic z_k = M^-1 x_k: s'y and y'Hy are the same in both
    # variables, so are gamma (soft QN) and the PD test (SP-BFGS, constant beta).
    # The z-run's H is M^-1 H M^-T, whose condition number is cond(M)^2 times
    # H's, so each of the K steps puts a relative error of about n*u*cond(M)^2
    # into M z_k.
    #
    # Not invariant, and so not drawn here: SP-BFGS with StepNormBeta reads |s|,
    # and its trajectory moves by about 0.3 (relative) already at cond(M) = 1
    # with a scale; BFGS's curvature tolerance reads |s||y|, and its ARWHEAD
    # trajectory at this step moves by about 1e-2 under a pure rotation, as it
    # does when x0 moves by one ulp.
    method = {"softqn": SoftQn(ConstantAlpha(1.0)), "spbfgs": SpBfgs(ConstantBeta(1.0))}[arm]
    cond, steps = 10.0**log_cond, 30
    rng = np.random.default_rng(seed)
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    m = (q1 * np.geomspace(1.0, 1.0 / cond, n)) @ q2.T * 10.0**log_scale
    base = cutest_like("ARWHEAD", n)
    scaled, h0 = _scaled_problem(base, m)
    budget = Budget(iterations=steps)
    rx = run(NoisyOracle(base), method, FixedStep(0.01), budget, keep_iterates=True)
    rz = run(NoisyOracle(scaled), method, FixedStep(0.01), budget, h0=h0, keep_iterates=True)
    assert not rx.diverged and not rz.diverged
    xs = np.array(rx.iterates)
    gap = np.abs(xs - np.array(rz.iterates) @ m.T).max() / (1.0 + np.abs(xs).max())
    assert gap <= steps * n * 2.0**-53 * cond**2, gap


@pytest.mark.parametrize("n", [4, 10, 30])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_soft_qn_tracks_bfgs_along_a_trajectory_at_large_alpha(n, seed):
    # the soft update is BFGS plus terms of order 1/alpha (the largest is
    # (alpha/gamma^2)*Hy*y'H, with gamma ~ alpha*s'y), so the gap between the two
    # trajectories shrinks about a thousandfold from alpha = 1e9 to 1e12; at
    # n = 10 the converged BFGS run's own rounding caps that at about 50-fold
    problem = gen_random_qp(n, seed)
    step, budget = FixedStep(1.0), Budget(iterations=25)

    def iterates(method):
        rec = run(NoisyOracle(problem), method, step, budget, keep_iterates=True)
        assert not rec.diverged
        return np.array(rec.iterates)

    xs = iterates(StochasticBfgs())

    def gap(alpha):
        return np.abs(iterates(SoftQn(ConstantAlpha(alpha))) - xs).max() / (1.0 + np.abs(xs).max())

    far, near = gap(1e9), gap(1e12)
    assert near <= 1e-6
    assert near <= 0.1 * far
