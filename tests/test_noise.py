"""Tests for the counted noisy oracle and its deterministic streams."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from softqn.noise import (
    GaussianNoise,
    MinibatchSampling,
    NoisyOracle,
    SphereNoise,
    UniformNoise,
    derive_seed,
)
from softqn.problems import Problem, cutest_like, gen_random_qp, load_libsvm, logistic_problem
from softqn.experiments import fixture_dataset_path
from softqn.solver import (
    Budget,
    DiminishingStep,
    FixedStep,
    NoisyArmijo,
    SoftQn,
    SpBfgs,
    StochasticBfgs,
    TrialRecord,
    run,
)
from softqn.updates import ConstantAlpha, ConstantBeta


QP = gen_random_qp(6, 0)


def test_derive_seed_is_stable_and_sensitive():
    # frozen: the seed derivation must never change silently, or every
    # recorded experiment output changes with it
    assert derive_seed(1234, "softqn", 0) == derive_seed(1234, "softqn", 0)
    assert derive_seed(1234, "softqn", 0) != derive_seed(1234, "softqn", 1)
    assert derive_seed(1234, "softqn", 0) != derive_seed(1234, "spbfgs", 0)
    assert derive_seed(12, 34) != derive_seed(1234)
    assert derive_seed("12") != derive_seed(12)
    assert 0 <= derive_seed(0) < 2**64
    assert derive_seed(1234, "softqn", 0) == 7688615372667882929
    # a numpy integer gives its int's seed
    assert derive_seed(-5) == derive_seed(np.int64(-5)) == 2824847129423400538
    assert derive_seed(2**64 - 1, "x") == derive_seed(np.uint64(2**64 - 1), "x") == 5339545974022917721


@pytest.mark.parametrize(
    "part", [3.7, True, np.float64(2.0), None, b"1"], ids=["float", "bool", "numpy_float", "none", "bytes"]
)
def test_derive_seed_refuses_a_part_that_is_neither_a_string_nor_an_integer(part):
    # int(part) truncated 3.7 to 3 and True to 1
    with pytest.raises(ValueError, match="seed part must be an integer"):
        derive_seed(1234, part)


@pytest.mark.parametrize("seed", [3.7, True, np.float64(2.0), "1"], ids=["float", "bool", "numpy_float", "str"])
def test_oracle_refuses_a_seed_that_is_not_an_integer(seed):
    # int(seed) truncated each of them to another seed
    with pytest.raises(ValueError, match="seed must be an integer"):
        NoisyOracle(QP, grad_noise=GaussianNoise(1.0), seed=seed)


@pytest.mark.parametrize("seed", [np.int64(7), np.uint64(2**64 - 1), -5])
def test_oracle_takes_any_integer_seed_with_the_streams_of_its_int(seed):
    noise = {"fun_noise": UniformNoise(0.5), "grad_noise": GaussianNoise(1.0)}
    a, b = NoisyOracle(QP, seed=seed, **noise), NoisyOracle(QP, seed=int(seed), **noise)
    assert a.f(QP.x0) == b.f(QP.x0)
    npt.assert_array_equal(a.g(QP.x0), b.g(QP.x0))


def _draws(seed):
    """A few draws of each of an oracle's three streams at ``seed``."""
    o = NoisyOracle(QP, fun_noise=UniformNoise(0.5), grad_noise=GaussianNoise(1.0), seed=seed)
    problem = logistic_problem(load_libsvm(fixture_dataset_path()), 0.1)
    batch = NoisyOracle(problem, grad_noise=MinibatchSampling(8), seed=seed)
    x = 0.1 * np.ones(problem.dim)
    return [o.f(QP.x0), o.f(QP.x0), *o.g(QP.x0), *o.g(QP.x0), *batch.g(x), *batch.g(x)]


def test_oracle_streams_depend_on_the_seed_modulo_2_63():
    for a, b in [(5, 5 + 2**63), (-1, 2**63 - 1), (2**64 - 1, 2**63 - 1), (-(2**63), 0)]:
        assert _draws(a) == _draws(b), (a, b)
    for a, b in [(0, 1), (0, 2**62), (2**63 - 1, 2**63 - 2)]:
        assert _draws(a) != _draws(b), (a, b)


def test_noiseless_oracle_is_exact_and_counts():
    o = NoisyOracle(QP, seed=0)
    x = QP.x0
    assert o.f(x) == QP.phi(x)
    npt.assert_array_equal(o.g(x), QP.grad(x))
    assert (o.fun_evals, o.grad_evals) == (1, 1)
    # the exact channel never counts
    o.true_phi(x)
    o.true_grad(x)
    o.hess(x)
    assert (o.fun_evals, o.grad_evals) == (1, 1)


def test_uniform_function_noise_is_bounded_and_centered():
    o = NoisyOracle(QP, fun_noise=UniformNoise(0.25), seed=7)
    x = QP.x0
    exact = QP.phi(x)
    draws = np.array([o.f(x) - exact for _ in range(100_000)])
    assert np.max(np.abs(draws)) <= 0.25
    # uniform on [-e, e] has sd e/sqrt(3); the mean of N draws is within
    # 3*sd/sqrt(N) of zero with overwhelming probability
    assert abs(draws.mean()) <= 3.0 * 0.25 / np.sqrt(3.0 * draws.size)
    assert o.fun_evals == 100_000


def test_sphere_noise_has_exact_radius_every_call():
    o = NoisyOracle(QP, grad_noise=SphereNoise(0.03), seed=11)
    x = QP.x0
    exact = QP.grad(x)
    for _ in range(200):
        assert np.linalg.norm(o.g(x) - exact) == pytest.approx(0.03, rel=1e-12)


def test_sphere_noise_is_uniform():
    o = NoisyOracle(QP, grad_noise=SphereNoise(1.0), seed=13)
    x = QP.x0
    exact = QP.grad(x)
    draws = np.array([o.g(x) - exact for _ in range(100_000)])
    n = QP.dim
    assert np.linalg.norm(draws.mean(axis=0)) <= 0.05
    npt.assert_allclose(draws.var(axis=0), np.full(n, 1.0 / n), rtol=0.05)


def test_gaussian_noise_scale():
    o = NoisyOracle(QP, grad_noise=GaussianNoise(4.0), seed=17)
    x = QP.x0
    exact = QP.grad(x)
    draws = np.array([o.g(x) - exact for _ in range(20_000)])
    npt.assert_allclose(draws.var(axis=0), np.full(QP.dim, 4.0), rtol=0.1)


def test_streams_replay_identically():
    a = NoisyOracle(QP, fun_noise=UniformNoise(0.1), grad_noise=SphereNoise(0.2), seed=99)
    b = NoisyOracle(QP, fun_noise=UniformNoise(0.1), grad_noise=SphereNoise(0.2), seed=99)
    x = QP.x0
    for _ in range(50):
        assert a.f(x) == b.f(x)
        npt.assert_array_equal(a.g(x), b.g(x))


def test_streams_are_independent_of_each_other():
    # consuming the function stream must not shift the gradient stream
    a = NoisyOracle(QP, fun_noise=UniformNoise(0.1), grad_noise=SphereNoise(0.2), seed=5)
    b = NoisyOracle(QP, fun_noise=UniformNoise(0.1), grad_noise=SphereNoise(0.2), seed=5)
    x = QP.x0
    for _ in range(10):
        a.f(x)
    npt.assert_array_equal(a.g(x), b.g(x))


def test_minibatch_stream():
    data = load_libsvm(fixture_dataset_path())
    p = logistic_problem(data, 0.1)
    a = NoisyOracle(p, grad_noise=MinibatchSampling(8), seed=3)
    b = NoisyOracle(p, grad_noise=MinibatchSampling(8), seed=3)
    x = 0.1 * np.ones(p.dim)
    npt.assert_array_equal(a.g(x), b.g(x))
    assert a.grad_evals == 1


def test_oracle_rejects_unsupported_models():
    with pytest.raises(ValueError):
        NoisyOracle(QP, fun_noise=GaussianNoise(1.0))  # gradient model on the fun channel
    with pytest.raises(ValueError):
        NoisyOracle(QP, grad_noise=UniformNoise(1.0))
    with pytest.raises(ValueError):
        NoisyOracle(QP, grad_noise=MinibatchSampling(8))  # QP has no batch_grad


# ---------------------------------------------------------------------------
# one problem evaluation per point, shared by the noisy and exact channels


class _Unshared(NoisyOracle):
    """The oracle with every call evaluating the problem afresh (no shared values)."""

    def f(self, x):
        self._fun_evals += 1
        v = self.problem.phi(x)
        if isinstance(self.fun_noise, UniformNoise):
            hw = self.fun_noise.half_width
            v = v + float(self._rng_fun.uniform(-hw, hw))
        return float(v)

    def g(self, x):
        self._grad_evals += 1
        gn = self.grad_noise
        if isinstance(gn, MinibatchSampling):
            return self.problem.batch_grad(x, gn.batch, self._rng_batch)
        g = self.problem.grad(x)
        if isinstance(gn, GaussianNoise):
            g = g + np.sqrt(gn.cov_scale) * self._rng_grad.standard_normal(g.shape)
        elif isinstance(gn, SphereNoise):
            v = self._rng_grad.standard_normal(g.shape)
            nv = np.linalg.norm(v)
            g = g + (gn.radius / nv) * v
        return g

    def true_phi(self, x):
        return float(self.problem.phi(x))

    def true_grad(self, x):
        return self.problem.grad(x)


def _counted(problem):
    """problem with phi/grad wrapped to count their calls in the returned dict."""
    calls = {"phi": 0, "grad": 0}

    def wrap(name, fn):
        def counted(x):
            calls[name] += 1
            return fn(x)

        return counted

    return dataclasses.replace(
        problem, phi=wrap("phi", problem.phi), grad=wrap("grad", problem.grad)
    ), calls


def _arwhead_armijo(level, eps_tol):
    oracle_args = dict(fun_noise=UniformNoise(level), grad_noise=SphereNoise(level), seed=4)
    return cutest_like("ARWHEAD", n=20), oracle_args, NoisyArmijo(eps_tol=eps_tol), Budget(iterations=40)


def _logreg_problem():
    return logistic_problem(load_libsvm(fixture_dataset_path()), 0.1)


# (problem, oracle kwargs, step, budget, expect rejected steps)
_TRIALS = {
    "arwhead_accepting": lambda: (*_arwhead_armijo(1e-3, 1e-3), False),
    "arwhead_rejecting": lambda: (*_arwhead_armijo(1e-3, 0.0), True),
    "dixmaana_eval_budget": lambda: (
        cutest_like("DIXMAANA"),
        dict(fun_noise=UniformNoise(1e-2), grad_noise=SphereNoise(1e-3), seed=9),
        NoisyArmijo(eps_tol=1e-2),
        Budget(fun_evals=150),
        None,
    ),
    "qp_gaussian": lambda: (
        gen_random_qp(10, 3),
        dict(grad_noise=GaussianNoise(0.5), seed=21),
        DiminishingStep(1.0),
        Budget(iterations=40),
        False,
    ),
    "logreg_minibatch": lambda: (
        _logreg_problem(),
        dict(grad_noise=MinibatchSampling(8), seed=5),
        FixedStep(0.1),
        Budget(iterations=20),
        False,
    ),
}
_QN = {
    "softqn": SoftQn(ConstantAlpha(1e3)),
    "spbfgs": SpBfgs(ConstantBeta(1.0)),
    "bfgs": StochasticBfgs(),
}


@pytest.mark.parametrize("method", list(_QN))
@pytest.mark.parametrize("trial", list(_TRIALS))
def test_shared_evaluations_leave_every_record_field_unchanged(trial, method):
    problem, oracle_args, step, budget, rejects = _TRIALS[trial]()
    ref = run(_Unshared(problem, **oracle_args), _QN[method], step, budget, keep_iterates=True)
    rec = run(NoisyOracle(problem, **oracle_args), _QN[method], step, budget, keep_iterates=True)
    if rejects is not None:
        assert (rec.step_rejections > 0) == rejects
    assert not rec.diverged
    for field in dataclasses.fields(TrialRecord):
        got, want = getattr(rec, field.name), getattr(ref, field.name)
        if want is None:
            assert got is None, field.name
        else:
            npt.assert_array_equal(got, want, err_msg=field.name)


@pytest.mark.parametrize("level", [1e-4, 1e-3, 1e-2])
@pytest.mark.parametrize("eps_tol", [None, 0.0], ids=["tolerant", "strict"])
def test_each_point_is_evaluated_once_across_both_channels(level, eps_tol):
    problem, oracle_args, _, budget = _arwhead_armijo(level, level)
    step = NoisyArmijo(eps_tol=level if eps_tol is None else eps_tol)
    shared, calls = _counted(problem)
    rec = run(NoisyOracle(shared, **oracle_args), SoftQn(ConstantAlpha(1e6)), step, budget)
    assert not rec.diverged
    # the exact phi at an accepted point, the noisy g right after the exact
    # gradient, and the gradient at the unchanged point after a rejection are free
    assert calls["phi"] == rec.fun_evals + rec.step_rejections
    assert calls["grad"] == rec.iterations - rec.step_rejections + 1
    unshared, unshared_calls = _counted(problem)
    run(_Unshared(unshared, **oracle_args), SoftQn(ConstantAlpha(1e6)), step, budget)
    assert unshared_calls["phi"] == rec.fun_evals + rec.iterations + 1
    assert unshared_calls["grad"] == 2 * (rec.iterations + 1)


def test_counters_count_every_call_at_a_repeated_point():
    problem, calls = _counted(QP)
    o = NoisyOracle(problem, fun_noise=UniformNoise(0.1), grad_noise=SphereNoise(0.1), seed=1)
    x = QP.x0
    f1, f2 = o.f(x), o.f(x)
    g1, g2 = o.g(x), o.g(x)
    assert f1 != f2 and not np.array_equal(g1, g2)  # fresh noise on every call
    o.true_phi(x)
    o.true_grad(x)
    assert (o.fun_evals, o.grad_evals) == (2, 2)
    assert calls == {"phi": 1, "grad": 1}
    assert o.true_phi(x) == QP.phi(x)
    npt.assert_array_equal(o.true_grad(x), QP.grad(x))


def test_returned_gradients_do_not_alias_the_shared_value():
    o = NoisyOracle(QP, seed=0)
    x = QP.x0
    exact = QP.grad(x)
    o.true_grad(x)[:] = 1e300
    npt.assert_array_equal(o.g(x), exact)
    o.g(x)[:] = -1e300
    npt.assert_array_equal(o.true_grad(x), exact)
    npt.assert_array_equal(o.g(x), exact)


def test_points_are_matched_by_dtype_shape_and_bytes():
    flat = Problem(
        name="flat",
        dim=4,
        x0=np.zeros(4),
        phi=lambda x: float(np.sum(x)),
        grad=lambda x: np.ones(np.shape(x)),
    )
    problem, calls = _counted(flat)
    o = NoisyOracle(problem, seed=0)
    zeros = np.zeros(4)
    for x in (zeros, zeros.copy(), -zeros, -zeros, zeros.reshape(2, 2), zeros.view(np.int64)):
        o.true_phi(x)
        o.true_grad(x)
    # +0.0 then -0.0 (equal under ==) and the same bytes in another shape or
    # dtype are new points; a copy of the last point is not
    assert calls == {"phi": 4, "grad": 4}
    nan = np.full(4, np.nan)  # NaN != NaN, but the bytes match
    o.f(nan)
    o.f(nan.copy())
    assert calls["phi"] == 5
