"""Tests for the counted noisy oracle and its deterministic streams."""

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
from softqn.problems import gen_random_qp, load_libsvm, logistic_problem
from softqn.experiments import fixture_dataset_path


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
