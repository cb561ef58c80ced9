"""Tests for the brute-force verification oracle of the penalized update problem."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest

from softqn.checks import random_spd
from softqn.oracle import (
    NoConvergenceError,
    PenaltyObjectiveSpec,
    _gradient_and_scale,
    _newton_matrix,
    _symmetric_basis,
    minimize_penalty_objective,
    penalty_objective,
    stationarity_residual,
)
from softqn.updates import soft_qn_update

_NOT_FINITE = [np.inf, -np.inf, np.nan]


def _spec(h, s, y, alpha):
    return PenaltyObjectiveSpec(
        h_prev=np.asarray(h, dtype=float),
        s=np.asarray(s, dtype=float),
        y=np.asarray(y, dtype=float),
        alpha=alpha,
    )


def test_spec_validation():
    with pytest.raises(ValueError):
        _spec(np.eye(2), np.zeros(3), np.zeros(2), 1.0)
    with pytest.raises(ValueError, match="h_prev must be square"):
        _spec(np.ones((2, 3)), np.zeros(2), np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        _spec(np.eye(2), np.zeros(2), np.zeros(2), 0.0)
    with pytest.raises(ValueError, match="symmetric positive definite"):
        _spec(-np.eye(2), np.zeros(2), np.zeros(2), 1.0)
    with pytest.raises(ValueError, match="symmetric positive definite"):
        _spec([[2.0, 1.0], [0.0, 2.0]], np.zeros(2), np.zeros(2), 1.0)
    # a non-finite entry is refused before the symmetry test, so without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in _NOT_FINITE:
            with pytest.raises(ValueError, match="symmetric positive definite"):
                _spec([[1.0, 0.0], [0.0, bad]], np.zeros(2), np.zeros(2), 1.0)


def test_spec_refuses_a_non_finite_alpha_or_pair():
    # a NaN alpha once gave H* = h_prev after 0 iterations with a NaN residual
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in _NOT_FINITE:
            with pytest.raises(ValueError, match="alpha must be positive and finite"):
                _spec(np.eye(2), np.ones(2), np.ones(2), bad)
            with pytest.raises(ValueError, match="s and y must be finite"):
                _spec(np.eye(2), [1.0, bad], np.ones(2), 1.0)
            with pytest.raises(ValueError, match="s and y must be finite"):
                _spec(np.eye(2), np.ones(2), [bad, 1.0], 1.0)


# ---------------------------------------------------------------------------
# objective value


def test_objective_zero_pair_at_identity_is_n():
    for n in (1, 2, 4):
        spec = _spec(np.eye(n), np.zeros(n), np.zeros(n), 1.0)
        assert penalty_objective(spec, np.eye(n)) == pytest.approx(float(n))


def test_objective_unit_pair_at_identity_is_n():
    # penalty term s'Bs - 2 s'y + y'B^{-1}y = 1 - 2 + 1 = 0 at B = I
    n = 3
    e1 = np.eye(n)[0]
    spec = _spec(np.eye(n), e1, e1, 1.0)
    assert penalty_objective(spec, np.eye(n)) == pytest.approx(float(n))


def test_objective_rejects_non_pd_point():
    spec = _spec(np.eye(2), np.zeros(2), np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        penalty_objective(spec, np.diag([1.0, -1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in _NOT_FINITE:
            for fn in (penalty_objective, stationarity_residual):
                with pytest.raises(ValueError, match="finite"):
                    fn(spec, np.array([[1.0, bad], [bad, 1.0]]))


def test_closed_form_beats_no_update_point():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        h = random_spd(rng, n, 1e-1, 1e1)
        s = rng.standard_normal(n)
        y = rng.standard_normal(n)
        spec = _spec(h, s, y, 0.7)
        h_new, _ = soft_qn_update(h, s, y, 0.7)
        at_minimizer = penalty_objective(spec, np.linalg.inv(h_new))
        at_start = penalty_objective(spec, np.linalg.inv(h))
        assert at_minimizer <= at_start + 1e-12


# ---------------------------------------------------------------------------
# stationarity residual


def test_residual_zero_pair_at_identity():
    spec = _spec(np.eye(2), np.zeros(2), np.zeros(2), 1.0)
    assert stationarity_residual(spec, np.eye(2)) == 0.0


def test_residual_refuses_a_b_that_is_not_a_matrix():
    spec = _spec(np.eye(2), np.zeros(2), np.zeros(2), 1.0)
    with pytest.raises(ValueError, match="B must be square"):
        stationarity_residual(spec, np.ones(2))


def test_residual_vanishes_at_closed_form():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        h = random_spd(rng, n, 1e-1, 1e1)
        s = rng.standard_normal(n)
        y = rng.standard_normal(n)
        spec = _spec(h, s, y, 1.3)
        h_new, _ = soft_qn_update(h, s, y, 1.3)
        res = stationarity_residual(spec, np.linalg.inv(h_new))
        assert res <= 1e-8 * (1.0 + np.linalg.norm(h, "fro"))


def test_residual_positive_at_unmodified_matrix():
    h = np.eye(2)
    spec = _spec(h, np.array([1.0, 0.0]), np.array([0.5, 0.2]), 1.0)
    assert stationarity_residual(spec, np.linalg.inv(h)) > 1e-3


# ---------------------------------------------------------------------------
# numerical minimization


def test_minimizer_zero_pair_returns_identity():
    spec = _spec(np.eye(2), np.zeros(2), np.zeros(2), 1.0)
    result = minimize_penalty_objective(spec)
    npt.assert_allclose(result.b_star, np.eye(2), atol=1e-7)
    assert result.stationarity_residual <= 1e-9


def test_minimizer_1d_hand_value():
    spec = _spec(np.eye(1), np.array([0.0]), np.array([1.0]), 1.0)
    result = minimize_penalty_objective(spec)
    assert result.h_star[0, 0] == pytest.approx(0.6180339887, abs=1e-8)


def test_minimizer_matches_closed_form_n2():
    spec = _spec(np.eye(2), np.array([1.0, 0.0]), np.array([0.5, 0.2]), 0.3)
    result = minimize_penalty_objective(spec)
    h_new, _ = soft_qn_update(spec.h_prev, spec.s, spec.y, spec.alpha)
    npt.assert_allclose(result.h_star, h_new, atol=1e-6)
    assert result.objective_value <= penalty_objective(spec, np.linalg.inv(spec.h_prev)) + 1e-12


_STIFF = _spec(np.eye(2), np.array([10.0, 0.0]), np.array([0.1, 0.3]), 1e8)


def test_minimizer_raises_when_tol_is_below_the_rounding_floor():
    # alpha*ss' has entries of 1e10, so the residual cannot be resolved to 1e-10
    # (it is 5e-6 at the closed form); the loop must give up instead of cycling
    with pytest.raises(NoConvergenceError, match="collapsed"):
        minimize_penalty_objective(_STIFF, tol=1e-20)


@pytest.mark.parametrize(
    "spec",
    [
        _STIFF,
        # alpha*||s||^2 = 2.0e5 and 1.3e4: two of the seed-8 stiff draws below
        _spec(
            np.array([[7.5983488050516295, 0.9802170036748361], [0.9802170036748361, 2.136728023199394]]),
            np.array([5.508476990609921, -8.85863516276167]),
            np.array([1.6820411127691062, 1.0794808141493613]),
            1881.3515705599116,
        ),
        _spec(
            np.array([[4.771182279596895, 1.2152498404922998], [1.2152498404922998, 1.2791848177641556]]),
            np.array([6.8698940286993375, 7.224953778385487]),
            np.array([8.022519534785935, -8.730974926274943]),
            127.6710112842187,
        ),
    ],
    ids=["alpha_ss_1e10", "alpha_ss_2e5", "alpha_ss_1e4"],
)
def test_minimizer_converges_on_stiff_specs_with_its_relative_tolerance(spec):
    # an absolute tolerance of 1e-9 lies below these residuals' rounding floors
    # (the Newton step collapsed at 5e-6, 5.2e-7 and 1.3e-9); relative to the
    # size of the gradient's terms it is reached, and H agrees with the closed form
    result = minimize_penalty_objective(spec)
    h_new, _ = soft_qn_update(spec.h_prev, spec.s, spec.y, spec.alpha)
    assert np.linalg.norm(result.h_star - h_new) <= 1e-5 * (1.0 + np.linalg.norm(spec.h_prev))


def test_minimizer_converges_or_collapses_on_stiff_specs():
    # H spectra in [1e-2, 1e2], alpha up to 1e4 and pairs up to 10x scaled: some
    # of these have a residual floor above tol, where rounding noise in U and in
    # the residual could keep a line search accepting steps forever
    rng = np.random.default_rng(8)
    converged = 0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        h = random_spd(rng, n, 1e-2, 1e2)
        s = rng.standard_normal(n) * 10.0 ** rng.uniform(-1, 1)
        y = rng.standard_normal(n) * 10.0 ** rng.uniform(-1, 1)
        alpha = 10.0 ** rng.uniform(-3, 4)
        try:
            result = minimize_penalty_objective(_spec(h, s, y, alpha), max_iter=200)
        except NoConvergenceError as exc:
            assert "collapsed" in str(exc)
            continue
        converged += 1
        h_new, _ = soft_qn_update(h, s, y, alpha)
        assert np.linalg.norm(result.h_star - h_new) <= 1e-5 * (1.0 + np.linalg.norm(h))
    assert converged >= 190


# ---------------------------------------------------------------------------
# objective geometry


def test_objective_is_convex_along_segments():
    rng = np.random.default_rng(8)
    worst = -np.inf
    for _ in range(50):
        n = int(rng.integers(2, 5))
        h = random_spd(rng, n, 1e-1, 1e1)
        spec = _spec(h, rng.standard_normal(n), rng.standard_normal(n), 10.0 ** rng.uniform(-1, 1))
        b1 = random_spd(rng, n, 1e-1, 1e1)
        b2 = random_spd(rng, n, 1e-1, 1e1)
        theta = rng.uniform(0.05, 0.95)
        lhs = penalty_objective(spec, theta * b1 + (1 - theta) * b2)
        rhs = theta * penalty_objective(spec, b1) + (1 - theta) * penalty_objective(spec, b2)
        worst = max(worst, lhs - rhs)
    assert worst <= 1e-10


def test_gradient_matches_finite_differences():
    # the residual matrix is the gradient of the objective in B, so directional
    # derivatives must match central differences of the value
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        h = random_spd(rng, n, 1e-1, 1e1)
        spec = _spec(h, rng.standard_normal(n), rng.standard_normal(n), 10.0 ** rng.uniform(-1, 1))
        b = random_spd(rng, n, 5e-1, 5.0)
        d = rng.standard_normal((n, n))
        d = 0.5 * (d + d.T)
        d /= np.linalg.norm(d, "fro")
        eps = 1e-6
        fd = (penalty_objective(spec, b + eps * d) - penalty_objective(spec, b - eps * d)) / (
            2 * eps
        )
        # reconstruct the gradient matrix from the definition of the residual
        b_inv = np.linalg.inv(b)
        w = b_inv @ spec.y
        grad = spec.h_prev - b_inv + spec.alpha * (np.outer(spec.s, spec.s) - np.outer(w, w))
        analytic = float(np.sum(grad * d))
        assert fd == pytest.approx(analytic, rel=1e-5, abs=1e-10)

        # the Newton matrix applied to the coordinates of d is the change of the
        # gradient along d, in the same coordinates
        basis = _symmetric_basis(n)
        hess_d = _newton_matrix(spec, b_inv, basis) @ d[np.triu_indices(n)]
        grad_p, grad_m = (
            _gradient_and_scale(spec, np.linalg.cholesky(b_t))[0] for b_t in (b + eps * d, b - eps * d)
        )
        fd_hess_d = basis.T @ ((grad_p - grad_m) / (2 * eps)).ravel()
        npt.assert_allclose(hess_d, fd_hess_d, rtol=1e-5, atol=1e-8 * np.abs(hess_d).max())
