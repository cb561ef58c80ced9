"""Unit tests for the closed-form update operations and penalty policies."""

import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import Phase, given, settings, target
from hypothesis import strategies as st

from softqn import updates
from softqn.updates import (
    ConstantAlpha,
    ConstantBeta,
    CurvatureError,
    CurvatureRelaxedBeta,
    EigenBounds,
    PdThresholdError,
    StepNormBeta,
    UpdateConsistencyError,
    _rank_two,
    bfgs_admissible,
    bfgs_update,
    biased_direction,
    is_positive_definite,
    lambda_max_upper_bound,
    soft_qn_alpha_bound,
    soft_qn_update,
    sp_bfgs_admissible,
    sp_bfgs_update,
)

GOLDEN = 1.618033988749895  # 0.5 + sqrt(1.25)


# ---------------------------------------------------------------------------
# gamma, read off 1-D updates, where y'Hy = h*y^2 and s'y = s*y


def _gamma(alpha, h, s, y):
    return soft_qn_update(np.array([[h]]), np.array([s]), np.array([y]), alpha)[1].gamma


def test_gamma_degenerate_pair_is_one():
    assert _gamma(1.0, 1.0, 0.0, 0.0) == 1.0


def test_gamma_zero_penalty_limit():
    assert _gamma(1e-300, 5.0, -3.0, 1.0) == pytest.approx(1.0)


def test_gamma_golden_ratio_case():
    assert _gamma(1.0, 1.0, 0.0, 1.0) == pytest.approx(GOLDEN, abs=1e-10)


@pytest.mark.parametrize("alpha", [0.0, -1.0, np.nan])
def test_update_rejects_a_penalty_that_is_not_positive(alpha):
    with pytest.raises(ValueError, match="alpha must be positive"):
        soft_qn_update(np.eye(1), np.array([1.0]), np.array([1.0]), alpha)


def test_update_refuses_a_negative_y_h_y_with_a_typed_error():
    # y'Hy = -1e-6 is beyond rounding: H is not positive definite
    with pytest.raises(UpdateConsistencyError, match="y'Hy"):
        soft_qn_update(np.array([[-1e-6]]), np.array([1.0]), np.array([1.0]), 1.0)


def test_update_clamps_a_negative_y_h_y_within_rounding():
    assert _gamma(1.0, -1e-13, 1.0, 1.0) == _gamma(1.0, 0.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# soft QN update


def test_update_zero_pair_is_identity_map():
    h = np.array([[2.0, 0.3], [0.3, 1.0]])
    h_new, scratch = soft_qn_update(h, np.zeros(2), np.zeros(2), alpha=7.5)
    npt.assert_array_equal(h_new, h)
    assert scratch.gamma == 1.0


def test_update_1d_large_alpha_reaches_bfgs_fixed_point():
    # s'y > 0, so alpha -> inf is the BFGS update, which maps to s s'/s'y = 1 here
    h_new, _ = soft_qn_update(np.eye(1), np.array([1.0]), np.array([1.0]), alpha=1e12)
    assert h_new[0, 0] == pytest.approx(1.0, rel=1e-3)


def test_update_1d_rejected_step_hand_value():
    # s = 0: H' = H - (alpha/gamma^2) Hy y'H with gamma the golden ratio
    h_new, scratch = soft_qn_update(np.eye(1), np.array([0.0]), np.array([1.0]), alpha=1.0)
    assert scratch.gamma == pytest.approx(GOLDEN, abs=1e-10)
    assert h_new[0, 0] == pytest.approx(0.6180339887, abs=1e-9)


def test_update_stays_pd_on_negative_curvature():
    rng = np.random.default_rng(7)
    h = np.eye(4)
    s = rng.standard_normal(4)
    y = -s + 0.1 * rng.standard_normal(4)  # s'y < 0
    assert float(s @ y) < 0
    h_new, _ = soft_qn_update(h, s, y, alpha=100.0)
    assert is_positive_definite(h_new)
    npt.assert_allclose(h_new, h_new.T, atol=0)


def test_update_rejects_nonfinite_and_mismatched_inputs():
    with pytest.raises(ValueError):
        soft_qn_update(np.eye(2), np.array([np.nan, 0.0]), np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        soft_qn_update(np.eye(2), np.zeros(3), np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        soft_qn_update(np.eye(2)[:1], np.zeros(2), np.zeros(2), 1.0)


@pytest.mark.parametrize(
    "s, y, alpha",
    [
        ([1e100, 0.0, 0.0], [1e100, 0.0, 0.0], 1e10),  # gamma overflows
        ([1.0, 0.0, 0.0], [1.0, 0.0, 0.0], 1e300),
        ([1.0, 0.0, 0.0], [1e160, 0.0, 0.0], 1e-8),
    ],
)
@pytest.mark.parametrize("lo", [None, 1.0], ids=["no_lo", "lo"])
def test_update_overflow_raises_before_the_pd_self_check(monkeypatch, s, y, alpha, lo):
    # each of these overflows a coefficient, which raises before H' is formed, so
    # the guard never sees an all-NaN matrix
    calls = []
    monkeypatch.setattr(updates, "is_positive_definite", lambda a: calls.append(1) or True)
    with np.errstate(all="ignore"), pytest.raises(UpdateConsistencyError, match="overflow"):
        soft_qn_update(np.eye(3), np.array(s), np.array(y), alpha, lo)
    assert calls == []


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_is_positive_definite_rejects_non_finite(bad):
    assert not is_positive_definite(np.full((3, 3), bad))
    a = np.eye(3)
    a[2, 0] = a[0, 2] = bad
    assert not is_positive_definite(a)


@pytest.mark.parametrize("alpha", [1e-4, 1e-5])
def test_update_noise_pairs_contract_scaled_identity_at_first_order(alpha):
    # Pairs whose y is pure noise, y ~ N(0, 2*sigma^2*I), shrink H = hI on average
    # by alpha*h^2*E[yy'] = 2*alpha*sigma^2*h^2*I at first order in alpha.  This
    # per-step contraction gives H_k ~= I/(1 + 2*alpha*sigma^2*k) on the QP protocol.
    n, samples, sigma2, h = 50, 400, 1.0, 0.8
    ys = np.random.default_rng(17).normal(0.0, math.sqrt(2.0 * sigma2), size=(samples, n))
    traces = [np.trace(soft_qn_update(h * np.eye(n), np.zeros(n), y, alpha)[0]) for y in ys]
    shrink = h - float(np.mean(traces)) / n
    # against the sampled second moment only the O(alpha^2) remainder is left: a
    # relative error of about 2*alpha*y'Hy = 2*alpha*h*2*sigma^2*n from gamma^2 ...
    sampled = alpha * h * h * float(np.mean(np.sum(ys * ys, axis=1))) / n
    assert shrink == pytest.approx(sampled, rel=3.0 * alpha * h * 2.0 * sigma2 * n)
    # ... and against the population value the sampling error of mean |y|^2 adds
    assert shrink == pytest.approx(2.0 * alpha * sigma2 * h * h, rel=0.05)


# ---------------------------------------------------------------------------
# alpha bound


def test_alpha_bound_hand_case():
    h = np.eye(2)
    s = np.array([1.0, 0.0])
    y = np.array([1.0, 0.0])
    bound = soft_qn_alpha_bound(h, s, y, EigenBounds(0.5, 2.0), lam_min=1.0, lam_max=1.0)
    # min{(1 - 0.5)/(|s| + |Hy|)^2, (2 - 1)/|s|^2} = min{0.5/4, 1}
    assert bound == pytest.approx(0.125)


def test_alpha_bound_zero_pair_is_unconstrained():
    h = np.eye(2)
    z = np.zeros(2)
    assert soft_qn_alpha_bound(h, z, z, EigenBounds(0.5, 2.0), 1.0, 1.0) == math.inf


def test_alpha_bound_no_slack_is_zero():
    h = np.eye(2)
    s = np.array([1.0, 0.0])
    assert soft_qn_alpha_bound(h, s, s, EigenBounds(1.0, 1.0), 1.0, 1.0) == 0.0


def test_alpha_bound_violated_entry_returns_zero():
    h = np.eye(2)
    s = np.array([1.0, 0.0])
    # lam_min below the floor: no admissible alpha, caller clamps
    assert soft_qn_alpha_bound(h, s, s, EigenBounds(0.5, 2.0), 0.4, 1.0) == 0.0


@pytest.mark.parametrize(
    "name, value",
    [
        ("lam_min", math.nan),
        # gave 0.125, an alpha that no longer proves the cap
        ("lam_max", math.nan),
        ("lam_min", math.inf),
        ("lam_max", -math.inf),
        ("bounds", EigenBounds(math.nan, 2.0)),
        ("bounds", EigenBounds(-math.inf, 2.0)),
        ("bounds", EigenBounds(0.5, math.nan)),
        ("bounds", EigenBounds(0.5, math.inf)),
        ("s", np.array([math.nan, 0.0])),
        ("y", np.array([0.0, math.inf])),
        ("h", np.diag([1.0, math.nan])),
    ],
)
def test_alpha_bound_refuses_non_finite_input(name, value):
    args = {
        "h": np.eye(2),
        "s": np.array([1.0, 0.0]),
        "y": np.array([0.0, 1.0]),
        "bounds": EigenBounds(0.5, 2.0),
        "lam_min": 1.0,
        "lam_max": 1.0,
    }
    args[name] = value
    with pytest.raises(ValueError, match="non-finite"):
        soft_qn_alpha_bound(**args)


@pytest.mark.parametrize(
    "h, s, y, bounds, lam_min",
    [
        # lam_min - floor and (|s| + |Hy|)^2 both overflowed: inf/inf gave NaN
        (np.eye(2), np.array([1e200, 1e200]), np.array([0.0, 1.0]), EigenBounds(-1e308, 1e308), 1e308),
        # |s| is finite but its square is not: float ** 2 raised OverflowError
        (np.eye(2), np.array([1e160, 0.0]), np.array([0.0, 1.0]), EigenBounds(0.5, 2.0), 1.0),
        # Hy sums +inf and -inf: NaN
        (np.array([[1e308, -1e308], [-1e308, 1e308]]), np.array([1.0, 0.0]), np.array([10.0, 10.0]),
         EigenBounds(0.5, 2.0), 1.0),
    ],
    ids=["slack_and_denominator", "squared_norm", "hy"],
)
def test_alpha_bound_refuses_an_overflow_without_a_warning(h, s, y, bounds, lam_min):
    # the suite turns any warning into an error
    with pytest.raises(ValueError, match="overflows"):
        soft_qn_alpha_bound(h, s, y, bounds, lam_min, 1.0)


# ---------------------------------------------------------------------------
# trace-based eigenvalue bound


def test_lambda_bound_identity_is_tight():
    assert lambda_max_upper_bound(np.eye(3)) == pytest.approx(1.0)


def test_lambda_bound_exact_for_n2():
    assert lambda_max_upper_bound(np.diag([1.0, 3.0])) == pytest.approx(3.0)


def test_lambda_bound_diag123_witness():
    bound = lambda_max_upper_bound(np.diag([1.0, 2.0, 3.0]))
    assert bound == pytest.approx(2.0 + math.sqrt(4.0 / 3.0), abs=1e-12)
    assert bound >= 3.0


def test_lambda_bound_scalar_matrix():
    assert lambda_max_upper_bound(np.array([[4.5]])) == 4.5


@pytest.mark.parametrize("a", [np.diag([1e200] * 3), np.full((3, 3), 1e160)], ids=["diag_1e200", "full_1e160"])
def test_lambda_bound_of_entries_whose_squares_overflow_is_the_top_eigenvalue(a):
    # m*m and tr(A^2)/n overflowed, and their difference was NaN after a warning
    top = float(np.linalg.eigvalsh(a)[-1])
    assert top <= lambda_max_upper_bound(a) <= top * (1.0 + 1e-12)


def test_lambda_bound_scaled_by_a_power_of_two_keeps_the_plain_formulas_bits():
    rng = np.random.default_rng(6)
    for _ in range(2000):
        n = int(rng.integers(1, 13))
        a = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-100, 100)
        a = 0.5 * (a + a.T)
        m = float(np.trace(a)) / n
        plain = m + math.sqrt(max(float(np.sum(a * a)) / n - m * m, 0.0) * (n - 1))
        assert lambda_max_upper_bound(a) == plain


@pytest.mark.parametrize(
    "a",
    [
        pytest.param(np.zeros((0, 0)), id="empty"),
        pytest.param(np.ones((2, 3)), id="non_square"),
        pytest.param(np.ones(3), id="vector"),
        pytest.param(np.diag([1.0, math.nan]), id="nan"),
        pytest.param(np.diag([1.0, math.inf]), id="inf"),
    ],
)
def test_lambda_bound_refuses_bad_input(a):
    with pytest.raises(ValueError):
        lambda_max_upper_bound(a)


# ---------------------------------------------------------------------------
# BFGS


def test_bfgs_identity_fixed_point():
    s = np.array([0.3, -1.2, 0.5])
    h_new = bfgs_update(np.eye(3), s, s)
    npt.assert_allclose(h_new, np.eye(3), atol=1e-14)


def test_bfgs_1d_hand_value():
    h_new = bfgs_update(np.array([[2.0]]), np.array([1.0]), np.array([1.0]))
    assert h_new[0, 0] == pytest.approx(1.0)


def test_bfgs_rejects_negative_curvature():
    e1 = np.array([1.0, 0.0])
    with pytest.raises(CurvatureError):
        bfgs_update(np.eye(2), e1, -e1)


def test_bfgs_curvature_tolerance_is_relative():
    s = np.array([1e-8, 0.0])
    y = np.array([1e-8, 0.0])  # s'y = 1e-16 but well above 1e-12*|s||y| = 1e-28
    h_new = bfgs_update(np.eye(2), s, y)
    assert is_positive_definite(h_new)
    s = np.array([1.0, 0.0])
    y = np.array([1e-13, 1.0])  # s'y = 1e-13 < 1e-12*|s||y| = 1e-12
    assert not bfgs_admissible(s, y)
    with pytest.raises(CurvatureError):
        bfgs_update(np.eye(2), s, y)


@pytest.mark.parametrize("tiny", [1e-100, 1e-160])
def test_bfgs_refuses_coefficients_that_overflow(tiny):
    # s'y passes the relative tolerance, but rho^2*y'Hy (at 1e-100) or rho = 1/s'y
    # (at 1e-160) overflows, and H' came back all NaN
    s = np.array([tiny, 0.0])
    assert bfgs_admissible(s, s)
    with np.errstate(all="ignore"), pytest.raises(UpdateConsistencyError):
        bfgs_update(np.eye(2), s, s)


# ---------------------------------------------------------------------------
# SP-BFGS


@pytest.mark.parametrize("big", [1e160, 1e200])
def test_sp_bfgs_refuses_coefficients_that_overflow(big):
    # s'y and y'Hy overflow to inf, so c_ss is 0*inf, and H' came back all NaN
    s = np.array([big, 0.0])
    with np.errstate(all="ignore"):
        assert sp_bfgs_admissible(s, s, 1.0)
        with pytest.raises(UpdateConsistencyError, match="overflow"):
            sp_bfgs_update(np.eye(2), s, s, 1.0)


def test_sp_update_1d_hand_value():
    # pi = 1/(s'y + 1/beta) = 1/2 and omega = 1/(s'y + 2/beta) = 1/3, so
    # H' = 2 - omega*2*s*Hy + (omega^2*y'Hy + pi + (pi - omega)*omega*y'Hy)*s^2 = 1.5
    h_new = sp_bfgs_update(np.array([[2.0]]), np.array([1.0]), np.array([1.0]), beta=1.0)
    assert h_new[0, 0] == pytest.approx(1.5, rel=1e-15)


def test_sp_update_tiny_beta_is_identity_map():
    rng = np.random.default_rng(3)
    h = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
    h = 0.5 * (h + h.T) + 3.0 * np.eye(3)
    s = rng.standard_normal(3)
    y = rng.standard_normal(3)
    h_new = sp_bfgs_update(h, s, y, beta=1e-15)
    npt.assert_allclose(h_new, h, atol=1e-10)


def test_sp_update_large_beta_matches_bfgs():
    h_new = sp_bfgs_update(np.array([[2.0]]), np.array([1.0]), np.array([1.0]), beta=1e12)
    assert h_new[0, 0] == pytest.approx(1.0, abs=1e-6)


def test_sp_update_pd_threshold():
    e1 = np.array([1.0, 0.0])
    # s'y = -1 is not above -1/beta = -0.5
    with pytest.raises(PdThresholdError):
        sp_bfgs_update(np.eye(2), e1, -e1, beta=2.0)


def test_sp_update_pd_inside_threshold():
    e1 = np.array([1.0, 0.0])
    # s'y = -1 > -1/beta = -2
    h_new = sp_bfgs_update(np.eye(2), e1, -e1, beta=0.5)
    assert is_positive_definite(h_new)


# ---------------------------------------------------------------------------
# the shared rank-two kernel: bitwise the outer-product form
#
# The references below are the outer-product expressions (four np.outer
# temporaries and a symmetrize pass) the three kernels used before they shared
# one rank-two kernel, with each outer product taken + 0.0, so that an exact
# zero product is +0.0 as in the kernel.  Every kernel must reproduce them bit
# for bit.


def _symmetrize(a):
    return 0.5 * (a + a.T)


def _soft_qn_reference(h, s, y, alpha):
    hy = h @ y
    y_h_y = float(y @ hy)
    s_t_y = float(s @ y)
    gamma = 0.5 + math.sqrt(0.25 + alpha * max(y_h_y, 0.0) + (alpha * s_t_y) * (alpha * s_t_y))
    g2 = gamma * gamma
    c_hy = alpha / g2
    c_cross = alpha * (alpha * s_t_y) / g2
    c_ss = alpha * (gamma + alpha * max(y_h_y, 0.0)) / g2
    h_new = (
        h
        - c_hy * (np.outer(hy, hy) + 0.0)
        - c_cross * ((np.outer(hy, s) + 0.0) + (np.outer(s, hy) + 0.0))
        + c_ss * (np.outer(s, s) + 0.0)
    )
    return _symmetrize(h_new)


def _bfgs_reference(h, s, y):
    rho = 1.0 / float(s @ y)
    hy = h @ y
    y_h_y = float(y @ hy)
    h_new = (
        h
        - rho * ((np.outer(s, hy) + 0.0) + (np.outer(hy, s) + 0.0))
        + (rho * rho * y_h_y + rho) * (np.outer(s, s) + 0.0)
    )
    return _symmetrize(h_new)


def _sp_bfgs_reference(h, s, y, beta):
    s_t_y = float(s @ y)
    pi = 1.0 / (s_t_y + 1.0 / beta)
    omega = 1.0 / (s_t_y + 2.0 / beta)
    hy = h @ y
    y_h_y = float(y @ hy)
    c_ss = omega * omega * y_h_y + pi + (pi - omega) * omega * y_h_y
    return _symmetrize(
        h - omega * ((np.outer(s, hy) + 0.0) + (np.outer(hy, s) + 0.0)) + c_ss * (np.outer(s, s) + 0.0)
    )


def _random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return _symmetrize(a @ a.T / n + 0.1 * np.eye(n))


def _pairs(rng, n):
    """Seeded (s, y) pairs: generic, positive curvature, s = 0, y = 0, s'y < 0."""
    s = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
    a = _random_spd(rng, n)
    yield "generic", s, rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
    yield "curved", s, a @ s + 1e-3 * np.linalg.norm(a @ s) * rng.standard_normal(n)
    yield "s0", np.zeros(n), rng.standard_normal(n)
    yield "y0", s, np.zeros(n)
    yield "negative", s, -(a @ s)


def _rank_two_reference(h, hy, s, c_hh, c_hs, c_ss):
    """The outer-product form of the shared kernel, without its hh term when c_hh is 0."""
    if c_hh != 0.0:
        h = h - c_hh * (np.outer(hy, hy) + 0.0)
    return h - c_hs * ((np.outer(hy, s) + 0.0) + (np.outer(s, hy) + 0.0)) + c_ss * (np.outer(s, s) + 0.0)


def _assert_same_bits(a, b):
    # assert_array_equal counts -0.0 equal to +0.0; the int64 view tells them apart
    npt.assert_array_equal(a, b, strict=True)
    npt.assert_array_equal(a.view(np.int64), b.view(np.int64), strict=True)


def _assert_bitwise(h_new, reference):
    _assert_same_bits(h_new, reference)
    assert np.array_equal(h_new, h_new.T)


@pytest.mark.parametrize("n", [1, 2, 7, 47, 48, 90, 200])
def test_kernels_are_bitwise_the_outer_product_form(n):
    rng = np.random.default_rng(600 + n)
    for trial in range(3):
        h = _random_spd(rng, n)
        for _, s, y in _pairs(rng, n):
            for alpha in (1e-8, 1.0, 1e8):
                _assert_bitwise(soft_qn_update(h, s, y, alpha)[0], _soft_qn_reference(h, s, y, alpha))
            if bfgs_admissible(s, y):
                _assert_bitwise(bfgs_update(h, s, y), _bfgs_reference(h, s, y))
            for beta in (1e-3, 1.0, 1e3):
                if sp_bfgs_admissible(s, y, beta):
                    _assert_bitwise(sp_bfgs_update(h, s, y, beta), _sp_bfgs_reference(h, s, y, beta))


@pytest.mark.parametrize("n", [1, 2, 7, 47, 48, 90, 200])
@pytest.mark.parametrize("beta", [1e-3, 1.0, 1e3])
def test_sp_bfgs_is_bitwise_the_outer_product_form_just_above_the_pd_threshold(n, beta):
    rng = np.random.default_rng(700 + n)
    h = _random_spd(rng, n)
    s = rng.standard_normal(n)
    y0 = rng.standard_normal(n)
    applied = 0
    for excess in (1e-11, 1e-9, 1e-6):
        # scale y so that s'y sits just above -1/beta
        target = -1.0 / beta + excess * (1.0 + 1.0 / beta)
        y = y0 * (target / float(s @ y0))
        if sp_bfgs_admissible(s, y, beta):
            applied += 1
            _assert_bitwise(sp_bfgs_update(h, s, y, beta), _sp_bfgs_reference(h, s, y, beta))
    assert applied >= 2


def _identity_with_negative_zeros(n):
    h = np.eye(n)
    h[~np.eye(n, dtype=bool)] = -0.0
    return h


# Each pair has exact zero products, some of them of negative sign (0.0 * -1.0),
# where H holds -0.0.  The kernels take every product as +0.0, and each adds its
# ss term (c_ss > 0) last, so every zero entry of H' is +0.0; the bare outer
# product would leave -0.0 there.
@pytest.mark.parametrize("n", [3, 48])
@pytest.mark.parametrize(
    "kernel, s, y",
    [
        ("bfgs", [2.0, -1.0, -0.0], [2.0, -0.0, 0.0]),
        ("soft_qn", [-0.0, 1.0, -1.0], [-0.0, 1.0, 0.0]),
        ("sp_bfgs", [0.0, -0.0, 0.0], [2.0, 2.0, 1.0]),
    ],
)
def test_kernels_give_exact_zero_products_as_positive_zero(kernel, s, y, n):
    h = _identity_with_negative_zeros(n)
    s, y = np.array(s + [1.0] * (n - 3)), np.array(y + [1.0] * (n - 3))
    if kernel == "bfgs":
        h_new, reference = bfgs_update(h, s, y), _bfgs_reference(h, s, y)
    elif kernel == "soft_qn":
        h_new, reference = soft_qn_update(h, s, y, 1.0)[0], _soft_qn_reference(h, s, y, 1.0)
    else:
        h_new, reference = sp_bfgs_update(h, s, y, 1.0), _sp_bfgs_reference(h, s, y, 1.0)
    _assert_bitwise(h_new, reference)
    zeros = h_new == 0.0
    assert zeros.any()
    assert not np.signbit(h_new[zeros]).any()


@pytest.mark.parametrize("c_hh", [0.0, 0.5])
@pytest.mark.parametrize(
    "s, hy",
    [
        pytest.param([], [], id="n0"),
        # every product underflows to a zero
        pytest.param([1e-170, -2e-170, 3e-170], [2e-170, -1e-170, 3e-170], id="underflow"),
        pytest.param([1.0, -2.0, 3.0], [np.inf, 1.0, -2.0], id="inf_in_hy"),
        pytest.param([1.0, -2.0, 0.0], [np.inf, 1.0, -2.0], id="inf_times_zero"),
        pytest.param([1.0, -2.0, 3.0], [np.nan, 1.0, -2.0], id="nan_in_hy"),
    ],
)
@pytest.mark.parametrize("copies", [1, 17])
def test_rank_two_is_bitwise_the_outer_product_form_at_the_edges(s, hy, c_hh, copies):
    s, hy = np.tile(s, copies), np.tile(hy, copies)
    h = _identity_with_negative_zeros(s.size)
    with np.errstate(all="ignore"):
        out = _rank_two(h, hy, s, c_hh, -1.5, 2.0)
        reference = _rank_two_reference(h, hy, s, c_hh, -1.5, 2.0)
    assert out.shape == (s.size, s.size)
    _assert_same_bits(out, reference)


def _double_range_vectors(size, zero_one_in=8):
    """Entries log-uniform in [1e-200, 1e200] with random signs, about one in
    ``zero_one_in`` of them 0.0 or -0.0."""
    entry = st.builds(
        lambda zero, exponent, sign: math.copysign(0.0 if zero else 10.0**exponent, sign),
        st.integers(1, zero_one_in).map(lambda k: k == 1),
        st.floats(-200.0, 200.0),
        st.sampled_from([1.0, -1.0]),
    )
    return st.lists(entry, min_size=size, max_size=size).map(np.array)


@st.composite
def _rank_two_inputs(draw):
    n = draw(st.integers(1, 12))
    # In half the examples every other entry is a zero, so that zero products whose
    # sign survives into H' (zeros in s and Hy at one index, and in H) are common.
    zero_one_in = draw(st.sampled_from([8, 2]))
    h = draw(_double_range_vectors(n * n, zero_one_in)).reshape(n, n)
    s = draw(_double_range_vectors(n, zero_one_in))
    hy = draw(_double_range_vectors(n, zero_one_in))
    c_hh, c_hs, c_ss = draw(_double_range_vectors(3))
    c_hh = draw(st.sampled_from([0.0, c_hh]))
    # the same entries, also repeated to n >= 48
    copies = draw(st.sampled_from([1, -(-48 // n)]))
    h, hy, s = np.tile(h, (copies, copies)), np.tile(hy, copies), np.tile(s, copies)
    return h, hy, s, c_hh, c_hs, c_ss


# no shrink phase: shrinking a failure over these wide draws took minutes of CPU
@settings(max_examples=300, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(_rank_two_inputs())
def test_rank_two_is_bitwise_the_outer_product_form_over_the_double_range(args):
    with np.errstate(all="ignore"):
        _assert_same_bits(_rank_two(*args), _rank_two_reference(*args))


# ---------------------------------------------------------------------------
# the 1-D norm of the hot path


@st.composite
def _norm_vectors(draw):
    """n from 0 to 300 entries of random sign, their binary exponents uniform from
    the subnormal range up to a drawn top (2**1023 at most), so that sums which
    underflow, stay finite or overflow (squares from about 1.3e154 on) all come
    up; up to three entries are then set to a signed zero, the smallest
    subnormal, NaN or an infinity."""
    n = draw(st.integers(0, 300))
    top = draw(st.integers(-1074, 1023))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mantissas = rng.uniform(1.0, 2.0, n) * rng.choice([-1.0, 1.0], n)
    v = np.ldexp(mantissas, rng.integers(-1075, top, n, endpoint=True))
    specials = st.sampled_from([0.0, -0.0, 5e-324, math.nan, math.inf, -math.inf])
    if n:
        for i, x in draw(st.lists(st.tuples(st.integers(0, n - 1), specials), max_size=3)):
            v[i] = x
    return v


def _bits(value):
    return np.float64(value).view(np.int64)


@settings(max_examples=300, deadline=None)
@given(_norm_vectors())
def test_norm_is_bitwise_np_linalg_norm_with_the_same_warnings(v):
    with warnings.catch_warnings(record=True) as ours:
        warnings.simplefilter("always")
        got = updates._norm(v)
    with warnings.catch_warnings(record=True) as numpys:
        warnings.simplefilter("always")
        want = np.linalg.norm(v)
    assert type(got) is float
    assert _bits(got) == _bits(want)
    assert [(w.category, str(w.message)) for w in ours] == [(w.category, str(w.message)) for w in numpys]


# ---------------------------------------------------------------------------
# the certified lower spectrum bound carried through the soft update


def _demmel(n):
    """n*gamma_(n+1)/(1 - gamma_(n+1)): Cholesky succeeds above this scaled lambda_min."""
    g = (n + 1) * 2.0**-53 / (1.0 - (n + 1) * 2.0**-53)
    return n * g / (1.0 - g)


def _exact_spectrum(a):
    """Eigenvalues of the float matrix a in 40-digit arithmetic, as mpf values.

    Float eigvalsh would not do: its own error, about n*u*||a||, is as large as
    the rounding bound under test, so a certificate without that bound passes it.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        return sorted(mpmath.eigsy(mpmath.matrix(a.tolist()), eigvals_only=True))


def _inverse_form_draw(mp, rng, attained=False):
    """A 40-digit soft update: (H', A = H + alpha*ss', y, alpha, gamma, lo, s'y, scale).

    H = Q diag(lam) Q' with a Householder Q, built in mpmath so that lo = min(lam)
    is its exact lambda_min; H' comes from the closed form's coefficients, not
    from A.  ``attained`` puts y on lo's eigenvector and s orthogonal to it, where
    lambda_min(H') = lo/(1 + lo*(alpha/gamma)*||y||^2) exactly.
    """
    n = int(rng.integers(2, 6)) if attained else int(rng.integers(1, 6))
    lam = 10.0 ** rng.uniform(-4.0, 4.0, n)
    v = mp.matrix(rng.standard_normal(n).tolist())
    q = mp.eye(n) - 2 * (v * v.T) / (v.T * v)[0]
    h = q * mp.diag(lam.tolist()) * q.T
    lo = min(mp.mpf(x) for x in lam)
    if attained:
        k = int(np.argmin(lam))
        y = q[:, k] * 10.0 ** rng.uniform(-2.0, 2.0)
        s = q[:, (k + 1) % n] * 10.0 ** rng.uniform(-2.0, 2.0)
    else:
        y = mp.matrix((rng.standard_normal(n) * 10.0 ** rng.uniform(-2.0, 2.0)).tolist())
        s = mp.matrix((rng.standard_normal(n) * 10.0 ** rng.uniform(-2.0, 2.0)).tolist())
        if rng.integers(0, 5) == 0:
            s = mp.zeros(n, 1)
    alpha = mp.mpf(10.0 ** rng.uniform(-8.0, 12.0))
    hy = h * y
    y_h_y, s_t_y = (y.T * hy)[0], (s.T * y)[0]
    gamma = mp.mpf(0.5) + mp.sqrt(mp.mpf(0.25) + alpha * y_h_y + (alpha * s_t_y) ** 2)
    c_hh = alpha / gamma**2
    c_hs = alpha**2 * s_t_y / gamma**2
    c_ss = alpha * (gamma + alpha * y_h_y) / gamma**2
    h_new = h - c_hh * (hy * hy.T) - c_hs * (hy * s.T + s * hy.T) + c_ss * (s * s.T)
    a = h + alpha * (s * s.T)
    scale = mp.mnorm(a, "f") + c_hh * mp.norm(hy) ** 2
    return h_new, a, y, alpha, gamma, lo, s_t_y, scale


def test_inverse_form_bounds_lambda_min_of_the_soft_update():
    """H'^-1 = (H + alpha*ss')^-1 + (alpha/gamma)*yy', so
    lambda_min(H') >= lo/(1 + lo*(alpha/gamma)*||y||^2) >= lo/gamma, in 40 digits.

    The identity is checked as A = H' + (alpha/gamma)*(H'y)(Ay)', the same
    equation multiplied by H' on the left and by A on the right, so that no
    ill-conditioned A is inverted.  Draws: alpha log-uniform over [1e-8, 1e12],
    H's spectrum over [1e-4, 1e4], random s and y (s'y of either sign) and
    s = 0 in a fifth of them.
    """
    mp = pytest.importorskip("mpmath").mp
    rng = np.random.default_rng(2026)
    signs = set()
    with mp.workdps(40):
        for i in range(150):
            h_new, a, y, alpha, gamma, lo, s_t_y, scale = _inverse_form_draw(mp, rng, attained=i < 5)
            residual = a - h_new - (alpha / gamma) * ((h_new * y) * (a * y).T)
            assert mp.mnorm(residual, "f") <= mp.mpf(10) ** -30 * scale
            bound = lo / (1 + lo * (alpha / gamma) * mp.norm(y) ** 2)
            assert bound >= lo / gamma * (1 - mp.mpf(10) ** -35)
            lam_min = min(mp.eigsy(h_new, eigvals_only=True))
            assert lam_min >= bound - mp.mpf(10) ** -30 * scale, (i, lam_min, bound)
            if i < 5:  # the bound is attained
                assert abs(lam_min / bound - 1) < mp.mpf(10) ** -25, (i, lam_min / bound)
            elif s_t_y != 0:
                signs.add(s_t_y > 0)
    assert signs == {False, True}


@st.composite
def _certificate_inputs(draw):
    """H with lambda_min near the certificate's threshold, s'y near 0 in a quarter
    of the draws and away from 0 at alpha up to 1e12 (the BFGS limit) in another,
    and alpha, ||s||, ||y|| and the scale of H log-uniform.

    The carried lower bound lo/(1 + lo*(alpha/gamma)*||y||^2) is attained when y
    lies on lo's eigenvector (every y does on a multiple of the identity) and s
    is orthogonal to y: the "lowest" draws project s off y in half of them.
    """
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hi = 10.0 ** draw(st.floats(-30.0, 30.0))
    if draw(st.booleans()):  # a multiple of the identity: every y is on lo's eigenvector
        lam = np.full(n, hi)
    else:
        ratio = min(1.0, _demmel(n) * 10.0 ** draw(st.floats(-0.5, 2.5)))
        lam = hi * np.concatenate([[ratio, 1.0], 10.0 ** rng.uniform(np.log10(ratio), 0.0, n)])[:n]
    h = np.diag(lam)
    if draw(st.booleans()):  # rotate by a Householder reflection
        v = rng.standard_normal(n)
        q = np.eye(n) - 2.0 * np.outer(v, v) / (v @ v)
        h = q @ h @ q
        h = 0.5 * (h + h.T)
    w = _exact_spectrum(h)
    if not w[0] > 0:
        return None
    # the exact lambda_min, rounded down past the 40-digit arithmetic's error
    lo = math.nextafter(float(w[0] * (1 - 1e-30)), -math.inf)
    s = rng.standard_normal(n) * 10.0 ** draw(st.floats(-20.0, 20.0))
    direction = draw(st.sampled_from(["random", "orthogonal", "lowest", "secant"]))
    if direction == "lowest":  # along the eigenvector of lambda_min
        y = np.linalg.eigh(h)[1][:, 0]
        if n > 1 and draw(st.booleans()):  # s'y = 0 up to rounding: the bound is attained
            s = s - (s @ y) * y
    else:
        y = rng.standard_normal(n)
    if direction == "orthogonal" and n > 1:  # s'y cancels down to a tiny remainder
        y = y - (s @ y) / (s @ s) * s + 10.0 ** draw(st.floats(-20.0, 0.0)) * s / np.linalg.norm(s)
    if direction == "secant":  # |s'y| at least a third of ||s||*||y||, either sign
        y = rng.choice([-1.0, 1.0]) * s / np.linalg.norm(s) + 0.5 * y / np.linalg.norm(y)
    y = y / np.linalg.norm(y) * 10.0 ** draw(st.floats(-20.0, 20.0))
    if direction != "secant" and draw(st.integers(0, 7)) == 0:
        s = np.zeros(n)
    alpha = 10.0 ** draw(st.floats(0.0, 12.0) if direction == "secant" else st.floats(-12.0, 16.0))
    return h, s, y, alpha, lo


@settings(max_examples=400, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
@given(_certificate_inputs())
def test_carried_bounds_skip_the_guard_only_where_cholesky_cannot_fail(args):
    if args is None:
        return
    h, s, y, alpha, lo = args
    try:
        h_new, scratch = soft_qn_update(h, s, y, alpha, lo)
    except UpdateConsistencyError:
        return  # the guard ran and failed: nothing was certified
    if scratch.lo is None:
        return  # the guard ran
    lo = scratch.lo
    assert np.isfinite(h_new).all()
    np.linalg.cholesky(h_new)
    w = _exact_spectrum(h_new)
    assert lo <= w[0], (lo, float(w[0]))
    # Demmel's condition, which is what makes skipping the guard sound; the
    # search is steered towards certificates that only just meet it
    margin = w[0] / (_demmel(h.shape[0]) * float(np.diag(h_new).max()))
    target(-math.log10(float(margin)))
    assert margin > 1, (float(w[0]), lo)
    # and towards carried lower bounds that are nearly reached
    target(float(lo / w[0]), label="lo'/lambda_min")


def test_carried_bound_covers_the_worst_rounding_of_hy():
    """lo' <= lambda_min(fl(H')) for any h^ within gamma_n*|H||y| of Hy, not
    only the h^ that numpy's summation order gives.

    H = 1.5*11' + eps*I is nearly rank one, so ||H||_F is close to tr H, and y
    is an eigenvector of eps, so Hy = eps*y cancels and |H||y| is about
    1.5*n/eps times |Hy|.  h^ moves every entry of Hy outwards by 0.99 of the
    rounding model's allowance, gamma = 2 and s = 0, which leaves lambda_min
    of fl(H') 0.02*eps below eps/gamma, where the carried bound starts.  A
    certificate that bounds ||H||_F by anything much below tr H, or drops its
    rounding term, claims more than lambda_min.
    """
    mpmath = pytest.importorskip("mpmath")
    n, eps = 16, 2.0**-40
    h = np.full((n, n), 1.5) + eps * np.eye(n)
    w = np.tile([1.0, -1.0], n // 2)
    y = w / eps
    assert np.array_equal(h @ y, w)
    hy = w + 0.99 * updates._gamma_k(n) * (np.abs(h) @ np.abs(y)) * w
    s = np.zeros(n)
    # the coefficients as soft_qn_update forms them, at s'y = 0 and gamma = 2
    alpha = 2.0 * eps / float(w @ hy)
    y_h_y = float(y @ hy)
    gamma = 0.5 + math.sqrt(0.25 + alpha * y_h_y)
    assert gamma == pytest.approx(2.0)
    c_hh, c_ss = alpha / gamma**2, alpha * (gamma + alpha * y_h_y) / gamma**2
    h_new = _rank_two(h, hy, s, c_hh, 0.0, c_ss)
    lo = updates._carry_bounds(eps, h, h_new, hy, s, y, alpha, y_h_y, 0.0, gamma, c_hh, 0.0, c_ss)
    lam_min = _exact_spectrum(h_new)[0]
    assert lo is not None and lo <= lam_min, (lo, float(lam_min))
    assert lam_min < eps / gamma * (1 - 0.04)  # h^ did move lambda_min down


def test_carried_bounds_skip_the_guard_and_match_the_plain_update(monkeypatch):
    rng = np.random.default_rng(5)
    n = 30
    h = np.eye(n)
    calls = []
    monkeypatch.setattr(updates, "is_positive_definite", lambda a: calls.append(1) or True)
    for _ in range(5):
        s, y = rng.standard_normal(n), rng.standard_normal(n)
        h_new, scratch = soft_qn_update(h, s, y, 0.1, 1.0)
        assert scratch.lo is not None
        _assert_same_bits(h_new, soft_qn_update(h, s, y, 0.1)[0])
    assert len(calls) == 5  # only the five plain updates ran the guard
    # no bound, or a bound that proves nothing, leaves the guard on
    for lo in [None, 1e-300]:
        assert soft_qn_update(h, s, y, 0.1, lo)[1].lo is None
    assert len(calls) == 7


@pytest.mark.parametrize(
    "lo, big",
    [(0.0, 1.0), (-1.0, 1.0), (math.nan, 1.0), (math.inf, 1.0), (1.0, 1.7e308)],
    ids=["zero", "negative", "nan", "inf", "trace_overflows"],
)
def test_bounds_outside_the_carry_range_run_the_guard(monkeypatch, lo, big):
    # _carry_bounds takes only 0 < lo < 2**960 and an H whose trace stays below
    # 2**960; anything else carries nothing.  At big = 1.7e308, lo = 1 is a
    # valid bound but tr H overflows, and y avoids the huge entries, so nothing
    # else in the update overflows
    rng = np.random.default_rng(6)
    h = np.diag([big, big, 1.0, 1.0])
    s, y = rng.standard_normal(4), rng.standard_normal(4)
    y[h.diagonal() > 1.0] = 0.0
    plain = soft_qn_update(h, s, y, 0.1)[0]
    calls = []
    guard = updates.is_positive_definite
    monkeypatch.setattr(updates, "is_positive_definite", lambda a: calls.append(1) or guard(a))
    h_new, scratch = soft_qn_update(h, s, y, 0.1, lo)
    assert scratch.lo is None
    assert len(calls) == 1
    _assert_same_bits(h_new, plain)


def test_kernels_leave_inputs_alone_and_return_fresh_memory():
    rng = np.random.default_rng(41)
    n = 6
    h = _random_spd(rng, n)
    s = rng.standard_normal(n)
    y = _random_spd(rng, n) @ s
    calls = {
        "soft_qn": lambda: soft_qn_update(h, s, y, 3.0)[0],
        "bfgs": lambda: bfgs_update(h, s, y),
        "sp_bfgs": lambda: sp_bfgs_update(h, s, y, 2.0),
    }
    for name, call in calls.items():
        h0, s0, y0 = h.copy(), s.copy(), y.copy()
        h_new = call()
        npt.assert_array_equal(h, h0, err_msg=name)
        npt.assert_array_equal(s, s0, err_msg=name)
        npt.assert_array_equal(y, y0, err_msg=name)
        assert not np.shares_memory(h_new, h), name
        assert not np.array_equal(h_new, h), name


# ---------------------------------------------------------------------------
# directions and policies


def test_biased_direction_examples():
    e1 = np.array([1.0, 0.0])
    npt.assert_array_equal(biased_direction(np.eye(2), e1), -e1)


def test_constant_policies():
    assert ConstantAlpha(0.3).value(np.eye(2), np.zeros(2), np.zeros(2)) == 0.3
    assert ConstantBeta(2.0).value(np.zeros(2), np.zeros(2)) == 2.0


def test_step_norm_beta():
    s = np.array([3.0, 4.0])
    assert StepNormBeta(0.1, 1e-10).value(s, s) == pytest.approx(0.5 + 1e-10)


def test_curvature_relaxed_beta_keeps_update_applicable():
    policy = CurvatureRelaxedBeta(1e-2, relax=0.9)
    s = np.array([1.0, 0.0])
    y = np.array([-2.0, 0.0])  # s'y = -2
    beta = policy.value(s, y)
    assert beta == pytest.approx(0.45)
    # relaxed beta satisfies s'y > -1/beta, so the update goes through
    h_new = sp_bfgs_update(np.eye(2), s, y, beta)
    assert is_positive_definite(h_new)
    # nonnegative curvature keeps the constant beta
    assert policy.value(s, -y) == 1e-2

